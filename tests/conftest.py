import numpy as np
import pytest

from so2frames import autodiff as ad
from so2frames.sampling import stream


@pytest.fixture
def rng():
    return stream(20240817, "tests")


def sum_entries(x):
    """The sum of all entries of ``x`` as a taped scalar."""
    return ad.sum_axis(ad.reshape(x, (-1,)), axis=0)


def tape_of(outputs):
    """The Var nodes reachable from ``outputs``."""
    seen, stack = {}, list(outputs)
    while stack:
        node = stack.pop()
        if isinstance(node, ad.Var) and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def directional_vjp_check(loss_fn, arrays, rng, step=1e-6):
    """Compare tape gradients against a central finite difference.

    ``loss_fn`` maps a list of Vars/ndarrays to a scalar (Var).  Draws one
    random direction over all inputs and returns the relative error of the
    directional derivative.
    """
    leaves = [ad.Var(a) for a in arrays]
    loss = loss_fn(leaves)
    ad.backward(loss)
    direction = [rng.normal(size=a.shape) for a in arrays]
    analytic = sum(float(np.sum((leaf.grad if leaf.grad is not None else 0.0) * d))
                   for leaf, d in zip(leaves, direction))
    plus = loss_fn([a + step * d for a, d in zip(arrays, direction)])
    minus = loss_fn([a - step * d for a, d in zip(arrays, direction)])
    fd = (float(ad.value_of(plus)) - float(ad.value_of(minus))) / (2.0 * step)
    scale = max(abs(fd), abs(analytic), 1e-8)
    return abs(fd - analytic) / scale
