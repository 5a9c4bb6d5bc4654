"""A fixed reference kernel that samples the host's speed during a run.

On a shared host the CPU speed a process gets drifts by tens of percent
over minutes, as other tenants come and go.  The same op then takes
longer in one run than in the next, for reasons that have nothing to do
with the program.  ``run.py`` therefore times this kernel between ops, in
the same process and on the same CPUs, and reports op times relative to
it as well as in milliseconds.

The kernel is plain numpy and Python of the kind the library's hot paths
run: Givens rotations on a small symmetric matrix (the shape of the
cyclic Jacobi eigensolver), chains of small ``einsum`` contractions (the
shape of the SO(2) layers) and dict-keyed bookkeeping (the shape of the
autodiff tape).  It imports nothing from ``so2frames``, so no change to
the library changes its cost.  Do not edit it: every relative metric is
measured in its units, and changing it rescales them all.
"""

from __future__ import annotations

import numpy as np

_N = 24
_SWEEPS = 2
_A = np.random.default_rng(20240611).standard_normal((_N, _N))
_A = _A + _A.T
_W = np.random.default_rng(20240612).standard_normal((4, 8, 8))
_STEPS = 150


def kernel() -> float:
    """One unit of reference work, about 17 ms on a 2 GHz Xeon core."""
    A = _A.copy()
    for _ in range(_SWEEPS):
        for p in range(_N - 1):
            for q in range(p + 1, _N):
                apq = A[p, q]
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
    x = np.ones((4, 8))
    grads = {}
    for step in range(_STEPS):
        y = np.einsum("mij,mj->mi", _W, x)
        x = y / np.linalg.norm(y, axis=1, keepdims=True)
        grads[(step % 7, step % 3)] = grads.get((step % 7, step % 3), 0.0) + x
    return float(np.trace(A)) + float(sum(g.sum() for g in grads.values()))
