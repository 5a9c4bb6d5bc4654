"""The four planar-equivariant building blocks: Linear, Gate, LayerNorm,
and the Tensor Product, each checked against its defining identity.
"""

import math

import numpy as np

from so2frames import (So2Features, enumerate_tp_paths, init_so2_gate,
                       init_so2_layernorm, init_so2_linear, rotate_so2, so2_gate,
                       so2_layernorm, so2_linear, so2_tp_contract, so2_tp_pair)
from so2frames.irreps import so2_layout
from so2frames.sampling import stream

rng = stream(0, "demo-so2ops")
layout = so2_layout([(0, 4), (1, 3), (2, 2)])
x = So2Features(layout, [rng.normal(size=layout.block_shape(m))
                         for m in layout.indices])


def dev(a, b):
    return max(np.max(np.abs(p - q)) for p, q in zip(a.as_arrays(), b.as_arrays()))


print("== SO(2) Linear is complex matrix multiplication ==")
params = init_so2_linear({}, "lin", layout, layout, rng)
z = so2_linear(x, params, "lin")
w_c = params["lin/1/w1"] + 1j * params["lin/1/w2"]
x_c = np.asarray(x.block(1))[:, 1] + 1j * np.asarray(x.block(1))[:, 0]
z_c = np.asarray(z.block(1))[:, 1] + 1j * np.asarray(z.block(1))[:, 0]
print(f"order 1: |real-pair result - complex matvec| = "
      f"{np.max(np.abs(w_c @ x_c - z_c)):.2e}")

print("\n== every op commutes with planar rotations ==")
init_so2_gate(params, "gate", layout, rng)
init_so2_layernorm(params, "ln", layout)
phi = rng.uniform(0, 2 * math.pi)
for name, op in [("linear", lambda f: so2_linear(f, params, "lin")),
                 ("gate", lambda f: so2_gate(f, params, "gate")),
                 ("layernorm", lambda f: so2_layernorm(f, params, "ln"))]:
    err = dev(op(rotate_so2(x, phi)), rotate_so2(op(x), phi))
    print(f"  {name:9s}: commutation error {err:.2e}")

print("\n== tensor product = complex multiplication across orders ==")
a = rng.normal(size=(2, 2))
b = rng.normal(size=(2, 2))
prod, m_out = so2_tp_pair(a, 2, b, 1, -1)
ca = a[:, 1] + 1j * a[:, 0]
cb = b[:, 1] + 1j * b[:, 0]
ref = ca * np.conj(cb)
got = np.asarray(prod)[:, 1] + 1j * np.asarray(prod)[:, 0]
print(f"(order 2) x conj(order 1) -> order {m_out}: error {np.max(np.abs(ref - got)):.2e}")

print("\n== fusion paths ==")
for m_max in (2, 4):
    for arity in (2, 3):
        n = len(enumerate_tp_paths(m_max, arity))
        print(f"  M_max={m_max}, v={arity}: {n} paths")
uniform = so2_layout([(m, 2) for m in range(3)])
u = So2Features(uniform, [rng.normal(size=uniform.block_shape(m)) for m in uniform.indices])
w = [rng.normal(size=2) for _ in enumerate_tp_paths(2, 3)]
out = so2_tp_contract(u, 3, w)      # u multiplied with itself along every 3-fold path
rot = so2_tp_contract(rotate_so2(u, phi), 3, w)
print(f"3-fold contraction commutation error: {dev(rot, rotate_so2(out, phi)):.2e}")
