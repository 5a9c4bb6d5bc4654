"""The tensor product with a directional harmonic filter equals a
per-order complex linear map inside that direction's local frame.

Once the filter direction is canonicalized onto the target axis, only the
m = 0 filter components survive, the Clebsch-Gordan tables collapse to a
2x2 block per order, and the whole contraction factors as rotate -> mix
per order -> rotate back.  The big win is cost: dense path contractions
scale like L^6 in the maximum degree, the frame route like L^3.
"""

import numpy as np

from so2frames import (OpCounter, counting, escn_reference_apply, real_spherical_harmonics,
                       so3_tensor_product, valid_paths)
from so2frames.irreps import So3Features, so3_layout
from so2frames.sampling import random_unit_vector, stream

rng = stream(0, "demo-escn")

print("== the two routes agree to machine precision ==")
L = 4
degrees = tuple(range(L + 1))
layout = so3_layout([(l, 2) for l in degrees])
paths = valid_paths(degrees, degrees, L)
weights = {p: rng.normal(size=2) for p in paths}
x = So3Features(layout, [rng.normal(size=layout.block_shape(l)) for l in degrees])
r = random_unit_vector(rng)

direct = so3_tensor_product(x, real_spherical_harmonics(L, r), weights)
via_frame = escn_reference_apply(x, r, weights, degrees)
err = max(np.max(np.abs(a - b))
          for a, b in zip(direct.as_arrays(), via_frame.as_arrays()))
print(f"degrees 0..{L}, {len(paths)} paths, 2 channels: max |difference| = {err:.2e}")

print("\n== multiply counts over the degree cap ==")
print(f"{'L':>3} {'tensor product':>15} {'rotate+mix':>12}")
tp_counts, rot_counts = [], []
Ls = range(2, 9)
for L in Ls:
    degrees = tuple(range(L + 1))
    layout = so3_layout([(l, 1) for l in degrees])
    w = {p: rng.normal(size=1) for p in valid_paths(degrees, degrees, L)}
    feats = So3Features(layout, [rng.normal(size=layout.block_shape(l))
                                 for l in degrees])
    d = random_unit_vector(rng)
    c1, c2 = OpCounter(), OpCounter()
    with counting(c1):
        so3_tensor_product(feats, real_spherical_harmonics(L, d), w)
    with counting(c2):
        escn_reference_apply(feats, d, w, degrees)
    tp_counts.append(c1.get("so3_tp"))
    rot_counts.append(c2.get("frame_rotation") + c2.get("so2_linear"))
    print(f"{L:>3} {tp_counts[-1]:>15} {rot_counts[-1]:>12}")

lg = np.log(np.array(list(Ls), dtype=float))
print(f"\nlog-log slopes: tensor product {np.polyfit(lg, np.log(tp_counts), 1)[0]:.2f} "
      f"(~L^6), rotate+mix {np.polyfit(lg, np.log(rot_counts), 1)[0]:.2f} (~L^3)")
