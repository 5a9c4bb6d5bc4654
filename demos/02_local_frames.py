"""SO(2) local frames: canonicalization, projection, and the collapse of
frame averaging.

A frame rotates a reference direction onto the fixed target axis; inside
it, only planar rotations about that axis (the stabilizer) remain, and
SO(3) features regroup into SO(2) features order by order.  For any
stabilizer-equivariant inner map, averaging over the whole frame equals
evaluating at the single canonical rotation, which is why one rotation
per direction suffices for exact global equivariance.
"""

import numpy as np

from so2frames import (So2Features, So3Features, frame_average_check,
                       frame_from_direction, from_local, layout_parse,
                       rotate_so3, rotation_from_matrix, so2_linear, to_local)
from so2frames.frames import so2_layout_of
from so2frames.irreps import So2Features
from so2frames.sampling import random_rotation_matrix, random_unit_vector, stream
from so2frames.so2ops import init_so2_linear

rng = stream(0, "demo-frames")
layout = layout_parse("3x0e+2x1e+2x2e+1x3e")
x = So3Features(layout, [rng.normal(size=layout.block_shape(l))
                         for l in layout.indices])

print("== projection into a frame ==")
r = random_unit_vector(rng)
frame = frame_from_direction(r, layout.max_index)
local = to_local(frame, x)
print(f"SO(3) layout {layout}  ->  SO(2) layout {local.layout}")
back = from_local(frame, local, layout)
err = max(np.max(np.abs(a - b)) for a, b in zip(x.as_arrays(), back.as_arrays()))
print(f"round trip error {err:.2e}; norms {x.norm():.6f} vs {local.norm():.6f} "
      "(the mapping is an isometry)")

print("\n== canonicalized pipelines are globally equivariant ==")
reg = so2_layout_of(layout)
weights = init_so2_linear({}, "lin", reg, reg, stream(1, "demo-frames-weights"))


def pipeline(direction, feats):
    f = frame_from_direction(direction, layout.max_index)
    return from_local(f, so2_linear(to_local(f, feats), weights, "lin"), layout)


g = rotation_from_matrix(random_rotation_matrix(rng))
lhs = pipeline(g.apply(r), rotate_so3(x, g))
rhs = rotate_so3(pipeline(r, x), g)
err = max(np.max(np.abs(a - b)) for a, b in zip(lhs.as_arrays(), rhs.as_arrays()))
print(f"pipeline(g r, D(g) x) vs D(g) pipeline(r, x): max error {err:.2e}")

print("\n== frame averaging collapses to one rotation ==")
dev = frame_average_check(lambda f: so2_linear(f, weights, "lin"), r, x, 64,
                          stream(2, "demo-frames-avg"))
print(f"equivariant map: 64-sample stabilizer average vs single rotation "
      f"deviates by {dev:.2e}")


def broken(f: So2Features) -> So2Features:
    blocks = []
    for m, block in f.items():
        arr = np.array(block)
        if m > 0:
            arr[:, 0] = arr[:, 0] ** 2
        blocks.append(arr)
    return So2Features(f.layout, blocks)


dev = frame_average_check(broken, r, x, 64, stream(3, "demo-frames-neg"))
print(f"non-equivariant map (squares one component): deviation {dev:.2e} "
      "- the collapse only holds for stabilizer-equivariant maps")
