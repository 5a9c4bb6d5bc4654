"""Feature containers and harmonic bases.

Walks through the two irrep container types, the layout grammar, and the
defining property of the harmonic bases: evaluating at a rotated argument
equals applying the representation matrix.
"""

import math

import numpy as np

from so2frames import (circular_harmonics, layout_parse, real_spherical_harmonics,
                       rotate_so2, rotation_from_matrix, wigner_d)
from so2frames.frames import TARGET_AXIS
from so2frames.sampling import random_rotation_matrix, random_unit_vector, stream

rng = stream(0, "demo-irreps")

print("== layouts ==")
layout = layout_parse("256x0e+128x1e+64x2e+32x3e+16x4e")
print(f"parsed {layout}: total scalar length {sum(m * d for m, d in layout.shapes)}")
mirreps = layout_parse("1024x0m+256x1m+64x2m+32x3m+16x4m")
print(f"parsed {mirreps}: total scalar length {sum(m * d for m, d in mirreps.shapes)} "
      f"(m=0 blocks are width 1, m>0 blocks width 2)")

print("\n== real spherical harmonics ==")
direction = random_unit_vector(rng)
y = real_spherical_harmonics(4, direction)
print(f"Y_00 = {y.block(0)[0, 0]:.10f} (constant 1/(2 sqrt(pi)) = "
      f"{1 / (2 * math.sqrt(math.pi)):.10f})")
pole = real_spherical_harmonics(4, TARGET_AXIS)
print("at the target axis only m=0 survives; max |m!=0 component| per degree:",
      [float(np.max(np.abs(np.delete(b[0], l)))) for l, b in pole.items() if l > 0])

print("\nrotation property Y(R r) = D(R) Y(r):")
R = rotation_from_matrix(random_rotation_matrix(rng))
y_rot = real_spherical_harmonics(4, R.matrix @ direction)
for l in range(5):
    err = np.max(np.abs(wigner_d(l, R) @ y.block(l)[0] - y_rot.block(l)[0]))
    print(f"  degree {l}: max error {err:.2e}")

print("\n== circular harmonics ==")
delta, phi = rng.uniform(0, 2 * math.pi, size=2)
direct = circular_harmonics(4, delta + phi)
rotated = rotate_so2(circular_harmonics(4, delta), phi)
err = max(np.max(np.abs(a - b))
          for a, b in zip(direct.as_arrays(), rotated.as_arrays()))
print(f"angle addition B(delta + phi) = R(phi) B(delta): max error {err:.2e}")
print("the (x_-m, x_+m) pair read as x_+m + i x_-m just multiplies by e^(i m phi)")
