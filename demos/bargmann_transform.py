"""The Segal-Bargmann transform onto a slice Bargmann space.

Integrating a line function against the level-k coherent state kernel
produces a quaternion-valued function; the Hermite functions on the line
land exactly on scaled quaternionic Hermite polynomials.

Run:  python3 demos/bargmann_transform.py
"""
import math

import numpy as np

from spolyreg import (
    HermiteLine,
    b2_norm_closed,
    basis_image_scale,
    hermite_quat,
    quat,
    transform_batch,
)

v = transform_batch(0, HermiteLine(0), np.zeros((1, 4)))[0]
print(f"Ground state at the origin: {v[0]:.15f}  (pi^-1/4 = {math.pi ** -0.25:.15f})\n")

q = quat(0.4, -0.7, 0.3, 0.5)
print("Basis mapping  B_2,k h_j = scale(j,k) H_{j,k}:")
for j, k in ((1, 0), (2, 2), (3, 1)):
    got = transform_batch(k, HermiteLine(j), np.array([q.as_tuple()], dtype=float))[0]
    want = hermite_quat(j, k, q) * basis_image_scale(j, k)
    print(f"  (j,k)=({j},{k})  transform {tuple(float(c) for c in got)}")
    print(f"           target    {want.as_tuple()}")

print("\nCoherent state norms do not depend on the level:")
for qq in (quat(0), quat(1, 0.5, -0.3, 0.2)):
    print(f"  |q| = {float(qq.norm()):.4f}:  closed form {b2_norm_closed(qq):.12f}"
          f"  = e^(|q|^2/2)/sqrt(pi)")
