"""Two independent routes to the same reproducing kernel, and its closed form.

The level-k kernel can be summed as a bilinear Hermite series, or
assembled as a star-product expression (exponential times star-Laguerre)
and then evaluated.  The two computations share no code path, so their
agreement off the common slice is a strong correctness check.  The
closed form (1/pi) e^(pbar q) L_k(|p-q|^2) of each slice, lifted to every
pair, is the value both truncated routes approach.

Run:  python3 demos/kernel_paths.py
"""
import math

from spolyreg import KernelSpec, kernel_value, quat

p = quat(0.4, 0.3, -0.7, 0.2)
q = quat(-0.1, 0.8, 0.3, -0.5)

print("Off-slice pair, both routes and the closed form, levels 0..4:")
print("  k   series path            star path              closed form"
      "            max |difference|")
for k in range(5):
    a = kernel_value(KernelSpec("second", k, "series"), p, q)
    b = kernel_value(KernelSpec("second", k, "star"), p, q)
    c = kernel_value(KernelSpec("second", k, "closed"), p, q)
    diff = max((a - b).norm(), (a - c).norm(), (b - c).norm())
    print(f"  {k}   {a.w:+.15f}   {b.w:+.15f}   {c.w:+.15f}   {diff:.2e}")

print("\nOn a common slice the closed form is the classical kernel:")
u = quat(0, 0.6, 0.8, 0)
ps = quat(0.9) + u * 0.4
qs = quat(-0.3) + u * 1.1
for k in range(3):
    a = kernel_value(KernelSpec("second", k), ps, qs)
    c = kernel_value(KernelSpec("second", k, "closed"), ps, qs)
    print(f"  k={k}: series {a.w:+.15f}  closed {c.w:+.15f}  diff {(a - c).norm():.2e}")

print("\nDiagonal values are level independent:")
ref = math.exp(float(q.norm_sq())) / math.pi
for k in range(4):
    v = kernel_value(KernelSpec("second", k), q, q)
    print(f"  K_2,{k}(q,q) = {v.w:.15f}   e^|q|^2 / pi = {ref:.15f}")
