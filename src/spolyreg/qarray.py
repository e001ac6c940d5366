"""Vectorised quaternion arithmetic on ndarrays of shape (..., 4).

The quadrature and kernel layers evaluate series on thousands of grid
points; doing that through scalar Quaternion objects is two orders of
magnitude too slow, so batched values are held as float arrays with the
component order (w, x, y, z).
"""
from __future__ import annotations

import numpy as np

from .quat import Quaternion

__all__ = [
    "from_quaternion",
    "to_quaternion",
    "check_batch",
    "qmul",
    "qconj",
    "norm_sq",
    "gram",
    "to_slice",
    "from_slice",
    "lift",
    "lift_conj_product",
]


def from_quaternion(q: Quaternion) -> np.ndarray:
    return np.array([float(q.w), float(q.x), float(q.y), float(q.z)])


def to_quaternion(a) -> Quaternion:
    a = np.asarray(a, dtype=float)
    if a.shape != (4,):
        raise ValueError(f"expected shape (4,), got {a.shape}")
    return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


def check_batch(a) -> np.ndarray:
    """a as a float (N, 4) batch; any other shape is refused with a ValueError."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != 4:
        raise ValueError(f"expected an (N, 4) batch of quaternions, got shape {a.shape}")
    return a


def qmul(a, b) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, x1, y1, z1 = np.moveaxis(a, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(b, -1, 0)
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


def qconj(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def norm_sq(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return np.sum(a * a, axis=-1)


# conj(e_i) e_j for the basis 1, i, j, k: one signed basis element each
_CONJ_TABLE = qmul(qconj(np.eye(4))[:, None, :], np.eye(4))


def gram(a, b, w) -> np.ndarray:
    """sum_n w_n conj(a[r, n]) b[s, n] for (R, N, 4) and (S, N, 4) batches,
    shape (R, S, 4), as 16 component matrix products; R or S may be 0."""
    a = np.asarray(a, dtype=float)
    wb = np.asarray(b, dtype=float) * np.asarray(w, dtype=float)[:, None]
    out = np.zeros((len(a), len(wb), 4))
    for i, j, k in zip(*np.nonzero(_CONJ_TABLE)):
        out[..., k] += _CONJ_TABLE[i, j, k] * (a[..., i] @ wb[..., j].T)
    return out


def to_slice(a) -> tuple[np.ndarray, np.ndarray]:
    """Split an (..., 4) batch a = x + U y into its complex coordinate
    z = x + i y, y = |Im a|, and its (..., 3) unit directions U (zero at
    real points).  Values that live in the slice of their argument are
    then plain complex numbers."""
    a = np.asarray(a, dtype=float)
    y = np.linalg.norm(a[..., 1:], axis=-1)
    return a[..., 0] + 1j * y, a[..., 1:] / np.where(y > 0, y, 1.0)[..., None]


def from_slice(z, unit) -> np.ndarray:
    """Re z + unit Im z as an (..., 4) batch, broadcasting z against the
    leading axes of the (..., 3) unit directions."""
    z = np.asarray(z)
    unit = np.asarray(unit, dtype=float)
    out = np.empty(np.broadcast_shapes(z.shape, unit.shape[:-1]) + (4,))
    out[..., 0] = z.real
    np.multiply(z.imag[..., None], unit, out=out[..., 1:])
    return out


def lift(w, unit) -> np.ndarray:
    """Re w + U Im w for a complex (..., 4) array w, the unit U (..., 3)
    multiplying the quaternion Im w from the left: the value of a slice
    function whose slice coordinate z has been carried into w."""
    w = np.asarray(w)
    return w.real + qmul(from_slice(1j, unit), w.imag)


def lift_conj_product(s1, s2, u, v) -> np.ndarray:
    """sum_n X_n conj(Y_n) for slice-resident X_n = a_n + U b_n and
    Y_n = c_n + V d_n, from the complex sums s1 = sum x_n y_n and
    s2 = sum x_n conj(y_n) of their slice coordinates x = a + i b,
    y = c + i d (the sum runs over whatever axis the caller contracted).

    Each product is ac + bd<U,V> - ad V + bc U - bd UxV, and its four
    real sums are read off s1 and s2.  u and v, shape (..., 3), broadcast
    against the leading axes of s1 and s2; the result has shape (..., 4)."""
    ac, bd = (s1 + s2).real / 2.0, (s2 - s1).real / 2.0
    ad, bc = (s1 - s2).imag / 2.0, (s1 + s2).imag / 2.0
    u, v = np.broadcast_arrays(u, v)
    out = np.empty(np.broadcast_shapes(ac.shape, u.shape[:-1]) + (4,))
    out[..., 0] = ac + bd * np.sum(u * v, axis=-1)
    out[..., 1:] = (bc[..., None] * u - ad[..., None] * v
                    - bd[..., None] * np.cross(u, v))
    return out
