"""Slice Segal-Bargmann kernels and transforms.

The level-k coherent state kernel

    B_{2,k}(t; q) = (1/pi)^(3/4) (2^k k!)^(-1/2)
                    exp(-(t^2 + qbar^2)/2 + sqrt(2) qbar t) H_k(sqrt(2) Re q - t)

lives in the slice of q for each real t: one complex number.  The
transform pairs it against a line function on the Gauss-Hermite rule in
one complex matrix product, lifted along the unit of q,

    [B_{2,k} phi](q) = <B_{2,k}(.; q), phi>_R,

and sends the Hermite function h_j to (1/pi)^(1/4) sqrt(2^j / k!) H_{j,k};
in particular it is a scaled isometry onto the level-k polyanalytic
space.
"""
from __future__ import annotations

import math

import numpy as np

from . import qarray
from .poly import hermite_H, hermite_fn
from .quat import quat
from .quad import QuadratureDegreeError, Rule1D, gauss_hermite, values_on

__all__ = [
    "PREFACTOR",
    "HermiteLine",
    "SampledLine",
    "b2_grid",
    "transform_batch",
    "IMAG_LIMIT",
    "REAL_LIMIT",
    "LINE_NODES_MIN",
    "basis_image_scale",
    "b2_norm_closed",
    "isometry_grams",
]

PREFACTOR = (1.0 / math.pi) ** 0.75
_ALIGN_TOL = 1e-10   # largest node offset at which a SampledLine is read


class HermiteLine:
    """The Hermite function h_j as a line function; knows its degree."""

    def __init__(self, j: int):
        self.j = j
        self.degree = j

    def __call__(self, t):
        return hermite_fn(self.j, t)

    def eval_many(self, ts) -> np.ndarray:
        return qarray.from_slice(hermite_fn(self.j, np.asarray(ts, dtype=float)), np.zeros(3))

    def __repr__(self):
        return f"HermiteLine({self.j})"


class SampledLine:
    """A line function given by samples on quadrature nodes, read on nodes within _ALIGN_TOL = 1e-10."""

    def __init__(self, nodes, values):
        self.nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape == self.nodes.shape:
            values = qarray.from_slice(values, np.zeros(3))
        if values.shape != self.nodes.shape + (4,):
            raise ValueError("samples must be real or quaternion quadruples per node")
        self.values = values

    def eval_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if ts.shape != self.nodes.shape or np.max(np.abs(ts - self.nodes)) > _ALIGN_TOL:
            raise ValueError("sample grid not aligned with quadrature nodes")
        return self.values


def _scale(k: int) -> float:
    return PREFACTOR / math.sqrt(2.0 ** k * math.factorial(k))


def _b2_slice(k: int, ts, qpts) -> tuple[np.ndarray, np.ndarray]:
    """B_{2,k}(t; q) as complex (N, T) values in the slice of q, and the (N, 3)
    units of q.  With z = x + iy, y = |Im q|, u = sqrt(2) x - t, the exponent is
    (x^2 - u^2)/2 - i sqrt(2) y t + (y^2/2 + ixy): a real table H_k(u)
    e^((x^2 - u^2)/2) per distinct x, a phase table per distinct y and a factor
    per row, so a slice rule's tensor grid pays per coordinate, not per point.
    Domain: a cell is finite while |H_k(u)| e^((x^2 - u^2 + y^2)/2) is; past
    |Im q| = sqrt(2 * 709.78) = 37.7 the row factor overflows: inf or nan rows."""
    z, unit = qarray.to_slice(np.asarray(qpts, dtype=float).reshape(-1, 4))
    ts = np.asarray(ts, dtype=float)
    xs, xi = np.unique(z.real, return_inverse=True)
    ys, yi = np.unique(z.imag, return_inverse=True)
    u = math.sqrt(2.0) * xs[:, None] - ts
    real = hermite_H(k, u) * np.exp((xs[:, None] ** 2 - u * u) / 2.0)
    w = real[xi] * np.exp(-1j * math.sqrt(2.0) * ys[:, None] * ts)[yi]
    w *= (np.exp(z.imag ** 2 / 2.0 + 1j * z.real * z.imag) * _scale(k))[:, None]
    return w, unit


def b2_grid(k: int, ts: np.ndarray, qpts: np.ndarray) -> np.ndarray:
    """B_{2,k}(t; q) for a batch of q, shape (N, T, 4); N may be 0; domain as in _b2_slice."""
    w, unit = _b2_slice(k, ts, qpts)
    return qarray.from_slice(w, unit[:, None, :])


def _paired(k: int, rule: Rule1D, qpts, vals) -> tuple[np.ndarray, np.ndarray]:
    """sum_t w_t conj(B_{2,k}(t; q)) v(t) for real (T, M) columns v: one complex
    product, (N, M) values in the slice of q, with the (N, 3) units of q.  v is
    real, so the product is conjugated, not the (N, T) coherent state."""
    w, unit = _b2_slice(k, rule.nodes, qpts)
    return np.conj(w @ (vals * rule.line_weights[:, None])), unit


DEFAULT_LINE_NODES = 80
IMAG_LIMIT = 5.5      # |Im q| the CLI transform accepts; see transform_batch
REAL_LIMIT = 8.0      # |Re q| the CLI transform accepts; see transform_batch
LINE_NODES_MIN = 75   # fewest line nodes accurate to 1e-7 on that domain


def _line_rule(rule, k: int, lines) -> Rule1D:
    if rule is None:
        rule = gauss_hermite(DEFAULT_LINE_NODES)
    deg = max((phi.degree for phi in lines if getattr(phi, "degree", None) is not None),
              default=None)
    if deg is not None and rule.n < deg + k + 1:
        raise QuadratureDegreeError(
            f"line rule with n={rule.n} too small for Hermite degree {deg} "
            f"at kernel level {k}")
    return rule


def transform_batch(k: int, phi, qpts: np.ndarray,
                    rule: Rule1D | None = None) -> np.ndarray:
    """Transform values on an (N, 4) batch of evaluation points: (N, 4) for
    one line function phi, (M, N, 4) for a list or tuple of M of them, all
    paired against one coherent-state table in one complex product.

    Any q is accepted.  The integrand grows like e^(|Im q|^2/2) and
    oscillates, so the rounding error is about eps e^(|Im q|^2/2) relative
    (4.5e-10 at |Im q| = 5, 6.5e-9 at 5.5, 9.4e-8 at 6 for |Re q| <= 8); the
    CLI refuses |Im q| > IMAG_LIMIT.  The coherent state is centred at
    t = sqrt(2) Re q, so a large |Re q| leaves the rule's nodes: over h_0..h_6,
    levels 0..6 and |Im q| <= 5.5 the worst relative error is 6.5e-9 at
    |Re q| = 8 and 5.4e-7 at 9 with 80 nodes, and 3.7e-8 at 8 with
    LINE_NODES_MIN = 75 nodes (1.1e-7 with 74); the CLI refuses |Re q| > REAL_LIMIT.
    Slice pairings of the values, as in isometry_grams, stay accurate at
    larger |Im q| because the e^(-|q|^2) weights damp the error."""
    many = isinstance(phi, (list, tuple))
    lines = phi if many else [phi]
    rule = _line_rule(rule, k, lines)
    vals = np.stack([values_on(f, rule.nodes) for f in lines], axis=1)   # (T, M, 4)
    s, unit = _paired(k, rule, qpts, vals.reshape(len(rule.nodes), -1))
    out = np.moveaxis(qarray.lift(s.reshape(len(s), len(lines), 4), unit[:, None]), 1, 0)
    return out if many else out[0]


def basis_image_scale(j: int, k: int) -> float:
    """[B_{2,k} h_j] = basis_image_scale(j,k) * H_{j,k}."""
    return (1.0 / math.pi) ** 0.25 * math.sqrt(2.0 ** j / math.factorial(k))


def b2_norm_closed(q):
    """Line norm of the coherent state, ||B_{2,k}(.; q)||_R = e^(|q|^2/2)/sqrt(pi),
    independent of the level k: a float at one point, an (N,) array on an (N, 4)
    batch, each row rounded by math.exp as the one-point call is."""
    if isinstance(q, np.ndarray):
        n2 = qarray.norm_sq(qarray.check_batch(q))
        return np.array([math.exp(v / 2.0) for v in n2]) / math.sqrt(math.pi)
    return math.exp(float(quat(q).norm_sq()) / 2.0) / math.sqrt(math.pi)


def isometry_grams(k: int, j_max: int, qquad, rule: Rule1D | None = None):
    """Gram matrix of the transformed Hermite basis under the slice
    pairing next to the Gram matrix of the basis itself on the line.

    Returns (gram_images, gram_line) as (J+1, J+1, 4) arrays; the scaled
    isometry makes them equal.  The Hermite lines are real, so their images
    are x + U y at each point, with complex slice coordinates s = x + i y
    from one complex product, and conj(x_a + U y_a)(x_b + U y_b) =
    Re(conj(s_a) s_b) + U Im(conj(s_a) s_b): the image Gram is one complex
    contraction of conj(s) against s weighted by w_n and by w_n U_n, for
    any points, not only one slice's."""
    lines = [HermiteLine(j) for j in range(j_max + 1)]
    rule = _line_rule(rule, k, lines)
    vals = np.stack([phi.eval_many(rule.nodes) for phi in lines])
    s, unit = _paired(k, rule, qquad.points, vals[..., 0].T)
    w = qquad.weights[:, None] * np.hstack([np.ones((len(s), 1)), unit])    # (N, 4)
    g = (np.conj(s).T @ (w[:, :, None] * s[:, None, :]).reshape(len(s), -1)).reshape(
        len(lines), 4, len(lines))
    images = np.concatenate([g[:, :1].real, g[:, 1:].imag], axis=1).transpose(0, 2, 1)
    return images, qarray.gram(vals, vals, rule.line_weights)
