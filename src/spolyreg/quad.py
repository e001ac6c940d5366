"""Quadrature rules and inner products.

Three pairings, matching the three function spaces in play:

* ``inner_real``  on the line, plain dt on Gauss-Hermite nodes (Hermite functions)
* ``inner_slice`` on a slice plane C_I, weight e^(-|q|^2) (tensor Gauss-Hermite)
* ``inner_full``  sphere average of slice pairings, total sphere weight 4*pi

All pairings are built on qarray.gram, conjugate the first argument and
are right-linear in the second (the right vector space structure).  The
full pairing is the sphere integral of slice pairings; constants get
<1,1> = pi on a slice and 4*pi^2 over the sphere of slices.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from . import qarray
from .quat import I as UNIT_I
from .quat import Quaternion, quat
from .series import PolySliceSeries, coeff_stack, slice_values

__all__ = [
    "QuadratureDegreeError",
    "Rule1D",
    "gauss_hermite",
    "gauss_legendre",
    "SliceQuadrature",
    "SphereRule",
    "sphere_rule",
    "values_on",
    "inner_real",
    "inner_slice",
    "inner_full",
    "norm_sq_slice",
    "check_slice_degree",
    "norm_sq_full",
    "gram_slice",
]

NODE_CAP = 200
_NORM_BLOCK = 64         # functions per block of norm_sq_slice on a coefficient stack


class QuadratureDegreeError(ValueError):
    """The requested rule cannot integrate the stated polynomial degree."""


@dataclass(frozen=True)
class Rule1D:
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def line_weights(self) -> np.ndarray:
        """Gauss-Hermite weights times e^(t^2): the rule for the plain dt."""
        return self.weights * np.exp(self.nodes ** 2)


@lru_cache(maxsize=None)
def _base_rule(gauss, n: int):
    """Nodes and weights of numpy's n-point rule, built once per (rule, n)
    and read-only, because every caller shares them."""
    if not 1 <= n <= NODE_CAP:
        raise ValueError(f"node count {n} outside 1..{NODE_CAP}")
    x, w = gauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# The two rules import numpy.polynomial (about 0.8 MB resident) when first
# called, so a command that builds no rule, such as eval kernel, never loads it.


def gauss_hermite(n: int) -> Rule1D:
    """Gauss-Hermite rule: exact for e^(-t^2) * (poly of degree <= 2n-1)."""
    from numpy.polynomial.hermite import hermgauss
    return Rule1D(*_base_rule(hermgauss, n))


def gauss_legendre(n: int, a: float = -1.0, b: float = 1.0) -> Rule1D:
    from numpy.polynomial.legendre import leggauss
    x, w = _base_rule(leggauss, n)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return Rule1D(mid + half * x, half * w)


def _slice_nodes(n: int):
    """Complex nodes x + iy and weights of the n x n tensor Gauss-Hermite rule."""
    rule = gauss_hermite(n)
    z = rule.nodes[:, None] + 1j * rule.nodes[None, :]
    return z.ravel(), np.outer(rule.weights, rule.weights).ravel()


class SliceQuadrature:
    """Tensor Gauss-Hermite rule on the slice plane C_unit: points
    Re z + unit Im z for the complex nodes z.

    Integrates e^(-|q|^2) times any polynomial of total degree <= 2n-1
    in the slice coordinates exactly.
    """

    def __init__(self, n: int = 40, unit: Quaternion = UNIT_I):
        self.z, self.weights = _slice_nodes(n)
        self.n = n
        self.unit = unit
        self.points = qarray.from_slice(self.z, qarray.from_quaternion(unit)[1:])


@dataclass(frozen=True)
class SphereRule:
    """Product rule on the unit sphere of imaginary directions.

    Gauss-Legendre in the cosine of the polar angle crossed with a
    uniform azimuth grid; exact for spherical polynomials of degree
    <= order, total weight 4*pi.
    """

    units: tuple
    weights: np.ndarray
    order: int


def sphere_rule(order: int = 6) -> SphereRule:
    if order < 0:
        raise ValueError("sphere rule order must be nonnegative")
    n_u = order // 2 + 1
    n_phi = order + 1
    leg = gauss_legendre(n_u)
    units = []
    weights = []
    for u, wu in zip(leg.nodes, leg.weights):
        s = np.sqrt(max(1.0 - u * u, 0.0))
        for m in range(n_phi):
            phi = 2.0 * np.pi * m / n_phi
            units.append(Quaternion(0.0, s * np.cos(phi), s * np.sin(phi), u))
            weights.append(wu * 2.0 * np.pi / n_phi)
    return SphereRule(tuple(units), np.array(weights), order)


def values_on(f, pts: np.ndarray) -> np.ndarray:
    """Values of f as (N, 4) quaternions on an (N, 4) batch of points or
    on (N,) line nodes: f.eval_many when f has it, else point by point."""
    if hasattr(f, "eval_many"):
        return np.asarray(f.eval_many(pts), dtype=float)
    point = float if pts.ndim == 1 else qarray.to_quaternion
    vals = [qarray.from_quaternion(quat(f(point(p)))) for p in pts]
    return np.array(vals).reshape(-1, 4)


def check_slice_degree(degrees, n: int) -> None:
    """Refuse the first of the integrand degrees that the n-node slice rule
    does not integrate exactly, before anything is evaluated."""
    for deg in degrees:
        if deg > 2 * n - 1:
            raise QuadratureDegreeError(
                f"slice rule with n={n} is exact only through degree {2 * n - 1}, "
                f"integrand has degree {deg}")


def _check_slice_degree(f, g, n: int) -> None:
    deg = 0
    for h in (f, g):
        d = getattr(h, "degree", None)
        if d is None:
            return
        deg += max(d, 0) + max(getattr(h, "level", 0), 0)
    check_slice_degree((deg,), n)


def _check_stack_degree(c: np.ndarray, n: int) -> None:
    """Refuse a function of the coeff_stack tensor c whose |f|^2, of degree
    2 (level + degree), the n-node slice rule does not integrate exactly.
    Each function's level and degree are its last nonzero row and column,
    so a short function padded to the stack's shape is checked as itself."""
    nonzero = np.any(c != 0, axis=-1)
    level = np.max(np.arange(c.shape[0])[:, None] * nonzero.any(axis=1), axis=0, initial=0)
    degree = np.max(np.arange(c.shape[1])[:, None] * nonzero.any(axis=0), axis=0, initial=0)
    check_slice_degree(2 * (level + degree), n)


def _stack_values(c: np.ndarray, Q: SliceQuadrature) -> np.ndarray:
    """Values of the functions of a coeff_stack tensor c on the points of
    the slice rule, (m, N, 4) real quaternions from one vander table."""
    unit = qarray.from_quaternion(Q.unit)[1:]
    return slice_values(c, Q.z, unit).transpose(1, 0, 2)


def _stacked(f, Q) -> bool:
    """Whether f is evaluated on Q through its coefficient stack: a
    PolySliceSeries on the one slice of a SliceQuadrature."""
    return isinstance(f, PolySliceSeries) and isinstance(Q, SliceQuadrature)


def inner_slice(f, g, Q: SliceQuadrature) -> Quaternion:
    """<f, g> over C_unit: integral of conj(f) g e^(-|q|^2) dA.  A
    PolySliceSeries goes through its coefficient stack, as in gram_slice."""
    _check_slice_degree(f, g, Q.n)
    fv, gv = (_stack_values(coeff_stack([h]), Q)[0] if _stacked(h, Q) else values_on(h, Q.points)
              for h in (f, g))
    return qarray.to_quaternion(qarray.gram(fv[None], gv[None], Q.weights)[0, 0])


def norm_sq_slice(f, Q: SliceQuadrature):
    """|f|^2 over C_unit as a float; for a coeff_stack tensor, the (m,)
    squared norms of its functions, the diagonal of gram_slice without the
    pairs off it.  A PolySliceSeries is the one-function stack."""
    if isinstance(f, np.ndarray):
        _check_stack_degree(f, Q.n)
        # a block of functions at a time: the values held grow with the block, not with m
        return np.concatenate([qarray.norm_sq(_stack_values(f[:, :, a:a + _NORM_BLOCK], Q)) @ Q.weights
                               for a in range(0, max(f.shape[2], 1), _NORM_BLOCK)])
    _check_slice_degree(f, f, Q.n)
    if _stacked(f, Q):
        return float(norm_sq_slice(coeff_stack([f]), Q)[0])
    return float(qarray.norm_sq(values_on(f, Q.points)) @ Q.weights)


def gram_slice(funcs, Q: SliceQuadrature) -> np.ndarray:
    """Pairwise slice inner products, returned as an (m, m, 4) array.

    funcs is a list of functions or a coeff_stack tensor.  A list of
    PolySliceSeries is stacked into that tensor, whose functions are
    evaluated on the slice of the rule as real quaternions from one vander
    table; the degree check reads each function's coefficients from the
    tensor.  Other functions go through values_on."""
    if not isinstance(funcs, np.ndarray) and all(isinstance(f, PolySliceSeries) for f in funcs):
        funcs = coeff_stack(funcs)
    if isinstance(funcs, np.ndarray):
        _check_stack_degree(funcs, Q.n)
        vals = _stack_values(funcs, Q)
    else:
        for f in funcs:
            _check_slice_degree(f, f, Q.n)
        vals = np.stack([values_on(f, Q.points) for f in funcs])
    return qarray.gram(vals, vals, Q.weights)


def inner_real(f, g, rule: Rule1D) -> Quaternion:
    """<f, g> on the line: integral of conj(f) g dt on a Gauss-Hermite rule."""
    fv = values_on(f, rule.nodes)
    gv = values_on(g, rule.nodes)
    return qarray.to_quaternion(qarray.gram(fv[None], gv[None], rule.line_weights)[0, 0])


def _sphere_of_slices(n_slice: int, sphere: SphereRule | None) -> SimpleNamespace:
    """The slice rule rotated onto every sphere unit by one broadcast
    from_slice and weighted by outer(sphere weights, slice weights): a rule
    with the n, points and weights of a SliceQuadrature."""
    if sphere is None:
        sphere = sphere_rule()
    z, w = _slice_nodes(n_slice)
    units = np.array([qarray.from_quaternion(u)[1:] for u in sphere.units]).reshape(-1, 1, 3)
    return SimpleNamespace(n=n_slice, points=qarray.from_slice(z, units).reshape(-1, 4),
                           weights=np.outer(sphere.weights, w).ravel())


def inner_full(f, g, n_slice: int = 40, sphere: SphereRule | None = None) -> Quaternion:
    """Sphere average of slice pairings: integral over I in S of <f,g>_{C_I}."""
    return inner_slice(f, g, _sphere_of_slices(n_slice, sphere))


def norm_sq_full(f, n_slice: int = 40, sphere: SphereRule | None = None) -> float:
    return norm_sq_slice(f, _sphere_of_slices(n_slice, sphere))
