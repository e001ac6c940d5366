"""Quadrature rules and inner products.

Three pairings, matching the three function spaces in play:

* ``inner_real``  on the line, plain dt on Gauss-Hermite nodes (Hermite functions)
* ``inner_slice`` on a slice plane C_I, weight e^(-|q|^2) (tensor Gauss-Hermite)
* ``inner_full``  sphere average of slice pairings (total sphere weight 4*pi),
                  from slice forms read once on one slice

All pairings are built on qarray.gram, conjugate the first argument and
are right-linear in the second (the right vector space structure).  The
full pairing is the sphere integral of slice pairings; for functions with
a slice form every slice pairing is the same, so it is M0 = sum of the
sphere weights times one of them; constants get <1,1> = pi on a slice and
4*pi^2 over the sphere of slices.  The other
pairings, kernels.project_batch and a function without a slice_form on the
sphere read values through values_on, which reads a PolySliceSeries on a
slice rule from its coefficient stack.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
DEFAULT_SLICE_NODES = 40   # per-axis Gauss-Hermite points of a slice rule
DEFAULT_SPHERE_ORDER = 6   # exactness order of the unit-sphere rule
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


_UNIT_TOL = 1e-12   # largest | |unit|^2 - 1 | of a slice rule's unit


class SliceQuadrature:
    """Tensor Gauss-Hermite rule on the slice plane C_unit: points
    Re z + unit Im z for the complex nodes z.

    Integrates e^(-|q|^2) times any polynomial of total degree <= 2n-1
    in the slice coordinates exactly.  unit must be a unit imaginary
    quaternion: slice forms read at z are lifted onto it.  The (n*n, 4)
    points are built when first read; the slice-form routes read z alone.
    """

    def __init__(self, n: int = DEFAULT_SLICE_NODES, unit: Quaternion = UNIT_I):
        u = qarray.from_quaternion(quat(unit))
        if u[0] != 0.0 or not abs(qarray.norm_sq(u) - 1.0) <= _UNIT_TOL:
            raise ValueError(f"slice rule unit must be a unit imaginary quaternion, got {unit!r}")
        self.z, self.weights = _slice_nodes(n)
        self.n = n
        self.unit = unit

    @cached_property
    def points(self) -> np.ndarray:
        return qarray.from_slice(self.z, qarray.from_quaternion(self.unit)[1:])


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


def sphere_rule(order: int = DEFAULT_SPHERE_ORDER) -> SphereRule:
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


def values_on(f, pts) -> np.ndarray:
    """Values of f as (N, 4) quaternions at an (N, 4) batch, (N,) line nodes
    or the points of a rule: the one route from a function to its values.
    On a SliceQuadrature a PolySliceSeries is read as its coeff_stack tensor,
    whose (m, N, 4) values come from one vander table on the rule's slice;
    anything else goes through f.eval_many if f has it, else point by point."""
    if isinstance(f, PolySliceSeries) and isinstance(pts, SliceQuadrature):
        return values_on(coeff_stack([f]), pts)[0]
    if isinstance(f, np.ndarray):
        return slice_values(f, pts.z, qarray.from_quaternion(pts.unit)[1:]).transpose(1, 0, 2)
    pts = getattr(pts, "points", pts)
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


def _check_degrees(funcs, n: int, pair: bool = False) -> None:
    """check_slice_degree of |f|^2, of degree 2 (level + degree), for each
    function in order, or with pair of the one integrand conj(f) g of two.
    Level and degree are a function's attributes or, in a coeff_stack tensor,
    its last nonzero row and column, so a padded function reads as itself.
    A function without a degree is not checked, nor a pair that holds one."""
    if isinstance(funcs, np.ndarray):
        nonzero = np.any(funcs != 0, axis=-1)
        spans = (np.max(np.arange(funcs.shape[0])[:, None] * nonzero.any(axis=1), axis=0, initial=0)
                 + np.max(np.arange(funcs.shape[1])[:, None] * nonzero.any(axis=0), axis=0, initial=0))
    else:
        spans = [None if getattr(f, "degree", None) is None
                 else max(f.degree, 0) + max(getattr(f, "level", 0), 0) for f in funcs]
    if pair:
        check_slice_degree(() if None in spans else (sum(spans),), n)
    else:
        check_slice_degree((2 * s for s in spans if s is not None), n)


def inner_slice(f, g, Q: SliceQuadrature) -> Quaternion:
    """<f, g> over C_unit: integral of conj(f) g e^(-|q|^2) dA."""
    _check_degrees((f, g), Q.n, pair=True)
    fv, gv = values_on(f, Q), values_on(g, Q)
    return qarray.to_quaternion(qarray.gram(fv[None], gv[None], Q.weights)[0, 0])


def norm_sq_slice(f, Q: SliceQuadrature):
    """|f|^2 over C_unit as a float; for a coeff_stack tensor, the (m,)
    squared norms of its functions, the diagonal of gram_slice without the
    pairs off it."""
    if isinstance(f, np.ndarray):
        _check_degrees(f, Q.n)
        # a block of functions at a time: the values held grow with the block, not with m
        return np.concatenate([qarray.norm_sq(values_on(f[:, :, a:a + _NORM_BLOCK], Q)) @ Q.weights
                               for a in range(0, max(f.shape[2], 1), _NORM_BLOCK)])
    _check_degrees((f,), Q.n)
    return float(qarray.norm_sq(values_on(f, Q)) @ Q.weights)


def gram_slice(funcs, Q: SliceQuadrature) -> np.ndarray:
    """Pairwise slice inner products, returned as an (m, m, 4) array.

    funcs is a list of functions or a coeff_stack tensor.  A list of
    PolySliceSeries is stacked into that tensor, whose values values_on
    reads from one vander table."""
    if not isinstance(funcs, np.ndarray) and all(isinstance(f, PolySliceSeries) for f in funcs):
        funcs = coeff_stack(funcs)
    _check_degrees(funcs, Q.n)
    if isinstance(funcs, np.ndarray):
        vals = values_on(funcs, Q)
    else:
        vals = np.stack([values_on(f, Q) for f in funcs])
    return qarray.gram(vals, vals, Q.weights)


def inner_real(f, g, rule: Rule1D) -> Quaternion:
    """<f, g> on the line: integral of conj(f) g dt on a Gauss-Hermite rule."""
    fv = values_on(f, rule.nodes)
    gv = values_on(g, rule.nodes)
    return qarray.to_quaternion(qarray.gram(fv[None], gv[None], rule.line_weights)[0, 0])


class _SphereOfSlices:
    """The slice rule on every unit of a sphere rule: nodes z and both weights;
    the (S*N, 4) points and weights, for values_on, are built only when read."""

    def __init__(self, n: int, sphere: SphereRule | None):
        self.sphere = sphere_rule() if sphere is None else sphere
        self.n = n
        self.z, self.slice_weights = _slice_nodes(n)

    @property
    def points(self) -> np.ndarray:
        units = np.array([qarray.from_quaternion(u)[1:] for u in self.sphere.units])
        return qarray.from_slice(self.z, units[:, None]).reshape(-1, 4)

    @property
    def weights(self) -> np.ndarray:
        return np.outer(self.sphere.weights, self.slice_weights).ravel()

    def pair(self, fw, gw):
        """Stacks x, y and weights [w_z; w_z] whose slice sum of w conj(x) y is the
        sphere sum of conj(f) g, for slice forms fw = a + i a', gw = b + i b' (N, ..., 4).
        conj(f) g = conj(a) b + conj(a') b' + sum_i U_i (conj(a) e_i b' - conj(a') e_i b)
        is affine in U.  conj z on the slice of -U is the point z on the slice of U,
        so a slice form has W(conj z) = conj W(z): a is even and a' odd under
        z -> conj z, the U part is odd, and it sums to 0 on the rule, whose nodes
        are symmetric under y -> -y.  (For a left-form series this is the slice
        Gram of the zbar^k z^j being real.)  The sphere sum is then M0 = sum w_s
        times one slice pairing, whatever the rule's moment sum w_s U_s:
        x = M0 [a; a'] and y = [b; b']."""
        m0 = float(np.sum(self.sphere.weights))
        return (m0 * np.concatenate([fw.real, fw.imag]), np.concatenate([gw.real, gw.imag]),
                np.tile(self.slice_weights, 2))

    def norm_sq(self, w) -> np.ndarray:
        x, y, weights = self.pair(w, w)
        return weights @ np.sum(x * y, axis=-1)


def inner_full(f, g, n_slice: int = DEFAULT_SLICE_NODES, sphere: SphereRule | None = None) -> Quaternion:
    """Sphere average of slice pairings: integral over I in S of <f,g>_{C_I},
    on sphere_rule() if sphere is None.  Two functions with a slice_form are
    read once, and paired on one slice times the total sphere weight
    (_SphereOfSlices.pair); else both are read at every point of every slice."""
    S = _SphereOfSlices(n_slice, sphere)
    if not (hasattr(f, "slice_form") and hasattr(g, "slice_form")):
        return inner_slice(f, g, S)
    _check_degrees((f, g), n_slice, pair=True)
    x, y, w = S.pair(f.slice_form(S.z), g.slice_form(S.z))
    return qarray.to_quaternion(qarray.gram(x[None], y[None], w)[0, 0])


def norm_sq_full(f, n_slice: int = DEFAULT_SLICE_NODES, sphere: SphereRule | None = None):
    """|f|^2 over the sphere of slices as a float, read as inner_full reads it;
    for a coeff_stack tensor the (m,) norms, from slice_values a block at a time."""
    S = _SphereOfSlices(n_slice, sphere)
    if isinstance(f, np.ndarray):
        _check_degrees(f, n_slice)
        blocks = (slice_values(f[:, :, a:a + _NORM_BLOCK], S.z)
                  for a in range(0, max(f.shape[2], 1), _NORM_BLOCK))
        return np.concatenate([S.norm_sq(w) for w in blocks])
    if not hasattr(f, "slice_form"):
        return norm_sq_slice(f, S)
    _check_degrees((f,), n_slice)
    return float(S.norm_sq(f.slice_form(S.z)))
