"""Quadrature rules and inner products.

Three pairings, matching the three function spaces in play:

* ``inner_real``  on the line, plain dt on Gauss-Hermite nodes (Hermite functions)
* ``inner_slice`` on a slice plane C_I, weight e^(-|q|^2) (tensor Gauss-Hermite)
* ``inner_full``  over the sphere of slices, measure dsigma(I) dlambda_I(z) e^(-|q|^2):
                  FULL_MASS = 4*pi times one slice pairing of slice forms

All pairings are built on qarray.gram, conjugate the first argument and
are right-linear in the second (the right vector space structure).  For
functions with a slice form every slice pairing is the same, so the full
pairing is 4*pi times one of them; constants get <1,1> = pi on a slice and
4*pi^2 over the sphere of slices.  The full pairings refuse a function
without a slice_form.  The other pairings and kernels.project_batch read
values through values_on, which reads a PolySliceSeries on a slice rule
from its coefficient stack.
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


FULL_MASS = 4.0 * np.pi   # total weight dsigma(I) of the sphere of imaginary units


def _pair_forms(fw, gw, weights):
    """Stacks x, y and weights [w; w] whose sum of w conj(x) y is FULL_MASS times
    the slice pairing of the slice forms fw = a + i a', gw = b + i b' (N, ..., 4),
    read at the nodes z of a slice rule with weights w.
    conj(f) g = conj(a) b + conj(a') b' + sum_i U_i (conj(a) e_i b' - conj(a') e_i b)
    is affine in U.  conj z on the slice of -U is the point z on the slice of U,
    so a slice form has W(conj z) = conj W(z): a is even and a' odd under
    z -> conj z, the U part is odd, and it sums to 0 on the rule, whose nodes
    are symmetric under y -> -y.  (For a left-form series this is the slice
    Gram of the zbar^k z^j being real.)  Every slice pairing is then the same,
    and the sphere integral is FULL_MASS times one of them:
    x = FULL_MASS [a; a'] and y = [b; b']."""
    return (FULL_MASS * np.concatenate([fw.real, fw.imag]), np.concatenate([gw.real, gw.imag]),
            np.tile(weights, 2))


def _slice_forms(funcs, n: int, pair: bool = False):
    """The slice forms of funcs at the nodes of the n-node slice rule, each read
    once, and the rule's weights; a function without a slice_form is refused."""
    for f in funcs:
        if not hasattr(f, "slice_form"):
            raise TypeError(f"the full-space pairing needs a slice_form; {type(f).__name__} has none")
    _check_degrees(funcs, n, pair)
    z, w = _slice_nodes(n)
    return [f.slice_form(z) for f in funcs], w


def inner_full(f, g, n_slice: int = DEFAULT_SLICE_NODES) -> Quaternion:
    """<f, g> over the sphere of slices: the integral over I in S of <f, g>_{C_I},
    FULL_MASS times the pairing on one n_slice rule (_pair_forms).  f and g
    need a slice_form; a function without one is refused with TypeError."""
    (fw, gw), w = _slice_forms((f, g), n_slice, pair=True)
    x, y, w = _pair_forms(fw, gw, w)
    return qarray.to_quaternion(qarray.gram(x[None], y[None], w)[0, 0])


def _norm_sq_forms(fw, weights):
    """|f|^2 of each of the slice forms fw (N, ..., 4): _pair_forms(fw, fw) summed."""
    x, y, w = _pair_forms(fw, fw, weights)
    return w @ np.sum(x * y, axis=-1)


def norm_sq_full(f, n_slice: int = DEFAULT_SLICE_NODES):
    """|f|^2 over the sphere of slices as a float, read as inner_full reads it;
    for a coeff_stack tensor the (m,) norms, from slice_values a block at a time."""
    if isinstance(f, np.ndarray):
        _check_degrees(f, n_slice)
        z, w = _slice_nodes(n_slice)
        return np.concatenate([_norm_sq_forms(slice_values(f[:, :, a:a + _NORM_BLOCK], z), w)
                               for a in range(0, max(f.shape[2], 1), _NORM_BLOCK)])
    (fw,), w = _slice_forms((f,), n_slice)
    return float(_norm_sq_forms(fw, w))
