"""Reproducing kernels of the quaternionic polyanalytic Bargmann spaces.

Two independent computational paths:

* series path: the orthonormal expansion

      K_{2,k}(p,q) = 1/(pi k!) sum_j H_{j,k}(q,qbar) H_{k,j}(p,pbar) / j!

  with the q-side factor on the left; this is the factor order that
  satisfies the reproducing property under the pairing <K(p,.), f>.
  Evaluated through factorial-normalised ladder recurrences so that
  200-term truncations stay inside double range; each row stops once the
  bound on its dropped terms falls below eps |K|.

* star path: (1/pi) e*^[pbar,q] * L*_k of the squared star distance,
  a polyanalytic series in p whose coefficients lie in the slice of q
  (coordinate w), evaluated with the coefficients on the left.  Its value
  needs the series only at zeta and zetabar, zeta the coordinate of p,
  where every factor commutes: E_T(w zeta) L_k(|zeta - wbar|^2) and
  E_T(w zetabar) L_k(|zeta - w|^2), E_T the exponential cut at T terms.

* closed form: the same two values with exp in place of E_T, the kernel
  (1/pi) e^(pbar q) L_k(|p-q|^2) of each slice lifted to every pair by the
  Representation Formula; both paths collapse to it on the slice of q.

The level-n kernel of the first kind K_{1,n} is the sum of the first
n+1 second-kind kernels; its star path uses the gamma = 1 star Laguerre
polynomial (the Laguerre summation identity).

A KernelSpec names the kind, level, method and truncation, and is the one
place a truncation is checked.  kernel_value evaluates it and kernel_tail
estimates the truncation error of its series or star path, both for one p
or a p batch paired with q; kernel_value_tail gives both.  A series
truncation is a cap: each (level, row) stops at its own last useful term
(_series_stops), and the value and the tail share that stop.

project_batch pairs K_{2,k}(p, .) with f over a slice rule, with `terms`
again a cap: the H_{j,k} are orthogonal, so for a polynomial f every term
past its degree in q is 0, and both of its ladders stop there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qarray
from .poly import laguerre
from .quad import check_slice_degree, values_on
from .quat import Quaternion
from .series import EXP_STAR_CAP, PolySliceSeries

__all__ = [
    "KernelSpec",
    "k2_series_levels",
    "kernel_value",
    "kernel_tail",
    "kernel_value_tail",
    "project_batch",
    "clear_star_cache",
]

SERIES_TERMS = 200
STAR_TERMS = 40
SERIES_TAIL_WINDOW = 120      # bound terms past the series cap that a row's tail sums
STAR_TAIL_WINDOW = 60         # dropped rows kernel_tail sums for the star path
_GAMMA = {"second": 0, "first": 1}   # Laguerre parameter of each kind's closed form
_EPS = np.finfo(float).eps
_SAME_SLICE = 4 * _EPS        # |U x V| up to which two units share a slice
_LOG_TINY, _LOG_HUGE = np.log(np.finfo(float).tiny), np.log(np.finfo(float).max)
_LOG_DROP = -700.0            # log of the ratio below which a bound term counts as 0
_STOP_BLOCK = 1 << 17         # (level, row, term) cells of one block of the stop search
_LOG_FACTORIAL = np.array([math.lgamma(j + 1) for j in range(SERIES_TERMS + SERIES_TAIL_WINDOW + 1)])


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to compute and how; the one place a truncation is checked."""

    kind: str = "second"          # "second" (fixed level) or "first" (sum)
    level: int = 0
    method: str = "series"        # "series", "star" or "closed"
    terms: int | None = None      # truncation; None takes the method's default

    def __post_init__(self):
        if self.kind not in ("first", "second"):
            raise ValueError(f"kernel kind must be 'first' or 'second', got {self.kind!r}")
        if self.method not in ("series", "star", "closed"):
            raise ValueError(f"kernel method must be 'series', 'star' or 'closed', got {self.method!r}")
        if self.level < 0:
            raise ValueError("kernel level must be nonnegative")
        if self.terms is None:   # the closed form has no truncation
            object.__setattr__(self, "terms", {"series": SERIES_TERMS, "star": STAR_TERMS}.get(self.method))
        if self.method == "series" and self.terms < self.level:
            raise ValueError(f"series truncation {self.terms} is below the level {self.level}")
        if self.method == "star" and not 0 <= self.terms <= EXP_STAR_CAP:
            raise ValueError(f"star truncation {self.terms} outside 0..{EXP_STAR_CAP}")


def _levels(spec: KernelSpec) -> range:
    """The second-kind levels whose kernels spec's kind adds up."""
    return range(spec.level + 1) if spec.kind == "first" else range(spec.level, spec.level + 1)


def _log_factorial(n: int) -> np.ndarray:
    """log j! for j = 0..n, from the module table while it reaches."""
    if n < len(_LOG_FACTORIAL):
        return _LOG_FACTORIAL[:n + 1]
    return np.array([math.lgamma(j + 1) for j in range(n + 1)])


def _log_radius(p2: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """log(|p||q|), -inf where p or q is 0."""
    r = np.sqrt(p2) * np.sqrt(q2)
    return np.log(r, out=np.full(r.shape, -np.inf), where=r > 0.0)


def _series_stops(levels, zeta: np.ndarray, w: np.ndarray, terms: int):
    """Each row's last series term T for each level kappa in `levels`, and
    the bound on the terms it drops, both shape (L, N), from the slice
    coordinates zeta of p (N or 1 of them) and w of q (N).

    b_i = i!/(kappa! ((i-kappa)!)^2) (|p||q|)^(i-kappa) e^((|p|^2+|q|^2)/2)/pi
    bounds the i-th term of K_{2,kappa}(p, q) through
    |H_{i,kappa}(q)| <= (i!/(i-kappa)!) |q|^(i-kappa) e^(|q|^2/2).  T is the
    first j >= kappa, at most `terms`, where the dropped-tail bound
    sum_{i>j} b_i (through i = terms + SERIES_TAIL_WINDOW) is at most
    eps |K_{2,kappa}(p, q)|, and the tail is that sum at j = T.  |K| is bounded
    below by min(|s(zeta)|, |s(zetabar)|), the closed form's two same-slice
    values, since |K|^2 = c |s(zeta)|^2 + (1-c) |s(zetabar)|^2 with
    0 <= c <= 1; a row whose bound is 0 or leaves double range keeps
    T = terms.  The rows are searched in blocks of at most _STOP_BLOCK
    (level, row, term) cells, so memory grows with levels x rows and not
    with the cap; within a block every step is elementwise or along the
    term axis, so each row depends on its own p and q alone."""
    lev = np.asarray(levels)[:, None]
    i = np.arange(terms + SERIES_TAIL_WINDOW, 0, -1)     # descending: the tail sums run forward
    lf = _log_factorial(max(terms + SERIES_TAIL_WINDOW, int(lev.max(initial=0))))
    d = np.maximum(i - lev, 1)         # i <= kappa is no dropped term: masked to -inf
    coef = np.where(i > lev, lf[i] - lf[lev] - 2 * lf[d], -np.inf)
    zeta = np.broadcast_to(zeta, w.shape)
    stops, tail = np.empty((len(lev), len(w)), int), np.empty((len(lev), len(w)))
    step = max(1, _STOP_BLOCK // coef.size)
    for a in range(0, len(w), step):
        rows = slice(a, a + step)
        stops[:, rows], tail[:, rows] = _stop_block(lev, d.astype(float), coef, zeta[rows],
                                                    w[rows], terms)
    return stops, tail


def _stop_block(lev, d, coef, zeta, w, terms: int):
    """_series_stops on one block of rows, on one (L, rows, term) grid
    with the terms i in descending order, worked in place.  The bound sums
    run in log space, shifted by each row's largest term; a tail past
    double range reads inf."""
    p2, q2 = np.square(zeta.real) + np.square(zeta.imag), np.square(w.real) + np.square(w.imag)
    b = d[:, None, :] * _log_radius(p2, q2)[:, None]    # log b_i, then b_i / max_i b_i
    b += coef[:, None, :]
    b += ((p2 + q2) / 2.0 - math.log(math.pi))[:, None]
    top = np.max(b, axis=-1)
    top = np.where(np.isfinite(top), top, 0.0)
    b -= top[..., None]
    # terms below e^-700 of the row's largest count as 0: exp is slow to underflow
    np.putmask(b, b < _LOG_DROP, -np.inf)
    np.exp(b, out=b)
    np.cumsum(b, axis=-1, out=b)      # sum over i >= the term at that place
    past = b[..., SERIES_TAIL_WINDOW - 1:][..., ::-1]        # [j]: sum over i > j, j <= terms
    z = np.array([zeta, np.conj(zeta)])
    x = np.abs(z - np.conj(w)) ** 2
    lag = np.abs([laguerre(int(kappa), 0, x) for kappa in lev[:, 0]])
    log_s = (w * z).real + np.log(lag, out=np.full(lag.shape, -np.inf), where=lag > 0.0)
    log_k = np.min(log_s, axis=1) - math.log(math.pi)
    useful = (log_k > _LOG_TINY) & (log_k < _LOG_HUGE)
    with np.errstate(over="ignore"):      # past double range: a stop at once, or a tail of inf
        floor = np.exp(np.where(useful, log_k + math.log(_EPS), -np.inf) - top)
        done = past <= floor[..., None]
        stops = np.where(useful & done.any(axis=-1), np.maximum(np.argmax(done, axis=-1), lev),
                         terms)
        stops = np.minimum(stops, terms)
        left = np.take_along_axis(past, stops[..., None], axis=-1)[..., 0]
        tail = np.exp(top + np.log(left, out=np.full(left.shape, -np.inf), where=left > 0.0))
    return stops, tail


def _ladder(z: np.ndarray, k_max: int, terms: int):
    """Yield the (k_max+1, N) complex rows A_{j,kappa}(z), kappa <= k_max,
    for j = 0..terms, where A_{j,kappa} = H_{j,kappa}/sqrt(j!) lives in the
    slice of its point: A_{0,kappa} = zbar^kappa and
    A_{j+1,kappa} = (z A_{j,kappa} - kappa A_{j,kappa-1})/sqrt(j+1)."""
    if terms < 0:
        raise ValueError(f"series truncation {terms} is negative")
    kap = np.arange(1, k_max + 1)[:, None]
    row = np.vander(np.conj(z), k_max + 1, increasing=True).T
    for j in range(terms + 1):
        if j:
            nxt = z * row
            nxt[1:] -= kap * row[:-1]
            row = nxt / math.sqrt(j)
        yield row


def _slice_pair(p, q):
    """Slice coordinates and units of the (N, 4) q batch and the (N or 1, 4)
    p batch, split from one to_slice call: (w, zeta, U, V)."""
    p = np.asarray(p, dtype=float).reshape(-1, 4)
    q = np.asarray(q, dtype=float).reshape(-1, 4)
    z, unit = qarray.to_slice(np.vstack([q, p]))
    n = len(q)
    return z[:n], z[n:], unit[:n], unit[n:]


def _k2_series(levels: range, w, zeta, unit_q, unit_p, stops) -> np.ndarray:
    """K_{2,kappa}(p_n, q_n) for kappa in `levels`, a range that ends at the
    top level, shape (L, N, 4), from the slice coordinates and units of
    _slice_pair: each (level, row) adds its terms j <= its (L, N) stop, and
    the ladder runs to the largest stop.  Up to the smallest stop every
    (level, row) adds, so those steps need no mask."""
    n = len(w)
    s1, s2 = np.zeros((len(levels), n), complex), np.zeros((len(levels), n), complex)
    first = int(stops.min(initial=0))
    for j, row in enumerate(_ladder(np.concatenate([w, zeta]), levels[-1],
                                    int(stops.max(initial=0)))):
        aq, ap = row[levels.start:, :n], row[levels.start:, n:]
        if j <= first:
            s1 += aq * ap
            s2 += aq * np.conj(ap)
        else:
            live = j <= stops
            np.add(s1, aq * ap, out=s1, where=live)
            np.add(s2, aq * np.conj(ap), out=s2, where=live)
    scales = np.array([1.0 / (math.pi * math.factorial(kappa)) for kappa in levels])[:, None]
    s1, s2 = np.broadcast_arrays(s1 * scales, s2 * scales)
    return qarray.lift_conj_product(s1, s2, unit_q, unit_p)


def k2_series_levels(k_max: int, ppts: np.ndarray, qpts: np.ndarray,
                     terms: int = SERIES_TERMS) -> np.ndarray:
    """K_{2,kappa}(p_n, q_n) for every level kappa <= k_max, shape
    (k_max+1, N, 4), with the (P, 4) p batch broadcast against the (N, 4)
    q batch (one p, or paired p_n, q_n); K_1 is the cumulative sum.

    The summand is (1/(pi kappa!)) A_{j,kappa}(q) conj(A_{j,kappa}(p)), with
    both factors in the slice of their point: qarray.lift_conj_product
    forms its sum from sum A(q) A(p) and sum A(q) conj(A(p)).  `terms` is a
    cap: each (level, row) adds its terms through its own _series_stops
    stop."""
    if terms < 0:
        raise ValueError(f"series truncation {terms} is negative")
    w, zeta, unit_q, unit_p = _slice_pair(ppts, qpts)
    levels = range(k_max + 1)
    return _k2_series(levels, w, zeta, unit_q, unit_p, _series_stops(levels, zeta, w, terms)[0])


def _series_value_tail(spec: KernelSpec, p: np.ndarray, q: np.ndarray):
    """kernel_value and kernel_tail of a series spec on (N or 1, 4) p and
    (N, 4) q batches, from one stop search."""
    w, zeta, unit_q, unit_p = _slice_pair(p, q)
    levels = _levels(spec)
    stops, tails = _series_stops(levels, zeta, w, spec.terms)
    k2 = _k2_series(levels, w, zeta, unit_q, unit_p, stops)
    return (k2[0] if spec.kind == "second" else k2.sum(axis=0)), sum(tails)


# -- star path -----------------------------------------------------------


def _exp_truncated(x: np.ndarray, terms: int) -> np.ndarray:
    """E_T(x) = sum_{a <= T} x^a / a!, T = terms, summed term by term in
    order of a, so each entry depends on its own argument alone."""
    term = total = np.ones_like(x)
    for a in range(1, terms + 1):
        term = term * x / a
        total = total + term
    return total


def clear_star_cache() -> None:
    """A no-op kept for callers that reset state: the star path caches nothing."""


def kernel_value(spec: KernelSpec, p, q):
    """K(p, q) for one Quaternion q, or K(p_n, q_n) as an (N, 4) array for an
    (N, 4) batch of q, with p one Quaternion or an (N, 4) batch paired with q.
    The series path is one ladder (K_2 is its row at the level, K_1 the sum
    of its rows).  The star path's coefficients lie in the slice of q and its
    monomials in that of p, so the two sums lift_conj_product combines are
    s(z) = E_T(w z) L_level^(gamma)(|z - wbar|^2)/pi at z = zeta and zetabar;
    "closed" puts exp in place of E_T.  Where p and q share a slice (parallel
    or opposite units, or a real point) the value is the one term s(zetabar)
    or s(zeta) at the common unit, which the lift's (s1 + s2)/2 +- (s2 - s1)/2
    would cancel away."""
    if isinstance(q, Quaternion):
        return qarray.to_quaternion(kernel_value(spec, p, qarray.from_quaternion(q)[None, :])[0])
    p = np.reshape(qarray.from_quaternion(p) if isinstance(p, Quaternion) else p, (-1, 4))
    if spec.method == "series":
        return _series_value_tail(spec, p, q)[0]
    w, unit = qarray.to_slice(q)
    zp, up = qarray.to_slice(p)
    z = np.array([zp, np.conj(zp)])
    e = np.exp(w * z) if spec.method == "closed" else _exp_truncated(w * z, spec.terms)
    s = e / math.pi * laguerre(spec.level, _GAMMA[spec.kind], np.abs(z - np.conj(w)) ** 2)
    out = qarray.lift_conj_product(s[0], s[1], unit, up)
    common = np.sum(np.square(np.cross(unit, up)), axis=-1) <= _SAME_SLICE ** 2
    if common.any():
        term = np.where(np.sum(unit * up, axis=-1) < 0, s[0], s[1])
        out[common] = qarray.from_slice(term, np.where(w.imag[:, None] > 0, unit, up))[common]
    return out


# -- truncation estimate -------------------------------------------------


def kernel_tail(spec: KernelSpec, p, q):
    """Truncation estimate of kernel_value(spec, p, q), with the same
    arguments: a float for one Quaternion q, an (N,) array for an (N, 4)
    batch of q, with p one Quaternion or an (N, 4) batch paired with q.

    Each level the kernel's kind adds up contributes its dropped terms.  The
    series bound is the growth bound b_i of _series_stops summed past each
    row's own stop, through terms + SERIES_TAIL_WINDOW; the star estimate is
    the dropped rows of e*^[pbar,q] times L_k(-(|p|+|q|)^2), which bounds
    the Laguerre factor.  Either reads 0 where p or q is 0, and inf where it
    leaves double range."""
    if isinstance(q, Quaternion):
        return float(kernel_tail(spec, p, qarray.from_quaternion(q)[None, :])[0])
    if spec.method == "closed":
        raise ValueError("the closed form has no truncation tail")
    p = np.reshape(qarray.from_quaternion(p) if isinstance(p, Quaternion) else p, (-1, 4))
    levels = _levels(spec)
    if spec.method == "series":
        w, zeta = _slice_pair(p, q)[:2]
        return sum(_series_stops(levels, zeta, w, spec.terms)[1])
    p2, q2 = qarray.norm_sq(p), qarray.norm_sq(q)
    a = np.arange(spec.terms + 1, spec.terms + 1 + STAR_TAIL_WINDOW)
    with np.errstate(over="ignore"):
        tail = np.sum(np.exp(_log_radius(p2, q2)[:, None] * a - _log_factorial(a[-1])[a]), axis=-1)
    x = -np.square(np.sqrt(p2) + np.sqrt(q2))
    return sum(tail * laguerre(k, 0, x) / math.pi for k in levels)


def kernel_value_tail(spec: KernelSpec, p, q):
    """(kernel_value(spec, p, q), kernel_tail(spec, p, q)), with the same
    arguments; a series spec searches its rows' stops once for both."""
    if isinstance(q, Quaternion):
        value, tail = kernel_value_tail(spec, p, qarray.from_quaternion(q)[None, :])
        return qarray.to_quaternion(value[0]), float(tail[0])
    if spec.method != "series":
        return kernel_value(spec, p, q), kernel_tail(spec, p, q)
    p = np.reshape(qarray.from_quaternion(p) if isinstance(p, Quaternion) else p, (-1, 4))
    return _series_value_tail(spec, p, q)


# -- projection ----------------------------------------------------------


def project_batch(k: int, f, ppts: np.ndarray, Q, terms: int = SERIES_TERMS) -> np.ndarray:
    """Orthogonal projection onto the level-k space on a (P, 4) batch:
    P_k f(p) = <K_{2,k}(p, .), f>_{C_I} = (1/(pi k!)) sum_j A_{j,k}(p) c_j
    with c_j = sum_n w_n conj(A_{j,k}(q_n)) f(q_n) over the slice rule.

    The rule's points q_n = Re z_n + I Im z_n share the unit I, so
    conj(A(q_n)) f = Re A f - Im A (I f) and c_j = Re(A_{j,k}(z) @ (wf + i wIf)),
    one row per ladder step.  The p side is one short ladder over the batch,
    lifted onto each point's unit by qarray.lift.

    `terms` is a cap.  The H_{j,k} are orthogonal and a PolySliceSeries f
    of degree D in q lies in their span over j <= D, so c_j = 0 for j > D
    and both ladders stop at min(terms, D); the stop depends on f alone, so
    a batch row equals its one-row call.  Such an f is refused before any
    work unless the rule integrates conj(A_{j,k}) f, of degree
    2 D + level + k, exactly.  Any other f runs to the cap."""
    if isinstance(f, PolySliceSeries):
        check_slice_degree((2 * f.degree + f.level + k,), Q.n)
        terms = min(terms, max(f.degree, 0))
    ppts = np.asarray(ppts, dtype=float).reshape(-1, 4)
    fv = values_on(f, Q.points) * Q.weights[:, None]
    unit = qarray.from_quaternion(Q.unit)
    wf = fv + 1j * qarray.qmul(unit, fv)
    c = np.array([(row[k] @ wf).real for row in _ladder(Q.z, k, terms)])
    zp, up = qarray.to_slice(ppts)
    a = np.array([row[k] for row in _ladder(zp, k, terms)]).T
    return qarray.lift(a @ c, up) / (math.pi * math.factorial(k))
