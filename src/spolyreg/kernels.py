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
place a level and a truncation are checked.  kernel_value, kernel_tail
(the geometric tail bound of the dropped terms) and kernel_value_tail are
views of one batch route.  A series truncation is a cap: each (level, row)
stops at its own last useful term (_series_stops), shared by its value
and its tail.

project_batch pairs K_{2,k}(p, .) with f over a slice rule, with `terms`
again a cap: the H_{j,k} are orthogonal, so for a polynomial f every term
past its degree in q is 0, and both of its ladders stop there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qarray
from .poly import DEGREE_CAP, laguerre
from .quad import check_slice_degree, values_on
from .quat import Quaternion
from .series import EXP_STAR_CAP, STAR_TERMS, PolySliceSeries

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
_GAMMA = {"second": 0, "first": 1}   # Laguerre parameter of each kind's closed form
_EPS = np.finfo(float).eps
_SAME_SLICE = 4 * _EPS        # |U x V| up to which two units share a slice
_STOP_BLOCK = 1 << 17         # (level, row, term) cells of one block of the stop search
_LOG_FACTORIAL = np.array([math.lgamma(j + 1) for j in range(SERIES_TERMS + 2)])


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to compute and how; the one place a level and a truncation are checked."""

    kind: str = "second"          # "second" (fixed level) or "first" (sum)
    level: int = 0
    method: str = "series"        # "series", "star" or "closed"
    terms: int | None = None      # truncation; None takes the method's default

    def __post_init__(self):
        if self.kind not in ("first", "second"):
            raise ValueError(f"kernel kind must be 'first' or 'second', got {self.kind!r}")
        if self.method not in ("series", "star", "closed"):
            raise ValueError(f"kernel method must be 'series', 'star' or 'closed', got {self.method!r}")
        if self.level < 0:   # DEGREE_CAP: the Laguerre factor the stop bound and closed forms read
            raise ValueError("kernel level must be nonnegative")
        if self.level > DEGREE_CAP:
            raise ValueError(f"kernel level {self.level} exceeds cap {DEGREE_CAP}")
        if self.terms is None:   # the closed form has no truncation
            object.__setattr__(self, "terms", {"series": SERIES_TERMS, "star": STAR_TERMS}.get(self.method))
        if self.method == "series" and self.terms < self.level:
            raise ValueError(f"series truncation {self.terms} is below the level {self.level}")
        if self.method == "star" and not 0 <= self.terms <= EXP_STAR_CAP:
            raise ValueError(f"star truncation {self.terms} outside 0..{EXP_STAR_CAP}")


def _log_radius(r: np.ndarray) -> np.ndarray:
    """log r for r = |p||q|, -inf where p or q is 0."""
    return np.log(r, out=np.full(r.shape, -np.inf), where=r > 0.0)


def _series_stops(levels, zeta: np.ndarray, w: np.ndarray, terms: int):
    """Each row's last series term T for each level kappa in `levels`, and
    the bound on the terms it drops, both shape (L, N), from the slice
    coordinates zeta of p (N or 1 of them) and w of q (N).

    C(i,s) s! <= i^s in the closed sum of H_{i,kappa} gives |H_{i,kappa}(q)|
    <= |q|^(i-kappa) (|q|^2+i)^kappa for i >= kappa, so the i-th term of
    K_{2,kappa}(p, q) is at most b_i = r^(i-kappa) ((|p|^2+i)(|q|^2+i))^kappa
    / (pi kappa! i!), r = |p||q|.  Its ratio
    rho_i = b_{i+1}/b_i falls with i, so the terms past j add up to at most
    b_{j+1}/(1 - rho_{j+1}): the tail at j = T, inf where rho_{T+1} >= 1.
    T is the first j >= kappa, at most `terms`, with rho_{j+1} <= 1/2 and
    2 b_{j+1} <= eps |K|, where |K| >= min(|s(zeta)|, |s(zetabar)|), the
    closed form's two same-slice values, since |K|^2 = c |s(zeta)|^2 +
    (1-c) |s(zetabar)|^2 with 0 <= c <= 1.  The rows are searched in blocks
    of at most _STOP_BLOCK (level, row, term) cells, so memory grows with
    levels x rows and not with the cap; each step is elementwise or along
    the term axis, so each row depends on its own p and q alone."""
    lev = np.asarray(levels)[:, None]
    zeta = np.broadcast_to(zeta, w.shape)
    stops, tail = np.empty((len(lev), len(w)), int), np.empty((len(lev), len(w)))
    step = max(1, _STOP_BLOCK // (len(lev) * (terms + 1)))
    for a in range(0, len(w), step):
        rows = slice(a, a + step)
        stops[:, rows], tail[:, rows] = _stop_block(lev, zeta[rows], w[rows], terms)
    return stops, tail


def _stop_block(lev, zeta, w, terms: int):
    """_series_stops on one block of rows, in log space on one
    (L, rows, j) grid, j = 0..terms; its logarithms are taken per
    (row, j), and the tail's exponentials at T alone."""
    p2, q2 = np.square(zeta.real) + np.square(zeta.imag), np.square(w.real) + np.square(w.imag)
    i = np.arange(1, terms + 3)                       # i = j + 1, and one more for rho
    n = max(terms + 2, int(lev.max(initial=0)) + 1)              # log j! for j < n
    lf = _LOG_FACTORIAL if n <= len(_LOG_FACTORIAL) else np.array(
        [math.lgamma(j + 1) for j in range(n)])
    log_r = _log_radius(np.sqrt(p2) * np.sqrt(q2))[:, None]
    grow = np.log(p2[:, None] + i) + np.log(q2[:, None] + i)     # log((|p|^2+i)(|q|^2+i))
    kap = lev[:, :, None]
    log_b = kap * grow[:, :-1]
    # j < kappa is no stop: masked below, so (i - kappa) log r never meets 0 x -inf
    log_b += np.maximum(i[:-1] - lev, 1)[:, None, :] * log_r
    log_b -= (lf[1:terms + 2] + lf[lev] + math.log(math.pi))[:, None, :]
    log_rho = kap * np.diff(grow, axis=1)
    log_rho += log_r - np.log(i[1:])
    z = np.array([zeta, np.conj(zeta)])
    x = np.abs(z - np.conj(w)) ** 2
    lag = np.abs([laguerre(int(kappa), 0, x) for kappa in lev[:, 0]])
    log_s = (w * z).real + np.log(lag, out=np.full(lag.shape, -np.inf), where=lag > 0.0)
    log_k = np.min(log_s, axis=1) - math.log(math.pi)
    done = (log_b <= (log_k + math.log(_EPS / 2.0))[..., None]) & (log_rho <= -math.log(2.0))
    done &= np.arange(terms + 1) >= kap
    stops = np.where(done.any(axis=-1), np.argmax(done, axis=-1), terms)
    log_b, log_rho = (np.take_along_axis(g, stops[..., None], axis=-1)[..., 0]
                      for g in (log_b, log_rho))
    rho = np.exp(log_rho)
    with np.errstate(over="ignore"):      # a tail past double range reads inf
        tail = np.divide(np.exp(log_b), 1.0 - rho, out=np.full(rho.shape, np.inf), where=rho < 1.0)
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
    forms its sum from sum A(q) A(p) and sum A(q) conj(A(p)).  k_max and
    `terms` are checked as a KernelSpec's level and truncation; `terms` is a
    cap: each (level, row) adds its terms through its own _series_stops stop."""
    KernelSpec("second", k_max, "series", terms)
    w, zeta, unit_q, unit_p = _slice_pair(ppts, qpts)
    levels = range(k_max + 1)
    return _k2_series(levels, w, zeta, unit_q, unit_p, _series_stops(levels, zeta, w, terms)[0])


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


def _star(spec: KernelSpec, w, zeta, unit_q, unit_p) -> np.ndarray:
    """The star or closed value from the slice coordinates and units of
    _slice_pair, as kernel_value describes it."""
    z = np.array([zeta, np.conj(zeta)])
    e = np.exp(w * z) if spec.method == "closed" else _exp_truncated(w * z, spec.terms)
    s = e / math.pi * laguerre(spec.level, _GAMMA[spec.kind], np.abs(z - np.conj(w)) ** 2)
    out = qarray.lift_conj_product(s[0], s[1], unit_q, unit_p)
    common = np.sum(np.square(np.cross(unit_q, unit_p)), axis=-1) <= _SAME_SLICE ** 2
    if common.any():
        term = np.where(np.sum(unit_q * unit_p, axis=-1) < 0, s[0], s[1])
        out[common] = qarray.from_slice(term, np.where(w.imag[:, None] > 0, unit_q, unit_p))[common]
    return out


def _value_tail(spec: KernelSpec, p, q, value: bool, tail: bool):
    """(kernel_value, kernel_tail) of spec with their arguments, each None
    unless asked for: the one place a Quaternion p or q is unwrapped, and
    one stop search for a series spec's value and tail."""
    if tail and spec.method == "closed":
        raise ValueError("the closed form has no truncation tail")
    if isinstance(q, Quaternion):
        v, t = _value_tail(spec, p, qarray.from_quaternion(q)[None, :], value, tail)
        return qarray.to_quaternion(v[0]) if value else None, float(t[0]) if tail else None
    p = qarray.from_quaternion(p) if isinstance(p, Quaternion) else p
    w, zeta, unit_q, unit_p = _slice_pair(p, q)
    levels = range(0 if spec.kind == "first" else spec.level, spec.level + 1)
    if spec.method == "series":
        stops, tails = _series_stops(levels, zeta, w, spec.terms)
        v = _k2_series(levels, w, zeta, unit_q, unit_p, stops).sum(axis=0) if value else None
        return v, sum(tails) if tail else None
    v = _star(spec, w, zeta, unit_q, unit_p) if value else None
    if not tail:
        return v, None
    # E_T drops sum_{a > T} r^a/a! <= r^(T+1)/(T+1)!/(1 - r/(T+2)), inf once r >= T + 2
    size_p, size_q, t = np.abs(zeta), np.abs(w), spec.terms
    rest = 1.0 - size_p * size_q / (t + 2)
    with np.errstate(over="ignore"):
        dropped = np.divide(np.exp(_log_radius(size_p * size_q) * (t + 1) - math.lgamma(t + 2)),
                            rest, out=np.full(rest.shape, np.inf), where=rest > 0.0)
    x = -np.square(size_p + size_q)
    return v, sum(dropped * laguerre(k, 0, x) / math.pi for k in levels)


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
    return _value_tail(spec, p, q, value=True, tail=False)[0]


def kernel_tail(spec: KernelSpec, p, q):
    """Truncation bound of kernel_value(spec, p, q), with the same
    arguments: a float for one Quaternion q, an (N,) array for an (N, 4)
    batch of q, with p one Quaternion or an (N, 4) batch paired with q.

    Each level the kind adds up contributes a geometric bound on its dropped
    terms: the series b_{T+1}/(1 - rho_{T+1}) at each row's own stop T
    (_series_stops), the star one E_T's dropped terms at r = |p||q| times
    L_k(-(|p|+|q|)^2), a bound on the Laguerre factor.  Either reads 0 where
    p or q is 0, and inf where its terms still grow at T."""
    return _value_tail(spec, p, q, value=False, tail=True)[1]


def kernel_value_tail(spec: KernelSpec, p, q):
    """(kernel_value(spec, p, q), kernel_tail(spec, p, q)), with the same
    arguments; a series spec searches its rows' stops once for both."""
    return _value_tail(spec, p, q, value=True, tail=True)


# -- projection ----------------------------------------------------------


def project_batch(k: int, f, ppts: np.ndarray, Q, terms: int = SERIES_TERMS) -> np.ndarray:
    """Orthogonal projection onto the level-k space on a (P, 4) batch:
    P_k f(p) = <K_{2,k}(p, .), f>_{C_I} = (1/(pi k!)) sum_j A_{j,k}(p) c_j
    with c_j = sum_n w_n conj(A_{j,k}(q_n)) f(q_n) over the slice rule, the
    f(q_n) read by values_on(f, Q) as in the slice pairings.

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
    fv = values_on(f, Q) * Q.weights[:, None]
    unit = qarray.from_quaternion(Q.unit)
    wf = fv + 1j * qarray.qmul(unit, fv)
    c = np.array([(row[k] @ wf).real for row in _ladder(Q.z, k, terms)])
    zp, up = qarray.to_slice(ppts)
    a = np.array([row[k] for row in _ladder(zp, k, terms)]).T
    return qarray.lift(a @ c, up) / (math.pi * math.factorial(k))
