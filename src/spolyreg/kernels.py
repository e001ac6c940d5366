"""Reproducing kernels of the quaternionic polyanalytic Bargmann spaces.

Two independent computational paths:

* series path: the orthonormal expansion

      K_{2,k}(p,q) = 1/(pi k!) sum_j H_{j,k}(q,qbar) H_{k,j}(p,pbar) / j!

  with the q-side factor on the left; this is the factor order that
  satisfies the reproducing property under the pairing <K(p,.), f>.
  Evaluated through factorial-normalised ladder recurrences so that
  200-term truncations stay inside double range.

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
or a p batch paired with q.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qarray
from .poly import laguerre
from .quad import values_on
from .quat import Quaternion
from .series import EXP_STAR_CAP

__all__ = [
    "KernelSpec",
    "k2_series_levels",
    "kernel_value",
    "kernel_tail",
    "project_batch",
    "clear_star_cache",
]

SERIES_TERMS = 200
STAR_TERMS = 40
SERIES_TAIL_WINDOW = 120      # dropped terms kernel_tail sums per series level
STAR_TAIL_WINDOW = 60         # dropped rows kernel_tail sums for the star path
_GAMMA = {"second": 0, "first": 1}   # Laguerre parameter of each kind's closed form
_SAME_SLICE = 4 * np.finfo(float).eps   # |U x V| up to which two units share a slice


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


def k2_series_levels(k_max: int, ppts: np.ndarray, qpts: np.ndarray,
                     terms: int = SERIES_TERMS) -> np.ndarray:
    """K_{2,kappa}(p_n, q_n) for every level kappa <= k_max, shape
    (k_max+1, N, 4), with the (P, 4) p batch broadcast against the (N, 4)
    q batch (one p, or paired p_n, q_n); K_1 is the cumulative sum.

    The summand is (1/(pi kappa!)) A_{j,kappa}(q) conj(A_{j,kappa}(p)), with
    both factors in the slice of their point: qarray.lift_conj_product
    forms its sum from sum A(q) A(p) and sum A(q) conj(A(p))."""
    ppts = np.asarray(ppts, dtype=float).reshape(-1, 4)
    qpts = np.asarray(qpts, dtype=float).reshape(-1, 4)
    z, unit = qarray.to_slice(np.vstack([qpts, ppts]))
    n = len(qpts)
    s1 = s2 = 0.0
    for row in _ladder(z, k_max, terms):
        aq, ap = row[:, :n], row[:, n:]
        s1 = s1 + aq * ap
        s2 = s2 + aq * np.conj(ap)
    scales = np.array([1.0 / (math.pi * math.factorial(kappa))
                       for kappa in range(k_max + 1)])[:, None]
    s1, s2 = np.broadcast_arrays(s1 * scales, s2 * scales)
    return qarray.lift_conj_product(s1, s2, unit[:n], unit[n:])


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
        k2 = k2_series_levels(spec.level, p, q, spec.terms)
        return k2[spec.level] if spec.kind == "second" else k2.sum(axis=0)
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


def _window_sum(log_terms: np.ndarray) -> np.ndarray:
    """Sum of exp(log_terms) over the window axis, term by term in window
    order, so each row's sum depends on its own terms alone."""
    total = 0.0
    for term in np.exp(log_terms):
        total = total + term
    return total


def kernel_tail(spec: KernelSpec, p, q):
    """Truncation estimate of kernel_value(spec, p, q), with the same
    arguments: a float for one Quaternion q, an (N,) array for an (N, 4)
    batch of q, with p one Quaternion or an (N, 4) batch paired with q.

    Each level the kernel's kind adds up contributes a window of dropped
    terms.  The series bound uses the growth estimate
    |H_{j,k}(q)| <= (j!/(j-k)!) |q|^(j-k) e^(|q|^2/2); the star estimate is
    the dropped rows of e*^[pbar,q] times L_k(-(|p|+|q|)^2), which bounds
    the Laguerre factor.  Either reads 0 where p or q is 0."""
    if isinstance(q, Quaternion):
        return float(kernel_tail(spec, p, qarray.from_quaternion(q)[None, :])[0])
    if spec.method == "closed":
        raise ValueError("the closed form has no truncation tail")
    p = np.reshape(qarray.from_quaternion(p) if isinstance(p, Quaternion) else p, (-1, 4))
    p2, q2 = qarray.norm_sq(p), qarray.norm_sq(q)
    r = np.sqrt(p2) * np.sqrt(q2)
    lr = np.log(np.where(r > 0.0, r, 1.0))
    levels = range(spec.level + 1) if spec.kind == "first" else (spec.level,)
    if spec.method == "series":
        window = range(spec.terms + 1, spec.terms + 1 + SERIES_TAIL_WINDOW)
        total = sum(_window_sum(
            np.array([math.lgamma(j + 1) - math.lgamma(k + 1) - 2 * math.lgamma(j - k + 1)
                      for j in window])[:, None]
            + np.subtract(window, k)[:, None] * lr + (p2 + q2) / 2.0 - math.log(math.pi))
            for k in levels)
    else:
        window = range(spec.terms + 1, spec.terms + 1 + STAR_TAIL_WINDOW)
        tail = _window_sum(np.array(window)[:, None] * lr
                           - np.array([math.lgamma(a + 1) for a in window])[:, None])
        x = -np.square(np.sqrt(p2) + np.sqrt(q2))
        total = sum(tail * laguerre(k, 0, x) / math.pi for k in levels)
    return np.where(r > 0.0, total, 0.0)


# -- projection ----------------------------------------------------------


def project_batch(k: int, f, ppts: np.ndarray, Q, terms: int = SERIES_TERMS) -> np.ndarray:
    """Orthogonal projection onto the level-k space on a (P, 4) batch:
    P_k f(p) = <K_{2,k}(p, .), f>_{C_I} = (1/(pi k!)) sum_j A_{j,k}(p) c_j
    with c_j = sum_n w_n conj(A_{j,k}(q_n)) f(q_n) over the slice rule.

    The rule's points q_n = Re z_n + I Im z_n share the unit I, so
    conj(A(q_n)) f = Re A f - Im A (I f) and c_j = Re(A_{j,k}(z) @ (wf + i wIf)),
    one row per ladder step.  The p side is one short ladder over the batch,
    lifted onto each point's unit by qarray.lift."""
    ppts = np.asarray(ppts, dtype=float).reshape(-1, 4)
    fv = values_on(f, Q.points) * Q.weights[:, None]
    unit = qarray.from_quaternion(Q.unit)
    wf = fv + 1j * qarray.qmul(unit, fv)
    c = np.array([(row[k] @ wf).real for row in _ladder(Q.z, k, terms)])
    zp, up = qarray.to_slice(ppts)
    a = np.array([row[k] for row in _ladder(zp, k, terms)]).T
    return qarray.lift(a @ c, up) / (math.pi * math.factorial(k))
