"""Classical and quaternionic special polynomials.

Hermite and generalized Laguerre polynomials go through their three-term
recurrences (exact when fed Fraction arguments), the confluent
hypergeometric function through its power series with one stop
(KUMMER_TOL, KUMMER_TERMS), and the quaternionic Hermite polynomials

    H_{m,n}(q, qbar) = m! n! sum_j (-1)^j/j! q^(m-j)/(m-j)! qbar^(n-j)/(n-j)!

through the closed sum.  All of these are desk-scale objects; degree caps
keep the factorials inside double range.
"""
from __future__ import annotations

import math

import numpy as np

from . import qarray
from .quat import Quaternion, quat

__all__ = [
    "DEGREE_CAP",
    "KummerConvergenceError",
    "hermite_H",
    "hermite_fn",
    "laguerre",
    "pochhammer",
    "kummer_M",
    "hermite_quat",
]

DEGREE_CAP = 30
KUMMER_TOL = 1e-14    # a non-terminating Kummer sum stops at its first term below this
KUMMER_TERMS = 800    # ... and is refused if it reaches this many terms first


def _check_degree(n: int) -> None:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds cap {DEGREE_CAP}")


def hermite_H(j: int, t):
    """Physicists' Hermite polynomial H_j(t).

    Recurrence H_{j+1} = 2 t H_j - 2 j H_{j-1}.  Accepts scalars
    (exact for Fraction t) or ndarrays.
    """
    _check_degree(j)
    one = np.ones_like(t, dtype=float) if isinstance(t, np.ndarray) else t * 0 + 1
    prev, cur = None, one
    for m in range(j):
        prev, cur = cur, 2 * t * cur - (0 if prev is None else 2 * m * prev)
    return cur


def hermite_fn(j: int, t):
    """Hermite function h_j(t) = e^(-t^2/2) H_j(t); L2 norm sqrt(2^j j! sqrt(pi))."""
    H = hermite_H(j, t)
    if isinstance(t, np.ndarray):
        return np.exp(-t * t / 2.0) * H
    return math.exp(-float(t) * float(t) / 2.0) * float(H)


def laguerre(n: int, gamma, x):
    """Generalized Laguerre polynomial L_n^(gamma)(x), gamma > -1.

    Recurrence (n+1) L_{n+1} = (2n+1+gamma-x) L_n - (n+gamma) L_{n-1};
    exact for Fraction inputs.
    """
    _check_degree(n)
    if float(gamma) <= -1:
        raise ValueError("laguerre weight parameter must be > -1")
    one = np.ones_like(x, dtype=float) if isinstance(x, np.ndarray) else x * 0 + 1
    if n == 0:
        return one
    prev, cur = one, (1 + gamma - x) * one
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1 + gamma - x) * cur - (m + gamma) * prev) / (m + 1)
    return cur


def pochhammer(a, j: int):
    """Rising factorial (a)_j = a (a+1) ... (a+j-1); (a)_0 = 1.

    Works for scalars and for Quaternion a (the factors commute, they
    share the slice of a).
    """
    if j < 0:
        raise ValueError("pochhammer index must be nonnegative")
    out = quat(1) if isinstance(a, Quaternion) else a * 0 + 1
    for m in range(j):
        out = out * (a + m)
    return out


class KummerConvergenceError(RuntimeError):
    """Raised when the Kummer series reaches KUMMER_TERMS while terms are still
    at or above KUMMER_TOL, or when a term is not finite; the message
    names which of the two happened."""

    def __init__(self, terms_used: int, last_term: float):
        if math.isfinite(last_term):
            cause = f" after {terms_used} terms (last term modulus {last_term:.3e})"
        else:
            cause = (f": term {terms_used} is not finite (modulus {last_term:.3e}), "
                     "so the sum leaves double range")
        super().__init__("Kummer series not converged" + cause)
        self.terms_used = terms_used
        self.last_term = last_term


def _as_nonpositive_int(a) -> int | None:
    """-a if a is a nonpositive integer, else None."""
    av = float(a)
    if av <= 0 and av.is_integer():
        return int(-av)
    return None


def kummer_M(a, c, x):
    """Confluent hypergeometric M(a; c | x) = sum_j (a)_j/(c)_j x^j/j!.

    a is real or complex; a nonpositive integer makes the series terminate
    exactly (a Laguerre polynomial up to scale).  The terms are real
    polynomials in a, so for a Quaternion a = s + U t the sum lies in its
    slice: it is taken at s + i t and lifted back, to a Quaternion for scalar
    x and an (..., 4) array for array x; a real one keeps the real path,
    exact for Fraction x.  c is real, not zero or a negative integer.  Each
    entry of an array x stops at its own first term below KUMMER_TOL, as
    its scalar call does.  A term that is not finite, or KUMMER_TERMS reached,
    raises KummerConvergenceError.
    """
    if float(c) <= 0 and float(c).is_integer():
        raise ValueError(f"kummer_M pole: c = {c} is zero or a negative integer")
    if isinstance(a, Quaternion):
        s = a.to_slice()
        if s.y == 0 and not isinstance(x, np.ndarray):
            return quat(kummer_M(a.w, c, x))
        xs = np.asarray(x, dtype=float)  # a scalar x too: it then rounds as a batch entry
        m = kummer_M(complex(s.x, s.y) if s.y else s.x, c, xs.reshape(-1))
        out = qarray.from_slice(m.reshape(xs.shape), qarray.from_quaternion(s.unit)[1:])
        return out if isinstance(x, np.ndarray) else qarray.to_quaternion(out)
    n_term = None if isinstance(a, complex) else _as_nonpositive_int(a)
    stop = KUMMER_TERMS if n_term is None else n_term
    total = term = x * 0 + 1
    live = True  # entries whose last term is >= KUMMER_TOL, True while all are; the others add zeros
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(stop):
            # term_{j+1} = term_j * (a+j) * x / ((c+j)(j+1))
            term = term * (a + j) * (x / ((c + j) * (j + 1)))
            if live is not True:
                term = term * live
            total = total + term
            mag = abs(term)
            top = np.maximum.reduce(mag, axis=None, initial=0.0)   # not finite iff a term is not
            if not top < math.inf:
                raise KummerConvergenceError(j + 1, float(top))
            if n_term is None:
                if not top >= KUMMER_TOL:
                    return total
                live = True if np.minimum.reduce(mag, axis=None) >= KUMMER_TOL else mag >= KUMMER_TOL
    if n_term is None:
        raise KummerConvergenceError(stop, float(top))
    return total


def hermite_quat(m: int, n: int, q: Quaternion) -> Quaternion:
    """Quaternionic Hermite polynomial H_{m,n}(q, qbar).

    Closed sum with integer coefficients; exact for Fraction-component q.
    Satisfies conj(H_{m,n}) = H_{n,m} and the recurrence
    H_{m+1,n} = q H_{m,n} - n H_{m,n-1}.
    """
    _check_degree(m)
    _check_degree(n)
    if not isinstance(q, Quaternion):
        q = quat(q)
    qc = q.conj()
    qp = [quat(1)]
    for _ in range(m):
        qp.append(qp[-1] * q)
    qcp = [quat(1)]
    for _ in range(n):
        qcp.append(qcp[-1] * qc)
    total = quat(0)
    for j in range(min(m, n) + 1):
        coeff = ((-1) ** j * math.comb(m, j) * math.comb(n, j) * math.factorial(j))
        total = total + qp[m - j] * qcp[n - j] * coeff
    return total

