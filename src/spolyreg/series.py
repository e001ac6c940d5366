"""Slice power series, polyanalytic series and their star products.

Three container types, all with quaternion coefficients:

* ``SliceSeries``      f(q) = sum_j q^j a_j            (coefficients right)
* ``PolySliceSeries``  f(q) = sum_{k,j} qbar^k q^j c_kj  (left form)
* ``RightPolySeries``  f(q) = sum_{k,j} c_kj q^j qbar^k  (right form)

The left form is the canonical one; the right form exists because
conjugation maps one into the other and the two star products are
exchanged under it.  Star products act on ordered coefficient products,
so they are noncommutative unless all coefficients share a slice.

Coefficients may be exact (int / Fraction components); every operation
here preserves exactness, which is what the identity-level tests run on.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import qarray
from .poly import DEGREE_CAP
from .quat import Quaternion, quat

__all__ = [
    "SliceSeries",
    "PolySliceSeries",
    "RightPolySeries",
    "slice_monomial",
    "poly_monomial",
    "hermite_series",
    "coeff_stack",
    "slice_values",
    "hermite_op",
    "extract_components",
    "to_hermite_basis",
    "from_hermite_basis",
    "s_k_series",
    "laguerre_star",
    "exp_star",
    "EXP_STAR_CAP",
]

EXP_STAR_CAP = 200

_Z = quat(0)


def _lift(c) -> Quaternion:
    return c if isinstance(c, Quaternion) else quat(c)


def _trim(seq, is_zero):
    n = len(seq)
    while n and is_zero(seq[n - 1]):
        n -= 1
    return seq[:n]


class SliceSeries:
    """Polynomial slice series sum_j q^j a_j with right coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_lift(c) for c in coeffs]
        self.coeffs = tuple(_trim(cs, lambda c: c == _Z))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> Quaternion:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else _Z

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "SliceSeries") -> "SliceSeries":
        n = max(len(self.coeffs), len(other.coeffs))
        return SliceSeries([self.coeff(j) + other.coeff(j) for j in range(n)])

    def __sub__(self, other: "SliceSeries") -> "SliceSeries":
        n = max(len(self.coeffs), len(other.coeffs))
        return SliceSeries([self.coeff(j) - other.coeff(j) for j in range(n)])

    def __neg__(self) -> "SliceSeries":
        return SliceSeries([-c for c in self.coeffs])

    def scale(self, s) -> "SliceSeries":
        """Multiply by a real scalar (Fraction-safe)."""
        return SliceSeries([c * s for c in self.coeffs])

    def rmul(self, c) -> "SliceSeries":
        """Right module action f * c (coefficients a_j * c)."""
        c = _lift(c)
        return SliceSeries([a * c for a in self.coeffs])

    # -- analysis --------------------------------------------------------

    def deriv(self, order: int = 1) -> "SliceSeries":
        """Slice derivative (d/dq)^order applied termwise."""
        out = self
        for _ in range(order):
            out = SliceSeries([out.coeff(j + 1) * (j + 1)
                               for j in range(max(len(out.coeffs) - 1, 0))])
        return out

    def star(self, other: "SliceSeries") -> "SliceSeries":
        """Left slice star product: Cauchy convolution with ordered
        coefficient products a_k b_{n-k}."""
        if not self.coeffs or not other.coeffs:
            return SliceSeries()
        out = [_Z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for ka, a in enumerate(self.coeffs):
            for kb, b in enumerate(other.coeffs):
                out[ka + kb] = out[ka + kb] + a * b
        return SliceSeries(out)

    def star_pow(self, k: int) -> "SliceSeries":
        out = SliceSeries([1])
        for _ in range(k):
            out = out.star(self)
        return out

    # -- evaluation ------------------------------------------------------

    def eval(self, q: Quaternion) -> Quaternion:
        q = _lift(q)
        total, p = _Z, quat(1)
        for j, a in enumerate(self.coeffs):
            if j:
                p = p * q
            total = total + p * a
        return total

    __call__ = eval

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return PolySliceSeries([self.coeffs]).eval_many(pts)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, SliceSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def allclose(self, other: "SliceSeries", tol: float = 1e-12) -> bool:
        n = max(len(self.coeffs), len(other.coeffs))
        scale = 1.0
        for j in range(n):
            for c in (self.coeff(j), other.coeff(j)):
                scale = max(scale, abs(c))
        return all(abs(self.coeff(j) - other.coeff(j)) <= tol * scale
                   for j in range(n))

    def __repr__(self):
        return f"SliceSeries(degree={self.degree})"


def slice_monomial(j: int, c=1) -> SliceSeries:
    return SliceSeries([_Z] * j + [_lift(c)])


class PolySliceSeries:
    """Left-form polyanalytic series sum qbar^k q^j c_kj.

    Row index k is the qbar power ("level"), column index j the q power.
    The coefficient sits on the right of the variable powers.
    """

    __slots__ = ("coeffs",)

    def __init__(self, rows=()):
        rows = [[_lift(c) for c in row] for row in rows]
        width = max((len(r) for r in rows), default=0)
        rect = [r + [_Z] * (width - len(r)) for r in rows]
        rect = _trim(rect, lambda r: all(c == _Z for c in r))
        if rect:
            width = max(
                max((j + 1 for j, c in enumerate(r) if c != _Z), default=0)
                for r in rect)
            rect = [r[:width] for r in rect]
        self.coeffs = tuple(tuple(r) for r in rect)

    @property
    def level(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max((len(r) for r in self.coeffs), default=0) - 1

    def coeff(self, k: int, j: int) -> Quaternion:
        if 0 <= k < len(self.coeffs) and 0 <= j < len(self.coeffs[k]):
            return self.coeffs[k][j]
        return _Z

    def component(self, k: int) -> SliceSeries:
        """Slice-regular component of level k (row k)."""
        if 0 <= k < len(self.coeffs):
            return SliceSeries(self.coeffs[k])
        return SliceSeries()

    # -- linear structure ------------------------------------------------

    def _zip(self, other, op):
        rows = max(len(self.coeffs), len(other.coeffs))
        cols = max(self.degree, other.degree) + 1
        return PolySliceSeries(
            [[op(self.coeff(k, j), other.coeff(k, j)) for j in range(cols)]
             for k in range(rows)])

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        return PolySliceSeries([[-c for c in row] for row in self.coeffs])

    def scale(self, s) -> "PolySliceSeries":
        return PolySliceSeries([[c * s for c in row] for row in self.coeffs])

    def rmul(self, c) -> "PolySliceSeries":
        """Right module action f * c."""
        c = _lift(c)
        return PolySliceSeries([[a * c for a in row] for row in self.coeffs])

    def mul_qbar(self, power: int = 1) -> "PolySliceSeries":
        """Multiply by qbar^power on the left (row shift)."""
        if not self.coeffs:
            return self
        pad = [[_Z]] * power
        return PolySliceSeries(pad + [list(r) for r in self.coeffs])

    # -- analysis --------------------------------------------------------

    def d(self) -> "PolySliceSeries":
        """Slice derivative d/dq: qbar^k q^j c -> j qbar^k q^(j-1) c."""
        return PolySliceSeries(
            [[row[j + 1] * (j + 1) for j in range(len(row) - 1)]
             for row in self.coeffs])

    def dbar(self) -> "PolySliceSeries":
        """Conjugate slice derivative: qbar^k q^j c -> k qbar^(k-1) q^j c."""
        return PolySliceSeries(
            [[c * k for c in row]
             for k, row in enumerate(self.coeffs)][1:])

    def star(self, other: "PolySliceSeries") -> "PolySliceSeries":
        """Left polyanalytic star product:
        (qbar^k q^j c) * (qbar^x q^y d) = qbar^(k+x) q^(j+y) (c d)."""
        if not self.coeffs or not other.coeffs:
            return PolySliceSeries()
        rows = self.level + other.level + 1
        cols = self.degree + other.degree + 1
        out = [[_Z] * cols for _ in range(rows)]
        for ka, ra in enumerate(self.coeffs):
            for ja, a in enumerate(ra):
                if a == _Z:
                    continue
                for kb, rb in enumerate(other.coeffs):
                    for jb, b in enumerate(rb):
                        if b == _Z:
                            continue
                        out[ka + kb][ja + jb] = out[ka + kb][ja + jb] + a * b
        return PolySliceSeries(out)

    def conj(self) -> "RightPolySeries":
        """conj(qbar^k q^j c) = conj(c) q^k qbar^j: transpose + conjugate."""
        rows = self.degree + 1
        cols = self.level + 1
        return RightPolySeries(
            [[self.coeff(j, k).conj() for j in range(cols)] for k in range(rows)])

    # -- evaluation ------------------------------------------------------

    def _power_tables(self, q: Quaternion):
        qc = q.conj()
        qp = [quat(1)]
        for _ in range(max(self.degree, 0)):
            qp.append(qp[-1] * q)
        qcp = [quat(1)]
        for _ in range(max(self.level, 0)):
            qcp.append(qcp[-1] * qc)
        return qp, qcp

    def eval(self, q: Quaternion) -> Quaternion:
        q = _lift(q)
        qp, qcp = self._power_tables(q)
        total = _Z
        for k, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c != _Z:
                    total = total + qcp[k] * qp[j] * c
        return total

    __call__ = eval

    def eval_left(self, q: Quaternion) -> Quaternion:
        """Evaluate with the coefficient on the LEFT: sum c_kj qbar^k q^j.

        Used by the kernel star path, whose coefficients live in the
        parameter's slice and belong on the left of the variable powers.
        """
        q = _lift(q)
        qp, qcp = self._power_tables(q)
        total = _Z
        for k, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c != _Z:
                    total = total + c * (qcp[k] * qp[j])
        return total

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Values on an (N, 4) batch: slice_values at each point's own slice
        coordinate z = x + i|Im q|, lifted onto its unit U by qarray.lift."""
        z, unit = qarray.to_slice(pts)
        return qarray.lift(slice_values(coeff_stack([self]), z)[:, 0], unit)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "degree": self.degree,
            "coeffs": [[[float(v) for v in c.as_tuple()] for c in row]
                       for row in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolySliceSeries":
        return cls([[Quaternion(*c) for c in row] for row in data["coeffs"]])

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, PolySliceSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def allclose(self, other: "PolySliceSeries", tol: float = 1e-12) -> bool:
        rows = max(len(self.coeffs), len(other.coeffs))
        cols = max(self.degree, other.degree) + 1
        scale = 1.0
        for k in range(rows):
            for j in range(cols):
                scale = max(scale, abs(self.coeff(k, j)), abs(other.coeff(k, j)))
        return all(
            abs(self.coeff(k, j) - other.coeff(k, j)) <= tol * scale
            for k in range(rows) for j in range(cols))

    def __repr__(self):
        return f"PolySliceSeries(level={self.level}, degree={self.degree})"


def coeff_stack(funcs) -> np.ndarray:
    """The coefficients c_kj of the PolySliceSeries f_0..f_{m-1} as one
    zero-padded float tensor of shape (level+1, degree+1, m, 4)."""
    level = max((f.level for f in funcs), default=-1)
    degree = max((f.degree for f in funcs), default=-1)
    c = np.zeros((level + 1, degree + 1, len(funcs), 4))
    for a, f in enumerate(funcs):
        for k, row in enumerate(f.coeffs):
            c[k, :len(row), a] = [v.as_tuple() for v in row]
    return c


def slice_values(c: np.ndarray, z: np.ndarray, unit: np.ndarray | None = None) -> np.ndarray:
    """sum_{k,j} zbar^k z^j c[k, j] at the complex slice coordinates z (N,)
    for a coefficient tensor c of shape (level+1, degree+1, ...), from one
    vander table; shape (N, ...), complex.

    qbar^k q^j at q = Re z + U Im z is the complex number zbar^k z^j carried
    onto the slice of U.  For c = coeff_stack(funcs) the value of f_a at
    q_n is qarray.lift(W, U) with W = slice_values(c, z)[n, a].

    Given the (3,) unit U of one common slice, the values at q = Re z + U Im z
    come back as real (N, ..., 4) quaternions instead: with w = zbar^k z^j,
    f(q) = sum Re(w) c_kj + Im(w) U c_kj, one real contraction of the
    (Re w, Im w) pairs of the table against the pairs (c_kj, U c_kj), with
    no complex (N, ..., 4) intermediate.  These values are laid out with N
    last in memory, so each component of each function is one contiguous
    row for the matrix products of qarray.gram."""
    m = (np.vander(np.conj(z), c.shape[0], increasing=True)[:, :, None]
         * np.vander(z, c.shape[1], increasing=True)[:, None, :])
    if unit is None:
        return np.tensordot(m, c, axes=2)
    pairs = np.stack([c, qarray.qmul(qarray.from_slice(1j, unit), c)], axis=2)
    pairs = pairs.reshape(c.shape[0], 2 * c.shape[1], *c.shape[2:])
    return np.moveaxis(np.tensordot(pairs, m.view(float), axes=([0, 1], [1, 2])), -1, 0)


class RightPolySeries:
    """Right-form series sum c_kj q^j qbar^k (coefficient on the left)."""

    __slots__ = ("coeffs",)

    def __init__(self, rows=()):
        self.coeffs = PolySliceSeries(rows).coeffs  # same storage rules

    @property
    def level(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max((len(r) for r in self.coeffs), default=0) - 1

    def coeff(self, k: int, j: int) -> Quaternion:
        if 0 <= k < len(self.coeffs) and 0 <= j < len(self.coeffs[k]):
            return self.coeffs[k][j]
        return _Z

    def star(self, other: "RightPolySeries") -> "RightPolySeries":
        """Right polyanalytic star product:
        (c q^j qbar^k) * (d q^y qbar^x) = (c d) q^(j+y) qbar^(k+x)."""
        if not self.coeffs or not other.coeffs:
            return RightPolySeries()
        rows = self.level + other.level + 1
        cols = self.degree + other.degree + 1
        out = [[_Z] * cols for _ in range(rows)]
        for ka, ra in enumerate(self.coeffs):
            for ja, a in enumerate(ra):
                if a == _Z:
                    continue
                for kb, rb in enumerate(other.coeffs):
                    for jb, b in enumerate(rb):
                        if b == _Z:
                            continue
                        out[ka + kb][ja + jb] = out[ka + kb][ja + jb] + a * b
        return RightPolySeries(out)

    def conj(self) -> PolySliceSeries:
        """conj(c q^j qbar^k) = qbar^j q^k conj(c): transpose + conjugate."""
        rows = self.degree + 1
        cols = self.level + 1
        return PolySliceSeries(
            [[self.coeff(j, k).conj() for j in range(cols)] for k in range(rows)])

    def eval(self, q: Quaternion) -> Quaternion:
        q = _lift(q)
        qc = q.conj()
        qp = [quat(1)]
        for _ in range(max(self.degree, 0)):
            qp.append(qp[-1] * q)
        qcp = [quat(1)]
        for _ in range(max(self.level, 0)):
            qcp.append(qcp[-1] * qc)
        total = _Z
        for k, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c != _Z:
                    total = total + c * qp[j] * qcp[k]
        return total

    __call__ = eval

    def __eq__(self, other) -> bool:
        return isinstance(other, RightPolySeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def allclose(self, other: "RightPolySeries", tol: float = 1e-12) -> bool:
        a = PolySliceSeries(self.coeffs)
        b = PolySliceSeries(other.coeffs)
        return a.allclose(b, tol)

    def __repr__(self):
        return f"RightPolySeries(level={self.level}, degree={self.degree})"


def poly_monomial(k: int, j: int, c=1) -> PolySliceSeries:
    rows = [[_Z]] * k + [[_Z] * j + [_lift(c)]]
    return PolySliceSeries(rows)


# -- quaternionic Hermite basis ------------------------------------------


def hermite_series(m: int, n: int) -> PolySliceSeries:
    """H_{m,n} as an exact PolySliceSeries: integer coefficient
    (-1)^s C(m,s) C(n,s) s! at qbar^(n-s) q^(m-s)."""
    if not (0 <= m <= DEGREE_CAP and 0 <= n <= DEGREE_CAP):
        raise ValueError(f"hermite indices ({m},{n}) exceed cap {DEGREE_CAP}")
    rows = [[0] * (m + 1) for _ in range(n + 1)]
    for s in range(min(m, n) + 1):
        rows[n - s][m - s] = ((-1) ** s * math.comb(m, s) * math.comb(n, s)
                              * math.factorial(s))
    return PolySliceSeries(rows)


def hermite_op(F: SliceSeries, n: int) -> PolySliceSeries:
    """Creation-type operator H_n(F) = (d/ds - qbar)^n F
    = sum_j (-1)^j C(n,j) qbar^j F^(n-j).

    Sends the monomial q^m to (-1)^n H_{m,n}."""
    if n < 0:
        raise ValueError("operator order must be nonnegative")
    rows = []
    for j in range(n + 1):
        dF = F.deriv(n - j)
        rows.append([c * ((-1) ** j * math.comb(n, j)) for c in dF.coeffs])
    return PolySliceSeries(rows)


def extract_components(f: PolySliceSeries) -> list[SliceSeries]:
    """Invert f = sum qbar^j phi_j: slice-regular components
    phi_j = (1/j!) sum_s (-1)^s/s! qbar^s dbar^(j+s) f."""
    n = max(f.level, 0)
    out = []
    for j in range(n + 1):
        acc = PolySliceSeries()
        df = f
        for _ in range(j):
            df = df.dbar()
        for s in range(n - j + 1):
            scale = Fraction((-1) ** s, math.factorial(j) * math.factorial(s))
            acc = acc + df.mul_qbar(s).scale(scale)
            df = df.dbar()
        out.append(acc.component(0))
    return out


def to_hermite_basis(f: PolySliceSeries) -> dict[tuple[int, int], Quaternion]:
    """Coefficients alpha[(m,n)] with f = sum H_{m,n} * alpha[(m,n)],
    via the exact linearization
    q^j qbar^k = j! k! sum_s H_{j-s,k-s} / (s! (j-s)! (k-s)!)."""
    alpha: dict[tuple[int, int], Quaternion] = {}
    for k, row in enumerate(f.coeffs):
        for j, c in enumerate(row):
            if c == _Z:
                continue
            for s in range(min(j, k) + 1):
                w = math.comb(j, s) * math.comb(k, s) * math.factorial(s)
                key = (j - s, k - s)
                alpha[key] = alpha.get(key, _Z) + c * w
    return {key: v for key, v in alpha.items() if v != _Z}


def from_hermite_basis(alpha) -> PolySliceSeries:
    """Rebuild sum H_{m,n} * alpha[(m,n)] as a PolySliceSeries."""
    out = PolySliceSeries()
    for (m, n), c in alpha.items():
        out = out + hermite_series(m, n).rmul(c)
    return out


# -- star-product building blocks ----------------------------------------


def s_k_series(k: int, q: Quaternion) -> PolySliceSeries:
    """Star power S_k of the squared star distance to q, as a left-form
    series in the free variable p:

        S_k = sum_j (-1)^j C(k,j) pbar^(k-j) h^(star k)(p) qbar^j,

    with h(p) = p - q.  Same-slice evaluation collapses to |p-q|^(2k).
    """
    if not 0 <= k <= DEGREE_CAP:
        raise ValueError(f"star distance power {k} exceeds cap {DEGREE_CAP}")
    q = _lift(q)
    h = SliceSeries([-q, 1])
    hk = h.star_pow(k)
    qc = q.conj()
    qcp = [quat(1)]
    for _ in range(k):
        qcp.append(qcp[-1] * qc)
    rows = [[_Z]] * (k + 1)
    for j in range(k + 1):
        c = qcp[j] * ((-1) ** j * math.comb(k, j))
        rows[k - j] = hk.rmul(c).coeffs
    return PolySliceSeries(rows)


def _laguerre_star_coeff(n: int, gamma, k: int):
    if float(gamma).is_integer() and float(gamma) > -1:
        g = int(gamma)
        num = math.factorial(g + n)
        den = math.factorial(n - k) * math.factorial(g + k) * math.factorial(k)
        return Fraction((-1) ** k * num, den)
    num = math.gamma(float(gamma) + n + 1)
    den = (math.gamma(n - k + 1) * math.gamma(float(gamma) + k + 1)
           * math.factorial(k))
    return (-1) ** k * num / den


def laguerre_star(n: int, gamma, q: Quaternion) -> PolySliceSeries:
    """Star Laguerre polynomial L*_n^(gamma) of the star distance to q:

        sum_k Gamma(gamma+n+1) / (Gamma(n-k+1) Gamma(gamma+k+1)) (-1)^k/k! S_k.

    Same-slice evaluation gives the scalar L_n^(gamma)(|p-q|^2).
    """
    if not 0 <= n <= DEGREE_CAP:
        raise ValueError(f"star Laguerre degree {n} exceeds cap {DEGREE_CAP}")
    if float(gamma) <= -1:
        raise ValueError("star Laguerre weight parameter must be > -1")
    out = PolySliceSeries()
    for k in range(n + 1):
        out = out + s_k_series(k, q).scale(_laguerre_star_coeff(n, gamma, k))
    return out


def exp_star(q: Quaternion, terms: int = 40) -> PolySliceSeries:
    """Star exponential e*^[pbar, q] = sum_k pbar^k (q^k / k!) as a series
    in p.  Same-slice evaluation gives e^(pbar q)."""
    if not 0 <= terms <= EXP_STAR_CAP:
        raise ValueError(f"exp_star truncation {terms} outside 0..{EXP_STAR_CAP}")
    q = _lift(q)
    rows = []
    p = quat(1)
    for k in range(terms + 1):
        if k:
            p = p * q
        rows.append([p * Fraction(1, math.factorial(k))])
    return PolySliceSeries(rows)
