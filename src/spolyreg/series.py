"""Slice power series, polyanalytic series and their star products.

One grid of quaternion coefficients c_kj (row k the qbar power, column j
the q power) read in three forms:

* ``SliceSeries``      f(q) = sum_j q^j a_j            (one row, coefficients right)
* ``PolySliceSeries``  f(q) = sum_{k,j} qbar^k q^j c_kj  (left form)
* ``RightPolySeries``  f(q) = sum_{k,j} c_kj q^j qbar^k  (right form)

All three share one grid class (storage, linear structure, comparison),
whose one-row case is the slice-regular form; one star convolution
(c_kj d_xy at (k+x, j+y), multiplied in that order, so noncommutative
unless all coefficients share a slice) and one evaluation loop.  The
left form is the canonical one; conjugation maps it onto the right form
and exchanges the two star products.

Coefficients may be exact (int / Fraction components); every operation
here preserves exactness, which is what the identity-level tests run on.
"""
from __future__ import annotations

import math
import operator
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
STAR_TERMS = 40        # default star-exponential truncation (exp_star, the star kernel)

_Z = quat(0)


def _lift(c) -> Quaternion:
    return c if isinstance(c, Quaternion) else quat(c)


def _grid(rows) -> tuple:
    """The storage rule: rows of lifted coefficients, trailing zero rows
    dropped and every row padded or cut to the last nonzero column."""
    rows = [[_lift(c) for c in row] for row in rows]
    while rows and all(c == _Z for c in rows[-1]):
        rows.pop()
    cols = max(map(len, rows), default=0)   # the last nonzero column, read from the right
    width = next((j + 1 for j in reversed(range(cols))
                  if any(j < len(row) and row[j] != _Z for row in rows)), 0)
    return tuple(tuple(row[:width]) + (_Z,) * (width - len(row)) for row in rows)


def _entry(grid, k: int, j: int) -> Quaternion:
    if 0 <= k < len(grid) and 0 <= j < len(grid[k]):
        return grid[k][j]
    return _Z


def _convolve(a, b) -> list:
    """The grid with a[k][j] b[x][y] summed at (k+x, j+y), the a factor
    on the left; zero coefficients are skipped."""
    cols = max(map(len, a), default=0) + max(map(len, b), default=0) - 1
    out = [[_Z] * cols for _ in range(len(a) + len(b) - 1)]
    for k, ra in enumerate(a):
        for j, c in enumerate(ra):
            if c == _Z:
                continue
            for x, rb in enumerate(b):
                for y, d in enumerate(rb):
                    if d != _Z:
                        out[k + x][j + y] = out[k + x][j + y] + c * d
    return out


def _powers(q: Quaternion, n: int) -> list:
    """q^0, q^1, ..., q^n, each the previous one times q."""
    out = [quat(1)]
    for _ in range(n):
        out.append(out[-1] * q)
    return out


def _eval(grid, q, left: bool) -> Quaternion:
    """sum (qbar^k q^j) c_kj, or sum c_kj (qbar^k q^j) when left."""
    q = _lift(q)
    qp = _powers(q, max(map(len, grid), default=1) - 1)
    qcp = _powers(q.conj(), max(len(grid) - 1, 0))
    total = _Z
    for k, row in enumerate(grid):
        for j, c in enumerate(row):
            if c != _Z:
                m = qcp[k] * qp[j]
                total = total + (c * m if left else m * c)
    return total


def _zip(a, b, op) -> list:
    """op of the entries of two grids, both zero-padded to the larger shape."""
    cols = max(map(len, (*a, *b)), default=0)
    return [[op(_entry(a, k, j), _entry(b, k, j)) for j in range(cols)]
            for k in range(max(len(a), len(b)))]


def _allclose(a, b, tol: float) -> bool:
    """Entrywise |a - b| <= tol * (largest |entry| of either grid, at least 1)."""
    pairs = [pair for row in _zip(a, b, lambda x, y: (x, y)) for pair in row]
    scale = max([1.0] + [abs(c) for pair in pairs for c in pair])
    return all(abs(x - y) <= tol * scale for x, y in pairs)


class _Grid:
    """The grid of the three forms with its shape, entries, linear structure
    and comparison.  Each result has its operand's type; equality needs the
    same type, so no two forms ever compare equal."""

    __slots__ = ("_rows",)

    def __init__(self, rows=()):
        self._rows = _grid(rows)

    @classmethod
    def _from_rows(cls, rows):
        """A cls on the grid `rows`, whatever row shape cls's constructor reads."""
        out = object.__new__(cls)
        out._rows = _grid(rows)
        return out

    @property
    def coeffs(self) -> tuple:
        return self._rows

    @property
    def level(self) -> int:
        return len(self._rows) - 1

    @property
    def degree(self) -> int:
        return max(map(len, self._rows), default=0) - 1

    def coeff(self, k: int, j: int) -> Quaternion:
        return _entry(self._rows, k, j)

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        return self._from_rows(_zip(self._rows, other._rows, operator.add))

    def __sub__(self, other):
        return self._from_rows(_zip(self._rows, other._rows, operator.sub))

    def _map(self, fn):
        """fn of each nonzero coefficient, zero entries kept (_convolve's zero test)."""
        return self._from_rows([[c if c == _Z else fn(c) for c in row] for row in self._rows])

    def __neg__(self):
        return self._map(operator.neg)

    def scale(self, s):
        """Multiply by a real scalar (Fraction-safe)."""
        return self._map(lambda c: c * s)

    def rmul(self, c):
        """Right module action f * c (coefficients c_kj * c)."""
        c = _lift(c)
        return self._map(lambda a: a * c)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def allclose(self, other, tol: float = 1e-12) -> bool:
        return _allclose(self._rows, other._rows, tol)

    def __repr__(self):
        return f"{type(self).__name__}(level={self.level}, degree={self.degree})"


class SliceSeries(_Grid):
    """Polynomial slice series sum_j q^j a_j with right coefficients: the
    one-row grid, whose coeffs are the flat tuple of its row."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        self._rows = _grid([coeffs])

    @property
    def coeffs(self) -> tuple:
        return self._rows[0] if self._rows else ()

    def coeff(self, j: int) -> Quaternion:
        return _entry(self._rows, 0, j)

    def deriv(self, order: int = 1) -> "SliceSeries":
        """Slice derivative (d/dq)^order applied termwise."""
        out = self
        for _ in range(order):
            out = SliceSeries([c * j for j, c in enumerate(out.coeffs)][1:])
        return out

    def star(self, other: "SliceSeries") -> "SliceSeries":
        """Left slice star product: Cauchy convolution with ordered
        coefficient products a_k b_{n-k}."""
        return self._from_rows(_convolve(self._rows, other._rows))

    def star_pow(self, k: int) -> "SliceSeries":
        out = SliceSeries([1])
        for _ in range(k):
            out = out.star(self)
        return out

    def eval(self, q: Quaternion) -> Quaternion:
        return _eval(self._rows, q, left=False)

    __call__ = eval

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return PolySliceSeries(self._rows).eval_many(pts)

    def __repr__(self):
        return f"SliceSeries(degree={self.degree})"


def slice_monomial(j: int, c=1) -> SliceSeries:
    return SliceSeries([_Z] * j + [_lift(c)])


class PolySliceSeries(_Grid):
    """Left-form polyanalytic series sum qbar^k q^j c_kj.

    Row index k is the qbar power ("level"), column index j the q power.
    The coefficient sits on the right of the variable powers.
    """

    __slots__ = ()

    def component(self, k: int) -> SliceSeries:
        """Slice-regular component of level k (row k)."""
        if 0 <= k < len(self._rows):
            return SliceSeries(self._rows[k])
        return SliceSeries()

    def mul_qbar(self, power: int = 1) -> "PolySliceSeries":
        """Multiply by qbar^power on the left (row shift)."""
        pad = [[_Z]] * power
        return PolySliceSeries(pad + [list(r) for r in self._rows])

    # -- analysis --------------------------------------------------------

    def d(self) -> "PolySliceSeries":
        """Slice derivative d/dq: qbar^k q^j c -> j qbar^k q^(j-1) c."""
        return PolySliceSeries(
            [[row[j + 1] * (j + 1) for j in range(len(row) - 1)]
             for row in self._rows])

    def dbar(self) -> "PolySliceSeries":
        """Conjugate slice derivative: qbar^k q^j c -> k qbar^(k-1) q^j c."""
        return PolySliceSeries(
            [[c * k for c in row]
             for k, row in enumerate(self._rows)][1:])

    def star(self, other: "PolySliceSeries") -> "PolySliceSeries":
        """Left polyanalytic star product:
        (qbar^k q^j c) * (qbar^x q^y d) = qbar^(k+x) q^(j+y) (c d)."""
        return PolySliceSeries(_convolve(self._rows, other._rows))

    def conj(self) -> "RightPolySeries":
        """conj(qbar^k q^j c) = conj(c) q^k qbar^j: transpose + conjugate."""
        return RightPolySeries([[c.conj() for c in col] for col in zip(*self._rows)])

    # -- evaluation ------------------------------------------------------

    def eval(self, q: Quaternion) -> Quaternion:
        return _eval(self._rows, q, left=False)

    __call__ = eval

    def eval_left(self, q: Quaternion) -> Quaternion:
        """Evaluate with the coefficient on the LEFT: sum c_kj qbar^k q^j.

        The exact scalar reference of the star-identities suite and of the
        tests for star Laguerre and star exponential series, whose
        coefficients lie in the parameter's slice."""
        return _eval(self._rows, q, left=True)

    def slice_form(self, z: np.ndarray) -> np.ndarray:
        """Complex (N, 4) W with f(Re z + U Im z) = qarray.lift(W, U) for every unit U."""
        return slice_values(coeff_stack([self]), z)[:, 0]

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Values on an (N, 4) batch: the slice form at each point's own
        slice coordinate z = x + i|Im q|, lifted onto its unit U."""
        z, unit = qarray.to_slice(pts)
        return qarray.lift(self.slice_form(z), unit)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "degree": self.degree,
            "coeffs": [[[float(v) for v in c.as_tuple()] for c in row]
                       for row in self._rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolySliceSeries":
        return cls([[Quaternion(*c) for c in row] for row in data["coeffs"]])


def coeff_stack(funcs) -> np.ndarray:
    """The coefficients c_kj of the PolySliceSeries f_0..f_{m-1} as one
    zero-padded float tensor of shape (level+1, degree+1, m, 4)."""
    level = max((f.level for f in funcs), default=-1)
    degree = max((f.degree for f in funcs), default=-1)
    c = np.zeros((level + 1, degree + 1, len(funcs), 4))
    for a, f in enumerate(funcs):
        for k, row in enumerate(f._rows):
            for j, v in enumerate(row):
                if v is not _Z:     # the shared zero; any other entry is written, signed zeros too
                    c[k, j, a] = v.as_tuple()
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


class RightPolySeries(_Grid):
    """Right-form series sum c_kj q^j qbar^k (coefficient on the left)."""

    __slots__ = ()

    def star(self, other: "RightPolySeries") -> "RightPolySeries":
        """Right polyanalytic star product:
        (c q^j qbar^k) * (d q^y qbar^x) = (c d) q^(j+y) qbar^(k+x)."""
        return RightPolySeries(_convolve(self._rows, other._rows))

    def conj(self) -> PolySliceSeries:
        """conj(c q^j qbar^k) = qbar^j q^k conj(c): transpose + conjugate."""
        return PolySliceSeries([[c.conj() for c in col] for col in zip(*self._rows)])

    def eval(self, q: Quaternion) -> Quaternion:
        """sum c_kj (qbar^k q^j): q^j and qbar^k commute, so this is the
        left-coefficient evaluation of the same grid."""
        return _eval(self._rows, q, left=True)

    __call__ = eval


def poly_monomial(k: int, j: int, c=1) -> PolySliceSeries:
    rows = [[_Z]] * k + [[_Z] * j + [_lift(c)]]
    return PolySliceSeries(rows)


# -- quaternionic Hermite basis ------------------------------------------


def hermite_series(m: int, n: int) -> PolySliceSeries:
    """H_{m,n} as an exact PolySliceSeries: integer coefficient
    (-1)^s C(m,s) C(n,s) s! at qbar^(n-s) q^(m-s)."""
    if not (0 <= m <= DEGREE_CAP and 0 <= n <= DEGREE_CAP):
        raise ValueError(f"hermite indices ({m},{n}) outside 0..{DEGREE_CAP}")
    rows = [[_Z] * (m + 1) for _ in range(n + 1)]
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
    hk = SliceSeries([-q, 1]).star_pow(k)
    qcp = _powers(q.conj(), k)
    return PolySliceSeries([hk.rmul(qcp[j] * ((-1) ** j * math.comb(k, j))).coeffs
                            for j in range(k, -1, -1)])


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


def exp_star(q: Quaternion, terms: int = STAR_TERMS) -> PolySliceSeries:
    """Star exponential e*^[pbar, q] = sum_k pbar^k (q^k / k!) as a series
    in p.  Same-slice evaluation gives e^(pbar q)."""
    if not 0 <= terms <= EXP_STAR_CAP:
        raise ValueError(f"exp_star truncation {terms} outside 0..{EXP_STAR_CAP}")
    return PolySliceSeries([[c * Fraction(1, math.factorial(k))]
                            for k, c in enumerate(_powers(_lift(q), terms))])
