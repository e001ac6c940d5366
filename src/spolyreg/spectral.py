"""The slice hypercomplex Laplacian and its eigenfunctions.

The second-order slice operator

    box = -d ds dbar_s + qbar dbar_s

acts on polyanalytic series monomials by

    box(qbar^k q^j c) = -k j qbar^(k-1) q^(j-1) c + k qbar^k q^j c,

so the quaternionic Hermite polynomials are eigenfunctions,
box H_{j,k} = k H_{j,k}.  In slice coordinates q = x + I y the operator
reads (away from the real axis)

    -(1/4)(f_xx + f_yy) + (1/2)(x f_x + y f_y) + (I/2)(x f_y - y f_x)

with I multiplying from the left; on the real axis it degenerates to
-f'' + x f'.  box_fd assembles exactly this with central differences.

The radial eigenfunction family is confluent hypergeometric:

    psi_{mu,j}(q) = q^j           M(-mu;     j+1  | |q|^2)   for j >= 0,
    psi_{mu,j}(q) = qbar^(|j|)    M(-(mu+j); |j|+1| |q|^2)   for j < 0,

with box psi = mu psi; it is square integrable against e^(-|q|^2) exactly
when the series terminates, i.e. mu in {0,1,2,...} with j >= -mu.  One
slice form, z^|j| times M (real for real mu, in the slice of a quaternion
mu), gives psi at one point or a batch and Eigenfunction on a slice.
spectrum_probe measures the tail behaviour numerically through psi.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qarray
from .poly import kummer_M
from .quat import Quaternion, quat
from .quad import gauss_legendre, values_on
from .series import PolySliceSeries, to_hermite_basis

__all__ = [
    "box_symbolic",
    "box_fd",
    "psi",
    "Eigenfunction",
    "psi_norm_sq",
    "EigenExpansion",
    "expand_eigen",
    "ProbeResult",
    "spectrum_probe",
]

FD_STEP = 1e-3       # box_fd's step h
FD_ORDER = 4         # box_fd's central-stencil order (2 or 4)
PROBE_R_MAX = 8.0    # spectrum_probe's outer radius
PROBE_WINDOWS = 16   # spectrum_probe's number of annuli


def box_symbolic(f: PolySliceSeries) -> PolySliceSeries:
    """Exact slice operator on a left-form series, one pass over its nonzero
    coefficients: qbar^k q^j c adds k c at (k, j) and subtracts (c k) j at (k-1, j-1),
    the products and sums, in that order, of -(dbar f).d() + (dbar f).mul_qbar()."""
    if not isinstance(f, PolySliceSeries):
        raise TypeError(f"box_symbolic acts on a PolySliceSeries, not {type(f).__name__}")
    zero = quat(0)
    out = [[zero] * len(row) for row in f.coeffs]
    for k, row in enumerate(f.coeffs[1:], 1):
        for j, c in enumerate(row):
            if c != zero:
                out[k][j] = out[k][j] + c * k
                if j:
                    out[k - 1][j - 1] = out[k - 1][j - 1] - c * k * j
    return PolySliceSeries(out)


def _stencil_1d(vals, h: float, order: int):
    """(first, second) derivative from symmetric samples.

    order 2: vals = (f(-h), f(0), f(+h));
    order 4: vals = (f(-2h), f(-h), f(0), f(+h), f(+2h))."""
    if order == 2:
        fm, f0, fp = vals
        d1 = (fp - fm) * (1.0 / (2.0 * h))
        d2 = (fp - f0 * 2.0 + fm) * (1.0 / (h * h))
        return d1, d2
    fmm, fm, f0, fp, fpp = vals
    d1 = (fmm - fm * 8.0 + fp * 8.0 - fpp) * (1.0 / (12.0 * h))
    d2 = (-fmm + fm * 16.0 - f0 * 30.0 + fp * 16.0 - fpp) * (1.0 / (12.0 * h * h))
    return d1, d2


def box_fd(f, q, h: float = FD_STEP, order: int = FD_ORDER):
    """Finite-difference slice operator at one Quaternion q (a Quaternion)
    or at each row of an (N, 4) batch (an (N, 4) array), central stencil of
    step h > 0 and order 2 or 4.

    A function with a slice_form is read at the complex stencil points
    z + h and z + ih of each row's slice coordinate z = x + i|Im q|, and the
    operator acts there with i in place of the unit U (U lift(W, U) =
    lift(i W, U)), lifted once at the end.  Any other function reads the
    stencil points of every row in one values_on call.

    Needs |Im q| > order * h to keep the stencil clear of the branch
    switch at the real axis; exactly real rows use the degenerate real
    form -f'' + x f'.
    """
    if order not in (2, 4):
        raise ValueError("central stencil order must be 2 or 4")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step must be positive and finite, got {h!r}")
    if not isinstance(q, np.ndarray):
        return qarray.to_quaternion(box_fd(f, qarray.from_quaternion(quat(q))[None, :], h, order)[0])
    z, unit = qarray.to_slice(qarray.check_batch(q))
    x, y = z.real, z.imag
    near = np.flatnonzero((y > 0) & (y <= order * h))
    if near.size:
        raise ValueError(f"point too close to the real axis for the stencil: row {near[0]} has "
                         f"|Im q| = {y[near[0]]:.3e}, needs > {order * h:.3e}")
    offsets = np.arange(-(order // 2), order // 2 + 1)[:, None] * h
    stencil = np.stack([z + offsets, z + 1j * offsets])          # (2, order + 1, N)
    if hasattr(f, "slice_form"):
        vals = f.slice_form(stencil.ravel()).reshape(stencil.shape + (4,))
        return qarray.lift(_box_stencil(vals, x, y, h, order, lambda v: v * 1j), unit)
    pts = qarray.from_slice(stencil, unit)
    vals = values_on(f, pts.reshape(-1, 4)).reshape(pts.shape)
    u = qarray.from_slice(1j, unit)
    return _box_stencil(vals, x, y, h, order, lambda v: qarray.qmul(u, v))


def _box_stencil(vals, x, y, h: float, order: int, times_unit):
    """The slice operator at slice coordinates x + iy (N,) from stencil values
    (2, order + 1, N, 4) along x and y; times_unit(v) multiplies v by the unit
    from the left.  Rows with y == 0 take the real form -f'' + x f'."""
    (fx, fxx), (fy, fyy) = (_stencil_1d(tuple(v), h, order) for v in vals)
    x, y = x[:, None], y[:, None]
    out = (fxx + fyy) * (-0.25) + (fx * x + fy * y) * 0.5 + times_unit(fy * x - fx * y) * 0.5
    return np.where(y == 0.0, -fxx + fx * x, out)


# -- hypergeometric eigenfunctions ---------------------------------------


def _psi_form(mu, j: int, z):
    """Slice form of psi_{mu,j}: complex (..., 4) W with psi(Re z + U Im z) =
    qarray.lift(W, U) for every unit U, z^|j| (conj(z) for j < 0) times M(|z|^2),
    real for real mu (a Quaternion with zero imaginary part counts) and for
    quaternion mu in the slice of mu, multiplying from the right."""
    s = mu if isinstance(mu, Quaternion) and mu.imag_norm() != 0 else float(quat(mu).w)
    m = kummer_M(-s if j >= 0 else -(s + j), abs(j) + 1, z.real ** 2 + z.imag ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        w = ((z if j >= 0 else np.conj(z)) ** abs(j))[..., None] * (
            m if isinstance(s, Quaternion) else m[..., None] * [1.0, 0.0, 0.0, 0.0])
    if not np.isfinite(w).all():
        raise ValueError(f"psi_{{{mu},{j}}} leaves double range on this batch")
    return w


def psi(mu, j: int, q):
    """Eigenfunction psi_{mu,j} of the slice operator, box psi = mu psi, at
    one Quaternion q (a Quaternion) or an (..., 4) batch (an (..., 4) array):
    its slice form at each point's slice coordinate, lifted onto its unit."""
    if isinstance(q, Quaternion):
        return qarray.to_quaternion(psi(mu, j, qarray.from_quaternion(q)[None, :])[0])
    z, unit = qarray.to_slice(q)
    return qarray.lift(_psi_form(mu, j, z), unit)


class Eigenfunction:
    """psi_{n,j} as a quadrature integrand, read through psi or its slice
    form.  For integers n >= 0 and j >= -n it is a polynomial of level n and
    degree n + j, which the slice rules' degree guard reads; else both are None."""

    def __init__(self, n: int, j: int):
        self.n, self.j = n, j
        r = n.w if isinstance(n, Quaternion) and n.imag_norm() == 0 else n  # psi reads it as real
        polynomial = (all(isinstance(v, numbers.Real) and float(v).is_integer() for v in (r, j))
                      and 0 <= r and j >= -r)
        self.level, self.degree = (int(r), int(r + j)) if polynomial else (None, None)

    def eval_many(self, pts):
        return psi(self.n, self.j, pts)

    def slice_form(self, z):
        return _psi_form(self.n, self.j, z)


def psi_norm_sq(n: int, j: int) -> float:
    """Squared full-space norm of the polynomial psi_{n,j}, the n and j that
    Eigenfunction gives a level: integers n >= 0 and j >= -n.

    4 pi^2 n! (j!)^2 / (n+j)!  for j >= 0, and the conjugate-symmetric
    value 4 pi^2 (n+j)! (|j|!)^2 / n!  for j < 0."""
    f = Eigenfunction(n, j)
    if f.level is None:
        raise ValueError(f"psi_{{{n},{j}}} is not a polynomial eigenfunction (integers n >= 0 "
                         "and j >= -n); no closed-form norm")
    n, j = f.level, f.degree - f.level
    if j >= 0:
        r = Fraction(math.factorial(n) * math.factorial(j) ** 2,
                     math.factorial(n + j))
    else:
        r = Fraction(math.factorial(n + j) * math.factorial(-j) ** 2,
                     math.factorial(n))
    return 4.0 * math.pi ** 2 * float(r)


@dataclass
class EigenExpansion:
    """f = sum_j psi_{n,j} C_j for a level-n eigenfunction candidate f."""

    level: int
    coeffs: dict
    growth: float


def expand_eigen(f: PolySliceSeries) -> EigenExpansion:
    """Expand a pure level-n series over the psi family.

    Raises if f has Hermite components away from level n.  The growth
    number is sum_j ||psi_{n,j}||^2 |C_j|^2, which equals the squared
    full-space norm of f."""
    n = max(f.level, 0)
    alpha = to_hermite_basis(f)
    bad = [key for key in alpha if key[1] != n]  # to_hermite_basis keeps no zero entry
    if bad:
        raise ValueError(
            f"series has Hermite components off level {n}: {sorted(bad)}")
    coeffs = {}
    growth = 0.0
    for (m, _), v in alpha.items():
        j = m - n
        if j >= 0:
            scl = Fraction(math.factorial(n + j), math.factorial(j)) * (-1) ** n
        else:
            scl = Fraction(math.factorial(n), math.factorial(-j)) * (-1) ** (n + j)
        cj = v * scl
        coeffs[j] = cj
        growth += psi_norm_sq(n, j) * float(cj.norm_sq())
    return EigenExpansion(n, coeffs, growth)


# -- numeric spectrum probe ----------------------------------------------


@dataclass
class ProbeResult:
    mu: Quaternion
    j: int
    converged: bool
    tail_ratios: list
    annulus_masses: list

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "mu": [float(c) for c in self.mu.as_tuple()],
            "j": self.j,
            "converged": bool(self.converged),
            "tail_ratios": [float(r) for r in self.tail_ratios],
            "annulus_masses": [float(m) for m in self.annulus_masses],
        }


def spectrum_probe(mu, j: int, r_max: float = PROBE_R_MAX,
                   windows: int = PROBE_WINDOWS) -> ProbeResult:
    """Measure the radial e^(-r^2) mass of psi_{mu,j} on annuli.

    The slice integrand is r^(2|j|+1) |M|^2 e^(-r^2) = r |psi(r) e^(-r^2/2)|^2,
    evaluated by one psi call on the stacked 24-node Gauss-Legendre rules of
    the windows; for terminating (integer) mu the annulus masses collapse,
    otherwise M grows like e^(r^2) and the masses blow up.  converged
    requires the last two annulus ratios to fall below 1.

    Domain: r_max^2 >= 5 Re mu + 6 + 2|j|, refused with ValueError below,
    where the tail of a terminating sum has not begun.  Scanned over mu 0-11.5
    (steps of 0.5, and 0.25, 1.25, 2.75, 3.7), j -3..3 and r_max in steps of
    0.25 up to 16, every verdict is right once r_max^2 passes 5 mu by 1.81
    (j <= 0), 4.0 (j = 1), 6.25 (j = 2) or 9.0 (j = 3); inside the bound every
    verdict of mu 12-40 and -2.5..-0.5 is right too.  A non-terminating series
    must fall below KUMMER_TOL within KUMMER_TERMS = 800 terms (psi's one Kummer
    stop), r_max up to about 16.5 (KummerConvergenceError beyond).
    For a terminating one e^(-r^2) underflows past r_max = 27: a mass that
    is not finite, or 0 where a ratio divides by it, is refused with
    ValueError rather than read as a ratio.
    """
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"probe radius {r_max} must be finite and positive")
    if windows < 3:
        raise ValueError(f"{windows} windows give fewer than two tail ratios; need >= 3")
    mu = quat(mu)
    bound = 5.0 * float(mu.w) + 6.0 + 2.0 * abs(j)
    if r_max * r_max < bound:
        raise ValueError(f"probe radius r_max = {r_max:g} is below the domain bound "
                         f"r_max^2 >= 5 Re mu + 6 + 2|j| = {bound:g}")
    edges = np.linspace(0.0, r_max, windows + 1)
    rules = [gauss_legendre(24, float(lo), float(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    r = np.array([rule.nodes for rule in rules])
    decayed = psi(mu, j, qarray.from_slice(r, np.zeros(3))) * np.exp(-r * r / 2)[..., None]
    masses = np.sum(np.array([rule.weights for rule in rules]) * r * qarray.norm_sq(decayed),
                    axis=1)
    for i, mass in enumerate(masses):
        # a tail ratio divides by every mass but the last; 0/x still reads as decay
        if not mass < math.inf or (mass == 0.0 and i < windows - 1):
            raise ValueError(
                f"annulus mass {float(mass)!r} on window [{edges[i]:.6g}, {edges[i + 1]:.6g}] "
                f"of r_max = {r_max:g} is outside double range; no tail ratio can use it")
    ratios = masses[1:] / masses[:-1]
    converged = ratios[-1] < 1.0 and ratios[-2] < 1.0
    return ProbeResult(mu, j, bool(converged), ratios.tolist(), masses.tolist())
