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
when the series terminates, i.e. mu in {0,1,2,...} with j >= -mu.  psi is
the one evaluation route, for one point or a batch: z^|j| in the slice of q
times M, which is real for real mu and lies in the slice of a quaternion mu.
spectrum_probe measures the tail behaviour numerically through psi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qarray
from .poly import DEFAULT_POLICY, TruncationPolicy, kummer_M
from .quat import Quaternion, quat
from .quad import gauss_legendre
from .series import PolySliceSeries, to_hermite_basis

__all__ = [
    "SpectralConfig",
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


@dataclass(frozen=True)
class SpectralConfig:
    """Finite-difference settings: step h and stencil order (2 or 4)."""

    h: float = 1e-3
    order: int = 2

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError("central stencil order must be 2 or 4")
        if self.h <= 0:
            raise ValueError("step must be positive")


DEFAULT_SPECTRAL = SpectralConfig()
_PROBE_POLICY = TruncationPolicy(max_terms=800, abs_tol=1e-12)   # spectrum_probe's Kummer stop


def box_symbolic(f: PolySliceSeries) -> PolySliceSeries:
    """Exact action of the slice operator on a polyanalytic series."""
    df = f.dbar()
    return -(df.d()) + df.mul_qbar()


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


def box_fd(f, q: Quaternion, cfg: SpectralConfig = DEFAULT_SPECTRAL) -> Quaternion:
    """Finite-difference slice operator at q.

    Needs |Im q| > order * h to keep the stencil clear of the branch
    switch at the real axis; exactly real q uses the degenerate real
    form -f'' + x f'.
    """
    q = quat(q)
    s = q.to_slice()
    h, order = cfg.h, cfg.order
    offsets = (-1, 0, 1) if order == 2 else (-2, -1, 0, 1, 2)

    if s.y == 0.0:
        vals = tuple(f(quat(s.x + o * h)) for o in offsets)
        d1, d2 = _stencil_1d(vals, h, order)
        return -d2 + d1 * s.x

    if s.y <= order * h:
        raise ValueError(
            f"point too close to the real axis for the stencil: |Im q| = {s.y:.3e} "
            f"needs > {order * h:.3e}")

    unit = s.unit

    def ev(xx, yy):
        return f(xx + unit * yy)

    xv = tuple(ev(s.x + o * h, s.y) for o in offsets)
    yv = tuple(ev(s.x, s.y + o * h) for o in offsets)
    fx, fxx = _stencil_1d(xv, h, order)
    fy, fyy = _stencil_1d(yv, h, order)
    out = (fxx + fyy) * (-0.25) + (fx * s.x + fy * s.y) * 0.5 \
        + unit * (fy * s.x - fx * s.y) * 0.5
    return out


# -- hypergeometric eigenfunctions ---------------------------------------


def _psi_params(mu, j: int):
    """Kummer parameters (a, c, power, conjugated) for psi_{mu,j}; a is a
    float for real mu (a Quaternion with zero imaginary part counts)."""
    if not isinstance(mu, Quaternion) or mu.imag_norm() == 0:
        mu = float(quat(mu).w)
    if j >= 0:
        return -mu, j + 1, j, False
    return -(mu + j), -j + 1, -j, True


def psi(mu, j: int, q, policy: TruncationPolicy = DEFAULT_POLICY):
    """Eigenfunction psi_{mu,j} of the slice operator, box psi = mu psi, at
    one Quaternion q (a Quaternion) or an (..., 4) batch (an (..., 4) array).

    z^|j| is taken in the slice of each point and multiplied by the Kummer
    factor M: for real mu M is real, for quaternion mu it lies in the slice
    of mu and multiplies from the right."""
    if isinstance(q, Quaternion):
        return qarray.to_quaternion(psi(mu, j, qarray.from_quaternion(q)[None, :], policy)[0])
    a, c, power, conjugated = _psi_params(mu, j)
    z, unit = qarray.to_slice(q)
    m = kummer_M(a, c, qarray.norm_sq(q), policy)
    with np.errstate(over="ignore", invalid="ignore"):
        base = (np.conj(z) if conjugated else z) ** power
        out = (qarray.qmul(qarray.from_slice(base, unit), m) if isinstance(a, Quaternion)
               else qarray.from_slice(base * m, unit))
    if not np.isfinite(out).all():
        raise ValueError(f"psi_{{{mu},{j}}} leaves double range on this batch")
    return out


class Eigenfunction:
    """psi_{n,j} as a quadrature integrand: evaluates through psi."""

    def __init__(self, n: int, j: int):
        self.n, self.j = n, j

    def eval_many(self, pts):
        return psi(self.n, self.j, pts)


def psi_norm_sq(n: int, j: int) -> float:
    """Squared full-space norm of psi_{n,j} for integer n >= 0, j >= -n.

    4 pi^2 n! (j!)^2 / (n+j)!  for j >= 0, and the conjugate-symmetric
    value 4 pi^2 (n+j)! (|j|!)^2 / n!  for j < 0."""
    if n < 0 or n != int(n):
        raise ValueError("closed-form norms need an integer eigenvalue n >= 0")
    if j < -n:
        raise ValueError(f"psi_{{{n},{j}}} vanishes identically (j < -n); no norm")
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


def expand_eigen(f: PolySliceSeries, tol: float = 0.0) -> EigenExpansion:
    """Expand a pure level-n series over the psi family.

    Raises if f has Hermite components away from level n.  The growth
    number is sum_j ||psi_{n,j}||^2 |C_j|^2, which equals the squared
    full-space norm of f."""
    n = max(f.level, 0)
    alpha = to_hermite_basis(f)
    bad = {key: v for key, v in alpha.items()
           if key[1] != n and abs(v) > tol}
    if bad:
        raise ValueError(
            f"series has Hermite components off level {n}: {sorted(bad)}")
    coeffs = {}
    growth = 0.0
    for (m, k), v in alpha.items():
        if k != n:
            continue
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


def spectrum_probe(mu, j: int, r_max: float = 8.0, windows: int = 16) -> ProbeResult:
    """Measure the radial e^(-r^2) mass of psi_{mu,j} on annuli.

    The slice integrand is r^(2|j|+1) |M|^2 e^(-r^2) = r |psi(r) e^(-r^2/2)|^2,
    evaluated by one psi call on the stacked 24-node Gauss-Legendre rules of
    the windows; for terminating (integer) mu the annulus masses collapse,
    otherwise M grows like e^(r^2) and the masses blow up.  converged
    requires the last two annulus ratios to fall below 1.

    Domain: a non-terminating series must converge within _PROBE_POLICY
    (800 terms, abs_tol 1e-12), r_max up to about 17 (KummerConvergenceError beyond).
    For a terminating one e^(-r^2) underflows past r_max = 27: a mass that
    is not finite, or 0 where a ratio divides by it, is refused with
    ValueError rather than read as a ratio.
    """
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"probe radius {r_max} must be finite and positive")
    if windows < 3:
        raise ValueError(f"{windows} windows give fewer than two tail ratios; need >= 3")
    mu = quat(mu)
    edges = np.linspace(0.0, r_max, windows + 1)
    rules = [gauss_legendre(24, float(lo), float(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    r = np.array([rule.nodes for rule in rules])
    decayed = psi(mu, j, qarray.from_slice(r, np.zeros(3)), _PROBE_POLICY) * np.exp(-r * r / 2)[..., None]
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
