"""Quaternion arithmetic, slice and polar decompositions.

Quaternions q = w + x i + y j + z k with the Hamilton rules
i^2 = j^2 = k^2 = ijk = -1.  Components may be ints, floats or
``fractions.Fraction``; arithmetic never forces a float conversion, so
quaternions built from Fractions stay exact.  This is what the series
layer uses for its exact coefficient mode.

Imaginary units ("slices") are represented as unit purely imaginary
Quaternion values; every non-real q lies in exactly one slice plane
C_I = R + R*I with I = Im(q)/|Im(q)|.
"""
from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

__all__ = [
    "Quaternion",
    "SliceForm",
    "PolarForm",
    "ONE",
    "I",
    "J",
    "K",
    "quat",
    "imaginary_unit",
    "random_unit",
    "random_quaternion",
    "split",
    "qexp",
    "parse_quaternion",
    "format_quaternion",
]


def _is_scalar(v) -> bool:
    return isinstance(v, numbers.Real)


@dataclass(frozen=True, slots=True)
class Quaternion:
    """A quaternion w + x i + y j + z k.

    Multiplication is the Hamilton product and is not commutative;
    ``p * q`` and ``q * p`` differ in general.  Scalars (int, float,
    Fraction) mix in freely from either side.
    """

    w: float
    x: float
    y: float
    z: float

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        if _is_scalar(other):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        if _is_scalar(other):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        if _is_scalar(other):
            return Quaternion(other - self.w, -self.x, -self.y, -self.z)
        return NotImplemented

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            w1, x1, y1, z1 = self.w, self.x, self.y, self.z
            w2, x2, y2, z2 = other.w, other.x, other.y, other.z
            return Quaternion(
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            )
        if _is_scalar(other):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        # only reached for scalar * quaternion; reals are central
        if _is_scalar(other):
            return Quaternion(other * self.w, other * self.x,
                              other * self.y, other * self.z)
        return NotImplemented

    def __truediv__(self, other):
        if _is_scalar(other):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        if isinstance(other, Quaternion):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        out = ONE
        base = self
        n = int(n)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self):
        """|q|^2 = q * conj(q); exact for exact components."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.sqrt(float(self.norm_sq()))

    norm = __abs__

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0:
            raise ZeroDivisionError("inverse of zero quaternion")
        return self.conj() / n2

    # -- structure -------------------------------------------------------

    def imag_norm(self) -> float:
        return math.sqrt(float(self.x * self.x + self.y * self.y + self.z * self.z))

    def to_slice(self) -> "SliceForm":
        """Write q = x0 + I*y0 with y0 >= 0; real q gets I = i by convention."""
        y0 = self.imag_norm()
        if y0 == 0:
            return SliceForm(self.w, 0.0, I)
        unit = Quaternion(0, float(self.x) / y0, float(self.y) / y0,
                          float(self.z) / y0)
        return SliceForm(float(self.w), y0, unit)

    def to_polar(self) -> "PolarForm":
        """Write q = r * exp(I*theta), r >= 0, theta in [0, pi]."""
        s = self.to_slice()
        r = abs(self)
        if r == 0:
            return PolarForm(0.0, 0.0, I)
        return PolarForm(r, math.atan2(s.y, float(s.x)), s.unit)

    def as_tuple(self):
        return (self.w, self.x, self.y, self.z)

    def __str__(self) -> str:
        return format_quaternion(self)


@dataclass(frozen=True, slots=True)
class SliceForm:
    """q = x + unit*y with y >= 0 and unit a fixed imaginary unit."""

    x: float
    y: float
    unit: Quaternion


@dataclass(frozen=True, slots=True)
class PolarForm:
    """q = r * exp(unit*theta)."""

    r: float
    theta: float
    unit: Quaternion


ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
_DIRECTION_MIN = 1e-12   # shortest direction imaginary_unit normalises
_PERP_TOL = 1e-10        # largest |<I, J>| split accepts as perpendicular


def quat(w=0, x=0, y=0, z=0) -> Quaternion:
    """Convenience constructor; also lifts a bare scalar to a quaternion."""
    if isinstance(w, Quaternion):
        return w
    return Quaternion(w, x, y, z)


def imaginary_unit(x, y, z) -> Quaternion:
    """Normalise a direction longer than _DIRECTION_MIN = 1e-12 to a unit imaginary quaternion."""
    n = math.sqrt(float(x * x + y * y + z * z))
    if n <= _DIRECTION_MIN:
        raise ValueError("imaginary unit needs a nonzero direction vector")
    return Quaternion(0, float(x) / n, float(y) / n, float(z) / n)


def random_unit(rng) -> Quaternion:
    """Uniformly random imaginary unit (a point of the 2-sphere S)."""
    while True:
        v = rng.normal(size=3)
        n = math.sqrt(float(v @ v))
        if n > 1e-6:
            return Quaternion(0, v[0] / n, v[1] / n, v[2] / n)


def random_quaternion(rng, scale: float = 1.0) -> Quaternion:
    v = rng.normal(size=4) * scale
    return Quaternion(*[float(c) for c in v])


def _imag_dot(p: Quaternion, q: Quaternion):
    return p.x * q.x + p.y * q.y + p.z * q.z


def split(q: Quaternion, unit_i: Quaternion, unit_j: Quaternion) -> tuple[Quaternion, Quaternion]:
    """Symmetry split q = c1 + c2 * J with c1, c2 in the slice C_I.

    Requires J perpendicular to I, |<I, J>| <= _PERP_TOL = 1e-10.  Writing q
    in the orthogonal basis {1, I, J, I*J} gives c1 = a + b*I and c2 = c + d*I.
    """
    if abs(float(_imag_dot(unit_i, unit_j))) > _PERP_TOL:
        raise ValueError("split needs perpendicular imaginary units")
    unit_k = unit_i * unit_j
    a = q.w
    b = _imag_dot(q, unit_i)
    c = _imag_dot(q, unit_j)
    d = _imag_dot(q, unit_k)
    return a + unit_i * b, c + unit_i * d


def qexp(q: Quaternion) -> Quaternion:
    """exp(q) = e^x (cos y + I sin y) in the slice of q."""
    s = q.to_slice()
    ex = math.exp(float(s.x))
    return ex * math.cos(s.y) + s.unit * (ex * math.sin(s.y))


# -- text format ---------------------------------------------------------
#
# Grammar: a sum of signed terms, each a decimal number, a unit i/j/k, or
# number directly followed by a unit; at most one term per unit and one
# real term.  Examples: "1", "-i", "2.5j", "1-2i+3k", "1e-3i".

_TERM = re.compile(r"([+-]?)((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?([ijk])?")


def parse_quaternion(text: str) -> Quaternion:
    s = "".join(text.split())
    if not s:
        raise ValueError("empty quaternion literal")
    seen: dict[str, float] = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        sign, number, unit = m.group(1), m.group(2), m.group(3)
        if number is None and unit is None:
            raise ValueError(
                f"bad quaternion literal {text!r}: expected a term at position {pos}")
        if pos > 0 and not sign:
            raise ValueError(
                f"bad quaternion literal {text!r}: missing '+' or '-' at position {pos}")
        key = unit or "w"
        if key in seen:
            what = f"unit '{unit}'" if unit else "real part"
            raise ValueError(f"bad quaternion literal {text!r}: repeated {what}")
        value = float(number) if number is not None else 1.0
        if not math.isfinite(value):
            raise ValueError(f"bad quaternion literal {text!r}: {number} is not finite")
        if sign == "-":
            value = -value
        seen[key] = value
        pos = m.end()
    return Quaternion(seen.get("w", 0.0), seen.get("i", 0.0),
                      seen.get("j", 0.0), seen.get("k", 0.0))


def format_quaternion(q: Quaternion) -> str:
    parts = []
    for value, unit in ((q.w, ""), (q.x, "i"), (q.y, "j"), (q.z, "k")):
        v = float(value)
        if v == 0:
            continue
        sign = "-" if v < 0 else ("+" if parts else "")
        mag = abs(v)
        num = repr(mag)
        if unit and mag == 1:
            num = ""
        parts.append(f"{sign}{num}{unit}")
    if not parts:
        return "0.0"
    return "".join(parts)
