"""Scalar special functions against scipy oracles and frozen pinned values."""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_hermite, hyp1f1

from spolyreg import (
    KummerConvergenceError,
    Quaternion,
    hermite_H,
    hermite_fn,
    hermite_quat,
    kummer_M,
    laguerre,
    pochhammer,
    qarray,
    quat,
)
from spolyreg import poly

XS = np.linspace(-3.0, 3.0, 13)


@pytest.mark.parametrize("j", range(0, 11))
def test_hermite_line_matches_scipy(j):
    ours = np.array([hermite_H(j, x) for x in XS])
    ref = eval_hermite(j, XS)
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.max(np.abs(ours - ref) / scale) < 1e-12


def test_hermite_fn_is_unnormalized_weighted():
    # e^{-t^2/2} H_j(t), no 1/sqrt(2^j j! sqrt(pi)) factor
    for j in (0, 1, 4):
        for t in (0.0, 0.7, -1.3):
            assert hermite_fn(j, t) == pytest.approx(
                math.exp(-t * t / 2) * eval_hermite(j, np.array([t]))[0], rel=1e-12)


@pytest.mark.parametrize("n,gamma", [(0, 0), (1, 0), (3, 0), (5, 1), (4, 2), (6, 3)])
def test_laguerre_matches_scipy(n, gamma):
    ours = np.array([laguerre(n, gamma, x) for x in XS + 3.5])
    ref = eval_genlaguerre(n, gamma, XS + 3.5)
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.max(np.abs(ours - ref) / scale) < 1e-11


def test_laguerre_exact_rational():
    # L_2^{(0)}(x) = 1 - 2x + x^2/2 at x = 1/3
    v = laguerre(2, 0, Fraction(1, 3))
    assert v == 1 - Fraction(2, 3) + Fraction(1, 18)
    assert isinstance(v, Fraction)


def test_pochhammer():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(1, 5) == math.factorial(5)
    assert pochhammer(-2, 3) == 0  # terminates
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(5, 0) == 1


def test_kummer_matches_scipy():
    for a, c in ((0.5, 1.5), (2.0, 3.0), (-1.5, 2.5)):
        for x in (0.0, 0.3, 2.0, 5.0):
            assert kummer_M(a, c, x) == pytest.approx(hyp1f1(a, c, x), rel=1e-10)


def test_kummer_terminates_for_nonpositive_integer_a():
    # M(-n; c | x) is a degree-n polynomial, exact in rationals
    v = kummer_M(-2, 3, Fraction(1, 2))
    assert v == 1 - Fraction(2, 3) * Fraction(1, 2) + \
        Fraction(pochhammer(-2, 2), pochhammer(3, 2)) * Fraction(1, 8)
    # a real Quaternion a takes the same exact path
    assert kummer_M(quat(-2), 3, Fraction(1, 2)) == quat(v)


def test_kummer_truncation_policy():
    # M(1/2; 3/2 | 600) reaches KUMMER_TERMS with finite terms still far above KUMMER_TOL
    with pytest.raises(KummerConvergenceError) as info:
        kummer_M(0.5, 1.5, 600.0)
    assert info.value.terms_used == poly.KUMMER_TERMS
    assert math.isfinite(info.value.last_term) and info.value.last_term >= poly.KUMMER_TOL
    assert issubclass(KummerConvergenceError, RuntimeError)


def test_kummer_quaternion_argument():
    a = quat(0, 0.5, 0, 0)
    v = kummer_M(a, 2.0, 0.7)
    # complex reference series for M(i/2; 2 | 0.7)
    ref, term = 1.0 + 0j, 1.0 + 0j
    for k in range(60):
        term *= (0.5j + k) / (2.0 + k) * 0.7 / (k + 1)
        ref += term
    assert v.w == pytest.approx(ref.real, abs=1e-12)
    assert v.x == pytest.approx(ref.imag, abs=1e-12)


def test_kummer_array_entries_match_scalar_calls():
    # each entry stops at its own first term below abs_tol, so it equals its
    # scalar call exactly, for real and for Quaternion a
    x = np.array([0.0, 0.3, 2.0, 5.0, 12.0, 30.0])
    for a in (0.5, -1.5, -3, quat(0.5, 0.25, -0.5, 0.1), quat(-2.5), quat(-0.3, 0, 0, 2)):
        got = kummer_M(a, 1.5, x)
        assert got.shape == (x.shape + (4,) if isinstance(a, Quaternion) else x.shape)
        for xi, entry in zip(x, got):
            one = kummer_M(a, 1.5, float(xi))
            assert np.array_equal(entry, qarray.from_quaternion(one)
                                  if isinstance(a, Quaternion) else one), (a, xi)
    grid = kummer_M(quat(0.5, 0.25, -0.5, 0.1), 1.5, x.reshape(2, 3))
    assert np.array_equal(grid, kummer_M(quat(0.5, 0.25, -0.5, 0.1), 1.5, x).reshape(2, 3, 4))


def test_kummer_refuses_overflowed_series():
    # M(-1/2; 1 | 900) ~ e^900 leaves double range long before max_terms; the
    # Quaternion route used to return nan, the real one to run on to max_terms
    for a in (-0.5, quat(-0.5), quat(-0.5, 0.25, 0, 0)):
        for x in (900.0, np.array([0.5, 900.0])):
            with pytest.raises(KummerConvergenceError) as info:
                kummer_M(a, 1, x)
            assert not math.isfinite(info.value.last_term)
            assert info.value.terms_used < poly.KUMMER_TERMS
    # a terminating series that overflows is refused too
    with pytest.raises(KummerConvergenceError):
        kummer_M(-300, 1, 1e6)


def test_kummer_error_names_its_cause():
    # a term that is not finite is worded apart from running out of terms
    with pytest.raises(KummerConvergenceError) as info:
        kummer_M(-300, 1, 1e6)
    assert str(info.value) == ("Kummer series not converged: term 54 is not finite "
                               "(modulus inf), so the sum leaves double range")
    assert (info.value.terms_used, info.value.last_term) == (54, math.inf)
    with pytest.raises(KummerConvergenceError) as info:
        kummer_M(0.5, 1.5, 600.0)
    assert str(info.value) == ("Kummer series not converged after 800 terms "
                               "(last term modulus 2.689e+242)")
    assert info.value.terms_used == 800 and math.isfinite(info.value.last_term)


def test_hermite_quat_frozen_values():
    q = quat(1, 1, 0, 0)
    # H_{1,1} = |q|^2 - 1, H_{2,1} = qbar q^2 - 2 q
    assert hermite_quat(1, 1, q) == quat(1)
    hv = hermite_quat(2, 1, q)
    ref = q.conj() * q * q - quat(2) * q
    assert (hv - ref).norm() < 1e-14
    assert hermite_quat(0, 0, q) == quat(1)
    assert hermite_quat(3, 0, q) == q * q * q


def test_hermite_quat_conj_symmetry():
    # powers of q and qbar commute pointwise, so conj swaps the bidegree
    q = quat(0.3, -0.8, 0.4, 0.1)
    for m, n in ((2, 1), (3, 2), (4, 0)):
        a = hermite_quat(m, n, q).conj()
        b = hermite_quat(n, m, q)
        assert (a - b).norm() < 1e-12


def test_hermite_quat_recurrence():
    q = quat(0.2, 0.5, -0.3, 0.7)
    for m, n in ((1, 1), (2, 2), (3, 1)):
        lhs = hermite_quat(m + 1, n, q)
        rhs = q * hermite_quat(m, n, q) - quat(n) * hermite_quat(m, n - 1, q)
        assert (lhs - rhs).norm() < 1e-12


def test_hermite_quat_exact_mode():
    q = quat(Fraction(1, 2), Fraction(1, 3), 0, 0)
    v = hermite_quat(1, 1, q)
    assert v.w == Fraction(1, 4) + Fraction(1, 9) - 1
    assert isinstance(v.w, Fraction)


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        hermite_quat(31, 0, quat(1))
    with pytest.raises(ValueError):
        hermite_H(40, 0.5)
    with pytest.raises(ValueError):
        laguerre(35, 0, 1.0)


def _kummer_loop(a, c, x):
    """The reference summation loop: each term multiplied by the live mask at
    every step, finiteness read from np.all and the stop from np.any."""
    n_term = None if isinstance(a, complex) else poly._as_nonpositive_int(a)
    stop = poly.KUMMER_TERMS if n_term is None else n_term
    total = term = x * 0 + 1
    live = True
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(stop):
            term = term * (a + j) * (x / ((c + j) * (j + 1))) * live
            total = total + term
            mag = abs(term)
            if not np.all(mag < math.inf):
                raise KummerConvergenceError(j + 1, float(np.max(mag)))
            if n_term is None:
                live = mag >= poly.KUMMER_TOL
                if not np.any(live):
                    return total
    if n_term is None:
        raise KummerConvergenceError(stop, float(np.max(mag)))
    return total


def _kummer_reference(a, c, x):
    """The loop above behind kummer_M's Quaternion lift, which is unchanged."""
    if not isinstance(a, Quaternion):
        return _kummer_loop(a, c, x)
    s = a.to_slice()
    if s.y == 0 and not isinstance(x, np.ndarray):
        return quat(_kummer_loop(a.w, c, x))
    xs = np.asarray(x, dtype=float)
    m = _kummer_loop(complex(s.x, s.y) if s.y else s.x, c, xs.reshape(-1))
    out = qarray.from_slice(m.reshape(xs.shape), qarray.from_quaternion(s.unit)[1:])
    return out if isinstance(x, np.ndarray) else qarray.to_quaternion(out)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except KummerConvergenceError as exc:
        return None, (exc.terms_used, repr(exc.last_term), str(exc))    # repr: a NaN equals itself


def test_kummer_loop_matches_the_reference_loop_to_the_bit():
    # values and refusals (terms_used, last_term, message) of the reference loop,
    # which multiplies by the live mask at every step, for every argument kind
    rng = np.random.default_rng(9)
    grid = rng.uniform(0.0, 40.0, size=(16, 24))
    grid[0, :3] = (0.0, 1e-3, 60.0)        # entries that stop at once, early and late
    xs = [grid, grid[3], np.array([0.5, 900.0]), np.array([]), 2.5, 0.0, np.float64(7.25),
          Fraction(3, 4), 600.0, 900.0, 1e6]
    params = [(-2.5, 1), (complex(-2.5, 0.7), 1.5), (0.5, 1.5), (-3, 2), (-300, 1), (-0.5, 1),
              (quat(0.5, 0.25, -0.5, 0.1), 1.5), (quat(-2.5), 2), (quat(-2), 3), (Fraction(-3), 1)]
    refused = complex_inf = 0
    for a, c in params:
        for x in xs:
            if isinstance(x, Fraction) and isinstance(a, (complex, Quaternion)) and a != quat(-2):
                continue                        # a Fraction x takes only the real and exact paths
            (got, err), (want, want_err) = _outcome(kummer_M, a, c, x), _outcome(_kummer_reference, a, c, x)
            if err and want_err and want_err[1] == "nan" and err[1] == "inf":
                # a complex term past double range: the reference loop's multiply by an
                # all-True mask read inf * 0 = nan into its modulus
                assert isinstance(a, complex) or a.imag_norm() > 0
                assert err[0] == want_err[0] and err[2] == want_err[2].replace("nan", "inf")
                complex_inf += 1
            else:
                assert err == want_err, (a, c, x)
            refused += err is not None
            if err is None:
                assert type(got) is type(want), (a, c, x)
                if isinstance(got, np.ndarray):
                    assert got.dtype == want.dtype and np.array_equal(got, want), (a, c, x)
                else:
                    assert got == want or (got != got and want != want), (a, c, x)
    assert refused > complex_inf > 0
