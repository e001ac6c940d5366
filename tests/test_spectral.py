"""Slice operator: symbolic and finite-difference action, eigenfunctions, probe."""
import math
from fractions import Fraction

import numpy as np
import pytest

from spolyreg import (
    SpectralConfig,
    box_fd,
    box_symbolic,
    expand_eigen,
    hermite_quat,
    hermite_series,
    norm_sq_full,
    pochhammer,
    psi,
    psi_norm_sq,
    qarray,
    qexp,
    quat,
    spectrum_probe,
)
from spolyreg.spectral import Eigenfunction

PI2 = math.pi ** 2


@pytest.mark.parametrize("j,k", [(0, 0), (1, 0), (0, 3), (4, 2), (7, 5), (10, 5)])
def test_box_eigenrelation_exact(j, k):
    f = hermite_series(j, k)
    lhs = box_symbolic(f)
    rhs = f.scale(quat(k))
    assert lhs.allclose(rhs, tol=0)


def test_box_kills_slice_regular():
    # level-0 series have no qbar part, so box sends them to zero
    f = hermite_series(5, 0)
    out = box_symbolic(f)
    assert out.allclose(f.scale(quat(0)), tol=0)


@pytest.mark.parametrize("order", [2, 4])
def test_box_fd_matches_eigenvalue(order):
    cfg = SpectralConfig(h=1e-3, order=order)
    q = quat(0.4, 0.3, -0.6, 0.2)
    for j, k in ((1, 1), (3, 2), (2, 4)):
        f = hermite_series(j, k)
        got = box_fd(f, q, cfg)
        want = f.eval_left(q) * k
        tol = 1e-4 if order == 2 else 1e-7
        assert (got - want).norm() < tol * max(1.0, want.norm())


def test_box_fd_real_axis_branch():
    # on the real axis the unified form degenerates to -f'' + x f'
    cfg = SpectralConfig(h=1e-3, order=4)
    f = hermite_series(2, 1)
    x = 0.7
    got = box_fd(f, quat(x), cfg)
    # restriction to the axis is g(x) = x^3 - 2x, so -g'' + x g' = 3x^3 - 8x
    want = quat(3 * x ** 3 - 8 * x)
    assert (got - want).norm() < 1e-6


def test_box_fd_near_axis_guard():
    cfg = SpectralConfig(h=1e-3, order=4)
    f = hermite_series(1, 1)
    with pytest.raises(ValueError, match="real axis"):
        box_fd(f, quat(0.5, 2e-3, 0, 0), cfg)


def test_box_fd_annihilates_slice_regular_exp():
    cfg = SpectralConfig(h=1e-3, order=4)

    class Exp:
        def eval_left(self, q):
            return qexp(q)

        def __call__(self, q):
            return qexp(q)

    v = box_fd(Exp(), quat(0.3, 0.8, 0.4, -0.2), cfg)
    assert v.norm() < 1e-7


def test_spectral_config_validation():
    with pytest.raises(ValueError):
        SpectralConfig(h=0.0)
    with pytest.raises(ValueError):
        SpectralConfig(order=3)


def test_psi_closed_values():
    q = quat(0.5, 0.5, 0.5, 0.5)  # |q|^2 = 1
    assert psi(0, 0, q) == quat(1)
    v = psi(1, 0, q)
    assert abs(v.w - (1 - 1.0)) < 1e-14
    # psi_{mu,j} for j >= 0 starts with q^j
    v = psi(0, 2, q)
    assert (v - q * q).norm() < 1e-14


def _sample_points(seed):
    """25 points in [-1.5, 1.5]^4, every sixth one real, then q = 0."""
    pts = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(25, 4))
    pts[::6, 1:] = 0.0
    return np.vstack([pts, np.zeros((1, 4))])


@pytest.mark.parametrize("n,j", [(0, 0), (1, 0), (2, 1), (1, 3), (2, -1), (3, -2)])
def test_psi_is_scaled_hermite(n, j):
    q = quat(0.3, -0.6, 0.2, 0.5)
    got = psi(n, j, q)
    kappa = quat(_kappa(n, j))
    ref = hermite_quat(n + j, n, q) * kappa
    assert (got - quat(ref)).norm() < 1e-12
    # the batch route against the same closed sum
    pts = _sample_points(n + 7)
    for row, p in zip(psi(n, j, pts), pts):
        ref = qarray.from_quaternion(hermite_quat(n + j, n, qarray.to_quaternion(p)) * kappa)
        assert np.max(np.abs(row - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_psi_quaternion_mu():
    mu = quat(0.5, 0.25, 0, 0)
    v = psi(mu, 1, quat(0.4, 0.2, -0.1, 0.3))
    assert v.norm() > 0  # converged truncated Kummer evaluation


@pytest.mark.parametrize("j", [-2, 0, 3])
def test_psi_quaternion_mu_matches_pochhammer_series(j):
    # psi = base^|j| M(a; |j|+1 | |q|^2) with the Kummer series summed here in
    # Quaternion arithmetic from (a)_k: no slice-complex step
    pts = _sample_points(11)
    for mu in (quat(0.5, 0.25, 0, 0), quat(1.5, 0.25, -0.5, 0.1), quat(-0.3, 0, 0, 2.0)):
        a = -mu if j >= 0 else -(mu + j)
        coef = [pochhammer(a, k) / (pochhammer(abs(j) + 1, k) * math.factorial(k))
                for k in range(90)]
        got = psi(mu, j, pts)
        for row, p in zip(got, pts):
            q = qarray.to_quaternion(p)
            t = float(q.norm_sq())
            m = quat(0)
            for k, ck in enumerate(coef):
                m = m + ck * t ** k
            ref = qarray.from_quaternion((q.conj() if j < 0 else q) ** abs(j) * m)
            assert np.max(np.abs(row - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_psi_norm_sq_values():
    assert psi_norm_sq(0, 0) == pytest.approx(4 * PI2, rel=1e-15)
    assert psi_norm_sq(1, 1) == pytest.approx(2 * PI2, rel=1e-15)
    # negative order: 4 pi^2 (n+j)! (|j|!)^2 / n!
    assert psi_norm_sq(2, -1) == pytest.approx(2 * PI2, rel=1e-15)
    assert psi_norm_sq(3, -2) == pytest.approx(4 * PI2 * 1 * 4 / 6, rel=1e-15)


def test_psi_norm_sq_rejects_bad_orders():
    with pytest.raises(ValueError):
        psi_norm_sq(2, -3)  # below the admissible range
    with pytest.raises(ValueError):
        psi_norm_sq(-1, 0)


@pytest.mark.parametrize("n,j", [(1, 0), (2, 2), (2, -1)])
def test_psi_norm_matches_quadrature(n, j):
    num = norm_sq_full(Eigenfunction(n, j), n_slice=40)
    assert num == pytest.approx(psi_norm_sq(n, j), rel=1e-10)


def test_expand_eigen_roundtrip():
    n = 2
    c = {0: quat(2, -1, 0, 3), 1: quat(0.5), -2: quat(0, 1, 1, 0)}
    f = None
    for j, coef in c.items():
        term = hermite_series(n + j, n).rmul(_kappa(n, j)).rmul(coef)
        f = term if f is None else f + term
    exp = expand_eigen(f)
    assert exp.level == n
    assert set(exp.coeffs) == set(c)
    for j, coef in c.items():
        assert (quat(exp.coeffs[j]) - coef).norm() < 1e-12
    growth_ref = sum(psi_norm_sq(n, j) * float(coef.norm_sq())
                     for j, coef in c.items())
    assert exp.growth == pytest.approx(growth_ref, rel=1e-12)


def _kappa(n, j):
    if j >= 0:
        return quat((-1) ** n * Fraction(math.factorial(j), math.factorial(n + j)))
    return quat((-1) ** (n + j) * Fraction(math.factorial(-j), math.factorial(n)))


def test_expand_eigen_rejects_mixed_levels():
    f = hermite_series(3, 1) + hermite_series(2, 2)
    with pytest.raises(ValueError):
        expand_eigen(f)


def test_spectrum_probe_flags():
    for mu in (0, 1, 2, 3):
        assert spectrum_probe(float(mu), 0).converged
    for mu in (0.5, 1.5, math.pi):
        assert not spectrum_probe(mu, 0).converged
    # nonzero orders behave the same way
    assert spectrum_probe(2.0, 3).converged
    assert spectrum_probe(2.0, -1).converged
    assert not spectrum_probe(2.5, 1).converged


def test_spectrum_probe_refuses_masses_outside_double_range():
    # past r_max = 27 the e^(-r^2) weight underflows: the far annulus masses
    # of an integer mu are 0, and 0/0 must not read as divergence
    for r_max in (32.0, 40.0):
        with pytest.raises(ValueError, match=f"r_max = {r_max:g}"):
            spectrum_probe(2.0, 0, r_max=r_max)
    assert spectrum_probe(2.0, 0, r_max=27.0, windows=1000).converged
    # a last mass of 0 divides nothing: 0/x still reads as decay
    pr = spectrum_probe(2.0, 0, r_max=30.0)
    assert pr.converged and pr.annulus_masses[-1] == 0.0
    assert not spectrum_probe(2.5, 0, r_max=16.0).converged
    assert not spectrum_probe(quat(2, 0.5, 0, 0), 0).converged


def test_box_on_hermite_image_of_slice_regular():
    # for any slice-regular F, the n-fold ladder image is a level-n eigenvector
    from spolyreg import SliceSeries, hermite_op
    F = SliceSeries((quat(1, 2, 0, 0), quat(0, 0, 1, 0), quat(-1),
                     quat(0, 0, 0, 2), quat(3, 0, 0, 1)))
    for n in (1, 2, 3):
        g = hermite_op(F, n)
        assert box_symbolic(g).allclose(g.scale(quat(n)), tol=0)


def test_psi_family_orthogonal_in_full_pairing():
    from spolyreg import inner_full
    n = 1
    for ja, jb in ((0, 1), (1, 2), (-1, 0), (-1, 2)):
        v = inner_full(Eigenfunction(n, ja), Eigenfunction(n, jb), n_slice=40)
        assert v.norm() < 1e-9


def test_level_zero_full_norm_is_scaled_slice_norm():
    from spolyreg import SliceQuadrature, norm_sq_slice
    f = hermite_series(3, 0) + hermite_series(1, 0).scale(quat(2))
    full = norm_sq_full(f, n_slice=40)
    on_slice = norm_sq_slice(f, SliceQuadrature(40))
    assert full == pytest.approx(4 * math.pi * on_slice, rel=1e-12)


def test_spectrum_probe_report():
    pr = spectrum_probe(1.0, 1, r_max=6.0, windows=12)
    d = pr.to_dict()
    assert d["schema"] == 1
    assert d["j"] == 1 and d["converged"] is True
    assert len(d["annulus_masses"]) == 12
    assert len(d["tail_ratios"]) == 11
    # masses of a square-integrable profile decay in the far window
    assert d["annulus_masses"][-1] < d["annulus_masses"][0]


@pytest.mark.parametrize("n,j", [(0, 0), (2, 3), (3, -2), (1, -1)])
def test_psi_batch_matches_psi(n, j):
    # each row of a batch equals its one-point call exactly, for integer,
    # non-integer and quaternion mu, on real points and at q = 0
    pts = _sample_points(n + 7)
    for mu in (n, n + 0.5, quat(n + 0.5, 0.25, -0.5, 0.1)):
        got = psi(mu, j, pts)
        assert got.shape == pts.shape
        for row, p in zip(got, pts):
            one = qarray.from_quaternion(psi(mu, j, qarray.to_quaternion(p)))
            assert np.array_equal(row, one), (mu, p)
