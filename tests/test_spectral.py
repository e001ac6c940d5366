"""Slice operator: symbolic and finite-difference action, eigenfunctions, probe."""
import math
from fractions import Fraction

import numpy as np
import pytest

from spolyreg import (
    PolySliceSeries,
    RightPolySeries,
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
    q = quat(0.4, 0.3, -0.6, 0.2)
    for j, k in ((1, 1), (3, 2), (2, 4)):
        f = hermite_series(j, k)
        got = box_fd(f, q, h=1e-3, order=order)
        want = f.eval_left(q) * k
        tol = 1e-4 if order == 2 else 1e-7
        assert (got - want).norm() < tol * max(1.0, want.norm())


def test_box_fd_real_axis_branch():
    # on the real axis the unified form degenerates to -f'' + x f'
    f = hermite_series(2, 1)
    x = 0.7
    got = box_fd(f, quat(x), h=1e-3, order=4)
    # restriction to the axis is g(x) = x^3 - 2x, so -g'' + x g' = 3x^3 - 8x
    want = quat(3 * x ** 3 - 8 * x)
    assert (got - want).norm() < 1e-6


def test_box_fd_near_axis_guard():
    f = hermite_series(1, 1)
    with pytest.raises(ValueError, match="real axis"):
        box_fd(f, quat(0.5, 2e-3, 0, 0), h=1e-3, order=4)


def test_box_fd_annihilates_slice_regular_exp():
    class Exp:
        def eval_left(self, q):
            return qexp(q)

        def __call__(self, q):
            return qexp(q)

    v = box_fd(Exp(), quat(0.3, 0.8, 0.4, -0.2), h=1e-3, order=4)
    assert v.norm() < 1e-7


def test_spectral_config_validation():
    f = hermite_series(1, 1)
    with pytest.raises(ValueError, match="step must be positive"):
        box_fd(f, quat(0.5, 1, 0, 0), h=0.0)
    with pytest.raises(ValueError, match="central stencil order must be 2 or 4"):
        box_fd(f, quat(0.5, 1, 0, 0), order=3)


@pytest.mark.parametrize("h", [float("nan"), float("inf"), -float("inf")])
def test_box_fd_refuses_a_step_that_is_not_finite(h):
    # a NaN step read as a NaN value; an infinite one claimed the point was near the axis
    f = hermite_series(2, 1)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        box_fd(f, quat(0.4, 0.3, -0.6, 0.2), h=h)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        box_fd(f, np.array([[0.4, 0.3, -0.6, 0.2]]), h=h)


@pytest.mark.parametrize("q", [np.array([0.4, 0.3, -0.6, 0.2]), np.ones((3, 3))])
def test_box_fd_refuses_a_batch_that_is_not_n_by_4(q):
    # a (4,) row and an (N, 3) array are refused by shape, not read as points
    with pytest.raises(ValueError, match=r"expected an \(N, 4\) batch of quaternions, got shape"):
        box_fd(hermite_series(2, 1), q)


def _nonreal_rows(rng, n):
    """n points with components in [-0.85, 0.85] and |Im q| > 0.05 as an (n, 4) batch."""
    pts = rng.uniform(-0.85, 0.85, size=(4 * n, 4))
    return pts[np.linalg.norm(pts[:, 1:], axis=1) > 0.05][:n]


@pytest.mark.parametrize("order", [2, 4])
def test_box_fd_batch_rows_are_one_point_calls(order):
    rng = np.random.default_rng(11)
    pts = np.vstack([_nonreal_rows(rng, 12), [[0.7, 0.0, 0.0, 0.0]]])
    for j, k in ((1, 1), (3, 2), (2, 4), (6, 0)):
        f = hermite_series(j, k)
        got = box_fd(f, pts, h=1e-3, order=order)
        assert got.shape == pts.shape
        one = np.array([qarray.from_quaternion(box_fd(f, qarray.to_quaternion(p), h=1e-3,
                                                      order=order)) for p in pts])
        assert np.array_equal(got, one)


def test_box_fd_batch_matches_the_scalar_eigenvalue_reference():
    # order-4 bound of test_box_fd_matches_eigenvalue, against the scalar eval_left
    rng = np.random.default_rng(5)
    pts = _nonreal_rows(rng, 48)
    assert len(pts) == 48
    for j, k in ((0, 0), (1, 1), (3, 2), (2, 4), (0, 5), (4, 2)):
        f = hermite_series(j, k)
        got = box_fd(f, pts)
        for g, p in zip(got, pts):
            want = f.eval_left(qarray.to_quaternion(p)) * k
            assert np.linalg.norm(g - qarray.from_quaternion(want)) < 1e-7 * max(1.0, want.norm())
    # a real row in the batch reads the real form -g'' + x g' of g(x) = x^3 - 2x
    x = 0.7
    got = box_fd(hermite_series(2, 1), np.vstack([pts[:3], [[x, 0.0, 0.0, 0.0]]]))
    assert np.linalg.norm(got[3] - [3 * x ** 3 - 8 * x, 0.0, 0.0, 0.0]) < 1e-7


@pytest.mark.parametrize("h,order", [(1e-3, 4), (1e-3, 2), (2e-2, 4)])
def test_box_fd_slice_form_route_matches_the_values_on_route(h, order):
    # the same series read at complex stencil points with i for U, and read
    # as quaternion values at the lifted points; they differ by rounding of the
    # stencil values divided by h^2 (worst seen 3.8 eps max|f| / h^2), real rows included
    from types import SimpleNamespace
    eps = np.finfo(float).eps
    rng = np.random.default_rng(23)
    pts = np.vstack([_nonreal_rows(rng, 20), [[0.7, 0.0, 0.0, 0.0], [-0.3, 0.0, 0.0, 0.0]]])
    imag = np.linalg.norm(pts[:, 1:], axis=1)
    pts = pts[(imag == 0) | (imag > order * h)]
    assert np.sum(imag == 0) == 2
    for j, k in ((1, 1), (3, 2), (2, 4), (6, 0)):
        f = hermite_series(j, k).rmul(quat(*rng.standard_normal(4)))
        got = box_fd(f, pts, h=h, order=order)
        ref = box_fd(SimpleNamespace(eval_many=f.eval_many), pts, h=h, order=order)
        scale = np.max(np.abs(f.eval_many(pts)))
        assert np.max(np.abs(got - ref)) <= 16 * eps * scale / h ** 2


def test_box_fd_batch_refuses_a_near_axis_row_by_its_imaginary_part():
    pts = np.array([[0.4, 0.3, -0.6, 0.2], [0.5, 0.0, 2.5e-3, 0.0], [0.1, 0.9, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"real axis.*row 1 has \|Im q\| = 2\.500e-03"):
        box_fd(hermite_series(1, 1), pts, h=1e-3, order=4)


def _box_composed(f):
    """The slice operator as the composition -(dbar f).d() + (dbar f).mul_qbar()."""
    df = f.dbar()
    return -(df.d()) + df.mul_qbar()


def _random_grid(rng, rows, cols, exact):
    """A rows x cols grid with about a third of its cells zero."""
    def entry():
        if rng.random() < 0.35:
            return quat(0)
        if exact:
            return quat(*(Fraction(int(v), int(d)) for v, d in
                          zip(rng.integers(-9, 10, 4), rng.integers(1, 8, 4))))
        return quat(*rng.standard_normal(4))
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _bits(f):
    return [[tuple(float(v).hex() for v in c.as_tuple()) for c in row] for row in f.coeffs]


def test_box_symbolic_is_the_composition_on_random_grids():
    rng = np.random.default_rng(17)
    for rows, cols in ((1, 4), (2, 1), (3, 3), (5, 4), (6, 8), (8, 3)):
        exact = PolySliceSeries(_random_grid(rng, rows, cols, exact=True))
        assert box_symbolic(exact) == _box_composed(exact)
        floats = PolySliceSeries(_random_grid(rng, rows, cols, exact=False))
        got, want = box_symbolic(floats), _box_composed(floats)
        assert got == want and _bits(got) == _bits(want)
    for j, k in ((0, 0), (4, 2), (10, 5), (12, 6)):
        f = hermite_series(j, k).rmul(quat(0.3, -1.1, 0.7, 2.0))
        assert _bits(box_symbolic(f)) == _bits(_box_composed(f))


def test_box_symbolic_refuses_the_right_form():
    # reading the grid as left form would give a plausible wrong series
    with pytest.raises(TypeError, match="PolySliceSeries"):
        box_symbolic(RightPolySeries([[quat(1), quat(0, 1, 0, 0)], [quat(2)]]))


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


def test_psi_norm_sq_has_a_norm_where_eigenfunction_has_a_level():
    # psi_{n,j} is polynomial, with a closed-form norm, in any numeric type of n
    for n in (2, 2.0, np.int64(2), quat(2)):
        assert Eigenfunction(n, 1).level == 2
        assert psi_norm_sq(n, 1) == psi_norm_sq(2, 1)
    # elsewhere it has no norm, and the refusal says so without claiming psi vanishes
    assert psi(2, -3, quat(0.5, 0.7)).norm() > 0.5
    for n, j in ((2, -3), (-1, 0), (2.5, 0), (quat(2, 0.5), 1), (2, 1.5)):
        assert Eigenfunction(n, j).level is None
        with pytest.raises(ValueError, match="is not a polynomial eigenfunction"):
            psi_norm_sq(n, j)


@pytest.mark.parametrize("n,j", [(1, 0), (2, 2), (2, -1)])
def test_psi_norm_matches_quadrature(n, j):
    num = norm_sq_full(Eigenfunction(n, j), n_slice=40)
    assert num == pytest.approx(psi_norm_sq(n, j), rel=1e-10)


def test_full_pairings_refuse_psi_past_the_slice_rule():
    # psi_{n,j} has level n and degree n + j, so |psi|^2 has degree 2(2n + j)
    from spolyreg import QuadratureDegreeError, inner_full
    f = Eigenfunction(3, -2)
    assert (f.level, f.degree) == (3, 1)
    for n in (40, 40.0, np.int64(40), quat(40)):
        with pytest.raises(QuadratureDegreeError,
                           match="exact only through degree 79, integrand has degree 160"):
            norm_sq_full(Eigenfunction(n, 0), n_slice=40)
    with pytest.raises(QuadratureDegreeError, match="integrand has degree 40"):
        inner_full(Eigenfunction(10, 0), Eigenfunction(10, 0), n_slice=20)
    # a psi whose series does not terminate has no degree to check
    for g in (Eigenfunction(quat(2, 0.5, 0, 0), 1), Eigenfunction(2.5, 0), Eigenfunction(2, -3)):
        assert g.level is None and g.degree is None


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


@pytest.mark.parametrize("mu,j", [(0.5, 0), (2.5, 1), (3.7, -1), (1.25, 2)])
def test_spectrum_probe_reads_psi(mu, j):
    # the probe's masses are those of the public psi on its own 16 x 24
    # Gauss-Legendre nodes: one Kummer stop serves both
    from spolyreg import gauss_legendre
    edges = np.linspace(0.0, 8.0, 17)
    rules = [gauss_legendre(24, float(lo), float(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    r = np.array([rule.nodes for rule in rules])
    decayed = psi(mu, j, qarray.from_slice(r, np.zeros(3))) * np.exp(-r * r / 2)[..., None]
    masses = np.sum(np.array([rule.weights for rule in rules]) * r * qarray.norm_sq(decayed),
                    axis=1)
    assert np.array_equal(masses, spectrum_probe(mu, j).annulus_masses)


def test_psi_past_the_old_term_cap():
    # M(-1/2; 1 | 196) needs more than 500 terms; 40-digit reference value
    got = psi(0.5, 0, quat(14.0)).w
    assert got == pytest.approx(-1.376470152341862324e81, rel=1e-14)


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


def test_spectrum_probe_refuses_radii_below_its_domain():
    # below r_max^2 = 5 Re mu + 6 + 2|j| the verdict can be wrong: mu = 1.5 at
    # r_max = 2 read converged, and the eigenvalue mu = 20 at r_max = 8 did not
    for mu, j, r_max in ((1.5, 0, 2.0), (20.0, 0, 8.0), (quat(2, 0.5, 0, 0), -3, 4.5)):
        with pytest.raises(ValueError, match=r"5 Re mu \+ 6 \+ 2\|j\|"):
            spectrum_probe(mu, j, r_max=r_max)
    assert spectrum_probe(20.0, 0, r_max=math.sqrt(106.0)).converged
    assert not spectrum_probe(1.5, 0, r_max=math.sqrt(13.5)).converged
