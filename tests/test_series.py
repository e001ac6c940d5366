"""Star products, Hermite series forms, and series serialization."""
from fractions import Fraction

import numpy as np
import pytest

from spolyreg import (
    PolySliceSeries,
    RightPolySeries,
    SliceSeries,
    exp_star,
    extract_components,
    from_hermite_basis,
    hermite_op,
    hermite_quat,
    hermite_series,
    laguerre,
    laguerre_star,
    poly_monomial,
    qexp,
    qarray,
    quat,
    s_k_series,
    slice_monomial,
    to_hermite_basis,
)

I = quat(0, 1, 0, 0)
J = quat(0, 0, 1, 0)
K = quat(0, 0, 0, 1)
# exact unit perpendicular-ish with rational components, (3i+4j)/5
U = quat(0, Fraction(3, 5), Fraction(4, 5), 0)


def test_star_is_ordered_convolution():
    # (q i) star (q j) = q^2 (i j) = q^2 k, not q^2 (j i)
    f = SliceSeries((quat(0), I))
    g = SliceSeries((quat(0), J))
    h = f.star(g)
    assert h.coeffs == (quat(0), quat(0), K)


def test_star_noncommutative():
    f = SliceSeries((I,))
    g = SliceSeries((J,))
    assert f.star(g).coeffs == (K,)
    assert g.star(f).coeffs == (-K,)


def test_star_same_slice_evaluation_homomorphism():
    # with all coefficients in one slice, star evaluates to the pointwise product
    f = SliceSeries((quat(1), quat(0, 2, 0, 0), quat(-1)))
    g = SliceSeries((quat(0, -1, 0, 0), quat(3)))
    p = quat(0.4, 1.1, 0, 0)
    lhs = f.star(g).eval(p)
    rhs = f.eval(p) * g.eval(p)
    assert (lhs - rhs).norm() < 1e-13


def test_star_pow_matches_repeated_star():
    f = SliceSeries((quat(1), I, J))
    assert f.star_pow(3).coeffs == f.star(f).star(f).coeffs
    assert f.star_pow(0).coeffs == (quat(1),)


def test_hermite_series_matches_direct_eval():
    for m, n in ((0, 0), (2, 1), (3, 3), (5, 2)):
        f = hermite_series(m, n)
        assert f.level == n
        for q in (quat(0.3, -0.2, 0.5, 0.1), quat(1, 1, 0, 0)):
            direct = hermite_quat(m, n, q)
            assert (f.eval_left(q) - direct).norm() < 1e-11


def test_hermite_op_sign_on_monomials():
    # n-fold (d/ds - conj) applied to s^m lands on (-1)^n H_{m,n}
    for m, n in ((2, 1), (4, 2), (1, 3)):
        got = hermite_op(slice_monomial(m), n)
        want = hermite_series(m, n).scale(quat((-1) ** n))
        assert got.allclose(want, tol=0)


def test_extract_components_roundtrip():
    # f = sum_k qbar^k phi_k with slice-regular phi_k
    f = hermite_series(4, 2)
    comps = extract_components(f)
    assert len(comps) == 3
    total = poly_monomial(0, 0, quat(0))
    for k, phi in enumerate(comps):
        total = total + poly_monomial(k, 0, quat(1)).star(
            PolySliceSeries((tuple(phi.coeffs),)))
    q = quat(0.7, 0.2, -0.4, 0.3)
    assert (total.eval_left(q) - f.eval_left(q)).norm() < 1e-12


def test_hermite_basis_roundtrip_exact():
    f = hermite_series(3, 2).scale(quat(Fraction(2))) \
        + hermite_series(1, 1).scale(U) + hermite_series(0, 0)
    alpha = to_hermite_basis(f)
    assert alpha[(3, 2)] == quat(2)
    assert alpha[(1, 1)] == U
    g = from_hermite_basis(alpha)
    assert g.allclose(f, tol=0)


def test_conj_swaps_left_and_right_star():
    f = PolySliceSeries(((quat(1), I), (J, quat(2))))
    g = PolySliceSeries(((K, quat(0)), (quat(1), I)))
    lhs = f.star(g).conj()
    rhs = g.conj().star(f.conj())
    assert isinstance(lhs, RightPolySeries)
    assert lhs.coeffs == rhs.coeffs


def _frac_grid(seed, rows, cols):
    rng = np.random.default_rng(seed)
    return [[quat(*(Fraction(int(v), 7) for v in rng.integers(-9, 10, 4)))
             for _ in range(cols)] for _ in range(rows)]


def test_linear_maps_skip_zero_entries_and_stay_exact():
    # neg, scale and rmul map the nonzero entries only; on exact grids they equal the dense maps
    c = quat(Fraction(2, 3), Fraction(-1, 5), Fraction(3, 7), Fraction(1, 2))
    s = Fraction(-5, 3)
    for seed, (rows, cols) in enumerate(((1, 4), (3, 3), (5, 2))):
        grid = _frac_grid(seed, rows, cols)
        grid[0][0], grid[-1][0] = quat(0), quat(0)
        for f in (PolySliceSeries(grid), RightPolySeries(grid), SliceSeries(grid[0])):
            def dense(fn, f=f):
                return f._from_rows([[fn(v) for v in row] for row in f._rows])
            maps = ((-f, dense(lambda v: -v)), (f.scale(s), dense(lambda v: v * s)),
                    (f.rmul(c), dense(lambda v: v * c)))
            for got, want in maps:
                assert got == want
                assert all(isinstance(x, (int, Fraction))
                           for row in got._rows for v in row for x in v.as_tuple())
    H = hermite_series(10, 5)
    assert sum(v != quat(0) for row in H.coeffs for v in row) == 6


def test_right_form_value_is_left_coefficient_value():
    # c q^j qbar^k = c qbar^k q^j: one grid, the coefficient on the left
    q = quat(Fraction(1, 3), Fraction(-2, 5), Fraction(3, 4), Fraction(1, 2))
    for seed, (rows, cols) in enumerate(((1, 3), (3, 2), (4, 4))):
        grid = _frac_grid(seed, rows, cols)
        assert RightPolySeries(grid).eval(q) == PolySliceSeries(grid).eval_left(q)
        assert RightPolySeries(grid)(q) != PolySliceSeries(grid)(q)  # noncommuting c


def test_slice_star_is_level_zero_grid_star():
    c, d = _frac_grid(7, 1, 4)[0], _frac_grid(8, 1, 3)[0]
    got = SliceSeries(c).star(SliceSeries(d)).coeffs
    assert got == PolySliceSeries([c]).star(PolySliceSeries([d])).coeffs[0]
    assert SliceSeries(c).star(SliceSeries()).coeffs == ()


def test_slice_series_is_level_zero_grid():
    # each operation on sum_j q^j a_j is row 0 of the same operation on its one-row grid
    c, d = _frac_grid(11, 1, 4)[0], _frac_grid(12, 1, 3)[0]
    f, g, F, G = SliceSeries(c), SliceSeries(d), PolySliceSeries([c]), PolySliceSeries([d])
    s, u = Fraction(-5, 3), _frac_grid(13, 1, 1)[0][0]
    for got, want in ((f + g, F + G), (f - g, F - G), (f - f, F - F), (-f, -F),
                      (f.scale(s), F.scale(s)), (f.rmul(u), F.rmul(u)),
                      (f.star(g), F.star(G)), (f.star_pow(3), F.star(F).star(F)),
                      (f.deriv(2), F.d().d())):
        assert type(got) is SliceSeries
        assert got.coeffs == (want.coeffs[0] if want.coeffs else ())
    h, H = f + SliceSeries([quat(Fraction(1, 10 ** 9))]), F + PolySliceSeries([[quat(Fraction(1, 10 ** 9))]])
    assert f == SliceSeries(list(c)) and F == PolySliceSeries([list(c)])
    assert hash(f) == hash(SliceSeries(list(c))) and hash(F) == hash(PolySliceSeries([list(c)]))
    assert f != g and F != G and f != F
    for tol in (0, 1e-12, 1e-6):
        assert f.allclose(h, tol) == F.allclose(H, tol)
        assert f.allclose(f, tol) and F.allclose(F, tol)
    assert not f.allclose(h, 1e-12) and f.allclose(h, 1e-6)
    rng = np.random.default_rng(14)
    for p in _frac_grid(15, 1, 5)[0]:
        assert f.eval(p) == F.eval(p) and f(p) == F(p)
    pts = rng.uniform(-1.5, 1.5, size=(20, 4))
    assert np.array_equal(f.eval_many(pts), F.eval_many(pts))


def test_left_and_right_forms_never_equal():
    grid = _frac_grid(3, 2, 3)
    left, right = PolySliceSeries(grid), RightPolySeries(grid)
    assert left.coeffs == right.coeffs
    assert left != right and right != left
    assert left == PolySliceSeries(grid) and right == RightPolySeries(grid)


def test_s1_display():
    q = quat(Fraction(1, 2), Fraction(1, 4), 0, 0)
    s1 = s_k_series(1, q)
    h1 = (-q, quat(1))
    assert s1.coeffs[1] == h1
    assert s1.coeffs[0] == tuple(c * (-q.conj()) for c in h1)


def test_s1_same_slice_value():
    q = quat(0.5, 0, 1.25, 0)
    p = quat(-0.3, 0, 0.8, 0)  # same slice C_j
    v = s_k_series(1, q).eval_left(p)
    d = p - q
    assert (v - quat(d.norm_sq())).norm() < 1e-13


def test_laguerre_star_same_slice_reduction():
    pp = quat(2) + U
    qq = quat(1) + U * 2
    # |p - q|^2 = 1 + 1 = 2 exactly
    got = laguerre_star(2, 0, qq).eval_left(pp)
    want = quat(laguerre(2, 0, Fraction(2)))
    assert got == want


def test_exp_star_same_slice():
    q = quat(0.3, 0.9, 0, 0)
    p = quat(-0.5, 0.4, 0, 0)
    v = exp_star(q).eval_left(p)
    ref = qexp(p.conj() * q)
    assert (v - ref).norm() < 1e-12


def test_eval_left_vs_eval_off_slice():
    # left and plain substitution differ once coefficients leave the point's slice
    f = PolySliceSeries(((quat(0), J),))
    p = quat(0, 1, 0, 0)
    assert (f.eval_left(p) - J * p).norm() < 1e-15
    assert (f.eval(p) - p * J).norm() < 1e-15
    assert (f.eval_left(p) - f.eval(p)).norm() > 1.0


def test_dbar_lowers_level():
    f = hermite_series(3, 2)
    assert f.dbar().level <= 1
    g = PolySliceSeries(((quat(1), quat(2)),))
    assert g.dbar().allclose(PolySliceSeries(((quat(0),),)), tol=0)


def test_json_roundtrip():
    f = hermite_series(2, 2).scale(quat(0.5, -1.5, 2.0, 0.0))
    s = f.to_json()
    g = PolySliceSeries.from_json(s)
    assert g.allclose(f, tol=0)


def test_degree_and_level():
    f = hermite_series(4, 2)
    assert f.level == 2
    assert f.degree >= 4
    s = SliceSeries((quat(1), quat(0), quat(3)))
    assert s.degree == 2


def _scalar_values(f, pts):
    return np.array([f.eval(qarray.to_quaternion(p)).as_tuple() for p in pts], dtype=float)


@pytest.mark.parametrize("level,degree", [(0, 5), (3, 4), (6, 0)])
def test_eval_many_matches_scalar_eval(level, degree):
    rng = np.random.default_rng(10 * level + degree)
    pts = rng.uniform(-1.5, 1.5, size=(30, 4))
    pts[::7, 1:] = 0.0          # real points next to many slices
    rows = [[quat(*rng.standard_normal(4)) for _ in range(degree + 1)]
            for _ in range(level + 1)]
    for f in (PolySliceSeries(rows), SliceSeries(rows[0]),
              hermite_series(degree, level).rmul(U)):
        ref = _scalar_values(f, pts)
        got = f.eval_many(pts)
        assert got.shape == pts.shape
        assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert np.array_equal(PolySliceSeries().eval_many(pts), np.zeros(pts.shape))


def test_stacked_values_match_hermite_references():
    # one coefficient stack and one vander table, lifted by qarray.lift or
    # contracted on one common slice
    from spolyreg.series import coeff_stack, slice_values
    rng = np.random.default_rng(8)
    dirs = np.vstack([np.eye(3)[[0, 2]], rng.standard_normal((2, 3))])
    z = rng.uniform(-1.2, 1.2, size=(4, 5)) + 1j * rng.uniform(-1.2, 1.2, size=(4, 5))
    slices = qarray.from_slice(z, dirs[:, None, :] / np.linalg.norm(dirs, axis=1)[:, None, None])
    pts = np.vstack([slices.reshape(-1, 4), [[-0.9, 0, 0, 0], [0, 0, 0, 0], [1.1, 0, 0, 0]]])
    idx = [(j, k) for j in range(9) for k in range(9)]
    coeff = quat(0.3, -0.7, 0.4, 0.9)
    funcs = [hermite_series(j, k) for j, k in idx]
    zs, units = qarray.to_slice(pts)
    stack = funcs + [f.rmul(coeff) for f in funcs[1::10]]
    got = qarray.lift(slice_values(coeff_stack(stack), zs), units[:, None]).transpose(1, 0, 2)
    assert got.shape == (len(stack), len(pts), 4)
    # on one common slice the same values come straight from the pairs (c, U c)
    for i, d in enumerate(dirs):
        on_slice = slice_values(coeff_stack(stack), z[i], d / np.linalg.norm(d))
        assert np.max(np.abs(on_slice.transpose(1, 0, 2) - got[:, 5 * i:5 * i + 5])) < 1e-12 * max(
            1.0, np.max(np.abs(got)))
    for a, (j, k) in enumerate(idx):
        for p, v in zip(pts, got[a]):
            q = qarray.to_quaternion(p)
            for ref in (hermite_quat(j, k, q), funcs[a].eval(q)):
                assert np.max(np.abs(v - ref.as_tuple())) < 1e-12 * max(1.0, abs(ref))
    # general quaternion coefficients stacked with real ones, and eval_many
    for f, vals in zip(funcs[1::10], got[len(idx):]):
        ref = _scalar_values(f.rmul(coeff), pts)
        assert np.max(np.abs(vals - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(f.rmul(coeff).eval_many(pts) - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def _dense_stack(funcs):
    """coeff_stack as every entry written, zeros included."""
    level = max((f.level for f in funcs), default=-1)
    degree = max((f.degree for f in funcs), default=-1)
    c = np.zeros((level + 1, degree + 1, len(funcs), 4))
    for a, f in enumerate(funcs):
        for k, row in enumerate(f.coeffs):
            c[k, :len(row), a] = [v.as_tuple() for v in row]
    return c


def test_coeff_stack_is_the_dense_stack_to_the_bit():
    # the shared zero is skipped; int zeros that rmul keeps (from f + g), signed
    # float zeros and exact entries are written as the dense loop writes them
    from spolyreg import series
    rng = np.random.default_rng(4)
    exact = PolySliceSeries([[quat(Fraction(1, 3), 0, Fraction(-2, 7), 1), quat(0)],
                             [quat(0), quat(Fraction(5, 2))]])
    kept = (hermite_series(3, 2) + hermite_series(1, 2)).rmul(quat(0.5, -1.0, 0.25, 2.0))
    assert any(c == series._Z and c is not series._Z for row in kept.coeffs for c in row)
    signed = PolySliceSeries([[quat(-0.0, 0.0, -0.0, 0.0), quat(1.5, -2.0, 0.0, -0.0)],
                              [quat(0.0, -0.0, 0.0, 0.0), quat(-0.5)]])
    floats = PolySliceSeries([[quat(*rng.standard_normal(4)) for _ in range(4)] for _ in range(3)])
    funcs = [exact, hermite_series(3, 2) + hermite_series(1, 2), kept, signed, floats,
             hermite_series(4, 3), exact.rmul(quat(Fraction(1, 2), 0, 3, 0)), PolySliceSeries()]
    for stack in (funcs, funcs[::-1], funcs[1:2], []):
        got, want = series.coeff_stack(stack), _dense_stack(stack)
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
