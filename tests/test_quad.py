"""Quadrature rules and Gaussian inner products."""
import math

import numpy as np
import pytest

from spolyreg import (
    HermiteLine,
    PolySliceSeries,
    QuadratureDegreeError,
    SliceQuadrature,
    gauss_hermite,
    gauss_legendre,
    gram_slice,
    hermite_series,
    inner_full,
    inner_real,
    inner_slice,
    norm_sq_full,
    norm_sq_slice,
    quat,
)
from spolyreg import qarray, quad
from spolyreg.series import coeff_stack, slice_values

J_UNIT = quat(0, 0, 1, 0)


def test_gauss_hermite_total_mass():
    rule = gauss_hermite(20)
    assert np.sum(rule.weights) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gauss_hermite_moments_exact_to_degree():
    # E[t^{2m}] under e^{-t^2}: sqrt(pi) (2m-1)!! / 2^m, exact while 2m <= 2n-1
    rule = gauss_hermite(8)
    for m in (1, 3, 7):
        moment = float(np.sum(rule.weights * rule.nodes ** (2 * m)))
        ref = math.sqrt(math.pi) * math.prod(range(1, 2 * m, 2)) / 2.0 ** m
        assert moment == pytest.approx(ref, rel=1e-12)


def test_gauss_legendre_interval():
    rule = gauss_legendre(6, 0.0, 1.0)
    val = float(np.sum(rule.weights * rule.nodes ** 3))
    assert val == pytest.approx(0.25, rel=1e-14)


def test_slice_unit_mass():
    Q = SliceQuadrature(20)
    one = hermite_series(0, 0)
    v = inner_slice(one, one, Q)
    assert v.w == pytest.approx(math.pi, rel=1e-13)
    assert v.imag_norm() < 1e-13


@pytest.mark.parametrize("unit", [quat(0, 1, 0, 0), J_UNIT, quat(0, 0.6, 0.8, 0)])
def test_hermite_slice_orthogonality(unit):
    Q = SliceQuadrature(24, unit=unit)
    pairs = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)]
    for m, n in pairs:
        for j, k in pairs:
            v = inner_slice(hermite_series(m, n), hermite_series(j, k), Q)
            if (m, n) == (j, k):
                ref = math.pi * math.factorial(m) * math.factorial(n)
                assert v.w == pytest.approx(ref, rel=1e-11)
                assert v.imag_norm() < 1e-9 * ref
            else:
                assert v.norm() < 1e-9


def test_gram_slice_shape_and_diagonal():
    Q = SliceQuadrature(20)
    funcs = [hermite_series(j, 0) for j in range(4)]
    G = gram_slice(funcs, Q)
    assert G.shape == (4, 4, 4)
    for j in range(4):
        assert G[j, j, 0] == pytest.approx(math.pi * math.factorial(j), rel=1e-11)


def test_degree_guard():
    Q = SliceQuadrature(3)  # exact only through degree 5
    f = hermite_series(4, 2)
    with pytest.raises(QuadratureDegreeError):
        inner_slice(f, f, Q)
    with pytest.raises(QuadratureDegreeError):
        norm_sq_slice(f, Q)
    with pytest.raises(QuadratureDegreeError):
        gram_slice([hermite_series(0, 0), f], Q)
    with pytest.raises(QuadratureDegreeError):
        gram_slice(coeff_stack([hermite_series(0, 0), f]), Q)
    with pytest.raises(QuadratureDegreeError):
        norm_sq_slice(coeff_stack([hermite_series(0, 0), f]), Q)
    # inner_slice checks the pair's summed degree, 4 + 0 here
    assert inner_slice(hermite_series(4, 0), hermite_series(0, 0), Q).norm() < 1e-12
    # each function is checked as itself, not as the stack's level + degree
    assert gram_slice(coeff_stack([hermite_series(2, 0), hermite_series(0, 2)]), Q).shape == (2, 2, 4)
    assert issubclass(QuadratureDegreeError, ValueError)


def test_gram_slice_empty():
    assert gram_slice([], SliceQuadrature(4)).shape == (0, 0, 4)


@pytest.mark.parametrize("r,s", [(3, 5), (0, 2)])
def test_gram_matches_pairwise_products(r, s):
    rng = np.random.default_rng(r + 10 * s)
    a = rng.standard_normal((r, 30, 4))
    b = rng.standard_normal((s, 30, 4))
    w = rng.uniform(size=30)
    ref = np.zeros((r, s, 4))
    for i in range(r):
        for j in range(s):
            ref[i, j] = qarray.qmul(qarray.qconj(a[i]), b[j]).T @ w
    G = qarray.gram(a, b, w)
    assert G.shape == (r, s, 4)
    assert np.max(np.abs(G - ref), initial=0.0) < 1e-13


def test_inner_real_gaussian_weight_compensation():
    # h_0 = e^{-t^2/2}, so <h_0, h_0> on the line is sqrt(pi)
    rule = gauss_hermite(40)
    v = inner_real(HermiteLine(0), HermiteLine(0), rule)
    assert v.w == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    # <h_j, h_j> = 2^j j! sqrt(pi)
    v3 = inner_real(HermiteLine(3), HermiteLine(3), rule)
    assert v3.w == pytest.approx(8 * 6 * math.sqrt(math.pi), rel=1e-12)
    v01 = inner_real(HermiteLine(0), HermiteLine(1), rule)
    assert v01.norm() < 1e-12


def _sphere_rule(order):
    """Product rule on the unit sphere of imaginary units, the oracle's sphere
    of slices: Gauss-Legendre in the cosine of the polar angle crossed with a
    uniform azimuth grid, exact for spherical polynomials of degree <= order.
    Returns the (S, 3) unit vectors and the (S,) weights, of total 4*pi."""
    leg = gauss_legendre(order // 2 + 1)
    phi = 2.0 * np.pi * np.arange(order + 1) / (order + 1)
    s = np.sqrt(np.maximum(1.0 - leg.nodes ** 2, 0.0))[:, None]
    units = np.stack([s * np.cos(phi), s * np.sin(phi), np.repeat(leg.nodes[:, None], order + 1, axis=1)],
                     axis=-1)
    weights = np.repeat(leg.weights * 2.0 * np.pi / (order + 1), order + 1)
    return units.reshape(-1, 3), weights


def test_sphere_rule_total_solid_angle():
    _, w = _sphere_rule(6)
    total = float(np.sum(w))
    assert total == pytest.approx(4 * math.pi, rel=1e-13)


def test_sphere_rule_quadratic_moments():
    # int_{S^2} u_a u_b dS = (4 pi / 3) delta_ab
    pts, w = _sphere_rule(6)
    M = np.einsum("s,sa,sb->ab", w, pts, pts)
    assert np.allclose(M, (4 * math.pi / 3) * np.eye(3), atol=1e-12)


def test_slice_rule_refuses_a_unit_that_is_not_a_unit_imaginary():
    # a rule's points and a slice form lifted onto its unit would read a
    # different function: nodes at twice the offset, or on the real axis
    from spolyreg.quat import random_unit
    for unit in (quat(0, 2, 0, 0), quat(1, 0, 0, 0)):
        with pytest.raises(ValueError, match=r"unit imaginary quaternion, got Quaternion\("):
            SliceQuadrature(8, unit)
    unit = random_unit(np.random.default_rng(4))
    Q = SliceQuadrature(8, unit)
    assert Q.unit is unit and Q.points.shape == (64, 4)


def test_slice_rule_builds_its_points_when_first_read():
    Q = SliceQuadrature(12, quat(0.0, 0.6, 0.0, -0.8))
    norm_sq_slice(hermite_series(2, 1), Q)       # the stack route reads z alone
    assert "points" not in vars(Q)
    assert Q.points is Q.points
    assert np.array_equal(Q.points, qarray.from_slice(Q.z, [0.6, 0.0, -0.8]))


def test_inner_full_unit_mass():
    one = hermite_series(0, 0)
    v = inner_full(one, one, n_slice=10)
    assert v.w == pytest.approx(4 * math.pi ** 2, rel=1e-12)


def test_norm_sq_slice_positive():
    Q = SliceQuadrature(20)
    f = hermite_series(2, 1)
    v = norm_sq_slice(f, Q)
    assert v == pytest.approx(math.pi * 2, rel=1e-11)


def _mixed_batch(n, seed):
    """Points on many slices, every seventh one real."""
    a = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, 4))
    a[::7, 1:] = 0.0
    return a


def test_slice_form_round_trip():
    a = _mixed_batch(40, 5)
    z, unit = qarray.to_slice(a)
    assert z.shape == (40,) and unit.shape == (40, 3)
    assert np.all(z.real == a[:, 0]) and np.all(z.imag >= 0.0)
    assert np.all(z.imag[::7] == 0.0) and np.all(unit[::7] == 0.0)
    nonreal = np.ones(40, dtype=bool)
    nonreal[::7] = False
    assert np.allclose(np.linalg.norm(unit[nonreal], axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.max(np.abs(qarray.from_slice(z, unit) - a)) < 1e-15
    z0, u0 = qarray.to_slice(np.zeros((0, 4)))
    assert z0.shape == (0,) and u0.shape == (0, 3)
    assert qarray.from_slice(z0, u0).shape == (0, 4)


def test_from_slice_broadcasts():
    z, unit = qarray.to_slice(_mixed_batch(6, 8))
    out = qarray.from_slice(z, unit[:3, None, :])
    assert out.shape == (3, 6, 4)
    for i in range(3):
        for n in range(6):
            ref = np.concatenate([[z[n].real], z[n].imag * unit[i]])
            assert np.array_equal(out[i, n], ref)
    assert np.array_equal(qarray.from_slice(1j, unit)[:, 1:], unit)


def test_gram_slice_matches_pairwise_inner_slice(monkeypatch):
    # stacked series evaluation, and the values_on path for other callables
    unit = quat(0.0, 0.36, -0.48, 0.8)
    Q = SliceQuadrature(12, unit)
    real = [hermite_series(j, k) for j in range(3) for k in range(3)]
    mixed = real[:4] + [(real[1] + real[5]).rmul(quat(0.2, 0.5, -1.0, 0.3))]
    plain = mixed[:3] + [lambda q: q * quat(0.1, -0.3, 0.0, 0.7) * q.conj()]
    for funcs in (real, mixed, plain):
        G = gram_slice(funcs, Q)
        if funcs is not plain:
            # a list of series goes through its coefficient stack
            assert np.array_equal(gram_slice(coeff_stack(funcs), Q), G)
            diag = G[np.arange(len(funcs)), np.arange(len(funcs)), 0]
            for block in (64, 2):
                monkeypatch.setattr(quad, "_NORM_BLOCK", block)
                assert np.allclose(norm_sq_slice(coeff_stack(funcs), Q), diag, rtol=1e-13, atol=0.0)
            # one series is evaluated through its one-function stack
            for f in funcs:
                assert norm_sq_slice(f, Q) == norm_sq_slice(coeff_stack([f]), Q)[0]
        for a, f in enumerate(funcs):
            for b, g in enumerate(funcs):
                ref = inner_slice(f, g, Q).as_tuple()
                assert np.max(np.abs(G[a, b] - ref)) < 1e-11 * max(1.0, abs(G[a, a, 0]))


def _random_series(rng, level, degree):
    return PolySliceSeries([[quat(*rng.standard_normal(4)) for _ in range(degree + 1)]
                            for _ in range(level + 1)])


def test_slice_rule_pairings_read_series_from_their_stack(monkeypatch):
    # a PolySliceSeries on a slice rule has one route to its values; eval_many is not it
    rng = np.random.default_rng(29)
    Q = SliceQuadrature(12, quat(0.0, 0.36, -0.48, 0.8))
    funcs = [_random_series(rng, k, 5 - k) for k in range(4)]

    def pairings():
        return (inner_slice(funcs[0], funcs[3], Q).as_tuple(), norm_sq_slice(funcs[1], Q),
                gram_slice(funcs, Q), gram_slice(coeff_stack(funcs), Q))

    before = pairings()

    def refuse(self, pts):
        raise AssertionError("eval_many on a slice rule")

    monkeypatch.setattr(PolySliceSeries, "eval_many", refuse)
    for got, ref in zip(pairings(), before):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [12, 41])
@pytest.mark.parametrize("unit", [quat(0, 1, 0, 0), quat(0.0, 0.48, 0.6, -0.64)])
def test_values_on_slice_rule_matches_values_at_its_points(n, unit):
    # odd n puts a node on the real axis, where the point's own unit is 0
    rng = np.random.default_rng(n)
    Q = SliceQuadrature(n, unit)
    eps = np.finfo(float).eps
    for level in range(4):
        for degree in range(7):
            f = _random_series(rng, level, degree)
            ref = quad.values_on(f, Q.points)
            got = quad.values_on(f, Q)
            assert got.shape == ref.shape == (n * n, 4)
            assert np.max(np.abs(got - ref)) <= 4 * eps * np.max(np.abs(ref))


def _sphere_functions(rng):
    """psi of both signs of j and random quaternion-coefficient series, each
    with |f|^2 of degree <= 10, inside the 10 x 10 slice rule."""
    from spolyreg.spectral import Eigenfunction
    return ([Eigenfunction(n, j) for n, j in ((1, -1), (2, 0), (1, 3), (3, -2))]
            + [_random_series(rng, 2, 3), _random_series(rng, 1, 2)])


def test_slice_forms_lift_to_eval_many():
    # f(Re z + U Im z) = lift(W(z), U), read at the (z, U) of random points,
    # every seventh one real (U = 0)
    from spolyreg.spectral import Eigenfunction
    eps = np.finfo(float).eps
    for seed in range(3):
        rng = np.random.default_rng(seed)
        q = _mixed_batch(60, seed)
        z, unit = qarray.to_slice(q)
        funcs = ([Eigenfunction(2, j) for j in (-2, 0, 3)]
                 + [Eigenfunction(quat(2, 0.5, -0.25, 0.1), 1), _random_series(rng, 2, 3)])
        for f in funcs:
            w = f.slice_form(z)
            assert w.shape == (60, 4) and np.iscomplexobj(w)
            ref = f.eval_many(q)
            assert np.max(np.abs(qarray.lift(w, unit) - ref)) <= 4 * eps * np.max(np.abs(ref))
        stack = slice_values(coeff_stack(funcs[-1:]), z)
        assert stack.shape == (60, 1, 4) and np.array_equal(stack[:, 0], funcs[-1].slice_form(z))


@pytest.mark.parametrize("n_slice", [10, 40])
@pytest.mark.parametrize("order", [0, 1, 6])
def test_sphere_pairings_match_pointwise_reference(n_slice, order):
    # 4 pi times one slice pairing against qarray.gram of eval_many at every
    # point of every slice of a sphere rule; order 0 and 1 rules have
    # sum_s w_s U_s != 0.  Worst seen 6.5 eps of sqrt(|f|^2 |g|^2), at
    # n_slice = 40, order 6
    eps = np.finfo(float).eps
    units, sphere_weights = _sphere_rule(order)
    funcs = _sphere_functions(np.random.default_rng(order))
    z, w = quad._slice_nodes(n_slice)
    pts = qarray.from_slice(z, units[:, None]).reshape(-1, 4)
    vals = np.stack([f.eval_many(pts) for f in funcs])
    ref = qarray.gram(vals, vals, np.outer(sphere_weights, w).ravel())
    norms = ref[np.arange(len(funcs)), np.arange(len(funcs)), 0]
    for a, f in enumerate(funcs):
        assert abs(quad.norm_sq_full(f, n_slice) - norms[a]) <= 64 * eps * norms[a]
        for b, g in enumerate(funcs):
            got = qarray.from_quaternion(inner_full(f, g, n_slice))
            assert np.max(np.abs(got - ref[a, b])) <= 64 * eps * math.sqrt(norms[a] * norms[b])


def test_sphere_pairings_read_slice_forms_only(monkeypatch):
    # declared slice functions and coefficient stacks never reach eval_many
    from spolyreg.spectral import Eigenfunction
    funcs = _sphere_functions(np.random.default_rng(3))
    stack = coeff_stack(funcs[4:])

    def pairings():
        return ([inner_full(f, g, 10).as_tuple() for f in funcs for g in funcs],
                [quad.norm_sq_full(f, 10) for f in funcs], quad.norm_sq_full(stack, 10))

    before = pairings()

    def refuse(self, pts):
        raise AssertionError("eval_many on the sphere of slices")

    monkeypatch.setattr(PolySliceSeries, "eval_many", refuse)
    monkeypatch.setattr(Eigenfunction, "eval_many", refuse)
    for got, ref in zip(pairings(), before):
        assert np.array_equal(got, ref)


def test_norm_sq_full_of_a_coefficient_stack(monkeypatch):
    # the stack pads each function to its shape, which reorders the sums:
    # worst seen 5.5 eps
    eps = np.finfo(float).eps
    rng = np.random.default_rng(17)
    funcs = [_random_series(rng, k, 4 - k) for k in range(4)] + [hermite_series(3, 2)]
    each = np.array([quad.norm_sq_full(f, 12) for f in funcs])
    for block in (64, 2):
        monkeypatch.setattr(quad, "_NORM_BLOCK", block)
        got = quad.norm_sq_full(coeff_stack(funcs), 12)
        assert got.shape == (5,)
        assert np.all(np.abs(got - each) <= 16 * eps * each)
    # its degree guard reads the stack's last nonzero row and column
    with pytest.raises(QuadratureDegreeError, match="integrand has degree 10"):
        quad.norm_sq_full(coeff_stack(funcs), 5)


def test_functions_without_a_slice_form_are_refused():
    # a plain callable, a right-form series or an object with eval_many alone
    # has no slice form, so no full-space pairing; the message names its type
    from spolyreg import RightPolySeries
    c = quat(0.2, -0.5, 1.0, 0.3)
    series = PolySliceSeries([[quat(0), c]])

    class ValuesOnly:
        def eval_many(self, pts):
            return series.eval_many(pts)

    for f, name in ((lambda q: q * c, "function"), (RightPolySeries([[quat(0), c]]), "RightPolySeries"),
                    (ValuesOnly(), "ValuesOnly")):
        for call in (lambda: inner_full(f, series, 4), lambda: inner_full(series, f, 4),
                     lambda: inner_full(f, f, 4), lambda: quad.norm_sq_full(f, 4)):
            with pytest.raises(TypeError, match=rf"needs a slice_form; {name} has none"):
                call()
    assert quad.norm_sq_full(series, 4) == pytest.approx(4 * math.pi ** 2 * c.norm_sq(), rel=1e-14)


def test_full_pairing_is_4pi_times_each_slice_pairing():
    # for a left-form function every slice pairing is the same, so the full
    # pairing is 4 pi times any of them: random quaternion-coefficient series
    # and psi with j < 0, j = 0 and j > 0
    # on C_i and two random slices, against the values_on route of inner_slice.
    # Worst seen 3.0 eps of sqrt(|f|^2 |g|^2)
    from spolyreg import RightPolySeries
    from spolyreg.quat import random_unit
    from spolyreg.spectral import Eigenfunction
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    funcs = ([_random_series(rng, level, degree) for level in range(3) for degree in (0, 2, 4)]
             + [Eigenfunction(n, j) for n, j in ((2, -1), (1, 0), (1, 2))])
    n = 20
    rules = [SliceQuadrature(n, u) for u in (quat(0, 1, 0, 0), random_unit(rng), random_unit(rng))]
    norms = [norm_sq_full(f, n) for f in funcs]
    for a, f in enumerate(funcs):
        for b, g in enumerate(funcs):
            got = qarray.from_quaternion(inner_full(f, g, n))
            for Q in rules:
                want = 4 * math.pi * qarray.from_quaternion(inner_slice(f, g, Q))
                assert np.max(np.abs(got - want)) <= 64 * eps * math.sqrt(norms[a] * norms[b])
    for h in (RightPolySeries([[quat(0), quat(0.2, -0.5, 1.0, 0.3)]]), lambda q: q):
        for call in (lambda: inner_full(h, funcs[0], n), lambda: norm_sq_full(h, n)):
            with pytest.raises(TypeError, match="slice_form"):
                call()
