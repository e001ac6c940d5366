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
    norm_sq_slice,
    quat,
    sphere_rule,
)
from spolyreg import qarray, quad
from spolyreg.series import coeff_stack

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


def test_sphere_rule_total_solid_angle():
    S = sphere_rule(6)
    total = float(np.sum(S.weights))
    assert total == pytest.approx(4 * math.pi, rel=1e-13)


def test_sphere_rule_quadratic_moments():
    # int_{S^2} u_a u_b dS = (4 pi / 3) delta_ab
    S = sphere_rule(6)
    pts = np.array([[u.x, u.y, u.z] for u in S.units])
    w = np.asarray(S.weights)
    M = np.einsum("s,sa,sb->ab", w, pts, pts)
    assert np.allclose(M, (4 * math.pi / 3) * np.eye(3), atol=1e-12)


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
