"""Segal-Bargmann transform onto the slice Bargmann spaces."""
import math

import numpy as np
import pytest

from spolyreg import (
    HermiteLine,
    QuadratureDegreeError,
    SampledLine,
    SliceQuadrature,
    b2_grid,
    b2_norm_closed,
    basis_image_scale,
    gauss_hermite,
    hermite_H,
    hermite_quat,
    inner_real,
    qarray,
    quat,
    transform_batch,
)

RULE = gauss_hermite(80)


def transform_at(k, phi, q, rule=None):
    """The transform at one Quaternion q, from a one-point batch."""
    return qarray.to_quaternion(transform_batch(k, phi, qarray.from_quaternion(q), rule)[0])


def test_ground_state_at_origin():
    v = transform_at(0, HermiteLine(0), quat(0))
    assert v.w == pytest.approx(math.pi ** -0.25, rel=1e-12)
    assert v.imag_norm() < 1e-14


@pytest.mark.parametrize("j,k", [(0, 0), (1, 0), (0, 2), (3, 2), (4, 4), (6, 6)])
def test_basis_mapping(j, k):
    scale = basis_image_scale(j, k)
    qs = (quat(0.4, -0.7, 0.3, 0.5), quat(-1.1, 0.2, 0.8, -0.4), quat(0.9, 1.3, 0, 0))
    batch = np.array([qarray.from_quaternion(q) for q in qs])
    for q, v in zip(qs, transform_batch(k, HermiteLine(j), batch, RULE)):
        got = qarray.to_quaternion(v)
        want = hermite_quat(j, k, q) * scale
        assert (got - want).norm() < 1e-8 * max(1.0, want.norm())


def test_transform_right_linear():
    alpha = quat(0.5, -1.0, 2.0, 0.25)
    q = quat(0.3, 0.6, -0.2, 0.1)
    phi = HermiteLine(2)
    vals = np.array([[*(phi(t) * alpha).as_tuple()] for t in RULE.nodes])
    scaled = SampledLine(RULE.nodes, vals)
    lhs = transform_at(1, scaled, q, RULE)
    rhs = transform_at(1, phi, q, RULE) * alpha
    assert (lhs - rhs).norm() < 1e-10


def test_coherent_state_norm():
    for q in (quat(0.5, 0.8, -0.3, 0.2), quat(1.5, -0.4, 0.9, 0.7), quat(0)):
        ref = b2_norm_closed(q)
        assert ref == pytest.approx(math.exp(float(q.norm_sq()) / 2) / math.pi ** 0.5,
                                    rel=1e-14)
        for k in (0, 2, 5):
            b = SampledLine(RULE.nodes, b2_grid(k, RULE.nodes, qarray.from_quaternion(q))[0])
            v = inner_real(b, b, RULE)
            assert math.sqrt(v.w) == pytest.approx(ref, rel=1e-8)


def test_coherent_state_norm_batch_rows_are_one_point_calls():
    # every row rounded by math.exp, as the one-point call is, to the bit
    pts = np.random.default_rng(7).normal(size=(400, 4)) * 1.5
    got = b2_norm_closed(pts)
    assert got.shape == (400,)
    assert got.tolist() == [b2_norm_closed(qarray.to_quaternion(p)) for p in pts]
    assert b2_norm_closed(np.empty((0, 4))).shape == (0,)


@pytest.mark.parametrize("q", [np.array([0.4, 0.3, -0.6, 0.2]), np.ones((5, 3))])
def test_coherent_state_norm_refuses_a_batch_that_is_not_n_by_4(q):
    # a (4,) row and an (N, 3) array are refused by shape, not read as points
    with pytest.raises(ValueError, match=r"expected an \(N, 4\) batch of quaternions, got shape"):
        b2_norm_closed(q)


def test_sampled_line_alignment_guard():
    nodes = RULE.nodes
    good = SampledLine(nodes, np.ones_like(nodes))
    assert good.eval_many(nodes).shape == (len(nodes), 4)
    with pytest.raises(ValueError, match="not aligned"):
        good.eval_many(nodes + 1e-3)
    with pytest.raises(ValueError, match="real or quaternion"):
        SampledLine(nodes, np.ones((len(nodes), 3)))


def test_sampled_matches_callable():
    phi = HermiteLine(3)
    vals = np.array([phi(t) for t in RULE.nodes])
    sampled = SampledLine(RULE.nodes, vals)
    q = quat(0.6, 0.3, -0.5, 0.2)
    a = transform_at(2, phi, q, RULE)
    b = transform_at(2, sampled, q, RULE)
    assert (a - b).norm() < 1e-12


def test_hermite_line_is_unnormalized():
    h2 = HermiteLine(2)
    assert h2.degree == 2
    t = 0.9
    assert h2(t) == pytest.approx(math.exp(-t * t / 2) * (4 * t * t - 2), rel=1e-13)


def test_hermite_line_eval_many_matches_call():
    h5 = HermiteLine(5)
    vals = h5.eval_many(RULE.nodes)
    assert vals.shape == (len(RULE.nodes), 4)
    assert np.all(vals[:, 1:] == 0.0)
    for t, v in zip(RULE.nodes, vals[:, 0]):
        assert v == pytest.approx(h5(float(t)), rel=1e-13)


def test_transform_isometry_gram():
    from spolyreg.bargmann import isometry_grams
    Q = SliceQuadrature(40)
    gi, gl = isometry_grams(2, 4, Q, RULE)
    assert gi.shape == (5, 5, 4)
    scale = np.sqrt(np.abs(gl[np.arange(5), np.arange(5), 0]))
    denom = scale[:, None] * scale[None, :]
    dev = np.max(np.abs(gi - gl) / denom[:, :, None])
    assert dev < 1e-9


def test_isometry_grams_match_per_line_transforms():
    from types import SimpleNamespace

    from spolyreg.bargmann import isometry_grams
    rng = np.random.default_rng(14)
    # a slice rule, and a pairing on scattered points whose Gram is not real
    scattered = SimpleNamespace(points=rng.uniform(-1.5, 1.5, size=(30, 4)),
                                weights=rng.uniform(0.1, 1.0, size=30))
    for Q in (SliceQuadrature(16, quat(0.0, 0.6, 0.0, -0.8)), scattered):
        for k in (0, 3):
            gi, gl = isometry_grams(k, 3, Q, RULE)
            images = np.stack([transform_batch(k, HermiteLine(j), Q.points, RULE)
                               for j in range(4)])
            lines = np.stack([HermiteLine(j).eval_many(RULE.nodes) for j in range(4)])
            ref_i = qarray.gram(images, images, Q.weights)
            if Q is scattered:   # a conjugated image would show
                assert np.max(np.abs(ref_i[..., 1:])) > 1e-3 * np.max(np.abs(ref_i))
            assert np.max(np.abs(gi - ref_i)) < 1e-12 * np.max(np.abs(ref_i))
            assert np.array_equal(gl, qarray.gram(lines, lines, RULE.line_weights))


def _grid_transform(k, phi, pts, rule):
    """The transform as the quaternion pairing of the full (N, T, 4) grid."""
    from spolyreg.quad import values_on
    return qarray.gram(b2_grid(k, rule.nodes, pts), values_on(phi, rule.nodes)[None],
                       rule.line_weights)[:, 0]


def test_transform_batch_matches_quaternion_grid_pairing():
    rng = np.random.default_rng(19)
    units = rng.normal(size=(4, 3))
    units /= np.linalg.norm(units, axis=1)[:, None]
    # points on four slices (both signs of each unit) and on the real axis
    z = rng.uniform(-2.0, 2.0, size=(4, 6)) + 1j * rng.uniform(-2.0, 2.0, size=(4, 6))
    pts = np.concatenate([qarray.from_slice(z, units[:, None, :]).reshape(-1, 4),
                          [[0.0, 0, 0, 0], [1.3, 0, 0, 0], [-0.7, 0, 0, 0]]])
    quaternion_line = SampledLine(RULE.nodes, HermiteLine(2)(RULE.nodes)[:, None]
                                  * rng.normal(size=(1, 4)) + rng.normal(size=(80, 4)) * 1e-2)
    for k in (0, 2, 5):
        for phi in (HermiteLine(3), quaternion_line):
            got = transform_batch(k, phi, pts, RULE)
            want = _grid_transform(k, phi, pts, RULE)
            # relative on max(1, |value|): h_3 vanishes at q = 0
            err = np.linalg.norm(got - want, axis=1)
            assert np.all(err <= 1e-13 * np.maximum(np.linalg.norm(want, axis=1), 1.0)), (k, phi)
            # real points stay real for a real line
            if isinstance(phi, HermiteLine):
                assert np.all(got[-3:, 1:] == 0.0)
        empty = transform_batch(k, quaternion_line, np.zeros((0, 4)), RULE)
        assert empty.shape == (0, 4)


def test_transform_batch_lines_are_one_line_calls():
    # M lines on one table: (M, N, 4), each row within 1e-13 max(1, |v|) of its one-line call
    rng = np.random.default_rng(31)
    pts = np.vstack([rng.uniform(-2.0, 2.0, size=(40, 4)), [[0.0, 0, 0, 0], [1.3, 0, 0, 0]]])
    quaternion_line = SampledLine(RULE.nodes, HermiteLine(1)(RULE.nodes)[:, None]
                                  * rng.normal(size=(1, 4)))
    for k in (0, 3, 6):
        for lines in ([HermiteLine(j) for j in range(7)], (quaternion_line, HermiteLine(4)),
                      [HermiteLine(2)]):
            got = transform_batch(k, lines, pts, RULE)
            assert got.shape == (len(lines), len(pts), 4)
            for phi, rows in zip(lines, got):
                one = transform_batch(k, phi, pts, RULE)
                err = np.linalg.norm(rows - one, axis=1)
                assert np.all(err <= 1e-13 * np.maximum(np.linalg.norm(one, axis=1), 1.0)), (k, phi)
    with pytest.raises(QuadratureDegreeError):   # the rule is checked against every line's degree
        transform_batch(1, [HermiteLine(0), HermiteLine(79)], pts, RULE)


def test_transform_and_isometry_grams_build_no_quaternion_grid(monkeypatch):
    from spolyreg import bargmann

    def refuse(*args):
        raise AssertionError("b2_grid called")

    monkeypatch.setattr(bargmann, "b2_grid", refuse)
    pts = np.array([[0.4, -0.7, 0.3, 0.5], [0.9, 0.0, 0.0, 0.0]])
    assert bargmann.transform_batch(1, HermiteLine(2), pts, RULE).shape == (2, 4)
    gi, gl = bargmann.isometry_grams(1, 2, SliceQuadrature(16), RULE)
    assert gi.shape == gl.shape == (3, 3, 4)


def _b2_unfactored(k, ts, pts):
    """B_{2,k}(t; q) from its defining formula, one complex exp per (q, t) cell."""
    z, _ = qarray.to_slice(pts)
    zb, t = np.conj(z)[:, None], np.asarray(ts, dtype=float)[None, :]
    return (math.pi ** -0.75 / math.sqrt(2.0 ** k * math.factorial(k))
            * np.exp(-(t * t + zb * zb) / 2.0 + math.sqrt(2.0) * zb * t)
            * hermite_H(k, math.sqrt(2.0) * zb.real - t))


def test_coherent_state_matches_unfactored_formula():
    from spolyreg.bargmann import _b2_slice
    rng = np.random.default_rng(25)
    units = rng.normal(size=(60, 3))
    units /= np.linalg.norm(units, axis=1)[:, None]
    # scattered points with |Re q| <= 8 and |Im q| up to 30, real points,
    # q = 0 and signed zeros
    scattered = np.concatenate([
        np.hstack([rng.uniform(-8.0, 8.0, size=(60, 1)),
                   rng.uniform(0.0, 30.0, size=(60, 1)) * units]),
        [[0.0, 0, 0, 0], [-0.0, -0.0, 0.0, -0.0], [-0.0, 0.5, -0.0, 0.0], [0.0, 0, -0.0, 30.0],
         [1.3, 0, 0, 0], [-7.5, 0, 0, 0], [-0.0, 0, 0, 0]]])
    # a slice rule: a tensor grid with repeated coordinates and both signs of Im
    for pts in (SliceQuadrature(40, quat(0.0, 0.6, 0.0, -0.8)).points, scattered):
        for ts in (RULE.nodes, np.linspace(-30.0, 30.0, 121)):
            for k in range(8):
                got, unit = _b2_slice(k, ts, pts)
                want = _b2_unfactored(k, ts, pts)
                assert np.array_equal(unit, qarray.to_slice(pts)[1])
                assert np.array_equal(np.isfinite(got), np.isfinite(want)), k
                row_max = np.max(np.abs(want), axis=1, keepdims=True)
                assert np.all(np.abs(got - want) <= 1e-13 * row_max), k


def test_coherent_state_tables_are_built_per_distinct_coordinate(monkeypatch):
    from spolyreg import bargmann
    shapes = []

    def recording(k, t):
        shapes.append(np.shape(t))
        return hermite_H(k, t)

    monkeypatch.setattr(bargmann, "hermite_H", recording)
    Q = SliceQuadrature(40)
    assert Q.points.shape == (1600, 4)
    bargmann.isometry_grams(6, 6, Q, RULE)
    # one row per distinct Re q of the 40 x 40 rule, not one per point
    assert shapes == [(40, len(RULE.nodes))]


def test_paired_conjugates_the_product_with_the_same_bits():
    # sum_t w_t conj(B(t; q)) v(t) for real v: conj(B @ v) has the bits of
    # conj(B) @ v, signs included, except that an exactly zero imaginary part
    # (a real point, a zero column) is -0.0 for +0.0, which the lift drops
    from spolyreg.bargmann import _b2_slice, _paired
    Q = SliceQuadrature(40, quat(0.0, 0.6, 0.0, -0.8))
    real = np.array([[0.0, 0, 0, 0], [1.3, 0, 0, 0], [-0.7, 0, 0, 0]])
    # the isometry Grams' seven Hermite columns, and transform_batch's one quaternion line
    columns = (np.stack([HermiteLine(j).eval_many(RULE.nodes)[:, 0] for j in range(7)], axis=1),
               HermiteLine(3).eval_many(RULE.nodes))
    for k in range(7):
        for pts in (Q.points, real):
            for vals in columns:
                got, unit = _paired(k, RULE, pts, vals)
                w, _ = _b2_slice(k, RULE.nodes, pts)
                want = np.conj(w) @ (vals * RULE.line_weights[:, None])
                assert np.array_equal(got, want)
                nonzero = want.imag != 0
                assert np.array_equal(np.signbit(got.imag[nonzero]), np.signbit(want.imag[nonzero]))
                assert (pts is real) == (not nonzero.any())
            lifted, want = qarray.lift(got, unit), qarray.lift(want, unit)
            assert np.array_equal(lifted, want)
            assert np.array_equal(np.signbit(lifted), np.signbit(want))
