"""Reproducing kernels: independent complex oracle, dual paths, closed forms."""
import math
from math import comb, factorial

import numpy as np
import pytest

from spolyreg import (
    KernelSpec,
    PolySliceSeries,
    QuadratureDegreeError,
    SliceQuadrature,
    exp_star,
    hermite_series,
    kernel_tail,
    kernel_value,
    laguerre,
    laguerre_star,
    project_batch,
    qarray,
    quat,
)
from spolyreg import kernels
from spolyreg.kernels import clear_star_cache, k2_series_levels, kernel_value_tail
from spolyreg.series import EXP_STAR_CAP

I = quat(0, 1, 0, 0)


def cherm(m: int, n: int, z: complex) -> complex:
    """Independent complex Hermite polynomial, explicit double factorial sum."""
    zb = z.conjugate()
    return sum(
        (-1) ** s * factorial(s) * comb(m, s) * comb(n, s)
        * z ** (m - s) * zb ** (n - s)
        for s in range(min(m, n) + 1))


def k2_oracle(k: int, z: complex, w: complex, terms: int = 90) -> complex:
    """Bilinear generating sum in plain complex arithmetic."""
    acc = 0j
    for j in range(terms):
        acc += cherm(j, k, w) * cherm(j, k, z).conjugate() / factorial(j)
    return acc / (math.pi * factorial(k))


def to_slice_i(z: complex):
    return quat(z.real, z.imag, 0, 0)


def series(kind: str, k: int, terms: int | None = None) -> KernelSpec:
    return KernelSpec(kind, k, "series", terms)


def star(kind: str, k: int) -> KernelSpec:
    return KernelSpec(kind, k, "star")


PAIRS = [(0.3 + 0.4j, -0.2 + 1.1j), (1.2 - 0.5j, 0.9 + 0.3j), (-1.0 + 0.2j, -0.4 - 0.9j)]


@pytest.mark.parametrize("k", range(4))
def test_series_matches_complex_oracle(k):
    for z, w in PAIRS:
        ours = kernel_value(series("second", k), to_slice_i(z), to_slice_i(w))
        ref = k2_oracle(k, z, w)
        assert abs(complex(ours.w, ours.x) - ref) < 1e-8
        assert abs(ours.y) + abs(ours.z) < 1e-12


@pytest.mark.parametrize("k", range(4))
def test_star_matches_complex_oracle(k):
    for z, w in PAIRS:
        ours = kernel_value(star("second", k), to_slice_i(z), to_slice_i(w))
        ref = k2_oracle(k, z, w)
        assert abs(complex(ours.w, ours.x) - ref) < 1e-8


def test_kernel_at_origin_is_laguerre():
    # K_{2,k}(0, q) = L_k(|q|^2) / pi for any q, on or off slice
    q = quat(0.7, 0.4, -0.5, 0.3)
    for k in range(5):
        v = kernel_value(series("second", k), quat(0), q)
        ref = laguerre(k, 0, float(q.norm_sq())) / math.pi
        assert v.w == pytest.approx(ref, rel=1e-10, abs=1e-12)
        assert v.imag_norm() < 1e-10


def test_dual_path_off_slice():
    pairs = [
        (quat(0.4, 0.3, -0.7, 0.2), quat(-0.1, 0.8, 0.3, -0.5)),
        (quat(1.1, -0.2, 0.4, 0.6), quat(0.3, 0.5, -0.9, 0.1)),
    ]
    for k in range(5):
        for p, q in pairs:
            a = kernel_value(series("second", k), p, q)
            b = kernel_value(star("second", k), p, q)
            assert (a - b).norm() < 1e-8


def test_first_kind_sums_levels():
    p = quat(0.5, -0.3, 0.6, 0.2)
    q = quat(-0.2, 0.7, 0.1, -0.4)
    for n in range(4):
        total = quat(0)
        for k in range(n + 1):
            total = total + kernel_value(series("second", k), p, q)
        v = kernel_value(series("first", n), p, q)
        assert (v - total).norm() < 1e-10
        vs = kernel_value(star("first", n), p, q)
        assert (vs - total).norm() < 1e-8


def test_closed_slice_forms():
    u = quat(0, 0.6, 0.8, 0)
    p = quat(0.9) + u * 0.4
    q = quat(-0.3) + u * 1.1
    for k in range(4):
        a = kernel_value(series("second", k), p, q)
        b = kernel_value(KernelSpec("second", k, "closed"), p, q)
        assert (a - b).norm() < 1e-10
    for n in range(3):
        a = kernel_value(series("first", n), p, q)
        b = kernel_value(KernelSpec("first", n, "closed"), p, q)
        assert (a - b).norm() < 1e-10


def test_closed_matches_series_on_mixed_slices():
    # the closed form holds at every pair, not only on a common slice
    rng = np.random.default_rng(23)
    ps = rng.standard_normal((12, 4))
    qs = rng.standard_normal((12, 4))
    ps *= (1.5 * rng.uniform(size=12) / np.linalg.norm(ps, axis=1))[:, None]
    qs *= (1.5 * rng.uniform(size=12) / np.linalg.norm(qs, axis=1))[:, None]
    ps[0], qs[0] = [0, 1.5, 0, 0], [0, 0, 1.5, 0]        # orthogonal units
    for kind in ("second", "first"):
        for k in range(5):
            got = kernel_value(KernelSpec(kind, k, "closed"), ps, qs)
            ref = kernel_value(series(kind, k), ps, qs)
            for g, r in zip(got, ref):
                assert np.max(np.abs(g - r)) <= 1e-12 * max(1.0, np.linalg.norm(r))


@pytest.mark.parametrize("kind, gamma", [("second", 0), ("first", 1)])
def test_closed_exact_at_antipodes(kind, gamma):
    # K(p, -p) = e^(-|p|^2) L_k^(gamma)(4|p|^2) / pi; the lift of the two
    # same-slice values cancels this to 0 at p = 5i, the direct term does not
    rng = np.random.default_rng(31)
    for p in (quat(0, 5, 0, 0), quat(1, 3, 4, 0), quat(5), quat(*rng.standard_normal(4))):
        r2 = float(p.norm_sq())
        for k in range(4):
            ref = math.exp(-r2) * laguerre(k, gamma, 4.0 * r2) / math.pi
            got = kernel_value(KernelSpec(kind, k, "closed"), p, -p)
            assert abs(got - quat(ref)) <= 1e-13 * abs(ref)


def test_diagonal_values():
    for q in (quat(0.5, 0.5, -0.5, 0.5), quat(1.0, 0.2, 0.9, -0.3)):
        ref2 = math.exp(float(q.norm_sq())) / math.pi
        for k in range(4):
            v = kernel_value(series("second", k), q, q)
            assert v.w == pytest.approx(ref2, rel=1e-9)
            assert v.imag_norm() < 1e-9 * ref2
        for n in range(4):
            v = kernel_value(series("first", n), q, q)
            assert v.w == pytest.approx((n + 1) * ref2, rel=1e-9)


def test_hermitian_symmetry():
    p = quat(0.4, 0.1, -0.6, 0.3)
    q = quat(-0.7, 0.5, 0.2, 0.4)
    for k in range(3):
        a = kernel_value(series("second", k), p, q)
        b = kernel_value(series("second", k), q, p).conj()
        assert (a - b).norm() < 1e-10


def test_series_tail_bound_covers_truncation():
    p = quat(0.9, 0.6, -0.8, 0.3)
    q = quat(-0.5, 0.7, 0.4, -0.6)
    for k in range(3):
        # caps 10 and 15 bind: the rows stop there, before their own stop
        full = kernel_value(series("second", k, 200), p, q)
        short = kernel_value(series("second", k, 10), p, q)
        bound = kernel_tail(series("second", k, 10), p, q)
        assert (full - short).norm() <= bound + 1e-15
        # and the bound shrinks as terms grow
        assert kernel_tail(series("second", k, 15), p, q) < bound
        # this pair stops by itself near term 22-25, so caps 60 and 80 no
        # longer bind: the same value and the same tail
        assert kernel_value(series("second", k, 60), p, q) == kernel_value(
            series("second", k, 80), p, q)
        assert kernel_tail(series("second", k, 60), p, q) == kernel_tail(
            series("second", k, 80), p, q)


def test_star_tail_bound_positive_and_decreasing():
    p = quat(1.2, 0.4, 0.3, -0.2)
    q = quat(0.8, -0.6, 0.5, 0.1)
    b30 = kernel_tail(KernelSpec("second", 2, "star", 30), p, q)
    b40 = kernel_tail(KernelSpec("second", 2, "star", 40), p, q)
    assert 0 < b40 < b30
    # at r = |p||q| from 20 to 35 the 40-term star value is within its tail
    # (plus rounding) of the closed form, for general, same-slice and
    # antipodal pairs
    rng = np.random.default_rng(37)
    for r in (20.0, 25.0, 30.0, 35.0):
        v = rng.standard_normal((6, 4))
        ps = math.sqrt(r) * v / np.linalg.norm(v, axis=1)[:, None]
        v = rng.standard_normal((2, 4))
        same = np.hstack([rng.uniform(-1.0, 1.0, (2, 1)), ps[2:4, 1:]])
        same *= math.sqrt(r) / np.linalg.norm(same, axis=1)[:, None]
        qs = np.vstack([math.sqrt(r) * v / np.linalg.norm(v, axis=1)[:, None], same, -ps[4:6]])
        for kind in ("second", "first"):
            for level in range(4):
                got, tail = kernel_value_tail(KernelSpec(kind, level, "star", 40), ps, qs)
                want = kernel_value(KernelSpec(kind, level, "closed"), ps, qs)
                size = np.linalg.norm(want, axis=1)
                err = np.linalg.norm(got - want, axis=1)
                assert np.all(err <= tail + 1e-13 * size), (r, kind, level)


def test_star_rows_match_one_row_calls():
    # every star and closed value and star tail of a batch row equals its
    # one-row call bit for bit, with one p or a paired (N, 4) p batch, and a
    # clear_star_cache() between calls changes nothing
    rng = np.random.default_rng(17)
    p = rng.standard_normal(4) * 0.6
    batch = np.vstack([rng.standard_normal((40, 4)) * 0.7,
                       [[0.8, 0, 0, 0], [0, 0, 0, 0], p, -p]])
    pbatch = np.vstack([rng.standard_normal((40, 4)) * 0.7,
                        [[0, 0.5, 0, 0], [0.3, 0, 0, 0], -p, p]])
    pq = qarray.to_quaternion(p)
    for kind in ("first", "second"):
        for level in range(7):
            for method in ("star", "closed"):
                spec = KernelSpec(kind, level, method)
                values, paired = kernel_value(spec, pq, batch), kernel_value(spec, pbatch, batch)
                clear_star_cache()
                for n in range(len(batch)):
                    assert np.array_equal(kernel_value(spec, pq, batch[n:n + 1])[0], values[n])
                    assert np.array_equal(
                        kernel_value(spec, pbatch[n:n + 1], batch[n:n + 1])[0], paired[n])
                assert np.array_equal(kernel_value(spec, pq, batch), values)
            spec = KernelSpec(kind, level, "star")
            tails = kernel_tail(spec, pq, batch)
            for n, row in enumerate(batch):
                assert kernel_tail(spec, pq, qarray.to_quaternion(row)) == tails[n]


def test_series_rows_match_one_row_calls():
    # every series value and tail of a batch row equals its one-row call bit
    # for bit, with one p or a paired (N, 4) p batch: each row stops at its
    # own term, whatever the other rows of its batch need
    rng = np.random.default_rng(19)
    p = rng.standard_normal(4) * 0.6
    unit = np.array([0.0, 0.48, 0.6, -0.64])
    batch = np.vstack([rng.standard_normal((6, 4)) * 0.9,
                       [[0.8, 0, 0, 0], [0, 0, 0, 0], p, -p, [0.3, *(1.2 * unit[1:])]]])
    pbatch = np.vstack([rng.standard_normal((6, 4)) * 0.9,
                        [[0, 0.5, 0, 0], [0.3, 0, 0, 0], -p, p, [-0.7, *(0.4 * unit[1:])]]])
    pq = qarray.to_quaternion(p)
    for kind in ("first", "second"):
        for level in range(7):
            for terms in (None, 30):
                spec = series(kind, level, terms)
                values, paired = kernel_value(spec, pq, batch), kernel_value(spec, pbatch, batch)
                tails, paired_tails = kernel_tail(spec, pq, batch), kernel_tail(spec, pbatch, batch)
                both = kernel_value_tail(spec, pbatch, batch)
                assert np.array_equal(both[0], paired) and np.array_equal(both[1], paired_tails)
                for n in range(len(batch)):
                    one, pone = batch[n:n + 1], pbatch[n:n + 1]
                    assert np.array_equal(kernel_value(spec, pq, one)[0], values[n])
                    assert np.array_equal(kernel_value(spec, pone, one)[0], paired[n])
                    assert kernel_tail(spec, pq, one)[0] == tails[n]
                    assert kernel_tail(spec, pone, one)[0] == paired_tails[n]


def test_series_stop_search_in_row_blocks_matches_one_block(monkeypatch):
    # a batch searched in many small row blocks gives the values and tails
    # of one block, for one p and a paired p batch
    rng = np.random.default_rng(31)
    qs = rng.standard_normal((23, 4)) * 1.2
    ps = rng.standard_normal((23, 4)) * 1.2
    specs = [series(kind, level, terms) for kind in ("first", "second")
             for level in (0, 3) for terms in (None, 30)]
    whole = [(kernel_value_tail(s, ps[0], qs), kernel_value_tail(s, ps, qs)) for s in specs]
    levels = k2_series_levels(4, ps, qs)
    monkeypatch.setattr(kernels, "_STOP_BLOCK", 700)     # one to four rows a block
    for s, (one_p, paired) in zip(specs, whole):
        for got, want in zip(kernel_value_tail(s, ps[0], qs) + kernel_value_tail(s, ps, qs),
                             one_p + paired):
            assert np.array_equal(got, want)
    assert np.array_equal(k2_series_levels(4, ps, qs), levels)


def series_reference(k_max: int, p: np.ndarray, q: np.ndarray, terms: int = 200):
    """The terms-term ladder sums K_{2,kappa}(p_n, q_n), kappa <= k_max, shape
    (k_max+1, N, 4), and their magnitude sums sum_j |t_j|, shape (k_max+1, N),
    from A_{0,kappa} = zbar^kappa, A_{j+1,kappa} = (z A_{j,kappa} -
    kappa A_{j,kappa-1})/sqrt(j+1) and t_j = A_{j,kappa}(q) conj(A_{j,kappa}(p))/(pi kappa!)."""
    (zq, uq), (zp, up) = qarray.to_slice(q), qarray.to_slice(p)
    kap = np.arange(k_max + 1)[:, None]
    # the powers as kernels._ladder forms them: the ladder magnifies their rounding
    aq = np.vander(np.conj(zq), k_max + 1, increasing=True).T
    ap = np.vander(np.conj(zp), k_max + 1, increasing=True).T
    s1 = s2 = mag = 0.0
    for j in range(terms + 1):
        if j:
            aq = (zq * aq - kap * np.vstack([0 * aq[:1], aq[:-1]])) / math.sqrt(j)
            ap = (zp * ap - kap * np.vstack([0 * ap[:1], ap[:-1]])) / math.sqrt(j)
        s1, s2 = s1 + aq * ap, s2 + aq * np.conj(ap)
        mag = mag + np.abs(aq) * np.abs(ap)
    scale = np.array([1.0 / (math.pi * factorial(k)) for k in range(k_max + 1)])[:, None]
    return qarray.lift_conj_product(s1 * scale, s2 * scale, uq, up), mag * scale


def test_series_stop_is_honest():
    # the stopped value is within its reported tail plus rounding,
    # 16 eps sum_j |t_j|, of the full 200-term sum, for pairs on a common
    # slice, antipodes and general pairs, of equal and of unequal radii
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    radii = [(r, r) for r in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
    for radius, q_radius in radii + [(3.0, 0.3), (0.3, 3.0), (4.0, 1.0), (1.0, 4.0), (6.0, 0.2)]:
        def sphere(n, radius):
            v = rng.standard_normal((n, 4))
            return radius * v / np.linalg.norm(v, axis=1)[:, None]
        ps = sphere(12, radius)
        # p's unit or its opposite
        common = ps[8:12] * (q_radius / radius) * rng.choice([-1.0, 1.0], size=(4, 1))
        common[:, 0] = rng.uniform(-q_radius, q_radius, size=4)
        qs = np.vstack([sphere(4, q_radius), -ps[4:8] * (q_radius / radius), common])
        ref, mag = series_reference(5, ps, qs)
        levels = k2_series_levels(5, ps, qs)
        for kind in ("second", "first"):
            for level in range(6):
                spec = series(kind, level)
                got, tail = kernel_value(spec, ps, qs), kernel_tail(spec, ps, qs)
                if kind == "second":
                    want, size = ref[level], mag[level]
                    # every level of k2_series_levels stops at its own term
                    err = np.linalg.norm(levels[level] - want, axis=1)
                    assert np.all(err <= tail + 16 * eps * size), (radius, "levels", level)
                else:
                    want, size = ref[:level + 1].sum(axis=0), mag[:level + 1].sum(axis=0)
                err = np.linalg.norm(got - want, axis=1)
                assert np.all(err <= tail + 16 * eps * size), (radius, kind, level)


def test_series_rows_of_unequal_radius_stop_early():
    # K_{2,0}(30, 0.5) = e^15/pi: the terms 15^j/j! pass below eps |K| near
    # term 50, so the row stops there with a tail of about eps |K|, whatever the cap
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = 40
        exact = float(Decimal(15).exp() / Decimal("3.141592653589793238462643383279502884197"))
    spec, p, q = series("second", 0), quat(30), quat(0.5)
    value, tail = kernel_value_tail(spec, p, q)
    w, zeta = kernels._slice_pair(p.as_tuple(), q.as_tuple())[:2]
    assert kernels._series_stops(range(1), zeta, w, spec.terms)[0][0, 0] <= 60
    assert kernel_value(series("second", 0, 60), p, q) == value
    assert 0.0 < tail <= 1e-15 * exact
    assert abs(value.w - exact) <= tail + 4 * math.ulp(exact) and value.imag_norm() == 0.0


def test_series_rows_at_radius_eight_stop_before_the_cap():
    # K_{2,k}(8, 8) = e^64/pi at every level: the rows stop near term 140 to
    # 160, where a term bound with a factor e^((|p|^2+|q|^2)/2) runs them to the cap
    p = np.array([[8.0, 0, 0, 0], [-8.0, 0, 0, 0]])
    w, zeta = kernels._slice_pair(p, p)[:2]
    stops = kernels._series_stops(range(4), zeta, w, kernels.SERIES_TERMS)[0]
    assert stops.max() < kernels.SERIES_TERMS
    exact = math.exp(64.0) / math.pi
    for k in range(4):
        value, tail = kernel_value_tail(series("second", k), p, p)
        assert np.all(tail <= np.finfo(float).eps * exact)
        assert np.all(np.abs(value[:, 0] - exact) <= 1e-13 * exact) and np.all(value[:, 1:] == 0.0)


def test_kernel_tail_paired_rows_match_one_row_calls():
    # kernel_tail takes kernel_value's arguments: every row of a paired
    # (p_n, q_n) batch equals its one-row call and its one-point call bit for
    # bit, for both methods and both kinds, zero and real points included
    rng = np.random.default_rng(23)
    pbatch = np.vstack([rng.standard_normal((12, 4)), [[0, 0, 0, 0], [0.8, 0, 0, 0],
                                                       [0.3, 0.2, 0, 0], [0, 0, 0, 0]]])
    qbatch = np.vstack([rng.standard_normal((12, 4)) * 1.5, [[0.4, 0, 0.2, 0], [0, 0, 0, 0],
                                                             [-1.1, 0, 0, 0], [0, 0, 0, 0]]])
    for kind in ("first", "second"):
        for method, terms in (("series", None), ("series", 30), ("star", None), ("star", 12)):
            for level in (0, 2, 4):
                spec = KernelSpec(kind, level, method, terms)
                tails = kernel_tail(spec, pbatch, qbatch)
                assert tails.shape == (len(qbatch),) and np.all(tails[12:14] == 0.0)
                for n in range(len(qbatch)):
                    assert kernel_tail(spec, pbatch[n:n + 1], qbatch[n:n + 1])[0] == tails[n]
                    assert kernel_tail(spec, qarray.to_quaternion(pbatch[n]),
                                       qarray.to_quaternion(qbatch[n])) == tails[n]


def test_kernel_spec_refuses_star_truncation_outside_cap():
    # refused on construction, so kernel_tail has no spec to return a number for
    for terms in (-1, EXP_STAR_CAP + 1, 500):
        with pytest.raises(ValueError, match=f"star truncation {terms} outside 0..200"):
            KernelSpec("second", 0, "star", terms)
    assert kernel_tail(KernelSpec("second", 0, "star", 0), quat(0.5), quat(0.5)) > 0.0
    assert kernel_tail(KernelSpec("second", 0, "star", EXP_STAR_CAP), quat(0.5), quat(0.5)) >= 0.0


def star_reference(kind: str, level: int, p, q, terms: int):
    """The scalar star assembly: Quaternion coefficients, evaluated with
    the coefficients on the left."""
    gamma = 0 if kind == "second" else 1
    return exp_star(q, terms).star(laguerre_star(level, gamma, q)).scale(
        1.0 / math.pi).eval_left(p)


def test_star_kernel_matches_scalar_star_assembly():
    rng = np.random.default_rng(9)

    def ball():
        v = rng.standard_normal(4)
        return v * (1.5 * rng.uniform() / np.linalg.norm(v))

    for _ in range(3):
        p = ball()
        qs = np.array([ball(), ball(), [ball()[0], 0, 0, 0], np.zeros(4),
                       p, qarray.qconj(p), -p])
        pq = qarray.to_quaternion(p)
        for kind in ("second", "first"):
            for level in range(5):
                for terms in (0, 10, 40):
                    got = kernel_value(KernelSpec(kind, level, "star", terms), pq, qs)
                    for q, v in zip(qs, got):
                        ref = star_reference(kind, level, pq, qarray.to_quaternion(q), terms)
                        assert np.max(np.abs(v - ref.as_tuple())) <= 1e-12 * max(1.0, abs(ref))


def test_star_coeffs_refuse_out_of_range_terms():
    p, q = quat(0.3, 0.2, 0.1, 0.0), np.array([[0.5, 0.5, 0.0, 0.0]])
    for terms in (-1, 201):
        with pytest.raises(ValueError, match=f"star truncation {terms} outside 0..200"):
            kernel_value(KernelSpec("second", 1, "star", terms), p, q)
    assert kernel_value(KernelSpec("first", 2, "star", 200), p, q).shape == (1, 4)


def test_series_truncation_below_level_refused():
    with pytest.raises(ValueError, match="series truncation 2 is below the level 5"):
        KernelSpec("second", 5, "series", 2)
    with pytest.raises(ValueError, match="series truncation 2 is below the level 5"):
        kernel_tail(series("second", 5, 2), quat(0.3), quat(0.2))
    assert kernel_tail(series("second", 5, 5), quat(0.3), quat(0.2)) > 0.0
    assert KernelSpec("second", 5, "star", 2).terms == 2


def test_k2_series_levels_refuses_a_cap_below_k_max():
    # a cap of 2 would cut every level above it short: w reads 0.0032 at level 4, not 0.127
    p = qarray.from_quaternion(quat(0.3, 0.2, 0.1, 0.0))
    q = qarray.from_quaternion(quat(0.5, -0.1, 0.2, 0.3))[None, :]
    with pytest.raises(ValueError, match="series truncation 2 is below the level 4"):
        k2_series_levels(4, p, q, 2)
    assert k2_series_levels(4, p, q, 4).shape == (5, 1, 4)
    closed = kernel_value(KernelSpec("second", 4, "closed"), p, q)
    assert np.max(np.abs(k2_series_levels(4, p, q)[4] - closed)) < 1e-13


def test_kernel_level_is_refused_past_the_laguerre_cap():
    # one domain for every method: the stop bound and the star and closed forms read L_level
    p = qarray.from_quaternion(quat(0.3, 0.2, 0.1, 0.0))
    q = qarray.from_quaternion(quat(0.5, -0.1, 0.2, 0.3))[None, :]
    for kind in ("first", "second"):
        for method in ("series", "star", "closed"):
            with pytest.raises(ValueError, match="kernel level 31 exceeds cap 30"):
                KernelSpec(kind, 31, method)
            assert kernel_value(KernelSpec(kind, 30, method), p, q).shape == (1, 4)
    with pytest.raises(ValueError, match="kernel level 31 exceeds cap 30"):
        k2_series_levels(31, p, q)
    assert k2_series_levels(30, p, q).shape == (31, 1, 4)


def test_lift_conj_product_matches_qmul():
    rng = np.random.default_rng(21)
    n = 12

    def units():
        u = rng.standard_normal((n, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        u[::5] = 0.0                       # real points carry no unit
        return u

    x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    y = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    u, v = units(), units()
    v[1::4] = -u[1::4]                     # pairs on a common slice
    v[2::4] = u[2::4]
    ref = qarray.qmul(qarray.from_slice(x, u), qarray.qconj(qarray.from_slice(y, v)))
    got = qarray.lift_conj_product(x * y, x * np.conj(y), u, v)
    assert got.shape == (3, n, 4)
    assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))
    # sums over a contracted axis, and one V broadcast against every U
    got = qarray.lift_conj_product(np.sum(x * y[:, :1], axis=0),
                                   np.sum(x * np.conj(y[:, :1]), axis=0), u, v[0])
    ref = np.sum(qarray.qmul(qarray.from_slice(x, u),
                             qarray.qconj(qarray.from_slice(y[:, :1], v[0]))), axis=0)
    assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="third")
    with pytest.raises(ValueError):
        KernelSpec(method="magic")
    with pytest.raises(ValueError):
        KernelSpec(level=-1)


def test_unknown_method_and_closed_tail_refused():
    with pytest.raises(ValueError, match="'series', 'star' or 'closed', got 'magic'"):
        KernelSpec(method="magic")
    p, batch = quat(0.3, 0.2, 0.1, 0.0), np.array([[0.5, 0.5, 0.0, 0.0]])
    for spec in (KernelSpec("second", 1, "closed"), KernelSpec("first", 2, "closed", 40)):
        with pytest.raises(ValueError, match="closed form has no truncation tail"):
            kernel_tail(spec, p, batch)
        with pytest.raises(ValueError, match="closed form has no truncation tail"):
            kernel_tail(spec, p, quat(0.5, 0.5))


def test_kernel_value_dispatch():
    p = quat(0.3, 0.2, 0.1, 0.0)
    q = quat(0.1, -0.4, 0.2, 0.3)
    k2 = k2_series_levels(2, qarray.from_quaternion(p), qarray.from_quaternion(q)[None, :])
    assert kernel_value(KernelSpec("second", 1, "series"), p, q) == qarray.to_quaternion(
        k2_series_levels(1, qarray.from_quaternion(p), qarray.from_quaternion(q)[None, :])[1, 0])
    assert kernel_value(KernelSpec("first", 2, "series"), p, q) == qarray.to_quaternion(
        k2.sum(axis=0)[0])
    for spec in (KernelSpec("first", 2, "star"), KernelSpec("second", 2, "star", 30)):
        ref = star_reference(spec.kind, 2, p, q, spec.terms)
        assert (kernel_value(spec, p, q) - ref).norm() <= 1e-12 * max(1.0, abs(ref))
    # the first kind's tail estimate is the sum of the second-kind estimates
    # over its levels, for either method
    assert kernel_tail(KernelSpec("first", 2, "series", 60), p, q) == sum(
        kernel_tail(KernelSpec("second", k, "series", 60), p, q) for k in range(3))
    assert kernel_tail(KernelSpec("second", 2, "series"), p, q) == kernel_tail(
        KernelSpec("second", 2, "series", 200), p, q)
    assert kernel_tail(KernelSpec("first", 1, "star", 20), p, q) == sum(
        kernel_tail(KernelSpec("second", k, "star", 20), p, q) for k in range(2))
    # an (N, 4) batch gets each row's own estimate, as one point at a time does
    batch = np.array([q.as_tuple(), p.as_tuple(), (0.0,) * 4, (1.2, 0.0, 0.0, 0.0)], dtype=float)
    for spec in (KernelSpec("first", 2, "series", 60), KernelSpec("first", 2, "star", 20)):
        tails = kernel_tail(spec, p, batch)
        assert tails.shape == (4,) and tails[2] == 0.0
        assert list(tails) == [kernel_tail(spec, p, qarray.to_quaternion(row)) for row in batch]


def test_kernel_value_batch_matches_points():
    p = quat(0.4, -0.6, 0.0, 0.2)
    qs = [quat(0.5, 0.3, -0.2, 0.0), quat(-0.7, 0.0, 0.0, 0.1), quat(1.1),
          quat(0.2, -0.4, 0.6, 0.3), p]
    batch = np.array([q.as_tuple() for q in qs])
    for kind in ("first", "second"):
        for method in ("series", "star"):
            spec = KernelSpec(kind, 2, method)
            got = kernel_value(spec, p, batch)
            assert got.shape == (len(qs), 4)
            for q, v in zip(qs, got):
                ref = kernel_value(spec, p, q)
                assert np.max(np.abs(v - ref.as_tuple())) <= 1e-14 * max(1.0, abs(ref))
    assert kernel_value(KernelSpec(), p, np.zeros((0, 4))).shape == (0, 4)


def test_project_reproduces_level_member():
    Q = SliceQuadrature(40)
    f = hermite_series(2, 1)
    ps = (quat(0.3, 0.8, 0, 0), quat(-0.6, 0.2, 0, 0))
    got = project_batch(1, f, np.array([qarray.from_quaternion(p) for p in ps]), Q)
    for p, v in zip(ps, got):
        ref = f.eval_left(p)
        assert (qarray.to_quaternion(v) - ref).norm() < 1e-9


def test_project_annihilates_other_level():
    Q = SliceQuadrature(40)
    f = hermite_series(2, 2)
    p = quat(0.4, 0.6, 0, 0)
    v = qarray.to_quaternion(project_batch(1, f, qarray.from_quaternion(p), Q)[0])
    assert v.norm() < 1e-9


@pytest.mark.parametrize("level", [0, 2])
def test_series_batch_matches_star_pointwise(level):
    rng = np.random.default_rng(40 + level)
    qs = rng.uniform(-1.0, 1.0, size=(10, 4))
    qs[::4, 1:] = 0.0                     # real q next to several slices
    for p in (quat(0.3, -0.4, 0.5, 0.2), quat(0.7)):
        for kind in ("second", "first"):
            got = kernel_value(series(kind, level), p, qs)
            for q, v in zip(qs, got):
                ref = kernel_value(star(kind, level), p, qarray.to_quaternion(q))
                assert np.max(np.abs(v - ref.as_tuple())) < 1e-12 * max(1.0, abs(ref))


def test_series_levels_paired_matches_pointwise():
    rng = np.random.default_rng(12)
    ps = rng.uniform(-1.0, 1.0, size=(8, 4))
    qs = rng.uniform(-1.0, 1.0, size=(8, 4))
    ps[2, 1:] = qs[3, 1:] = 0.0                 # a real p and a real q
    qs[4, 1:] = -2.0 * ps[4, 1:]                # a pair on a common slice
    qs[5] = ps[5]                               # the diagonal p = q
    k2 = k2_series_levels(3, ps, qs)
    k1 = np.cumsum(k2, axis=0)
    assert k2.shape == (4, 8, 4)
    for n, (pv, qv) in enumerate(zip(ps, qs)):
        p, q = qarray.to_quaternion(pv), qarray.to_quaternion(qv)
        for kappa in range(4):
            for got, kind in ((k2[kappa, n], "second"), (k1[kappa, n], "first")):
                for spec in (series(kind, kappa), star(kind, kappa)):
                    ref = kernel_value(spec, p, q)
                    assert np.max(np.abs(got - ref.as_tuple())) < 1e-12 * max(1.0, abs(ref))
    base = math.exp(float(np.sum(ps[5] ** 2))) / math.pi
    assert np.allclose(k2[:, 5], [[base, 0, 0, 0]] * 4, rtol=1e-13, atol=1e-13 * base)


def test_project_batch_matches_project_and_kernel_pairing():
    from spolyreg.quad import values_on
    rng = np.random.default_rng(13)
    Q = SliceQuadrature(24, quat(0.0, 0.48, 0.6, -0.64))
    f = hermite_series(0, 2).rmul(quat(*rng.standard_normal(4)))
    for j, k in ((3, 2), (1, 1), (2, 0)):
        f = f + hermite_series(j, k).rmul(quat(*rng.standard_normal(4)))
    ps = rng.uniform(-1.0, 1.0, size=(6, 4))
    ps[0, 1:] = 0.0

    class ByPoints:      # f read through eval_many at the rule's points, to the cap
        eval_many = staticmethod(f.eval_many)

    for h in (f, ByPoints()):
        for k in (0, 1, 2):
            got = project_batch(k, h, ps, Q)
            assert got.shape == (6, 4)
            fv = values_on(f, Q.points)
            for v, pv in zip(got, ps):
                p = qarray.to_quaternion(pv)
                # each row is the projection at its own point, batched or alone
                assert np.max(np.abs(v - project_batch(k, h, pv, Q)[0])) < 1e-13
                kp = kernel_value(series("second", k), p, Q.points)
                ref = qarray.gram(kp[None], fv[None], Q.weights)[0, 0]
                assert np.max(np.abs(v - ref)) < 1e-11
    # P_2 keeps the level-2 part of f and drops the rest
    level2 = hermite_series(0, 2).rmul(f.coeff(2, 0)) + hermite_series(3, 2).rmul(
        f.coeff(2, 3))
    ref = level2.eval_many(ps)
    assert np.max(np.abs(project_batch(2, f, ps, Q) - ref)) < 1e-9
    assert project_batch(1, f, ps[:0], Q).shape == (0, 4)


def _recording_ladder(monkeypatch):
    """Record the truncation of every kernels._ladder call."""
    seen, ladder = [], kernels._ladder

    def record(z, k_max, terms):
        seen.append(terms)
        return ladder(z, k_max, terms)

    monkeypatch.setattr(kernels, "_ladder", record)
    return seen


def test_project_batch_stops_at_the_degree(monkeypatch):
    rng = np.random.default_rng(17)
    Q = SliceQuadrature(24, quat(0.0, 0.48, 0.6, -0.64))
    f = PolySliceSeries([[quat(*rng.standard_normal(4)) for _ in range(5)] for _ in range(3)])
    ps = rng.uniform(-1.0, 1.0, size=(6, 4))
    seen = _recording_ladder(monkeypatch)
    for k in (0, 1, 2, 3):
        # c_j = <A_{j,k}, f> is 0 past the degree 4, so the cap changes nothing
        assert np.array_equal(project_batch(k, f, ps, Q), project_batch(k, f, ps, Q, terms=f.degree))
    assert set(seen) == {f.degree}
    seen.clear()
    project_batch(1, f, ps, Q, terms=2)      # a cap below the degree still binds
    assert seen == [2, 2]

    # a function that is not a PolySliceSeries runs both ladders to the cap
    class Values:
        eval_many = staticmethod(f.eval_many)

    seen.clear()
    got = project_batch(1, Values(), ps, Q)
    assert seen == [kernels.SERIES_TERMS] * 2
    assert np.max(np.abs(got - project_batch(1, f, ps, Q))) < 1e-12
    assert np.array_equal(project_batch(2, PolySliceSeries(), ps, Q), np.zeros((6, 4)))


def test_project_batch_reads_a_series_from_its_stack(monkeypatch):
    # the slice-rule side of a projection takes the pairings' route, not eval_many
    rng = np.random.default_rng(31)
    Q = SliceQuadrature(16, quat(0.0, 0.48, 0.6, -0.64))
    f = PolySliceSeries([[quat(*rng.standard_normal(4)) for _ in range(5)] for _ in range(3)])
    ps = rng.uniform(-1.0, 1.0, size=(5, 4))
    before = [project_batch(k, f, ps, Q) for k in range(3)]

    def refuse(self, pts):
        raise AssertionError("eval_many on a slice rule")

    monkeypatch.setattr(PolySliceSeries, "eval_many", refuse)
    for k, ref in enumerate(before):
        assert np.array_equal(project_batch(k, f, ps, Q), ref)


def test_project_batch_refuses_an_inexact_rule_before_any_work(monkeypatch):
    # conj(A_{j,1}) f with f of degree 3 and level 1 has degree 2*3 + 1 + 1 = 8
    f = hermite_series(3, 1)
    monkeypatch.setattr(kernels, "values_on", None)      # any evaluation would raise TypeError
    with pytest.raises(QuadratureDegreeError, match="exact only through degree 7, integrand has degree 8"):
        project_batch(1, f, np.zeros((1, 4)), SliceQuadrature(4))
