"""Identity suites: every case of the acceptance grids is still made, the
suites agree with their references, and points and values stay (N, 4)
arrays from the draw to the residual."""
import json
import math

import numpy as np
import pytest

from spolyreg import (Config, SliceQuadrature, basis_image_scale, cli, gram_slice, hermite_quat,
                      hermite_series, poly, qarray, quad, quat, run_all, series, verify)
from spolyreg.quat import random_quaternion, random_unit
from spolyreg.report import Case, VerificationReport
from spolyreg.series import coeff_stack, slice_values

CASES_AT_SEED_3 = {
    "orthogonality": 10,
    "eigen": 116,
    "kernel-dual": 215,
    "reproduce": 20,
    "transform-basis": 49,
    "isometry": 14,
    "norms": 20,
    "spectrum": 9,
    "decomposition": 20,
    "star-identities": 14,
}


def test_case_counts_per_suite():
    reports = run_all(Config(seed=3))
    assert {r.suite: len(r.cases) for r in reports} == CASES_AT_SEED_3
    assert sum(CASES_AT_SEED_3.values()) == 487
    assert all(r.passed for r in reports)


# -- orthogonality: one complex slice Gram, lifted per slice ---------------

IDX = [(j, k) for j in range(9) for k in range(9)]


def test_orthogonality_gram_matches_quaternion_gram_slice(monkeypatch):
    # the suite's G on its first three slices against the full quaternion
    # route: gram_slice of H a on the slice's own rule, normalised
    config = Config(seed=5)
    products = []
    qmul = qarray.qmul

    def record(a, b):
        products.append(qmul(a, b))
        return products[-1]

    monkeypatch.setattr(qarray, "qmul", record)
    verify.verify_orthogonality(config)
    monkeypatch.undo()
    assert len(products) == 20       # two products per slice, the outer one last
    basis = coeff_stack([hermite_series(j, k) for j, k in IDX])
    scale = np.sqrt([math.pi * math.factorial(j) * math.factorial(k) for j, k in IDX])
    # the suite's draw order: the ten units, then each slice's right factors
    rng = np.random.default_rng([config.seed, 1])
    units = [random_unit(rng) for _ in range(10)]
    for s, unit in enumerate(units[:3]):
        right = [random_quaternion(rng) for _ in IDX]
        right = np.array([qarray.from_quaternion(a * (1.0 / abs(a))) for a in right])
        want = gram_slice(qarray.qmul(basis, right), SliceQuadrature(config.slice_nodes, unit))
        want /= (scale[:, None] * scale[None, :])[..., None]
        assert np.max(np.abs(products[2 * s + 1] - want)) < 1e-13


def test_hermite_coefficients_are_real_and_orthogonality_refuses_others(monkeypatch):
    stack = coeff_stack([hermite_series(j, k) for j, k in IDX])
    assert stack[..., 0].any() and not stack[..., 1:].any()
    monkeypatch.setattr(verify, "hermite_series",
                        lambda j, k: hermite_series(j, k).rmul(quat(1, 0, 0.5, 0)))
    with pytest.raises(ValueError, match="not real"):
        verify.verify_orthogonality(Config(), index_max=2)


def test_orthogonality_reads_values_once_and_pairs_no_quaternion_gram(monkeypatch):
    calls = {"slice_values": 0, "gram_slice": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (verify, quad, series):
        monkeypatch.setattr(mod, "slice_values", counted("slice_values", series.slice_values))
    monkeypatch.setattr(quad, "gram_slice", counted("gram_slice", quad.gram_slice))
    assert verify.verify_orthogonality(Config(seed=2)).passed
    assert calls == {"slice_values": 1, "gram_slice": 0}


# -- transform-basis: the stacked Hermite values as reference --------------

def test_transform_basis_residual_is_the_scalar_hermite_residual(monkeypatch):
    calls = []                          # one transform_batch per level: (k, js, points, values)
    transform = verify.transform_batch

    def record(k, phi, pts, rule):
        calls.append((k, [line.j for line in phi], pts, transform(k, phi, pts, rule)))
        return calls[-1][3]

    def refuse(*args):
        raise AssertionError("hermite_quat called inside the suite")

    monkeypatch.setattr(verify, "transform_batch", record)
    monkeypatch.setattr(poly, "hermite_quat", refuse)
    rep = verify.verify_transform_basis(Config(seed=4))
    monkeypatch.undo()
    assert rep.passed and len(rep.cases) == 49
    assert [(k, js, len(pts)) for k, js, pts, _ in calls] == [(k, list(range(7)), 140) for k in range(7)]
    cases = {(case.inputs["j"], case.inputs["k"]): case for case in rep.cases}
    assert list(cases) == [(j, k) for j in range(7) for k in range(7)]
    for k, js, pts, got in calls:
        z, unit = qarray.to_slice(pts)
        stacked = slice_values(coeff_stack([hermite_series(j, k) for j in js]), z)
        for j in js:
            case, rows, scale = cases[j, k], slice(20 * j, 20 * j + 20), basis_image_scale(j, k)
            q = case.inputs["worst_q"]
            n = [i for i, p in enumerate(pts[rows]) if np.array_equal(p, q)]
            assert q.shape == (4,) and len(n) == 1
            # the residual is the worst of h_j's own rows against the stacked values, to the bit
            ref = qarray.lift(stacked[rows, j], unit[rows]) * scale
            resid = np.linalg.norm(got[j, rows] - ref, axis=1)
            assert case.residual == resid[n[0]] == resid.max()
            want = np.linalg.norm(got[j, rows][n[0]] - qarray.from_quaternion(
                hermite_quat(j, k, qarray.to_quaternion(q)) * scale))
            # the two references round H_{j,k} differently: 16 eps times the sum
            # of its absolute terms (measured worst: 2 eps of it)
            terms = scale * sum(math.comb(j, s) * math.comb(k, s) * math.factorial(s)
                                * np.linalg.norm(q) ** (j + k - 2 * s) for s in range(min(j, k) + 1))
            assert abs(case.residual - want) <= 16 * np.finfo(float).eps * terms


def test_transform_basis_builds_one_coherent_table_per_level(monkeypatch):
    from spolyreg import bargmann
    sizes = []
    b2_slice = bargmann._b2_slice

    def counted(k, ts, qpts):
        sizes.append((k, len(qpts)))
        return b2_slice(k, ts, qpts)

    monkeypatch.setattr(bargmann, "_b2_slice", counted)
    assert verify.verify_transform_basis(Config(seed=2)).passed
    assert sizes == [(k, 140) for k in range(7)]


# -- eigen: batched finite differences, one Hermite build per (j, k) ---------

def test_eigen_makes_no_scalar_evaluation_and_builds_each_hermite_once(monkeypatch):
    evals, built = [], []

    def count_eval(*args, **kwargs):
        evals.append(1)
        return scalar_eval(*args, **kwargs)

    scalar_eval = series._eval
    monkeypatch.setattr(series, "_eval", count_eval)
    monkeypatch.setattr(verify, "hermite_series", lambda j, k: built.append((j, k))
                        or hermite_series(j, k))
    rep = verify.verify_eigen(Config(seed=3))
    assert rep.passed and len(rep.cases) == CASES_AT_SEED_3["eigen"]
    assert evals == []
    assert sorted(built) == [(j, k) for j in range(11) for k in range(6)]


# -- points and values as (N, 4) arrays, draw to residual ------------------

def test_bounded_reads_the_scalar_draws_bit_for_bit():
    # n inline scalar draws of scale r/2, each longer than r rescaled onto |q| = r
    rescaled = 0
    for seed, r, n in ((1, 1.5, 50), (3, 2.0, 20), (20241, 1.5, 5)):
        rng = np.random.default_rng(seed)
        want = []
        for _ in range(n):
            q = random_quaternion(rng, r / 2.0)
            if abs(q) > r:
                q, rescaled = q * (r / abs(q)), rescaled + 1
            want.append(qarray.from_quaternion(q))
        rng_batch = np.random.default_rng(seed)
        got = verify._bounded(rng_batch, r, n)
        assert got.shape == (n, 4) and np.array_equal(got, np.array(want))
        assert rng_batch.normal() == rng.normal()      # the stream is left where the loop left it
    assert rescaled > 0


def test_kernel_identity_suites_make_no_quaternion_round_trip(monkeypatch):
    def refuse(a):
        raise AssertionError("to_quaternion called inside the suite")

    monkeypatch.setattr(qarray, "to_quaternion", refuse)
    for suite in (verify.verify_kernel_dual, verify.verify_reproduce, verify.verify_decomposition,
                  verify.verify_transform_basis):
        assert suite(Config(seed=3)).passed


@pytest.mark.parametrize("name", ["reproduce", "decomposition"])
def test_projection_residuals_match_the_scalar_evaluation(monkeypatch, name):
    # the suites read f(p) from f.eval_many; the scalar PolySliceSeries.eval
    # rounds each term differently, by at most 16 eps times the sum of
    # |c_kj| |p|^(j+k) (measured worst: 0.06 of it at seeds 1, 3, 7, 11, 20241)
    eps = np.finfo(float).eps
    project = verify.project_batch
    for seed in (1, 3, 20241):
        calls = []                      # every project_batch call as (levels, f, points, values)

        def record(k, f, ps, Q, terms):
            calls.append((k, f, ps, project(k, f, ps, Q, terms)))
            return calls[-1][3]

        monkeypatch.setattr(verify, "project_batch", record)
        rep = verify.SUITES[name](Config(seed=seed))
        monkeypatch.undo()
        # reproduce projects onto level k, decomposition onto the levels k <= m, one call each
        assert [k for k, *_ in calls] == (list(range(4)) if name == "reproduce"
                                          else [range(m + 1) for m in range(4)])
        assert len(rep.cases) == 5 * len(calls) == 20
        cases = iter(rep.cases)
        for _, f, ps, got in calls:
            for p, g in zip(ps, got):
                case = next(cases)
                assert np.array_equal(case.inputs["p"], p) and np.array_equal(case.actual, g)
                scalar = f.eval(quat(*p.tolist()))
                want = abs(qarray.to_quaternion(g) - scalar)
                r = math.sqrt(qarray.norm_sq(p))
                terms = sum(abs(c) * r ** (j + k)
                            for k, row in enumerate(f.coeffs) for j, c in enumerate(row))
                assert abs(case.residual - want) <= 16 * eps * terms


# -- reports: a NaN residual fails, an array row serialises as a Quaternion --

@pytest.mark.parametrize("residuals", [[1e-15, math.nan], [math.nan, 1e-15], [0.0, 1e-15, math.nan]])
def test_nan_residual_fails_the_report_whatever_the_order(residuals):
    rep = VerificationReport("reproduce", 1e-9)
    for r in residuals:
        rep.add({}, 0.0, 0.0, r)
    assert math.isnan(rep.max_residual) and not rep.passed
    assert math.isnan(json.loads(rep.to_json())["max_residual"])


def test_nan_projection_row_fails_the_suite(monkeypatch):
    # the last point of each batch projects to NaN: its array residual is NaN
    project = verify.project_batch

    def poisoned(*args):
        out = project(*args)
        out[-1] = math.nan
        return out

    monkeypatch.setattr(verify, "project_batch", poisoned)
    rep = verify.verify_reproduce(Config(seed=3))
    assert math.isnan(rep.cases[4].residual) and not math.isnan(rep.cases[0].residual)
    assert math.isnan(rep.max_residual) and not rep.passed


def test_verify_all_reports_a_nan_suite_and_exits_1(monkeypatch, capsys):
    good, bad = VerificationReport("reproduce", 1e-9), VerificationReport("decomposition", 1e-9)
    good.add({}, 0.0, 0.0, 1e-15)
    bad.add({}, 0.0, 0.0, math.nan)
    monkeypatch.setattr(cli, "run_all", lambda config: [good, bad])
    assert cli.main(["verify", "--suite", "all"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False and math.isnan(doc["max_residual"])


def test_case_serialises_an_array_row_as_its_quaternion():
    p = quat(0.25, -1.5, 3.0, 1e-300)
    row = qarray.from_quaternion(p)
    as_quat = Case({"p": p, "pair": [p, p]}, p, 1.0, 0.5).to_dict()
    as_row = Case({"p": row, "pair": [row, row]}, row, np.float64(1.0), np.float64(0.5)).to_dict()
    assert json.dumps(as_row) == json.dumps(as_quat)
    assert as_row["inputs"]["p"] == [0.25, -1.5, 3.0, 1e-300]
