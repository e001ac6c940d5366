"""Identity suites: every case of the acceptance grids is still made, and
the orthogonality and transform-basis suites agree with their references."""
import math

import numpy as np
import pytest

from spolyreg import (Config, SliceQuadrature, basis_image_scale, gram_slice, hermite_quat,
                      hermite_series, poly, qarray, quad, quat, run_all, series, verify)
from spolyreg.quat import random_quaternion, random_unit
from spolyreg.series import coeff_stack

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
    batches = []
    transform = verify.transform_batch

    def record(k, phi, pts, rule):
        batches.append((k, phi.j, pts, transform(k, phi, pts, rule)))
        return batches[-1][3]

    def refuse(*args):
        raise AssertionError("hermite_quat called inside the suite")

    monkeypatch.setattr(verify, "transform_batch", record)
    monkeypatch.setattr(poly, "hermite_quat", refuse)
    rep = verify.verify_transform_basis(Config(seed=4))
    monkeypatch.undo()
    assert rep.passed and len(rep.cases) == len(batches) == 49
    for case, (k, j, pts, got) in zip(rep.cases, batches):
        assert (case.inputs["j"], case.inputs["k"]) == (j, k)
        q = case.inputs["worst_q"]
        n = [i for i, p in enumerate(pts) if np.array_equal(p, qarray.from_quaternion(q))]
        assert len(n) == 1
        scale = basis_image_scale(j, k)
        # the residual is the worst row against the stacked values, to the bit
        resid = np.linalg.norm(got - hermite_series(j, k).eval_many(pts) * scale, axis=1)
        assert case.residual == resid[n[0]] == resid.max()
        want = np.linalg.norm(got[n[0]] - qarray.from_quaternion(hermite_quat(j, k, q) * scale))
        # the two references round H_{j,k} differently: 16 eps times the sum
        # of its absolute terms (measured worst: 2 eps of it)
        terms = scale * sum(math.comb(j, s) * math.comb(k, s) * math.factorial(s)
                            * abs(q) ** (j + k - 2 * s) for s in range(min(j, k) + 1))
        assert abs(case.residual - want) <= 16 * np.finfo(float).eps * terms
