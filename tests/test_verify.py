"""Identity suites: every case of the acceptance grids is still made."""
from spolyreg import Config, run_all

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
