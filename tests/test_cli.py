"""Command line surface: golden values, schemas, exit codes."""
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

BIN = [sys.executable, "-m", "spolyreg"]


def run(*args, **kw):
    return subprocess.run(BIN + list(args), capture_output=True, text=True, **kw)


def run_main(capsys, *args):
    """cli.main(args) in this interpreter, read back as run() reads a fresh
    one; an argparse refusal leaves through SystemExit with its status."""
    from spolyreg.cli import main
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return subprocess.CompletedProcess(list(args), code, out.out, out.err)


def test_eval_hermite_vanishes_on_unit_imaginary(capsys):
    r = run_main(capsys, "eval", "hermite-q", "--m", "1", "--n", "1", "--q", "0+1i+0j+0k")
    assert r.returncode == 0
    assert r.stdout.strip() == "0.0,0.0,0.0,0.0"


def test_eval_hermite_batch_within_rounding_of_exact(tmp_path, capsys):
    # the batch route against exact rational values at the same float points:
    # within (m+n+1) eps sum_s |c_s| |q|^(m+n-2s), the rounding bound that the
    # scalar Quaternion route also meets
    from spolyreg.poly import hermite_quat
    from spolyreg.quat import Quaternion
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    q = np.vstack([rng.standard_normal((6, 4)) * s for s in (0.5, 1.5, 3.0)]
                  + [[[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [-1.5, 0, 0.5, 0]]])
    pts = tmp_path / "q.csv"
    pts.write_text("".join(",".join(map(repr, row)) + "\n" for row in q.tolist()))
    for m, n in ((0, 0), (1, 1), (3, 2), (6, 6), (10, 4), (0, 12), (20, 20), (30, 0), (30, 30)):
        r = run_main(capsys, "eval", "hermite-q", "--m", str(m), "--n", str(n),
                     "--points", str(pts))
        assert r.returncode == 0
        got = np.array([[float(c) for c in line.split(",")] for line in r.stdout.splitlines()])
        assert got.shape == q.shape
        for row, value in zip(q.tolist(), got):
            exact = hermite_quat(m, n, Quaternion(*map(Fraction, row)))
            exact = np.array([float(c) for c in exact.as_tuple()])
            scalar = np.array(hermite_quat(m, n, Quaternion(*row)).as_tuple(), dtype=float)
            radius = math.sqrt(math.fsum(c * c for c in row))
            bound = (m + n + 1) * eps * sum(
                math.comb(m, s) * math.comb(n, s) * math.factorial(s) * radius ** (m + n - 2 * s)
                for s in range(min(m, n) + 1))
            assert np.linalg.norm(value - exact) <= bound, (m, n, row)
            assert np.linalg.norm(scalar - exact) <= bound, (m, n, row)
    for m in ("31", "-1"):
        r = run_main(capsys, "eval", "hermite-q", "--m", m, "--n", "0", "--q", "1")
        assert r.returncode == 2 and r.stdout == "" and "outside 0..30" in r.stderr
    # a value that leaves double range is refused, not printed as nan
    for q in ("1e10", "1e20+1e20i"):
        r = run_main(capsys, "eval", "hermite-q", "--m", "30", "--n", "30", "--q", q)
        assert r.returncode == 2 and r.stdout == "", q
        assert r.stderr == "error: H_{30,30} leaves double range on this batch\n"


def test_eval_kernel_star_at_origin():
    r = run("eval", "kernel", "--kind", "2", "--level", "0",
            "--p", "0", "--q", "0", "--method", "star")
    assert r.returncode == 0
    fields = r.stdout.strip().split(",")
    # p(4), q(4), value(4), method, tail
    assert len(fields) == 14
    assert float(fields[8]) == pytest.approx(1 / math.pi, rel=1e-14)
    assert fields[12] == "star"


def test_eval_kernel_series_reports_tail(capsys):
    r = run_main(capsys, "eval", "kernel", "--kind", "1", "--level", "1",
            "--p", "0.5+0.5i", "--q", "0.25-0.1j", "--method", "series")
    assert r.returncode == 0
    fields = r.stdout.strip().split(",")
    assert fields[12] == "series"
    assert 0.0 <= float(fields[13]) < 1e-8


def test_eval_kernel_refuses_rows_past_double_range(tmp_path, capsys):
    # K(30, 30) = e^900/pi is past double range: the series tail reads inf,
    # and the row is refused by number, with no floating-point warning
    r = run_main(capsys, "eval", "kernel", "--level", "0", "--p", "30", "--q", "30")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: kernel row 1 (q = 30.0) leaves double range: series value ")
    assert r.stderr.endswith(", tail inf\n")
    pts = tmp_path / "q.csv"
    pts.write_text("0.5,0,0,0\n30,0,0,0\n0,0.2,0,0\n")
    r = run_main(capsys, "eval", "kernel", "--kind", "1", "--level", "2", "--p", "30",
                 "--points", str(pts))
    assert r.returncode == 2 and r.stdout == ""
    assert "kernel row 2 (q = 30.0)" in r.stderr
    # the rows in range still print
    pts.write_text("0.5,0,0,0\n0,0.2,0,0\n")
    r = run_main(capsys, "eval", "kernel", "--kind", "1", "--level", "2", "--p", "30",
                 "--points", str(pts))
    assert r.returncode == 0 and len(r.stdout.splitlines()) == 2


def test_eval_kernel_refuses_rows_whose_terms_still_grow(capsys):
    # e^49/pi = 6.07e20 and e^210.25/pi = 6.51e90 are in double range, but
    # the star (40 terms) and series (200 terms) truncations stop while
    # their terms still grow: the tail reads inf and the row is refused as
    # a truncation that has not converged, not as one past double range
    for method, x, terms in (("star", "7", 40), ("series", "14.5", 200)):
        r = run_main(capsys, "eval", "kernel", "--level", "0", "--method", method,
                     "--p", x, "--q", x)
        assert r.returncode == 2 and r.stdout == "", method
        assert r.stderr.startswith(
            f"error: kernel row 1 (q = {float(x)!r}): {method} sum not converged, its terms "
            f"still grow at the truncation terms = {terms}: {method} value ")
        assert r.stderr.endswith(", tail inf\n")


def test_eval_psi_constant_case(capsys):
    r = run_main(capsys, "eval", "psi", "--mu", "0", "--j", "2", "--q", "1+0i+0j+0k")
    assert r.returncode == 0
    assert r.stdout.strip() == "1.0,0.0,0.0,0.0"


def test_transform_ground_state():
    r = run("transform", "--level", "0", "--phi", "h:0", "--q", "0")
    assert r.returncode == 0
    fields = r.stdout.strip().split(",")
    assert len(fields) == 8  # q quadruple then value quadruple
    assert float(fields[4]) == pytest.approx(math.pi ** -0.25, rel=1e-12)


def test_transform_batch_and_empty(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0,0,0\n0.5,0.25,0,0\n")
    r = run_main(capsys, "transform", "--level", "1", "--phi", "h:2", "--points", str(pts))
    assert r.returncode == 0
    assert len(r.stdout.strip().splitlines()) == 2
    empty = tmp_path / "none.csv"
    empty.write_text("")
    r = run_main(capsys, "transform", "--level", "1", "--phi", "h:2", "--points", str(empty))
    assert r.returncode == 0
    assert r.stdout.strip() == ""


def test_table_norms_golden_row():
    r = run("table", "norms", "--n", "1", "--jmax", "3")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,j,closed,quadrature,residual"
    row = dict()
    for line in lines[1:]:
        n, j, closed, quad, res = line.split(",")
        row[(int(n), int(j))] = (float(closed), float(res))
    assert row[(1, 1)][0] == pytest.approx(2 * math.pi ** 2, rel=1e-13)
    assert all(res < 1e-8 for _, res in row.values())


def test_table_hermite_gram_diagonal(capsys):
    r = run_main(capsys, "table", "hermite-gram", "--max", "3")
    assert r.returncode == 0
    for line in r.stdout.strip().splitlines()[1:]:
        m, n, closed, quad, res = line.split(",")
        assert float(closed) == pytest.approx(
            math.pi * math.factorial(int(m)) * math.factorial(int(n)), rel=1e-13)
        assert float(res) < 1e-10


def test_table_laguerre_sum(capsys):
    r = run_main(capsys, "table", "laguerre-sum", "--n", "3")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 11  # header + 10 abscissae
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-12


def test_eval_psi_overflow_exit_two(capsys):
    # e^(|q|^2) leaves double range: refused, not printed as nan with exit 0
    for mu in ("0.5", "0.5+0.25i"):
        for q in ("30", "40"):
            r = run_main(capsys, "eval", "psi", "--mu", mu, "--j", "0", "--q", q)
            assert r.returncode == 2, (mu, q)
            assert r.stdout == ""
            assert r.stderr.startswith("error: Kummer series not converged")
            assert r.stderr.count("\n") == 1


def test_spectrum_probe_refuses_underflowed_masses(capsys):
    # the far annulus masses of an integer mu underflow to 0 past r_max = 27;
    # 0/0 used to read as divergence and print "converged": false
    for rmax in ("32", "64"):
        r = run_main(capsys, "spectrum-probe", "--mu", "2", "--rmax", rmax)
        assert r.returncode == 2, rmax
        assert r.stdout == ""
        assert f"r_max = {rmax}" in r.stderr and "window" in r.stderr


def test_spectrum_probe_json(capsys):
    r = run("spectrum-probe", "--mu", "0.5", "--j", "0", "--rmax", "8")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["schema"] == 1
    assert d["converged"] is False
    r = run_main(capsys, "spectrum-probe", "--mu", "2", "--j", "0", "--rmax", "8")
    assert json.loads(r.stdout)["converged"] is True


def test_verify_single_suite_json():
    r = run("verify", "--suite", "norms")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["schema"] == 1
    assert d["suite"] == "norms"
    assert d["passed"] is True
    assert d["n_cases"] == len(d["cases"]) > 0
    assert d["max_residual"] < d["tolerance"]


def test_verify_exit_one_on_failure(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"norms": 1e-30}}))
    r = run_main(capsys, "verify", "--suite", "norms", "--config", str(cfg))
    assert r.returncode == 1
    assert json.loads(r.stdout)["passed"] is False


def test_verify_grid_flags(capsys):
    r = run_main(capsys, "verify", "--suite", "eigen", "--max-degree", "3")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["passed"] is True
    # spectrum takes no degree grid
    r = run_main(capsys, "verify", "--suite", "spectrum", "--max-degree", "3")
    assert r.returncode == 2
    assert "does not take" in r.stderr
    # a negative grid flag is refused before any work, not passed vacuously
    for argv in (("verify", "--suite", "reproduce", "--levels", "-1"),
                 ("verify", "--suite", "transform-basis", "--levels", "-1"),
                 ("verify", "--suite", "norms", "--levels", "-1"),
                 ("verify", "--suite", "decomposition", "--max-degree", "-1"),
                 ("verify", "--suite", "orthogonality", "--max-degree", "-1"),
                 ("verify", "--suite", "kernel-dual", "--levels", "-1"),
                 ("verify", "--suite", "isometry", "--max-degree", "-1"),
                 ("table", "norms", "--n", "1", "--jmax", "-1"),
                 ("table", "norms", "--n", "-1"),
                 ("table", "hermite-gram", "--max", "-1"),
                 ("table", "laguerre-sum", "--n", "-1")):
        r = run_main(capsys, *argv)
        assert r.returncode == 2, argv
        assert "is negative" in r.stderr and r.stdout == ""


def test_empty_report_does_not_pass():
    from spolyreg.report import VerificationReport
    rep = VerificationReport("norms", 1e-10)
    assert rep.passed is False and rep.to_dict()["n_cases"] == 0
    rep.add({}, 1.0, 1.0, 0.0)
    assert rep.passed is True


def test_bad_quaternion_literal_exit_two(capsys):
    r = run_main(capsys, "eval", "psi", "--mu", "nope", "--j", "0", "--q", "0")
    assert r.returncode == 2
    assert "quaternion literal" in r.stderr
    r = run_main(capsys, "eval", "kernel", "--level", "0", "--p", "1e400", "--q", "0")
    assert r.returncode == 2
    assert "not finite" in r.stderr
    for t in ("nan", "inf"):
        r = run_main(capsys, "eval", "bargmann-kernel", "--level", "0", "--t", t, "--q", "0")
        assert r.returncode == 2, t
        assert "not finite" in r.stderr and r.stdout == ""
    for flags in (("--rmax", "nan"), ("--rmax", "inf"), ("--rmax", "0"),
                  ("--windows", "0"), ("--windows", "1"), ("--windows", "2")):
        r = run_main(capsys, "spectrum-probe", "--mu", "1", *flags)
        assert r.returncode == 2, flags
        assert r.stdout == ""
    for argv in (("table", "hermite-gram", "--max", "24"),
                 ("verify", "--suite", "orthogonality", "--max-degree", "24")):
        r = run_main(capsys, *argv)
        assert r.returncode == 2, argv
        assert "exact only through degree 79" in r.stderr and r.stdout == ""


@pytest.mark.parametrize("method", ["series", "star"])
def test_negative_terms_exit_two(method, capsys):
    from spolyreg.cli import main
    assert main(["eval", "kernel", "--level", "0", "--p", "0", "--q", "0",
                 "--method", method, "--terms", "-5"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("terms", ["--terms=-1", "--terms=201"])
def test_star_terms_out_of_range_exit_two(terms, capsys):
    from spolyreg.cli import main
    assert main(["eval", "kernel", "--level", "1", "--p", "0.5+0.5i", "--q", "0.25-0.1j",
                 "--method", "star", terms]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "outside 0..200" in out.err


def test_series_terms_below_level_exit_two(capsys):
    from spolyreg.cli import main
    assert main(["eval", "kernel", "--level", "5", "--terms", "2",
                 "--p", "0.3", "--q", "0.2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "series truncation 2 is below the level 5" in out.err


def test_unknown_suite_rejected(capsys):
    r = run_main(capsys, "verify", "--suite", "bogus")
    assert r.returncode == 2


def test_missing_points_file_exit_two(tmp_path, capsys):
    r = run_main(capsys, "eval", "hermite-q", "--m", "1", "--n", "0",
            "--points", str(tmp_path / "absent.csv"))
    assert r.returncode == 2


@pytest.mark.parametrize("argv", [("eval", "hermite-q", "--m", "1", "--n", "0"),
                                  ("eval", "psi", "--mu", "0", "--j", "1"),
                                  ("eval", "bargmann-kernel", "--level", "0", "--t", "0"),
                                  ("eval", "kernel", "--level", "0", "--p", "1"),
                                  ("transform", "--level", "0", "--phi", "h:0")])
def test_q_with_points_refused(argv, tmp_path, capsys):
    pts = tmp_path / "q.csv"
    pts.write_text("0.5,0,0,0\n")
    r = run_main(capsys, *argv, "--q", "1", "--points", str(pts))
    assert r.returncode == 2
    assert "give --q or --points, not both" in r.stderr and r.stdout == ""


def test_main_reuses_one_stateless_parser(tmp_path, capsys, monkeypatch):
    from spolyreg import cli
    pts = tmp_path / "q.csv"
    pts.write_text("0.5,0.3,-0.2,0\n-0.7,0,0,0.1\n")
    kernel = ("eval", "kernel", "--kind", "1", "--level", "2", "--p=0.4-0.6i+0.2k",
              "--points", str(pts))
    r = run_main(capsys, "eval", "kernel", "--kind", "3", "--level", "0", "--p", "0", "--q", "0")
    assert r.returncode == 2 and "invalid choice" in r.stderr and r.stdout == ""
    r = run_main(capsys, "transform", "--level", "0", "--phi", "h:0", "--q", "9i")
    assert r.returncode == 2 and "|Im q|" in r.stderr and r.stdout == ""
    first, second = run_main(capsys, *kernel), run_main(capsys, *kernel)
    assert first.returncode == second.returncode == 0
    assert len(first.stdout.splitlines()) == 2
    assert first.stdout == second.stdout == run(*kernel).stdout
    r = run_main(capsys, "table", "laguerre-sum", "--n", "3")
    assert r.returncode == 0 and len(r.stdout.splitlines()) == 11
    # main builds one parser per process; build_parser always builds anew
    build, builds = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    for argv in (kernel, ("table", "laguerre-sum", "--n", "1"), kernel):
        assert run_main(capsys, *argv).returncode == 0
    assert len(builds) == 1
    assert build() is not build()


def test_row_blocks_print_library_floats(tmp_path, capsys):
    from spolyreg import qarray
    from spolyreg.bargmann import HermiteLine, b2_grid, transform_batch
    from spolyreg.config import Config
    from spolyreg.kernels import KernelSpec, kernel_tail, kernel_value
    from spolyreg.quad import gauss_hermite
    from spolyreg.quat import parse_quaternion
    # a real point, q = 0, signed zeros and cells in exponent form
    text = "0.7,0,0,0\n0,0,0,0\n-0.0,0.5,-0.0,0\n1e-5,-2e-7,0,3e-6\n-0.4,0.3,-0.2,0.6\n"
    pts = tmp_path / "q.csv"
    pts.write_text(text)
    q = np.array([[float(c) for c in line.split(",")] for line in text.splitlines()])
    cfg = Config()

    def cells(*argv):
        r = run_main(capsys, *argv, "--points", str(pts))
        assert r.returncode == 0 and r.stdout.endswith("\n")
        return [line.split(",") for line in r.stdout.splitlines()]

    def want(*blocks):
        return [[repr(float(v)) for v in row] for row in np.hstack(blocks).tolist()]

    assert cells("transform", "--level", "2", "--phi", "h:1") == want(
        q, transform_batch(2, HermiteLine(1), q, gauss_hermite(cfg.line_nodes)))
    # the levels are summed from 0.0, so a kernel value -0.0 prints as 0.0
    assert cells("eval", "bargmann-kernel", "--level", "1", "--t", "-0.8") == want(
        0.0 + b2_grid(1, [-0.8], q)[:, 0])
    p = parse_quaternion("0.4-0.6i+0.2k")
    values = []
    for kind, method, terms in (("first", "series", cfg.series_terms),
                                ("second", "star", cfg.star_terms)):
        spec = KernelSpec(kind=kind, level=2, method=method, terms=terms)
        got = cells("eval", "kernel", "--kind", "1" if kind == "first" else "2", "--level", "2",
                    "--method", method, "--p=0.4-0.6i+0.2k")
        ps = np.broadcast_to(qarray.from_quaternion(p), q.shape)
        assert got == [row + [method, repr(float(t))] for row, t in zip(
            want(ps, q, kernel_value(spec, p, q)), kernel_tail(spec, p, q))]
        values += [c for row in got for c in row[8:12]]
    assert "-0.0" in values and any("e-" in c for c in values)
    pts.write_text("")
    for argv in (("eval", "hermite-q", "--m", "1", "--n", "0"),
                 ("eval", "psi", "--mu", "0", "--j", "1"),
                 ("eval", "bargmann-kernel", "--level", "0", "--t", "0"),
                 ("eval", "kernel", "--level", "0", "--p", "1", "--method", "star"),
                 ("eval", "kernel", "--level", "0", "--p", "1"),
                 ("transform", "--level", "0", "--phi", "h:0")):
        r = run_main(capsys, *argv, "--points", str(pts))
        assert (r.returncode, r.stdout) == (0, ""), argv


def test_malformed_points_file_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0,0,0\n1,2,3\n")
    r = run_main(capsys, "eval", "hermite-q", "--m", "1", "--n", "0", "--points", str(bad))
    assert r.returncode == 2
    assert "bad.csv:2" in r.stderr and "4 columns" in r.stderr
    for row in ("nan,0,0,0", "0,inf,0,0", "0,0,-inf,0", "1e400,0,0,0"):
        bad.write_text(f"0,0,0,0\n{row}\n")
        for argv in (("eval", "hermite-q", "--m", "1", "--n", "0"),
                     ("eval", "kernel", "--level", "0", "--p", "0"),
                     ("transform", "--level", "0", "--phi", "h:0")):
            r = run_main(capsys, *argv, "--points", str(bad))
            assert r.returncode == 2, (row, argv)
            assert "bad.csv:2" in r.stderr and "non-finite" in r.stderr
            assert r.stdout == ""
    samples = tmp_path / "samples.csv"
    samples.write_text("0,1\n0.5,nan\n")
    r = run_main(capsys, "transform", "--level", "0", "--phi", str(samples), "--q", "0")
    assert r.returncode == 2
    assert "samples.csv:2" in r.stderr and "non-finite" in r.stderr


def test_bad_basis_label_exit_two(capsys):
    r = run_main(capsys, "transform", "--level", "0", "--phi", "h:99", "--q", "0")
    assert r.returncode == 2
    # the line quadrature loses accuracy beyond |Im q| = 5.5
    r = run_main(capsys, "transform", "--level", "0", "--phi", "h:0", "--q", "9i")
    assert r.returncode == 2
    assert "|Im q|" in r.stderr and r.stdout == ""
    r = run_main(capsys, "transform", "--level", "0", "--phi", "h:0", "--q", "1.5+5i")
    assert r.returncode == 0
    assert float(r.stdout.split(",")[4]) == pytest.approx(math.pi ** -0.25, rel=1e-9)
    # the coherent state leaves the line rule's nodes beyond |Re q| = 8
    r = run_main(capsys, "transform", "--level", "0", "--phi", "h:0", "--q", "15")
    assert r.returncode == 2
    assert "|Re q|" in r.stderr and r.stdout == ""
    r = run_main(capsys, "transform", "--level", "0", "--phi", "h:0", "--q=-8+5.5j")
    assert r.returncode == 0
    assert float(r.stdout.split(",")[4]) == pytest.approx(math.pi ** -0.25, rel=1e-7)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"definitely_not_a_key": 1}))
    r = run_main(capsys, "verify", "--suite", "spectrum", "--config", str(cfg))
    assert r.returncode == 2
    # a value of the wrong type or range is refused by field name
    for field, value, argv in (
            ("seed", 1.5, ("verify", "--suite", "spectrum")),
            ("default_slice", "x", ("table", "hermite-gram", "--max", "1")),
            ("degree_cap", 60, ("eval", "hermite-q", "--m", "60", "--n", "60", "--q", "3+2i")),
            ("line_nodes", True, ("transform", "--level", "0", "--phi", "h:0",
                                  "--q", "0.5+1i")),
            # too few line nodes for the transform's accepted domain
            ("line_nodes", 8, ("transform", "--level", "0", "--phi", "h:0",
                               "--q", "0.5+5i"))):
        cfg.write_text(json.dumps({field: value}))
        r = run_main(capsys, *argv, "--config", str(cfg))
        assert r.returncode == 2, field
        assert repr(field) in r.stderr and "Traceback" not in r.stderr
        assert r.stdout == ""


def test_config_is_read_at_the_leaf_command_only(tmp_path, capsys):
    # --config belongs to the leaf command; before a nested subcommand it is
    # refused instead of silently dropped
    cfg, bad = tmp_path / "c.json", tmp_path / "bad.json"
    cfg.write_text(json.dumps({"series_terms": 3}))
    bad.write_text(json.dumps({"slice_nodes": 0}))
    kernel = ("--level", "0", "--p", "1", "--q", "1")
    r = run_main(capsys, "eval", "kernel", "--config", str(cfg), *kernel)
    assert r.returncode == 0 and r.stdout.split(",")[8] == "0.8488263631567752"
    r = run_main(capsys, "eval", "kernel", *kernel)
    assert r.returncode == 0 and r.stdout.split(",")[8] == "0.8652559794322653"
    r = run_main(capsys, "table", "norms", "--config", str(bad), "--n", "0", "--jmax", "0")
    assert r.returncode == 2 and "'slice_nodes'" in r.stderr and r.stdout == ""
    for argv in (("eval", "--config", str(cfg), "kernel", *kernel),
                 ("table", "--config", str(bad), "norms", "--n", "0", "--jmax", "0")):
        r = run_main(capsys, *argv)
        assert r.returncode == 2 and r.stdout == "", argv


def test_config_tolerance_overrides_keep_defaults():
    from spolyreg.config import DEFAULT_TOLERANCES, Config
    cfg = Config(tolerances={"norms": 1e-3})
    assert cfg.tolerance("norms") == 1e-3
    for suite, tol in DEFAULT_TOLERANCES.items():
        if suite != "norms":
            assert cfg.tolerance(suite) == tol


def test_kernel_dual_refuses_series_terms_below_its_top_level(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"series_terms": 3}))
    r = run_main(capsys, "verify", "--suite", "kernel-dual", "--config", str(cfg))
    assert r.returncode == 2 and r.stdout == ""
    assert "series truncation 3 is below the level 4" in r.stderr


def test_config_tolerance_refuses_an_unknown_suite():
    from spolyreg.config import Config
    from spolyreg.verify import SUITES
    cfg = Config()
    for suite in SUITES:
        assert cfg.tolerance(suite) >= 0.0
    with pytest.raises(ValueError, match="unknown suite 'orthogonalty'"):
        cfg.tolerance("orthogonalty")


def test_eval_kernel_series_rows_match_single_points(tmp_path, capsys):
    from spolyreg.cli import main
    qs = ["0.5+0.3i-0.2j", "-0.7+0.1k", "1.1", "0.2-0.4i+0.6j+0.3k"]
    pts = tmp_path / "q.csv"
    pts.write_text("0.5,0.3,-0.2,0\n-0.7,0,0,0.1\n1.1,0,0,0\n0.2,-0.4,0.6,0.3\n")
    for kind, method in [(k, m) for k in ("1", "2") for m in ("series", "star")]:
        argv = ["eval", "kernel", "--kind", kind, "--level", "2", "--p=0.4-0.6i+0.2k",
                "--method", method]
        assert main(argv + ["--points", str(pts)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == len(qs)
        for q, row in zip(qs, rows):
            assert main(argv + [f"--q={q}"]) == 0
            single = capsys.readouterr().out.strip().split(",")
            got = row.split(",")
            assert got[:8] == single[:8] and got[12:] == single[12:]
            for a, b in zip(got[8:12], single[8:12]):
                assert abs(float(a) - float(b)) <= 1e-14 * max(1.0, abs(float(b)))


def test_eval_bargmann_kernel_first_kind_sums_levels(tmp_path, capsys):
    from spolyreg.cli import main
    pts = tmp_path / "q.csv"
    pts.write_text("0.2,-0.5,0.7,0.3\n-1.1,0,0,0.4\n0.6,0.3,-0.2,0\n")

    def rows(kind, level, t):
        assert main(["eval", "bargmann-kernel", "--kind", str(kind), "--level", str(level),
                     "--t", str(t), "--points", str(pts)]) == 0
        return [[float(c) for c in line.split(",")]
                for line in capsys.readouterr().out.splitlines()]

    for t in (-0.8, 0.0, 1.3):
        for n in range(4):
            first = rows(1, n, t)
            assert len(first) == 3
            total = [[0.0] * 4 for _ in first]
            for k in range(n + 1):
                total = [[a + b for a, b in zip(s, v)] for s, v in zip(total, rows(2, k, t))]
            for got, want in zip(first, total):
                assert math.dist(got, want) < 1e-12
    with pytest.raises(SystemExit) as exc:     # argparse refuses a negative level
        main(["eval", "bargmann-kernel", "--kind", "1", "--level", "-1", "--t", "0", "--q", "0"])
    assert exc.value.code == 2


def test_config_via_environment(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"slice_nodes": 24}))
    monkeypatch.setenv("SPOLYREG_CONFIG", str(cfg))
    r = run_main(capsys, "verify", "--suite", "norms")
    assert r.returncode == 0
    assert json.loads(r.stdout)["passed"] is True
