"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, runs one pass of
public spolyreg calls (the library API or the CLI in-process), and
checks the outputs of every pass after the timed region has ended.

    acceptance      the ten verify suites on the default acceptance grids
    kernel-points   CLI `eval kernel` rows, series and star method
    transform-grid  CLI `transform`, isometry Grams, CLI `table norms`
    exact-spectral  exact-rational star calculus and spectrum probes

A pass returns a Pass: its wall time, named sub-timings and counts, and
the raw outputs that `check` later compares with independent values.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import median

import numpy as np

from spolyreg import bargmann, cli, kernels, quad, series, spectral, verify
from spolyreg.config import Config
from spolyreg.poly import hermite_quat, laguerre
from spolyreg.quat import Quaternion, format_quaternion, quat, random_unit

perf = time.perf_counter


@dataclass
class Pass:
    wall_s: float
    timings: dict = field(default_factory=dict)    # name -> seconds
    counts: dict = field(default_factory=dict)     # name -> work items
    outputs: list = field(default_factory=list)    # raw results for check()


def run_cli(argv: list[str]) -> tuple[int, list[str]]:
    """spolyreg.cli.main in-process, capturing stdout as lines."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().splitlines()


def attempt(fn, *args, **kwargs):
    """Call fn; an exception becomes the result, so the check counts it."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
        return exc


def _rng(seed: int, salt: int):
    return np.random.default_rng([seed, salt])


def _ball_points(rng, n: int, radius: float) -> list[Quaternion]:
    """n quaternions drawn uniformly from the 4-ball of the given radius."""
    v = rng.normal(size=(n, 4))
    v *= (radius * rng.uniform(size=(n, 1)) ** 0.25) / np.linalg.norm(v, axis=1, keepdims=True)
    return [Quaternion(*(float(c) for c in row)) for row in v]


def _write_points(path: str, pts: list[Quaternion]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in pts:
            fh.write(",".join(repr(float(c)) for c in q.as_tuple()) + "\n")


def _row_quats(line: str, start: int, count: int) -> list[Quaternion]:
    cells = line.split(",")
    return [Quaternion(*(float(c) for c in cells[start + 4 * i:start + 4 * i + 4]))
            for i in range(count)]


def _close(a: Quaternion, b: Quaternion, tol: float) -> bool:
    """|a - b| <= tol * max(1, |a|): relative, with a floor of 1."""
    return abs(a - b) <= tol * max(1.0, abs(a))


# -- acceptance ----------------------------------------------------------

NAMED_SUITES = ("kernel-dual", "orthogonality", "decomposition", "reproduce", "isometry")

# small grids of every suite, run once before timing to load BLAS, the
# scipy rule generators and every code path
_WARM_GRIDS = {
    "orthogonality": {"index_max": 2},
    "eigen": {"j_max": 2, "k_max": 2},
    "kernel-dual": {"level_max": 0},
    "reproduce": {"level_max": 0, "degree_max": 2},
    "transform-basis": {"j_max": 1, "k_max": 1},
    "isometry": {"k_max": 1, "j_max": 1},
    "norms": {"n_max": 0, "j_max": 1},
    "decomposition": {"level_max": 0, "degree": 2},
}


class Acceptance:
    """`verify.run_all(Config(seed=S))`: the ten suites, timed one by one."""

    name = "acceptance"

    def __init__(self, seed: int, workdir: str):
        self.config = Config(seed=seed)
        self.seed = seed
        self.suites = verify.SUITE_ORDER

    def prepare(self) -> None:
        pass

    def first_op(self) -> None:
        # The full first suite takes seconds; set-up is probed five times a
        # run, so the probe runs the first suite on a reduced grid.
        verify.run_suite("orthogonality", self.config, index_max=2)

    def warm_up(self) -> None:
        cfg = Config(seed=self.seed, series_terms=20, star_terms=10)
        for name in verify.SUITE_ORDER:
            verify.run_suite(name, cfg, **_WARM_GRIDS.get(name, {}))

    def run_pass(self) -> Pass:
        kernels.clear_star_cache()
        p = Pass(0.0)
        t0 = perf()
        # the same calls, in the same order, as verify.run_all
        for name in self.suites:
            s = perf()
            p.outputs.append((name, attempt(verify.run_suite, name, self.config)))
            p.timings[name] = perf() - s
        p.wall_s = perf() - t0
        p.counts["suites"] = len(self.suites)
        return p

    def check(self, p: Pass) -> list[tuple[str, bool]]:
        return [(f"{name} passed", not isinstance(rep, Exception) and rep.passed)
                for name, rep in p.outputs]

    def diagnostics(self, p: Pass) -> dict:
        return {f"suite.{name}.max_residual": rep.max_residual
                for name, rep in p.outputs if not isinstance(rep, Exception)}

    def metrics(self, passes: list[Pass]) -> dict:
        out = {}
        for name in NAMED_SUITES:
            out[f"suite.{name}_s"] = (median(p.timings[name] for p in passes), "s")
        return out


# -- kernel-points -------------------------------------------------------

KERNEL_LEVELS = range(4)
KERNEL_KINDS = (1, 2)
KERNEL_METHODS = ("star", "series")


class KernelPoints:
    """CLI `eval kernel` over one shared file of q points, for a few p."""

    name = "kernel-points"

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 101)
        self.ps = _ball_points(rng, 2, 1.5)
        self.qs = _ball_points(rng, 10, 1.5)
        self.kinds, self.levels = KERNEL_KINDS, KERNEL_LEVELS
        self.points_file = os.path.join(workdir, "kernel-q.csv")

    def prepare(self) -> None:
        _write_points(self.points_file, self.qs)

    def _argv(self, p, method, kind, level):
        return ["eval", "kernel", "--kind", str(kind), "--level", str(level),
                "--method", method, f"--p={format_quaternion(p)}",
                "--points", self.points_file]

    def _calls(self):
        for kind in self.kinds:
            for level in self.levels:
                for pi, p in enumerate(self.ps):
                    for method in KERNEL_METHODS:
                        yield (pi, method, kind, level), self._argv(p, method, kind, level)

    def first_op(self) -> None:
        _, argv = next(self._calls())
        run_cli(argv)

    def warm_up(self) -> None:
        for method in KERNEL_METHODS:
            run_cli(self._argv(self.ps[0], method, 2, 0))

    def run_pass(self) -> Pass:
        kernels.clear_star_cache()
        p = Pass(0.0, timings={m: 0.0 for m in KERNEL_METHODS},
                 counts={m: 0 for m in KERNEL_METHODS})
        t0 = perf()
        for key, argv in self._calls():
            s = perf()
            out = attempt(run_cli, argv)
            p.timings[key[1]] += perf() - s
            p.counts[key[1]] += len(self.qs)
            p.outputs.append((key, out))
        p.wall_s = perf() - t0
        p.counts["rows"] = p.counts["star"] + p.counts["series"]
        return p

    def _parse(self, p: Pass):
        """Per-call (label, ok) for exit code and rows, and the kernel value
        of every row keyed by (p index, method, kind, level, q index)."""
        calls, values = [], {}
        for key, out in p.outputs:
            ok = not isinstance(out, Exception) and out[0] == 0 and len(out[1]) == len(self.qs)
            if ok:
                try:
                    for qi, line in enumerate(out[1]):
                        _, q, v = _row_quats(line, 0, 3)
                        ok = ok and q == self.qs[qi] and line.split(",")[12] == key[1]
                        values[key + (qi,)] = v
                except (ValueError, IndexError):
                    ok = False
            calls.append((f"eval kernel {key}: exit 0, {len(self.qs)} rows", ok))
        pairs = {(pi, kind, level, qi): (v, values.get((pi, "star", kind, level, qi)))
                 for (pi, method, kind, level, qi), v in values.items() if method == "series"}
        return calls, pairs

    def check(self, p: Pass) -> list[tuple[str, bool]]:
        calls, pairs = self._parse(p)
        return calls + [(f"series = star at {key}", star is not None and _close(v, star, 1e-8))
                        for key, (v, star) in pairs.items()]

    def diagnostics(self, p: Pass) -> dict:
        _, pairs = self._parse(p)
        return {"series_vs_star.max_rel": max(
            (abs(v - star) / max(1.0, abs(v)) for v, star in pairs.values() if star is not None),
            default=0.0)}

    def metrics(self, passes: list[Pass]) -> dict:
        return {f"{m}_pairs_per_s": (median(p.counts[m] / p.timings[m] for p in passes), "1/s")
                for m in ("series", "star")}


# -- transform-grid ------------------------------------------------------

TRANSFORM_LEVELS = range(7)
GRAM_J_MAX = 6


class TransformGrid:
    """CLI `transform` on a point grid, isometry Grams, CLI `table norms`."""

    name = "transform-grid"

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 102)
        self.points = _ball_points(rng, 200, 1.5)
        self.js = sorted(int(j) for j in rng.choice(7, size=4, replace=False))
        self.unit = random_unit(rng)
        self.norms_n = int(rng.integers(4))
        self.levels = TRANSFORM_LEVELS
        self.points_file = os.path.join(workdir, "transform-q.csv")
        self.config = Config()

    def prepare(self) -> None:
        _write_points(self.points_file, self.points)

    def _argv(self, k: int, j: int):
        return ["transform", "--level", str(k), "--phi", f"h:{j}",
                "--points", self.points_file]

    def first_op(self) -> None:
        run_cli(self._argv(self.levels[0], self.js[0]))

    def warm_up(self) -> None:
        run_cli(self._argv(1, self.js[-1]))
        Q = quad.SliceQuadrature(self.config.slice_nodes, self.unit)
        bargmann.isometry_grams(1, 1, Q, quad.gauss_hermite(self.config.line_nodes))
        run_cli(["table", "norms", "--n", "0", "--jmax", "0"])

    def run_pass(self) -> Pass:
        p = Pass(0.0)
        t0 = perf()
        for k in self.levels:
            for j in self.js:
                p.outputs.append((("transform", k, j), attempt(run_cli, self._argv(k, j))))
        t1 = perf()
        Q = quad.SliceQuadrature(self.config.slice_nodes, self.unit)
        rule = quad.gauss_hermite(self.config.line_nodes)
        for k in self.levels:
            p.outputs.append((("grams", k, GRAM_J_MAX),
                              attempt(bargmann.isometry_grams, k, GRAM_J_MAX, Q, rule)))
        t2 = perf()
        p.outputs.append((("norms", self.norms_n, 3), attempt(
            run_cli, ["table", "norms", "--n", str(self.norms_n), "--jmax", "3"])))
        t3 = perf()
        p.wall_s = t3 - t0
        p.timings = {"transform": t1 - t0, "grams": t2 - t1, "norms": t3 - t2}
        p.counts = {"rows": len(self.levels) * len(self.js) * len(self.points)}
        return p

    def _residuals(self, key, out) -> list[float] | None:
        """Per-item residuals of one output, None if it failed outright."""
        if isinstance(out, Exception):
            return None
        kind = key[0]
        if kind == "grams":
            g_img, g_line = out
            m = key[2] + 1
            diag = g_line[np.arange(m), np.arange(m), 0]
            scale = np.sqrt(diag[:, None] * diag[None, :])
            return [float(np.max(np.sqrt(np.sum((g_img - g_line) ** 2, axis=2)) / scale))]
        code, lines = out
        if kind == "transform":
            if code != 0 or len(lines) != len(self.points):
                return None
            _, k, j = key
            scale = bargmann.basis_image_scale(j, k)
            res = []
            for q, line in zip(self.points, lines):
                got_q, got = _row_quats(line, 0, 2)
                want = hermite_quat(j, k, q) * scale
                res.append(abs(got - want) if got_q == q else math.inf)
            return res
        if code != 0 or len(lines) != key[2] + 2:
            return None
        return [float(line.split(",")[4]) for line in lines[1:]]

    def check(self, p: Pass) -> list[tuple[str, bool]]:
        tol = {"transform": 1e-8, "grams": 1e-9, "norms": 1e-8}
        results = []
        for key, out in p.outputs:
            res = self._residuals(key, out)
            if res is None:
                results.append((f"{key} completed", False))
                continue
            results.extend((f"{key} item {i} within {tol[key[0]]:g}", r <= tol[key[0]])
                           for i, r in enumerate(res))
        return results

    def diagnostics(self, p: Pass) -> dict:
        worst: dict[str, float] = {}
        for key, out in p.outputs:
            res = self._residuals(key, out)
            if res:
                worst[key[0]] = max(worst.get(key[0], 0.0), max(res))
        return {f"{kind}.max_residual": v for kind, v in worst.items()}

    def metrics(self, passes: list[Pass]) -> dict:
        return {"transform_rows_per_s": (
            median(p.counts["rows"] / p.timings["transform"] for p in passes), "1/s")}


# -- exact-spectral ------------------------------------------------------


def _frac(rng, lo: int = -9, hi: int = 9) -> Fraction:
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, 10)))


def _frac_quat(rng) -> Quaternion:
    return Quaternion(*(_frac(rng) for _ in range(4)))


def _frac_series(rng, rows: int, cols: int) -> series.PolySliceSeries:
    return series.PolySliceSeries(tuple(tuple(_frac_quat(rng) for _ in range(cols))
                                        for _ in range(rows)))


def _rational_unit(rng) -> Quaternion:
    """A unit imaginary quaternion with rational components (inverse
    stereographic image of a random rational point of the plane)."""
    s, t = _frac(rng, -5, 5), _frac(rng, -5, 5)
    d = 1 + s * s + t * t
    return Quaternion(Fraction(0), 2 * s / d, 2 * t / d, (1 - s * s - t * t) / d)


class ExactSpectral:
    """Exact-rational star calculus and spectrum probes.

    Identities, all compared with ==:
      conj-swap    conj(f * g) = conj(g) *R conj(f)
      round-trip   from_hermite_basis(to_hermite_basis(f)) = f
      box          box(H_{j,k} c) = k H_{j,k} c,  j <= 12, k <= 6
      laguerre     L*_n^(gamma)(q) evaluated at p = L_n^(gamma)(|p-q|^2), p, q in one slice
    Probes: spectrum_probe converges exactly for nonnegative integer mu.
    """

    name = "exact-spectral"

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 103)
        self.swaps = [(_frac_series(rng, 3, 4), _frac_series(rng, 3, 3)) for _ in range(8)]
        self.trips = [_frac_series(rng, 4, 5) for _ in range(8)]
        # the seed draws values only; sizes and degrees are fixed, so every
        # seed asks for the same amount of work
        self.boxes = [(j, k, _frac_quat(rng)) for j in range(0, 13, 2) for k in range(0, 7, 2)]
        self.lags = []
        for n in range(1, 5):
            for gamma in range(3):
                u = _rational_unit(rng)
                pp = _frac(rng) + u * _frac(rng)
                qq = _frac(rng) + u * _frac(rng)
                self.lags.append((n, gamma, pp, qq))
        # one terminating, one real non-terminating and one quaternionic mu;
        # the modulus of the quaternionic one is fixed because the scalar
        # Kummer loop it runs grows with it
        self.probes = [
            (float(rng.integers(4)), int(rng.integers(2))),
            (float(rng.integers(4)) + float(rng.uniform(0.25, 0.75)), int(rng.integers(2))),
            (quat(1.5) + random_unit(rng) * 0.5, 0),
        ]

    def prepare(self) -> None:
        pass

    def _identities(self):
        """(label, lhs thunk, rhs thunk) for every identity of a pass."""
        for f, g in self.swaps:
            yield "conj-swap", (lambda f=f, g=g: f.star(g).conj()), \
                (lambda f=f, g=g: g.conj().star(f.conj()))
        for f in self.trips:
            yield "round-trip", (lambda f=f: series.from_hermite_basis(
                series.to_hermite_basis(f))), (lambda f=f: f)
        for j, k, c in self.boxes:
            yield f"box H_{j},{k}", (lambda j=j, k=k, c=c: spectral.box_symbolic(
                series.hermite_series(j, k).rmul(c))), \
                (lambda j=j, k=k, c=c: series.hermite_series(j, k).rmul(c).scale(k))
        for n, gamma, pp, qq in self.lags:
            yield f"laguerre n={n} gamma={gamma}", \
                (lambda n=n, gamma=gamma, pp=pp, qq=qq:
                 series.laguerre_star(n, gamma, qq).eval_left(pp)), \
                (lambda n=n, gamma=gamma, pp=pp, qq=qq:
                 quat(laguerre(n, gamma, (pp - qq).norm_sq())))

    def first_op(self) -> None:
        _, lhs, rhs = next(self._identities())
        lhs(), rhs()

    def warm_up(self) -> None:
        self.run_pass()

    def run_pass(self) -> Pass:
        p = Pass(0.0)
        t0 = perf()
        for label, lhs, rhs in self._identities():
            p.outputs.append((label, attempt(lhs), attempt(rhs)))
        t1 = perf()
        for mu, j in self.probes:
            p.outputs.append((f"probe mu={mu} j={j}", mu, attempt(spectral.spectrum_probe, mu, j)))
        t2 = perf()
        p.wall_s = t2 - t0
        p.timings = {"identities": t1 - t0, "probes": t2 - t1}
        p.counts = {"identities": len(p.outputs) - len(self.probes),
                    "probes": len(self.probes)}
        return p

    def check(self, p: Pass) -> list[tuple[str, bool]]:
        results = []
        for label, a, b in p.outputs:
            if label.startswith("probe"):
                mu = quat(a)
                expect = mu.imag_norm() == 0 and float(mu.w).is_integer() and mu.w >= 0
                ok = not isinstance(b, Exception) and b.converged == expect
            else:
                ok = not isinstance(a, Exception) and not isinstance(b, Exception) and a == b
            results.append((label, ok))
        return results

    def diagnostics(self, p: Pass) -> dict:
        return {}

    def metrics(self, passes: list[Pass]) -> dict:
        return {f"{m}_per_s": (median(p.counts[m] / p.timings[m] for p in passes), "1/s")
                for m in ("identities", "probes")}


WORKLOADS = {w.name: w for w in (Acceptance, KernelPoints, TransformGrid, ExactSpectral)}
