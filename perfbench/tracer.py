"""Outside-in tracing of the spolyreg layers.

A Tracer replaces every public function of every spolyreg module with a
wrapper, wherever the function object is bound: in its own module, in
each module that imported it with ``from ... import``, in module-level
dicts such as ``verify.SUITES``, and on the class for methods.  The
program itself is not changed; ``uninstall`` puts every original back.

Each wrapped call opens a span (name, start, end, parent) that is kept
in memory until the run ends.  The hot scalar operations, the
``Quaternion`` operators and methods and ``qarray.qmul``, get counts
and aggregated time only, with no per-call spans.  Self time is a
call's duration minus the time its wrapped children cover.  An
exception that leaves a layer's public function for another layer is
counted as one error of that layer.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from array import array
from fractions import Fraction

import numpy as np

# Quaternion is the scalar type every other layer computes with; its
# operators and methods are hot, so they are timed in aggregate.
_QUATERNION_HOT = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                   "__rmul__", "__truediv__", "__pow__", "__abs__", "conj",
                   "norm_sq", "inverse", "re", "imag", "imag_norm", "is_real",
                   "to_slice", "to_polar", "as_tuple")
_QMUL = "qarray.qmul"


def _spolyreg_modules():
    import spolyreg

    mods = [spolyreg]
    for info in pkgutil.iter_modules(spolyreg.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"spolyreg.{info.name}"))
    return mods


def _is_public(name: str) -> bool:
    return not name.startswith("_")


class Tracer:
    """Counts, aggregated times and spans for one traced region."""

    def __init__(self):
        self.names: list[str] = []          # name id -> "layer.qualname"
        self.layer_of: list[str] = []       # name id -> layer
        self.calls: list[int] = []          # name id -> call count
        self.self_s: list[float] = []       # name id -> summed self time
        self.errors: dict[str, int] = {}
        self.extra: dict[str, float] = {}   # counters fed by probes and the bench
        # spans, one entry per non-hot call, appended when the call ends
        self.span_id = array("q")
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_span = 0
        self._stack = [[0.0, -1, "bench"]]  # frames: [child time, span id, layer]
        self._restore: list[tuple] = []
        self._installed = False
        self._seen_rules: set = set()
        self._seen_slices: set = set()

    # -- counters fed from outside the wrappers ----------------------------

    def add(self, key: str, amount: float = 1.0) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    # -- wrappers ---------------------------------------------------------

    def _register(self, layer: str, qualname: str) -> int:
        self.names.append(f"{layer}.{qualname}")
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.errors.setdefault(layer, 0)
        return len(self.names) - 1

    def _span_wrapper(self, fn, nid: int, layer: str, probe=None):
        stack, calls, self_s, errors = self._stack, self.calls, self.self_s, self.errors
        s_id, s_name, s_parent = self.span_id, self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = tracer._next_span
            tracer._next_span = sid + 1
            frame = [0.0, sid, layer]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if parent[2] != layer:
                    errors[layer] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                calls[nid] += 1
                self_s[nid] += dur - frame[0]
                s_id.append(sid)
                s_name.append(nid)
                s_parent.append(parent[1])
                s_start.append(t0)
                s_end.append(t1)
            if probe is not None:
                probe(args, kwargs, out)
            return out

        return traced

    def _hot_wrapper(self, fn, nid: int, layer: str, probe=None):
        stack, calls, self_s, errors = self._stack, self.calls, self.self_s, self.errors
        perf = time.perf_counter

        def hot(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], layer]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if parent[2] != layer:
                    errors[layer] += 1
                raise
            finally:
                dur = perf() - t0
                stack.pop()
                parent[0] += dur
                calls[nid] += 1
                self_s[nid] += dur - frame[0]
            if probe is not None:
                probe(args, kwargs, out)
            return out

        return hot

    # -- probes: traffic facts measured where the work happens --------------

    def _probe_qmul(self, args, kwargs, out):
        n = out.size // 4
        self.add("qarray.qmul.quats", n)
        if n == 1:
            self.add("qarray.qmul.single")

    def _probe_quat_mul(self, args, kwargs, out):
        if isinstance(args[0].w, Fraction):
            self.add("quat.mul.fraction")

    def _probe_ladder(self, args, kwargs, out):
        self.add("kernels.ladder.points", int(np.shape(args[2])[0]))

    def _probe_gauss_hermite(self, args, kwargs, out):
        n = args[0] if args else kwargs["n"]
        if n in self._seen_rules:
            self.add("quad.gauss_hermite.repeat")
        self._seen_rules.add(n)

    def _probe_slice_quadrature(self, args, kwargs, out):
        n = args[1] if len(args) > 1 else kwargs.get("n", 40)
        unit = args[2] if len(args) > 2 else kwargs.get("unit")
        key = (n, None if unit is None else unit.as_tuple())
        if key in self._seen_slices:
            self.add("quad.SliceQuadrature.repeat")
        self._seen_slices.add(key)

    def _probe_for(self, name: str):
        return {
            _QMUL: self._probe_qmul,
            "quat.Quaternion.__mul__": self._probe_quat_mul,
            "kernels.k2_series_batch": self._probe_ladder,
            "kernels.k1_series_batch": self._probe_ladder,
            "quad.gauss_hermite": self._probe_gauss_hermite,
            "quad.SliceQuadrature": self._probe_slice_quadrature,
        }.get(name)

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of every spolyreg module."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        mods = _spolyreg_modules()
        wrapped: dict[int, object] = {}   # id(original) -> wrapper

        for mod in mods[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if not _is_public(name):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if id(obj) not in wrapped:
                        nid = self._register(layer, name)
                        full = self.names[nid]
                        make = self._hot_wrapper if full == _QMUL else self._span_wrapper
                        wrapped[id(obj)] = make(obj, nid, layer, self._probe_for(full))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)

        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapped[id(obj)])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and id(val) in wrapped:
                            self._restore.append((obj, key, val))
                            obj[key] = wrapped[id(val)]
        self._installed = True

    def _wrap_class(self, cls, layer: str) -> None:
        hot = cls.__name__ == "Quaternion"
        by_fn: dict[int, object] = {}
        for attr, val in list(vars(cls).items()):
            if not inspect.isfunction(val):
                continue
            if hot:
                keep = attr in _QUATERNION_HOT or any(
                    vars(cls).get(h) is val for h in _QUATERNION_HOT)
            else:
                keep = _is_public(attr) or attr in ("__init__", "__call__")
            if not keep:
                continue
            if id(val) not in by_fn:
                qual = cls.__name__ if attr == "__init__" else val.__qualname__
                nid = self._register(layer, qual)
                make = self._hot_wrapper if hot else self._span_wrapper
                by_fn[id(val)] = make(val, nid, layer, self._probe_for(self.names[nid]))
            self._restore.append((cls, attr, val))
            setattr(cls, attr, by_fn[id(val)])

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()
        self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "id": np.frombuffer(self.span_id, dtype=np.int64),
            "name": np.frombuffer(self.span_name, dtype=np.int64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def table(self) -> list[tuple[str, int, float]]:
        """(name, calls, self seconds) for every wrapped function called."""
        return sorted(((n, c, s) for n, c, s in zip(self.names, self.calls, self.self_s)
                       if c), key=lambda row: -row[2])

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[self.names.index(n)] for n in names if n in self.names)

    def self_of(self, *names: str) -> float:
        return sum(self.self_s[self.names.index(n)] for n in names if n in self.names)

    def calls_matching(self, layer: str, suffix: str) -> int:
        return sum(c for n, lay, c in zip(self.names, self.layer_of, self.calls)
                   if lay == layer and n.endswith(suffix))

    def self_matching(self, layer: str, suffix: str) -> float:
        return sum(s for n, lay, s in zip(self.names, self.layer_of, self.self_s)
                   if lay == layer and n.endswith(suffix))

    def layer_self(self, layer: str) -> float:
        return sum(s for lay, s in zip(self.layer_of, self.self_s) if lay == layer)

    def child_calls(self, parent: str, child: str) -> int:
        """Spans named `child` whose parent span is named `parent`."""
        if parent not in self.names or child not in self.names:
            return 0
        sp = self.spans()
        pid, cid = self.names.index(parent), self.names.index(child)
        parents = set(sp["id"][sp["name"] == pid].tolist())
        kids = sp["parent"][sp["name"] == cid]
        return int(sum(1 for p in kids.tolist() if p in parents))
