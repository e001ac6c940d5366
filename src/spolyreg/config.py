"""Runtime configuration.

All knobs the verification suites and the command line share live in one
frozen dataclass.  Defaults are chosen so every identity check passes at
its stated tolerance; a JSON file (path argument or SPOLYREG_CONFIG
environment variable) can override any subset of fields.  Every field is
checked for type and range on construction: a bad value raises
ValueError naming the field.  Tolerance overrides are merged over
DEFAULT_TOLERANCES.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

from .bargmann import DEFAULT_LINE_NODES, LINE_NODES_MIN
from .kernels import SERIES_TERMS
from .quad import DEFAULT_SLICE_NODES, NODE_CAP
from .series import EXP_STAR_CAP, STAR_TERMS

__all__ = ["Config", "DEFAULT_TOLERANCES", "load_config"]

DEFAULT_TOLERANCES = {
    "orthogonality": 1e-9,
    "eigen": 1e-4,
    "kernel-dual": 1e-8,
    "reproduce": 1e-7,
    "transform-basis": 1e-8,
    "isometry": 1e-9,
    "norms": 1e-8,
    "decomposition": 1e-7,
    "star-identities": 1e-12,
    "spectrum": 0.0,
}


# integer fields and their inclusive ranges (None: unbounded)
_INT_RANGES = {
    "line_nodes": (LINE_NODES_MIN, NODE_CAP),
    "slice_nodes": (1, NODE_CAP),
    "series_terms": (0, None),
    "star_terms": (0, EXP_STAR_CAP),
    "seed": (0, None),
}


def _check_real(name: str, v) -> None:
    """A finite real number >= 0; bool is refused."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
        raise ValueError(f"config field {name!r} must be a finite nonnegative number, got {v!r}")


@dataclass(frozen=True)
class Config:
    line_nodes: int = DEFAULT_LINE_NODES       # Gauss-Hermite points for the real-line pairing
    slice_nodes: int = DEFAULT_SLICE_NODES     # per-axis Gauss-Hermite points on a slice
    series_terms: int = SERIES_TERMS   # truncation of the kernel ladder series
    star_terms: int = STAR_TERMS       # truncation of the star-product kernel path
    seed: int = 20240 + 1       # base seed for randomised verification suites
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self):
        for name, (lo, hi) in _INT_RANGES.items():
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"config field {name!r} must be an integer, got {v!r}")
            if v < lo or (hi is not None and v > hi):
                raise ValueError(f"config field {name!r} = {v} outside {lo}..{hi or ''}")
        if not isinstance(self.tolerances, dict):
            raise ValueError("config field 'tolerances' must be an object")
        for suite, tol in self.tolerances.items():
            if suite not in DEFAULT_TOLERANCES:
                raise ValueError(f"config field 'tolerances' names unknown suite {suite!r}")
            _check_real(f"tolerances.{suite}", tol)
        # suites the overrides leave out keep their default tolerance
        object.__setattr__(self, "tolerances", {**DEFAULT_TOLERANCES, **self.tolerances})

    def tolerance(self, suite: str) -> float:
        if suite not in self.tolerances:
            raise ValueError(f"no tolerance for unknown suite {suite!r}")
        return float(self.tolerances[suite])


def load_config(path: str | None = None) -> Config:
    """Build a Config, overlaying JSON overrides if present.

    Explicit path wins over the SPOLYREG_CONFIG environment variable;
    unknown keys raise so typos do not silently fall back to defaults.
    """
    if path is None:
        path = os.environ.get("SPOLYREG_CONFIG")
    if not path:
        return Config()
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    known = {f.name for f in dataclasses.fields(Config)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return Config(**raw)
