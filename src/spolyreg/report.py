"""Verification report containers shared by the verify suites and CLI."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .quat import Quaternion

SCHEMA_VERSION = 1


def _plain(v):
    if isinstance(v, Quaternion):
        return [float(c) for c in v.as_tuple()]
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, float):
        return v
    if hasattr(v, "tolist"):  # numpy scalars and arrays: a (4,) row as a Quaternion's list
        return v.tolist()
    return v


@dataclass
class Case:
    """One grid cell of a verification suite."""

    inputs: dict
    expected: object
    actual: object
    residual: float

    def to_dict(self) -> dict:
        return {
            "inputs": _plain(self.inputs),
            "expected": _plain(self.expected),
            "actual": _plain(self.actual),
            "residual": float(self.residual),
        }


@dataclass
class VerificationReport:
    suite: str
    tolerance: float
    parameters: dict = field(default_factory=dict)
    cases: list = field(default_factory=list)
    wall_time_s: float = 0.0
    schema: int = SCHEMA_VERSION

    def add(self, inputs: dict, expected, actual, residual: float) -> None:
        self.cases.append(Case(inputs, expected, actual, float(residual)))

    @property
    def max_residual(self) -> float:
        """The worst residual; NaN if any is NaN, whatever the case order."""
        return float(np.max([c.residual for c in self.cases], initial=0.0))

    @property
    def passed(self) -> bool:
        """No case, no pass: an empty grid checks nothing."""
        return bool(self.cases) and self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "suite": self.suite,
            "tolerance": self.tolerance,
            "parameters": _plain(self.parameters),
            "n_cases": len(self.cases),
            "max_residual": self.max_residual,
            "passed": bool(self.passed),
            "wall_time_s": self.wall_time_s,
            "cases": [c.to_dict() for c in self.cases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)
