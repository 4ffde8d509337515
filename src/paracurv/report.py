"""Result containers shared by the analysis layer and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def nres(lhs, rhs=None):
    """Normalized max residual |L - R|_inf / (1 + |L|_inf + |R|_inf).

    A non-finite result is ``inf``: a NaN would be dropped by the max
    reductions over sample points and a check could pass on it.
    """
    lhs = np.asarray(lhs, dtype=float)
    if rhs is None:
        rhs = np.zeros_like(lhs)
    rhs = np.asarray(rhs, dtype=float)
    num = np.max(np.abs(lhs - rhs)) if lhs.size else 0.0
    den = 1.0 + np.max(np.abs(lhs), initial=0.0) + np.max(np.abs(rhs), initial=0.0)
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.inf
    return float(num / den)


@dataclass
class CheckResult:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self):
        return self.residual < self.threshold

    def as_dict(self):
        row = {
            "name": self.name,
            "residual_max": self.residual,
            "threshold": self.threshold,
            "pass": self.passed,
        }
        if not math.isfinite(self.residual):
            # JSON has no inf or nan; such a row never passes
            row["residual_max"] = None
            row["non_finite"] = str(self.residual)
        return row


@dataclass
class CheckReport:
    results: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)

    def add(self, name, residual, threshold):
        self.results.append(CheckResult(name, float(residual), threshold))

    def extend(self, other):
        self.results.extend(other.results)
        self.constants.update(other.constants)

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def failing(self):
        return [r for r in self.results if not r.passed]

    def max_residual(self):
        return max((r.residual for r in self.results), default=0.0)
