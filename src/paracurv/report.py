"""Result containers shared by the analysis layer and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def nres(lhs, rhs=None):
    """Normalized max residual |L - R|_inf / (1 + |L|_inf + |R|_inf).

    A non-finite result is ``inf``, so the row it enters fails.
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
    """Rows by name in first-add order: the one place where residuals are
    reduced over frames and draws."""

    rows: dict = field(default_factory=dict)  # name -> CheckResult
    constants: dict = field(default_factory=dict)

    def add(self, name, residual, threshold):
        """Fold ``residual`` into the row ``name``, created where the name is
        first added.  The row keeps the largest residual; once it holds a
        non-finite one (inf or nan) it keeps that, so it can never pass."""
        residual = float(residual)
        row = self.rows.get(name)
        if row is None:
            self.rows[name] = CheckResult(name, residual, threshold)
        elif math.isfinite(row.residual) and not residual <= row.residual:
            row.residual = residual

    def extend(self, other):
        for r in other.rows.values():
            self.add(r.name, r.residual, r.threshold)
        self.constants.update(other.constants)

    @property
    def passed(self):
        return all(r.passed for r in self.rows.values())
