"""Result containers shared by the analysis layer and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def nres(lhs, rhs=None):
    """Normalized max residual |L - R|_inf / (1 + |L|_inf + |R|_inf).

    The first axis indexes points: the maxima are taken over the other
    axes, one residual per point; a 0-d input gives one number.  A
    non-finite residual is ``inf``, so the row it enters fails.
    """
    lhs = np.asarray(lhs, dtype=float)
    if rhs is None:
        # |L - 0| and 1 + |L| + 0 keep the bits of |L| and 1 + |L|.  The
        # max of |L| as the larger of max L and -min L makes no |L| array;
        # "+ 0.0" turns the -0.0 that these maxima can give into 0.0
        axes = tuple(range(1, lhs.ndim))
        num = np.maximum(np.max(lhs, axis=axes, initial=0.0),
                         -np.min(lhs, axis=axes, initial=0.0)) + 0.0
        den = 1.0 + num
    else:
        lhs, rhs = np.broadcast_arrays(lhs, np.asarray(rhs, dtype=float))
        axes = tuple(range(1, lhs.ndim))
        num = np.max(np.abs(lhs - rhs), axis=axes, initial=0.0)
        den = (1.0 + np.max(np.abs(lhs), axis=axes, initial=0.0)
               + np.max(np.abs(rhs), axis=axes, initial=0.0))
    out = np.full(num.shape, math.inf)
    np.divide(num, den, out=out, where=np.isfinite(num) & np.isfinite(den))
    return out if out.ndim else float(out)


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
    """Everything a check returns: its rows by name in first-add order (the
    one place where residuals are reduced over frames and draws), the
    constants it fits and the verdicts it reaches."""

    rows: dict = field(default_factory=dict)  # name -> CheckResult
    constants: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    def add(self, name, residual, threshold):
        """Fold ``residual``, one number or one per point, into the row
        ``name``, created where the name is first added.  In point order,
        the row keeps the largest residual; once it holds a non-finite one
        (inf or nan) it keeps that, so it can never pass."""
        values = np.ravel(np.asarray(residual, dtype=float))
        row = self.rows.get(name)
        if row is None:
            row = self.rows[name] = CheckResult(name, float(values[0]), threshold)
            values = values[1:]
        if math.isfinite(row.residual) and values.size:
            bad = ~np.isfinite(values)
            # the first non-finite value, else the largest
            worst = values[np.argmax(bad)] if bad.any() else values.max()
            if not worst <= row.residual:
                row.residual = float(worst)

    def extend(self, other):
        for r in other.rows.values():
            self.add(r.name, r.residual, r.threshold)
        self.constants.update(other.constants)
        self.verdicts.update(other.verdicts)

    @property
    def passed(self):
        return all(r.passed for r in self.rows.values())
