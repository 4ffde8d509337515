"""Pointwise multi-index tensor values and the basic index algebra.

Components are stored densely, row-major, with all contravariant slots
listed before the covariant ones.  Dimensions in this package stay small
(at most ~12), so dense storage wins over anything fancier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularMetric, SlotError

_PIVOT_EPS = 1e-12


def plu_inverse(a, pivot_eps=_PIVOT_EPS):
    """Inverse via pivoted Gaussian elimination with an explicit pivot check.

    np.linalg.inv would silently accept nearly-singular input; we want a
    hard :class:`SingularMetric` once a pivot magnitude drops to 1e-12.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) <= pivot_eps:
            raise SingularMetric(f"pivot {aug[piv, col]:g} below threshold")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        for r in range(n):
            if r != col:
                aug[r] -= aug[r, col] * aug[col]
    return aug[:, n:]


@dataclass(frozen=True)
class TensorValue:
    """Dense component array at a point with declared (p, q) valence."""

    dim: int
    p: int  # contravariant slots
    q: int  # covariant slots
    components: np.ndarray = field(repr=False)

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        expected = (self.dim,) * (self.p + self.q)
        if comps.shape != expected:
            raise ValueError(f"components shape {comps.shape} != {expected}")
        object.__setattr__(self, "components", comps)

    @classmethod
    def build(cls, dim, p, q, components, sym=None):
        """Construct, optionally enforcing a rank-2 (anti)symmetry exactly."""
        comps = np.asarray(components, dtype=float)
        if sym is not None:
            if p + q != 2:
                raise ValueError("symmetry tags apply to rank-2 tensors only")
            if sym == "symmetric":
                comps = 0.5 * (comps + comps.T)
            elif sym == "antisymmetric":
                comps = 0.5 * (comps - comps.T)
            else:
                raise ValueError(f"unknown symmetry tag {sym!r}")
        return cls(dim, p, q, comps)

    @property
    def rank(self):
        return self.p + self.q

    def is_contravariant(self, slot):
        return slot < self.p


def contract(t, upper_slot, lower_slot):
    """Trace an upper slot against a lower slot; valence drops by (1,1)."""
    if not (0 <= upper_slot < t.rank and 0 <= lower_slot < t.rank):
        raise SlotError("slot index out of range")
    if not t.is_contravariant(upper_slot):
        raise SlotError(f"slot {upper_slot} is not contravariant")
    if t.is_contravariant(lower_slot):
        raise SlotError(f"slot {lower_slot} is not covariant")
    comps = np.trace(t.components, axis1=upper_slot, axis2=lower_slot)
    return TensorValue(t.dim, t.p - 1, t.q - 1, comps)


def raise_lower(t, slot, metric, direction):
    """Toggle one slot's kind with the metric (or its inverse).

    The toggled slot is moved to the end of its new block: raising puts it
    last among the contravariant slots, lowering first among the covariant
    ones, so the relative order of the untouched slots is preserved.
    """
    if metric.p != 0 or metric.q != 2:
        raise SlotError("metric must have valence (0, 2)")
    if not np.allclose(metric.components, metric.components.T, atol=0.0):
        raise SlotError("metric must be symmetric")
    if not 0 <= slot < t.rank:
        raise SlotError("slot index out of range")
    comps = t.components
    if direction == "raise":
        if t.is_contravariant(slot):
            raise SlotError(f"slot {slot} is already contravariant")
        ginv = plu_inverse(metric.components)
        out = np.tensordot(ginv, comps, axes=([1], [slot]))
        # contracted slot now leads; park it at the end of the upper block
        out = np.moveaxis(out, 0, t.p)
        return TensorValue(t.dim, t.p + 1, t.q - 1, out)
    if direction == "lower":
        if not t.is_contravariant(slot):
            raise SlotError(f"slot {slot} is already covariant")
        out = np.tensordot(metric.components, comps, axes=([1], [slot]))
        out = np.moveaxis(out, 0, t.p - 1)
        return TensorValue(t.dim, t.p - 1, t.q + 1, out)
    raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")


def symmetrize(t, slots):
    """Average over all permutations of the given (same-kind) slots."""
    slots = tuple(slots)
    kinds = {t.is_contravariant(s) for s in slots}
    if len(kinds) != 1:
        raise SlotError("cannot symmetrize slots of mixed kind")
    from itertools import permutations

    acc = np.zeros_like(t.components)
    count = 0
    for perm in permutations(slots):
        axes = list(range(t.rank))
        for src, dst in zip(slots, perm):
            axes[src] = dst
        acc += np.transpose(t.components, axes)
        count += 1
    return TensorValue(t.dim, t.p, t.q, acc / count)
