"""Tensor fields of jets, packed as stacked coordinate-derivative arrays.

A :class:`JetTensor` of order m holds arrays ``parts[k]`` for k = 0..m,
where ``parts[k]`` has shape ``(dim,)*k + base_shape`` and stores the k-th
coordinate partials of every component (derivative axes leading and kept
symmetric, since partials commute).  This lets curvature formulas run as
plain einsums with an exact Leibniz rule instead of per-component jet
objects, which matters once rank-4 tensors at hundreds of points show up.
Expression evaluation (:func:`paracurv.exprlang.eval_jet`) gives jet tensors
whose base shape ends in a point axis, one entry per point of a batch.

``partial()`` is free: the (k+1)-st derivative array of a field *is* the
k-th derivative array of its gradient, with the last derivative axis
reinterpreted as a component axis.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import SingularMetric

_DLETTERS = "ZYXW"
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


def _sym_leading(arr, m):
    """Symmetrize the first m axes of arr."""
    if m < 2:
        return arr
    acc = np.zeros_like(arr)
    n = 0
    for perm in permutations(range(m)):
        axes = list(perm) + list(range(m, arr.ndim))
        acc += np.transpose(arr, axes)
        n += 1
    return acc / n


class JetTensor:
    """Stacked jets of a tensor field's components."""

    __slots__ = ("dim", "order", "parts")

    def __init__(self, dim, order, parts):
        self.dim = dim
        self.order = order
        self.parts = list(parts)

    @property
    def value(self):
        return self.parts[0]

    @property
    def base_shape(self):
        return self.parts[0].shape

    @classmethod
    def const(cls, array, dim, order):
        array = np.asarray(array, dtype=float)
        parts = [array]
        for k in range(1, order + 1):
            parts.append(np.zeros((dim,) * k + array.shape))
        return cls(dim, order, parts)

    def cut(self, order):
        if order >= self.order:
            return self
        return JetTensor(self.dim, order, self.parts[: order + 1])

    def partial(self):
        """Gradient field: one new leading component axis, order drops by 1."""
        if self.order < 1:
            raise ValueError("cannot take partial of an order-0 jet tensor")
        return JetTensor(self.dim, self.order - 1, self.parts[1:])

    def tb(self, perm):
        """Transpose base axes by perm (derivative axes untouched)."""
        nb = len(self.base_shape)
        if sorted(perm) != list(range(nb)):
            raise ValueError("perm must permute the base axes")
        parts = []
        for k, arr in enumerate(self.parts):
            axes = list(range(k)) + [k + p for p in perm]
            parts.append(np.transpose(arr, axes))
        return JetTensor(self.dim, self.order, parts)

    # -- linear structure -------------------------------------------------

    def _other(self, b):
        if isinstance(b, JetTensor):
            order = min(self.order, b.order)
            return self.cut(order), b.cut(order)
        raise TypeError("expected JetTensor")

    def __add__(self, b):
        a, b = self._other(b)
        return JetTensor(a.dim, a.order, [x + y for x, y in zip(a.parts, b.parts)])

    def __sub__(self, b):
        a, b = self._other(b)
        return JetTensor(a.dim, a.order, [x - y for x, y in zip(a.parts, b.parts)])

    def __neg__(self):
        return JetTensor(self.dim, self.order, [-x for x in self.parts])

    def __mul__(self, c):
        c = float(c)
        return JetTensor(self.dim, self.order, [c * x for x in self.parts])

    __rmul__ = __mul__


def jt_einsum(sub, a, b):
    """einsum of two jet tensors with the exact Leibniz rule.

    ``sub`` is an einsum subscript over the *base* axes, e.g.
    ``"lm,mij->lij"``.  Derivative axes are threaded automatically and the
    mixed Leibniz terms are symmetrized over them.
    """
    ins, out = sub.split("->")
    sa, sb = ins.split(",")
    if isinstance(b, np.ndarray):
        b = JetTensor.const(b, a.dim, a.order)
    if isinstance(a, np.ndarray):
        a = JetTensor.const(a, b.dim, b.order)
    order = min(a.order, b.order)
    parts = []
    for k in range(order + 1):
        acc = None
        for j in range(k + 1):
            da, db = _DLETTERS[:j], _DLETTERS[j:k]
            term = np.einsum(
                f"{da}{sa},{db}{sb}->{_DLETTERS[:k]}{out}",
                a.parts[j],
                b.parts[k - j],
            )
            if k == 2 and j == 1:
                term = term + np.swapaxes(term, 0, 1)
            elif k == 3 and j == 1:
                # A's single derivative axis sits at position 0
                term = term + np.moveaxis(term, 0, 1) + np.moveaxis(term, 0, 2)
            elif k == 3 and j == 2:
                # B's single derivative axis sits at position 2
                term = term + np.moveaxis(term, 2, 1) + np.moveaxis(term, 2, 0)
            acc = term if acc is None else acc + term
        parts.append(acc)
    return JetTensor(a.dim, order, parts)


def jt_metric_inverse(g):
    """Jets of the inverse of a jet-valued symmetric matrix.

    Built order by order from dG = -G (dg) G, seeded with a pivoted
    inverse of the value part (raises SingularMetric when degenerate).
    """
    d, order = g.dim, g.order
    parts = [plu_inverse(g.parts[0])]
    if order == 0:
        return JetTensor(d, 0, parts)
    dg = g.partial()  # base (a, i, j)
    for k in range(order):
        gk = JetTensor(d, k, parts[: k + 1])
        h = jt_einsum("im,amn->ain", gk, dg.cut(k))
        h = jt_einsum("ain,nj->aij", h, gk)
        new = _sym_leading(-h.parts[k], k + 1)
        parts.append(new)
    return JetTensor(d, order, parts)
