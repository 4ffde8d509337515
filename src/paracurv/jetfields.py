"""Tensor fields of jets, packed as stacked coordinate-derivative arrays.

A :class:`JetTensor` of order m holds arrays ``parts[k]`` for k = 0..m,
where ``parts[k]`` has shape ``batch_shape + (dim,)*k + base_shape`` and
stores the k-th coordinate partials of every component (derivative axes
kept symmetric, since partials commute).  The leading batch axes, none or
one point axis, index the points of a batch: every operation threads them
as numpy's ``...``, so the same subscripts serve one point and a batch.
This lets curvature formulas run as plain einsums with an exact Leibniz
rule instead of per-component jet objects, which matters once rank-4
tensors at hundreds of points show up.

``partial()`` is free: the (k+1)-st derivative array of a field *is* the
k-th derivative array of its gradient, with the last derivative axis
reinterpreted as a component axis.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from math import factorial

import numpy as np

from .errors import SingularMetric

_DLETTERS = "ZYXW"
_PIVOT_EPS = 1e-12


def plu_inverse(a, pivot_eps=_PIVOT_EPS):
    """Inverse of each matrix of a (..., n, n) stack via pivoted Gaussian
    elimination with an explicit pivot check.

    np.linalg.inv would silently accept nearly-singular input; we want a
    hard :class:`SingularMetric` once a pivot magnitude drops to 1e-12.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    aug = np.empty((a.size // (n * n), n, 2 * n))
    aug[:, :, :n] = a.reshape(-1, n, n)
    aug[:, :, n:] = np.eye(n)
    for col in range(n):
        piv = col + np.abs(aug[:, col:, col]).argmax(axis=1)
        if (piv != col).any():
            stack = np.arange(len(aug))
            aug[stack, col], aug[stack, piv] = aug[stack, piv], aug[stack, col]
        pivot = aug[:, col, col].copy()
        small = np.abs(pivot) <= pivot_eps
        if small.any():
            raise SingularMetric(f"pivot {pivot[small.argmax()]:g} below threshold")
        aug[:, col] /= pivot[:, None]
        row = aug[:, None, col]
        aug[:, :col] -= aug[:, :col, col, None] * row
        aug[:, col + 1 :] -= aug[:, col + 1 :, col, None] * row
    return aug[:, :, n:].reshape(a.shape)


def _sym_leading(arr, m, batch=0):
    """Symmetrize the m axes of arr that follow its ``batch`` leading axes."""
    if m < 2:
        return arr
    acc = np.zeros_like(arr)
    lead = tuple(range(batch))
    for perm in permutations(range(batch, batch + m)):
        acc += np.transpose(arr, (*lead, *perm, *range(batch + m, arr.ndim)))
    return acc / factorial(m)


class JetTensor:
    """Stacked jets of a tensor field's components, with ``batch`` leading
    point axes (0 or 1)."""

    __slots__ = ("dim", "order", "parts", "batch")

    def __init__(self, dim, order, parts, batch=0):
        self.dim = dim
        self.order = order
        self.parts = list(parts)
        self.batch = batch

    @property
    def value(self):
        return self.parts[0]

    @property
    def base_shape(self):
        return self.parts[0].shape[self.batch :]

    def cut(self, order):
        if order >= self.order:
            return self
        return JetTensor(self.dim, order, self.parts[: order + 1], self.batch)

    def partial(self):
        """Gradient field: one new leading component axis, order drops by 1."""
        if self.order < 1:
            raise ValueError("cannot take partial of an order-0 jet tensor")
        return JetTensor(self.dim, self.order - 1, self.parts[1:], self.batch)

    def point(self, i):
        """The jets at point ``i`` of a batch, without its point axis."""
        return JetTensor(self.dim, self.order, [p[i] for p in self.parts],
                         self.batch - 1)

    def tb(self, perm):
        """Transpose base axes by perm (batch and derivative axes untouched)."""
        nb = len(self.base_shape)
        if sorted(perm) != list(range(nb)):
            raise ValueError("perm must permute the base axes")
        parts = []
        for k, arr in enumerate(self.parts):
            lead = self.batch + k
            axes = list(range(lead)) + [lead + p for p in perm]
            parts.append(np.transpose(arr, axes))
        return JetTensor(self.dim, self.order, parts, self.batch)

    # -- linear structure -------------------------------------------------

    def _other(self, b):
        if isinstance(b, JetTensor):
            order = min(self.order, b.order)
            return self.cut(order), b.cut(order)
        raise TypeError("expected JetTensor")

    def __add__(self, b):
        a, b = self._other(b)
        return JetTensor(a.dim, a.order, [x + y for x, y in zip(a.parts, b.parts)],
                         max(a.batch, b.batch))

    def __sub__(self, b):
        a, b = self._other(b)
        return JetTensor(a.dim, a.order, [x - y for x, y in zip(a.parts, b.parts)],
                         max(a.batch, b.batch))

    def __mul__(self, c):
        c = float(c)
        return JetTensor(self.dim, self.order, [c * x for x in self.parts],
                         self.batch)

    __rmul__ = __mul__


@cache
def _threaded(sub):
    """``sub`` with ``...`` before every operand and the output."""
    ins, out = sub.split("->")
    return ",".join("..." + s for s in ins.split(",")) + "->..." + out


def point_einsum(sub, *operands):
    """np.einsum over base axes, with leading point axes threaded: ``...``
    goes before every operand and the output, so one subscript serves one
    point and a batch alike."""
    return np.einsum(_threaded(sub), *operands)


def jt_einsum(sub, a, b):
    """einsum of two jet tensors with the exact Leibniz rule.

    ``sub`` is an einsum subscript over the *base* axes, e.g.
    ``"lm,mij->lij"``.  Batch and derivative axes are threaded
    automatically and the mixed Leibniz terms are symmetrized over the
    derivative axes.
    """
    ins, out = sub.split("->")
    sa, sb = ins.split(",")
    order = min(a.order, b.order)
    nb = max(a.batch, b.batch)  # the derivative axes of a term start here
    parts = []
    for k in range(order + 1):
        acc = None
        for j in range(k + 1):
            da, db = _DLETTERS[:j], _DLETTERS[j:k]
            term = point_einsum(f"{da}{sa},{db}{sb}->{_DLETTERS[:k]}{out}",
                                a.parts[j], b.parts[k - j])
            if k == 2 and j == 1:
                term = term + np.swapaxes(term, nb, nb + 1)
            elif k == 3 and j == 1:
                # A's single derivative axis sits first
                term = (term + np.moveaxis(term, nb, nb + 1)
                        + np.moveaxis(term, nb, nb + 2))
            elif k == 3 and j == 2:
                # B's single derivative axis sits last
                term = (term + np.moveaxis(term, nb + 2, nb + 1)
                        + np.moveaxis(term, nb + 2, nb))
            acc = term if acc is None else acc + term
        parts.append(acc)
    return JetTensor(a.dim, order, parts, nb)


def jt_metric_inverse(g):
    """Jets of the inverse of a jet-valued symmetric matrix, at one point
    or at each point of a batch.

    Built order by order from dG = -G (dg) G, seeded with a pivoted
    inverse of the value part (raises SingularMetric when degenerate).
    """
    d, order, nb = g.dim, g.order, g.batch
    parts = [plu_inverse(g.parts[0])]
    if order == 0:
        return JetTensor(d, 0, parts, nb)
    dg = g.partial()  # base (a, i, j)
    for k in range(order):
        gk = JetTensor(d, k, parts[: k + 1], nb)
        h = jt_einsum("im,amn->ain", gk, dg.cut(k))
        h = jt_einsum("ain,nj->aij", h, gk)
        parts.append(_sym_leading(-h.parts[k], k + 1, nb))
    return JetTensor(d, order, parts, nb)
