"""Tensor fields of jets, stored as packed coordinate-derivative arrays.

A :class:`JetTensor` of order m holds arrays ``parts[k]`` for k = 0..m
over a batch of P points.  ``parts[0]`` has shape ``(P,) + base_shape``;
for k >= 1, ``parts[k]`` has shape ``(P, C(d+k-1, k)) + base_shape``, one
row per sorted multi-index i_1 <= ... <= i_k in
``itertools.combinations_with_replacement(range(d), k)`` order, holding
the partial d_{i_1}...d_{i_k} of every component.  Partials commute, so
these are all the distinct ones (Griewank, Utke & Walther, *Math. Comp.*
69 (2000)): 165 rows of an order-3 part at d = 9 where a full layout
holds 729.  Part 1's rows are the d first partials, so parts 0 and 1 are
laid out as plain arrays.  The leading point axis is threaded by every
operation as numpy's ``...``, so the subscripts name base axes only.
This lets curvature formulas run as plain einsums with an exact Leibniz
rule instead of per-component jet objects, which matters once rank-4
tensors at hundreds of points show up.

Every such einsum is a :func:`point_einsum`, whose docstring says how
it runs; :func:`jt_einsum` multiplies packed parts and gathers the
placements of each Leibniz term into the product's rows.

``partial()`` is one gather per part: the (k+1)-st derivative rows of a
field hold the k-th derivative rows of its gradient, the row of the sorted
multi-index ``I + (a,)`` giving component a at row I, read through an
index array built once per (d, k).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, combinations_with_replacement
from math import prod

import numpy as np

from .errors import SingularMetric

_PIVOT_EPS = 1e-12


def plu_inverse(a):
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
        small = np.abs(pivot) <= _PIVOT_EPS
        if small.any():
            raise SingularMetric(f"pivot {pivot[small.argmax()]:g} below threshold")
        aug[:, col] /= pivot[:, None]
        row = aug[:, None, col]
        aug[:, :col] -= aug[:, :col, col, None] * row
        aug[:, col + 1 :] -= aug[:, col + 1 :, col, None] * row
    return aug[:, :, n:].reshape(a.shape)


def _frozen(a):
    """``a`` made read-only: a cached index table is shared by every
    caller."""
    a.flags.writeable = False
    return a


@cache
def _packed_rows(d, k):
    """The sorted multi-indices of length k over range(d), in the order of
    the rows of a packed part k: an (N, k) array."""
    rows = list(combinations_with_replacement(range(d), k))
    return _frozen(np.array(rows, dtype=np.intp).reshape(len(rows), k))


@cache
def packed_index(d, k):
    """Flat index into a full ``(d,)*k`` derivative layout of each row of
    a packed part k, k >= 1: part k of a full-layout jet reshaped to
    ``(P, d**k) + base`` and taken at these on axis 1 is packed."""
    return _frozen(np.ravel_multi_index(tuple(_packed_rows(d, k).T), (d,) * k))


@cache
def _row_of(d, k):
    """The packed row of every multi-index of length k: a ``(d,)*k``
    array, equal at the permutations of one multi-index."""
    shape = (d,) * k
    rank = np.empty(d**k, dtype=np.intp)
    rank[packed_index(d, k)] = np.arange(len(_packed_rows(d, k)))
    ordered = np.sort(np.indices(shape).reshape(k, -1), axis=0)
    return _frozen(rank[np.ravel_multi_index(tuple(ordered), shape)].reshape(shape))


@cache
def _gradient_rows(d, k):
    """The rows of part k+1 that make part k of the gradient: an (N, d)
    array, row I and component a reading the row of sorted(I + (a,))."""
    return _frozen(_row_of(d, k + 1)[tuple(_packed_rows(d, k).T)])


@cache
def _placements(d, k, j):
    """Where row I of part k of a product reads the product of parts j and
    k - j of its factors, 0 < j < k: for each placement of j of I's k
    positions on the first factor, in ``combinations`` order, the row
    pair (row of those j indices, row of the other k - j) of each I."""
    rows = _packed_rows(d, k)
    out = []
    for first in combinations(range(k), j):
        second = [p for p in range(k) if p not in first]
        out.append((_frozen(_row_of(d, j)[tuple(rows[:, first].T)]),
                    _frozen(_row_of(d, k - j)[tuple(rows[:, second].T)])))
    return tuple(out)


class JetTensor:
    """Stacked jets of a tensor field's components over a batch of points."""

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
        return self.parts[0].shape[1:]

    def cut(self, order):
        if order >= self.order:
            return self
        return JetTensor(self.dim, order, self.parts[: order + 1])

    def partial(self):
        """Gradient field: one new leading component axis, order drops by 1."""
        if self.order < 1:
            raise ValueError("cannot take partial of an order-0 jet tensor")
        d = self.dim
        return JetTensor(d, self.order - 1, [self.parts[1]] + [
            np.take(p, _gradient_rows(d, k), axis=1)
            for k, p in enumerate(self.parts[2:], 1)])

    def tb(self, perm):
        """Transpose base axes by perm (point and derivative axes untouched)."""
        nb = len(self.base_shape)
        if sorted(perm) != list(range(nb)):
            raise ValueError("perm must permute the base axes")
        parts = []
        for k, arr in enumerate(self.parts):
            lead = 1 + min(k, 1)  # the point axis and the one row axis
            axes = list(range(lead)) + [lead + p for p in perm]
            parts.append(np.transpose(arr, axes))
        return JetTensor(self.dim, self.order, parts)

    # -- linear structure -------------------------------------------------

    def _other(self, b):
        if isinstance(b, JetTensor):
            order = min(self.order, b.order)
            return self.cut(order), b.cut(order)
        raise TypeError("expected JetTensor")

    def __add__(self, b):
        return jt_sum(np.add, *self._other(b))

    def __sub__(self, b):
        return jt_sum(np.subtract, *self._other(b))

    def __mul__(self, c):
        c = float(c)
        return JetTensor(self.dim, self.order, [c * x for x in self.parts])

    __rmul__ = __mul__


def jt_sum(op, a, b, out=None):
    """``op(a, b)`` part by part, for ``op`` np.add or np.subtract and two
    jet tensors of one order: the bits of ``a + b`` or ``a - b``.  With
    ``out``, a tensor of that order that owns its parts (``a`` or ``b``),
    the parts are written into its own, so a running sum makes no new
    array."""
    outs = out.parts if out is not None else [None] * len(a.parts)
    return JetTensor(a.dim, a.order, [op(x, y, out=o) for x, y, o
                                      in zip(a.parts, b.parts, outs, strict=True)])


def _matmul_route(sa, sb, out):
    """A contraction as (P, M, K) @ (P, K, N).  M is the free letters of
    the operand that the output names first, N those of the other, each in
    output order, and K the summed letters."""
    swap = bool(out) and out[0] in sb
    if swap:
        sa, sb = sb, sa
    free_a = [c for c in out if c in sa]
    free_b = [c for c in out if c in sb]
    summed = [c for c in sa if c not in out]
    ax_a = (0, *(1 + sa.index(c) for c in free_a + summed))
    ax_b = (0, *(1 + sb.index(c) for c in summed + free_b))
    ax_out = (0, *(1 + (free_a + free_b).index(c) for c in out))
    split_a, split_b = 1 + len(free_a), 1 + len(summed)

    def run(a, b):
        if swap:
            a, b = b, a
        a, b = a.transpose(ax_a), b.transpose(ax_b)
        m, k, n = a.shape[1:split_a], a.shape[split_a:], b.shape[split_b:]
        c = np.matmul(a.reshape(len(a), prod(m), prod(k)),
                      b.reshape(len(b), prod(k), prod(n)))
        return c.reshape(c.shape[:1] + m + n).transpose(ax_out)

    return run


@cache
def _plan(sub):
    """(operand ranks, matmul route, np.einsum route) of ``sub``: operands
    of other ranks, or a subscript that is no contraction (ranks None),
    take np.einsum."""
    ins, out = sub.split("->")
    ins = ins.split(",")
    threaded = ",".join("..." + s for s in ins) + "->..." + out

    def fallback(*operands):
        return np.einsum(threaded, *operands)

    if len(ins) != 2:
        return None, fallback, fallback
    sa, sb = ins
    # a repeated letter, a letter summed inside one operand, one that both
    # operands keep, or no summed letter at all
    if (any(len(set(s)) < len(s) for s in ins) or set(sa) ^ set(sb) != set(out)
            or not set(sa) & set(sb)):
        return None, fallback, fallback
    return (1 + len(sa), 1 + len(sb)), _matmul_route(sa, sb, out), fallback


def point_einsum(sub, *operands):
    """np.einsum over base axes, with the leading point axis threaded:
    ``...`` goes before every operand and the output.

    A contraction of two operands that each lead with the point axis takes
    a route planned once per subscript: one ``np.matmul`` of the operands
    reshaped to (P, M, K) and (P, K, N), so one BLAS gemm per point, of
    the same shape at every batch size, and a batch gives each point the
    bits of its own call.  Everything else (an outer product, a repeated
    letter, a letter summed inside one operand or kept by both, three or
    more operands) takes np.einsum.
    """
    ranks, route, fallback = _plan(sub)
    if tuple(np.ndim(x) for x in operands) == ranks:
        return route(*operands)
    return fallback(*operands)


# products at each point as a stacked matmul, which gives each point the
# bits of its own ``@`` and runs on numpy 1.24 (np.matvec, np.vecmat and
# np.vecdot need numpy 2.2)
def matvec(a, v):
    return (a @ v[..., None])[..., 0]


def vecmat(v, a):
    return (v[..., None, :] @ a)[..., 0, :]


def vecdot(u, v):
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def bilinear(u, a, v):
    """u a v at each point, as ``(u @ a) @ v``."""
    return (u[..., None, :] @ a @ v[..., :, None])[..., 0, 0]


def jt_einsum(sub, a, b):
    """einsum of two jet tensors with the exact Leibniz rule.

    ``sub`` is an einsum subscript over the *base* axes, e.g.
    ``"lm,mij->lij"``.  Point and derivative axes are threaded
    automatically.  Part k sums, for j = 0..k, the contraction of part j
    of ``a`` with part k - j of ``b``; for 0 < j < k that contraction
    runs over all row pairs, and row I of part k takes the sum of the
    C(k, j) pairs that split I between the factors.
    """
    order = min(a.order, b.order)
    return JetTensor(a.dim, order, [_leibniz(sub, a.dim, a.parts, b.parts, k)
                                    for k in range(order + 1)])


def _leibniz(sub, d, a, b, k):
    """Part k of :func:`jt_einsum` of two lists of packed parts, which
    reads parts 0..k of each."""
    ins, out = sub.split("->")
    sa, sb = ins.split(",")
    acc = None
    for j in range(k + 1):
        da, db = "Z" * (j > 0), "Y" * (j < k)
        term = point_einsum(f"{da}{sa},{db}{sb}->{da}{db}{out}", a[j], b[k - j])
        if da and db:
            # row I of part k sums the row pairs that split I
            pairs, mixed = _placements(d, k, j), term
            term = mixed[:, pairs[0][0], pairs[0][1]]
            for x, y in pairs[1:]:
                term += mixed[:, x, y]
        acc = term if acc is None else acc + term
    return acc


def jt_metric_inverse(g):
    """Jets of the inverse of a jet-valued symmetric matrix at each point.

    Built order by order from dG = -G (dg) G, seeded with a pivoted
    inverse of the value part (raises SingularMetric when degenerate).
    Part k+1 is read from part k of that product, whose new derivative
    axis a leads the base: each row averages the k+1 places of a.  Each
    step adds part k of G (dg) and of its product with G, since the parts
    below k are those of the steps before.
    """
    d, order = g.dim, g.order
    parts = [plu_inverse(g.parts[0])]
    if order == 0:
        return JetTensor(d, 0, parts)
    dg = g.partial().parts  # base (a, i, j)
    gdg = []
    for k in range(order):
        gdg.append(_leibniz("im,amn->ain", d, parts, dg, k))
        h = _leibniz("ain,nj->aij", d, gdg, parts, k)  # (P, rows, a, i, j)
        if k == 0:
            parts.append(-h)
            continue
        # the k+1 places of a among I's indices are the placements of a
        # product of parts k and 1; summed from 0.0, so that an entry that
        # sums to zero reads 0.0 and not -0.0
        acc = np.zeros((len(h), len(_packed_rows(d, k + 1))) + h.shape[3:])
        for x, y in _placements(d, k + 1, k):
            acc -= h[:, x, y]
        parts.append(acc / (k + 1))
    return JetTensor(d, order, parts)
