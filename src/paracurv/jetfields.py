"""Tensor fields of jets, packed as stacked coordinate-derivative arrays.

A :class:`JetTensor` of order m holds arrays ``parts[k]`` for k = 0..m,
where ``parts[k]`` has shape ``(P,) + (dim,)*k + base_shape`` and stores
the k-th coordinate partials of every component at each of P points
(derivative axes kept symmetric, since partials commute).  The leading
point axis is threaded by every operation as numpy's ``...``, so the
subscripts name base axes only.  This lets curvature formulas run as plain
einsums with an exact Leibniz rule instead of per-component jet objects,
which matters once rank-4 tensors at hundreds of points show up.

Every such einsum is a :func:`point_einsum`, whose docstring says how
it runs.

``partial()`` is free: the (k+1)-st derivative array of a field *is* the
k-th derivative array of its gradient, with the last derivative axis
reinterpreted as a component axis.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from math import factorial, prod

import numpy as np

from .errors import SingularMetric

_DLETTERS = "ZYXW"
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


def _sym_leading(arr, m):
    """Symmetrize the m axes of arr that follow its point axis."""
    if m < 2:
        return arr
    acc = np.zeros_like(arr)
    for perm in permutations(range(1, 1 + m)):
        acc += np.transpose(arr, (0, *perm, *range(1 + m, arr.ndim)))
    return acc / factorial(m)


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
        return JetTensor(self.dim, self.order - 1, self.parts[1:])

    def tb(self, perm):
        """Transpose base axes by perm (point and derivative axes untouched)."""
        nb = len(self.base_shape)
        if sorted(perm) != list(range(nb)):
            raise ValueError("perm must permute the base axes")
        parts = []
        for k, arr in enumerate(self.parts):
            lead = 1 + k
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
        a, b = self._other(b)
        return JetTensor(a.dim, a.order, [x + y for x, y in zip(a.parts, b.parts)])

    def __sub__(self, b):
        a, b = self._other(b)
        return JetTensor(a.dim, a.order, [x - y for x, y in zip(a.parts, b.parts)])

    def __mul__(self, c):
        c = float(c)
        return JetTensor(self.dim, self.order, [c * x for x in self.parts])

    __rmul__ = __mul__


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
    automatically and the mixed Leibniz terms are symmetrized over the
    derivative axes.
    """
    ins, out = sub.split("->")
    sa, sb = ins.split(",")
    order = min(a.order, b.order)
    parts = []
    for k in range(order + 1):
        acc = None
        for j in range(k + 1):
            da, db = _DLETTERS[:j], _DLETTERS[j:k]
            term = point_einsum(f"{da}{sa},{db}{sb}->{_DLETTERS[:k]}{out}",
                                a.parts[j], b.parts[k - j])
            if k == 2 and j == 1:
                term = term + np.swapaxes(term, 1, 2)
            elif k == 3 and j == 1:
                # A's single derivative axis sits first
                term = (term + np.moveaxis(term, 1, 2)
                        + np.moveaxis(term, 1, 3))
            elif k == 3 and j == 2:
                # B's single derivative axis sits last
                term = (term + np.moveaxis(term, 3, 2)
                        + np.moveaxis(term, 3, 1))
            acc = term if acc is None else acc + term
        parts.append(acc)
    return JetTensor(a.dim, order, parts)


def jt_metric_inverse(g):
    """Jets of the inverse of a jet-valued symmetric matrix at each point.

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
        parts.append(_sym_leading(-h.parts[k], k + 1))
    return JetTensor(d, order, parts)
