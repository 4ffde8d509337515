"""Truncated Taylor jets of scalar functions, up to third order.

A :class:`Jet` stores the value of a scalar function at a point together
with its partial derivatives up to ``order`` (at most 3) with respect to
``dim`` coordinates.  Arithmetic follows exact product/chain rules, so
composing jets of coordinate functions reproduces the coordinate partials
of the composite with no truncation error beyond the requested order.

Second- and third-derivative arrays are kept exactly symmetric: the
public constructor symmetrizes on write, internal arithmetic only ever
produces symmetric arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularMetric

_DIV_EPS = 1e-14


def _sym2(a):
    return 0.5 * (a + a.T)


def _sym3(a):
    return (
        a
        + a.transpose(0, 2, 1)
        + a.transpose(1, 0, 2)
        + a.transpose(1, 2, 0)
        + a.transpose(2, 0, 1)
        + a.transpose(2, 1, 0)
    ) / 6.0


def _no_overflow(v, *fns):
    """Each math function at v; an overflow is a domain error."""
    try:
        return [f(v) for f in fns]
    except OverflowError:
        raise DomainError(f"{fns[0].__name__} overflows at {v:g}", value=v) from None


class Jet:
    """Value plus coordinate partials of a scalar function at a point."""

    __slots__ = ("dim", "order", "value", "d1", "d2", "d3")

    def __init__(self, dim, order, value, d1=None, d2=None, d3=None):
        if not 0 <= order <= 3:
            raise ValueError(f"jet order must be in 0..3, got {order}")
        self.dim = int(dim)
        self.order = int(order)
        self.value = float(value)
        self.d1 = None
        self.d2 = None
        self.d3 = None
        if order >= 1:
            self.d1 = np.zeros(dim) if d1 is None else np.asarray(d1, dtype=float)
        if order >= 2:
            self.d2 = (
                np.zeros((dim, dim)) if d2 is None else _sym2(np.asarray(d2, dtype=float))
            )
        if order >= 3:
            self.d3 = (
                np.zeros((dim, dim, dim))
                if d3 is None
                else _sym3(np.asarray(d3, dtype=float))
            )

    @classmethod
    def _raw(cls, dim, order, value, d1=None, d2=None, d3=None):
        """Trusted constructor: arrays are already symmetric."""
        j = cls.__new__(cls)
        j.dim = dim
        j.order = order
        j.value = value
        j.d1 = d1
        j.d2 = d2
        j.d3 = d3
        return j

    @classmethod
    def constant(cls, c, dim, order=3):
        j = cls(dim, order, c)
        return j

    @classmethod
    def coordinate(cls, index, point, order=3):
        point = np.asarray(point, dtype=float)
        dim = point.shape[0]
        j = cls(dim, order, point[index])
        if order >= 1:
            j.d1[index] = 1.0
        return j

    def restrict(self, order):
        """View of this jet truncated to a lower order."""
        if order > self.order:
            raise ValueError("cannot raise jet order by restriction")
        return Jet._raw(
            self.dim,
            order,
            self.value,
            self.d1 if order >= 1 else None,
            self.d2 if order >= 2 else None,
            self.d3 if order >= 3 else None,
        )

    # -- ring operations ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, float)):
            return Jet.constant(float(other), self.dim, self.order)
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        k = min(self.order, b.order)
        return Jet._raw(
            self.dim,
            k,
            self.value + b.value,
            self.d1 + b.d1 if k >= 1 else None,
            self.d2 + b.d2 if k >= 2 else None,
            self.d3 + b.d3 if k >= 3 else None,
        )

    __radd__ = __add__

    def __neg__(self):
        k = self.order
        return Jet._raw(
            self.dim,
            k,
            -self.value,
            -self.d1 if k >= 1 else None,
            -self.d2 if k >= 2 else None,
            -self.d3 if k >= 3 else None,
        )

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        a = self
        k = min(a.order, b.order)
        v = a.value * b.value
        d1 = d2 = d3 = None
        if k >= 1:
            d1 = a.d1 * b.value + a.value * b.d1
        if k >= 2:
            d2 = (
                a.d2 * b.value
                + np.outer(a.d1, b.d1)
                + np.outer(b.d1, a.d1)
                + a.value * b.d2
            )
        if k >= 3:
            t = np.einsum("ij,k->ijk", a.d2, b.d1)
            s = np.einsum("i,jk->ijk", a.d1, b.d2)
            d3 = (
                a.d3 * b.value
                + a.value * b.d3
                + t
                + np.moveaxis(t, 2, 1)
                + np.moveaxis(t, 2, 0)
                + s
                + np.moveaxis(s, 0, 1)
                + np.moveaxis(s, 0, 2)
            )
        return Jet._raw(a.dim, k, v, d1, d2, d3)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self * b.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("jet exponent must be an integer")
        if n == 0:
            return Jet.constant(1.0, self.dim, self.order)
        if n < 0:
            return (self ** (-n)).reciprocal()
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # -- analytic functions ---------------------------------------------

    def _compose(self, f0, f1, f2, f3):
        """Faa di Bruno through third order for a univariate outer f."""
        k = self.order
        u1, u2, u3 = self.d1, self.d2, self.d3
        d1 = d2 = d3 = None
        if k >= 1:
            d1 = f1 * u1
        if k >= 2:
            d2 = f2 * np.outer(u1, u1) + f1 * u2
        if k >= 3:
            t = np.einsum("ij,k->ijk", u2, u1)
            d3 = (
                f3 * np.einsum("i,j,k->ijk", u1, u1, u1)
                + f2 * (t + np.moveaxis(t, 2, 1) + np.moveaxis(t, 2, 0))
                + f1 * u3
            )
        return Jet._raw(self.dim, k, f0, d1, d2, d3)

    def reciprocal(self):
        v = self.value
        if abs(v) < _DIV_EPS:
            raise DomainError("division by ~0 value", value=v)
        try:
            terms = -1.0 / v**2, 2.0 / v**3, -6.0 / v**4
        except OverflowError:
            raise DomainError(f"derivatives of 1/x overflow at {v:g}", value=v) from None
        return self._compose(1.0 / v, *terms)

    def sqrt(self):
        v = self.value
        if v <= 0.0:
            raise DomainError("sqrt of non-positive value", value=v)
        r = math.sqrt(v)
        return self._compose(r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v))

    def exp(self):
        (e,) = _no_overflow(self.value, math.exp)
        return self._compose(e, e, e, e)

    def ln(self):
        v = self.value
        if v <= 0.0:
            raise DomainError("ln of non-positive value", value=v)
        try:
            terms = 1.0 / v, -1.0 / v**2, 2.0 / v**3
        except OverflowError:
            raise DomainError(f"derivatives of ln overflow at {v:g}", value=v) from None
        return self._compose(math.log(v), *terms)

    def sinh(self):
        s, c = _no_overflow(self.value, math.sinh, math.cosh)
        return self._compose(s, c, s, c)

    def cosh(self):
        s, c = _no_overflow(self.value, math.sinh, math.cosh)
        return self._compose(c, s, c, s)


_UNARY = {
    "sqrt": Jet.sqrt,
    "exp": Jet.exp,
    "ln": Jet.ln,
    "sinh": Jet.sinh,
    "cosh": Jet.cosh,
}

_BINARY = {
    "add": Jet.__add__,
    "sub": Jet.__sub__,
    "mul": Jet.__mul__,
    "div": Jet.__truediv__,
    "pow": Jet.__pow__,
}


def jet_arith(op, a, b=None):
    """Named dispatch over the supported jet operations.

    ``pow`` takes an integer second operand; the remaining binary ops take
    a second jet (or plain number).
    """
    if op in _UNARY:
        if b is not None:
            raise ValueError(f"{op} is unary")
        return _UNARY[op](a)
    if op in _BINARY:
        if b is None:
            raise ValueError(f"{op} needs two operands")
        return _BINARY[op](a, b)
    raise ValueError(f"unsupported jet operation {op!r}")


def jet_matrix_inverse(mat, pivot_eps=1e-12):
    """Invert a square matrix of jets by Gauss-Jordan with partial pivoting.

    Jets form a commutative ring in which an element is invertible iff its
    value part is nonzero, so pivoting on the value part suffices.
    Raises :class:`SingularMetric` when no pivot exceeds ``pivot_eps``.
    """
    a = np.array(mat, dtype=object)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    dim = a[0, 0].dim
    order = min(j.order for j in a.flat)
    aug = np.empty((n, 2 * n), dtype=object)
    for i in range(n):
        for j in range(n):
            aug[i, j] = a[i, j].restrict(order)
            aug[i, n + j] = Jet.constant(1.0 if i == j else 0.0, dim, order)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(aug[r, col].value))
        if abs(aug[piv, col].value) <= pivot_eps:
            raise SingularMetric(f"pivot {aug[piv, col].value:g} below threshold")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        inv_piv = aug[col, col].reciprocal()
        for j in range(2 * n):
            aug[col, j] = aug[col, j] * inv_piv
        for r in range(n):
            if r == col:
                continue
            f = aug[r, col]
            if f.value == 0.0 and (f.order == 0 or not f.d1.any()):
                if f.order < 2 or not f.d2.any():
                    if f.order < 3 or not f.d3.any():
                        continue
            for j in range(2 * n):
                aug[r, j] = aug[r, j] - f * aug[col, j]
    return aug[:, n:].copy()
