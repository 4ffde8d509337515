"""Arithmetic expression language for coordinate component functions.

Grammar (standard precedence, left associativity)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := atom ('^' int)?
    atom   := number | name | '(' expr ')' | func '(' expr ')'

Only integer powers are allowed; fractional powers must be written via
``sqrt``.  Names must be declared coordinates.

:func:`eval_jet` evaluates an AST over a batch of P points at once, to the
parts of its truncated Taylor jets up to third order: part k has shape
``(d,)*k + (P,)``, the point axis after the derivative axes.  The rules
are those of Taylor arithmetic (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13), elementwise over the points, so a point
gets the same bits in any batch, one point included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, ParseError, UnknownCoordinate

FUNCTIONS = ("sqrt", "exp", "ln", "sinh", "cosh")


# -- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Coord:
    name: str
    index: int
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: object
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: object
    right: object
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: object
    span: tuple = field(default=None, compare=False)


# -- parser ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[off]!r}", off)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, coords):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.coords = {name: i for i, name in enumerate(coords)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            return self.advance()
        raise ParseError(f"expected {op!r}", off, expected={op})

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing token {val!r}", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = Bin(val, node, rhs, span=(node.span[0], rhs.span[1]))
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                node = Bin(val, node, rhs, span=(node.span[0], rhs.span[1]))
            else:
                return node

    def unary(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            arg = self.unary()
            return Neg(arg, span=(off, arg.span[1]))
        return self.factor()

    def factor(self):
        node = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            nkind, nval, noff = self.peek()
            neg = False
            if nkind == "op" and nval == "-":
                self.advance()
                neg = True
                nkind, nval, noff = self.peek()
            if nkind != "num" or any(c in nval for c in ".eE"):
                raise ParseError("power exponents must be integer literals", noff)
            self.advance()
            exponent = -int(nval) if neg else int(nval)
            return Pow(node, exponent, span=(node.span[0], noff + len(nval)))
        return node

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val), span=(off, off + len(val)))
        if kind == "name":
            nkind, nval, noff = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {val!r}", off, expected=set(FUNCTIONS)
                    )
                self.advance()
                arg = self.expr()
                _, _, endoff = self.expect_op(")")
                return Call(val, arg, span=(off, endoff + 1))
            if val not in self.coords:
                raise UnknownCoordinate(val, off)
            return Coord(val, self.coords[val], span=(off, off + len(val)))
        if kind == "op" and val == "(":
            node = self.expr()
            _, _, endoff = self.expect_op(")")
            return replace(node, span=(off, endoff + 1))
        raise ParseError(
            f"expected a number, coordinate or '('", off, expected={"atom"}
        )


def parse(text, coords):
    """Parse expression text over the declared coordinate names."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, list(coords)).parse()


# -- evaluation ---------------------------------------------------------------
#
# Inside the evaluator a jet is a Python float for a constant (a subtree
# without coordinates) or a list [value, d1, ..., d_order] of arrays, part k
# of shape (d,)*k + (P,); a part of order 2 or more is None while it is zero
# by construction, as a coordinate's is.  Each rule adds its terms in a
# fixed order and leaves out the None ones, which changes no bit of a sum
# but the sign of a zero.

_DIV_EPS = 1e-14


def _refuse(bad, message, v):
    """DomainError at the first point where ``bad`` holds."""
    if bad.any():
        i = int(np.argmax(bad))
        value = float(np.ravel(v)[i])
        raise DomainError(message.format(value), value=value, index=i)


def _refuse_overflow(message, v, *results):
    """DomainError at the first point where v is finite and a result is not."""
    finite = np.isfinite(results[0])
    for r in results[1:]:
        finite &= np.isfinite(r)
    _refuse(np.isfinite(v) & ~finite, message, v)


def _sqrt_terms(v):
    _refuse(v <= 0.0, "sqrt of non-positive value", v)
    r = np.sqrt(v)
    return r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v)


def _exp_terms(v):
    with np.errstate(over="ignore"):
        e = np.exp(v)
    _refuse_overflow("exp overflows at {:g}", v, e)
    return e, e, e, e


def _ln_terms(v):
    _refuse(v <= 0.0, "ln of non-positive value", v)
    with np.errstate(all="ignore"):
        p2, p3 = v**2, v**3
        terms = np.log(v), 1.0 / v, -1.0 / p2, 2.0 / p3
    _refuse_overflow("derivatives of ln overflow at {:g}", v, p2, p3, *terms)
    return terms


def _sinh_cosh_terms(v):
    """sinh, cosh, sinh, cosh, sinh at v: the first four are sinh and its
    derivatives, the last four cosh and its."""
    with np.errstate(over="ignore"):
        s, c = np.sinh(v), np.cosh(v)
    _refuse_overflow("sinh overflows at {:g}", v, s, c)
    return s, c, s, c, s


def _reciprocal_terms(v):
    _refuse(np.abs(v) < _DIV_EPS, "division by ~0 value", v)
    with np.errstate(over="ignore"):
        p2, p3, p4 = v**2, v**3, v**4
    _refuse_overflow("derivatives of 1/x overflow at {:g}", v, p2, p3, p4)
    return 1.0 / v, -1.0 / p2, 2.0 / p3, -6.0 / p4


# outer function -> its value and first three derivatives at a value
_TERMS = {
    "sqrt": _sqrt_terms,
    "exp": _exp_terms,
    "ln": _ln_terms,
    "sinh": _sinh_cosh_terms,
    "cosh": lambda v: _sinh_cosh_terms(v)[1:],
}


def _sum(terms):
    """Left-to-right sum of the terms that are not None; None if all are."""
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def _times(x, y):
    return None if x is None else x * y


def _compose(u, terms):
    """Faa di Bruno through the order of u, for the outer function whose
    value and derivatives at u's value ``terms`` returns."""
    if isinstance(u, float):
        return float(terms(np.float64(u))[0])
    f = terms(u[0])
    out = [f[0]]
    if len(u) > 1:
        out.append(f[1] * u[1])
    if len(u) > 2:
        out.append(_sum([f[2] * (u[1][:, None] * u[1][None]), _times(u[2], f[1])]))
    if len(u) > 3:
        d3 = [f[3] * (u[1][:, None, None] * u[1][None, :, None] * u[1][None, None])]
        if u[2] is not None:
            t = u[2][:, :, None] * u[1][None, None]
            d3.append(f[2] * (t + np.moveaxis(t, 2, 1) + np.moveaxis(t, 2, 0)))
        out.append(_sum(d3 + [_times(u[3], f[1])]))
    return out


def _jet_neg(a):
    return -a if isinstance(a, float) else [None if p is None else -p for p in a]


def _jet_add(a, b):
    if isinstance(a, float):
        return a + b if isinstance(b, float) else [b[0] + a] + b[1:]
    if isinstance(b, float):
        return [a[0] + b] + a[1:]
    return [y if x is None else x if y is None else x + y for x, y in zip(a, b)]


def _jet_sub(a, b):
    if isinstance(b, float) or isinstance(a, float):
        return _jet_add(a, _jet_neg(b))
    return [x if y is None else -y if x is None else x - y for x, y in zip(a, b)]


def _jet_mul(a, b):
    """Leibniz product; a constant factor scales every part."""
    if isinstance(a, float) or isinstance(b, float):
        a, b = (a, b) if isinstance(b, float) else (b, a)
        return a * b if isinstance(a, float) else [_times(p, b) for p in a]
    out = [a[0] * b[0]]
    if len(a) > 1:
        out.append(a[1] * b[0] + a[0] * b[1])
    if len(a) > 2:
        o = a[1][:, None] * b[1][None]
        out.append(_sum([_times(a[2], b[0]), o, np.swapaxes(o, 0, 1),
                         _times(b[2], a[0])]))
    if len(a) > 3:
        terms = [_times(a[3], b[0]), _times(b[3], a[0])]
        if a[2] is not None:
            t = a[2][:, :, None] * b[1][None, None]
            terms += [t, np.moveaxis(t, 2, 1), np.moveaxis(t, 2, 0)]
        if b[2] is not None:
            s = a[1][:, None, None] * b[2][None]
            terms += [s, np.moveaxis(s, 0, 1), np.moveaxis(s, 0, 2)]
        out.append(_sum(terms))
    return out


def _jet_pow(a, n):
    if n == 0:
        return 1.0
    out = a
    for _ in range(abs(n) - 1):
        out = _jet_mul(out, a)
    return _compose(out, _reciprocal_terms) if n < 0 else out


_BINARY = {
    "+": _jet_add,
    "-": _jet_sub,
    "*": _jet_mul,
    "/": lambda a, b: _jet_mul(a, _compose(b, _reciprocal_terms)),
}


def _eval(ast, coordinate):
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Coord):
        return coordinate(ast.index)
    if isinstance(ast, Neg):
        return _jet_neg(_eval(ast.arg, coordinate))
    if isinstance(ast, Bin):
        rule, args = _BINARY[ast.op], (_eval(ast.left, coordinate),
                                       _eval(ast.right, coordinate))
    elif isinstance(ast, Pow):
        rule, args = _jet_pow, (_eval(ast.base, coordinate), ast.exponent)
    elif isinstance(ast, Call):
        rule, args = _compose, (_eval(ast.arg, coordinate), _TERMS[ast.func])
    else:
        raise TypeError(f"not an AST node: {ast!r}")
    try:
        return rule(*args)
    except DomainError as e:
        raise DomainError(str(e), e.value, ast.span, e.index) from None


def _eval_shared(ast, coordinate, memo):
    """:func:`_eval`, except that a node whose id keys ``memo`` is evaluated
    once and then read from ``memo``.  The walk passes through negations,
    sums, differences and products, which cannot fail; any other node is
    left to :func:`_eval` whole."""
    jet = memo.get(id(ast))
    if jet is not None:
        return jet
    if isinstance(ast, Neg):
        jet = _jet_neg(_eval_shared(ast.arg, coordinate, memo))
    elif isinstance(ast, Bin) and ast.op != "/":
        jet = _BINARY[ast.op](_eval_shared(ast.left, coordinate, memo),
                              _eval_shared(ast.right, coordinate, memo))
    else:
        jet = _eval(ast, coordinate)
    if id(ast) in memo:
        memo[id(ast)] = jet
    return jet


_CHILDREN = {Neg: ("arg",), Bin: ("left", "right"), Pow: ("base",), Call: ("arg",)}


def shared_nodes(asts):
    """Ids of the nodes that the ASTs reach more than once: a node reached
    again is not walked again, so a shared node's subtree counts once."""
    seen, shared, stack = set(), set(), list(asts)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            shared.add(id(node))
        else:
            seen.add(id(node))
            stack += [getattr(node, name) for name in _CHILDREN.get(type(node), ())]
    return shared


def eval_jet(ast, points, order=3, memo=None):
    """Jets of an AST over a (P, d) array of points, up to ``order``, as
    the list of parts ``k = 0..order`` of shape ``(d,)*k + (P,)``.

    ``memo`` maps the ids of :func:`shared_nodes` to their jets over these
    points, None until evaluated, so ASTs evaluated with one memo evaluate
    each once; the list returned is never one that ``memo`` holds.

    A DomainError carries the span of the failing subexpression and, as
    ``index``, the first failing point.
    """
    points = np.asarray(points, dtype=float)
    count, dim = points.shape

    def coordinate(i):
        jet = [points[:, i]] + [None] * order
        if order:
            jet[1] = np.zeros((dim, count))
            jet[1][i] = 1.0
        return jet

    out = _eval(ast, coordinate) if memo is None else _eval_shared(ast, coordinate, memo)
    if isinstance(out, float):
        value = np.empty(count)
        value.fill(out)
        out = [value] + [None] * order
    return [out[0]] + [np.zeros((dim,) * k + (count,)) if out[k] is None else out[k]
                       for k in range(1, order + 1)]


# -- symbolic derivative (internal plumbing for embeddings) -------------------


def _num(v):
    return Num(float(v))


def _add(a, b):
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value + b.value)
    return Bin("+", a, b)


def _sub(a, b):
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value - b.value)
    return Bin("-", a, b)


def _mul(a, b):
    if isinstance(a, Num):
        if a.value == 0.0:
            return _num(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Num):
        if b.value == 0.0:
            return _num(0.0)
        if b.value == 1.0:
            return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value * b.value)
    return Bin("*", a, b)


def _div(a, b):
    if isinstance(a, Num) and a.value == 0.0:
        return _num(0.0)
    return Bin("/", a, b)


def derivative(ast, index):
    """Exact derivative of an AST with respect to coordinate ``index``.

    Used internally to obtain tangent-basis fields of an immersion at full
    jet order; not part of the public expression language.
    """
    if isinstance(ast, Num):
        return _num(0.0)
    if isinstance(ast, Coord):
        return _num(1.0 if ast.index == index else 0.0)
    if isinstance(ast, Neg):
        return Neg(derivative(ast.arg, index))
    if isinstance(ast, Bin):
        da, db = derivative(ast.left, index), derivative(ast.right, index)
        if ast.op == "+":
            return _add(da, db)
        if ast.op == "-":
            return _sub(da, db)
        if ast.op == "*":
            return _add(_mul(da, ast.right), _mul(ast.left, db))
        return _div(
            _sub(_mul(da, ast.right), _mul(ast.left, db)), Pow(ast.right, 2)
        )
    if isinstance(ast, Pow):
        du = derivative(ast.base, index)
        if ast.exponent == 0:
            return _num(0.0)
        return _mul(_mul(_num(ast.exponent), Pow(ast.base, ast.exponent - 1)), du)
    if isinstance(ast, Call):
        du = derivative(ast.arg, index)
        u = ast.arg
        if ast.func == "sqrt":
            return _div(du, _mul(_num(2.0), Call("sqrt", u)))
        if ast.func == "exp":
            return _mul(Call("exp", u), du)
        if ast.func == "ln":
            return _div(du, u)
        if ast.func == "sinh":
            return _mul(Call("cosh", u), du)
        if ast.func == "cosh":
            return _mul(Call("sinh", u), du)
    raise TypeError(f"not an AST node: {ast!r}")


# -- scalar fields -------------------------------------------------------------


class ScalarField:
    """A coordinate component function, evaluable to jets over points."""

    __slots__ = ("ast",)

    def __init__(self, ast):
        self.ast = ast

    def __call__(self, points, order=3, memo=None):
        return eval_jet(self.ast, points, order, memo)
