"""Arithmetic expression language for coordinate component functions.

Grammar (standard precedence, left associativity)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := atom ('^' int)?
    atom   := number | name | '(' expr ')' | func '(' expr ')'

Only integer powers are allowed; fractional powers must be written via
``sqrt``.  Names must be declared coordinates.

A :class:`JetProgram` evaluates a list of ASTs over a batch of P points
at once, each distinct node once, to the parts of their truncated Taylor
jets up to fourth order; :func:`eval_jet` is the program of one AST, its
part k of shape ``(P,) + (d,)*k``, point-first as a ``JetTensor``'s.
Structure fields go to third order; only an immersion is evaluated to the
fourth, since its tangent frame is the gradient of its jets.  The
rules are those of Taylor arithmetic (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13), elementwise over the points and the
stacked nodes, so a point gets the same bits in any batch and any program,
one point and one AST included.
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
# Inside the evaluator, rows of jets are stacked: a jet is a constant, a
# (rows, P) array, for subtrees without coordinates, or a list
# [value, d1, ..., d_order] of arrays, part k of shape (d,)*k + (rows, P); a
# part of order 2 or more is None while it is zero by construction, as a
# coordinate's is.  Each rule adds its terms in a fixed order and leaves out
# the None ones, which changes no bit of a sum but the sign of a zero.

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
    with np.errstate(all="ignore"):
        fourth = -0.9375 / (r * v * v * v)
    return r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v), fourth


def _exp_terms(v):
    with np.errstate(over="ignore"):
        e = np.exp(v)
    _refuse_overflow("exp overflows at {:g}", v, e)
    return e, e, e, e, e


def _ln_terms(v):
    _refuse(v <= 0.0, "ln of non-positive value", v)
    with np.errstate(all="ignore"):
        p2, p3 = v**2, v**3
        terms = np.log(v), 1.0 / v, -1.0 / p2, 2.0 / p3
        fourth = -6.0 / v**4
    _refuse_overflow("derivatives of ln overflow at {:g}", v, p2, p3, *terms)
    return *terms, fourth


def _sinh_cosh_terms(v):
    """sinh, cosh, sinh, cosh, sinh, cosh at v: the first five are sinh and
    its derivatives, the last five cosh and its."""
    with np.errstate(over="ignore"):
        s, c = np.sinh(v), np.cosh(v)
    _refuse_overflow("sinh overflows at {:g}", v, s, c)
    return s, c, s, c, s, c


def _reciprocal_terms(v):
    _refuse(np.abs(v) < _DIV_EPS, "division by ~0 value", v)
    with np.errstate(over="ignore"):
        p2, p3, p4 = v**2, v**3, v**4
        fourth = 24.0 / v**5
    _refuse_overflow("derivatives of 1/x overflow at {:g}", v, p2, p3, p4)
    return 1.0 / v, -1.0 / p2, 2.0 / p3, -6.0 / p4, fourth


# outer function -> its value and first four derivatives at a value; the
# fourth is left out of the refusals, so that an evaluation to third order
# refuses what it did before the fourth existed
_TERMS = {
    "sqrt": _sqrt_terms,
    "exp": _exp_terms,
    "ln": _ln_terms,
    "sinh": _sinh_cosh_terms,
    "cosh": lambda v: _sinh_cosh_terms(v)[1:],
}

# moveaxis destinations of a product's four derivative axes: a 3+1 product's
# last axis at each place, a 2+2 product's first pair at each pair of places
_PLACE_31 = ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 3, 1), (1, 2, 3, 0))
_PLACE_22 = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2),
             (1, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 1))


def _placed(t, places):
    """``t`` with its four derivative axes moved to each of ``places``."""
    return [np.moveaxis(t, (0, 1, 2, 3), p) for p in places]


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
    if not isinstance(u, list):
        return terms(u)[0]
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
    if len(u) > 4:
        # f4 u1^4 + f3 (6 of u2 u1 u1) + f2 (3 of u2 u2 + 4 of u3 u1) + f1 u4
        g2 = u[1][:, None] * u[1][None]
        d4, by_f2 = [f[4] * (g2[:, :, None, None] * g2[None, None])], []
        if u[2] is not None:
            d4.append(f[3] * _sum(_placed(u[2][:, :, None, None] * g2[None, None],
                                          _PLACE_22)))
            by_f2 += _placed(u[2][:, :, None, None] * u[2][None, None], _PLACE_22[:3])
        if u[3] is not None:
            by_f2 += _placed(u[3][:, :, :, None] * u[1][None, None, None], _PLACE_31)
        out.append(_sum(d4 + [_times(_sum(by_f2), f[2]), _times(u[4], f[1])]))
    return out


def _jet_neg(a):
    return -a if not isinstance(a, list) else [None if p is None else -p for p in a]


def _jet_add(a, b):
    if not isinstance(a, list):
        return a + b if not isinstance(b, list) else [b[0] + a] + b[1:]
    if not isinstance(b, list):
        return [a[0] + b] + a[1:]
    return [y if x is None else x if y is None else x + y for x, y in zip(a, b)]


def _jet_sub(a, b):
    if not isinstance(b, list) or not isinstance(a, list):
        return _jet_add(a, _jet_neg(b))
    return [x if y is None else -y if x is None else x - y for x, y in zip(a, b)]


def _jet_mul(a, b):
    """Leibniz product; a constant factor scales every part."""
    if not isinstance(a, list) or not isinstance(b, list):
        a, b = (a, b) if not isinstance(b, list) else (b, a)
        return a * b if not isinstance(a, list) else [_times(p, b) for p in a]
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
    if len(a) > 4:
        # a4 b0 + b4 a0 + 4 placements each of a3 b1 and b3 a1 + 6 of a2 b2
        terms = [_times(a[4], b[0]), _times(b[4], a[0])]
        for x, y in ((a, b), (b, a)):
            if x[3] is not None:
                terms += _placed(x[3][:, :, :, None] * y[1][None, None, None], _PLACE_31)
        if a[2] is not None and b[2] is not None:
            terms += _placed(a[2][:, :, None, None] * b[2][None, None], _PLACE_22)
        out.append(_sum(terms))
    return out


def _jet_pow(a, n):
    if n == 0:
        return 1.0
    out = a
    for _ in range(abs(n) - 1):
        out = _jet_mul(out, a)
    return _compose(out, _reciprocal_terms) if n < 0 else out


# -- programs -------------------------------------------------------------------
#
# A JetProgram holds many ASTs as one hash-consed DAG (Filliatre & Conchon,
# "Type-safe modular hash-consing", ML Workshop 2006): structurally equal
# nodes are one row, and a Num is keyed on its exact bits, so 0.0 and -0.0
# stay two.  A row's degree is None for a constant, else the highest order
# of its parts that the rules above leave an array rather than None: a
# function of the AST alone.  Coordinates and constants are written in;
# every other node is grouped by height, op and operand degrees, and each
# group runs its rule once on the stacked rows, so that each element sees
# the same operations, in the same order, whatever rows it is stacked with.


def _degree(op, a, b):
    """Degree of a row of ``op`` from its operands' (b is a for a unary op)."""
    if op == "/":  # a product with a reciprocal
        op, b = "*", b and 4
    if op in _TERMS:
        return a and 4
    if type(op) is tuple:  # ("^", n)
        n = op[1]
        return a and (None if n == 0 else 4 if n < 0 else min(n * a, 4))
    if a is None or b is None:
        return b if a is None else a
    return min(a + b, 4) if op == "*" else max(a, b)


_OPERATIONS = {"neg": _jet_neg, "+": _jet_add, "-": _jet_sub, "*": _jet_mul,
               "/": lambda a, b: _jet_mul(a, _compose(b, _reciprocal_terms))}


def _rule(op):
    """The rule of a row's op, on its operands' jets."""
    if op in _TERMS:
        return lambda a: _compose(a, _TERMS[op])
    if type(op) is tuple:
        return lambda a: _jet_pow(a, op[1])
    return _OPERATIONS[op]


class JetProgram:
    """Jets of a list of ASTs, the roots, over a batch of points, each
    distinct node evaluated once per batch.  ``nodes[r]`` is the first node
    visited of row r and ``degrees[r]`` its degree.  Rows are numbered in
    the order in which evaluating the roots one by one finishes their first
    nodes, and the DomainError raised is that of the lowest failing row, so
    it is the one that evaluation meets first."""

    def __init__(self, asts):
        seen, rows, keys, self.nodes = {}, {}, [], []

        def row(node):
            # a node's key holds its operands' earlier rows
            r = seen.get(id(node))
            if r is None:
                kind = type(node)
                if kind is Num:
                    key = (Num, float(node.value).hex())
                elif kind is Coord:
                    key = (Coord, node.index)
                elif kind is Bin:
                    key = (node.op, row(node.left), row(node.right))
                elif kind is Pow:
                    key = (("^", node.exponent), row(node.base))
                else:
                    key = ("neg" if kind is Neg else node.func, row(node.arg))
                r = seen[id(node)] = rows.setdefault(key, len(keys))
                if r == len(keys):
                    keys.append(key)
                    self.nodes.append(node)
            return r

        self.roots = np.array([row(a) for a in asts], dtype=np.intp)
        self.degrees, heights, groups = [], [], {}
        leaves = {Coord: [], Num: []}
        for r, key in enumerate(keys):
            op, a, b = key[0], key[1], key[-1]  # b is a for a unary op
            if op in leaves:
                leaves[op].append(r)
                self.degrees.append(1 if op is Coord else None)
                heights.append(0)
            else:
                da, db = self.degrees[a], self.degrees[b]
                self.degrees.append(_degree(op, da, db))
                heights.append(max(heights[a], heights[b]) + 1)
                groups.setdefault((heights[r], op, da, db), []).append((*key[1:], r))
        coords, nums = leaves[Coord], leaves[Num]
        self.coords = np.array([coords, [self.nodes[r].index for r in coords]],
                               dtype=np.intp).reshape(2, -1)
        self.nums = nums, np.array([self.nodes[r].value for r in nums]).reshape(-1, 1)
        # (rule, operand degrees, operand rows and the group's rows), by height
        self.groups = [(_rule(g[1]), g[2:], np.array(groups[g], dtype=np.intp).T)
                       for g in sorted(groups, key=lambda g: g[0])]

    def __call__(self, points, order):
        """Parts k = 0..order of the roots' jets over a (P, d) array of
        points, part k shaped ``(P,) + (d,)*k + (roots,)``.  Only orders
        0..4 have rules: any other raises ValueError."""
        if not 0 <= order <= 4:
            raise ValueError(f"jet order must be 0..4, got {order}")
        points = np.asarray(points, dtype=float)
        count, dim = points.shape
        slabs = [np.zeros((dim,) * k + (len(self.nodes), count))
                 for k in range(order + 1)]
        coord_rows, index = self.coords
        slabs[0][coord_rows] = points.T[index]
        if order:
            slabs[1][index, coord_rows] = 1.0
        slabs[0][self.nums[0]] = self.nums[1]

        def take(rows, degree):
            if degree is None:
                return slabs[0][rows]
            return [s[..., rows, :] if k <= degree else None
                    for k, s in enumerate(slabs)]

        def run(rule, degrees, rows):
            *operands, out = rows
            jet = rule(*map(take, operands, degrees))
            for slab, part in zip(slabs, jet if isinstance(jet, list) else [jet]):
                if part is not None:
                    slab[..., out, :] = part

        refusals = {}
        for rule, degrees, rows in self.groups:
            try:
                run(rule, degrees, rows)
            except DomainError:
                # a stacked refusal may name any of its rows: run each alone
                for one in rows.T[:, :, None]:
                    try:
                        run(rule, degrees, one)
                    except DomainError as e:
                        refusals[int(one[-1, 0])] = e
        if refusals:
            r = min(refusals)
            e = refusals[r]
            raise DomainError(str(e), e.value, self.nodes[r].span, e.index)
        return [np.moveaxis(s[..., self.roots, :], -1, 0) for s in slabs]


def eval_jet(ast, points, order=3):
    """Jets of an AST over a (P, d) array of points, up to ``order`` (at
    most 4), as the list of parts ``k = 0..order`` of shape ``(P,) + (d,)*k``:
    a :class:`JetProgram` of one root.

    A DomainError carries the span of the failing subexpression and, as
    ``index``, the first failing point.
    """
    return [p[..., 0] for p in JetProgram([ast])(points, order)]


# -- scalar fields -------------------------------------------------------------


# no chart uses it; kept while perfbench/tracer.py patches __call__ by name
class ScalarField:
    """A coordinate component function, evaluable to jets over points."""

    __slots__ = ("ast",)

    def __init__(self, ast):
        self.ast = ast

    def __call__(self, points, order=3):
        return eval_jet(self.ast, points, order)
