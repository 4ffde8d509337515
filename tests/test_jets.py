"""Jets of expressions: finite-difference and sympy oracles, ring laws,
point batches."""

from itertools import permutations, product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracurv.connection import get_frame
from paracurv.errors import DomainError, SingularMetric
from paracurv.exprlang import eval_jet, parse
from paracurv.jetfields import (
    JetTensor,
    jt_einsum,
    jt_metric_inverse,
    jt_sum,
    plu_inverse,
    point_einsum,
)

from conftest import (
    CORPUS_COORDS,
    CORPUS_POINT,
    EXPRESSION_CORPUS,
    corpus_asts,
    fd_gradient,
    fd_hessian,
    fd_third,
    pack,
    sample_points,
    sorted_indices,
    unpack,
)


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))


def at_point(ast, point, order):
    """Parts of the jet at one point, without the point axis."""
    return [p[0] for p in eval_jet(ast, [point], order)]


@pytest.mark.parametrize("text", EXPRESSION_CORPUS)
def test_first_order_matches_finite_differences(text):
    ast = parse(text, CORPUS_COORDS)
    d1 = at_point(ast, CORPUS_POINT, 1)[1]
    assert rel_err(d1, fd_gradient(ast, CORPUS_POINT)) < 1e-5


@pytest.mark.parametrize("text", EXPRESSION_CORPUS)
def test_second_order_matches_finite_differences(text):
    ast = parse(text, CORPUS_COORDS)
    d2 = at_point(ast, CORPUS_POINT, 2)[2]
    assert rel_err(d2, fd_hessian(ast, CORPUS_POINT)) < 1e-4


def test_third_order_matches_finite_differences():
    ast = parse("sinh(u)*cosh(v)", CORPUS_COORDS)
    d3 = at_point(ast, CORPUS_POINT, 3)[3]
    assert rel_err(d3, fd_third(ast, CORPUS_POINT)) < 1e-4


def test_third_order_symmetry_is_exact():
    for ast in corpus_asts():
        d3 = at_point(ast, CORPUS_POINT, 3)[3]
        assert np.array_equal(d3, d3.transpose(1, 0, 2))
        assert np.array_equal(d3, d3.transpose(0, 2, 1))


@pytest.mark.parametrize("text", EXPRESSION_CORPUS)
def test_fourth_order_matches_sympy(text):
    # exact partials of the expression, evaluated with 50-digit floats at
    # the double-precision point
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols(CORPUS_COORDS)
    expr = sympy.sympify(text, locals=dict(zip(CORPUS_COORDS, x), ln=sympy.log))
    at = {s: sympy.Float(float(c), 50) for s, c in zip(x, CORPUS_POINT)}
    exact = {}
    want = np.empty((3,) * 4)
    for idx in product(range(3), repeat=4):
        key = tuple(sorted(idx))
        if key not in exact:
            exact[key] = float(expr.diff(*(x[i] for i in key)).xreplace(at))
        want[idx] = exact[key]
    d4 = at_point(parse(text, CORPUS_COORDS), CORPUS_POINT, 4)[4]
    assert rel_err(d4, want) < 1e-13


def test_fourth_order_symmetry_is_exact():
    for ast in corpus_asts():
        d4 = at_point(ast, CORPUS_POINT, 4)[4]
        for perm in permutations(range(4)):
            assert np.array_equal(d4, d4.transpose(perm))


def test_lower_order_evaluation_is_a_restriction():
    # evaluating at a lower order must reproduce the higher-order parts
    # bit for bit; the arithmetic of each part only uses same-order data
    for ast in corpus_asts():
        j4 = eval_jet(ast, [CORPUS_POINT], order=4)
        j3 = eval_jet(ast, [CORPUS_POINT], order=3)
        j1 = eval_jet(ast, [CORPUS_POINT], order=1)
        assert all(np.array_equal(a, b) for a, b in zip(j4[:4], j3, strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(j3[:2], j1, strict=True))


def test_fourth_derivatives_refuse_nothing_new():
    # each outer function's fourth derivative is left out of its refusals:
    # to third order these evaluate, finite and without a warning, as they
    # did before the fourth existed; a fourth part that overflows, as ln's
    # -6/u^4 does here, is left to the finiteness check of the structure
    for text, u in (("ln(u)", 1e-90), ("1/u", 1e62), ("sqrt(u)", 1e100)):
        ast = parse(text, ("u", "v"))
        j3 = eval_jet(ast, [[u, 0.0]], order=3)
        assert all(np.isfinite(p).all() for p in j3)
        with np.errstate(all="ignore"):
            j4 = eval_jet(ast, [[u, 0.0]], order=4)
        assert all(np.array_equal(a, b) for a, b in zip(j4[:4], j3, strict=True))
        assert np.isfinite(j4[4]).all() == (text != "ln(u)")


@pytest.mark.parametrize("order", [-1, 5])
def test_orders_without_rules_are_refused(order):
    # no rule builds a fifth part: it would read 0.0, not sqrt's 0.0531 here
    with pytest.raises(ValueError, match="0..4"):
        eval_jet(parse("sqrt(2 + u)", ["u"]), [[0.5]], order)


def test_coordinate_jets_seed_the_chain_rule():
    value, d1, d2, d3 = at_point(parse("v", CORPUS_COORDS),
                                 np.array([2.0, -0.5, 1.0]), 3)
    assert value == -0.5
    assert np.array_equal(d1, [0.0, 1.0, 0.0])
    assert not d2.any() and not d3.any()


def test_constant_expressions_have_zero_derivatives():
    jet = eval_jet(parse("exp(1)*2 - 3/4", CORPUS_COORDS),
                   np.zeros((4, 3)), order=2)
    assert jet[0].shape == (4,)
    assert np.all(jet[0] == jet[0][0])
    assert not jet[1].any() and not jet[2].any()


# -- ring laws on random quadratic jets -------------------------------------

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
# two points of the (u, v) plane; at the origin the jet of
# c0 + c1 u + c2 v + c11 u^2 + c12 u v + c22 v^2 is (c0, (c1, c2), ...)
PLANE = np.array([[0.0, 0.0], [0.3, -0.2]])


@st.composite
def quadratics(draw):
    """A quadratic in (u, v) whose value at the origin is in [0.1, 2]."""
    c0 = draw(st.floats(min_value=0.1, max_value=2.0))
    cs = [draw(finite) for _ in range(5)]
    monomials = ("u", "v", "u^2", "u*v", "v^2")
    return f"({c0!r})" + "".join(f"+({c!r})*{m}" for c, m in zip(cs, monomials))


def jet(text):
    return eval_jet(parse(text, ("u", "v")), PLANE[:1], order=2)


def close(a, b, atol):
    return all(np.allclose(x, y, atol=atol) for x, y in zip(a, b))


@settings(max_examples=50, deadline=None)
@given(quadratics(), quadratics(), quadratics())
def test_ring_laws(a, b, c):
    assert close(jet(f"({a})*({b})"), jet(f"({b})*({a})"), 1e-12)
    assert close(jet(f"({a})*(({b})+({c}))"), jet(f"({a})*({b})+({a})*({c})"), 1e-12)
    assert close(jet(f"(({a})*({b}))*({c})"), jet(f"({a})*(({b})*({c}))"), 1e-10)


@settings(max_examples=50, deadline=None)
@given(quadratics())
def test_exp_ln_inverse_pair(a):
    back, orig = jet(f"ln(exp({a}))"), jet(a)
    assert abs(back[0][0] - orig[0][0]) < 1e-10
    assert np.allclose(back[1], orig[1], atol=1e-9)
    assert np.allclose(back[2], orig[2], atol=1e-8)


@settings(max_examples=50, deadline=None)
@given(quadratics())
def test_hyperbolic_pythagoras(a):
    one = jet(f"cosh({a})^2 - sinh({a})^2")
    assert abs(one[0][0] - 1.0) < 1e-9
    assert np.allclose(one[1], 0.0, atol=1e-8)
    assert np.allclose(one[2], 0.0, atol=1e-7)


def test_reciprocal_and_power():
    a = "(1.3 + 0.4*u - 0.7*v + 0.2*u*v - 0.5*v^2)"
    prod = jet(f"{a} * (1/{a})")
    assert abs(prod[0][0] - 1.0) < 1e-14
    assert np.allclose(prod[1], 0.0, atol=1e-13)
    assert np.allclose(jet(f"{a}^3")[2], jet(f"{a}*{a}*{a}")[2], atol=1e-12)
    assert abs(jet(f"{a}^-2")[0][0] - 1.0 / 1.3 ** 2) < 1e-12


def test_domain_errors_from_analytic_functions():
    for text in ("sqrt(u - 1)", "ln(u - 1)", "1/(u - u)", "exp(1000 + u)",
                 "sinh(1000 + u)", "cosh(1000 + u)", "1/(1e200 + u)",
                 "ln(1e200 + u)", "sqrt(-1)", "1/1e200"):
        with pytest.raises(DomainError):
            eval_jet(parse(text, ("u", "v")), PLANE, order=2)


# -- point batches ------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5).flatmap(
           lambda p: st.lists(st.lists(st.floats(-0.5, 0.5), min_size=3,
                                       max_size=3), min_size=p, max_size=p)),
       st.integers(0, 4))
def test_a_batch_is_bitwise_equal_to_single_points(points, order):
    points = np.array(points)
    for ast in corpus_asts():
        batch = eval_jet(ast, points, order)
        for i, point in enumerate(points):
            single = eval_jet(ast, [point], order)
            for b, s in zip(batch, single, strict=True):
                assert b[i].tobytes() == s[0].tobytes()


# -- point contractions -------------------------------------------------------

# a full contraction, one whose output leads with the second operand's
# letter, one whose output interleaves both operands' letters, and one with a
# permuted output
CONTRACTIONS = ["jk,jk->", "lm,mijk->ijkl", "im,amn->ain", "ij,jk->ki"]
OUTER_PRODUCTS = ["ik,jl->ijkl", "i,j->ij", "ilk,j->ijkl"]


def operands(sub, count, seed=0):
    """Random operands of ``sub`` over ``count`` points; each letter has
    its own axis length, so a mixed-up axis shows as a shape."""
    ins = sub.split("->")[0].split(",")
    size = {c: 2 + i for i, c in enumerate(sorted(set("".join(ins))))}
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((count, *(size[c] for c in s))) for s in ins]


def threaded_einsum(sub, *ops):
    ins, out = sub.split("->")
    return np.einsum(",".join("..." + s for s in ins.split(",")) + "->..." + out, *ops)


@pytest.mark.parametrize("count", [1, 7])
@pytest.mark.parametrize("sub", CONTRACTIONS)
def test_a_contraction_agrees_with_the_threaded_einsum(sub, count):
    ops = operands(sub, count)
    got, want = point_einsum(sub, *ops), threaded_einsum(sub, *ops)
    assert got.shape == want.shape
    # each entry sums at most 5 products of standard normal draws
    assert np.max(np.abs(got - want), initial=0.0) < 1e-13


@pytest.mark.parametrize("count", [1, 7])
@pytest.mark.parametrize("sub", OUTER_PRODUCTS)
def test_an_outer_product_is_bitwise_the_threaded_einsum(sub, count):
    ops = operands(sub, count)
    got, want = point_einsum(sub, *ops), threaded_einsum(sub, *ops)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("sub", CONTRACTIONS + OUTER_PRODUCTS)
def test_a_batch_call_is_bitwise_the_stack_of_its_point_calls(sub):
    ops = operands(sub, 7)
    batch = point_einsum(sub, *ops)
    for i in range(7):
        single = point_einsum(sub, *(x[i : i + 1] for x in ops))
        assert single.shape == (1, *batch.shape[1:])
        assert np.ascontiguousarray(batch[i]).tobytes() == single[0].tobytes()


def test_other_subscripts_take_np_einsum(monkeypatch):
    calls = []
    einsum = np.einsum

    def spy(*args):
        calls.append(args[0])
        return einsum(*args)

    monkeypatch.setattr(np, "einsum", spy)
    rng = np.random.default_rng(3)
    m, v = rng.standard_normal((7, 3, 3)), rng.standard_normal((7, 3))
    cases = [
        ("ii,i->i", m, v),  # a repeated letter
        ("ij,k->ijk", m, v),  # an outer product
        ("ij,k->i", m, v),  # a letter summed inside one operand
        ("ij,ij->i", m, m),  # a letter both operands keep
        ("ij,j->i", m, v[0]),  # an operand without the point axis
        ("ij,jk,k->i", m, m, v),  # three operands
    ]
    for sub, *ops in cases:
        calls.clear()
        got = point_einsum(sub, *ops)
        assert len(calls) == 1, sub
        assert got.tobytes() == einsum(calls[0], *ops).tobytes()
    for sub in CONTRACTIONS:
        calls.clear()
        point_einsum(sub, *operands(sub, 7))
        assert not calls, sub


def test_a_sum_in_place_has_the_bits_of_the_new_sum():
    rng = np.random.default_rng(5)
    # packed parts: 4 points, then no row axis, 3 first partials and the
    # 6 sorted pairs of second partials, then the base
    a, b = (JetTensor(3, 2, [rng.normal(size=(4,) + rows + (3, 3))
                             for rows in ((), (3,), (6,))]) for _ in range(2))
    # a transposed view, as a contraction's route returns
    b = b.tb((1, 0))
    for op, new in ((np.add, [x + y for x, y in zip(a.parts, b.parts)]),
                    (np.subtract, [x - y for x, y in zip(a.parts, b.parts)])):
        kept = [p.copy() for p in a.parts]
        fresh = jt_sum(op, a, b)
        assert all(np.array_equal(p, q) for p, q in zip(a.parts, kept))
        into = JetTensor(3, 2, kept)
        summed = jt_sum(op, into, b, out=into)
        assert all(p is q for p, q in zip(summed.parts, kept))
        for got in (fresh, summed):
            assert all(p.tobytes() == q.tobytes()
                       for p, q in zip(got.parts, new, strict=True))


# -- packed parts against the full derivative layout -------------------------
#
# The reference below is the Leibniz rule on full-layout parts, (P,) +
# (d,)*k + base, each mixed term symmetrized over its derivative axes by
# moveaxis sums, with the metric inverse symmetrized over all (k+1)!
# permutations.  Its inputs are the unpacked packed inputs, so exactly
# symmetric.  Their entries are small multiples of 1/4, so that every
# product and sum is exact: BLAS rounds a contraction differently for
# different matrix shapes, and exact arithmetic leaves only the placement
# of each term to be compared, bit for bit.

FULL_LETTERS = "ZYXW"
KERNEL_SUBSCRIPTS = ["ij,jk->ik", "i,j->ij", "sj,si->ij", "s,sij->ij"]


def full_einsum(sub, a, b):
    """The Leibniz rule on lists of full-layout parts."""
    ins, out = sub.split("->")
    sa, sb = ins.split(",")
    parts = []
    for k in range(min(len(a), len(b))):
        acc = None
        for j in range(k + 1):
            da, db = FULL_LETTERS[:j], FULL_LETTERS[j:k]
            term = point_einsum(f"{da}{sa},{db}{sb}->{FULL_LETTERS[:k]}{out}",
                                a[j], b[k - j])
            if k == 2 and j == 1:
                term = term + np.swapaxes(term, 1, 2)
            elif k == 3 and j == 1:
                term = term + np.moveaxis(term, 1, 2) + np.moveaxis(term, 1, 3)
            elif k == 3 and j == 2:
                term = term + np.moveaxis(term, 3, 2) + np.moveaxis(term, 3, 1)
            acc = term if acc is None else acc + term
        parts.append(acc)
    return parts


def full_metric_inverse(g):
    """dG = -G (dg) G order by order on full-layout parts, each new part
    above the first averaged over every permutation of its derivative
    axes."""
    parts = [plu_inverse(g[0])]
    dg = g[1:]  # the last derivative axis is the gradient's component axis
    for k in range(len(g) - 1):
        h = full_einsum("im,amn->ain", parts[: k + 1], dg[: k + 1])
        h = -full_einsum("ain,nj->aij", h, parts[: k + 1])[k]
        if k == 0:
            parts.append(h)
            continue
        acc = np.zeros_like(h)
        for perm in permutations(range(1, k + 2)):
            acc += np.transpose(h, (0, *perm, *range(k + 2, h.ndim)))
        parts.append(acc / factorial(k + 1))
    return parts


def packed_jet(rng, d, order, count, base, draw):
    """A jet tensor of random packed parts of ``base`` shape."""
    return JetTensor(d, order, [
        draw(rng, (count,) + ((len(sorted_indices(d, k)),) if k else ()) + base)
        for k in range(order + 1)])


def quarters(rng, shape):
    return rng.integers(-8, 9, size=shape) / 4.0


def normals(rng, shape):
    return rng.standard_normal(shape)


def base_shapes(sub, d):
    return [(d,) * len(s) for s in sub.split("->")[0].split(",")]


def full_parts(t):
    return [unpack(p, t.dim, k) for k, p in enumerate(t.parts)]


def assert_packs(got, want):
    """``got``'s packed parts are ``want``'s full parts at sorted indices,
    bit for bit."""
    assert got.order == len(want) - 1
    for k, (p, q) in enumerate(zip(got.parts, want, strict=True)):
        q = pack(q, got.dim, k)
        assert p.shape == q.shape, k
        assert np.ascontiguousarray(p).tobytes() == q.tobytes(), k


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [3, 5, 9])
def test_packed_einsum_is_the_full_leibniz_rule(d, order):
    rng = np.random.default_rng(100 * d + order)
    for count in range(1, 6):
        for sub in KERNEL_SUBSCRIPTS:
            sa, sb = base_shapes(sub, d)
            a = packed_jet(rng, d, order, count, sa, quarters)
            b = packed_jet(rng, d, order + 1, count, sb, quarters)
            got = jt_einsum(sub, a, b)
            assert_packs(got, full_einsum(sub, full_parts(a), full_parts(b)))
            # on general floats the two round apart, by a few ulps
            a = packed_jet(rng, d, order, count, sa, normals)
            b = packed_jet(rng, d, order, count, sb, normals)
            want = full_einsum(sub, full_parts(a), full_parts(b))
            for k, p in enumerate(jt_einsum(sub, a, b).parts):
                assert np.allclose(p, pack(want[k], d, k), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("d", [3, 5, 9])
def test_packed_partial_is_the_full_gradient(d, order):
    rng = np.random.default_rng(200 + 10 * d + order)
    for count in range(1, 6):
        t = packed_jet(rng, d, order, count, (2, d), normals)
        # in the full layout the last derivative axis becomes the first
        # base axis
        assert_packs(t.partial(), full_parts(t)[1:])
        assert t.partial().base_shape == (d, 2, d)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [3, 5, 9])
def test_packed_metric_inverse_is_the_full_one(d, order):
    # a diagonal of signed powers of two inverts exactly, so the parts
    # above it stay exact but for the division by 3 of the order-3 part,
    # which rounds the same exact sum in both
    rng = np.random.default_rng(300 + 10 * d + order)
    for count in range(1, 6):
        g = packed_jet(rng, d, order, count, (d, d), quarters)
        g.parts[0][:] = 0.0
        diagonal = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=(count, d))
        g.parts[0][:, np.arange(d), np.arange(d)] = diagonal
        g = JetTensor(d, order, [0.5 * (p + np.swapaxes(p, -1, -2)) for p in g.parts])
        assert_packs(jt_metric_inverse(g), full_metric_inverse(full_parts(g)))


# -- the jet metric inverse --------------------------------------------------


def test_jt_metric_inverse_round_trip(hyp2):
    # g g^-1 is the identity jet through order 3
    f = get_frame(hyp2, sample_points(hyp2, seed=11, count=1)[0], order=3)
    prod = jt_einsum("ij,jk->ik", f.g, jt_metric_inverse(f.g))
    assert prod.order == 3
    assert np.allclose(prod.value, np.eye(hyp2.dim), atol=1e-12)
    for part in prod.parts[1:]:
        assert np.allclose(part, 0.0, atol=1e-10)


def test_jt_metric_inverse_rejects_singular():
    with pytest.raises(SingularMetric):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        jt_metric_inverse(JetTensor(2, 1, [singular[None], np.zeros((1, 2, 2, 2))]))
