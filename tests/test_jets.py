"""Jets of expressions: finite-difference and sympy oracles, ring laws,
point batches."""

from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracurv.connection import get_frame
from paracurv.errors import DomainError, SingularMetric
from paracurv.exprlang import eval_jet, parse
from paracurv.jetfields import JetTensor, jt_einsum, jt_metric_inverse, point_einsum

from conftest import (
    CORPUS_COORDS,
    CORPUS_POINT,
    EXPRESSION_CORPUS,
    corpus_asts,
    fd_gradient,
    fd_hessian,
    fd_third,
    sample_points,
)


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))


def at_point(ast, point, order):
    """Parts of the jet at one point, without the point axis."""
    return [p[..., 0] for p in eval_jet(ast, [point], order)]


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
                assert np.ascontiguousarray(b[..., i]).tobytes() == s[..., 0].tobytes()


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
