"""Jet arithmetic against central finite differences and ring laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracurv.errors import DomainError, SingularMetric
from paracurv.exprlang import eval_jet, parse
from paracurv.jets import Jet, jet_arith, jet_matrix_inverse

from conftest import (
    CORPUS_COORDS,
    CORPUS_POINT,
    EXPRESSION_CORPUS,
    corpus_asts,
    fd_gradient,
    fd_hessian,
    fd_third,
)


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("text", EXPRESSION_CORPUS)
def test_first_order_matches_finite_differences(text):
    ast = parse(text, CORPUS_COORDS)
    jet = eval_jet(ast, CORPUS_POINT, order=1)
    assert rel_err(jet.d1, fd_gradient(ast, CORPUS_POINT)) < 1e-5


@pytest.mark.parametrize("text", EXPRESSION_CORPUS)
def test_second_order_matches_finite_differences(text):
    ast = parse(text, CORPUS_COORDS)
    jet = eval_jet(ast, CORPUS_POINT, order=2)
    assert rel_err(jet.d2, fd_hessian(ast, CORPUS_POINT)) < 1e-4


def test_third_order_matches_finite_differences():
    ast = parse("sinh(u)*cosh(v)", CORPUS_COORDS)
    jet = eval_jet(ast, CORPUS_POINT, order=3)
    assert rel_err(jet.d3, fd_third(ast, CORPUS_POINT)) < 1e-4


def test_third_order_symmetry_is_exact():
    for ast in corpus_asts():
        d3 = eval_jet(ast, CORPUS_POINT, order=3).d3
        assert np.array_equal(d3, d3.transpose(1, 0, 2))
        assert np.array_equal(d3, d3.transpose(0, 2, 1))


def test_lower_order_evaluation_is_a_restriction():
    # evaluating at a lower order must reproduce the higher-order parts
    # bit for bit; the arithmetic of each part only uses same-order data
    for ast in corpus_asts():
        j3 = eval_jet(ast, CORPUS_POINT, order=3)
        j1 = eval_jet(ast, CORPUS_POINT, order=1)
        assert j3.value == j1.value
        assert np.array_equal(j3.d1, j1.d1)
        r = j3.restrict(1)
        assert r.order == 1 and np.array_equal(r.d1, j3.d1)


def test_coordinate_jets_seed_the_chain_rule():
    j = Jet.coordinate(1, np.array([2.0, -0.5, 1.0]), order=3)
    assert j.value == -0.5
    assert np.array_equal(j.d1, [0.0, 1.0, 0.0])
    assert not j.d2.any() and not j.d3.any()


def _random_jet(rng, dim=2, order=2):
    return Jet(
        dim,
        order,
        rng.uniform(0.5, 2.0),
        rng.uniform(-1, 1, dim),
        rng.uniform(-1, 1, (dim, dim)),
    )


finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def jets(draw, dim=2, order=2):
    value = draw(st.floats(min_value=0.1, max_value=2.0))
    d1 = [draw(finite) for _ in range(dim)]
    d2 = [[draw(finite) for _ in range(dim)] for _ in range(dim)]
    return Jet(dim, order, value, d1, d2)


@settings(max_examples=50, deadline=None)
@given(jets(), jets(), jets())
def test_ring_laws(a, b, c):
    ab = a * b
    ba = b * a
    assert abs(ab.value - ba.value) < 1e-12
    assert np.allclose(ab.d2, ba.d2, atol=1e-12)
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert np.allclose(lhs.d1, rhs.d1, atol=1e-12)
    assert np.allclose(lhs.d2, rhs.d2, atol=1e-12)
    assoc_l = (a * b) * c
    assoc_r = a * (b * c)
    assert np.allclose(assoc_l.d2, assoc_r.d2, atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(jets())
def test_exp_ln_inverse_pair(a):
    back = a.exp().ln()
    assert abs(back.value - a.value) < 1e-10
    assert np.allclose(back.d1, a.d1, atol=1e-9)
    assert np.allclose(back.d2, a.d2, atol=1e-8)


@settings(max_examples=50, deadline=None)
@given(jets())
def test_hyperbolic_pythagoras(a):
    one = a.cosh() ** 2 - a.sinh() ** 2
    assert abs(one.value - 1.0) < 1e-9
    assert np.allclose(one.d1, 0.0, atol=1e-8)
    assert np.allclose(one.d2, 0.0, atol=1e-7)


def test_reciprocal_and_power():
    rng = np.random.default_rng(7)
    a = _random_jet(rng)
    prod = a * a.reciprocal()
    assert abs(prod.value - 1.0) < 1e-14
    assert np.allclose(prod.d1, 0.0, atol=1e-13)
    cubed = a ** 3
    ref = a * a * a
    assert np.allclose(cubed.d2, ref.d2, atol=1e-12)
    inv_sq = a ** -2
    assert abs(inv_sq.value - 1.0 / a.value ** 2) < 1e-12


def test_domain_errors_from_analytic_functions():
    j = Jet.constant(-1.0, 2, 2)
    with pytest.raises(DomainError):
        j.sqrt()
    with pytest.raises(DomainError):
        j.ln()
    with pytest.raises(DomainError):
        Jet.constant(0.0, 2, 2).reciprocal()
    big = Jet.constant(1000.0, 2, 2)
    for fn in (Jet.exp, Jet.sinh, Jet.cosh):
        with pytest.raises(DomainError):
            fn(big)
    huge = Jet.constant(1e200, 2, 3)
    for fn in (Jet.reciprocal, Jet.ln):
        with pytest.raises(DomainError):
            fn(huge)


def test_jet_arith_dispatch():
    a = Jet.constant(2.0, 2, 1)
    b = Jet.constant(3.0, 2, 1)
    assert jet_arith("mul", a, b).value == 6.0
    assert jet_arith("exp", a).value == np.exp(2.0)
    assert jet_arith("pow", a, 2).value == 4.0
    with pytest.raises(ValueError):
        jet_arith("exp", a, b)
    with pytest.raises(ValueError):
        jet_arith("mul", a)
    with pytest.raises(ValueError):
        jet_arith("tanh", a)


def test_jet_matrix_inverse_round_trip():
    rng = np.random.default_rng(11)
    dim, n = 3, 4
    point = rng.uniform(-0.5, 0.5, dim)
    # a jet matrix with nontrivial derivatives: entries are coordinate jets
    mat = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            base = Jet.constant(4.0 if i == j else 0.3 * (i - j), dim, 2)
            mat[i, j] = base + Jet.coordinate((i + j) % dim, point, 2)
    inv = jet_matrix_inverse(mat)
    # multiply back and compare to the identity jet by jet
    for i in range(n):
        for j in range(n):
            acc = Jet.constant(0.0, dim, 2)
            for s in range(n):
                acc = acc + mat[i, s] * inv[s, j]
            want = 1.0 if i == j else 0.0
            assert abs(acc.value - want) < 1e-10
            assert np.allclose(acc.d1, 0.0, atol=1e-10)
            assert np.allclose(acc.d2, 0.0, atol=1e-9)


def test_jet_matrix_inverse_rejects_singular():
    sing = np.array(
        [
            [Jet.constant(1.0, 2, 1), Jet.constant(2.0, 2, 1)],
            [Jet.constant(2.0, 2, 1), Jet.constant(4.0, 2, 1)],
        ],
        dtype=object,
    )
    with pytest.raises(SingularMetric):
        jet_matrix_inverse(sing)
