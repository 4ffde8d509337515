"""Builtin structures, induced embeddings and the D-homothety."""

import numpy as np
import pytest

import paracurv as pc
from paracurv.analysis import _nijenhuis
from paracurv.errors import (
    DomainError,
    InvalidAlpha,
    NotParacontact,
    RankDeficientJacobian,
    SamplingExhausted,
)
from paracurv.exprlang import ScalarField, parse
from paracurv.geometry import (
    AmbientParaKaehler,
    CharteredStructure,
    Domain,
    Embedding,
    ExprTableComponents,
    heisenberg_tables,
    hyperboloid_embedding,
    induce_structure,
)

from conftest import max_residual, sample_frames, sample_points, values


def test_heisenberg_axioms_hold_pointwise(heis1, heis2):
    for s in (heis1, heis2):
        report = pc.check_axioms(sample_frames(s, seed=3, count=10))
        assert report.passed
        assert max_residual(report) < 1e-12


def test_heisenberg_nijenhuis_on_horizontal_frame(heis1):
    # N(U, V) = 2 d eta(U, V) xi with U = d_u + v d_t, V = d_v - u d_t;
    # here d eta(U, V) = g(U, phi V) = g(U, U) = 1
    p = np.array([0.3, -0.4, 0.2])
    u_vec = np.array([1.0, 0.0, p[1]])
    v_vec = np.array([0.0, 1.0, -p[0]])
    nij = _nijenhuis(pc.get_frame(heis1, p, 1))
    xi = heis1.at([p], order=0)[0].xi.value
    got = np.einsum("kij,i,j->k", nij, u_vec, v_vec)
    assert np.allclose(got, 2.0 * xi, atol=1e-13)


def test_hyperboloid_metric_matches_finite_difference_jacobian(hyp1):
    # independent oracle: g_ab = -sum_C eps_C (d_a iota^C)(d_b iota^C)
    # with the Jacobian taken by central differences of the immersion
    embedding, _ = hyperboloid_embedding(1)
    eps = embedding.ambient.eps
    h = 1e-6
    for p in sample_points(hyp1, seed=9, count=4):
        d = hyp1.dim
        jac = np.zeros((d, embedding.ambient.dim))
        for a in range(d):
            e = np.zeros(d)
            e[a] = h
            hi = [values(c, [p + e])[0] for c in embedding.immersion]
            lo = [values(c, [p - e])[0] for c in embedding.immersion]
            jac[a] = (np.array(hi) - np.array(lo)) / (2 * h)
        g_fd = -np.einsum("aC,bC,C->ab", jac, jac, eps)
        assert np.max(np.abs(g_fd - hyp1.at([p], 0)[0].g.value)) < 1e-8


def test_hyperboloid_normal_is_ambient_orthogonal(hyp1):
    embedding, _ = hyperboloid_embedding(1)
    eps = embedding.ambient.eps
    for p in sample_points(hyp1, seed=11, count=4):
        normal = np.array(
            [values(c, [p])[0] for c in embedding.normal]
        )
        for a in range(hyp1.dim):
            tangent = np.array(
                [values(c, [p])[0] for c in embedding.tangent[a]]
            )
            assert abs(np.sum(eps * normal * tangent)) < 1e-12
        # the position vector sits on the unit hyperboloid
        assert abs(np.sum(eps * normal * normal) - 1.0) < 1e-12


def test_flat_ambient_algebra_is_exact():
    amb = AmbientParaKaehler(3)
    eye = np.eye(amb.dim)
    assert np.array_equal(amb.product @ amb.product, eye)
    # the product structure is anti-compatible with the flat metric
    assert np.array_equal(
        amb.product.T @ amb.metric @ amb.product, -amb.metric
    )
    assert np.array_equal(amb.metric, np.diag(amb.eps))


def test_hyperboloid_axioms_hold(hyp1, hyp2):
    for s in (hyp1, hyp2):
        report = pc.check_axioms(sample_frames(s, seed=13, count=8))
        assert report.passed
        assert max_residual(report) < 1e-12


def test_rank_deficient_immersion_is_rejected():
    coords = ("a", "b", "c")
    texts = ["1", "a", "a", "0"]  # two identical columns: rank 1 Jacobian
    asts = [parse(t, coords) for t in texts]
    embedding = Embedding(AmbientParaKaehler(2), coords, asts, asts)
    with pytest.raises(RankDeficientJacobian):
        induce_structure(embedding, np.array([[0.1, 0.2, 0.3]]), order=1)


def test_domain_guard_and_errors(hyp2):
    inside = np.zeros(hyp2.dim)
    outside = np.array([1.4] + [0.0] * (hyp2.dim - 1))  # radicand < 0.1
    assert hyp2.domain.contains(inside)
    assert not hyp2.domain.contains(outside)
    with pytest.raises(DomainError) as exc:
        hyp2.at([inside, outside], order=0)
    assert exc.value.index == 1
    assert "0.1" in hyp2.domain.guard_desc


def test_not_paracontact_on_bad_inputs():
    coords, g, phi, xi, eta = heisenberg_tables(1)

    def build(g_rows):
        table = lambda rows: [
            [ScalarField.from_expr(s, coords) for s in row] for row in rows
        ]
        comps = ExprTableComponents(
            table(g_rows),
            table(phi),
            [ScalarField.from_expr(s, coords) for s in xi],
            [ScalarField.from_expr(s, coords) for s in eta],
        )
        return CharteredStructure(1, coords, comps, Domain.cube(3))

    # flipped metric has signature (1, 2) instead of (2, 1)
    with pytest.raises(NotParacontact):
        build([[f"-({s})" for s in row] for row in g])
    with pytest.raises(NotParacontact):
        CharteredStructure(1, ("a", "b", "c", "d"), None, Domain.cube(4))


def test_d_homothetic_formula_and_round_trip(heis1):
    alpha = 2.5
    bar = pc.d_homothetic(heis1, alpha)
    for p in sample_points(heis1, seed=17, count=4):
        sj = heis1.at([p], order=0)[0]
        bj = bar.at([p], order=0)[0]
        ee = np.outer(sj.eta.value, sj.eta.value)
        assert np.allclose(
            bj.g.value,
            alpha * sj.g.value + (alpha * alpha - alpha) * ee,
            atol=1e-13,
        )
        assert np.allclose(bj.eta.value, alpha * sj.eta.value, atol=1e-13)
        assert np.allclose(bj.xi.value, sj.xi.value / alpha, atol=1e-13)
        assert np.array_equal(bj.phi.value, sj.phi.value)
    back = pc.d_homothetic(bar, 1.0 / alpha)
    for p in sample_points(heis1, seed=19, count=4):
        assert np.max(
            np.abs(back.at([p], 0)[0].g.value - heis1.at([p], 0)[0].g.value)
        ) < 1e-12
    report = pc.check_axioms(sample_frames(bar, seed=23, count=6))
    assert report.passed


def test_d_homothetic_parameter_guards(heis1):
    assert pc.d_homothetic(heis1, 1.0) is heis1
    with pytest.raises(InvalidAlpha):
        pc.d_homothetic(heis1, 0.0)
    with pytest.raises(InvalidAlpha):
        pc.d_homothetic(heis1, -2.0)


def test_sampler_determinism_and_guards(heis1, hyp1):
    a = pc.Sampler(heis1, seed=99).points(5)
    b = pc.Sampler(heis1, seed=99).points(5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = pc.Sampler(heis1, seed=100).points(5)
    assert not np.array_equal(a[0], c[0])
    # a box entirely beyond the hyperboloid guard can never succeed
    bad_box = np.array([[1.9, 2.0]] + [[-0.01, 0.01]] * (hyp1.dim - 1))
    with pytest.raises(SamplingExhausted):
        pc.Sampler(hyp1, seed=0, box=bad_box).point()


def test_sampler_vectors(heis1):
    sampler = pc.Sampler(heis1, seed=4)
    p = sampler.point()
    sj = heis1.at([p], order=0)[0]
    f = pc.get_frame(heis1, p, 0)
    signs = set()
    for _ in range(50):
        u, sign = sampler.horizontal_unit(f)
        assert abs(sj.eta.value @ u) < 1e-12
        assert abs(abs(u @ sj.g.value @ u) - 1.0) < 1e-12
        signs.add(sign)
    assert signs == {1.0, -1.0}
    v = sampler.section_vector(f)
    pv = sj.phi.value @ v
    assert abs(pv @ sj.g.value @ pv) > 1e-6
