"""Builtin structures, induced embeddings and the D-homothety."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paracurv as pc
from paracurv.analysis import _nijenhuis
from paracurv.errors import (
    DomainError,
    InvalidAlpha,
    NotParacontact,
    RankDeficientJacobian,
    SamplingExhausted,
)
from paracurv.exprlang import JetProgram, eval_jet, parse
from paracurv.geometry import (
    HYPERBOLOID_GUARD_MIN,
    CharteredStructure,
    Domain,
    ExprTableComponents,
    InducedComponents,
    _radicand,
    heisenberg_tables,
    hyperboloid_embedding,
)

from conftest import max_residual, sample_frames, sample_points, unpack, values


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
    nij = _nijenhuis(pc.get_frame(heis1, p, 1))[0]
    xi = pc.get_frame(heis1, p, 0).view(0).xi
    got = np.einsum("kij,i,j->k", nij, u_vec, v_vec)
    assert np.allclose(got, 2.0 * xi, atol=1e-13)


def test_hyperboloid_metric_matches_finite_difference_jacobian(hyp1):
    # independent oracle: g_ab = -sum_C eps_C (d_a iota^C)(d_b iota^C)
    # with the Jacobian taken by central differences of the immersion
    _, immersion, _ = hyperboloid_embedding(1)
    eps = np.array([1.0, 1.0, -1.0, -1.0])  # ambient axes (x0, x1, y0, y1)
    h = 1e-6
    for p in sample_points(hyp1, seed=9, count=4):
        d = hyp1.dim
        jac = np.zeros((d, len(immersion)))
        for a in range(d):
            e = np.zeros(d)
            e[a] = h
            hi = [values(c, [p + e])[0] for c in immersion]
            lo = [values(c, [p - e])[0] for c in immersion]
            jac[a] = (np.array(hi) - np.array(lo)) / (2 * h)
        g_fd = -np.einsum("aC,bC,C->ab", jac, jac, eps)
        assert np.max(np.abs(g_fd - pc.get_frame(hyp1, p, 0).g.value)) < 1e-8


def test_hyperboloid_normal_is_ambient_orthogonal(hyp1):
    # the normal is the position vector, the immersion itself
    _, immersion, _ = hyperboloid_embedding(1)
    eps = np.array([1.0, 1.0, -1.0, -1.0])
    for p in sample_points(hyp1, seed=11, count=4):
        normal = np.array([values(c, [p])[0] for c in immersion])
        # e_a^C = d_a iota^C, the order-1 part of the immersion's jets
        frame = np.array([eval_jet(c, [p], 1)[1][0] for c in immersion])
        for tangent in frame.T:
            assert abs(np.sum(eps * normal * tangent)) < 1e-12
        # the position vector sits on the unit hyperboloid
        assert abs(np.sum(eps * normal * normal) - 1.0) < 1e-12


def test_flat_ambient_algebra_is_exact():
    comps = pc.builtin_hyperboloid(2).components  # ambient R^6
    product, metric = comps.product, np.diag(comps.eps)
    assert np.array_equal(comps.eps, [1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    assert np.array_equal(product @ product, np.eye(6))
    # the product structure is anti-compatible with the flat metric
    assert np.array_equal(product.T @ metric @ product, -metric)


def test_induced_components_refuse_mismatched_or_odd_lists():
    coords = ("a", "b", "c")
    asts = [parse(t, coords) for t in ("1", "a", "b", "c", "a*b")]
    with pytest.raises(ValueError, match="even-dimensional"):
        InducedComponents(asts[:4], asts[:3])
    with pytest.raises(ValueError, match="even-dimensional"):
        InducedComponents(asts, asts)
    InducedComponents(asts[:4], asts[1:])


def test_hyperboloid_axioms_hold(hyp1, hyp2):
    for s in (hyp1, hyp2):
        report = pc.check_axioms(sample_frames(s, seed=13, count=8))
        assert report.passed
        assert max_residual(report) < 1e-12


def test_rank_deficient_immersion_is_rejected():
    coords = ("a", "b", "c")
    texts = ["1", "a", "a", "0"]  # two identical columns: rank 1 Jacobian
    asts = [parse(t, coords) for t in texts]
    with pytest.raises(RankDeficientJacobian):
        InducedComponents(asts, asts).at(np.array([[0.1, 0.2, 0.3]]), order=1)


def test_rank_deficiency_names_the_first_deficient_point_of_a_batch():
    coords = ("a", "b", "c")
    asts = [parse(t, coords) for t in ("a^2", "b", "c", "0")]  # rank 2 at a = 0
    points = np.array([[0.5, 0.1, 0.2], [0.0, 0.3, 0.4], [0.0, -0.3, 0.1]])
    InducedComponents(asts, asts).at(points[:1], order=2)
    with pytest.raises(RankDeficientJacobian, match=re.escape(str(points[1]))):
        InducedComponents(asts, asts).at(points, order=2)


def test_non_finite_jets_name_the_first_such_point_of_a_batch():
    # finite while 709 + t stays below log(max float) = 709.78
    coords, g, phi, xi, eta = heisenberg_tables(1)
    xi[2] = "1 + 0*(exp(709)*exp(t))"
    table = lambda rows: [[parse(s, coords) for s in row] for row in rows]
    comps = ExprTableComponents(table(g), table(phi), *table([xi, eta]))
    structure = CharteredStructure(1, coords, comps, Domain.cube(3))
    points = np.array([[0.1, 0.2, t] for t in (0.0, 0.5, 1.0, 1.5)])
    structure.at(points[:2], order=1)
    with pytest.raises(DomainError, match="not finite") as exc:
        structure.at(points, order=1)
    assert exc.value.index == 2


EMBEDDED = {
    "schema": "paracurv-manifest/1",
    "manifold": {"kind": "embedded", "n": 1, "coords": ["x1", "y0", "y1"],
                 "immersion": ["sqrt(1-x1^2+y0^2+y1^2)", "x1", "y0", "y1"]},
}
BATCH_STRUCTURES = [
    pc.builtin_heisenberg(2),
    pc.builtin_hyperboloid(2),
    pc.d_homothetic(pc.builtin_hyperboloid(2), 2.0),
    pc.build_structure(EMBEDDED),
]


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 5).flatmap(
           lambda p: st.lists(st.lists(st.floats(-0.5, 0.5), min_size=5,
                                       max_size=5), min_size=p, max_size=p)),
       st.integers(0, 3))
def test_structure_jets_of_a_batch_are_bitwise_those_of_single_points(points, order):
    for structure in BATCH_STRUCTURES:
        batch = np.array(points)[:, : structure.dim]
        jets = structure.at(batch, order)
        for i, point in enumerate(batch):
            single = structure.at([point], order)
            for b, s in zip(jets, single, strict=True):
                assert b.order == s.order == order
                for x, y in zip(b.parts, s.parts, strict=True):
                    assert x.shape == (len(batch),) + y.shape[1:]
                    assert x[i].tobytes() == y[0].tobytes()


def heisenberg_table_chart(n, edit=None, **manifold):
    """The heisenberg(n) tables as a custom chart, after ``edit`` of its
    (g, phi, xi, eta) tables."""
    coords, *tables = heisenberg_tables(n)
    if edit is not None:
        edit(*tables)
    g, phi, xi, eta = tables
    return pc.build_structure({"manifold": dict(
        kind="custom", coords=coords, g=g, phi=phi, xi=xi, eta=eta, **manifold)})


def warped(g, phi, xi, eta):
    # every entry of g times exp(t/4), eta through sqrt and a quotient
    g[:] = [[f"exp(t/4)*({s})" for s in row] for row in g]
    eta[0], eta[2] = "-v1/(1+t^2)", "sqrt(1+u1^2)"


BENT = dict(EMBEDDED["manifold"], normal=[f"(1+x1^2)*({t})" for t in
                                          EMBEDDED["manifold"]["immersion"]],
            box=[[-0.5, 0.5]] * 3)
LEAN_STRUCTURES = {
    "heisenberg2": pc.builtin_heisenberg(2),
    "heisenberg2_tables": heisenberg_table_chart(2),
    "heisenberg2_tables_alpha2": pc.d_homothetic(heisenberg_table_chart(2), 2.0),
    "hyperboloid2": pc.builtin_hyperboloid(2),
    "hyperboloid2_alpha2": pc.d_homothetic(pc.builtin_hyperboloid(2), 2.0),
    "warped_tables": heisenberg_table_chart(1, warped),
    "embedded_bent_normal": pc.build_structure({"manifold": BENT}),
}


@pytest.mark.parametrize("count", [1, 5, 64])
@pytest.mark.parametrize("name", LEAN_STRUCTURES)
def test_lean_jets_are_the_values_and_eta_of_the_order_1_build(name, count):
    structure = LEAN_STRUCTURES[name]
    points = sample_points(structure, seed=28, count=count)
    full = structure.at(points, 1)
    lean = structure.at(points, 0, eta_order=1)
    for t, f, order in zip(lean, full, (0, 0, 0, 1), strict=True):
        assert t.order == order and len(t.parts) == order + 1
        for x, y in zip(t.parts, f.parts):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("order, eta_order", [(1, 0), (0, 4), (-1, 0)])
def test_structure_jets_refuse_eta_below_the_others_or_above_3(hyp1, order,
                                                               eta_order):
    with pytest.raises(ValueError, match="0..3"):
        hyp1.at(np.zeros((1, 3)), order, eta_order)


def test_lean_jets_judge_only_the_parts_they_build():
    # exp(1e307 t) is finite on this box and its t-derivative is not, so
    # 0 times it has a nan derivative: g's, which an order-0 build drops
    def edit(g, phi, xi, eta):
        g[0][0] += "+0*exp(1e307*t)"

    structure = heisenberg_table_chart(
        1, edit, box=[[-1.0, 1.0], [-1.0, 1.0], [1e-305, 2e-305]])
    points = sample_points(structure, seed=3, count=8)
    with pytest.raises(DomainError, match="not finite") as exc:
        structure.at(points, 1)
    assert exc.value.index == 0
    lean = structure.at(points, 0, 1)
    assert all(np.isfinite(p).all() for t in lean for p in t.parts)


# (entry, its first refusing point among REFUSAL_POINTS): each refusal is
# made on the values, so the lean build raises it too
REFUSALS = [("0*sqrt(u1)", 2), ("0*ln(u1)", 2), ("0*(1/(1e77*u1))", 1),
            ("0*exp(1000*t)", 2)]
REFUSAL_POINTS = np.array([[0.5, 0.5, 0.0], [1.9, 0.5, 0.0], [-0.5, 0.5, 1.0]])


@pytest.mark.parametrize("table", ["g", "eta"])
@pytest.mark.parametrize("entry, index", REFUSALS)
def test_lean_jets_raise_every_refusal_of_the_order_1_build(table, entry, index):
    def edit(g, phi, xi, eta):
        if table == "g":
            g[0][0] += f"+{entry}"
        else:
            eta[0] += f"+{entry}"

    structure = heisenberg_table_chart(1, edit, probe=[0.5, 0.5, 0.0])
    errors = []
    for orders in ((1,), (0, 1)):
        with pytest.raises(DomainError) as exc:
            structure.at(REFUSAL_POINTS, *orders)
        errors.append((str(exc.value), exc.value.index))
    assert errors[0] == errors[1] and errors[0][1] == index


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hyperboloid_guard_has_the_bits_of_the_radicand_program(n):
    coords, _, text = hyperboloid_embedding(n)
    program = JetProgram([parse(text, coords)])
    rng = np.random.default_rng(n)
    d = 2 * n + 1
    scattered = rng.uniform(-2.0, 2.0, (500, d))
    # x1 where the radicand is 0.1, and the floats on either side
    edge = rng.uniform(-0.5, 0.5, (300, d))
    edge[:, 0] = 0.0
    edge[:, 0] = np.sqrt(_radicand(edge, n) - HYPERBOLOID_GUARD_MIN)
    edge[100:200, 0] = np.nextafter(edge[100:200, 0], -np.inf)
    edge[200:, 0] = np.nextafter(edge[200:, 0], np.inf)
    guard = pc.builtin_hyperboloid(n).domain.guard
    for points in (scattered, edge):
        want = program(points, 0)[0][:, 0]
        assert _radicand(points, n).tobytes() == want.tobytes()
        assert guard(points).tolist() == (want >= HYPERBOLOID_GUARD_MIN).tolist()
    inside = guard(edge)
    assert inside.any() and not inside.all()


def test_induced_jets_peak_at_a_small_multiple_of_their_size(hyp2):
    # the intermediates of an order-3 induced batch are larger than the
    # jets it returns; each is dropped after its last use, so that a
    # 5-point order-3 frame stays inside the benchmark's memory bound.
    # The bound is in bytes of the jets in the full derivative layout,
    # (P,) + (d,)*k + base per part k: jets stored that way peaked at 4.0
    # times their size (5.4 with every intermediate held to the end), and
    # packed parts k >= 2 peak at 2.57 times that same size
    points = sample_points(hyp2, seed=5, count=5)
    hyp2.at(points, 3)  # anything built once per structure is built now
    tracemalloc.start()
    try:
        jets = hyp2.at(points, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = hyp2.dim
    full = sum(unpack(p, d, k).nbytes for t in jets for k, p in enumerate(t.parts))
    assert peak <= 2.75 * full


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_builtin_heisenberg_fields_are_the_parsed_tables(n):
    coords, g, phi, xi, eta = heisenberg_tables(n)
    program = pc.builtin_heisenberg(n).components.program
    texts = [*sum(g + phi, []), *xi, *eta]
    assert [program.nodes[r] for r in program.roots] == [parse(t, coords) for t in texts]


HEISENBERG_POINTS = np.random.default_rng(14).uniform(-0.8, 0.8, (7, 9))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [1, 7])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_builtin_heisenberg_jets_are_bitwise_those_of_its_tables(n, count, order):
    coords, g, phi, xi, eta = heisenberg_tables(n)
    tables = pc.build_structure({"manifold": {
        "kind": "custom", "coords": coords, "g": g, "phi": phi, "xi": xi, "eta": eta}})
    builtin = pc.builtin_heisenberg(n)
    points = HEISENBERG_POINTS[:count, : 2 * n + 1]
    for b, t in zip(builtin.at(points, order), tables.at(points, order), strict=True):
        for x, y in zip(b.parts, t.parts, strict=True):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("order", [-1, 4, 5])
def test_structure_jets_refuse_orders_outside_0_to_3(hyp1, order):
    # an immersion is evaluated one order above its structure jets, and no
    # rule exists past order 4, so order 4 would build on a zero part
    for structure in (hyp1, pc.d_homothetic(hyp1, 2.0)):
        with pytest.raises(ValueError, match="0..3"):
            structure.at(np.zeros((1, 3)), order)


def test_domain_guard_and_errors(hyp2):
    inside = np.zeros(hyp2.dim)
    outside = np.array([1.4] + [0.0] * (hyp2.dim - 1))  # radicand < 0.1
    assert hyp2.domain.contains(inside)
    assert not hyp2.domain.contains(outside)
    with pytest.raises(DomainError) as exc:
        hyp2.at([inside, outside], order=0)
    assert exc.value.index == 1
    # the guard is radicand >= 0.1: 1 - x1^2 crosses 0.1 at x1 = 0.9487
    near = np.zeros((2, hyp2.dim))
    near[:, 0] = [0.948, 0.949]
    assert hyp2.domain.inside(near).tolist() == [True, False]


def test_not_paracontact_on_bad_inputs():
    coords, g, phi, xi, eta = heisenberg_tables(1)

    def build(g_rows):
        table = lambda rows: [[parse(s, coords) for s in row] for row in rows]
        comps = ExprTableComponents(table(g_rows), table(phi), *table([xi, eta]))
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
        sj = pc.get_frame(heis1, p, 0)
        bj = pc.get_frame(bar, p, 0)
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
            np.abs(pc.get_frame(back, p, 0).g.value - pc.get_frame(heis1, p, 0).g.value)
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


def sequential_points(structure, seed, box, count):
    """The rejection loop one attempt at a time, as a reference: the points,
    the number of rejected attempts and the generator's state after."""
    rng = pc.Sampler(structure, seed, box).rng
    out, rejected = [], 0
    while len(out) < count:
        p = rng.uniform(box[:, 0], box[:, 1])
        if structure.domain.contains(p):
            out.append(p)
        else:
            rejected += 1
    return np.array(out), rejected, rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 5, 34])
def test_batched_points_are_the_sequential_draws(hyp1, hyp2, seed):
    for structure in (hyp1, hyp2):
        # the second box lies half outside the hyperboloid guard
        for box in (pc.Sampler(structure, seed).box,
                    np.array([[0.0, 1.4]] + [[-0.3, 0.3]] * (structure.dim - 1))):
            want, rejected, state = sequential_points(structure, seed, box, 300)
            sampler = pc.Sampler(structure, seed, box)
            assert sampler.points(300).tobytes() == want.tobytes()
            assert sampler.rng.bit_generator.state == state
            one = pc.Sampler(structure, seed, box).point()
            assert one.tobytes() == want[0].tobytes()
        assert rejected > 50


def test_points_raise_after_max_attempts_in_a_row(hyp1):
    bad_box = np.array([[1.9, 2.0]] + [[-0.01, 0.01]] * (hyp1.dim - 1))
    with pytest.raises(SamplingExhausted, match="after 100 attempts"):
        pc.Sampler(hyp1, seed=0, box=bad_box).points(3)


def test_sampler_vectors(heis1):
    sampler = pc.Sampler(heis1, seed=4)
    p = sampler.point()
    f = pc.get_frame(heis1, p, 0).view(0)
    signs = set()
    for _ in range(50):
        u = sampler.horizontal_unit(f.g, f.xi, f.eta)
        assert abs(f.eta @ u) < 1e-12
        assert abs(abs(u @ f.g @ u) - 1.0) < 1e-12
        signs.add(float(np.sign(u @ f.g @ u)))
    assert signs == {1.0, -1.0}
    v = sampler.section_vector(f.g, f.phi)
    pv = f.phi @ v
    assert abs(pv @ f.g @ pv) > 1e-6
