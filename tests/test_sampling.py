"""Drawn vectors: a batch of draws consumes the stream as one draw at a time."""

import numpy as np
import pytest

import paracurv as pc
from paracurv.errors import SamplingExhausted
from paracurv.sampling import MAX_ATTEMPTS, NULL_EPS


# the sampler's loops one draw and one attempt at a time, as they stood
# before draws came in batches: the reference for the stream
def horizontal_one(rng, g, xi, eta):
    for _ in range(MAX_ATTEMPTS):
        w = rng.uniform(-1.0, 1.0, len(xi))
        w = w - (eta @ w) * xi
        q = float(w @ g @ w)
        if abs(q) < NULL_EPS:
            continue
        return w / np.sqrt(abs(q))
    raise SamplingExhausted(
        f"no non-null horizontal vector after {MAX_ATTEMPTS} attempts"
    )


def section_one(rng, g, phi):
    for _ in range(MAX_ATTEMPTS):
        v = rng.uniform(-1.0, 1.0, len(phi))
        pv = phi @ v
        ppv = phi @ pv
        if abs(pv @ g @ pv) < NULL_EPS or abs(ppv @ g @ ppv) < NULL_EPS:
            continue
        return v
    raise SamplingExhausted(
        f"no non-degenerate section vector after {MAX_ATTEMPTS} attempts"
    )


KINDS = {
    "horizontal": (horizontal_one, "horizontal_unit", ("g", "xi", "eta")),
    "section": (section_one, "section_vector", ("g", "phi")),
}


class Stream:
    """A stand-in generator that hands out the given attempts in order and
    counts how many it handed out."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.used = 0

    def uniform(self, low, high, size):
        k = int(np.prod(size)) // self.rows.shape[1]
        out = self.rows[self.used : self.used + k]
        self.used += k
        return out.reshape(size)


def draw_values(structure, points, count, names):
    """Each draw's values, draw i at point i mod len(points)."""
    views = [pc.get_frame(structure, p, 0).view(0) for p in points]
    at = [views[i % len(views)] for i in range(count)]
    return [np.array([getattr(f, name) for f in at]) for name in names]


def both_ways(kind, structure, values, make_rng):
    """(batched vectors, rng) and (one-at-a-time vectors, rng), each drawn
    from a new generator of ``make_rng``."""
    one, method, _ = KINDS[kind]
    sampler = pc.Sampler(structure, seed=0)
    sampler.rng = make_rng()
    batched = getattr(sampler, method)(*values)
    rng = make_rng()
    reference = np.array([one(rng, *draw) for draw in zip(*values)])
    return (batched, sampler.rng), (reference, rng)


def synthetic(names, count):
    """Each draw's values, alternating between two metrics on R^3 that share
    xi = eta = dt and a phi that swaps du and dv: at the first,
    dt^2 + du^2 - dv^2, NEAR_NULL projects to a null horizontal vector and
    spans a null section; at the second, dt^2 + du^2 + dv^2, it does
    neither."""
    e3 = np.array([0.0, 0.0, 1.0])
    known = {"g": [np.diag([1.0, -1.0, 1.0]), np.eye(3)], "xi": [e3, e3],
             "eta": [e3, e3],
             "phi": [np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0] * 3])] * 2}
    return [np.array([known[name][i % 2] for i in range(count)])
            for name in names]


NEAR_NULL = np.array([0.5, 0.5 + 1e-9, 0.3])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_stack_without_rejection_is_the_sequential_draws(heis2, hyp2, kind):
    for structure in (heis2, hyp2):
        points = pc.Sampler(structure, seed=5).points(3)
        values = draw_values(structure, points, 40, KINDS[kind][2])
        (got, rng), (want, ref) = both_ways(
            kind, structure, values, lambda: np.random.default_rng(91))
        assert got.shape == (40, structure.dim)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_rejection_mid_stack_moves_the_later_attempts_on(heis1, kind):
    # draw 4 rejects attempt 4 and takes attempt 5, so each later draw is
    # tested with the attempt after its own index; at draw 11, NEAR_NULL
    # would pass, but it meets draw 10, which rejects it
    rows = np.random.default_rng(17).uniform(-1.0, 1.0, (40, 3))
    rows[4] = rows[11] = NEAR_NULL
    values = synthetic(KINDS[kind][2], 12)
    (got, stream), (want, ref) = both_ways(
        kind, heis1, values, lambda: Stream(rows))
    assert got.tobytes() == want.tobytes()
    assert stream.used == ref.used == 14


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_stack_of_draws_keeps_its_leading_shape(heis2, kind):
    # the wpc row draws four vectors per quadruple, draw by draw
    values = draw_values(heis2, pc.Sampler(heis2, seed=2).points(3), 30,
                         KINDS[kind][2])
    stacked = [x.reshape((10, 3) + x.shape[1:]) for x in values]
    _, method, _ = KINDS[kind]
    flat = getattr(pc.Sampler(heis2, seed=8), method)(*values)
    quads = getattr(pc.Sampler(heis2, seed=8), method)(*stacked)
    assert quads.shape == (10, 3, heis2.dim)
    assert quads.reshape(flat.shape).tobytes() == flat.tobytes()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_max_attempts_in_a_row_at_one_draw_exhaust(heis1, kind):
    one, method, names = KINDS[kind]
    good = np.random.default_rng(23).uniform(-1.0, 1.0, (3, 3))
    # every draw at the first metric, where NEAR_NULL is rejected
    values = [x[::2] for x in synthetic(names, 8)]
    for misses in (MAX_ATTEMPTS - 1, MAX_ATTEMPTS):
        # three good draws, the second after one rejection, which does not
        # count against the fourth: it meets ``misses`` near-null attempts
        rows = np.concatenate([good[:1], [NEAR_NULL], good[1:],
                               [NEAR_NULL] * misses, good])
        sampler = pc.Sampler(heis1, seed=0)
        sampler.rng = Stream(rows)
        rng = Stream(rows)
        if misses < MAX_ATTEMPTS:
            got = getattr(sampler, method)(*values)
            want = np.array([one(rng, *draw) for draw in zip(*values)])
            assert got.tobytes() == want.tobytes()
            assert sampler.rng.used == rng.used == 3 + 1 + misses + 1
            continue
        with pytest.raises(SamplingExhausted) as batched:
            getattr(sampler, method)(*values)
        with pytest.raises(SamplingExhausted) as reference:
            for draw in zip(*values):
                one(rng, *draw)
        assert str(batched.value) == str(reference.value)
        assert str(batched.value).endswith(f"after {MAX_ATTEMPTS} attempts")
