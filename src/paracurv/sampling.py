"""Seeded, deterministic sampling of chart points and tangent vectors.

The generator is numpy's PCG64 (O'Neill's permuted congruential generator,
128-bit state, 64-bit output), seeded from the manifest seed, and every
sample is drawn sequentially from the single stream, so reports are
reproducible bit-for-bit regardless of how checks fan out afterwards.
"""

from __future__ import annotations

import numpy as np

from .errors import SamplingExhausted

MAX_ATTEMPTS = 100
NULL_EPS = 1e-6
DEFAULT_BOX_HALF_WIDTH = 0.8


class Sampler:
    def __init__(self, structure, seed, box=None):
        self.structure = structure
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        d = structure.dim
        dom = structure.domain.box
        if box is None:
            lo = np.maximum(dom[:, 0], -DEFAULT_BOX_HALF_WIDTH)
            hi = np.minimum(dom[:, 1], DEFAULT_BOX_HALF_WIDTH)
            box = np.stack([lo, hi], axis=1)
        self.box = np.asarray(box, dtype=float).reshape(d, 2)

    def point(self):
        """One in-domain point, by rejection against the guard."""
        return self.points(1)[0]

    def points(self, count):
        """``count`` in-domain points, by rejection against the guard, as a
        (count, d) array.  Each round draws one attempt per missing point in
        one batch and tests them together: the same stream, so the same
        points, as one attempt at a time."""
        d = self.structure.dim
        out = np.empty((count, d))
        accepted = run = 0  # run: rejections in a row so far
        while accepted < count:
            tries = self.rng.uniform(self.box[:, 0], self.box[:, 1],
                                     size=(count - accepted, d))
            ok = self.structure.domain.inside(tries)
            # rejections before each accepted attempt, and after the last
            gaps = np.diff(np.flatnonzero(np.concatenate([[True], ok, [True]]))) - 1
            gaps[0] += run
            if gaps.max() >= MAX_ATTEMPTS:
                raise SamplingExhausted(
                    f"no in-domain point after {MAX_ATTEMPTS} attempts in box "
                    f"{self.box.tolist()}"
                )
            run = gaps[-1]
            new = tries[ok]
            out[accepted : accepted + len(new)] = new
            accepted += len(new)
        return out

    def raw_vector(self):
        return self.rng.uniform(-1.0, 1.0, self.structure.dim)

    def horizontal_unit(self, f):
        """Horizontal vector at frame ``f``, normalized to g(u,u) = +-1.

        Coordinates are drawn uniformly, projected along xi, and rejected
        while nearly null; split signature makes both signs appear.
        """
        g, xi, eta = f.g.value, f.xi.value, f.eta.value
        for _ in range(MAX_ATTEMPTS):
            w = self.raw_vector()
            w = w - (eta @ w) * xi
            q = float(w @ g @ w)
            if abs(q) < NULL_EPS:
                continue
            return w / np.sqrt(abs(q))
        raise SamplingExhausted(
            f"no non-null horizontal vector after {MAX_ATTEMPTS} attempts"
        )

    def section_vector(self, f):
        """A vector at frame ``f`` whose phi-image and phi^2-image are both
        non-null."""
        g, phi = f.g.value, f.phi.value
        for _ in range(MAX_ATTEMPTS):
            v = self.raw_vector()
            pv = phi @ v
            ppv = phi @ pv
            if abs(pv @ g @ pv) < NULL_EPS or abs(ppv @ g @ ppv) < NULL_EPS:
                continue
            return v
        raise SamplingExhausted(
            f"no non-degenerate section vector after {MAX_ATTEMPTS} attempts"
        )
