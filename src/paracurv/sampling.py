"""Seeded, deterministic sampling of chart points and tangent vectors.

The generator is numpy's PCG64 (O'Neill's permuted congruential generator,
128-bit state, 64-bit output), seeded from the manifest seed, and every
sample is drawn sequentially from the single stream, so reports are
reproducible bit-for-bit regardless of how checks fan out afterwards.
Points and vectors are drawn in batches that consume the stream exactly as
one attempt at a time would: the same attempts, in the same order, given
to the same draws.
"""

from __future__ import annotations

import numpy as np

from .errors import SamplingExhausted
from .jetfields import bilinear, matvec, vecdot

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

    def horizontal_unit(self, g, xi, eta):
        """Horizontal vectors normalized to g(u,u) = +-1, one per draw: g is
        (..., d, d) and xi, eta are (..., d), each draw's values along the
        leading axes, and the vectors come back as (..., d) in that order.

        Coordinates are drawn uniformly, projected along xi, and rejected
        while nearly null; split signature makes both signs appear.
        """
        lead, d = xi.shape[:-1], xi.shape[-1]
        g, xi, eta = g.reshape(-1, d, d), xi.reshape(-1, d), eta.reshape(-1, d)

        def reject(tries, at):
            w = tries - vecdot(eta[at], tries)[:, None] * xi[at]
            q = np.abs(bilinear(w, g[at], w))
            null = q < NULL_EPS
            return w / np.sqrt(np.where(null, 1.0, q))[:, None], null

        out = self._draws(len(xi), reject, "no non-null horizontal vector")
        return out.reshape(lead + (d,))

    def section_vector(self, g, phi):
        """Vectors whose phi-image and phi^2-image are both non-null, one
        per draw: g and phi are (..., d, d), each draw's values along the
        leading axes, and the vectors come back as (..., d) in that order."""
        lead, d = phi.shape[:-2], phi.shape[-1]
        g, phi = g.reshape(-1, d, d), phi.reshape(-1, d, d)

        def reject(tries, at):
            pv = matvec(phi[at], tries)
            ppv = matvec(phi[at], pv)
            q1 = bilinear(pv, g[at], pv)
            q2 = bilinear(ppv, g[at], ppv)
            return tries, (np.abs(q1) < NULL_EPS) | (np.abs(q2) < NULL_EPS)

        out = self._draws(len(phi), reject, "no non-degenerate section vector")
        return out.reshape(lead + (d,))

    def _draws(self, count, reject, failure):
        """``count`` vectors by rejection, in draw order.

        ``reject(tries, at)`` tests the attempts ``tries`` against the draws
        ``at``, one attempt each, and returns the vectors they make and
        whether each is rejected.  A round draws one attempt per missing
        vector in one batch and accepts them up to the first rejected one,
        which counts against its draw; the attempts after it are tested
        again, against the draws that follow.  So the stream gives the same
        attempts, in the same order and to the same draws, as one attempt
        at a time, and no attempt is drawn that is not used.
        """
        parts, tries = [], ()
        done = run = 0  # run: rejections in a row at draw ``done``
        while done < count:
            if not len(tries):
                tries = self.rng.uniform(-1.0, 1.0,
                                         size=(count - done, self.structure.dim))
            vecs, rejected = reject(tries, slice(done, done + len(tries)))
            # the draws up to the first rejected attempt
            taken = (int(np.argmax(rejected)) if np.count_nonzero(rejected)
                     else len(tries))
            parts.append(vecs[:taken])
            done += taken
            if taken:
                run = 0
            if taken < len(tries):
                run += 1
                if run == MAX_ATTEMPTS:
                    raise SamplingExhausted(
                        f"{failure} after {MAX_ATTEMPTS} attempts")
            tries = tries[taken + 1 :]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)
