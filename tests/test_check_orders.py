"""The order column of the check table is minimal.

Every row runs on frames of its table order and cannot run on frames one
order lower, so no check reads a jet part that its frames lack, and no
frame is built at an order that no reader of it needs.
"""

import numpy as np
import pytest

import paracurv as pc
from paracurv.connection import PointGeometry
from paracurv.manifest import CHECKS, _Context

FRAMES = 5


def run_row(row, structure, order, seed=5):
    """The row's report on frames of ``order`` at FRAMES sample points."""
    sampler = pc.Sampler(structure, seed)
    points = sampler.points(FRAMES)
    frames = [PointGeometry(structure.at(points, order), points)]
    with np.errstate(all="ignore"):
        return row.run(_Context(sampler, 1e-8, lambda: frames), frames,
                       row.budget)


@pytest.mark.parametrize("row", CHECKS, ids=[row.name for row in CHECKS])
def test_each_check_runs_at_its_order_and_not_below(row):
    structure = pc.builtin_heisenberg(1)
    report = run_row(row, structure, row.order)
    assert report.rows and report.passed
    with pytest.raises(ValueError, match="cannot take partial of an order-0 jet"):
        run_row(row, structure, row.order - 1)


@pytest.mark.parametrize(
    "structure",
    [lambda: pc.builtin_heisenberg(2), lambda: pc.builtin_hyperboloid(2),
     lambda: pc.d_homothetic(pc.builtin_heisenberg(1), 2.0)],
    ids=["heisenberg2", "hyperboloid2", "heisenberg1_alpha2"],
)
def test_identities_read_nothing_above_order_2(structure):
    identities = next(row for row in CHECKS if row.name == "identities")
    structure = structure()
    low, high = (run_row(identities, structure, order) for order in (2, 3))
    assert len(low.rows) == 30
    assert {k: r.residual for k, r in low.rows.items()} == {
        k: r.residual for k, r in high.rows.items()}
    assert low.constants == high.constants
