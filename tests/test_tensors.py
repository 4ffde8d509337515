"""Tensor values at a point: the pivoted metric inverse and phi lowered."""

import numpy as np
import pytest

from paracurv.connection import get_frame
from paracurv.errors import SingularMetric
from paracurv.jetfields import plu_inverse

from conftest import sample_points


def test_plu_inverse_rejects_singular():
    with pytest.raises(SingularMetric):
        plu_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.allclose(plu_inverse(a) @ a, np.eye(2), atol=1e-14)


def test_plu_inverse_of_a_stack():
    # each matrix of a stack is inverted as it would be alone, and one
    # singular matrix anywhere in the stack is refused
    stack = np.array([[[2.0, 1.0], [1.0, 3.0]], [[0.0, 1.0], [1.0, 0.0]],
                      [[1.0, 0.5], [0.5, -2.0]]])
    inverse = plu_inverse(stack)
    assert inverse.shape == stack.shape
    for a, inv in zip(stack, inverse):
        assert inv.tobytes() == plu_inverse(a).tobytes()
    stack[1] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(SingularMetric):
        plu_inverse(stack)


def test_phi_low_is_antisymmetric_on_builtin(heis2):
    # gphi is the exterior-derivative half of eta, so lowering phi must
    # produce an antisymmetric bilinear form
    for p in sample_points(heis2, seed=5, count=5):
        low = get_frame(heis2, p, 0).view(0).phi_low
        assert np.max(np.abs(low + low.T)) < 1e-13
