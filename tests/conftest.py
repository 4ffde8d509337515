"""Shared fixtures: builtin structures, sample points, FD oracles."""

import numpy as np
import pytest

import paracurv as pc
from paracurv.exprlang import eval_jet, parse

# expression corpus used by both the jet unit tests and the acceptance
# gate; every expression is safe to evaluate near the reference point
CORPUS_COORDS = ("u", "v", "w")
CORPUS_POINT = np.array([0.5, 0.3, -0.4])
EXPRESSION_CORPUS = [
    "u*v + w",
    "sqrt(1 + u^2)",
    "exp(u*v)",
    "ln(2 + u)",
    "sinh(u)*cosh(v)",
    "1/(1 + u^2 + v^2)",
    "u^3 - 2*u*v + v^2",
    "(u + v)/(2 + w)",
    "exp(-(u^2))",
    "sqrt(4 + u*v)",
    "u/(v + 2)",
    "cosh(u + v)",
    "sinh(u*v)",
    "ln(1 + u^2 + v^2)",
    "u^2*v^3*w",
    "(1 + u)^4",
    "exp(u)/(1 + v^2)",
    "sqrt(1 + sinh(u)^2)",
    "u*exp(v) - w*ln(2 + v)",
    "(u^2 - v^2)/(1 + w^2)",
]


def values(ast, points):
    """Values of an AST at a list of points, one batch."""
    return eval_jet(ast, np.asarray(points, dtype=float), order=0)[0]


def fd_gradient(ast, point, h=1e-5):
    point = np.asarray(point, dtype=float)
    d = len(point)
    eye = np.eye(d) * h
    return (values(ast, point + eye) - values(ast, point - eye)) / (2 * h)


def fd_hessian(ast, point, h=1e-4):
    point = np.asarray(point, dtype=float)
    d = len(point)
    hess = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h
            ej[j] = h
            f = values(ast, [point + ei + ej, point + ei - ej,
                             point - ei + ej, point - ei - ej])
            hess[i, j] = (f[0] - f[1] - f[2] + f[3]) / (4 * h * h)
    return hess


def fd_third(ast, point, h=1e-3):
    point = np.asarray(point, dtype=float)
    d = len(point)
    out = np.zeros((d, d, d))
    signs = [(si, sj, sk) for si in (1, -1) for sj in (1, -1) for sk in (1, -1)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                shifted = []
                for si, sj, sk in signs:
                    shift = np.zeros(d)
                    shift[i] += si * h
                    shift[j] += sj * h
                    shift[k] += sk * h
                    shifted.append(point + shift)
                f = values(ast, shifted)
                acc = 0.0
                for (si, sj, sk), fv in zip(signs, f):
                    acc += si * sj * sk * fv
                out[i, j, k] = acc / (8 * h ** 3)
    return out


def max_residual(report):
    return max((r.residual for r in report.rows.values()), default=0.0)


def corpus_asts():
    return [parse(text, CORPUS_COORDS) for text in EXPRESSION_CORPUS]


@pytest.fixture(scope="session")
def heis1():
    return pc.builtin_heisenberg(1)


@pytest.fixture(scope="session")
def heis2():
    return pc.builtin_heisenberg(2)


@pytest.fixture(scope="session")
def heis3():
    return pc.builtin_heisenberg(3)


@pytest.fixture(scope="session")
def hyp1():
    return pc.builtin_hyperboloid(1)


@pytest.fixture(scope="session")
def hyp2():
    return pc.builtin_hyperboloid(2)


@pytest.fixture(scope="session")
def all_builtins(heis1, heis2, heis3, hyp1, hyp2):
    return {
        "heisenberg(1)": heis1,
        "heisenberg(2)": heis2,
        "heisenberg(3)": heis3,
        "hyperboloid(1)": hyp1,
        "hyperboloid(2)": hyp2,
    }


def sample_points(structure, seed=1234, count=10):
    return pc.Sampler(structure, seed).points(count)


def frames_at(structure, points, order=2):
    return [pc.get_frame(structure, p, order) for p in points]


def sample_frames(structure, seed=1234, count=10, order=2):
    return frames_at(structure, sample_points(structure, seed, count), order)
