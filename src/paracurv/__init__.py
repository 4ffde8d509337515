"""Numerical verification toolkit for paracontact metric geometry.

Truncated-jet tensor calculus over coordinate charts, builtin paraSasakian
models (hyperbolic Heisenberg group, hyperboloid), Levi-Civita and canonical
paracontact connections, curvature analysis on frames over batches of
points, and a manifest-driven check runner with deterministic seeded
sampling.
"""

__version__ = "1.0.0"

from .errors import (
    DomainError,
    InvalidAlpha,
    IsotropicSection,
    IsotropicVector,
    ManifestError,
    NotHorizontal,
    NotParacontact,
    ParacurvError,
    ParseError,
    RankDeficientJacobian,
    SamplingExhausted,
    SingularMetric,
    UnknownCoordinate,
)
from .geometry import builtin_heisenberg, builtin_hyperboloid, d_homothetic
from .connection import get_frame
from .analysis import check_axioms, classify, eta_einstein_fit, phsc, space_form_fit
from .sampling import Sampler
from .manifest import build_structure, load_manifest, run_checks

__all__ = [
    "__version__",
    "builtin_heisenberg",
    "builtin_hyperboloid",
    "d_homothetic",
    "get_frame",
    "check_axioms",
    "classify",
    "eta_einstein_fit",
    "phsc",
    "space_form_fit",
    "Sampler",
    "build_structure",
    "load_manifest",
    "run_checks",
    "ParacurvError",
    "DomainError",
    "ParseError",
    "UnknownCoordinate",
    "SingularMetric",
    "RankDeficientJacobian",
    "InvalidAlpha",
    "NotParacontact",
    "IsotropicVector",
    "IsotropicSection",
    "NotHorizontal",
    "SamplingExhausted",
    "ManifestError",
]
