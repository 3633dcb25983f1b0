"""Minimal-multiplication evaluation of truncated geometric series.

The package builds straight-line plans for 1 + x + ... + x^(N-1) that
beat nested evaluation's N - 2 multiplications (down to about
1.7 log2(N) - 2), proves them correct against an exact polynomial
oracle, analyzes reduction policies with exact Markov-chain arithmetic,
and applies the plans to approximate dense-matrix inversion.
"""

from .linalg import (
    ConvergenceError,
    NeumannReport,
    bench,
    neumann_invert,
    random_test_matrix,
    residual,
    spectral_radius_estimate,
)
from .planner import (
    AutoPlanner,
    CostModel,
    PlanReport,
    Strategy,
    plan,
    predicted_cost,
)
from .slp import (
    Instr,
    ProgramBuilder,
    ProgramError,
    SlpProgram,
    eval_poly_oracle,
    evaluate,
    mul_count,
    passes_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "NeumannReport",
    "bench",
    "neumann_invert",
    "random_test_matrix",
    "residual",
    "spectral_radius_estimate",
    "AutoPlanner",
    "CostModel",
    "PlanReport",
    "Strategy",
    "plan",
    "predicted_cost",
    "Instr",
    "ProgramBuilder",
    "ProgramError",
    "SlpProgram",
    "eval_poly_oracle",
    "evaluate",
    "mul_count",
    "passes_oracle",
    "__version__",
]
