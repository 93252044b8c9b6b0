"""Oscillation analysis for delay differential equations x'(t) + (Tx)(t) = 0.

The response operator T is causal with limited memory: at time t it reads
the solution only on a window [sigma(t), tau(t)] strictly in the past.
Given a rate bound b(t) for the operator, the criterion quantity

    w = liminf over t of the integral of b(s) ds from tau(t) to t

guarantees, whenever w > 1/e, that every nontrivial solution either
oscillates or tends monotonically to zero.  The package computes w, renders
the verdict, replays the power-tower/Lambert-W mechanism behind the 1/e
threshold, simulates solutions by the method of steps, and classifies them.
"""

__version__ = "0.1.0"

from .criterion import (
    THRESHOLD,
    LiminfEstimate,
    TetrationTrace,
    TowerDecision,
    Trend,
    Verdict,
    VerdictOutcome,
    estimate_liminf_w,
    integral_over_amnesia,
    tetration_proof_trace,
    theorem_verdict,
    zeta_fixed_point,
)
from .errors import (
    CrossValidationError,
    DomainError,
    ExpressionError,
    HistoryCoverageError,
    HistoryDomainError,
    InvalidParameterError,
    SpecFormatError,
    StepSizeError,
)
from .operators import (
    AmnesiaOperator,
    AuditReport,
    AuditViolation,
    HistoryFunction,
    audit_sign_bound,
    make_discrete_delay,
    make_distributed_delay,
    random_history,
)
from .quadrature import composite_simpson
from .simulator import (
    ConcordanceReport,
    Interpolation,
    SimulationConfig,
    SolutionClass,
    SolutionClassification,
    Trajectory,
    classify,
    concordance_experiment,
    integrate,
    zero_crossings,
)
from .special_functions import (
    BRANCH_POINT,
    EULER_LOWER,
    EULER_UPPER,
    INV_E,
    ConvergenceResult,
    TowerOutcome,
    euler_interval_contains,
    lambert_w0,
    power_tower,
    tower_iterates,
    tower_limit,
    tower_limit_via_lambert,
)

__all__ = [
    "__version__",
    "AmnesiaOperator",
    "AuditReport",
    "AuditViolation",
    "BRANCH_POINT",
    "ConcordanceReport",
    "ConvergenceResult",
    "CrossValidationError",
    "DomainError",
    "EULER_LOWER",
    "EULER_UPPER",
    "ExpressionError",
    "HistoryCoverageError",
    "HistoryDomainError",
    "HistoryFunction",
    "INV_E",
    "Interpolation",
    "InvalidParameterError",
    "LiminfEstimate",
    "SimulationConfig",
    "SolutionClass",
    "SolutionClassification",
    "SpecFormatError",
    "StepSizeError",
    "TetrationTrace",
    "THRESHOLD",
    "TowerDecision",
    "TowerOutcome",
    "Trajectory",
    "Trend",
    "Verdict",
    "VerdictOutcome",
    "audit_sign_bound",
    "classify",
    "composite_simpson",
    "concordance_experiment",
    "estimate_liminf_w",
    "euler_interval_contains",
    "integral_over_amnesia",
    "integrate",
    "lambert_w0",
    "make_discrete_delay",
    "make_distributed_delay",
    "power_tower",
    "random_history",
    "tetration_proof_trace",
    "theorem_verdict",
    "tower_iterates",
    "tower_limit",
    "tower_limit_via_lambert",
    "zero_crossings",
    "zeta_fixed_point",
]
