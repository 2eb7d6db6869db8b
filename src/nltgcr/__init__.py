"""Nonlinear acceleration by truncated conjugate-residual iterations.

The package implements the nlTGCR family of solvers for f(x) = 0 and
min phi together with their linear ancestors (GCR, truncated GCR, CR),
classic baselines under one function-evaluation accounting, and the
deterministic benchmark problems used to compare them.
"""

from .baselines import (
    AaState,
    aa_multisecant_check,
    aa_solve,
    broyden2_solve,
    lbfgs_solve,
    ncg_fr_solve,
    nesterov_solve,
    newton_krylov_solve,
)
from .core import (
    BreakdownError,
    ConvergenceTrace,
    DivergenceError,
    EvalCounter,
    JvProbe,
    LineSearchOptions,
    NonFiniteError,
    NonlinearProblem,
    NotDescentError,
    SolverOptions,
    TraceRecord,
    WindowPair,
)
from .identities import (
    InducedInverseReport,
    SemiConjugacyReport,
    build_B_matrix,
    build_H_matrix,
    check_semiconjugacy,
    identity_observer,
    induced_inverse_checks,
    reconstruction_defects,
    secant_property_check,
)
from .jacobian import descent_check, frechet_jv
from .linear import (
    KrylovHistory,
    LinearOperator,
    LinearOptions,
    cr_solve,
    gcr_solve,
    tgcr_solve,
)
from .linesearch import LineSearchResult, backtrack, backtrack_linearized, update_alpha0
from .problems import (
    BratuProblem,
    LennardJonesProblem,
    LogRegProblem,
    logreg_load_csv,
    logreg_make_synthetic,
    make_linear_problem,
)
from .solver import adaptive_switch, angular_distance, nltgcr_solve

__version__ = "0.1.0"
