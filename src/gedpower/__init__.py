"""Powered order statistics of the general error distribution: exact
finite-sample laws, every norming-constant family, and numerically
verifiable first- and second-order Gumbel expansions."""

__version__ = "0.1.0"

from .specfun import (
    Accuracy,
    ConvergenceError,
    inv_reg_gamma_upper,
    log_gamma,
    log_reg_gamma_upper,
    reg_gamma_lower,
    reg_gamma_upper,
)
from .ged import (
    GedParams,
    TailExpansion,
    cdf,
    log_survival,
    make_params,
    pdf,
    powered_abs_survival,
    powered_abs_survival_expansion,
    quantile,
    sample_stream,
    survival,
    tail_expansion_coefficients,
    tail_survival_expansion,
)
from .norming import (
    AuxFG,
    BnSolution,
    LinearNorming,
    aux_f_g,
    gumbel_constants,
    hall_constants,
    optimal_constants,
    power_constants,
    solve_bn,
)
from .orderstats import (
    BudgetError,
    OrderStatSpec,
    cdf_gap_from_deficit,
    exact_powered_cdf,
    lower_tail_mass,
    mc_powered_cdf,
    poisson_powered_cdf,
    upper_orderstat_cdf,
)
from .expansions import (
    ExpansionEval,
    TheoremCase,
    case_norming,
    classify_case,
    correction_b,
    correction_h,
    correction_q,
    correction_s,
    exact_deficit,
    gumbel,
    gumbel_r,
    gumbel_r_identities,
    lemma3_transfer,
    normed_threshold,
    theorem_expansion,
    theta_deficit,
)
from .harness import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    VerificationRow,
    emit,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
