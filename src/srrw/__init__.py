"""Simulation and numeric verification toolkit for the directed-edge
self-repelling random walk."""

from .errors import (
    CampaignConfigError,
    ConvergenceError,
    DivergingTailError,
    EvaluationRangeError,
    InvalidWeightError,
    SimulationBudgetError,
    SrrwError,
    SupportBudgetError,
    WindowTooSmallError,
)
from .weights import WeightFunction
from .walk import (
    EtaSequence,
    LocalTimeTable,
    Trajectory,
    extract_eta_sequence,
    inverse_local_time,
    range_extremes,
    simulate_walk,
)
from .eta import (
    EtaKernel,
    Lattice1DDistribution,
    StationaryResult,
    eta_kernel_row,
    marginal_law_table,
    sample_eta_chain,
    stationary_distribution,
)
from .scaling import beta_n, theta
from .rayknight import RayKnightSampler
from .lclt import (
    BivariatePMF,
    ConvolutionBoundReport,
    GaussianComparison,
    ZeroMassError,
    conditional_sup_error,
    convolution_lowerbound_check,
    exact_bivariate_pmf,
    lclt_sup_error,
    stationary_step_law,
)

from .harness import (
    CampaignConfig,
    EndpointConfig,
    InverseTimeConfig,
    LcltTableConfig,
    ProfileShapeConfig,
    TailConfig,
    WTermsConfig,
    config_from_dict,
    endpoint_law,
    inverse_time_asymptotics,
    load_expectations,
    local_clt_table,
    profile_shape,
    run_campaign,
    tail_bounds_suite,
    w_boundary_terms,
)
from .reporting import CheckResult, RunManifest, StatsReport

__version__ = "0.1.0"

