"""Numerical laboratory for heat extensions of measures on stratified groups.

The package provides, per group (Euclidean lines/planes/space and the first
Heisenberg group):

* exact group operations, gauge balls, and certified structure constants
  (:mod:`fatoulab.groups`), with every quadrature rule built by one layer
  (:mod:`fatoulab.quadrature`);
* validated heat kernels with Gaussian envelope certificates
  (:mod:`fatoulab.kernels`);
* boundary measures and strong-derivative traces (:mod:`fatoulab.measures`);
* heat extensions and parabolic limit traces (:mod:`fatoulab.extension`);
* maximal operators with explicit sandwich constants (:mod:`fatoulab.maximal`);
* every bar that decides a verdict, the one scale schedule both traces
  read, and one pure function per decision (:mod:`fatoulab.decisions`);
* Monte Carlo cross-checks (:mod:`fatoulab.oracle`);
* declarative scenarios, suites, and deterministic reports
  (:mod:`fatoulab.scenarios`) plus the ``fatou`` CLI (:mod:`fatoulab.cli`).
"""

from ._version import __version__
from .errors import (
    CertificationError,
    ConfigError,
    FatouLabError,
    GroupError,
    MeasureError,
    NumericsError,
)
from .groups import (
    GROUP_LABELS,
    Ball,
    GroupDescriptor,
    ball_bounding_box,
    ball_contains,
    ball_volume,
    dilate,
    dilate_ball,
    dist,
    euclidean_group,
    get_group,
    heisenberg_group,
    inverse,
    mul,
    norm,
    translate_ball,
    unit_directions,
)
from .kernels import (
    GaussianCertificate,
    KernelProfile,
    certify_gaussian,
    check_semigroup,
    eval_kernel,
    euclidean_profile,
    gamma_euclidean,
    gamma_heisenberg,
    gaussian_certificate,
    heisenberg_profile,
    kernel_mass,
    pde_residual,
    profile_for,
    validate_profile,
)
from .decisions import (
    SCALES,
    TABLE,
    DecisionTable,
    ScaleSchedule,
    TraceDecision,
    scenario_decision,
    tail_decision,
    trace_decision,
)
from .measures import (
    AtomicMeasure,
    BoundaryMeasure,
    DensityMeasure,
    DerivativeTrace,
    MixtureMeasure,
    default_ball_family,
    dilate_measure,
    measure_ball,
    restrict,
    restrict_complement,
    strong_derivative,
    trace_to_csv,
    translate_measure,
)
from .extension import (
    HeatExtension,
    LimitTrace,
    ParabolicRegion,
    dilation_commutation_check,
    limit_trace_to_csv,
    parabolic_limit,
    tail_vanishing_check,
    translation_commutation_check,
)
from .maximal import (
    RadialProfile,
    check_heat_chain,
    check_sandwich,
    default_profile,
    geometric_grid,
    hardy_littlewood,
    heat_max,
    mollifier_convolution,
    nontangential_max,
    radial_max,
    sandwich_constants,
)
from .oracle import (
    PathEnsemble,
    kde_density,
    mc_ball_volume,
    simulate_horizontal_bm,
)
from .scenarios import (
    SCHEMA_VERSION,
    VERDICT_BOTH_DIVERGE,
    VERDICT_EQUIVALENT,
    VERDICT_MISMATCH,
    Scenario,
    ScenarioReport,
    build_measure,
    emit_report,
    maximal_cases,
    preset_suite,
    report_to_json,
    run_maximal_case,
    run_scenario,
    run_suite,
    suite_names,
    summarize_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
