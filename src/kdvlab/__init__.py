"""Numerical laboratory for the KdV flow on the torus.

Spectral fields and the nonlinear flow, Gaussian and Gibbs ensembles,
Wasserstein-type metrics between empirical measures, space-time norm
diagnostics, and a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .bourgain import (
    SpaceTimeField,
    bilinear_scaling_probe,
    l4_inequality_probe,
    random_band_field,
    traveling_wave,
    xsb_norm,
    ys_norm,
    zs_norm,
)
from .flow import (
    DriftSummary,
    FlowDivergenceError,
    SolverConfig,
    Trajectory,
    conserved_report,
    evolve,
    evolve_many,
    evolve_projected,
    linear_flow,
    trajectory,
)
from .kdve_io import KdveFormatError, read_ensemble, write_ensemble
from .measures import (
    DegenerateEnsembleError,
    FConvergenceResult,
    GaussianSpec,
    GibbsSpec,
    InsufficientDataError,
    TailFit,
    WeightedEnsemble,
    expected_hs_norm_sq,
    f_convergence_probe,
    gibbs_weight,
    pushforward,
    pushforward_linear,
    pushforward_many,
    sample_gaussian,
    sample_gibbs,
    tail_fit,
)
from .spectral import (
    TorusField,
    cosine_mode,
    evaluate,
    hamiltonian,
    integral_u3,
    linf_norm,
    project,
    sine_mode,
    sobolev_norm,
    zero_field,
)
from .transport import (
    CombinedDistance,
    EntropicResult,
    PushforwardCost,
    SinkhornConvergenceError,
    TransportPlan,
    combined_metric_parts,
    cost_matrix,
    plan_cost,
    wasserstein_inf,
    wasserstein_p_entropic,
    wasserstein_p_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
