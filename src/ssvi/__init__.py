"""Star-structured variational inference for log-concave targets.

Fits the best star-separable transport map — a root coordinate driving
conditionally independent leaves — to a log-concave target by convex
optimization over a piecewise-linear cone of maps, with closed-form
Gaussian oracles and diagnostic certificates.
"""

__version__ = "0.1.0"

from .dictionary import (ORDERING_VERSION, BasisId, DictionaryDegenerateError,
                         DictionarySpec, GramMatrix, build_dictionary,
                         gram_matrix, ramp)
from .diagnostics import (BoundCertificate, DiagnosticsError, ResidualReport,
                          approximation_bound, check_residual_settings,
                          l2_map_distance, pushforward_moments,
                          self_consistency_residual)
from .gaussian_oracle import (ClosedFormStarMap, GaussianDist,
                              closed_form_star_map, kl_gaussians,
                              mfvi_gaussian, ssvi_gaussian, ssvi_mfvi_gap)
from .objective import (FreeEnergyReport, SaaSample, TargetOverflowError,
                        free_energy, gradient)
from .optimizer import (FitResult, OptimizerError, PgdConfig, compute_upsilon,
                        map_point, project_cone_q, run_pgd)
from .starmap import (ConeViolationError, JacobianSketch, MonotonicityError,
                      StarMapParams, build_oracle_approximator, forward,
                      identity_params, inverse_trace_weight, invert_root,
                      jacobian, leaf_conditional_logdensity, log_det,
                      map_eval, params_from_json, params_to_json,
                      root_marginal_logdensity)
from .targets import (GaussianPrior, GaussianTarget, GlmLocationTarget,
                      LogisticPrior, RegularityConstants, SpikeSlabGlmTarget,
                      TargetPotential, gaussian_ensemble_design,
                      load_design_csv, mixture_log_concavity_bound,
                      target_from_json)

__all__ = [name for name in dir() if not name.startswith("_")]
