"""Vector-field discovery from ODE trajectories.

Fits the right-hand side f of dx/dt = f(x) to a sampled trajectory by
minimizing linear-multistep residuals over a two-layer B-spline network,
with the classical grid-value linear system, stability diagnostics, and
approximation-bound calculators alongside.
"""
from .bspline import BSplineBasis, eval_basis, eval_basis_derivative, make_basis
from .lmm import (GridSystem, IndexWindow, LmmScheme, RootConditionReport, all_schemes,
                  empirical_order, fdm_coefficients, grid_system, index_window,
                  residual, root_condition, scheme)
from .odeint import (IntegrationError, NonFiniteStateError, Trajectory, integrate,
                     load_trajectory, save_trajectory)
from .discovery import (SingularSystemError, assemble, condition_number,
                        solve_grid_values)
from .kan import (BatchEvaluator, KanNetwork, ModelFormatError, ModelVersionError,
                  deserialize, forward, get_params, gradient, init_network,
                  load_model, save_model, serialize, set_params)
from .training import (ResidualStencil, TrainConfig, TrainReport,
                       TrainingDivergedError, train)
from .analysis import (BoundsReport, HolderSpec, bounds_report, fit_log_linear,
                       gronwall_study, l2_seminorm, lipschitz_estimate,
                       upper_bound, upper_bound_unit_box, vc_lower_bound_shape)
from .systems import (SystemDef, glycolytic_system, linear_system,
                      opinion_component_count, opinion_system)

__version__ = "0.1.0"
