"""Scalar linear-quadratic leader-follower stochastic game solver.

The follower observes only a noisy process whose drift is a deterministic
function of time; the leader observes everything.  The package computes the
state-estimate feedback form of the open-loop equilibrium (backward Riccati
solves, filtering ODEs, feedback gains), simulates the closed loop by
Monte-Carlo, and verifies the optimality and decoupling identities
numerically.
"""

from .costs import (CostEstimate, GridSearchResult, PerturbationReport, estimate_J1,
                    estimate_J2, follower_response, gain_grid_search,
                    verify_follower_optimality, verify_leader_optimality)
from .equilibrium import (AdjointReconstruction, EquilibriumSolution, FeedbackGains,
                          bsde_residual, build_gains, drift_residuals,
                          follower_stationarity_residual, gain_consistency_residual,
                          leader_stationarity_residual, reconstruct_adjoints,
                          solve_equilibrium)
from .errors import (H3Violated, LQStackError, M1NotInvertible, M2NotInvertible,
                     ModelValidationError, NonFiniteState, OutOfRange, ParseError,
                     RiccatiBlowUp, SolverError)
from .filtering import FilterPath, solve_follower_filter, solve_leader_xhat
from .model import (Coefficient, LQModel, TimeGrid, Violation, check_hypotheses,
                    load_model, model_from_dict, model_to_dict, sample_at,
                    sample_on_grid, validate_model)
from .riccati import (DeterministicPath, FollowerRiccati, LeaderBlocks, LeaderRiccati, Sigmas,
                      assemble_leader_blocks, compute_sigmas, gain_inverses,
                      sigma1, sigma2, sigma3, solve_follower_P, solve_leader_riccati)
from .simulate import (ClosedLoopSystem, DensityPath, NoiseBundle, TrajectoryEnsemble,
                       backfill_theta, density_process, generate_noise,
                       simulate_closed_loop, simulate_open_loop)

__version__ = "0.1.0"
