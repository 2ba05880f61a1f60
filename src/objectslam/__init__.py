"""EKF SLAM with 6-DoF object landmarks.

Public surface: group/Lie primitives, one EKF parameterised by its error
convention (INVARIANT, and STANDARD for the standard and ideal baselines),
innovation gating, the simulator, consistency metrics, observability checks,
the Jacobian oracles, and the experiment harness behind the CLI.
"""

from .ekf import INVARIANT, STANDARD, Convention, apply_std_error, propagate_mean
from .errors import (DimensionMismatchError, DuplicateFeatureError,
                     IllConditionedInnovationError, InvalidRotationError,
                     LogDomainError, MalformedRecordError,
                     MissingOdometryError, SingularCovarianceError,
                     UnknownFeatureError)
from .gating import GateDecision, gate
from .group import (GroupState, group_compose, group_exp, group_inverse,
                    group_log, group_minus, identity_state, pos_block,
                    rot_block, tangent_dim)
from .harness import (FilterSpec, RunConfig, inject_outliers,
                      observability_experiment, replay_metrics, run_filter,
                      run_monte_carlo, simulated_steps,
                      synthesize_constant_velocity_odometry)
from .lie import project_to_so3, random_rotation, skew, so3_exp, so3_log
from .metrics import BLOCKS, ErrorSample, error_sample, nees, rmse
from .observability import (JacobianLog, ObservabilityReport, SubspaceBasis,
                            build_observability_matrix, check_null_space,
                            null_space)
from .oracles import jacobian_check_suite
from .simulator import (GroundTruthTrace, SimConfig, generate_trajectory,
                        generate_world, sample_noisy_odometry,
                        sample_observations, simulate_run, step_odometry)
from .types import FilterState, Innovation, Odometry, PoseObservation

__all__ = [name for name in dir() if not name.startswith("_")]
