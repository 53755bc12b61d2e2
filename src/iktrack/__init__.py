"""Real-time inverse kinematics for floating-base articulated chains.

Tracks frame pose/velocity targets by closed-loop differential kinematics on
rotation matrices, with joint limits enforced through velocity-space QP
constraints. Ships per-sample iterative baselines and a benchmark harness for
accuracy/timing comparisons.
"""
from .baselines import (IkResult, InstantaneousConfig, Subsystem, SubsystemReport,
                        decompose_pairwise, solve_pairwise, solve_whole_body)
from .errors import (DecompositionError, DegenerateMatrix, IkTrackError, InvalidSetting,
                     NonFiniteSolution, NotARotation, NotSkewSymmetric, ParseError,
                     QPInfeasible, RankDeficient, SchemaMismatch, SingularMatrix,
                     SpecInfeasible, StaleSample, UnknownFrame, ValidationError)
from .harness import (MetricsSummary, RunRecord, SeriesStats, TrajectorySpec,
                      generate_stream, load_stream, mnte, results_csv, rmse_angvel,
                      run_benchmark, run_method, save_stream, summarize_run)
from .model import (Configuration, ExtraConstraints, Joint, KinematicModel, Link,
                    StackedPose, Velocity, generate_human_chain, load_model,
                    serialize_model)
from .qp import ActiveSetSolver, LeastSquaresQP, QPSolution, QPStatus, solve_unconstrained
from .so3 import (BaumgarteConfig, Rotation, baumgarte_integrate, baumgarte_step,
                  orientation_residual, orthonormality_error, project_to_so3,
                  relative_angle, skew, skew_part, vee)
from .tracker import (GainConfig, SolverState, StepReport, TargetSample, TargetStream,
                      TrackResult,
                      build_limit_constraints, corrected_velocity, initial_configuration,
                      pose_residual, step, track)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # so3
    "Rotation", "BaumgarteConfig", "skew", "vee", "skew_part", "orientation_residual",
    "baumgarte_step", "baumgarte_integrate", "project_to_so3", "relative_angle",
    "orthonormality_error",
    # model
    "Link", "Joint", "KinematicModel", "Configuration", "Velocity", "StackedPose",
    "ExtraConstraints", "load_model", "serialize_model", "generate_human_chain",
    # qp
    "LeastSquaresQP", "QPSolution", "QPStatus", "ActiveSetSolver", "solve_unconstrained",
    # tracker
    "TargetSample", "TargetStream", "GainConfig", "SolverState", "StepReport", "TrackResult",
    "pose_residual", "corrected_velocity", "build_limit_constraints",
    "step", "track", "initial_configuration",
    # baselines
    "InstantaneousConfig", "IkResult", "Subsystem", "SubsystemReport",
    "solve_whole_body", "decompose_pairwise", "solve_pairwise",
    # harness
    "TrajectorySpec", "MetricsSummary", "SeriesStats", "RunRecord", "mnte",
    "rmse_angvel", "generate_stream", "save_stream", "load_stream", "run_method",
    "run_benchmark", "results_csv", "summarize_run",
    # errors
    "IkTrackError", "NotARotation", "NotSkewSymmetric", "SingularMatrix",
    "DegenerateMatrix", "UnknownFrame", "ParseError", "ValidationError",
    "RankDeficient", "QPInfeasible", "NonFiniteSolution", "StaleSample", "SchemaMismatch",
    "SpecInfeasible", "DecompositionError", "InvalidSetting",
]
