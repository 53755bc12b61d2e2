"""Real-time inverse kinematics for floating-base articulated chains.

Tracks frame pose/velocity targets by closed-loop differential kinematics on
rotation matrices, with joint limits enforced through velocity-space QP
constraints. Ships per-sample iterative baselines and a benchmark harness for
accuracy/timing comparisons.
"""
from .baselines import (IkResult, InstantaneousConfig, Subsystem, SubsystemReport,
                        decompose_pairwise, solve_pairwise, solve_whole_body)
from .errors import (DecompositionError, DegenerateMatrix, IkTrackError, InvalidSetting,
                     NonFiniteSolution, NotARotation, ParseError, QPInfeasible,
                     RankDeficient, SchemaMismatch, SingularMatrix, SpecInfeasible,
                     StaleSample, UnknownFrame, ValidationError)
from .harness import (MetricsSummary, RunRecord, SeriesStats, TrajectorySpec,
                      generate_stream, load_stream, results_csv, run_benchmark, run_method,
                      save_stream, summarize_run)
from .model import (Configuration, ExtraConstraints, Joint, KinematicModel, Link,
                    StackedPose, Velocity, generate_human_chain, load_model)
from .qp import ActiveSetSolver, LeastSquaresQP, QPSolution, QPStatus
from .so3 import (BaumgarteConfig, Rotation, baumgarte_step, orientation_residual,
                  project_to_so3)
from .tracker import (GainConfig, SolverState, StepReport, TargetSample, TargetStream,
                      TrackResult,
                      build_limit_constraints, corrected_velocity, initial_configuration,
                      step, track)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # so3
    "Rotation", "BaumgarteConfig", "orientation_residual",
    "baumgarte_step", "project_to_so3",
    # model
    "Link", "Joint", "KinematicModel", "Configuration", "Velocity", "StackedPose",
    "ExtraConstraints", "load_model", "generate_human_chain",
    # qp
    "LeastSquaresQP", "QPSolution", "QPStatus", "ActiveSetSolver",
    # tracker
    "TargetSample", "TargetStream", "GainConfig", "SolverState", "StepReport", "TrackResult",
    "corrected_velocity", "build_limit_constraints",
    "step", "track", "initial_configuration",
    # baselines
    "InstantaneousConfig", "IkResult", "Subsystem", "SubsystemReport",
    "solve_whole_body", "decompose_pairwise", "solve_pairwise",
    # harness
    "TrajectorySpec", "MetricsSummary", "SeriesStats", "RunRecord", "generate_stream",
    "save_stream", "load_stream", "run_method", "run_benchmark", "results_csv",
    "summarize_run",
    # errors
    "IkTrackError", "NotARotation", "SingularMatrix",
    "DegenerateMatrix", "UnknownFrame", "ParseError", "ValidationError",
    "RankDeficient", "QPInfeasible", "NonFiniteSolution", "StaleSample", "SchemaMismatch",
    "SpecInfeasible", "DecompositionError", "InvalidSetting",
]
