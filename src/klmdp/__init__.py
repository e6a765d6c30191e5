"""Solver for families of KL-cost MDPs, parameterized by the utility weight.

The package computes optimal randomized policies for action-constrained MDPs
whose one-step reward is a weighted utility minus a Kullback-Leibler control
cost, tracing the whole family of solutions in the weight by numerical
continuation.  Classical oracles (``klmdp.oracles``) and a UAV-in-wind
benchmark are included for validation.
"""

__version__ = "0.1.0"

from .chain_solvers import recurrent_class
from .errors import (
    AbsoluteContinuityError,
    ConvergenceError,
    NotAperiodicError,
    NotUnichainError,
    ResidualToleranceError,
)
from .ode_engine import (
    FiniteHorizonPath,
    OdeConfig,
    PathCheckpoint,
    ZetaSolutionPath,
    solve_average_reward,
    solve_finite_horizon,
)
from .oracles import (
    RolloutResult,
    aroe_fixed_point_oracle,
    fh_block_ode_oracle,
    kl_step_cost,
    perron_frobenius_baseline,
    rollout_oracle,
)
from .state_space import FactoredKernel, ProductStateSpace, StochasticMatrix
from .uav_benchmark import (
    UavScenario,
    WindField,
    build_nominal_rule,
    build_scenario_model,
    build_wind_chain,
    controlled_spectrum,
    generate_wind_field,
    velocity_field,
)
