"""Solver for families of KL-cost MDPs, parameterized by the utility weight.

The package computes optimal randomized policies for action-constrained MDPs
whose one-step reward is a weighted utility minus a Kullback-Leibler control
cost, tracing the whole family of solutions in the weight by numerical
continuation.  Classical fixed-point oracles and a UAV-in-wind benchmark are
included for validation.
"""

__version__ = "0.1.0"

from .chain_solvers import (
    PerronFrobeniusPair,
    perron_frobenius_baseline,
    recurrent_class,
)
from .errors import (
    AbsoluteContinuityError,
    ConvergenceError,
    NotAperiodicError,
    NotUnichainError,
    ResidualToleranceError,
)
from .kl_calculus import kl_step_cost
from .ode_engine import (
    FiniteHorizonPath,
    OdeConfig,
    PathCheckpoint,
    ZetaSolutionPath,
    aroe_fixed_point_oracle,
    fh_block_ode_oracle,
    solve_average_reward,
    solve_finite_horizon,
)
from .state_space import (
    FactoredKernel,
    ProductStateSpace,
    StochasticMatrix,
    ValueFunction,
    induced_transition,
)
from .uav_benchmark import (
    RolloutResult,
    UavScenario,
    WindField,
    build_nominal_rule,
    build_scenario_model,
    build_wind_chain,
    controlled_spectrum,
    cost_to_go,
    generate_wind_field,
    rollout_oracle,
    velocity_field,
)
