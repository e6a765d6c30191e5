"""Spans and counts around the calls into each klmdp layer.

The wrappers are installed from the benchmark's own files: every module global
of a loaded ``klmdp`` module that is bound to a listed function is rebound to
a wrapper, so each caller's own lookup (``klmdp.cli.solve_average_reward``,
``klmdp.ode_engine.poisson_solve``, ``klmdp.chain_solvers.invariant_pmf``, ...)
goes through it.  Methods are wrapped on their class and ``numpy.linalg.solve``
on its module.  Spans are kept in memory and written out at the end.

An entry point that a later change removed or renamed is reported as absent;
its layer then reads 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from math import prod

# (layer, module, qualified name). Several entry points may feed one layer.
ENTRY_POINTS = (
    ("cli.verb", "klmdp.cli", "cmd_solve_ar"),
    ("cli.verb", "klmdp.cli", "cmd_solve_fh"),
    ("cli.verb", "klmdp.cli", "cmd_validate"),
    ("cli.load_config", "klmdp.cli", "load_config"),
    ("cli.write", "klmdp.cli", "_OutputTracker.write_text"),
    ("cli.write", "klmdp.cli", "_write_policy_csv"),
    ("cli.write", "klmdp.cli", "_write_ar_outputs"),
    ("cli.write", "klmdp.cli", "_write_manifest"),
    ("ode_engine.solve_average_reward", "klmdp.ode_engine", "solve_average_reward"),
    ("ode_engine.solve_finite_horizon", "klmdp.ode_engine", "solve_finite_horizon"),
    ("ode_engine.aroe_fixed_point_oracle", "klmdp.ode_engine", "aroe_fixed_point_oracle"),
    ("ode_engine.fh_backward_oracle", "klmdp.ode_engine", "fh_backward_oracle"),
    ("chain_solvers.poisson_solve", "klmdp.chain_solvers", "poisson_solve"),
    ("chain_solvers.invariant_pmf", "klmdp.chain_solvers", "invariant_pmf"),
    ("chain_solvers.recurrent_class", "klmdp.chain_solvers", "recurrent_class"),
    ("kl_calculus.tilt", "klmdp.kl_calculus", "_tilt_values"),
    ("kl_calculus.conditional_expectation", "klmdp.kl_calculus", "conditional_expectation_values"),
    ("state_space.induced_transition", "klmdp.state_space", "induced_transition"),
    ("state_space.induced_transition", "klmdp.state_space", "induced_transition_values"),
    ("state_space.validation", "klmdp.state_space", "StochasticMatrix.__post_init__"),
    ("state_space.validation", "klmdp.state_space", "ValueFunction.__post_init__"),
    ("uav_benchmark.build_scenario_model", "klmdp.uav_benchmark", "build_scenario_model"),
    ("uav_benchmark.controlled_spectrum", "klmdp.uav_benchmark", "controlled_spectrum"),
    ("uav_benchmark.velocity_field", "klmdp.uav_benchmark", "velocity_field"),
    ("uav_benchmark.rollout_oracle", "klmdp.uav_benchmark", "rollout_oracle"),
    ("linalg.solve", "numpy.linalg", "solve"),
    ("linalg.solve", "scipy.linalg", "solve"),
    ("linalg.solve", "scipy.linalg", "lu_factor"),
    ("linalg.solve", "scipy.linalg", "lu_solve"),
)

# Entry points that factor a dense matrix once per call (per matrix of a batch).
FACTORING = {("numpy.linalg", "solve"), ("scipy.linalg", "solve"), ("scipy.linalg", "lu_factor")}

SOLVERS = ("solve_average_reward", "solve_finite_horizon")

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))


class SetupDone(BaseException):
    """Raised at the first solver call when only set-up is being timed.

    A ``BaseException`` so that it passes the verbs' ``except Exception``
    handlers, which would turn it into an error exit.
    """


class Tracer:
    """In-memory span recorder: ``[layer, start, end, parent index, child seconds]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []

    def wrap(self, layer: str, fn, on_call=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            parent = stack[-1] if stack else -1
            record = [layer, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = record[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - record[1]

        return traced

    def _count_write(self, args) -> None:
        self.counts["cli.write.files"] += 1
        self.counts["cli.write.bytes"] += len(args[2])  # CSV and JSON text is ASCII

    def _count_factorization(self, args) -> None:
        a = args[0]
        n = a.shape[-1]
        batch = prod(a.shape[:-2])
        self.counts["linalg.factorizations"] += batch
        self.counts["linalg.factor_flops"] += batch * 2.0 / 3.0 * n**3
        self.counts["linalg.matrix_bytes"] += batch * 8.0 * n * n

    def install(self) -> None:
        """Wrap every listed entry point that exists in the loaded program."""
        for layer, module_name, qualname in ENTRY_POINTS:
            module = sys.modules.get(module_name)
            if module is None and module_name.startswith("klmdp"):
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
            owner, attr = module, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name, None) if module is not None else None
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if module_name.startswith("klmdp"):  # scipy.linalg unused by the program is not absent
                    self.absent.append(f"{module_name}.{qualname}")
                continue
            on_call = None
            if (module_name, qualname) in FACTORING:
                on_call = self._count_factorization
            elif qualname == "_OutputTracker.write_text":
                on_call = self._count_write
            rebind(owner, attr, original, self.wrap(layer, original, on_call))

    def layer_totals(self) -> dict[str, dict[str, float]]:
        totals = {layer: {"calls": 0, "s": 0.0} for layer in LAYERS}
        for layer, start, end, _, child in self.spans:
            totals[layer]["calls"] += 1
            totals[layer]["s"] += end - start - child
        return totals

    def solver_layers_s(self) -> float:
        """Self times of every span inside a solver span: the layers' share of ``solve_s``."""
        inside = [False] * len(self.spans)
        total = 0.0
        for i, (layer, start, end, parent, child) in enumerate(self.spans):
            inside[i] = layer.endswith(SOLVERS) or (parent >= 0 and inside[parent])
            if inside[i]:
                total += end - start - child
        return total

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for i, (layer, start, end, parent, _) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": layer, "start": start, "end": end, "parent": parent}) + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one span: a wrapped no-op call minus a plain one."""
    clock = time.perf_counter

    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    start = clock()
    for _ in range(calls):
        wrapped()
    traced = clock() - start
    start = clock()
    for _ in range(calls):
        noop()
    return max(traced - (clock() - start), 0.0) / calls


def rebind(owner, attr: str, original, replacement) -> None:
    """Point ``owner.attr`` and every klmdp module global bound to ``original`` at ``replacement``."""
    setattr(owner, attr, replacement)
    for name, module in list(sys.modules.items()):
        if name == "klmdp" or name.startswith("klmdp."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


class SolverClock:
    """Untraced timing of the solver calls the CLI makes, and of the first one's start."""

    def __init__(self, stop_at_first: bool):
        self.stop_at_first = stop_at_first
        self.first_call: float | None = None  # time.monotonic(), comparable across processes
        self.solve_s = 0.0

    def install(self, cli_module) -> None:
        for name in SOLVERS:
            original = getattr(cli_module, name, None)
            if original is not None:
                setattr(cli_module, name, self._wrap(original))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self.first_call is None:
                self.first_call = time.monotonic()
                if self.stop_at_first:
                    raise SetupDone
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.solve_s += time.perf_counter() - start

        return timed
