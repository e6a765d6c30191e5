"""Command-line front-end.

Verbs:
  gen-scenario  write a default UAV scenario config
  solve-ar      average-reward sweep; per-checkpoint CSVs plus manifest
  solve-fh      finite-horizon checkpoints by exact backward recursion
  validate      cross-oracle validation suite with a pass/fail table

Configs are JSON; all numeric CSV output carries full double precision so
identical configs reproduce byte-identical files under the same numpy, scipy
and BLAS thread setting, which each manifest records.  Every CSV goes through
one table writer (``_csv_rows``): floats are written as ``%.17g``, each
distinct bit pattern formatted once and gathered back, ints from a ``str``
lookup table, and policies a block of rule rows at a time.

In ``solve-ar`` and ``solve-fh``, workers write every file that needs a rule,
and the main process writes the value tables, ``eta.csv`` and the manifest.
The workers (``_fork_pool``) are ``fork``-started, at most one per CPU and one
per task, and inherit the frozen checkpoints, which hold only values.  A task
derives its rule once: a checkpoint's for its eigenvalue, policy and velocity
files, or a stage policy for each stage file equal to it.  Each task writes
the same bytes on any worker, so no file depends on the worker count.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import NotAperiodicError, NotUnichainError
from .ode_engine import (
    FiniteHorizonPath,
    OdeConfig,
    ZetaSolutionPath,
    checkpoint_weights,
    solve_average_reward,
    solve_finite_horizon,
)
from .oracles import aroe_fixed_point_oracle, fh_block_ode_oracle, perron_frobenius_baseline, rollout_oracle
from .state_space import FactoredKernel, ProductStateSpace, StochasticMatrix
from .uav_benchmark import (
    UavScenario,
    build_scenario_model,
    controlled_spectrum,
    generate_wind_field,
    velocity_field,
)


def _ztag(z: float) -> str:
    return format(float(z), "g")


def _check_tags(ode: OdeConfig) -> None:
    """Raise ``ValueError`` unless the checkpoints' file tags are distinct.

    A tag keeps 6 significant digits, so two checkpoints that agree in them
    would write the same files; this runs before any file is written.
    """
    seen: dict[str, float] = {}
    for z in checkpoint_weights(ode):
        tag = _ztag(z)
        if tag in seen:
            raise ValueError(f"checkpoints zeta={seen[tag]!r} and zeta={z!r} share the file tag {tag!r}")
        seen[tag] = z


# BLAS rounds differently with more threads, so CSV bytes repeat only at one setting
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

SOLVER_KEYS = frozenset({"zeta_max", "step", "checkpoints", "residual_tol"})


@dataclass
class LoadedModel:
    kernel: FactoredKernel
    utility: np.ndarray
    basepoint: int
    ode: OdeConfig
    scenario: UavScenario | None
    config: dict


def load_config(path: str | Path) -> LoadedModel:
    with open(path) as f:
        config = json.load(f)
    model_cfg = config["model"]
    solver = config.get("solver", {})
    unknown = sorted(set(solver) - SOLVER_KEYS)
    if unknown:
        raise ValueError(f"unknown solver key(s) {', '.join(map(repr, unknown))} in {path}")
    ode = OdeConfig(
        zeta_max=float(solver.get("zeta_max", 1.0)),
        step=float(solver.get("step", 0.01)),
        checkpoints=tuple(solver["checkpoints"]) if "checkpoints" in solver else None,
        residual_tol=float(solver.get("residual_tol", 1e-6)),
    )
    kind = model_cfg["kind"]
    if kind == "uav":
        d_a, d_o, d_N = int(model_cfg["d_a"]), int(model_cfg["d_o"]), int(model_cfg["d_N"])
        wind_cfg = model_cfg.get("wind", {"kind": "seeded", "seed": 0})
        if wind_cfg["kind"] != "seeded":
            raise ValueError(f"unknown wind kind {wind_cfg['kind']!r}")
        seed = int(wind_cfg.get("seed", 0))
        if seed < 0:
            raise ValueError(f"wind seed must be non-negative, got {seed}")
        wind = generate_wind_field(d_a, d_o, d_N, seed)
        target = model_cfg.get("target")
        target0 = None
        if target is not None:
            # config coordinates are 1-based, matching the grid description
            ti, tj = int(target[0]), int(target[1])
            if not (1 <= ti <= d_a and 1 <= tj <= d_o):
                raise ValueError(f"target ({ti}, {tj}) outside the {d_a} x {d_o} grid")
            target0 = (ti - 1, tj - 1)
        scenario = UavScenario(
            d_a=d_a,
            d_o=d_o,
            d_N=d_N,
            wind=wind,
            delta_n=float(model_cfg.get("delta_n", 0.05)),
            sigma_u2=float(model_cfg.get("sigma_u2", 0.5)),
            target=target0,
        )
        kernel, utility = build_scenario_model(scenario)
        return LoadedModel(kernel, utility, scenario.basepoint, ode, scenario, config)
    if kind == "explicit":
        R0 = np.asarray(model_cfg["R0"], dtype=float)
        Q0 = np.asarray(model_cfg["Q0"], dtype=float)
        utility = np.asarray(model_cfg["utility"], dtype=float)
        d_u, d_n = R0.shape[1], Q0.shape[1]
        space = ProductStateSpace(d_u, d_n)
        if R0.shape[0] != space.d or Q0.shape[0] != space.d:
            raise ValueError(
                f"R0/Q0 must have {space.d} = {d_u}*{d_n} rows, got {R0.shape[0]} and {Q0.shape[0]}"
            )
        kernel = FactoredKernel(space, StochasticMatrix(R0), StochasticMatrix(Q0))
        basepoint = int(model_cfg.get("basepoint", 0))
        return LoadedModel(kernel, utility, basepoint, ode, None, config)
    raise ValueError(f"unknown model kind {kind!r}")


def default_uav_config(seed: int = 0) -> dict:
    return {
        "model": {
            "kind": "uav",
            "d_a": 15,
            "d_o": 15,
            "d_N": 5,
            "delta_n": 0.05,
            "sigma_u2": 0.5,
            "target": [15, 15],
            "wind": {"kind": "seeded", "seed": seed},
        },
        "solver": {
            "zeta_max": 2.0,
            "step": 0.01,
            "checkpoints": [0.0, 1.0, 2.0],
            "residual_tol": 1e-6,
        },
    }


class _OutputTracker:
    """Records written files so a failed run leaves no partial output behind."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []

    def claim(self, name: str) -> Path:
        """Records ``name`` before it is written, here or by a worker process."""
        path = self.out_dir / name
        self.written.append(path)
        return path

    def write_text(self, name: str, text: str) -> None:
        self.claim(name).write_text(text)

    def cleanup(self) -> None:
        for path in self.written:
            path.unlink(missing_ok=True)


def _int_text(column: np.ndarray, end: str) -> np.ndarray:
    """``str(i) + end`` of each int, from a lookup table over ``min ... max``."""
    low, high = (int(column.min()), int(column.max())) if column.size else (0, -1)
    labels = np.array([f"{i}{end}" for i in range(low, high + 1)], dtype=object)
    return labels[column - low]


def _float_text(column: np.ndarray, end: str) -> np.ndarray:
    """``%.17g`` of each float plus ``end``, each distinct bit pattern formatted once.

    Deduplicated on the ``int64`` view, not on the values: ``-0.0 == 0.0``, but
    they are written as ``-0`` and ``0``.
    """
    bits, inverse = np.unique(
        np.ascontiguousarray(column, dtype=np.float64).view(np.int64), return_inverse=True
    )
    # one C-level %-format of all distinct values, split on a space, which %g never writes
    joined = f"%.17g{end} " * len(bits) % tuple(bits.view(np.float64).tolist())
    return np.array(joined.split(" ")[:-1], dtype=object)[inverse]


def _csv_rows(*columns: np.ndarray) -> str:
    """CSV lines of equal-length 1-D columns: int columns as ``str``, float columns as ``%.17g``.

    Each column's cells carry their separator, so a row is its cells joined.
    """
    cells = np.empty((len(columns[0]), len(columns)), dtype=object)
    for j, column in enumerate(columns):
        column = np.asarray(column)
        end = "\n" if j == len(columns) - 1 else ","
        cells[:, j] = _int_text(column, end) if column.dtype.kind in "iu" else _float_text(column, end)
    return "".join(cells.ravel().tolist())


def _write_table(out: _OutputTracker, name: str, header: str, *columns: np.ndarray) -> None:
    out.write_text(name, f"{header}\n{_csv_rows(*columns)}")


# Rule rows per block of a policy file.  A block's distinct-value strings are
# live at once, so peak RSS grows with the block: 128 rows add about 1 MB on
# the 15x15x5 solve-ar, and 32 rows cost about 7% more write time than 128.
POLICY_BLOCK_ROWS = 32


def _write_policy_csv(out: _OutputTracker, name: str, rule: np.ndarray) -> None:
    # sparse triplets; entries below 1e-12 dropped, rows renormalized; each
    # block's text is written as soon as it is formatted
    with open(out.claim(name), "w") as f:
        f.write("state_index,next_u_index,probability\n")
        for start in range(0, rule.shape[0], POLICY_BLOCK_ROWS):
            block = rule[start : start + POLICY_BLOCK_ROWS]
            trimmed = np.where(block >= 1e-12, block, 0.0)
            trimmed /= trimmed.sum(axis=1, keepdims=True)
            x, u = np.nonzero(trimmed)
            f.write(_csv_rows(x + start, u, trimmed[x, u]))


# The state a pool's workers share, set in each worker by the pool's
# initializer; the fork hands it over by inheritance, with no pickling, so a
# task carries only indices, file names and the few-KB scenario.
_inherited = None


def _inherit(state) -> None:
    global _inherited
    _inherited = state


@contextmanager
def _fork_pool(tasks: int, state):
    """A pool of ``fork``-started workers that inherit ``state``, and its worker count.

    At most one worker per CPU and one per task.  On leaving, tasks not yet
    sent to a worker are cancelled (there are some only after an error) and
    every worker is joined, so none outlives the block or writes a file after
    the caller's cleanup.
    """
    workers = min(tasks, len(os.sched_getaffinity(0)))
    # the fork start flushes sys.stdout and sys.stderr before each fork, so a
    # worker, which flushes its copy of each buffer when it exits, writes nothing twice
    context = multiprocessing.get_context("fork")
    # a pool forks its workers at the first task, so with no task it forks none
    pool = ProcessPoolExecutor(max(workers, 1), context, initializer=_inherit, initargs=(state,))
    try:
        yield pool, workers
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _checkpoint_tasks(loaded: LoadedModel, path: ZetaSolutionPath) -> list[tuple]:
    """``(checkpoint index, scenario, file names)`` per checkpoint: eigenvalues, policy and (UAV) velocities."""
    kinds = ["eigenvalues", "policy"] + ["velocity"] * (loaded.scenario is not None)
    return [
        (i, loaded.scenario, [f"{kind}_zeta_{_ztag(cp.zeta)}.csv" for kind in kinds])
        for i, cp in enumerate(path.checkpoints)
    ]


def _checkpoint_task(i: int, scenario: UavScenario | None, names: list[str]) -> float:
    """Write checkpoint ``i``'s files under ``names``; returns the seconds its rule and spectrum took.

    The rule is derived once, for the spectrum, the policy and the velocities.
    """
    checkpoints, out = _inherited
    cp = checkpoints[i]
    t0 = time.perf_counter()
    rule = cp.policy()
    eig = controlled_spectrum(cp.kernel, rule.entries)
    seconds = time.perf_counter() - t0
    _write_table(out, names[0], "real,imag", np.real(eig), np.imag(eig))
    _write_policy_csv(out, names[1], rule.entries)
    if scenario is not None:
        v = velocity_field(rule, scenario).reshape(-1, 2)
        l, n = np.divmod(np.arange(len(v)), scenario.d_N)
        row, col = np.divmod(l, scenario.d_o)
        _write_table(out, names[2], "i,j,n,v_lat,v_lon", row + 1, col + 1, n + 1, v[:, 0], v[:, 1])
    return seconds


def _policy_tasks(path: FiniteHorizonPath) -> list[tuple[int, int, list[str]]]:
    """``(checkpoint index, k, file names)`` per distinct stage policy of ``path``.

    Stages of one checkpoint with equal ``W[k]`` have the same policy, so they
    form one task that names all of their files: at ``zeta = 0``, ``W = 0``
    and all stages are one task.  Equal is bit-identical once adding ``+0.0``
    has made each ``-0.0`` a ``+0.0`` (``W[0] = 0 U`` holds ``-0.0`` where
    ``U < 0``); the tilt only adds, scales by ``Q0 >= 0``, subtracts a maximum
    and exponentiates, so a zero of either sign gives the same rule bits.
    """
    tasks = []
    for i, cp in enumerate(path.checkpoints):
        tag = _ztag(cp.zeta)
        stages: dict[bytes, list[int]] = {}
        for k in range(path.horizon):
            stages.setdefault((cp.W[k] + 0.0).tobytes(), []).append(k)
        tasks += [(i, ks[0], [f"fh_policy_zeta_{tag}_k_{k}.csv" for k in ks]) for ks in stages.values()]
    return tasks


def _policy_task(i: int, k: int, names: list[str]) -> float:
    """Write checkpoint ``i``'s stage-``k`` policy under each of ``names``; returns the seconds its tilt took.

    The policy is derived and formatted once; the other names are copies of the first file.
    """
    checkpoints, out = _inherited
    t0 = time.perf_counter()
    rule = checkpoints[i].policy(k).entries
    tilt_s = time.perf_counter() - t0
    _write_policy_csv(out, names[0], rule)
    for name in names[1:]:
        shutil.copyfile(out.out_dir / names[0], out.out_dir / name)
    return tilt_s


def _write_manifest(out: _OutputTracker, loaded: LoadedModel, timings: dict, snaps, trace: dict) -> None:
    manifest = {
        "config": loaded.config,
        "version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            **{name: os.environ.get(name) for name in THREAD_VARIABLES},  # None where unset
        },
        "timings_seconds": timings,
        "checkpoint_snaps": [{"requested": a, "snapped": b} for a, b in snaps],
        "warnings": [f"checkpoint zeta={a:g} is not a grid node; reported at zeta={b:g}" for a, b in snaps],
        "trace": trace,
    }
    out.write_text("manifest.json", json.dumps(manifest, indent=2) + "\n")


def _solve_verb(args, solve, task, tasks, write_tables, report) -> int:
    """The envelope of ``solve-ar`` and ``solve-fh``; returns the exit code.

    ``tasks(loaded, path)`` lists ``task``'s argument tuples, each ending with
    the names of the files the task writes; each name is claimed before its
    task is submitted, so a failed run removes it.  While the workers run,
    this process writes ``write_tables(out, loaded, path)``.  ``report(path,
    results, wait_s, workers)`` gives the manifest's worker timings and trace.
    On an error the pool joins its workers before the claimed files are removed.
    """
    out = _OutputTracker(Path(args.out))
    try:
        loaded = _apply_overrides(load_config(args.config), args)
        _check_tags(loaded.ode)
        out.out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        path = solve(loaded)
        timings = {"solve": time.perf_counter() - t0}
        t0 = time.perf_counter()
        work = tasks(loaded, path)
        with _fork_pool(len(work), (path.checkpoints, out)) as (pool, workers):
            futures = []
            for arguments in work:
                for name in arguments[-1]:
                    out.claim(name)  # before a worker can write it, so a failure removes it
                futures.append(pool.submit(task, *arguments))
            write_tables(out, loaded, path)
            t1 = time.perf_counter()
            results = [future.result() for future in futures]
            wait_s = time.perf_counter() - t1
        worker_timings, trace = report(path, results, wait_s, workers)
        timings.update(worker_timings, write=time.perf_counter() - t0)
        _write_manifest(out, loaded, timings, path.snapped, trace)
    except Exception as exc:
        out.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_ar_tables(out: _OutputTracker, loaded: LoadedModel, path: ZetaSolutionPath) -> None:
    x = np.arange(loaded.kernel.space.d)
    xu, xn = np.divmod(x, loaded.kernel.space.d_n)
    for cp in path.checkpoints:
        header = "state_index,x_u,x_n,h,cost_to_go"
        _write_table(out, f"values_zeta_{_ztag(cp.zeta)}.csv", header, x, xu, xn, cp.h, -cp.h)
    _write_table(out, "eta.csv", "zeta,eta,aroe_residual_sup", path.grid, path.eta_trace, path.residual_trace)


def _ar_report(path: ZetaSolutionPath, spectrum_s: list[float], wait_s: float, workers: int) -> tuple[dict, dict]:
    """``timings_seconds.spectrum``, the wait for the workers after this process's tables, and the trace."""
    trace = {
        "newton_steps_total": int(path.newton_steps.sum()),
        "factorizations": int(path.factorizations.sum()),
        # one entry per grid node, in the order of eta.csv's rows
        "per_node": {
            "newton_steps": path.newton_steps.tolist(),
            "factorizations": path.factorizations.tolist(),
            "predictor_residual": path.predictor_residual.tolist(),
            "predictor_nodes": path.predictor_nodes.tolist(),
        },
        "spectrum_workers": workers,
        # one entry per checkpoint, in the order of the solve's checkpoints
        "per_checkpoint": {"zeta": [cp.zeta for cp in path.checkpoints], "spectrum_s": spectrum_s},
    }
    return {"spectrum": wait_s}, trace


def _import_linear_algebra() -> None:
    """Load the scipy submodules that ``solve-ar`` and ``validate`` call, before ``load_config``.

    The import is then part of set-up, not of the solve, and the forked
    spectrum workers inherit it; ``solve-fh`` and ``gen-scenario`` never load them.
    """
    import scipy.linalg  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401


def cmd_solve_ar(args) -> int:
    _import_linear_algebra()
    return _solve_verb(
        args,
        lambda loaded: solve_average_reward(loaded.kernel, loaded.utility, loaded.ode, loaded.basepoint),
        _checkpoint_task,
        _checkpoint_tasks,
        _write_ar_tables,
        _ar_report,
    )


def _write_fh_tables(out: _OutputTracker, loaded: LoadedModel, path: FiniteHorizonPath) -> None:
    d = loaded.kernel.space.d
    stage, state = np.divmod(np.arange((path.horizon + 1) * d), d)
    for cp in path.checkpoints:
        _write_table(out, f"fh_values_zeta_{_ztag(cp.zeta)}.csv", "k,state_index,W", stage, state, cp.W.ravel())


def cmd_solve_fh(args) -> int:
    return _solve_verb(
        args,
        lambda loaded: solve_finite_horizon(loaded.kernel, loaded.utility, args.horizon, loaded.ode),
        _policy_task,
        lambda loaded, path: _policy_tasks(path),
        _write_fh_tables,
        lambda path, tilt_s, wait_s, workers: ({"tilt": sum(tilt_s)}, {"policy_workers": workers}),
    )


def _apply_overrides(loaded: LoadedModel, args) -> LoadedModel:
    changes = {}
    if args.zeta_max is not None:
        changes["zeta_max"] = args.zeta_max
    if args.step is not None:
        changes["step"] = args.step
    if args.checkpoints:
        changes["checkpoints"] = tuple(float(c) for c in args.checkpoints.split(","))
    loaded.ode = replace(loaded.ode, **changes)
    return loaded


def cmd_validate(args) -> int:
    _import_linear_algebra()
    try:  # a config or argument error is an error line, as in the other verbs; failed checks are rows
        loaded = _apply_overrides(load_config(args.config), args)
        if args.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if args.trials < 0 or args.trials == 1:  # one trial has no half-width to test against
            raise ValueError(f"trials must be 0 (no rollout) or >= 2, got {args.trials}")
        if args.horizon_cap < 1:
            raise ValueError(f"horizon cap must be >= 1, got {args.horizon_cap}")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows: list[tuple[str, float, float]] = []
    try:
        # the solver checks the chain's structure before its first step
        path = solve_average_reward(loaded.kernel, loaded.utility, loaded.ode, loaded.basepoint)

        def check_cp(cp):
            h, eta = aroe_fixed_point_oracle(
                loaded.kernel, loaded.utility, cp.zeta, loaded.basepoint
            )
            gap = max(float(np.max(np.abs(h - cp.h))), abs(eta - cp.eta))
            return (f"ar-ode vs fixed-point @ zeta={_ztag(cp.zeta)}", gap, 1e-6)

        with ThreadPoolExecutor(max_workers=max(args.threads, 1)) as pool:
            rows.extend(pool.map(check_cp, path.checkpoints))

        zf = loaded.ode.zeta_max
        if zf > 0:
            T, step = args.horizon, min(loaded.ode.step, 0.005)
            fh = solve_finite_horizon(
                loaded.kernel, loaded.utility, T, OdeConfig(zeta_max=zf, step=step, checkpoints=(zf,))
            )
            oracle = fh_block_ode_oracle(loaded.kernel, loaded.utility, T, fh.checkpoints[-1].zeta, step)
            gap = float(np.max(np.abs(fh.checkpoints[-1].W - oracle)))
            rows.append((f"fh dp vs block ode @ zeta={_ztag(zf)}", gap, 1e-5))

        pf_rows = loaded.kernel.space.d_n == 1 and zf > 0
        rollout_rows = loaded.scenario is not None and zf > 0 and args.trials > 0
        if pf_rows or rollout_rows:
            cp = path.checkpoints[-1]
            rule = cp.policy()  # one rule for the Perron-Frobenius and rollout rows

        if pf_rows:
            # d_n = 1: P(x, x') = R(x, x') Q0(x, 0), a (d, d) by (d, 1) broadcast
            Q0 = loaded.kernel.Q0.entries
            P0 = StochasticMatrix(loaded.kernel.R.entries * Q0)
            lam, _, twisted = perron_frobenius_baseline(P0, loaded.utility, cp.zeta, loaded.basepoint)
            gap = float(np.max(np.abs(twisted.entries - rule.entries * Q0)))
            rows.append((f"pf twisted matrix vs ode @ zeta={_ztag(cp.zeta)}", gap, 1e-6))
            rows.append((f"eta vs log pf eigenvalue @ zeta={_ztag(cp.zeta)}", abs(cp.eta - np.log(lam)), 1e-6))

        if rollout_rows:
            sc = loaded.scenario
            start = 0 * sc.d_N  # corner location (1,1), first wind state
            result = rollout_oracle(
                loaded.kernel, rule, sc, cp.zeta, start,
                trials=args.trials, horizon_cap=args.horizon_cap, seed=args.seed,
            )
            gap, tol = abs(result.mean - (-cp.h[start])), 3.0 * result.half_width_95 + 1e-9
            rows.append((f"rollout vs cost-to-go @ zeta={_ztag(cp.zeta)}", gap, tol))
            if result.censored_fraction > 0.01:
                print(f"warning: {result.censored_fraction:.1%} of rollouts censored (estimate biased low)")
    except (NotUnichainError, NotAperiodicError) as exc:
        print(f"FAIL structure: {exc}")
        return 1
    except Exception as exc:
        print(f"FAIL while running validation suite: {exc}")
        return 1

    ok = True
    for name, value, tol in rows:
        status = "PASS" if value <= tol else "FAIL"
        ok = ok and status == "PASS"
        print(f"{status}  {name:<45s} residual={value:.3e} tol={tol:.3e}")
    return 0 if ok else 1


def cmd_gen_scenario(args) -> int:
    if args.seed < 0:  # every other verb would reject the config
        print(f"error: wind seed must be non-negative, got {args.seed}", file=sys.stderr)
        return 1
    config = default_uav_config(seed=args.seed)
    try:
        Path(args.out).write_text(json.dumps(config, indent=2) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="klmdp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to JSON scenario config")
        p.add_argument("--zeta-max", dest="zeta_max", type=float, default=None)
        p.add_argument("--step", type=float, default=None)
        p.add_argument("--checkpoints", type=str, default=None, help="comma-separated zeta values")

    p = sub.add_parser("solve-ar", help="average-reward sweep over the weight grid")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_solve_ar)

    p = sub.add_parser("solve-fh", help="finite-horizon values and policies by backward recursion")
    add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(func=cmd_solve_fh)

    p = sub.add_parser("validate", help="cross-oracle validation suite")
    add_common(p)
    p.add_argument("--horizon", type=int, default=4)
    p.add_argument("--horizon-cap", dest="horizon_cap", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen-scenario", help="write a default UAV scenario config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
