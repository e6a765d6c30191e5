"""End-to-end and per-layer benchmark of the klmdp CLI verbs.

Usage, from the root of the repository::

    python3 bench/run.py --workload ar-uav8 --seed 0 --seconds 12 --trace 0

Each timed round runs one CLI verb (``klmdp.cli.main``) in a fresh process
with BLAS pinned to one thread; rounds repeat until ``--seconds`` have passed.
Every round's output is checked by ``checks.py``; a round whose output fails a
check counts as failed.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` one untraced round and then traced rounds, reporting the
per-layer metrics.  The last line of standard output is the result as JSON;
the full run report, with the environment record, is written to
``.bench_out/<workload>/report-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every process started from here.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, verb_argv, write_config  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 4  # extra set-up-only starts per untraced run, for the setup_s median
MIN_TRACED_ROUNDS = 2  # counts must repeat exactly between traced rounds

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "chain_solvers.poisson_solve.calls": "count",
    "chain_solvers.poisson_solve.s": "s",
    "chain_solvers.invariant_pmf.calls": "count",
    "chain_solvers.invariant_pmf.s": "s",
    "chain_solvers.recurrent_class.calls": "count",
    "chain_solvers.recurrent_class.s": "s",
    "linalg.factorizations": "count",
    "linalg.solve.s": "s",
    "linalg.factor_flops": "flop",
    "linalg.matrix_bytes": "B",
    "kl_calculus.tilt.calls": "count",
    "kl_calculus.tilt.s": "s",
    "kl_calculus.conditional_expectation.calls": "count",
    "kl_calculus.conditional_expectation.s": "s",
    "state_space.induced_transition.calls": "count",
    "state_space.induced_transition.s": "s",
    "state_space.validation.calls": "count",
    "state_space.validation.s": "s",
    "ode_engine.solve_average_reward.s": "s",
    "ode_engine.solve_finite_horizon.s": "s",
    "ode_engine.aroe_fixed_point_oracle.calls": "count",
    "ode_engine.aroe_fixed_point_oracle.s": "s",
    "ode_engine.fh_backward_oracle.calls": "count",
    "ode_engine.fh_backward_oracle.s": "s",
    "uav_benchmark.build_scenario_model.s": "s",
    "uav_benchmark.controlled_spectrum.calls": "count",
    "uav_benchmark.controlled_spectrum.s": "s",
    "uav_benchmark.velocity_field.s": "s",
    "uav_benchmark.rollout_oracle.s": "s",
    "cli.load_config.s": "s",
    "cli.verb.s": "s",
    "cli.write.s": "s",
    "cli.write.bytes": "B",
    "cli.write.files": "count",
    "trace.solver_layers_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_est_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.spans": "count",
    "trace.absent_entry_points": "count",
}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:  # not Linux
        return platform.processor() or None


def environment() -> dict:
    """Versions, BLAS build, thread settings, CPUs and the code measured."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for p in sources:
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def run_child(mode: str, argv: list[str], tag: str, run_dir: Path, deadline: float) -> dict | None:
    """Run one verb in a fresh process; the round record, or None if it crashed."""
    report = run_dir / f"{tag}.json"
    spec = {"src": str(SRC), "argv": argv, "mode": mode, "report": str(report), "spans": str(run_dir / f"{tag}.spans.jsonl")}
    with open(run_dir / f"{tag}.stdout", "w") as stdout:
        spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), json.dumps(spec)], stdout=stdout, cwd=ROOT)
        try:
            proc.wait(timeout=max(deadline - spawn, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - spawn
    if proc.returncode != 0 or not report.exists():
        return None
    r = json.loads(report.read_text())
    if Path(r["package"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"measured {r['package']}, not the package under {SRC}")
    r["wall_s"] = wall
    r["setup_s"] = r["first_solver_call"] - spawn if r["first_solver_call"] is not None else None
    return r


class Verifier:
    """Checks each distinct output once; every round must match the first byte for byte."""

    def __init__(self, workload, config_path: Path, key: str):
        self.workload = workload
        self.model = checks.load_model(config_path) if workload.verb != "validate" else None
        self.verdicts: dict[str, list[str]] = {}
        self.first: str | None = None
        # digest of an earlier run of the same code and inputs in this checkout
        self.stored = OUT / "digests" / f"{workload.name}-{key}.json"

    def digest(self, out_dir: Path, stdout: str) -> str:
        files = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
        if out_dir.exists():
            files.update(checks.csv_digests(out_dir))
        return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()

    def verify(self, rc: int, out_dir: Path, stdout: str) -> list[str]:
        if rc != 0 and self.workload.verb != "validate":
            return [f"{self.workload.verb} exited {rc}"]
        digest = self.digest(out_dir, stdout)
        if digest not in self.verdicts:
            self.verdicts[digest] = self._check(rc, out_dir, stdout)
        problems = list(self.verdicts[digest])
        if self.first is None:
            self.first = digest
            if self.stored.exists():
                earlier = json.loads(self.stored.read_text())["digest"]
                if earlier != digest:
                    problems.append("outputs differ from an earlier run of the same code and inputs")
            elif not problems:
                self.stored.parent.mkdir(parents=True, exist_ok=True)
                self.stored.write_text(json.dumps({"digest": digest}) + "\n")
        elif digest != self.first:
            problems.append("outputs differ from the first round of this run")
        return problems

    def _check(self, rc: int, out_dir: Path, stdout: str) -> list[str]:
        w = self.workload
        try:
            if w.verb == "solve-ar":
                return checks.check_ar(out_dir, self.model, w.checkpoints)
            if w.verb == "solve-fh":
                return checks.check_fh(out_dir, self.model, w.checkpoints, w.horizon)
            return checks.check_validate(stdout, rc, w.validate_rows)
        except (OSError, ValueError, IndexError) as exc:  # missing or malformed output
            return [f"unreadable output: {exc}"]

    def self_test(self, out_dir: Path, stdout: str, seed: int, scratch: Path) -> bool:
        rng = np.random.default_rng(seed)
        return checks.self_test(out_dir, self.model, self.workload, rng, scratch, stdout)


def median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(rounds: list[dict]) -> dict[str, float]:
    """Per-layer metrics of traced rounds: counts from the first, times as medians."""

    def one(r: dict, name: str) -> float:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "s") and layer in r["layers"]:
            return r["layers"][layer][field]
        return r["counts"].get(name, 0.0)

    out = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        values = [one(r, name) for r in rounds]
        out[name] = median(values) if PER_LAYER[name] == "s" else values[0]
    out["trace.solver_layers_s"] = median(r["solver_layers_s"] for r in rounds)
    out["trace.spans"] = rounds[0]["spans"]
    out["trace.absent_entry_points"] = len(rounds[0]["absent"])
    return out


def count_signature(r: dict) -> dict:
    """Counts that must repeat exactly; ``cli.write.bytes`` varies with the manifest's timings."""
    calls = {layer: v["calls"] for layer, v in r["layers"].items()}
    counts = {k: v for k, v in r["counts"].items() if k != "cli.write.bytes"}
    return {"calls": calls, "counts": counts, "spans": r["spans"]}


def next_mode(rounds: list[dict], time_up: bool, trace: int) -> str | None:
    """The next round's mode, or None when the run is complete.

    Untraced: rounds until the time is up.  Traced: one untraced round, traced
    rounds until the time is up, then a second untraced round, so that the
    overhead is measured against untraced rounds on both sides.
    """
    if not trace:
        return None if time_up else "time"
    traced = sum(1 for r in rounds if r["mode"] == "trace")
    if traced < MIN_TRACED_ROUNDS or not time_up:
        return "trace"
    return "time" if rounds[-1]["mode"] == "trace" else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (SRC / "klmdp" / "cli.py").is_file():
        print(f"error: no klmdp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # checks.load_model reads the seeded wind table from the program
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + BUDGET_S

    run_dir = OUT / workload.name / "run"  # outputs of the latest run only
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = write_config(workload, SRC, run_dir / "input")
    env = environment()
    key = hashlib.sha256(
        (env["src_sha256"] + config_path.read_text() + json.dumps(workload.args)).encode()
    ).hexdigest()[:16]
    verifier = Verifier(workload, config_path, key)

    setup_samples: list[float] = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            r = run_child("setup", verb_argv(workload, config_path, run_dir / f"probe{i}"), f"probe{i}", run_dir, deadline)
            if r is not None and r["setup_s"] is not None:
                setup_samples.append(r["setup_s"])

    rounds: list[dict] = []
    measure_start = time.monotonic()
    mode = "time"
    while mode is not None:
        i = len(rounds)
        out_dir = run_dir / f"round{i}"
        r = run_child(mode, verb_argv(workload, config_path, out_dir), f"round{i}", run_dir, deadline)
        stdout = (run_dir / f"round{i}.stdout").read_text()
        record = {"round": i, "mode": mode}
        if r is None:
            record["problems"] = ["the verb's process failed"]
        else:
            record.update(r)
            record["problems"] = verifier.verify(r["rc"], out_dir, stdout)
            if i > 0:
                shutil.rmtree(out_dir, ignore_errors=True)  # byte-identical to round 0, which is kept
        rounds.append(record)
        mode = next_mode(rounds, time.monotonic() - measure_start >= args.seconds, args.trace)
        if time.monotonic() + record.get("wall_s", 0.0) > deadline - 10.0:
            break

    failed = sum(1 for r in rounds if r["problems"])
    good = [r for r in rounds if not r["problems"]]
    for r in rounds:
        for p in r["problems"]:
            print(f"round {r['round']} FAILED: {p}", file=sys.stderr)

    correct = True
    if not rounds[0]["problems"]:
        stdout0 = (run_dir / "round0.stdout").read_text()
        if not verifier.self_test(run_dir / "round0", stdout0, args.seed, run_dir / "selftest"):
            print("self-test: a corrupted copy of the output passed the checks", file=sys.stderr)
            correct = False

    untimed = [r for r in good if r["mode"] == "time"]
    traced = [r for r in good if r["mode"] == "trace"]
    if args.trace:
        if not untimed or not traced:
            print("error: no untraced and traced round both passed", file=sys.stderr)
            return 1
        signatures = [count_signature(r) for r in traced]
        if any(s != signatures[0] for s in signatures[1:]):
            print("trace: counts differ between traced rounds", file=sys.stderr)
            correct = False
        if traced[0]["absent"]:
            print("trace: absent entry points (0 calls): " + ", ".join(traced[0]["absent"]), file=sys.stderr)
        metrics = layer_metrics(traced)
        metrics["trace.untraced_solve_s"] = median(r["solve_s"] for r in untimed)
        metrics["trace.overhead_s"] = median(r["solve_s"] for r in traced) - metrics["trace.untraced_solve_s"]
        metrics["trace.overhead_est_s"] = median(r["overhead_est_s"] for r in traced)
        units = PER_LAYER
    else:
        if not untimed:
            print("error: no round passed", file=sys.stderr)
            return 1
        metrics = {
            "wall_s": median(r["wall_s"] for r in untimed),
            "setup_s": median(setup_samples + [r["setup_s"] for r in untimed if r["setup_s"] is not None]),
            "solve_s": median(r["solve_s"] for r in untimed),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untimed),
        }
        units = END_TO_END

    result = {
        "correct": correct,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_samples_s": setup_samples,
        "rounds": rounds,
        "result": result,
    }
    report_path = OUT / workload.name / f"report-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"workload {workload.name}: {len(rounds)} rounds, {failed} failed; report in {report_path.relative_to(ROOT)}")
    for name, m in result["metrics"].items():
        print(f"  {name:<45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
