"""Benchmark workloads and the generation of their inputs.

Every workload runs one klmdp CLI verb on the UAV-in-wind scenario with wind
seed 0, built by ``klmdp gen-scenario`` and, for the 8x8x3 grid, resized in
the written config.  The scenario does not depend on the benchmark's
``--seed``: wind seed 0 and the CLI defaults for the rollout seed and trials
keep every figure comparable with the reference figures in README.md.  The
benchmark seed picks where the self-test corrupts a copied output.

Regenerate the inputs of one workload with::

    python3 bench/workloads.py --workload ar-uav8 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

WIND_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    grid: tuple[int, int, int]  # d_a, d_o, d_N
    args: tuple[str, ...]  # verb arguments besides --config and --out
    checkpoints: tuple[float, ...]  # zeta values whose files the verb writes
    horizon: int = 0
    validate_rows: int = 0  # PASS rows `validate` prints


# Checkpoints of the 15x15x5 stiff start: it must begin at zeta = 0, where the
# integrator substeps most; 0 -> 0.0002 takes about 7 s of solve.
STIFF_ZETA_MAX = 0.0002

WORKLOADS = {
    w.name: w
    for w in (
        Workload("ar-uav8", "solve-ar", (8, 8, 3), (), (0.0, 1.0, 2.0)),
        Workload(
            "ar-uav15-stiff",
            "solve-ar",
            (15, 15, 5),
            (
                "--zeta-max", repr(STIFF_ZETA_MAX),
                "--step", repr(STIFF_ZETA_MAX / 2),
                "--checkpoints", f"0,{STIFF_ZETA_MAX / 2!r},{STIFF_ZETA_MAX!r}",
            ),
            (0.0, STIFF_ZETA_MAX / 2, STIFF_ZETA_MAX),
        ),
        Workload("fh-uav15", "solve-fh", (15, 15, 5), ("--horizon", "6"), (0.0, 1.0, 2.0), horizon=6),
        # 3 AR checkpoints against RVI, 1 FH row against backward DP, 1 rollout row
        Workload("validate-uav8", "validate", (8, 8, 3), ("--threads", "1"), (), validate_rows=5),
    )
}


def write_config(workload: Workload, src: Path, dest: Path) -> Path:
    """Write the workload's scenario config with ``klmdp gen-scenario`` into ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    config_path = dest / "scenario.json"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-m", "klmdp.cli", "gen-scenario", "--out", str(config_path), "--seed", str(WIND_SEED)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=60,
    )
    config = json.loads(config_path.read_text())
    d_a, d_o, d_N = workload.grid
    model = config["model"]
    if (model["d_a"], model["d_o"], model["d_N"]) != workload.grid:
        model.update(d_a=d_a, d_o=d_o, d_N=d_N, target=[d_a, d_o])
        config_path.write_text(json.dumps(config, indent=2) + "\n")
    return config_path


def verb_argv(workload: Workload, config_path: Path, out_dir: Path) -> list[str]:
    """Arguments for ``klmdp.cli.main`` that run the workload once."""
    argv = [workload.verb, "--config", str(config_path)]
    if workload.verb != "validate":
        argv += ["--out", str(out_dir)]
    return argv + list(workload.args)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True, help="directory for the scenario config")
    args = parser.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    workload = WORKLOADS[args.workload]
    config_path = write_config(workload, src, Path(args.out))
    print("klmdp " + " ".join(verb_argv(workload, config_path, Path(args.out) / "results")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
