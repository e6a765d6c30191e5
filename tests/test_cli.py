import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.special import logsumexp

import klmdp.cli
from klmdp.cli import (
    POLICY_BLOCK_ROWS,
    _OutputTracker,
    _apply_overrides,
    _csv_rows,
    _policy_task,
    _policy_tasks,
    _write_policy_csv,
    default_uav_config,
    load_config,
    main,
)
from klmdp.ode_engine import (
    PREDICTOR_MAX_NODES,
    OdeConfig,
    PathCheckpoint,
    solve_average_reward,
    solve_finite_horizon,
)
from klmdp.uav_benchmark import controlled_spectrum


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def small_uav_config(zeta_max=0.5, step=0.01, checkpoints=(0.0, 0.5)):
    return {
        "model": {
            "kind": "uav",
            "d_a": 4,
            "d_o": 4,
            "d_N": 2,
            "delta_n": 0.05,
            "sigma_u2": 0.5,
            "target": [4, 4],
            "wind": {"kind": "seeded", "seed": 0},
        },
        "solver": {
            "zeta_max": zeta_max,
            "step": step,
            "checkpoints": list(checkpoints),
        },
    }


def explicit_config(**solver):
    return {
        "model": {
            "kind": "explicit",
            "R0": [[0.5, 0.5]] * 4,
            "Q0": [[0.3, 0.7]] * 4,
            "utility": [0.0, -1.0, -0.5, -2.0],
            "basepoint": 0,
        },
        "solver": {"zeta_max": 1.0, "step": 0.01, "checkpoints": [1.0], **solver},
    }


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestLoadConfig:
    def test_uav_target_is_one_based(self, tmp_path):
        cfg = small_uav_config()
        cfg["model"]["target"] = [1, 1]
        loaded = load_config(write_config(tmp_path, cfg))
        assert loaded.scenario.target == (0, 0)
        assert loaded.basepoint == 0

    def test_explicit_model(self, tmp_path):
        loaded = load_config(write_config(tmp_path, explicit_config()))
        assert loaded.kernel.space.d == 4
        assert loaded.scenario is None
        np.testing.assert_array_equal(loaded.utility, [0.0, -1.0, -0.5, -2.0])

    def test_unknown_kind_rejected(self, tmp_path):
        cfg = explicit_config()
        cfg["model"]["kind"] = "mystery"
        with pytest.raises(ValueError):
            load_config(write_config(tmp_path, cfg))

    def test_row_count_mismatch_rejected(self, tmp_path):
        cfg = explicit_config()
        cfg["model"]["R0"] = [[0.5, 0.5]] * 3
        with pytest.raises(ValueError, match="rows"):
            load_config(write_config(tmp_path, cfg))


class TestOverrides:
    def test_unset_fields_survive(self, tmp_path):
        loaded = load_config(write_config(tmp_path, explicit_config()))
        loaded.ode = replace(loaded.ode, residual_tol=1e-7)
        args = argparse.Namespace(zeta_max=0.5, step=0.02, checkpoints="0.5")
        ode = _apply_overrides(loaded, args).ode
        assert (ode.zeta_max, ode.step, ode.checkpoints) == (0.5, 0.02, (0.5,))
        assert ode.residual_tol == 1e-7


class TestConfigErrors:
    @pytest.mark.parametrize("verb", [["solve-ar"], ["solve-fh", "--horizon", "2"]])
    def test_missing_config_is_a_clean_error(self, tmp_path, capsys, verb):
        out = tmp_path / "run"
        argv = verb + ["--config", str(tmp_path / "missing.json"), "--out", str(out)]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", [["solve-ar"], ["solve-fh", "--horizon", "2"]])
    def test_unknown_solver_key_is_a_clean_error(self, tmp_path, capsys, verb):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, explicit_config(max_move=0.05))
        assert main(verb + ["--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'max_move'" in err
        assert not out.exists()

    @pytest.mark.parametrize("verb", [["solve-ar"], ["solve-fh", "--horizon", "2"]])
    @pytest.mark.parametrize("config, key, value, message", [
        # Python's json reads NaN
        (explicit_config, "R0", [[float("nan"), 1.0]] + [[0.5, 0.5]] * 3, "non-finite entry nan at (0, 0)"),
        (explicit_config, "utility", [1.0], "utility has length 1, expected 4"),
        (small_uav_config, "wind", {"kind": "explicit", "table": [[0] * 4] * 4}, "unknown wind kind 'explicit'"),
        (small_uav_config, "wind", {"kind": "seeded", "seed": -1}, "wind seed must be non-negative, got -1"),
        # the config's own 1-based pair, on the 4 x 4 grid
        (small_uav_config, "target", [5, 4], "target (5, 4) outside the 4 x 4 grid"),
        (small_uav_config, "target", [1, 0], "target (1, 0) outside the 4 x 4 grid"),
    ], ids=["nan-in-R0", "short-utility", "explicit-wind", "negative-wind-seed", "target-past-the-grid", "target-0"])
    def test_invalid_model_is_a_clean_error(self, tmp_path, capsys, verb, config, key, value, message):
        cfg = config()
        cfg["model"][key] = value
        out = tmp_path / "run"
        assert main(verb + ["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and err.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())  # no files written

    @pytest.mark.parametrize("verb", [["solve-ar"], ["solve-fh", "--horizon", "2"]])
    @pytest.mark.parametrize("solver, flags, message", [
        ({}, ["--checkpoints", "nan"], "checkpoint nan outside [0, 0.5]"),
        ({}, ["--zeta-max", "nan"], "zeta_max must be finite and >= 0, got nan"),
        ({}, ["--zeta-max", "inf"], "zeta_max must be finite and >= 0, got inf"),
        ({}, ["--step", "inf"], "step must be finite and > 0, got inf"),
        ({}, ["--step", "nan"], "step must be finite and > 0, got nan"),
        ({"residual_tol": -1}, [], "residual_tol must be finite and > 0, got -1.0"),
        ({"residual_tol": 0}, [], "residual_tol must be finite and > 0, got 0.0"),
        # Python's json reads NaN and Infinity
        ({"residual_tol": float("nan")}, [], "residual_tol must be finite and > 0, got nan"),
        ({"residual_tol": float("inf")}, [], "residual_tol must be finite and > 0, got inf"),
    ], ids=[
        "nan-checkpoint", "nan-zeta-max", "inf-zeta-max", "inf-step", "nan-step",
        "negative-residual-tol", "zero-residual-tol", "nan-residual-tol", "inf-residual-tol",
    ])
    def test_invalid_solver_setting_is_a_clean_error(self, tmp_path, capsys, verb, solver, flags, message):
        cfg = small_uav_config()
        cfg["solver"].update(solver)
        out = tmp_path / "run"
        assert main(verb + ["--config", write_config(tmp_path, cfg), "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("verb", [["solve-ar"], ["solve-fh", "--horizon", "1"]])
    def test_colliding_checkpoint_tags_are_a_clean_error(self, tmp_path, capsys, verb):
        # both are grid nodes, and both would be written as zeta_12345.7
        out = tmp_path / "run"
        argv = verb + [
            "--config", write_config(tmp_path, small_uav_config()), "--out", str(out),
            "--zeta-max", "12345.68", "--checkpoints", "12345.67,12345.68",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: checkpoints zeta=12345.67 and zeta=12345.68 share the file tag '12345.7'" in err
        assert not out.exists()


class TestGenScenario:
    def test_roundtrips_through_loader(self, tmp_path):
        out = tmp_path / "scenario.json"
        assert main(["gen-scenario", "--out", str(out), "--seed", "3"]) == 0
        cfg = json.loads(out.read_text())
        assert cfg == default_uav_config(seed=3)
        loaded = load_config(out)
        assert loaded.kernel.space.d == 15 * 15 * 5

    def test_missing_directory_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "scenario.json"
        assert main(["gen-scenario", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.parent.exists()

    def test_negative_seed_is_a_clean_error(self, tmp_path, capsys):
        # the wind field's generator rejects a negative seed, so every other verb would
        out = tmp_path / "scenario.json"
        assert main(["gen-scenario", "--out", str(out), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: wind seed must be non-negative, got -1\n"
        assert captured.out == ""
        assert not out.exists()


class TestSolveAr:
    def test_outputs_and_determinism(self, tmp_path):
        cfg_path = write_config(tmp_path, small_uav_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve-ar", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["solve-ar", "--config", cfg_path, "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted([
            "eigenvalues_zeta_0.csv", "eigenvalues_zeta_0.5.csv",
            "eta.csv", "manifest.json",
            "policy_zeta_0.csv", "policy_zeta_0.5.csv",
            "values_zeta_0.csv", "values_zeta_0.5.csv",
            "velocity_zeta_0.csv", "velocity_zeta_0.5.csv",
        ])
        for name in names:
            if name == "manifest.json":
                continue  # carries wall-clock timings
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_manifest_carries_newton_trace(self, tmp_path):
        cfg_path = write_config(tmp_path, small_uav_config())
        out = tmp_path / "run"
        assert main(["solve-ar", "--config", cfg_path, "--out", str(out)]) == 0
        trace = json.loads((out / "manifest.json").read_text())["trace"]
        assert trace["newton_steps_total"] >= 50  # 50 nodes past zeta = 0, each corrected
        assert trace["factorizations"] < trace["newton_steps_total"]  # the LU is kept
        per_node = trace["per_node"]
        assert set(per_node) == {"newton_steps", "factorizations", "predictor_residual", "predictor_nodes"}
        assert all(len(counts) == 51 for counts in per_node.values())
        assert sum(per_node["newton_steps"]) == trace["newton_steps_total"]
        assert sum(per_node["factorizations"]) == trace["factorizations"]
        # the exact start, the constant predictor from it, then extrapolation
        # through 2 ... PREDICTOR_MAX_NODES converged nodes
        nodes = per_node["predictor_nodes"]
        assert nodes[:3] == [0, 1, 2] and all(2 <= n <= PREDICTOR_MAX_NODES for n in nodes[2:])
        assert max(nodes) > 2
        residuals = per_node["predictor_residual"]
        assert all(np.isfinite(residuals)) and residuals[0] <= 1e-15
        _, rows = read_csv(out / "eta.csv")
        final = [float(r[2]) for r in rows]
        # each node's corrections start from the predicted iterate
        assert all(p >= r for p, r, steps in zip(residuals, final, per_node["newton_steps"]) if steps)
        for csv_path in out.glob("*.csv"):  # the CSVs stay byte-reproducible
            header = csv_path.read_text().splitlines()[0]
            assert "newton" not in header and "factorization" not in header and "predictor" not in header

    @pytest.mark.parametrize("verb", [["solve-ar"], ["solve-fh", "--horizon", "1"]])
    def test_manifest_records_the_environment(self, tmp_path, monkeypatch, verb):
        # CSV bytes repeat only under the same versions and BLAS threads, so
        # the manifest records them; the CSVs themselves do not change
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cfg_path = write_config(tmp_path, small_uav_config(zeta_max=0.1, checkpoints=(0.0, 0.1)))
        out = tmp_path / "run"
        assert main(verb + ["--config", cfg_path, "--out", str(out)]) == 0
        environment = json.loads((out / "manifest.json").read_text())["environment"]
        assert environment == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "OMP_NUM_THREADS": None,
            "OPENBLAS_NUM_THREADS": "1",
        }
        headers = {
            "values": "state_index,x_u,x_n,h,cost_to_go",
            "policy": "state_index,next_u_index,probability",
            "eigenvalues": "real,imag",
            "velocity": "i,j,n,v_lat,v_lon",
            "eta": "zeta,eta,aroe_residual_sup",
            "fh_values": "k,state_index,W",
            "fh_policy": "state_index,next_u_index,probability",
        }
        names = sorted(p.name for p in out.glob("*.csv"))
        assert len(names) == (9 if verb[0] == "solve-ar" else 4)
        for name in names:
            kind = name.split("_zeta")[0].removesuffix(".csv")
            assert (out / name).read_text().splitlines()[0] == headers[kind]

    @pytest.mark.parametrize("verb", [["solve-ar"], ["solve-fh", "--horizon", "1"]])
    def test_manifest_warns_of_each_snapped_checkpoint(self, tmp_path, verb):
        cfg_path = write_config(tmp_path, small_uav_config(zeta_max=0.1, checkpoints=(0.0, 0.034, 0.1)))
        out = tmp_path / "run"
        assert main(verb + ["--config", cfg_path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checkpoint_snaps"] == [{"requested": 0.034, "snapped": 0.03}]
        assert manifest["warnings"] == ["checkpoint zeta=0.034 is not a grid node; reported at zeta=0.03"]

    def test_manifest_has_no_warnings_without_events(self, tmp_path):
        cfg_path = write_config(tmp_path, small_uav_config(zeta_max=0.1, checkpoints=(0.0, 0.1)))
        out = tmp_path / "run"
        assert main(["solve-ar", "--config", cfg_path, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["warnings"] == []

    def test_policy_rows_renormalized(self, tmp_path):
        cfg_path = write_config(tmp_path, small_uav_config())
        out = tmp_path / "run"
        assert main(["solve-ar", "--config", cfg_path, "--out", str(out)]) == 0
        header, rows = read_csv(out / "policy_zeta_0.5.csv")
        assert header == ["state_index", "next_u_index", "probability"]
        mass = {}
        for x, _, p in rows:
            mass[x] = mass.get(x, 0.0) + float(p)
        assert len(mass) == 32
        for total in mass.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_explicit_model_writes_policies_tilted_by_the_written_values(self, tmp_path):
        cfg = explicit_config(checkpoints=[0.0, 0.5, 1.0])
        out = tmp_path / "run"
        assert main(["solve-ar", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        tags = ("0", "0.5", "1")
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["eta.csv", "manifest.json"]
            + [f"{kind}_zeta_{tag}.csv" for kind in ("values", "policy", "eigenvalues") for tag in tags]
        )
        R0, Q0 = np.array(cfg["model"]["R0"]), np.array(cfg["model"]["Q0"])
        d_u, d_n = R0.shape[1], Q0.shape[1]
        for tag in tags:
            values = np.loadtxt(out / f"values_zeta_{tag}.csv", delimiter=",", skiprows=1)
            h = values[:, 3]
            np.testing.assert_array_equal(values[:, 4], -h)  # cost_to_go
            # the Gibbs rule by logsumexp: R0 exp(g - log sum_u R0 exp g), g = E[h | x, x_u']
            logits = np.log(R0) + Q0 @ h.reshape(d_u, d_n).T
            expected = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
            x, u, p = np.loadtxt(out / f"policy_zeta_{tag}.csv", delimiter=",", skiprows=1, unpack=True)
            written = np.zeros_like(expected)
            written[x.astype(int), u.astype(int)] = p
            assert np.max(np.abs(written - expected)) <= 1e-9

    def test_eigenvalues_contain_unit(self, tmp_path):
        cfg_path = write_config(tmp_path, small_uav_config())
        out = tmp_path / "run"
        assert main(["solve-ar", "--config", cfg_path, "--out", str(out)]) == 0
        _, rows = read_csv(out / "eigenvalues_zeta_0.5.csv")
        eig = np.array([[float(a), float(b)] for a, b in rows])
        gap = np.min(np.abs(eig[:, 0] - 1.0) + np.abs(eig[:, 1]))
        assert gap < 1e-10

    def test_values_pin_basepoint(self, tmp_path):
        cfg_path = write_config(tmp_path, small_uav_config())
        out = tmp_path / "run"
        assert main(["solve-ar", "--config", cfg_path, "--out", str(out)]) == 0
        _, rows = read_csv(out / "values_zeta_0.5.csv")
        table = {int(r[0]): (float(r[3]), float(r[4])) for r in rows}
        # basepoint = target location 15 (flat), first wind state
        assert table[30] == (0.0, -0.0)
        assert all(np.isfinite(v[0]) for v in table.values())

    def test_values_at_zeta_0_write_negative_zero_cost(self, tmp_path):
        # h = 0 at zeta = 0, so cost_to_go = -h is -0.0, written as -0
        cfg_path = write_config(tmp_path, small_uav_config())
        out = tmp_path / "run"
        assert main(["solve-ar", "--config", cfg_path, "--out", str(out)]) == 0
        _, rows = read_csv(out / "values_zeta_0.csv")
        assert len(rows) == 32
        assert all(r[3] == "0" and r[4] == "-0" for r in rows)

    def test_manifest_times_the_spectra(self, tmp_path):
        cfg_path = write_config(tmp_path, small_uav_config())
        out = tmp_path / "run"
        assert main(["solve-ar", "--config", cfg_path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        timings = manifest["timings_seconds"]
        assert set(timings) == {"solve", "spectrum", "write"}
        assert 0.0 < timings["spectrum"] <= timings["write"]  # the wait for the spectra is part of the write
        trace = manifest["trace"]
        assert trace["spectrum_workers"] == min(2, len(os.sched_getaffinity(0)))
        assert trace["per_checkpoint"]["zeta"] == [0.0, 0.5]
        spectrum_s = trace["per_checkpoint"]["spectrum_s"]
        assert len(spectrum_s) == 2 and all(s > 0.0 for s in spectrum_s)

    def test_worker_count_does_not_change_a_byte(self, tmp_path, monkeypatch):
        # UAV 8x8x3 (d = 192) with 3 checkpoints, on every CPU and on one
        cfg = small_uav_config(zeta_max=2.0, checkpoints=(0.0, 1.0, 2.0))
        cfg["model"].update(d_a=8, d_o=8, d_N=3, target=[8, 8])
        cfg_path = write_config(tmp_path, cfg)
        out_all, out_one = tmp_path / "all", tmp_path / "one"
        assert main(["solve-ar", "--config", cfg_path, "--out", str(out_all)]) == 0
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert main(["solve-ar", "--config", cfg_path, "--out", str(out_one)]) == 0
        workers = [json.loads((out / "manifest.json").read_text())["trace"]["spectrum_workers"]
                   for out in (out_all, out_one)]
        assert workers == [min(3, len(os.sched_getaffinity(0))), 1]
        names = sorted(p.name for p in out_all.glob("*.csv"))
        assert len(names) == 13 and names == sorted(p.name for p in out_one.glob("*.csv"))
        for name in names:
            assert (out_all / name).read_bytes() == (out_one / name).read_bytes()
        loaded = load_config(cfg_path)
        path = solve_average_reward(loaded.kernel, loaded.utility, loaded.ode, loaded.basepoint)
        assert [cp.zeta for cp in path.checkpoints] == [0.0, 1.0, 2.0]
        for cp in path.checkpoints:
            eig = controlled_spectrum(cp.kernel, cp.policy().entries)
            assert np.count_nonzero(eig == 0) > 0  # the lumped zeros are written too
            expected = "real,imag\n" + _csv_rows(np.real(eig), np.imag(eig))
            assert (out_all / f"eigenvalues_zeta_{cp.zeta:g}.csv").read_text() == expected

    @pytest.mark.parametrize("failing", ["controlled_spectrum", "_write_policy_csv"])
    def test_spectrum_failure_leaves_no_file_and_no_worker(self, tmp_path, monkeypatch, capsys, failing):
        def fail_spectrum(kernel, rule):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        def fail_on_one_policy(out, name, rule):
            if name == "policy_zeta_0.5.csv":
                raise OSError("disk full")
            write(out, name, rule)

        write = _write_policy_csv
        fail, message = {
            "controlled_spectrum": (fail_spectrum, "eigenvalues did not converge"),
            "_write_policy_csv": (fail_on_one_policy, "error: disk full"),
        }[failing]
        cfg_path = write_config(tmp_path, small_uav_config())
        out = tmp_path / "run"
        # the forked workers inherit the patched module global
        monkeypatch.setattr(klmdp.cli, failing, fail)
        assert main(["solve-ar", "--config", cfg_path, "--out", str(out)]) == 1
        assert list(out.iterdir()) == []
        assert message in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_each_rule_is_derived_once_in_a_worker(self, tmp_path, monkeypatch):
        # UAV 8x8x3 (d = 192) with 3 checkpoints: one rule per checkpoint for its
        # eigenvalue, policy and velocity files, none of them in this process
        calls = tmp_path / "policy_calls"
        policy = PathCheckpoint.policy

        def recorded(cp):
            with open(calls, "a") as f:
                f.write(f"{os.getpid()}\n")
            return policy(cp)

        cfg = small_uav_config(zeta_max=2.0, checkpoints=(0.0, 1.0, 2.0))
        cfg["model"].update(d_a=8, d_o=8, d_N=3, target=[8, 8])
        cfg_path = write_config(tmp_path, cfg)
        # the forked workers inherit the patched method
        monkeypatch.setattr(PathCheckpoint, "policy", recorded)
        assert main(["solve-ar", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
        pids = calls.read_text().split()
        assert len(pids) == 3
        assert str(os.getpid()) not in pids

    @pytest.mark.parametrize("verb", [["solve-ar"], ["solve-fh", "--horizon", "2"]], ids=["solve-ar", "solve-fh"])
    def test_buffered_output_is_written_once(self, tmp_path, verb):
        # a forked worker flushes its copy of each stream buffer when it exits,
        # so text still buffered at the fork would be written twice
        cfg_path = write_config(tmp_path, small_uav_config())
        argv = verb + ["--config", cfg_path, "--out", str(tmp_path / "run")]
        code = (
            "import sys; from klmdp.cli import main; sys.stdout.write('before'); "
            f"sys.stderr.write('before'); sys.exit(main({argv!r}))"
        )
        src = str(Path(klmdp.cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        # stdout to a pipe is block-buffered, stderr line-buffered: both hold text with no newline
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "before"
        assert done.stderr == "before"

    @pytest.mark.parametrize("verb", [["solve-ar"], ["solve-fh", "--horizon", "2"]], ids=["solve-ar", "solve-fh"])
    def test_workers_fork_without_a_deprecation_warning(self, tmp_path, monkeypatch, verb):
        # Python 3.12+ warns when a process with more than one thread forks;
        # the threads alive at each fork are counted on any version
        threads_at_fork = []
        fork = os.fork

        def counting_fork():
            threads_at_fork.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        cfg_path = write_config(tmp_path, small_uav_config())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(verb + ["--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []
        assert threads_at_fork and set(threads_at_fork) == {1}
        assert multiprocessing.active_children() == []

    def test_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, small_uav_config())
        out = tmp_path / "run"
        code = main([
            "solve-ar", "--config", cfg_path, "--out", str(out),
            "--zeta-max", "0.2", "--step", "0.02", "--checkpoints", "0.1,0.2",
        ])
        assert code == 0
        assert (out / "values_zeta_0.1.csv").exists()
        assert (out / "values_zeta_0.2.csv").exists()
        assert not (out / "values_zeta_0.5.csv").exists()

    def test_failure_cleans_outputs(self, tmp_path, capsys):
        # a periodic exogenous chain is rejected by the structure check
        cfg = explicit_config()
        cfg["model"]["Q0"] = [[0.0, 1.0], [1.0, 0.0]] * 2
        cfg["model"]["R0"] = [[0.0, 1.0], [1.0, 0.0]] * 2
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["solve-ar", "--config", cfg_path, "--out", str(out)]) == 1
        assert list(out.iterdir()) == []
        assert "error:" in capsys.readouterr().err


class TestPolicyCsv:
    def test_bytes_match_per_entry_formatting(self, tmp_path):
        rng = np.random.default_rng(7)
        rule = rng.dirichlet(np.ones(5), size=4)
        rule[0, 1] = 0.0  # exact zero
        rule[1, 2] = 1e-13  # dropped: below 1e-12
        rule[2] = [0.0, 0.0, 1.0, 0.0, 0.0]
        rule /= rule.sum(axis=1, keepdims=True)
        _write_policy_csv(_OutputTracker(tmp_path), "policy.csv", rule)

        # the earlier writer: one formatted entry per loop turn
        trimmed = np.where(rule >= 1e-12, rule, 0.0)
        trimmed = trimmed / trimmed.sum(axis=1, keepdims=True)
        lines = ["state_index,next_u_index,probability"]
        for x, u in zip(*np.nonzero(trimmed)):
            lines.append(f"{x},{u},{format(float(trimmed[x, u]), '.17g')}")
        expected = "\n".join(lines) + "\n"

        assert (tmp_path / "policy.csv").read_bytes() == expected.encode()
        assert len(lines) == 1 + 20 - 2 - 4
        assert any(float(format(p, ".16g")) != p for p in trimmed[trimmed > 0])  # 17 digits needed

    def test_blocks_match_per_entry_formatting(self, tmp_path):
        # rows span several blocks and repeat values across them; entries of
        # 1e-13 are dropped and their rows renormalized
        rng = np.random.default_rng(11)
        rule = rng.choice([0.0, 1e-13, 0.25, 1.0 / 3.0, 0.1, 2.0 / 7.0], size=(2 * POLICY_BLOCK_ROWS + 5, 6))
        rule[:, 0] += 0.5
        rule /= rule.sum(axis=1, keepdims=True)
        _write_policy_csv(_OutputTracker(tmp_path), "policy.csv", rule)

        trimmed = np.where(rule >= 1e-12, rule, 0.0)
        trimmed = trimmed / trimmed.sum(axis=1, keepdims=True)
        lines = ["state_index,next_u_index,probability"]
        for x, u in zip(*np.nonzero(trimmed)):
            lines.append(f"{x},{u},{format(float(trimmed[x, u]), '.17g')}")
        assert (tmp_path / "policy.csv").read_text() == "\n".join(lines) + "\n"
        assert np.any((rule > 0) & (rule < 1e-12))
        assert len(lines) - 1 == np.count_nonzero(rule >= 1e-12) < np.count_nonzero(rule)

    def test_peak_memory_below_one_rule(self, tmp_path):
        # the gen-scenario default 15x15x5 model (d = 1125, d_u = 225) at zeta = 1;
        # the last of 6 stages has the most distinct entries (71%), so the most text to format
        loaded = load_config(write_config(tmp_path, default_uav_config()))
        fh = solve_finite_horizon(
            loaded.kernel, loaded.utility, 6, OdeConfig(zeta_max=1.0, step=0.01, checkpoints=(1.0,))
        )
        rule = fh.checkpoints[-1].policy(5).entries
        assert rule.shape == (1125, 225)
        out = _OutputTracker(tmp_path)
        tracemalloc.start()
        try:
            _write_policy_csv(out, "policy.csv", rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each block's text is written as it is formatted, so the whole text,
        # 1.05x the rule, is never held: a block and its temporaries are 0.3x
        assert peak < rule.nbytes


def per_entry_rows(*columns):
    """The reference for ``_csv_rows``: one ``str`` or ``format(.17g)`` call per entry."""
    lines = []
    for row in zip(*columns):
        cells = [str(int(v)) if isinstance(v, (int, np.integer)) else format(float(v), ".17g") for v in row]
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


class TestCsvRows:
    def test_signed_zeros_keep_their_own_text(self):
        column = np.array([0.0, -0.0, 0.0, -0.0, 1.0])
        assert _csv_rows(column) == "0\n-0\n0\n-0\n1\n"
        assert _csv_rows(column) == per_entry_rows(column)

    def test_special_values(self):
        column = np.array([5e-324, np.nan, np.inf, -np.inf, -5e-324, np.finfo(float).max, 5e-324])
        assert _csv_rows(column) == per_entry_rows(column)
        assert _csv_rows(column).splitlines()[:4] == ["4.9406564584124654e-324", "nan", "inf", "-inf"]

    def test_values_that_need_17_digits(self):
        column = np.array([0.1 + 0.2, 1.0 / 3.0, 0.1, 2.0 / 3.0, 1e-7 / 3.0, 1.0 / 3.0])
        assert any(float(format(v, ".16g")) != v for v in column)
        assert _csv_rows(column) == per_entry_rows(column)
        assert [float(v) for v in _csv_rows(column).split()] == column.tolist()

    def test_int_and_float_columns(self):
        rng = np.random.default_rng(3)
        ints = rng.integers(0, 50, size=200)
        offset = ints + 1000  # a lookup table that does not start at 0
        floats = rng.choice([0.5, -0.0, 1.0 / 7.0, 3e-300], size=200)
        text = _csv_rows(ints, offset, floats, floats[::-1])
        assert text == per_entry_rows(ints, offset, floats, floats[::-1])
        assert text.count("\n") == 200

    def test_empty_table(self):
        assert _csv_rows(np.arange(0), np.zeros(0)) == ""


class TestSolveFh:
    def test_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, explicit_config())
        out = tmp_path / "run"
        assert main(["solve-fh", "--config", cfg_path, "--out", str(out), "--horizon", "2"]) == 0
        header, rows = read_csv(out / "fh_values_zeta_1.csv")
        assert header == ["k", "state_index", "W"]
        assert len(rows) == 3 * 4
        assert (out / "fh_policy_zeta_1_k_0.csv").exists()
        assert (out / "fh_policy_zeta_1_k_1.csv").exists()
        timings = json.loads((out / "manifest.json").read_text())["timings_seconds"]
        assert set(timings) == {"solve", "tilt", "write"}
        assert 0.0 < timings["tilt"] <= timings["write"]  # the stage policies are derived in the write

    def test_peak_memory_below_six_rules(self, tmp_path):
        # the whole verb on the gen-scenario default 15x15x5 model (d = 1125,
        # d_u = 225), checkpoints 0, 1, 2: 18 stage policies, one alive at a time
        cfg_path = write_config(tmp_path, default_uav_config())
        rule_bytes = 1125 * 225 * 8
        tracemalloc.start()
        try:
            code = main(["solve-fh", "--config", cfg_path, "--out", str(tmp_path / "run"), "--horizon", "6"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(list((tmp_path / "run").glob("fh_policy_zeta_*_k_*.csv"))) == 18
        assert peak < 6 * rule_bytes

    def test_worker_count_does_not_change_a_byte(self, tmp_path, monkeypatch):
        # UAV 8x8x3 (d = 192), horizon 3, checkpoints 0, 1, 2: 7 stage tasks,
        # one at zeta = 0 and three at each other checkpoint; on every CPU and on one
        cfg = small_uav_config(zeta_max=2.0, checkpoints=(0.0, 1.0, 2.0))
        cfg["model"].update(d_a=8, d_o=8, d_N=3, target=[8, 8])
        cfg_path = write_config(tmp_path, cfg)
        out_all, out_one = tmp_path / "all", tmp_path / "one"
        argv = ["solve-fh", "--config", cfg_path, "--horizon", "3", "--out"]
        assert main(argv + [str(out_all)]) == 0
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert main(argv + [str(out_one)]) == 0
        workers = [json.loads((out / "manifest.json").read_text())["trace"]["policy_workers"]
                   for out in (out_all, out_one)]
        assert workers == [min(7, len(os.sched_getaffinity(0))), 1]
        names = sorted(p.name for p in out_all.glob("*.csv"))
        assert len(names) == 12 and names == sorted(p.name for p in out_one.glob("*.csv"))
        for name in names:
            assert (out_all / name).read_bytes() == (out_one / name).read_bytes()
        # each stage file holds the policy its checkpoint derives for that stage
        loaded = load_config(cfg_path)
        fh = solve_finite_horizon(loaded.kernel, loaded.utility, 3, loaded.ode)
        for cp in fh.checkpoints:
            for k in range(3):
                name = f"fh_policy_zeta_{cp.zeta:g}_k_{k}.csv"
                _write_policy_csv(_OutputTracker(tmp_path), name, cp.policy(k).entries)
                assert (out_all / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_policy_failure_leaves_no_file_and_no_worker(self, tmp_path, monkeypatch, capsys):
        def fail_on_one_stage(out, name, rule):
            if name == "fh_policy_zeta_0.5_k_1.csv":
                raise OSError("disk full")
            write(out, name, rule)

        write = _write_policy_csv
        cfg_path = write_config(tmp_path, small_uav_config())
        out = tmp_path / "run"
        # the forked workers inherit the patched module global
        monkeypatch.setattr(klmdp.cli, "_write_policy_csv", fail_on_one_stage)
        assert main(["solve-fh", "--config", cfg_path, "--out", str(out), "--horizon", "3"]) == 1
        assert list(out.iterdir()) == []
        assert "error: disk full" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_equal_stages_are_one_task_per_checkpoint(self, tmp_path):
        # the gen-scenario default 15x15x5 model, horizon 6, checkpoints 0, 1, 2:
        # at zeta = 0, W = 0 (W[0] = 0 U holds -0.0), so its 6 stages are one task
        loaded = load_config(write_config(tmp_path, default_uav_config()))
        fh = solve_finite_horizon(loaded.kernel, loaded.utility, 6, loaded.ode)
        assert np.signbit(fh.checkpoints[0].W[0]).any() and not np.signbit(fh.checkpoints[0].W[1:]).any()
        tasks = _policy_tasks(fh)
        assert len(tasks) == 13
        assert tasks[0] == (0, 0, [f"fh_policy_zeta_0_k_{k}.csv" for k in range(6)])
        assert tasks[1:] == [(i, k, [f"fh_policy_zeta_{i}_k_{k}.csv"]) for i in (1, 2) for k in range(6)]

        out = tmp_path / "run"
        assert main(["solve-fh", "--config", write_config(tmp_path, default_uav_config()),
                     "--out", str(out), "--horizon", "6"]) == 0
        first = (out / "fh_policy_zeta_0_k_0.csv").read_bytes()
        assert all((out / f"fh_policy_zeta_0_k_{k}.csv").read_bytes() == first for k in range(1, 6))
        assert len(list(out.glob("*.csv"))) == 21

    def test_stages_are_grouped_within_a_checkpoint_only(self, tmp_path):
        # with zero utility, W = 0 at every zeta: one task per checkpoint, each
        # naming only its own checkpoint's files
        cfg = explicit_config(checkpoints=[0.0, 0.5, 1.0])
        cfg["model"]["utility"] = [0.0] * 4
        loaded = load_config(write_config(tmp_path, cfg))
        fh = solve_finite_horizon(loaded.kernel, loaded.utility, 2, loaded.ode)
        assert _policy_tasks(fh) == [
            (i, 0, [f"fh_policy_zeta_{tag}_k_0.csv", f"fh_policy_zeta_{tag}_k_1.csv"])
            for i, tag in enumerate(("0", "0.5", "1"))
        ]

    def test_worker_holds_one_rule_at_a_time(self, tmp_path, monkeypatch):
        # one worker task run in this process: the gen-scenario default 15x15x5
        # model (d = 1125, d_u = 225), stage 0 at zeta = 2
        loaded = load_config(write_config(tmp_path, default_uav_config()))
        fh = solve_finite_horizon(
            loaded.kernel, loaded.utility, 6, OdeConfig(zeta_max=2.0, step=0.01, checkpoints=(2.0,))
        )
        monkeypatch.setattr(klmdp.cli, "_inherited", (fh.checkpoints, _OutputTracker(tmp_path)))
        rule_bytes = 1125 * 225 * 8
        tracemalloc.start()
        try:
            _policy_task(0, 0, ["policy.csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text_bytes = (tmp_path / "policy.csv").stat().st_size
        assert rule_bytes < text_bytes < 1.1 * rule_bytes
        # the tilt peaks at 2.0 rules (the rule and one temporary of its size),
        # the write at 1.2 (the rule and one block's text at a time); a second
        # rule alive would put it above 3
        assert peak < 2.5 * rule_bytes

    def test_horizon_zero_is_scaled_utility(self, tmp_path):
        cfg_path = write_config(tmp_path, explicit_config())
        out = tmp_path / "run"
        assert main(["solve-fh", "--config", cfg_path, "--out", str(out), "--horizon", "0"]) == 0
        _, rows = read_csv(out / "fh_values_zeta_1.csv")
        W0 = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(W0, [0.0, -1.0, -0.5, -2.0], atol=1e-12)


class TestValidate:
    def test_all_pass_on_small_scenario(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_uav_config(checkpoints=(0.5,)))
        code = main(["validate", "--config", cfg_path, "--trials", "200", "--threads", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)
        assert any("rollout vs cost-to-go" in l for l in lines)

    @pytest.mark.parametrize("checkpoint", [1.0, 0.5])
    def test_explicit_model_includes_pf_checks(self, tmp_path, capsys, checkpoint):
        # the Perron-Frobenius rows compare at the last checkpoint's zeta, as
        # the rollout row does, also where it is below zeta_max
        cfg = {
            "model": {
                "kind": "explicit",
                "R0": [[0.5, 0.5], [0.5, 0.5]],
                "Q0": [[1.0], [1.0]],
                "utility": [0.0, 1.0],
                "basepoint": 0,
            },
            "solver": {"zeta_max": 1.0, "step": 0.005, "checkpoints": [checkpoint]},
        }
        code = main(["validate", "--config", write_config(tmp_path, cfg)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert any(l.startswith(f"PASS  pf twisted matrix vs ode @ zeta={checkpoint:g} ") for l in lines)
        assert any(l.startswith(f"PASS  eta vs log pf eigenvalue @ zeta={checkpoint:g} ") for l in lines)

    @pytest.mark.parametrize("case", [
        "missing-config", "target-past-the-grid", "unknown-solver-key",
        "negative-horizon", "one-trial", "negative-trials", "zero-horizon-cap", "negative-horizon-cap",
    ])
    def test_config_error_is_one_error_line(self, tmp_path, capsys, monkeypatch, case):
        # as in solve-ar, solve-fh and gen-scenario: nothing on stdout, where
        # the rows of failed checks go, one error line on stderr and exit 1,
        # before any solve; so are arguments that no oracle can use
        uav, explicit = small_uav_config(), explicit_config(max_move=0.05)
        uav["model"]["target"] = [5, 4]
        valid = write_config(tmp_path, small_uav_config(), "valid.json")
        cfg_path, message, *extra = {
            "missing-config": (str(tmp_path / "missing.json"), "No such file or directory"),
            "target-past-the-grid": (write_config(tmp_path, uav, "uav.json"), "target (5, 4) outside the 4 x 4 grid"),
            "unknown-solver-key": (write_config(tmp_path, explicit, "explicit.json"), "unknown solver key(s) 'max_move'"),
            "negative-horizon": (valid, "horizon must be >= 0", "--horizon", "-1"),
            "one-trial": (valid, "trials must be 0 (no rollout) or >= 2, got 1", "--trials", "1"),
            "negative-trials": (valid, "trials must be 0 (no rollout) or >= 2, got -1", "--trials", "-1"),
            "zero-horizon-cap": (valid, "horizon cap must be >= 1, got 0", "--horizon-cap", "0"),
            "negative-horizon-cap": (valid, "horizon cap must be >= 1, got -1", "--horizon-cap", "-1"),
        }[case]

        def solve(*args, **kwargs):
            raise AssertionError("validate solved before it rejected its input")

        monkeypatch.setattr(klmdp.cli, "solve_average_reward", solve)
        assert main(["validate", "--config", cfg_path, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err and captured.err.count("\n") == 1

    def test_checkpoint_override_error_is_one_error_line(self, tmp_path, capsys):
        argv = ["validate", "--config", write_config(tmp_path, small_uav_config()), "--checkpoints", "0.7"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: checkpoint 0.7 outside [0, 0.5]\n"

    def test_structured_failure_on_periodic_chain(self, tmp_path, capsys):
        cfg = explicit_config()
        cfg["model"]["Q0"] = [[0.0, 1.0], [1.0, 0.0]] * 2
        cfg["model"]["R0"] = [[0.0, 1.0], [1.0, 0.0]] * 2
        code = main(["validate", "--config", write_config(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL structure:")


def run_python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's ``klmdp``; returns its stdout."""
    src = str(Path(klmdp.cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# In the child, ``loaded()`` lists which of the scipy submodules the solvers call are in ``sys.modules``
LOADED = """
import json, os, sys
import klmdp.cli

def loaded():
    return [m for m in ("scipy.linalg", "scipy.sparse", "scipy.sparse.csgraph") if m in sys.modules]
"""


class TestScipyImports:
    """Only ``solve-ar`` and ``validate`` load scipy's linear algebra, and they load it before the solve."""

    @pytest.mark.parametrize("statement", ["import klmdp", "import klmdp.cli"])
    def test_import_loads_no_scipy_solver(self, statement):
        # a bare `import scipy` stays, for the manifest's scipy version; scipy.linalg
        # would bring in numpy.f2py through scipy's array-API shim
        code = f"import sys; {statement}; print([m for m in ('scipy.linalg', 'scipy.sparse', 'numpy.f2py') if m in sys.modules])"
        assert run_python(code) == "[]\n"

    @pytest.mark.parametrize("verb", [["gen-scenario"], ["solve-fh", "--horizon", "2"]], ids=["gen-scenario", "solve-fh"])
    def test_verb_loads_no_scipy_solver(self, tmp_path, verb):
        # each forked policy worker records what it holds after writing its policy
        code = LOADED + """
policy_task = klmdp.cli._policy_task

def recorded_policy_task(*args):
    seconds = policy_task(*args)
    with open(sys.argv[2], "a") as f:
        f.write(json.dumps(loaded()) + "\\n")
    return seconds

klmdp.cli._policy_task = recorded_policy_task
print(json.dumps([klmdp.cli.main(json.loads(sys.argv[1])), loaded()]))
"""
        workers = tmp_path / "workers"
        if verb == ["gen-scenario"]:
            argv = verb + ["--out", str(tmp_path / "scenario.json")]
        else:
            argv = verb + ["--config", write_config(tmp_path, small_uav_config()), "--out", str(tmp_path / "run")]
        rc, modules = json.loads(run_python(code, json.dumps(argv), str(workers)).splitlines()[-1])
        assert (rc, modules) == (0, [])
        if verb == ["gen-scenario"]:
            assert not workers.exists()
        else:
            model = load_config(argv[4])
            tasks = _policy_tasks(solve_finite_horizon(model.kernel, model.utility, 2, model.ode))
            assert [json.loads(line) for line in workers.read_text().splitlines()] == [[]] * len(tasks)

    @pytest.mark.parametrize("verb", [["solve-ar"], ["validate", "--trials", "0"]], ids=["solve-ar", "validate"])
    def test_verb_loads_scipy_before_the_solve(self, tmp_path, verb):
        # the solver clock of bench/child.py rebinds klmdp.cli.solve_average_reward:
        # set-up ends at its first call, so the import must come before it, and
        # before each fork, so that the spectrum workers inherit it
        code = LOADED + """
seen = []
os.register_at_fork(before=lambda: seen.append(["fork", loaded()]))
solve = klmdp.cli.solve_average_reward

def recorded_solve(*args, **kwargs):
    seen.append(["solve", loaded()])
    return solve(*args, **kwargs)

klmdp.cli.solve_average_reward = recorded_solve
rc = klmdp.cli.main(json.loads(sys.argv[1]))
print(json.dumps([rc, seen]))
"""
        argv = verb + ["--config", write_config(tmp_path, small_uav_config())]
        if verb == ["solve-ar"]:
            argv += ["--out", str(tmp_path / "run")]
        rc, seen = json.loads(run_python(code, json.dumps(argv)).splitlines()[-1])
        assert rc == 0
        assert seen[0][0] == "solve"
        # solve-ar forks one spectrum worker per checkpoint and CPU; validate runs in threads
        forks = min(2, len(os.sched_getaffinity(0))) if verb == ["solve-ar"] else 0
        assert [event for event, _ in seen[1:]] == ["fork"] * forks
        everything = ["scipy.linalg", "scipy.sparse", "scipy.sparse.csgraph"]
        assert all(modules == everything for _, modules in seen)
