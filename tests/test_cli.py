import argparse
import json
import platform
from dataclasses import replace

import numpy as np
import pytest
import scipy

from klmdp.cli import (
    _OutputTracker,
    _apply_overrides,
    _write_policy_csv,
    default_uav_config,
    load_config,
    main,
)
from klmdp.ode_engine import PREDICTOR_MAX_NODES


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
    @pytest.mark.parametrize("key, value, message", [
        # Python's json reads NaN
        ("R0", [[float("nan"), 1.0]] + [[0.5, 0.5]] * 3, "non-finite entry nan at (0, 0)"),
        ("utility", [1.0], "utility has length 1, expected 4"),
    ], ids=["nan-in-R0", "short-utility"])
    def test_invalid_model_is_a_clean_error(self, tmp_path, capsys, verb, key, value, message):
        cfg = explicit_config()
        cfg["model"][key] = value
        out = tmp_path / "run"
        assert main(verb + ["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())  # no files written


class TestGenScenario:
    def test_roundtrips_through_loader(self, tmp_path):
        out = tmp_path / "scenario.json"
        assert main(["gen-scenario", "--out", str(out), "--seed", "3"]) == 0
        cfg = json.loads(out.read_text())
        assert cfg == default_uav_config(seed=3)
        loaded = load_config(out)
        assert loaded.kernel.space.d == 15 * 15 * 5


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

    def test_explicit_model_includes_pf_checks(self, tmp_path, capsys):
        cfg = {
            "model": {
                "kind": "explicit",
                "R0": [[0.5, 0.5], [0.5, 0.5]],
                "Q0": [[1.0], [1.0]],
                "utility": [0.0, 1.0],
                "basepoint": 0,
            },
            "solver": {"zeta_max": 1.0, "step": 0.005, "checkpoints": [1.0]},
        }
        code = main(["validate", "--config", write_config(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "pf twisted matrix vs ode" in out
        assert "eta vs log pf eigenvalue" in out

    def test_structured_failure_on_periodic_chain(self, tmp_path, capsys):
        cfg = explicit_config()
        cfg["model"]["Q0"] = [[0.0, 1.0], [1.0, 0.0]] * 2
        cfg["model"]["R0"] = [[0.0, 1.0], [1.0, 0.0]] * 2
        code = main(["validate", "--config", write_config(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL structure:")
