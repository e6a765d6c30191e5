"""Correctness checks of the CLI outputs, computed with the benchmark's own numpy.

The scenario matrices are rebuilt here from the scenario definition; only the
seeded wind table, an input, comes from the program.  The tilt is recomputed
with ``scipy.special.logsumexp``, never through the program's tilt.  Each
check returns a list of problems; an empty list means the output passed.
Nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

RESIDUAL_TOL = 1e-6  # AROE residual, the CLI's default residual_tol
FH_TOL = 1e-5  # finite-horizon recursion, the tolerance `validate` holds against backward DP
RULE_TOL = 1e-9  # written rule against the tilt; the CSV drops entries below 1e-12
EIG_TOL = 1e-3  # wind-chain eigenvalues in every controlled spectrum
COST_TOL = 1e-6  # sign, target, monotonicity and concavity of the cost-to-go
CORRUPTION = 1e-4  # size of the self-test's corruption of one value entry


@dataclass(frozen=True)
class Model:
    R0: np.ndarray  # (d, d_u) nominal rule
    Q0: np.ndarray  # (d, d_n) wind kernel per state
    U: np.ndarray  # utility: -1 off target, 0 on target
    d_u: int
    d_n: int
    on_target: np.ndarray  # bool mask over states
    wind_eigenvalues: np.ndarray


def load_model(config_path: Path) -> Model:
    """Rebuild the UAV model of a ``gen-scenario`` config from its definition."""
    from klmdp.uav_benchmark import generate_wind_field

    m = json.loads(Path(config_path).read_text())["model"]
    d_a, d_o, d_N = m["d_a"], m["d_o"], m["d_N"]
    delta, sigma2 = m["delta_n"], m["sigma_u2"]
    target = (m["target"][0] - 1) * d_o + (m["target"][1] - 1)
    wind = generate_wind_field(d_a, d_o, d_N, m["wind"]["seed"]).table  # (d_L, d_N, 2)

    coords = np.stack(np.divmod(np.arange(d_a * d_o), d_o), axis=1)  # (d_L, 2)
    centre = np.clip(coords[:, None, :] + wind, 0, [d_a - 1, d_o - 1])  # (d_L, d_N, 2)
    dist2 = ((centre[:, :, None, :] - coords[None, None, :, :]) ** 2).sum(axis=-1)
    R0 = np.exp(-dist2 / (2.0 * sigma2))
    R0 /= R0.sum(axis=-1, keepdims=True)
    R0[target] = 0.0
    R0[target, :, target] = 1.0
    R0 = R0.reshape(d_a * d_o * d_N, d_a * d_o)

    eye = np.eye(d_N)
    Qw = (1.0 - delta) * eye + 0.5 * delta * (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1))
    on_target = np.arange(R0.shape[0]) // d_N == target
    k = np.arange(d_N)
    return Model(
        R0=R0,
        Q0=np.tile(Qw, (d_a * d_o, 1)),
        U=np.where(on_target, 0.0, -1.0),
        d_u=d_a * d_o,
        d_n=d_N,
        on_target=on_target,
        wind_eigenvalues=1.0 - delta * (1.0 - np.cos(2.0 * np.pi * k / d_N)),
    )


def tilt(model: Model, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tilted rule ``R0 exp(g - Lambda)`` and ``Lambda = log sum R0 exp(g)``, ``g = E[values | x, x_u']``."""
    g = model.Q0 @ values.reshape(model.d_u, model.d_n).T
    lam = logsumexp(g, axis=1, b=model.R0)
    return model.R0 * np.exp(g - lam[:, None]), lam


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _rule_problems(model: Model, path: Path, values: np.ndarray) -> list[str]:
    triplets = _table(path)
    written = np.zeros_like(model.R0)
    written[triplets[:, 0].astype(int), triplets[:, 1].astype(int)] = triplets[:, 2]
    err = float(np.max(np.abs(written - tilt(model, values)[0])))
    return [f"{path.name}: rule differs from the tilt of R0 by {err:.3e}"] if err > RULE_TOL else []


def ztag(z: float) -> str:
    return format(float(z), "g")


def read_values(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """``h`` and cost-to-go columns of a ``values_zeta_*.csv``."""
    t = _table(path)
    if not np.array_equal(t[:, 0], np.arange(t.shape[0])):
        raise ValueError(f"{path.name}: state_index column is not 0..d-1")
    return t[:, 3], t[:, 4]


def aroe_problems(model: Model, zeta: float, h: np.ndarray, eta: float, name: str) -> list[str]:
    res = float(np.max(np.abs(zeta * model.U + tilt(model, h)[1] - h - eta)))
    return [f"{name}: AROE residual {res:.3e} exceeds {RESIDUAL_TOL:g}"] if res > RESIDUAL_TOL else []


def check_ar(out: Path, model: Model, checkpoints: tuple[float, ...]) -> list[str]:
    """Checks of a ``solve-ar`` output directory at each checkpoint."""
    problems: list[str] = []
    eta_table = _table(out / "eta.csv")
    costs = []
    for z in checkpoints:
        tag = ztag(z)
        values = out / f"values_zeta_{tag}.csv"
        h, J = read_values(values)
        row = int(np.argmin(np.abs(eta_table[:, 0] - z)))
        if abs(eta_table[row, 0] - z) > 1e-12:
            problems.append(f"eta.csv has no row for zeta={tag}")
            continue
        problems += aroe_problems(model, z, h, eta_table[row, 1], values.name)
        if not np.array_equal(J, -h):
            problems.append(f"{values.name}: cost_to_go is not -h")
        problems += _rule_problems(model, out / f"policy_zeta_{tag}.csv", h)
        eig = _table(out / f"eigenvalues_zeta_{tag}.csv") @ np.array([1.0, 1j])
        miss = max(float(np.min(np.abs(eig - mu))) for mu in model.wind_eigenvalues)
        if miss > EIG_TOL:
            problems.append(f"eigenvalues_zeta_{tag}.csv: a wind-chain eigenvalue is {miss:.3e} away")
        if J.min() < -COST_TOL or np.max(np.abs(J[model.on_target])) > COST_TOL:
            problems.append(f"{values.name}: cost-to-go negative or nonzero at the target")
        costs.append((z, J))
    for (z0, J0), (z1, J1) in zip(costs, costs[1:]):
        if np.min(J1 - J0) < -COST_TOL:
            problems.append(f"cost-to-go decreases from zeta={ztag(z0)} to zeta={ztag(z1)}")
    for (z0, J0), (z1, J1), (z2, J2) in zip(costs, costs[1:], costs[2:]):
        chord = ((z2 - z1) * J0 + (z1 - z0) * J2) / (z2 - z0)
        if np.min(J1 - chord) < -COST_TOL:
            problems.append(f"cost-to-go is not concave at zeta={ztag(z1)}")
    return problems


def read_fh_values(path: Path, horizon: int) -> np.ndarray:
    """The ``(horizon + 1, d)`` stack of a ``fh_values_zeta_*.csv``."""
    t = _table(path)
    d = t.shape[0] // (horizon + 1)
    if t.shape[0] != d * (horizon + 1) or not np.array_equal(t[:, 0], np.repeat(np.arange(horizon + 1), d)):
        raise ValueError(f"{path.name}: rows are not k = 0..{horizon} by state")
    return t[:, 2].reshape(horizon + 1, d)


def recursion_problems(model: Model, zeta: float, W: np.ndarray, name: str) -> list[str]:
    """``W[0] = zeta U`` and ``W[tau] = zeta U + Lambda(W[tau - 1])``."""
    res = float(np.max(np.abs(W[0] - zeta * model.U)))
    for tau in range(1, W.shape[0]):
        res = max(res, float(np.max(np.abs(W[tau] - zeta * model.U - tilt(model, W[tau - 1])[1]))))
    return [f"{name}: backward recursion residual {res:.3e} exceeds {FH_TOL:g}"] if res > FH_TOL else []


def check_fh(out: Path, model: Model, checkpoints: tuple[float, ...], horizon: int) -> list[str]:
    """Checks of a ``solve-fh`` output directory at each checkpoint."""
    problems: list[str] = []
    for z in checkpoints:
        tag = ztag(z)
        values = out / f"fh_values_zeta_{tag}.csv"
        W = read_fh_values(values, horizon)
        problems += recursion_problems(model, z, W, values.name)
        for k in range(horizon):
            problems += _rule_problems(model, out / f"fh_policy_zeta_{tag}_k_{k}.csv", W[k])
    return problems


def check_validate(stdout: str, rc: int, expected_rows: int) -> list[str]:
    """``validate`` exits 0 and prints the expected number of rows, all PASS."""
    rows = [line for line in stdout.splitlines() if line.startswith(("PASS", "FAIL"))]
    problems = [] if rc == 0 else [f"validate exited {rc}"]
    if len(rows) != expected_rows:
        problems.append(f"validate printed {len(rows)} rows, expected {expected_rows}")
    problems += [f"validate: {row}" for row in rows if not row.startswith("PASS")]
    return problems


def csv_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def _corrupt_line(src: Path, dest: Path, line: int, edit) -> None:
    lines = src.read_text().splitlines()
    fields = lines[line].split(",")
    edit(fields)
    lines[line] = ",".join(fields)
    dest.write_text("\n".join(lines) + "\n")


def self_test(out: Path, model: Model | None, workload, rng, scratch: Path, stdout: str) -> bool:
    """Corrupt one entry of a copied output and confirm that the check rejects it."""
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    if workload.verb == "validate":
        corrupted = stdout.replace("PASS", "FAIL", 1)
        return bool(check_validate(corrupted, 0, workload.validate_rows))
    z = workload.checkpoints[rng.integers(len(workload.checkpoints))]
    tag = ztag(z)
    if workload.verb == "solve-ar":
        eta_table = _table(out / "eta.csv")
        eta = eta_table[int(np.argmin(np.abs(eta_table[:, 0] - z))), 1]
        x = int(rng.choice(np.flatnonzero(~model.on_target)))
        copy = scratch / f"values_zeta_{tag}.csv"

        def shift(fields):  # h up, cost-to-go down: the pair stays consistent
            fields[3] = format(float(fields[3]) + CORRUPTION, ".17g")
            fields[4] = format(float(fields[4]) - CORRUPTION, ".17g")

        _corrupt_line(out / copy.name, copy, 1 + x, shift)
        h, _ = read_values(copy)
        return bool(aroe_problems(model, z, h, eta, copy.name))
    d = model.R0.shape[0]
    k, x = int(rng.integers(workload.horizon + 1)), int(rng.integers(d))
    copy = scratch / f"fh_values_zeta_{tag}.csv"

    def bump(fields):
        fields[2] = format(float(fields[2]) + CORRUPTION, ".17g")

    _corrupt_line(out / copy.name, copy, 1 + k * d + x, bump)
    return bool(recursion_problems(model, z, read_fh_values(copy, workload.horizon), copy.name))
