"""Acceptance suite.

Each test prints one PASS/FAIL line naming the criterion it checks, then
asserts it.  Run with ``pytest -v`` (add ``-s`` to see the lines on success).
"""

import time

import numpy as np
import pytest

from klmdp import (
    OdeConfig,
    UavScenario,
    build_scenario_model,
    build_wind_chain,
    controlled_spectrum,
    aroe_fixed_point_oracle,
    fh_block_ode_oracle,
    generate_wind_field,
    perron_frobenius_baseline,
    rollout_oracle,
    solve_average_reward,
    solve_finite_horizon,
    velocity_field,
)
from conftest import (
    controlled_chain,
    dense_bordered_lu,
    induced_transition,
    random_factored_model,
    random_utility,
)


def _report(label: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def uav_sweep():
    """Reduced-scale UAV family: full sweep to zeta = 2 at step 0.01."""
    sc = UavScenario(d_a=8, d_o=8, d_N=3, wind=generate_wind_field(8, 8, 3, seed=0))
    model, utility = build_scenario_model(sc)
    cfg = OdeConfig(zeta_max=2.0, step=0.01, checkpoints=(0.0, 1.0, 2.0))
    t0 = time.perf_counter()
    path = solve_average_reward(model, utility, cfg, basepoint=sc.basepoint)
    elapsed = time.perf_counter() - t0
    return sc, model, utility, path, elapsed


def test_criterion_1_wind_chain_spectrum():
    eig = np.linalg.eigvalsh(build_wind_chain(5, 0.05).entries)
    distinct = {1.0, 0.9655, 0.9095}
    ok = all(np.min(np.abs(eig - lam)) <= 1e-3 for lam in distinct)
    ok = ok and all(np.min(np.abs(np.array(list(distinct)) - lam)) <= 1e-3 for lam in eig)
    _report("criterion 1: wind chain has distinct eigenvalues {1, 0.9655, 0.9095} within 1e-3", ok)


def test_criterion_2_spectrum_lines_invariant(uav_sweep):
    sc, _, _, path, elapsed = uav_sweep
    wind_eig = np.linalg.eigvalsh(build_wind_chain(sc.d_N, sc.delta_n).entries)
    worst = 0.0
    for cp in path.checkpoints:
        spectrum = controlled_spectrum(cp.kernel, cp.policy().entries)
        for lam in wind_eig:
            worst = max(worst, float(np.min(np.abs(spectrum - lam))))
    ok = worst <= 1e-3 and elapsed < 120.0
    _report(
        "criterion 2: wind eigenvalues persist in every controlled spectrum "
        "(reduced 8x8x3 sweep to zeta=2, under 2 minutes)",
        ok,
        f"max gap {worst:.2e}, sweep {elapsed:.1f}s",
    )


def test_criterion_3_ode_vs_fixed_point_oracle():
    rng = np.random.default_rng(1003)
    zetas = (0.3, 0.7, 1.5)
    cfg = OdeConfig(zeta_max=1.5, step=0.005, checkpoints=zetas)
    worst = 0.0
    for _ in range(20):
        d_u = int(rng.integers(2, 6))
        d_n = int(rng.integers(1, 4))
        kernel = random_factored_model(rng, d_u, d_n)
        U = random_utility(rng, d_u * d_n)
        path = solve_average_reward(kernel, U, cfg)
        for cp in path.checkpoints:
            h, eta = aroe_fixed_point_oracle(kernel, U, cp.zeta)
            worst = max(worst, float(np.max(np.abs(h - cp.h))), abs(eta - cp.eta))
    ok = worst <= 1e-6
    _report(
        "criterion 3: continuation ODE matches fixed-point oracle on 20 random models within 1e-6",
        ok,
        f"max gap {worst:.2e}",
    )


def test_criterion_4_perron_frobenius_equivalence():
    rng = np.random.default_rng(1004)
    cfg = OdeConfig(zeta_max=1.0, step=0.001, checkpoints=(1.0,))
    worst_P, worst_eta = 0.0, 0.0
    for _ in range(10):
        d_u = int(rng.integers(2, 6))
        kernel = random_factored_model(rng, d_u, 1)
        U = random_utility(rng, d_u)
        cp = solve_average_reward(kernel, U, cfg).checkpoints[-1]
        lam, _, twisted = perron_frobenius_baseline(induced_transition(kernel), U, 1.0, x0=0)
        worst_P = max(worst_P, float(np.max(np.abs(twisted.entries - controlled_chain(cp)))))
        worst_eta = max(worst_eta, abs(cp.eta - np.log(lam)))
    ok = worst_P <= 1e-6 and worst_eta <= 1e-8
    _report(
        "criterion 4: unconstrained case matches the eigenvector baseline "
        "(twisted matrix within 1e-6, eta vs log lambda within 1e-8)",
        ok,
        f"max matrix gap {worst_P:.2e}, max eta gap {worst_eta:.2e}",
    )


def test_criterion_5_finite_horizon_vs_backward_dp():
    rng = np.random.default_rng(1005)
    zetas = (0.5, 1.0)
    cfg = OdeConfig(zeta_max=1.0, step=0.005, checkpoints=zetas)
    T = 6
    worst = 0.0
    for _ in range(10):
        d_u = int(rng.integers(2, 5))
        d_n = int(rng.integers(1, 4))
        kernel = random_factored_model(rng, d_u, d_n)
        U = random_utility(rng, d_u * d_n)
        path = solve_finite_horizon(kernel, U, T, cfg)
        for cp in path.checkpoints:
            oracle = fh_block_ode_oracle(kernel, U, T, cp.zeta, cfg.step)
            worst = max(worst, float(np.max(np.abs(cp.W - oracle))))
    ok = worst <= 1e-5
    _report(
        "criterion 5: finite-horizon backward recursion matches the block ODE on 10 random models within 1e-5",
        ok,
        f"max gap {worst:.2e}",
    )


def test_criterion_6_residuals_at_checkpoints(uav_sweep):
    sc, _, utility, path, _ = uav_sweep
    runs = [(path, utility, sc.basepoint)]
    rng = np.random.default_rng(1006)
    cfg = OdeConfig(zeta_max=1.0, step=0.01, checkpoints=(0.25, 0.5, 1.0))
    for _ in range(3):
        kernel = random_factored_model(rng, 4, 2)
        U = random_utility(rng, 8)
        runs.append((solve_average_reward(kernel, U, cfg), U, 0))
    worst_poisson, worst_aroe = 0.0, 0.0
    for run, U, x0 in runs:
        for cp in run.checkpoints:
            P = controlled_chain(cp)
            H, eta = dense_bordered_lu(P, x0).solve(U)
            res = P @ H - H + U - eta
            worst_poisson = max(worst_poisson, float(np.max(np.abs(res))))
            worst_aroe = max(worst_aroe, cp.aroe_residual_sup)
    ok = worst_poisson <= 1e-6 and worst_aroe <= 1e-6
    _report(
        "criterion 6: Poisson residual at every emitted checkpoint within 1e-6 "
        "and optimality-equation residual within tolerance",
        ok,
        f"max Poisson residual {worst_poisson:.2e}, max AROE residual {worst_aroe:.2e}",
    )


def test_criterion_7_convexity_and_monotonicity(uav_sweep):
    _, _, _, path, _ = uav_sweep
    eta = np.asarray(path.eta_trace)
    ok = bool(np.all(np.diff(eta, 2) >= -1e-8)) and bool(np.all(np.diff(eta) <= 1e-12))

    rng = np.random.default_rng(1007)
    kernel = random_factored_model(rng, 3, 2)
    U = -rng.uniform(0.0, 1.0, size=6)
    zetas = tuple(np.round(np.arange(0.0, 1.001, 0.05), 10))
    cfg = OdeConfig(zeta_max=1.0, step=0.01, checkpoints=zetas)
    W = np.stack([cp.W for cp in solve_finite_horizon(kernel, U, 4, cfg).checkpoints])
    ok = ok and bool(np.all(np.diff(W, 2, axis=0) >= -1e-8))
    ok = ok and bool(np.all(np.diff(W, axis=0) <= 1e-12))
    _report(
        "criterion 7: optimal average reward and horizon blocks are convex in the weight "
        "and non-increasing for non-positive utility",
        ok,
    )


def test_criterion_8_rollout_validation():
    sc = UavScenario(d_a=4, d_o=4, d_N=2, wind=generate_wind_field(4, 4, 2, seed=0))
    model, utility = build_scenario_model(sc)
    cfg = OdeConfig(zeta_max=1.0, step=0.01, checkpoints=(1.0,))
    cp = solve_average_reward(model, utility, cfg, basepoint=sc.basepoint).checkpoints[-1]
    start = 0  # corner location (1, 1), first wind state
    result = rollout_oracle(model, cp.policy(), sc, 1.0, start=start,
                            trials=10_000, horizon_cap=10_000, seed=0)
    gap = abs(result.mean - -cp.h[start])
    ok = result.censored == 0 and gap <= 3.0 * result.half_width_95
    _report(
        "criterion 8: Monte Carlo accumulated cost from the corner matches the solver "
        "cost-to-go within 3 confidence half-widths (10^4 trials)",
        ok,
        f"gap {gap:.3f}, half-width {result.half_width_95:.3f}",
    )


def test_criterion_9_boundary_exactness(uav_sweep):
    _, model, _, path, _ = uav_sweep
    cp = path.checkpoints[0]
    assert cp.zeta == 0.0
    P0 = induced_transition(model).entries
    ok = (
        bool(np.all(cp.h == 0.0))
        and cp.eta == 0.0
        and float(np.max(np.abs(controlled_chain(cp) - P0))) <= 1e-14
    )
    _report("criterion 9: zero-weight checkpoint is exact (h = 0, eta = 0, nominal chain)", ok)


def test_figure_structure_substitutes(uav_sweep):
    # the published surfaces/quivers depend on an unspecified wind sample, so
    # the checks here are structural rather than numeric reproductions
    sc, model, _, path, _ = uav_sweep
    coords = sc.location_coords()
    v0 = velocity_field(model.R, sc)
    ok = True
    for l in range(sc.d_L):
        i, j = coords[l]
        if l == sc.target_index or min(i, j) < 3 or min(sc.d_a - 1 - i, sc.d_o - 1 - j) < 3:
            continue
        for n in range(sc.d_N):
            ok = ok and bool(np.all(np.abs(v0[l, n] - sc.wind.table[l, n]) <= 0.05))
    for cp in path.checkpoints:
        v = velocity_field(cp.policy(), sc)
        ok = ok and bool(np.all(np.abs(v[sc.target_index]) <= 1e-12))
    J = np.stack([-cp.h for cp in path.checkpoints])
    ok = ok and bool(np.all(np.diff(J, axis=0) >= -1e-9))
    _report(
        "figure substitutes: nominal drift matches wind in the interior, target is at rest, "
        "cost-to-go non-decreasing in the weight",
        ok,
    )
