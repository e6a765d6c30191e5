import numpy as np
import pytest

from klmdp import (
    OdeConfig,
    StochasticMatrix,
    UavScenario,
    WindField,
    build_nominal_rule,
    build_scenario_model,
    build_wind_chain,
    controlled_spectrum,
    cost_to_go,
    generate_wind_field,
    induced_transition,
    recurrent_class,
    rollout_oracle,
    solve_average_reward,
    velocity_field,
)
from klmdp.kl_calculus import _tilt_values


def small_scenario(d_a=4, d_o=4, d_N=2, seed=0, **kw):
    return UavScenario(d_a=d_a, d_o=d_o, d_N=d_N, wind=generate_wind_field(d_a, d_o, d_N, seed=seed), **kw)


class TestWindChain:
    def test_two_state_half_mixing(self):
        Q = build_wind_chain(2, 0.5)
        # +delta/2 in each cyclic direction lands on the same neighbor
        np.testing.assert_allclose(Q.entries, np.full((2, 2), 0.5))

    def test_structure(self):
        Q = build_wind_chain(5, 0.05).entries
        np.testing.assert_allclose(np.diag(Q), 0.95)
        assert Q[0, 4] == pytest.approx(0.025)
        assert Q[4, 0] == pytest.approx(0.025)
        np.testing.assert_allclose(Q, Q.T)

    def test_eigenvalues_closed_form(self):
        Q = build_wind_chain(5, 0.05).entries
        eig = np.sort(np.linalg.eigvalsh(Q))[::-1]
        expected = np.sort(1.0 - 0.05 * (1.0 - np.cos(2.0 * np.pi * np.arange(5) / 5)))[::-1]
        np.testing.assert_allclose(eig, expected, atol=1e-12)
        assert eig[1] == pytest.approx(0.9654508497187474, abs=1e-12)
        assert eig[3] == pytest.approx(0.9095491502812527, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_wind_chain(1, 0.1)
        with pytest.raises(ValueError):
            build_wind_chain(3, 0.0)


class TestWindField:
    def test_codomain_and_determinism(self):
        wf = generate_wind_field(6, 5, 3, seed=42)
        assert wf.table.shape == (30, 3, 2)
        assert set(np.unique(wf.table)) <= {-1, 0, 1}
        wf2 = generate_wind_field(6, 5, 3, seed=42)
        np.testing.assert_array_equal(wf.table, wf2.table)
        wf3 = generate_wind_field(6, 5, 3, seed=43)
        assert np.any(wf.table != wf3.table)

    def test_rejects_large_displacements(self):
        with pytest.raises(ValueError):
            WindField(np.full((4, 2, 2), 2))


class TestScenario:
    def test_indices(self):
        sc = small_scenario(d_a=3, d_o=4, d_N=2, target=(1, 2))
        assert sc.d_L == 12
        assert sc.target_index == 6
        assert sc.basepoint == 12
        coords = sc.location_coords()
        assert coords.shape == (12, 2)
        np.testing.assert_array_equal(coords[sc.target_index], [1, 2])

    def test_default_target_is_far_corner(self):
        sc = small_scenario(d_a=5, d_o=3, d_N=2)
        assert sc.target == (4, 2)

    def test_full_scale_dimension(self):
        sc = UavScenario(d_a=15, d_o=15, d_N=5, wind=generate_wind_field(15, 15, 5, seed=7))
        model, utility = build_scenario_model(sc)
        assert model.space.d == 1125
        assert utility.shape == (1125,)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            small_scenario(target=(4, 0))


class TestNominalRule:
    def test_target_rows_absorbing(self):
        sc = small_scenario()
        R = build_nominal_rule(sc).entries
        for n in range(sc.d_N):
            row = R[sc.target_index * sc.d_N + n]
            assert row[sc.target_index] == 1.0
            assert row.sum() == 1.0

    def test_gaussian_row_hand_value(self):
        # 2x2 grid, zero wind, center at (0, 0): weights exp(-d^2) over
        # squared distances {0, 1, 1, 2}
        wind = WindField(np.zeros((4, 2, 2), dtype=int))
        sc = UavScenario(d_a=2, d_o=2, d_N=2, wind=wind, sigma_u2=0.5)
        R = build_nominal_rule(sc).entries
        w = np.exp(-np.array([0.0, 1.0, 1.0, 2.0]))
        np.testing.assert_allclose(R[0], w / w.sum(), atol=1e-14)

    def test_wind_shifts_center(self):
        table = np.zeros((9, 1, 2), dtype=int)
        table[4, 0] = [1, 0]  # at the grid center, wind pushes one row down
        sc = UavScenario(d_a=3, d_o=3, d_N=1, wind=WindField(table), delta_n=0.5, target=(0, 0))
        R = build_nominal_rule(sc).entries
        assert np.argmax(R[4]) == 7  # location (2, 1)

    def test_center_clamped_at_boundary(self):
        table = np.zeros((4, 1, 2), dtype=int)
        table[:] = [1, 1]  # wind pushes off-grid from the far corner
        sc = UavScenario(d_a=2, d_o=2, d_N=1, wind=WindField(table), delta_n=0.5, target=(0, 0))
        R = build_nominal_rule(sc).entries
        assert np.argmax(R[3 * 1]) == 3  # center clamps to (1, 1) itself

    def test_rows_strictly_positive_off_target(self):
        sc = small_scenario()
        R = build_nominal_rule(sc).entries
        off_target = [x for x in range(R.shape[0]) if x // sc.d_N != sc.target_index]
        assert np.all(R[off_target] > 0)


class TestModelStructure:
    def test_utility_is_off_target_indicator(self):
        sc = small_scenario()
        _, utility = build_scenario_model(sc)
        for x in range(utility.size):
            expected = 0.0 if x // sc.d_N == sc.target_index else -1.0
            assert utility[x] == expected

    def test_recurrent_class_is_target_times_wind(self):
        sc = small_scenario()
        model, _ = build_scenario_model(sc)
        P = induced_transition(model).entries
        members = recurrent_class(P)
        expected = sc.target_index * sc.d_N + np.arange(sc.d_N)
        np.testing.assert_array_equal(members, expected)

    def test_nominal_eigenvalues_contain_wind_spectrum(self):
        sc = small_scenario(d_N=3)
        model, _ = build_scenario_model(sc)
        eig = controlled_spectrum(induced_transition(model))
        wind_eig = np.linalg.eigvalsh(build_wind_chain(3, sc.delta_n).entries)
        for lam in wind_eig:
            assert np.min(np.abs(eig - lam)) < 1e-10


@pytest.fixture(scope="module")
def solved():
    sc = small_scenario()
    model, utility = build_scenario_model(sc)
    cfg = OdeConfig(zeta_max=1.0, step=0.01, checkpoints=(0.0, 0.5, 1.0))
    path = solve_average_reward(model, utility, cfg, basepoint=sc.basepoint)
    return sc, model, path


class TestSolvedFamily:
    def test_cost_to_go_nonnegative_and_zero_at_target(self, solved):
        sc, _, path = solved
        for cp in path.checkpoints:
            J = cost_to_go(cp)
            assert np.all(J >= -1e-12)
            for n in range(sc.d_N):
                assert J[sc.target_index * sc.d_N + n] <= 1e-9

    def test_cost_to_go_nondecreasing_in_weight(self, solved):
        _, _, path = solved
        J = np.stack([cost_to_go(cp) for cp in path.checkpoints])
        assert np.all(np.diff(J, axis=0) >= -1e-9)

    def test_wind_spectrum_survives_control(self, solved):
        sc, _, path = solved
        wind_eig = np.linalg.eigvalsh(build_wind_chain(sc.d_N, sc.delta_n).entries)
        for cp in path.checkpoints:
            eig = controlled_spectrum(cp.controlled_P)
            assert eig[0] == pytest.approx(1.0, abs=1e-9)
            for lam in wind_eig:
                assert np.min(np.abs(eig - lam)) < 1e-8

    def test_velocity_shapes_and_target_rest(self, solved):
        sc, _, path = solved
        cp = path.checkpoints[-1]
        v = velocity_field(cp.tilted_rule, sc)
        assert v.shape == (sc.d_L, sc.d_N, 2)
        np.testing.assert_allclose(v[sc.target_index], 0.0, atol=1e-12)

    def test_control_pulls_toward_target(self, solved):
        # at the start corner (0, 0), the optimal drift should have larger
        # projection onto the target direction than the nominal drift
        sc, model, path = solved
        cp = path.checkpoints[-1]
        v_opt = velocity_field(cp.tilted_rule, sc)
        v_nom = velocity_field(model.R, sc)
        towards = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert v_opt[0, 0] @ towards > v_nom[0, 0] @ towards


class TestVelocityAtZeroWeight:
    def test_interior_drift_matches_wind(self):
        # with no utility weight, the rule is nominal: away from boundary
        # clamping the mean displacement is the wind displacement itself up
        # to Gaussian truncation error
        sc = UavScenario(d_a=9, d_o=9, d_N=2, wind=generate_wind_field(9, 9, 2, seed=3))
        model, _ = build_scenario_model(sc)
        v = velocity_field(model.R, sc)
        coords = sc.location_coords()
        for l in range(sc.d_L):
            i, j = coords[l]
            if min(i, j) < 3 or min(sc.d_a - 1 - i, sc.d_o - 1 - j) < 3:
                continue
            if l == sc.target_index:
                continue
            for n in range(sc.d_N):
                np.testing.assert_allclose(v[l, n], sc.wind.table[l, n], atol=0.05)


class TestRolloutOracle:
    def test_zero_weight_from_target_is_free(self):
        sc = small_scenario()
        model, _ = build_scenario_model(sc)
        out = rollout_oracle(model, model.R, sc, zeta=0.0, start=sc.basepoint,
                             trials=50, horizon_cap=100, seed=1)
        assert out.mean == 0.0
        assert out.half_width_95 == 0.0
        assert out.censored == 0

    def test_zero_weight_nominal_rule_costs_nothing(self):
        sc = small_scenario()
        model, _ = build_scenario_model(sc)
        out = rollout_oracle(model, model.R, sc, zeta=0.0, start=0,
                             trials=50, horizon_cap=5000, seed=2)
        assert out.mean == 0.0
        assert out.censored_fraction == 0.0

    def test_seed_determinism(self):
        sc = small_scenario()
        model, utility = build_scenario_model(sc)
        rule = StochasticMatrix(_tilt_values(np.zeros(model.space.d), model)[0])
        a = rollout_oracle(model, rule, sc, 0.5, start=0, trials=30, horizon_cap=500, seed=9)
        b = rollout_oracle(model, rule, sc, 0.5, start=0, trials=30, horizon_cap=500, seed=9)
        assert a.mean == b.mean and a.half_width_95 == b.half_width_95

    def test_matches_cost_to_go(self):
        sc = small_scenario()
        model, utility = build_scenario_model(sc)
        cfg = OdeConfig(zeta_max=1.0, step=0.01, checkpoints=(1.0,))
        cp = solve_average_reward(model, utility, cfg, basepoint=sc.basepoint).checkpoints[-1]
        start = 0  # corner opposite the target
        out = rollout_oracle(model, cp.tilted_rule, sc, 1.0, start=start,
                             trials=3000, horizon_cap=10_000, seed=5)
        assert out.censored == 0
        J = cost_to_go(cp)[start]
        assert abs(out.mean - J) <= 3.0 * out.half_width_95
