import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from klmdp import (
    FactoredKernel,
    OdeConfig,
    ProductStateSpace,
    StochasticMatrix,
    UavScenario,
    WindField,
    build_nominal_rule,
    build_scenario_model,
    build_wind_chain,
    controlled_spectrum,
    generate_wind_field,
    recurrent_class,
    rollout_oracle,
    solve_average_reward,
    solve_finite_horizon,
    velocity_field,
)
from klmdp.chain_solvers import BorderedLU
from klmdp.kl_calculus import _tilt_values, tilted_rule
from klmdp.state_space import ClassRows

from conftest import controlled_chain, dense_chain_kernel, induced_transition


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

    @pytest.mark.parametrize("d_a, d_o, d_N, seed, target, sigma_u2", [
        (8, 8, 3, 0, None, 0.5),
        (15, 15, 5, 0, None, 0.5),
        (6, 9, 2, 3, (2, 1), 1.3),
    ])
    def test_matches_the_per_state_loop_bit_for_bit(self, d_a, d_o, d_N, seed, target, sigma_u2):
        # the broadcast rule does the loop's arithmetic element by element, so
        # the scenario files it feeds keep their bytes
        sc = small_scenario(d_a, d_o, d_N, seed, target=target, sigma_u2=sigma_u2)
        coords = sc.location_coords()
        expected = np.zeros((sc.d_L * sc.d_N, sc.d_L))
        for l in range(sc.d_L):
            for n in range(sc.d_N):
                x = l * sc.d_N + n
                if l == sc.target_index:
                    expected[x, sc.target_index] = 1.0
                    continue
                ci = np.clip(coords[l, 0] + sc.wind.table[l, n, 0], 0, sc.d_a - 1)
                cj = np.clip(coords[l, 1] + sc.wind.table[l, n, 1], 0, sc.d_o - 1)
                dist2 = (coords[:, 0] - ci) ** 2 + (coords[:, 1] - cj) ** 2
                row = np.exp(-1.0 / (2.0 * sc.sigma_u2) * dist2)
                expected[x] = row / row.sum()
        np.testing.assert_array_equal(build_nominal_rule(sc).entries.view(np.int64), expected.view(np.int64))


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
        members = recurrent_class(model)
        expected = sc.target_index * sc.d_N + np.arange(sc.d_N)
        np.testing.assert_array_equal(members, expected)

    def test_nominal_eigenvalues_contain_wind_spectrum(self):
        sc = small_scenario(d_N=3)
        model, _ = build_scenario_model(sc)
        eig = controlled_spectrum(model, model.R.entries)
        wind_eig = np.linalg.eigvalsh(build_wind_chain(3, sc.delta_n).entries)
        for lam in wind_eig:
            assert np.min(np.abs(eig - lam)) < 1e-10


def multiset_gap(a, b):
    """Largest distance between matched values when ``a`` and ``b`` are paired one to one."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def hausdorff(a, b):
    cost = np.abs(a[:, None] - b[None, :])
    return float(max(cost.min(axis=1).max(), cost.min(axis=0).max()))


def random_chain(seed, d):
    return np.random.default_rng(seed).dirichlet(np.ones(d), size=d)


def per_call_lumped_spectrum(R, Q0):
    """The spectrum as ``controlled_spectrum`` computed it while it grouped
    the states itself: groups of equal rows of the rule and ``Q0`` found by a
    hash loop on each call, and ``C S`` summed one column of ``C`` at a time."""
    d, d_n = Q0.shape
    by_hash, first, group = {}, [], np.empty(d, dtype=np.intp)
    for x, (r, q) in enumerate(zip(R, Q0)):
        groups = by_hash.setdefault(hash(r.tobytes() + q.tobytes()), [])
        g = next((g for g in groups if np.array_equal(r, R[first[g]]) and np.array_equal(q, Q0[first[g]])), len(first))
        if g == len(first):
            first.append(x)
            groups.append(g)
        group[x] = g
    first = np.array(first)
    Mt = np.empty((first.size, first.size))
    for y in range(d):
        u, n = divmod(y, d_n)
        column = R[first, u] * Q0[first, n]
        if first[group[y]] == y:
            Mt[group[y]] = column
        else:
            Mt[group[y]] += column
    lumped = scipy.linalg.eigvals(Mt.T, overwrite_a=True, check_finite=False)
    eig = np.concatenate([lumped, np.zeros(d - first.size, dtype=lumped.dtype)])
    return eig[np.lexsort((-eig.imag, -eig.real, -np.abs(eig)))]


def dense_spectrum(P):
    """The spectrum of a chain held as a dense ``P``: the kernel ``R = P``, ``Q0 = ones((d, 1))``, and its own rule."""
    return controlled_spectrum(dense_chain_kernel(P), P)


class TestControlledSpectrum:
    def test_duplicate_rows_give_exact_zeros(self):
        a = random_chain(7, 12)
        a[[3, 5, 8, 10, 11]] = a[[0, 0, 1, 4, 9]]  # 7 distinct rows
        eig = dense_spectrum(a)
        assert eig.size == 12
        assert multiset_gap(eig, np.linalg.eigvals(a)) < 1e-12
        assert np.count_nonzero(eig == 0) == 12 - 7

    def test_factored_duplicate_rows_give_exact_zeros(self):
        rng = np.random.default_rng(10)
        R = rng.dirichlet(np.ones(4), size=12)
        Q0 = rng.dirichlet(np.ones(3), size=12)
        R[[5, 9]] = R[2]
        Q0[[5, 9]] = Q0[2]  # states 2, 5 and 9 share both rows
        Q0[7] = Q0[1]  # state 7 shares only its Q0 row: a group of its own
        kernel = FactoredKernel(ProductStateSpace(4, 3), StochasticMatrix(R), StochasticMatrix(Q0))
        eig = controlled_spectrum(kernel, R)
        assert eig.size == 12
        P = np.einsum("xu,xn->xun", R, Q0).reshape(12, 12)  # P(x, (u, n)) = R(x, u) Q0(x, n)
        assert multiset_gap(eig, np.linalg.eigvals(P)) < 1e-12
        assert np.count_nonzero(eig == 0) == 2

    def test_distinct_rows_match_dense(self):
        a = random_chain(8, 9)
        eig = dense_spectrum(a)
        assert multiset_gap(eig, np.linalg.eigvals(a)) < 1e-12

    def test_read_only_input_unchanged(self):
        a = random_chain(9, 6)
        a[4] = a[1]
        P = StochasticMatrix(a)
        kernel = FactoredKernel(ProductStateSpace(6, 1), P, StochasticMatrix(np.ones((6, 1))))
        before = P.entries.copy()
        controlled_spectrum(kernel, P.entries)
        assert not P.entries.flags.writeable
        np.testing.assert_array_equal(P.entries, before)

    def test_uav_nominal_chain(self):
        sc = small_scenario()
        model, _ = build_scenario_model(sc)
        P = induced_transition(model)
        eig = controlled_spectrum(model, model.R.entries)
        assert abs(eig[0] - 1.0) < 1e-12
        for lam in np.linalg.eigvalsh(build_wind_chain(sc.d_N, sc.delta_n).entries):
            assert np.min(np.abs(eig - lam)) < 1e-10
        assert hausdorff(eig, np.linalg.eigvals(P.entries)) < 1e-8

    def test_tilted_uav_chain_leading_eigenvalues_match_dense(self):
        # LAPACK on the transpose of the lumped matrix misses these by 1.6e-11
        sc = small_scenario(d_a=8, d_o=8, d_N=3)
        model, utility = build_scenario_model(sc)
        cfg = OdeConfig(zeta_max=1.0, step=0.01, checkpoints=(1.0,))
        cp = solve_average_reward(model, utility, cfg, basepoint=sc.basepoint).checkpoints[-1]
        dense = np.linalg.eigvals(controlled_chain(cp))
        dense = dense[np.lexsort((-dense.imag, -dense.real, -np.abs(dense)))]
        eig = controlled_spectrum(cp.kernel, cp.policy().entries)
        np.testing.assert_allclose(eig[:10], dense[:10], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("zeta", [0.0, 1.0], ids=["nominal", "checkpoint-1"])
    @pytest.mark.parametrize("grid", [(8, 8, 3), (15, 15, 5)])
    def test_kernel_groups_give_the_per_call_spectrum_bit_for_bit(self, grid, zeta):
        # the kernel's groups of equal (R0, Q0) rows are the groups of equal
        # rows of the rule and Q0, for the nominal rule and a tilt of it, and
        # M = C S is summed in the same order
        sc = small_scenario(*grid)
        model, utility = build_scenario_model(sc)
        rule = model.R.entries
        if zeta:
            cfg = OdeConfig(zeta_max=zeta, step=0.05, checkpoints=(zeta,))
            rule = solve_average_reward(model, utility, cfg, sc.basepoint).checkpoints[-1].policy().entries
        eig = controlled_spectrum(model, rule)
        expected = per_call_lumped_spectrum(rule, model.Q0.entries)
        for part in ("real", "imag"):
            np.testing.assert_array_equal(getattr(eig, part).view(np.int64), getattr(expected, part).view(np.int64))

    def test_rule_that_splits_a_group_is_rejected(self):
        model, _ = build_scenario_model(small_scenario())
        x = model.lumping[2][0][0][0]  # the second state of its group
        rule = model.R.entries.copy()
        rule[x] = np.roll(rule[x], 1)
        with pytest.raises(ValueError, match="not a tilt of the kernel's rule"):
            controlled_spectrum(model, rule)

    def test_factors_lump_as_the_dense_chain_bit_for_bit(self):
        # equal factor rows group as equal rows of P, and each entry of the
        # lumped matrix sums the same products of the factors in the same order
        sc = small_scenario(d_a=8, d_o=8, d_N=3)
        model, utility = build_scenario_model(sc)
        cfg = OdeConfig(zeta_max=0.5, step=0.01, checkpoints=(0.5,))
        cp = solve_average_reward(model, utility, cfg, basepoint=sc.basepoint).checkpoints[-1]
        np.testing.assert_array_equal(
            controlled_spectrum(cp.kernel, cp.policy().entries),
            dense_spectrum(controlled_chain(cp)),
        )


def peak_bytes(f) -> int:
    """Peak of the memory that ``f()`` allocates and numpy reports to tracemalloc."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoDenseChain:
    """A dense d x d float array is 8 d^2 bytes.  At the gen-scenario default
    15x15x5 (d = 1125, r = 928 groups), the spectrum peaks below one, the
    structure check below one (d, d_u) rule (8 d d_u bytes, 2.0 MB), and the
    bordered LU, with its certified first solve, holds its lumped r x r matrix
    and the r x (d - r) block it keeps, 8 r d bytes, with no dense chain and
    no d x d matrix or rule beside them.  A finite-horizon solve holds its
    values, its own copy of R0 in class order, and less than one rule beside;
    with only zeta = 0 to solve it makes no copy."""

    @pytest.fixture(scope="class")
    def uav15(self):
        sc = small_scenario(d_a=15, d_o=15, d_N=5)
        model, U = build_scenario_model(sc)
        return sc, model, U

    def test_structure_check(self, uav15):
        _, model, _ = uav15
        d = model.space.d
        assert peak_bytes(lambda: recurrent_class(model)) < 8 * d * model.space.d_u

    def test_spectrum(self, uav15):
        _, model, _ = uav15
        d = model.space.d
        assert peak_bytes(lambda: controlled_spectrum(model, model.R.entries)) < 8 * d**2

    def test_bordered_lu(self, uav15):
        sc, model, U = uav15
        d, r = model.space.d, model.lumping[1].size
        assert r == 928
        # the corrector's copies of R0, in class order and at the representatives, made before its first LU
        rows = ClassRows(model)
        lu = BorderedLU(rows, sc.basepoint)
        tilts = [_tilt_values(zeta * U, rows)[:2] for zeta in (1.0, 2.0)]

        def factor_and_solve():
            for e, s in tilts:  # the second is factored over the first, which it drops first
                lu.factor(e, s)
                lu.solve(U)

        peak = peak_bytes(factor_and_solve)
        # 1 MiB of scratch, the certified first solves included; one rule is 2.0 MB
        assert 8 * r**2 <= peak < 8 * r * d + 2**20

    def test_finite_horizon(self, uav15):
        _, model, U = uav15
        d, T = model.space.d, 6
        cfg = OdeConfig(zeta_max=2.0, checkpoints=(0.0, 1.0, 2.0))
        peak = peak_bytes(lambda: solve_finite_horizon(model, U, T, cfg))
        rule = 8 * d * model.space.d_u
        assert peak < 3 * 8 * (T + 1) * d + 2 * rule  # the three W, the class-ordered R0, and less than one rule

    def test_finite_horizon_at_zeta_zero(self, uav15):
        # W = 0 exactly there, and no tilt runs: no class-ordered copy of R0 is made
        _, model, U = uav15
        cfg = OdeConfig(zeta_max=0.0, checkpoints=(0.0,))
        peak = peak_bytes(lambda: solve_finite_horizon(model, U, 6, cfg))
        assert peak < 8 * model.space.d * model.space.d_u / 2


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
            J = -cp.h
            assert np.all(J >= -1e-12)
            for n in range(sc.d_N):
                assert J[sc.target_index * sc.d_N + n] <= 1e-9

    def test_cost_to_go_nondecreasing_in_weight(self, solved):
        _, _, path = solved
        J = np.stack([-cp.h for cp in path.checkpoints])
        assert np.all(np.diff(J, axis=0) >= -1e-9)

    def test_wind_spectrum_survives_control(self, solved):
        sc, _, path = solved
        wind_eig = np.linalg.eigvalsh(build_wind_chain(sc.d_N, sc.delta_n).entries)
        for cp in path.checkpoints:
            eig = controlled_spectrum(cp.kernel, cp.policy().entries)
            assert eig[0] == pytest.approx(1.0, abs=1e-9)
            for lam in wind_eig:
                assert np.min(np.abs(eig - lam)) < 1e-8

    def test_velocity_shapes_and_target_rest(self, solved):
        sc, _, path = solved
        cp = path.checkpoints[-1]
        v = velocity_field(cp.policy(), sc)
        assert v.shape == (sc.d_L, sc.d_N, 2)
        np.testing.assert_allclose(v[sc.target_index], 0.0, atol=1e-12)

    def test_control_pulls_toward_target(self, solved):
        # at the start corner (0, 0), the optimal drift should have larger
        # projection onto the target direction than the nominal drift
        sc, model, path = solved
        cp = path.checkpoints[-1]
        v_opt = velocity_field(cp.policy(), sc)
        v_nom = velocity_field(model.R, sc)
        towards = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert v_opt[0, 0] @ towards > v_nom[0, 0] @ towards


class TestVelocityField:
    @pytest.mark.parametrize("which", ["nominal", "checkpoint"])
    def test_matches_the_per_row_mean_displacement(self, solved, which):
        # v(l, n) = sum_l' rule((l, n), l') coords(l') - coords(l), one row at a time
        sc, model, path = solved
        rule = model.R if which == "nominal" else path.checkpoints[-1].policy()
        coords = sc.location_coords().astype(float)
        expected = np.array([
            [rule.entries[l * sc.d_N + n] @ coords - coords[l] for n in range(sc.d_N)] for l in range(sc.d_L)
        ])
        np.testing.assert_allclose(velocity_field(rule, sc), expected, rtol=0, atol=1e-13)


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
        rule = tilted_rule(np.zeros(model.space.d), model)
        a = rollout_oracle(model, rule, sc, 0.5, start=0, trials=30, horizon_cap=500, seed=9)
        b = rollout_oracle(model, rule, sc, 0.5, start=0, trials=30, horizon_cap=500, seed=9)
        assert a.mean == b.mean and a.half_width_95 == b.half_width_95

    def test_matches_cost_to_go(self):
        sc = small_scenario()
        model, utility = build_scenario_model(sc)
        cfg = OdeConfig(zeta_max=1.0, step=0.01, checkpoints=(1.0,))
        cp = solve_average_reward(model, utility, cfg, basepoint=sc.basepoint).checkpoints[-1]
        start = 0  # corner opposite the target
        out = rollout_oracle(model, cp.policy(), sc, 1.0, start=start,
                             trials=3000, horizon_cap=10_000, seed=5)
        assert out.censored == 0
        J = -cp.h[start]
        assert abs(out.mean - J) <= 3.0 * out.half_width_95
