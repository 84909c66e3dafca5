import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import hbar
from scipy.integrate import quad

from coldstack import (
    CableModel,
    CryoEfficiencyModel,
    ElectronicsScenario,
    QubitTechnology,
    Workload,
    attenuator_heat_fractions,
    cable_heat_flow,
    demodulation_power_per_qubit,
    evaluate_ft_point,
    physical_gate_counts_rectangular,
    pi_pulse_power,
    stage_temperatures,
    static_power_breakdown,
    syndrome_power_per_qubit,
)
from coldstack import optimize, thermal
from coldstack.optimize import FtToggles
from coldstack.thermal import (
    AREA_ABOVE_10K_M2,
    AREA_BELOW_10K_M2,
    CARNOT,
    KAPTON_LOW,
    KAPTON_MID,
    _conduction_integral,
    conduction_heat_per_qubit,
    conduction_rises,
    grid_conduction_rises,
    steel_conductivity,
)

from conftest import OMEGA0

CABLE = CableModel()
SMALL_SCALE = CryoEfficiencyModel("small_scale")
SCEN_A = ElectronicsScenario.preset("A")


def _drive_power(t_qb, t_gen, a_total, p_pi, k_stages=5):
    """Electrical power of one sustained drive: the heat each stage's
    attenuator takes from it, extracted at that stage's cost."""
    temps = stage_temperatures(t_qb, t_gen, k_stages)
    fractions = attenuator_heat_fractions(a_total, k_stages)
    return float(p_pi * np.sum(CARNOT.heat_multiplier(temps) * fractions))


def _attenuator_power(tech, t_qb=0.02, t_gen=300.0, a_total=1e4, k=1):
    """Attenuator rows of the fault-tolerant breakdown for one logical
    qubit, with the drive rated at tau_2qb so that its power does not
    depend on tau_1qb."""
    ev = evaluate_ft_point(Workload(1, 1), tech, SCEN_A, CABLE, CARNOT, t_qb, t_gen,
                           a_total, k, FtToggles(two_qubit_drive_duration="tau_2qb"))
    return sum(r.electrical_power_w for r in ev.per_stage if r.source == "attenuator")


class TestStageLayout:
    def test_geometric_spacing_over_four_decades(self):
        temps = stage_temperatures(0.01, 100.0, k_stages=5)
        assert np.allclose(temps, [0.01, 0.1, 1.0, 10.0, 100.0], rtol=1e-12)

    def test_equal_attenuation_split(self):
        cum = np.cumsum(attenuator_heat_fractions(1e8, k_stages=5))
        assert np.allclose(cum[:-1], [1e2, 1e4, 1e6, 1e8], rtol=1e-12)
        assert cum[-1] == pytest.approx(1e8, rel=1e-12)

    def test_two_stage_layout_is_single_attenuator(self):
        assert stage_temperatures(0.02, 300.0, k_stages=2).tolist() == [0.02, 300.0]
        assert attenuator_heat_fractions(1e3, k_stages=2).tolist() == [1e3, 0.0]

    @pytest.mark.parametrize("k_stages", [2, 3, 5, 7])
    def test_fractions_of_a_selection_are_those_of_the_grid(self, k_stages):
        # the search prices the kept points of a grid as a 1-D selection;
        # each must get the bits it gets on the grid, bounds included
        rng = np.random.default_rng(11)
        a_total = 10.0 ** rng.uniform(0.0, 12.0, (146, 77))
        a_total[rng.random(a_total.shape) < 0.3] = 1e12
        a_total[rng.random(a_total.shape) < 0.2] = 1.0
        grid = attenuator_heat_fractions(a_total, k_stages)
        for share in (0.01, 0.3, 1.0):
            at = np.nonzero(rng.random(a_total.shape) < share)
            assert np.array_equal(attenuator_heat_fractions(a_total[at], k_stages),
                                  grid[(slice(None), *at)]), share

    @pytest.mark.parametrize("k_stages", range(2, 9))
    @pytest.mark.parametrize("shape", [(), (1,), (37,), (146, 77), (3, 1)])
    def test_fractions_equal_the_stacked_differences(self, k_stages, shape):
        # the fractions as first written: the cumulative attenuations stacked,
        # differenced along the stages and a zero row appended
        rng = np.random.default_rng(k_stages)
        a_total = np.asarray(10.0 ** rng.uniform(0.0, 12.0, shape))
        a_total[rng.random(shape) < 0.2] = 1.0
        cum = np.stack([a_total ** (i / (k_stages - 1)) for i in range(1, k_stages)])
        want = np.concatenate([cum[:1], np.diff(cum, axis=0), np.zeros((1,) + shape)])
        for a in ((float(a_total),) if shape == () else ()) + (a_total,):
            got = attenuator_heat_fractions(a, k_stages)
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_rejects_bad_ordering(self, tech_50ms):
        def evaluate(t_qb, t_gen, a_total):
            return evaluate_ft_point(Workload(1, 1), tech_50ms, SCEN_A, CABLE, CARNOT,
                                     t_qb, t_gen, a_total, 1)
        with pytest.raises(ValueError):
            evaluate(1.0, 0.5, 10.0)
        with pytest.raises(ValueError):
            evaluate(0.02, 400.0, 10.0)
        with pytest.raises(ValueError):
            evaluate(0.02, 300.0, 0.5)

    @given(t_qb=st.floats(1e-3, 1.0), ratio=st.floats(1.01, 1e4),
           a=st.floats(1.0, 1e10), at_ambient=st.booleans())
    # t_qb * (300/t_qb)**1.0 rounds to 300.00000000000006 here
    @example(t_qb=0.553, ratio=2.0, a=10.0, at_ambient=True)
    @settings(max_examples=50)
    def test_products_and_geometry_exact(self, t_qb, ratio, a, at_ambient):
        t_gen = 300.0 if at_ambient else min(t_qb * ratio, 300.0)
        if t_gen <= t_qb:
            return
        assert np.sum(attenuator_heat_fractions(a)) == pytest.approx(a, rel=1e-12)
        temps = stage_temperatures(t_qb, t_gen, k_stages=5)
        ratios = temps[1:] / temps[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)
        assert temps[0] == t_qb
        assert temps[-1] == t_gen


class TestCableHeatFlow:
    def test_zero_span(self):
        assert cable_heat_flow(4.0, 4.0, CABLE) == 0.0

    def test_full_span_is_milliwatt_scale(self):
        q = cable_heat_flow(0.0, 300.0, CABLE)
        assert 3e-4 < q < 3e-3

    def test_cold_segment_closed_form(self):
        # below 4 K only the kapton power law contributes
        c, p = KAPTON_LOW
        expected = AREA_BELOW_10K_M2 * c * 4.0 ** (p + 1) / (p + 1)
        assert cable_heat_flow(0.0, 4.0, CABLE) == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(3.33e-8, rel=1e-2)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            cable_heat_flow(10.0, 5.0, CABLE)

    @given(points=st.lists(st.floats(1e-3, 300.0), min_size=3, max_size=3,
                           unique=True))
    @settings(max_examples=40)
    def test_interval_additivity(self, points):
        t1, t2, t3 = sorted(points)
        whole = cable_heat_flow(t1, t3, CABLE)
        split = cable_heat_flow(t1, t2, CABLE) + cable_heat_flow(t2, t3, CABLE)
        assert split == pytest.approx(whole, rel=1e-9)

    def test_longer_cable_conducts_less(self):
        long_cable = CableModel(length_m=2.0)
        assert cable_heat_flow(0.0, 300.0, long_cable) == pytest.approx(
            0.5 * cable_heat_flow(0.0, 300.0, CABLE), rel=1e-12)


def _quad_conduction_integral(t):
    """Reference: each segment of the conduction integral by adaptive
    quadrature at a tight tolerance."""
    c_lo, p_lo = KAPTON_LOW
    c_mid, p_mid = KAPTON_MID
    tight = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    out = AREA_BELOW_10K_M2 * quad(lambda x: c_lo * x**p_lo, 0.0, min(t, 4.0), **tight)[0]
    if t > 4.0:
        out += AREA_BELOW_10K_M2 * quad(lambda x: c_mid * x**p_mid, 4.0,
                                        min(t, 10.0), **tight)[0]
    if t > 10.0:
        out += AREA_ABOVE_10K_M2 * quad(steel_conductivity, 10.0, t, **tight)[0]
    return out


LOG_GRID = np.append(np.logspace(-3, np.log10(300.0), 120)[:-1], 300.0)


def _per_node_conduction_integral(temperature):
    """The conduction integral with one array pass per Gauss node, the
    kernel's arithmetic before its nodes were stacked."""
    t = np.atleast_1d(np.asarray(temperature, dtype=float))
    c_lo, p_lo = KAPTON_LOW
    c_mid, p_mid = KAPTON_MID
    out = AREA_BELOW_10K_M2 * c_lo * np.clip(t, 0.0, 4.0) ** (p_lo + 1) / (p_lo + 1)
    out = out + AREA_BELOW_10K_M2 * c_mid * (
        np.clip(t, 4.0, 10.0) ** (p_mid + 1) - 4.0 ** (p_mid + 1)) / (p_mid + 1)
    hot = t > 10.0
    half = 0.5 * (np.log10(t[hot]) - 1.0)
    steel = 0.0
    for x, w in zip(*np.polynomial.legendre.leggauss(16)):
        t_node = 10.0 ** (1.0 + half * (x + 1.0))
        steel = steel + w * steel_conductivity(t_node) * t_node
    out[hot] += AREA_ABOVE_10K_M2 * np.log(10.0) * half * steel
    return out


class TestConductionKernel:
    @pytest.mark.parametrize("cable", [CABLE, CableModel(length_m=2.5)])
    def test_matches_adaptive_quadrature(self, cable):
        want = np.array([_quad_conduction_integral(t) for t in LOG_GRID])
        got = _conduction_integral(LOG_GRID)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12
        flows = np.array([cable_heat_flow(0.0, t, cable) for t in LOG_GRID])
        assert np.max(np.abs(flows * cable.length_m / want - 1.0)) <= 1e-12

    def test_array_call_equals_scalar_calls(self):
        temps = np.append(LOG_GRID, [0.0, 4.0, 10.0, 10.5]).reshape(4, 31)
        got = _conduction_integral(temps)
        assert got.shape == temps.shape
        scalars = [_conduction_integral(float(t)) for t in temps.ravel()]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(got.ravel(), scalars)

    def test_stacked_nodes_match_a_pass_per_node(self, monkeypatch):
        # the stage temperatures of the default coarse grid, 146 x 77 chains
        stages = stage_temperatures(np.geomspace(1e-3, 4.0, 146)[:, None],
                                    np.geomspace(4.0, 300.0, 77)[None, :])
        n_hot = int(np.count_nonzero(stages > 10.0))
        assert n_hot > 3 * thermal._HOT_BLOCK
        want = _per_node_conduction_integral(stages)
        calls = []
        monkeypatch.setattr(thermal, "steel_conductivity",
                            lambda t: calls.append(t.shape) or steel_conductivity(t))
        assert np.array_equal(_conduction_integral(stages), want)
        assert len(calls) == -(-n_hot // thermal._HOT_BLOCK)  # one per block
        # a transposed (Fortran-ordered) grid gives the same values
        assert np.array_equal(_conduction_integral(stages.T), want.T)

    @given(temps=st.lists(st.floats(10.0, 300.0, exclude_min=True), min_size=1, max_size=5),
           scalar=st.booleans())
    @settings(max_examples=200)
    def test_few_hot_temperatures_sum_their_nodes_in_order(self, temps, scalar):
        # a block of one or a few hot temperatures, where a pairwise sum of
        # the 16 nodes would round otherwise than the sum in node order
        if scalar:
            assert _conduction_integral(temps[0]) == _per_node_conduction_integral(temps[0])[0]
        else:
            assert np.array_equal(_conduction_integral(np.array(temps)),
                                  _per_node_conduction_integral(temps))

    @pytest.mark.parametrize("k_stages", [2, 5, 8])
    @pytest.mark.parametrize("bounds", [((1e-3, 4.0), (4.0, 300.0)),
                                        ((0.5, 0.5), (20.0, 20.0))])
    def test_rises_from_the_axes_equal_the_grid_rises(self, bounds, k_stages):
        # the default coarse grid, and one whose bounds are equal; the end
        # stages are the axes themselves, in the coarse table too
        t_qb, t_gen = (optimize._log_axis(lo, hi, 40)[0] for lo, hi in bounds)
        want = self._check_rises(t_qb, t_gen, k_stages)
        optimize._coarse_grid.cache_clear()
        _, (table_stages, rises, *_) = optimize._coarse_grid(*bounds, 40, k_stages, OMEGA0)
        assert np.array_equal(table_stages, stage_temperatures(
            t_qb[:, None], t_gen[None, :], k_stages))
        assert np.array_equal(rises, want)

    @pytest.mark.parametrize("k_stages", [2, 5, 8])
    @pytest.mark.parametrize("centers", [(0.05, 30.0), (1e-3, 300.0), (4.0, 4.0)])
    def test_rises_on_refine_rows_equal_the_grid_rises(self, centers, k_stages):
        # refine rows inside the default box, and clipped at its bounds,
        # where values repeat
        (t_qb,), _ = optimize._refined_axis(np.array([centers[0]]), 0.025, 1e-3, 4.0)
        (t_gen,), _ = optimize._refined_axis(np.array([centers[1]]), 0.025, 4.0, 300.0)
        if centers[0] != 0.05:
            assert len(set(t_qb)) < t_qb.size and len(set(t_gen)) < t_gen.size
        self._check_rises(t_qb, t_gen, k_stages)

    @pytest.mark.parametrize("k_stages", [2, 5, 8])
    @pytest.mark.parametrize("point", [(1e-3, 4.0), (0.02, 300.0), (3.0, 7.5)])
    def test_rises_on_one_point_equal_the_grid_rises(self, point, k_stages):
        # the one-point grid of evaluate_ft_point and of the corner probe
        self._check_rises(*(np.array([t]) for t in point), k_stages)

    @staticmethod
    def _check_rises(t_qb, t_gen, k_stages):
        """The rises from the axes, by themselves and in the fields of
        every grid, equal the rises of the grid's chains; returns them."""
        stages = stage_temperatures(t_qb[:, None], t_gen[None, :], k_stages)
        want = conduction_rises(stages)
        assert np.array_equal(grid_conduction_rises(t_qb, t_gen, stages), want)
        field_stages, rises, *_ = optimize._grid_fields(t_qb, t_gen, k_stages, OMEGA0)
        assert np.array_equal(field_stages, stages)
        assert np.array_equal(rises, want)
        return want


class TestCoolingPower:
    def test_zero_at_ambient(self):
        assert CARNOT.heat_multiplier(300.0) == 0.0
        assert SMALL_SCALE.heat_multiplier(300.0) == 0.0

    def test_carnot_at_4k(self):
        assert 1e-6 * CARNOT.heat_multiplier(4.0) == pytest.approx(74e-6, rel=1e-12)

    def test_small_scale_at_4k(self):
        expected = 3.24e5 * 1e-6 * (1.0 - 4.0 / 300.0) / 16.0
        assert 1e-6 * SMALL_SCALE.heat_multiplier(4.0) == pytest.approx(expected,
                                                                        rel=1e-12)
        assert expected == pytest.approx(2.0e-2, rel=1e-2)

    @pytest.mark.parametrize("t_stage", [0.02, 0.1, 1.0, 4.0])
    def test_small_scale_never_beats_carnot(self, t_stage):
        assert SMALL_SCALE.heat_multiplier(t_stage) >= CARNOT.heat_multiplier(t_stage)

    def test_rejects_zero_temperature(self):
        with pytest.raises(ValueError):
            CARNOT.heat_multiplier(0.0)


class TestGatePower:
    def test_two_stage_chain_reduces_to_single_attenuator_formula(self, tech_1ms):
        p_pi = pi_pulse_power(tech_1ms, tech_1ms.tau_1qb)
        expected = (300.0 - 0.02) / 0.02 * 1e3 * p_pi
        assert _drive_power(0.02, 300.0, 1e3, p_pi, k_stages=2) == pytest.approx(
            expected, rel=1e-12)

    def test_no_attenuation_dissipates_drive_at_cold_stage(self, tech_1ms):
        p_pi = pi_pulse_power(tech_1ms, tech_1ms.tau_1qb)
        expected = (300.0 - 0.02) / 0.02 * p_pi
        assert _drive_power(0.02, 300.0, 1.0, p_pi) == pytest.approx(expected,
                                                                      rel=1e-12)

    def test_five_stage_layout_against_term_by_term_sum(self, tech_50ms):
        p_pi = pi_pulse_power(tech_50ms, tech_50ms.tau_1qb)
        temps = stage_temperatures(0.02, 300.0)
        cum = [0.0] + [1e4 ** (i / 4) for i in range(1, 5)]
        expected = sum(
            (300.0 - t) / t * (cum[i + 1] - cum[i]) * p_pi
            for i, t in enumerate(temps[:-1]))
        assert _drive_power(0.02, 300.0, 1e4, p_pi) == pytest.approx(expected,
                                                                      rel=1e-12)

    def test_one_qubit_gate_is_quarter_power(self, tech_50ms):
        # a one-qubit gate drives for tau_1qb = tau_step/4 of each step
        n2, n1, _, _ = physical_gate_counts_rectangular(1.0, 1)
        p_pi = pi_pulse_power(tech_50ms, tech_50ms.tau_2qb)
        assert _attenuator_power(tech_50ms) == pytest.approx(
            (n2 + n1 / 4.0) * _drive_power(0.02, 300.0, 1e4, p_pi), rel=1e-12)

    def test_equal_durations_give_equal_powers(self):
        tech = QubitTechnology(omega0=OMEGA0, gamma=20.0, tau_1qb=100e-9)
        n2, n1, _, _ = physical_gate_counts_rectangular(1.0, 1)
        p_pi = pi_pulse_power(tech, tech.tau_2qb)
        assert _attenuator_power(tech) == pytest.approx(
            (n2 + n1) * _drive_power(0.02, 300.0, 1e4, p_pi), rel=1e-12)

    def test_gate_power_ratio_chain_independent(self, tech_50ms):
        n2, n1, _, _ = physical_gate_counts_rectangular(1.0, 1)
        p_pi = pi_pulse_power(tech_50ms, tech_50ms.tau_2qb)
        for t_qb, t_gen, a in ((0.01, 100.0, 1e2), (0.5, 250.0, 1e8)):
            ratio = (_attenuator_power(tech_50ms, t_qb, t_gen, a)
                     / _drive_power(t_qb, t_gen, a, p_pi))
            assert ratio == pytest.approx(n2 + n1 / 4.0, rel=1e-12)

    def test_monotone_in_attenuation_and_temperature(self, tech_50ms):
        p_pi = pi_pulse_power(tech_50ms, tech_50ms.tau_1qb)
        powers_a = [_drive_power(0.02, 300.0, a, p_pi) for a in np.logspace(0, 10, 15)]
        assert all(b >= a for a, b in zip(powers_a, powers_a[1:]))
        powers_t = [_drive_power(t, 300.0, 1e4, p_pi) for t in np.logspace(-3, 0, 15)]
        assert all(b <= a for a, b in zip(powers_t, powers_t[1:]))


class TestPerQubitStaticPower:
    def test_scenario_a_room_temperature_electronics_term(self):
        rows = static_power_breakdown(stage_temperatures(0.02, 300.0), SCEN_A,
                                      CABLE, CARNOT)
        gen = [r for r in rows if r.source == "electronics"]
        assert len(gen) == 1
        assert gen[0].electrical_power_w == pytest.approx(1e-3, rel=1e-12)

    def test_scenario_a_amplifier_terms(self):
        rows = static_power_breakdown(stage_temperatures(0.02, 300.0), SCEN_A,
                                      CABLE, CARNOT)
        amps = sorted((r for r in rows if r.source == "amplifier"),
                      key=lambda r: r.stage_temperature_k)
        assert amps[0].electrical_power_w == pytest.approx(75e-6, rel=1e-12)
        assert amps[1].electrical_power_w == pytest.approx(300.0 / 70.0 * 5e-5,
                                                           rel=1e-12)

    def test_hemt_dropped_when_generation_stage_cold(self):
        rows = static_power_breakdown(stage_temperatures(0.02, 60.0), SCEN_A,
                                      CABLE, CARNOT)
        hemt = [r for r in rows if r.source == "amplifier"
                and r.stage_temperature_k == 70.0]
        assert hemt[0].heat_extracted_w == 0.0
        assert sum(r.electrical_power_w for r in rows) > 0

    def test_conduction_telescopes_to_top_span_injection(self):
        temps = stage_temperatures(0.02, 300.0)
        net = conduction_heat_per_qubit(temps, CABLE)
        injected = cable_heat_flow(temps[-2], temps[-1], CABLE) * CABLE.lines_per_qubit
        # stages below the top together extract exactly what the top span injects
        assert sum(net[:-1]) == pytest.approx(injected, rel=1e-12)
        # and the top stage is credited the same amount
        assert net[-1] == pytest.approx(-injected, rel=1e-12)

    def test_conduction_of_stacked_chains_equals_each_chain(self):
        # the optimizer's grid evaluation and the breakdown path agree
        pairs = ((0.02, 300.0), (1e-3, 4.5), (3.9, 12.0))
        t_qb, t_gen = np.array(pairs).T
        net = conduction_heat_per_qubit(stage_temperatures(t_qb, t_gen), CABLE)
        for i, pair in enumerate(pairs):
            assert np.array_equal(
                net[:, i], conduction_heat_per_qubit(stage_temperatures(*pair), CABLE))

    @pytest.mark.parametrize("model", [CARNOT, SMALL_SCALE])
    def test_grid_with_given_multipliers_equals_each_chain(self, model):
        # the optimizer passes the grid's heat multipliers in; a chain alone
        # computes its own, and its electronics and parasitic rows hold
        # Python floats, as the scalar multiplier gives
        pairs = ((0.02, 300.0), (1e-3, 4.5), (3.9, 120.0))
        t_qb, t_gen = np.array(pairs).T
        temps = stage_temperatures(t_qb, t_gen)
        grid = static_power_breakdown(temps, SCEN_A, CABLE, model,
                                      mult=model.heat_multiplier(temps))
        for i, pair in enumerate(pairs):
            alone = static_power_breakdown(stage_temperatures(*pair), SCEN_A, CABLE, model)
            assert [r.source for r in alone] == [r.source for r in grid]
            for got, want in zip(grid, alone):
                assert np.broadcast_to(got.electrical_power_w, t_qb.shape)[i] == \
                    want.electrical_power_w
            (gen,) = [r.electrical_power_w for r in alone if r.source == "electronics"]
            assert type(gen) is float
            assert gen == (1.0 + model.heat_multiplier(pair[1])) * SCEN_A.q_gen
            for extra in [r.electrical_power_w for r in alone if r.source == "extra"]:
                assert type(extra) is float
                assert extra == model.heat_multiplier(pair[0]) * model.extra_qubit_heat_w

    def test_small_scale_adds_extra_cold_load(self):
        temps = stage_temperatures(0.02, 300.0)
        scen = ElectronicsScenario.preset("C")
        base = sum(r.electrical_power_w
                   for r in static_power_breakdown(temps, scen, CABLE, CARNOT))
        rows = static_power_breakdown(temps, scen, CABLE, SMALL_SCALE)
        assert sum(r.electrical_power_w for r in rows) > base
        extra = [r for r in rows if r.source == "extra"]
        assert extra and extra[0].stage_temperature_k == 0.02

    def test_breakdown_sums_to_total(self, tech_50ms):
        # the fault-tolerant breakdown carries the per-qubit rows times the
        # physical qubit count, and its rows sum to its power exactly
        scen = ElectronicsScenario.preset("B")
        ev = evaluate_ft_point(Workload(3, 5), tech_50ms, scen, CABLE, CARNOT,
                               0.05, 150.0, 1e6, 2)
        static = static_power_breakdown(stage_temperatures(0.05, 150.0), scen,
                                        CABLE, CARNOT)
        rows = [r for r in ev.per_stage if r.source != "attenuator"]
        assert [r.source for r in rows] == [r.source for r in static]
        for got, want in zip(rows, static):
            assert got.electrical_power_w == pytest.approx(
                want.electrical_power_w * ev.physical_qubits, rel=1e-12, abs=0.0)
        assert ev.power_w == sum(r.electrical_power_w for r in ev.per_stage)


class TestScenarioPresets:
    def test_preset_values(self):
        assert ElectronicsScenario.preset("A") == ElectronicsScenario(
            "A", 1e-3, 1e-6, 5e-5)
        assert ElectronicsScenario.preset("B") == ElectronicsScenario(
            "B", 1e-5, 1e-8, 0.0)
        assert ElectronicsScenario.preset("C") == ElectronicsScenario(
            "C", 1e-7, 1e-10, 0.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            ElectronicsScenario.preset("D")


class TestSideCalculations:
    def test_measurement_power_dropped(self, tech_50ms):
        # the measurement drive is negligible, so no breakdown row costs it
        ev = evaluate_ft_point(Workload(1, 1), tech_50ms, SCEN_A, CABLE, CARNOT,
                               0.02, 300.0, 1e4, 1)
        assert {r.source for r in ev.per_stage} == {
            "attenuator", "conduction", "amplifier", "electronics"}

    def test_measurement_drive_small_against_gate_drive(self, tech_3ms):
        # a parametric-amplifier pump about 1e4 times the one-photon
        # readout signal stays far below the gate drive; the pi-pulse drive
        # grows with qubit lifetime, so 3 ms is the worst case considered
        pump = 1e4 * hbar * tech_3ms.omega0 / tech_3ms.tau_meas
        assert pump / pi_pulse_power(tech_3ms, tech_3ms.tau_1qb) <= 1.0 / 40.0

    def test_demodulation_power_anchor(self, tech_50ms):
        p1 = demodulation_power_per_qubit(1, tech_50ms)
        assert 1.5e-4 < p1 < 2.5e-4  # around 200 uW
        assert p1 == pytest.approx(1.8096e-4, rel=1e-3)

    def test_demodulation_ratio_between_levels(self, tech_50ms):
        p1 = demodulation_power_per_qubit(1, tech_50ms)
        p2 = demodulation_power_per_qubit(2, tech_50ms)
        assert p2 / p1 == pytest.approx(64.0 / 91.0, rel=1e-12)

    def test_demodulation_decreases_with_level(self, tech_50ms):
        values = [demodulation_power_per_qubit(k, tech_50ms) for k in range(1, 6)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_syndrome_power(self, tech_50ms):
        assert syndrome_power_per_qubit(tech_50ms) == pytest.approx(8.5e-6,
                                                                    rel=1e-12)

    def test_syndrome_power_scales_with_clock(self):
        from coldstack import QubitTechnology
        fast = QubitTechnology(omega0=OMEGA0, gamma=20.0, tau_2qb=50e-9,
                               tau_meas=50e-9)
        assert syndrome_power_per_qubit(fast) == pytest.approx(17e-6, rel=1e-12)

    def test_syndrome_negligible_against_scenario_a(self, tech_50ms):
        assert syndrome_power_per_qubit(tech_50ms) / 1e-3 < 1e-2


class TestCryoChainValidation:
    def test_attenuation_product_matches(self):
        total = np.sum(attenuator_heat_fractions(12345.0))
        assert abs(total / 12345.0 - 1.0) < 1e-12

    def test_rejects_nonmonotone(self, tech_50ms):
        for t_qb, t_gen in ((0.3, 0.1), (0.3, 0.3)):
            with pytest.raises(ValueError):
                evaluate_ft_point(Workload(1, 1), tech_50ms, SCEN_A, CABLE, CARNOT,
                                  t_qb, t_gen, 10.0, 1)

    def test_rejects_wrong_attenuator_count(self):
        with pytest.raises(ValueError):
            FtToggles(k_stages=1)
        assert attenuator_heat_fractions(10.0, k_stages=3).shape == (3,)

    def test_cumulative_nondecreasing(self):
        assert np.all(attenuator_heat_fractions(1e8) >= 0.0)
