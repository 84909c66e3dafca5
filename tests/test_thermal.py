import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import hbar
from scipy.integrate import quad

from coldstack import (
    CableModel,
    CryoChain,
    CryoEfficiencyModel,
    ElectronicsScenario,
    cable_heat_flow,
    cooling_power,
    demodulation_power_per_qubit,
    fiber_bitrate_per_qubit,
    gate_power_1qb,
    gate_power_2qb,
    measurement_power,
    per_qubit_static_power,
    pi_pulse_power,
    stage_layout,
    syndrome_power_per_qubit,
)
from coldstack.thermal import (
    CARNOT,
    _conduction_integral,
    conduction_heat_per_qubit,
    measurement_drive_power,
    static_power_breakdown,
)

from conftest import OMEGA0

CABLE = CableModel()
SMALL_SCALE = CryoEfficiencyModel("small_scale")


class TestStageLayout:
    def test_geometric_spacing_over_four_decades(self):
        chain = stage_layout(0.01, 100.0, 1e8, k_stages=5)
        assert np.allclose(chain.temperatures, [0.01, 0.1, 1.0, 10.0, 100.0],
                           rtol=1e-12)

    def test_equal_attenuation_split(self):
        chain = stage_layout(0.01, 100.0, 1e8, k_stages=5)
        assert np.allclose(chain.attenuations, [100.0] * 4, rtol=1e-12)
        assert chain.total_attenuation == pytest.approx(1e8, rel=1e-12)

    def test_two_stage_layout_is_single_attenuator(self):
        chain = stage_layout(0.02, 300.0, 1e3, k_stages=2)
        assert chain.temperatures == (0.02, 300.0)
        assert chain.attenuations == (1e3,)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            stage_layout(1.0, 0.5, 10.0)
        with pytest.raises(ValueError):
            stage_layout(0.02, 400.0, 10.0)

    @given(t_qb=st.floats(1e-3, 1.0), ratio=st.floats(1.01, 1e4),
           a=st.floats(1.0, 1e10), at_ambient=st.booleans())
    # t_qb * (300/t_qb)**1.0 rounds to 300.00000000000006 here
    @example(t_qb=0.553, ratio=2.0, a=10.0, at_ambient=True)
    @settings(max_examples=50)
    def test_products_and_geometry_exact(self, t_qb, ratio, a, at_ambient):
        t_gen = 300.0 if at_ambient else min(t_qb * ratio, 300.0)
        if t_gen <= t_qb:
            return
        chain = stage_layout(t_qb, t_gen, a, k_stages=5)
        assert chain.total_attenuation == pytest.approx(a, rel=1e-12)
        temps = np.array(chain.temperatures)
        ratios = temps[1:] / temps[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)
        assert chain.temperatures[0] == t_qb
        assert chain.temperatures[-1] == t_gen


class TestCableHeatFlow:
    def test_zero_span(self):
        assert cable_heat_flow(4.0, 4.0, CABLE) == 0.0

    def test_full_span_is_milliwatt_scale(self):
        q = cable_heat_flow(0.0, 300.0, CABLE)
        assert 3e-4 < q < 3e-3

    def test_cold_segment_closed_form(self):
        # below 4 K only the kapton power law contributes
        c, p = CABLE.kapton_low
        expected = CABLE.area_below_10k_m2 * c * 4.0 ** (p + 1) / (p + 1)
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


def _quad_conduction_integral(cable, t):
    """Reference: each segment of the conduction integral by adaptive
    quadrature at a tight tolerance."""
    c_lo, p_lo = cable.kapton_low
    c_mid, p_mid = cable.kapton_mid
    tight = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    out = cable.area_below_10k_m2 * quad(lambda x: c_lo * x**p_lo, 0.0,
                                         min(t, 4.0), **tight)[0]
    if t > 4.0:
        out += cable.area_below_10k_m2 * quad(lambda x: c_mid * x**p_mid, 4.0,
                                              min(t, 10.0), **tight)[0]
    if t > 10.0:
        out += cable.area_above_10k_m2 * quad(cable.steel_conductivity, 10.0, t,
                                              **tight)[0]
    return out


LOG_GRID = np.append(np.logspace(-3, np.log10(300.0), 120)[:-1], 300.0)


class TestConductionKernel:
    @pytest.mark.parametrize("cable", [
        CABLE, CableModel(length_m=2.5, area_above_10k_m2=1.1e-6)])
    def test_matches_adaptive_quadrature(self, cable):
        want = np.array([_quad_conduction_integral(cable, t) for t in LOG_GRID])
        got = _conduction_integral(cable, LOG_GRID)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12
        flows = np.array([cable_heat_flow(0.0, t, cable) for t in LOG_GRID])
        assert np.max(np.abs(flows * cable.length_m / want - 1.0)) <= 1e-12

    def test_array_call_equals_scalar_calls(self):
        temps = np.append(LOG_GRID, [0.0, 4.0, 10.0, 10.5]).reshape(4, 31)
        got = _conduction_integral(CABLE, temps)
        assert got.shape == temps.shape
        scalars = [_conduction_integral(CABLE, float(t)) for t in temps.ravel()]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(got.ravel(), scalars)


class TestCoolingPower:
    def test_zero_at_ambient(self):
        assert cooling_power(1.0, 300.0, CARNOT) == 0.0
        assert cooling_power(1.0, 300.0, SMALL_SCALE) == 0.0

    def test_carnot_at_4k(self):
        assert cooling_power(1e-6, 4.0, CARNOT) == pytest.approx(74e-6, rel=1e-12)

    def test_small_scale_at_4k(self):
        expected = 3.24e5 * 1e-6 * (1.0 - 4.0 / 300.0) / 16.0
        assert cooling_power(1e-6, 4.0, SMALL_SCALE) == pytest.approx(expected,
                                                                      rel=1e-12)
        assert expected == pytest.approx(2.0e-2, rel=1e-2)

    @pytest.mark.parametrize("t_stage", [0.02, 0.1, 1.0, 4.0])
    def test_small_scale_never_beats_carnot(self, t_stage):
        assert (cooling_power(1.0, t_stage, SMALL_SCALE)
                >= cooling_power(1.0, t_stage, CARNOT))

    def test_rejects_zero_temperature(self):
        with pytest.raises(ValueError):
            cooling_power(1.0, 0.0, CARNOT)


class TestGatePower:
    def test_two_stage_chain_reduces_to_single_attenuator_formula(self, tech_1ms):
        p_pi = pi_pulse_power(tech_1ms, tech_1ms.tau_1qb)
        chain = stage_layout(0.02, 300.0, 1e3, k_stages=2)
        expected = (300.0 - 0.02) / 0.02 * 1e3 * p_pi
        assert gate_power_2qb(chain, p_pi) == pytest.approx(expected, rel=1e-12)

    def test_no_attenuation_dissipates_drive_at_cold_stage(self, tech_1ms):
        p_pi = pi_pulse_power(tech_1ms, tech_1ms.tau_1qb)
        chain = stage_layout(0.02, 300.0, 1.0, k_stages=5)
        expected = (300.0 - 0.02) / 0.02 * p_pi
        assert gate_power_2qb(chain, p_pi) == pytest.approx(expected, rel=1e-12)

    def test_five_stage_layout_against_term_by_term_sum(self, tech_50ms):
        p_pi = pi_pulse_power(tech_50ms, tech_50ms.tau_1qb)
        chain = stage_layout(0.02, 300.0, 1e4, k_stages=5)
        cum = (0.0,) + chain.cumulative_attenuations
        expected = sum(
            (300.0 - t) / t * (cum[i + 1] - cum[i]) * p_pi
            for i, t in enumerate(chain.temperatures[:-1]))
        assert gate_power_2qb(chain, p_pi) == pytest.approx(expected, rel=1e-12)

    def test_one_qubit_gate_is_quarter_power(self, tech_50ms):
        p_pi = pi_pulse_power(tech_50ms, tech_50ms.tau_1qb)
        chain = stage_layout(0.02, 300.0, 1e4)
        assert gate_power_1qb(chain, p_pi, tech_50ms) == pytest.approx(
            gate_power_2qb(chain, p_pi) / 4.0, rel=1e-12)

    def test_equal_durations_give_equal_powers(self):
        from coldstack import QubitTechnology
        tech = QubitTechnology(omega0=OMEGA0, gamma=20.0, tau_1qb=100e-9)
        p_pi = pi_pulse_power(tech, tech.tau_1qb)
        chain = stage_layout(0.02, 300.0, 1e4)
        assert gate_power_1qb(chain, p_pi, tech) == pytest.approx(
            gate_power_2qb(chain, p_pi), rel=1e-12)

    def test_gate_power_ratio_chain_independent(self, tech_50ms):
        p_pi = pi_pulse_power(tech_50ms, tech_50ms.tau_1qb)
        for args in ((0.01, 100.0, 1e2), (0.5, 250.0, 1e8)):
            chain = stage_layout(*args)
            ratio = gate_power_1qb(chain, p_pi, tech_50ms) / gate_power_2qb(chain, p_pi)
            assert ratio == pytest.approx(0.25, rel=1e-12)

    def test_monotone_in_attenuation_and_temperature(self, tech_50ms):
        p_pi = pi_pulse_power(tech_50ms, tech_50ms.tau_1qb)
        powers_a = [gate_power_2qb(stage_layout(0.02, 300.0, a), p_pi)
                    for a in np.logspace(0, 10, 15)]
        assert all(b >= a for a, b in zip(powers_a, powers_a[1:]))
        powers_t = [gate_power_2qb(stage_layout(t, 300.0, 1e4), p_pi)
                    for t in np.logspace(-3, 0, 15)]
        assert all(b <= a for a, b in zip(powers_t, powers_t[1:]))


class TestPerQubitStaticPower:
    def test_scenario_a_room_temperature_electronics_term(self):
        chain = stage_layout(0.02, 300.0, 1e4)
        rows = static_power_breakdown(chain, ElectronicsScenario.preset("A"),
                                      CABLE, CARNOT)
        gen = [r for r in rows if r.source == "electronics"]
        assert len(gen) == 1
        assert gen[0].electrical_power_w == pytest.approx(1e-3, rel=1e-12)

    def test_scenario_a_amplifier_terms(self):
        chain = stage_layout(0.02, 300.0, 1e4)
        rows = static_power_breakdown(chain, ElectronicsScenario.preset("A"),
                                      CABLE, CARNOT)
        amps = sorted((r for r in rows if r.source == "amplifier"),
                      key=lambda r: r.stage_temperature_k)
        assert amps[0].electrical_power_w == pytest.approx(75e-6, rel=1e-12)
        assert amps[1].electrical_power_w == pytest.approx(300.0 / 70.0 * 5e-5,
                                                           rel=1e-12)

    def test_hemt_dropped_when_generation_stage_cold(self):
        chain = stage_layout(0.02, 60.0, 1e4)
        p_cold = per_qubit_static_power(chain, ElectronicsScenario.preset("A"),
                                        CABLE, CARNOT)
        rows = static_power_breakdown(chain, ElectronicsScenario.preset("A"),
                                      CABLE, CARNOT)
        hemt = [r for r in rows if r.source == "amplifier"
                and r.stage_temperature_k == 70.0]
        assert hemt[0].heat_extracted_w == 0.0
        assert p_cold > 0

    def test_conduction_telescopes_to_top_span_injection(self):
        chain = stage_layout(0.02, 300.0, 1e4)
        net = conduction_heat_per_qubit(chain.temperatures, CABLE)
        injected = cable_heat_flow(chain.temperatures[-2], chain.temperatures[-1],
                                   CABLE) * CABLE.lines_per_qubit
        # stages below the top together extract exactly what the top span injects
        assert sum(net[:-1]) == pytest.approx(injected, rel=1e-12)
        # and the top stage is credited the same amount
        assert net[-1] == pytest.approx(-injected, rel=1e-12)

    def test_conduction_of_stacked_chains_equals_each_chain(self):
        # the optimizer's grid evaluation and the breakdown path agree
        chains = [stage_layout(t_qb, t_gen, 1e4)
                  for t_qb, t_gen in ((0.02, 300.0), (1e-3, 4.5), (3.9, 12.0))]
        stacked = np.array([c.temperatures for c in chains]).T
        net = conduction_heat_per_qubit(stacked, CABLE)
        for i, chain in enumerate(chains):
            assert np.array_equal(
                net[:, i], conduction_heat_per_qubit(chain.temperatures, CABLE))

    def test_small_scale_adds_extra_cold_load(self):
        chain = stage_layout(0.02, 300.0, 1e4)
        scen = ElectronicsScenario.preset("C")
        base = per_qubit_static_power(chain, scen, CABLE, CARNOT)
        with_extra = per_qubit_static_power(chain, scen, CABLE, SMALL_SCALE)
        assert with_extra > base
        rows = static_power_breakdown(chain, scen, CABLE, SMALL_SCALE)
        extra = [r for r in rows if r.source == "extra"]
        assert extra and extra[0].stage_temperature_k == 0.02

    def test_breakdown_sums_to_total(self):
        chain = stage_layout(0.05, 150.0, 1e6)
        scen = ElectronicsScenario.preset("B")
        rows = static_power_breakdown(chain, scen, CABLE, CARNOT)
        assert per_qubit_static_power(chain, scen, CABLE, CARNOT) == pytest.approx(
            sum(r.electrical_power_w for r in rows), rel=1e-12)


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
    def test_measurement_power_dropped(self):
        assert measurement_power() == 0.0

    def test_measurement_drive_estimate(self, tech_50ms):
        est = measurement_drive_power(tech_50ms)
        assert est == pytest.approx(1e4 * hbar * OMEGA0 / 100e-9, rel=1e-12)
        assert est == pytest.approx(4e-13, rel=0.05)

    def test_measurement_drive_small_against_gate_drive(self, tech_3ms):
        # the pi-pulse drive grows with qubit lifetime, so 3 ms is the
        # worst case of the considered range
        ratio = measurement_drive_power(tech_3ms) / pi_pulse_power(
            tech_3ms, tech_3ms.tau_1qb)
        assert ratio <= 1.0 / 40.0

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

    def test_fiber_bitrate_anchor(self, tech_50ms):
        rate, per_fiber = fiber_bitrate_per_qubit(1, tech_50ms)
        assert rate <= 1.5e9
        assert rate == pytest.approx(1.4902e9, rel=1e-3)
        assert 250 <= per_fiber <= 290

    def test_fiber_bitrate_maximal_at_first_level(self, tech_50ms):
        rates = [fiber_bitrate_per_qubit(k, tech_50ms)[0] for k in range(1, 7)]
        assert rates[0] == max(rates)


class TestCryoChainValidation:
    def test_attenuation_product_matches(self):
        chain = stage_layout(0.02, 300.0, 12345.0)
        assert abs(chain.total_attenuation / 12345.0 - 1.0) < 1e-12

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            CryoChain(temperatures=(0.02, 0.01, 1.0), attenuations=(10.0, 10.0))

    def test_rejects_wrong_attenuator_count(self):
        with pytest.raises(ValueError):
            CryoChain(temperatures=(0.02, 1.0, 300.0), attenuations=(10.0,))

    def test_cumulative_nondecreasing(self):
        chain = stage_layout(0.02, 300.0, 1e8)
        cum = chain.cumulative_attenuations
        assert all(b >= a for a, b in zip(cum, cum[1:]))
