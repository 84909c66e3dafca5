from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldstack import (
    CableModel,
    ElectronicsScenario,
    LogicalGateCounts,
    QubitTechnology,
    Workload,
    attenuator_heat_fractions,
    evaluate_ft_point,
    ft_metric,
    logical_error_probability,
    physical_gate_counts_rectangular,
    physical_qubits,
    pi_pulse_power,
    stage_temperatures,
    static_power_breakdown,
)
from coldstack.config import ConfigError, load_config
from coldstack.optimize import FtToggles
from coldstack.qec import (
    P_THRESHOLD,
    QUBIT_GROWTH,
    RECTANGULAR_MIX,
    measurement_fraction,
    physical_gate_counts_fractions,
    transfer_matrix_floats,
)
from coldstack.thermal import CARNOT

from conftest import OMEGA0

TECH = QubitTechnology(omega0=OMEGA0, gamma=20.0)
SCEN_A = ElectronicsScenario.preset("A")
CHAIN = (0.05, 150.0, 1e4)  # T_qb, T_gen, total attenuation


def _ft_power(k, q_logical=10, toggles=FtToggles()):
    """Dynamic (attenuator) and static parts of the fault-tolerant power
    kernel at one operating point."""
    ev = evaluate_ft_point(Workload(q_logical, 1), TECH, SCEN_A, CableModel(), CARNOT,
                           *CHAIN, k, toggles)
    dynamic = sum(r.electrical_power_w for r in ev.per_stage if r.source == "attenuator")
    static = sum(r.electrical_power_w for r in ev.per_stage if r.source != "attenuator")
    return dynamic, static, ev.power_w


def _required_level(p_err, q_logical, d_logical, target, k_max=6):
    """Smallest concatenation level whose metric reaches ``target``."""
    return next((k for k in range(k_max + 1)
                 if ft_metric(p_err, k, q_logical, d_logical) >= target), None)


class TestCodeIdentities:
    def test_qubit_growth_decomposition(self):
        assert QUBIT_GROWTH == 7 + 3 * 28

    def test_transfer_matrix_spectrum(self):
        eigenvalues = np.linalg.eigvals(transfer_matrix_floats())
        ordered = sorted(eigenvalues.real, reverse=True)
        assert abs(ordered[0] - 64.0) < 64.0 * 1e-9
        assert abs(ordered[1] - 7.0 / 3.0) < (7.0 / 3.0) * 1e-9

    def test_rectangular_mix_coefficients(self):
        assert RECTANGULAR_MIX == (Fraction(64, 185), Fraction(28, 185),
                                   Fraction(29, 185), Fraction(28, 185))
        # eigenvector normalization: the mix fills every qubit slot
        two, one, idle, _ = RECTANGULAR_MIX
        assert 2 * two + one + idle == 1

    def test_dominant_eigenvector(self):
        matrix = transfer_matrix_floats()
        vector = np.array([64.0, 28.0, 29.0, 28.0])
        assert np.allclose(matrix @ vector, 64.0 * vector, rtol=1e-12)


class TestLogicalErrorProbability:
    def test_threshold_is_fixed_point(self):
        for k in range(6):
            assert logical_error_probability(P_THRESHOLD, k) == pytest.approx(
                P_THRESHOLD, rel=1e-12)

    def test_level_zero_passthrough(self):
        assert logical_error_probability(3e-7, 0) == 3e-7

    def test_forty_below_threshold_at_level_two(self):
        value = logical_error_probability(P_THRESHOLD / 40.0, 2)
        assert value == pytest.approx(P_THRESHOLD / 40.0**4, rel=1e-12)
        assert value == pytest.approx(7.8125e-12, rel=1e-12)

    @given(ratio=st.floats(0.01, 0.99))
    @settings(max_examples=30)
    def test_strictly_decreasing_below_threshold(self, ratio):
        values = [logical_error_probability(ratio * P_THRESHOLD, k)
                  for k in range(5)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @given(ratio=st.floats(1.01, 10.0))
    @settings(max_examples=30)
    def test_strictly_increasing_above_threshold(self, ratio):
        values = [logical_error_probability(ratio * P_THRESHOLD, k)
                  for k in range(4)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestPhysicalCounts:
    def test_qubit_counts(self):
        assert physical_qubits(7, 0) == 7
        assert physical_qubits(1, 2) == 8281
        assert physical_qubits(6175, 3) == 4_653_300_925

    def test_level_zero_identity(self):
        logical = LogicalGateCounts(3, 5, 7, 2)
        assert physical_gate_counts_fractions(logical, 0) == (3, 5, 7, 2)

    def test_single_two_qubit_gate_first_level(self):
        fracs = physical_gate_counts_fractions(LogicalGateCounts(1, 0, 0, 0), 1)
        assert fracs[1] == Fraction(56, 3)

    def test_gate_table_row_for_identity(self):
        # counts over the three data time-steps of one idle logical qubit
        fracs = physical_gate_counts_fractions(LogicalGateCounts(0, 0, 1, 0), 1)
        assert tuple(3 * f for f in fracs) == (64, 28, 36, 28)

    def test_rectangular_first_level_anchor(self):
        counts = physical_gate_counts_rectangular(185, 1)
        assert counts[0] == pytest.approx(64.0 * 64.0, rel=1e-12)

    @given(
        n2=st.integers(0, 50), n1=st.integers(0, 100), nid=st.integers(0, 100),
        nmeas=st.integers(0, 20), scale=st.integers(1, 5), k=st.integers(0, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_linearity_superposition(self, n2, n1, nid, nmeas, scale, k):
        base = LogicalGateCounts(n2, n1, nid, nmeas)
        scaled = LogicalGateCounts(scale * n2, scale * n1, scale * nid,
                                   scale * nmeas)
        f_base = physical_gate_counts_fractions(base, k)
        f_scaled = physical_gate_counts_fractions(scaled, k)
        assert all(s == scale * b for s, b in zip(f_scaled, f_base))

    def test_large_level_exact_arithmetic(self):
        # far beyond float range yet exact as integers-over-powers-of-3
        fracs = physical_gate_counts_fractions(LogicalGateCounts(0, 0, 1, 0), 20)
        assert fracs[0] > 0
        total = 2 * fracs[0] + fracs[1] + fracs[2]
        assert total.denominator % 3 == 0 or total.denominator == 1


class TestRectangularApproximation:
    @staticmethod
    def _random_rectangular_mix(rng, q_logical):
        # nonnegative logical mix filling all qubit slots, no measurements
        n2 = rng.integers(0, q_logical // 2 + 1)
        remaining = q_logical - 2 * n2
        n1 = rng.integers(0, remaining + 1)
        nid = remaining - n1
        return LogicalGateCounts(int(n2), int(n1), int(nid), 0)

    @pytest.mark.parametrize("k,tolerance", [(1, 0.25), (2, 0.01), (3, 0.01)])
    def test_error_bounds_random_mixes(self, k, tolerance):
        rng = np.random.default_rng(20240611)
        q_logical = 185
        approx = physical_gate_counts_rectangular(q_logical, k)
        for _ in range(25):
            logical = self._random_rectangular_mix(rng, q_logical)
            exact = physical_gate_counts_fractions(logical, k)
            for a, e in zip(approx, exact):
                assert abs(a - float(e)) / float(e) < tolerance


class TestFtMetric:
    @pytest.mark.parametrize("p_err", [-1e-9, np.array([[1e-6], [-0.5]])])
    def test_rejects_a_negative_probability(self, p_err):
        # the search calls the unchecked kernel; the public functions check
        with pytest.raises(ValueError, match="nonnegative"):
            logical_error_probability(p_err, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            ft_metric(p_err, 1, 10, 10)
        with pytest.raises(ValueError, match="nonnegative"):
            ft_metric(p_err, 1, 10, 10, linear=False)

    def test_rejects_a_negative_level(self):
        with pytest.raises(ValueError, match="concatenation level"):
            ft_metric(1e-6, -1, 10, 10)

    def test_empty_circuit(self):
        assert ft_metric(1e-6, 2, 0, 0) == 1.0
        assert ft_metric(1e-6, 2, 0, 0, linear=False) == 1.0

    def test_rsa_scale_anchor_level_three(self):
        # p_err at the 50 ms noise floor, 2048-bit-key-sized circuit
        metric = ft_metric(5e-7, 3, 6175, 2_100_000_000)
        assert metric > 2.0 / 3.0
        assert 1.0 - metric == pytest.approx(6175 * 2.1e9 * 2e-5 / 40.0**8,
                                             rel=1e-9)

    def test_rsa_scale_level_two_fails(self):
        assert ft_metric(5e-7, 2, 6175, 2_100_000_000) == 0.0

    @given(p=st.floats(1e-8, 1.9e-5), k=st.integers(0, 4),
           q=st.integers(1, 10**4), d=st.integers(1, 10**6))
    @settings(max_examples=60)
    def test_linear_never_exceeds_exact(self, p, k, q, d):
        linear = ft_metric(p, k, q, d)
        exact = ft_metric(p, k, q, d, linear=False)
        assert linear <= exact + 1e-12


class TestFtPower:
    def test_static_only(self):
        temps = stage_temperatures(*CHAIN[:2])
        per_qubit = sum(r.electrical_power_w
                        for r in static_power_breakdown(temps, SCEN_A, CableModel()))
        _, static, _ = _ft_power(2)
        assert static == pytest.approx(10 * 91**2 * per_qubit, rel=1e-12)

    def test_coefficient_identity_against_mix(self):
        # the 16/7 bracket times 4*64^k/185 reproduces the rectangular mix:
        # a one-qubit gate drives for a quarter of the step
        q_logical, k = 11, 3
        n2, n1, _, _ = physical_gate_counts_rectangular(q_logical, k)
        temps = stage_temperatures(*CHAIN[:2])
        drive = pi_pulse_power(TECH, TECH.tau_1qb) * float(np.sum(
            CARNOT.heat_multiplier(temps) * attenuator_heat_fractions(CHAIN[2])))
        dynamic, _, _ = _ft_power(k, q_logical)
        assert dynamic == pytest.approx((n2 + n1 / 4.0) * drive, rel=1e-12)
        assert dynamic == pytest.approx(
            q_logical * 4.0 * 64**k / 185.0 * (16.0 + 7.0 / 4.0) * drive, rel=1e-12)

    def test_strictly_increasing_in_level_with_static_load(self):
        values = [_ft_power(k)[2] for k in range(5)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_t_gate_multiplier_scales_dynamic_bracket_only(self):
        dynamic, static, _ = _ft_power(2)
        bumped, bumped_static, _ = _ft_power(2, toggles=FtToggles(t_gate_multiplier=10.0))
        assert bumped == pytest.approx(10.0 * dynamic, rel=1e-12)
        assert bumped_static == static

    def test_code_parameters_validate_multiplier(self):
        for value in ("11.0", "0.5"):
            with pytest.raises(ConfigError):
                load_config(text=f"[toggles]\nt_gate_multiplier = {value}\n")


class TestRequiredConcatenation:
    def test_rsa_2048_at_forty_below_threshold(self):
        assert _required_level(P_THRESHOLD / 40.0, 6175, 2_100_000_000,
                               2.0 / 3.0) == 3

    def test_single_location(self):
        assert _required_level(P_THRESHOLD / 40.0, 1, 1, 2.0 / 3.0) == 0

    def test_above_threshold_raises(self):
        # above threshold concatenation only adds errors: no level helps
        assert _required_level(2.0 * P_THRESHOLD, 10**4, 10**9, 2.0 / 3.0) is None

    def test_measurement_fraction_decays_geometrically(self):
        assert measurement_fraction(0) == pytest.approx(28.0 / 185.0, rel=1e-12)
        assert measurement_fraction(2) / measurement_fraction(1) == pytest.approx(
            64.0 / 91.0, rel=1e-12)
