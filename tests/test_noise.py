import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import hbar, k as k_B

from coldstack import noise
from coldstack import (
    CableModel,
    CryoEfficiencyModel,
    ElectronicsScenario,
    QubitTechnology,
    Workload,
    bose_einstein,
    chain_occupancy,
    evaluate_ft_point,
    pauli_error_probability,
    pi_pulse_power,
    single_attenuator_occupancy,
    stage_temperatures,
    worst_case_infidelity_1qb,
)

from conftest import OMEGA0
from lindblad_oracle import worst_case_infidelity_oracle


class TestConstants:
    def test_exact_si_values_match_scipy(self):
        assert noise.HBAR == hbar
        assert noise.K_B == k_B

    def test_import_leaves_scipy_unloaded(self):
        src = str(pathlib.Path(noise.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, coldstack; print('scipy' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestQubitTechnology:
    def test_clock_period_is_slowest_operation(self, tech_50ms):
        assert tech_50ms.tau_step == 100e-9
        assert tech_50ms.tau_1qb <= tech_50ms.tau_step

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            QubitTechnology(omega0=OMEGA0, gamma=-1.0)
        with pytest.raises(ValueError):
            QubitTechnology(omega0=OMEGA0, gamma=1.0, tau_1qb=0.0)

    def test_drive_relation_consistent_with_pi_pulse(self, tech_1ms):
        # A pi pulse of duration tau has Rabi frequency pi/tau; the drive
        # relation Omega^2 = 4*gamma*P/(hbar*omega0) must give it back.
        tau = tech_1ms.tau_1qb
        power = pi_pulse_power(tech_1ms, tau)
        rabi_squared = 4.0 * tech_1ms.gamma * power / (hbar * tech_1ms.omega0)
        assert rabi_squared == pytest.approx((math.pi / tau) ** 2, rel=1e-12)


class TestPiPulsePower:
    def test_hand_evaluation(self, tech_1ms):
        # hbar*omega0*pi^2 / (4*gamma*tau^2) at 6 GHz, 1 ms, 25 ns
        assert pi_pulse_power(tech_1ms, 25e-9) == pytest.approx(1.5695e-11, rel=1e-3)

    @pytest.mark.parametrize("gamma", [5.562684646268003e-309, 1.7976931348623157e308])
    def test_gamma_at_an_end_of_the_float_range(self, gamma):
        # 4 gamma tau^2 underflows to 0 at the one end and overflows at the
        # other, while the power itself is a float
        tech = QubitTechnology(omega0=OMEGA0, gamma=gamma, tau_1qb=1e-9)
        power = pi_pulse_power(tech, 1e-9)
        assert 0.0 < power < math.inf
        assert power == pytest.approx(hbar * OMEGA0 * math.pi**2 / (4.0 * 1e-9**2) / gamma,
                                      rel=1e-12)

    @pytest.mark.parametrize("gamma, tau, power", [(1e3, 1e-170, math.inf),
                                                   (1.7976931348623157e308, 1e10, 0.0)])
    def test_power_out_of_the_float_range(self, gamma, tau, power):
        # tau^2 underflows to 0 in the first case: the power is beyond the
        # float range, and below it in the second
        tech = QubitTechnology(omega0=OMEGA0, gamma=gamma, tau_1qb=tau)
        assert pi_pulse_power(tech, tau) == power

    def test_quarter_power_when_duration_doubles(self, tech_1ms):
        p1 = pi_pulse_power(tech_1ms, 25e-9)
        p2 = pi_pulse_power(tech_1ms, 50e-9)
        assert p1 / p2 == pytest.approx(4.0, rel=1e-12)

    def test_halved_when_gamma_doubles(self):
        slow = QubitTechnology(omega0=OMEGA0, gamma=500.0)
        fast = QubitTechnology(omega0=OMEGA0, gamma=1000.0)
        assert pi_pulse_power(slow, 25e-9) == pytest.approx(
            2.0 * pi_pulse_power(fast, 25e-9), rel=1e-12)

    def test_rejects_nonpositive_duration(self, tech_1ms):
        with pytest.raises(ValueError):
            pi_pulse_power(tech_1ms, 0.0)

    @given(tau=st.floats(1e-9, 1e-6), gamma=st.floats(1.0, 1e4))
    def test_power_tau_squared_gamma_invariant(self, tau, gamma):
        tech = QubitTechnology(omega0=OMEGA0, gamma=gamma)
        product = pi_pulse_power(tech, tau) * tau**2 * gamma
        assert product == pytest.approx(hbar * OMEGA0 * math.pi**2 / 4.0, rel=1e-9)


class TestBoseEinstein:
    def test_zero_temperature(self):
        assert bose_einstein(0.0, OMEGA0) == 0.0

    def test_rayleigh_jeans_limit(self):
        t = 1e4
        assert bose_einstein(t, OMEGA0) == pytest.approx(
            k_B * t / (hbar * OMEGA0), rel=1e-3)

    def test_hand_evaluation_at_300mk(self):
        # exponent hbar*omega0/(k_B * 0.3 K) ~ 0.96
        assert bose_einstein(0.3, OMEGA0) == pytest.approx(0.62056, rel=1e-3)

    def test_deep_cold_underflows_to_zero(self):
        assert bose_einstein(1e-5, OMEGA0) == 0.0

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            bose_einstein(-0.1, OMEGA0)


class TestSingleAttenuator:
    def test_unit_attenuation_passes_external_noise(self):
        occ = single_attenuator_occupancy(1.0, 0.02, 300.0, OMEGA0)
        assert occ == pytest.approx(bose_einstein(300.0, OMEGA0), rel=1e-12)

    def test_infinite_attenuation_thermalizes_to_cold_stage(self):
        occ = single_attenuator_occupancy(1e15, 0.3, 300.0, OMEGA0)
        assert occ == pytest.approx(bose_einstein(0.3, OMEGA0), rel=1e-9)

    def test_30db_hand_value(self):
        occ = single_attenuator_occupancy(1e3, 0.02, 300.0, OMEGA0)
        assert occ == pytest.approx(1.0413, rel=1e-3)

    def test_rejects_attenuation_below_one(self):
        with pytest.raises(ValueError):
            single_attenuator_occupancy(0.5, 0.02, 300.0, OMEGA0)


def _occupancy(temperatures, attenuation):
    """Qubit occupancy by the kernel, behind equal attenuators of
    ``attenuation`` each between the given stages."""
    occ = bose_einstein(np.asarray(temperatures), OMEGA0)
    return chain_occupancy(occ[0], occ[1:] - occ[:-1], 1.0 / attenuation)


class TestChainOccupancy:
    def test_all_cold_stages_give_zero(self):
        assert _occupancy((1e-6, 1e-6, 1e-6), 10.0) == 0.0

    def test_two_stage_chain_matches_single_attenuator(self):
        assert _occupancy((0.02, 300.0), 1e3) == pytest.approx(
            single_attenuator_occupancy(1e3, 0.02, 300.0, OMEGA0), rel=1e-12)

    def test_five_stage_layout_against_term_by_term_sum(self):
        temps = stage_temperatures(0.02, 300.0)
        cum = [1e4 ** (i / 4) for i in range(1, 5)]
        # independent literal summation of the leak-through series
        expected = bose_einstein(temps[0], OMEGA0)
        for i in range(len(temps) - 1):
            expected += (bose_einstein(temps[i + 1], OMEGA0)
                         - bose_einstein(temps[i], OMEGA0)) / cum[i]
        assert _occupancy(temps, cum[0]) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonmonotone_temperatures(self, tech_50ms):
        # the kernel checks nothing; the public entry point refuses a
        # chain whose stages do not rise
        with pytest.raises(ValueError):
            evaluate_ft_point(Workload(1, 1), tech_50ms, ElectronicsScenario.preset("A"),
                              CableModel(), CryoEfficiencyModel(), 0.3, 0.1, 10.0, 1)

    @given(scale=st.floats(1.0, 100.0))
    @settings(max_examples=25)
    def test_nonincreasing_in_attenuation(self, scale):
        base = _occupancy((0.02, 1.0, 300.0), 10.0)
        more = _occupancy((0.02, 1.0, 300.0), 10.0 * scale)
        assert more <= base + 1e-15

    @given(bump=st.floats(0.0, 10.0))
    @settings(max_examples=25)
    def test_nondecreasing_in_temperature(self, bump):
        base = _occupancy((0.02, 1.0, 300.0), 10.0)
        hotter = _occupancy((0.02, 1.0 + bump, 300.0 + bump), 10.0)
        assert hotter >= base - 1e-15


def _chain_transmission_oracle(n_rise, excess, t_min, t_max):
    """:func:`~coldstack.noise.chain_transmission` as first written: Horner's
    rule started from 0 at every Newton step, and a mask of the chains done;
    but t_max where the leak there falls short of the excess, as the root
    then lies above t_max."""
    n_rise = np.asarray(n_rise, dtype=float)
    excess = np.asarray(excess, dtype=float)
    t = np.full(excess.shape, float(t_max))
    for i, rise in enumerate(n_rise, start=1):
        bound = np.divide(excess, rise, out=np.full(excess.shape, np.inf), where=rise > 0)
        t = np.minimum(t, bound ** (1.0 / i))
    h = 0.0
    for rise in n_rise[::-1]:
        h = h * t_max + rise
    above = (t == t_max) & (t_max * h < excess)
    done = np.zeros(t.shape, bool)
    for _ in range(noise._NEWTON_STEPS):
        h, dh = 0.0, 0.0
        for rise in n_rise[::-1]:
            dh = dh * t + h
            h = h * t + rise
        slope = h + t * dh
        step = np.divide(t * h - excess, slope, out=np.zeros_like(t), where=(slope > 0) & ~done)
        t -= step
        done |= np.abs(step) <= noise._NEWTON_RTOL * t
        if done.all():
            break
    return np.where(above, t_max, np.clip(t, t_min, t_max))


def _decades(lo: float, hi: float):
    """10^x for x drawn in [lo, hi]."""
    return st.floats(lo, hi).map(lambda x: 10.0**x)


@st.composite
def _chains(draw):
    """(rises, excess, t_min, t_max) of a batch of chains of 1-7
    attenuators: rises of exactly 0 and from subnormal to 1e4; excesses
    that put the root from 3 decades below the transmission bounds to 1
    above them, so that it lies inside or is clipped at either bound, or
    far above them, where Newton's first step from t_max overshoots and
    can overflow; and excesses across 33 decades, 0 and negative (NaN or
    negative starts)."""
    rises, n = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    rise = st.one_of(st.just(0.0), _decades(-320.0, 4.0), _decades(-3.0, 1.0))
    n_rise = np.array(draw(st.lists(st.lists(rise, min_size=n, max_size=n),
                                    min_size=rises, max_size=rises)))
    t_max = draw(st.one_of(st.just(1.0), _decades(-6.0, 0.0)))
    t_min = t_max * draw(st.one_of(st.just(1.0), _decades(-6.0, -1.0), _decades(-6.0, -1.0)))
    excess = []
    for chain in n_rise.T:
        kind = draw(st.sampled_from(["root", "root", "far", "decades", "zero", "negative"]))
        if kind in ("root", "far"):
            low, high = (-3.0, 1.0) if kind == "root" else (2.0, 40.0)
            root = draw(_decades(math.log10(t_min) + low, math.log10(t_max) + high))
            excess.append(sum(r * root**i for i, r in enumerate(chain, start=1)))
        elif kind == "decades":
            excess.append(draw(_decades(-30.0, 3.0)))
        else:
            excess.append(0.0 if kind == "zero" else -draw(_decades(-30.0, 3.0)))
    return n_rise, np.array(excess, dtype=float), t_min, t_max


class TestChainTransmission:
    @given(chain=_chains())
    # the root 4.6e51 lies far above t_max = 1: a first step would overshoot
    # to 3e154, the next overflow to -inf, and the clip give t_min
    @example(chain=(np.array([[0.0], [0.0], [1e-155]]), np.array([1.0]), 1e-3, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_bits_of_the_recurrence_started_from_0(self, chain):
        rises, excess, t_min, t_max = chain
        with np.errstate(all="ignore"):
            want = _chain_transmission_oracle(rises, excess, t_min, t_max)
            got = noise.chain_transmission(rises, excess, t_min, t_max)
        assert np.array_equal(got, want, equal_nan=True)

    def test_root_far_above_t_max_gives_t_max_at_once(self, monkeypatch):
        # the leak at t_max = 1 is 1e-155, far short of the excess 1: the chain
        # stays at t_max, takes no step that could overflow, and stops
        steps, divide = [], np.divide
        monkeypatch.setattr(np, "divide",
                            lambda *args, **kw: steps.append(1) or divide(*args, **kw))
        got = noise.chain_transmission(np.array([[0.0], [0.0], [1e-155]]), np.array([1.0]),
                                       1e-3, 1.0)
        monkeypatch.undo()
        assert got.tolist() == [1.0]
        assert len(steps) == 3 + 1  # a bound per rise, and one Newton step

    def test_draws_reach_every_kind_of_chain(self):
        # the oracle comparison above sees NaN chains, roots clipped at
        # both bounds, roots inside them and chains whose rises are all 0
        seen = set()

        @given(chain=_chains())
        @settings(max_examples=100, deadline=None, database=None)
        def classify(chain):
            rises, excess, t_min, t_max = chain
            with np.errstate(all="ignore"):
                t = noise.chain_transmission(rises, excess, t_min, t_max)
            kinds = {"nan": np.isnan(t), "low": (t == t_min) & (t_min < t_max),
                     "high": (t == t_max) & (t_min < t_max), "inside": (t_min < t) & (t < t_max),
                     "all zero": (rises == 0.0).all(axis=0)}
            seen.update(kind for kind, chains in kinds.items() if chains.any())

        classify()
        assert seen == {"nan", "low", "high", "inside", "all zero"}


class TestInfidelityAndPauliError:
    def test_zero_noise_product(self, tech_1ms):
        assert worst_case_infidelity_1qb(tech_1ms, 0.0) == pytest.approx(2.5e-5,
                                                                         rel=1e-9)

    def test_duration_from_target_identity(self, tech_1ms):
        # at zero occupancy, a gate of duration (1-M0)/gamma hits M0 exactly
        target = 0.9999
        tau = (1.0 - target) / tech_1ms.gamma
        tech = QubitTechnology(omega0=OMEGA0, gamma=tech_1ms.gamma, tau_1qb=tau)
        assert worst_case_infidelity_1qb(tech, 0.0) == pytest.approx(1.0 - target,
                                                                     rel=1e-12)

    def test_noiseless_limit(self):
        tech = QubitTechnology(omega0=OMEGA0, gamma=1e-12)
        assert worst_case_infidelity_1qb(tech, 0.0) == pytest.approx(0.0, abs=1e-18)

    def test_pauli_error_50ms_anchor(self, tech_50ms):
        assert pauli_error_probability(tech_50ms, 0.0) == pytest.approx(5e-7,
                                                                        rel=1e-12)

    def test_pauli_error_zero_noise_quarter_rule(self, tech_3ms):
        expected = tech_3ms.gamma * tech_3ms.tau_step / 4.0
        assert pauli_error_probability(tech_3ms, 0.0) == pytest.approx(expected,
                                                                       rel=1e-12)

    def test_pauli_error_clamps_and_flags(self, tech_50ms):
        tech = QubitTechnology(omega0=OMEGA0, gamma=1e9)
        p, clamped = pauli_error_probability(tech, 1e6, with_flag=True)
        assert p == 1.0 and clamped
        p, clamped = pauli_error_probability(tech_50ms, 0.0, with_flag=True)
        assert p < 1.0 and not clamped

    @given(n1=st.floats(0.0, 100.0), n2=st.floats(0.0, 100.0))
    @settings(max_examples=50)
    def test_strictly_increasing_in_occupancy(self, n1, n2):
        tech = QubitTechnology(omega0=OMEGA0, gamma=20.0)
        lo, hi = sorted((n1, n2))
        if 1.0 + lo == 1.0 + hi:  # gap below float resolution
            return
        assert (worst_case_infidelity_1qb(tech, lo)
                < worst_case_infidelity_1qb(tech, hi))
        assert (pauli_error_probability(tech, lo)
                < pauli_error_probability(tech, hi))

    @given(g1=st.floats(1.0, 1e4), g2=st.floats(1.0, 1e4))
    @settings(max_examples=50)
    def test_strictly_increasing_in_gamma(self, g1, g2):
        lo, hi = sorted((g1, g2))
        if lo == hi:
            return
        slow = QubitTechnology(omega0=OMEGA0, gamma=lo)
        fast = QubitTechnology(omega0=OMEGA0, gamma=hi)
        assert (worst_case_infidelity_1qb(slow, 0.5)
                < worst_case_infidelity_1qb(fast, 0.5))
        assert (pauli_error_probability(slow, 0.5)
                < pauli_error_probability(fast, 0.5))


class TestLindbladOracle:
    @pytest.mark.parametrize("n_noise", [0.0, 0.5, 2.0])
    def test_first_order_formula_within_5_percent(self, n_noise):
        tau = 25e-9
        gamma = 1e-3 / tau  # gamma * tau = 1e-3
        tech = QubitTechnology(omega0=OMEGA0, gamma=gamma, tau_1qb=tau)
        oracle = worst_case_infidelity_oracle(gamma, tau, n_noise)
        formula = worst_case_infidelity_1qb(tech, n_noise)
        assert abs(oracle - formula) / formula < 0.05

    def test_tighter_agreement_at_smaller_noise(self):
        tau = 25e-9
        gamma = 1e-4 / tau
        oracle = worst_case_infidelity_oracle(gamma, tau, 0.0)
        assert abs(oracle - gamma * tau) / (gamma * tau) < 0.01
