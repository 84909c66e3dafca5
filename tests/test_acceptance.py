"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line and asserting at its stated tolerance."""

import numpy as np
import pytest

from coldstack import (
    CableModel,
    CryoEfficiencyModel,
    ElectronicsScenario,
    QubitTechnology,
    Workload,
    cable_heat_flow,
    evaluate_ft_point,
    nisq_circuit,
    optimize_ft,
    optimize_nisq,
    optimize_single_qubit,
    pauli_error_probability,
    rsa_energy_summary,
    rsa_workload,
    transition_size_estimate,
    worst_case_infidelity_1qb,
)
from coldstack.optimize import RELATIVE_TIE, FtToggles
from coldstack.qec import (
    LogicalGateCounts,
    P_THRESHOLD,
    QUBIT_GROWTH,
    RECTANGULAR_MIX,
    physical_gate_counts_fractions,
    physical_gate_counts_rectangular,
    transfer_matrix_floats,
)
from coldstack.results import emit_results
from coldstack.workloads import classical_energy_time

from conftest import OMEGA0
from lindblad_oracle import worst_case_infidelity_oracle

SCEN_A = ElectronicsScenario.preset("A")
SCEN_C = ElectronicsScenario.preset("C")
CABLE = CableModel()
CARNOT = CryoEfficiencyModel("carnot")
SMALL_SCALE = CryoEfficiencyModel("small_scale")
TECH_50MS = QubitTechnology(omega0=OMEGA0, gamma=20.0)


class _Report:
    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number} ({self.name}): {status}")
        return False


@pytest.fixture(scope="module")
def star():
    """Optimized 2048-bit-key-sized point: Q_L=6175, D_L=2.1e9, 50 ms
    qubits, scenario A, Carnot cryogenics."""
    return optimize_ft(Workload(6175, 2_100_000_000), TECH_50MS, SCEN_A)


def test_criterion_1_code_counting_identities():
    with _Report(1, "code-counting identities"):
        assert QUBIT_GROWTH == 7 + 3 * 28
        eigenvalues = sorted(np.linalg.eigvals(transfer_matrix_floats()).real,
                             reverse=True)
        assert abs(eigenvalues[0] - 64.0) / 64.0 < 1e-9
        assert abs(eigenvalues[1] - 7.0 / 3.0) / (7.0 / 3.0) < 1e-9
        assert tuple(float(c) for c in RECTANGULAR_MIX) == tuple(
            c / 185.0 for c in (64, 28, 29, 28))
        rng = np.random.default_rng(7)
        q_logical = 185
        for k, tol in ((1, 0.25), (2, 0.01), (3, 0.01)):
            approx = physical_gate_counts_rectangular(q_logical, k)
            for _ in range(20):
                n2 = int(rng.integers(0, q_logical // 2 + 1))
                n1 = int(rng.integers(0, q_logical - 2 * n2 + 1))
                nid = q_logical - 2 * n2 - n1
                exact = physical_gate_counts_fractions(
                    LogicalGateCounts(n2, n1, nid, 0), k)
                for a, e in zip(approx, exact):
                    assert abs(a - float(e)) / float(e) < tol


def test_criterion_2_noise_anchors():
    with _Report(2, "noise anchors"):
        assert pauli_error_probability(TECH_50MS, 0.0) == pytest.approx(
            P_THRESHOLD / 40.0, rel=1e-12)
        tech_3ms = QubitTechnology(omega0=OMEGA0, gamma=1.0 / 3e-3)
        ratio = pauli_error_probability(tech_3ms, 0.0) / P_THRESHOLD
        # formula value is 5/12 ~ 0.4167, quoted as "~0.4"
        assert ratio == pytest.approx(5.0 / 12.0, rel=1e-12)
        assert abs(ratio - 0.4) / 0.4 < 0.10


def test_criterion_3_star_point_reproduction(star):
    with _Report(3, "flagship fault-tolerant operating point"):
        assert star.feasible
        assert star.control.k == 3
        assert star.physical_qubits == QUBIT_GROWTH**3 * 6175
        assert abs(star.physical_qubits - 4.6e9) / 4.6e9 < 0.02
        assert 7e6 / 2 < star.power_w < 7e6 * 2
        assert 1.3e-3 <= star.per_qubit_power_w <= 2.0e-3


def test_criterion_4_rsa_830_point():
    with _Report(4, "830-bit factoring cost and classical baseline"):
        wl = rsa_workload(830)
        res = optimize_ft(wl, TECH_50MS, SCEN_A)
        assert res.feasible
        duration, energy, efficiency = rsa_energy_summary(830, res, wl, TECH_50MS)
        assert abs(duration - 16 * 60) / (16 * 60) < 0.20
        assert 2.9e6 / 2 < res.power_w < 2.9e6 * 2
        assert 2.7e9 / 2 < energy < 2.7e9 * 2
        assert 3e-7 / 2 < efficiency < 3e-7 * 2
        e_classical, t_classical = classical_energy_time(830)
        assert e_classical == 1e12
        assert 8 * 86400 <= t_classical <= 9 * 86400
        assert abs(830 / e_classical - 8e-10) < 0.5e-10


def test_criterion_5_qubit_quality_scaling():
    with _Report(5, "power drop from tenfold qubit-quality gain"):
        wl = Workload(6175, 2_100_000_000)
        p_50ms = optimize_ft(wl, TECH_50MS, SCEN_A).power_w
        tech_500ms = QubitTechnology(omega0=OMEGA0, gamma=2.0)
        p_500ms = optimize_ft(wl, tech_500ms, SCEN_A).power_w
        ratio = p_50ms / p_500ms
        assert 100.0 / 3.0 < ratio < 100.0 * 3.0


def test_criterion_6_transition_positions():
    with _Report(6, "concatenation-level transitions vs closed form"):
        q_logical = 6175
        per_decade = 10
        step = 10.0 ** (1.0 / per_decade)
        toggles = FtToggles(metric_form="exact")
        for k in (0, 1, 2):
            predicted = transition_size_estimate(TECH_50MS, 2.0 / 3.0, k)
            d_center = predicted / q_logical
            d_values = np.unique(np.round(
                d_center * step ** np.arange(-5, 6)).astype(np.int64))
            d_values = d_values[d_values >= 1]
            levels = []
            for d in d_values:
                res = optimize_ft(Workload(q_logical, int(d)), TECH_50MS,
                                  SCEN_A, toggles=toggles)
                assert res.feasible
                levels.append(res.control.k)
            # levels never decrease as the workload grows
            assert all(b >= a for a, b in zip(levels, levels[1:]))
            jumps = [i for i in range(len(levels) - 1)
                     if levels[i] == k and levels[i + 1] == k + 1]
            assert jumps, f"no {k}->{k + 1} transition inside the window"
            i = jumps[0]
            lo = d_values[i] * q_logical / step
            hi = d_values[i + 1] * q_logical * step
            assert lo <= predicted <= hi


def test_criterion_7_single_qubit_dressed_efficiency():
    with _Report(7, "single-gate dressed efficiency"):
        tech = QubitTechnology(omega0=OMEGA0, gamma=1000.0)
        res = optimize_single_qubit(tech, 0.99965)
        assert res.feasible
        efficiency = res.metric_achieved / res.power_w
        assert 3e6 / 2 < efficiency < 3e6 * 2
        assert 2e4 / 2 < res.magnification < 2e4 * 2


def test_criterion_8_nisq_interior_compression(tech_1ms):
    with _Report(8, "circuit compression optimal at m = q-3 while A* > 1"):
        # 25-qubit compressible circuit, 1 ms qubits, the standard 2/3
        # success target.  Id gates fill the idle slots, so every
        # compression carries q*D error-weighted gates.  On the constraint
        # boundary the depth D cancels between the attenuation and the
        # parallel-gate weight, leaving
        #   P = n2/4 * P_pi * (T_ext - T)/T * (n_hot - n_c) / (c - (1 + n_c) D)
        # with c = (1 - M)/(q gamma tau), which falls strictly with D.
        # While the boundary attenuation stays above its lower bound 1 at
        # every compression, the optimum is maximal compression, m = q-3
        # (derivation in the optimize_nisq docstring).
        q, target = 25, 2.0 / 3.0
        res = optimize_nisq(q, target, tech_1ms)
        assert res.feasible
        assert abs(res.metric_achieved - target) < 1e-6

        m_values = range(q - 2)
        solves = [optimize_nisq(q, target, tech_1ms, fixed_m=m) for m in m_values]
        assert all(s.feasible for s in solves)
        # the derivation's premise: the attenuation bound is slack
        assert all(s.control.a_total > 1.0 for s in solves)
        powers = [s.power_w for s in solves]
        assert all(later < earlier for earlier, later in zip(powers, powers[1:]))
        best = min(m_values, key=powers.__getitem__)
        assert all(powers[best] < p * (1 - RELATIVE_TIE)
                   for m, p in enumerate(powers) if m != best)
        assert res.control.m == best == q - 3
        assert abs(res.power_w - powers[best]) <= 1e-12 * powers[best]

        # both sides of the trade-off: fewer error-weighted gates, more
        # two-qubit gates driven in parallel per step
        circuits = [nisq_circuit(q, m) for m in m_values]
        weighted = [c.n_gates_weighted for c in circuits]
        parallel = [0.25 * c.n_2qb_avg for c in circuits]
        assert all(b < a for a, b in zip(weighted, weighted[1:]))
        assert all(b > a for a, b in zip(parallel, parallel[1:]))


def test_criterion_9_small_scale_cryostat_preferences():
    with _Report(9, "level preferences under non-ideal cryogenics"):
        wl = Workload(6175, 2_100_000_000)
        c_levels = {}
        a_levels = {}
        for gamma_inv in (0.3, 0.5, 1.0):
            tech = QubitTechnology(omega0=OMEGA0, gamma=1.0 / gamma_inv)
            a_levels[gamma_inv] = optimize_ft(
                wl, tech, SCEN_A, model=SMALL_SCALE).control.k
            c_levels[gamma_inv] = optimize_ft(
                wl, tech, SCEN_C, model=SMALL_SCALE).control.k
        assert all(k == 2 for k in a_levels.values()), a_levels
        assert any(k == 3 for k in c_levels.values()), c_levels


def test_criterion_10_property_suites(tmp_path, star):
    with _Report(10, "oracle, additivity, certificate, determinism"):
        # numerical master-equation oracle vs the first-order formula
        tech = QubitTechnology(omega0=OMEGA0, gamma=1e-3 / 25e-9, tau_1qb=25e-9)
        oracle = worst_case_infidelity_oracle(tech.gamma, 25e-9, 0.5)
        formula = worst_case_infidelity_1qb(tech, 0.5)
        assert abs(oracle - formula) / formula < 0.05

        # heat-flow interval additivity at 1e-9 relative
        rng = np.random.default_rng(11)
        for _ in range(25):
            t1, t2, t3 = np.sort(rng.uniform(1e-3, 300.0, size=3))
            whole = cable_heat_flow(t1, t3, CABLE)
            parts = cable_heat_flow(t1, t2, CABLE) + cable_heat_flow(t2, t3, CABLE)
            assert abs(parts - whole) <= 1e-9 * whole

        # local-optimality certificate at the reported optimum
        wl = Workload(6175, 2_100_000_000)
        bounds = {"t_qb": (1e-3, 4.0), "t_gen": (4.0, 300.0)}
        base = {"t_qb": star.control.t_qb, "t_gen": star.control.t_gen,
                "a_total": star.control.a_total}
        for axis, step in star.grid_step_log10.items():
            for sign in (+1, -1):
                point = dict(base)
                point[axis] *= 10.0 ** (sign * step)
                lo, hi = bounds[axis]
                if not (lo <= point[axis] <= hi):
                    continue
                ev = evaluate_ft_point(wl, TECH_50MS, SCEN_A, CABLE, CARNOT,
                                       point["t_qb"], point["t_gen"],
                                       point["a_total"], star.control.k)
                if ev.metric_achieved >= 2.0 / 3.0:
                    assert ev.power_w >= star.power_w * (1 - 1e-12)
        # perturbing the attenuation one relative step either way
        for factor in (1.01, 1 / 1.01):
            ev = evaluate_ft_point(wl, TECH_50MS, SCEN_A, CABLE, CARNOT,
                                   base["t_qb"], base["t_gen"],
                                   base["a_total"] * factor, star.control.k)
            if ev.metric_achieved >= 2.0 / 3.0:
                assert ev.power_w >= star.power_w * (1 - 1e-12)

        # emitted files are byte-identical across repeat runs
        records = [{"power_w": star.power_w, "k": star.control.k,
                    "t_qb_k": star.control.t_qb}]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(records, str(a))
        emit_results(records, str(b))
        assert a.read_bytes() == b.read_bytes()
