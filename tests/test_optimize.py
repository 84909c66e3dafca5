import collections
import gc
import itertools
import math
import os
import pathlib
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from coldstack import (
    CableModel,
    CryoEfficiencyModel,
    ElectronicsScenario,
    GridOptions,
    QubitTechnology,
    Workload,
    bare_efficiency_max,
    evaluate_ft_point,
    ft_duration_s,
    optimize_ft,
    optimize_nisq,
    optimize_single_qubit,
    pi_pulse_power,
    rsa_energy_summary,
    rsa_workload,
    single_attenuator_occupancy,
    transition_size_estimate,
)
from coldstack import optimize, qec, thermal
from coldstack.config import ConfigError, load_config
from coldstack.driver import SweepAxis, run_problem, sweep
from coldstack.noise import (
    K_B,
    _bose_einstein,
    _pauli_error,
    chain_occupancy,
    chain_transmission,
)
from coldstack.optimize import (
    REFINEMENT_FACTOR,
    RELATIVE_TIE,
    FtToggles,
    _AttenuatorProblem,
    _FtProblem,
    _grid_refine,
    _refined_axis,
)
from coldstack.workloads import compression_costs, nisq_circuit

from conftest import OMEGA0, edge_biased, in_order_total, valid_config_texts

CABLE = CableModel()
SCEN_A = ElectronicsScenario.preset("A")
LIGHT = GridOptions(temperature_points_per_decade=20)


@pytest.fixture(scope="module")
def tech50():
    return QubitTechnology(omega0=OMEGA0, gamma=20.0)


@pytest.fixture(scope="module")
def star_result(tech50):
    """Default-grid optimum of the 2048-bit-key-sized workload."""
    return optimize_ft(Workload(6175, 2_100_000_000), tech50, SCEN_A)


@pytest.fixture(scope="module")
def gate_opt():
    tech = QubitTechnology(omega0=OMEGA0, gamma=1000.0)
    return tech, optimize_single_qubit(tech, 0.99965)


class TestGridOptions:
    @pytest.mark.parametrize("field, value", [("temperature_points_per_decade", 0),
                                              ("refinement_passes", -1),
                                              ("refinement_passes", 29),
                                              ("refinement_passes", 1_000_000_000)])
    def test_rejects_a_schedule_the_search_cannot_run(self, field, value):
        with pytest.raises(ValueError):
            GridOptions(**{field: value})

    @pytest.mark.parametrize("field, value", [("k_min", 2.5), ("k_max", 6.0),
                                              ("k_max", np.float64(6.0)), ("k_min", -1)])
    def test_rejects_a_level_bound_that_is_no_nonnegative_integer(self, field, value):
        # a float bound failed in range() when the search began
        with pytest.raises(ValueError, match=f"{field} must be a nonnegative integer"):
            GridOptions(**{field: value})

    def test_accepts_numpy_integer_level_bounds(self, tech_50ms):
        options = GridOptions(temperature_points_per_decade=1, k_min=np.int64(1),
                              k_max=np.int32(4))
        plain = replace(options, k_min=1, k_max=4)
        assert repr(optimize_ft(rsa_workload(2048), tech_50ms, SCEN_A, options=options)) == \
            repr(optimize_ft(rsa_workload(2048), tech_50ms, SCEN_A, options=plain))

    def test_the_last_pass_that_moves_a_node_is_the_top_of_the_range(self):
        # a coarse spacing of 1 decade, the widest, refined pass by pass: the
        # rows of pass 28 still leave their centres, those of pass 29 do not
        top = optimize.REFINEMENT_PASSES_RANGE[1]
        # a column of centres gives a row for each, as the arithmetic is elementwise
        centers = 10.0 ** np.random.default_rng(28).uniform(-6.0, 4.0, 100_000)
        for passes, moved in ((top, True), (top + 1, False)):
            rows, _ = _refined_axis(centers[:, None], 1.0 / REFINEMENT_FACTOR ** (passes - 1),
                                    0.0, np.inf)
            assert np.any(rows != centers[:, None]) == moved

    def test_passes_past_the_range_move_no_answer(self, tech_50ms):
        # at 1 point per decade, 28 and 30 passes: the same point and power,
        # a finer reported step; GridOptions past the range are built unchecked
        sparse, more = (GridOptions(temperature_points_per_decade=1, refinement_passes=28)
                        for _ in range(2))
        object.__setattr__(more, "refinement_passes", 30)
        for run in (partial(optimize_single_qubit, tech_50ms, 0.99),
                    partial(optimize_ft, rsa_workload(2048), tech_50ms, SCEN_A)):
            at, past = run(options=sparse), run(options=more)
            assert (past.control, past.power_w) == (at.control, at.power_w)
            assert all(0.0 < past.grid_step_log10[k] < step
                       for k, step in at.grid_step_log10.items())

    @pytest.mark.parametrize("passes", [0, 1])
    def test_runs_the_sparsest_schedule(self, tech_50ms, passes):
        options = GridOptions(temperature_points_per_decade=1, refinement_passes=passes)
        assert optimize_single_qubit(tech_50ms, 0.99, options=options).feasible
        assert optimize_ft(rsa_workload(2048), tech_50ms, SCEN_A, options=options).feasible


class TestBareEfficiency:
    def test_closed_form_against_independent_derivation(self, tech_1ms):
        # eliminate the gate duration via the zero-noise constraint and
        # evaluate metric-over-power directly
        target = 0.99965
        tau_star = (1.0 - target) / tech_1ms.gamma
        expected = target / pi_pulse_power(tech_1ms, tau_star)
        assert bare_efficiency_max(tech_1ms, target) == pytest.approx(expected,
                                                                      rel=1e-12)

    def test_vanishes_at_perfect_metric(self, tech_1ms):
        assert bare_efficiency_max(tech_1ms, 1.0 - 1e-12) < 1e-10 * (
            bare_efficiency_max(tech_1ms, 0.5))

    def test_maximal_at_one_third(self, tech_1ms):
        targets = np.linspace(0.01, 0.99, 981)
        values = [bare_efficiency_max(tech_1ms, t) for t in targets]
        assert targets[int(np.argmax(values))] == pytest.approx(1.0 / 3.0,
                                                                abs=2e-3)

    def test_fixed_duration_efficiency_magnitude(self, tech_1ms):
        # at the standard 25 ns gate the metric-per-drive-power ratio
        # sits in the 1e10..1e11 range
        eta = 0.99965 / pi_pulse_power(tech_1ms, 25e-9)
        assert 1e10 < eta < 1e11


class TestOptimizeSingleQubit:
    def test_dressed_efficiency_anchor(self, gate_opt):
        tech, res = gate_opt
        assert res.feasible
        eta = res.metric_achieved / res.power_w
        assert 1.5e6 < eta < 6e6  # 3e6 within a factor 2

    def test_magnification_anchor(self, gate_opt):
        _, res = gate_opt
        assert 1e4 < res.magnification < 4e4  # 2e4 within a factor 2

    def test_constraint_active_within_tolerance(self, gate_opt):
        _, res = gate_opt
        assert res.metric_achieved >= 0.99965 - 1e-9
        assert abs(res.metric_achieved - 0.99965) <= 1e-6

    def test_infeasible_above_zero_noise_bound(self, tech_1ms):
        res = optimize_single_qubit(tech_1ms, 1.0 - 1e-5)
        assert not res.feasible
        assert "zero-noise" in res.diagnostic
        assert res.power_w == math.inf

    def test_target_met_only_beyond_the_float_range(self):
        # a lifetime at the float maximum needed a drive of ~1e300 W, which
        # 120 dB of attenuation took past the float range: it lies outside
        # the domain, and the technology rejects it
        with pytest.raises(ValueError, match="1 / gamma must lie in"):
            QubitTechnology(omega0=OMEGA0, gamma=1.0 / 1.7976931348623157e308)

    def test_target_zero_is_met_where_the_infidelity_floor_exceeds_one(self):
        # gamma*tau_1qb = 1000, at the shortest lifetime of the domain: the
        # metric, clamped at 0, meets a target of 0 everywhere, so the
        # zero-noise bound is max(0, 1 - floor), and the least power is the
        # drive at the warmest qubits and A = 1
        tech = QubitTechnology(omega0=OMEGA0, gamma=1e9, tau_1qb=1e-6)
        res = optimize_single_qubit(tech, 0.0)
        assert res.feasible and res.metric_achieved == 0.0
        assert res.control.t_qb == 4.0 and res.control.a_total == 1.0
        assert res.power_w == pytest.approx(74.0 * pi_pulse_power(tech, 1e-6), rel=1e-12)
        res = optimize_single_qubit(tech, 1e-9)
        assert not res.feasible
        assert res.diagnostic.startswith("target metric 1e-09 exceeds the zero-noise bound 0 ")

    def test_stage_record_consistent(self, gate_opt):
        _, res = gate_opt
        (record,) = res.per_stage
        assert record.electrical_power_w == pytest.approx(res.power_w, rel=1e-12)
        assert record.source == "attenuator"

    def test_local_optimality_certificate(self, gate_opt):
        tech, res = gate_opt
        p_pi = pi_pulse_power(tech, tech.tau_1qb)
        target = 0.99965

        def power_metric(t_qb, a):
            occ = single_attenuator_occupancy(a, t_qb, 300.0, tech.omega0)
            metric = 1.0 - tech.gamma * tech.tau_1qb * (1.0 + occ)
            return (300.0 - t_qb) / t_qb * a * p_pi, metric

        t0, a0 = res.control.t_qb, res.control.a_total
        for axis, step in res.grid_step_log10.items():
            for direction in (+1, -1):
                factor = 10.0 ** (direction * step)
                t_qb, a = (t0 * factor, a0) if axis == "t_qb" else (t0, a0 * factor)
                power, metric = power_metric(t_qb, a)
                if metric >= target:
                    assert power >= res.power_w * (1 - 1e-12)

    def test_grid_halving_changes_power_below_one_percent(self):
        tech = QubitTechnology(omega0=OMEGA0, gamma=1000.0)
        coarse = optimize_single_qubit(tech, 0.99965)
        fine = optimize_single_qubit(
            tech, 0.99965,
            options=GridOptions(temperature_points_per_decade=80))
        assert abs(fine.power_w - coarse.power_w) / coarse.power_w < 0.01


@st.composite
def nisq_searches(draw):
    """(q, target, technology, grid options) of NISQ searches, in equal
    shares: target 0; any target; a target between the zero-noise bounds
    of compressions j-1 and j, which the compressions below j cannot
    reach; and a lax target on long-lived qubits, where the optimum can
    be an interior compression with the attenuation at its lower bound.
    The draws favour three qubits, equal qubit-temperature bounds, the
    optimum at their upper bound, and a raised attenuation floor."""
    mode = draw(st.sampled_from(["zero", "any", "between", "interior"]))
    if mode == "interior":
        q, lifetime = draw(st.integers(5, 24)), draw(st.floats(0.02, 0.1))
    else:
        q = draw(st.one_of(st.just(3), st.integers(4, 24), st.integers(4, 24)))
        lifetime = draw(edge_biased(1e-4, 0.1))
    tech = QubitTechnology(omega0=OMEGA0, gamma=1.0 / lifetime)
    if mode == "zero":
        target = 0.0
    elif mode == "interior":
        target = draw(st.floats(0.05, 0.5))
    else:
        target = draw(st.floats(0.0, 0.999))
    if mode == "between" and q > 3:
        j = draw(st.integers(1, q - 3))
        lo, hi = (1.0 - nisq_circuit(q, m).n_gates_weighted * tech.gamma * tech.tau_1qb
                  for m in (j - 1, j))
        target = max(0.0, lo + draw(st.floats(0.0, 1.0)) * (hi - lo))
    # the qubit stage's lower bound stays below the generation stage's, 4 K,
    # and for targets near a zero-noise bound, cold enough to reach them
    t_lo = draw(edge_biased(1e-3, 0.05 if mode == "between" else 3.0))
    t_hi = 4.0 if mode == "interior" else draw(
        st.one_of(st.just(t_lo), st.just(4.0), st.floats(t_lo, 4.0)))
    a_lo = 1.0 if mode == "interior" else draw(st.one_of(st.just(1.0),
                                                          edge_biased(1.0, 1e4)))
    options = GridOptions(
        temperature_points_per_decade=draw(st.integers(1, 20)),
        refinement_passes=draw(st.integers(0, 2)), t_qb_bounds=(t_lo, t_hi),
        attenuation_bounds=(a_lo, 1e12))
    return q, target, tech, options


def _ascending_m_reduction(q, target, tech, options=GridOptions(), t_ext=300.0):
    """The reduction of the one-compression searches in ascending m."""
    best = None
    for m in range(q - 2):
        res = optimize_nisq(q, target, tech, options, t_ext, fixed_m=m)
        if best is None or res.power_w < best.power_w * (1 - RELATIVE_TIE):
            best = res
    return best


#: NISQ configs at target 0, on a one-point qubit-temperature box, and
#: with t_ext at either end of its domain.
NISQ_EDGE_CONFIGS = (
    "[workload]\nkind = nisq\n[target]\nmetric = 0.0\n",
    "[workload]\nkind = nisq\n[chain]\nt_qb_min_k = 0.01\nt_qb_max_k = 0.01\n",
    "[workload]\nkind = nisq\n[chain]\nt_ext_k = 4.0\nt_qb_max_k = 3.9\nt_gen_max_k = 4.0\n",
    "[workload]\nkind = nisq\n[chain]\nt_ext_k = 10000.0\nt_qb_max_k = 9999.0\n",
)


class TestOptimizeNisq:
    @given(search=nisq_searches())
    @settings(max_examples=100, deadline=None)
    def test_batch_matches_compressions_solved_alone(self, search):
        # the ascending-m reduction of the one-compression searches
        q, target, tech, options = search
        best = None
        for m in range(q - 2):
            res = optimize_nisq(q, target, tech, options, fixed_m=m)
            if best is None or res.power_w < best.power_w * (1 - RELATIVE_TIE):
                best = res
        assert repr(optimize_nisq(q, target, tech, options)) == repr(best)

    # the probe leaves no compression at 0.99, and the floors skip all but
    # the winner at 0 and 0.9
    @pytest.mark.parametrize("target, searches", [(0.0, 1), (0.9, 1), (0.99, 0)])
    def test_searches_only_the_compressions_that_can_win(self, tech_1ms, target, searches,
                                                         monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _grid_refine(*args)

        monkeypatch.setattr(optimize, "_grid_refine", counting)
        optimize_nisq(25, target, tech_1ms)
        assert len(calls) == searches

    @given(text=valid_config_texts(kinds=("nisq",)))
    @example(text=NISQ_EDGE_CONFIGS[0])
    @example(text=NISQ_EDGE_CONFIGS[1])
    @example(text=NISQ_EDGE_CONFIGS[2])
    @example(text=NISQ_EDGE_CONFIGS[3])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_floors_bound_and_the_probe_keeps_the_feasible_compressions(self, text):
        # each compression searched alone, probe and floor aside: the probe
        # keeps exactly the compressions it finds a point for, and the
        # floor lies at or below the power it finds
        cfg = load_config(text=text)
        q, target, options = cfg.nisq_qubits, cfg.target_metric, cfg.grid_options()
        problem = _AttenuatorProblem(cfg.technology(), *compression_costs(q, np.arange(q - 2)),
                                     cfg.t_ext_k)
        reachable = problem.reachable(target, options)
        floors = problem.power_floor(target, options)
        for m in range(q - 2):
            found, _ = _grid_refine(partial(problem.alone(m).solve, target, options),
                                    [("t_qb", options.t_qb_bounds)], options)
            assert reachable[m] == (found is not None)
            if found is not None:
                assert floors[m] <= found[0]

    @pytest.mark.parametrize("bounds, per_decade, omega0", [
        ((1e-3, 4.0), 40, OMEGA0), ((1e-3, 4.0), 3, 2.0 * math.pi * 1e6),
        ((0.5, 0.5), 40, OMEGA0), ((1e-6, 1e-3), 7, 2.0 * math.pi * 1e12)])
    def test_occupancy_table_is_cached_read_only_and_has_the_kernels_bits(
            self, bounds, per_decade, omega0):
        # the probe reads node 0, the floors the cold nodes and the first
        # solve the whole axis: each has the bits of the kernel on fresh
        # copies of those nodes, as a search lays them out
        axis, table = optimize._axis_occupancies(*bounds, per_decade, omega0)
        assert axis is optimize._log_axis(*bounds, per_decade)[0]
        hits = optimize._axis_occupancies.cache_info().hits
        assert optimize._axis_occupancies(*bounds, per_decade, omega0)[1] is table
        assert optimize._axis_occupancies.cache_info().hits == hits + 1
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
        cold = slice(None, -1) if axis.size > 1 else slice(None)
        for nodes in (slice(None, 1), cold, slice(None)):
            fresh = _bose_einstein(np.array(axis[nodes]), omega0)
            assert table[nodes].tobytes() == fresh.tobytes()

    def test_an_interior_optimum_is_the_reduction_of_every_compression(self):
        # with long-lived qubits and a lax target the compressions' powers
        # lie closest together, so a loose floor would skip the winner
        tech = QubitTechnology(omega0=OMEGA0, gamma=1.0)
        res = optimize_nisq(25, 0.9, tech)
        assert repr(res) == repr(_ascending_m_reduction(25, 0.9, tech))
        assert 0 < res.control.m < 25 - 3

    @pytest.mark.parametrize("q", [2, 1, 0])
    def test_fewer_than_three_qubits_raise_the_circuits_error(self, tech_1ms, q):
        with pytest.raises(ValueError, match="circuit needs at least 3 qubits"):
            optimize_nisq(q, 0.5, tech_1ms)

    @pytest.mark.parametrize("q, fixed_m", [(12.0, None), (25, 2.5), (25, 2.0), (25.0, 2),
                                            (np.float64(12.0), None)])
    def test_sizes_that_are_not_integers_raise(self, tech_1ms, q, fixed_m):
        # a float qubit count failed in range(); a fractional fixed_m answered with it
        with pytest.raises(ValueError, match="must be an integer"):
            optimize_nisq(q, 0.5, tech_1ms, fixed_m=fixed_m)

    def test_numpy_integer_sizes_answer_as_python_ints(self, tech_1ms):
        for fixed_m in (None, 18):
            got = optimize_nisq(np.int64(25), 0.9, tech_1ms,
                                fixed_m=None if fixed_m is None else np.int64(fixed_m))
            assert type(got.control.m) is int and type(got.physical_qubits) is int
            assert repr(got) == repr(optimize_nisq(25, 0.9, tech_1ms, fixed_m=fixed_m))

    def test_fixed_compression_matches_inner_solver(self, tech_1ms):
        # the shared inner solver, handed every compression's gate weight
        # and power scale directly as one batch, reproduces the
        # per-compression optimization in the search of that compression
        # alone
        target, m = 0.9, 18
        res = optimize_nisq(25, target, tech_1ms, fixed_m=m)
        circuits = [nisq_circuit(25, j) for j in range(23)]
        problem = _AttenuatorProblem(
            tech_1ms, [circ.n_gates_weighted for circ in circuits],
            [circ.n_1qb_avg + 0.25 * circ.n_2qb_avg for circ in circuits], 300.0)
        options = GridOptions()
        found, _ = _grid_refine(
            partial(problem.alone(m).solve, target, options), [("t_qb", options.t_qb_bounds)],
            options)
        power, (t_star,), a_star = found
        assert res.control.t_qb == pytest.approx(t_star, rel=1e-12)
        assert res.control.a_total == pytest.approx(a_star, rel=1e-12)
        assert res.power_w == pytest.approx(power, rel=1e-12)

    def test_unconstrained_limit_hits_cheap_corner(self, tech_1ms):
        # with no metric requirement the cheapest point is the warmest
        # qubit stage, no attenuation, no parallelism
        res = optimize_nisq(25, 0.0, tech_1ms)
        assert res.control.t_qb == pytest.approx(4.0, rel=1e-9)
        assert res.control.a_total == pytest.approx(1.0, rel=1e-9)
        assert res.control.m == 0

    def test_infeasible_target(self, tech_1ms):
        res = optimize_nisq(25, 0.99, tech_1ms)
        assert not res.feasible and "unreachable" in res.diagnostic

    def test_target_met_only_beyond_the_float_range(self):
        # its lifetime, at the float maximum, lies outside the domain
        with pytest.raises(ValueError, match="1 / gamma must lie in"):
            QubitTechnology(omega0=OMEGA0, gamma=1.0 / 1.7976931348623157e308)

    def test_infidelity_beyond_the_float_range_warns_nothing(self):
        # gamma*tau_1qb of 1.8e302, whose weighted infidelity overflowed,
        # lies outside the domain; at its corner of largest infidelity,
        # gamma*tau_1qb = 1e15, the metric is 0, as its clamp gives it,
        # without a RuntimeWarning
        with pytest.raises(ValueError, match="1 / gamma must lie in"):
            QubitTechnology(omega0=OMEGA0, gamma=1.8e302, tau_1qb=1e-6)
        tech = QubitTechnology(omega0=2.0 * math.pi * 1e13, gamma=1e9, tau_1qb=1e6,
                               tau_2qb=1e6, tau_meas=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = optimize_nisq(25, 2.0 / 3.0, tech, t_ext=1e4)
            gate = optimize_single_qubit(tech, 0.0, t_ext=1e4)
        assert not res.feasible and gate.feasible and gate.metric_achieved == 0.0

    def test_metric_boundary_hit(self, tech_1ms):
        res = optimize_nisq(25, 0.9, tech_1ms)
        assert res.feasible
        assert res.metric_achieved >= 0.9 - 1e-9
        assert abs(res.metric_achieved - 0.9) < 1e-6

    def test_local_optimality_certificate(self, tech_1ms):
        target = 0.9
        res = optimize_nisq(25, target, tech_1ms)
        circ = nisq_circuit(25, res.control.m)
        # a batch of one: the winning compression alone
        problem = _AttenuatorProblem(
            tech_1ms, [circ.n_gates_weighted],
            [circ.n_1qb_avg + 0.25 * circ.n_2qb_avg], 300.0)
        step = res.grid_step_log10["t_qb"]
        for axis, bounds in (("t_qb", (1e-3, 4.0)), ("a_total", (1.0, 1e12))):
            for sign in (+1, -1):
                t_qb, a = res.control.t_qb, res.control.a_total
                if axis == "t_qb":
                    t_qb *= 10.0 ** (sign * step)
                else:
                    a *= 10.0 ** (sign * step)
                lo, hi = bounds
                value = t_qb if axis == "t_qb" else a
                if not (lo <= value <= hi):
                    continue
                if problem.metric(t_qb, a).item() >= target:
                    assert problem.power(t_qb, a).item() >= res.power_w * (1 - 1e-12)


def _bisect_attenuation(gap, lo, hi, shape):
    """Reference boundary solve, written out: per point, the smallest
    attenuation with gap >= 0 by bisection in log10 A."""
    log_lo = np.full(shape, math.log10(lo))
    log_hi = np.full(shape, math.log10(hi))
    for _ in range(200):
        mid = 0.5 * (log_lo + log_hi)
        ok = gap(mid) >= 0.0
        log_hi = np.where(ok, mid, log_hi)
        log_lo = np.where(ok, log_lo, mid)
    return 10.0**log_hi


def _check_boundary(a_star, gap, metric_at, target, lo, hi):
    """``a_star`` is ``lo`` where the target holds there, NaN where it
    fails even at ``hi`` (``gap`` reads -inf on invalid chains), and
    elsewhere the bisection's attenuation to 1e-12 relative, or meets
    the target to 1e-12 where the metric is that flat in A.  Returns the
    masks (slack, unreachable, active)."""
    shape = a_star.shape
    slack = gap(np.full(shape, math.log10(lo))) >= 0.0
    reachable = gap(np.full(shape, math.log10(hi))) >= 0.0
    assert np.array_equal(np.isnan(a_star), ~reachable)
    assert np.all(a_star[slack] == lo)
    active = reachable & ~slack
    ref = _bisect_attenuation(gap, lo, hi, shape)
    a = np.where(active, a_star, lo)
    close = np.abs(a - ref) <= 1e-12 * ref
    flat = ((np.abs(metric_at(a) - target) <= 1e-12)
            & (np.abs(metric_at(a) - metric_at(ref)) <= 1e-12))
    assert np.all((close | flat)[active])
    return slack, ~reachable, active


def _boundary_of_two_calls(gap, lo, hi, invert):
    """:func:`~coldstack.optimize._boundary_attenuation` as first written:
    ``gap`` at one log10 attenuation, called at each bound in turn."""
    top, bottom = gap(math.log10(hi)), gap(math.log10(lo))
    a = np.full(np.broadcast(top, bottom).shape, np.nan)
    reachable = top >= 0.0
    slack = reachable & (bottom >= 0.0)
    a[slack] = lo
    active = reachable & ~slack
    if np.any(active):
        a[active] = np.clip(invert(active), lo, hi)
    return a


class TestBoundarySolve:
    """The direct boundary solve against bisection, run with every
    floating-point warning raised as an error."""

    @pytest.mark.parametrize("weight", ["gate", "circuit"])
    def test_single_attenuator_closed_form(self, weight):
        if weight == "gate":
            tech, w = QubitTechnology(omega0=OMEGA0, gamma=1e3), 1.0
        else:
            # a circuit target of about 1/2, where the metric is steep in A
            w = nisq_circuit(12, 4).n_gates_weighted
            tech = QubitTechnology(omega0=OMEGA0, gamma=0.5 / (11.0 * w * 25e-9))
        # occupancy budget 10: slack at cold qubits behind A = 200,
        # unreachable at 4 K, where the qubit stage alone holds 13.4
        target = 1.0 - 11.0 * w * tech.gamma * tech.tau_1qb
        problem = _AttenuatorProblem(tech, w, 0.3, 300.0)
        lo, hi = 200.0, 1e9
        t_axis = np.geomspace(1e-3, 4.0, 40)[None]  # a batch of one problem
        with np.errstate(all="raise"):
            _, a_star = problem.solve(target, GridOptions(attenuation_bounds=(lo, hi)),
                                      t_axis)

        def metric_at(a):
            return problem.metric(t_axis, a)

        slack, unreachable, active = _check_boundary(
            a_star, lambda log_a: metric_at(10.0**log_a) - target, metric_at,
            target, lo, hi)
        assert slack.any() and unreachable.any() and active.any()

    @pytest.mark.parametrize("k_stages", [2, 5])
    @pytest.mark.parametrize("form", ["linear", "exact"])
    @pytest.mark.parametrize("k", [0, 6])
    @pytest.mark.parametrize("frequency_hz", [6e9, 2e11])
    def test_chain_newton(self, k_stages, form, k, frequency_hz):
        tech = QubitTechnology(omega0=2.0 * math.pi * frequency_hz, gamma=20.0)
        wl = Workload(1, 30_000) if k == 0 else Workload(6175, 2_100_000_000)
        target = 2.0 / 3.0
        if frequency_hz == 6e9:
            lo, hi = 10.0, 1e6
            t_qb, t_gen = np.geomspace(1e-3, 10.0, 15), np.array([0.5, 4.0, 40.0, 300.0])
        else:
            # the two coldest stages of the 5-stage chains at the coldest
            # qubits hold no photon at all: the first rise is exactly 0
            lo, hi = 1.0, 1e12
            t_qb, t_gen = np.geomspace(1e-4, 4.0, 15), np.array([0.5, 10.0, 300.0])
        problem = _FtProblem(wl, tech, SCEN_A, CABLE, CryoEfficiencyModel(),
                             FtToggles(k_stages=k_stages, metric_form=form),
                             GridOptions(attenuation_bounds=(lo, hi)))
        *_, n_cold, n_rise, valid = optimize._grid_fields(t_qb, t_gen, k_stages, tech.omega0)
        with np.errstate(all="raise"):
            a_star = problem.boundary(n_cold, n_rise, valid, k, target)
        p_err = problem.error_probability(n_cold, n_rise)

        def metric_at(a):
            return problem.metric(p_err(np.log10(a)), k)

        def gap(log_a):
            return np.where(valid, problem.metric(p_err(log_a), k) - target, -np.inf)

        slack, unreachable, active = _check_boundary(a_star, gap, metric_at, target,
                                                     lo, hi)
        assert active.any() and slack.any()
        assert (unreachable & ~valid).any()
        if frequency_hz == 6e9:
            assert (unreachable & valid).any()
        elif k_stages == 5:
            assert (active & (n_rise[0] == 0.0)).any()

    @staticmethod
    def _coarse_problem(tech):
        """The default RSA-2048 problem and its fields on the default coarse grid."""
        problem = _FtProblem(rsa_workload(2048), tech, SCEN_A, CABLE, CryoEfficiencyModel(),
                             FtToggles(), GridOptions())
        return problem, optimize._coarse_grid(*problem.grid_key)[1]

    def test_bound_transmission_rounds_as_on_the_grid(self, tech50):
        # p_err at a scalar log10 attenuation raises 10 once, on a
        # shape-(1,) array: bit for bit the grid broadcast of the scalar
        problem, (*_, n_cold, n_rise, _) = self._coarse_problem(tech50)
        assert n_cold.size > 10_000
        p_err = problem.error_probability(n_cold, n_rise)
        for log_a in (0.0, 12.0, -1.4314978958337399,
                      *np.random.default_rng(5).uniform(0.0, 12.0, 8)):
            grid = 10.0 ** (-np.broadcast_to(log_a, n_cold.shape) * 0.25)
            want = _pauli_error(tech50, chain_occupancy(n_cold, n_rise, grid))
            assert np.array_equal(p_err(log_a), want), log_a
            # and so does a pair of them stacked along a leading axis, as
            # the boundary solve evaluates its two bounds
            pair = p_err(optimize._stacked((log_a, 12.0 - log_a), n_cold.ndim))
            assert np.array_equal(pair, np.stack([p_err(log_a), p_err(12.0 - log_a)]))

    def test_nisq_bound_transmissions_are_python_powers(self, monkeypatch):
        # numpy's vector pow need not round as Python's does: a NISQ solve
        # raises 10 to each bound in Python floats, as a scalar metric
        # does, and only then stacks the two transmissions
        seen, metric = [], _AttenuatorProblem._metric

        def recording(self, n_cold, n_rise, transmission):
            seen.append(np.array(transmission, copy=True))
            return metric(self, n_cold, n_rise, transmission)

        monkeypatch.setattr(_AttenuatorProblem, "_metric", recording)
        tech = QubitTechnology(omega0=OMEGA0, gamma=1e3)
        problem = _AttenuatorProblem(tech, [30.0, 60.0], [1.0, 2.0], 300.0)
        t_axis = np.tile(np.geomspace(1e-3, 4.0, 9), (2, 1))
        for lo_db, hi_db in np.random.default_rng(7).uniform(0.0, 120.0, (200, 2)):
            lo, hi = 10.0 ** (min(lo_db, hi_db) / 10.0), 10.0 ** (max(lo_db, hi_db) / 10.0)
            seen.clear()
            problem.solve(0.99, GridOptions(attenuation_bounds=(lo, hi)), t_axis)
            (transmission,) = seen
            assert transmission.shape == (2, 1, 1)
            assert transmission.ravel().tolist() == [10.0 ** -math.log10(hi),
                                                     10.0 ** -math.log10(lo)]

    def test_chain_solved_alone_agrees_with_its_batch(self, tech50):
        # Newton stops chain by chain, so a chain solved alone takes the
        # steps it takes in its batch and ends on the same bits
        problem, (*_, n_cold, n_rise, valid) = self._coarse_problem(tech50)
        excess = problem.occupancy_budget(2.0 / 3.0, 3) - n_cold
        active = valid & (excess > 0.0)
        rises, excess = n_rise[:, active], excess[active]
        batch = chain_transmission(rises, excess, 1e-3, 1.0)
        assert batch.size > 5_000
        assert np.array_equal(chain_transmission(rises, excess, 1e-3, 1.0), batch)
        for i in range(0, batch.size, 23):
            (alone,) = chain_transmission(rises[:, i:i + 1], excess[i:i + 1], 1e-3, 1.0)
            assert alone == batch[i], i

    @given(text=valid_config_texts())
    @example(text="[chain]\nstages = 8\nattenuation_min_db = 7.3\nattenuation_max_db = 93.1\n")
    @example(text="[workload]\nkind = nisq\n[chain]\nattenuation_min_db = 3.3\n")
    @example(text="[workload]\nkind = gate\n")
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stacked_bounds_equal_separate_evaluations(self, text):
        # a solve evaluates the metric at both attenuation bounds in one
        # call, stacked along a leading axis: bit for bit a call at each
        # bound alone, and the attenuations those two calls sort out
        calls, boundary = [], optimize._boundary_attenuation

        def recording(gap, lo, hi, invert):
            a_star = boundary(gap, lo, hi, invert)
            calls.append((gap, lo, hi, invert, a_star))
            return a_star

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "_boundary_attenuation", recording)
            run_problem(load_config(text=text))
        for gap, lo, hi, invert, a_star in calls:
            bounds = (math.log10(hi), math.log10(lo))
            alone = np.concatenate([gap((log_a,)) for log_a in bounds])
            assert np.array_equal(gap(bounds), alone, equal_nan=True)
            want = _boundary_of_two_calls(lambda log_a: gap((log_a,))[0], lo, hi, invert)
            assert np.array_equal(a_star, want, equal_nan=True)


class TestOptimizeFt:
    def test_the_problem_is_freed_after_the_search(self, monkeypatch):
        # no cache holds a problem, or the coarse-grid tables it prices,
        # once the search returns: level(k) is memoized on the instance
        problems, init = [], _FtProblem.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            problems.append(weakref.ref(self))

        monkeypatch.setattr(_FtProblem, "__init__", recording)
        assert run_problem(load_config(text="")).feasible
        gc.collect()
        assert problems and all(ref() is None for ref in problems)

    def test_star_point_level_and_size(self, star_result):
        assert star_result.feasible
        assert star_result.control.k == 3
        assert star_result.physical_qubits == 4_653_300_925

    def test_star_point_power_band(self, star_result):
        assert 3.5e6 < star_result.power_w < 1.4e7
        assert 1.3e-3 < star_result.per_qubit_power_w < 2.0e-3

    def test_star_point_puts_electronics_at_ambient(self, star_result):
        assert star_result.control.t_gen == pytest.approx(300.0, rel=1e-9)

    def test_metric_on_constraint_boundary(self, star_result):
        assert star_result.metric_achieved >= 2.0 / 3.0 - 1e-9
        assert abs(star_result.metric_achieved - 2.0 / 3.0) < 1e-6

    def test_stage_powers_sum_to_total(self, star_result):
        total = sum(r.electrical_power_w for r in star_result.per_stage)
        assert total == pytest.approx(star_result.power_w, rel=1e-9)

    def test_electronics_row_dominates_at_star(self, star_result):
        rows = {}
        for r in star_result.per_stage:
            rows[r.source] = rows.get(r.source, 0.0) + r.electrical_power_w
        assert rows["electronics"] == max(rows.values())

    def test_local_optimality_certificate(self, tech50, star_result):
        wl = Workload(6175, 2_100_000_000)
        res = star_result
        base = dict(t_qb=res.control.t_qb, t_gen=res.control.t_gen,
                    a_total=res.control.a_total)
        bounds = {"t_qb": (1e-3, 4.0), "t_gen": (4.0, 300.0),
                  "a_total": (1.0, 1e12)}
        for axis, step in res.grid_step_log10.items():
            for direction in (+1, -1):
                point = dict(base)
                point[axis] = point[axis] * 10.0 ** (direction * step)
                lo, hi = bounds[axis]
                if not (lo <= point[axis] <= hi) or point["t_qb"] >= point["t_gen"]:
                    continue
                ev = evaluate_ft_point(wl, tech50, SCEN_A, CABLE,
                                       CryoEfficiencyModel("carnot"),
                                       point["t_qb"], point["t_gen"],
                                       point["a_total"], res.control.k)
                if ev.metric_achieved >= 2.0 / 3.0:
                    assert ev.power_w >= res.power_w * (1 - 1e-12)

    @pytest.mark.parametrize("model", ["carnot", "small_scale"])
    @pytest.mark.parametrize("demod", [False, True])
    def test_point_evaluation_is_the_grid_kernel(self, tech50, model, demod):
        # the breakdown at the optimum reports the power the search compared
        wl = Workload(6175, 2_100_000_000)
        cryo = CryoEfficiencyModel(model)
        toggles = FtToggles(include_demod_syndrome=demod)
        res = optimize_ft(wl, tech50, SCEN_A, model=cryo, options=LIGHT, toggles=toggles)
        c = res.control
        problem = _FtProblem(wl, tech50, SCEN_A, CABLE, cryo, toggles, LIGHT)
        axes = [("t_qb", LIGHT.t_qb_bounds), ("t_gen", LIGHT.t_gen_bounds)]
        found, _ = _grid_refine(partial(problem.solve, c.k, 2.0 / 3.0), axes, LIGHT)
        power, point, a_star = found
        assert point == (c.t_qb, c.t_gen) and a_star == c.a_total
        ev = evaluate_ft_point(wl, tech50, SCEN_A, CABLE, cryo, c.t_qb, c.t_gen,
                               c.a_total, c.k, toggles)
        assert ev.power_w == power
        assert ev.power_w == in_order_total(ev.per_stage)
        assert ev.power_w == res.power_w

    @given(text=valid_config_texts(kinds=("rsa", "rectangular")))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_answer_is_the_point_evaluation(self, text):
        # the search answers with the kernel evaluate_ft_point runs, on the
        # problem that searched: the same result, less the grid step
        cfg = load_config(text=text)
        result = run_problem(cfg)
        if result.feasible:
            c = result.control
            ev = evaluate_ft_point(cfg.workload(), cfg.technology(), cfg.electronics(),
                                   cfg.cable(), cfg.efficiency(), c.t_qb, c.t_gen, c.a_total,
                                   c.k, cfg.ft_toggles())
            assert replace(ev, grid_step_log10=result.grid_step_log10) == result

    @pytest.mark.parametrize("k", [20, 50, 155])
    def test_high_levels_meet_the_target(self, k):
        # the metric's steepness 2^k amplifies the round-off of the boundary
        # solve: 7e-11 below the target at level 20, and at level 50 and up
        # the solved point misses the target altogether
        cfg = load_config(text=(
            "[technology]\nfrequency_hz = 1e9\ngamma_inverse_s = 10.0\ntau_1qb_s = 1e-9\n"
            "tau_meas_s = 1e-5\n[chain]\nstages = 2\nt_qb_min_k = 1e-4\nt_qb_max_k = 1e-4\n"
            "t_gen_min_k = 300.0\n[cable]\nlength_m = 0.1\ncontrol_lines_per_qubit = 0.001\n"
            "readout_lines_per_qubit = 0.001\n[workload]\nrsa_n = 16\n[optimizer]\n"
            "temperature_points_per_decade = 1\nrefinement_passes = 0\n"
            f"k_min = {k}\nk_max = {k}\n"))
        result = run_problem(cfg)
        assert result.feasible and result.control.k == k
        assert result.metric_achieved >= cfg.target_metric - optimize.METRIC_TOL
        assert result.power_w == in_order_total(result.per_stage)

    def test_levels_past_the_top_level_are_out_of_reach(self, tech_50ms):
        # above the top level, 157 for one logical qubit, the count 91^k of
        # physical qubits is no float: the search leaves those levels out, and
        # answers with an infeasible result where none is left, and a point
        # there is rejected; each of these raised OverflowError
        wl, carnot = Workload(1, 1), CryoEfficiencyModel()
        assert qec._top_level(wl.q_logical) == qec._top_level(1.0) == 157
        wide = optimize_ft(wl, tech_50ms, SCEN_A, options=GridOptions(k_max=200))
        top = optimize_ft(wl, tech_50ms, SCEN_A, options=GridOptions(k_max=157))
        assert wide.feasible and repr(wide) == repr(top)
        past = optimize_ft(wl, tech_50ms, SCEN_A, options=GridOptions(k_min=158, k_max=160))
        assert not past.feasible
        assert "float range" in past.diagnostic and "157" in past.diagnostic
        with pytest.raises(ValueError, match="float range"):
            evaluate_ft_point(wl, tech_50ms, SCEN_A, CableModel(), carnot, 0.02, 300.0, 10.0,
                              k=158)
        at_top = evaluate_ft_point(wl, tech_50ms, SCEN_A, CableModel(), carnot, 0.02, 300.0,
                                   10.0, k=157)
        assert at_top.physical_qubits == 91**157

    @pytest.mark.parametrize("k", [2.5, 2.0])
    def test_a_point_at_a_level_that_is_not_an_integer_is_rejected(self, tech_50ms, k):
        # at 2.5 it priced 138.48 W for 91^2.5 = 78,995.7 physical qubits
        with pytest.raises(ValueError, match="concatenation level must be a nonnegative"):
            evaluate_ft_point(Workload(1, 1), tech_50ms, SCEN_A, CableModel(),
                              CryoEfficiencyModel(), 0.02, 300.0, 10.0, k)

    def test_better_qubits_never_cost_more(self):
        wl = Workload(6175, 2_100_000_000)
        powers = []
        for gamma_inv in (0.02, 0.05, 0.2, 0.5):
            tech = QubitTechnology(omega0=OMEGA0, gamma=1.0 / gamma_inv)
            powers.append(optimize_ft(wl, tech, SCEN_A, options=LIGHT).power_w)
        assert all(b <= a * (1 + 1e-9) for a, b in zip(powers, powers[1:]))

    def test_minimized_power_nondecreasing_in_target(self, tech50):
        wl = Workload(6175, 2_100_000_000)
        powers = []
        for target in (0.1, 0.5, 2.0 / 3.0, 0.9, 0.99):
            res = optimize_ft(wl, tech50, SCEN_A, target=target, options=LIGHT)
            assert res.feasible
            powers.append(res.power_w)
        assert all(b >= a * (1 - 1e-9) for a, b in zip(powers, powers[1:]))

    def test_infeasible_above_threshold(self, tech_1ms):
        res = optimize_ft(Workload(100, 10**12), tech_1ms, SCEN_A, options=LIGHT)
        assert not res.feasible
        assert "threshold" in res.diagnostic

    def test_unreachable_run_builds_no_coarse_grid(self):
        # no level reaches the target: the reachability probe lays out the
        # corner chain alone, and nothing reads the coarse grid
        optimize._coarse_grid.cache_clear()
        for frequency_hz in (6e9, 8e9):
            cfg = load_config(text=f"[technology]\nfrequency_hz = {frequency_hz}\n"
                                   "gamma_inverse_s = 1e-6\n")
            result = run_problem(cfg)
            assert not result.feasible and "threshold" in result.diagnostic
        assert optimize._coarse_grid.cache_info().misses == 0

    @given(qb_lo=edge_biased(1e-4, 3.0), qb_decades=st.floats(0.0, 3.0),
           gen_over_qb=edge_biased(1.001, 1e4), per_decade=st.sampled_from([1, 4, 40]),
           k_stages=st.integers(2, 8), frequency_hz=edge_biased(1e9, 2e11),
           a_hi=edge_biased(1.0, 1e12))
    @settings(max_examples=40, deadline=None)
    def test_probe_has_the_bits_of_the_coarse_corner(self, qb_lo, qb_decades, gen_over_qb,
                                                     per_decade, k_stages, frequency_hz, a_hi):
        gen_lo = min(qb_lo * gen_over_qb, 300.0)
        options = GridOptions(temperature_points_per_decade=per_decade,
                              t_qb_bounds=(qb_lo, qb_lo * 10.0**qb_decades),
                              t_gen_bounds=(gen_lo, 300.0), attenuation_bounds=(1.0, a_hi))
        tech = QubitTechnology(omega0=2.0 * math.pi * frequency_hz, gamma=20.0)
        problem = _FtProblem(Workload(10, 10), tech, SCEN_A, CABLE, CryoEfficiencyModel(),
                             FtToggles(k_stages=k_stages), options)
        # the probe as first written: node (0, 0) of the coarse grid
        _, (_, _, n_cold, n_rise, _) = optimize._coarse_grid(*problem.grid_key)
        want = problem.error_probability(n_cold[:1, :1], n_rise[:, :1, :1])(
            np.log10(a_hi)).item()
        assert problem.least_error_probability() == want

    def test_exact_metric_form_close_to_linear(self, tech50):
        wl = Workload(6175, 2_100_000_000)
        exact = optimize_ft(wl, tech50, SCEN_A, options=LIGHT,
                            toggles=FtToggles(metric_form="exact"))
        linear = optimize_ft(wl, tech50, SCEN_A, options=LIGHT)
        assert exact.feasible
        # the linear form overestimates errors, so it never allows more
        assert exact.power_w <= linear.power_w * (1 + 1e-6)

    def test_t_gate_multiplier_raises_dynamic_cost_only(self, tech50):
        wl = Workload(6175, 2_100_000_000)
        base = optimize_ft(wl, tech50, SCEN_A, options=LIGHT)
        bumped = optimize_ft(wl, tech50, SCEN_A, options=LIGHT,
                             toggles=FtToggles(t_gate_multiplier=10.0))
        assert base.power_w < bumped.power_w < 10.0 * base.power_w

    def test_drive_duration_convention_switch(self, tech50):
        wl = Workload(6175, 2_100_000_000)
        slow_drive = optimize_ft(wl, tech50, SCEN_A, options=LIGHT,
                                 toggles=FtToggles(two_qubit_drive_duration="tau_2qb"))
        fast_drive = optimize_ft(wl, tech50, SCEN_A, options=LIGHT)
        # rating the sustained drive at the longer duration cuts its power 16-fold
        assert slow_drive.power_w < fast_drive.power_w

    def test_grid_halving_changes_power_below_one_percent(self, tech50,
                                                          star_result):
        fine = optimize_ft(Workload(6175, 2_100_000_000), tech50, SCEN_A,
                           options=GridOptions(temperature_points_per_decade=80))
        assert abs(fine.power_w - star_result.power_w) / star_result.power_w < 0.01

    def test_forcing_electronics_cold_costs_roughly_seventyfold(self, tech50,
                                                                star_result):
        # pinning the generation stage at 4 K makes the scenario-A
        # electronics bill scale by T_ext/4 K = 75
        wl = Workload(6175, 2_100_000_000)
        pinned = optimize_ft(
            wl, tech50, SCEN_A,
            options=GridOptions(t_gen_bounds=(4.0, 4.0)))
        assert pinned.feasible
        assert pinned.control.t_gen == 4.0
        ratio = pinned.power_w / star_result.power_w
        assert 40 < ratio < 90


def _keep_every_coarse_point(mp) -> None:
    """Patches the coarse floor to -inf, so that the search solves every
    coarse point and the floor plays no part in it."""
    floor = _FtProblem.coarse_floor
    mp.setattr(_FtProblem, "coarse_floor",
               lambda self, *args: np.full_like(floor(self, *args), -np.inf))


def _floors_and_powers(cfg) -> list:
    """(k, floor, searched power) for each level of the range that has a
    feasible point; every such level is searched, with every coarse point
    kept, so that the search sums the rows everywhere and the coarse
    floor plays no part."""
    options = cfg.grid_options()
    problem = _FtProblem(cfg.workload(), cfg.technology(), cfg.electronics(),
                         cfg.cable(), cfg.efficiency(), cfg.ft_toggles(), options)
    axes = [("t_qb", options.t_qb_bounds), ("t_gen", options.t_gen_bounds)]
    levels = []
    with pytest.MonkeyPatch.context() as mp:
        _keep_every_coarse_point(mp)
        for k in range(options.k_min, options.k_max + 1):
            floor = problem.power_floor(k, cfg.target_metric)
            found, _ = _grid_refine(partial(problem.solve, k, cfg.target_metric), axes,
                                    options)
            if found is not None:
                levels.append((k, floor, found[0]))
    return levels


def _floor_violations(cfg) -> list:
    """(k, floor, power) for each level whose searched power lies below
    its power floor."""
    # the search sums the rows in another order than the floor
    return [(k, floor, power) for k, floor, power in _floors_and_powers(cfg)
            if not floor <= power * (1 + 1e-12)]


def _count_level_searches(monkeypatch) -> list:
    """Patches the grid search to count the levels optimize_ft searches."""
    calls = []

    def counting(solve, axes, options):
        calls.append(solve)
        return _grid_refine(solve, axes, options)

    monkeypatch.setattr(optimize, "_grid_refine", counting)
    return calls


def _row_by_row_power(problem, fields, a_star, k: int) -> np.ndarray:
    """The power of the whole machine at the boundary attenuations
    ``a_star`` on ``fields``, with the search's arithmetic before its rows
    were stacked: one breakdown row at a time, added from 0 in breakdown
    order.  Each attenuator row is ``mu * (frac * P_pi * W_k)``, each
    conduction row ``(mu * net + 0.0) * qubits``, then the hardware rows
    and the demodulation row; an unreachable point is priced at the
    largest attenuation."""
    stages, rises = fields[:2]
    tog, model = problem.toggles, problem.model
    weight, qubits, classical = problem.level(k)
    a_safe = np.where(np.isfinite(a_star), a_star, problem.options.attenuation_bounds[1])
    with np.errstate(all="ignore"):
        mult = model._heat_multiplier(stages, tog.t_ext)
        net = thermal.conduction_heat_per_qubit(stages, problem.cable, rises)
        power = 0
        for frac, mu in zip(thermal.attenuator_heat_fractions(a_safe, tog.k_stages), mult):
            power = power + mu * (frac * problem.p_pi * weight)
        for q, mu in zip(net, mult):
            power = power + (mu * q + 0.0) * qubits
        for row in thermal.always_on_rows((mult[0], mult[-1]), None, stages[-1],
                                          problem.scenario, model, tog.t_ext)[0]:
            power = power + row * qubits
        if tog.include_demod_syndrome:
            power = power + classical * qubits
    return power


class TestRowPricing:
    @given(text=st.one_of(st.just(""), valid_config_texts(kinds=("rsa", "rectangular"))),
           stages=st.integers(2, 8), model=st.sampled_from(["carnot", "small_scale"]),
           demod=st.booleans(), form=st.sampled_from(["linear", "exact"]))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stacked_rows_sum_to_the_row_by_row_power(self, text, stages, model, demod, form):
        # every grid the search solves, the coarse pass's selections and the
        # refine grids, is priced to the bit as one row at a time, in order;
        # the drawn text, or the default one, of which most levels are feasible
        cfg = load_config(text=text).replace(
            stages=stages, efficiency_model=model, include_demod_syndrome=demod,
            ft_metric_form=form)
        calls, solve_fields = [], _FtProblem.solve_fields

        def recording(self, k, target, fields):
            out = solve_fields(self, k, target, fields)
            calls.append((self, k, target, fields, out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_FtProblem, "solve_fields", recording)
            run_problem(cfg)
        for problem, k, target, fields, (power, a_star) in calls:
            n_cold, n_rise, valid = fields[2:]
            boundary = problem.boundary(n_cold, n_rise, valid, k, target)
            want = _row_by_row_power(problem, fields, boundary, k)
            ok = np.isfinite(boundary) & (want > 0.0) & (want < np.inf)
            assert np.array_equal(power, np.where(ok, want, np.inf)), k
            assert np.array_equal(a_star, np.where(ok, boundary, np.nan), equal_nan=True), k


class TestPowerFloor:
    # the strategy draws target 0 and the exact metric form; the example
    # has both, where the metric has no occupancy budget to cap at
    @given(text=valid_config_texts(kinds=("rsa", "rectangular")))
    @example(text="[target]\nmetric = 0.0\n[toggles]\nft_metric_form = exact\n"
                  "[optimizer]\ntemperature_points_per_decade = 4\n")
    # the least frequency of the domain, small-scale: the occupancy budget
    # caps the qubit stage lowest, where mu is largest
    @example(text="[technology]\nfrequency_hz = 1e6\n[chain]\nt_qb_min_k = 1e-6\n"
                  "[efficiency]\nmodel = small_scale\n")
    # the hottest ambient of the domain behind a 0.1 mK qubit stage
    @example(text="[technology]\nfrequency_hz = 1e12\n[chain]\nstages = 2\n"
                  "t_ext_k = 10000.0\nt_qb_min_k = 0.0001\n"
                  "t_qb_max_k = 0.0001\nt_gen_min_k = 300.0\n[target]\nmetric = 0.0\n"
                  "[optimizer]\ntemperature_points_per_decade = 1\nk_max = 0\n")
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_floor_is_below_the_searched_power_at_every_level(self, text):
        assert _floor_violations(load_config(text=text)) == []

    def test_floor_catches_an_electronics_row_without_its_supply(self, monkeypatch):
        # the row as if it cost only the extraction of its heat, in the
        # rows the search prices (with the conduction rows, which the floors
        # do not read): the floor, which counts the supply, must then lie
        # above the power
        rows = optimize.always_on_rows

        def without_supply(mult, net, *args):
            powers, heats = rows(mult, net, *args)
            if net is not None:  # the electronics row follows the conduction rows
                powers[len(net)] = powers[len(net)] - heats[len(net)]
            return powers, heats

        cfg = load_config(text="[optimizer]\ntemperature_points_per_decade = 12\n")
        assert _floor_violations(cfg) == []
        assert _coarse_floor_violations(cfg) == []
        monkeypatch.setattr(optimize, "always_on_rows", without_supply)
        assert _floor_violations(cfg)
        assert _coarse_floor_violations(cfg)

    def test_a_zero_drive_costs_nothing_in_the_coarse_floor(self):
        # a pi pulse of 0 W needed tau_1qb at the float maximum, outside the
        # domain; a gate-time multiplier of 0, which a problem built in code
        # may take, drives nothing, and the floor prices the drive at 0 W,
        # not NaN, so the coarse pass solves the feasible points it bounds
        text = ("[technology]\nfrequency_hz = 1e12\ntau_1qb_s = 1.7976931348623157e+308\n"
                "[chain]\nstages = 2\nt_ext_k = 1.7976931348623157e+308\n")
        with pytest.raises(ConfigError, match="tau_1qb_s: must lie in"):
            load_config(text=text)
        cfg = load_config(text=(
            "[technology]\nfrequency_hz = 1e12\ntau_1qb_s = 1e6\n"
            "[chain]\nstages = 2\nt_ext_k = 10000.0\nt_qb_min_k = 0.0001\n"
            "t_qb_max_k = 3000.0\nt_gen_min_k = 300.0\nt_gen_max_k = 300.0\n"
            "attenuation_min_db = 17.0\nattenuation_max_db = 17.0\n[workload]\n"
            "rsa_n = 16\n[target]\nmetric = 0.0\n[optimizer]\n"
            "temperature_points_per_decade = 1\nrefinement_passes = 0\nk_max = 0\n"))
        problem, _, _, fields = _on_the_coarse_grid(cfg)
        problem.toggles = replace(problem.toggles, t_gate_multiplier=0.0)
        power, _ = problem.solve_fields(0, 0.0, fields)
        floor = problem.coarse_floor(0, 0.0)
        assert np.isfinite(power).any() and not np.isnan(floor).any()
        assert (floor <= power * (1 + 1e-12)).all()
        assert _coarse_floor_violations(cfg) == []
        assert repr(_searched(cfg)) == repr(_searched(cfg, keep_all=True))

    def test_cap_is_tight_where_the_qubit_stage_rows_dominate(self):
        # no electronics and almost no cable: the parasitic qubit-stage row
        # dominates, and the search warms the qubits up to the cap, so a
        # floor without the cap (about 1 % of the power at k = 3) or with a
        # cap at T*/2 (above the power) fails
        cfg = load_config(text=(
            "[scenario]\nname = custom\nq_gen_w = 0.0\nq_para_w = 0.0\nq_hemt_w = 0.0\n"
            "[cable]\ncontrol_lines_per_qubit = 0.001\nreadout_lines_per_qubit = 0.001\n"
            "[efficiency]\nmodel = small_scale\nextra_qubit_heat_w = 1e-6\n"
            "[optimizer]\ntemperature_points_per_decade = 10\n"))
        levels = _floors_and_powers(cfg)
        assert [k for k, _, _ in levels] == [3, 4, 5, 6]
        for k, floor, power in levels:
            assert 0.75 * power <= floor <= power * (1 + 1e-12), k

    @pytest.mark.parametrize("build, message", [
        (lambda: CableModel(control_lines_per_qubit=-0.5), "lines per qubit"),
        (lambda: CableModel(readout_lines_per_qubit=-0.5), "lines per qubit"),
        (lambda: CableModel(control_lines_per_qubit=1e308, readout_lines_per_qubit=1e308),
         "lines per qubit must lie in"),
        (lambda: CryoEfficiencyModel("small_scale", extra_qubit_heat_w=-1e-8), "parasitic"),
        (lambda: GridOptions(attenuation_bounds=(0.5, 1e12)),
         r"attenuation_bounds\[0\] must lie in"),
        (lambda: FtToggles(t_gate_multiplier=-1.0), "gate-time multiplier"),
    ], ids=["control lines", "readout lines", "lines beyond the float range",
            "parasitic heat", "attenuation below 1", "gate-time multiplier"])
    def test_an_input_against_a_floor_premise_is_rejected(self, build, message):
        # each premise of the power floors is checked where its input enters
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: GridOptions(t_gen_bounds=(4.0, 1e4)), r"t_gen_bounds\[1\] must lie in"),
        (lambda: FtToggles(t_ext=1e-323), "t_ext in K must lie in"),
        (lambda: optimize_single_qubit(QubitTechnology(omega0=OMEGA0, gamma=20.0), 0.0,
                                       t_ext=1e300), "t_ext in K must lie in"),
        (lambda: QubitTechnology(omega0=OMEGA0, gamma=20.0, tau_1qb=5e-324),
         "tau_1qb must lie in"),
        (lambda: GridOptions(attenuation_bounds=(1.0, 1e300)),
         r"attenuation_bounds\[1\] must lie in"),
        (lambda: ft_duration_s(Workload(1, 1), QubitTechnology(omega0=OMEGA0, gamma=20.0), 3,
                               1e200), "steps per logical level must lie in"),
    ], ids=["steel fit above 300 K", "small-scale mu at a subnormal t_ext",
            "gate power at t_ext 1e300 K", "coarse floor of a subnormal pulse",
            "attenuation of 3000 dB", "steps per level of 1e200"])
    def test_the_float_range_faults_raise_in_the_library(self, build, message):
        # the inputs of the float-range faults validation now rejects raise
        # ValueError where they enter the library too
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("build", [
        lambda tech: FtToggles(t_ext=1.0),
        lambda tech: optimize_single_qubit(tech, 0.9, GridOptions(t_qb_bounds=(1e-3, 0.5)),
                                           t_ext=1.0),
        lambda tech: optimize_nisq(5, 0.5, tech, GridOptions(t_qb_bounds=(1e-3, 0.5)),
                                   t_ext=1.0),
    ], ids=["fault-tolerant", "gate", "circuit"])
    def test_ambient_below_the_amplifier_stage_raises_in_the_library(self, tech50, build):
        # the amplifier rows would sit above ambient, priced with a negative
        # or too small (1 + mu)
        assert thermal.T_EXT_RANGE_K[0] == thermal.PARAMP_K
        with pytest.raises(ValueError, match=r"t_ext in K must lie in \[4, 10000\]"):
            build(tech50)

    def test_generation_stage_above_t_ext_is_rejected(self, tech50):
        # the default box reaches 300 K, above this ambient
        with pytest.raises(ValueError, match="no warmer than t_ext"):
            optimize_ft(Workload(6175, 2_100_000_000), tech50, SCEN_A, options=LIGHT,
                        toggles=FtToggles(t_ext=250.0))

    @pytest.mark.parametrize("gamma_inverse_s", [1e300, 1.7976931348623157e308])
    def test_cap_whose_denominator_underflows_caps_nothing(self, gamma_inverse_s):
        # so long a lifetime gave the level an occupancy budget n* whose
        # k_B log1p(1/n*) underflowed to 0; it lies outside the domain, and
        # at the domain's longest lifetime and shortest durations the cap's
        # denominator is positive and T* far above the box
        text = "[optimizer]\ntemperature_points_per_decade = 4\n[technology]\n"
        with pytest.raises(ConfigError, match="gamma_inverse_s: must lie in"):
            load_config(text=text + f"gamma_inverse_s = {gamma_inverse_s!r}\n")
        cfg = load_config(text=text + "gamma_inverse_s = 1e12\ntau_1qb_s = 1e-15\n"
                                      "tau_2qb_s = 1e-15\ntau_meas_s = 1e-15\n")
        problem = _FtProblem(cfg.workload(), cfg.technology(), cfg.electronics(),
                             cfg.cable(), cfg.efficiency(), cfg.ft_toggles(),
                             cfg.grid_options())
        assert K_B * math.log1p(1.0 / problem.occupancy_budget(cfg.target_metric, 3)) > 0.0
        assert problem.power_floor(3, cfg.target_metric) == problem.power_floor(3, 0.0)
        assert _floor_violations(cfg) == []
        assert run_problem(cfg).feasible

    @pytest.mark.parametrize("scenario", ["A", "B", "C"])
    @pytest.mark.parametrize("model", ["carnot", "small_scale"])
    @pytest.mark.parametrize("demod", [False, True])
    def test_pruning_leaves_the_result_unchanged(self, tech50, scenario, model, demod,
                                                 monkeypatch):
        args = (rsa_workload(2048), tech50, ElectronicsScenario.preset(scenario), CABLE,
                CryoEfficiencyModel(model))
        toggles = FtToggles(include_demod_syndrome=demod)
        calls = _count_level_searches(monkeypatch)
        pruned = optimize_ft(*args, options=LIGHT, toggles=toggles)
        searched = len(calls)
        monkeypatch.setattr(_FtProblem, "power_floor", lambda self, k, target: -math.inf)
        full = optimize_ft(*args, options=LIGHT, toggles=toggles)
        assert searched < len(calls) - searched
        assert repr(pruned) == repr(full)

    def test_default_rsa_2048_searches_fewer_levels(self, monkeypatch):
        cfg = load_config(text="")
        calls = _count_level_searches(monkeypatch)
        pruned = run_problem(cfg)
        searched = len(calls)
        monkeypatch.setattr(_FtProblem, "power_floor", lambda self, k, target: -math.inf)
        full = run_problem(cfg)
        assert repr(pruned) == repr(full)
        assert searched < len(calls) - searched

    def test_occupancy_cap_prunes_more_of_the_readme_sweep(self, monkeypatch):
        # the README sweep on the two hardware sets of the qubit-quality
        # benchmark; the floor at target 0 is the floor without the cap
        # (scenario A under Carnot already searches one level per point)
        axes = [SweepAxis.parse("gamma_inverse_s=0.003:1:15:log")]
        floor = _FtProblem.power_floor
        searched = {}
        for cap in (True, False):
            if not cap:
                monkeypatch.setattr(_FtProblem, "power_floor",
                                    lambda self, k, target: floor(self, k, 0.0))
            for scenario, model in (("A", "carnot"), ("C", "small_scale")):
                cfg = load_config(text="").replace(scenario=scenario, efficiency_model=model)
                calls = _count_level_searches(monkeypatch)
                rows = repr(sweep(cfg, axes))
                searched[cap, scenario] = len(calls), rows
        assert searched[True, "A"] == searched[False, "A"]
        capped, uncapped = searched[True, "C"], searched[False, "C"]
        assert capped[1] == uncapped[1]
        assert capped[0] < uncapped[0]

    def test_fixed_multipliers_are_computed_once(self, monkeypatch):
        # the qubit-quality sweep on its two hardware sets, and the first
        # point once more: mu on the stages of the coarse grid is computed
        # once per efficiency model
        optimize._coarse_multipliers.cache_clear()
        coarse = collections.Counter()
        # the kernel, which the public heat_multiplier calls after its check,
        # on the coarse grid's distinct temperatures: both axes, then the
        # three inner stages of its 146 x 77 chains
        heat_multiplier = CryoEfficiencyModel._heat_multiplier

        def counting(self, t_stage, t_ext):
            if np.shape(t_stage) == (146 + 77 + 3 * 146 * 77,):
                coarse[self.kind] += 1
            return heat_multiplier(self, t_stage, t_ext)

        monkeypatch.setattr(CryoEfficiencyModel, "_heat_multiplier", counting)
        axes = [SweepAxis.parse("gamma_inverse_s=0.003:1:15:log")]
        cfgs = [load_config(text="").replace(scenario=scenario, efficiency_model=model)
                for scenario, model in (("A", "carnot"), ("C", "small_scale"))]
        for cfg in cfgs:
            sweep(cfg, axes)
        run_problem(cfgs[0])
        assert coarse == {"carnot": 1, "small_scale": 1}


def _ascending_level_searches(cfg) -> int:
    """The levels optimize_ft searched when it ran them in ascending k and
    skipped a level whose power floor exceeded ``(1 + RELATIVE_TIE)`` times
    the incumbent's power: the count that the search best first is held
    against, written out as that loop was."""
    options = cfg.grid_options()
    problem = _FtProblem(cfg.workload(), cfg.technology(), cfg.electronics(),
                         cfg.cable(), cfg.efficiency(), cfg.ft_toggles(), options)
    p_err_min, target = problem.least_error_probability(), cfg.target_metric
    axes = [("t_qb", options.t_qb_bounds), ("t_gen", options.t_gen_bounds)]
    best, searched = None, 0
    for k in range(options.k_min, options.k_max + 1):
        if problem.metric(p_err_min, k) < target:
            continue
        if best is not None and problem.power_floor(k, target) > best * (1 + RELATIVE_TIE):
            continue
        searched += 1
        found, _ = _grid_refine(partial(problem.solve, k, target), axes, options)
        if found is not None and (best is None or found[0] < best * (1 - RELATIVE_TIE)):
            best = found[0]
    return searched


def _every_level(mp) -> None:
    """Patches the level floor to -inf, so that optimize_ft searches every
    level the probe finds reachable."""
    mp.setattr(_FtProblem, "power_floor", lambda self, k, target: -math.inf)


def _fake_levels(mp, powers: dict, floors: dict) -> list:
    """Patches the search of level k to find the power ``powers[k]`` at one
    point, and its power floor to ``floors[k]``; returns the levels
    searched, in the order searched."""
    searched = []

    def search(solve, axes, options):
        k = solve.args[0]
        searched.append(k)
        return (powers[k], (0.1, 10.0), 1e12), {"t_qb": 0.0, "t_gen": 0.0}

    mp.setattr(optimize, "_grid_refine", search)
    mp.setattr(_FtProblem, "power_floor", lambda self, k, target: floors[k])
    return searched


class TestLevelSearchOrder:
    """optimize_ft searches the levels best first, in ascending power
    floor, and reduces them in ascending k."""

    def test_a_tie_chain_is_reduced_as_the_search_of_every_level(self, monkeypatch):
        # levels 3 < 4 < 5 of powers m/q^2 - e, m/q and m: 4 ties 3 and 5
        # ties 4, but 5 beats 3, so 5 wins the run over all three; with 3
        # skipped, 4 would.  Level 5's floor is least, 4's lies below m, and
        # 3's above m (1 + tie) but within the margin q^-3 of three levels;
        # a margin of (1 + tie) skips 3 and picks 4
        cfg = load_config(text="[optimizer]\nk_min = 3\nk_max = 5\n")
        q, m = 1 - RELATIVE_TIE, 1e6
        powers = {3: m / q**2 * (1 - 1e-12), 4: m / q, 5: m}
        assert not powers[4] < powers[3] * q and not powers[5] < powers[4] * q
        assert powers[5] < powers[3] * q
        floors = {3: m * (1 + RELATIVE_TIE) * (1 + 1e-12), 4: m, 5: m / 2}
        assert m * (1 + RELATIVE_TIE) < floors[3] <= m * q**-3
        assert all(floors[k] <= powers[k] for k in powers)
        searched = _fake_levels(monkeypatch, powers, floors)
        assert run_problem(cfg).control.k == 5
        assert searched == [5, 4, 3]
        _every_level(monkeypatch)
        assert run_problem(cfg).control.k == 5

    def test_equal_powers_go_to_the_smaller_level_searched_later(self, monkeypatch):
        # level 4's floor is less, so it is searched first; at equal power
        # the reduction in ascending k gives the tie to level 3
        cfg = load_config(text="[optimizer]\nk_min = 3\nk_max = 4\n")
        searched = _fake_levels(monkeypatch, {3: 1e6, 4: 1e6}, {3: 1e5, 4: 1e4})
        assert run_problem(cfg).control.k == 3
        assert searched == [4, 3]

    @given(text=valid_config_texts(kinds=("rsa", "rectangular")))
    @example(text="")
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_best_first_equals_the_search_of_every_level(self, text):
        cfg = load_config(text=text)
        best_first = run_problem(cfg)
        with pytest.MonkeyPatch.context() as mp:
            _every_level(mp)
            every = run_problem(cfg)
        assert repr(best_first) == repr(every)

    def test_no_benchmark_operation_searches_more_than_ascending_order(self, monkeypatch):
        # the factoring rows of rsa-wiring; the qubit-quality workload is the
        # README sweep on its two hardware sets, below
        monkeypatch.syspath_prepend(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
        import inputs

        for op in inputs.make_ops("rsa-wiring", 1):
            cfg = load_config(text=op.text)
            calls = _count_level_searches(monkeypatch)
            run_problem(cfg)
            assert len(calls) <= _ascending_level_searches(cfg), op.id

    @pytest.mark.parametrize("scenario, model, searches", [
        ("A", "carnot", (15, 15)), ("C", "small_scale", (17, 19))])
    def test_readme_sweep_searches_fewer_levels(self, monkeypatch, scenario, model, searches):
        # under C, two points where level 2 loses to level 3 search only 3,
        # whose power lies below level 2's floor; A searches one level a point
        cfg = load_config(text="").replace(scenario=scenario, efficiency_model=model)
        axes = [SweepAxis.parse("gamma_inverse_s=0.003:1:15:log")]
        calls = _count_level_searches(monkeypatch)
        rows = repr(sweep(cfg, axes))
        ascending = sum(_ascending_level_searches(cfg.replace(gamma_inverse_s=float(g)))
                        for g in axes[0].values())
        assert (len(calls), ascending) == searches
        _every_level(monkeypatch)
        assert repr(sweep(cfg, axes)) == rows


@st.composite
def tie_chains(draw):
    """1-8 candidates whose least powers form tie chains, ``m q^-j`` with
    ``q = 1 - RELATIVE_TIE``, some nudged by 1e-12 and some None (no
    feasible point), and a floor at or below each power."""
    q, m = 1 - RELATIVE_TIE, 1e6
    powers, floors = [], []
    for _ in range(draw(st.integers(1, 8))):
        power = (m * q ** -draw(st.integers(0, 3))
                 * draw(st.sampled_from([1.0, 1 - 1e-12, 1 + 1e-12])))
        power = draw(st.sampled_from([power, power, power, None]))
        bound = m * q**-4 if power is None else power  # a None has no power to bound
        floors.append(draw(st.sampled_from([bound, bound, -math.inf]) | st.floats(0.0, bound)))
        powers.append(power)
    return powers, floors


def _brute_force(powers: list):
    """The index of the winner of the reduction over every candidate in
    order, or None."""
    best = None
    for i, power in enumerate(powers):
        if power is not None and (best is None or power < powers[best] * (1 - RELATIVE_TIE)):
            best = i
    return best


class TestReduce:
    """The one reduction over a discrete choice."""

    @given(chains=tie_chains())
    # the chain of TestLevelSearchOrder, which a margin of 1 / q reduces wrong
    @example(chains=([1e6 / (1 - RELATIVE_TIE)**2 * (1 - 1e-12), 1e6 / (1 - RELATIVE_TIE), 1e6],
                     [1e6 * (1 + RELATIVE_TIE) * (1 + 1e-12), 1e6, 1e6 / 2]))
    @settings(max_examples=1000, deadline=None)
    def test_best_first_equals_the_reduction_over_every_candidate(self, chains):
        powers, floors = chains
        names = "abcdefgh"[:len(powers)]
        searched = []

        def search(c):
            searched.append(c)
            power = powers[names.index(c)]
            return None if power is None else (power, c)

        best_first = optimize._reduce(names, search, lambda c: floors[names.index(c)])
        assert len(searched) == len(set(searched))
        searched.clear()
        every = optimize._reduce(names, search)
        assert searched == list(names)
        i = _brute_force(powers)
        assert best_first == every == (None if i is None else (names[i], (powers[i], names[i])))

    def test_equal_compressions_go_to_the_smaller_m(self, tech_1ms, monkeypatch):
        # m = 1 and m = 2 tie within the band, m = 3 costs more, m = 0 has no
        # feasible point: the smaller of the tied compressions wins
        found = [None, (1e-3, (0.1,), 10.0), (1e-3 * (1 - RELATIVE_TIE / 2), (0.1,), 10.0),
                 (2e-3, (0.1,), 10.0)]
        weights = compression_costs(6, np.arange(4))[0].tolist()

        def answer(solve, *args):
            # the search of one compression, told by its gate weight
            return found[weights.index(solve.func.__self__.weight.item())], {"t_qb": 0.0}

        monkeypatch.setattr(optimize, "_grid_refine", answer)
        # every compression reachable, and floors low enough that each is searched
        monkeypatch.setattr(_AttenuatorProblem, "reachable",
                            lambda self, *args: np.ones(self.weight.shape[0], bool))
        monkeypatch.setattr(_AttenuatorProblem, "power_floor",
                            lambda self, *args: np.zeros(self.weight.shape[0]))
        assert optimize_nisq(6, 0.5, tech_1ms).control.m == 1


#: The config whose level answer lies on a coarse node: Carnot, scenario
#: A, a 3 ms qubit lifetime.
ON_A_COARSE_NODE = "[technology]\ngamma_inverse_s = 0.003\n"


def _searched(cfg, keep_all: bool = False):
    """``run_problem(cfg)``, pruned or with every coarse point kept."""
    with pytest.MonkeyPatch.context() as mp:
        if keep_all:
            _keep_every_coarse_point(mp)
        return run_problem(cfg)


def _record_coarse_picks(mp) -> list:
    """The points of the coarse grid that each solve of the coarse pass
    takes, as index tuples, recorded from the patched selection."""
    picks, take = [], optimize._take

    def recording(fields, points):
        picks.append(np.unravel_index(points, fields[-1].shape))
        return take(fields, points)

    mp.setattr(optimize, "_take", recording)
    return picks


def _on_the_coarse_grid(cfg) -> tuple:
    """The problem of ``cfg``, its options, and its coarse grid's axes and fields."""
    options = cfg.grid_options()
    problem = _FtProblem(cfg.workload(), cfg.technology(), cfg.electronics(),
                         cfg.cable(), cfg.efficiency(), cfg.ft_toggles(), options)
    axes, fields = optimize._coarse_grid(*problem.grid_key)
    return problem, options, axes, fields


def _coarse_floor_violations(cfg) -> list:
    """(k, point) for each level and coarse point whose fully solved power
    lies below the point's coarse floor."""
    problem, options, _, fields = _on_the_coarse_grid(cfg)
    violations = []
    for k in range(options.k_min, options.k_max + 1):
        power, _ = problem.solve_fields(k, cfg.target_metric, fields)
        floor = problem.coarse_floor(k, cfg.target_metric)
        # the floor sums the rows in another order than the search
        violations += [(k, point) for point in zip(*np.nonzero(
            ~(floor <= power * (1 + 1e-12))))]
    return violations


DENSE_CONFIG_TEXTS = valid_config_texts(kinds=("rsa", "rectangular"),
                                        per_decade=st.sampled_from([20, 40]))


def _on_the_default_box(text: str) -> str:
    """The configuration ``text`` on the default temperature box and t_ext,
    which the strategy's bias toward the bounds rarely draws."""
    box = ("t_ext_k", "t_qb_min_k", "t_qb_max_k", "t_gen_min_k", "t_gen_max_k")
    return "".join(line for line in text.splitlines(keepends=True)
                   if line.split(" = ")[0] not in box)


#: The most lines per qubit on the shortest cable of the domain, and a box
#: whose chains reach t_ext.
_MOST_LINES = ("[efficiency]\nextra_qubit_heat_w = 0.0\n"
               "[cable]\nreadout_lines_per_qubit = 100.0\ncontrol_lines_per_qubit = 100.0\n")
_NEAR_T_EXT = ("[chain]\nstages = 2\nt_qb_min_k = 0.0001\nt_qb_max_k = 299.7\n"
               "t_gen_min_k = 300.0\n[target]\nmetric = 0.0\n[optimizer]\n"
               "temperature_points_per_decade = 1\nk_max = 0\n")
#: The fewest lines but none on the longest cable: the conduction rows
#: r / L * l are subnormal, off by up to ulp(0)/2.
_SUBNORMAL_LINES = ("[cable]\nlength_m = 1000.0\nreadout_lines_per_qubit = 5e-324\n"
                    "control_lines_per_qubit = 0.0\n[scenario]\nname = custom\nq_gen_w = 0.0\n"
                    "q_para_w = 0.0\nq_hemt_w = 0.0\n[efficiency]\nextra_qubit_heat_w = 0.0\n"
                    "[chain]\nstages = 2\nt_qb_min_k = 0.0001\n[target]\nmetric = 0.0\n"
                    "[optimizer]\ntemperature_points_per_decade = 1\nk_max = 0\n")


class TestCoarsePruning:
    """Branch and bound on the coarse grid of each level's search."""

    @given(text=valid_config_texts(kinds=("rsa", "rectangular")))
    @example(text=ON_A_COARSE_NODE)
    @example(text="")
    # the most lines on the shortest cable, at level 6, near t_ext
    @example(text=_MOST_LINES + "length_m = 0.001\n[chain]\nstages = 2\n"
                  "t_qb_max_k = 299.9999999997\nt_gen_min_k = 300.0\n[target]\nmetric = 0.0\n"
                  "[optimizer]\ntemperature_points_per_decade = 1\nk_min = 6\n")
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_pruned_search_equals_the_search_of_every_point(self, text):
        cfg = load_config(text=text)
        assert repr(_searched(cfg)) == repr(_searched(cfg, keep_all=True))

    @given(text=valid_config_texts(kinds=("rsa", "rectangular")))
    @example(text=ON_A_COARSE_NODE)
    @example(text="")
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_solved_points_have_the_bits_of_the_full_grid(self, text):
        # the solve is elementwise: each point the coarse pass solves has the
        # power and attenuation of the solve of every point, bit for bit,
        # and each point it leaves unsolved has a floor above the tie band;
        # with a first batch of one point too, which leaves the band to a
        # second solve
        cfg = load_config(text=text)
        problem, options, (t_qb, t_gen), fields = _on_the_coarse_grid(cfg)
        levels = range(options.k_min, options.k_max + 1)
        for k, batch in itertools.product(levels, (optimize._FIRST_BATCH, 1)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(optimize, "_FIRST_BATCH", batch)
                picks = _record_coarse_picks(mp)
                power, a_star = problem.solve(k, cfg.target_metric, t_qb, t_gen)
            full_power, full_a = problem.solve_fields(k, cfg.target_metric, fields)
            solved = np.zeros(power.shape, bool)
            for at in picks:
                assert not solved[at].any(), k  # no point is solved twice
                solved[at] = True
            assert np.array_equal(power[solved], full_power[solved]), k
            assert np.array_equal(a_star[solved], full_a[solved], equal_nan=True), k
            assert np.isinf(power[~solved]).all() and np.isnan(a_star[~solved]).all(), k
            floor = problem.coarse_floor(k, cfg.target_metric)
            band = (floor < np.inf) & (floor * (1 - 1e-12)
                                       <= full_power.min() * (1 + RELATIVE_TIE))
            assert not band[~solved].any(), k

    @given(text=valid_config_texts(kinds=("rsa", "rectangular")))
    @example(text=ON_A_COARSE_NODE)
    @example(text="")
    @example(text=_SUBNORMAL_LINES)
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_first_batch_gives_the_search_of_every_point(self, text):
        # a first batch of one point leaves a second solve to every level that
        # has a band; one larger than the grid solves it whole in one call
        cfg = load_config(text=text)
        every = repr(_searched(cfg, keep_all=True))
        for batch in (1, 10**9):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(optimize, "_FIRST_BATCH", batch)
                assert repr(_searched(cfg)) == every, batch

    @given(text=valid_config_texts(kinds=("rsa", "rectangular")))
    @example(text="[optimizer]\ntemperature_points_per_decade = 12\n")
    @example(text="[efficiency]\nmodel = small_scale\n[toggles]\n"
                  "include_demod_syndrome = true\n[optimizer]\n"
                  "temperature_points_per_decade = 12\n")
    # the cable corners of the domain: the most lines on the shortest cable,
    # and subnormal conduction rows
    @example(text=_MOST_LINES + "length_m = 0.001\n" + _NEAR_T_EXT)
    @example(text=_SUBNORMAL_LINES)
    # the longest lifetime, and a qubit stage so close to t_ext that the
    # drive of a chain that is not valid is tiny, on a huge workload
    @example(text="[technology]\ngamma_inverse_s = 1e12\n[chain]\n"
                  "stages = 7\nt_qb_max_k = 299.9999999997\nt_gen_min_k = 1.0\n"
                  "[efficiency]\nmodel = small_scale\n[workload]\nrsa_n = 3.88e101\n")
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_floor_is_below_the_solved_power_at_every_point(self, text):
        assert _coarse_floor_violations(load_config(text=text)) == []

    @given(text=st.one_of(DENSE_CONFIG_TEXTS, DENSE_CONFIG_TEXTS.map(_on_the_default_box)))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_pruning_properties_hold_on_dense_grids(self, text):
        # both properties above at the density of the default grid, where
        # the pruning drops most of the points, half of them on its box
        cfg = load_config(text=text)
        assert repr(_searched(cfg)) == repr(_searched(cfg, keep_all=True))
        assert _coarse_floor_violations(cfg) == []

    @pytest.mark.parametrize("scenario", ["A", "B", "C"])
    @pytest.mark.parametrize("model", ["carnot", "small_scale"])
    def test_static_floor_is_the_sum_of_the_rows(self, scenario, model):
        # the closed form, conduction rows telescoped, against the rows of
        # static_power_breakdown at every valid point of the default coarse
        # grid, on a cable whose length is not 1 m: the floor of one logical
        # qubit at level 0 and target 0, with a gate-time multiplier of 0 and
        # so no drive, is the always-on power per qubit
        cfg = load_config(text="[cable]\nlength_m = 2.5\n[workload]\nkind = rectangular\n"
                          ).replace(scenario=scenario, efficiency_model=model)
        problem = _FtProblem(cfg.workload(), cfg.technology(), cfg.electronics(), cfg.cable(),
                             cfg.efficiency(), replace(cfg.ft_toggles(), t_gate_multiplier=0.0),
                             cfg.grid_options())
        _, (stages, *_, valid) = optimize._coarse_grid(*problem.grid_key)
        rows = sum(rec.electrical_power_w for rec in thermal.static_power_breakdown(
            stages, cfg.electronics(), cfg.cable(), cfg.efficiency(), cfg.t_ext_k))
        static = problem.coarse_floor(0, 0.0)
        assert static.shape == rows.shape == (146, 77)
        assert valid.sum() > 146 * 76 and (static[~valid] == np.inf).all()
        np.testing.assert_allclose(static[valid], rows[valid], rtol=1e-12, atol=0.0)

    def test_no_rows_are_priced_on_the_coarse_grid(self, monkeypatch):
        # the coarse floor sums the rows in closed form; the solves price
        # them at the points they solve: the first batch, refine grids
        shapes, rows = [], optimize.always_on_rows

        def recording(mult, *args):
            shapes.append(getattr(mult, "shape", None))  # the floors pass a tuple
            return rows(mult, *args)

        monkeypatch.setattr(optimize, "always_on_rows", recording)
        run_problem(load_config(text=""))
        assert (5, 9, 9) in shapes and (5, optimize._FIRST_BATCH) in shapes
        assert (5, 146, 77) not in shapes

    def test_floor_is_tight_where_the_drive_dominates(self):
        # three stages on a one-point grid, 20 mK and 300 K, no electronics
        # and almost no cable: the drive is nearly all the power and the
        # leak's top term most of the leak; priced at the top stage's mu,
        # 0 at t_ext, the floor would lie 8 % below the power at k = 3
        cfg = load_config(text=(
            "[chain]\nstages = 3\nt_qb_min_k = 0.02\nt_qb_max_k = 0.02\n"
            "t_gen_min_k = 300.0\n"
            "[scenario]\nname = custom\nq_gen_w = 0.0\nq_para_w = 0.0\nq_hemt_w = 0.0\n"
            "[cable]\ncontrol_lines_per_qubit = 0.001\nreadout_lines_per_qubit = 0.001\n"))
        problem, options, _, fields = _on_the_coarse_grid(cfg)
        ratios = {}
        for k in range(3, 7):
            power, _ = problem.solve_fields(k, cfg.target_metric, fields)
            ratios[k] = (problem.coarse_floor(k, cfg.target_metric) / power).item()
        assert all(0.95 <= ratio <= 1.0 for ratio in ratios.values()), ratios

    def test_default_rsa_2048_solves_its_coarse_pass_in_one_call(self, monkeypatch):
        # one level is searched: one solve of the first batch on the coarse
        # grid, whose points come as a selection, then two refine grids
        shapes, solve_fields = [], _FtProblem.solve_fields

        def recording(self, k, target, fields):
            shapes.append(np.shape(fields[2]))
            return solve_fields(self, k, target, fields)

        monkeypatch.setattr(_FtProblem, "solve_fields", recording)
        run_problem(load_config(text=""))
        assert shapes == [(optimize._FIRST_BATCH,), (9, 9), (9, 9)]
        assert optimize._FIRST_BATCH < 146 * 77 / 10

    def test_power_beyond_the_float_range_is_infeasible(self):
        # 91^155 * 49 physical qubits of RSA-16 at 0.1 mK behind the
        # small-scale cryostat: the power overflows at every point, which
        # the search, pruned or not, must not return
        cfg = load_config(text=(
            "[technology]\nfrequency_hz = 1e9\ngamma_inverse_s = 1e-4\n"
            "[chain]\nstages = 2\nt_qb_min_k = 1e-4\nt_qb_max_k = 1e-4\n"
            "t_gen_min_k = 300.0\n[efficiency]\nmodel = small_scale\n"
            "[workload]\nrsa_n = 16\n[target]\nmetric = 0.0\n"
            "[optimizer]\ntemperature_points_per_decade = 1\nk_min = 155\nk_max = 155\n"))
        for keep_all in (False, True):
            result = _searched(cfg, keep_all)
            assert not result.feasible
            assert result.diagnostic == ("no point meets the target metric 0.0 at a power "
                                         "in the float range for k in [155, 155]")

    def test_first_searches_import_nothing(self):
        # numpy helpers such as np.unique import modules on their first call,
        # which every fresh process then pays in its first result
        src = str(pathlib.Path(optimize.__file__).parents[1])
        code = ("import sys, coldstack\n"
                "before = set(sys.modules)\n"
                "from coldstack import (ElectronicsScenario, QubitTechnology, optimize_ft,\n"
                "                       optimize_nisq, rsa_workload)\n"
                f"tech = QubitTechnology(omega0={OMEGA0!r}, gamma=20.0)\n"
                "optimize_ft(rsa_workload(2048), tech, ElectronicsScenario.preset('A'))\n"
                "optimize_nisq(25, 2.0 / 3.0, tech)\n"
                "print(sorted(set(sys.modules) - before))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestCoarseTable:
    """The coarse-grid tables shared across fault-tolerant problems."""

    @staticmethod
    def _args(change: str) -> dict:
        args = dict(workload=rsa_workload(2048),
                    tech=QubitTechnology(omega0=OMEGA0, gamma=20.0),
                    scenario=SCEN_A, cable=CABLE, model=CryoEfficiencyModel(),
                    toggles=FtToggles())
        if change == "cable Y":
            args["cable"] = CableModel(length_m=0.5, control_lines_per_qubit=0.1)
        elif change == "scenario C":
            args["scenario"] = ElectronicsScenario.preset("C")
        elif change == "8 GHz":
            args["tech"] = QubitTechnology(omega0=2.0 * math.pi * 8e9, gamma=20.0)
        elif change == "3 stages":
            args["toggles"] = FtToggles(k_stages=3)
        return args

    def _optimize(self, change: str):
        return optimize_ft(**self._args(change), options=LIGHT)

    @staticmethod
    def _clear():
        optimize._coarse_grid.cache_clear()
        optimize._coarse_multipliers.cache_clear()
        optimize._corner_occupancies.cache_clear()

    SEQUENCE = ("cable X", "cable Y", "scenario C", "8 GHz", "3 stages", "cable X")

    def test_interleaved_runs_match_runs_alone(self):
        alone = {}
        for change in self.SEQUENCE:
            self._clear()
            alone[change] = repr(self._optimize(change))
        self._clear()
        for change in self.SEQUENCE:
            assert repr(self._optimize(change)) == alone[change], change
            assert optimize._coarse_grid.cache_info().currsize == 1
            assert 1 <= optimize._coarse_multipliers.cache_info().currsize <= 2
            assert optimize._corner_occupancies.cache_info().currsize == 1
            # the entries of the run just made, looked up without a miss
            args = self._args(change)
            problem = _FtProblem(**args, options=LIGHT)
            tables = (optimize._coarse_grid, optimize._coarse_multipliers,
                      optimize._corner_occupancies)
            misses = [table.cache_info().misses for table in tables]
            axes, fields = optimize._coarse_grid(*problem.grid_key)
            multipliers = optimize._coarse_multipliers(problem.grid_key, args["model"].kind,
                                                       args["toggles"].t_ext)
            (qb_lo, _), (gen_lo, _), _, k_stages, omega0 = problem.grid_key
            corner = optimize._corner_occupancies(qb_lo, gen_lo, k_stages, omega0)
            assert misses == [table.cache_info().misses for table in tables]
            for array in (*axes, *fields, *multipliers, *corner):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array.flat[0] = 0

    def _second_after_first(self, first: str, second: str) -> tuple:
        """Whether the run ``second`` reuses the entry the run ``first``
        left, and whether its result then equals its result alone."""
        self._clear()
        alone = repr(self._optimize(second))
        self._clear()
        self._optimize(first)
        before = optimize._coarse_grid.cache_info().misses
        got = repr(self._optimize(second))
        return optimize._coarse_grid.cache_info().misses == before, got == alone

    def test_cables_of_one_material_share_the_entry(self):
        # X and Y differ in length and line counts, which is all a cable sets
        assert self._second_after_first("cable X", "cable Y") == (True, True)

    @pytest.mark.parametrize("text, axis", [
        ("[efficiency]\nmodel = small_scale\n", "efficiency.extra_qubit_heat_w=0:1e-6:3"),
        ("", "cable.length_m=0.5:2:3"),
        ("[scenario]\nname = custom\nq_gen_w = 1e-3\nq_para_w = 1e-6\n",
         "scenario.q_gen_w=1e-7:1e-3:3:log"),
    ])
    def test_a_hardware_sweep_computes_the_multipliers_once(self, text, axis):
        # the multipliers depend on the efficiency model's kind and t_ext
        # alone: a sweep over the parasitic heat, the cable or a scenario
        # load looks them up without a miss after its first point, and
        # each row is the row of its point run on cleared tables
        cfg = load_config(text=text)
        self._clear()
        rows = sweep(cfg, [SweepAxis.parse(axis)])
        assert optimize._coarse_multipliers.cache_info().misses == 1
        key = axis.partition("=")[0]
        for row, value in zip(rows, SweepAxis.parse(axis).values().tolist()):
            self._clear()
            (alone,) = sweep(cfg, [SweepAxis.parse(f"{key}={value!r}:{value!r}:1")])
            assert repr(row) == repr(alone)
        assert len({row["power_w"] for row in rows}) == len(rows)

    def test_problems_on_one_cable_share_the_entry(self):
        self._optimize("cable X")
        before = optimize._coarse_grid.cache_info().misses
        self._optimize("scenario C")
        assert optimize._coarse_grid.cache_info().misses == before

    @pytest.mark.parametrize("kind", ["carnot", "small_scale"])
    @pytest.mark.parametrize("t_ext, key", [
        (4.0, ((1e-3, 1.0), (1.0, 4.0), 40, 5, OMEGA0)),
        (300.0, ((1e-3, 4.0), (4.0, 300.0), 40, 5, OMEGA0)),
        (300.0, ((1e-3, 4.0), (4.0, 300.0), 20, 2, 2.0 * math.pi * 4e9)),
        (1e4, ((1e-3, 4.0), (4.0, 300.0), 20, 7, OMEGA0)),
    ])
    def test_multipliers_are_the_formula_on_the_whole_stage_array(self, kind, t_ext, key):
        # taken once per distinct temperature, the table has the bits of the
        # multipliers of every stage of every chain
        self._clear()
        _, (stages, rises, *_) = optimize._coarse_grid(*key)
        mult = CryoEfficiencyModel(kind)._heat_multiplier(stages, t_ext)
        mu_qb, mu_least = mult[0, :, :1], mult[:-1].min(axis=0)
        want = (mu_qb, mult[-1, :1], mu_qb - mu_least, mu_least,
                (rises * (mult[:-1] - mult[1:])).sum(axis=0))
        got = optimize._coarse_multipliers(key, kind, t_ext)
        for table, formula in zip(got, want, strict=True):
            assert table.shape == formula.shape
            assert np.array_equal(table, formula)


def _grid_refine_as_first_written(solve, axes, options: GridOptions, batch: int = 1):
    """:func:`~coldstack.optimize._grid_refine` before its bookkeeping was
    cut, batched over independent problems: fresh axes tiled per problem,
    a lexsort of the tied points on every pass, the incumbents' points
    stacked, and refined rows around a column of centres."""
    def log_axis(lo, hi, per_decade):
        if hi == lo:
            return np.array([lo]), 0.0
        decades = math.log10(hi / lo)
        n = int(math.ceil(decades * per_decade)) + 1
        vals = np.logspace(math.log10(lo), math.log10(hi), n)
        vals[0], vals[-1] = lo, hi
        return vals, decades / (n - 1)

    grids, spacing = [], []
    for _, (lo, hi) in axes:
        grid, step = log_axis(lo, hi, options.temperature_points_per_decade)
        grids.append(np.tile(grid, (batch, 1)))
        spacing.append(step)
    inner = tuple(range(1, len(axes) + 1))
    best_power, best_a = np.full(batch, np.inf), np.full(batch, np.nan)
    best_point = np.tile([lo for _, (lo, _) in axes], (batch, 1))
    for pass_index in range(options.refinement_passes + 1):
        power, a_star = solve(*grids)
        if pass_index == 0:
            alive = np.isfinite(power).any(axis=inner)
            if not alive.any():
                break
        low = power.min(axis=inner, keepdims=True) * (1 + RELATIVE_TIE)
        tied = np.nonzero(power <= np.where(alive.reshape(low.shape), low, -np.inf))
        keys = [sign * g[tied[0], i] for sign, g, i in zip(optimize._TIE_SIGNS, grids, tied[1:])]
        order = np.lexsort((np.arange(tied[0].size), *keys[::-1], a_star[tied], tied[0]))
        rows = tied[0][order]
        first = order[np.concatenate(([True], rows[1:] != rows[:-1]))]
        pick = tuple(i[first] for i in tied)
        b, *at = pick = tuple(i[power[pick] < best_power[pick[0]]] for i in pick)
        best_power[b], best_a[b] = power[pick], a_star[pick]
        best_point[b] = np.stack([g[b, i] for g, i in zip(grids, at)], axis=1)
        if pass_index < options.refinement_passes:
            for d, (_, (lo, hi)) in enumerate(axes):
                spacing[d] /= REFINEMENT_FACTOR
                grids[d] = np.minimum(np.maximum(best_point[:, d, None] * 10.0**(
                    np.arange(-REFINEMENT_FACTOR, REFINEMENT_FACTOR + 1) * spacing[d]), lo), hi)
    found = [(float(p), tuple(map(float, x)), float(a)) if ok else None
             for ok, p, x, a in zip(alive, best_power, best_point, best_a)]
    return found, {name: step for (name, _), step in zip(axes, spacing)}


def _alone(solve, problems, i: int):
    """The solve of toy problem ``i`` of ``problems`` alone, on 1-D axes,
    with 1-D results: ``solve`` on it as a batch of one."""
    def one(*grids):
        return tuple(x[0] for x in solve([problems[i]], *(g[None] for g in grids)))
    return one


def _assert_alone_equals_rows(solve, problems, axes, options) -> None:
    """Each toy problem searched alone by :func:`_grid_refine` is its row of
    the batched search as first written, to the repr.  A problem with no
    feasible point stops at its coarse pass, and so has its spacing alone;
    the batch refines on as long as another problem lives."""
    want, spacing = _grid_refine_as_first_written(partial(solve, problems), axes, options,
                                                  len(problems))
    for i, row in enumerate(want):
        found, step = _grid_refine(_alone(solve, problems, i), axes, options)
        assert repr(found) == repr(row)
        if row is not None:
            assert repr(step) == repr(spacing)
        else:
            assert repr(step) == repr(_grid_refine_as_first_written(
                partial(solve, problems[i:i + 1]), axes, options)[1])


def _toy_solve(problems, *grids):
    """Power and attenuation of toy problems, one per entry of
    ``problems`` as (centre by axis, quantum, dead), on the grids the
    rows of ``grids`` span: the squared log distance to the centre,
    rounded to the quantum, so that a coarse quantum ties many points
    exactly, in power and in attenuation; a dead problem is infeasible
    everywhere."""
    ndim = len(grids)
    dist = 0.0
    for d, grid in enumerate(grids):
        shape = [len(problems)] + [1] * ndim
        shape[d + 1] = grid.shape[1]
        centre = np.array([[centres[d]] for centres, _, _ in problems])
        dist = dist + ((np.log10(grid) - centre) ** 2).reshape(shape)
    quantum = np.reshape([q for _, q, _ in problems], (-1,) + (1,) * ndim)
    dead = np.reshape([dead for *_, dead in problems], (-1,) + (1,) * ndim)
    steps = np.round(dist / quantum)
    return (np.where(dead, np.inf, 1.0 + steps * quantum),
            np.where(dead, np.nan, 1.0 + np.round(steps / 3.0)))


@st.composite
def _toy_searches(draw):
    """(problems, axes, options) of toy batched searches over one or two
    axes: up to four problems, some dead, whose quanta tie from no point
    to most points of a grid."""
    axes = [("t_qb", (1e-3, 4.0)), ("t_gen", (4.0, 300.0))][:draw(st.integers(1, 2))]
    problems = [(tuple(draw(st.floats(math.log10(lo) - 0.5, math.log10(hi) + 0.5))
                       for _, (lo, hi) in axes),
                 draw(st.sampled_from([1e-6, 1e-3, 0.05, 1.0, 100.0])),
                 draw(st.booleans()) and draw(st.booleans()))
                for _ in range(draw(st.integers(1, 4)))]
    options = GridOptions(temperature_points_per_decade=draw(st.integers(1, 6)),
                          refinement_passes=draw(st.integers(0, 5)))
    return problems, axes, options


def _sparse_toy_solve(problems, *grids):
    """:func:`_toy_solve` of problems given as (centre by axis, quantum,
    dead, share, phase), infeasible, with infinite power and NaN
    attenuation, but at about the fraction ``share`` of the points: where
    a fixed function of the point's temperatures, offset by ``phase``,
    has a fractional part below ``share``.  The attenuation, 1 to 4, is
    another function of it, so points of equal power need not tie in
    attenuation.  Both depend on the temperatures alone, so a node that a
    refined grid repeats keeps its power and attenuation, and an
    incumbent stays feasible in the grids around it."""
    power, _ = _toy_solve([p[:3] for p in problems], *grids)
    ndim = len(grids)
    hashed = np.reshape([phase for *_, phase in problems], (-1,) + (1,) * ndim)
    for d, grid in enumerate(grids):
        shape = [len(problems)] + [1] * ndim
        shape[d + 1] = grid.shape[1]
        hashed = hashed + (97.0 + 31.0 * d) * np.log10(grid).reshape(shape)
    share = np.reshape([share for *_, share, _ in problems], (-1,) + (1,) * ndim)
    power = np.where(hashed - np.floor(hashed) < share, power, np.inf)
    a_star = 1.0 + np.round(3.0 * np.abs(np.sin(7.0 * hashed)))
    return power, np.where(power < np.inf, a_star, np.nan)


@st.composite
def _sparse_toy_searches(draw):
    """(problems, axes, options) of :func:`_sparse_toy_solve` searches.  On
    the default coarse grid, 146 x 77 by 40 points per decade, a few
    hundred points are feasible, as the coarse pass of a level leaves
    them; on sparser grids any share is.  Centres sit on a bound or
    beyond it as often as inside the box, where the refined grids clip
    and repeat nodes, which tie exactly."""
    coarse = draw(st.booleans())
    axes = [("t_qb", (1e-3, 4.0)), ("t_gen", (4.0, 300.0))]
    if not coarse:
        axes = axes[:draw(st.integers(1, 2))]

    def centre(lo, hi):
        lo, hi = math.log10(lo), math.log10(hi)
        return draw(st.one_of(st.sampled_from([lo, hi, lo - 0.3, hi + 0.3]),
                              st.floats(lo, hi)))

    shares = [0.02, 0.05] if coarse else [0.02, 0.3, 1.0]
    problems = [(tuple(centre(lo, hi) for _, (lo, hi) in axes),
                 draw(st.sampled_from([1e-6, 1e-3, 0.05, 1.0, 100.0])),
                 draw(st.booleans()) and draw(st.booleans()),
                 draw(st.sampled_from(shares)), draw(st.floats(0.0, 1.0)))
                for _ in range(draw(st.integers(1, 4)))]
    per_decade = 40 if coarse else draw(st.integers(1, 6))
    options = GridOptions(temperature_points_per_decade=per_decade,
                          refinement_passes=draw(st.integers(0, 5)))
    return problems, axes, options


class TestGridRefineBookkeeping:
    @given(search=_toy_searches())
    @settings(max_examples=150, deadline=None)
    def test_search_equals_the_search_as_first_written(self, search):
        problems, axes, options = search
        _assert_alone_equals_rows(_toy_solve, problems, axes, options)

    @given(search=_sparse_toy_searches())
    @settings(max_examples=100, deadline=None)
    def test_sparse_search_equals_the_search_as_first_written(self, search):
        # mostly infeasible grids, as the coarse pass returns them, and
        # refined grids clipped at the bounds, with NaN attenuations at the
        # infeasible points and dead problems beside live ones
        problems, axes, options = search
        _assert_alone_equals_rows(_sparse_toy_solve, problems, axes, options)

    @pytest.mark.parametrize("quantum, sorts", [(1e-6, False), (100.0, True)])
    def test_lexsort_runs_only_where_a_problem_has_several_ties(self, quantum, sorts,
                                                                monkeypatch):
        # one tied point per live problem, beside a dead one, needs no sort
        problems = [((-1.0, 1.5), quantum, False), ((0.0, 2.0), quantum, True),
                    ((0.3, 1.9), quantum, False)]
        axes = [("t_qb", (1e-3, 4.0)), ("t_gen", (4.0, 300.0))]
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        for i in range(len(problems)):
            _grid_refine(_alone(_toy_solve, problems, i), axes, LIGHT)
        assert bool(calls) == sorts
        monkeypatch.undo()
        _assert_alone_equals_rows(_toy_solve, problems, axes, LIGHT)

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("passes", [0, 1, 2, 5])
    def test_solve_calls_on_one_and_two_axes(self, ndim, passes):
        # on one axis every refined row but the last is solved with the 81
        # nodes of the rows the next pass can lay, which then makes no call;
        # on two axes each pass is one call.  Pass 0 takes the cached axes
        # themselves; the answer is Python floats
        axes = [("t_qb", (1e-3, 4.0)), ("t_gen", (4.0, 300.0))][:ndim]
        options = GridOptions(temperature_points_per_decade=3, refinement_passes=passes)
        for dead in (False, True):
            problems, seen = [((-1.0, 1.5)[:ndim], 1e-3, dead)], []

            def solve(*grids):
                seen.append(grids)
                return _alone(_toy_solve, problems, 0)(*grids)

            found, spacing = _grid_refine(solve, axes, options)
            if dead:
                assert len(seen) == 1
            elif ndim == 1:
                assert len(seen) == 1 + math.ceil(passes / 2)
                assert [g.size for (g,) in seen[1:]] == [9 + 81] * (passes // 2) + [9] * (
                    passes % 2)
            else:
                assert len(seen) == passes + 1
                assert all(g.size == 9 for grids in seen[1:] for g in grids)
            assert all(grid.ndim == 1 for grids in seen for grid in grids)
            assert all(grid is optimize._log_axis(lo, hi, 3)[0]
                       for grid, (_, (lo, hi)) in zip(seen[0], axes, strict=True))
            assert (found is None) == dead
            if not dead:
                power, point, a_star = found
                assert {type(x) for x in (power, *point, a_star, *spacing.values())} == {float}

    @pytest.mark.parametrize("bounds, per_decade", [((1e-3, 4.0), 40), ((4.0, 300.0), 3),
                                                    ((0.5, 0.5), 40), ((1e-4, 1e-3), 7)])
    def test_axes_are_cached_read_only_logspace(self, bounds, per_decade):
        lo, hi = bounds
        axis, step = optimize._log_axis(lo, hi, per_decade)
        assert optimize._log_axis(lo, hi, per_decade)[0] is axis
        assert not axis.flags.writeable
        with pytest.raises(ValueError):
            axis[0] = 1.0
        want = np.logspace(math.log10(lo), math.log10(hi), axis.size)
        want[0], want[-1] = lo, hi
        assert np.array_equal(axis, want)
        if lo < hi:
            assert step == math.log10(hi / lo) / (axis.size - 1) <= 1.0 / per_decade


class TestTransitionEstimate:
    def test_hand_value_level_two(self, tech_50ms):
        est = transition_size_estimate(tech_50ms, 2.0 / 3.0, 2)
        assert est == pytest.approx(math.log(1.5) / 2e-5 * 40.0**4, rel=1e-12)
        assert est == pytest.approx(5.19e10, rel=1e-2)

    def test_doubling_exponent_with_level(self, tech_50ms):
        e1 = transition_size_estimate(tech_50ms, 2.0 / 3.0, 1)
        e2 = transition_size_estimate(tech_50ms, 2.0 / 3.0, 2)
        e3 = transition_size_estimate(tech_50ms, 2.0 / 3.0, 3)
        assert e2 / e1 == pytest.approx(40.0**2, rel=1e-9)
        assert e3 / e2 == pytest.approx(40.0**4, rel=1e-9)

    def test_rsa_2048_sits_between_level_two_and_three(self, tech_50ms,
                                                       star_result):
        n_locations = 6175 * 2_100_000_000
        assert transition_size_estimate(tech_50ms, 2.0 / 3.0, 2) < n_locations
        assert n_locations < transition_size_estimate(tech_50ms, 2.0 / 3.0, 3)
        assert star_result.control.k == 3


#: The functions that take a concatenation level, as functions of the
#: hardware and the level.
LEVEL_TAKERS = {
    "measurement_fraction": lambda tech, k: qec.measurement_fraction(k),
    "demodulation_power_per_qubit": lambda tech, k: thermal.demodulation_power_per_qubit(
        k, tech),
    "ft_error_budget": lambda tech, k: qec.ft_error_budget(0.5, k, 10, 10),
    "transition_size_estimate": lambda tech, k: transition_size_estimate(tech, 2 / 3, k),
    "ft_duration_s": lambda tech, k: ft_duration_s(Workload(1, 1), tech, k),
}


class TestLevelArguments:
    @pytest.mark.parametrize("name", LEVEL_TAKERS)
    @pytest.mark.parametrize("k", [2.5, 2.0, -1])
    def test_rejects_a_level_that_is_no_nonnegative_integer(self, tech50, name, k):
        with pytest.raises(ValueError, match="concatenation level must be a nonnegative"):
            LEVEL_TAKERS[name](tech50, k)

    @pytest.mark.parametrize("name", LEVEL_TAKERS)
    def test_accepts_a_numpy_integer_level(self, tech50, name):
        assert LEVEL_TAKERS[name](tech50, np.int64(2)) == LEVEL_TAKERS[name](tech50, 2)


class TestRsaEnergySummary:
    def test_duration_convention(self, tech50, star_result):
        wl = Workload(6175, 2_100_000_000)
        t = ft_duration_s(wl, tech50, star_result.control.k)
        assert t == pytest.approx(27 * 2.1e9 * 1e-7, rel=1e-12)

    def test_energy_product(self, tech50, star_result):
        wl = Workload(6175, 2_100_000_000)
        t, e, eff = rsa_energy_summary(2048, star_result, wl, tech50)
        assert e == pytest.approx(star_result.power_w * t, rel=1e-12)
        assert eff == pytest.approx(2048 / e, rel=1e-12)

    def test_2048_bit_headline_costs(self, tech50, star_result):
        # about an hour and a half, tens of gigajoules, a few 1e-8 bit/J
        wl = Workload(6175, 2_100_000_000)
        t, e, eff = rsa_energy_summary(2048, star_result, wl, tech50)
        assert t == pytest.approx(1.5 * 3600, rel=0.25)
        assert e == pytest.approx(38e9, rel=0.25)
        assert eff == pytest.approx(5e-8, rel=0.25)

    def test_low_qubit_variant_pays_in_energy(self, tech50):
        lean = rsa_workload(2048, "haner")
        full = rsa_workload(2048, "gidney")
        res_lean = optimize_ft(lean, tech50, SCEN_A, options=LIGHT)
        res_full = optimize_ft(full, tech50, SCEN_A, options=LIGHT)
        assert res_lean.control.k == res_full.control.k
        _, e_lean, _ = rsa_energy_summary(2048, res_lean, lean, tech50)
        _, e_full, _ = rsa_energy_summary(2048, res_full, full, tech50)
        assert 100 < e_lean / e_full < 300  # roughly the 200x depth penalty
