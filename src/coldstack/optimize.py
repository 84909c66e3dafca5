"""Constrained power-minimization engines.

Three problem classes share the same recipe.  Power rises monotonically
with the total attenuation while the metric improves with it, so for
any fixed temperatures the conditional optimum sits exactly on the
constraint boundary (or at the attenuation lower bound when the
constraint is already slack there).  The engines therefore grid only
the temperature controls logarithmically, solve the boundary
attenuation by bisection at every grid point, take the argmin, and run
local grid refinements around the incumbent.  The equality constraint
is thereby met to solver precision rather than grid precision.

Every evaluation is a pure function of its inputs and the reduction is
an ordered argmin with a fixed tie-break (smaller concatenation level,
then smaller attenuation, then warmer qubits, then cooler generation
stage), so results are deterministic regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qec
from .noise import (
    HBAR,
    QubitTechnology,
    bose_einstein,
    chain_occupancy,
    pauli_error_probability,
    pi_pulse_power,
    single_attenuator_occupancy,
)
from .thermal import (
    AMBIENT_K,
    CARNOT,
    CableModel,
    CryoEfficiencyModel,
    ElectronicsScenario,
    StageRecord,
    attenuator_heat_fractions,
    conduction_heat_per_qubit,
    demodulation_power_per_qubit,
    stage_layout,
    static_power_breakdown,
    syndrome_power_per_qubit,
)
from .workloads import Workload, nisq_circuit

#: Powers within this relative band count as ties for the tie-break.
RELATIVE_TIE = 1e-9

_BISECTION_STEPS = 80


@dataclass(frozen=True)
class GridOptions:
    """Search-grid density, bounds, and refinement schedule."""

    temperature_points_per_decade: int = 40
    refinement_passes: int = 2
    refinement_factor: int = 4
    k_min: int = 0
    k_max: int = 6
    t_qb_bounds: tuple = (1e-3, 4.0)
    t_gen_bounds: tuple = (4.0, 300.0)
    attenuation_bounds: tuple = (1.0, 1e12)

    def __post_init__(self) -> None:
        if self.k_min < 0 or self.k_max < self.k_min:
            raise ValueError("need 0 <= k_min <= k_max")
        for lo, hi in (self.t_qb_bounds, self.t_gen_bounds, self.attenuation_bounds):
            if not (0 < lo <= hi):
                raise ValueError("bounds must satisfy 0 < low <= high")
        if self.t_gen_bounds[0] <= self.t_qb_bounds[0]:
            raise ValueError("the generation-stage lower bound must exceed "
                             "the qubit-stage lower bound")


@dataclass(frozen=True)
class FtToggles:
    """Model variants for the fault-tolerant problem."""

    t_gate_multiplier: float = 1.0
    two_qubit_drive_duration: str = "tau_1qb"  # rating duration of the sustained drive
    include_demod_syndrome: bool = False
    metric_form: str = "linear"  # 'linear' or 'exact'
    steps_per_logical_level: float = 3.0
    k_stages: int = 5
    t_ext: float = AMBIENT_K

    def __post_init__(self) -> None:
        if self.two_qubit_drive_duration not in ("tau_1qb", "tau_2qb"):
            raise ValueError("drive duration must be 'tau_1qb' or 'tau_2qb'")
        if self.metric_form not in ("linear", "exact"):
            raise ValueError("metric form must be 'linear' or 'exact'")


@dataclass(frozen=True)
class ControlPoint:
    """Operating point found by an optimization."""

    t_qb: float | None = None
    t_gen: float | None = None
    a_total: float | None = None
    k: int | None = None
    m: int | None = None


@dataclass(frozen=True)
class OptimizationResult:
    control: ControlPoint
    power_w: float
    metric_achieved: float
    per_stage: tuple
    per_qubit_power_w: float
    physical_qubits: int
    feasible: bool
    diagnostic: str = ""
    grid_step_log10: dict = field(default_factory=dict)
    magnification: float | None = None


def _infeasible(diagnostic: str, control: ControlPoint = ControlPoint()) -> OptimizationResult:
    return OptimizationResult(
        control=control, power_w=math.inf, metric_achieved=0.0, per_stage=(),
        per_qubit_power_w=math.inf, physical_qubits=0, feasible=False,
        diagnostic=diagnostic)


# ---------------------------------------------------------------------------
# Grid helpers
# ---------------------------------------------------------------------------

def _log_axis(lo: float, hi: float, per_decade: int) -> tuple[np.ndarray, float]:
    """Log-spaced axis with both endpoints and spacing <= 1/per_decade
    decades; returns (values, actual spacing in decades)."""
    if hi == lo:
        return np.array([lo]), 0.0
    decades = math.log10(hi / lo)
    n = int(math.ceil(decades * per_decade)) + 1
    vals = np.logspace(math.log10(lo), math.log10(hi), n)
    vals[0], vals[-1] = lo, hi  # logspace endpoints carry rounding error
    return vals, decades / (n - 1)


def _refined_axis(center: float, spacing: float, factor: int,
                  lo: float, hi: float) -> tuple[np.ndarray, float]:
    """Axis spanning one old step around ``center`` at ``factor``-times
    finer spacing, clipped to the bounds."""
    fine = spacing / factor
    offsets = np.arange(-factor, factor + 1) * fine
    vals = np.clip(center * 10.0**offsets, lo, hi)
    return np.unique(vals), fine


def _boundary_attenuation(metric_of_log_a, lo: float, hi: float):
    """Vectorized bisection for the smallest attenuation meeting the
    target, given ``metric_of_log_a`` returning (metric - target) on an
    array of log10 attenuations.  Entries read NaN where even the upper
    bound fails."""
    log_lo = math.log10(lo)
    log_hi = math.log10(hi)
    top = metric_of_log_a(log_hi)
    bottom = metric_of_log_a(log_lo)
    shape = np.broadcast(top, bottom).shape
    a = np.full(shape, np.nan)
    reachable = top >= 0.0
    slack = reachable & (bottom >= 0.0)
    a[slack] = lo
    active = reachable & ~slack
    if np.any(active):
        lo_arr = np.full(shape, log_lo)
        hi_arr = np.full(shape, log_hi)
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo_arr + hi_arr)
            ok = metric_of_log_a(mid) >= 0.0
            hi_arr = np.where(ok, mid, hi_arr)
            lo_arr = np.where(ok, lo_arr, mid)
        a[active] = 10.0 ** hi_arr[active]
    return a


# ---------------------------------------------------------------------------
# Single-qubit gate and NISQ circuit (one attenuator at the qubit stage)
# ---------------------------------------------------------------------------

def bare_efficiency_max(tech: QubitTechnology, target: float) -> float:
    """Maximal metric-per-drive-power ratio at target metric ``target``.

    Optimizing the gate duration against the zero-thermal-noise metric
    gives the closed form ``(4/pi^2) * M (1-M)^2 / (gamma hbar omega0)``,
    valid while the thermal occupancy is negligible.
    """
    if not (0 < target < 1):
        raise ValueError("target metric must lie strictly between 0 and 1")
    return (4.0 / math.pi**2) * target * (1.0 - target) ** 2 / (
        tech.gamma * HBAR * tech.omega0)


class _AttenuatorProblem:
    """Shared inner machinery for the one-attenuator topologies.

    ``metric_fn(infidelity)`` maps the per-gate worst-case infidelity to
    the problem metric; ``power_scale`` multiplies the per-gate cryo
    power (parallel-gate weighting).
    """

    def __init__(self, tech: QubitTechnology, metric_fn, power_scale: float,
                 t_ext: float):
        self.tech = tech
        self.metric_fn = metric_fn
        self.power_scale = power_scale
        self.t_ext = t_ext
        self.p_pi = pi_pulse_power(tech, tech.tau_1qb)

    def infidelity(self, t_qb, a):
        occ = single_attenuator_occupancy(a, t_qb, self.t_ext, self.tech.omega0)
        return self.tech.gamma * self.tech.tau_1qb * (1.0 + occ)

    def metric(self, t_qb, a):
        return self.metric_fn(self.infidelity(t_qb, a))

    def power(self, t_qb, a):
        return (self.t_ext - t_qb) / t_qb * a * self.p_pi * self.power_scale

    def minimize(self, target: float, options: GridOptions):
        """Temperature grid with exact boundary attenuation, plus local
        refinements; returns (t, a, power, spacing) or None."""
        t_axis, t_sp = _log_axis(*options.t_qb_bounds,
                                 options.temperature_points_per_decade)
        spacing = {"t_qb": t_sp}
        best = None
        for pass_index in range(options.refinement_passes + 1):
            cand = self._boundary_argmin(t_axis, target, options)
            if cand is not None and (best is None or cand[0] < best[0]):
                best = cand
            if best is None:
                return None
            if pass_index < options.refinement_passes:
                t_axis, spacing["t_qb"] = _refined_axis(
                    best[1], spacing["t_qb"], options.refinement_factor,
                    *options.t_qb_bounds)
        power, t_star, a_star = best
        return t_star, a_star, power, spacing

    def _boundary_argmin(self, t_axis: np.ndarray, target: float,
                         options: GridOptions):
        a_lo, a_hi = options.attenuation_bounds
        t_col = t_axis[:, None]

        def gap(log_a):
            return self.metric(t_col, 10.0 ** np.asarray(log_a)) - target

        a_star = _boundary_attenuation(gap, a_lo, a_hi).reshape(-1)
        finite = np.isfinite(a_star)
        if not finite.any():
            return None
        power = np.where(finite, self.power(t_axis, np.where(finite, a_star, a_hi)),
                         np.inf)
        # accept ties within the relative band, preferring low attenuation
        # then high temperature
        pmin = power.min()
        tied = power <= pmin * (1 + RELATIVE_TIE)
        candidates = [(a_star[i], -t_axis[i], i) for i in np.nonzero(tied)[0]]
        candidates.sort()
        i = candidates[0][2]
        return float(power[i]), float(t_axis[i]), float(a_star[i])


def optimize_single_qubit(tech: QubitTechnology, target: float,
                          topology: str = "single_attenuator",
                          options: GridOptions = GridOptions(),
                          t_ext: float = AMBIENT_K) -> OptimizationResult:
    """Minimize the cryo-power of one gate at fixed duration, subject to
    a worst-case gate-fidelity target, over (qubit temperature,
    attenuation) with a single attenuator at the qubit stage."""
    if topology != "single_attenuator":
        raise ValueError("only the single_attenuator topology is modeled")
    if not (0 <= target < 1):
        raise ValueError("target metric must lie in [0, 1)")
    floor = tech.gamma * tech.tau_1qb
    if target > 1.0 - floor:
        return _infeasible(
            f"target metric {target} exceeds the zero-noise bound "
            f"{1.0 - floor:.9g} (infidelity floor gamma*tau_1qb = {floor:.3g})")
    problem = _AttenuatorProblem(tech, lambda infid: 1.0 - infid, 1.0, t_ext)
    found = problem.minimize(target, options)
    if found is None:
        return _infeasible("no grid point satisfies the metric target")
    t_star, a_star, power, spacing = found
    heat = a_star * problem.p_pi
    record = StageRecord(t_star, heat, power, "attenuator")
    return OptimizationResult(
        control=ControlPoint(t_qb=t_star, a_total=a_star),
        power_w=power,
        metric_achieved=problem.metric(t_star, a_star),
        per_stage=(record,),
        per_qubit_power_w=power,
        physical_qubits=1,
        feasible=True,
        grid_step_log10=spacing,
        magnification=a_star * t_ext / t_star,
    )


def optimize_nisq(q: int, target: float, tech: QubitTechnology,
                  options: GridOptions = GridOptions(),
                  t_ext: float = AMBIENT_K,
                  fixed_m: int | None = None) -> OptimizationResult:
    """Minimize the average cryo-power of the compressible circuit on
    ``q`` qubits over (temperature, attenuation, compression), subject
    to a circuit-fidelity target.

    ``target`` is the metric floor; a run-success probability target of
    2/3 maps to ``target = 2/3``.  ``fixed_m`` restricts the search to
    one compression (used for cross-checks against the inner solver).

    Where the optimum lies in the compression ``m``.  Id gates fill
    every idle slot, so the circuit at any compression carries
    ``n_gates_weighted = q*D`` error-weighted gates at depth ``D``, and
    the per-gate infidelity budget is ``(1-M)/(q*D)``.  At a fixed qubit
    temperature ``T`` the metric reaches the target ``M`` at the
    occupancy ``n* = (1-M)/(q*D*gamma*tau) - 1``, that is at the
    boundary attenuation ``A* = (n_hot - n_c)/(n* - n_c)``, with
    ``n_hot`` and ``n_c`` the occupancies at ``t_ext`` and ``T``.  The
    power is ``(t_ext-T)/T * A * P_pi * n2/(4*D)`` for ``n2`` two-qubit
    gates, and on the boundary ``D`` cancels from ``A* / D``:

        P*(T, D) = n2/4 * P_pi * (t_ext-T)/T * (n_hot - n_c)
                   / (c - (1 + n_c)*D),      c = (1-M)/(q*gamma*tau).

    This falls strictly as ``D`` falls, i.e. as ``m`` rises, and the
    set of feasible ``T`` only grows.  So whenever ``A*`` exceeds its
    lower bound at every compression, the optimum is maximal
    compression, ``m = q-3``.  An interior optimum is possible only
    where the attenuation reaches its lower bound: there the constraint
    is slack, the power ``(t_ext-T)/T * A_min * P_pi * n2/(4*D)`` rises
    as ``D`` falls, and the temperature bound keeps the qubits from
    warming further to make the constraint active again.
    """
    if not (0 <= target < 1):
        raise ValueError("target metric must lie in [0, 1)")
    m_values = range(q - 2) if fixed_m is None else [fixed_m]
    best = None  # (power, m, t, a, spacing, problem, circuit)
    for m in m_values:
        circ = nisq_circuit(q, m)
        problem = _AttenuatorProblem(
            tech,
            lambda infid, _c=circ: np.maximum(0.0, 1.0 - _c.n_gates_weighted * infid),
            circ.n_1qb_avg + 0.25 * circ.n_2qb_avg,
            t_ext)
        found = problem.minimize(target, options)
        if found is None:
            continue
        t_star, a_star, p_star, spacing = found
        if (best is None or p_star < best[0] * (1 - RELATIVE_TIE)
                or (p_star <= best[0] * (1 + RELATIVE_TIE) and m < best[1])):
            best = (p_star, m, t_star, a_star, spacing, problem, circ)
    if best is None:
        return _infeasible(
            f"metric target {target} unreachable for any compression of the "
            f"{q}-qubit circuit (zero-noise floor too high)")
    power, m, t_star, a_star, spacing, problem, circ = best
    heat = a_star * problem.p_pi * problem.power_scale
    record = StageRecord(t_star, heat, power, "attenuator")
    return OptimizationResult(
        control=ControlPoint(t_qb=t_star, a_total=a_star, m=m),
        power_w=power,
        metric_achieved=problem.metric(t_star, a_star),
        per_stage=(record,),
        per_qubit_power_w=power / q,
        physical_qubits=q,
        feasible=True,
        grid_step_log10=spacing,
    )


# ---------------------------------------------------------------------------
# Fault-tolerant computation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FtPointEvaluation:
    """Full-stack power and metric of one fault-tolerant operating point."""

    power_w: float
    metric: float
    per_stage: tuple
    physical_qubits: int
    p_err: float


def _metric_from_p(p_err, k: int, n_locations: float, form: str):
    p_l = qec.logical_error_probability(p_err, k)
    if form == "linear":
        return np.maximum(0.0, 1.0 - n_locations * p_l)
    survivable = p_l < 1.0
    log_term = np.log1p(-np.where(survivable, p_l, 0.0))
    return np.where(survivable, np.exp(n_locations * log_term), 0.0)


def _dynamic_weight(tech: QubitTechnology, k: int, toggles: FtToggles) -> float:
    """Parallel 2qb-equivalents per logical qubit: N_2qb + r*N_1qb, with
    the 1qb gates active a fraction r of each step."""
    r = tech.tau_1qb / tech.tau_step
    n2, n1, _, _ = qec.physical_gate_counts_rectangular(1.0, k)
    return toggles.t_gate_multiplier * (n2 + r * n1)


def _drive_power(tech: QubitTechnology, toggles: FtToggles) -> float:
    tau = tech.tau_1qb if toggles.two_qubit_drive_duration == "tau_1qb" else tech.tau_2qb
    return pi_pulse_power(tech, tau)


def evaluate_ft_point(workload: Workload, tech: QubitTechnology,
                      scenario: ElectronicsScenario, cable: CableModel,
                      model: CryoEfficiencyModel, t_qb: float, t_gen: float,
                      a_total: float, k: int,
                      toggles: FtToggles = FtToggles()) -> FtPointEvaluation:
    """Evaluate power, metric, and the per-stage breakdown at one point.

    The reported power is exactly the sum of the per-stage electrical
    powers, so breakdowns reconstruct the total without residue.
    """
    chain = stage_layout(t_qb, t_gen, a_total, toggles.k_stages, toggles.t_ext)
    occ = chain_occupancy(chain, tech.omega0)
    p_err = pauli_error_probability(tech, occ)
    metric = float(_metric_from_p(p_err, k, workload.n_locations, toggles.metric_form))
    qubits = qec.physical_qubits(workload.q_logical, k)
    p_pi = _drive_power(tech, toggles)
    weight = _dynamic_weight(tech, k, toggles) * workload.q_logical
    fractions = attenuator_heat_fractions(chain)
    mult = model.heat_multiplier(np.asarray(chain.temperatures), chain.t_ext)
    records = []
    for t, frac, mu in zip(chain.temperatures, fractions, mult):
        heat = frac * p_pi * weight
        records.append(StageRecord(float(t), float(heat), float(mu * heat),
                                   "attenuator"))
    for rec in static_power_breakdown(chain, scenario, cable, model):
        records.append(StageRecord(rec.stage_temperature_k,
                                   rec.heat_extracted_w * qubits,
                                   rec.electrical_power_w * qubits, rec.source))
    if toggles.include_demod_syndrome:
        q_cl = (demodulation_power_per_qubit(k, tech)
                + syndrome_power_per_qubit(tech)) * qubits
        records.append(StageRecord(toggles.t_ext, q_cl, q_cl, "electronics"))
    power = float(sum(r.electrical_power_w for r in records))
    return FtPointEvaluation(power, metric, tuple(records), qubits, float(p_err))


class _FtProblem:
    """Vectorized fault-tolerant objective over (T_qb, T_gen, A) grids."""

    def __init__(self, workload, tech, scenario, cable, model, toggles):
        self.workload = workload
        self.tech = tech
        self.scenario = scenario
        self.cable = cable
        self.model = model
        self.toggles = toggles
        self.p_pi = _drive_power(tech, toggles)
        self.exponents = (np.arange(1, toggles.k_stages)
                          / (toggles.k_stages - 1))

    def stage_fields(self, t_qb: np.ndarray, t_gen: np.ndarray):
        """Stage temperatures, occupancies, heat multipliers, and static
        per-qubit power on the (t_qb, t_gen) grid."""
        tog, model, cable, scen = (self.toggles, self.model, self.cable,
                                   self.scenario)
        frac = (np.arange(tog.k_stages) / (tog.k_stages - 1))[:, None, None]
        stages = t_qb[None, :, None] ** (1 - frac) * t_gen[None, None, :] ** frac
        occ_stage = bose_einstein(stages, self.tech.omega0)
        mult = model.heat_multiplier(stages, tog.t_ext)
        net = conduction_heat_per_qubit(stages, cable)
        static = np.einsum("kij,kij->ij", mult, net)
        static = static + (1.0 + model.heat_multiplier(t_gen, tog.t_ext))[None, :] * scen.q_gen
        static = static + (1.0 + model.heat_multiplier(4.0, tog.t_ext)) * scen.q_para
        hemt = np.where(t_gen > 70.0,
                        (1.0 + model.heat_multiplier(70.0, tog.t_ext)) * scen.q_hemt,
                        0.0)
        static = static + hemt[None, :]
        if model.kind == "small_scale":
            static = static + (model.heat_multiplier(t_qb, tog.t_ext)
                               * model.extra_qubit_heat_w)[:, None]
        return stages, occ_stage, mult, static

    def p_err(self, occ):
        return np.clip(0.5 * self.tech.gamma * self.tech.tau_step * (0.5 + occ),
                       0.0, 1.0)

    def power(self, mult, static, cum, k: int):
        """Total power from per-stage multipliers, static per-qubit power,
        and cumulative attenuations shaped (K-1, ...)."""
        deltas = np.concatenate([cum[:1], np.diff(cum, axis=0)], axis=0)
        gate_sum = np.sum(mult[:-1] * deltas, axis=0)
        weight = _dynamic_weight(self.tech, k, self.toggles)
        extra = 0.0
        if self.toggles.include_demod_syndrome:
            extra = (demodulation_power_per_qubit(k, self.tech)
                     + syndrome_power_per_qubit(self.tech))
        return self.workload.q_logical * (
            weight * self.p_pi * gate_sum
            + qec.QUBIT_GROWTH**k * (static + extra))

    def metric(self, occ, k: int):
        return _metric_from_p(self.p_err(occ), k, self.workload.n_locations,
                              self.toggles.metric_form)

    # -- search ------------------------------------------------------------

    def best_for_k(self, k: int, target: float, options: GridOptions):
        """Temperature-pair grid with exact boundary attenuation, plus
        local refinements, for one concatenation level."""
        t_axis, t_sp = _log_axis(*options.t_qb_bounds,
                                 options.temperature_points_per_decade)
        g_axis, g_sp = _log_axis(*options.t_gen_bounds,
                                 options.temperature_points_per_decade)
        spacing = {"t_qb": t_sp, "t_gen": g_sp}
        best = None
        for pass_index in range(options.refinement_passes + 1):
            cand = self._boundary_argmin(t_axis, g_axis, k, target, options)
            if cand is not None and (best is None or cand[0] < best[0]):
                best = cand
            if best is None:
                return None
            if pass_index < options.refinement_passes:
                t_axis, spacing["t_qb"] = _refined_axis(
                    best[1], spacing["t_qb"], options.refinement_factor,
                    *options.t_qb_bounds)
                g_axis, spacing["t_gen"] = _refined_axis(
                    best[2], spacing["t_gen"], options.refinement_factor,
                    *options.t_gen_bounds)
        power, t_qb, t_gen, a_star = best
        return t_qb, t_gen, a_star, power, spacing

    def _boundary_argmin(self, t_axis, g_axis, k, target, options):
        """Cheapest feasible (T_qb, T_gen) pair with the attenuation
        solved on the constraint boundary; None when nothing qualifies.
        A collapsed chain (qubit stage as warm as the generation stage)
        has no valid layout and is excluded."""
        stages, occ_stage, mult, static = self.stage_fields(t_axis, g_axis)
        valid = t_axis[:, None] < g_axis[None, :]
        diffs = occ_stage[1:] - occ_stage[:-1]
        inv_span = 1.0 / (self.toggles.k_stages - 1)

        def gap(log_a):
            # leak terms sum_i diff_i * A^(-i/(K-1)), evaluated by Horner
            # on b = A^(-1/(K-1)) to keep one exponential per call
            b = 10.0 ** (-np.broadcast_to(np.asarray(log_a, float),
                                          valid.shape) * inv_span)
            leak = np.zeros_like(b)
            for d in diffs[::-1]:
                leak = (leak + d) * b
            occ = occ_stage[0] + leak
            return np.where(valid, self.metric(occ, k) - target, -np.inf)

        a_lo, a_hi = options.attenuation_bounds
        a_star = _boundary_attenuation(gap, a_lo, a_hi)
        finite = np.isfinite(a_star)
        if not finite.any():
            return None
        a_safe = np.where(finite, a_star, a_hi)
        cum = a_safe[None, :, :] ** self.exponents[:, None, None]
        power = np.where(finite, self.power(mult, static, cum, k), np.inf)
        pmin = power.min()
        tied = np.argwhere(power <= pmin * (1 + RELATIVE_TIE))
        candidates = [
            (a_star[i, j], -t_axis[i], g_axis[j], (i, j)) for i, j in tied
        ]
        candidates.sort()
        _, _, _, (i, j) = candidates[0]
        return (float(power[i, j]), float(t_axis[i]), float(g_axis[j]),
                float(a_star[i, j]))


def optimize_ft(workload: Workload, tech: QubitTechnology,
                scenario: ElectronicsScenario, cable: CableModel = CableModel(),
                model: CryoEfficiencyModel = CARNOT, target: float = 2.0 / 3.0,
                options: GridOptions = GridOptions(),
                toggles: FtToggles = FtToggles()) -> OptimizationResult:
    """Minimize the full-stack power of a fault-tolerant computation.

    For each concatenation level in range, minimizes over (qubit
    temperature, generation temperature, total attenuation) under the
    success-metric constraint, then returns the best level.  Ties at
    equal power prefer less hardware: smaller k, then smaller
    attenuation, then warmer qubits.  Infeasibility is returned as a
    result (not raised) so parameter sweeps always complete.
    """
    if not (0 <= target < 1):
        raise ValueError("target metric must lie in [0, 1)")
    problem = _FtProblem(workload, tech, scenario, cable, model, toggles)
    # Lowest reachable error probability inside the box: coldest corner,
    # maximal attenuation, coldest generation stage.
    probe = evaluate_ft_point(
        workload, tech, scenario, cable, model, options.t_qb_bounds[0],
        options.t_gen_bounds[0], options.attenuation_bounds[1],
        max(options.k_min, 1), toggles)
    best = None  # (power, k, a, -t_qb, t_gen, spacing)
    for k in range(options.k_min, options.k_max + 1):
        sup = _metric_from_p(probe.p_err, k, workload.n_locations,
                             toggles.metric_form)
        if sup < target:
            continue
        found = problem.best_for_k(k, target, options)
        if found is None:
            continue
        t_qb, t_gen, a_star, power, spacing = found
        cand = (power, k, a_star, -t_qb, t_gen, spacing)
        if best is None:
            best = cand
        elif cand[0] < best[0] * (1 - RELATIVE_TIE):
            best = cand
        elif cand[0] <= best[0] * (1 + RELATIVE_TIE) and cand[1:5] < best[1:5]:
            best = cand
    if best is None:
        if probe.p_err >= qec.P_THRESHOLD:
            diag = (f"physical error floor {probe.p_err:.3g} is not below the "
                    f"threshold {qec.P_THRESHOLD:.3g}; no concatenation level helps")
        else:
            diag = (f"target metric {target} unreachable for k in "
                    f"[{options.k_min}, {options.k_max}]")
        return _infeasible(diag)
    power, k, a_star, neg_t_qb, t_gen, spacing = best
    ev = evaluate_ft_point(workload, tech, scenario, cable, model,
                           -neg_t_qb, t_gen, a_star, k, toggles)
    return OptimizationResult(
        control=ControlPoint(t_qb=-neg_t_qb, t_gen=t_gen, a_total=a_star, k=k),
        power_w=ev.power_w,
        metric_achieved=ev.metric,
        per_stage=ev.per_stage,
        per_qubit_power_w=ev.power_w / ev.physical_qubits,
        physical_qubits=ev.physical_qubits,
        feasible=True,
        grid_step_log10=spacing,
    )


# ---------------------------------------------------------------------------
# Diagnostics and user-level costs
# ---------------------------------------------------------------------------

def transition_size_estimate(tech: QubitTechnology, target: float, k: int,
                             p_thr: float = qec.P_THRESHOLD) -> float:
    """Largest circuit size N_L a given level can support at the noise
    floor: ``ln(1/target)/p_thr * (4 p_thr / (gamma tau_step))^(2^k)``.
    Level transitions in optimized sweeps track this estimate."""
    if not (0 < target < 1):
        raise ValueError("target metric must lie strictly between 0 and 1")
    base = 4.0 * p_thr / (tech.gamma * tech.tau_step)
    return math.log(1.0 / target) / p_thr * base ** (2**k)


def ft_duration_s(workload: Workload, tech: QubitTechnology, k: int,
                  steps_per_level: float = 3.0) -> float:
    """Wall time of the computation: each concatenation level stretches
    a logical step by the data-qubit span of the correction circuit."""
    return steps_per_level**k * workload.d_logical * tech.tau_step


def rsa_energy_summary(n: int, result: OptimizationResult, workload: Workload,
                       tech: QubitTechnology,
                       steps_per_level: float = 3.0) -> tuple[float, float, float]:
    """Duration (s), energy (J), and efficiency (bit/J) of a factoring
    run at the optimized operating point."""
    if not result.feasible:
        return math.inf, math.inf, 0.0
    t = ft_duration_s(workload, tech, result.control.k, steps_per_level)
    energy = result.power_w * t
    return t, energy, n / energy
