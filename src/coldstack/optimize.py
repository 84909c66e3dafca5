"""Constrained power-minimization engines.

Three problem classes share one search, :func:`_grid_refine`, batched
over independent problems: all compressions of a NISQ circuit in one
call, a gate or a fault-tolerant level as a batch of one.  Power rises
monotonically with the total attenuation while the metric improves
with it, so for any fixed temperatures the conditional optimum sits
exactly on the constraint boundary (or at the attenuation lower bound
when the constraint is already slack there).  Each problem class
therefore supplies a ``solve`` that takes one log-spaced axis per
temperature control and problem (the qubit stage, and for the
fault-tolerant problem also the generation stage), finds the boundary
attenuation on the grids they span, and returns the power there.
The metric falls monotonically with the qubit-line occupancy, so the
boundary is solved, not searched: the target is inverted once per
problem (and concatenation level) to the occupancy it allows, and the
attenuation that brings the chain's thermal leak down to it is the
root of a polynomial with nonnegative coefficients, in closed form for
one attenuator and a few Newton steps for a chain.  A solve sorts its
points by the metric at both attenuation bounds, which it evaluates in
one call on the two bounds stacked along a leading axis
(:func:`_boundary_attenuation`), and inverts only the points between
them.  The search takes the argmin and refines: each pass re-grids
every axis one old step either side of the incumbent at a finer
spacing.  The equality constraint is thereby met to round-off rather
than grid precision.

The reduction is an ordered argmin with a fixed tie-break (smaller
concatenation level, then smaller attenuation, then warmer qubits, then
cooler generation stage), and the same grid gives the same bits, so
results are deterministic.  A solve is elementwise: a point's power
and attenuation are the same bits in any grid or selection it is
solved in, as Newton (:func:`~coldstack.noise.chain_transmission`)
stops chain by chain.

The fault-tolerant model has one implementation, :class:`_FtProblem`.
On any temperature grid it gives the power of the whole machine as
per-stage, per-source terms (:meth:`_FtProblem.terms`, the one home of
each row's formula); the search sums their electrical powers, and
:func:`evaluate_ft_point` is the same kernel on a one-point grid that
makes them the StageRecords of the breakdown.  A solve prices the heat
multipliers and the always-on rows
(:func:`~coldstack.thermal.static_power_breakdown`) at the points it
solves and nowhere else; both are elementwise, so a point costs the
same bits in any grid.  What a level adds to them, its drive weight,
qubit count and classical cost, is computed once per problem and level
(:meth:`_FtProblem.level`), on the problem, so that nothing outlives
the search.  :func:`optimize_ft` first reads the least error
probability in the box (:meth:`_FtProblem.least_error_probability`) on
the one chain at its coldest corner, laid out alone with the bits of
node (0, 0) of the coarse grid, which skips the levels that cannot reach
the target without building the grid.  It searches the others in
ascending order and skips a level whose power floor, a closed-form
lower bound on its power anywhere in the box, lies above the best power
found so far; such a level could not have won, so the result is the
same as without the skip.  A problem is searched in the box of the
:class:`GridOptions` it is built with.  The fields of the coarse grid,
where every level's search starts, are cached (:func:`_coarse_grid`),
keyed on the temperature bounds, the points per decade, the stage
count and the qubit frequency, so the levels of one search and the
points of a sweep that share these compute them once, whatever their
cables: the lines' conduction law is the model's, and a cable's length
and line counts scale the conduction rows only where they are priced.
The heat multipliers mu of its stages that the coarse floor below
needs, and its conduction sum G, are cached too
(:func:`_coarse_multipliers`), keyed on the same and on the efficiency
model and t_ext.  The coarse axes themselves are cached per bounds and points per decade
(:func:`_log_axis`), read-only, and :func:`_grid_refine` hands them to
every problem of a batch as broadcast views.  On the grids it lays out
itself the search calls the unchecked kernels of the model's formulas
(such as :func:`~coldstack.noise._bose_einstein` and
:func:`~coldstack.qec._ft_metric`); the public functions check their
inputs and then call the same kernels.

Within a level, the coarse pass is pruned by branch and bound, best
first (:meth:`_FtProblem.coarse_pass`).  Each coarse point has a
closed-form lower bound on its power that needs no boundary solve
(:meth:`_FtProblem.coarse_floor`): the static rows, and the drive
priced with the least attenuation the occupancy budget allows.  The
static rows' sum is exact, in closed form: the conduction rows
telescope, ``sum_i mu_i net_i = (l/L) G`` with ``G = sum_j r_j (mu_j -
mu_{j+1})`` over the rises r_j of the conduction integral across the
spans, the lines per qubit l and the cable length L, and the other
rows each depend on one axis.  The ``_FIRST_BATCH`` points of least
bound are solved first, and the least power among them is an upper
bound U on the grid's least power.  A point whose bound exceeds ``U (1
+ RELATIVE_TIE)`` cannot enter the tie band of the least power; the
points left whose bound does not, if any, are solved in a second call.
As the solve is elementwise, the solved points have the bits the full
grid gives them, so the coarse pick is the pick of the full grid, to
the bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from . import qec
from .noise import (
    HBAR,
    K_B,
    QubitTechnology,
    _bose_einstein,
    _infidelity,
    _infidelity_occupancy,
    _pauli_error,
    _pauli_error_occupancy,
    bose_einstein,
    chain_occupancy,
    chain_transmission,
    pi_pulse_power,
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
    grid_conduction_rises,
    hardware_rows,
    stage_temperatures,
    static_power_breakdown,
    syndrome_power_per_qubit,
)
from .workloads import Workload, nisq_circuit, nisq_metric, nisq_power

#: Powers within this relative band count as ties for the tie-break.
RELATIVE_TIE = 1e-9

#: A fault-tolerant optimum meets its target metric to this much: the
#: round-off of the boundary solve, which the metric's steepness 2^k
#: amplifies at high concatenation levels, may take no more.
METRIC_TOL = 1e-12

#: Each refinement pass spaces an axis this many times finer.
REFINEMENT_FACTOR = 4


@dataclass(frozen=True)
class GridOptions:
    """Search-grid density, bounds, and refinement schedule."""

    temperature_points_per_decade: int = 40
    refinement_passes: int = 2
    k_min: int = 0
    k_max: int = 6
    t_qb_bounds: tuple = (1e-3, 4.0)
    t_gen_bounds: tuple = (4.0, 300.0)
    attenuation_bounds: tuple = (1.0, 1e12)

    def __post_init__(self) -> None:
        if self.temperature_points_per_decade < 1:
            raise ValueError("need at least 1 temperature point per decade")
        if self.refinement_passes < 0:
            raise ValueError("need refinement_passes >= 0")
        if self.k_min < 0 or self.k_max < self.k_min:
            raise ValueError("need 0 <= k_min <= k_max")
        for lo, hi in (self.t_qb_bounds, self.t_gen_bounds, self.attenuation_bounds):
            if not (0 < lo <= hi):
                raise ValueError("bounds must satisfy 0 < low <= high")
        if self.attenuation_bounds[0] < 1:
            raise ValueError("the attenuation lower bound must be at least 1")
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
    k_stages: int = 5
    t_ext: float = AMBIENT_K

    def __post_init__(self) -> None:
        if self.t_gate_multiplier < 0:
            raise ValueError("the gate-time multiplier must be nonnegative")
        if self.k_stages < 2:
            raise ValueError("need at least 2 stages")
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

@lru_cache(maxsize=8)
def _log_axis(lo: float, hi: float, per_decade: int) -> tuple[np.ndarray, float]:
    """Log-spaced axis with both endpoints and spacing <= 1/per_decade
    decades; returns (values, actual spacing in decades).  The values are
    cached, and read-only, as every search of a box starts from them."""
    if hi == lo:
        vals, spacing = np.array([lo], float), 0.0
    else:
        decades = math.log10(hi / lo)
        n = int(math.ceil(decades * per_decade)) + 1
        vals = np.logspace(math.log10(lo), math.log10(hi), n)
        vals[0], vals[-1] = lo, hi  # logspace endpoints carry rounding error
        spacing = decades / (n - 1)
    vals.flags.writeable = False
    return vals, spacing


def _refined_axis(centers: np.ndarray, spacing: float,
                  lo: float, hi: float) -> tuple[np.ndarray, float]:
    """Rows spanning one old step around each of ``centers`` at
    ``REFINEMENT_FACTOR``-times finer spacing, clipped to the bounds.
    Clipped values repeat, so the rows keep one length; a repeat ties
    exactly."""
    fine = spacing / REFINEMENT_FACTOR
    offsets = np.arange(-REFINEMENT_FACTOR, REFINEMENT_FACTOR + 1) * fine
    return np.minimum(np.maximum(centers[:, None] * 10.0**offsets, lo), hi), fine


def _boundary_attenuation(gap, lo: float, hi: float, invert):
    """Smallest attenuation in [lo, hi] meeting the target, elementwise
    over a grid.

    ``gap(log_a)`` returns (metric - target) on the grid at each log10
    attenuation of the tuple of Python floats ``log_a``, stacked along a
    new leading axis (:func:`_stacked`).  It is called once, on the
    bounds (hi, lo), which sorts the points: slack ones (the target met
    at ``lo``) get ``lo``, unreachable ones (missed even at ``hi``) NaN.
    On the active rest, given as a boolean mask, ``invert(active)``
    returns the attenuation at which the metric equals the target,
    solved directly; it is clipped to the bounds against round-off.
    """
    top, bottom = gap((math.log10(hi), math.log10(lo)))
    a = np.full(top.shape, np.nan)
    reachable = top >= 0.0
    slack = reachable & (bottom >= 0.0)
    a[slack] = lo
    active = reachable & ~slack
    if active.any():
        a[active] = np.minimum(np.maximum(invert(active), lo), hi)
    return a


def _stacked(values, ndim: int) -> np.ndarray:
    """``values`` along a new leading axis, against grids of ``ndim``
    dimensions."""
    return np.reshape(values, (-1,) + (1,) * ndim)


#: Tie-break direction per temperature axis: warmer qubits, then a
#: cooler generation stage.
_TIE_SIGNS = (-1.0, 1.0)


def _grid_refine(solve, axes, options: GridOptions, batch: int = 1):
    """Grid search with local refinement over log-spaced temperature
    axes, for ``batch`` independent problems at once.

    ``axes`` lists ``(name, (low, high))`` per temperature control, the
    qubit stage first.  ``solve(*grids)`` takes one (batch, n) array per
    axis, row b for problem b, and returns the power and the boundary
    attenuation, of shape (batch, n_1, n_2, ...), on the grids the rows
    span, with infinite power at infeasible points: where the target is
    out of reach (NaN attenuation) or the power is out of the float
    range.  Per problem, powers within ``RELATIVE_TIE`` of its minimum
    tie; ties go to the smaller attenuation, then by ``_TIE_SIGNS``,
    then to the first point.  Each of the ``options.refinement_passes``
    passes re-grids every axis one old step either side of each
    incumbent at ``REFINEMENT_FACTOR`` times finer spacing.
    Returns per problem (power, point, attenuation), or None if its
    first grid has no feasible point, and the spacing in decades by axis
    name.
    """
    grids, spacing = [], []
    for _, (lo, hi) in axes:
        grid, step = _log_axis(lo, hi, options.temperature_points_per_decade)
        grids.append(np.broadcast_to(grid, (batch, grid.size)))
        spacing.append(step)
    inner = tuple(range(1, len(axes) + 1))
    best_power, best_a = np.full(batch, np.inf), np.full(batch, np.nan)
    # a problem without a feasible point refines, unused, around the lower corner
    best_point = np.empty((batch, len(axes)))
    best_point[:] = [lo for _, (lo, _) in axes]
    for pass_index in range(options.refinement_passes + 1):
        power, a_star = solve(*grids)
        if pass_index == 0:
            alive = np.isfinite(power).any(axis=inner)
            live = np.count_nonzero(alive)
            if not live:
                break
        low = power.min(axis=inner, keepdims=True) * (1 + RELATIVE_TIE)
        # the tied points of the live problems as (problem, grid indices), in C
        # order, so by problem; each live problem ties at least at its least
        # power, so more points than live problems means several in some one
        pick = np.nonzero(power <= np.where(alive.reshape(low.shape), low, -np.inf))
        if pick[0].size > live:  # the tie-break picks one per problem
            keys = [sign * g[pick[0], i] for sign, g, i in zip(_TIE_SIGNS, grids, pick[1:])]
            order = np.lexsort((np.arange(pick[0].size), *keys[::-1], a_star[pick], pick[0]))
            rows = pick[0][order]
            first = order[np.concatenate(([True], rows[1:] != rows[:-1]))]  # one per problem
            pick = tuple(i[first] for i in pick)
        # the picks that improve on their problem's incumbent
        b, *at = pick = tuple(i[power[pick] < best_power[pick[0]]] for i in pick)
        best_power[b], best_a[b] = power[pick], a_star[pick]
        for d, (g, i) in enumerate(zip(grids, at)):
            best_point[b, d] = g[b, i]
        if pass_index < options.refinement_passes:
            for d, (_, (lo, hi)) in enumerate(axes):
                grids[d], spacing[d] = _refined_axis(best_point[:, d], spacing[d], lo, hi)
    found = [(float(p), tuple(map(float, x)), float(a)) if ok else None
             for ok, p, x, a in zip(alive, best_power, best_point, best_a)]
    return found, {name: step for (name, _), step in zip(axes, spacing)}


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
    """One attenuator at the qubit stage, for a batch of single gates or
    circuits along axis 0 of every grid.

    Problem b constrains :func:`~coldstack.workloads.nisq_metric` of the
    per-gate worst-case infidelity and ``weight[b]`` error-weighted
    gates: 1 for one gate, ``n_gates_weighted`` for a circuit.
    ``power_scale[b]`` multiplies its per-gate cryo power.
    """

    def __init__(self, tech: QubitTechnology, weight, power_scale, t_ext: float):
        self.tech = tech
        self.weight = np.reshape(weight, (-1, 1))  # columns against the grids
        self.power_scale = np.reshape(power_scale, (-1, 1))
        self.t_ext = t_ext
        self.p_pi = pi_pulse_power(tech, tech.tau_1qb)
        self.n_hot = bose_einstein(t_ext, tech.omega0)

    def metric(self, t_qb, a):
        n_cold = bose_einstein(t_qb, self.tech.omega0)
        return self._metric(n_cold, self.n_hot - n_cold, 1.0 / a)

    def _metric(self, n_cold, n_rise, transmission):
        """Metric behind one attenuator of power ``transmission``, on
        qubit-stage occupancies ``n_cold`` and rises ``n_rise`` to the
        ambient one.  A weighted infidelity beyond the float range
        overflows to a metric of 0, as the clamp gives it."""
        occ = chain_occupancy(n_cold, (n_rise,), transmission)
        with np.errstate(over="ignore"):
            return nisq_metric(self.weight, _infidelity(self.tech, occ))

    def power(self, t_qb, a):
        return CARNOT._heat_multiplier(t_qb, self.t_ext) * a * self.p_pi * self.power_scale

    def solve(self, target: float, options: GridOptions, t_axis: np.ndarray):
        """Power and boundary attenuation on the qubit-temperature rows ``t_axis``.

        On the boundary the occupancy is ``n* = (1-M)/(weight*gamma*tau)
        - 1``, so ``A* = (n_hot - n_c)/(n* - n_c)``.
        """
        a_lo, a_hi = options.attenuation_bounds
        # the occupancies do not depend on the attenuation: once per grid
        n_cold = _bose_einstein(t_axis, self.tech.omega0)
        n_rise = self.n_hot - n_cold

        def gap(log_a):
            # Python's pow on each bound, which numpy's vector pow does not
            # match to the bit, and only then stacked
            transmission = _stacked([10.0 ** -x for x in log_a], n_cold.ndim)
            return self._metric(n_cold, n_rise, transmission) - target

        def invert(active):
            excess = (_infidelity_occupancy(self.tech, (1.0 - target) / self.weight)
                      - n_cold)[active]
            return 1.0 / chain_transmission(n_rise[None, active], excess,
                                            1.0 / a_hi, 1.0 / a_lo)

        a_star = _boundary_attenuation(gap, a_lo, a_hi, invert)
        with np.errstate(over="ignore"):  # a power out of the float range is out of reach
            power = self.power(t_axis, a_star)
        # NaN where the target is out of reach, and 0 where the power
        # underflowed, as every drive heats a stage colder than t_ext
        return np.where(power > 0.0, power, np.inf), a_star

    def infeasible(self, target: float, options: GridOptions, unreachable: str):
        """The result where no point is feasible: ``unreachable``, unless some
        problem meets ``target`` where its metric peaks, at the coldest qubit
        stage and the largest attenuation, and only its power is out of range."""
        if (self.metric(options.t_qb_bounds[0], options.attenuation_bounds[1]) >= target).any():
            unreachable = f"no point meets the target metric {target} at a power in the float range"
        return _infeasible(unreachable)


def optimize_single_qubit(tech: QubitTechnology, target: float,
                          options: GridOptions = GridOptions(),
                          t_ext: float = AMBIENT_K) -> OptimizationResult:
    """Minimize the cryo-power of one gate at fixed duration, subject to
    a worst-case gate-fidelity target, over (qubit temperature,
    attenuation) with a single attenuator at the qubit stage."""
    if not (0 <= target < 1):
        raise ValueError("target metric must lie in [0, 1)")
    if options.t_qb_bounds[1] >= t_ext:
        raise ValueError("the qubit stage must stay colder than t_ext")
    # the metric is clamped at 0, which meets a target of 0 at any floor
    floor = tech.gamma * tech.tau_1qb
    bound = max(0.0, 1.0 - floor)
    if target > bound:
        return _infeasible(
            f"target metric {target} exceeds the zero-noise bound "
            f"{bound:.9g} (infidelity floor gamma*tau_1qb = {floor:.3g})")
    problem = _AttenuatorProblem(tech, 1.0, 1.0, t_ext)
    (found,), spacing = _grid_refine(partial(problem.solve, target, options),
                                     [("t_qb", options.t_qb_bounds)], options)
    if found is None:
        return problem.infeasible(target, options, "no grid point satisfies the metric target")
    power, (t_star,), a_star = found
    heat = a_star * problem.p_pi
    record = StageRecord(t_star, heat, power, "attenuator")
    return OptimizationResult(
        control=ControlPoint(t_qb=t_star, a_total=a_star),
        power_w=power,
        metric_achieved=problem.metric(t_star, a_star).item(),
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
    to a circuit-fidelity target.  One batched search solves every
    compression; in ascending ``m``, a later one wins only below
    ``(1 - RELATIVE_TIE)`` times the best.  ``target`` is the metric
    floor; a run-success probability target of 2/3 maps to ``target =
    2/3``.  ``fixed_m`` restricts the search to one compression (used
    for cross-checks against the inner solver).

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
    if options.t_qb_bounds[1] >= t_ext:
        raise ValueError("the qubit stage must stay colder than t_ext")
    m_values = range(q - 2) if fixed_m is None else [fixed_m]
    circuits = [nisq_circuit(q, m) for m in m_values]
    weights, scales = zip(*((c.n_gates_weighted, nisq_power(c, 1.0)) for c in circuits))
    problem = _AttenuatorProblem(tech, weights, scales, t_ext)
    found, spacing = _grid_refine(partial(problem.solve, target, options),
                                  [("t_qb", options.t_qb_bounds)], options, len(circuits))
    best = None  # index of the best compression so far
    for row, cand in enumerate(found):
        if cand and (best is None or cand[0] < found[best][0] * (1 - RELATIVE_TIE)):
            best = row
    if best is None:
        return problem.infeasible(
            target, options, f"metric target {target} unreachable for any compression of "
            f"the {q}-qubit circuit (zero-noise floor too high)")
    power, (t_star,), a_star = found[best]
    heat = a_star * problem.p_pi * scales[best]
    record = StageRecord(t_star, heat, power, "attenuator")
    return OptimizationResult(
        control=ControlPoint(t_qb=t_star, a_total=a_star, m=circuits[best].m),
        power_w=power,
        metric_achieved=problem.metric(t_star, a_star)[best].item(),
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


#: The coarse pass of a level first solves this many points of least
#: floor, whose least power bounds the grid's from above.
_FIRST_BATCH = 384


def _at(fields: tuple, index: tuple) -> tuple:
    """The grid fields of :func:`_grid_fields` at the points ``index`` of
    the grid's two axes, which are the last axes of every array."""
    return tuple(x[(Ellipsis, *index)] for x in fields)


def _read_only(arrays: tuple) -> tuple:
    """``arrays``, made read-only, as the caches share them."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _grid_fields(t_qb: np.ndarray, t_gen: np.ndarray, k_stages: int,
                 omega0: float) -> tuple:
    """What the search needs on the grid of qubit temperatures ``t_qb``
    (axis 0) by generation temperatures ``t_gen`` (axis 1) that depends
    on neither the level nor the attenuation nor the hardware's costs:
    the K stage temperatures (along a new axis 0), the rises of the
    conduction integral across the spans
    (:func:`~coldstack.thermal.grid_conduction_rises`), the occupancy of
    the qubit stage and its rise into each next stage, and the mask of
    valid chains (qubit stage colder than the generation stage)."""
    stages = stage_temperatures(t_qb[:, None], t_gen[None, :], k_stages)
    # the conduction integral's temporaries are the largest: it runs before
    # the occupancies are held, which keeps the peak memory down
    rises = grid_conduction_rises(t_qb, t_gen, stages)
    occ = _bose_einstein(stages, omega0)
    return stages, rises, occ[0].copy(), occ[1:] - occ[:-1], t_qb[:, None] < t_gen[None, :]


@lru_cache(maxsize=1)
def _coarse_grid(t_qb_bounds: tuple, t_gen_bounds: tuple, per_decade: int,
                 k_stages: int, omega0: float) -> tuple:
    """The axes of the coarse grid every level's search starts from, and
    :func:`_grid_fields` on them, as read-only arrays.  They depend only
    on the arguments, which are the cache's key: the bounds, the points
    per decade, the stage count and the qubit frequency, and on no
    cable, as every cable has the module's conduction law."""
    axes = tuple(_log_axis(lo, hi, per_decade)[0] for lo, hi in (t_qb_bounds, t_gen_bounds))
    return _read_only(axes), _read_only(_grid_fields(*axes, k_stages, omega0))


@lru_cache(maxsize=2)
def _coarse_multipliers(grid_key: tuple, model: CryoEfficiencyModel, t_ext: float) -> tuple:
    """What the coarse floor needs of the heat multipliers mu of the
    stages of ``_coarse_grid(*grid_key)``: mu of the qubit stage (a
    column over t_qb), of the generation stage (a row over t_gen) and of
    the stage below it, and the conduction sum ``G = sum_j r_j (mu_j -
    mu_{j+1})`` over the rises r_j, as read-only arrays.  They add the
    efficiency model and t_ext to the key, and two entries let a run
    that alternates two efficiency models compute them once for each.

    With nonnegative conductivities every term of G is >= 0, along a
    chain of either direction, as the integral rises and mu falls with
    the temperature.
    """
    _, (stages, rises, *_) = _coarse_grid(*grid_key)
    mult = model._heat_multiplier(stages, t_ext)
    # the end stages are the axes themselves
    return _read_only((mult[0, :, :1].copy(), mult[-1, :1].copy(), mult[-2].copy(),
                       (rises * (mult[:-1] - mult[1:])).sum(axis=0)))


class _FtProblem:
    """The fault-tolerant model: metric and per-source power of the whole
    machine over grids of (T_qb, T_gen), and the boundary solve on them,
    in the search box of ``options``."""

    def __init__(self, workload, tech, scenario, cable, model, toggles, options):
        self.workload = workload
        self.tech = tech
        self.scenario = scenario
        self.cable = cable
        self.model = model
        self.toggles = toggles
        self.options = options
        drive_1qb = toggles.two_qubit_drive_duration == "tau_1qb"
        self.p_pi = pi_pulse_power(tech, tech.tau_1qb if drive_1qb else tech.tau_2qb)
        self.n_locations = workload.q_logical * workload.d_logical
        self._levels = {}  # level(k) by k
        #: the key of the coarse grid's tables
        self.grid_key = (tuple(map(float, options.t_qb_bounds)),
                         tuple(map(float, options.t_gen_bounds)),
                         options.temperature_points_per_decade, toggles.k_stages,
                         tech.omega0)

    def stage_fields(self, stages: np.ndarray, rises: np.ndarray):
        """The heat multipliers of the chains ``stages`` and the per-qubit
        always-on StageRecords on them, given the rises ``rises`` of the
        cable's conduction integral across their spans."""
        mult = self.model._heat_multiplier(stages, self.toggles.t_ext)
        net = conduction_heat_per_qubit(stages, self.cable, rises)
        return mult, static_power_breakdown(stages, self.scenario, self.cable, self.model,
                                            self.toggles.t_ext, net, mult)

    @cached_property
    def coarse_static(self) -> tuple:
        """mu of the qubit stage and of the stage below the top on the
        coarse grid (:func:`_coarse_multipliers`), and the always-on power
        per physical qubit there: the sum of the rows of
        :func:`~coldstack.thermal.static_power_breakdown`, in closed form.

        The conduction rows telescope to ``(l/L) G``; the others are
        :func:`~coldstack.thermal.hardware_rows` on the coarse axes.  The
        rows take each span as ``r_j / L * l``, which stays finite where
        l/L overflows, and whose quotient may round to a subnormal, off by
        up to ulp(0); so G is scaled by l/L capped at the float maximum,
        less ``l ulp(0) (1 + max mu_qb)``, as the spans' mu differences sum
        to at most mu_qb.
        """
        cable, t_ext, largest = self.cable, self.toggles.t_ext, sys.float_info.max
        (t_qb, t_gen), *_ = _coarse_grid(*self.grid_key)
        mu_qb, mu_gen, mu_below_top, conduction = _coarse_multipliers(self.grid_key, self.model,
                                                                      t_ext)
        rows = hardware_rows(t_qb[:, None], t_gen[None, :], mu_qb, mu_gen, self.scenario,
                             self.model, t_ext)
        lines = cable.lines_per_qubit
        slack = lines * math.ulp(0.0) * (1.0 + min(float(mu_qb.max()), largest))
        with np.errstate(over="ignore"):  # inf where the rows leave the float range
            static = (min(lines / cable.length_m, largest) * conduction
                      + sum((rec.electrical_power_w for rec in rows), -slack))
        return mu_qb, mu_below_top, static

    def level(self, k: int) -> tuple:
        """At level ``k``: the drive weight ``W_k Q_L`` (parallel 2qb-equivalents
        N_2qb + r N_1qb, the 1qb gates active a fraction r of each step),
        the physical qubits, and the demodulation-plus-syndrome cost per
        physical qubit, 0 unless it is included.  Computed once per level."""
        if k not in self._levels:
            tech, tog = self.tech, self.toggles
            n2, n1, _, _ = qec.physical_gate_counts_rectangular(1.0, k)
            weight = tog.t_gate_multiplier * (n2 + tech.tau_1qb / tech.tau_step * n1)
            classical = (demodulation_power_per_qubit(k, tech) + syndrome_power_per_qubit(tech)
                         if tog.include_demod_syndrome else 0.0)
            self._levels[k] = (weight * self.workload.q_logical,
                               qec.physical_qubits(self.workload.q_logical, k), classical)
        return self._levels[k]

    def error_probability(self, n_cold: np.ndarray, n_rise: np.ndarray):
        """Pauli error probability on chains of occupancies ``n_cold`` and
        rises ``n_rise`` as a function of the log10 total attenuation (a
        scalar, a grid, or values stacked along a leading axis by
        :func:`_stacked`).  A scalar's transmission is raised once, on a
        shape-(1,) array, which rounds as each element of a grid does, and
        so do stacked values."""
        inv_span = 1.0 / (self.toggles.k_stages - 1)

        def p_err(log_a):
            transmission = 10.0 ** (-np.atleast_1d(np.asarray(log_a, float)) * inv_span)
            return _pauli_error(self.tech, chain_occupancy(n_cold, n_rise, transmission))

        return p_err

    def least_error_probability(self) -> float:
        """The least Pauli error probability in the search box: at its
        coldest corner, (t_qb_lo, t_gen_lo), behind the largest
        attenuation.  The chain there is laid out alone, as node (0, 0) of
        the coarse grid is laid out, so it has that node's bits, and no
        grid is built to read them."""
        options = self.options
        stages = stage_temperatures(np.array([[options.t_qb_bounds[0]]], float),
                                    np.array([[options.t_gen_bounds[0]]], float),
                                    self.toggles.k_stages)
        occ = _bose_einstein(stages, self.tech.omega0)
        return self.error_probability(occ[0], occ[1:] - occ[:-1])(
            np.log10(options.attenuation_bounds[1])).item()

    def metric(self, p_err, k: int):
        """:func:`~coldstack.qec.ft_metric` of the error probabilities
        ``p_err``, which :func:`~coldstack.noise._pauli_error` clamps to
        [0, 1], so unchecked."""
        return qec._ft_metric(p_err, k, self.n_locations, self.toggles.metric_form == "linear")

    def occupancy_budget(self, target: float, k: int) -> float:
        """Qubit-line occupancy at which the metric at level ``k`` equals
        ``target`` in (0, 1): target -> p_L -> p_err -> occupancy."""
        p_err = qec.ft_error_budget(target, k, self.workload.q_logical,
                                    self.workload.d_logical,
                                    linear=self.toggles.metric_form == "linear")
        return _pauli_error_occupancy(self.tech, p_err)

    def terms(self, stages: np.ndarray, mult, static: list, a_total, k: int):
        """Heat and electrical power of the whole machine by stage and
        source at total attenuations ``a_total`` on the chains
        ``stages`` of heat multipliers ``mult``, given the always-on
        StageRecords ``static`` per physical qubit, as the fields of
        StageRecords: (stage temperature, heat, electrical power,
        source), whose electrical powers sum to the total.  A generator,
        so that summing over a large grid holds one term at a time."""
        tog = self.toggles
        weight, qubits, classical = self.level(k)
        fractions = attenuator_heat_fractions(a_total, tog.k_stages)
        for t, frac, mu in zip(stages, fractions, mult):
            heat = frac * self.p_pi * weight
            yield t, heat, mu * heat, "attenuator"
        for rec in static:
            yield (rec.stage_temperature_k, rec.heat_extracted_w * qubits,
                   rec.electrical_power_w * qubits, rec.source)
        if tog.include_demod_syndrome:
            q_cl = classical * qubits
            yield tog.t_ext, q_cl, q_cl, "electronics"

    def boundary(self, n_cold: np.ndarray, n_rise: np.ndarray, valid: np.ndarray,
                 k: int, target: float) -> np.ndarray:
        """Smallest total attenuation that meets the target on each chain
        of occupancies ``n_cold`` and rises ``n_rise``; NaN where even
        the upper bound fails or ``valid`` is False.

        On the boundary the qubit sees the occupancy budget ``n*`` of the
        level, so the leak ``sum_i d_i b^i`` of the rises ``d_i`` through
        i attenuators of transmission ``b = A^(-1/(K-1))`` equals
        ``n* - n_cold``; Newton's method solves it for ``b``.
        """
        lo, hi = self.options.attenuation_bounds
        span = self.toggles.k_stages - 1
        p_err = self.error_probability(n_cold, n_rise)

        def gap(log_a):
            metric = self.metric(p_err(_stacked(log_a, n_cold.ndim)), k)
            return np.where(valid, metric - target, -np.inf)

        def invert(active):
            excess = self.occupancy_budget(target, k) - n_cold[active]
            b = chain_transmission(n_rise[:, active], excess,
                                   hi ** (-1.0 / span), lo ** (-1.0 / span))
            return b ** -span

        return _boundary_attenuation(gap, lo, hi, invert)

    def solve(self, k: int, target: float, t_qb: np.ndarray, t_gen: np.ndarray):
        """Power and boundary attenuation on the (T_qb, T_gen) grid, as a
        batch of one for :func:`_grid_refine`: the axes come as rows of
        shape (1, n) and the results have shape (1, n_qb, n_gen).  A
        collapsed chain (qubit stage as warm as the generation stage) has
        no valid layout and is excluded.

        On the coarse grid only the points that can still be the grid's
        pick are solved (:meth:`coarse_pass`), with the bits a solve of
        the full grid gives them; the others get infinite power and NaN
        attenuation.  Any other grid is solved in full.
        """
        (t_qb,), (t_gen,) = t_qb, t_gen
        (qb_axis, gen_axis), fields = _coarse_grid(*self.grid_key)
        if not (np.array_equal(t_qb, qb_axis) and np.array_equal(t_gen, gen_axis)):
            power, a_star = self.solve_fields(k, target, _grid_fields(
                t_qb, t_gen, self.toggles.k_stages, self.tech.omega0))
        else:
            power, a_star = self.coarse_pass(k, target, fields)
        return power[None], a_star[None]

    def solve_fields(self, k: int, target: float, fields: tuple):
        """Power and boundary attenuation at the points of ``fields``
        (:func:`_grid_fields`, or a selection of them by :func:`_at`),
        with infinite power and NaN attenuation where the target is out of
        reach, or the power out of the float range: inf, or 0 where it
        underflowed, as the drive heats a stage colder than t_ext.  The
        heat multipliers and the static rows are priced here only, and
        the electrical powers of :meth:`terms` summed in its order."""
        stages, rises, n_cold, n_rise, valid = fields
        # the rows outlive the boundary solve's temporaries: allocated first;
        # rows out of the float range are inf or NaN, and so out of reach below
        with np.errstate(over="ignore", invalid="ignore"):
            mult, static = self.stage_fields(stages, rises)
        a_star = self.boundary(n_cold, n_rise, valid, k, target)
        finite = np.isfinite(a_star)
        a_safe = np.where(finite, a_star, self.options.attenuation_bounds[1])
        # the power of 91^k qubits may overflow, and an inf drive times a
        # stage that dissipates none of it is NaN: both out of reach
        with np.errstate(over="ignore", invalid="ignore"):
            power = sum(p for _, _, p, _ in self.terms(stages, mult, static, a_safe, k))
        finite &= (power > 0.0) & (power < np.inf)
        return np.where(finite, power, np.inf), np.where(finite, a_star, np.nan)

    def coarse_pass(self, k: int, target: float, fields: tuple):
        """Power and boundary attenuation at level ``k`` on the coarse grid
        of fields ``fields``, solved at the points that can be in the tie
        band of the grid's least power, best first, and infinite power and
        NaN attenuation elsewhere.

        The ``_FIRST_BATCH`` points of least :meth:`coarse_floor` are
        solved first; the least power among them, U, bounds the grid's
        least power from above.  A point whose floor exceeds ``U (1 +
        RELATIVE_TIE)``, with a margin of 1e-12 for the floor's round-off,
        lies above the band, and so does an infeasible one.  If the least
        floor left lies above it, the pass is done; otherwise the points
        left whose floor does not are solved too.
        """
        shape = fields[-1].shape
        floor = self.coarse_floor(k, target).ravel()
        power, a_star = np.full(floor.size, np.inf), np.full(floor.size, np.nan)

        def least_power(points: np.ndarray) -> float:
            """Solves the points of flat indices ``points``; their least power."""
            if not points.size:
                return math.inf
            solved = self.solve_fields(k, target, _at(fields, np.unravel_index(points, shape)))
            power[points], a_star[points] = solved
            return solved[0].min()

        if floor.size > _FIRST_BATCH:
            order = np.argpartition(floor, _FIRST_BATCH)
            first, next_floor = order[:_FIRST_BATCH], floor[order[_FIRST_BATCH]]
        else:
            first, next_floor = np.arange(floor.size), math.inf
        bound = least_power(first[floor[first] < np.inf]) * (1 + RELATIVE_TIE)
        if next_floor * (1 - 1e-12) <= bound:
            band = (floor < np.inf) & (floor * (1 - 1e-12) <= bound)
            band[first] = False
            least_power(np.flatnonzero(band))
        return power.reshape(shape), a_star.reshape(shape)

    def coarse_floor(self, k: int, target: float) -> np.ndarray:
        """A lower bound on the power at level ``k`` at each point of the
        coarse grid where the metric meets ``target``, and inf where no
        point does.

        The static rows cost their sum per qubit
        (:attr:`coarse_static`) times the qubit count.  The K-1
        attenuator fractions (stages 1..K-1) are >= 0 and sum to the
        total attenuation A, the first is ``A^(1/(K-1)) >= 1``, and mu
        falls along a valid chain, so the drive costs at least
        ``W_k P_pi (f_1 mu_1 + (A - f_1) mu_{K-1})`` with
        ``f_1 = A^(1/(K-1))``, which rises with A.  On the boundary
        the leak's top term ``n_rise_{K-1} / A`` is at most the excess
        ``n* - n_cold`` of the level's occupancy budget over the qubit
        stage's occupancy, so ``A >= n_rise_{K-1} / (n* - n_cold)``; a
        chain whose qubit stage alone exceeds the budget misses the
        target.  The budget is taken 1e-9 relative high against the
        round-off of its inversion.
        """
        _, (_, _, n_cold, n_rise, valid) = _coarse_grid(*self.grid_key)
        # priced (once per problem) before this call's own temporaries exist
        mu_first, mu_last, per_qubit = self.coarse_static
        tog = self.toggles
        a_low = self.options.attenuation_bounds[0]
        reachable = valid
        if target > 0:
            n_star = self.occupancy_budget(target, k)
            excess = n_star + 1e-9 * abs(n_star) - n_cold
            reachable = valid & (excess >= 0.0)
            a_low = np.maximum(a_low, np.divide(n_rise[-1], excess, out=np.zeros_like(excess),
                                                where=excess > 0.0))
        weight, qubits, classical = self.level(k)
        drive = a_low ** (1.0 / (tog.k_stages - 1)) * (mu_first - mu_last) + a_low * mu_last
        # inf where the floor leaves the float range; NaN where an inf drive
        # weight meets a drive that rounds to 0, on a chain that is not valid
        with np.errstate(over="ignore", invalid="ignore"):
            floor = qubits * (per_qubit + classical) + weight * self.p_pi * drive
        return np.where(reachable, floor, np.inf)

    def power_floor(self, k: int, target: float) -> float:
        """A lower bound on the power at level ``k`` anywhere in the
        search box where the metric meets ``target``.

        The heat multiplier mu falls with the temperature up to t_ext in
        both efficiency models, and every stage of a valid chain sits at
        or below t_gen <= t_gen_hi <= t_ext, the qubit stage also below
        t_top = min(t_qb_hi, t_gen_hi).  Where the target exceeds 0, a
        point that meets it leaves the qubit at most the level's budget
        ``n* = occupancy_budget(target, k)``: its stage's occupancy plus a
        leak >= 0.  The occupancy rises with the temperature, so the qubit
        stage sits at or below ``T* = hbar omega0 / (k_B log1p(1/n*))``,
        and t_top is capped at T* (at target 0 every point meets it; with
        n* <= 0 none does; a denominator that underflows to 0 caps
        nothing).  Each row of :func:`~coldstack.thermal.hardware_rows`
        is monotone in its one temperature, so it costs at least the
        lesser of its values at (t_top, t_gen_lo) and (t_top, t_gen_hi).
        The qubit-stage attenuator dissipates ``A^(1/(K-1)) >= 1`` times
        the drive power, which costs at least ``W_k P_pi mu(t_top)``.  The
        rest is nonnegative: the other attenuator rows (A >= 1), and the
        conduction rows, which sum to ``sum_i span_i (mu_i - mu_{i+1})``
        with spans and differences of mu both >= 0.  The inputs that break
        these premises are rejected where they enter, t_gen_hi by optimize_ft.
        """
        tog, model, options = self.toggles, self.model, self.options
        t_top = min(options.t_qb_bounds[1], options.t_gen_bounds[1])
        n_star = self.occupancy_budget(target, k) if target > 0 else 0.0
        if n_star > 0 and (rate := K_B * math.log1p(1.0 / n_star)) > 0:
            t_top = min(t_top, HBAR * self.tech.omega0 / rate)
        mu_top = model.heat_multiplier(t_top, tog.t_ext)
        lo, hi = (hardware_rows(t_top, t_gen, mu_top, model._heat_multiplier(t_gen, tog.t_ext),
                                self.scenario, model, tog.t_ext)
                  for t_gen in options.t_gen_bounds)
        # Python floats, whose products overflow to inf silently
        per_qubit = float(sum(min(a.electrical_power_w, b.electrical_power_w)
                              for a, b in zip(lo, hi)))
        weight, qubits, classical = self.level(k)
        return qubits * (per_qubit + classical) + weight * self.p_pi * mu_top


def evaluate_ft_point(workload: Workload, tech: QubitTechnology,
                      scenario: ElectronicsScenario, cable: CableModel,
                      model: CryoEfficiencyModel, t_qb: float, t_gen: float,
                      a_total: float, k: int,
                      toggles: FtToggles = FtToggles()) -> FtPointEvaluation:
    """Evaluate power, metric, and the per-stage breakdown at one point.

    This is the optimizer's kernel on a one-point grid, so the power is
    the one the search compared.  It is exactly the sum of the per-stage
    electrical powers, so breakdowns reconstruct the total without
    residue.
    """
    if not (0 < t_qb < t_gen <= toggles.t_ext):
        raise ValueError("need 0 < t_qb < t_gen <= t_ext")
    if a_total < 1:
        raise ValueError("total attenuation must be >= 1")
    problem = _FtProblem(workload, tech, scenario, cable, model, toggles, GridOptions())
    stages, rises, n_cold, n_rise, _ = _grid_fields(
        np.array([t_qb], float), np.array([t_gen], float), toggles.k_stages, tech.omega0)
    p_err = problem.error_probability(n_cold, n_rise)(np.log10(a_total))
    # rows priced as in the search; a heat may be inf where its power is not
    with np.errstate(over="ignore", invalid="ignore"):
        mult, static = problem.stage_fields(stages, rises)
        records = tuple(
            StageRecord(*(np.asarray(x).item() for x in (t, heat, power)), source)
            for t, heat, power, source in problem.terms(stages, mult, static,
                                                        np.array([[a_total]], float), k))
    return FtPointEvaluation(
        power_w=sum(rec.electrical_power_w for rec in records),
        metric=problem.metric(p_err, k).item(),
        per_stage=records,
        physical_qubits=qec.physical_qubits(workload.q_logical, k),
        p_err=p_err.item())


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

    Levels run in ascending k, and a later level replaces the incumbent
    only below ``(1 - RELATIVE_TIE)`` times its power, which gives a tie
    to the smaller k; within a level :func:`_grid_refine` breaks ties.
    So a level whose :meth:`_FtProblem.power_floor` exceeds ``(1 +
    RELATIVE_TIE)`` times the incumbent's power cannot win, and is not
    searched.  Each level is searched once.  The optimum meets the target
    to ``METRIC_TOL``: at high levels, where the metric's steepness
    amplifies the round-off of the boundary solve past it, the
    attenuation is raised until it does.
    """
    if not (0 <= target < 1):
        raise ValueError("target metric must lie in [0, 1)")
    if options.t_gen_bounds[1] > toggles.t_ext:
        raise ValueError("the generation stage may be no warmer than t_ext")
    problem = _FtProblem(workload, tech, scenario, cable, model, toggles, options)
    p_err_min = problem.least_error_probability()
    axes = [("t_qb", options.t_qb_bounds), ("t_gen", options.t_gen_bounds)]
    best = None  # (power, k, a, t_qb, t_gen, spacing)
    reachable = False  # whether the corner meets the target at some level
    for k in range(options.k_min, options.k_max + 1):
        if problem.metric(p_err_min, k) < target:
            continue
        reachable = True
        if best is not None and problem.power_floor(k, target) > best[0] * (1 + RELATIVE_TIE):
            continue
        (found,), spacing = _grid_refine(partial(problem.solve, k, target), axes, options)
        if found is None:
            continue
        power, (t_qb, t_gen), a_star = found
        if best is None or power < best[0] * (1 - RELATIVE_TIE):
            best = (power, k, a_star, t_qb, t_gen, spacing)
    if best is None:
        if reachable:  # a level's search found only powers out of the float range
            diag = (f"no point meets the target metric {target} at a power in the "
                    f"float range for k in [{options.k_min}, {options.k_max}]")
        elif p_err_min >= qec.P_THRESHOLD:
            diag = (f"physical error floor {p_err_min:.3g} is not below the "
                    f"threshold {qec.P_THRESHOLD:.3g}; no concatenation level helps")
        else:
            diag = (f"target metric {target} unreachable for k in "
                    f"[{options.k_min}, {options.k_max}]")
        return _infeasible(diag)
    power, k, a_star, t_qb, t_gen, spacing = best
    ev = evaluate_ft_point(workload, tech, scenario, cable, model,
                           t_qb, t_gen, a_star, k, toggles)
    # far up the levels the round-off of the boundary solve can miss the
    # target by more than METRIC_TOL: the attenuation then rises, in
    # doubling relative steps, until the point meets it
    step, a_hi = 2.0**-50, options.attenuation_bounds[1]
    while ev.metric < target - METRIC_TOL and a_star < a_hi:
        a_star, step = min(a_hi, a_star * (1.0 + step)), 2.0 * step
        ev = evaluate_ft_point(workload, tech, scenario, cable, model,
                               t_qb, t_gen, a_star, k, toggles)
    return OptimizationResult(
        control=ControlPoint(t_qb=t_qb, t_gen=t_gen, a_total=a_star, k=k),
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

def transition_size_estimate(tech: QubitTechnology, target: float, k: int) -> float:
    """Largest circuit size N_L a given level can support at the noise
    floor: ``ln(1/target)/p_thr * (4 p_thr / (gamma tau_step))^(2^k)``
    with the threshold p_thr of the code.  Level transitions in optimized
    sweeps track this estimate."""
    if not (0 < target < 1):
        raise ValueError("target metric must lie strictly between 0 and 1")
    p_thr = qec.P_THRESHOLD
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
    run at the optimized operating point.  An energy that underflows to
    0 J gives an efficiency beyond the float range: inf."""
    if not result.feasible:
        return math.inf, math.inf, 0.0
    t = ft_duration_s(workload, tech, result.control.k, steps_per_level)
    energy = result.power_w * t
    return t, energy, n / energy if energy > 0 else math.inf
