"""Constrained power-minimization engines.

Three problem classes share one search, :func:`_grid_refine`, which
searches one problem at a time: a gate, a compression of a NISQ
circuit or a fault-tolerant level; the compressions and the levels
that cannot win are skipped (see :func:`optimize_nisq` and
:func:`optimize_ft`).  Power rises monotonically with the total
attenuation while the metric improves with it, so for any fixed
temperatures the conditional optimum sits exactly on the constraint
boundary (or at the attenuation lower bound when the constraint is
already slack there).  Each problem class therefore supplies a
``solve`` that takes one 1-D log-spaced axis per temperature control
(the qubit stage, and for the fault-tolerant problem also the
generation stage), finds the boundary attenuation on the grid they
span, and returns the power there, in the grid's shape.
The metric falls monotonically with the qubit-line occupancy, so the
boundary is solved, not searched: the target is inverted once per
problem (and concatenation level) to the occupancy it allows, and the
attenuation that brings the chain's thermal leak down to it is the
root of a polynomial with nonnegative coefficients, in closed form for
one attenuator and a few Newton steps for a chain.  A solve sorts its
points by the metric at both attenuation bounds, which it evaluates in
one call on the two bounds stacked along a leading axis.  A chain's
solve inverts only the points between them, gathered by
:func:`_boundary_attenuation`; one attenuator's closed form, a quotient
and the Newton step that confirms it, is cheap enough to be evaluated
on the whole axis, and the sort only picks each point's answer
(:meth:`_AttenuatorProblem.solve`).  The search takes the argmin and
refines: each pass re-grids every axis one old step either side of the
incumbent at a finer spacing.  The equality constraint is thereby met
to round-off rather than grid precision.  On one axis, a gate's or a
compression's, the solve must be elementwise along it: each refined row
but the last is solved in one call with the rows the next pass can lay,
one around each of its nodes, so a search at the default two passes
makes two solve calls, not three.  Each optimizer answers with its
problem's ``evaluate`` at the point found, an
:class:`OptimizationResult` priced by the search's own kernels.

The reduction is an ordered argmin with a fixed tie-break: over a
discrete choice, the smaller concatenation level or compression
(:func:`_reduce`, the one home of that rule), then within a grid the
smaller attenuation, then warmer qubits, then cooler generation stage.
The same grid gives the same bits, so results are deterministic.  A
solve is elementwise: a point's power and attenuation are the same bits
in any grid or selection it is solved in, as Newton
(:func:`~coldstack.noise.chain_transmission`) stops chain by chain, and
one attenuator's inverse is arithmetic on each point.

The fault-tolerant model has one implementation, :class:`_FtProblem`.
On any temperature grid it gives the power of the whole machine as the
rows of its breakdown, priced as arrays: the attenuator rows in one
product, and the always-on rows from one elementwise kernel,
:func:`~coldstack.thermal.always_on_rows`, the one home of each such
row's formula, which the power floors read too.  The search adds the
rows' electrical powers in breakdown order, one row at a time, and
builds no record (:meth:`_FtProblem.solve_fields`);
:meth:`_FtProblem.evaluate` prices a one-point grid with the same
kernels and builds the records of the answer only, an
:class:`OptimizationResult`: :func:`optimize_ft` answers with it on the
problem that searched, and :func:`evaluate_ft_point` calls it.  A solve
prices the heat multipliers and the always-on rows at the points it
solves and nowhere else; both are elementwise, so a point costs the
same bits in any grid.  What a level adds to them, its drive weight,
qubit count and classical cost, is computed once per problem and level
(:meth:`_FtProblem.level`), on the problem, so that nothing outlives
the search.  :func:`optimize_ft` first reads the least error
probability in the box (:meth:`_FtProblem.least_error_probability`) on
the one chain at its coldest corner, laid out alone with the bits of
node (0, 0) of the coarse grid (and cached, :func:`_corner_occupancies`),
which skips the levels that cannot reach the target without building
the grid.  It searches the others best first, in ascending power
floor, a closed-form lower bound on a level's power anywhere in the
box, and skips a level whose floor lies far enough above the least
power found so far that it could not have won; so the result is the
same as without the skip (the margin is in :func:`_reduce`).  A
problem is searched in the box of the
:class:`GridOptions` it is built with.  The fields of the coarse grid,
where every level's search starts, are cached (:func:`_coarse_grid`),
keyed on the temperature bounds, the points per decade, the stage
count and the qubit frequency, so the levels of one search and the
points of a sweep that share these compute them once, whatever their
cables: the lines' conduction law is the model's, and a cable's length
and line counts scale the conduction rows only where they are priced.
The heat multipliers mu of its stages that the coarse floor below
needs, and its conduction sum G, are cached too
(:func:`_coarse_multipliers`), keyed on the same, the efficiency
model's kind and t_ext, and on no dataclass: the floor prices the
scenario, the cable and the parasitic qubit heat itself, so the points
of a sweep over these share the table.  The coarse axes themselves are
cached per bounds and points per decade (:func:`_log_axis`), read-only,
and :func:`_grid_refine` hands them to the first solve of every search
as they are.  The qubit-stage occupancies on the coarse qubit axis of a
gate or a circuit are cached with it (:func:`_axis_occupancies`): the
probe, the floors and the first solve of every compression read them.
On the grids it lays out itself the search calls the unchecked kernels
of the model's formulas (such as :func:`~coldstack.noise._bose_einstein`
and :func:`~coldstack.qec._ft_metric`); the public functions check their
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
Each call gathers its points by flat index (:func:`_take`).  As the
solve is elementwise, the solved points have the bits the full
grid gives them, so the coarse pick is the pick of the full grid, to
the bit.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import repeat

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
    check_range,
    pi_pulse_power,
)
from .thermal import (
    AMBIENT_K,
    CARNOT,
    STEEL_FIT_MAX_K,
    TEMPERATURE_RANGE_K,
    T_EXT_RANGE_K,
    CableModel,
    CryoEfficiencyModel,
    ElectronicsScenario,
    StageRecord,
    always_on_rows,
    attenuator_heat_fractions,
    conduction_heat_per_qubit,
    demodulation_power_per_qubit,
    grid_conduction_rises,
    on_grid_stages,
    stage_temperatures,
    static_power_breakdown,
    syndrome_power_per_qubit,
)
from .workloads import (
    NisqCircuit,
    Workload,
    _check_circuit,
    compression_costs,
    nisq_circuit,
    nisq_metric,
)

#: Powers within this relative band count as ties for the tie-break.
RELATIVE_TIE = 1e-9

#: A fault-tolerant optimum meets its target metric to this much: the
#: round-off of the boundary solve, which the metric's steepness 2^k
#: amplifies at high concatenation levels, may take no more.
METRIC_TOL = 1e-12

#: Each refinement pass spaces an axis this many times finer.
REFINEMENT_FACTOR = 4

#: The domain of the refinement passes.  Pass r lays a row's nodes at
#: ``10^(j s / 4^r)`` times its centre, |j| <= 4, s the coarse spacing, at
#: most 1 decade (1 point per decade).  From pass 29 on, |j s / 4^r| <=
#: 4^-28 decades, a factor within 3.2e-17 of 1, below 2^-54, half the float
#: spacing under 1.0: it rounds to 1.0 and every node to its centre, so the
#: pass solves the incumbent alone, which cannot improve on itself.  Pass 28
#: still moves nodes, by up to 1.3e-16 relative.
REFINEMENT_PASSES_RANGE = (0, 28)

#: The domain of a chain's total attenuation in dB, and of the physical steps
#: per logical step per level, whose 157th power (the highest level) is a float.
ATTENUATION_RANGE_DB = (0.0, 200.0)
STEPS_PER_LEVEL_RANGE = (1.0, 10.0)

#: The domains of the operating point: the qubit and generation stage
#: temperatures in K, the latter up to the top of the steel fit, and the
#: total attenuation in natural units.
_POINT_RANGES = {"t_qb": TEMPERATURE_RANGE_K,
                 "t_gen": (TEMPERATURE_RANGE_K[0], STEEL_FIT_MAX_K),
                 "a_total": tuple(10.0 ** (db / 10.0) for db in ATTENUATION_RANGE_DB)}


@dataclass(frozen=True)
class GridOptions:
    """Search-grid density, bounds in the model's domain, and refinement schedule."""

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
        check_range("refinement_passes", self.refinement_passes, REFINEMENT_PASSES_RANGE)
        qec._check_level(self.k_min, "k_min")
        qec._check_level(self.k_max, "k_max")
        if self.k_max < self.k_min:
            raise ValueError("need 0 <= k_min <= k_max")
        for name, bounds in zip(("t_qb_bounds", "t_gen_bounds", "attenuation_bounds"),
                                _POINT_RANGES.values()):
            lo, hi = getattr(self, name)
            check_range(f"{name}[0]", lo, (bounds[0], min(hi, bounds[1])))  # low <= high
            check_range(f"{name}[1]", hi, bounds)
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
        check_range("t_ext in K", self.t_ext, T_EXT_RANGE_K)


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


def _infeasible(diagnostic: str) -> OptimizationResult:
    return OptimizationResult(
        control=ControlPoint(), power_w=math.inf, metric_achieved=0.0, per_stage=(),
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


#: The nodes of a refined row, in fine steps from its centre.
_REFINED_STEPS = np.arange(-REFINEMENT_FACTOR, REFINEMENT_FACTOR + 1)


def _refined_axis(center: float, spacing: float,
                  lo: float, hi: float) -> tuple[np.ndarray, float]:
    """The row spanning one old step around ``center`` at
    ``REFINEMENT_FACTOR``-times finer spacing, clipped to the bounds.
    Clipped values repeat, so every row has one length; a repeat ties
    exactly."""
    fine = spacing / REFINEMENT_FACTOR
    return np.minimum(np.maximum(center * 10.0**(_REFINED_STEPS * fine), lo), hi), fine


def _boundary_attenuation(gap, lo: float, hi: float, invert):
    """Smallest attenuation in [lo, hi] meeting the target, elementwise
    over a grid.  Its one caller is the fault-tolerant chain's boundary,
    :meth:`_FtProblem.boundary`, whose Newton solve is worth saving on the
    points that need none.

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


def _grid_refine(solve, axes, options: GridOptions):
    """Grid search with local refinement over log-spaced temperature
    axes, for one problem.

    ``axes`` lists ``(name, (low, high))`` per temperature control, the
    qubit stage first.  ``solve(*grids)`` takes one 1-D array per axis
    and returns the power and the boundary attenuation on the grid they
    span, in its shape (n_1, n_2, ...), with infinite power at infeasible
    points: where the target is out of reach (NaN attenuation) or the
    power is out of the float range.  The first pass is handed the
    cached, read-only axes of :func:`_log_axis` themselves.  Powers
    within ``RELATIVE_TIE`` of a pass's minimum tie; ties go to the
    smaller attenuation, then by ``_TIE_SIGNS``, then to the first point
    in C order, and the pick replaces the incumbent only below its power.
    Each of the ``options.refinement_passes`` passes re-grids every axis
    one old step either side of the incumbent at ``REFINEMENT_FACTOR``
    times finer spacing.  Returns (power, point, attenuation) as Python
    floats, or None if the first grid has no feasible point, and the
    spacing in decades by axis name.

    On one axis the next centre is a node of the row just laid: the pick,
    or the incumbent, its centre.  So every refined row but the last is
    solved together with the rows the next pass can lay, one around each
    of its nodes (:func:`_solve_ahead`), and the next pass reads its row
    from that call: one solve per two passes.  ``solve`` must then be
    elementwise along the axis, as it is handed that 90-node look-ahead
    as one axis.  On a grid of two axes the look-ahead would solve 81
    grids of 81 points, and each pass is solved alone.
    """
    grids, spacing = [], []
    for _, (lo, hi) in axes:
        grid, step = _log_axis(lo, hi, options.temperature_points_per_decade)
        grids.append(grid)
        spacing.append(step)
    last, found, read = options.refinement_passes, None, None
    for pass_index in range(last + 1):
        ahead = None
        if read is not None:  # this pass's row, solved by the pass before
            (power, a_star), read = read, None
        elif len(axes) == 1 and 0 < pass_index < last:
            power, a_star, ahead = _solve_ahead(solve, grids[0], spacing[0], *axes[0][1])
        else:
            power, a_star = solve(*grids)
        shape, power, a_star = power.shape, power.ravel(), a_star.ravel()
        low = power.min()
        if pass_index == 0 and not low < np.inf:
            break
        pick = (power <= low * (1 + RELATIVE_TIE)).nonzero()[0]
        if pick.size > 1:  # the tie-break; lexsort is stable
            at = np.unravel_index(pick, shape)
            keys = [sign * g[i] for sign, g, i in zip(_TIE_SIGNS, grids, at)]
            pick = pick[np.lexsort((*keys[::-1], a_star[pick]))]
        node = REFINEMENT_FACTOR  # a refined row's centre: the incumbent
        if pick.size and (found is None or power[pick[0]] < found[0]):
            node = pick[0]
            at = np.unravel_index(node, shape)
            found = (power[node].item(), tuple(g[i].item() for g, i in zip(grids, at)),
                     a_star[node].item())
        if ahead is not None:
            rows, spacing[0], ahead_power, ahead_a = ahead
            grids[0], read = rows[node], (ahead_power[node], ahead_a[node])
        elif pass_index < last:
            for d, (_, (lo, hi)) in enumerate(axes):
                grids[d], spacing[d] = _refined_axis(found[1][d], spacing[d], lo, hi)
    return found, {name: step for (name, _), step in zip(axes, spacing)}


def _solve_ahead(solve, row: np.ndarray, spacing: float, lo: float, hi: float) -> tuple:
    """``solve`` on the refined ``row`` of ``spacing`` decades and, in the
    same call, on the row :func:`_refined_axis` lays around each of its
    nodes, as the flat axis of the row and then those rows: the power and
    the attenuation on ``row``, and the look-ahead (rows by node, their
    spacing, and their powers and attenuations).  A node's row has the
    bits the next pass would lay around it, and, as the solve is
    elementwise, its results the bits of a solve of that row alone."""
    rows, fine = _refined_axis(row[:, None], spacing, lo, hi)
    power, a_star = solve(np.concatenate((row, rows.ravel())))
    n = row.size
    return (power[:n], a_star[:n],
            (rows, fine, power[n:].reshape(rows.shape), a_star[n:].reshape(rows.shape)))


def _reduce(candidates, search, floor=None):
    """The reduction over a discrete design choice: ``(winner,
    search(winner))``, or None if no candidate's search finds a point.

    ``candidates`` come less hardware first; ``search(c)`` returns a
    tuple led by c's least power, or None.  In candidate order, a later
    candidate replaces the incumbent only below ``q = 1 - RELATIVE_TIE``
    times its power, which gives a tie to less hardware.  With ``floor``,
    a lower bound on each candidate's power, the n candidates are
    searched best first, in ascending floor, and one whose floor exceeds
    ``q^-n`` times the least power found so far is skipped: the
    reduction over the candidates searched is the reduction over all of
    them.  A margin of ``1 / q`` would not do, as ties chain: with powers
    ``m/q^2 - e``, ``m/q`` and ``m`` in candidate order, the last wins,
    but the middle one does if the first is skipped.  A skipped
    candidate j could change the run only by becoming the incumbent
    before the least-power candidate g; then each incumbent stays at or
    above ``q^t`` P_j after t more candidates, until one below them
    resets the run, which g does, as its power lies below ``q^n P_j``.
    Each candidate is searched once.
    """
    floors = [-math.inf if floor is None else floor(c) for c in candidates]
    margin = (1 - RELATIVE_TIE) ** -len(floors)
    found, least = {}, math.inf  # search(candidates[i]) by i
    for i in sorted(range(len(floors)), key=lambda i: (floors[i], i)):
        result = None if floors[i] > least * margin else search(candidates[i])
        if result is not None:
            found[i], least = result, min(least, result[0])
    best = None
    for i in sorted(found):
        if best is None or found[i][0] < found[best][0] * (1 - RELATIVE_TIE):
            best = i
    return None if best is None else (candidates[best], found[best])


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


@lru_cache(maxsize=1)
def _axis_occupancies(t_lo: float, t_hi: float, per_decade: int, omega0: float) -> tuple:
    """The coarse qubit-temperature axis of :func:`_log_axis` and the
    qubit-stage occupancy at each of its nodes, read-only.  The probe,
    the floors and the first solve of every search of a gate or a
    compression read it; the arguments are the cache's key."""
    axis, _ = _log_axis(t_lo, t_hi, per_decade)
    occupancy = _bose_einstein(axis, omega0)
    occupancy.flags.writeable = False
    return axis, occupancy


class _AttenuatorProblem:
    """One attenuator at the qubit stage, for a batch of single gates or
    circuits, one per row, against qubit-temperature axes along the last
    axis.

    Problem b constrains :func:`~coldstack.workloads.nisq_metric` of the
    per-gate worst-case infidelity and ``weight[b]`` error-weighted
    gates: 1 for one gate, ``n_gates_weighted`` for a circuit.
    ``power_scale[b]`` multiplies its per-gate cryo power.  The probe
    (:meth:`reachable`) and the floors (:meth:`power_floor`) take the
    batch; a search and the answer (:meth:`evaluate`) take one problem
    of it, :meth:`alone`.
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
        ambient one."""
        occ = chain_occupancy(n_cold, (n_rise,), transmission)
        return nisq_metric(self.weight, _infidelity(self.tech, occ))

    def power(self, t_qb, a):
        return CARNOT._heat_multiplier(t_qb, self.t_ext) * a * self.p_pi * self.power_scale

    def solve(self, target: float, options: GridOptions, t_axis: np.ndarray):
        """Power and boundary attenuation on the qubit temperatures
        ``t_axis``, in its shape: one axis, or one row per problem.
        Elementwise along the axis, so a node has the same bits on any axis
        it is solved on, as in the 90-node look-ahead of
        :func:`_grid_refine`.  On the coarse axis itself, as the first pass
        hands it, the occupancies are read from the cached table of
        :func:`_axis_occupancies`, which has the bits it would compute.

        The metric at both bounds, evaluated in one call on the two
        transmissions stacked along a leading axis, sorts the points: slack
        ones (the target met at ``a_lo``) get ``a_lo``, unreachable ones
        (missed even at ``a_hi``) NaN.  On the boundary the occupancy is
        ``n* = (1-M)/(weight*gamma*tau) - 1``, so the transmission ``t =
        1/A*`` is the root of the leak ``n_rise t = excess = n* - n_c``.
        It is solved on the whole axis with the arithmetic that
        :func:`~coldstack.noise.chain_transmission` performs for one rise,
        written out: its start, ``excess / n_rise`` below ``1/a_lo`` (or
        ``1/a_lo`` where the rise is not positive), is the root, and its one
        Newton step ``(t n_rise - excess) / (n_rise + t 0)``, not taken
        where the slope is not positive, moves it by an ulp or so.  Newton
        stops after that step, as it lies below its tolerance of a few ulps,
        so the step written out gives its bits.  Its rule that a step up
        from ``1/a_lo`` is not taken is left out, as the clip to the bounds
        takes such a step back to ``1/a_lo``.  The transmission is clipped
        to the bounds, and the attenuation, its inverse, again against
        round-off.  On the domain the power stays below 1e10 (mu) times
        1e20 (A) times 2e22 W."""
        a_lo, a_hi = options.attenuation_bounds
        # the occupancies do not depend on the attenuation: once per grid
        axis, n_cold = self.coarse_axis(options)
        if t_axis is not axis:
            n_cold = _bose_einstein(t_axis, self.tech.omega0)
        n_rise = self.n_hot - n_cold
        # Python's pow on each bound, which numpy's vector pow does not
        # match to the bit, and only then stacked
        transmission = _stacked([10.0 ** -math.log10(a) for a in (a_hi, a_lo)], n_cold.ndim)
        top, bottom = self._metric(n_cold, n_rise, transmission) - target
        excess = _infidelity_occupancy(self.tech, (1.0 - target) / self.weight) - n_cold
        t_max = 1.0 / a_lo
        t = np.minimum(t_max, np.divide(excess, n_rise, out=np.full(excess.shape, np.inf),
                                        where=n_rise > 0.0))
        slope = n_rise + t * 0.0
        step = np.divide(t * n_rise - excess, slope, out=np.zeros(t.shape), where=slope > 0.0)
        a = 1.0 / np.minimum(np.maximum(t - step, 1.0 / a_hi), t_max)
        a = np.minimum(np.maximum(a, a_lo), a_hi)
        a_star = np.where(top >= 0.0, np.where(bottom >= 0.0, a_lo, a), np.nan)
        return np.where(np.isnan(a_star), np.inf, self.power(t_axis, a_star)), a_star

    def alone(self, row: int) -> _AttenuatorProblem:
        """Problem ``row`` alone, whose :meth:`solve` on a 1-D axis gives 1-D
        results with the bits of its row of this batch's, as a solve is
        elementwise."""
        one = copy(self)
        one.weight, one.power_scale = self.weight[row], self.power_scale[row]
        return one

    def coarse_axis(self, options: GridOptions) -> tuple:
        """The coarse qubit-temperature axis of the box of ``options`` and
        its occupancies, the cached table of :func:`_axis_occupancies`."""
        return _axis_occupancies(*options.t_qb_bounds, options.temperature_points_per_decade,
                                 self.tech.omega0)

    def reachable(self, target: float, options: GridOptions) -> np.ndarray:
        """Whether each problem's search can meet ``target``: its metric at
        the coldest node of the coarse axis, ``t_qb_lo``, behind the
        largest attenuation, where the metric is highest, as the search's
        first grid reads it, with its bits: the occupancy of node 0 of the
        table the first solve reads (:meth:`coarse_axis`) and the
        transmission raised by Python's pow on the bound, as :meth:`solve`
        raises it."""
        n_cold = self.coarse_axis(options)[1][:1]
        transmission = 10.0 ** -math.log10(options.attenuation_bounds[1])
        return (self._metric(n_cold, self.n_hot - n_cold, transmission) - target >= 0.0).ravel()

    def power_floor(self, target: float, options: GridOptions) -> np.ndarray:
        """A lower bound, per problem, on any power its search in the box of
        ``options`` can return.

        Every point the search visits lies on the coarse t_qb axis ``t_0 <
        ... < t_{n-1}`` of :func:`_log_axis` or between its ends, as refined
        rows are clipped to the bounds.  On each span [t_i, t_{i+1}] the
        Carnot multiplier ``mu(T) = (t_ext - T)/T`` falls with T, and the
        boundary attenuation ``A* = n_rise / (n* - n_c)`` of :meth:`solve`
        rises with T where ``n_hot > n*``: the occupancy n_c rises, and
        where it reaches n*, A* is taken as inf, as the target is missed.
        Where ``n_hot <= n*``, ``A* <= 1 <= A_lo``.  The search's
        attenuation is A* clipped to the bounds, so every T in the span
        costs at least ``mu(t_{i+1}) clip(A*(t_i), A_lo, A_hi) P_pi s_b``;
        the floor is the least over the spans, or the node itself on a
        one-node axis, less 1e-12 relative for round-off.  At target 0 the
        clamped metric meets the target everywhere at A_lo, which the
        unclamped inverse n* does not give, so A* is taken as A_lo.  The
        occupancies n_c of the cold nodes are read from the table the first
        solve reads (:meth:`coarse_axis`).
        """
        nodes, occupancy = self.coarse_axis(options)
        n_cold, warm = (occupancy[:-1], nodes[1:]) if nodes.size > 1 else (occupancy, nodes)
        a_lo, a_hi = options.attenuation_bounds
        a_star = a_lo
        if target > 0:
            excess = _infidelity_occupancy(self.tech, (1.0 - target) / self.weight) - n_cold
            with np.errstate(over="ignore"):
                a_star = np.divide(self.n_hot - n_cold, excess,
                                   out=np.full(excess.shape, np.inf), where=excess > 0.0)
            a_star = np.minimum(np.maximum(a_star, a_lo), a_hi)
        least = np.min(CARNOT._heat_multiplier(warm, self.t_ext) * a_star, axis=-1)
        return least * self.p_pi * self.power_scale[:, 0] * (1 - 1e-12)

    def evaluate(self, row: int, t_qb: float, a: float, spacing: dict,
                 circuit: NisqCircuit | None = None) -> OptimizationResult:
        """The answer of problem ``row``, a gate or ``circuit``, at (t_qb, a)
        on a last grid of ``spacing`` decades, priced by the search's
        elementwise kernels :meth:`power` and :meth:`metric` on that
        problem alone (:meth:`alone`)."""
        gate, one = circuit is None, self.alone(row)
        qubits, power = 1 if gate else circuit.q, one.power(t_qb, a).item()
        heat = a * self.p_pi * one.power_scale.item()
        return OptimizationResult(
            control=ControlPoint(t_qb=t_qb, a_total=a, m=None if gate else circuit.m),
            power_w=power, metric_achieved=one.metric(t_qb, a).item(),
            per_stage=(StageRecord(t_qb, heat, power, "attenuator"),),
            per_qubit_power_w=power / qubits, physical_qubits=qubits, feasible=True,
            grid_step_log10=spacing, magnification=a * self.t_ext / t_qb if gate else None)


def optimize_single_qubit(tech: QubitTechnology, target: float,
                          options: GridOptions = GridOptions(),
                          t_ext: float = AMBIENT_K) -> OptimizationResult:
    """Minimize the cryo-power of one gate at fixed duration, subject to
    a worst-case gate-fidelity target, over (qubit temperature,
    attenuation) with a single attenuator at the qubit stage.  Its heat
    is priced at Carnot efficiency, a modelling choice: no efficiency
    model is taken."""
    if not (0 <= target < 1):
        raise ValueError("target metric must lie in [0, 1)")
    check_range("t_ext in K", t_ext, T_EXT_RANGE_K)
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
    found, spacing = _grid_refine(partial(problem.alone(0).solve, target, options),
                                  [("t_qb", options.t_qb_bounds)], options)
    if found is None:
        return _infeasible("no grid point satisfies the metric target")
    _, (t_star,), a_star = found
    return problem.evaluate(0, t_star, a_star, spacing)


def optimize_nisq(q: int, target: float, tech: QubitTechnology,
                  options: GridOptions = GridOptions(),
                  t_ext: float = AMBIENT_K,
                  fixed_m: int | None = None) -> OptimizationResult:
    """Minimize the average cryo-power of the compressible circuit on
    ``q`` qubits over (temperature, attenuation, compression), subject
    to a circuit-fidelity target.  ``target`` is the metric floor; a
    run-success probability target of 2/3 maps to ``target = 2/3``.
    ``fixed_m`` restricts the search to one compression (used for
    cross-checks against the inner solver).  As for a single gate, the
    qubit stage's heat is priced at Carnot efficiency.

    Every compression's gate weight and power scale are computed at once,
    as arrays (:func:`~coldstack.workloads.compression_costs`), and a
    circuit is built for the answer only.  A probe
    (:meth:`_AttenuatorProblem.reachable`) drops the compressions whose
    metric misses the target at the coldest qubit temperature behind the
    largest attenuation, as :func:`optimize_ft` drops unreachable levels.
    The answer is the reduction (:func:`_reduce`) over the others, in
    ascending ``m``, which gives a tie to the smaller one; it searches
    them best first, each alone (:meth:`_AttenuatorProblem.alone`), in
    ascending :meth:`_AttenuatorProblem.power_floor`, and skips those
    whose floor shows they cannot win.

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
    check_range("t_ext in K", t_ext, T_EXT_RANGE_K)
    if options.t_qb_bounds[1] >= t_ext:
        raise ValueError("the qubit stage must stay colder than t_ext")
    q, m = _check_circuit(q, 0 if fixed_m is None else fixed_m)
    m_values = range(q - 2) if fixed_m is None else [m]
    weights, scales = compression_costs(q, np.asarray(m_values))
    problem = _AttenuatorProblem(tech, weights, scales, t_ext)
    rows = np.flatnonzero(problem.reachable(target, options)).tolist()
    floors = problem.power_floor(target, options).tolist()

    def search(row: int):
        found, spacing = _grid_refine(partial(problem.alone(row).solve, target, options),
                                      [("t_qb", options.t_qb_bounds)], options)
        return None if found is None else (*found, spacing)

    best = _reduce(rows, search, floors.__getitem__)
    if best is None:
        return _infeasible(f"metric target {target} unreachable for any compression of "
                           f"the {q}-qubit circuit (zero-noise floor too high)")
    row, (_, (t_star,), a_star, spacing) = best
    return problem.evaluate(row, t_star, a_star, spacing, nisq_circuit(q, m_values[row]))


# ---------------------------------------------------------------------------
# Fault-tolerant computation
# ---------------------------------------------------------------------------

#: The coarse pass of a level first solves this many points of least
#: floor, whose least power bounds the grid's from above.
_FIRST_BATCH = 384


def _take(fields: tuple, points: np.ndarray) -> tuple:
    """The grid fields of :func:`_grid_fields` at the flat indices
    ``points`` of the grid's two axes, which are the last axes of every
    array: one gather per field, on its view with those axes flattened."""
    return tuple(np.take(x.reshape(*x.shape[:-2], -1), points, axis=-1) for x in fields)


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
    valid chains (qubit stage colder than the generation stage).  The
    integral and the occupancies are each taken once per distinct
    temperature (:func:`~coldstack.thermal.on_grid_stages`)."""
    stages = stage_temperatures(t_qb[:, None], t_gen[None, :], k_stages)
    # the conduction integral runs before the occupancies are held, which
    # keeps the peak memory down
    rises = grid_conduction_rises(t_qb, t_gen, stages)
    occ = on_grid_stages(partial(_bose_einstein, omega0=omega0), t_qb, t_gen, stages)
    return stages, rises, occ[0].copy(), occ[1:] - occ[:-1], t_qb[:, None] < t_gen[None, :]


def coarse_grid_key(tech: QubitTechnology, options: GridOptions, toggles: FtToggles) -> tuple:
    """The key of a fault-tolerant problem's coarse grid (:func:`_coarse_grid`):
    its temperature bounds, points per decade, stage count and frequency."""
    return (tuple(map(float, options.t_qb_bounds)), tuple(map(float, options.t_gen_bounds)),
            options.temperature_points_per_decade, toggles.k_stages, tech.omega0)


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
def _coarse_multipliers(grid_key: tuple, kind: str, t_ext: float) -> tuple:
    """What the coarse floor needs of the heat multipliers mu, floats below
    4e17 on the domain, on the stages of ``_coarse_grid(*grid_key)``, as
    read-only arrays: mu of the qubit stage (a column over t_qb) and of the
    generation stage (a row over t_gen), mu of the qubit stage less the
    least mu of the stages below the top, the latter, and the conduction
    sum ``G = sum_j r_j (mu_j - mu_{j+1})`` over the rises r_j, each term
    >= 0 as the integral rises and mu falls with the temperature.  mu
    depends on the efficiency model's ``kind`` alone, and is taken once
    per distinct temperature (:func:`~coldstack.thermal.on_grid_stages`);
    two entries serve a run that alternates two kinds."""
    (t_qb, t_gen), (stages, rises, *_) = _coarse_grid(*grid_key)
    mult = on_grid_stages(partial(CryoEfficiencyModel(kind)._heat_multiplier, t_ext=t_ext),
                          t_qb, t_gen, stages)
    # G first, its terms in place and freed before the other tables exist:
    # a run that alternates two kinds reaches its peak memory here
    terms = mult[:-1] - mult[1:]
    terms *= rises
    conduction = terms.sum(axis=0)
    del terms
    mu_qb, mu_least = mult[0, :, :1], mult[:-1].min(axis=0)  # the end stages are the axes
    return _read_only((mu_qb.copy(), mult[-1, :1].copy(), mu_qb - mu_least, mu_least,
                       conduction))


@lru_cache(maxsize=1)
def _corner_occupancies(t_qb: float, t_gen: float, k_stages: int, omega0: float) -> tuple:
    """The occupancy of the qubit stage, and its rise into each next
    stage, of the chain from ``t_qb`` to ``t_gen``, laid out alone, as
    :meth:`_FtProblem.evaluate` lays out a lone point: :func:`_grid_fields`
    on a 1x1 grid, as read-only arrays.  The arguments are the cache's key."""
    return _read_only(_grid_fields(np.array([t_qb], float), np.array([t_gen], float),
                                   k_stages, omega0)[2:4])


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
        self._solved = {}  # by k, the axes and fields of the last grid solved at level k
        self.grid_key = coarse_grid_key(tech, options, toggles)

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
        (t_qb_lo, _), (t_gen_lo, _), _, k_stages, omega0 = self.grid_key
        n_cold, n_rise = _corner_occupancies(t_qb_lo, t_gen_lo, k_stages, omega0)
        return self.error_probability(n_cold, n_rise)(
            np.log10(self.options.attenuation_bounds[1])).item()

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

    def attenuator_heats(self, a_total, k: int) -> np.ndarray:
        """The heat of each stage's attenuator at level ``k``, stacked by
        stage, at total attenuations ``a_total``: the drive of the whole
        machine, whose electrical power is ``mult * heat``."""
        weight = self.level(k)[0]
        return attenuator_heat_fractions(a_total, self.toggles.k_stages) * self.p_pi * weight

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
        """Power and boundary attenuation on the grid of the axes ``t_qb``
        and ``t_gen``, of shape (n_qb, n_gen), for :func:`_grid_refine`.
        A collapsed chain (qubit stage as warm as the generation stage)
        has no valid layout and is excluded.

        On the coarse grid only the points that can still be the grid's
        pick are solved (:meth:`coarse_pass`), with the bits a solve of
        the full grid gives them; the others get infinite power and NaN
        attenuation.  Any other grid is solved in full.  The axes and
        fields of the last grid taken at each level are kept, on the
        problem, for :meth:`evaluate`.
        """
        (qb_axis, gen_axis), fields = _coarse_grid(*self.grid_key)
        if not (np.array_equal(t_qb, qb_axis) and np.array_equal(t_gen, gen_axis)):
            fields = _grid_fields(t_qb, t_gen, self.toggles.k_stages, self.tech.omega0)
            power, a_star = self.solve_fields(k, target, fields)
        else:
            power, a_star = self.coarse_pass(k, target, fields)
        self._solved[k] = t_qb, t_gen, fields
        return power, a_star

    def solve_fields(self, k: int, target: float, fields: tuple):
        """Power and boundary attenuation at the points of ``fields``
        (:func:`_grid_fields`, or a selection of them by :func:`_take`),
        with infinite power and NaN attenuation where the target is out of
        reach, or the power is no positive float, as that of 91^k qubits
        may be.  The heat multipliers and the always-on rows
        (:func:`~coldstack.thermal.always_on_rows`) are priced here only,
        as arrays, and the electrical power of every row of the whole
        machine added in breakdown order, one row at a time: the
        attenuator rows, one product, then the always-on rows times the
        qubit count, then the demodulation row, if included."""
        stages, rises, n_cold, n_rise, valid = fields
        tog = self.toggles
        # the rows outlive the boundary solve's temporaries: allocated first
        mult = self.model._heat_multiplier(stages, tog.t_ext)
        rows, _ = always_on_rows(mult, conduction_heat_per_qubit(stages, self.cable, rises),
                                 stages[-1], self.scenario, self.model, tog.t_ext)
        a_star = self.boundary(n_cold, n_rise, valid, k, target)
        finite = np.isfinite(a_star)
        a_safe = np.where(finite, a_star, self.options.attenuation_bounds[1])
        _, qubits, classical = self.level(k)
        # the power of 91^k qubits may overflow, and an inf drive times a
        # stage that dissipates none of it is NaN: both out of reach
        with np.errstate(over="ignore", invalid="ignore"):
            drive = mult * self.attenuator_heats(a_safe, k)
            power = drive[0] + drive[1]
            for row in drive[2:]:
                power += row
            for row in rows:
                power += row * qubits
            if tog.include_demod_syndrome:
                power += classical * qubits
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
            solved = self.solve_fields(k, target, _take(fields, points))
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

        The static rows cost their closed-form sum per qubit times the
        qubit count.  Their conduction rows take each span as ``r_j / L *
        l``, whose quotient and product may each round to a subnormal, off
        by up to ulp(0)/2; so G is scaled by l/L less ``(1 + l) ulp(0) (1 +
        max mu_qb)``, as the spans' mu differences sum to at most mu_qb.  The
        K-1 attenuator fractions (stages 1..K-1) are >= 0 and sum to the
        total attenuation A, the first is ``A^(1/(K-1)) >= 1``, and each
        stage's mu is at least their least, mu_min (mu_{K-1}, as mu falls
        along a valid chain, but for the rounding of stages within ulps of
        each other), so the drive costs at least ``W_k P_pi (f_1 mu_1 + (A -
        f_1) mu_min)`` with ``f_1 = A^(1/(K-1))``, which rises with A.  On
        the boundary the leak's top term ``n_rise_{K-1} / A`` is at most
        the excess ``n* - n_cold`` of the level's occupancy budget over
        the qubit stage's occupancy, so ``A >= n_rise_{K-1} / (n* -
        n_cold)``; a chain whose qubit stage alone exceeds the budget
        misses the target.  The budget is taken 1e-9 relative high
        against the round-off of its inversion.
        """
        tog, cable = self.toggles, self.cable
        (_, t_gen), (_, _, n_cold, n_rise, valid) = _coarse_grid(*self.grid_key)
        # computed, on a miss, before this call's own temporaries exist
        mu_qb, mu_gen, mu_span, mu_least, conduction = _coarse_multipliers(
            self.grid_key, self.model.kind, tog.t_ext)
        a_low = self.options.attenuation_bounds[0]
        reachable = valid
        if target > 0:
            n_star = self.occupancy_budget(target, k)
            excess = n_star + 1e-9 * abs(n_star) - n_cold
            reachable = valid & (excess >= 0.0)
            # a quotient of 0 where the budget leaves no excess: n_rise / inf
            a_low = np.maximum(a_low, n_rise[-1] / np.where(excess > 0.0, excess, np.inf))
        weight, qubits, classical = self.level(k)
        slack = (1.0 + cable.lines_per_qubit) * math.ulp(0.0) * (1.0 + float(mu_qb.max()))
        # inf where the power of 91^k qubits overflows; NaN where such terms
        # meet, and so does the search there, which prices the point out of reach
        with np.errstate(over="ignore", invalid="ignore"):
            drive = a_low ** (1.0 / (tog.k_stages - 1)) * mu_span + a_low * mu_least
            rows, _ = always_on_rows((mu_qb, mu_gen), None, t_gen[None, :], self.scenario,
                                     self.model, tog.t_ext)
            per_qubit = cable.lines_per_qubit / cable.length_m * conduction + sum(rows, -slack)
            floor = qubits * (per_qubit + classical) + weight * self.p_pi * drive
        return np.where(reachable & (floor == floor), floor, np.inf)

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
        n* <= 0 none does).  On the domain a positive n* = 2 p / (gamma
        tau) - 0.5 lies in [1e-16, 1e28], and T* in [1e-6, 1e31] K.  Each
        hardware row of :func:`~coldstack.thermal.always_on_rows`
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
        if n_star > 0:
            t_top = min(t_top, HBAR * self.tech.omega0 / (K_B * math.log1p(1.0 / n_star)))
        mu_top = model._heat_multiplier(t_top, tog.t_ext)
        # Python floats, whose products overflow to inf silently; the qubit
        # stage's rows, at t_top, are the same at both t_gen bounds
        lo, hi = (always_on_rows((mu_top, model._heat_multiplier(t_gen, tog.t_ext)), None,
                                 t_gen, self.scenario, model, tog.t_ext)[0]
                  for t_gen in options.t_gen_bounds)
        per_qubit = float(sum(map(min, lo, hi)))
        weight, qubits, classical = self.level(k)
        return qubits * (per_qubit + classical) + weight * self.p_pi * mu_top

    def evaluate(self, t_qb: float, t_gen: float, a_total: float, k: int) -> OptimizationResult:
        """The answer at one point of level ``k``, with its metric and
        per-stage breakdown: the rows of :meth:`solve_fields` on a
        one-point grid of :func:`_grid_fields`, priced by the same kernels,
        so the power is the one the search compared, with StageRecords
        built for them.  It is exactly the sum of the per-stage electrical
        powers.

        A point of the last grid :meth:`solve` took at level ``k`` is
        sliced from that grid's fields, which are elementwise, so it has
        the bits of its own layout; any other point is laid out alone."""
        tog, fields = self.toggles, None
        if k in self._solved:
            qb_row, gen_row, grid = self._solved[k]
            i, j = np.flatnonzero(qb_row == t_qb), np.flatnonzero(gen_row == t_gen)
            if i.size and j.size:
                fields = tuple(x[..., i[0]:i[0] + 1, j[0]:j[0] + 1] for x in grid)
        if fields is None:
            fields = _grid_fields(np.array([t_qb], float), np.array([t_gen], float),
                                  tog.k_stages, self.tech.omega0)
        stages, rises, n_cold, n_rise, _ = fields
        p_err = self.error_probability(n_cold, n_rise)(np.log10(a_total))
        _, qubits, classical = self.level(k)
        # rows priced as in the search; a heat may be inf where its power is not
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mult = self.model._heat_multiplier(stages, tog.t_ext)
            heat = self.attenuator_heats(np.array([[a_total]], float), k)
            static = static_power_breakdown(
                stages, self.scenario, self.cable, self.model, tog.t_ext,
                conduction_heat_per_qubit(stages, self.cable, rises), mult)
            rows = [*zip(stages, heat, mult * heat, repeat("attenuator")),
                    *((rec.stage_temperature_k, rec.heat_extracted_w * qubits,
                       rec.electrical_power_w * qubits, rec.source) for rec in static)]
        if tog.include_demod_syndrome:  # at t_ext, its heat is its power
            rows.append((tog.t_ext, classical * qubits, classical * qubits, "electronics"))
        records = tuple(
            StageRecord(*(x.item() if isinstance(x, (np.ndarray, np.generic)) else x
                          for x in (t, q, p)), source)
            for t, q, p, source in rows)
        power = 0.0  # in breakdown order, as the search adds them, which sum() need not
        for rec in records:
            power += rec.electrical_power_w
        return OptimizationResult(
            control=ControlPoint(t_qb=t_qb, t_gen=t_gen, a_total=a_total, k=k),
            power_w=power, metric_achieved=self.metric(p_err, k).item(), per_stage=records,
            per_qubit_power_w=power / qubits, physical_qubits=qubits, feasible=True)


def evaluate_ft_point(workload: Workload, tech: QubitTechnology,
                      scenario: ElectronicsScenario, cable: CableModel,
                      model: CryoEfficiencyModel, t_qb: float, t_gen: float,
                      a_total: float, k: int,
                      toggles: FtToggles = FtToggles()) -> OptimizationResult:
    """The :class:`OptimizationResult` at one point: power, metric, and
    the per-stage breakdown.

    This is the optimizer's kernel on a one-point grid
    (:meth:`_FtProblem.evaluate`, which :func:`optimize_ft` prices its
    answer with), so the power is the one the search compared.  It is
    exactly the sum of the per-stage electrical powers, so breakdowns
    reconstruct the total without residue.  The point is priced whatever
    its metric, so ``feasible`` is True.  It lies in the domains of
    :class:`GridOptions`' bounds, its qubit stage colder than its
    generation stage and that no warmer than ``toggles.t_ext``, and its
    level ``k`` is an integer no higher than the workload's top level
    (:func:`~coldstack.qec._top_level`).
    """
    for name, value in (("t_qb", t_qb), ("t_gen", t_gen), ("a_total", a_total)):
        check_range(name, value, _POINT_RANGES[name])
    if not t_qb < t_gen <= toggles.t_ext:
        raise ValueError("need t_qb < t_gen <= t_ext")
    qec._check_level(k)
    top = qec._top_level(workload.q_logical)
    if k > top:
        raise ValueError(f"concatenation level {k} exceeds {top}, the highest at which "
                         "91^k * Q_L stays in the float range")
    problem = _FtProblem(workload, tech, scenario, cable, model, toggles, GridOptions())
    return problem.evaluate(t_qb, t_gen, a_total, k)


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
    result (not raised) so parameter sweeps always complete.  A level
    above the workload's top level (:func:`~coldstack.qec._top_level`),
    whose qubit count leaves the float range, is unreachable.

    The answer is the reduction (:func:`_reduce`) over the levels that
    the probe finds reachable, in ascending k, which gives a tie to the
    smaller k; it searches them best first, in ascending
    :meth:`_FtProblem.power_floor`, and skips those that cannot win.
    Within a level :func:`_grid_refine` breaks ties.  The optimum meets
    the target to ``METRIC_TOL``: at high levels, where the metric's
    steepness amplifies the round-off of the boundary solve past it, the
    attenuation is raised until it does.
    """
    if not (0 <= target < 1):
        raise ValueError("target metric must lie in [0, 1)")
    if options.t_gen_bounds[1] > toggles.t_ext:
        raise ValueError("the generation stage may be no warmer than t_ext")
    top = qec._top_level(workload.q_logical)
    if options.k_min > top:
        return _infeasible(f"no level in [{options.k_min}, {options.k_max}] keeps the "
                           f"physical qubit count 91^k * Q_L in the float range; the "
                           f"highest that does is {top}")
    problem = _FtProblem(workload, tech, scenario, cable, model, toggles, options)
    p_err_min = problem.least_error_probability()
    axes = [("t_qb", options.t_qb_bounds), ("t_gen", options.t_gen_bounds)]
    levels = [k for k in range(options.k_min, min(options.k_max, top) + 1)
              if problem.metric(p_err_min, k) >= target]

    def search(k: int):
        found, spacing = _grid_refine(partial(problem.solve, k, target), axes, options)
        return None if found is None else (*found, spacing)

    best = _reduce(levels, search, lambda k: problem.power_floor(k, target))
    if best is None:
        if levels:  # a level's search found only powers out of the float range
            diag = (f"no point meets the target metric {target} at a power in the "
                    f"float range for k in [{options.k_min}, {options.k_max}]")
        elif p_err_min >= qec.P_THRESHOLD:
            diag = (f"physical error floor {p_err_min:.3g} is not below the "
                    f"threshold {qec.P_THRESHOLD:.3g}; no concatenation level helps")
        else:
            diag = (f"target metric {target} unreachable for k in "
                    f"[{options.k_min}, {options.k_max}]")
        return _infeasible(diag)
    k, (_, (t_qb, t_gen), a_star, spacing) = best
    ev = problem.evaluate(t_qb, t_gen, a_star, k)
    # far up the levels the round-off of the boundary solve can miss the
    # target by more than METRIC_TOL: the attenuation then rises, in
    # doubling relative steps, until the point meets it
    step, a_hi = 2.0**-50, options.attenuation_bounds[1]
    while ev.metric_achieved < target - METRIC_TOL and a_star < a_hi:
        a_star, step = min(a_hi, a_star * (1.0 + step)), 2.0 * step
        ev = problem.evaluate(t_qb, t_gen, a_star, k)
    return replace(ev, grid_step_log10=spacing)


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
    qec._check_level(k)
    p_thr = qec.P_THRESHOLD
    base = 4.0 * p_thr / (tech.gamma * tech.tau_step)
    return math.log(1.0 / target) / p_thr * base ** (2**k)


def ft_duration_s(workload: Workload, tech: QubitTechnology, k: int,
                  steps_per_level: float = 3.0) -> float:
    """Wall time of the computation: each concatenation level stretches
    a logical step by the data-qubit span of the correction circuit,
    ``steps_per_level`` in ``STEPS_PER_LEVEL_RANGE``."""
    check_range("steps per logical level", steps_per_level, STEPS_PER_LEVEL_RANGE)
    qec._check_level(k)
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
