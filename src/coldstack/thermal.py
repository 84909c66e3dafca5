"""Thermodynamic model of the cryogenic stack.

Covers the stage layout of the attenuation chain, heat conducted by the
control/readout cables, the electrical cost of extracting heat at each
stage, and the heat the drive lines and the always-on hardware leave at
each stage.  The layout, conduction and per-stage power functions are
elementwise over a grid of chains, so the optimizer's search and the
per-point breakdown call the same code.  The always-on rows are priced
by one kernel, :func:`always_on_rows`, as arrays or floats: the
optimizer's search and its power floors read it directly, and
:func:`static_power_breakdown` builds its StageRecords from it, for an
answer only.  The lines' materials are module constants, so cable
conduction depends on the temperature alone; it has no adaptive
quadrature and no cache.  Its steel rule runs in place, in node order,
with no temporary per node product or per coefficient of the
conductivity fit.  On a grid of chains, a per-temperature field (the
conduction integral, and in the optimizer the occupancies and the heat
multipliers) is taken once per distinct temperature
(:func:`on_grid_stages`).

Conventions used throughout:

* Stage 1 is the qubit stage (coldest), stage K the signal-generation
  stage at ``t_gen``.  Attenuators sit on stages 1..K-1.  Arrays hold
  the stages along axis 0; further axes are independent chains.
* ``heat_multiplier(T)`` is the electrical power needed to extract one
  watt of heat at temperature T.  Electronics and amplifiers cost their
  supply power *plus* the extraction of the heat they dissipate, hence
  the factor ``1 + heat_multiplier``.
* Heat conducted down a cable into stage i is extracted there; the heat
  it removes from the stage above is credited to that stage.  Summing
  the net extractions over the stages below the top one recovers the
  heat injected from the top span exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import QubitTechnology, check_range
from . import qec

AMBIENT_K = 300.0

#: The domain: stage and ambient temperatures, the top of the steel fit, cable
#: lengths, lines of each kind per qubit, and heat loads per qubit.
TEMPERATURE_RANGE_K = (1e-6, 1e4)
STEEL_FIT_MAX_K = 300.0
CABLE_LENGTH_RANGE_M = (1e-3, 1e3)
LINES_PER_QUBIT_RANGE = (0.0, 100.0)
HEAT_LOAD_RANGE_W = (0.0, 1.0)

#: Stainless-steel conductivity fit, log10(lambda) = sum a_i * log10(T)^i,
#: valid from 10 K to 300 K.
STEEL_FIT = (-1.4087, 1.3982, 0.2543, -0.6260, 0.2334, 0.4256, -0.4658, 0.1650, -0.0199)
#: Kapton conductivity lambda = c * T^p as (c, p), below 4 K and for 4..10 K.
KAPTON_LOW = (4.6, 0.56)
KAPTON_MID = (3.0, 0.98)
#: Cross-sections of a line: steel coax above 10 K, kapton microstrip below.
AREA_ABOVE_10K_M2 = 2.7e-7
AREA_BELOW_10K_M2 = 1.3e-9

#: K^2 prefactor of the small-scale cryostat's heat multiplier.
SMALL_SCALE_PREFACTOR = 3.24e5

#: Temperatures of the stages that host the parametric and the HEMT
#: readout amplifiers.
PARAMP_K = 4.0
HEMT_K = 70.0
#: The domain of the ambient temperature: no colder than the stage of the
#: parametric amplifiers, which the stack cools.
T_EXT_RANGE_K = (PARAMP_K, TEMPERATURE_RANGE_K[1])

# Demodulation / syndrome-decoding side-calculation constants.
DEMOD_SAMPLES = 100          # digitized points per readout
FLOAT_OP_ENERGY_J = 0.85e-12  # energy per floating-point operation


@dataclass(frozen=True)
class CableModel:
    """Length and count of the control/readout lines.

    Each line is coaxial cable (stainless steel) above 10 K and
    superconducting microstrip with kapton dielectric below, of the
    module's cross-sections and conductivity laws.  The kapton law is a
    two-piece power law with a small discontinuity at 4 K.
    """

    length_m: float = 1.0
    control_lines_per_qubit: float = 1.0 / 25.0
    readout_lines_per_qubit: float = 1.0 / 100.0

    def __post_init__(self) -> None:
        check_range("cable length", self.length_m, CABLE_LENGTH_RANGE_M)
        for line in ("control", "readout"):
            check_range(f"{line} lines per qubit", getattr(self, f"{line}_lines_per_qubit"),
                        LINES_PER_QUBIT_RANGE)

    @property
    def lines_per_qubit(self) -> float:
        return self.control_lines_per_qubit + self.readout_lines_per_qubit


def steel_conductivity(temperature):
    """Stainless-steel thermal conductivity (W/m/K), T > 10 K fit.

    Horner's rule from z = 0, each step ``z = z * lt + a`` taken in place
    on an array, so the fit makes no temporaries per coefficient; the
    first step's ``0.0 * lt`` is kept, as it makes the value NaN where
    log10 T is infinite (T = 0 or inf)."""
    lt = np.log10(temperature)
    z = 0.0 * lt
    for a in reversed(STEEL_FIT[1:]):
        z += a
        z *= lt
    z += STEEL_FIT[0]
    if isinstance(z, np.ndarray):
        return np.power(10.0, z, out=z)
    return 10.0**z


@dataclass(frozen=True)
class ElectronicsScenario:
    """Per-physical-qubit heat dissipated by the control electronics.

    ``q_gen`` applies at the signal-generation stage, ``q_para`` at the
    4 K parametric amplifiers, ``q_hemt`` at the 70 K HEMT amplifiers
    (only relevant when the generation stage sits above 70 K).
    """

    name: str
    q_gen: float
    q_para: float
    q_hemt: float

    def __post_init__(self) -> None:
        for name in ("q_gen", "q_para", "q_hemt"):
            check_range(f"scenario heat load {name}", getattr(self, name), HEAT_LOAD_RANGE_W)

    @classmethod
    def preset(cls, name: str) -> "ElectronicsScenario":
        try:
            return SCENARIO_PRESETS[name.upper()]
        except KeyError:
            raise ValueError(f"unknown scenario {name!r}; expected one of A, B, C")


SCENARIO_PRESETS = {
    "A": ElectronicsScenario("A", 1e-3, 1e-6, 5e-5),
    "B": ElectronicsScenario("B", 1e-5, 1e-8, 0.0),
    "C": ElectronicsScenario("C", 1e-7, 1e-10, 0.0),
}


@dataclass(frozen=True)
class CryoEfficiencyModel:
    """Electrical cost of refrigeration.

    ``carnot`` is the thermodynamic ideal; ``small_scale`` is a fit to
    laboratory cryostat performance that additionally carries a fixed
    parasitic heat load per physical qubit at the qubit stage.
    """

    kind: str = "carnot"
    extra_qubit_heat_w: float = 5e-8

    def __post_init__(self) -> None:
        if self.kind not in ("carnot", "small_scale"):
            raise ValueError("efficiency model must be 'carnot' or 'small_scale'")
        check_range("the parasitic qubit-stage heat", self.extra_qubit_heat_w, HEAT_LOAD_RANGE_W)

    def heat_multiplier(self, t_stage, t_ext: float = AMBIENT_K):
        """Electrical watts per watt of heat extracted at ``t_stage``."""
        t = np.asarray(t_stage, dtype=float)
        if (t <= 0).any():
            raise ValueError("stage temperature must be positive")
        out = self._heat_multiplier(t, t_ext)
        if np.ndim(out) == 0:
            return float(out)
        return out

    def _heat_multiplier(self, t: np.ndarray, t_ext: float):
        """:meth:`heat_multiplier` without the input check, for the
        optimizer, which calls it on arrays of stage temperatures it laid
        out itself."""
        if self.kind == "carnot":
            return (t_ext - t) / t
        # t * t, which numpy's t**2 on an array is, so a float and an array
        # of it get the same bits
        return SMALL_SCALE_PREFACTOR * (1.0 - t / t_ext) / (t * t)


CARNOT = CryoEfficiencyModel("carnot")


def stage_temperatures(t_qb, t_gen, k_stages: int = 5) -> np.ndarray:
    """Standard chain layout: K stage temperatures, cold to hot along a
    new axis 0, geometrically spaced from ``t_qb`` to ``t_gen``.

    Elementwise over the broadcast shape of ``t_qb`` and ``t_gen``; the
    ends are exactly ``t_qb`` and ``t_gen``.  Checking that the stages
    rise and stay below ambient is left to the callers, because the
    optimizer's grid also spans collapsed chains that it masks out.
    """
    t_qb = np.asarray(t_qb, dtype=float)
    t_gen = np.asarray(t_gen, dtype=float)
    ndim = np.broadcast(t_qb, t_gen).ndim
    frac = (np.arange(k_stages) / (k_stages - 1)).reshape((-1,) + (1,) * ndim)
    return t_qb ** (1 - frac) * t_gen**frac


# ---------------------------------------------------------------------------
# Cable heat conduction
# ---------------------------------------------------------------------------

#: The 16-point Gauss-Legendre rule of the steel part of the conduction
#: integral on [-1, 1], as columns: ``numpy.polynomial.legendre.leggauss(16)``
#: to the bit, written out so that importing this module does not import
#: ``numpy.polynomial``.
_STEEL_X = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])[:, None]
_STEEL_W = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])[:, None]
#: Hot temperatures per pass of the steel rule, whose temporaries hold 16
#: nodes of each.  On the cold default coarse grid (5,557 hot temperatures;
#: x86-64 with AVX-512, numpy 2.4, medians of 12 fresh processes) 1024 is
#: as fast as any block from 512 to 2048, and 4096 or a single pass is
#: 15-20 % slower; it takes the fewest page faults (608 against 788 at
#: 2048) and the least peak of allocated memory (1.97 MB against 2.12 MB).
_HOT_BLOCK = 1024


def _conduction_integral(temperature):
    """Integral of area(T)*lambda(T) from 0 to ``temperature``, in W*m/m,
    elementwise on a scalar or an array.

    The kapton segments (below 4 K and 4..10 K) are pure power laws and
    integrate in closed form.  The steel segment above 10 K is a fixed
    Gauss-Legendre rule in u = log10 T on [1, log10 T], where the
    integrand ``lambda(10^u) * 10^u * ln 10`` is smooth; it matches
    adaptive quadrature to about 3e-14 relative.  Each array pass takes all
    nodes of up to ``_HOT_BLOCK`` temperatures, its products in place,
    summed in node order.
    Differences of this cumulative integral make interval additivity exact.
    """
    # shape (1,) for a scalar, so it takes the same arithmetic as an array,
    # and C order, so that every array below is too and reshapes to a view
    t = np.ascontiguousarray(temperature, dtype=float)
    c_lo, p_lo = KAPTON_LOW
    c_mid, p_mid = KAPTON_MID
    out = AREA_BELOW_10K_M2 * c_lo * np.clip(t, 0.0, 4.0) ** (p_lo + 1) / (p_lo + 1)
    out = out + AREA_BELOW_10K_M2 * c_mid * (
        np.minimum(np.maximum(t, 4.0), 10.0) ** (p_mid + 1) - 4.0 ** (p_mid + 1)) / (p_mid + 1)
    flat, t = out.reshape(-1), t.reshape(-1)
    hot = np.flatnonzero(t > 10.0)
    for start in range(0, hot.size, _HOT_BLOCK):
        at = hot[start:start + _HOT_BLOCK]
        half = 0.5 * (np.log10(t[at]) - 1.0)
        # 10^(1 + half (x + 1)) at the nodes x, and the terms w lambda(T) T,
        # each product taken in place: the same operations in the same order
        t_node = half * (_STEEL_X + 1.0)
        t_node += 1.0
        np.power(10.0, t_node, out=t_node)
        terms = steel_conductivity(t_node)
        terms *= _STEEL_W
        terms *= t_node
        # the nodes added in order, one row at a time: np.add.reduce pairs
        # them on some block shapes, and np.add.accumulate loops once per
        # temperature, which costs ten times as much on a full block
        steel = terms[0] + terms[1]
        for row in terms[2:]:
            steel += row
        flat[at] += AREA_ABOVE_10K_M2 * np.log(10.0) * half * steel
    return float(out[0]) if np.ndim(temperature) == 0 else out


def cable_heat_flow(t_low: float, t_high: float, cable: CableModel) -> float:
    """Heat conducted by one cable from ``t_high`` down to ``t_low`` (W)."""
    if not (0 <= t_low <= t_high <= STEEL_FIT_MAX_K):
        raise ValueError(f"need 0 <= t_low <= t_high <= {STEEL_FIT_MAX_K:g} K")
    return (_conduction_integral(t_high) - _conduction_integral(t_low)) / cable.length_m


# ---------------------------------------------------------------------------
# Per-stage heat and power
# ---------------------------------------------------------------------------

def attenuator_heat_fractions(a_total, k_stages: int = 5) -> np.ndarray:
    """Fraction of the drive power arriving at the qubit that each stage
    dissipates, stages along a new axis 0, elementwise over ``a_total``.

    The K-1 attenuators are equal, so the cumulative attenuation between
    stage i and the qubit is ``cum_i = a_total^(i/(K-1))``.  Stage i
    (i = 1..K-1) dissipates ``cum_i - cum_{i-1}`` times the power
    arriving at the qubit; the final signal itself is absorbed at stage 1
    (the i=0 cumulative attenuation counts as 0).  The top stage hosts
    no attenuator.  The fractions sum to ``a_total``.  Each exponent is a
    scalar, so a selection of a grid rounds as the grid does.
    """
    a = np.asarray(a_total, dtype=float)
    fractions = np.empty((k_stages,) + a.shape)
    fractions[0] = below = a ** (1 / (k_stages - 1))
    for i in range(2, k_stages):
        cum = a ** (i / (k_stages - 1))
        fractions[i - 1] = cum - below
        below = cum
    fractions[-1] = 0.0
    return fractions


@dataclass(frozen=True)
class StageRecord:
    """One row of the per-stage power breakdown.

    On a grid of chains each field holds the row's values over the grid;
    fields that do not vary stay scalars.
    """

    stage_temperature_k: float
    heat_extracted_w: float
    electrical_power_w: float
    source: str  # attenuator | conduction | amplifier | electronics | extra


def conduction_rises(temperatures) -> np.ndarray:
    """Rise of the conduction integral across each span between the
    stages along axis 0 of ``temperatures``: the heat one line of unit
    length conducts down it, the same for every cable."""
    w = _conduction_integral(temperatures)
    return w[1:] - w[:-1]


def on_grid_stages(kernel, t_qb, t_gen, stages) -> np.ndarray:
    """``kernel(stages)`` for an elementwise per-temperature ``kernel``, on
    the chains ``stages`` that :func:`stage_temperatures` lays out on the
    grid of the axes ``t_qb`` (axis 0) by ``t_gen`` (axis 1), with the
    kernel taken once per distinct temperature: the end stages are the
    axes themselves, so it runs once per axis node, not once per grid
    point, in one pass with the inner stages.  The kernel is elementwise,
    so the values are the same to the bit."""
    n_qb, n_gen = len(t_qb), len(t_gen)
    flat = kernel(np.concatenate((t_qb, t_gen, stages[1:-1].ravel())))
    out = np.empty(stages.shape)
    out[0] = flat[:n_qb, None]
    out[-1] = flat[n_qb:n_qb + n_gen]
    out[1:-1] = flat[n_qb + n_gen:].reshape(stages[1:-1].shape)
    return out


def grid_conduction_rises(t_qb, t_gen, stages) -> np.ndarray:
    """:func:`conduction_rises` of the chains ``stages`` that
    :func:`stage_temperatures` lays out on the grid of the axes ``t_qb``
    (axis 0) by ``t_gen`` (axis 1), with the integral taken once per
    distinct temperature (:func:`on_grid_stages`)."""
    w = on_grid_stages(_conduction_integral, t_qb, t_gen, stages)
    return w[1:] - w[:-1]


def conduction_heat_per_qubit(temperatures, cable: CableModel,
                              rises=None) -> np.ndarray:
    """Net cable heat deposited at each stage, per physical qubit (W).

    ``temperatures`` holds the stage temperatures cold to hot along axis
    0; any further axes are independent chains.  Entry i is the heat
    conducted in from the span above minus the heat carried away by the
    span below.  Nothing is conducted in above the top stage (optical
    fibers are neglected) or away below the qubit stage, so the entries
    telescope: stages 1..K-1 together extract exactly the heat injected
    from the top span.  ``rises``, when given, is
    :func:`conduction_rises` of ``temperatures``, computed before.
    """
    if rises is None:
        rises = conduction_rises(temperatures)
    spans = rises / cable.length_m * cable.lines_per_qubit
    net = np.zeros((len(spans) + 1,) + spans.shape[1:])
    net[:-1] += spans
    net[1:] -= spans
    return net


def always_on_rows(mult, net, t_gen, scenario: ElectronicsScenario,
                   model: CryoEfficiencyModel, t_ext: float) -> tuple[list, list]:
    """The always-on rows per physical qubit, in breakdown order, as two
    lists: each row's electrical power and its heat, elementwise over the
    chains, as arrays or floats.  Each row's formula is written here only.

    ``mult`` holds heat multipliers along axis 0, the qubit stage's first
    and the generation stage's, at ``t_gen``, last.  Given ``net``, the net
    conduction heat of each stage of ``mult``
    (:func:`conduction_heat_per_qubit`), the conduction rows come first,
    one per stage, one product over the stages: they cost only the heat
    extraction, +0 W at a stage at t_ext, where mu is 0.  With ``net=None`` the rows are the hardware rows alone,
    each depending on one temperature at most and monotone in it: the
    electronics and the amplifiers, which include their supply power, then
    the small-scale efficiency model's parasitic per-qubit heat load at
    the qubit stage, which the Carnot model does not have.  The HEMT
    amplifiers are pointless (and dropped, at +0 W) when the generation
    stage sits at or below 70 K, which it does where t_ext lies below 70 K
    and the HEMT stage's (1 + mu) may be negative.
    """
    powers, heats = ([], []) if net is None else ([*(mult * net + 0.0)], [*net])
    mu_para = model._heat_multiplier(PARAMP_K, t_ext)
    mu_hemt = model._heat_multiplier(HEMT_K, t_ext)
    q_hemt = scenario.q_hemt * (t_gen > HEMT_K)
    powers += [(1.0 + mult[-1]) * scenario.q_gen, (1.0 + mu_para) * scenario.q_para,
               (1.0 + mu_hemt) * q_hemt + 0.0]
    heats += [scenario.q_gen, scenario.q_para, q_hemt]
    if model.kind == "small_scale":
        powers.append(mult[0] * model.extra_qubit_heat_w)
        heats.append(model.extra_qubit_heat_w)
    return powers, heats


def _hardware_stages(t_qb, t_gen) -> list:
    """The stage temperature and the source of each hardware row of
    :func:`always_on_rows`, in its order; the Carnot model has the first
    three rows."""
    return [(t_gen, "electronics"), (PARAMP_K, "amplifier"), (HEMT_K, "amplifier"),
            (t_qb, "extra")]


def static_power_breakdown(temperatures, scenario: ElectronicsScenario,
                           cable: CableModel, model: CryoEfficiencyModel = CARNOT,
                           t_ext: float = AMBIENT_K, net=None,
                           mult=None) -> list[StageRecord]:
    """Per-stage, per-source breakdown of the always-on power per
    physical qubit: the StageRecords of :func:`always_on_rows`, the
    conduction rows, then the hardware rows.

    ``temperatures`` holds the stage temperatures cold to hot along axis
    0; any further axes are independent chains, over which each record's
    fields vary.  ``net`` and ``mult``, when given, are
    :func:`conduction_heat_per_qubit` of ``temperatures`` and ``cable``
    and ``model.heat_multiplier`` of ``temperatures``, computed before.
    A single chain's records hold Python floats.
    """
    temps = np.asarray(temperatures, dtype=float)
    if mult is None:
        mult = model.heat_multiplier(temps, t_ext)
    if net is None:
        net = conduction_heat_per_qubit(temps, cable)
    powers, heats = always_on_rows(mult, net, temps[-1], scenario, model, t_ext)
    stages = [*((t, "conduction") for t in temps), *_hardware_stages(temps[0], temps[-1])]
    field = float if temps.ndim == 1 else (lambda x: x)
    return [StageRecord(field(t), field(q), field(p), source)
            for (t, source), q, p in zip(stages, heats, powers)]


def demodulation_power_per_qubit(k: int, tech: QubitTechnology) -> float:
    """Room-temperature readout demodulation cost per physical qubit (W).

    Two quadratures times the sample count per measurement, at the
    per-measurement rate of the error-correction schedule.
    """
    meas_per_qubit = qec.measurement_fraction(k)
    ops_per_second = 2.0 * DEMOD_SAMPLES * meas_per_qubit / tech.tau_step
    return ops_per_second * FLOAT_OP_ENERGY_J


def syndrome_power_per_qubit(tech: QubitTechnology) -> float:
    """Pessimistic syndrome-decoding cost: one float op per qubit per step."""
    return FLOAT_OP_ENERGY_J / tech.tau_step
