"""Thermodynamic model of the cryogenic stack.

Covers the stage layout of the attenuation chain, heat conducted by the
control/readout cables, the electrical cost of extracting heat at each
stage, and the heat the drive lines and the always-on hardware leave at
each stage.  The layout, conduction and per-stage power functions are
elementwise over a grid of chains, so the optimizer's search and the
per-point breakdown call the same code.  Cable conduction has no
adaptive quadrature and no cache.

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
from functools import lru_cache

import numpy as np

from .noise import QubitTechnology
from . import qec

AMBIENT_K = 300.0

#: Stainless-steel conductivity fit, log10(lambda) = sum a_i * log10(T)^i,
#: valid above 10 K.
STEEL_FIT = (-1.4087, 1.3982, 0.2543, -0.6260, 0.2334, 0.4256, -0.4658, 0.1650, -0.0199)

#: Temperatures of the stages that host the parametric and the HEMT
#: readout amplifiers.
PARAMP_K = 4.0
HEMT_K = 70.0

# Demodulation / syndrome-decoding side-calculation constants.
DEMOD_SAMPLES = 100          # digitized points per readout
FLOAT_OP_ENERGY_J = 0.85e-12  # energy per floating-point operation


@dataclass(frozen=True)
class CableModel:
    """Geometry and material laws of one control/readout line.

    Coaxial cable (stainless steel) above 10 K, superconducting
    microstrip with kapton dielectric below.  The kapton law is a
    two-piece power law with a small discontinuity at 4 K.
    """

    length_m: float = 1.0
    area_above_10k_m2: float = 2.7e-7
    area_below_10k_m2: float = 1.3e-9
    steel_fit: tuple = STEEL_FIT
    kapton_low: tuple = (4.6, 0.56)   # lambda = c * T^p below 4 K
    kapton_mid: tuple = (3.0, 0.98)   # lambda = c * T^p for 4..10 K
    control_lines_per_qubit: float = 1.0 / 25.0
    readout_lines_per_qubit: float = 1.0 / 100.0

    def __post_init__(self) -> None:
        if self.length_m <= 0:
            raise ValueError("cable length must be positive")
        if self.area_above_10k_m2 <= 0 or self.area_below_10k_m2 <= 0:
            raise ValueError("cable cross-sections must be positive")
        if min(self.control_lines_per_qubit, self.readout_lines_per_qubit) < 0:
            raise ValueError("lines per qubit must be nonnegative")
        if min(self.kapton_low[0], self.kapton_mid[0]) < 0:
            raise ValueError("kapton conductivity prefactors must be nonnegative")

    @property
    def lines_per_qubit(self) -> float:
        return self.control_lines_per_qubit + self.readout_lines_per_qubit

    @property
    def material(self) -> tuple:
        """The fields the conduction integral reads (not length or lines)."""
        return (self.area_above_10k_m2, self.area_below_10k_m2, self.steel_fit,
                self.kapton_low, self.kapton_mid)

    def steel_conductivity(self, temperature: float) -> float:
        """Stainless-steel thermal conductivity (W/m/K), T > 10 K fit."""
        lt = np.log10(temperature)
        z = 0.0
        for a in reversed(self.steel_fit):  # Horner's rule
            z = z * lt + a
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
        if min(self.q_gen, self.q_para, self.q_hemt) < 0:
            raise ValueError("scenario heat loads must be nonnegative")

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
    small_scale_prefactor: float = 3.24e5  # K^2
    extra_qubit_heat_w: float = 5e-8

    def __post_init__(self) -> None:
        if self.kind not in ("carnot", "small_scale"):
            raise ValueError("efficiency model must be 'carnot' or 'small_scale'")
        if self.extra_qubit_heat_w < 0:
            raise ValueError("the parasitic qubit-stage heat must be nonnegative")

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
        return self.small_scale_prefactor * (1.0 - t / t_ext) / t**2


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

#: Gauss-Legendre nodes of the steel part of the conduction integral, as columns.
_STEEL_NODES = 16
_STEEL_X, _STEEL_W = (v[:, None] for v in np.polynomial.legendre.leggauss(_STEEL_NODES))
#: Hot temperatures per pass of the steel rule: its temporaries stay small.
_HOT_BLOCK = 2048


def _conduction_integral(cable: CableModel, temperature):
    """Integral of area(T)*lambda(T) from 0 to ``temperature``, in W*m/m,
    elementwise on a scalar or an array.

    The kapton segments (below 4 K and 4..10 K) are pure power laws and
    integrate in closed form.  The steel segment above 10 K is a fixed
    Gauss-Legendre rule in u = log10 T on [1, log10 T], where the
    integrand ``lambda(10^u) * 10^u * ln 10`` is smooth; it matches
    adaptive quadrature to about 3e-14 relative.  Each array pass takes all
    nodes of up to ``_HOT_BLOCK`` temperatures, summed in node order.
    Differences of this cumulative integral make interval additivity exact.
    """
    # shape (1,) for a scalar, so it takes the same arithmetic as an array,
    # and C order, so that every array below is too and reshapes to a view
    t = np.ascontiguousarray(temperature, dtype=float)
    c_lo, p_lo = cable.kapton_low
    c_mid, p_mid = cable.kapton_mid
    out = cable.area_below_10k_m2 * c_lo * np.clip(t, 0.0, 4.0) ** (p_lo + 1) / (p_lo + 1)
    out = out + cable.area_below_10k_m2 * c_mid * (
        np.minimum(np.maximum(t, 4.0), 10.0) ** (p_mid + 1) - 4.0 ** (p_mid + 1)) / (p_mid + 1)
    flat, t = out.reshape(-1), t.reshape(-1)
    hot = np.flatnonzero(t > 10.0)
    for start in range(0, hot.size, _HOT_BLOCK):
        at = hot[start:start + _HOT_BLOCK]
        half = 0.5 * (np.log10(t[at]) - 1.0)
        t_node = 10.0 ** (1.0 + half * (_STEEL_X + 1.0))
        # accumulate adds the nodes in order for every block shape, which
        # np.add.reduce does not: it pairs them on some shapes
        steel = np.add.accumulate(_STEEL_W * cable.steel_conductivity(t_node) * t_node,
                                  axis=0)[-1]
        flat[at] += cable.area_above_10k_m2 * np.log(10.0) * half * steel
    return float(out[0]) if np.ndim(temperature) == 0 else out


def cable_heat_flow(t_low: float, t_high: float, cable: CableModel) -> float:
    """Heat conducted by one cable from ``t_high`` down to ``t_low`` (W)."""
    if not (0 <= t_low <= t_high <= AMBIENT_K):
        raise ValueError("need 0 <= t_low <= t_high <= 300 K")
    return (_conduction_integral(cable, t_high)
            - _conduction_integral(cable, t_low)) / cable.length_m


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


def conduction_rises(temperatures, cable: CableModel) -> np.ndarray:
    """Rise of the conduction integral across each span between the
    stages along axis 0 of ``temperatures``; it reads ``cable.material``."""
    w = _conduction_integral(cable, temperatures)
    return w[1:] - w[:-1]


def grid_conduction_rises(t_qb, t_gen, stages, cable: CableModel) -> np.ndarray:
    """:func:`conduction_rises` of the chains ``stages`` that
    :func:`stage_temperatures` lays out on the grid of the axes ``t_qb``
    (axis 0) by ``t_gen`` (axis 1).  Their end stages are the axes
    themselves, so the integral there is taken once per axis node, not
    once per grid point, in one pass with the inner stages; the integral
    is elementwise, so the rises are the same to the bit."""
    n_qb, n_gen = len(t_qb), len(t_gen)
    flat = _conduction_integral(cable, np.concatenate((t_qb, t_gen, stages[1:-1].ravel())))
    w = np.empty(stages.shape)
    w[0] = flat[:n_qb, None]
    w[-1] = flat[n_qb:n_qb + n_gen]
    w[1:-1] = flat[n_qb + n_gen:].reshape(stages[1:-1].shape)
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
        rises = conduction_rises(temperatures, cable)
    spans = rises / cable.length_m * cable.lines_per_qubit
    net = np.zeros((len(spans) + 1,) + spans.shape[1:])
    net[:-1] += spans
    net[1:] -= spans
    return net


@lru_cache(maxsize=16)
def _fixed_multiplier(model: CryoEfficiencyModel, t_stage: float,
                      t_ext: float = AMBIENT_K) -> float:
    """``model.heat_multiplier(t_stage, t_ext)`` at a temperature fixed by
    the configuration, such as an amplifier stage's, computed once per
    process rather than on every grid."""
    return model.heat_multiplier(t_stage, t_ext)


def hardware_rows(t_qb, t_gen, mu_qb, mu_gen, scenario: ElectronicsScenario,
                  model: CryoEfficiencyModel, t_ext: float) -> list[StageRecord]:
    """The always-on rows other than conduction, per physical qubit, of
    chains with the qubit stage at ``t_qb`` and the generation stage at
    ``t_gen``, of heat multipliers ``mu_qb`` and ``mu_gen``; elementwise.

    Electronics and amplifier rows include their supply power.  The HEMT
    amplifiers are pointless (and dropped) when the generation stage sits
    at or below 70 K.  The small-scale efficiency model adds its parasitic
    per-qubit heat load at the qubit stage.  Each row depends on one
    temperature at most, and is monotone in it.
    """
    mu_para = _fixed_multiplier(model, PARAMP_K, t_ext)
    mu_hemt = _fixed_multiplier(model, HEMT_K, t_ext)
    q_hemt = scenario.q_hemt * (t_gen > HEMT_K)
    rows = [StageRecord(t_gen, scenario.q_gen, (1.0 + mu_gen) * scenario.q_gen, "electronics"),
            StageRecord(PARAMP_K, scenario.q_para, (1.0 + mu_para) * scenario.q_para, "amplifier"),
            StageRecord(HEMT_K, q_hemt, (1.0 + mu_hemt) * q_hemt, "amplifier")]
    if model.kind == "small_scale":
        q_extra = model.extra_qubit_heat_w
        rows.append(StageRecord(t_qb, q_extra, mu_qb * q_extra, "extra"))
    return rows


def static_power_breakdown(temperatures, scenario: ElectronicsScenario,
                           cable: CableModel, model: CryoEfficiencyModel = CARNOT,
                           t_ext: float = AMBIENT_K, net=None,
                           mult=None) -> list[StageRecord]:
    """Per-stage, per-source breakdown of the always-on power per
    physical qubit: the conduction rows, then :func:`hardware_rows`.

    ``temperatures`` holds the stage temperatures cold to hot along axis
    0; any further axes are independent chains, over which each record's
    fields vary.  The conduction rows cost only the heat extraction.
    ``net`` and ``mult``, when given, are :func:`conduction_heat_per_qubit`
    of ``temperatures`` and ``cable`` and ``model.heat_multiplier`` of
    ``temperatures``, computed before.
    """
    temps = np.asarray(temperatures, dtype=float)
    if mult is None:
        mult = model.heat_multiplier(temps, t_ext)
    if net is None:
        net = conduction_heat_per_qubit(temps, cable)
    records = [StageRecord(t, q, m * q + 0.0, "conduction")
               for t, q, m in zip(temps, net, mult)]
    # a single chain's rows hold Python floats, as the scalar multiplier gives
    mult = mult if temps.ndim > 1 else [float(m) for m in mult]
    return records + hardware_rows(temps[0], temps[-1], mult[0], mult[-1], scenario,
                                   model, t_ext)


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
