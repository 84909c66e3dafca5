"""Thermodynamic model of the cryogenic stack.

Covers the stage layout of the attenuation chain, heat conducted by the
control/readout cables, the electrical cost of extracting heat at each
stage, and the resulting per-gate and per-qubit power formulas.  Cable
conduction is one array kernel, with no adaptive quadrature and no cache.

Conventions used throughout:

* Stage 1 is the qubit stage (coldest), stage K the signal-generation
  stage at ``t_gen``.  Attenuators sit on stages 1..K-1.
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

from .noise import HBAR, QubitTechnology
from . import qec

AMBIENT_K = 300.0

#: Stainless-steel conductivity fit, log10(lambda) = sum a_i * log10(T)^i,
#: valid above 10 K.
STEEL_FIT = (-1.4087, 1.3982, 0.2543, -0.6260, 0.2334, 0.4256, -0.4658, 0.1650, -0.0199)

# Demodulation / syndrome-decoding side-calculation constants.
DEMOD_SAMPLES = 100          # digitized points per readout
FLOAT_OP_ENERGY_J = 0.85e-12  # energy per floating-point operation
READOUT_BITS = 14             # bits per digitized sample
FIBER_BITRATE = 400e9         # bit/s per optical fiber


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

    @property
    def lines_per_qubit(self) -> float:
        return self.control_lines_per_qubit + self.readout_lines_per_qubit

    def steel_conductivity(self, temperature: float) -> float:
        """Stainless-steel thermal conductivity (W/m/K), T > 10 K fit."""
        lt = np.log10(temperature)
        z = 0.0
        for i, a in enumerate(self.steel_fit):
            z += a * lt**i
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

    def heat_multiplier(self, t_stage, t_ext: float = AMBIENT_K):
        """Electrical watts per watt of heat extracted at ``t_stage``."""
        t = np.asarray(t_stage, dtype=float)
        if np.any(t <= 0):
            raise ValueError("stage temperature must be positive")
        if self.kind == "carnot":
            out = (t_ext - t) / t
        else:
            out = self.small_scale_prefactor * (1.0 - t / t_ext) / t**2
        if np.ndim(out) == 0:
            return float(out)
        return out


CARNOT = CryoEfficiencyModel("carnot")


def cooling_power(heat: float, t_stage: float, model: CryoEfficiencyModel,
                  t_ext: float = AMBIENT_K) -> float:
    """Electrical power to extract ``heat`` watts at ``t_stage`` kelvin."""
    if heat < 0:
        raise ValueError("heat must be nonnegative")
    if t_stage <= 0:
        raise ValueError("stage temperature must be positive (cost diverges at 0)")
    return heat * model.heat_multiplier(t_stage, t_ext)


@dataclass(frozen=True)
class CryoChain:
    """Temperatures and attenuations of the K-stage cooling chain.

    ``temperatures`` runs cold to hot (stage 1 = qubits, stage K =
    signal generation); ``attenuations`` are the K-1 per-stage
    attenuation factors in natural units.
    """

    temperatures: tuple
    attenuations: tuple
    t_ext: float = AMBIENT_K
    t_para: float = 4.0
    t_hemt: float = 70.0

    def __post_init__(self) -> None:
        temps = self.temperatures
        if len(temps) < 2:
            raise ValueError("a chain needs at least 2 stages")
        if len(self.attenuations) != len(temps) - 1:
            raise ValueError("need exactly K-1 attenuators for K stages")
        if any(b <= a for a, b in zip(temps, temps[1:])):
            raise ValueError("stage temperatures must increase strictly, cold to hot")
        if temps[0] <= 0:
            raise ValueError("qubit stage temperature must be positive")
        if temps[-1] > self.t_ext:
            raise ValueError("top stage cannot be hotter than ambient")
        if any(a < 1 for a in self.attenuations):
            raise ValueError("attenuations must be >= 1 in natural units")

    @property
    def k_stages(self) -> int:
        return len(self.temperatures)

    @property
    def t_qubit(self) -> float:
        return self.temperatures[0]

    @property
    def t_top(self) -> float:
        return self.temperatures[-1]

    @property
    def total_attenuation(self) -> float:
        return float(np.prod(self.attenuations))

    @property
    def cumulative_attenuations(self) -> tuple:
        """Total attenuation between stage i and the qubit, i = 1..K-1."""
        return tuple(np.cumprod(self.attenuations))


def stage_layout(t_qb: float, t_gen: float, a_total: float, k_stages: int = 5,
                 t_ext: float = AMBIENT_K) -> CryoChain:
    """Standard chain layout: equal attenuation per stage, temperatures
    geometrically spaced between ``t_qb`` and ``t_gen``.
    """
    if not (0 < t_qb < t_gen <= t_ext):
        raise ValueError("need 0 < t_qb < t_gen <= t_ext")
    if a_total < 1:
        raise ValueError("total attenuation must be >= 1")
    if k_stages < 2:
        raise ValueError("need at least 2 stages")
    frac = np.arange(k_stages) / (k_stages - 1)
    # exactly t_qb and t_gen at the ends, and bit for bit the optimizer's grid
    temps = t_qb ** (1 - frac) * t_gen**frac
    per_stage = a_total ** (1.0 / (k_stages - 1))
    return CryoChain(
        temperatures=tuple(float(t) for t in temps),
        attenuations=(per_stage,) * (k_stages - 1),
        t_ext=t_ext,
    )


# ---------------------------------------------------------------------------
# Cable heat conduction
# ---------------------------------------------------------------------------

#: Gauss-Legendre nodes of the steel part of the conduction integral.
_STEEL_NODES = 16
_STEEL_X, _STEEL_W = np.polynomial.legendre.leggauss(_STEEL_NODES)


def _conduction_integral(cable: CableModel, temperature):
    """Integral of area(T)*lambda(T) from 0 to ``temperature``, in W*m/m,
    elementwise on a scalar or an array.

    The kapton segments (below 4 K and 4..10 K) are pure power laws and
    integrate in closed form.  The steel segment above 10 K is a fixed
    Gauss-Legendre rule in u = log10 T on [1, log10 T], where the
    integrand ``lambda(10^u) * 10^u * ln 10`` is smooth; it matches
    adaptive quadrature to about 3e-14 relative.  Differences of this
    cumulative integral make interval additivity exact.
    """
    # shape (1,) for a scalar, so it takes the same arithmetic as an array
    t = np.atleast_1d(np.asarray(temperature, dtype=float))
    c_lo, p_lo = cable.kapton_low
    c_mid, p_mid = cable.kapton_mid
    out = cable.area_below_10k_m2 * c_lo * np.clip(t, 0.0, 4.0) ** (p_lo + 1) / (p_lo + 1)
    out = out + cable.area_below_10k_m2 * c_mid * (
        np.clip(t, 4.0, 10.0) ** (p_mid + 1) - 4.0 ** (p_mid + 1)) / (p_mid + 1)
    hot = t > 10.0
    half = 0.5 * (np.log10(t[hot]) - 1.0)
    steel = 0.0
    for x, w in zip(_STEEL_X, _STEEL_W):
        t_node = 10.0 ** (1.0 + half * (x + 1.0))
        steel = steel + w * cable.steel_conductivity(t_node) * t_node
    out[hot] += cable.area_above_10k_m2 * np.log(10.0) * half * steel
    return float(out[0]) if np.ndim(temperature) == 0 else out


def cable_heat_flow(t_low: float, t_high: float, cable: CableModel) -> float:
    """Heat conducted by one cable from ``t_high`` down to ``t_low`` (W)."""
    if not (0 <= t_low <= t_high <= AMBIENT_K):
        raise ValueError("need 0 <= t_low <= t_high <= 300 K")
    return (_conduction_integral(cable, t_high)
            - _conduction_integral(cable, t_low)) / cable.length_m


# ---------------------------------------------------------------------------
# Gate and per-qubit power
# ---------------------------------------------------------------------------

def attenuator_heat_fractions(chain: CryoChain) -> np.ndarray:
    """Fraction of the injected drive power dissipated at each stage.

    Stage i (i = 1..K-1) dissipates ``cum_i - cum_{i-1}`` times the
    power arriving at the qubit; the final signal itself is absorbed at
    stage 1 (the i=0 cumulative attenuation counts as 0).  The top stage
    hosts no attenuator.
    """
    cum = np.concatenate([[0.0], np.cumprod(chain.attenuations)])
    deltas = np.diff(cum)
    return np.concatenate([deltas, [0.0]])


def gate_power_2qb(chain: CryoChain, p_pi: float, model: CryoEfficiencyModel = CARNOT) -> float:
    """Full-stack electrical power of one sustained two-qubit drive.

    The drive is injected at the top of the chain with power
    ``A_total * p_pi`` and attenuated down to ``p_pi`` at the qubit; the
    heat deposited at each stage is extracted at that stage's cost.
    """
    fractions = attenuator_heat_fractions(chain)
    mult = model.heat_multiplier(np.asarray(chain.temperatures), chain.t_ext)
    return float(p_pi * np.sum(mult * fractions))


def gate_power_1qb(chain: CryoChain, p_pi: float, tech: QubitTechnology,
                   model: CryoEfficiencyModel = CARNOT) -> float:
    """Per-step average power of a one-qubit gate.

    Same drive power as the two-qubit gate but active only for
    ``tau_1qb`` out of each clock step.
    """
    return (tech.tau_1qb / tech.tau_step) * gate_power_2qb(chain, p_pi, model)


@dataclass(frozen=True)
class StageRecord:
    """One row of the per-stage power breakdown."""

    stage_temperature_k: float
    heat_extracted_w: float
    electrical_power_w: float
    source: str  # attenuator | conduction | amplifier | electronics | extra


def conduction_heat_per_qubit(temperatures, cable: CableModel) -> np.ndarray:
    """Net cable heat deposited at each stage, per physical qubit (W).

    ``temperatures`` holds the stage temperatures cold to hot along axis
    0; any further axes are independent chains.  Entry i is the heat
    conducted in from the span above minus the heat carried away by the
    span below.  Nothing is conducted in above the top stage (optical
    fibers are neglected) or away below the qubit stage, so the entries
    telescope: stages 1..K-1 together extract exactly the heat injected
    from the top span.
    """
    w = _conduction_integral(cable, temperatures)
    spans = (w[1:] - w[:-1]) / cable.length_m * cable.lines_per_qubit
    net = np.zeros_like(w)
    net[:-1] += spans
    net[1:] -= spans
    return net


def static_power_breakdown(chain: CryoChain, scenario: ElectronicsScenario,
                           cable: CableModel, model: CryoEfficiencyModel = CARNOT
                           ) -> list[StageRecord]:
    """Per-stage breakdown of the always-on power per physical qubit.

    Electronics and amplifier rows include their supply power; the
    conduction rows cost only the heat extraction.  The HEMT amplifiers
    are pointless (and dropped) when the generation stage sits at or
    below 70 K.  The small-scale efficiency model adds its parasitic
    per-qubit heat load at the qubit stage.
    """
    temps = np.asarray(chain.temperatures)
    mult = model.heat_multiplier(temps, chain.t_ext)
    records: list[StageRecord] = []
    net = conduction_heat_per_qubit(temps, cable)
    for t, q, m in zip(temps, net, mult):
        records.append(StageRecord(float(t), float(q), float(m * q + 0.0),
                                   "conduction"))
    t_gen = chain.t_top
    gen_mult = model.heat_multiplier(t_gen, chain.t_ext)
    records.append(StageRecord(t_gen, scenario.q_gen,
                               (1.0 + gen_mult) * scenario.q_gen, "electronics"))
    para_mult = model.heat_multiplier(chain.t_para, chain.t_ext)
    records.append(StageRecord(chain.t_para, scenario.q_para,
                               (1.0 + para_mult) * scenario.q_para, "amplifier"))
    q_hemt = scenario.q_hemt if t_gen > chain.t_hemt else 0.0
    hemt_mult = model.heat_multiplier(chain.t_hemt, chain.t_ext)
    records.append(StageRecord(chain.t_hemt, q_hemt,
                               (1.0 + hemt_mult) * q_hemt, "amplifier"))
    if model.kind == "small_scale":
        q_extra = model.extra_qubit_heat_w
        records.append(StageRecord(chain.t_qubit, q_extra,
                                   model.heat_multiplier(chain.t_qubit, chain.t_ext) * q_extra,
                                   "extra"))
    return records


def per_qubit_static_power(chain: CryoChain, scenario: ElectronicsScenario,
                           cable: CableModel, model: CryoEfficiencyModel = CARNOT) -> float:
    """Always-on electrical power per physical qubit (W)."""
    return float(sum(r.electrical_power_w
                     for r in static_power_breakdown(chain, scenario, cable, model)))


def measurement_power() -> float:
    """Per-step measurement drive power; negligible, so dropped (0 W)."""
    return 0.0


def measurement_drive_power(tech: QubitTechnology) -> float:
    """Diagnostic estimate of the parametric-amplifier pump per measurement.

    The pump must exceed the amplified one-photon readout signal by about
    a factor 100 on top of ~100x amplification: ``1e4 * hbar*omega0/tau_meas``.
    """
    return 1e4 * HBAR * tech.omega0 / tech.tau_meas


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


def fiber_bitrate_per_qubit(k: int, tech: QubitTechnology) -> tuple[float, int]:
    """Readout data rate per physical qubit and qubits per 400 Gb/s fiber."""
    rate = READOUT_BITS * DEMOD_SAMPLES / tech.tau_step * qec.measurement_fraction(k)
    return float(rate), int(FIBER_BITRATE // rate)
