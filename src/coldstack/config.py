"""Run configuration: a flat, sectioned key-value file with ``#`` comments.

All keys carry explicit SI-unit suffixes (``gamma_inverse_s``,
``t_ext_k``) so nothing is implicit; attenuation bounds may be given in
dB or natural units through distinct keys.  Each key is declared once,
on the :class:`RunConfig` field it sets.  Unknown sections or keys are
rejected, and validation reports every violation at once rather than
stopping at the first, a value outside the model's domain
(:data:`DOMAIN`) by its range.  An empty file reproduces the default hardware
table: 6 GHz qubits, 25/100/100 ns gate/measure times, a 50 ms
lifetime, five cooling stages, scenario A electronics, and a
Carnot-efficient cryostat.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
from dataclasses import dataclass

from .noise import DURATION_RANGE_S, FREQUENCY_RANGE_HZ, LIFETIME_RANGE_S, QubitTechnology
from .optimize import (ATTENUATION_RANGE_DB, REFINEMENT_PASSES_RANGE, STEPS_PER_LEVEL_RANGE,
                       FtToggles, GridOptions)
from .qec import _top_level
from .thermal import (CABLE_LENGTH_RANGE_M, HEAT_LOAD_RANGE_W, LINES_PER_QUBIT_RANGE,
                      SCENARIO_PRESETS, STEEL_FIT_MAX_K, T_EXT_RANGE_K, TEMPERATURE_RANGE_K,
                      CableModel, CryoEfficiencyModel, ElectronicsScenario)
from .workloads import Workload, rsa_workload


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))


def _key(section: str, default, key: str | None = None):
    """A :class:`RunConfig` field set by ``key`` (by default its name) in ``section``."""
    return dataclasses.field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class RunConfig:
    frequency_hz: float = _key("technology", 6e9)
    gamma_inverse_s: float = _key("technology", 0.05)
    tau_1qb_s: float = _key("technology", 25e-9)
    tau_2qb_s: float = _key("technology", 100e-9)
    tau_meas_s: float = _key("technology", 100e-9)
    stages: int = _key("chain", 5)
    t_ext_k: float = _key("chain", 300.0)
    t_qb_min_k: float = _key("chain", 1e-3)
    t_qb_max_k: float = _key("chain", 4.0)
    t_gen_min_k: float = _key("chain", 4.0)
    t_gen_max_k: float = _key("chain", 300.0)
    attenuation_min_db: float = _key("chain", 0.0)
    attenuation_max_db: float = _key("chain", 120.0)
    scenario: str = _key("scenario", "A", key="name")
    q_gen_w: float | None = _key("scenario", None)
    q_para_w: float | None = _key("scenario", None)
    q_hemt_w: float | None = _key("scenario", None)
    cable_length_m: float = _key("cable", 1.0, key="length_m")
    control_lines_per_qubit: float = _key("cable", 1.0 / 25.0)
    readout_lines_per_qubit: float = _key("cable", 1.0 / 100.0)
    efficiency_model: str = _key("efficiency", "carnot", key="model")
    extra_qubit_heat_w: float = _key("efficiency", 5e-8)
    workload_kind: str = _key("workload", "rsa", key="kind")  # rsa | rectangular | nisq | gate
    rsa_n: int = _key("workload", 2048)
    rsa_variant: str = _key("workload", "gidney")
    q_logical: int = _key("workload", 1)
    d_logical: int = _key("workload", 1)
    nisq_qubits: int = _key("workload", 25)
    target_metric: float = _key("target", 2.0 / 3.0, key="metric")
    temperature_points_per_decade: int = _key("optimizer", 40)
    refinement_passes: int = _key("optimizer", 2)
    k_min: int = _key("optimizer", 0)
    k_max: int = _key("optimizer", 6)
    include_demod_syndrome: bool = _key("toggles", False)
    t_gate_multiplier: float = _key("toggles", 1.0)
    two_qubit_drive_duration: str = _key("toggles", "tau_1qb")
    rsa_log_base: str = _key("toggles", "2")  # '2' or 'e'
    steps_per_logical_level: float = _key("toggles", 3.0)
    ft_metric_form: str = _key("toggles", "linear")

    # ---- domain-object builders ----

    def technology(self) -> QubitTechnology:
        return QubitTechnology(
            omega0=2.0 * math.pi * self.frequency_hz,
            gamma=1.0 / self.gamma_inverse_s,
            tau_1qb=self.tau_1qb_s,
            tau_2qb=self.tau_2qb_s,
            tau_meas=self.tau_meas_s,
        )

    def electronics(self) -> ElectronicsScenario:
        if self.scenario.lower() == "custom":
            return ElectronicsScenario("custom", self.q_gen_w, self.q_para_w,
                                       self.q_hemt_w or 0.0)
        return ElectronicsScenario.preset(self.scenario)

    def cable(self) -> CableModel:
        return CableModel(self.cable_length_m, self.control_lines_per_qubit,
                          self.readout_lines_per_qubit)

    def efficiency(self) -> CryoEfficiencyModel:
        return CryoEfficiencyModel(self.efficiency_model,
                                   extra_qubit_heat_w=self.extra_qubit_heat_w)

    def workload(self) -> Workload:
        if self.workload_kind == "rsa":
            base = 2.0 if self.rsa_log_base == "2" else math.e
            return rsa_workload(self.rsa_n, self.rsa_variant, log_base=base)
        if self.workload_kind == "rectangular":
            return Workload(self.q_logical, self.d_logical, label="rectangular")
        raise ValueError(f"no rectangular workload for kind {self.workload_kind!r}")

    def grid_options(self) -> GridOptions:
        return GridOptions(
            temperature_points_per_decade=self.temperature_points_per_decade,
            refinement_passes=self.refinement_passes,
            k_min=self.k_min,
            k_max=self.k_max,
            t_qb_bounds=(self.t_qb_min_k, self.t_qb_max_k),
            t_gen_bounds=(self.t_gen_min_k, self.t_gen_max_k),
            attenuation_bounds=(10.0 ** (self.attenuation_min_db / 10.0),
                                10.0 ** (self.attenuation_max_db / 10.0)),
        )

    def ft_toggles(self) -> FtToggles:
        return FtToggles(
            t_gate_multiplier=self.t_gate_multiplier,
            two_qubit_drive_duration=self.two_qubit_drive_duration,
            include_demod_syndrome=self.include_demod_syndrome,
            metric_form=self.ft_metric_form,
            k_stages=self.stages,
            t_ext=self.t_ext_k,
        )

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)


#: section -> {key: RunConfig field}, in the order the fields are declared.
_SCHEMA: dict[str, dict[str, str]] = {}
for _f in dataclasses.fields(RunConfig):
    _SCHEMA.setdefault(_f.metadata["section"], {})[_f.metadata["key"] or _f.name] = _f.name
#: RunConfig field -> ``section.key``, as a file writes it.
_WRITTEN = {name: f"{section}.{key}" for section, keys in _SCHEMA.items()
            for key, name in keys.items()}
#: ``section.key``, as a file writes it, -> RunConfig field.
WRITTEN_FIELDS = {written: name for name, written in _WRITTEN.items()}
#: The [chain] keys that give an attenuation bound in natural units, not
#: dB, by the field they set.
_NATURAL_UNITS = {"attenuation_min": "attenuation_min_db",
                  "attenuation_max": "attenuation_max_db"}

#: RunConfig field -> its annotation as written: "int", "bool", "str",
#: "float" or "float | None".
FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}

#: RunConfig field -> (closed range, what sets it): the model's physical domain,
#: on which only the counts 91^k and 64^k, bounded by k_max, near the float range,
#: and the refinement passes that can move the answer.
DOMAIN = {name: (bounds, why) for names, bounds, why in (
    ("frequency_hz", FREQUENCY_RANGE_HZ, "from spin and flux qubits to terahertz transitions"),
    ("gamma_inverse_s", LIFETIME_RANGE_S, "qubit lifetimes against emission into the line"),
    ("tau_1qb_s tau_2qb_s tau_meas_s", DURATION_RANGE_S, "gate, measurement and pulse durations"),
    ("t_ext_k", T_EXT_RANGE_K,
     "an ambient no colder than the 4 K amplifier stage the stack cools"),
    ("t_qb_min_k t_qb_max_k t_gen_min_k", TEMPERATURE_RANGE_K,
     "below any dilution refrigerator to far above any ambient"),
    ("t_gen_max_k", (TEMPERATURE_RANGE_K[0], STEEL_FIT_MAX_K),
     "the top of the steel conductivity fit"),
    ("attenuation_min_db attenuation_max_db", ATTENUATION_RANGE_DB,
     "none to more than any chain needs"),
    ("q_gen_w q_para_w q_hemt_w extra_qubit_heat_w", HEAT_LOAD_RANGE_W,
     "heat per qubit of electronics, amplifiers or parasitics"),
    ("cable_length_m", CABLE_LENGTH_RANGE_M, "lines within a cryostat"),
    ("control_lines_per_qubit readout_lines_per_qubit", LINES_PER_QUBIT_RANGE,
     "lines of each kind per qubit"),
    ("refinement_passes", REFINEMENT_PASSES_RANGE,
     "from pass 29 on, every node of a refined row rounds to its centre"),
    ("steps_per_logical_level", STEPS_PER_LEVEL_RANGE,
     "the steps of the highest level stay a float"),
) for name in names.split()}


def _coerce(field_name: str, raw: str, problems: list[str]):
    raw = raw.strip()
    kind = FIELD_TYPES[field_name]
    if kind == "str":
        return raw
    if kind == "bool":
        if raw.lower() in ("true", "yes", "on", "1"):
            return True
        if raw.lower() in ("false", "no", "off", "0"):
            return False
        problems.append(f"{_WRITTEN[field_name]}: expected a boolean, got {raw!r}")
        return None
    try:
        value = float(raw)
    except ValueError:
        problems.append(f"{_WRITTEN[field_name]}: expected a number, got {raw!r}")
        return None
    if kind == "int":
        if not value.is_integer():  # False for nan and inf too
            problems.append(f"{_WRITTEN[field_name]}: expected an integer, got {raw!r}")
            return None
        return int(value)
    return value


def validate(cfg: RunConfig, problems: list[str] | None = None) -> RunConfig:
    """``cfg`` if it passes every check of :func:`load_config`, or raises
    :class:`ConfigError` listing the earlier ``problems`` and each violation."""
    problems = list(problems or [])
    for name in FIELD_TYPES:
        value = getattr(cfg, name)
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{_WRITTEN[name]}: must be a finite number")
        elif name in DOMAIN and value is not None:
            (lo, hi), reason = DOMAIN[name]
            if not lo <= value <= hi:
                problems.append(f"{_WRITTEN[name]}: must lie in [{lo:g}, {hi:g}] ({reason})")
    for name in ("rsa_n", "q_logical", "d_logical", "nisq_qubits",
                 "temperature_points_per_decade"):
        if getattr(cfg, name) <= 0:
            problems.append(f"{_WRITTEN[name]}: must be > 0")
    if cfg.stages < 2:
        problems.append("chain.stages: need at least 2 cooling stages")
    if cfg.t_qb_min_k > cfg.t_qb_max_k:
        problems.append("chain.t_qb_min_k exceeds chain.t_qb_max_k")
    if cfg.t_gen_min_k > cfg.t_gen_max_k:
        problems.append("chain.t_gen_min_k exceeds chain.t_gen_max_k")
    if cfg.t_gen_min_k <= cfg.t_qb_min_k:
        problems.append("chain.t_gen_min_k must exceed chain.t_qb_min_k")
    if cfg.t_gen_max_k > cfg.t_ext_k:
        problems.append("chain.t_gen_max_k exceeds the ambient t_ext_k")
    if cfg.t_qb_max_k >= cfg.t_ext_k:
        problems.append("chain.t_qb_max_k must lie below the ambient t_ext_k")
    if cfg.attenuation_max_db < cfg.attenuation_min_db:
        problems.append("chain: attenuation bounds must satisfy min <= max")
    name = cfg.scenario.lower()
    if name == "custom":
        if cfg.q_gen_w is None or cfg.q_para_w is None:
            problems.append("scenario: custom requires q_gen_w and q_para_w")
    elif name.upper() not in SCENARIO_PRESETS:
        problems.append(f"scenario.name: unknown scenario {cfg.scenario!r}")
    elif any(v is not None for v in (cfg.q_gen_w, cfg.q_para_w, cfg.q_hemt_w)):
        problems.append("scenario: heat loads may only accompany name = custom")
    if cfg.efficiency_model not in ("carnot", "small_scale"):
        problems.append("efficiency.model: must be carnot or small_scale")
    if cfg.workload_kind not in ("rsa", "rectangular", "nisq", "gate"):
        problems.append("workload.kind: must be rsa, rectangular, nisq, or gate")
    if cfg.rsa_variant not in ("gidney", "haner"):
        problems.append("workload.rsa_variant: must be gidney or haner")
    if cfg.nisq_qubits < 3:
        problems.append("workload.nisq_qubits: the circuit needs at least 3 qubits")
    if not (0 <= cfg.target_metric < 1):
        problems.append("target.metric: must lie in [0, 1)")
    if not (0 <= cfg.k_min <= cfg.k_max):
        problems.append("optimizer: need 0 <= k_min <= k_max")
    if not (1.0 <= cfg.t_gate_multiplier <= 10.0):
        problems.append("toggles.t_gate_multiplier: must lie in [1, 10]")
    if cfg.two_qubit_drive_duration not in ("tau_1qb", "tau_2qb"):
        problems.append("toggles.two_qubit_drive_duration: tau_1qb or tau_2qb")
    if cfg.rsa_log_base not in ("2", "e"):
        problems.append("toggles.rsa_log_base: must be 2 or e")
    if cfg.ft_metric_form not in ("linear", "exact"):
        problems.append("toggles.ft_metric_form: must be linear or exact")
    if not problems and cfg.workload_kind in ("rsa", "rectangular"):
        try:
            top = _top_level(cfg.workload().q_logical)
        except ValueError as exc:
            problems.append(f"workload: {exc}")
        else:
            if cfg.k_max > top:
                problems.append(f"optimizer.k_max: must be at most {top} for this workload, "
                                "where 91^k_max * Q_L stays in the float range")
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path: str | None = None, text: str | None = None) -> RunConfig:
    """Parse and fully validate a configuration file (or literal text).

    Omitted keys take their defaults; ``None`` loads pure defaults.
    Raises :class:`ConfigError` listing every violation found.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    if text is not None:
        parser.read_string(text)
    elif path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    problems: list[str] = []
    values: dict = {}
    for section in parser.sections():
        keys = _SCHEMA.get(section)
        if keys is None:
            problems.append(f"unknown section [{section}]")
            continue
        if section == "chain":
            keys = {**keys, **_NATURAL_UNITS}
        for key, raw in parser.items(section):
            field_name = keys.get(key)
            if field_name is None:
                problems.append(f"unknown key {section}.{key}")
                continue
            if field_name in values:
                problems.append(f"{section}.{key}: duplicates another key setting {field_name}")
                continue
            if key in _NATURAL_UNITS:
                coerced = _db_from_natural(key, raw, problems)
            else:
                coerced = _coerce(field_name, raw, problems)
            if coerced is not None:
                values[field_name] = coerced
    return validate(RunConfig(**values), problems)


def _db_from_natural(key: str, raw: str, problems: list[str]):
    try:
        value = float(raw)
    except ValueError:
        problems.append(f"chain.{key}: expected a number, got {raw!r}")
        return None
    if value < 1:
        problems.append(f"chain.{key}: natural-unit attenuation must be >= 1")
        return None
    return 10.0 * math.log10(value)


def show_config(cfg: RunConfig) -> str:
    """Render the fully resolved configuration in the file format."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, field_name in keys.items():
            value = getattr(cfg, field_name)
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()
