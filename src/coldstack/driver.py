"""Glue between configurations and the optimization engines: problem
dispatch, Cartesian parameter sweeps, and the quantum-versus-classical
factoring comparison."""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import FIELD_TYPES, WRITTEN_FIELDS, ConfigError, RunConfig, validate
from .optimize import (
    OptimizationResult,
    coarse_grid_key,
    optimize_ft,
    optimize_nisq,
    optimize_single_qubit,
    rsa_energy_summary,
)
from .workloads import classical_energy_time


@dataclass(frozen=True)
class SweepAxis:
    """One swept setting: ``key=start:stop:points[:log]``, with ``key``
    as a config file writes it, ``section.key``, or the RunConfig field."""

    key: str
    start: float
    stop: float
    points: int
    log: bool = False

    def values(self) -> np.ndarray:
        """The axis's values, which must be finite: an axis whose bounds or
        steps leave the float range is rejected by its key."""
        if self.points < 1:
            raise ValueError(f"axis {self.key}: need at least one point")
        if self.log and self.points > 1 and (self.start <= 0 or self.stop <= 0):
            raise ValueError(f"axis {self.key}: log axes need positive bounds")
        with np.errstate(all="ignore"):
            if self.points == 1:
                values = np.array([self.start])
            elif self.log:
                values = np.logspace(math.log10(self.start), math.log10(self.stop),
                                     self.points)
            else:
                values = np.linspace(self.start, self.stop, self.points)
        if not np.isfinite(values).all():
            raise ValueError(f"axis {self.key}: every value must be a finite number")
        return values

    @classmethod
    def parse(cls, spec: str) -> "SweepAxis":
        key, _, rest = spec.partition("=")
        if not rest:
            raise ValueError(f"bad axis spec {spec!r}; want key=start:stop:points[:log]")
        parts = rest.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"bad axis spec {spec!r}; want key=start:stop:points[:log]")
        log = len(parts) == 4 and parts[3] == "log"
        if len(parts) == 4 and not log:
            raise ValueError(f"bad axis spec {spec!r}; trailing flag must be 'log'")
        return cls(key.strip(), float(parts[0]), float(parts[1]), int(parts[2]), log)


def _sweep_field(key: str) -> str:
    """The numeric RunConfig field that the sweep key ``key`` sets: ``key``
    is written as in a config file, ``section.key``, or is the field."""
    name = WRITTEN_FIELDS.get(key, key)
    kind = FIELD_TYPES.get(name)
    if kind is None:
        written = [w for w in WRITTEN_FIELDS if w.endswith(f".{key}")]
        hint = f"; did you mean {written[0]!r}?" if len(written) == 1 else ""
        raise ValueError(f"unknown sweep key {key!r}{hint}")
    if kind in ("str", "bool"):
        raise ValueError(f"sweep key {key!r} is not numeric")
    return name


def _swept_value(name: str, value):
    """The value the field ``name`` runs at for the axis value ``value``:
    the nearest int for an integer field, else ``value`` itself."""
    return int(round(value)) if FIELD_TYPES[name] == "int" else value


def run_problem(cfg: RunConfig) -> OptimizationResult:
    """Run the optimization the configured workload kind calls for."""
    tech = cfg.technology()
    options = cfg.grid_options()
    if cfg.workload_kind == "gate":
        return optimize_single_qubit(tech, cfg.target_metric, options=options,
                                     t_ext=cfg.t_ext_k)
    if cfg.workload_kind == "nisq":
        return optimize_nisq(cfg.nisq_qubits, cfg.target_metric, tech,
                             options=options, t_ext=cfg.t_ext_k)
    return optimize_ft(cfg.workload(), tech, cfg.electronics(), cfg.cable(),
                       cfg.efficiency(), cfg.target_metric, options=options,
                       toggles=cfg.ft_toggles())


def _at_point(where: str, step, cfg: RunConfig):
    """``step(cfg)``: :func:`~coldstack.config.validate` or :func:`run_problem`;
    a failed check or a raise ends in an error of its type led by ``where``."""
    try:
        return step(cfg)
    except ConfigError as exc:
        raise ConfigError([f"{where}: {p}" for p in exc.problems]) from exc
    except Exception as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def result_record(cfg: RunConfig, result: OptimizationResult,
                  extra: dict | None = None) -> dict:
    """Flatten inputs and result into one emission-ready row."""
    row = {
        "workload_kind": cfg.workload_kind,
        "scenario": cfg.scenario,
        "efficiency_model": cfg.efficiency_model,
        "gamma_inverse_s": cfg.gamma_inverse_s,
        "target_metric": cfg.target_metric,
        "feasible": result.feasible,
        "power_w": result.power_w,
        "metric_achieved": result.metric_achieved,
        "per_qubit_power_w": result.per_qubit_power_w,
        "physical_qubits": result.physical_qubits,
        "t_qb_k": result.control.t_qb,
        "t_gen_k": result.control.t_gen,
        "a_total": result.control.a_total,
        "k_level": result.control.k,
        "m_compression": result.control.m,
        "diagnostic": result.diagnostic,
    }
    if cfg.workload_kind in ("rsa", "rectangular"):
        wl = cfg.workload()
        row["q_logical"] = wl.q_logical
        row["d_logical"] = wl.d_logical
    if cfg.workload_kind == "gate":
        row["magnification"] = result.magnification
    if extra:
        row.update(extra)
    return row


def sweep(cfg: RunConfig, axes: list[SweepAxis]) -> list[dict]:
    """Cartesian-product evaluation over the given axes.

    Rows come out in C order of the axis values (last axis fastest), one
    :func:`run_problem` per point, infeasible points included; each
    starts with the swept values, under the names of the fields they set,
    whichever way the keys are written, each as the point ran it: an
    integer field's value is the int the axis value rounds to.  Every
    point is checked first, in that order, then run grouped by its coarse
    grid's key, which a group builds once; a failed check or a raise stops
    the sweep with an error that names the point by the keys as written,
    and by the axis values as laid.
    """
    if not axes:
        raise ValueError("sweep needs at least one axis")
    names = [_sweep_field(axis.key) for axis in axes]
    points, groups = [], {}
    for combo in itertools.product(*(axis.values() for axis in axes)):
        point_cfg = cfg
        for name, value in zip(names, combo):
            point_cfg = point_cfg.replace(**{name: _swept_value(name, float(value))})
        where = "sweep point " + ", ".join(f"{axis.key}={float(value)!r}"
                                           for axis, value in zip(axes, combo))
        point_cfg = _at_point(where, validate, point_cfg)
        key = coarse_grid_key(point_cfg.technology(), point_cfg.grid_options(),
                              point_cfg.ft_toggles())
        groups.setdefault(key, []).append(len(points))
        points.append((combo, point_cfg, where))
    rows = {}
    for i in itertools.chain.from_iterable(groups.values()):
        combo, point_cfg, where = points[i]
        result = _at_point(where, run_problem, point_cfg)
        rows[i] = {**dict(zip(names, map(_swept_value, names, combo))),
                   **result_record(point_cfg, result)}
    return [rows[i] for i in range(len(points))]


def compare_rsa(cfg: RunConfig, n_values: list[int]) -> list[dict]:
    """Quantum-versus-classical factoring table over key sizes.

    Each row carries both machines' duration, energy, and bit-per-joule
    efficiency, plus advantage flags.  The classical baseline depends
    only on the key size; the quantum side re-optimizes per key.  Each
    key size is checked and run as :func:`sweep` runs a point, and named
    ``rsa_n=...`` in the errors.
    """
    rows = []
    for n in n_values:
        point_cfg = cfg.replace(workload_kind="rsa", rsa_n=int(n))
        where = f"rsa_n={int(n)}"
        result = _at_point(where, run_problem, _at_point(where, validate, point_cfg))
        wl = point_cfg.workload()
        t_q, e_q, eff_q = rsa_energy_summary(
            n, result, wl, point_cfg.technology(),
            steps_per_level=point_cfg.steps_per_logical_level)
        e_c, t_c = classical_energy_time(int(n))
        rows.append({
            "rsa_n": int(n),
            "q_logical": wl.q_logical,
            "d_logical": wl.d_logical,
            "feasible": result.feasible,
            "k_level": result.control.k,
            "power_w": result.power_w,
            "t_quantum_s": t_q,
            "energy_quantum_j": e_q,
            "efficiency_quantum_bit_per_j": eff_q,
            "t_classical_s": t_c,
            "energy_classical_j": e_c,
            "efficiency_classical_bit_per_j": n / e_c,
            "quantum_faster": bool(result.feasible and t_q < t_c),
            "quantum_more_efficient": bool(result.feasible and e_q < e_c),
        })
    return rows


def breakdown_records(result: OptimizationResult) -> list[dict]:
    """Per-(stage, source) rows of the optimum's power decomposition."""
    return [asdict(rec) for rec in result.per_stage]
