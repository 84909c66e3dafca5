"""Glue between configurations and the optimization engines: problem
dispatch, Cartesian parameter sweeps, and the quantum-versus-classical
factoring comparison."""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import FIELD_TYPES, ConfigError, RunConfig, validate
from .optimize import (
    OptimizationResult,
    optimize_ft,
    optimize_nisq,
    optimize_single_qubit,
    rsa_energy_summary,
)
from .workloads import classical_energy_time


@dataclass(frozen=True)
class SweepAxis:
    """One swept configuration field: ``key=start:stop:points[:log]``."""

    key: str
    start: float
    stop: float
    points: int
    log: bool = False

    def values(self) -> np.ndarray:
        if self.points < 1:
            raise ValueError(f"axis {self.key}: need at least one point")
        if self.points == 1:
            return np.array([self.start])
        if self.log:
            if self.start <= 0 or self.stop <= 0:
                raise ValueError(f"axis {self.key}: log axes need positive bounds")
            return np.logspace(math.log10(self.start), math.log10(self.stop),
                               self.points)
        return np.linspace(self.start, self.stop, self.points)

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


def _override(cfg: RunConfig, key: str, value: float) -> RunConfig:
    kind = FIELD_TYPES.get(key)
    if kind is None:
        raise ValueError(f"unknown sweep key {key!r}")
    if kind in ("str", "bool"):
        raise ValueError(f"sweep key {key!r} is not numeric")
    if kind == "int" and math.isfinite(value):
        value = int(round(value))
    return cfg.replace(**{key: value})


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
    :func:`run_problem` per point, infeasible points included.  Each point
    is checked first, as :func:`~coldstack.config.load_config` checks a
    file.  A point that fails the check or raises stops the sweep with an
    exception of the same type whose message names the point.
    """
    if not axes:
        raise ValueError("sweep needs at least one axis")
    grids = [axis.values() for axis in axes]
    rows = []
    for combo in itertools.product(*grids):
        point_cfg = cfg
        for axis, value in zip(axes, combo):
            point_cfg = _override(point_cfg, axis.key, float(value))
        where = ", ".join(f"{axis.key}={float(value)!r}" for axis, value in zip(axes, combo))
        try:
            result = run_problem(validate(point_cfg))
        except ConfigError as exc:
            raise ConfigError([f"sweep point {where}: {p}" for p in exc.problems]) from exc
        except Exception as exc:
            raise type(exc)(f"sweep point {where}: {exc}") from exc
        row = {axis.key: value for axis, value in zip(axes, combo)}
        row.update(result_record(point_cfg, result))
        rows.append(row)
    return rows


def compare_rsa(cfg: RunConfig, n_values: list[int]) -> list[dict]:
    """Quantum-versus-classical factoring table over key sizes.

    Each row carries both machines' duration, energy, and bit-per-joule
    efficiency, plus advantage flags.  The classical baseline depends
    only on the key size; the quantum side re-optimizes per key.  Each
    key size is checked first, as :func:`sweep` checks each point.
    """
    rows = []
    for n in n_values:
        point_cfg = cfg.replace(workload_kind="rsa", rsa_n=int(n))
        try:
            validate(point_cfg)
        except ConfigError as exc:
            raise ConfigError([f"rsa_n={int(n)}: {p}" for p in exc.problems]) from exc
        wl = point_cfg.workload()
        result = run_problem(point_cfg)
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
