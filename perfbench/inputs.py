"""Operation lists of the three workloads, made from a seed.

Every seed gives the same mix: the same operation kinds, hardware sets,
key sizes and circuit sizes in the same proportions, so the cost of a
round does not depend on the seed.  The seed moves only what leaves the
amount of work alone: the order of the qubit-quality sweep after its
first point, the cable geometry of each factoring row, and a small
jitter of each NISQ and gate operation around its design point.

Each operation carries its inputs twice: as ``params`` for the
independent checks and as configuration-file text for
``coldstack.config.load_config``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("ft-qubit-quality", "rsa-wiring", "nisq-compression")

#: The README sweep ``gamma_inverse_s=0.003:1:15:log``, expanded as
#: ``coldstack sweep`` expands a log axis.
FT_GAMMA_INVERSE_S = tuple(float(g) for g in np.logspace(math.log10(0.003), 0.0, 15))
#: (electronics scenario, cryostat efficiency model) pairs of the sweep.
FT_HARDWARE = (("A", "carnot"), ("C", "small_scale"))

#: Key sizes of ``coldstack compare-rsa``'s default ``--n 512:4096:8:log``.
RSA_KEY_BITS = tuple(sorted({int(round(v)) for v in
                             np.logspace(math.log10(512), math.log10(4096), 8)}))
#: Scenario B puts the optimal generation stage between 30 and 90 K.  With
#: scenario A it sits on the 300 K bound, where the stage layout's rounding
#: fault fails a seed-dependent share of rows (see CHANGES.md).
RSA_HARDWARE = ("B", "carnot")

#: Circuit sizes of one NISQ block; the first is the CLI default.
NISQ_QUBITS = (25, 12, 40, 16, 32, 20, 36, 28)
NISQ_BLOCKS = 2
#: Single-gate operations per NISQ block.
GATES_PER_BLOCK = 2
#: Half-width of the seeded jitter, as a share of each design range.
JITTER = 0.01

_SECTIONS = {
    "gamma_inverse_s": ("technology", "gamma_inverse_s"),
    "scenario": ("scenario", "name"),
    "efficiency": ("efficiency", "model"),
    "cable_length_m": ("cable", "length_m"),
    "control_lines_per_qubit": ("cable", "control_lines_per_qubit"),
    "readout_lines_per_qubit": ("cable", "readout_lines_per_qubit"),
    "kind": ("workload", "kind"),
    "rsa_n": ("workload", "rsa_n"),
    "nisq_qubits": ("workload", "nisq_qubits"),
    "target": ("target", "metric"),
}


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` is ft | rsa | nisq | gate."""

    id: str
    kind: str
    params: dict

    @property
    def text(self) -> str:
        """The operation's configuration file."""
        sections: dict[str, list[str]] = {}
        for key, value in self.params.items():
            section, name = _SECTIONS[key]
            shown = repr(value) if isinstance(value, float) else str(value)
            sections.setdefault(section, []).append(f"{name} = {shown}\n")
        return "".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items())


def make_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(seed)
    if workload == "ft-qubit-quality":
        return _ft_ops(rng)
    if workload == "rsa-wiring":
        return _rsa_ops(rng)
    if workload == "nisq-compression":
        return _nisq_ops(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _ft_ops(rng: random.Random) -> list[Op]:
    ops = [
        Op(f"{scen}-{eff}/point{i + 1:02d}", "ft",
           {"kind": "rsa", "rsa_n": 2048, "gamma_inverse_s": g, "scenario": scen,
            "efficiency": eff, "target": 2.0 / 3.0})
        for scen, eff in FT_HARDWARE
        for i, g in enumerate(FT_GAMMA_INVERSE_S)
    ]
    # the sweep's first point stays first, so first_result_s is one fixed
    # operation on every seed
    rest = ops[1:]
    rng.shuffle(rest)
    return ops[:1] + rest


def _rsa_ops(rng: random.Random) -> list[Op]:
    scen, eff = RSA_HARDWARE
    return [
        Op(f"rsa-{n}", "rsa",
           {"kind": "rsa", "rsa_n": n, "scenario": scen, "efficiency": eff,
            "cable_length_m": rng.uniform(0.5, 2.0),
            "control_lines_per_qubit": 1.0 / rng.uniform(10.0, 50.0),
            "readout_lines_per_qubit": 1.0 / rng.uniform(50.0, 200.0),
            "target": 2.0 / 3.0})
        for n in RSA_KEY_BITS
    ]


def _design(j: int, step: float, rng: random.Random) -> float:
    """Point j of a low-discrepancy sequence on [0, 1], jittered by the seed."""
    u = (0.5 + j * step) % 1.0
    return min(1.0, max(0.0, u + rng.uniform(-JITTER, JITTER)))


def _nisq_ops(rng: random.Random) -> list[Op]:
    ops = []
    j = 0
    for block in range(NISQ_BLOCKS):
        for q in NISQ_QUBITS:
            # lifetimes 1-10 ms and targets 0.5-0.8 keep the attenuation
            # above 1 at every compression, so the constraint is active
            g = 1e-3 * 10.0 ** _design(j, 0.6180339887, rng)
            target = 0.5 + 0.3 * _design(j, 0.7548776662, rng)
            ops.append(Op(f"nisq-q{q}/{j:02d}", "nisq",
                          {"kind": "nisq", "nisq_qubits": q, "gamma_inverse_s": g,
                           "target": target}))
            j += 1
        for i in range(GATES_PER_BLOCK):
            g = 1e-3 * 10.0 ** _design(j, 0.6180339887, rng)
            target = 1.0 - 10.0 ** (-3.0 - _design(j, 0.7548776662, rng))
            ops.append(Op(f"gate/{j:02d}", "gate",
                          {"kind": "gate", "gamma_inverse_s": g, "target": target}))
            j += 1
    return ops
