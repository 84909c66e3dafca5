"""Workload generators: rectangular circuits, RSA factoring resource
formulas, the compressible all-to-all circuit, and the classical
number-field-sieve baseline."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

#: Classical baseline anchors: energy and wall time of the record
#: 830-bit factorization, extrapolated by operation count.
GNFS_ANCHOR_BITS = 830
GNFS_ANCHOR_ENERGY_J = 1e12
GNFS_ANCHOR_TIME_S = 8.5 * 86400.0


@dataclass(frozen=True)
class Workload:
    """Rectangular logical workload: Q_L qubits held for D_L steps."""

    q_logical: int
    d_logical: int
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("q_logical", "d_logical"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))  # a numpy integer as int
        if self.q_logical < 1 or self.d_logical < 1:
            raise ValueError("workload dimensions must be >= 1")
        if self.n_locations > sys.float_info.max:
            raise ValueError("workload too large: Q_L * D_L exceeds the float range")

    @property
    def n_locations(self) -> int:
        """Number of logical error locations, Q_L * D_L."""
        return self.q_logical * self.d_logical


def rsa_workload(n: int, variant: str = "gidney", log_base: float = 2.0) -> Workload:
    """Logical resources of the quantum factoring of an n-bit RSA key.

    ``gidney``: Q_L = 3n + 0.002 n log n, D_L = (500 + log n) n^2.
    ``haner``:  Q_L = 2n + 2,            D_L = 52 n^3.
    Fractional results round up.  ``log_base`` selects log2 (default)
    or natural log in the gidney formulas; the published headline
    figures are consistent with the natural log.
    """
    if n < 16:
        raise ValueError("key size must be at least 16 bits")
    if n > sys.float_info.max ** (1 / 3):  # n^3 is below Q_L*D_L in both variants
        raise ValueError("key size too large: Q_L * D_L exceeds the float range")
    if variant == "gidney":
        log_n = math.log(n, log_base)
        q = math.ceil(3 * n + 0.002 * n * log_n)
        d = math.ceil(500 * n**2 + n**2 * log_n)
    elif variant == "haner":
        q = 2 * n + 2
        d = math.ceil(52 * n**3)
    else:
        raise ValueError(f"unknown RSA variant {variant!r}")
    return Workload(q, d, label=f"rsa-{n}-{variant}")


def _check_circuit(q: int, m: int) -> tuple[int, int]:
    """``(q, m)`` as Python ints; raises ValueError unless they are
    integers, Python or numpy, and the circuit on ``q`` qubits has the
    compression ``m``."""
    for name, value in (("qubit count", q), ("compression count", m)):
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"the {name} must be an integer")
    q, m = int(q), int(m)  # a numpy integer as int
    if q < 3:
        raise ValueError("circuit needs at least 3 qubits")
    if not (0 <= m <= q - 3):
        raise ValueError("compression count must lie in [0, Q-3]")
    return q, m


def _gate_totals(q: int, m):
    """The depth and the two-qubit, one-qubit and id gate totals of the
    circuit on ``q`` qubits at compression ``m``, elementwise over ``m``
    (an int or an integer array), which it does not check."""
    d0 = q * (q - 1) / 2.0
    dmin = 2.0 * q - 3.0
    # at q = 3 no sub-circuit is compressible, and d0 = dmin
    depth = d0 - m * (d0 - dmin) / max(q - 3, 1)
    n2 = q * (q - 1) // 2
    return depth, n2, 0, q * depth - 2 * n2


def _weighted_gates(n_id, n_1qb, n_2qb):
    """Error-weighted gate count: ids + 1qb + twice the 2qb gates."""
    return n_id + n_1qb + 2 * n_2qb


def _average_power(p_1qb, n_1qb_avg, n_2qb_avg):
    """Average power over a circuit of these per-step gate averages, a
    two-qubit gate at a quarter of the one-qubit power ``p_1qb``."""
    return p_1qb * n_1qb_avg + 0.25 * p_1qb * n_2qb_avg


@dataclass(frozen=True)
class NisqCircuit:
    """All-to-all two-qubit circuit with adjustable compression.

    ``q`` qubits, one sub-circuit per qubit pairing it with every qubit
    below, Q(Q-1)/2 two-qubit gates in total.  ``m`` of the Q-3
    compressible sub-circuits are partially parallelized; the depth
    interpolates linearly from the fully sequential Q(Q-1)/2 down to
    2Q-3 at maximum compression.  Idle qubit-slots are id gates.
    """

    q: int
    m: int
    depth: float = field(init=False)
    n_2qb_total: int = field(init=False)
    n_1qb_total: int = field(init=False)
    n_id_total: float = field(init=False)

    def __post_init__(self) -> None:
        q, m = _check_circuit(self.q, self.m)
        for name, value in zip(("q", "m", "depth", "n_2qb_total", "n_1qb_total", "n_id_total"),
                               (q, m, *_gate_totals(q, m))):
            object.__setattr__(self, name, value)

    @property
    def epsilon(self) -> float:
        """Compression parameter, m / (Q-1)."""
        return self.m / (self.q - 1)

    @property
    def n_gates_weighted(self) -> float:
        """Error-weighted gate count: ids + 1qb + twice the 2qb gates."""
        return _weighted_gates(self.n_id_total, self.n_1qb_total, self.n_2qb_total)

    @property
    def n_2qb_avg(self) -> float:
        """Average two-qubit gates running in parallel per step."""
        return self.n_2qb_total / self.depth

    @property
    def n_1qb_avg(self) -> float:
        return self.n_1qb_total / self.depth


def nisq_circuit(q: int, m: int) -> NisqCircuit:
    """Build the compressible circuit on ``q`` qubits with ``m`` merged
    sub-circuits."""
    return NisqCircuit(q, m)


def compression_costs(q: int, m):
    """The error-weighted gate count and the average power per unit gate
    power of the circuit on ``q`` qubits at each compression ``m``,
    elementwise over ``m`` (an integer array), which it does not check:
    ``NisqCircuit(q, m).n_gates_weighted`` and ``nisq_power(NisqCircuit(q,
    m), 1.0)``, by the same formulas, so each entry has their bits."""
    depth, n_2qb, n_1qb, n_id = _gate_totals(q, m)
    return _weighted_gates(n_id, n_1qb, n_2qb), _average_power(1.0, n_1qb / depth,
                                                              n_2qb / depth)


def nisq_metric(weight, if_1qb):
    """Circuit fidelity metric: 1 minus the summed gate infidelities.

    ``weight`` is the circuit's error-weighted gate count,
    ``NisqCircuit.n_gates_weighted``, in which two-qubit gates count
    twice (noise acts on both qubits); clamped at zero once the budget is
    exhausted.  Elementwise over ``weight`` (a scalar or one entry per
    compression) and ``if_1qb``; it checks no input.
    :func:`~coldstack.optimize.optimize_nisq` constrains this metric.
    """
    return np.maximum(0.0, 1.0 - weight * if_1qb)


def nisq_power(circuit: NisqCircuit, p_1qb: float) -> float:
    """Average cryo-power over the circuit (W).

    Per-step averages of the gate counts times the per-gate powers; a
    two-qubit gate runs at a quarter of the one-qubit cryo-power and id
    gates are free.
    """
    if p_1qb < 0:
        raise ValueError("gate power must be nonnegative")
    return _average_power(p_1qb, circuit.n_1qb_avg, circuit.n_2qb_avg)


def gnfs_operations(n: int) -> float:
    """Operation count of the general number field sieve for an n-bit key.

    ``exp[(64/9 * n ln2 * (ln(n ln2))^2)^(1/3)]`` with the subleading
    1+o(1) factor set to 1; ``inf`` where that leaves the float range.
    """
    if n < 2:
        raise ValueError("key size must be at least 2 bits")
    ln_n2 = math.log(n * math.log(2.0))
    try:
        return math.exp((64.0 * n * math.log(2.0) / 9.0 * ln_n2**2) ** (1.0 / 3.0))
    except OverflowError:
        return math.inf


def classical_energy_time(n: int) -> tuple[float, float]:
    """Energy (J) and wall time (s) of the classical factoring baseline.

    Scales the 830-bit record by the GNFS operation count; the wall
    time assumes full parallelization on the reference machine, which
    underestimates it.  Both are ``inf`` where the operation count
    leaves the float range.
    """
    ratio = gnfs_operations(n) / gnfs_operations(GNFS_ANCHOR_BITS)
    return GNFS_ANCHOR_ENERGY_J * ratio, GNFS_ANCHOR_TIME_S * ratio
