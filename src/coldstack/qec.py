"""Resource accounting for the concatenated 7-qubit code.

One level of encoding turns a logical qubit into 7 data qubits plus
3 groups of 28 pipelined ancillas (91 physical qubits), and each logical
gate into a fixed mix of physical gates counted by a 4x4 transfer
matrix.  Concatenation applies the matrix repeatedly, so gate counts
grow with its dominant eigenvalue (64) while qubit counts grow as 91^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Fault-tolerance threshold of the code.
P_THRESHOLD = 2e-5

#: Physical qubits per logical qubit per concatenation level: 7 + 3*28.
QUBIT_GROWTH = 91

#: Dominant transfer-matrix eigenvalue: physical-gate growth per level.
GATE_GROWTH = 64

#: Per-level transfer matrix mapping logical (2qb, 1qb, id, meas) counts
#: in parallel to physical ones.  The 1/3 spreads each logical gate over
#: its three data time-steps.
TRANSFER_MATRIX = tuple(
    tuple(Fraction(n, 3) for n in row)
    for row in ((135, 64, 64, 0), (56, 35, 28, 0), (58, 29, 36, 0), (56, 28, 28, 7))
)

#: Stationary mix of physical elements for a rectangular circuit, as
#: fractions of 64^k * Q_L: (2qb, 1qb, id, meas).  2*64 + 28 + 29 = 185.
RECTANGULAR_MIX = (
    Fraction(64, 185), Fraction(28, 185), Fraction(29, 185), Fraction(28, 185),
)


@dataclass(frozen=True)
class LogicalGateCounts:
    """Logical gates in parallel at one time-step: (2qb, 1qb, id, meas)."""

    n_2qb: float
    n_1qb: float
    n_id: float
    n_meas: float

    def __post_init__(self) -> None:
        if min(self.n_2qb, self.n_1qb, self.n_id, self.n_meas) < 0:
            raise ValueError("gate counts must be nonnegative")

    def as_tuple(self) -> tuple:
        return (self.n_2qb, self.n_1qb, self.n_id, self.n_meas)


def logical_error_probability(p_err, k: int):
    """Error probability per logical qubit per logical step at level ``k``.

    ``p_thr * (p_err/p_thr)^(2^k)`` with ``p_thr = P_THRESHOLD``; equals
    ``p_err`` at k = 0 and has ``p_thr`` as its fixed point.
    """
    p = np.asarray(p_err, dtype=float)
    if np.any(p < 0):
        raise ValueError("error probability must be nonnegative")
    if k < 0:
        raise ValueError("concatenation level must be a nonnegative integer")
    # far from the threshold the power leaves the float range, and 0
    # and inf are its values there
    with np.errstate(over="ignore", under="ignore"):
        out = P_THRESHOLD * (p / P_THRESHOLD) ** (2**k)
    if np.ndim(out) == 0:
        return float(out)
    return out


def physical_qubits(q_logical: int, k: int) -> int:
    """Physical qubits implementing ``q_logical`` logical qubits at level k."""
    if q_logical < 0 or k < 0:
        raise ValueError("counts must be nonnegative")
    return QUBIT_GROWTH**k * q_logical


def _matrix_power_apply(vec: tuple, k: int) -> tuple:
    out = [Fraction(v) for v in vec]
    for _ in range(k):
        out = [sum(TRANSFER_MATRIX[i][j] * out[j] for j in range(4)) for i in range(4)]
    return tuple(out)


def physical_gate_counts_fractions(logical: LogicalGateCounts, k: int) -> tuple:
    """Exact physical counts in parallel as Fractions: transfer matrix to
    the k-th power applied to the logical mix.  Exact for any k."""
    if k < 0:
        raise ValueError("concatenation level must be a nonnegative integer")
    vec = tuple(Fraction(x) for x in logical.as_tuple())
    return _matrix_power_apply(vec, k)


def physical_gate_counts_rectangular(q_logical: float, k: int) -> tuple:
    """Approximate physical counts for a rectangular circuit.

    ``(64, 28, 29, 28)/185 * 64^k * Q_L`` for (2qb, 1qb, id, meas):
    the dominant-eigenvector mix, good to <25% at k=1 and <1% for k>=2.
    """
    if k < 0:
        raise ValueError("concatenation level must be a nonnegative integer")
    scale = GATE_GROWTH**k * q_logical
    return tuple(float(c) * scale for c in RECTANGULAR_MIX)


def measurement_fraction(k: int) -> float:
    """Physical measurements in parallel per physical qubit, level k."""
    return float(RECTANGULAR_MIX[3]) * (GATE_GROWTH / QUBIT_GROWTH) ** k


def ft_metric(p_err, k: int, q_logical: float, d_logical: float,
              linear: bool = True):
    """Success probability of a rectangular logical circuit, elementwise
    over ``p_err``.

    The exact form is ``(1 - p_L)^(Q_L*D_L)``; the linear form
    ``1 - Q_L*D_L*p_L`` (clamped at 0) slightly overestimates the effect
    of errors, so it never exceeds the exact form.
    """
    n_locations = q_logical * d_logical
    if n_locations < 0:
        raise ValueError("circuit size must be nonnegative")
    p_l = logical_error_probability(p_err, k)
    # far above the threshold the expected error count overflows and the
    # metric is 0; far below, a vanishing success probability rounds to 0
    with np.errstate(over="ignore", under="ignore"):
        if linear:
            out = np.maximum(0.0, 1.0 - n_locations * p_l)
        else:
            # log1p avoids the cancellation in (1 - p_l) for tiny p_l
            survivable = p_l < 1.0
            log_term = np.log1p(-np.where(survivable, p_l, 0.0))
            out = np.where(survivable, np.exp(n_locations * log_term), 0.0)
    if np.ndim(out) == 0:
        return float(out)
    return out


def ft_error_budget(target: float, k: int, q_logical: float, d_logical: float,
                    linear: bool = True) -> float:
    """Physical error probability at which :func:`ft_metric` equals
    ``target`` in (0, 1): its inverse, in closed form.

    The logical budget is ``(1 - M)/(Q_L*D_L)`` for the linear form and
    ``-expm1(ln M / (Q_L*D_L))`` for the exact one; undoing the
    concatenation gives ``p_thr * (p_L/p_thr)^(2^-k)``.
    """
    n_locations = q_logical * d_logical
    if linear:
        p_l = (1.0 - target) / n_locations
    else:
        p_l = -math.expm1(math.log(target) / n_locations)
    return P_THRESHOLD * (p_l / P_THRESHOLD) ** (2.0**-k)


def transfer_matrix_floats() -> np.ndarray:
    """Transfer matrix as a float array (for spectral checks)."""
    return np.array([[float(x) for x in row] for row in TRANSFER_MATRIX])
