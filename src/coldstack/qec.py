"""Resource accounting for the concatenated 7-qubit code.

One level of encoding turns a logical qubit into 7 data qubits plus
3 groups of 28 pipelined ancillas (91 physical qubits), and each logical
gate into a fixed mix of physical gates counted by a 4x4 transfer
matrix.  Concatenation applies the matrix repeatedly, so gate counts
grow with its dominant eigenvalue (64) while qubit counts grow as 91^k.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Fault-tolerance threshold of the code.
P_THRESHOLD = 2e-5

#: Physical qubits per logical qubit per concatenation level: 7 + 3*28.
QUBIT_GROWTH = 91

#: Dominant transfer-matrix eigenvalue: physical-gate growth per level.
GATE_GROWTH = 64


def _top_level(q_logical: int) -> int:
    """The highest concatenation level at which the physical qubit count
    ``91^k * Q_L`` and the gate growth ``64^k`` stay in the float range:
    estimated by logarithms, then settled in exact integers, or for a
    float ``Q_L`` by the float product the count is."""
    q_logical = _count(q_logical)

    def fits(k: int) -> bool:
        try:
            return max(QUBIT_GROWTH**k * q_logical, GATE_GROWTH**k) <= sys.float_info.max
        except OverflowError:  # a float Q_L, and 91^k itself past the float range
            return False

    k = int(math.log(sys.float_info.max / q_logical, QUBIT_GROWTH))
    while fits(k + 1):
        k += 1
    while not fits(k):
        k -= 1
    return k


def _check_level(k, name: str = "concatenation level") -> int:
    """Raises ValueError unless the level ``k`` is a nonnegative integer,
    a Python or a numpy one; returns it as a Python int, whose powers
    cannot overflow."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"{name} must be a nonnegative integer")
    return int(k)


def _count(n):
    """The count ``n`` as it enters: a numpy integer as a Python int, whose
    products cannot overflow, and any other value, such as a float, as it
    is."""
    return int(n) if isinstance(n, np.integer) else n


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
    p, k = _checked_probability(p_err, k)
    # far from the threshold the power leaves the float range, and 0
    # and inf are its values there
    with np.errstate(over="ignore", under="ignore"):
        out = _logical_error(p, k)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _checked_probability(p_err, k: int) -> tuple:
    """``p_err`` as an array and the level ``k`` as a Python int, once
    both are checked."""
    p = np.asarray(p_err, dtype=float)
    if (p < 0).any():
        raise ValueError("error probability must be nonnegative")
    return p, _check_level(k)


def _logical_error(p: np.ndarray, k: int):
    """:func:`logical_error_probability` of the array ``p`` without the
    input checks or an error state of its own: its callers hold one."""
    return P_THRESHOLD * (p / P_THRESHOLD) ** (2**k)


def physical_qubits(q_logical: int, k: int) -> int:
    """Physical qubits implementing ``q_logical`` logical qubits at level k."""
    if q_logical < 0:
        raise ValueError("counts must be nonnegative")
    return QUBIT_GROWTH**_check_level(k) * _count(q_logical)


def _matrix_power_apply(vec: tuple, k: int) -> tuple:
    out = [Fraction(v) for v in vec]
    for _ in range(k):
        out = [sum(TRANSFER_MATRIX[i][j] * out[j] for j in range(4)) for i in range(4)]
    return tuple(out)


def physical_gate_counts_fractions(logical: LogicalGateCounts, k: int) -> tuple:
    """Exact physical counts in parallel as Fractions: transfer matrix to
    the k-th power applied to the logical mix.  Exact for any k."""
    _check_level(k)
    vec = tuple(Fraction(x) for x in logical.as_tuple())
    return _matrix_power_apply(vec, k)


def physical_gate_counts_rectangular(q_logical: float, k: int) -> tuple:
    """Approximate physical counts for a rectangular circuit.

    ``(64, 28, 29, 28)/185 * 64^k * Q_L`` for (2qb, 1qb, id, meas):
    the dominant-eigenvector mix, good to <25% at k=1 and <1% for k>=2.
    """
    scale = GATE_GROWTH**_check_level(k) * _count(q_logical)
    return tuple(float(c) * scale for c in RECTANGULAR_MIX)


def measurement_fraction(k: int) -> float:
    """Physical measurements in parallel per physical qubit, level k."""
    _check_level(k)
    return float(RECTANGULAR_MIX[3]) * (GATE_GROWTH / QUBIT_GROWTH) ** k


def ft_metric(p_err, k: int, q_logical: float, d_logical: float,
              linear: bool = True):
    """Success probability of a rectangular logical circuit, elementwise
    over ``p_err``.

    The exact form is ``(1 - p_L)^(Q_L*D_L)``; the linear form
    ``1 - Q_L*D_L*p_L`` (clamped at 0) slightly overestimates the effect
    of errors, so it never exceeds the exact form.
    """
    n_locations = _count(q_logical) * _count(d_logical)
    if n_locations < 0:
        raise ValueError("circuit size must be nonnegative")
    out = _ft_metric(*_checked_probability(p_err, k), n_locations, linear)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _ft_metric(p, k: int, n_locations: float, linear: bool):
    """:func:`ft_metric` of ``p`` (an array, or a float, which it takes as
    a 0-d array) on ``n_locations`` logical locations, without the input
    checks, for the optimizer, whose error probabilities are clamped to
    [0, 1]."""
    p = np.asarray(p, dtype=float)
    # far from the threshold the logical error probability leaves the
    # float range, and 0 and inf are its values there; far above it the
    # expected error count overflows and the metric is 0; far below, a
    # vanishing success probability rounds to 0
    with np.errstate(over="ignore", under="ignore"):
        p_l = _logical_error(p, k)
        if linear:
            return np.maximum(0.0, 1.0 - n_locations * p_l)
        # log1p avoids the cancellation in (1 - p_l) for tiny p_l
        survivable = p_l < 1.0
        log_term = np.log1p(-np.where(survivable, p_l, 0.0))
        return np.where(survivable, np.exp(n_locations * log_term), 0.0)


def ft_error_budget(target: float, k: int, q_logical: float, d_logical: float,
                    linear: bool = True) -> float:
    """Physical error probability at which :func:`ft_metric` equals
    ``target`` in (0, 1): its inverse, in closed form.

    The logical budget is ``(1 - M)/(Q_L*D_L)`` for the linear form and
    ``-expm1(ln M / (Q_L*D_L))`` for the exact one; undoing the
    concatenation gives ``p_thr * (p_L/p_thr)^(2^-k)``.
    """
    _check_level(k)
    n_locations = _count(q_logical) * _count(d_logical)
    if linear:
        p_l = (1.0 - target) / n_locations
    else:
        p_l = -math.expm1(math.log(target) / n_locations)
    return P_THRESHOLD * (p_l / P_THRESHOLD) ** (2.0**-k)


def transfer_matrix_floats() -> np.ndarray:
    """Transfer matrix as a float array (for spectral checks)."""
    return np.array([[float(x) for x in row] for row in TRANSFER_MATRIX])
