"""Closed-form noise and drive-power model of a resonantly driven qubit.

The model couples a two-level system to a microwave drive line with
spontaneous emission rate ``gamma``.  Thermal photons leaking down the
drive line raise the gate error; attenuators thermalize the line noise
toward the cold-stage temperature.  Everything here is a pure function
of its inputs, so concurrent use is safe.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

#: Reduced Planck (J*s) and Boltzmann (J/K) constants, exact SI values.
HBAR = 6.62607015e-34 / (2.0 * np.pi)
K_B = 1.380649e-23

#: The domain of a qubit generation: frequencies, lifetimes 1/gamma and durations.
FREQUENCY_RANGE_HZ = (1e6, 1e13)
LIFETIME_RANGE_S = (1e-9, 1e12)
DURATION_RANGE_S = (1e-15, 1e6)


def check_range(name: str, value: float, bounds: tuple) -> None:
    """Raises ValueError unless ``value`` (not NaN) lies in the closed range ``bounds``."""
    if not bounds[0] <= value <= bounds[1]:
        raise ValueError(f"{name} must lie in [{bounds[0]:g}, {bounds[1]:g}]")


# Above this value of (hbar*omega0)/(k_B*T) the occupancy underflows to
# well below 1e-300; returning 0 avoids overflow in expm1.
_EXPONENT_CLAMP = 700.0


@dataclass(frozen=True)
class QubitTechnology:
    """Physical constants of a qubit generation.

    Durations are in seconds; ``omega0`` is the angular transition
    frequency in rad/s and ``gamma`` the spontaneous emission rate into
    the drive line in 1/s.  The machine clock period is set by the
    slowest operation.  Each field lies in the module's domain.
    """

    omega0: float
    gamma: float
    tau_1qb: float = 25e-9
    tau_2qb: float = 100e-9
    tau_meas: float = 100e-9

    def __post_init__(self) -> None:
        check_range("omega0", self.omega0, tuple(2.0 * np.pi * f for f in FREQUENCY_RANGE_HZ))
        check_range("1 / gamma", 1.0 / self.gamma if self.gamma else np.inf, LIFETIME_RANGE_S)
        for name in ("tau_1qb", "tau_2qb", "tau_meas"):
            check_range(name, getattr(self, name), DURATION_RANGE_S)

    @property
    def tau_step(self) -> float:
        """Clock period: the duration of the slowest operation."""
        return max(self.tau_1qb, self.tau_2qb, self.tau_meas)


def pi_pulse_power(tech: QubitTechnology, tau: float) -> float:
    """Average microwave power consumed by a pi-pulse of duration ``tau``.

    Equals ``hbar*omega0*pi^2 / (4*gamma*tau^2)``, the power whose Rabi
    frequency ``Omega = sqrt(4*gamma*P/(hbar*omega0))`` is ``pi/tau``:
    faster gates and better-isolated qubits (smaller gamma) need
    stronger drives.  ``tau`` must lie in ``DURATION_RANGE_S``; on the
    domain ``4*gamma*tau^2`` lies in [4e-42, 4e21] and the power in
    [1e-48, 2e22] W.  It runs as written, as another order (such as
    dividing by gamma last) moves the last bit of a third of all drive
    powers and results.
    """
    check_range("pulse duration", tau, DURATION_RANGE_S)
    return HBAR * tech.omega0 * np.pi**2 / (4.0 * tech.gamma * tau**2)


def bose_einstein(temperature, omega0: float):
    """Mean thermal photon number at ``temperature`` and frequency ``omega0``.

    Accepts scalars or arrays.  Returns exactly 0 at T = 0 and for
    temperatures so low that the exponent exceeds the overflow clamp.
    """
    t = np.asarray(temperature, dtype=float)
    if (t < 0).any():
        raise ValueError("temperature must be nonnegative")
    occ = _bose_einstein(t, omega0)
    if occ.ndim == 0:
        return float(occ)
    return occ


def _bose_einstein(t: np.ndarray, omega0: float) -> np.ndarray:
    """:func:`bose_einstein` without the input check, for the optimizer,
    which calls it on arrays of temperatures it laid out itself."""
    positive = t > 0
    with np.errstate(divide="ignore", over="ignore"):
        x = np.where(positive, HBAR * omega0 / (K_B * np.where(positive, t, 1.0)), np.inf)
    return np.where(x >= _EXPONENT_CLAMP, 0.0, 1.0 / np.expm1(np.minimum(x, _EXPONENT_CLAMP)))


def single_attenuator_occupancy(attenuation, t_qubit, t_external, omega0: float):
    """Occupancy seen by the qubit behind one attenuator at the cold stage.

    A fraction ``1/A`` of the external thermal noise leaks through; the
    rest is re-emitted at the attenuator (qubit-stage) temperature: the
    one-attenuator case of :func:`chain_occupancy`.
    """
    a = np.asarray(attenuation, dtype=float)
    if (a < 1).any():
        raise ValueError("attenuation must be >= 1 (natural units)")
    n_cold = bose_einstein(t_qubit, omega0)
    out = chain_occupancy(n_cold, (bose_einstein(t_external, omega0) - n_cold,), 1.0 / a)
    if np.ndim(out) == 0:
        return float(out)
    return out


def chain_occupancy(n_cold, n_rise, transmission):
    """Occupancy at the qubit behind K-1 equal attenuators.

    ``n_cold`` is the thermal occupancy of the qubit stage, and
    ``n_rise`` holds, cold to hot along axis 0, the rise ``n_{i+1} -
    n_i`` of the occupancy from each stage to the next.
    ``transmission`` is the power transmission of one attenuator,
    ``A_total^(-1/(K-1))``.  Each attenuator re-emits at its own stage's
    temperature, so the rise into stage i+1 reaches the qubit through i
    attenuators: ``n_cold + sum_i n_rise_i * transmission^i`` for
    i = 1..K-1.  Elementwise over any grid and evaluated by Horner's
    rule, one add and one multiply per attenuator; it checks no input,
    because the optimizer calls it on whole grids of validated chains.
    :func:`chain_transmission` is its inverse in the transmission.
    """
    leak = 0.0
    for rise in n_rise[::-1]:
        leak = (leak + rise) * transmission
    return n_cold + leak


#: Newton steps of :func:`chain_transmission` at the most, and the
#: relative step, a few ulps, below which it stops.
_NEWTON_STEPS = 64
_NEWTON_RTOL = 4.0 * sys.float_info.epsilon


def chain_transmission(n_rise, excess, t_min: float, t_max: float):
    """Transmission per attenuator at which the chain's thermal leak
    ``sum_i n_rise_i * t^i`` (i = 1..K-1, as in :func:`chain_occupancy`)
    equals ``excess``, clipped to [t_min, t_max].

    Elementwise over the chains along the further axes of ``n_rise``.
    The rises are nonnegative, so the leak is increasing and convex in
    t, and Newton's method started above the root falls monotonically
    onto it.  The start is the least of ``t_max`` and the bounds
    ``(excess / n_rise_i)^(1/i)`` that each term alone sets; a rise of
    exactly 0 (stages cold enough for the occupancy to vanish) sets
    none.  With one attenuator that bound is the root itself, so the
    first step confirms it; longer chains take a few steps more.  Each
    chain stops once its own step is at most a few ulps, and after
    ``_NEWTON_STEPS`` at the most, so a chain ends on the same bits
    whatever batch it is solved in.  A chain whose iterate is NaN (an
    excess <= 0 can set a NaN start) stays NaN, and stops at once.  A
    chain that starts at ``t_max`` and would step up from it has its
    root above ``t_max``, and stops there at once.

    The leak is ``t h(t)`` and its slope ``h + t h'``, both by Horner's
    rule on h from the top rise down.  Its first step is exact, so it is
    not computed: ``h = top`` and ``h' = 0``.  The next, ``h' = 0 t +
    top``, is computed, so that an iterate that overflowed to inf makes
    the slope NaN and stays, as in the recurrence from 0: every chain
    takes its iterates.
    """
    n_rise = np.asarray(n_rise, dtype=float)
    excess = np.asarray(excess, dtype=float)
    t = np.full(excess.shape, float(t_max))
    for i, rise in enumerate(n_rise, start=1):
        bound = np.divide(excess, rise, out=np.full(excess.shape, np.inf), where=rise > 0)
        t = np.minimum(t, bound ** (1.0 / i))
    top, *rest = n_rise[::-1]
    todo = np.ones(t.shape, bool)
    for n in range(_NEWTON_STEPS):
        h, dh = top, 0.0
        for rise in rest:
            dh = dh * t + h
            h = h * t + rise
        slope = h + t * dh
        step = np.divide(t * h - excess, slope, out=np.zeros(t.shape), where=(slope > 0) & todo)
        if n == 0:  # a step up from t_max: the root lies above, and the chain stays
            step[(step < 0.0) & (t == t_max)] = 0.0
        t -= step
        todo &= np.abs(step) > _NEWTON_RTOL * t
        if not todo.any():
            break
    return np.minimum(np.maximum(t, t_min), t_max)


def worst_case_infidelity_1qb(tech: QubitTechnology, n_noise):
    """Worst-case single-gate infidelity ``gamma*tau_1qb*(1 + n_noise)``.

    First order in the number of spontaneous events during the gate; the
    worst-case input is the excited state.  The gate metric is
    ``1 - infidelity``.
    """
    n = np.asarray(n_noise, dtype=float)
    if (n < 0).any():
        raise ValueError("occupancy must be nonnegative")
    out = _infidelity(tech, n)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _infidelity(tech: QubitTechnology, n_noise):
    """:func:`worst_case_infidelity_1qb` without the input check, for the
    optimizer's boundary solve."""
    return tech.gamma * tech.tau_1qb * (1.0 + n_noise)


def _infidelity_occupancy(tech: QubitTechnology, infidelity: np.ndarray) -> np.ndarray:
    """Occupancies at which the worst-case infidelity (at most 1) equals
    ``infidelity``: the inverse of :func:`worst_case_infidelity_1qb`, of
    rate ``gamma*tau_1qb >= 1e-27`` on the domain."""
    return infidelity / (tech.gamma * tech.tau_1qb) - 1.0


def pauli_error_probability(tech: QubitTechnology, n_noise):
    """Worst-case Pauli error probability per qubit per clock step.

    ``(gamma*tau_step/2) * (1/2 + n_noise)``, clamped to [0, 1]: the
    linearized formula can exceed 1 for absurd inputs, as for occupancies
    far beyond any the model's domain gives, whose product overflows."""
    n = np.asarray(n_noise, dtype=float)
    if (n < 0).any():
        raise ValueError("occupancy must be nonnegative")
    with np.errstate(over="ignore"):
        p = _pauli_error(tech, n)
    return float(p) if p.ndim == 0 else p


def _pauli_error(tech: QubitTechnology, n_noise):
    """:func:`pauli_error_probability` without the input check, for the
    optimizer's boundary solve, which calls it on whole grids of
    occupancies of validated chains.  On the domain ``gamma*tau_step <=
    1e15`` and the occupancy (1e4 K at 1 MHz) is below 2e8."""
    return np.clip(0.5 * tech.gamma * tech.tau_step * (0.5 + n_noise), 0.0, 1.0)


def _pauli_error_occupancy(tech: QubitTechnology, p_err: float) -> float:
    """Occupancy at which the Pauli error probability equals ``p_err`` in
    (0, 1): the inverse of :func:`pauli_error_probability` below its
    clamp.  The rate ``gamma*tau_step`` is at least 1e-27 on the domain."""
    return 2.0 * p_err / (tech.gamma * tech.tau_step) - 0.5
