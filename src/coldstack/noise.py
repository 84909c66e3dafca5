"""Closed-form noise and drive-power model of a resonantly driven qubit.

The model couples a two-level system to a microwave drive line with
spontaneous emission rate ``gamma``.  Thermal photons leaking down the
drive line raise the gate error; attenuators thermalize the line noise
toward the cold-stage temperature.  Everything here is a pure function
of its inputs, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Reduced Planck (J*s) and Boltzmann (J/K) constants, exact SI values.
HBAR = 6.62607015e-34 / (2.0 * np.pi)
K_B = 1.380649e-23

# Above this value of (hbar*omega0)/(k_B*T) the occupancy underflows to
# well below 1e-300; returning 0 avoids overflow in expm1.
_EXPONENT_CLAMP = 700.0


@dataclass(frozen=True)
class QubitTechnology:
    """Physical constants of a qubit generation.

    Durations are in seconds; ``omega0`` is the angular transition
    frequency in rad/s and ``gamma`` the spontaneous emission rate into
    the drive line in 1/s.  The machine clock period is set by the
    slowest operation.
    """

    omega0: float
    gamma: float
    tau_1qb: float = 25e-9
    tau_2qb: float = 100e-9
    tau_meas: float = 100e-9

    def __post_init__(self) -> None:
        for name in ("omega0", "gamma", "tau_1qb", "tau_2qb", "tau_meas"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def tau_step(self) -> float:
        """Clock period: the duration of the slowest operation."""
        return max(self.tau_1qb, self.tau_2qb, self.tau_meas)


def pi_pulse_power(tech: QubitTechnology, tau: float) -> float:
    """Average microwave power consumed by a pi-pulse of duration ``tau``.

    Equals ``hbar*omega0*pi^2 / (4*gamma*tau^2)``, the power whose Rabi
    frequency ``Omega = sqrt(4*gamma*P/(hbar*omega0))`` is ``pi/tau``:
    faster gates and better-isolated qubits (smaller gamma) need
    stronger drives.
    """
    if tau <= 0:
        raise ValueError("pulse duration must be strictly positive")
    return HBAR * tech.omega0 * np.pi**2 / (4.0 * tech.gamma * tau**2)


def bose_einstein(temperature, omega0: float):
    """Mean thermal photon number at ``temperature`` and frequency ``omega0``.

    Accepts scalars or arrays.  Returns exactly 0 at T = 0 and for
    temperatures so low that the exponent exceeds the overflow clamp.
    """
    t = np.asarray(temperature, dtype=float)
    if np.any(t < 0):
        raise ValueError("temperature must be nonnegative")
    with np.errstate(divide="ignore", over="ignore"):
        x = np.where(t > 0, HBAR * omega0 / (K_B * np.where(t > 0, t, 1.0)), np.inf)
    occ = np.where(
        x >= _EXPONENT_CLAMP, 0.0, 1.0 / np.expm1(np.minimum(x, _EXPONENT_CLAMP))
    )
    if occ.ndim == 0:
        return float(occ)
    return occ


def single_attenuator_occupancy(attenuation, t_qubit, t_external, omega0: float):
    """Occupancy seen by the qubit behind one attenuator at the cold stage.

    A fraction ``1/A`` of the external thermal noise leaks through; the
    rest is re-emitted at the attenuator (qubit-stage) temperature.
    """
    a = np.asarray(attenuation, dtype=float)
    if np.any(a < 1):
        raise ValueError("attenuation must be >= 1 (natural units)")
    out = _attenuated(a, bose_einstein(t_qubit, omega0),
                      bose_einstein(t_external, omega0))
    if np.ndim(out) == 0:
        return float(out)
    return out


def _attenuated(a, n_cold, n_hot):
    """:func:`single_attenuator_occupancy` from the two occupancies, without
    the input check, for the optimizer's boundary solve."""
    return (a - 1.0) / a * n_cold + n_hot / a


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
    rule, one add and one multiply per attenuator, because the
    optimizer's boundary solve calls it at every step; it checks no
    input.
    """
    leak = 0.0
    for rise in n_rise[::-1]:
        leak = (leak + rise) * transmission
    return n_cold + leak


def worst_case_infidelity_1qb(tech: QubitTechnology, n_noise):
    """Worst-case single-gate infidelity ``gamma*tau_1qb*(1 + n_noise)``.

    First order in the number of spontaneous events during the gate; the
    worst-case input is the excited state.  The gate metric is
    ``1 - infidelity``.
    """
    n = np.asarray(n_noise, dtype=float)
    if np.any(n < 0):
        raise ValueError("occupancy must be nonnegative")
    out = tech.gamma * tech.tau_1qb * (1.0 + n)
    if np.ndim(out) == 0:
        return float(out)
    return out


def pauli_error_probability(tech: QubitTechnology, n_noise, with_flag: bool = False):
    """Worst-case Pauli error probability per qubit per clock step.

    ``(gamma*tau_step/2) * (1/2 + n_noise)``, clamped to [0, 1].  With
    ``with_flag=True`` also returns whether the clamp at 1 was reached
    (the linearized formula can exceed 1 for absurd inputs).
    """
    n = np.asarray(n_noise, dtype=float)
    if np.any(n < 0):
        raise ValueError("occupancy must be nonnegative")
    p = _pauli_error(tech, n)
    out = float(p) if p.ndim == 0 else p
    if with_flag:
        return out, bool(np.any(p == 1.0))
    return out


def _pauli_error(tech: QubitTechnology, n_noise):
    """:func:`pauli_error_probability` without the input check, for the
    optimizer's boundary solve, which calls it at every step on
    occupancies of a validated chain."""
    return np.clip(0.5 * tech.gamma * tech.tau_step * (0.5 + n_noise), 0.0, 1.0)
