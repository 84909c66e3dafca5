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

    @property
    def rabi_frequency(self) -> float:
        """Rabi frequency of a pi-pulse of duration ``tau_1qb`` (rad/s)."""
        return np.pi / self.tau_1qb

    def drive_power_for_rabi(self, rabi_frequency: float) -> float:
        """Average drive power that induces a given Rabi frequency.

        Inverts ``Omega = sqrt(4*gamma/(hbar*omega0)) * sqrt(P)`` for a
        drive propagating in the control line.
        """
        return HBAR * self.omega0 * rabi_frequency**2 / (4.0 * self.gamma)


def pi_pulse_power(tech: QubitTechnology, tau: float) -> float:
    """Average microwave power consumed by a pi-pulse of duration ``tau``.

    Equals ``hbar*omega0*pi^2 / (4*gamma*tau^2)``: faster gates and
    better-isolated qubits (smaller gamma) need stronger drives.
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
    cold = bose_einstein(t_qubit, omega0)
    hot = bose_einstein(t_external, omega0)
    out = (a - 1.0) / a * cold + hot / a
    if np.ndim(out) == 0:
        return float(out)
    return out


def chain_occupancy(chain, omega0: float):
    """Occupancy at the qubit behind a multi-stage attenuation chain.

    ``chain`` provides stage temperatures T_1..T_K (cold to hot) and the
    cumulative attenuations below each inter-stage attenuator.  The
    occupancy is the cold-stage thermal population plus the photons from
    each hotter stage that leak through the attenuators in between.
    """
    temps = np.asarray(chain.temperatures, dtype=float)
    if np.any(np.diff(temps) < 0):
        raise ValueError("stage temperatures must be nondecreasing, cold to hot")
    occ = bose_einstein(temps, omega0)
    cum = np.asarray(chain.cumulative_attenuations, dtype=float)
    leaked = np.sum((occ[1:] - occ[:-1]) / cum, axis=0)
    out = occ[0] + leaked
    if np.ndim(out) == 0:
        return float(out)
    return out


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
    ``with_flag=True`` also returns whether clamping occurred (the
    linearized formula can exceed 1 for absurd inputs).
    """
    n = np.asarray(n_noise, dtype=float)
    if np.any(n < 0):
        raise ValueError("occupancy must be nonnegative")
    raw = 0.5 * tech.gamma * tech.tau_step * (0.5 + n)
    clamped = np.clip(raw, 0.0, 1.0)
    was_clamped = bool(np.any(raw > 1.0))
    if np.ndim(clamped) == 0:
        clamped = float(clamped)
    if with_flag:
        return clamped, was_clamped
    return clamped
