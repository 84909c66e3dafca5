"""Numerical worst-case-infidelity oracle for the driven-qubit noise model.

Integrates the amplitude-damping/absorption master equation with a
fixed-step 4th-order Runge-Kutta scheme (no closed-form shortcuts) and
minimizes the gate fidelity over a Bloch-sphere grid.  Used only by the
test suite as an independent check of the first-order infidelity
formula.
"""

from __future__ import annotations

import numpy as np

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
X_GATE = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _lindblad_rhs(rho: np.ndarray, gamma: float, n_noise: float) -> np.ndarray:
    """Right-hand side of the noise-only master equation, batched over
    leading axes of ``rho``."""
    def dissipator(op):
        op_dag = op.conj().T
        anti = op_dag @ op
        return op @ rho @ op_dag - 0.5 * (anti @ rho + rho @ anti)

    return gamma * n_noise * dissipator(SIGMA_PLUS) + gamma * (
        n_noise + 1.0) * dissipator(SIGMA_MINUS)


def evolve_noise(rho0: np.ndarray, gamma: float, n_noise: float, tau: float,
                 steps: int = 1000) -> np.ndarray:
    """RK4 integration of the noise map over duration ``tau``.

    The master equation is linear with constant coefficients, so one RK4
    step is the fixed 4x4 map ``P = I + hL + (hL)^2/2 + (hL)^3/6 +
    (hL)^4/24`` on the flattened density matrix, with L built by applying
    the right-hand side to the four basis matrices.  P is applied once
    per step, which is the same scheme as evaluating the four stages.
    """
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
    hl = (tau / steps) * _lindblad_rhs(basis, gamma, n_noise).reshape(4, 4).T
    step = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for order in range(1, 5):
        term = term @ hl / order
        step = step + term
    rho = rho0.astype(complex).reshape(-1, 4)
    for _ in range(steps):
        rho = rho @ step.T
    return rho.reshape(rho0.shape)


def bloch_grid(n_polar: int = 32, n_azimuthal: int = 64) -> np.ndarray:
    """Pure states on a polar-azimuthal grid, poles included; (N, 2)."""
    theta = np.linspace(0.0, np.pi, n_polar)
    phi = np.linspace(0.0, 2.0 * np.pi, n_azimuthal, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    psi = np.stack([np.cos(tt / 2.0), np.exp(1j * pp) * np.sin(tt / 2.0)], axis=-1)
    return psi.reshape(-1, 2)


def worst_case_infidelity_oracle(gamma: float, tau: float, n_noise: float,
                                 steps: int = 1000, n_polar: int = 32,
                                 n_azimuthal: int = 64) -> float:
    """Worst-case infidelity of a noisy X gate (ideal gate, then noise).

    For each grid state psi, applies the ideal gate, integrates the
    noise over the gate duration, and measures the fidelity against the
    ideal outcome; returns 1 minus the sphere minimum.
    """
    psi = bloch_grid(n_polar, n_azimuthal)
    ideal = psi @ X_GATE.T
    rho0 = np.einsum("ni,nj->nij", ideal, ideal.conj())
    rho_tau = evolve_noise(rho0, gamma, n_noise, tau, steps)
    fidelity = np.einsum("ni,nij,nj->n", ideal.conj(), rho_tau, ideal).real
    return float(1.0 - fidelity.min())
