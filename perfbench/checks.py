"""Checks of each operation's result against closed forms computed here.

Nothing below calls coldstack: the physics is written out again from the
model's published formulas, with exact SI constants and a Gauss-Legendre
quadrature of the cable conduction, so a fault in a program kernel shows
as a disagreement.  Each check raises :class:`CheckFailure` naming the
operation.  The hardware defaults are those of an empty coldstack
configuration file; each operation's ``params`` override them.
"""

from __future__ import annotations

import math

import numpy as np

H = 6.62607015e-34
HBAR = H / (2.0 * math.pi)
K_B = 1.380649e-23

P_THR = 2e-5
QUBIT_GROWTH = 91
GATE_GROWTH = 64
#: Rectangular-circuit share of two- and one-qubit gates per 64^k * Q_L.
MIX_2QB, MIX_1QB = 64.0 / 185.0, 28.0 / 185.0
STEPS_PER_LEVEL = 3.0

DEFAULTS = {
    "frequency_hz": 6e9, "tau_1qb": 25e-9, "tau_2qb": 100e-9, "tau_meas": 100e-9,
    "stages": 5, "t_ext": 300.0, "t_qb_bounds": (1e-3, 4.0),
    "t_gen_bounds": (4.0, 300.0), "a_bounds": (1.0, 1e12),
    "scenario": "A", "efficiency": "carnot",
    "cable_length_m": 1.0, "control_lines_per_qubit": 1.0 / 25.0,
    "readout_lines_per_qubit": 1.0 / 100.0, "target": 2.0 / 3.0,
}
#: Per-physical-qubit heat at the generation stage, the 4 K parametric
#: amplifiers and the 70 K HEMTs (W).
SCENARIOS = {"A": (1e-3, 1e-6, 5e-5), "B": (1e-5, 1e-8, 0.0), "C": (1e-7, 1e-10, 0.0)}
SMALL_SCALE_PREFACTOR = 3.24e5  # K^2
SMALL_SCALE_EXTRA_HEAT = 5e-8   # W per physical qubit at the qubit stage
T_PARA, T_HEMT = 4.0, 70.0

#: Cross-sections below / above 10 K (m^2), kapton power laws
#: lambda = c*T^p below 4 K and from 4 to 10 K, and the stainless-steel
#: fit log10(lambda) = sum a_i log10(T)^i above 10 K.
AREA_LOW, AREA_HIGH = 1.3e-9, 2.7e-7
KAPTON_LOW, KAPTON_MID = (4.6, 0.56), (3.0, 0.98)
STEEL_FIT = (-1.4087, 1.3982, 0.2543, -0.6260, 0.2334, 0.4256, -0.4658, 0.1650, -0.0199)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)

POWER_RTOL = 1e-9
METRIC_ATOL = 1e-12
CERTIFICATE_RTOL = 1e-9
ATTENUATION_STEP = 1.01


class CheckFailure(Exception):
    def __init__(self, op_id: str, message: str):
        super().__init__(f"{op_id}: {message}")


def _hw(params: dict) -> dict:
    return {**DEFAULTS, **params}


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def occupancy(t: float, omega0: float) -> float:
    """Bose-Einstein photon number at temperature t."""
    x = HBAR * omega0 / (K_B * t)
    return 0.0 if x >= 700.0 else 1.0 / math.expm1(x)


def heat_multiplier(t: float, hw: dict) -> float:
    """Electrical watts per watt of heat extracted at t."""
    if hw["efficiency"] == "carnot":
        return (hw["t_ext"] - t) / t
    return SMALL_SCALE_PREFACTOR * (1.0 - t / hw["t_ext"]) / t**2


def conduction_integral(t: float) -> float:
    """Integral of area*lambda from 0 to t (W*m/m per line)."""
    c, p = KAPTON_LOW
    out = AREA_LOW * c * min(t, 4.0) ** (p + 1) / (p + 1)
    if t > 4.0:
        c, p = KAPTON_MID
        out += AREA_LOW * c * (min(t, 10.0) ** (p + 1) - 4.0 ** (p + 1)) / (p + 1)
    if t > 10.0:
        # steel part in u = ln T, where the integrand lambda(e^u)*e^u is smooth
        u0, u1 = math.log(10.0), math.log(t)
        u = 0.5 * (u1 - u0) * _GL_X + 0.5 * (u1 + u0)
        log10_t = u / math.log(10.0)
        lam = 10.0 ** np.polynomial.polynomial.polyval(log10_t, STEEL_FIT)
        out += AREA_HIGH * 0.5 * (u1 - u0) * float(np.dot(_GL_W, lam * np.exp(u)))
    return out


def rsa_size(n: int) -> tuple[int, int]:
    """Logical qubits and depth of factoring an n-bit key (Gidney-Ekera, log2)."""
    log_n = math.log2(n)
    return math.ceil(3 * n + 0.002 * n * log_n), math.ceil(500 * n**2 + n**2 * log_n)


def ft_point(hw: dict, t_qb: float, t_gen: float, a: float, k: int) -> tuple[float, float]:
    """(metric, power in W) of an RSA computation at one operating point."""
    big_k = hw["stages"]
    q_l, d_l = rsa_size(hw["rsa_n"])
    omega0 = 2.0 * math.pi * hw["frequency_hz"]
    gamma = 1.0 / hw["gamma_inverse_s"]
    tau_step = max(hw["tau_1qb"], hw["tau_2qb"], hw["tau_meas"])
    temps = [t_qb * (t_gen / t_qb) ** (i / (big_k - 1)) for i in range(big_k)]
    occ = [occupancy(t, omega0) for t in temps]
    # cumulative attenuation between stage i and the qubits
    cum = [a ** (i / (big_k - 1)) for i in range(big_k)]
    n_qubit = occ[0] + sum((occ[i] - occ[i - 1]) / cum[i] for i in range(1, big_k))
    p_err = min(1.0, 0.5 * gamma * tau_step * (0.5 + n_qubit))
    p_l = P_THR * (p_err / P_THR) ** (2**k)
    metric = max(0.0, 1.0 - q_l * d_l * p_l)

    mult = [heat_multiplier(t, hw) for t in temps]
    p_pi = HBAR * omega0 * math.pi**2 / (4.0 * gamma * hw["tau_1qb"] ** 2)
    drives = GATE_GROWTH**k * (MIX_2QB + hw["tau_1qb"] / tau_step * MIX_1QB)
    # stage i absorbs what its attenuator removes; the qubit stage also
    # absorbs the pulse itself
    absorbed = [cum[1]] + [cum[i + 1] - cum[i] for i in range(1, big_k - 1)]
    gate = q_l * drives * p_pi * sum(m * f for m, f in zip(mult, absorbed))

    lines = hw["control_lines_per_qubit"] + hw["readout_lines_per_qubit"]
    w = [conduction_integral(t) for t in temps]
    spans = [(w[i + 1] - w[i]) / hw["cable_length_m"] * lines for i in range(big_k - 1)]
    static = sum(mult[i] * spans[i] for i in range(big_k - 1))
    static -= sum(mult[i + 1] * spans[i] for i in range(big_k - 1))
    q_gen, q_para, q_hemt = SCENARIOS[hw["scenario"]]
    static += (1.0 + heat_multiplier(t_gen, hw)) * q_gen
    static += (1.0 + heat_multiplier(T_PARA, hw)) * q_para
    if t_gen > T_HEMT:
        static += (1.0 + heat_multiplier(T_HEMT, hw)) * q_hemt
    if hw["efficiency"] == "small_scale":
        static += heat_multiplier(t_qb, hw) * SMALL_SCALE_EXTRA_HEAT
    return metric, gate + QUBIT_GROWTH**k * q_l * static


def check_ft(op_id: str, params: dict, result) -> None:
    """Power, metric, breakdown and local optimality of an FT optimum."""
    if not result.feasible:
        raise CheckFailure(op_id, f"infeasible: {result.diagnostic}")
    hw = _hw(params)
    c = result.control
    target = hw["target"]
    metric, power = ft_point(hw, c.t_qb, c.t_gen, c.a_total, c.k)
    if metric < target - METRIC_ATOL:
        raise CheckFailure(op_id, f"metric {metric!r} below target {target!r}")
    if c.a_total > hw["a_bounds"][0] and abs(metric - target) > METRIC_ATOL:
        raise CheckFailure(op_id, f"metric {metric!r} off the boundary {target!r}")
    if not _close(power, result.power_w, POWER_RTOL):
        raise CheckFailure(op_id, f"power {result.power_w!r} W, closed form {power!r} W")
    rows = sum(r.electrical_power_w for r in result.per_stage)
    if not _close(rows, result.power_w, 1e-12):
        raise CheckFailure(op_id, f"per-stage rows sum to {rows!r} W, "
                                  f"not {result.power_w!r} W")
    for name, point in _neighbours(hw, c, result.grid_step_log10):
        m, p = ft_point(hw, *point, c.k)
        if m >= target and p < result.power_w * (1.0 - CERTIFICATE_RTOL):
            raise CheckFailure(op_id, f"neighbour {name} meets the target at "
                                      f"{p!r} W < {result.power_w!r} W")


def _neighbours(hw: dict, c, steps: dict):
    """One final grid step along each temperature axis, or one 1% step in
    attenuation, inside the search box."""
    (q_lo, q_hi), (g_lo, g_hi), (a_lo, a_hi) = (
        hw["t_qb_bounds"], hw["t_gen_bounds"], hw["a_bounds"])
    for sign in (1, -1):
        t_qb = c.t_qb * 10.0 ** (sign * steps["t_qb"])
        if q_lo <= t_qb <= q_hi and t_qb < c.t_gen:
            yield f"t_qb*10^{sign}step", (t_qb, c.t_gen, c.a_total)
        t_gen = c.t_gen * 10.0 ** (sign * steps["t_gen"])
        if g_lo <= t_gen <= g_hi and c.t_qb < t_gen:
            yield f"t_gen*10^{sign}step", (c.t_qb, t_gen, c.a_total)
        a = c.a_total * ATTENUATION_STEP**sign
        if a_lo <= a <= a_hi:
            yield f"A*1.01^{sign}", (c.t_qb, c.t_gen, a)


def check_attenuator(op_id: str, params: dict, result, qubits: int | None) -> None:
    """Boundary attenuation and power of a NISQ circuit (``qubits``) or a
    single gate (``None``) from the closed form at the returned (T, m)."""
    if not result.feasible:
        raise CheckFailure(op_id, f"infeasible: {result.diagnostic}")
    hw = _hw(params)
    c = result.control
    omega0 = 2.0 * math.pi * hw["frequency_hz"]
    gamma = 1.0 / hw["gamma_inverse_s"]
    tau = hw["tau_1qb"]
    if qubits is None:
        gates, scale = 1.0, 1.0
    else:
        q, m = qubits, c.m
        if m is None or not 0 <= m <= q - 3:
            raise CheckFailure(op_id, f"compression {m!r} outside [0, {q - 3}]")
        n2 = q * (q - 1) / 2.0
        depth = n2 - m * (n2 - (2.0 * q - 3.0)) / (q - 3) if q > 3 else n2
        # id gates fill every idle slot: q*D error-weighted gates
        gates, scale = q * depth, n2 / (4.0 * depth)
    n_star = (1.0 - hw["target"]) / (gates * gamma * tau) - 1.0
    n_cold = occupancy(c.t_qb, omega0)
    n_hot = occupancy(hw["t_ext"], omega0)
    a_star = max(hw["a_bounds"][0], (n_hot - n_cold) / (n_star - n_cold))
    p_pi = HBAR * omega0 * math.pi**2 / (4.0 * gamma * tau**2)
    power = (hw["t_ext"] - c.t_qb) / c.t_qb * a_star * p_pi * scale
    if not _close(c.a_total, a_star, POWER_RTOL):
        raise CheckFailure(op_id, f"attenuation {c.a_total!r}, closed form {a_star!r}")
    if not _close(result.power_w, power, POWER_RTOL):
        raise CheckFailure(op_id, f"power {result.power_w!r} W, closed form {power!r} W")


def gnfs_operations(n: int) -> float:
    ln_n2 = math.log(n * math.log(2.0))
    return math.exp((64.0 / 9.0 * n * math.log(2.0) * ln_n2**2) ** (1.0 / 3.0))


def check_rsa_row(op_id: str, params: dict, row: dict) -> None:
    """Every value of one quantum-versus-classical factoring row."""
    hw = _hw(params)
    n = hw["rsa_n"]
    if not row["feasible"]:
        raise CheckFailure(op_id, "infeasible row")
    q_l, d_l = rsa_size(n)
    tau_step = max(hw["tau_1qb"], hw["tau_2qb"], hw["tau_meas"])
    t_q = STEPS_PER_LEVEL ** row["k_level"] * d_l * tau_step
    e_q = row["power_w"] * t_q
    ratio = gnfs_operations(n) / gnfs_operations(830)
    e_c, t_c = 1e12 * ratio, 8.5 * 86400.0 * ratio
    expected = {
        "rsa_n": n, "q_logical": q_l, "d_logical": d_l,
        "t_quantum_s": t_q, "energy_quantum_j": e_q,
        "efficiency_quantum_bit_per_j": n / e_q,
        "t_classical_s": t_c, "energy_classical_j": e_c,
        "efficiency_classical_bit_per_j": n / e_c,
        "quantum_faster": t_q < t_c, "quantum_more_efficient": e_q < e_c,
    }
    for key, want in expected.items():
        got = row[key]
        same = got == want if isinstance(want, (bool, int)) else _close(got, want, POWER_RTOL)
        if not same:
            raise CheckFailure(op_id, f"{key} = {got!r}, closed form {want!r}")


def check(op, outcome) -> None:
    """Dispatch on the operation kind; ``outcome`` is an
    OptimizationResult, or the factoring row for kind rsa."""
    if op.kind == "ft":
        check_ft(op.id, op.params, outcome)
    elif op.kind == "nisq":
        check_attenuator(op.id, op.params, outcome, op.params["nisq_qubits"])
    elif op.kind == "gate":
        check_attenuator(op.id, op.params, outcome, None)
    elif op.kind == "rsa":
        check_rsa_row(op.id, op.params, outcome)
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")
