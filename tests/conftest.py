import math

import pytest
from hypothesis import strategies as st

from coldstack import QubitTechnology, rsa_workload
from coldstack.config import _top_level

OMEGA0 = 2.0 * math.pi * 6e9


@pytest.fixture
def tech_50ms() -> QubitTechnology:
    """Main-line hardware: 6 GHz qubit with a 50 ms lifetime."""
    return QubitTechnology(omega0=OMEGA0, gamma=1.0 / 0.05)


@pytest.fixture
def tech_1ms() -> QubitTechnology:
    return QubitTechnology(omega0=OMEGA0, gamma=1.0 / 1e-3)


@pytest.fixture
def tech_3ms() -> QubitTechnology:
    return QubitTechnology(omega0=OMEGA0, gamma=1.0 / 3e-3)


def edge_biased(lo, hi, log=True):
    """Floats in [lo, hi], drawn at either bound as often as inside."""
    if log:
        inner = st.floats(math.log10(lo), math.log10(hi)).map(
            lambda x: min(hi, max(lo, 10.0**x)))
    else:
        inner = st.floats(lo, hi)
    return st.one_of(st.just(lo), st.just(hi), inner)


@st.composite
def valid_config_texts(draw, kinds=("rsa", "rectangular", "nisq", "gate"),
                       per_decade=st.integers(1, 8)):
    """Configuration files that pass validation, of the workload ``kinds``,
    weighted toward the box bounds: t_gen_max = t_ext, equal bounds, the
    ends of the attenuation and k ranges, two stages, and zero heat loads.
    In one of eight draws the k range starts one below the highest level
    validation allows, where the physical qubit count nears the float
    range; a circuit or gate config takes the limit of its RSA workload,
    which the fault-tolerant commands run.  ``per_decade`` draws the
    temperature points per decade; the few of the default keep the grids
    small."""
    t_ext = draw(st.sampled_from([300.0, 290.0, 77.0, 4.5]))
    t_gen_max = draw(st.one_of(st.just(t_ext), edge_biased(min(4.0, t_ext), t_ext)))
    t_gen_min = draw(st.one_of(st.just(t_gen_max),
                               edge_biased(min(1.0, t_gen_max), t_gen_max)))
    t_qb_min = draw(edge_biased(1e-4, 0.999 * t_gen_min))
    t_qb_max = draw(st.one_of(st.just(t_qb_min),
                              edge_biased(t_qb_min, t_ext * (1 - 1e-12))))
    att_min = draw(st.one_of(st.just(0.0), st.floats(0.0, 120.0)))
    att_max = draw(st.one_of(st.just(att_min), st.just(120.0), st.floats(att_min, 150.0)))
    workload = {"kind": draw(st.sampled_from(kinds)),
                "rsa_n": draw(st.integers(16, 4096)),
                "rsa_variant": draw(st.sampled_from(["gidney", "haner"])),
                "q_logical": draw(st.integers(1, 10**4)),
                "d_logical": draw(st.integers(1, 10**12)),
                "nisq_qubits": draw(st.integers(3, 16))}
    top = _top_level(workload["q_logical"] if workload["kind"] == "rectangular"
                     else rsa_workload(workload["rsa_n"], workload["rsa_variant"]).q_logical)
    k_min = draw(st.sampled_from([*range(7), top - 1]))
    if k_min < top - 1:
        k_max = draw(st.one_of(st.just(k_min), st.just(6), st.integers(k_min, 8)))
    else:
        k_max = draw(st.sampled_from([top - 1, top]))
    scenario = {"name": draw(st.sampled_from(["A", "B", "C", "custom"]))}
    if scenario["name"] == "custom":
        scenario.update({f"q_{part}_w": draw(st.one_of(st.just(0.0),
                                                       edge_biased(1e-10, 1e-2)))
                         for part in ("gen", "para", "hemt")})
    sections = {
        "technology": {"frequency_hz": draw(edge_biased(1e9, 2e11)),
                       "gamma_inverse_s": draw(edge_biased(1e-4, 10.0)),
                       "tau_1qb_s": draw(edge_biased(1e-9, 1e-6)),
                       "tau_meas_s": draw(edge_biased(1e-8, 1e-5))},
        "chain": {"stages": draw(st.one_of(st.just(2), st.integers(2, 8))),
                  "t_ext_k": t_ext, "t_qb_min_k": t_qb_min, "t_qb_max_k": t_qb_max,
                  "t_gen_min_k": t_gen_min, "t_gen_max_k": t_gen_max,
                  "attenuation_min_db": att_min, "attenuation_max_db": att_max},
        "scenario": scenario,
        "cable": {"length_m": draw(edge_biased(0.1, 10.0)),
                  "control_lines_per_qubit": draw(edge_biased(1e-3, 1.0)),
                  "readout_lines_per_qubit": draw(edge_biased(1e-3, 1.0))},
        "efficiency": {"model": draw(st.sampled_from(["carnot", "small_scale"])),
                       "extra_qubit_heat_w": draw(st.one_of(st.just(0.0),
                                                            edge_biased(1e-10, 1e-6)))},
        "workload": workload,
        "target": {"metric": draw(st.one_of(st.just(0.0), st.just(2.0 / 3.0),
                                            st.floats(0.0, 1.0, exclude_max=True)))},
        "optimizer": {"temperature_points_per_decade": draw(per_decade),
                      "refinement_passes": draw(st.integers(0, 2)),
                      "k_min": k_min, "k_max": k_max},
        "toggles": {"include_demod_syndrome": draw(st.booleans()),
                    "t_gate_multiplier": draw(edge_biased(1.0, 10.0, log=False)),
                    "two_qubit_drive_duration": draw(st.sampled_from(["tau_1qb",
                                                                      "tau_2qb"])),
                    "ft_metric_form": draw(st.sampled_from(["linear", "exact"]))},
    }
    return "".join(f"[{name}]\n" + "".join(
        f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
        for key, value in fields.items()) for name, fields in sections.items())
