import functools
import math

import pytest
from hypothesis import strategies as st

from coldstack import QubitTechnology, rsa_workload
from coldstack.config import DOMAIN, _top_level
from coldstack.thermal import STEEL_FIT_MAX_K, TEMPERATURE_RANGE_K

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


def in_order_total(records) -> float:
    """The electrical powers of ``records`` added in breakdown order, one
    at a time, as the search totals them: the builtin sum() of floats is
    compensated from Python 3.12 on."""
    total = 0.0
    for rec in records:
        total += rec.electrical_power_w
    return total


def edge_biased(lo, hi, log=True):
    """Floats in [lo, hi], drawn at either bound as often as inside."""
    if log:
        inner = st.floats(math.log10(lo), math.log10(hi)).map(
            lambda x: min(hi, max(lo, 10.0**x)))
    else:
        inner = st.floats(lo, hi)
    return st.one_of(st.just(lo), st.just(hi), inner)


def whole_domain(field, log=True):
    """Values of the RunConfig ``field`` over its whole range in the
    model's domain, either end as often as inside; a range from 0 draws 0,
    and log-uniformly from the least positive float up."""
    lo, hi = DOMAIN[field][0]
    if lo > 0 or not log:
        return edge_biased(lo, hi, log)
    return st.one_of(st.just(lo), edge_biased(math.ulp(0.0), hi))


@functools.lru_cache(maxsize=None)
def largest_rsa_key(variant: str) -> int:
    """The largest key size of the RSA ``variant`` that validation accepts,
    where its Q_L * D_L nears the float range, among those a config file
    states exactly: a float, so that it reads back as itself."""

    def fits(n: int) -> bool:
        try:
            rsa_workload(n, variant)
        except ValueError:
            return False
        return True

    lo, hi = 16, 10**120
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    n = float(lo)
    return int(n) if int(n) <= lo else int(math.nextafter(n, 0.0))


@st.composite
def valid_config_texts(draw, kinds=("rsa", "rectangular", "nisq", "gate"),
                       per_decade=st.integers(1, 8)):
    """Configuration files that pass validation, of the workload ``kinds``,
    weighted toward the box bounds: t_gen_max = min(t_ext, the top of the
    steel fit), equal bounds, the ends of the attenuation and k ranges,
    two stages, and zero heat loads and line counts.  In one of eight
    draws the k range starts one below the highest level validation
    allows, where the physical qubit count nears the float range; a
    circuit or gate config takes the limit of its RSA workload, which the
    fault-tolerant commands run.  In one of eight the RSA key is the
    largest validation accepts.  Every key with a range in the model's
    domain (:data:`~coldstack.config.DOMAIN`) is drawn over all of it,
    both ends included: the qubit lifetime, the cable's length and line
    counts, the attenuation bounds and the steps per logical level in one
    of two or three draws, and the qubit frequency, the three durations,
    the scenario's heat loads, the parasitic qubit heat and t_ext in one
    of four.  No temperature bound lies more than 7 decades below the
    box's top, min(t_ext, the top of the steel fit), as the grids grow
    with its decades.  ``per_decade`` draws the temperature points per
    decade; the few of the default keep the grids small."""

    def anywhere(typical, field):
        # ``typical``, or in one of four draws anywhere in the field's domain
        return draw(whole_domain(field) if draw(st.integers(0, 3)) == 0 else typical)

    t_least, _ = TEMPERATURE_RANGE_K
    model, kind = draw(st.sampled_from(["carnot", "small_scale"])), draw(st.sampled_from(kinds))
    t_ext = anywhere(st.sampled_from([300.0, 290.0, 77.0, 4.5]), "t_ext_k")
    top = min(t_ext, STEEL_FIT_MAX_K)
    low = max(top * 1e-7, t_least)
    t_gen_max = draw(st.one_of(st.just(top), edge_biased(min(max(4.0, low), top), top)))
    # t_ext >= 4 K leaves the generation stage at or above 1 K, and the
    # qubit stage's bounds lie strictly below t_gen_min and t_ext
    t_gen_min = draw(st.one_of(
        st.just(t_gen_max), edge_biased(min(max(1.0, low), t_gen_max), t_gen_max)))
    t_qb_below = 0.999 * t_gen_min
    t_qb_min = draw(edge_biased(min(max(min(1e-4, 1e-3 * t_qb_below), low), t_qb_below),
                                t_qb_below))
    t_qb_max = draw(st.one_of(st.just(t_qb_min), edge_biased(
        t_qb_min, max(t_qb_min, min(t_ext * (1 - 1e-12), 10.0 * top)))))
    att_lo, att_hi = DOMAIN["attenuation_max_db"][0]
    att_min = draw(st.one_of(st.just(att_lo), st.floats(att_lo, 120.0),
                             whole_domain("attenuation_min_db", log=False)))
    att_max = draw(st.one_of(st.just(att_min), st.just(max(att_min, 120.0)), st.just(att_hi),
                             st.floats(att_min, att_hi)))
    variant = draw(st.sampled_from(["gidney", "haner"]))
    workload = {"kind": kind,
                "rsa_n": (draw(st.integers(16, 4096)) if draw(st.integers(0, 7))
                          else largest_rsa_key(variant)),
                "rsa_variant": variant,
                "q_logical": draw(st.integers(1, 10**4)),
                "d_logical": draw(st.integers(1, 10**12)),
                "nisq_qubits": draw(st.one_of(st.just(3), st.just(40), st.integers(3, 40)))}
    top = _top_level(workload["q_logical"] if workload["kind"] == "rectangular"
                     else rsa_workload(workload["rsa_n"], workload["rsa_variant"]).q_logical)
    k_min = draw(st.sampled_from([*range(7), top - 1]))
    if k_min < top - 1:
        k_max = draw(st.one_of(st.just(k_min), st.just(6), st.integers(k_min, 8)))
    else:
        k_max = draw(st.sampled_from([top - 1, top]))
    scenario = {"name": draw(st.sampled_from(["A", "B", "C", "custom"]))}
    if scenario["name"] == "custom":
        scenario.update({f"q_{part}_w": anywhere(st.one_of(st.just(0.0),
                                                           edge_biased(1e-10, 1e-2)),
                                                 f"q_{part}_w")
                         for part in ("gen", "para", "hemt")})
    lines = {f"{line}_lines_per_qubit": draw(st.one_of(
        st.just(0.0), edge_biased(1e-3, 1.0), whole_domain(f"{line}_lines_per_qubit")))
        for line in ("control", "readout")}
    sections = {
        "technology": {"frequency_hz": anywhere(edge_biased(1e9, 2e11), "frequency_hz"),
                       "gamma_inverse_s": draw(st.one_of(
                           edge_biased(1e-4, 10.0), whole_domain("gamma_inverse_s"))),
                       "tau_1qb_s": anywhere(edge_biased(1e-9, 1e-6), "tau_1qb_s"),
                       "tau_2qb_s": anywhere(edge_biased(1e-8, 1e-5), "tau_2qb_s"),
                       "tau_meas_s": anywhere(edge_biased(1e-8, 1e-5), "tau_meas_s")},
        "chain": {"stages": draw(st.one_of(st.just(2), st.integers(2, 8))),
                  "t_ext_k": t_ext, "t_qb_min_k": t_qb_min, "t_qb_max_k": t_qb_max,
                  "t_gen_min_k": t_gen_min, "t_gen_max_k": t_gen_max,
                  "attenuation_min_db": att_min, "attenuation_max_db": att_max},
        "scenario": scenario,
        "cable": {"length_m": draw(st.one_of(edge_biased(0.1, 10.0),
                                             whole_domain("cable_length_m"))),
                  **lines},
        "efficiency": {"model": model,
                       "extra_qubit_heat_w": anywhere(st.one_of(st.just(0.0),
                                                                edge_biased(1e-10, 1e-6)),
                                                      "extra_qubit_heat_w")},
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
                    "steps_per_logical_level": draw(st.one_of(
                        st.just(3.0), whole_domain("steps_per_logical_level", log=False))),
                    "ft_metric_form": draw(st.sampled_from(["linear", "exact"]))},
    }
    return "".join(f"[{name}]\n" + "".join(
        f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
        for key, value in fields.items()) for name, fields in sections.items())
