import functools
import math
import struct
import sys

import pytest
from hypothesis import strategies as st

from coldstack import QubitTechnology, rsa_workload
from coldstack.config import ConfigError, RunConfig, _top_level, validate

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


def _shortest_lifetime() -> float:
    """The least qubit lifetime validation accepts: the least whose
    inverse, the emission rate, is a float."""
    lifetime = 1.0 / sys.float_info.max
    while math.isinf(1.0 / lifetime):
        lifetime = math.nextafter(lifetime, 1.0)
    return lifetime


SHORTEST_LIFETIME_S = _shortest_lifetime()


@functools.lru_cache(maxsize=None)
def frequency_bounds(t_ext: float) -> tuple[float, float]:
    """The least and the largest qubit frequency validation accepts at the
    ambient temperature ``t_ext``, by bisection on the positive floats,
    which their bit patterns order."""

    def accepted(bits: int) -> bool:
        # a one-point box that validation accepts at any t_ext
        cfg = RunConfig(frequency_hz=_from_bits(bits), t_ext_k=t_ext, t_qb_min_k=t_ext / 2,
                        t_qb_max_k=t_ext / 2, t_gen_min_k=t_ext, t_gen_max_k=t_ext)
        try:
            validate(cfg)
        except ConfigError:
            return False
        return True

    def change(lo: int, hi: int) -> int:
        # the least bits above lo whose acceptance differs from lo's
        first = accepted(lo)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(mid) == first else (lo, mid)
        return hi

    # accepted at every t_ext: 2 pi f is a float, and its occupancy 0 or tiny
    anchor = _to_bits(1e300)
    assert accepted(anchor), f"1e300 Hz is rejected at t_ext = {t_ext} K"
    lo, hi = _from_bits(change(0, anchor)), _from_bits(change(anchor, _to_bits(math.inf)) - 1)
    assert lo < 1e300 < hi, (lo, hi)
    return lo, hi


def _to_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _pow10(x: float) -> float:
    """10^x, and inf where that leaves the float range."""
    try:
        return 10.0**x
    except OverflowError:
        return math.inf


def edge_biased(lo, hi, log=True):
    """Floats in [lo, hi], drawn at either bound as often as inside."""
    if log:
        inner = st.floats(math.log10(lo), math.log10(hi)).map(
            lambda x: min(hi, max(lo, _pow10(x))))
    else:
        inner = st.floats(lo, hi)
    return st.one_of(st.just(lo), st.just(hi), inner)


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
    weighted toward the box bounds: t_gen_max = t_ext, equal bounds, the
    ends of the attenuation and k ranges, two stages, and zero heat loads
    and line counts.  In one of eight draws the k range starts one below
    the highest level validation allows, where the physical qubit count
    nears the float range; a circuit or gate config takes the limit of its
    RSA workload, which the fault-tolerant commands run.  In one of eight
    the RSA key is the largest validation accepts, and in one of two the
    qubit lifetime is drawn over all that validation accepts, both ends
    included, and so are the cable's length and line counts, each in one
    of two or three draws.  The qubit frequency, the three durations, the
    scenario's heat loads and the parasitic qubit heat are each drawn, in
    one of four draws, over all that validation accepts, both ends
    included, and so is t_ext, within the two bounds noted below; the box
    then lies within 7 decades below min(t_ext, 300 K).  ``per_decade``
    draws the temperature points per decade; the few of the default keep
    the grids small."""

    def anywhere(typical, lo=math.ulp(0.0), hi=sys.float_info.max):
        # ``typical``, or in one of four draws anywhere in [lo, hi]
        return draw(edge_biased(lo, hi) if draw(st.integers(0, 3)) == 0 else typical)

    model, kind = draw(st.sampled_from(["carnot", "small_scale"])), draw(st.sampled_from(kinds))
    # the least t_ext leaves room for a qubit stage below the generation
    # stage; two FOUNDs in CHANGES.md bound it: the small-scale mu, 1/t^2,
    # is not priced where t^2 underflows, and a gate's or circuit's power is
    # NaN where mu times the attenuation overflows and the drive underflows
    t_ext = anywhere(st.sampled_from([300.0, 290.0, 77.0, 4.5]),
                     2 * math.ulp(0.0) if model == "carnot" else 1e-143,
                     1e280 if kind in ("nisq", "gate") else sys.float_info.max)
    # the box rule: the generation stage stays within the steel conductivity
    # fit, at or below 300 K (a FOUND in CHANGES.md), and no bound lies more
    # than 7 decades below the box's top, as the grids grow with its
    # decades; neither moves a bound at the four values
    top = min(t_ext, 300.0)
    low = top * 1e-7
    t_gen_max = draw(st.one_of(st.just(top), edge_biased(min(max(4.0, low), top), top)))
    t_gen_min = draw(st.one_of(st.just(t_gen_max),
                               edge_biased(min(max(1.0, low), t_gen_max), t_gen_max)))
    # the qubit stage's bounds lie strictly below t_gen_min and t_ext, also
    # where a relative margin rounds away among the subnormals
    t_qb_below = min(0.999 * t_gen_min, math.nextafter(t_gen_min, 0.0))
    t_qb_min = draw(edge_biased(min(max(min(1e-4, 1e-3 * t_qb_below), low, math.ulp(0.0)),
                                    t_qb_below), t_qb_below))
    t_qb_max = draw(st.one_of(st.just(t_qb_min), edge_biased(
        t_qb_min, min(t_ext * (1 - 1e-12), math.nextafter(t_ext, 0.0), 10.0 * top))))
    att_min = draw(st.one_of(st.just(0.0), st.floats(0.0, 120.0)))
    att_max = draw(st.one_of(st.just(att_min), st.just(120.0), st.floats(att_min, 150.0)))
    variant = draw(st.sampled_from(["gidney", "haner"]))
    workload = {"kind": kind,
                "rsa_n": (draw(st.integers(16, 4096)) if draw(st.integers(0, 7))
                          else largest_rsa_key(variant)),
                "rsa_variant": variant,
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
        scenario.update({f"q_{part}_w": anywhere(st.one_of(st.just(0.0),
                                                           edge_biased(1e-10, 1e-2)))
                         for part in ("gen", "para", "hemt")})
    lines = {f"{line}_lines_per_qubit": draw(st.one_of(
        st.just(0.0), edge_biased(1e-3, 1.0), edge_biased(math.ulp(0.0), sys.float_info.max)))
        for line in ("control", "readout")}
    if math.isinf(sum(lines.values())):  # a sum validation rejects
        lines["readout_lines_per_qubit"] = 0.0
    f_lo, f_hi = frequency_bounds(t_ext)
    sections = {
        "technology": {"frequency_hz": anywhere(edge_biased(max(1e9, f_lo), max(2e11, f_lo)),
                                                f_lo, f_hi),
                       "gamma_inverse_s": draw(st.one_of(
                           edge_biased(1e-4, 10.0),
                           edge_biased(SHORTEST_LIFETIME_S, sys.float_info.max))),
                       "tau_1qb_s": anywhere(edge_biased(1e-9, 1e-6)),
                       "tau_2qb_s": anywhere(edge_biased(1e-8, 1e-5)),
                       "tau_meas_s": anywhere(edge_biased(1e-8, 1e-5))},
        "chain": {"stages": draw(st.one_of(st.just(2), st.integers(2, 8))),
                  "t_ext_k": t_ext, "t_qb_min_k": t_qb_min, "t_qb_max_k": t_qb_max,
                  "t_gen_min_k": t_gen_min, "t_gen_max_k": t_gen_max,
                  "attenuation_min_db": att_min, "attenuation_max_db": att_max},
        "scenario": scenario,
        "cable": {"length_m": draw(st.one_of(
                      edge_biased(0.1, 10.0), edge_biased(math.ulp(0.0), sys.float_info.max))),
                  **lines},
        "efficiency": {"model": model,
                       "extra_qubit_heat_w": anywhere(st.one_of(st.just(0.0),
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
