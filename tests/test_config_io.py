import dataclasses
import inspect
import json
import math

import pytest

from coldstack import (CableModel, CryoEfficiencyModel, FtToggles, GridOptions, QubitTechnology,
                       ft_duration_s, optimize_ft, optimize_nisq, optimize_single_qubit,
                       rsa_energy_summary)
from coldstack.config import (_WRITTEN, DOMAIN, FIELD_TYPES, ConfigError, RunConfig,
                              load_config, show_config, validate)
from coldstack.results import emit_results, parse_csv


class TestLoadConfig:
    def test_empty_text_gives_defaults(self):
        cfg = load_config(text="")
        assert cfg == RunConfig()
        assert cfg.scenario == "A"
        assert cfg.gamma_inverse_s == 0.05
        assert cfg.frequency_hz == 6e9
        assert cfg.stages == 5
        assert cfg.t_ext_k == 300.0

    def test_default_technology_block(self):
        tech = RunConfig().technology()
        assert tech.omega0 == pytest.approx(2 * math.pi * 6e9)
        assert tech.tau_1qb == 25e-9
        assert tech.tau_2qb == 100e-9
        assert tech.tau_meas == 100e-9
        assert tech.tau_step == 100e-9

    def test_scenario_b_preset(self):
        cfg = load_config(text="[scenario]\nname = B\n")
        scen = cfg.electronics()
        assert (scen.q_gen, scen.q_para, scen.q_hemt) == (1e-5, 1e-8, 0.0)

    def test_custom_scenario(self):
        cfg = load_config(text="[scenario]\nname = custom\nq_gen_w = 1e-4\n"
                               "q_para_w = 1e-7\nq_hemt_w = 0\n")
        scen = cfg.electronics()
        assert scen.q_gen == 1e-4 and scen.q_para == 1e-7

    def test_negative_gamma_rejected_with_field_path(self):
        with pytest.raises(ConfigError) as err:
            load_config(text="[technology]\ngamma_inverse_s = -1\n")
        assert "technology.gamma_inverse_s" in str(err.value)

    def test_all_violations_reported_at_once(self):
        text = ("[technology]\ngamma_inverse_s = -1\n"
                "[target]\nmetric = 1.5\n"
                "[workload]\nkind = bogus\n")
        with pytest.raises(ConfigError) as err:
            load_config(text=text)
        message = str(err.value)
        assert "technology.gamma_inverse_s" in message
        assert "target.metric" in message
        assert "workload.kind" in message
        assert len(err.value.problems) == 3

    @pytest.mark.parametrize("lifetime, ok", [("5e-324", False),
                                              ("5.562684646268003e-309", False),
                                              ("5.56268464626801e-309", True)])
    def test_lifetime_whose_rate_is_no_float_rejected(self, lifetime, ok):
        # the shortest lifetimes whose rates gamma = 1/gamma_inverse_s are no
        # float (not ok) and a float (ok) lie far below the domain's
        assert math.isfinite(1.0 / float(lifetime)) == ok
        with pytest.raises(ConfigError, match=r"technology.gamma_inverse_s: must lie in \["):
            load_config(text=f"[technology]\ngamma_inverse_s = {lifetime}\n")

    @pytest.mark.parametrize("frequency, problem", [
        ("5e-324", "too low"), ("3.728195104010833e-291", "too low"),
        ("3.728195104010834e-291", None), ("2.861117485757028e+307", None),
        ("2.8611174857570283e+307", "too high")])
    def test_frequency_out_of_the_models_float_range_rejected(self, frequency, problem):
        # the ends of the frequencies whose occupancies are floats, and just
        # beyond them (``problem``, as the float-range checks named it): all
        # lie outside the domain
        with pytest.raises(ConfigError) as err:
            load_config(text=f"[technology]\nfrequency_hz = {frequency}\n")
        assert err.value.problems == [
            "technology.frequency_hz: must lie in [1e+06, 1e+13] "
            "(from spin and flux qubits to terahertz transitions)"]

    def test_least_frequency_rises_with_t_ext(self):
        # it rose with t_ext while the occupancy at t_ext had to be a float;
        # the least frequency is now the domain's at every t_ext
        least = DOMAIN["frequency_hz"][0][0]
        for t_ext in (4.0, 300.0, 1e4):
            box = RunConfig(t_ext_k=t_ext, t_qb_min_k=1e-6, t_qb_max_k=1e-6,
                            t_gen_min_k=min(t_ext, 300.0), t_gen_max_k=min(t_ext, 300.0))
            validate(box.replace(frequency_hz=least))
            with pytest.raises(ConfigError, match="frequency_hz: must lie in"):
                validate(box.replace(frequency_hz=math.nextafter(least, 0.0)))

    @pytest.mark.parametrize("key", ["control_lines_per_qubit", "readout_lines_per_qubit"])
    def test_negative_line_count_rejected(self, key):
        assert getattr(load_config(text=f"[cable]\n{key} = 0\n"), key) == 0.0
        with pytest.raises(ConfigError, match=rf"cable.{key}: must lie in \[0, 100\]"):
            load_config(text=f"[cable]\n{key} = -0.5\n")

    def test_lines_that_sum_beyond_the_float_range_rejected(self):
        # each count lies in the domain's range, so their sum stays a float
        text = "[cable]\ncontrol_lines_per_qubit = 1.7976931348623157e+308\n"
        with pytest.raises(ConfigError) as err:
            load_config(text=text + "readout_lines_per_qubit = 1e292\n")
        assert err.value.problems == [
            f"cable.{line}_lines_per_qubit: must lie in [0, 100] (lines of each kind per qubit)"
            for line in ("control", "readout")]

    @pytest.mark.parametrize("t_qb_max", ["300", "400"])
    def test_qubit_stage_at_or_above_ambient_rejected(self, t_qb_max):
        # one-attenuator problems would count a qubit stage at ambient as
        # free to cool, and one above it as a power source
        with pytest.raises(ConfigError, match="t_qb_max_k"):
            load_config(text=f"[chain]\nt_qb_max_k = {t_qb_max}\n")

    def test_unknown_key_and_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            load_config(text="[technology]\nfrequency_ghz = 6\n[junk]\nx = 1\n")
        assert any("unknown key technology.frequency_ghz" in p
                   for p in err.value.problems)
        assert any("unknown section [junk]" in p for p in err.value.problems)

    def test_attenuation_in_db_or_natural_units(self):
        db = load_config(text="[chain]\nattenuation_max_db = 100\n")
        nat = load_config(text="[chain]\nattenuation_max = 1e10\n")
        assert db.grid_options().attenuation_bounds[1] == pytest.approx(1e10)
        assert nat.grid_options().attenuation_bounds[1] == pytest.approx(1e10)

    def test_duplicate_bound_keys_rejected(self):
        with pytest.raises(ConfigError):
            load_config(text="[chain]\nattenuation_max_db = 100\n"
                             "attenuation_max = 1e10\n")

    def test_comments_are_ignored(self):
        cfg = load_config(text="# heading\n[technology]\n"
                               "gamma_inverse_s = 0.5  # half a second\n")
        assert cfg.gamma_inverse_s == 0.5

    def test_workload_builders(self):
        rect = load_config(text="[workload]\nkind = rectangular\n"
                                "q_logical = 10\nd_logical = 20\n").workload()
        assert (rect.q_logical, rect.d_logical) == (10, 20)
        rsa = load_config(text="[workload]\nkind = rsa\nrsa_n = 830\n").workload()
        assert rsa.q_logical == 2507

    def test_rsa_log_base_toggle(self):
        cfg = load_config(text="[toggles]\nrsa_log_base = e\n"
                               "[workload]\nkind = rsa\nrsa_n = 2048\n")
        assert cfg.workload().q_logical == 6176

    def test_values_coerced_by_field_annotation(self):
        # the loader reads the annotations as written, so a new kind of
        # annotation must not fall through to the float branch unnoticed
        assert set(FIELD_TYPES.values()) == {"int", "bool", "str", "float",
                                             "float | None"}
        cfg = load_config(text="[chain]\nstages = 4.0\n[toggles]\n"
                               "include_demod_syndrome = yes\nrsa_log_base = e\n")
        assert cfg.stages == 4 and isinstance(cfg.stages, int)
        assert cfg.include_demod_syndrome is True and cfg.rsa_log_base == "e"
        with pytest.raises(ConfigError) as err:
            load_config(text="[chain]\nstages = 4.5\n[toggles]\n"
                             "include_demod_syndrome = maybe\n")
        assert err.value.problems == [
            "chain.stages: expected an integer, got '4.5'",
            "toggles.include_demod_syndrome: expected a boolean, got 'maybe'"]

    @pytest.mark.parametrize("section, key, raw", [
        ("scenario", "name", "Z"), ("efficiency", "model", "ideal"),
        ("workload", "kind", "qaoa"), ("cable", "length_m", "abc"),
        ("cable", "length_m", "nan"), ("cable", "length_m", "-1"),
        ("target", "metric", "abc"), ("target", "metric", "nan"),
        ("chain", "attenuation_max", "abc"), ("chain", "attenuation_max", "0.5")])
    def test_messages_name_the_key_a_file_writes(self, section, key, raw):
        # the five keys whose RunConfig fields have other names, and a
        # natural-unit bound: every message names the key as written
        with pytest.raises(ConfigError) as err:
            load_config(text=f"[{section}]\n{key} = {raw}\n")
        assert err.value.problems
        assert all(p.startswith(f"{section}.{key}: ") for p in err.value.problems)

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize("section, key", [("optimizer", "k_max"),
                                              ("chain", "t_ext_k"),
                                              ("technology", "gamma_inverse_s"),
                                              ("chain", "attenuation_max")])
    def test_non_finite_numbers_rejected_by_key(self, section, key, raw):
        # an integer key, two float keys and a natural-unit bound: none may
        # end in an overflow, nor let NaN slip past every comparison
        with pytest.raises(ConfigError) as err:
            load_config(text=f"[{section}]\n{key} = {raw}\n")
        assert key in err.value.problems[0]

    @pytest.mark.parametrize("field", ["t_ext_k", "gamma_inverse_s", "k_max",
                                       "steps_per_logical_level"])
    def test_validate_rejects_a_non_finite_field(self, field):
        # a config built in code, as a sweep point is, meets the same rules
        assert validate(RunConfig()) == RunConfig()
        with pytest.raises(ConfigError, match=f"{field}: must be a finite number"):
            validate(RunConfig().replace(**{field: math.nan}))

    @pytest.mark.parametrize("text", [
        "[workload]\nrsa_n = 1e300\n",
        "[workload]\nrsa_n = 1e150\n",
        "[workload]\nrsa_n = 8\n",
        "[workload]\nkind = rectangular\nq_logical = 1e300\nd_logical = 1e300\n"])
    def test_workload_out_of_range_rejected(self, text):
        with pytest.raises(ConfigError, match="workload: "):
            load_config(text=text)

    def test_refinement_passes_past_the_range_rejected(self):
        # a billion passes of about 0.5 ms each, where passes past 28 move
        # no answer
        (lo, hi), reason = DOMAIN["refinement_passes"]
        with pytest.raises(ConfigError) as err:
            load_config(text="[optimizer]\nrefinement_passes = 1000000000\n")
        assert err.value.problems == [
            f"optimizer.refinement_passes: must lie in [{lo}, {hi}] ({reason})"]


    @pytest.mark.parametrize("text, top", [
        ("", 155),
        ("[workload]\nkind = rectangular\n", 157),
        ("[workload]\nkind = rectangular\nq_logical = 1e300\n", 4)])
    def test_k_max_keeps_the_qubit_count_in_the_float_range(self, text, top):
        # RSA-2048's 6175 logical qubits, one, and 1e300: the physical count
        # 91^k_max * Q_L of the highest level must be a float
        assert load_config(text=text + f"[optimizer]\nk_max = {top}\n").k_max == top
        for k_max in (top + 1, "1e300"):
            with pytest.raises(ConfigError) as err:
                load_config(text=text + f"[optimizer]\nk_max = {k_max}\n")
            assert err.value.problems == [
                f"optimizer.k_max: must be at most {top} for this workload, "
                "where 91^k_max * Q_L stays in the float range"]


def _room_for(name: str, bound: float) -> RunConfig:
    """The default config, with a custom scenario so that the heat loads
    are set, and with the box moved around ``bound`` of the field
    ``name`` where the other rules allow."""
    cfg = RunConfig(scenario="custom", q_gen_w=1e-3, q_para_w=1e-6, q_hemt_w=0.0)
    if name in ("t_ext_k", "t_qb_min_k", "t_qb_max_k", "t_gen_min_k", "t_gen_max_k"):
        t_least, t_top = DOMAIN["t_qb_min_k"][0][0], DOMAIN["t_ext_k"][0][1]
        t_gen = DOMAIN["t_gen_max_k"][0][1]
        if not name.startswith("t_qb"):
            t_gen = min(bound, t_gen)
        cfg = cfg.replace(t_ext_k=max(bound, t_gen) if name == "t_ext_k" else t_top,
                          t_qb_min_k=t_least, t_qb_max_k=t_least, t_gen_min_k=t_gen,
                          t_gen_max_k=t_gen)
    if name.startswith("attenuation_"):
        cfg = cfg.replace(attenuation_min_db=bound, attenuation_max_db=bound)
    return cfg


def _problems(cfg: RunConfig) -> list[str]:
    try:
        validate(cfg)
    except ConfigError as err:
        return err.problems
    return []


#: The ends of the domain that the rules between the temperatures leave no
#: room for: the qubit stage lies below t_ext and the generation stage, and
#: the generation stage at or below the top of the steel fit.  The least
#: t_ext, 4 K, leaves room for a qubit stage below a generation stage there.
_ENDS_BEYOND_THE_BOX = {("t_qb_min_k", 1), ("t_qb_max_k", 1),
                        ("t_gen_min_k", 0), ("t_gen_min_k", 1), ("t_gen_max_k", 0)}


@pytest.mark.parametrize("name, end", [(name, end) for name in DOMAIN for end in (0, 1)])
def test_each_end_of_the_domain_is_in_and_the_next_float_out(name, end):
    # each bound passes the field's range check, and passes validation
    # whole where the box has room for it; the next float beyond it fails
    # that check, by the key as a file writes it, with the range and reason
    (lo, hi), reason = DOMAIN[name]
    bound = (lo, hi)[end]
    room = _room_for(name, bound)
    at = _problems(room.replace(**{name: bound}))
    assert (at == []) == ((name, end) not in _ENDS_BEYOND_THE_BOX), at
    assert not [p for p in at if p.startswith(f"{_WRITTEN[name]}:")]
    beyond = math.nextafter(bound, math.inf if end else -math.inf)
    assert (f"{_WRITTEN[name]}: must lie in [{lo:g}, {hi:g}] ({reason})"
            in _problems(room.replace(**{name: beyond})))


_FLOAT_MAX = "1.7976931348623157e+308"
_HUGE_LINES = ("[efficiency]\nextra_qubit_heat_w = 0.0\n"
               f"[cable]\nreadout_lines_per_qubit = {_FLOAT_MAX}\n")
_NEAR_T_EXT = ("[chain]\nstages = 2\nt_qb_min_k = 0.0001\nt_qb_max_k = 299.7\n"
               "t_gen_min_k = 300.0\n[target]\nmetric = 0.0\n[optimizer]\n"
               "temperature_points_per_decade = 1\nk_max = 0\n")
_HOT_AMBIENT = ("[technology]\nfrequency_hz = 1e12\n[chain]\nstages = 2\n"
                f"t_ext_k = {_FLOAT_MAX}\nt_qb_min_k = 0.0001\n"
                "t_qb_max_k = 0.0001\nt_gen_min_k = 300.0\n[target]\nmetric = 0.0\n"
                "[optimizer]\ntemperature_points_per_decade = 1\nk_max = 0\n")

#: Configs outside the model's domain that the never-raises, floor and
#: pruning properties ran as examples, and the draw that failed the pruning
#: property now and then, by what they exercised: each is a config error
#: that names these keys and their ranges.
OUT_OF_DOMAIN = {
    "pulse whose square overflows": ("[technology]\ntau_1qb_s = 1e200\n",
                                     ["technology.tau_1qb_s"]),
    "pulse whose square overflows, circuit": (
        "[technology]\ntau_1qb_s = 1e200\n[workload]\nkind = nisq\n", ["technology.tau_1qb_s"]),
    "two-qubit drive of float-max duration": (
        f"[technology]\ntau_2qb_s = {_FLOAT_MAX}\n[toggles]\n"
        "two_qubit_drive_duration = tau_2qb\n", ["technology.tau_2qb_s"]),
    "always-on rows beyond the float range": (
        f"[scenario]\nname = custom\nq_gen_w = {_FLOAT_MAX}\nq_para_w = 0.0\n"
        f"q_hemt_w = {_FLOAT_MAX}\n", ["scenario.q_gen_w", "scenario.q_hemt_w"]),
    "parasitic heat beyond the float range": (
        f"[efficiency]\nmodel = small_scale\nextra_qubit_heat_w = {_FLOAT_MAX}\n",
        ["efficiency.extra_qubit_heat_w"]),
    "occupancies near the float maximum": (
        "[technology]\nfrequency_hz = 3.728195104010834e-291\ngamma_inverse_s = 1e-300\n",
        ["technology.frequency_hz", "technology.gamma_inverse_s"]),
    "occupancy cap near 2e-301 K": (
        "[technology]\nfrequency_hz = 3.728195104010834e-291\n[efficiency]\n"
        "model = small_scale\n", ["technology.frequency_hz"]),
    "error rates that round to 0": (
        "[technology]\ngamma_inverse_s = 10.0\ntau_1qb_s = 5e-324\ntau_2qb_s = 5e-324\n"
        "tau_meas_s = 5e-324\n",
        ["technology.tau_1qb_s", "technology.tau_2qb_s", "technology.tau_meas_s"]),
    "error rate that rounds to 0, circuit": (
        "[technology]\ngamma_inverse_s = 10.0\ntau_1qb_s = 5e-324\n[workload]\nkind = nisq\n",
        ["technology.tau_1qb_s"]),
    "thermal energy that underflows": (
        "[technology]\nfrequency_hz = 1e+300\n[chain]\nstages = 2\nt_ext_k = 1e-323\n"
        "t_qb_min_k = 5e-324\nt_qb_max_k = 5e-324\nt_gen_min_k = 1e-323\n"
        "t_gen_max_k = 1e-323\n",
        ["technology.frequency_hz", "chain.t_ext_k", "chain.t_qb_min_k", "chain.t_qb_max_k",
         "chain.t_gen_min_k", "chain.t_gen_max_k"]),
    "t_ext at the float maximum": (_HOT_AMBIENT, ["chain.t_ext_k"]),
    "heat beyond the float range at t_ext": (
        _HUGE_LINES + "[chain]\nstages = 2\nt_qb_max_k = 299.9999999997\nt_gen_min_k = 300.0\n"
        "[target]\nmetric = 0.0\n[optimizer]\ntemperature_points_per_decade = 1\nk_min = 6\n",
        ["cable.readout_lines_per_qubit"]),
    "l / L beyond the float range": (_HUGE_LINES + "length_m = 0.1\n" + _NEAR_T_EXT,
                                     ["cable.readout_lines_per_qubit"]),
    "r / L subnormal": (
        _HUGE_LINES + f"length_m = {_FLOAT_MAX}\n[scenario]\nname = custom\nq_gen_w = 0.0\n"
        "q_para_w = 0.0\nq_hemt_w = 0.0\n[chain]\nstages = 2\nt_qb_min_k = 0.0001\n"
        "[target]\nmetric = 0.0\n[optimizer]\ntemperature_points_per_decade = 1\nk_max = 0\n",
        ["cable.readout_lines_per_qubit", "cable.length_m"]),
    "drive weight beyond the float range": (
        f"[technology]\ngamma_inverse_s = {_FLOAT_MAX}\n[chain]\nstages = 7\n"
        "t_qb_max_k = 299.9999999997\nt_gen_min_k = 1.0\n[efficiency]\nmodel = small_scale\n"
        "[workload]\nrsa_n = 3.88e101\n", ["technology.gamma_inverse_s"]),
    "power out of the float range on the shortest cable": (
        "[chain]\nstages = 2\nt_qb_min_k = 0.5\nt_qb_max_k = 0.5\nt_gen_min_k = 4.0\n"
        "t_gen_max_k = 4.0\n[target]\nmetric = 0.0\n[cable]\nlength_m = 5e-324\n",
        ["cable.length_m"]),
    # mu_last times a_low overflowed before the tiny W_k P_pi: the coarse
    # floor read inf where the power is finite, and the pruned search missed
    # the optimum
    "coarse floor of inf times a tiny drive": (
        "[technology]\ntau_1qb_s = 5e-324\n[chain]\nstages = 2\n"
        f"t_ext_k = {_FLOAT_MAX}\nt_gen_min_k = 300.0\n"
        "attenuation_min_db = 17.0\nattenuation_max_db = 17.0\n",
        ["chain.t_ext_k", "technology.tau_1qb_s"]),
}


@pytest.mark.parametrize("text, keys", OUT_OF_DOMAIN.values(), ids=OUT_OF_DOMAIN)
def test_examples_outside_the_domain_are_rejected(text, keys):
    with pytest.raises(ConfigError) as err:
        load_config(text=text)
    ranges = [p for p in err.value.problems if ": must lie in [" in p]
    assert [p.split(":")[0] for p in ranges] == sorted(keys, key=list(_WRITTEN.values()).index)


class TestShowConfig:
    def test_round_trips_through_parser(self):
        rendered = show_config(RunConfig())
        cfg = load_config(text=rendered)
        assert cfg == RunConfig()

    def test_reference_values_verbatim(self):
        rendered = show_config(RunConfig())
        for needle in ("frequency_hz = 6000000000.0", "tau_1qb_s = 2.5e-08",
                       "tau_2qb_s = 1e-07", "tau_meas_s = 1e-07",
                       "gamma_inverse_s = 0.05", "stages = 5",
                       "t_ext_k = 300.0", "name = A", "model = carnot"):
            assert needle in rendered


#: A value other than the default of each string key, which the builders take.
_OTHER_CHOICE = {"scenario": "B", "efficiency_model": "small_scale",
                 "workload_kind": "rectangular", "rsa_variant": "haner",
                 "two_qubit_drive_duration": "tau_2qb", "rsa_log_base": "e",
                 "ft_metric_form": "exact"}
#: The builders of the model's inputs from a configuration.
_BUILDERS = ("technology", "electronics", "cable", "efficiency", "grid_options",
             "ft_toggles")


def _other_value(field: str, value):
    """A value of the RunConfig ``field`` other than ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return _OTHER_CHOICE[field]
    if isinstance(value, int):
        return value + 1
    return 1e-3 if value is None else value / 2  # a float within the model's domain


def test_every_model_setting_is_a_config_key():
    # a setting of the model that no config key reaches is one only code
    # can change: each field of every object the builders make must change
    # with some key, from a custom scenario, whose heat loads are keys too
    base = RunConfig(scenario="custom", q_gen_w=1e-3, q_para_w=1e-6, q_hemt_w=5e-5)
    built = [getattr(base, builder)() for builder in _BUILDERS]
    unreached = {(type(obj).__name__, f.name) for obj in built for f in dataclasses.fields(obj)}
    for name in FIELD_TYPES:
        cfg = base.replace(**{name: _other_value(name, getattr(base, name))})
        for builder, obj in zip(_BUILDERS, built):
            other = getattr(cfg, builder)()
            unreached -= {(type(obj).__name__, f.name) for f in dataclasses.fields(obj)
                          if getattr(other, f.name) != getattr(obj, f.name)}
    assert unreached == set()


def _default(fn, parameter: str):
    return inspect.signature(fn).parameters[parameter].default


def test_an_empty_config_builds_the_library_defaults():
    # each default is declared twice, once by RunConfig and once by the
    # library's constructors and signatures: the two must agree
    cfg = RunConfig()
    assert cfg.grid_options() == GridOptions()
    assert cfg.ft_toggles() == FtToggles()
    assert cfg.cable() == CableModel()
    assert cfg.efficiency() == CryoEfficiencyModel()
    tech = cfg.technology()
    assert tech == QubitTechnology(omega0=tech.omega0, gamma=tech.gamma)
    assert [_default(optimize_ft, name) for name in ("cable", "model", "target", "options",
                                                    "toggles")] == [
        cfg.cable(), cfg.efficiency(), cfg.target_metric, cfg.grid_options(), cfg.ft_toggles()]
    for fn in (optimize_single_qubit, optimize_nisq):
        assert (_default(fn, "options"), _default(fn, "t_ext")) == (cfg.grid_options(),
                                                                    cfg.t_ext_k)
    for fn in (ft_duration_s, rsa_energy_summary):
        assert _default(fn, "steps_per_level") == cfg.steps_per_logical_level


class TestEmitResults:
    RECORDS = [
        {"label": "x", "value": 1.2345678901234e-7, "count": 42,
         "flag": True, "empty": None},
        {"label": "y", "value": 9.87654321e12, "count": 0,
         "flag": False, "empty": None},
    ]

    def test_csv_round_trip_within_tolerance(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results(self.RECORDS, str(path))
        back = parse_csv(str(path))
        for orig, parsed in zip(self.RECORDS, back):
            assert parsed["label"] == orig["label"]
            assert abs(parsed["value"] - orig["value"]) <= 1e-9 * abs(orig["value"])
            assert parsed["count"] == orig["count"]
            assert parsed["flag"] == orig["flag"]
            assert parsed["empty"] is None

    def test_empty_record_set_yields_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], str(path))
        assert path.read_text() == "\r\n" or path.read_text() == "\n"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(self.RECORDS, str(a))
        emit_results(self.RECORDS, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_mirrors_fields(self, tmp_path):
        path = tmp_path / "out.jsonl"
        emit_results(self.RECORDS, str(path), fmt="jsonl")
        lines = path.read_text().strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["value"] == self.RECORDS[0]["value"]
        assert list(parsed[0].keys()) == list(self.RECORDS[0].keys())

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results(self.RECORDS, str(tmp_path / "x"), fmt="xml")

    def test_mismatched_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([{"a": 1}, {"b": 2}], str(tmp_path / "x.csv"))
