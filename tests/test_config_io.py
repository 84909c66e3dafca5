import dataclasses
import json
import math
import sys

import pytest

from coldstack.config import (FIELD_TYPES, ConfigError, RunConfig, load_config, show_config,
                              validate)
from coldstack.noise import bose_einstein
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
        # gamma = 1/gamma_inverse_s must be a float: an infinite rate would
        # price every drive at 0 W
        text = f"[technology]\ngamma_inverse_s = {lifetime}\n"
        if ok:
            assert math.isfinite(load_config(text=text).technology().gamma)
        else:
            with pytest.raises(ConfigError, match="technology.gamma_inverse_s: too small"):
                load_config(text=text)

    @pytest.mark.parametrize("frequency, problem", [
        ("5e-324", "too low"), ("3.728195104010833e-291", "too low"),
        ("3.728195104010834e-291", None), ("2.861117485757028e+307", None),
        ("2.8611174857570283e+307", "too high")])
    def test_frequency_out_of_the_models_float_range_rejected(self, frequency, problem):
        # below, hbar*omega0 rounds to 0 and the occupancies are inf - inf;
        # above, omega0 = 2*pi*f is inf
        text = f"[technology]\nfrequency_hz = {frequency}\n"
        if problem is None:
            assert math.isfinite(bose_einstein(300.0, load_config(text=text).technology().omega0))
        else:
            with pytest.raises(ConfigError, match=f"technology.frequency_hz: {problem}"):
                load_config(text=text)

    def test_least_frequency_rises_with_t_ext(self):
        # the occupancy at t_ext, the largest of the box, must be a float
        text = "[technology]\nfrequency_hz = 1e-280\n[chain]\nt_ext_k = {}\n"
        load_config(text=text.format(1e10))
        with pytest.raises(ConfigError, match="frequency_hz: too low"):
            load_config(text=text.format(1e30))

    @pytest.mark.parametrize("key", ["control_lines_per_qubit", "readout_lines_per_qubit"])
    def test_negative_line_count_rejected(self, key):
        assert getattr(load_config(text=f"[cable]\n{key} = 0\n"), key) == 0.0
        with pytest.raises(ConfigError, match=f"cable.{key}: must be >= 0"):
            load_config(text=f"[cable]\n{key} = -0.5\n")

    def test_lines_that_sum_beyond_the_float_range_rejected(self):
        text = "[cable]\ncontrol_lines_per_qubit = 1.7976931348623157e+308\n"
        assert load_config(text=text).cable().lines_per_qubit == sys.float_info.max
        with pytest.raises(ConfigError) as err:
            load_config(text=text + "readout_lines_per_qubit = 1e292\n")
        assert err.value.problems == ["cable: the lines per qubit must sum to a float"]

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
    return 1e-3 if value is None else value + 1


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
