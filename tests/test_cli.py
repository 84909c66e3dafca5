import argparse
import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from coldstack import driver
from coldstack.cli import _build_parser, main
from coldstack.config import ConfigError, RunConfig, load_config
from coldstack.driver import SweepAxis, compare_rsa, run_problem, sweep
from coldstack.results import parse_csv

from conftest import valid_config_texts
from test_golden import readme_commands

LIGHT_OPTIMIZER = """
[optimizer]
temperature_points_per_decade = 12
"""

RSA_830_LIGHT = LIGHT_OPTIMIZER + """
[workload]
kind = rsa
rsa_n = 830
"""

INFEASIBLE = """
[technology]
gamma_inverse_s = 0.001
[workload]
kind = rectangular
q_logical = 1000
d_logical = 1000000000
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSweepAxis:
    def test_parse_linear(self):
        axis = SweepAxis.parse("target_metric=0.5:0.9:5")
        assert axis.values().tolist() == [0.5, 0.6, 0.7, 0.8, 0.9]

    def test_parse_log(self):
        axis = SweepAxis.parse("gamma_inverse_s=0.003:3:4:log")
        values = axis.values()
        assert values[0] == pytest.approx(0.003)
        assert values[-1] == pytest.approx(3.0)
        ratios = values[1:] / values[:-1]
        assert ratios == pytest.approx([10.0, 10.0, 10.0])

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            SweepAxis.parse("gamma_inverse_s")
        with pytest.raises(ValueError):
            SweepAxis.parse("x=1:2:3:linear")


class TestDriver:
    def test_single_point_sweep_equals_direct_call(self):
        cfg = load_config(text=RSA_830_LIGHT)
        rows = sweep(cfg, [SweepAxis("gamma_inverse_s", 0.05, 0.05, 1)])
        direct = run_problem(cfg.replace(gamma_inverse_s=0.05))
        assert len(rows) == 1
        assert rows[0]["power_w"] == direct.power_w
        assert rows[0]["k_level"] == direct.control.k

    def test_sweep_rows_cover_grid_in_order(self):
        cfg = load_config(text=RSA_830_LIGHT)
        axes = [SweepAxis("gamma_inverse_s", 0.05, 0.5, 2, log=True),
                SweepAxis("target_metric", 0.5, 0.7, 2)]
        rows = sweep(cfg, axes)
        assert [(round(r["gamma_inverse_s"], 3), r["target_metric"])
                for r in rows] == [
            (0.05, 0.5), (0.05, 0.7), (0.5, 0.5), (0.5, 0.7)]

    def test_sweep_completes_over_infeasible_points(self):
        cfg = load_config(text=INFEASIBLE + LIGHT_OPTIMIZER)
        rows = sweep(cfg, [SweepAxis("gamma_inverse_s", 0.001, 0.1, 2, log=True)])
        assert [r["feasible"] for r in rows] == [False, True]
        assert rows[0]["power_w"] == math.inf

    def test_readme_qubit_quality_sweep_completes(self):
        # the optimum sits on the 300 K generation bound, so the chain's top
        # stage must come out at ambient exactly
        rows = sweep(RunConfig(),
                     [SweepAxis.parse("gamma_inverse_s=0.003:1:15:log")])
        assert len(rows) == 15
        assert all(r["feasible"] for r in rows)
        assert any(r["t_gen_k"] == 300.0 for r in rows)

    def test_sweep_over_integer_optimizer_field(self):
        rows = sweep(RunConfig(), [SweepAxis.parse("refinement_passes=0:2:3")])
        assert [r["refinement_passes"] for r in rows] == [0, 1, 2]
        assert all(r["feasible"] for r in rows)
        powers = [r["power_w"] for r in rows]
        # a refinement pass keeps the incumbent, so power never rises
        assert powers[2] <= powers[1] <= powers[0]

    def test_sweep_failure_names_its_point(self, tmp_path, monkeypatch, capsys):
        real = driver.run_problem

        def flaky(cfg):
            if cfg.gamma_inverse_s > 0.1:
                raise ValueError("boom")
            return real(cfg)

        monkeypatch.setattr(driver, "run_problem", flaky)
        cfg = load_config(text=RSA_830_LIGHT)
        axes = [SweepAxis("gamma_inverse_s", 0.05, 0.5, 2, log=True)]
        with pytest.raises(ValueError, match=r"gamma_inverse_s=0\.5: boom") as info:
            sweep(cfg, axes)
        assert str(info.value.__cause__) == "boom"
        path = _write(tmp_path, RSA_830_LIGHT)
        assert main(["--config", path, "sweep", "--out", str(tmp_path / "s.csv"),
                     "--sweep", "gamma_inverse_s=0.05:0.5:2:log"]) == 1
        assert "gamma_inverse_s=0.5: boom" in capsys.readouterr().err

    def test_sweep_rejects_non_numeric_keys(self):
        cfg = load_config(text=RSA_830_LIGHT)
        # a string field, a boolean field, and a method of the config
        for key in ("scenario", "include_demod_syndrome", "technology"):
            with pytest.raises(ValueError):
                sweep(cfg, [SweepAxis(key, 0.0, 1.0, 2)])

    @pytest.mark.parametrize("spec, problem", [
        ("t_qb_max_k=400:400:1", "t_qb_max_k must lie below the ambient t_ext_k"),
        ("steps_per_logical_level=-3:-3:1", "steps_per_logical_level: must be > 0"),
        ("gamma_inverse_s=nan:1:2", "gamma_inverse_s: must be a finite number"),
        ("k_max=inf:inf:1", "k_max: must be a finite number"),
        ("k_max=157:157:1", "optimizer.k_max: must be at most 155"),
        ("rsa_n=1e300:1e300:1", "workload: key size")])
    def test_sweep_points_are_validated(self, tmp_path, capsys, spec, problem):
        # each point meets the rules of a config file
        cfg = load_config(text=RSA_830_LIGHT)
        axis = SweepAxis.parse(spec)
        with pytest.raises(ConfigError, match=f"sweep point {axis.key}=.*{problem}"):
            sweep(cfg, [axis])
        out = tmp_path / "s.csv"
        assert main(["--config", _write(tmp_path, RSA_830_LIGHT), "sweep",
                     "--out", str(out), "--sweep", spec]) == 1
        err = capsys.readouterr().err
        assert f"sweep point {axis.key}=" in err and problem in err
        assert not out.exists()

    def test_compare_rsa_rejects_a_huge_key(self, tmp_path, capsys):
        assert main(["compare-rsa", "--n", "1e300:1e300:1",
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert "key size" in capsys.readouterr().err

    def test_level_transitions_monotone_along_depth_sweep(self):
        cfg = load_config(text=LIGHT_OPTIMIZER).replace(
            workload_kind="rectangular", q_logical=6175)
        rows = sweep(cfg, [SweepAxis("d_logical", 1e3, 1e9, 7, log=True)])
        levels = [r["k_level"] for r in rows if r["feasible"]]
        assert len(levels) == 7
        assert all(b >= a for a, b in zip(levels, levels[1:]))
        assert levels[0] < levels[-1]

    def test_compare_rsa_classical_anchor(self):
        cfg = load_config(text=LIGHT_OPTIMIZER)
        rows = compare_rsa(cfg, [830])
        row = rows[0]
        assert row["energy_classical_j"] == pytest.approx(1e12)
        assert 8 * 86400 <= row["t_classical_s"] <= 9 * 86400
        assert row["feasible"]
        assert isinstance(row["quantum_faster"], bool)

    def test_compare_rsa_quantum_side(self):
        cfg = load_config(text=LIGHT_OPTIMIZER)
        row = compare_rsa(cfg, [830])[0]
        # high-quality qubits crack the reference key faster and cheaper
        assert row["quantum_faster"] and row["quantum_more_efficient"]
        assert row["t_quantum_s"] < row["t_classical_s"]

    def test_energy_advantage_precedes_speed_advantage_scenario_c(self):
        cfg = load_config(text=LIGHT_OPTIMIZER).replace(scenario="C")
        rows = compare_rsa(cfg, [400, 520, 640, 830])
        greener = [r["rsa_n"] for r in rows if r["quantum_more_efficient"]]
        faster = [r["rsa_n"] for r in rows if r["quantum_faster"]]
        assert greener and faster
        assert min(greener) < min(faster)

    def test_time_crossover_independent_of_electronics(self):
        sizes = [520, 640, 830]
        flags = {}
        for scenario in ("A", "C"):
            cfg = load_config(text=LIGHT_OPTIMIZER).replace(scenario=scenario)
            flags[scenario] = [r["quantum_faster"]
                               for r in compare_rsa(cfg, sizes)]
        assert flags["A"] == flags["C"]


class TestNeverRaises:
    @given(text=valid_config_texts())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_valid_config_gives_a_result(self, text):
        cfg = load_config(text=text)
        result = run_problem(cfg)
        if result.feasible:
            assert result.metric_achieved >= cfg.target_metric - 1e-12
            assert math.isfinite(result.power_w) and result.power_w > 0
            total = sum(rec.electrical_power_w for rec in result.per_stage)
            assert total == pytest.approx(result.power_w, rel=1e-12)
        else:
            assert result.diagnostic

    @given(text=valid_config_texts())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_no_command_ends_in_a_traceback(self, text):
        # the fault-tolerant commands, which run a circuit or gate config
        # as its RSA workload, and compare-rsa on two small keys
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "run.cfg", str(Path(tmp) / "out.csv")
            cfg.write_text(text)
            for argv in (["optimize-ft"], ["breakdown"], ["compare-rsa", "--n", "64:128:2"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(["--config", str(cfg), *argv, "--out", out])
                assert code in (0, 1, 2), argv
                assert "Traceback" not in err.getvalue(), argv


class TestCliContract:
    def test_optimize_ft_writes_summary_and_file(self, tmp_path, capsys):
        cfg = _write(tmp_path, RSA_830_LIGHT)
        out = tmp_path / "res.csv"
        code = main(["--config", cfg, "optimize-ft", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "minimum power" in captured
        rows = parse_csv(str(out))
        assert rows[0]["feasible"] is True
        assert rows[0]["k_level"] == 3

    def test_exit_code_two_on_infeasibility(self, tmp_path, capsys):
        cfg = _write(tmp_path, INFEASIBLE + LIGHT_OPTIMIZER)
        out = tmp_path / "res.csv"
        code = main(["--config", cfg, "optimize-ft", "--out", str(out)])
        assert code == 2
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_exit_code_one_on_bad_config(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[technology]\ngamma_inverse_s = -4\n")
        code = main(["--config", cfg, "optimize-ft", "--out",
                     str(tmp_path / "x.csv")])
        assert code == 1
        assert "gamma_inverse_s" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write(tmp_path, RSA_830_LIGHT)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--config", cfg, "optimize-ft", "--out", str(a)]) == 0
        assert main(["--config", cfg, "optimize-ft", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("before", [True, False])
    def test_config_before_or_after_subcommand(self, tmp_path, before):
        cfg = _write(tmp_path, RSA_830_LIGHT)
        out = tmp_path / "res.csv"
        args = ["optimize-ft", "--out", str(out)]
        argv = ["--config", cfg] + args if before else args + ["--config", cfg]
        assert main(argv) == 0
        # the light config's 830-bit key, not the default 2048-bit one
        assert parse_csv(str(out))[0]["q_logical"] == 2507

    def test_compare_rsa_rejects_empty_range(self, tmp_path, capsys):
        out = tmp_path / "rsa.csv"
        assert main(["compare-rsa", "--n", "512:4096:0", "--out", str(out)]) == 1
        assert "need at least one point" in capsys.readouterr().err
        assert not out.exists()

    def test_show_config_prints_defaults(self, capsys):
        assert main(["--show-config"]) == 0
        out = capsys.readouterr().out
        assert "gamma_inverse_s = 0.05" in out
        assert "name = A" in out
        assert "t_ext_k = 300.0" in out

    def test_target_override(self, tmp_path, capsys):
        cfg = _write(tmp_path, RSA_830_LIGHT)
        code = main(["--config", cfg, "optimize-ft", "--target", "0.9",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 0
        assert "target 0.9" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path):
        cfg = _write(tmp_path, RSA_830_LIGHT)
        out = tmp_path / "sweep.csv"
        code = main(["--config", cfg, "sweep", "--out", str(out),
                     "--sweep", "gamma_inverse_s=0.05:0.5:2:log"])
        assert code == 0
        rows = parse_csv(str(out))
        assert len(rows) == 2
        assert rows[0]["gamma_inverse_s"] == pytest.approx(0.05)

    def test_breakdown_subcommand(self, tmp_path):
        cfg = _write(tmp_path, RSA_830_LIGHT)
        out = tmp_path / "stages.csv"
        code = main(["--config", cfg, "breakdown", "--out", str(out)])
        assert code == 0
        rows = parse_csv(str(out))
        sources = {r["source"] for r in rows}
        assert {"attenuator", "conduction", "amplifier", "electronics"} <= sources
        by_source = {}
        for r in rows:
            by_source[r["source"]] = by_source.get(r["source"], 0.0) + (
                r["electrical_power_w"])
        assert by_source["electronics"] == max(by_source.values())

    def test_compare_rsa_subcommand(self, tmp_path, capsys):
        cfg = _write(tmp_path, LIGHT_OPTIMIZER)
        out = tmp_path / "rsa.csv"
        code = main(["--config", cfg, "compare-rsa", "--n", "830:2048:2:log",
                     "--out", str(out)])
        assert code == 0
        rows = parse_csv(str(out))
        assert [r["rsa_n"] for r in rows] == [830, 2048]
        assert "quantum energy advantage" in capsys.readouterr().out

    def test_compare_rsa_prints_both_crossovers(self, tmp_path, capsys):
        # scenario C: the energy advantage sets in at a smaller key than the
        # speed advantage
        cfg = _write(tmp_path, "[scenario]\nname = C\n")
        assert main(["--config", cfg, "compare-rsa", "--n", "512:4096:10:log",
                     "--out", str(tmp_path / "rsa.csv")]) == 0
        out = capsys.readouterr().out
        assert "quantum energy advantage from n = 512 within the scanned range" in out
        assert "quantum faster from n = 645 within the scanned range" in out

    def test_compare_rsa_reports_no_advantage_in_range(self, tmp_path, capsys):
        assert main(["compare-rsa", "--n", "512:560:2",
                     "--out", str(tmp_path / "rsa.csv")]) == 0
        out = capsys.readouterr().out
        assert "no quantum energy advantage in the scanned range" in out
        assert "quantum not faster in the scanned range" in out

    def test_breakdown_prints_rows_hot_to_cold(self, tmp_path, capsys):
        cfg = _write(tmp_path, RSA_830_LIGHT)
        out = tmp_path / "stages.csv"
        assert main(["--config", cfg, "breakdown", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines)
                      if line.split()[:2] == ["T", "[K]"])
        table = [line.split() for line in lines[header + 1:-1]]  # last names the file
        rows = parse_csv(str(out))
        assert len(table) == len(rows)
        temperatures = [float(words[0]) for words in table]
        assert temperatures == sorted(temperatures, reverse=True)
        assert sorted(words[-1] for words in table) == sorted(r["source"] for r in rows)

    def test_every_subcommand_is_in_the_readme(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        documented = {word for argv in readme_commands() for word in argv}
        assert set(sub.choices) <= documented

    def test_jsonl_format(self, tmp_path):
        cfg = _write(tmp_path, RSA_830_LIGHT)
        out = tmp_path / "res.jsonl"
        code = main(["--config", cfg, "optimize-ft", "--format", "jsonl",
                     "--out", str(out)])
        assert code == 0
        import json
        row = json.loads(out.read_text().splitlines()[0])
        assert row["feasible"] is True

    @pytest.mark.parametrize("argv", [
        ["sweep", "--sweep", "gamma_inverse_s=0.001:0.001:1"],
        ["breakdown"],
        ["optimize-ft"],
    ])
    def test_exit_code_two_across_subcommands(self, tmp_path, argv):
        cfg = _write(tmp_path, INFEASIBLE + LIGHT_OPTIMIZER)
        out = tmp_path / "out.csv"
        assert main(["--config", cfg] + argv + ["--out", str(out)]) == 2

    @pytest.mark.parametrize("argv", [
        ["optimize-ft"], ["breakdown"], ["compare-rsa", "--n", "512:1024:2"],
        ["sweep", "--sweep", "gamma_inverse_s=0.05:0.05:1"]])
    def test_k_max_beyond_the_float_range_is_a_config_error(self, tmp_path, capsys, argv):
        # 91^157 times RSA-2048's 6175 logical qubits is no float
        cfg = _write(tmp_path, "[optimizer]\nk_max = 157\n")
        out = tmp_path / "out.csv"
        assert main(["--config", cfg] + argv + ["--out", str(out)]) == 1
        assert "optimizer.k_max: must be at most 155" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize-ft", "breakdown"])
    def test_the_config_is_validated_for_the_kind_it_runs(self, tmp_path, capsys, command):
        # a circuit config has no level range to bound; these commands run
        # it as RSA-2048, whose rules then apply
        cfg = _write(tmp_path, "[workload]\nkind = nisq\n[optimizer]\nk_max = 400\n")
        assert load_config(cfg).k_max == 400
        out = tmp_path / "out.csv"
        assert main(["--config", cfg, command, "--out", str(out)]) == 1
        assert "optimizer.k_max: must be at most 155" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_rsa_validates_each_key_size(self, tmp_path, capsys):
        # RSA-16's 49 logical qubits allow one level more than RSA-512's 1546
        text = "[workload]\nrsa_n = 16\n[optimizer]\nk_max = 156\n"
        with pytest.raises(ConfigError, match="rsa_n=512: optimizer.k_max: must be at most 155"):
            compare_rsa(load_config(text=text), [16, 512])
        out = tmp_path / "out.csv"
        assert main(["--config", _write(tmp_path, text), "compare-rsa", "--n", "512:1024:2",
                     "--out", str(out)]) == 1
        assert "rsa_n=512: optimizer.k_max" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_code_two_for_gate_and_circuit_targets(self, tmp_path):
        cfg = _write(tmp_path, "[technology]\ngamma_inverse_s = 0.001\n")
        out = tmp_path / "out.csv"
        assert main(["--config", cfg, "optimize-1qb", "--target", "0.99999",
                     "--out", str(out)]) == 2
        assert main(["--config", cfg, "optimize-nisq", "--target", "0.999",
                     "--out", str(out)]) == 2

    def test_demod_syndrome_toggle_adds_room_temperature_row(self, tmp_path):
        base = load_config(text=RSA_830_LIGHT)
        with_decode = load_config(
            text=RSA_830_LIGHT + "[toggles]\ninclude_demod_syndrome = true\n")
        res_base = run_problem(base)
        res_decode = run_problem(with_decode)
        assert res_decode.power_w > res_base.power_w
        room = [r for r in res_decode.per_stage
                if r.source == "electronics" and r.stage_temperature_k == 300.0]
        assert len(room) == 2  # generation stage plus readout computing
