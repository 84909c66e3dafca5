"""The README's command-line examples, run as written, and reference optima,
both checked against the committed outputs in ``tests/golden``.

The commands are read from the README's "Command line" block, and the
keys of its "Configuration file" block are checked against
``--show-config``, so the documentation and these tests cannot drift
apart.  Numeric fields must
agree with the golden values within ``RTOL`` relative; every other field
must be equal.
"""

import configparser
import csv
import dataclasses
import json
import math
import pathlib
import shlex

import pytest

from coldstack import (
    CryoEfficiencyModel,
    ElectronicsScenario,
    GridOptions,
    QubitTechnology,
    Workload,
    optimize_ft,
    optimize_nisq,
    optimize_single_qubit,
)
from coldstack.cli import main
from coldstack.config import _WRITTEN, DOMAIN, RunConfig, load_config, show_config

from conftest import OMEGA0

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
RTOL = 1e-9


def readme_commands() -> list[list[str]]:
    """Argument lists of the ``coldstack`` lines in the README's
    "Command line" block, without the program name."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "coldstack", line
            commands.append(words[1:])
    return commands


def readme_config() -> str:
    """The ini block of the README's "Configuration file" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("## Configuration file", 1)[1].split("```ini", 1)[1].split("```", 1)[0]


def _sections_and_keys(text: str) -> list[tuple[str, list[str]]]:
    """The sections of a config file and the keys set in each, in order."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.read_string(text)
    return [(section, list(parser[section])) for section in parser.sections()]


#: NISQ circuits (qubits, target, lifetime 1/gamma in s, grid options)
#: at the search's edges: compressions out of reach beside reachable
#: ones, an interior compression with the qubits at their upper bound,
#: target 0, three qubits, equal qubit-temperature bounds, the
#: attenuation at its lower bound, and no compression reachable.
NISQ_CASES = {
    "q=25/gamma_inverse_s=0.001/target=0.9": (25, 0.9, 1e-3, GridOptions()),
    "q=25/gamma_inverse_s=0.05/target=0.1": (25, 0.1, 0.05, GridOptions()),
    "q=25/gamma_inverse_s=0.001/target=0": (25, 0.0, 1e-3, GridOptions()),
    "q=3/gamma_inverse_s=0.001/target=0.99": (3, 0.99, 1e-3, GridOptions()),
    "q=12/gamma_inverse_s=0.003/t_qb=0.05/target=2/3": (
        12, 2.0 / 3.0, 3e-3, GridOptions(t_qb_bounds=(0.05, 0.05))),
    "q=8/gamma_inverse_s=0.01/attenuation_min=100/target=0.9": (
        8, 0.9, 0.01, GridOptions(attenuation_bounds=(100.0, 1e12))),
    "q=25/gamma_inverse_s=0.001/target=0.99": (25, 0.99, 1e-3, GridOptions()),
}

#: Single gates (target, lifetime 1/gamma in s, grid options): the README
#: example, target 0, and equal qubit-temperature bounds.
GATE_CASES = {
    "gamma_inverse_s=0.001/target=0.99965": (0.99965, 1e-3, GridOptions()),
    "gamma_inverse_s=0.05/target=0": (0.0, 0.05, GridOptions()),
    "gamma_inverse_s=0.001/t_qb=0.02/target=0.999": (
        0.999, 1e-3, GridOptions(t_qb_bounds=(0.02, 0.02))),
}


def reference_optima() -> dict:
    """Operating point and power of the criterion-3 star point, the six
    criterion-9 small-scale runs, and the NISQ and gate cases above."""
    def entry(result):
        return {**dataclasses.asdict(result.control), "power_w": result.power_w}

    wl = Workload(6175, 2_100_000_000)
    out = {"star": entry(optimize_ft(wl, QubitTechnology(omega0=OMEGA0, gamma=20.0),
                                     ElectronicsScenario.preset("A")))}
    small_scale = CryoEfficiencyModel("small_scale")
    for gamma_inv in (0.3, 0.5, 1.0):
        tech = QubitTechnology(omega0=OMEGA0, gamma=1.0 / gamma_inv)
        for scenario in ("A", "C"):
            res = optimize_ft(wl, tech, ElectronicsScenario.preset(scenario),
                              model=small_scale)
            out[f"small_scale/{scenario}/gamma_inverse_s={gamma_inv}"] = entry(res)
    for name, (q, target, lifetime, options) in NISQ_CASES.items():
        tech = QubitTechnology(omega0=OMEGA0, gamma=1.0 / lifetime)
        out[f"nisq/{name}"] = entry(optimize_nisq(q, target, tech, options))
    for name, (target, lifetime, options) in GATE_CASES.items():
        tech = QubitTechnology(omega0=OMEGA0, gamma=1.0 / lifetime)
        out[f"gate/{name}"] = entry(optimize_single_qubit(tech, target, options=options))
    return out


def _same(got, want) -> bool:
    if isinstance(got, str):
        try:
            got, want = float(got), float(want)
        except ValueError:
            return got == want
    if got is None or want is None or isinstance(got, bool):
        return got == want
    return got == want or math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


def _read(path: pathlib.Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_matches_golden(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("")
    assert main(argv) == 0
    if "--out" not in argv:
        return
    name = argv[argv.index("--out") + 1]
    got, want = _read(tmp_path / name), _read(GOLDEN / name)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        bad = [(col, a, b) for col, a, b in zip(want[0], g, w) if not _same(a, b)]
        assert not bad, f"{name} row {row}: {bad}"


def test_readme_config_lists_the_keys_show_config_prints():
    # the documented file names every key in the order --show-config
    # prints them, and its values are the defaults
    block = readme_config()
    assert _sections_and_keys(block) == _sections_and_keys(show_config(RunConfig()))
    assert load_config(text=block) == RunConfig()


def test_readme_domain_table_is_the_domain():
    # the "Physical domain" table lists every range validation checks, in
    # the order of the fields, as its messages print them
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = "".join(f"| `{_WRITTEN[name]}` | [{lo:g}, {hi:g}] | {why} |\n"
                   for name, ((lo, hi), why) in DOMAIN.items())
    assert "| Key | Range | What sets it |\n|---|---|---|\n" + rows in text


def test_reference_optima_match_golden():
    want = json.loads((GOLDEN / "optima.json").read_text(encoding="utf-8"))
    got = reference_optima()
    assert got.keys() == want.keys()
    for key in want:
        bad = {f: (got[key][f], want[key][f]) for f in want[key]
               if not _same(got[key][f], want[key][f])}
        assert not bad, f"{key}: {bad}"
