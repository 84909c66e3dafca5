"""The result checks accept the program's results and reject results
altered by one step.

    python3 -m pytest perfbench -q
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from coldstack import config, driver  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402


def _op(workload: str, op_id: str) -> inputs.Op:
    return next(op for op in inputs.make_ops(workload, seed=1) if op.id == op_id)


def _solve(op: inputs.Op):
    cfg = config.load_config(text=op.text)
    if op.kind == "rsa":
        return driver.compare_rsa(cfg, [op.params["rsa_n"]])[0]
    return driver.run_problem(cfg)


@pytest.fixture(scope="module")
def ft_cases():
    ops = [_op("ft-qubit-quality", "A-carnot/point08"),
           _op("ft-qubit-quality", "C-small_scale/point13")]
    return [(op, _solve(op)) for op in ops]


@pytest.fixture(scope="module")
def nisq_case():
    op = next(op for op in inputs.make_ops("nisq-compression", 1) if op.kind == "nisq")
    return op, _solve(op)


@pytest.fixture(scope="module")
def gate_case():
    op = next(op for op in inputs.make_ops("nisq-compression", 1) if op.kind == "gate")
    return op, _solve(op)


@pytest.fixture(scope="module")
def rsa_case():
    op = inputs.make_ops("rsa-wiring", 1)[0]
    return op, _solve(op)


def _rejected(op, outcome):
    with pytest.raises(checks.CheckFailure, match=op.id):
        checks.check(op, outcome)


def _with_power(result, factor):
    return dataclasses.replace(result, power_w=result.power_w * factor)


def _with_control(result, **changes):
    return dataclasses.replace(result, control=dataclasses.replace(result.control, **changes))


def _next_grid_attenuation(result):
    return result.control.a_total * 10.0 ** result.grid_step_log10["t_qb"]


def test_ft_checks(ft_cases):
    for op, result in ft_cases:
        checks.check(op, result)
        _rejected(op, _with_power(result, 1 + 1e-6))
        _rejected(op, _with_control(result, a_total=_next_grid_attenuation(result)))


def test_nisq_checks(nisq_case):
    op, result = nisq_case
    checks.check(op, result)
    _rejected(op, _with_power(result, 1 + 1e-6))
    _rejected(op, _with_control(result, a_total=_next_grid_attenuation(result)))
    _rejected(op, _with_control(result, m=result.control.m - 1))


def test_gate_checks(gate_case):
    op, result = gate_case
    checks.check(op, result)
    _rejected(op, _with_power(result, 1 + 1e-6))
    _rejected(op, _with_control(result, a_total=_next_grid_attenuation(result)))


def test_rsa_row_checks(rsa_case):
    op, row = rsa_case
    checks.check(op, row)
    _rejected(op, {**row, "energy_classical_j": row["energy_classical_j"] * 1.01})
    _rejected(op, {**row, "power_w": row["power_w"] * (1 + 1e-6)})


def test_conduction_matches_the_program():
    from coldstack.thermal import CableModel, cable_heat_flow
    cable = CableModel()
    for lo, hi in ((1e-3, 3.9), (0.5, 7.0), (2.0, 45.0), (12.0, 300.0)):
        want = cable_heat_flow(lo, hi, cable)
        got = checks.conduction_integral(hi) - checks.conduction_integral(lo)
        assert abs(got - want) <= 1e-10 * want


def test_same_seed_same_inputs_and_mix():
    for workload in inputs.WORKLOADS:
        a, b, c = (inputs.make_ops(workload, s) for s in (1, 1, 2))
        assert a == b
        assert sorted((op.kind, op.params.get("nisq_qubits"), op.params.get("rsa_n"))
                      for op in a) == sorted(
            (op.kind, op.params.get("nisq_qubits"), op.params.get("rsa_n")) for op in c)


def test_self_time_excludes_other_layers():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return tracer.call("b", "inner", inner) + tracer.call("a", "nested", inner)

    tracer.call("a", "outer", outer)
    assert tracer.calls == {"a": 1, "b": 1}
    assert [s["layer"] for s in tracer.spans] == ["a", "b"]
    span_a, span_b = tracer.spans
    assert span_b["parent"] == span_a["id"]
    assert span_a["self"] == pytest.approx(
        (span_a["end"] - span_a["start"]) - (span_b["end"] - span_b["start"]))
    assert tracer.self_s["a"] + tracer.self_s["b"] == pytest.approx(
        span_a["end"] - span_a["start"])
