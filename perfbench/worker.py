"""One benchmark round: a fresh single-threaded process that sets up, runs
its workload's operations once in order, and checks every result.

With ``--probe`` it runs only the first operation; with ``--trace 1``
the round runs under the tracer and the report holds the per-layer
metrics.  Prints one JSON object on stdout.  A result that
fails a check ends the worker with exit code 3 and the operation's name
on stderr.
"""

import time

T0 = time.perf_counter()  # worker start, before coldstack is imported

import argparse
import json
import resource
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402


_REFERENCE_HW = {**checks.DEFAULTS, "rsa_n": 2048, "gamma_inverse_s": 0.05}
#: Reference work after each operation, as a share of its time, so the
#: samples follow the host's speed over the operation time; and after the
#: first operation, as a share of the time to it, for the speed near the
#: set-up and the first result.
REFERENCE_SHARE = 0.05
FIRST_SHARE = 0.25


def reference_work() -> None:
    """Fixed work of the benchmark's own, timed after each operation: the
    same mix of scalar Python and small numpy arrays as the program, so its
    time tracks the host's speed at that moment."""
    for t_qb in np.geomspace(0.01, 1.0, 40):
        checks.ft_point(_REFERENCE_HW, float(t_qb), 300.0, 1000.0, 3)
    t = np.geomspace(1e-3, 300.0, 20000)
    for _ in range(12):
        1.0 / np.expm1(checks.HBAR * 2e10 / (checks.K_B * t)) + np.log1p(t) ** 2.5


def _reference_samples(seconds: float) -> list:
    """Times of the reference work, repeated until ``seconds`` are spent."""
    samples = []
    while not samples or sum(samples) < seconds:
        start = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - start)
    return samples


class Round:
    def __init__(self, workload: str, seed: int, out_dir: Path, tracer=None):
        sys.path.insert(0, str(SRC))
        import coldstack
        from coldstack import config, driver, results, thermal
        if Path(coldstack.__file__).resolve().parent != SRC / "coldstack":
            sys.exit(f"coldstack imported from {coldstack.__file__}, not from {SRC}")
        self.driver, self.results, self.thermal = driver, results, thermal
        self.workload = workload
        self.out_dir = out_dir
        self.tracer = tracer
        self.ops = inputs.make_ops(workload, seed)
        self.load_s = 0.0
        self.cfgs = []
        for op in self.ops:
            start = time.perf_counter()
            self.cfgs.append(config.load_config(text=op.text))
            self.load_s += time.perf_counter() - start
        self.ready = time.perf_counter()

    def _call(self, layer, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(layer, fn.__name__, fn, *args)

    def _run_op(self, op, cfg):
        """Return (outcome to check, row to emit)."""
        if op.kind == "rsa":
            row = self._call("driver", self.driver.compare_rsa, cfg, [op.params["rsa_n"]])[0]
            return row, row
        result = self._call("driver", self.driver.run_problem, cfg)
        return result, self._call("driver", self.driver.result_record, cfg, result)

    def run(self, count: int | None = None) -> None:
        """Run the first ``count`` operations (all by default) in order,
        then emit the rows; an operation that raises is failed."""
        self.outcomes, self.failed, self.latencies, rows = [], [], [], []
        self.reference = []
        for index, (op, cfg) in enumerate(zip(self.ops[:count], self.cfgs)):
            if self.tracer is not None:
                self.tracer.op = index
            start = time.perf_counter()
            try:
                outcome, row = self._run_op(op, cfg)
                rows.append(row)
            except Exception as exc:  # the program's fault: count it, go on
                outcome = None
                self.failed.append(f"{op.id}: {type(exc).__name__}: {exc}")
            end = time.perf_counter()
            self.latencies.append(end - start)
            self.outcomes.append(outcome)
            self.reference += _reference_samples(REFERENCE_SHARE * (end - start))
            if index == 0:
                self.first_result = end
                self.first_reference = _reference_samples(FIRST_SHARE * (end - T0))
        if self.tracer is not None:
            self.tracer.op = None
        self.bytes = self._emit(rows)

    def _emit(self, rows) -> int:
        """Write the rows as ``coldstack sweep`` does, one CSV per column
        layout; returns the bytes written."""
        groups: dict[tuple, list] = {}
        for row in rows:
            groups.setdefault(tuple(row), []).append(row)
        written = 0
        for i, group in enumerate(groups.values()):
            path = self.out_dir / f"{self.workload}-{i}.csv"
            self._call("results", self.results.emit_results, group, str(path), "csv")
            written += path.stat().st_size
        return written

    def check(self) -> None:
        for op, outcome in zip(self.ops, self.outcomes):
            if outcome is not None:
                checks.check(op, outcome)


def _layers(rnd: Round, tracer) -> dict:
    cache_info = getattr(getattr(rnd.thermal, "_conduction_integral", None), "cache_info", None)
    info = cache_info() if callable(cache_info) else None
    calls = info.hits + info.misses if info else 0
    misses = info.misses if info else 0
    s, n, c = tracer.self_s, tracer.calls, tracer.counts
    return {
        "config.load_s": rnd.load_s,
        "driver.self_s": s["driver"],
        "optimize.levels_searched": c["optimize.levels_searched"],
        "optimize.grid_points": c["optimize.grid_points"],
        "optimize.boundary_solves": c["optimize.boundary_solves"],
        "optimize.boundary_evals": c["optimize.boundary_evals"],
        "optimize.boundary_elems": c["optimize.boundary_elems"],
        "optimize.grid_self_s": s["optimize"],
        "optimize.stage_fields_s": s["optimize.stage_fields"],
        "optimize.boundary_s": s["optimize.boundary"],
        "optimize.ft_point_s": s["optimize.ft_point"],
        "noise.calls": n["noise"],
        "noise.s": s["noise"],
        "qec.calls": n["qec"],
        "qec.s": s["qec"],
        "thermal.conduction_calls": calls,
        "thermal.conduction_misses": misses,
        "thermal.conduction_hit_ratio": (calls - misses) / calls if calls else 0.0,
        "thermal.conduction_s": s["thermal.conduction"],
        "thermal.cache_entries": info.currsize if info else 0,
        "workloads.s": s["workloads"],
        "results.emit_s": s["results"],
        "results.bytes": rnd.bytes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="run only the first operation")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    tracer = Tracer() if args.trace else None
    rnd = Round(args.workload, args.seed, args.out_dir, tracer)
    if tracer is not None:
        tracer.install()
    try:
        rnd.run(1 if args.probe else None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        rnd.check()
    except checks.CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    report = {"setup_s": rnd.ready - T0, "first_result_s": rnd.first_result - T0,
              "latencies_s": rnd.latencies, "reference_s": rnd.reference,
              "first_reference_s": rnd.first_reference,
              "attempted": len(rnd.ops), "failed_ops": rnd.failed,
              "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.write(str(args.out_dir / f"trace-{args.workload}-{args.seed}.jsonl"))
        report["layers"] = _layers(rnd, tracer)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
