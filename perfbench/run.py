#!/usr/bin/env python3
"""Benchmark of the coldstack power optimizer.

    python3 perfbench/run.py --workload ft-qubit-quality --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; coldstack is imported from its
``src``.  A round is one fresh worker process that sets up, runs the
workload's operations once and checks every result.  With ``--trace 0``
the run makes rounds, one after another, until it has at least two and
``--seconds`` have passed, with three one-operation probes around them,
and reports the end-to-end metrics.  With
``--trace 1`` it makes one untraced and one traced round, and
``python -X importtime`` gives the import layer; it reports the
per-layer metrics.  The last line of stdout is the JSON result.  See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("ft-qubit-quality", "rsa-wiring", "nisq-compression")
#: Rounds per run at the least, and probes: each is a fresh worker process;
#: a probe runs only the first operation.
MIN_ROUNDS = 2
PROBES = 3
#: Time of the workers' reference work on a host at unit speed; a quiet
#: moment of the 2-vCPU Xeon this was built on.
REFERENCE_S = 0.005
IMPORT_RUNS = 3
DEADLINE_S = 170.0
#: One thread everywhere, as the benchmark models a single-caller CLI, and
#: one hash seed, so every round lays out its dicts and sets alike.
ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerError(Exception):
    pass


def _worker(args, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out-dir", str(OUT_DIR), *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_times(deadline: float) -> dict:
    """Self time of each package's modules, from ``python -X importtime``."""
    env = {**ENV, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import coldstack"],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise WorkerError(f"import of coldstack failed:\n{proc.stderr}")
    totals = {"numpy": 0.0, "scipy": 0.0, "coldstack": 0.0}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0]) * 1e-6
    return totals


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the last word of its name."""
    last = name.replace("_", ".").rsplit(".", 1)[-1]
    return {"s": "s", "bytes": "B", "ratio": "ratio"}.get(last, "count")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> dict:
    # probes before, between and after the rounds spread the set-up and
    # first-result samples over the run
    start = time.monotonic()
    probes = [_worker(args, deadline, "--probe")]
    rounds = []
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        rounds.append(_worker(args, deadline))
        if len(probes) < PROBES:
            probes.append(_worker(args, deadline, "--probe"))
    # The host's speed drifts by up to 2x, switching within a second and
    # drifting over minutes.  Times are divided by the speed measured with
    # the reference work timed beside them, over REFERENCE_S.
    speeds = [statistics.mean(r["reference_s"]) / REFERENCE_S for r in rounds]
    samples = probes + rounds
    near_first = [statistics.mean(s["first_reference_s"]) / REFERENCE_S for s in samples]
    op_time = [sum(r["latencies_s"]) for r in rounds]
    attempted = sum(r["attempted"] for r in rounds)
    failed = [op for r in rounds for op in r["failed_ops"]]
    q1, q2, q3 = statistics.quantiles(sorted(1e3 * t for t in rounds[0]["latencies_s"]), n=4)
    print(f"# {args.workload}: {len(rounds)} rounds of {rounds[0]['attempted']} ops and "
          f"{len(probes)} probes; as measured: {attempted / sum(op_time):.4g} ops/s, set-up "
          f"{[round(s['setup_s'], 3) for s in samples]} s, first result "
          f"{[round(s['first_result_s'], 3) for s in samples]} s, first round's "
          f"per-op latency quartiles {q1:.0f} / {q2:.0f} / {q3:.0f} ms; host speed "
          f"{[round(v, 3) for v in speeds]} in the rounds, "
          f"{[round(v, 3) for v in near_first]} near the first result; "
          f"failed: {sorted(set(failed))}")
    return {
        "correct": True, "attempted": attempted, "failed": len(failed),
        "metrics": {
            "setup_s": _metric(statistics.median(
                s["setup_s"] / v for s, v in zip(samples, near_first)), "s"),
            "first_result_s": _metric(statistics.median(
                s["first_result_s"] / v for s, v in zip(samples, near_first)), "s"),
            "ops_per_s": _metric(
                attempted / sum(t / s for t, s in zip(op_time, speeds)), "1/s"),
            "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        },
    }


def per_layer(args, deadline: float) -> dict:
    imports = [_import_times(deadline) for _ in range(IMPORT_RUNS)]
    plain = _worker(args, deadline)
    traced = _worker(args, deadline, "--trace", "1")
    layers = {f"import.{pkg}_s": statistics.median(r[pkg] for r in imports)
              for pkg in ("numpy", "scipy", "coldstack")}
    layers.update(traced["layers"])
    plain_s, traced_s = sum(plain["latencies_s"]), sum(traced["latencies_s"])
    print(f"# {args.workload}: operations took {plain_s:.2f} s untraced, "
          f"{traced_s:.2f} s traced (overhead {traced_s / plain_s - 1:+.1%}); "
          f"failed: {traced['failed_ops']}")
    metrics = {name: _metric(value, layer_unit(name)) for name, value in layers.items()}
    return {"correct": True, "attempted": plain["attempted"] + traced["attempted"],
            "failed": len(plain["failed_ops"]) + len(traced["failed_ops"]),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="coldstack optimizer benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "coldstack" / "__init__.py").is_file():
        print(f"error: no coldstack sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = (per_layer if args.trace else end_to_end)(args, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
