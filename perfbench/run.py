#!/usr/bin/env python3
"""Benchmark of the triphase library and CLI, run from a source checkout.

    python3 perfbench/run.py --workload triples --seed 1 --seconds 20 --trace 0

One process, no worker threads. Set-up imports triphase in fresh interpreters
and generates the workload's inputs from the seed; the timed loop then issues
one op at a time until --seconds have passed and checks every output. Every
metric computed is printed as `name = value unit`; the last stdout line is
one JSON object holding the ones BENCHMARK.json lists: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A traced run spends the
first half of its time untraced, so that the tracing overhead is measured,
and writes its spans to perfbench/out/spans-<workload>.csv. Every result is
appended, with a machine and code record, to perfbench/out/results.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

from spans import ROOT_SPAN, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
MAX_TRACEBACKS = 3


def load_library() -> None:
    """Import triphase from this checkout's src/, for this process and every
    interpreter it starts; exit when the checkout has no src/triphase."""
    if not (SRC / "triphase" / "__init__.py").is_file():
        raise SystemExit(f"error: no triphase package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import triphase

    if Path(triphase.__file__).resolve().parent != SRC / "triphase":
        raise SystemExit(f"error: imported triphase from {triphase.__file__}, not from {SRC}")


def fresh_python_ms(code: str) -> float:
    """Wall time of a new interpreter running `code`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return (time.perf_counter() - t0) * 1e3


def setup(workload_cls, seed: int, workdir: Path, reps: int):
    """Set up `reps` times: a fresh-interpreter `import triphase`, then input
    generation. Returns the workload, the median set-up time in s and the
    median import time in ms."""
    totals, imports = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        imports.append(fresh_python_ms("import triphase"))
        workload = workload_cls(seed, workdir)
        totals.append(time.perf_counter() - t0)
    return workload, statistics.median(totals), statistics.median(imports)


class Loop(NamedTuple):
    ops: int
    failed: int
    durations: list[int]  # per op, ns
    wall: float           # s


def measure(workload, seconds: float, tr, first_op: int) -> Loop:
    """Closed loop: one op at a time until `seconds` have passed."""
    durations, failed, shown = [], 0, 0
    i = first_op
    t_start = time.perf_counter()
    while True:
        tr.op_id = i
        root = tr.begin(ROOT_SPAN, -1)
        t0 = time.perf_counter_ns()
        try:
            out = workload.op(i, tr, root)
            ok = True
        except Exception:
            ok = False
            error = traceback.format_exc()
        durations.append(time.perf_counter_ns() - t0)
        tr.finish(root, failed=not ok)
        if ok:
            try:
                ok = bool(workload.check(i, out))
                error = f"op {i}: output failed its correctness check\n"
                if ok and tr.enabled:
                    workload.reissue(tr, out)
            except Exception:
                ok = False
                error = traceback.format_exc()
        if not ok:
            failed += 1
            if shown < MAX_TRACEBACKS:
                shown += 1
                sys.stderr.write(error)
        i += 1
        wall = time.perf_counter() - t_start
        if wall >= seconds:
            return Loop(i - first_op, failed, durations, wall)


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ops_per_s(loop: Loop, cycle: int) -> float:
    """Op throughput from the 10th-percentile op time of each input class.

    Op i belongs to class i % cycle (a dimension, a sweep case, a CLI
    command), and classes differ in cost, so each gets its own percentile.
    The host these runs share swings by a fifth and more within seconds; the
    fast decile of each class reads the program's own speed and repeats from
    run to run far better than the mean or the median.
    """
    fast = [percentile(loop.durations[k::cycle], 10) for k in range(min(cycle, loop.ops))]
    return len(fast) / (sum(fast) * 1e-9)


def machine_record() -> dict:
    """Interpreter, library versions, cores, commit and size of src/."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        setup_reps: int = SETUP_REPS) -> tuple[dict, dict, dict]:
    """One benchmark run. Returns the result object printed as the last line,
    every metric computed (BENCHMARK.json gates a subset) and the machine and
    code record stored with them."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload, setup_s, import_ms = setup(WORKLOADS[workload_name], seed, workdir, setup_reps)
        if not trace:
            loop = measure(workload, seconds, Tracer(False), 0)
            attempted, failed = loop.ops, loop.failed
            computed = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (ops_per_s(loop, workload.CYCLE), "1/s"),
                # ru_maxrss is in KiB on Linux
                "peak_rss_mb": (resource.getrusage(workload.RUSAGE_WHO).ru_maxrss / 1024.0, "MB"),
                "op_p50_ms": (percentile(loop.durations, 50) * 1e-6, "ms"),
            }
            # A tail percentile needs at least ten ops beyond it.
            if attempted >= 100:
                computed["op_p90_ms"] = (percentile(loop.durations, 90) * 1e-6, "ms")
            if hasattr(workload, "samples"):
                computed["samples_per_s"] = (workload.samples / loop.wall, "1/s")
        else:
            interpreter_ms = statistics.median(fresh_python_ms("pass") for _ in range(setup_reps))
            plain = measure(workload, seconds / 2, Tracer(False), 0)
            tr = Tracer(True)
            traced = measure(workload, seconds / 2, tr, plain.ops)
            tr.write_csv(OUT / f"spans-{workload_name}.csv")
            attempted, failed = plain.ops + traced.ops, plain.failed + traced.failed
            plain_rate, traced_rate = ops_per_s(plain, workload.CYCLE), ops_per_s(traced, workload.CYCLE)
            computed = layer_metrics(tr, import_ms)
            computed.update({
                "cli.interpreter_ms": (interpreter_ms, "ms"),
                "cli.import_ms": (import_ms, "ms"),
                "cli.bytes_written": (workload.bytes_written() if hasattr(workload, "bytes_written") else 0,
                                      "bytes"),
                "bench.ops_per_s_untraced": (plain_rate, "1/s"),
                "bench.ops_per_s_traced": (traced_rate, "1/s"),
                "bench.trace_overhead": (1.0 - traced_rate / plain_rate, "ratio"),
            })
        computed["fail_ratio"] = (failed / attempted, "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value, unit = computed[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: measured in {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = machine_record()
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
                             "computed": computed, "record": record, **result}) + "\n")
    return result, computed, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("triples", "sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_library()
    result, computed, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in computed.items():
        print(f"{name} = {value} {unit}")
    print(f"ops = {result['attempted']} attempted, {result['failed']} failed")
    print("record = " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
