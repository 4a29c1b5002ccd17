"""In-memory span recorder and the per-layer metrics derived from its spans.

A span is (name, start, end, parent, op id, failed). Spans are kept in flat
arrays while the benchmark runs and written out once, at the end.

Calls the library makes internally are re-issued by the benchmark after the
op on the same inputs, and recorded as children of the span that made them.
A re-issued child therefore does not lie inside its parent's interval; self
time is the parent's duration minus its children's durations. Durations have
the timer cost of an empty span subtracted.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np


_now = time.perf_counter_ns


class Tracer:
    """Records spans when enabled; otherwise only calls through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op_id = -1
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.counts: Counter[str] = Counter()
        self.sweeps: dict[tuple[float, int], int] = {}  # (theta, steps) -> intervals used

    def begin(self, name: str, parent: int) -> int:
        """Open a span whose end is set by finish(); -1 when disabled."""
        if not self.enabled:
            return -1
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.failed.append(0)
        self.end.append(0)
        self.start.append(_now())
        return len(self.start) - 1

    def finish(self, idx: int, failed: bool = False) -> None:
        if idx >= 0:
            self.end[idx] = _now()
            self.failed[idx] = failed

    def call(self, name: str, parent: int, fn, *args):
        """fn(*args) inside a span; returns (result, span index)."""
        if not self.enabled:
            return fn(*args), -1
        idx = self.begin(name, parent)
        try:
            out = fn(*args)
        except BaseException:
            self.finish(idx, failed=True)
            raise
        self.end[idx] = _now()
        return out, idx

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op,failed\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.op[i]},{self.failed[i]}\n")


# Every spanned function and the unit of its median duration. Functions a
# workload does not reach report 0 calls, which records that it bypasses them.
FUNCTIONS = {
    "states.PureState": "us",
    "states.inner_product": "us",
    "majorana.state_to_points": "us",
    "majorana.points_to_state": "us",
    "majorana.product_state": "us",
    "phases.three_vertex_phase": "us",
    "phases.canonicalize_triple": "us",
    "phases.decompose_phase": "us",
    "eraser.extract_geometric_phase": "us",
    "eraser.fringe_scan": "us",
    "sweep.sweep_alpha": "ms",
    "sweep.build_family_states": "us",
    "sweep.family_qubits": "us",
    "cli.phase": "ms",
    "cli.majorana": "ms",
    "cli.canonicalize": "ms",
    "cli.eraser": "ms",
    "cli.sweep": "ms",
}
LAYERS = ("states", "majorana", "phases", "eraser", "sweep", "cli", "bench")
ROOT_SPAN = "bench.op"
_SCALE = {"us": 1e-3, "ms": 1e-6}


def _noop():
    return None


def null_span_ns() -> float:
    """Median duration recorded for a span around a call that does nothing:
    the timer cost every recorded duration carries."""
    tr = Tracer(True)
    for _ in range(2000):
        tr.call("null", -1, _noop)
    return float(np.median(np.asarray(tr.end) - np.asarray(tr.start)))


def layer_metrics(tr: Tracer, import_ms: float) -> dict[str, tuple[float, str]]:
    """Per-function counts and timings, per-layer shares of op time, and the
    counts the re-issued calls recorded."""
    names = np.asarray(tr.name_id)
    parent = np.asarray(tr.parent)
    failed = np.asarray(tr.failed)
    dur = (np.asarray(tr.end) - np.asarray(tr.start)) - null_span_ns()
    children = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], dur[has_parent])
    self_ns = dur - children
    span_layer = np.array([nm.split(".", 1)[0] for nm in tr.names], dtype=object)[names]
    ids = {name: i for i, name in enumerate(tr.names)}

    def mask(name):
        return names == ids.get(name, -1)

    out: dict[str, tuple[float, str]] = {}
    for fn, unit in FUNCTIONS.items():
        m = mask(fn)
        calls = int(m.sum())
        out[f"{fn}.calls"] = (calls, "count")
        out[f"{fn}.{unit}"] = (float(np.median(dur[m])) * _SCALE[unit] if calls else 0.0, unit)
        out[f"{fn}.busy_ms"] = (float(dur[m].sum()) * 1e-6, "ms")
        out[f"{fn}.failed"] = (int(failed[m].sum()), "count")
    m = mask("phases.decompose_phase")
    out["phases.decompose_phase.self_us"] = (float(np.median(self_ns[m])) * 1e-3 if m.any() else 0.0, "us")

    op_total = float(dur[mask(ROOT_SPAN)].sum())
    for name in LAYERS:
        out[f"{name}.share"] = (float(self_ns[span_layer == name].sum()) / op_total if op_total else 0.0,
                                "ratio")

    m = mask("sweep.sweep_alpha")
    busy = float(dur[m].sum())
    out["sweep.pipeline_share"] = (float(children[m].sum()) / busy if busy else 0.0, "ratio")
    samples = tr.counts["sweep.samples"]
    out["sweep.us_per_sample"] = (busy * 1e-3 / samples if samples else 0.0, "us")
    out["sweep.intervals"] = (sum(tr.sweeps.values()), "count")
    out["sweep.doublings"] = (sum((n // steps).bit_length() - 1 for (_, steps), n in tr.sweeps.items()),
                              "count")

    ops = int(mask(ROOT_SPAN).sum())
    out["eraser.grid_samples"] = (tr.counts["eraser.grid_samples"] / ops if ops else 0.0, "count")
    calls = dur[span_layer == "cli"]
    median_call_ms = float(np.median(calls)) * 1e-6 if calls.size else 0.0
    out["cli.startup_share"] = (import_ms / median_call_ms if median_call_ms else 0.0, "ratio")
    return out
