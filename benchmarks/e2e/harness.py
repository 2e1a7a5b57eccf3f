"""Shared machinery of the end-to-end benchmark.

Everything here measures the program from outside: timing helpers,
the in-memory span recorder of the traced run, the correctness/leak
gate, the provenance stamp and the record writer. ``BENCHMARK.json`` at
the repo root is the single source of metric names, units, directions
and bounds; this module only loads it.
"""

from __future__ import annotations

import datetime
import gc
import glob
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Records and traces land here (``benchmarks/results/`` is gitignored).
RESULTS = ROOT / "benchmarks" / "results" / "e2e"
#: Scratch space inside the checkout: TMPDIR points here, so the file
#: arenas the program spills to "the temp directory" stay in the checkout.
WORK = ROOT / ".bench_work"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: ``--quick`` divides every input size by this (same code paths).
QUICK_DIVISOR = 4


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

@contextmanager
def quiesced():
    """Collect now, then keep the collector off for the timed region."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def probe() -> int:
    """Nanoseconds a fixed slice of interpreter work takes right now
    (dict updates and a sort, ~6 ms): a reading of how loaded the
    machine is at this moment."""
    start = time.perf_counter_ns()
    table: dict[int, int] = {}
    for i in range(60000):
        table[i & 4095] = table.get(i & 4095, 0) + i
    sorted(table.items(), key=lambda item: -item[1])
    return time.perf_counter_ns() - start


def timed(fn):
    """(nanoseconds, result) of one call, collector quiesced around it."""
    with quiesced():
        start = time.perf_counter_ns()
        result = fn()
        elapsed = time.perf_counter_ns() - start
    return elapsed, result


#: What :func:`probe` takes on the undisturbed machine the committed
#: baseline was measured on. Compensated timings are scaled to it, so
#: on another machine they read as that machine would have timed them.
PROBE_REFERENCE_NS = 6.0e6


class Samples:
    """Named nanosecond samples, each tied to the machine load around it.

    The box this runs on is shared: for minutes at a time everything —
    the workload and the probe alike — runs up to 1.6x slower, and no
    statistic of the raw samples survives that (ten raw medians of the
    same code spread by 12 to 40 %). So timed work happens in *blocks*
    bracketed by two :func:`probe` readings. A block's load is the mean
    of its own and its two neighbours' readings over
    :data:`PROBE_REFERENCE_NS`, and a *compensated* sample is the raw
    sample divided by its block's load: an estimate of the time the
    work takes on the undisturbed reference machine. End-to-end timings
    are medians of compensated samples (ten of them spread by 3 to 6 %);
    the raw medians are recorded beside them.
    """

    def __init__(self) -> None:
        #: kind -> [(nanoseconds, block index)]
        self.ns: dict[str, list[tuple[int, int]]] = {}
        #: per block, the mean of its two probe readings
        self.block_probe: list[float] = []
        #: per block, the timed nanoseconds that count as busy time
        self.block_busy: list[int] = []
        self._open = False

    @contextmanager
    def block(self):
        """Timed work between two probes (a no-op inside a block)."""
        if self._open:
            yield
            return
        with quiesced():
            before = probe()
            self.block_probe.append(before)
            self.block_busy.append(0)
            self._open = True
            try:
                yield
            finally:
                self._open = False
                self.block_probe[-1] = (before + probe()) / 2

    def add(self, name: str, ns: int, busy: bool = True) -> None:
        """Record one sample in the open block; *busy* samples count
        into the block's busy time (what throughput divides by)."""
        block = len(self.block_busy) - 1
        self.ns.setdefault(name, []).append((ns, block))
        if busy:
            self.block_busy[block] += ns

    def time(self, name: str, fn, busy: bool = True):
        """Time one call into *name*, in a block of its own unless one
        is open; returns the call's result."""
        with self.block():
            start = time.perf_counter_ns()
            result = fn()
            self.add(name, time.perf_counter_ns() - start, busy)
        return result

    def count(self, name: str) -> int:
        return len(self.ns.get(name, ()))

    def load(self, block: int) -> float:
        near = self.block_probe[max(0, block - 1):block + 2]
        return statistics.mean(near) / PROBE_REFERENCE_NS

    def median_load(self) -> float:
        return statistics.median(self.block_probe) / PROBE_REFERENCE_NS

    def values_ms(self, name: str, raw: bool = False) -> list[float]:
        if raw:
            return [ns / 1e6 for ns, _block in self.ns.get(name, ())]
        loads = [self.load(block) for block in range(len(self.block_probe))]
        return [ns / 1e6 / loads[block]
                for ns, block in self.ns.get(name, ())]

    def p50_ms(self, name: str, raw: bool = False) -> float:
        """Median of *name* in ms, load-compensated unless *raw*
        (0.0 when never sampled)."""
        values = self.values_ms(name, raw)
        return statistics.median(values) if values else 0.0

    def compensation(self, name: str) -> float:
        """Compensated over raw, for the latest sample of *name*: scales
        a time measured inside that sample the way the sample itself
        was scaled."""
        _ns, block = self.ns[name][-1]
        return 1 / self.load(block)

    def busy_s(self) -> float:
        """Σ busy time over all blocks, each compensated for its load."""
        return sum(busy / self.load(block) for block, busy
                   in enumerate(self.block_busy)) / 1e9

    def tail(self, name: str) -> "tuple[str, float] | None":
        """The highest of p75/p90/p95/p99 of the raw samples with at
        least ten samples beyond it."""
        values = sorted(self.values_ms(name, raw=True))
        for label, share in (("p99", 0.99), ("p95", 0.95),
                             ("p90", 0.90), ("p75", 0.75)):
            beyond = int(len(values) * (1 - share))
            if beyond >= 10:
                return label, values[len(values) - beyond - 1]
        return None


def peak_rss_mb() -> float:
    """This process's resident high-water mark (``VmHWM``) in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


# ---------------------------------------------------------------------------
# spans (traced run only)
# ---------------------------------------------------------------------------

class _Span:
    """One open span. The clock is read first on entry and last on exit,
    so the recording's own cost lands inside the span, not in its
    parent's self time."""

    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        start = time.perf_counter_ns()
        tracer = self.tracer
        stack = tracer._stack
        if not stack:
            tracer._op += 1
        spans = tracer.spans
        self.record = [len(spans), stack[-1] if stack else None,
                       tracer._op, self.name, start, 0]
        stack.append(len(spans))
        spans.append(self.record)

    def __exit__(self, *_exc) -> None:
        self.tracer._stack.pop()
        self.record[5] = time.perf_counter_ns()


class Tracer:
    """Spans kept in memory: (id, parent, op, name, start_ns, end_ns)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0

    def span(self, name: str) -> _Span:
        """One span under the innermost open one; a root span opens a
        new op id that all its descendants share."""
        return _Span(self, name)

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6
                for *_, span_name, start, end in self.spans
                if span_name == name]

    def p50_ms(self, name: str) -> float:
        values = self.durations_ms(name)
        return statistics.median(values) if values else 0.0

    def medians(self, metrics) -> dict[str, float]:
        """The median of every span named like one of *metrics* minus
        its unit suffix (span ``engine.plan`` is ``engine.plan_ms``,
        span ``mvcc.pin`` is ``mvcc.pin_us``)."""
        recorded = {record[3] for record in self.spans}
        scale = {"_ms": 1, "_us": 1e3}
        return {metric: self.p50_ms(metric[:-3]) * scale[metric[-3:]]
                for metric in metrics
                if metric[-3:] in scale and metric[:-3] in recorded}

    def coverage(self) -> float:
        """Share of the traced wall attributed to layer spans. The wall
        is Σ root-span durations; what is not attributed is the self
        time of the root spans that have children — harness glue
        between the calls into the layers. (A root without children is
        itself one call into a layer.)"""
        own = {record[0]: record[5] - record[4] for record in self.spans
               if record[1] is None}
        wall = sum(own.values())
        parents = set()
        for _id, parent, _op, _name, start, end in self.spans:
            if parent in own:
                own[parent] -= end - start
                parents.add(parent)
        glue = sum(own[root] for root in parents)
        return 1 - glue / wall if wall else 0.0

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "columns": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "spans": self.spans}))


# ---------------------------------------------------------------------------
# correctness and leak gate
# ---------------------------------------------------------------------------

class Gate:
    """Counts operations attempted and failed; a failed check, a refused
    op and a leak are each one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, count: int) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(message)
        return ok

    def leaks(self) -> None:
        """Zero shm segments, arena temp files and live children."""
        from repro.buffers.mmapfile import leaked_arena_files
        from repro.buffers.shm import SEGMENT_PREFIX

        self.attempted += 1
        for path in glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"):
            self.fail(f"leaked shm segment {path}")
        for path in leaked_arena_files():
            self.fail(f"leaked arena file {path}")
        for child in multiprocessing.active_children():
            self.fail(f"unreaped child process {child.name}")


# ---------------------------------------------------------------------------
# provenance and records
# ---------------------------------------------------------------------------

def _git(*args: str) -> "str | None":
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int) -> dict:
    """The stamp every record carries (a checkout without git history
    reports ``commit: null``)."""
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "seed": seed,
        "argv": sys.argv,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def metric_entry(name: str, value: float, samples: int) -> dict:
    """One record entry: the value plus its spec from BENCHMARK.json."""
    spec = END_TO_END.get(name) or PER_LAYER[name]
    entry = {"value": value, "unit": spec["unit"],
             "better": spec["better"], "samples": samples}
    if "bound" in spec:
        entry["bound"] = spec["bound"]
    return entry


def write_record(record: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    suffix = "-quick" if record["quick"] else ""
    path = RESULTS / f"{record['workload']}{suffix}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def compare(first: "list[dict]", second: "list[dict]") -> list[dict]:
    """Per (workload, end-to-end metric): how much worse *second* is than
    *first*, as a share of *first*, against the metric's bound. Quick
    records are refused: their sizes are not the benchmark's."""
    rows = []
    for a, b in zip(first, second):
        if a["quick"] or b["quick"]:
            raise ValueError("quick records cannot be compared")
        if (a["workload"], a["provenance"]["seed"]) != \
                (b["workload"], b["provenance"]["seed"]):
            raise ValueError("records of different workloads or seeds")
        for name, spec in END_TO_END.items():
            base = a["metrics"][name]["value"]
            other = b["metrics"][name]["value"]
            worse = (other - base if spec["better"] == "lower"
                     else base - other) / base
            rows.append({"workload": a["workload"], "metric": name,
                         "first": base, "second": other, "worse": worse,
                         "bound": spec["bound"],
                         "within": worse <= spec["bound"]})
    return rows
