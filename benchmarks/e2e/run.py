"""The end-to-end benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds N --trace 0|1
    python3 benchmarks/e2e/run.py --all --seed S [--trace] [--quick]
    python3 benchmarks/e2e/run.py --aa --seed S

One workload run: set up (several times, timing each), take the cold
first query after every set-up, repeat the workload's fixed round of
operations until ``--seconds`` are spent, check the outputs against
the workload's oracle, run the leak gate, print every metric by name
with its unit and write one stamped record. The last line of standard
output is the result object ``BENCHMARK.json``'s contract asks for:
the end-to-end metrics with ``--trace 0``, the per-layer metrics (from
a second, traced pass after the untraced one) with ``--trace 1``.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import harness
from harness import ROOT, WORK, Gate, Samples, Tracer, metric_entry


#: Seconds an orphaned helper gets to end by itself before it is killed.
ORPHAN_GRACE_S = 10.0


def supervise() -> "int | None":
    """Run this command once more in a child with a fixed hash seed (set
    iteration order feeds row order and with it timings), the program
    importable and the temp directory inside the checkout; returns the
    child's exit code, or None when this process is that child.

    The parent stays behind as the *reaper* of everything the child
    starts. The program's parallel layer starts helpers that outlive
    their starter by design — ``multiprocessing``'s resource tracker
    ends only when the process that used shared memory has gone, and
    would then linger as an orphan. As the child subreaper the parent
    inherits every such orphan, waits until each has ended (killing what
    does not end by itself), and only then exits: on every path out, no
    process of a run is left behind."""
    if os.environ.get("REPRO_E2E_ENV") == "1":
        return None
    import ctypes
    import signal

    PR_SET_CHILD_SUBREAPER = 36
    if ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        sys.exit("prctl(PR_SET_CHILD_SUBREAPER) failed: cannot guarantee "
                 "that no process outlives the run")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, REPRO_E2E_ENV="1", TMPDIR=str(tmp))
    env.setdefault("PYTHONHASHSEED", "0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])

    def interrupted(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, interrupted)
    child = subprocess.Popen([sys.executable, *sys.argv], env=env)
    try:
        code = child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise
    finally:
        killed = reap_orphans()
    if killed:
        print(f"killed {len(killed)} process(es) still running "
              f"{ORPHAN_GRACE_S:.0f} s after the run", file=sys.stderr)
    return code or int(bool(killed))


def reap_orphans() -> "set[int]":
    """Wait until every remaining child of this process (the orphans it
    inherited as subreaper) has ended; returns the pids that had to be
    killed after :data:`ORPHAN_GRACE_S`."""
    import signal

    killed: set[int] = set()
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.005)
            continue
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
                if int(fields[1]) == os.getpid() and fields[0] != "Z":
                    os.kill(int(entry), signal.SIGKILL)
                    killed.add(int(entry))
            except (OSError, IndexError):
                pass  # ended while we were looking
        time.sleep(0.005)  # the killed ones' own children arrive next


def registry() -> dict:
    from library import CorpusStream, MMXMark, RelTriangle
    from serve import ServeMixed, ServeRead

    return {cls.name: cls for cls in (RelTriangle, MMXMark, CorpusStream,
                                      ServeRead, ServeMixed)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    """Run one workload; returns its record (also written to disk)."""
    gate = Gate()
    workload = registry()[name](seed, quick, gate)
    samples = Samples()
    for repeat in range(workload.setups):
        if repeat:
            workload.teardown()
        samples.time("setup", workload.setup, busy=False)
        workload.first_query(samples)
    gate.ops(samples.count("first_query"))

    ops = rounds = 0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        ops += workload.round(samples)
        rounds += 1
    gate.ops(ops)
    workload.finish(samples)
    rss = harness.peak_rss_mb()
    max_intermediate = workload.check()

    values = {
        "setup_s": (samples.p50_ms("setup") / 1e3, samples.count("setup")),
        "first_query_ms": (samples.p50_ms("first_query"),
                           samples.count("first_query")),
        "query_p50_ms": (samples.p50_ms("query"), samples.count("query")),
        "throughput_ops_s": (ops / samples.busy_s(), ops),
        "peak_rss_mb": (rss, 1),
        "max_intermediate": (max_intermediate, 1),
    }
    layer = {}
    if trace:
        tracer = Tracer()
        layer = workload.trace(tracer, samples)
        # Spans are named like their metrics; explicit entries win.
        layer = {**tracer.medians(harness.PER_LAYER), **layer}
        layer["trace.coverage"] = tracer.coverage()
        gate.check(layer["trace.coverage"] >= 0.9,
                   f"trace.coverage {layer['trace.coverage']:.3f} < 0.9")
        tracer.dump(harness.RESULTS / f"trace-{name}.json")
    workload.teardown()
    gate.leaks()
    if trace:
        layer.update(workload.extra)
        layer["parallel.leaked"] = sum(
            "leaked" in failure or "unreaped" in failure
            for failure in gate.failures)
        layer["gate.failed_share"] = gate.failed / gate.attempted
        unknown = set(layer) - set(harness.PER_LAYER)
        assert not unknown, f"metrics missing from BENCHMARK.json: {unknown}"
        # A layer that does no work on this workload reports 0.
        for metric in harness.PER_LAYER:
            values[metric] = (layer.get(metric, 0.0), 1)

    record = {
        "schema": 1, "workload": name, "why": harness.WORKLOADS[name],
        "quick": quick, "traced": trace, "seconds": seconds,
        "rounds": rounds, "provenance": harness.provenance(seed),
        "correct": gate.failed == 0, "attempted": gate.attempted,
        "failed": gate.failed, "failures": gate.failures,
        "unsupported": workload.unsupported,
        "metrics": {metric: metric_entry(metric, value, count)
                    for metric, (value, count) in values.items()},
        "tails": {kind: samples.tail(kind) for kind in samples.ns
                  if samples.tail(kind)},
        # What the clock read, before load compensation.
        "raw_p50_ms": {kind: samples.p50_ms(kind, raw=True)
                       for kind in samples.ns},
        # Every raw sample as (ns, block) and every block's probe
        # reading, so any statistic can be recomputed from the record.
        "samples": {"ns": samples.ns, "block_probe_ns": samples.block_probe,
                    "block_busy_ns": samples.block_busy},
        "load": {"median": samples.median_load(),
                 "blocks": len(samples.block_busy)},
    }
    path = harness.write_record(record)

    print(f"== {name} (seed {seed}, {rounds} rounds, "
          f"{'quick, ' if quick else ''}record {path.relative_to(ROOT)})")
    idle = 0
    for metric, entry in record["metrics"].items():
        if metric in harness.PER_LAYER and metric not in layer:
            idle += 1  # in the result line below, not worth a row here
            continue
        print(f"{metric:44s} {entry['value']:>16.6g} {entry['unit']:<6s} "
              f"n={entry['samples']}")
    if idle:
        print(f"({idle} metrics of layers idle on this workload report 0)")
    print(f"machine load during the run: median "
          f"{record['load']['median']:.2f}x the reference; raw medians (ms): "
          + ", ".join(f"{kind} {ms:.4g}"
                      for kind, ms in record["raw_p50_ms"].items()))
    for kind, (label, ms) in record["tails"].items():
        print(f"tail {kind:39s} {ms:>16.6g} ms     {label} "
              f"(n={samples.count(kind)})")
    for cell in workload.unsupported:
        print(f"unsupported {cell}")
    for failure in gate.failures:
        print(f"FAILED {failure}")
    return record


def result_line(record: dict) -> str:
    """The contract's result object: end-to-end metrics of an untraced
    run, per-layer metrics of a traced one."""
    names = harness.PER_LAYER if record["traced"] else harness.END_TO_END
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric: {"value": record["metrics"][metric]["value"],
                             "unit": record["metrics"][metric]["unit"]}
                    for metric in names}})


def run_set(args) -> "tuple[list[dict], bool]":
    """Every workload, each in a process of its own (a clean peak RSS).
    Returns (records, all green)."""
    records, green = [], True
    for name in harness.WORKLOADS:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        green &= subprocess.run(command).returncode == 0
        suffix = "-quick" if args.quick else ""
        records.append(json.loads(
            (harness.RESULTS / f"{name}{suffix}.json").read_text()))
    return records, green


def run_aa(args) -> bool:
    """The whole set twice on the same code and seed: per (workload,
    end-to-end metric), how far the second set is worse than the first,
    against the metric's bound."""
    first, green_a = run_set(args)
    second, green_b = run_set(args)
    rows = harness.compare(first, second)
    print("== A/A: second set against first, same commit, same seed")
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:18s} "
              f"{row['first']:>14.6g} {row['second']:>14.6g} "
              f"worse by {row['worse']:+7.2%} of bound {row['bound']:.0%}"
              f"{'' if row['within'] else '  MISSES ITS BOUND'}")
    return green_a and green_b and all(row["within"] for row in rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one process each")
    parser.add_argument("--aa", action="store_true",
                        help="run the whole set twice and compare")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 4; records are marked and never "
                             "compared")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'}: no program to measure")
    code = supervise()
    if code is not None:
        return code
    if args.seconds is None:
        args.seconds = 1 if args.quick else harness.SPEC["run_seconds"]
    if args.aa:
        return 0 if run_aa(args) else 1
    if args.all:
        return 0 if run_set(args)[1] else 1
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {list(harness.WORKLOADS)}")
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick)
    print(result_line(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
