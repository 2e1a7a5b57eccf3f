"""Checks of the benchmark harness itself.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only); run
explicitly, it takes about half a minute:

    python3 -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

#: Counts that follow the wall clock: the adaptive planner races plans
#: by time, and what it crowns decides later epochs and cache keys.
CLOCK_DEPENDENT = {"engine.adaptive_races", "service.plan_cache_hit_ratio",
                   "service.plan_cache_rejected", "service.queue_depth_max",
                   "xml.twig.planner_pick_wins"}
#: Workloads planned statically: every count must repeat exactly.
STATIC = ("rel_triangle", "mm_xmark", "corpus_stream")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def records() -> dict[str, dict]:
    results = ROOT / "benchmarks" / "results" / "e2e"
    return {name: json.loads((results / f"{name}-quick.json").read_text())
            for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced_set() -> dict[str, dict]:
    done = run("--all", "--seed", "5", "--trace", "1")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return records()


def test_spec_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert "setup_s" in END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_record_schema(traced_set):
    for name, record in traced_set.items():
        assert record["workload"] == name and record["quick"] is True
        assert record["correct"] and record["failed"] == 0, record["failures"]
        assert record["attempted"] >= 1
        assert set(record["provenance"]) == {
            "commit", "dirty", "python", "platform", "nproc", "utc", "seed",
            "argv", "pythonhashseed"}
        assert record["provenance"]["pythonhashseed"] == "0"
        assert set(record["metrics"]) == END_TO_END | PER_LAYER
        for metric, entry in record["metrics"].items():
            assert {"value", "unit", "better", "samples"} <= set(entry)
            assert ("bound" in entry) == (metric in END_TO_END)
        for metric in END_TO_END:
            assert record["metrics"][metric]["value"] > 0, (name, metric)


def test_every_layer_metric_is_measured_somewhere(traced_set):
    idle = {metric for metric in PER_LAYER
            if all(record["metrics"][metric]["value"] == 0
                   for record in traced_set.values())}
    # Zero on a healthy tree: leaks, failures, live pins, offloads (the
    # corpus is under the offload threshold), queueing behind the
    # writer — and, at the seed commit, shapes where the planner's
    # matcher pick is the fastest one.
    assert idle <= {"parallel.leaked", "gate.failed_share",
                    "service.offloaded", "service.queue_depth_max",
                    "mvcc.active_pins_end",
                    "xml.twig.planner_pick_wins"}, idle


def test_trace_covers_the_wall(traced_set):
    for name, record in traced_set.items():
        assert record["metrics"]["trace.coverage"]["value"] >= 0.9, name
        assert record["metrics"]["core.intermediate_over_agm"]["value"] <= 1
        trace = json.loads((ROOT / "benchmarks" / "results" / "e2e"
                            / f"trace-{name}.json").read_text())
        assert trace["columns"] == ["id", "parent", "op", "name",
                                    "start_ns", "end_ns"]
        assert trace["spans"]


def test_result_line_matches_the_contract():
    for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
        done = run("--workload", "mm_xmark", "--seed", "5", "--trace", trace)
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == names
        for entry in result["metrics"].values():
            assert set(entry) == {"value", "unit"}


def test_a_run_leaves_no_process_behind():
    # The traced rel_triangle run publishes to shared memory, which
    # starts multiprocessing's resource tracker: it ends only after the
    # process that started it, so only the reaper in run.py ends it.
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "rel_triangle",
         "--seed", "5", "--trace", "1", "--quick"], cwd=ROOT,
        stdout=subprocess.DEVNULL, start_new_session=True)
    assert process.wait(timeout=300) == 0
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            name, fields = stat.read_text().rsplit(")", 1)
        except OSError:
            continue  # ended while we were looking
        if int(fields.split()[3]) == process.pid:  # the run's session
            left.append(name)
    assert not left


def test_same_seed_same_counters(traced_set):
    done = run("--all", "--seed", "5", "--trace", "1")
    assert done.returncode == 0
    exact = {m["name"] for m in SPEC["per_layer"]
             if m["unit"] in ("count", "B", "B/B")} - CLOCK_DEPENDENT
    exact |= {"core.intermediate_over_agm", "core.useful_ratio",
              "engine.examined_per_row", "max_intermediate"}
    again = records()
    for name in STATIC:
        for metric in exact:
            assert again[name]["metrics"][metric]["value"] == \
                traced_set[name]["metrics"][metric]["value"], (name, metric)
    for name in ("serve_read", "serve_mixed"):
        for metric in ("max_intermediate", "mvcc.active_pins_end"):
            assert again[name]["metrics"][metric]["value"] == \
                traced_set[name]["metrics"][metric]["value"], (name, metric)


def test_quick_records_are_never_compared(traced_set):
    sys.path.insert(0, str(HERE))
    import harness

    quick = list(traced_set.values())
    with pytest.raises(ValueError):
        harness.compare(quick, quick)
    full = [dict(record, quick=False) for record in quick]
    rows = harness.compare(full, full)
    assert len(rows) == len(WORKLOADS) * len(END_TO_END)
    assert all(row["worse"] == 0 and row["within"] for row in rows)
