"""Tests for the ``python -m repro`` demo runner."""

import json

import pytest

from repro.__main__ import main


class TestCLI:
    def test_default_is_figure1(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "jack" in out and "978-3-16-1" in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        assert "tom" in capsys.readouterr().out

    def test_bounds(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "n^5" in out
        assert "n^7/2" in out

    def test_figure3(self, capsys):
        assert main(["figure3", "3"]) == 0
        out = capsys.readouterr().out
        assert "ratios" in out

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bench(self, capsys):
        assert main(["bench", "30"]) == 0
        out = capsys.readouterr().out
        assert "generic_join" in out
        assert "leapfrog" in out
        assert "xjoin" in out

    def test_bench_json_writes_snapshot(self, capsys, tmp_path,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "30", "--json"]) == 0
        out = capsys.readouterr().out
        assert "BENCH_engine.json" in out
        records = json.loads((tmp_path / "BENCH_engine.json").read_text())
        assert records and all(r["suite"] == "engine" for r in records)
        workloads = {r["workload"] for r in records}
        assert {"generic_join", "leapfrog", "xjoin"} <= workloads
        for record in records:
            assert set(record) == {"suite", "scenario", "workload",
                                   "median_ms", "speedup"}
            assert record["median_ms"] >= 0

    def test_explain_default_is_skewed(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "plan for 'skewed'" in out
        assert "order:" in out and "operator:" in out
        assert "observed" in out
        assert "after observation" in out

    def test_explain_multimodel_spec(self, capsys):
        assert main(["explain", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "xjoin" in out
        assert "twig:" in out
        assert "invoices[orderLine/ISBN]" in out and "P-C path" in out
        assert "validation: invoices skipped (implied by join)" in out

    def test_explain_lists_ad_pair_inputs(self, capsys):
        assert main(["explain", "xmark-stream:1"]) == 0
        out = capsys.readouterr().out
        pair_line = next(line for line in out.splitlines()
                         if "X[p//i]" in line)
        assert "A-D pair" in pair_line
        assert int(pair_line.split()[-1]) > 0
        assert "validation: X" in out

    def test_explain_unknown_corpus_exits_two(self, capsys):
        assert main(["explain", "nope"]) == 2
        assert "unknown corpus" in capsys.readouterr().err

    def test_explain_workers_shapes_partitions(self, capsys):
        assert main(["explain", "skewed:n=2048", "--workers", "4"]) == 0
        assert "partitions:" in capsys.readouterr().out

    def test_json_flag_rejected_outside_bench(self, capsys):
        assert main(["selftest", "--json"]) == 2
        assert "--json" in capsys.readouterr().err

    def test_unknown_command_shows_usage(self, capsys):
        assert main(["wat"]) == 2
        captured = capsys.readouterr()
        assert "Commands" in captured.out
        assert "unknown command" in captured.err

    def test_bad_numeric_argument_exits_nonzero(self, capsys):
        assert main(["figure3", "six"]) == 2
        assert "bad argument" in capsys.readouterr().err
