"""Tests for the ``python -m repro`` demo runner."""

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

    def test_explain_default_is_skewed(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "plan for 'skewed'" in out
        assert "order:" in out and "operator:" in out
        assert "observed" in out
        assert "raced (" in out and "generations: R=0, S=0, T=0" in out
        assert "after observation" not in out

    def test_explain_multimodel_spec(self, capsys):
        assert main(["explain", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "xjoin" in out
        assert "twig:" not in out  # XJoin runs no twig matcher
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

    def test_bench_is_an_unknown_command(self, capsys):
        assert main(["bench"]) == 2
        assert "unknown command 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["figure1", "--verbose"],
                                      ["bounds", "--json"],
                                      ["selftest", "--json"]])
    def test_unknown_options_are_rejected(self, capsys, argv):
        assert main(argv) == 2
        assert "unknown option" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["figure1"], ["bounds"],
                                      ["explain", "figure1"], ["serve"]])
    def test_twig_algorithm_rejected_where_unused(self, capsys, argv):
        assert main(argv + ["--twig-algorithm", "accel"]) == 2
        assert "--twig-algorithm" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_figure3_needs_a_positive_size(self, capsys, n):
        assert main(["figure3", n]) == 2
        captured = capsys.readouterr()
        assert "bad argument" in captured.err
        assert "ratios" not in captured.out

    def test_figure3_disagreement_is_an_error_not_an_assert(
            self, capsys, monkeypatch):
        import repro.__main__ as cli
        from repro.relational.relation import Relation

        monkeypatch.setattr(
            cli, "baseline_join",
            lambda query, **kw: Relation("Q", query.attributes))
        assert main(["figure3", "2"]) == 1
        captured = capsys.readouterr()
        assert "disagrees" in captured.err
        assert "ratios" not in captured.out

    def test_unknown_command_shows_usage(self, capsys):
        assert main(["wat"]) == 2
        captured = capsys.readouterr()
        assert "Commands" in captured.out
        assert "unknown command" in captured.err

    @pytest.mark.parametrize("argv", [["-h"], ["--help"],
                                      ["figure3", "--help"]])
    def test_help_prints_usage_and_exits_zero(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "Commands" in captured.out and "--help" in captured.out
        assert captured.err == ""

    def test_bad_numeric_argument_exits_nonzero(self, capsys):
        assert main(["figure3", "six"]) == 2
        assert "bad argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["figure3", "--twig-algorithm"], "--twig-algorithm needs a value"),
        (["serve", "--corpus"], "--corpus needs a value"),
        (["selftest", "--workers", "-1"], "bad value for --workers"),
        (["selftest", "--workers=two"], "bad value for --workers"),
        (["serve", "--port", "65536"], "bad value for --port"),
        (["serve", "--port=http"], "bad value for --port"),
        (["figure3", "--twig-algorithm", "nope"], "unknown twig algorithm"),
        (["figure1", "--workers", "2"], "--workers applies to"),
        (["bounds", "--workers=2"], "--workers applies to"),
        (["serve", "--workers", "2"],
         "--workers applies to 'selftest' and 'explain' only"),
        (["figure1", "--corpus", "figure1"], "apply to 'serve' only"),
        (["explain", "--host", "localhost"], "apply to 'serve' only"),
        (["selftest", "--port", "8000"], "apply to 'serve' only"),
        (["bounds", "--stdio"], "apply to 'serve' only"),
        (["serve", "--corpus", "nope"], "unknown corpus"),
        (["figure3", "2", "--twig-algorithm", "pathstack"],
         "handles linear paths only"),
    ])
    def test_argument_errors_exit_two_before_any_output(self, capsys, argv,
                                                        message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_equals_form_of_an_option(self, capsys):
        assert main(["figure3", "2", "--twig-algorithm=twigstack"]) == 0
        assert "ratios" in capsys.readouterr().out

    def test_selftest_checks_parallel_parity_with_workers(self, capsys):
        assert main(["selftest", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "selftest: ok" in out and "2-worker parallel parity" in out

    def test_selftest_reports_a_mismatch(self, capsys, monkeypatch):
        import repro.__main__ as cli
        from repro.relational.relation import Relation

        monkeypatch.setattr(
            cli, "baseline_join",
            lambda query, **kw: Relation("Q", query.attributes))
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH at seed" in out and "selftest: FAILED" in out
