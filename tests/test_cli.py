"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestFigures:
    def test_single_figure(self, capsys):
        assert main(["figures", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "262144" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])


class TestHeadlines:
    def test_prints_claims(self, capsys):
        assert main(["headlines"]) == 0
        out = capsys.readouterr().out
        assert "two_partition_peak_reduction_pct" in out
        assert "31.4" in out


class TestValidate:
    def test_fast_mode_passes(self, capsys):
        assert main(["validate", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out

    def test_a_check_over_its_own_tolerance_exits_1(self, monkeypatch, capsys):
        """Each check meets its own bound: a 6% Appendix A error fails
        (bound 5%) although it would pass the WKA-BKR check's 20%."""
        from repro.experiments import validation

        def off_by_six_percent():
            return {"batch-cost": validation.ValidationResult("Ne", 100.0, 106.0)}

        monkeypatch.setattr(validation, "fast_validations", off_by_six_percent)
        assert main(["validate", "--fast"]) == 1
        assert "over tolerance: batch-cost" in capsys.readouterr().out


class TestSelfcheck:
    def test_single_scheme_passes(self, capsys):
        assert main(["selfcheck", "--scheme", "qt"]) == 0
        out = capsys.readouterr().out
        assert "ok   qt" in out
        assert "scenarios" in out

    def test_all_schemes_pass(self, capsys):
        assert main(["selfcheck", "--no-structural"]) == 0
        out = capsys.readouterr().out
        assert "one-keytree" in out
        assert "loss-homogenized" in out
        assert "FAIL" not in out

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["selfcheck", "--scheme", "bogus"])


class TestSimulate:
    def test_tt_scheme_summary(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "tt",
                "--horizon",
                "600",
                "--arrival-rate",
                "0.5",
                "--seed",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tt-scheme" in out
        assert "security checks" in out

    def test_transport_adds_wire_metric(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "one",
                "--transport",
                "wka-bkr",
                "--horizon",
                "600",
                "--arrival-rate",
                "0.5",
                "--no-verify",
            ]
        )
        assert code == 0
        assert "wire keys total" in capsys.readouterr().out

    def test_losshomog_scheme_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "losshomog",
                "--horizon",
                "600",
                "--arrival-rate",
                "0.5",
            ]
        )
        assert code == 0


class TestTrace:
    def test_generate_and_stats_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        assert main(["trace", str(path), "--length", "900", "--seed", "2"]) == 0
        assert path.exists()
        assert main(["tracestats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mean duration" in out
        assert "peak concurrency" in out


class TestRemovedExecutionOptions:
    """The bulk / threads / arena wrap engine, the ``bench`` subcommand,
    the choice of tree kernel, the shard executors, the hash-sharded
    scheme itself and the process pool under the analytic sweeps are gone;
    their flags are argparse errors, not silently accepted."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--quick", "--threads", "2"],
            ["simulate", "--quick", "--tree-kernel", "flat"],
            ["simulate", "--quick", "--scheme", "one", "--workers", "2"],
            ["simulate", "--quick", "--scheme", "one", "--backend", "process"],
            ["simulate", "--quick", "--shards", "4"],
            ["simulate", "--quick", "--scheme", "sharded"],
            ["chaos", "--quick", "--arena"],
            ["bench"],
            ["figures", "fig3", "--workers", "2"],
            ["headlines", "--workers", "2"],
        ],
        ids=[
            "simulate-threads",
            "simulate-tree-kernel",
            "simulate-workers",
            "simulate-backend",
            "simulate-shards",
            "simulate-scheme-sharded",
            "chaos-arena",
            "bench",
            "figures-workers",
            "headlines-workers",
        ],
    )
    def test_removed_flags_and_subcommand_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_simulate_leaves_the_environment_alone(self, capsys):
        """``--threads`` / ``--arena`` used to be written into
        ``os.environ`` and never restored, so one in-process ``main()``
        call reconfigured every rekeyer built after it."""
        import os

        before = dict(os.environ)
        code = main(
            ["simulate", "--quick", "--scheme", "one", "--arrival-rate", "0.5"]
        )
        assert code == 0
        assert dict(os.environ) == before
        capsys.readouterr()


class TestSimulateVariants:
    def test_pt_scheme_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "pt",
                "--horizon",
                "600",
                "--arrival-rate",
                "0.5",
            ]
        )
        assert code == 0
        assert "pt-scheme" in capsys.readouterr().out

    def test_random_trees_scheme_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "random-trees",
                "--horizon",
                "600",
                "--arrival-rate",
                "0.5",
            ]
        )
        assert code == 0

    def test_multisend_transport_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "one",
                "--transport",
                "multi-send",
                "--horizon",
                "300",
                "--arrival-rate",
                "0.3",
                "--no-verify",
            ]
        )
        assert code == 0

    def test_fec_transport_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "one",
                "--transport",
                "fec",
                "--horizon",
                "300",
                "--arrival-rate",
                "0.3",
                "--no-verify",
            ]
        )
        assert code == 0
