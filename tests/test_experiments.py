"""Tests for the experiment harness: registry, cheap experiments, CLI."""

import io

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.common import (
    ExperimentResult,
    QUALITY_PRESETS,
    load_grid,
    scale_for,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_by_id,
    run_experiment,
)


def usage_error(argv, capsys):
    """Run the CLI on ``argv``, expect an argparse usage error (exit 2,
    no traceback) and return its one-line message."""
    with pytest.raises(SystemExit) as info:
        cli_main(argv, stream=io.StringIO())
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.strip().splitlines()[-1]


class TestRegistry:
    def test_every_paper_figure_is_covered(self):
        expected = {
            "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "table1",
        }
        assert expected <= set(EXPERIMENTS)

    def test_extensions_registered(self):
        assert {"ext-jbsq", "ext-policies", "ext-safety"} <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            experiment_by_id("fig99")

    def test_descriptions_nonempty(self):
        for spec in EXPERIMENTS.values():
            assert spec.description


class TestCheapExperiments:
    """The analytic experiments run in milliseconds; exercise them fully."""

    def test_fig2_shape(self):
        results = run_experiment("fig2", quality="smoke")
        result = results[0]
        # Column 1 is the IPI curve: strictly decreasing with the quantum.
        ipi = [row[1] for row in result.rows]
        assert ipi == sorted(ipi, reverse=True)
        # rdtsc flat at ~21%.
        rdtsc = [row[2] for row in result.rows]
        assert all(abs(v - 21.0) < 2.0 for v in rdtsc)

    def test_fig15_uipi_above_concord_at_small_quanta(self):
        results = run_experiment("fig15", quality="smoke")
        for row in results[0].rows:
            quantum, uipi, _rdtsc, concord = row
            if quantum <= 10:
                # Interrupts cost more than cache-line polling wherever
                # preemption is frequent; the curves converge (and cross)
                # at large quanta where the flat instrumentation tax
                # dominates — exactly as in Figs. 2/15.
                assert uipi > concord

    def test_results_render_to_text(self):
        results = run_experiment("fig2", quality="smoke")
        text = results[0].render()
        assert "fig2" in text
        assert "quantum_us" in text


class TestCommonInfra:
    def test_quality_presets_ordered(self):
        assert (
            QUALITY_PRESETS["smoke"].num_requests
            < QUALITY_PRESETS["standard"].num_requests
            < QUALITY_PRESETS["full"].num_requests
        )

    def test_scale_for_unknown(self):
        with pytest.raises(KeyError):
            scale_for("ludicrous")

    def test_load_grid_monotone_and_bounded(self):
        grid = load_grid(1000.0, 8, low_fraction=0.25, high_fraction=1.0)
        assert len(grid) == 8
        assert grid == sorted(grid)
        assert grid[0] == pytest.approx(250.0)
        assert grid[-1] == pytest.approx(1000.0)

    def test_load_grid_needs_two_points(self):
        with pytest.raises(ValueError):
            load_grid(1000.0, 1)

    def test_load_grid_rejects_nonpositive_max_load(self):
        with pytest.raises(ValueError):
            load_grid(0.0, 4)
        with pytest.raises(ValueError):
            load_grid(-100.0, 4)

    def test_load_grid_rejects_inverted_fractions(self):
        with pytest.raises(ValueError):
            load_grid(1000.0, 4, low_fraction=0.9, high_fraction=0.5)
        with pytest.raises(ValueError):
            load_grid(1000.0, 4, low_fraction=0.5, high_fraction=0.5)

    def test_experiment_result_render_summary_and_notes(self):
        result = ExperimentResult("x", "demo", headers=["a"], rows=[[1]])
        result.summary["knee"] = 12.5
        result.note("hello")
        text = result.render()
        assert "knee = 12.5" in text
        assert "note: hello" in text


class TestCli:
    def test_list_command(self):
        stream = io.StringIO()
        assert cli_main(["list"], stream=stream) == 0
        output = stream.getvalue()
        assert "fig9" in output and "table1" in output

    def test_run_fig2(self, tmp_path):
        stream = io.StringIO()
        code = cli_main(
            ["run", "fig2", "--quality", "smoke", "--out", str(tmp_path)],
            stream=stream,
        )
        assert code == 0
        assert "Concord instrumentation" in stream.getvalue()
        assert (tmp_path / "fig2.txt").exists()

    def test_run_unknown_experiment_raises(self, capsys):
        err = usage_error(["run", "fig99"], capsys)
        assert "'fig99'" in err and "fig6" in err

    @pytest.mark.parametrize("command", ["rack", "faults"])
    def test_unknown_system_flag_is_a_usage_error(self, command, capsys):
        err = usage_error([command, "--system", "nope"], capsys)
        assert "'nope'" in err and "concord-no-steal" in err

    @pytest.mark.parametrize("argv", [
        ["faults", "--scenario", "crash", "--servers", "2", "--requests",
         "200", "--policy", "nope"],
        ["rack", "--policies", "jsq,nope"],
    ])
    def test_unknown_policy_is_a_usage_error(self, argv, capsys):
        err = usage_error(argv, capsys)
        assert "'nope'" in err and "jsq" in err and "po<d>" in err

    def test_po_d_policy_names_accepted(self):
        from repro.experiments.cli import _policy_list

        assert _policy_list("jsq, po3") == ["jsq", "po3"]

    def test_interrupted_sweep_exits_130_naming_the_cache(
            self, tmp_path, monkeypatch, capsys):
        from repro.experiments import cli
        from repro.parallel import SweepInterrupted

        def interrupted(*args, **kwargs):
            raise SweepInterrupted(str(tmp_path), 3)

        monkeypatch.setattr(cli, "run_experiment", interrupted)
        code = cli_main(
            ["run", "fig2", "--quality", "smoke",
             "--cache-dir", str(tmp_path)],
            stream=io.StringIO(),
        )
        assert code == 130
        hint = capsys.readouterr().err
        assert str(tmp_path) in hint and "re-run the same command" in hint


class TestCompareCommand:
    def test_compare_runs_and_prints_table(self):
        stream = io.StringIO()
        code = cli_main(
            [
                "compare", "--workload", "fixed-1", "--requests", "400",
                "--load-krps", "500", "--workers", "4",
                "--systems", "persephone,concord",
            ],
            stream=stream,
        )
        assert code == 0
        output = stream.getvalue()
        assert "Persephone-FCFS" in output
        assert "Concord" in output
        assert "p99.9" in output

    def test_compare_unknown_system(self, capsys):
        err = usage_error(
            ["compare", "--systems", "concord,windows95"], capsys
        )
        assert "'windows95'" in err and "'concord'" not in err
        assert "coop-jbsq" in err

    def test_compare_unknown_workload(self, capsys):
        err = usage_error(["compare", "--workload", "cobol"], capsys)
        assert "'cobol'" in err and "tpcc" in err
