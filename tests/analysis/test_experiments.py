"""The experiment definitions, the ``FIGURES.json`` pin, the paper's shapes
and the one-rig structure.

``recorded`` runs every deterministic experiment once for the whole module
(``write_figures``); the committed artifact must equal that run, and the
other tests, :class:`TestPaperShapes` among them, read the same results.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.ablations import CHURN_JOBS
from repro.analysis.experiments import (
    deterministic_experiments,
    render_experiments_md,
    run_figure5,
    run_figure6,
    write_figures,
)
from repro.gae import build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import TaskSpec, bag_of_tasks, reset_id_counters
from repro.workloads.generators import PRIME_JOB_FREE_CPU_SECONDS

REPO_ROOT = Path(__file__).resolve().parents[2]
PAPER_STEERED_COMPLETION_S = 369.0

#: Files that must run the Figure 5 / Figure 7 rigs of ``experiments``, not build their own.
RIG_USERS = [
    REPO_ROOT / "tests" / "integration" / "test_figure7_scenario.py",
    REPO_ROOT / "examples" / "steering_scenario.py",
]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """(results, path of the JSON record) of one ``write_figures`` run."""
    path = tmp_path_factory.mktemp("figures") / "FIGURES.json"
    return write_figures(path), path


class TestFigure5Runner:
    def test_result_structure(self, recorded):
        result = recorded[0]["figure5"]
        assert result.name.startswith("Figure 5")
        assert len(result.figure.series) == 2
        assert len(result.figure.series[0].y) == 20
        quantities = [row[0] for row in result.comparison]
        assert "mean |% error|" in quantities

    def test_deterministic_per_seed(self):
        a = run_figure5(seed=3)
        b = run_figure5(seed=3)
        assert a.figure.series[1].y == b.figure.series[1].y

    def test_markdown_rendering(self, recorded):
        md = recorded[0]["figure5"].to_markdown()
        assert "## Figure 5" in md
        assert "| quantity | paper | measured |" in md
        assert "13.53" in md

    def test_values_are_the_unrounded_comparison(self, recorded):
        result = recorded[0]["figure5"]
        measured = {row[0]: row[2] for row in result.comparison}
        assert measured["mean |% error|"] == round(result.values["mean_abs_pct"], 2)
        assert measured["correlation"] == round(result.values["correlation"], 3)


class TestFigure7Runner:
    def test_ordering_reproduced(self, recorded):
        result = recorded[0]["figure7"]
        rows = {row[0]: row[2] for row in result.comparison}
        steered = rows["steered completion (s)"]
        shadow = rows["stay-at-A completion (s)"]
        assert 283.0 < steered < shadow
        assert result.values["moves"] == 1

    def test_three_series(self, recorded):
        names = [s.name for s in recorded[0]["figure7"].figure.series]
        assert any("site A" in n for n in names)
        assert any("Steered" in n for n in names)
        assert any("283" in n for n in names)

    def test_steered_curve_reaches_100(self, recorded):
        series = recorded[0]["figure7"].figure.series
        steer = next(s for s in series if "Steered" in s.name)
        assert steer.y[-1] == pytest.approx(100.0)


class TestFigure6Runner:
    def test_paper_values_sit_beside_the_paper_client_counts(self):
        rows = {row[0]: row[1] for row in run_figure6([1, 2], calls_per_client=1).comparison}
        assert rows["mean latency (ms) @ 1 client(s)"] == "~10-30"
        assert rows["mean latency (ms) @ 2 client(s)"] == "n/a"


class TestWriteReport:
    """``gae-repro report``: markdown to stdout, the JSON record to ``--out``."""

    def test_report_text(self, recorded):
        text = "\n".join(result.to_markdown() for result in recorded[0].values())
        assert "## Figure 5" in text
        assert "## Figure 7" in text
        assert "Figure 6" not in text  # wall-clock: never in the report

    def test_report_to_file(self, recorded):
        results, path = recorded
        record = json.loads(path.read_text(encoding="utf-8"))
        assert list(record) == list(deterministic_experiments())
        assert record == {key: result.to_dict() for key, result in results.items()}

    def test_cli_report_command(self, recorded, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "F.json"
        assert main(["report", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "# GAE reproduction report" in stdout
        assert "## Figure 7" in stdout
        assert f"wrote {len(recorded[0])} experiments" in stdout
        # A second run in the same process writes the same bytes.
        assert out.read_bytes() == recorded[1].read_bytes()


class TestArtifact:
    def test_committed_artifact_is_what_the_code_emits(self, recorded):
        """``FIGURES.json`` at the repo root equals a re-run."""
        fresh = json.loads(recorded[1].read_text(encoding="utf-8"))
        committed = json.loads((REPO_ROOT / "FIGURES.json").read_text(encoding="utf-8"))
        assert list(fresh) == list(committed)
        for key in fresh:
            assert fresh[key] == committed[key], key  # per entry, so a failure names it

    def test_numbers_are_stored_as_the_tables_print_them(self, recorded):
        record = json.loads(recorded[1].read_text(encoding="utf-8"))
        for key, entry in record.items():
            rows = entry["comparison"] + [r for t in entry["tables"] for r in t["rows"]]
            for cell in (c for row in rows for c in row if isinstance(c, float)):
                assert cell == float(f"{cell:.4g}"), (key, cell)
            for series in entry["series"]:
                for value in series["x"] + series["y"]:
                    assert value == round(value, 1), (key, value)

    def test_result_is_independent_of_what_ran_before(self, recorded):
        """Alone, in sequence, or after an unrelated simulation: the same record."""
        for key in ("figure7", "agent-ablation"):
            runner = deterministic_experiments()[key]
            in_sequence = recorded[0][key].to_dict()
            reset_id_counters()
            assert runner().to_dict() == in_sequence, key
            gae = build_gae(GridBuilder(seed=9).site("x", nodes=2).site("y").build())
            specs = [TaskSpec(owner="u") for _ in range(5)]
            gae.scheduler.submit_job(bag_of_tasks(specs, [50.0] * 5, owner="u"))
            gae.grid.run_until(500.0)
            assert runner().to_dict() == in_sequence, key  # ids carry on from the above

    def test_experiments_md_blocks_render_every_experiment(self):
        page = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert render_experiments_md(page) == page
        assert render_experiments_md(page.replace("| 323 | 1 |", "| 999 | 1 |")) == page
        with pytest.raises(ValueError, match="marker"):
            render_experiments_md("no blocks here\n")
        with pytest.raises(ValueError, match="unknown"):
            render_experiments_md(page + "<!-- figures:figure8:begin -->\n")


class TestPaperShapes:
    """The shapes of §7 and of the ablations, on the recorded run's unrounded values.

    Numbers need not match the 2005 testbed; who wins, by roughly what
    factor and where a crossover falls must.  Figure 6 and the transport
    ordering are wall-clock: ``python tools/smoke.py figures`` holds them.
    """

    @pytest.fixture
    def shapes(self, recorded):
        return {key: result.values for key, result in recorded[0].items()}

    def test_figure5_estimates_track_actuals(self, shapes):
        figure5 = shapes["figure5"]
        assert figure5["n"] == 20
        assert figure5["mean_abs_pct"] < 30.0
        assert figure5["within_25_pct"] >= 0.6
        assert figure5["correlation"] > 0.9  # the figure's visual "tracking"

    def test_figure5_error_across_seeds_sits_in_the_paper_band(self, shapes):
        assert 5.0 < shapes["figure5-seeds"]["mean"] < 25.0

    def test_figure7_steered_job_lands_near_the_paper(self, shapes):
        steered, shadow = shapes["figure7"]["steered_end"], shapes["figure7"]["shadow_end"]
        assert PRIME_JOB_FREE_CPU_SECONDS < steered < shadow
        assert steered < 1.6 * PAPER_STEERED_COMPLETION_S

    def test_quicker_decision_quicker_completion(self, shapes):
        """§7: "The quicker the decision is taken, the better the chance
        that it will complete quicker." """
        poll = shapes["figure7-policy"]["poll"]
        ends = [poll[interval][0] for interval in sorted(poll)]
        assert ends == sorted(ends)
        assert ends[0] < ends[-1]

    def test_a_job_above_the_slow_threshold_stays(self, shapes):
        end, moves = shapes["figure7-policy"]["threshold"][0.3]  # site A runs at rate 0.4
        assert moves == 0
        assert end == pytest.approx(PRIME_JOB_FREE_CPU_SECONDS * 2.5, rel=0.01)

    def test_move_vs_stay_crossover_in_load(self, shapes):
        moved_at = {level: moves > 0
                    for level, (_, moves) in shapes["figure7-policy"]["load"].items()}
        assert not moved_at[0.1]  # healthy rate 0.91 -> stays
        assert moved_at[3.0]  # rate 0.25 -> moves
        first_move = min(level for level, moved in moved_at.items() if moved)
        assert all(moved for level, moved in moved_at.items() if level >= first_move)

    def test_transfer_cost_crossover(self, shapes):
        """A data-heavy job moves over a fat pipe and stays over a thin one."""
        pipe = shapes["figure7-policy"]["pipe"]
        assert pipe[1000.0][1] >= 1
        assert pipe[1.5][1] == 0

    def test_checkpointable_job_completes_quicker_still(self, shapes):
        """§7: "even quicker than 369 seconds if it is checkpoint-able"."""
        policy = shapes["figure7-policy"]
        assert policy["checkpoint_end"] < policy["restart_end"]

    def test_history_with_templates_beats_both_baselines(self, shapes):
        ablation = shapes["estimator-ablation"]
        means = ablation["variant_means"]
        assert means["auto"] < means["requested-hours baseline"]
        assert means["auto"] < means["no templates (global mean)"]
        assert means["greedy templates"] < 2.0 * means["auto"]
        assert ablation["history_means"][400] < ablation["history_means"][10]

    def test_checkpointing_saves_the_accrued_work(self, shapes):
        ablation = shapes["checkpoint-ablation"]
        advantage = ablation["advantage"]
        assert all(a >= -1e-6 for a in advantage)
        assert advantage == sorted(advantage)
        assert advantage[1] == pytest.approx(100.0 * 0.4, rel=0.01)  # move at 100 s, rate 0.4
        assert ablation["late_move_end"] < ablation["stay_end"]
        assert ablation["flock_makespan"] < ablation["plain_makespan"]

    def test_learned_policy_recovers_most_of_the_benefit(self, shapes):
        ablation = shapes["agent-ablation"]
        none, default, learned = (ablation[regime] for regime in
                                  ("no steering", "default policy", "learned policy"))
        assert default < none
        assert learned < none
        assert none - learned >= 0.5 * (none - default)

    def test_backup_and_recovery_completes_every_job_under_churn(self, shapes):
        churn = shapes["churn-robustness"]
        levels = ("none", "mild", "harsh")
        assert {churn[level][0] for level in levels} == {CHURN_JOBS}
        makespans = [churn[level][1] for level in levels]
        assert makespans == sorted(makespans)
        assert churn["harsh_without_recovery"] < CHURN_JOBS  # jobs strand with their sites

    def test_queue_time_predictions_track_actual_waits(self, shapes):
        validation = shapes["queue-time-validation"]
        assert validation["n_queued"] >= 20
        assert validation["correlation"] > 0.95
        assert validation["mean_abs_pct"] < 30.0
        predicted = validation["predicted_20_jobs"]
        assert predicted[0] == 0.0
        assert predicted[-1] > predicted[1]  # later submissions see deeper queues
        assert validation["plain_ratio"] > 4.0  # §6.2's plain sum on an 8-slot pool
        assert 0.5 < validation["slot_ratio"] < 2.0

    def test_transfer_time_degrades_gracefully_with_probe_noise(self, shapes):
        validation = shapes["transfer-time-validation"]
        by_noise = validation["by_noise"]
        assert by_noise[0.0] < 1.0  # a perfect probe is exact up to latency
        assert by_noise[0.0] <= by_noise[0.05] <= by_noise[0.2]
        assert validation["by_window"][10] < validation["by_window"][1]


def _called_names(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    }


class TestOneDefinitionPerExperiment:
    def test_figure_rigs_are_built_in_one_place(self):
        for path in RIG_USERS:
            built = _called_names(path) & {"GridBuilder", "build_gae"}
            assert not built, f"{path.name} calls {sorted(built)}"

    def test_no_bench_test_or_example_redefines_a_runner(self):
        runners = {"run_figure5", "run_figure6", "run_figure7", "build_scenario",
                   "run_scenario", "build_figure7_gae", "run_once", "print_figure"}
        for root in ("benchmarks", "tests", "examples"):
            for path in (REPO_ROOT / root).rglob("*.py"):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                defined = {
                    node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                assert not defined & runners, f"{path} defines {sorted(defined & runners)}"

    def test_experiments_are_not_imported_with_the_package(self):
        """``repro`` (hence every benchmark rig) imports ``repro.analysis``
        eagerly; the experiment definitions must stay out of that import."""
        init = (REPO_ROOT / "src" / "repro" / "analysis" / "__init__.py").read_text()
        imported = {
            node.module for node in ast.walk(ast.parse(init))
            if isinstance(node, ast.ImportFrom)
        }
        assert not imported & {"repro.analysis.experiments", "repro.analysis.ablations"}
