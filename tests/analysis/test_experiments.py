"""The experiment definitions, the ``FIGURES.json`` pin and the one-rig structure.

``recorded`` runs every deterministic experiment once for the whole module
(``write_figures``); the committed artifact must equal that run, and the
other tests read the same results.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    deterministic_experiments,
    render_experiments_md,
    run_figure5,
    write_figures,
)
from repro.gae import build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import TaskSpec, bag_of_tasks, reset_id_counters

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCHMARKS = REPO_ROOT / "benchmarks"

#: The wall-clock bench modules and the timing-target stubs each may define.
WALL_CLOCK_STUBS = {
    "bench_fig6_monitoring_latency.py": set(),
    "bench_ablation_transport.py": {"EchoService", "make_host"},
    "bench_scalability.py": {"build_big_gae"},
}
#: Files that must run the Figure 5 / Figure 7 rigs of ``experiments``, not build their own.
RIG_USERS = [
    BENCHMARKS / "bench_fig5_runtime_estimator.py",
    BENCHMARKS / "bench_fig7_steering.py",
    BENCHMARKS / "bench_ablation_steering_policy.py",
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


def _non_test_definitions(path: Path):
    """Module-level functions and classes of *path* that pytest would not collect."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.lower().startswith("test")
    }


def _called_names(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    }


class TestOneDefinitionPerExperiment:
    def test_deterministic_benches_define_no_experiment(self):
        modules = sorted(BENCHMARKS.glob("bench_*.py"))
        deterministic = [m for m in modules if m.name not in WALL_CLOCK_STUBS]
        assert len(deterministic) == 8 and len(modules) == 11
        for module in deterministic:
            extra = _non_test_definitions(module)
            assert not extra, f"{module.name} defines {sorted(extra)}"

    def test_wall_clock_benches_define_only_their_timing_stubs(self):
        for name, allowed in WALL_CLOCK_STUBS.items():
            assert _non_test_definitions(BENCHMARKS / name) == allowed, name

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
