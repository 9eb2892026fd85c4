"""The named scenario library and the generated cookbook table.

Scenario files live as JSON under the repo-root ``scenarios/`` directory;
each file's stem must equal its ``name`` field, so ``scenario run
flash-crowd`` resolves unambiguously.  :func:`scenario_table_markdown`
renders the registry as the markdown table embedded between markers in
``docs/SCENARIOS.md`` — ``tools/check_docs.py`` regenerates the table and
fails when the committed cookbook disagrees, the same drift gate the
event taxonomy and wire-codec tables use.

Run ``python -m repro.scenarios.registry --write`` to refresh the
generated block in the cookbook after adding or editing a scenario.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional, Union

from repro.analysis.report import replace_block
from repro.scenarios.slo import SLO_METRICS
from repro.scenarios.spec import ScenarioError, ScenarioSpec

__all__ = [
    "default_scenario_dir",
    "load_all",
    "load_scenario",
    "scenario_names",
    "scenario_paths",
    "scenario_table_markdown",
    "slo_metric_table_markdown",
]

_REPO_ROOT = Path(__file__).resolve().parents[3]

#: Markers bounding the generated table inside docs/SCENARIOS.md.
TABLE_BEGIN = "<!-- scenario-table:begin (generated; python -m repro.scenarios.registry --write) -->"
TABLE_END = "<!-- scenario-table:end -->"
METRICS_BEGIN = "<!-- slo-metric-table:begin (generated; python -m repro.scenarios.registry --write) -->"
METRICS_END = "<!-- slo-metric-table:end -->"


def default_scenario_dir() -> Path:
    """The repo-root ``scenarios/`` directory."""
    return _REPO_ROOT / "scenarios"


def scenario_paths(directory: Optional[Union[str, Path]] = None) -> List[Path]:
    """Every scenario file in the library, sorted by name."""
    root = Path(directory) if directory is not None else default_scenario_dir()
    if not root.is_dir():
        return []
    return sorted(root.glob("*.json"))


def scenario_names(directory: Optional[Union[str, Path]] = None) -> List[str]:
    """The names of every registered scenario."""
    return [path.stem for path in scenario_paths(directory)]


def load_scenario(
    name_or_path: str, directory: Optional[Union[str, Path]] = None
) -> ScenarioSpec:
    """Resolve a scenario by registry name or by file path."""
    candidate = Path(name_or_path)
    if candidate.suffix == ".json" or candidate.exists():
        spec = ScenarioSpec.from_json(candidate)
        return spec
    root = Path(directory) if directory is not None else default_scenario_dir()
    path = root / f"{name_or_path}.json"
    if not path.exists():
        known = ", ".join(scenario_names(directory)) or "(none)"
        raise ScenarioError(
            f"unknown scenario {name_or_path!r} (registered: {known})"
        )
    spec = ScenarioSpec.from_json(path)
    if spec.name != path.stem:
        raise ScenarioError(
            f"{path.name}: file stem and scenario name {spec.name!r} disagree"
        )
    return spec


def load_all(directory: Optional[Union[str, Path]] = None) -> List[ScenarioSpec]:
    """Every registered scenario, name-sorted and stem-checked."""
    specs = []
    for path in scenario_paths(directory):
        spec = ScenarioSpec.from_json(path)
        if spec.name != path.stem:
            raise ScenarioError(
                f"{path.name}: file stem and scenario name {spec.name!r} disagree"
            )
        specs.append(spec)
    return specs


def _chaos_summary(spec: ScenarioSpec) -> str:
    kinds = [action.kind for action in spec.chaos]
    if not kinds:
        return "none"
    counted = []
    for kind in dict.fromkeys(kinds):
        n = kinds.count(kind)
        counted.append(f"{kind} ×{n}" if n > 1 else kind)
    return ", ".join(counted)


def scenario_table_markdown(directory: Optional[Union[str, Path]] = None) -> str:
    """The registry as a markdown table (one row per scenario)."""
    lines = [
        "| scenario | workload | chaos | SLOs | description |",
        "| --- | --- | --- | --- | --- |",
    ]
    for spec in load_all(directory):
        slos = "; ".join(s.label() for s in spec.slos) or "none"
        lines.append(
            f"| `{spec.name}` | {spec.workload.shape} | {_chaos_summary(spec)} "
            f"| {slos} | {spec.description} |"
        )
    return "\n".join(lines)


def slo_metric_table_markdown() -> str:
    """The SLO metric vocabulary as a markdown table."""
    lines = [
        "| metric | percentile? | meaning |",
        "| --- | --- | --- |",
    ]
    for name in sorted(SLO_METRICS):
        meaning, takes_pct = SLO_METRICS[name]
        lines.append(f"| `{name}` | {'yes' if takes_pct else 'no'} | {meaning} |")
    return "\n".join(lines)


def render_cookbook(text: str, directory: Optional[Union[str, Path]] = None) -> str:
    """*text* with both generated blocks refreshed from the registry."""
    text = replace_block(
        text, TABLE_BEGIN, TABLE_END, scenario_table_markdown(directory)
    )
    return replace_block(text, METRICS_BEGIN, METRICS_END, slo_metric_table_markdown())


def main(argv: Optional[List[str]] = None) -> int:
    """Refresh (``--write``) or print the generated cookbook blocks."""
    args = list(sys.argv[1:] if argv is None else argv)
    cookbook = _REPO_ROOT / "docs" / "SCENARIOS.md"
    if "--write" in args:
        text = cookbook.read_text(encoding="utf-8")
        cookbook.write_text(render_cookbook(text), encoding="utf-8")
        print(f"refreshed generated tables in {cookbook}")
        return 0
    print(scenario_table_markdown())
    print()
    print(slo_metric_table_markdown())
    return 0


if __name__ == "__main__":
    sys.exit(main())
