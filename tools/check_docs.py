#!/usr/bin/env python
"""Check that the docs match the source tree.

All run by CI's docs job:

1. every package under src/ (directory with ``__init__.py``) appears by
   dotted name in docs/ARCHITECTURE.md;
2. each drift-gated table of docs/ARCHITECTURE.md (:data:`TABLES`: event
   taxonomy, state-store namespaces, epoch taxonomy, wire codecs,
   health-rule taxonomy, journal consumers, host instruments) names in
   its first column exactly what the code defines (:func:`actual_names`)
   — nothing undocumented, nothing stale;
3. the generated tables in docs/SCENARIOS.md (scenario library and SLO
   metric vocabulary) match what ``repro.scenarios.registry`` renders
   from the committed ``scenarios/*.json`` files — run
   ``python -m repro.scenarios.registry --write`` after editing the
   library;
4. the ``figures:<key>`` blocks of EXPERIMENTS.md — every measured number
   of a deterministic experiment — match what
   ``repro.analysis.experiments`` renders from the committed
   ``FIGURES.json`` (which tier-1 pins to a re-run) — run
   ``python -m repro.analysis.experiments --write`` after regenerating it;
5. every ``gae-repro <command>`` named in README.md, DESIGN.md,
   EXPERIMENTS.md or docs/*.md is a sub-command of
   ``repro.cli.build_parser()`` — a removed command cannot linger in
   prose;
6. every back-ticked dotted ``repro.*`` name in the same pages imports
   (module, then attributes), and
   every back-ticked ``*.py`` / ``*.json`` / ``*.md`` path with a
   directory in it exists (from the repo root, ``src/``, ``src/repro/``
   or the page's own directory) — a moved module cannot linger either;
   and every back-ticked ``<service>.<name>`` (a call's arguments may
   follow), where ``<service>`` is a service a ``build_gae`` host
   registers, is one of its RPC methods or a state-store namespace — a
   deleted method cannot linger either.
   ``benchmarks/e2e/README.md`` is not scanned: only a ``[benchmark]`` PR
   may edit it.

Run from anywhere::

    python tools/check_docs.py
"""

from __future__ import annotations

import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
ARCHITECTURE_MD = REPO_ROOT / "docs" / "ARCHITECTURE.md"
SCENARIOS_MD = REPO_ROOT / "docs" / "SCENARIOS.md"

sys.path.insert(0, str(SRC_ROOT))


def source_packages() -> list[str]:
    """Dotted names of every package under src/ (``repro``, ``repro.x``...)."""
    packages = []
    for init in sorted(SRC_ROOT.rglob("__init__.py")):
        relative = init.parent.relative_to(SRC_ROOT)
        packages.append(".".join(relative.parts))
    return packages


#: ``### heading`` of each drift-gated table in docs/ARCHITECTURE.md ->
#: (what a row names, the token its first column holds).
TABLES = {
    "Event taxonomy": ("EventType value", r"`([a-z-]+)`"),
    "State-store namespaces": ("repro.store.registry namespace", r"`([a-z.]+)`"),
    "Epoch taxonomy": ("CANONICAL_EPOCHS epoch", r"`([a-z:<>-]+)`"),
    "Wire codecs": ("registered codec", r"`([a-z]+)`"),
    "Health-rule taxonomy": ("RULE_KINDS kind", r"`([a-z_]+)`"),
    "Journal consumers": ("CONSUMER_NAMES consumer", r"`([a-z]+)`"),
    "Host instruments": ("host.metrics instrument", r"`(gae_[a-z_]+)`"),
}


def documented_tokens(text: str, heading: str, pattern: str) -> set[str]:
    """Tokens matching *pattern* in the first cells of the table under *heading*."""
    match = re.search(rf"### {re.escape(heading)}\n(.*?)(?:\n#|\Z)", text, re.DOTALL)
    if match is None:
        return set()
    return {
        token
        for line in match.group(1).splitlines() if line.startswith("|")
        for token in re.findall(pattern, line.split("|")[1])
    }


def compare(documented: set[str], actual: set[str], noun: str) -> list[str]:
    return [f"{noun} {name!r} is not documented" for name in sorted(actual - documented)] + [
        f"documented {name!r} is not a {noun}" for name in sorted(documented - actual)
    ]


def actual_names() -> dict[str, set[str]]:
    """Table heading -> the names the code defines."""
    from repro.clarens import AsyncSocketServerHandle, ClarensHost
    from repro.clarens.codecs import codec_names
    from repro.clarens.readcache import CANONICAL_EPOCHS
    from repro.events import CONSUMER_NAMES, EventType
    from repro.observability.health import RULE_KINDS
    from repro.store.registry import namespace_names

    host = ClarensHost("docs")
    with AsyncSocketServerHandle(host):
        instruments = set(host.metrics.names())
    return {
        "Event taxonomy": {member.value for member in EventType},
        "State-store namespaces": set(namespace_names()),
        "Epoch taxonomy": {name for name, _description in CANONICAL_EPOCHS},
        "Wire codecs": set(codec_names()),
        "Health-rule taxonomy": set(RULE_KINDS),
        "Journal consumers": set(CONSUMER_NAMES),
        "Host instruments": instruments,
    }


def doc_pages() -> list[Path]:
    pages = [REPO_ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    return pages + sorted((REPO_ROOT / "docs").glob("*.md"))


def rpc_names() -> tuple[set[str], set[str]]:
    """The services a ``build_gae`` host registers, and every
    ``service.method`` and state-store namespace under their names."""
    from repro.gae import build_gae
    from repro.gridsim import GridBuilder
    from repro.store.registry import namespace_names

    registry = build_gae(GridBuilder(seed=1).site("docs").build()).host.registry
    services = set(registry.names())
    methods = {entry.path for name in services for entry in registry.service(name).methods.values()}
    return services, methods | set(namespace_names())


def check_references() -> list[str]:
    """Back-ticked ``repro.*`` names import; back-ticked file paths exist;
    back-ticked ``service.method``s are served."""
    services, served = rpc_names()
    problems = []
    for page in doc_pages():
        where = page.relative_to(REPO_ROOT)
        for token in sorted(set(re.findall(r"`([^`\n]+)`", page.read_text(encoding="utf-8")))):
            if re.fullmatch(r"repro(\.\w+)+", token):
                try:  # the longest importable prefix, then getattr down the rest
                    pkgutil.resolve_name(token)
                except (ImportError, AttributeError):
                    problems.append(f"{where} names `{token}`, which does not import")
            elif (call := re.fullmatch(r"([a-z]+)\.(\w+)(\(.*\))?", token)) and (
                call.group(1) in services and f"{call.group(1)}.{call.group(2)}" not in served
            ):
                problems.append(
                    f"{where} names `{token}`, which is no RPC method or namespace"
                )
            elif "/" in token and re.fullmatch(r"[\w./-]+\.(py|json|md)", token):
                roots = (REPO_ROOT, SRC_ROOT, SRC_ROOT / "repro", page.parent)
                if not any((root / token).exists() for root in roots):
                    problems.append(f"{where} names `{token}`, which does not exist")
    return problems


def check_generated(page: Path, render) -> list[str]:
    """*page*'s generated blocks are what ``render(text)`` makes of them today."""
    if not page.exists():
        return [f"{page} does not exist"]
    text = page.read_text(encoding="utf-8")
    try:
        rendered = render(text)
    except ValueError as exc:  # a marker block is missing, or names nothing
        return [str(exc)]
    if rendered != text:
        return [f"the generated blocks are stale; run `python -m {render.__module__} --write`"]
    return []


def check_cli_commands() -> list[str]:
    import argparse

    from repro.cli import build_parser

    commands: set[str] = set()
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            commands.update(action.choices)
    problems = []
    for page in doc_pages():
        named = set(re.findall(r"gae-repro ([a-z][a-z0-9-]*)", page.read_text(encoding="utf-8")))
        for name in sorted(named - commands):
            problems.append(
                f"{page.relative_to(REPO_ROOT)} names `gae-repro {name}`, "
                "which is not a gae-repro sub-command"
            )
    return problems


def main() -> int:
    from repro.analysis.experiments import render_experiments_md
    from repro.scenarios.registry import render_cookbook

    if not ARCHITECTURE_MD.exists():
        print(f"error: {ARCHITECTURE_MD} does not exist", file=sys.stderr)
        return 1
    text = ARCHITECTURE_MD.read_text(encoding="utf-8")
    packages = source_packages()
    failures = {
        "docs/ARCHITECTURE.md package map": [
            f"package {name} is not mentioned" for name in packages if name not in text
        ],
        "docs/SCENARIOS.md": check_generated(SCENARIOS_MD, render_cookbook),
        "EXPERIMENTS.md vs FIGURES.json": check_generated(
            REPO_ROOT / "EXPERIMENTS.md", render_experiments_md
        ),
        "`gae-repro <command>` in the docs": check_cli_commands(),
        "back-ticked names and paths in the docs": check_references(),
    }
    actual = actual_names()
    for heading, (noun, pattern) in TABLES.items():
        failures[f'docs/ARCHITECTURE.md "{heading}" table'] = compare(
            documented_tokens(text, heading, pattern), actual[heading], noun
        )
    for what, problems in failures.items():
        if problems:
            print(f"{what} is out of date:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
        else:
            print(f"ok: {what}")
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
