#!/usr/bin/env python
"""Check that docs/ARCHITECTURE.md matches the source tree.

Ten checks, all run by CI's docs job:

1. every package under src/ (directory with ``__init__.py``) appears by
   dotted name in docs/ARCHITECTURE.md;
2. the "Event taxonomy" section documents exactly the members of
   ``repro.observability.journal.EventType`` — no missing events, no
   stale ones;
3. the "State-store namespaces" table lists exactly the canonical
   namespaces of ``repro.store.registry`` — docs cannot drift from the
   registry a checkpoint file is built on;
4. the "Epoch taxonomy" table lists exactly the canonical epoch names
   of ``repro.clarens.readcache.CANONICAL_EPOCHS`` — every epoch the
   read cache can key on must be documented, and no stale names;
5. the "Wire codecs" table lists exactly the registered codec names of
   ``repro.clarens.codecs.codec_names()`` — a codec the framed
   transport can negotiate must be documented, and vice versa;
6. the generated tables in docs/SCENARIOS.md (scenario library and SLO
   metric vocabulary) match what ``repro.scenarios.registry`` renders
   from the committed ``scenarios/*.json`` files — run
   ``python -m repro.scenarios.registry --write`` after editing the
   library;
7. the "Health-rule taxonomy" table lists exactly the rule kinds of
   ``repro.observability.health.RULE_KINDS`` — every kind the health
   engine evaluates must be documented, and no stale kinds;
8. the "Journal consumers" table lists exactly the registered consumer
   names of ``repro.observability.eventbus.CONSUMER_NAMES`` — every
   replayable consumer in the event-sourced core must be documented,
   and no stale names;
9. every ``gae-repro <command>`` named in README.md, EXPERIMENTS.md or
   docs/*.md is a sub-command of ``repro.cli.build_parser()`` — a
   removed command cannot linger in prose;
10. the "Host instruments" table lists exactly the instrument names a
   fresh ``ClarensHost`` plus one started ``AsyncSocketServerHandle``
   register in ``host.metrics`` — every series ``/metrics`` can show
   for the RPC layer is documented, and no stale names.

Run from anywhere::

    python tools/check_docs.py
"""

from __future__ import annotations

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


def documented_event_types(text: str) -> set[str]:
    """Backticked tokens in the table rows of the "Event taxonomy" section."""
    match = re.search(r"### Event taxonomy\n(.*?)(?:\n#|\Z)", text, re.DOTALL)
    if match is None:
        return set()
    tokens: set[str] = set()
    for line in match.group(1).splitlines():
        if line.startswith("|"):
            first_cell = line.split("|")[1]
            tokens.update(re.findall(r"`([a-z-]+)`", first_cell))
    tokens.discard("event")  # the table header
    return tokens


def check_event_taxonomy(text: str) -> list[str]:
    from repro.observability.journal import EventType

    documented = documented_event_types(text)
    actual = {member.value for member in EventType}
    problems = []
    for value in sorted(actual - documented):
        problems.append(f"EventType {value!r} is not documented in the event taxonomy")
    for value in sorted(documented - actual):
        problems.append(f"documented event {value!r} is not an EventType member")
    return problems


def documented_namespaces(text: str) -> set[str]:
    """Backticked tokens in the "State-store namespaces" table rows."""
    match = re.search(r"### State-store namespaces\n(.*?)(?:\n#|\Z)", text, re.DOTALL)
    if match is None:
        return set()
    tokens: set[str] = set()
    for line in match.group(1).splitlines():
        if line.startswith("|"):
            first_cell = line.split("|")[1]
            tokens.update(re.findall(r"`([a-z.]+)`", first_cell))
    tokens.discard("namespace")  # the table header
    return tokens


def check_store_namespaces(text: str) -> list[str]:
    from repro.store.registry import namespace_names

    documented = documented_namespaces(text)
    actual = set(namespace_names())
    problems = []
    for name in sorted(actual - documented):
        problems.append(
            f"namespace {name!r} is not documented in the state-store table"
        )
    for name in sorted(documented - actual):
        problems.append(
            f"documented namespace {name!r} is not in repro.store.registry"
        )
    return problems


def documented_epochs(text: str) -> set[str]:
    """Backticked tokens in the "Epoch taxonomy" table rows."""
    match = re.search(r"### Epoch taxonomy\n(.*?)(?:\n#|\Z)", text, re.DOTALL)
    if match is None:
        return set()
    tokens: set[str] = set()
    for line in match.group(1).splitlines():
        if line.startswith("|"):
            first_cell = line.split("|")[1]
            tokens.update(re.findall(r"`([a-z:<>-]+)`", first_cell))
    tokens.discard("epoch")  # the table header
    return tokens


def check_epoch_taxonomy(text: str) -> list[str]:
    from repro.clarens.readcache import CANONICAL_EPOCHS

    documented = documented_epochs(text)
    actual = {name for name, _description in CANONICAL_EPOCHS}
    problems = []
    for name in sorted(actual - documented):
        problems.append(f"epoch {name!r} is not documented in the epoch taxonomy")
    for name in sorted(documented - actual):
        problems.append(f"documented epoch {name!r} is not in CANONICAL_EPOCHS")
    return problems


def documented_codecs(text: str) -> set[str]:
    """Backticked tokens in the "Wire codecs" table rows."""
    match = re.search(r"### Wire codecs\n(.*?)(?:\n#|\Z)", text, re.DOTALL)
    if match is None:
        return set()
    tokens: set[str] = set()
    for line in match.group(1).splitlines():
        if line.startswith("|"):
            first_cell = line.split("|")[1]
            tokens.update(re.findall(r"`([a-z]+)`", first_cell))
    tokens.discard("codec")  # the table header
    return tokens


def check_wire_codecs(text: str) -> list[str]:
    from repro.clarens.codecs import codec_names

    documented = documented_codecs(text)
    actual = set(codec_names())
    problems = []
    for name in sorted(actual - documented):
        problems.append(f"codec {name!r} is not documented in the wire-codec table")
    for name in sorted(documented - actual):
        problems.append(f"documented codec {name!r} is not registered in repro.clarens.codecs")
    return problems


def documented_rule_kinds(text: str) -> set[str]:
    """Backticked tokens in the "Health-rule taxonomy" table rows."""
    match = re.search(r"### Health-rule taxonomy\n(.*?)(?:\n#|\Z)", text, re.DOTALL)
    if match is None:
        return set()
    tokens: set[str] = set()
    for line in match.group(1).splitlines():
        if line.startswith("|"):
            first_cell = line.split("|")[1]
            tokens.update(re.findall(r"`([a-z_]+)`", first_cell))
    tokens.discard("kind")  # the table header
    return tokens


def check_health_rule_taxonomy(text: str) -> list[str]:
    from repro.observability.health import RULE_KINDS

    documented = documented_rule_kinds(text)
    actual = set(RULE_KINDS)
    problems = []
    for name in sorted(actual - documented):
        problems.append(
            f"rule kind {name!r} is not documented in the health-rule taxonomy"
        )
    for name in sorted(documented - actual):
        problems.append(
            f"documented rule kind {name!r} is not in RULE_KINDS"
        )
    return problems


def documented_consumers(text: str) -> set[str]:
    """Backticked tokens in the "Journal consumers" table rows."""
    match = re.search(r"### Journal consumers\n(.*?)(?:\n#|\Z)", text, re.DOTALL)
    if match is None:
        return set()
    tokens: set[str] = set()
    for line in match.group(1).splitlines():
        if line.startswith("|"):
            first_cell = line.split("|")[1]
            tokens.update(re.findall(r"`([a-z]+)`", first_cell))
    tokens.discard("consumer")  # the table header
    return tokens


def check_journal_consumers(text: str) -> list[str]:
    from repro.observability.eventbus import CONSUMER_NAMES

    documented = documented_consumers(text)
    actual = set(CONSUMER_NAMES)
    problems = []
    for name in sorted(actual - documented):
        problems.append(
            f"consumer {name!r} is not documented in the journal-consumers table"
        )
    for name in sorted(documented - actual):
        problems.append(
            f"documented consumer {name!r} is not in CONSUMER_NAMES"
        )
    return problems


def documented_host_instruments(text: str) -> set[str]:
    """Backticked tokens in the first cells of the "Host instruments" table."""
    match = re.search(r"### Host instruments\n(.*?)(?:\n#|\Z)", text, re.DOTALL)
    if match is None:
        return set()
    tokens: set[str] = set()
    for line in match.group(1).splitlines():
        if line.startswith("|"):
            tokens.update(re.findall(r"`(gae_[a-z_]+)`", line.split("|")[1]))
    return tokens


def check_host_instruments(text: str) -> list[str]:
    from repro.clarens import AsyncSocketServerHandle, ClarensHost

    host = ClarensHost("docs")
    with AsyncSocketServerHandle(host):
        actual = set(host.metrics.names())
    documented = documented_host_instruments(text)
    problems = []
    for name in sorted(actual - documented):
        problems.append(f"instrument {name!r} is not in the host-instruments table")
    for name in sorted(documented - actual):
        problems.append(f"documented instrument {name!r} is not registered in host.metrics")
    return problems


def check_scenario_cookbook() -> list[str]:
    from repro.scenarios.registry import render_cookbook
    from repro.scenarios.spec import ScenarioError

    if not SCENARIOS_MD.exists():
        return [f"{SCENARIOS_MD} does not exist"]
    text = SCENARIOS_MD.read_text(encoding="utf-8")
    try:
        rendered = render_cookbook(text)
    except ScenarioError as exc:
        return [str(exc)]
    if rendered != text:
        return [
            "the generated tables disagree with the scenarios/ registry; "
            "run `python -m repro.scenarios.registry --write`"
        ]
    return []


def check_cli_commands() -> list[str]:
    import argparse

    from repro.cli import build_parser

    commands: set[str] = set()
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            commands.update(action.choices)
    problems = []
    pages = [REPO_ROOT / "README.md", REPO_ROOT / "EXPERIMENTS.md"]
    for page in pages + sorted((REPO_ROOT / "docs").glob("*.md")):
        named = set(re.findall(r"gae-repro ([a-z][a-z0-9-]*)", page.read_text(encoding="utf-8")))
        for name in sorted(named - commands):
            problems.append(
                f"{page.relative_to(REPO_ROOT)} names `gae-repro {name}`, "
                "which is not a gae-repro sub-command"
            )
    return problems


def main() -> int:
    if not ARCHITECTURE_MD.exists():
        print(f"error: {ARCHITECTURE_MD} does not exist", file=sys.stderr)
        return 1
    text = ARCHITECTURE_MD.read_text(encoding="utf-8")
    packages = source_packages()
    missing = [name for name in packages if name not in text]
    if missing:
        print("docs/ARCHITECTURE.md is missing these packages:", file=sys.stderr)
        for name in missing:
            print(f"  - {name}", file=sys.stderr)
        print(
            f"\n{len(missing)} of {len(packages)} packages undocumented; "
            "add them to the package map.",
            file=sys.stderr,
        )
        return 1
    taxonomy_problems = check_event_taxonomy(text)
    if taxonomy_problems:
        print("docs/ARCHITECTURE.md event taxonomy is out of date:", file=sys.stderr)
        for problem in taxonomy_problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    namespace_problems = check_store_namespaces(text)
    if namespace_problems:
        print(
            "docs/ARCHITECTURE.md state-store namespace table is out of date:",
            file=sys.stderr,
        )
        for problem in namespace_problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    epoch_problems = check_epoch_taxonomy(text)
    if epoch_problems:
        print(
            "docs/ARCHITECTURE.md epoch taxonomy is out of date:",
            file=sys.stderr,
        )
        for problem in epoch_problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    codec_problems = check_wire_codecs(text)
    if codec_problems:
        print(
            "docs/ARCHITECTURE.md wire-codec table is out of date:",
            file=sys.stderr,
        )
        for problem in codec_problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    rule_problems = check_health_rule_taxonomy(text)
    if rule_problems:
        print(
            "docs/ARCHITECTURE.md health-rule taxonomy is out of date:",
            file=sys.stderr,
        )
        for problem in rule_problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    consumer_problems = check_journal_consumers(text)
    if consumer_problems:
        print(
            "docs/ARCHITECTURE.md journal-consumers table is out of date:",
            file=sys.stderr,
        )
        for problem in consumer_problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    cookbook_problems = check_scenario_cookbook()
    if cookbook_problems:
        print("docs/SCENARIOS.md is out of date:", file=sys.stderr)
        for problem in cookbook_problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    command_problems = check_cli_commands()
    if command_problems:
        print("the docs name commands the CLI does not have:", file=sys.stderr)
        for problem in command_problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    instrument_problems = check_host_instruments(text)
    if instrument_problems:
        print("docs/ARCHITECTURE.md host-instruments table is out of date:", file=sys.stderr)
        for problem in instrument_problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"docs/ARCHITECTURE.md covers all {len(packages)} packages")
    print("docs/ARCHITECTURE.md event taxonomy matches EventType")
    print("docs/ARCHITECTURE.md state-store namespaces match the registry")
    print("docs/ARCHITECTURE.md epoch taxonomy matches CANONICAL_EPOCHS")
    print("docs/ARCHITECTURE.md wire-codec table matches codec_names()")
    print("docs/ARCHITECTURE.md health-rule taxonomy matches RULE_KINDS")
    print("docs/ARCHITECTURE.md journal-consumers table matches CONSUMER_NAMES")
    print("docs/SCENARIOS.md generated tables match the scenario registry")
    print("every `gae-repro <command>` in README/docs is a CLI sub-command")
    print("docs/ARCHITECTURE.md host-instruments table matches host.metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
