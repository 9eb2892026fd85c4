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
   deleted method cannot linger either;
7. every back-ticked CamelCase name in the same pages (alone, or followed
   by ``.attr`` or ``(…)``) is a builtin, a class defined under ``src/``
   or ``tests/``, or a name the page also writes with its module
   (``collections.OrderedDict``) — a deleted class cannot linger either;
8. every keyword of a back-ticked call in the same pages — ``Name(…)``,
   ``Name.method(…)`` or a fluent chain of them, where ``Name`` is a class
   defined under ``src/`` or a function ``repro`` exports (``build_gae``,
   ``restore_gae``) — is a parameter of what it calls, or of the record
   its ``**kwargs`` are passed on to (``GridBuilder.site`` →
   ``SiteConfig``); one whose ``**kwargs`` go elsewhere is not checked —
   a removed keyword cannot linger either.
``benchmarks/e2e/README.md`` is not scanned: only a ``[benchmark]`` PR
may edit it.

Run from anywhere::

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import builtins
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


def check_class_names() -> list[str]:
    """Back-ticked CamelCase names are builtins, classes defined under
    ``src/`` or ``tests/``, or written with their module on the page."""
    classes = {
        node.name
        for root in (SRC_ROOT, REPO_ROOT / "tests")
        for path in root.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    }
    problems = []
    for page in doc_pages():
        tokens = set(re.findall(r"`([^`\n]+)`", page.read_text(encoding="utf-8")))
        # ``collections.OrderedDict``: the page says where the name lives.
        qualified = {
            name for token in tokens for name in re.findall(r"\b[a-z_][\w.]*\.([A-Z]\w*)", token)
        }
        for token in sorted(tokens):
            named = re.fullmatch(r"([A-Z][a-z0-9]+[A-Z]\w*)(\.\w+)*(\(.*\))?", token)
            if named and not (
                named.group(1) in classes
                or hasattr(builtins, named.group(1))
                or named.group(1) in qualified
            ):
                problems.append(
                    f"{page.relative_to(REPO_ROOT)} names `{token}`, which is no builtin "
                    "and no class under src/ or tests/"
                )
    return problems


def call_chain(token: str) -> list[tuple[str, str | None]]:
    """``[(name, arguments or None), …]`` of a token written as a call
    chain (``A(…).b(…)``, ``A.b(…)``); empty for any other token."""
    chain: list[tuple[str, str | None]] = []
    at = 0
    while at < len(token):
        name = re.compile(r"\.?([A-Za-z_]\w*)").match(token, at)
        if name is None or name.group(0).startswith(".") == (at == 0):
            return []
        at, arguments = name.end(), None
        if token.startswith("(", at):
            depth = 0
            for end in range(at, len(token)):
                depth += {"(": 1, ")": -1}.get(token[end], 0)
                if depth == 0:
                    break
            else:
                return []
            arguments, at = token[at + 1:end], end + 1
        chain.append((name.group(1), arguments))
    return chain if any(arguments is not None for _, arguments in chain) else []


def keywords(arguments: str) -> list[str]:
    """The keywords of a call's top-level *arguments* (string values blanked)."""
    arguments = re.sub(r"\"[^\"]*\"|'[^']*'", "''", arguments)
    parts, depth, start = [], 0, 0
    for i, char in enumerate(arguments + ","):
        depth += {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}.get(char, 0)
        if char == "," and depth == 0:
            parts.append(arguments[start:i])
            start = i + 1
    return [m.group(1) for part in parts if (m := re.match(r"\s*(\w+)\s*=(?!=)", part))]


def forwarded(function) -> object:
    """The callable a function passes its ``**kwargs`` on to, whole —
    ``SiteConfig(name, **fields)`` in its body — or None."""
    import inspect
    import textwrap

    if not inspect.isfunction(function):
        return None
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    except (OSError, SyntaxError):
        return None
    var = tree.body[0].args.kwarg
    if var is None:
        return None
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and any(
            keyword.arg is None and isinstance(keyword.value, ast.Name)
            and keyword.value.id == var.arg
            for keyword in node.keywords
        ):
            return function.__globals__.get(node.func.id)
    return None


def check_keywords() -> list[str]:
    """Each keyword of a back-ticked call of a class or public function
    defined under ``src/`` is a parameter of what it calls, and each
    method a call chain names on such a class exists."""
    import importlib
    import inspect

    # Each class and public function at the top of a module under src/,
    # by name; a name two modules define is nobody's.
    defined: dict[str, list[str]] = {}
    for path in SRC_ROOT.rglob("*.py"):
        module = ".".join(path.relative_to(SRC_ROOT).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) or (
                isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            ):
                defined.setdefault(node.name, []).append(module.removesuffix(".__init__"))

    def resolve(name: str):
        modules = defined.get(name, [])
        return getattr(importlib.import_module(modules[0]), name) if len(modules) == 1 else None

    problems = []
    for page in doc_pages():
        where = page.relative_to(REPO_ROOT)
        for token in sorted(set(re.findall(r"`([^`\n]+)`", page.read_text(encoding="utf-8")))):
            owner = None  # the class the next ``.name`` is looked up on
            for i, (name, arguments) in enumerate(call_chain(token)):
                target = resolve(name) if i == 0 else getattr(owner, name, None)
                if target is None:
                    if owner is not None and arguments is not None:
                        problems.append(
                            f"{where} names `{token}`, but {owner.__name__} has no {name!r}"
                        )
                    break
                if arguments is None:
                    owner = target if inspect.isclass(target) else None
                    continue
                try:
                    signature = inspect.signature(target)
                except ValueError:  # a class whose constructor is C's (an exception)
                    break
                kinds = {param.name: param.kind for param in signature.parameters.values()}
                if inspect.Parameter.VAR_KEYWORD in kinds.values() and (
                    record := forwarded(target)
                ) is not None:  # its own named parameters, and the record's
                    kinds = {
                        name: kind for name, kind in kinds.items()
                        if kind is not inspect.Parameter.VAR_KEYWORD
                    }
                    kinds.update(
                        (param.name, param.kind)
                        for param in inspect.signature(record).parameters.values()
                    )
                if inspect.Parameter.VAR_KEYWORD not in kinds.values():
                    problems += [
                        f"{where} names `{token}`, but {name} takes no keyword {keyword!r}"
                        for keyword in keywords(arguments)
                        if kinds.get(keyword, inspect.Parameter.POSITIONAL_ONLY)
                        in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.VAR_POSITIONAL)
                    ]
                if inspect.isclass(target):
                    owner = target
                elif owner is None or str(signature.return_annotation).strip("'\"") != owner.__name__:
                    break  # a fluent chain goes on only on the class it returns
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
        "back-ticked class names in the docs": check_class_names(),
        "back-ticked call keywords in the docs": check_keywords(),
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
