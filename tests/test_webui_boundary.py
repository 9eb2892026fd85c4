"""The web UI is a Clarens client: it imports none of the GAE's internals.

Every page is calls the host serves as the UI's principal, so
``src/repro/webui.py`` imports the ``repro.clarens`` public surface and
``repro.analysis.figures``, and never a service, the simulator, a store,
the instrumentation or the host's own modules.  The check parses the file
with :mod:`ast`; nothing is imported.
"""

import ast
from pathlib import Path

WEBUI = Path(__file__).resolve().parent.parent / "src" / "repro" / "webui.py"

FORBIDDEN = (
    "repro.gae",
    "repro.core",
    "repro.gridsim",
    "repro.monalisa",
    "repro.store",
    "repro.observability",
    "repro.events",
    "repro.clarens.readcache",
    "repro.clarens.server",
)


def forbidden_imports(source):
    """``line: module`` of every import in *source* inside :data:`FORBIDDEN`."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            # ``from repro import gae`` imports ``repro.gae``.
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        hits += [
            f"{node.lineno}: {name}" for name in names
            if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
        ]
    return hits


def test_the_web_ui_imports_no_gae_internals():
    hits = forbidden_imports(WEBUI.read_text(encoding="utf-8"))
    assert not hits, "webui.py imports GAE internals:\n" + "\n".join(hits)


def test_the_check_sees_a_forbidden_import():
    source = WEBUI.read_text(encoding="utf-8")
    assert forbidden_imports(source + "\nfrom repro.gae import GAE\n")
    assert forbidden_imports("from repro import monalisa\n") == ["1: repro.monalisa"]
    assert forbidden_imports("import repro.clarens.server as s\n")
    assert not forbidden_imports("from repro.clarens import ClarensClient\n")
