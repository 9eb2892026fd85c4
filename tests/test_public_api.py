"""Public-API contract tests: everything advertised must be importable."""

import importlib
import re
from pathlib import Path

import pytest

import repro


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ advertises missing {name!r}"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_version_matches_the_package_metadata(self):
        # Parsed by hand: tomllib needs Python 3.11 and the floor is 3.10.
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
        assert declared is not None
        assert declared.group(1) == repro.__version__

    @pytest.mark.parametrize(
        "module",
        [
            "repro.clarens",
            "repro.gridsim",
            "repro.monalisa",
            "repro.accounting",
            "repro.core",
            "repro.core.estimators",
            "repro.core.monitoring",
            "repro.core.steering",
            "repro.workloads",
            "repro.analysis",
            "repro.gae",
            "repro.cli",
            "repro.config",
            "repro.webui",
        ],
    )
    def test_subpackage_alls_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ advertises missing {name!r}"

    def test_pre_pr7_scenario_dialect_is_gone(self):
        import repro.config

        for module in (repro, repro.config):
            for name in ("ScenarioConfig", "WorkloadConfig",
                         "gae_from_scenario", "submit_scenario_workload"):
                assert not hasattr(module, name), f"{module.__name__}.{name}"
                assert name not in getattr(module, "__all__", ())

    def test_every_public_module_has_docstring(self):
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            mod = importlib.import_module(info.name)
            assert mod.__doc__, f"{info.name} lacks a module docstring"
