"""Package-level hygiene tests: imports, exports, docstrings."""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = [
    "repro.tensors",
    "repro.hashing",
    "repro.core",
    "repro.baselines",
    "repro.parallel",
    "repro.machine",
    "repro.data",
    "repro.analysis",
    "repro.util",
    "repro.runtime",
]


class TestImports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} has no module docstring"

    def test_every_module_importable(self):
        failures = []
        for pkg_name in SUBPACKAGES:
            pkg = importlib.import_module(pkg_name)
            for info in pkgutil.iter_modules(pkg.__path__):
                full = f"{pkg_name}.{info.name}"
                try:
                    importlib.import_module(full)
                except Exception as exc:  # noqa: BLE001
                    failures.append((full, repr(exc)))
        assert not failures, failures

    def test_no_circular_import_from_cold_start(self):
        # A fresh interpreter importing the deepest kernel first must
        # not trip circular imports.
        import subprocess
        import sys

        code = "import repro.core.tiled_co; import repro; print('ok')"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"


class TestExports:
    def test_all_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_all_resolvable(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol}"


class TestDocstrings:
    def test_public_functions_documented(self):
        import inspect

        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(name)
        assert not undocumented, undocumented
