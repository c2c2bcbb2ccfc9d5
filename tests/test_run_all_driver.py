"""Unit tests for the benchmark run-all driver (selection logic only —
the harnesses themselves are exercised by their own tests)."""

import inspect
import os
import sys
import types

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
sys.path.insert(0, os.path.abspath(BENCH_DIR))

import run_all  # noqa: E402


class TestHarnessList:
    def test_all_listed_files_exist(self):
        for name in run_all.HARNESSES:
            assert os.path.isfile(os.path.join(BENCH_DIR, f"{name}.py")), name

    def test_every_bench_file_is_listed(self):
        present = {
            f[:-3]
            for f in os.listdir(BENCH_DIR)
            if f.startswith("bench_") and f.endswith(".py")
        }
        assert present == set(run_all.HARNESSES)

    def test_all_harnesses_have_main(self):
        import importlib

        for name in run_all.HARNESSES:
            module = importlib.import_module(name)
            assert callable(getattr(module, "main", None)), name


class TestDriver:
    def test_only_selection(self, tmp_path, capsys):
        rc = run_all.main(["--out", str(tmp_path), "--only", "table2_datasets"])
        assert rc == 0
        assert (tmp_path / "table2_datasets.txt").exists()
        out = capsys.readouterr().out
        assert "1/1 harnesses succeeded" in out

    def test_unknown_selection_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_all.main(["--out", str(tmp_path), "--only", "nonexistent"])

    def test_failure_recorded_not_raised(self, tmp_path, monkeypatch, capsys):
        import importlib

        module = importlib.import_module("bench_table2_datasets")

        def boom():
            raise RuntimeError("injected harness fault")

        monkeypatch.setattr(module, "main", boom)
        rc = run_all.main(["--out", str(tmp_path), "--only", "table2_datasets"])
        assert rc == 1
        content = (tmp_path / "table2_datasets.txt").read_text()
        assert "FAILED" in content


def stub_harness(monkeypatch, main):
    """Register a stub harness module ``bench_stub`` running ``main``."""
    stub = types.ModuleType("bench_stub")
    stub.main = main
    monkeypatch.setitem(sys.modules, "bench_stub", stub)
    monkeypatch.setattr(run_all, "HARNESSES", [*run_all.HARNESSES, "bench_stub"])


class TestOutDir:
    def test_out_writes_only_under_the_given_directory(self, tmp_path, monkeypatch):
        # Like bench_serve_shards: a JSON record beside the committed
        # results unless run_all hands it an output directory.
        results = os.path.join(BENCH_DIR, "..", "results")

        def main(out_dir=None):
            out_dir = results if out_dir is None else out_dir
            with open(os.path.join(out_dir, "stub.json"), "w") as fh:
                fh.write("{}")

        stub_harness(monkeypatch, main)
        out = tmp_path / "out"
        assert run_all.main(["--out", str(out), "--only", "stub"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["stub.json", "stub.txt"]
        assert not os.path.exists(os.path.join(results, "stub.json"))

    def test_serve_shards_takes_an_output_directory(self):
        import bench_serve_shards

        params = inspect.signature(bench_serve_shards.main).parameters
        assert params["out_dir"].default is None  # standalone: results/

    def test_nonzero_return_is_a_failure(self, tmp_path, monkeypatch):
        stub_harness(monkeypatch, lambda: 1)
        assert run_all.main(["--out", str(tmp_path), "--only", "stub"]) == 1
        assert "FAILED" in (tmp_path / "stub.txt").read_text()

    def test_streaming_fail_verdict_exits_nonzero(self, monkeypatch, capsys):
        import bench_streaming

        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        monkeypatch.setattr(bench_streaming, "SPEEDUP_BAR", float("inf"))
        assert bench_streaming.main() == 1
        assert "verdict: FAIL" in capsys.readouterr().out
