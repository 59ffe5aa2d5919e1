"""``bench/collect.py`` stops before it runs anything when its root is not a git checkout."""

import importlib.util
import pathlib

import pytest

COLLECT = pathlib.Path(__file__).resolve().parent.parent / "bench" / "collect.py"


def _collect_module():
    spec = importlib.util.spec_from_file_location("bench_collect", COLLECT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_commit_of_a_non_git_directory_is_an_error(tmp_path):
    with pytest.raises(SystemExit, match="git describe failed"):
        _collect_module()._commit(str(tmp_path))


def test_collect_writes_no_file_outside_a_git_checkout(tmp_path, monkeypatch):
    collect = _collect_module()
    monkeypatch.setattr(collect, "_timed", lambda *args: pytest.fail("ran a command"))
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="git describe failed"):
        collect.main(["--root", str(tmp_path), "--out", str(out)])
    assert not out.exists()


def test_a_failed_benchmark_run_writes_no_file(tmp_path, monkeypatch):
    collect = _collect_module()
    monkeypatch.setattr(collect, "_commit", lambda root: "abc1234")
    failed = {"exit_code": 2, "wall_s": 0.0, "stdout": ""}
    monkeypatch.setattr(collect, "_timed", lambda *args: failed)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="exited 2"):
        collect.main(["--root", str(tmp_path), "--out", str(out)])
    assert not out.exists()
