"""``bench/collect.py`` stops before it runs anything when its root is not a git
checkout, and its record times each acceptance criterion, each README command and
the bare import."""

import importlib.util
import json
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
COLLECT = ROOT / "bench" / "collect.py"


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


def test_record_times_each_criterion_readme_command_and_the_import(tmp_path, monkeypatch):
    collect = _collect_module()
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "test_acceptance.py", tmp_path / "tests")
    shutil.copy(ROOT / "README.md", tmp_path)
    (tmp_path / "perfbench" / "out").mkdir(parents=True)
    (tmp_path / "perfbench" / "out" / "mc_risk-seed1-trace0.json").write_text('{"machine": {"cpus": 2}}')
    commands = []

    def timed(cmd, root):
        assert root == str(tmp_path)
        commands.append(cmd)
        return {"exit_code": 0, "wall_s": 0.5, "stdout": '{"workloads": 4}\n'}

    monkeypatch.setattr(collect, "_commit", lambda root: "abc1234")
    monkeypatch.setattr(collect, "_timed", timed)
    out = tmp_path / "BENCH.json"
    assert collect.main(["--root", str(tmp_path), "--out", str(out)]) == 0
    record = json.loads(out.read_text())

    assert sorted(record["criteria"], key=int) == [str(k) for k in range(1, 10)]
    pytest_targets = [cmd[-1] for cmd in commands if cmd[1:3] == ["-m", "pytest"]]
    for number, entry in record["criteria"].items():
        assert entry["node_id"].startswith(f"tests/test_acceptance.py::test_criterion_{number}_")
        assert entry["node_id"] in pytest_targets
    assert record["criterion_6"] == record["criteria"]["6"]

    readme = record["readme_commands"]
    assert len(readme) >= 10 and all(r["command"].startswith("subspace-bounds ") for r in readme)
    cli_runs = [cmd[3:] for cmd in commands if cmd[1:3] == ["-m", "subspace_bounds.cli"]]
    assert len(cli_runs) == len(readme) + 1  # the README commands and the report
    for run in cli_runs:
        if "--out" in run:
            sent = pathlib.Path(run[run.index("--out") + 1])
            assert sent.parent != tmp_path and tmp_path not in sent.parents

    assert record["import_floor"] == {
        "command": 'python -c "import subspace_bounds"', "wall_s": 0.5, "exit_code": 0
    }
    assert commands[-1][1:] == ["-c", "import subspace_bounds"]
