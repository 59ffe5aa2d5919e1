"""``bench/collect.py`` stops before it runs anything when its root is not a git
checkout, marks its commit dirty when the checkout holds any change, and its record times each acceptance criterion (from the tier-1 run's
durations), each README command, a bound at p = 400, a sweep of bounds at
p = 400 with its page faults and the bare import, and holds the result of the
benchmark harness's own tests."""

import importlib.util
import json
import pathlib
import re
import shutil
import subprocess

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


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid", *args],
                   cwd=repo, check=True, capture_output=True)


def test_commit_is_dirty_when_the_checkout_holds_an_untracked_file(tmp_path):
    """Tier-1 runs every file under ``tests/``, tracked or not, so an untracked
    test file must not leave a clean commit beside its results."""
    _git(tmp_path, "init", "-q")
    (tmp_path / ".gitignore").write_text("/out/\n")
    _git(tmp_path, "add", ".gitignore")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    commit = _collect_module()._commit
    clean = commit(str(tmp_path))
    assert re.fullmatch(r"[0-9a-f]{7,}", clean)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "run.json").write_text("{}")  # ignored outputs leave it clean
    assert commit(str(tmp_path)) == clean
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_extra.py").write_text("def test_extra():\n    assert False\n")
    assert commit(str(tmp_path)) == clean + "-dirty"
    _git(tmp_path, "add", "tests")
    assert commit(str(tmp_path)) == clean + "-dirty"  # staged, not committed


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
    nodes = collect._criteria(str(tmp_path))
    # pytest prints the durations block before its summary line
    durations = "".join(f"0.{k}1s call     {nodes[str(k)]}\n" for k in range(1, 10))
    tier1_stdout = f"{durations}0.00s setup    {nodes['1']}\n547 passed in 45.00s\n"
    commands = []

    def timed(cmd, root):
        assert root == str(tmp_path)
        commands.append(cmd)
        if "--durations=0" in cmd:
            stdout = tier1_stdout
        elif "perfbench/tests" in cmd:
            stdout = "13 passed in 3.00s\n"
        elif cmd[1:] == ["-c", collect.SWEEP_P400]:
            stdout = '{"wall_s": 0.25, "minflt": 7}\n'
        else:
            stdout = '{"workloads": 4}\n'
        return {"exit_code": 0, "wall_s": 0.5, "stdout": stdout}

    monkeypatch.setattr(collect, "_commit", lambda root: "abc1234")
    monkeypatch.setattr(collect, "_timed", timed)
    out = tmp_path / "BENCH.json"
    assert collect.main(["--root", str(tmp_path), "--out", str(out)]) == 0
    record = json.loads(out.read_text())

    assert sorted(record["criteria"], key=int) == [str(k) for k in range(1, 10)]
    for number, entry in record["criteria"].items():
        assert entry["node_id"].startswith(f"tests/test_acceptance.py::test_criterion_{number}_")
        assert entry["call_s"] == float(f"0.{number}1")
    assert record["tier1"] == {"wall_s": 0.5, "exit_code": 0, "summary": "547 passed in 45.00s"}
    pytest_runs = [cmd[3:] for cmd in commands if cmd[1:3] == ["-m", "pytest"]]
    assert len(pytest_runs) == 3 and "--durations=0" in pytest_runs[0]
    assert pytest_runs[1][-1] == nodes["6"]  # the only criterion run on its own
    assert pytest_runs[2][-1] == "perfbench/tests"
    assert record["perfbench_tests"] == {"exit_code": 0, "summary": "13 passed in 3.00s"}
    assert record["criterion_6"] == {
        "node_id": nodes["6"], "wall_s": 0.5, "exit_code": 0, "summary": '{"workloads": 4}'
    }

    readme = record["readme_commands"]
    assert len(readme) >= 10 and all(r["command"].startswith("subspace-bounds ") for r in readme)
    cli_runs = [cmd[3:] for cmd in commands if cmd[1:3] == ["-m", "subspace_bounds.cli"]]
    assert len(cli_runs) == len(readme) + 2  # the README commands, the report and the p = 400 bound
    for run in cli_runs:
        if "--out" in run:
            sent = pathlib.Path(run[run.index("--out") + 1])
            assert sent.parent != tmp_path and tmp_path not in sent.parents

    assert cli_runs[-1][:-2] == collect.BOUND_P400_ARGS and cli_runs[-1][-2] == "--out"
    assert record["bound_p400"] == {
        "command": "subspace-bounds bound hs --spectrum exp:0.02,400 --d 200 --n 1000 --delta auto --out b.json",
        "wall_s": 0.5, "exit_code": 0,
    }

    assert commands[-2][1:] == ["-c", collect.SWEEP_P400]
    assert record["bound_sweep_p400"]["command"].startswith("20 hs_lower_bound calls")
    assert {k: v for k, v in record["bound_sweep_p400"].items() if k != "command"} == {
        "wall_s": 0.25, "minflt": 7, "exit_code": 0
    }

    assert record["import_floor"] == {
        "command": 'python -c "import subspace_bounds"', "wall_s": 0.5, "exit_code": 0
    }
    assert commands[-1][1:] == ["-c", "import subspace_bounds"]
