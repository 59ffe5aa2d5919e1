"""Write one BENCH_<n>.json: the benchmark and its own tests, tier-1, the acceptance criteria and the README commands.

    python3 bench/collect.py --out bench/BENCH_16.json
    python3 bench/collect.py --root <another checkout> --out BENCH_15.json

Everything runs from the source of the checkout at ``--root`` (default: the
checkout this script sits in), one step after another:
- ``perfbench/run.py --workload all --seed 1 --seconds 25``, keeping its last
  output line and the machine record of its ``mc_risk`` results file;
- the tier-1 suite, timed as a whole, with ``--durations=0``: each acceptance
  criterion's ``call`` seconds in that run, by its node id in
  ``tests/test_acceptance.py`` (``criteria``, keyed by number; null where the
  run did not report it);
- criterion 6 again as its own pytest process (``criterion_6``, the wall time
  that older BENCH files hold, so that they still compare);
- the benchmark harness's own tests, ``pytest perfbench/tests``
  (``perfbench_tests``: exit code and summary line);
- each ``subspace-bounds`` command of the README's "Command line" block, its
  ``--out`` sent to a temporary directory;
- ``python -c "import subspace_bounds"``, the floor under every command: the
  CLI is bound by its imports;
- the ``report --family exp --alpha 1 --p 12 --n 100000 --d-min 3 --d-max 6
  --simulate 600`` command, timed as a whole;
- the ``bound hs --spectrum exp:0.02,400 --d 200 --n 1000 --delta auto`` command
  with ``--out`` (``bound_p400``): a bound at p = 400, whose 200 x 200 artifact
  costs more to write than the bound does to compute.  A record, not a gate;
- one process that, after one warm-up call, times 20 in-process
  ``hs_lower_bound`` calls on ``exp:0.02,400``, d = 200, n = 1000, over a
  delta grid (``bound_sweep_p400``): their wall time and the minor page faults
  (``ru_minflt``) that they take, the traffic of repeated large bounds.  A
  record, not a gate.

``commit`` is ``git describe --always`` of that checkout, with ``-dirty`` added
when ``git status --porcelain`` lists anything, untracked files included, since
tier-1 runs every file under ``tests/``.  So ``--root`` must be a git checkout
(``git clone``, not ``git archive``).  The script stops with a nonzero exit, and
writes no file, when ``git describe`` fails or when the benchmark run exits
nonzero.  Wall times are single runs of one process each; compare two files
only when they come from the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPORT_ARGS = ["report", "--family", "exp", "--alpha", "1", "--p", "12", "--n", "100000",
               "--d-min", "3", "--d-max", "6", "--simulate", "600"]
BOUND_P400_ARGS = ["bound", "hs", "--spectrum", "exp:0.02,400", "--d", "200", "--n", "1000",
                   "--delta", "auto"]
SWEEP_P400 = """\
import json, resource, time
import numpy as np
from subspace_bounds import CovModel, exp_spectrum, hs_lower_bound
model = CovModel(exp_spectrum(0.02, 400, 200), 1000)
hs_lower_bound(model, 1.0)
faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
for delta in np.geomspace(0.1, 10.0, 20).tolist():
    hs_lower_bound(model, delta)
wall = time.perf_counter() - start
print(json.dumps({"wall_s": round(wall, 4),
                  "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults}))
"""


def _timed(cmd: list[str], root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    return {"exit_code": proc.returncode, "wall_s": round(wall, 3), "stdout": proc.stdout}


def _git(root: str, *args: str) -> str:
    """The stripped output of ``git <args>`` in root; SystemExit if it fails."""
    proc = subprocess.run(["git", *args], cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"git {args[0]} failed in {root}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def _commit(root: str) -> str:
    """``git describe`` of the checkout at root, with ``-dirty`` when ``git status``
    lists any change, untracked files included (tier-1 runs them too)."""
    commit = _git(root, "describe", "--always", "--abbrev=7")
    if not commit:
        raise SystemExit(f"git describe failed in {root}: no output")
    return commit + "-dirty" if _git(root, "status", "--porcelain") else commit


def _last_line(run: dict) -> str:
    return run["stdout"].strip().splitlines()[-1]


def _read(root: str, *path: str) -> str:
    with open(os.path.join(root, *path), encoding="utf-8") as f:
        return f.read()


def _criteria(root: str) -> dict[str, str]:
    """Node id of each acceptance criterion test, keyed by the criterion's number."""
    names = re.findall(r"^def (test_criterion_(\d+)_\w+)\(", _read(root, "tests", "test_acceptance.py"), re.M)
    return {number: f"tests/test_acceptance.py::{name}" for name, number in names}


def _readme_commands(root: str) -> list[list[str]]:
    """The argv of each ``subspace-bounds`` command of the README's "Command line" block."""
    block = re.search(r"## Command line\n\n```bash\n(.*?)```", _read(root, "README.md"), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("subspace-bounds ")]


def _pytest(py: str, root: str, *args: str) -> tuple[dict, str]:
    """(wall time, exit code and last line, stdout) of one pytest process."""
    run = _timed([py, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args], root)
    return {"wall_s": run["wall_s"], "exit_code": run["exit_code"], "summary": _last_line(run)}, run["stdout"]


def _call_seconds(stdout: str) -> dict[str, float]:
    """Each test's ``call`` seconds from the ``--durations=0`` block of a pytest run."""
    return {node: float(s) for s, node in re.findall(r"^([\d.]+)s call +(\S+)$", stdout, re.M)}


def collect(root: str) -> dict:
    py = sys.executable
    commit = _commit(root)
    bench = _timed([py, "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "25"], root)
    if bench["exit_code"] != 0:
        raise SystemExit(f"perfbench/run.py --workload all exited {bench['exit_code']}")
    machine = json.loads(_read(root, "perfbench", "out", "mc_risk-seed1-trace0.json"))["machine"]
    tier1, stdout = _pytest(py, root, "--continue-on-collection-errors",
                            "--durations=0", "--durations-min=0")
    calls = _call_seconds(stdout)
    nodes = _criteria(root)
    criteria = {number: {"node_id": node, "call_s": calls.get(node)} for number, node in nodes.items()}
    criterion_6 = {"node_id": nodes["6"], **_pytest(py, root, nodes["6"])[0]}
    harness = _pytest(py, root, "perfbench/tests")[0]
    readme = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _readme_commands(root):
            sent = list(argv)
            if "--out" in argv:
                at = argv.index("--out") + 1
                sent[at] = os.path.join(tmp, argv[at])
            run = _timed([py, "-m", "subspace_bounds.cli", *sent], root)
            readme.append({"command": "subspace-bounds " + " ".join(argv),
                           "wall_s": run["wall_s"], "exit_code": run["exit_code"]})
        report = _timed([py, "-m", "subspace_bounds.cli", *REPORT_ARGS, "--out", os.path.join(tmp, "r.csv")], root)
        large = _timed([py, "-m", "subspace_bounds.cli", *BOUND_P400_ARGS, "--out", os.path.join(tmp, "b.json")], root)
    sweep = _timed([py, "-c", SWEEP_P400], root)
    swept = json.loads(_last_line(sweep)) if sweep["exit_code"] == 0 else {"wall_s": None, "minflt": None}
    floor = _timed([py, "-c", "import subspace_bounds"], root)
    return {
        "commit": commit,
        "machine": machine,
        "perfbench_all": json.loads(_last_line(bench)),
        "tier1": tier1,
        "criteria": criteria,
        "criterion_6": criterion_6,
        "perfbench_tests": {"exit_code": harness["exit_code"], "summary": harness["summary"]},
        "readme_commands": readme,
        "import_floor": {"command": 'python -c "import subspace_bounds"',
                         "wall_s": floor["wall_s"], "exit_code": floor["exit_code"]},
        "report_simulate_600": {"command": "subspace-bounds " + " ".join(REPORT_ARGS),
                                "wall_s": report["wall_s"], "exit_code": report["exit_code"]},
        "bound_p400": {"command": "subspace-bounds " + " ".join(BOUND_P400_ARGS) + " --out b.json",
                       "wall_s": large["wall_s"], "exit_code": large["exit_code"]},
        "bound_sweep_p400": {"command": "20 hs_lower_bound calls, exp:0.02,400 d=200 n=1000, "
                                        "delta = geomspace(0.1, 10, 20), after one at delta = 1",
                             **swept, "exit_code": sweep["exit_code"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(HERE))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    record = collect(os.path.abspath(args.root))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
