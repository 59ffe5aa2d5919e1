"""Write one BENCH_<n>.json: the benchmark, the tier-1 suite and two timed commands.

    python3 bench/collect.py --out bench/BENCH_16.json
    python3 bench/collect.py --root <another checkout> --out BENCH_15.json

Everything runs from the source of the checkout at ``--root`` (default: the
checkout this script sits in), one step after another:
- ``perfbench/run.py --workload all --seed 1 --seconds 25``, keeping its last
  output line and the machine record of its ``mc_risk`` results file;
- the tier-1 suite, timed as a whole;
- acceptance criterion 6, timed as a whole;
- the ``report --family exp --alpha 1 --p 12 --n 100000 --d-min 3 --d-max 6
  --simulate 600`` command, timed as a whole.

``commit`` is ``git describe --always --dirty`` of that checkout, so ``--root``
must be a git checkout (``git clone``, not ``git archive``).  The script stops
with a nonzero exit, and writes no file, when ``git describe`` fails or when
the benchmark run exits nonzero.  Wall times are single runs of one process
each; compare two files only when they come from the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPORT_ARGS = ["report", "--family", "exp", "--alpha", "1", "--p", "12", "--n", "100000",
               "--d-min", "3", "--d-max", "6", "--simulate", "600"]


def _timed(cmd: list[str], root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    return {"exit_code": proc.returncode, "wall_s": round(wall, 3), "stdout": proc.stdout}


def _commit(root: str) -> str:
    """``git describe`` of the checkout at root; SystemExit if it fails."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=7"], cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"git describe failed in {root}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def _last_line(run: dict) -> str:
    return run["stdout"].strip().splitlines()[-1]


def collect(root: str) -> dict:
    py = sys.executable
    commit = _commit(root)
    bench = _timed([py, "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "25"], root)
    if bench["exit_code"] != 0:
        raise SystemExit(f"perfbench/run.py --workload all exited {bench['exit_code']}")
    with open(os.path.join(root, "perfbench", "out", "mc_risk-seed1-trace0.json"), encoding="utf-8") as f:
        machine = json.load(f)["machine"]
    tier1 = _timed([py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"], root)
    criterion6 = _timed([py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "tests/test_acceptance.py::test_criterion_6_simulated_risk_dominates_bounds"], root)
    with tempfile.TemporaryDirectory() as tmp:
        report = _timed([py, "-m", "subspace_bounds.cli", *REPORT_ARGS, "--out", os.path.join(tmp, "r.csv")], root)
    return {
        "commit": commit,
        "machine": machine,
        "perfbench_all": json.loads(_last_line(bench)),
        "tier1": {"wall_s": tier1["wall_s"], "exit_code": tier1["exit_code"], "summary": _last_line(tier1)},
        "criterion_6": {"wall_s": criterion6["wall_s"], "exit_code": criterion6["exit_code"],
                        "summary": _last_line(criterion6)},
        "report_simulate_600": {"command": "subspace-bounds " + " ".join(REPORT_ARGS),
                                "wall_s": report["wall_s"], "exit_code": report["exit_code"]},
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
