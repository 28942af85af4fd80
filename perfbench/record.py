"""Record the exact outputs the benchmark's checks compare against.

Usage (from the root of a git checkout):  python3 perfbench/record.py

Runs the report-shift, grid-gauss and dp-deep workloads once per seed in
``SEEDS`` and writes ``perfbench/recorded.json``: DP ``log_p`` per n,
``gamma_hat``, grid ``log_p`` and ``refine_delta_log``, with the commit,
library versions and thread settings they were produced with.  It also
stores the largest |z| of splitting against DP per seed, for information.
Re-record only when a change is meant to alter these numbers, and say so.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from importlib import metadata

import checks
import run

# The builtin configs' own seeds plus a block of small ones.
SEEDS = [*range(32), 20260802, 20260803]

UNREACHED = [
    "grid atom shifts (_grid_once atom branch): no builtin config selects grid on an atom law",
    "naive-MC chunks (survival_naive_mc): no builtin config selects the naive estimator",
]


def _values(name: str, data: bytes) -> dict:
    parsed = checks.parse(checks.WORKLOADS[name], data)
    rows = parsed["rows"]
    out = {"log_p": {str(r["n"]): r["log_p"] for r in rows}}
    if name == "grid-gauss":
        out["refine_delta_log"] = {str(r["n"]): r["refine_delta_log"] for r in rows}
    if name == "report-shift":
        out["gamma_hat"] = [g["gamma_hat"] for g in parsed["gamma"]]
    return out


def main() -> int:
    threads = run.nproc()
    workdir = run.WORK / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    values: dict = {name: {} for name in ("report-shift", "grid-gauss", "dp-deep")}
    split_z = {}
    for seed in SEEDS:
        for name in (*values, "splitting-shift"):
            workload = checks.WORKLOADS[name]
            inv = run.invoke(workdir, [*workload.args, "--seed", str(seed)], workload.science,
                             threads)
            if not checks.exit_ok(name, inv.code, inv.data):
                print(f"{name} seed {seed} failed:\n{inv.stderr}", file=sys.stderr)
                return 1
            if name == "splitting-shift":
                oracle = {int(n): v for n, v in values["report-shift"][str(seed)]["log_p"].items()}
                split_z[str(seed)] = checks.max_abs_z(inv.data, oracle)
            else:
                values[name][str(seed)] = _values(name, inv.data)
        print(f"seed {seed}: splitting max|z|={split_z[str(seed)]:.2f}", flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True).stdout.strip()
    payload = {
        "commit": commit,
        "nproc": run.nproc(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {"TUBEWALK_THREADS": threads, "OMP_NUM_THREADS": 1,
                    "OPENBLAS_NUM_THREADS": 1, "MKL_NUM_THREADS": 1},
        "unreached_layers": UNREACHED,
        "splitting_max_abs_z": split_z,
        "values": values,
    }
    (run.HERE / "recorded.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    run.shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
