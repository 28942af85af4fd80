"""Output checks for the benchmark's workloads.

Three kinds of check, all on the science file one invocation wrote:

* recorded values: at a seed listed in ``recorded.json`` the exact
  estimates (DP and grid ``log_p``, grid ``refine_delta_log``,
  ``gamma_hat``) must match what the package produced when the values were
  recorded, to near machine precision;
* oracle: at every seed, each splitting ``log_p`` must lie within
  ``Z_LIMIT`` of its own ``stderr_log`` of the exact DP value for the same
  environment, which a DP invocation at the same seed provides;
* structure: at every seed, the expected rows, methods and seeds are
  present and every ``log_p`` is finite and negative.

Byte-identity of the science file across the invocations of a run is
checked by the runner.  ``fit.gamma_value`` and ``fit.predicted`` are
deliberately not compared with recorded values: computing gamma once per
run instead of twice legitimately changes them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import NamedTuple

DP_REL = 1e-12  # exact DP log_p, relative
GAMMA_REL = 1e-10  # gamma_hat, relative
GRID_REL = 1e-10  # grid log_p relative; refine_delta_log scaled by max(1, |log_p|)
# Splitting must agree with the exact DP within this many of its own
# standard errors.  The delta-method stderr is suspected to be too small,
# so |z| near 3 occurs; max |z| is reported, not tuned away.
Z_LIMIT = 6.0

SHIFT = ["--config", "builtin:random-shift-bernoulli"]
GAUSS = ["--config", "builtin:random-mean-gaussian"]
SHIFT_NS = (200, 400, 800, 1600, 3200)


class Workload(NamedTuple):
    args: list  # CLI arguments before --seed and --out
    science: str  # the output file that is checked
    ns: tuple  # expected n per row
    method: str  # expected estimator per row


WORKLOADS = {
    "report-shift": Workload(["report", *SHIFT], "report.json", SHIFT_NS, "dp_lattice"),
    "grid-gauss": Workload(
        ["simulate", *GAUSS, "--set", "tube.n_list=[400,800,1600,3200,6400]"],
        "simulate.csv", (400, 800, 1600, 3200, 6400), "grid"),
    "splitting-shift": Workload(
        ["simulate", *SHIFT, "--set", "estimator.method=splitting"],
        "simulate.csv", SHIFT_NS, "splitting"),
    "dp-deep": Workload(
        ["simulate", *SHIFT, "--set", "tube.n_list=[3200,6400,12800,25600,51200]"],
        "simulate.csv", (3200, 6400, 12800, 25600, 51200), "dp_lattice"),
}
# Exact DP on the environments splitting-shift uses (same config and seed).
ORACLE = Workload(["simulate", *SHIFT], "simulate.csv", SHIFT_NS, "dp_lattice")


def _num(text: str):
    return float(text) if text not in ("", None) else None


def parse(workload: Workload, data: bytes) -> dict:
    """Science file -> {"rows": [...], "gamma": [...], "fit": ...}."""
    if workload.science == "report.json":
        payload = json.loads(data)
        header = payload["simulate"]["header"]
        rows = [dict(zip(header, r)) for r in payload["simulate"]["rows"]]
        gheader = payload["gamma"]["header"]
        gamma = [dict(zip(gheader, r)) for r in payload["gamma"]["rows"]]
        return {"rows": rows, "gamma": gamma, "fit": payload["fit"]}
    rows = []
    for r in csv.DictReader(io.StringIO(data.decode("utf-8"))):
        for key in ("n", "master_seed"):
            r[key] = int(r[key])
        for key in ("log_p", "stderr_log", "refine_delta_log"):
            r[key] = _num(r[key])
        rows.append(r)
    return {"rows": rows, "gamma": [], "fit": None}


def _close(a: float, b: float, rel: float, scale: float | None = None) -> bool:
    return abs(a - b) <= rel * (abs(b) if scale is None else scale)


def _structure(workload: Workload, seed: int, parsed: dict) -> list[str]:
    rows = parsed["rows"]
    problems = []
    if [r["n"] for r in rows] != list(workload.ns):
        return [f"rows for n={[r['n'] for r in rows]}, expected {list(workload.ns)}"]
    for r in rows:
        if r["method"] != workload.method:
            problems.append(f"n={r['n']}: method {r['method']}, expected {workload.method}")
        if r["master_seed"] != seed:
            problems.append(f"n={r['n']}: master_seed {r['master_seed']}, expected {seed}")
        if not (math.isfinite(r["log_p"]) and r["log_p"] < 0):
            problems.append(f"n={r['n']}: log_p {r['log_p']} is not finite and negative")
    return problems


def check_rows_against(rows, expected: dict, key: str, rel: float, scaled: bool = False):
    """Compare one column per n with recorded values {str(n): value}."""
    problems = []
    for r in rows:
        want = expected.get(str(r["n"]))
        if want is None:
            continue
        got = r[key]
        scale = max(1.0, abs(r["log_p"])) if scaled else None
        if got is None or not _close(got, want, rel, scale):
            problems.append(f"n={r['n']}: {key} {got!r} differs from recorded {want!r}")
    return problems


def check(name: str, seed: int, data: bytes, recorded: dict, oracle: dict | None = None):
    """Problems found in one invocation's science file (empty list: pass).

    `oracle` maps n to the exact DP log_p for the splitting workload.
    """
    workload = WORKLOADS[name] if name in WORKLOADS else ORACLE
    try:
        parsed = parse(workload, data)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable {workload.science}: {exc!r}"]
    problems = _structure(workload, seed, parsed)
    if problems:
        return problems
    rows = parsed["rows"]
    rec_name = "report-shift" if name in ("report-shift", "oracle") else name
    rec = recorded.get("values", {}).get(rec_name, {}).get(str(seed))

    if name == "report-shift":
        fit = parsed["fit"]
        if fit is None:
            return ["report has no fit"]
        fit_lp = {p["n"]: p["estimate"]["log_p"] for p in fit["points"]}
        for r in rows:
            if fit_lp.get(r["n"]) != r["log_p"]:
                problems.append(f"n={r['n']}: fit log_p {fit_lp.get(r['n'])!r} != simulate "
                                f"log_p {r['log_p']!r}")
        if len(parsed["gamma"]) != 1:
            problems.append(f"{len(parsed['gamma'])} gamma rows, expected 1")
        for g in parsed["gamma"]:
            if not g["ci_lo"] <= g["gamma_hat"] <= g["ci_hi"]:
                problems.append(f"gamma_hat {g['gamma_hat']} outside its interval")
        if rec is not None:
            for g, want in zip(parsed["gamma"], rec["gamma_hat"]):
                if not _close(g["gamma_hat"], want, GAMMA_REL):
                    problems.append(f"gamma_hat {g['gamma_hat']!r} differs from recorded {want!r}")

    if workload.method == "dp_lattice":
        lps = [r["log_p"] for r in rows]
        if name == "dp-deep" and any(b >= a for a, b in zip(lps, lps[1:])):
            problems.append(f"log_p not decreasing in n: {lps}")
        if rec is not None:
            problems += check_rows_against(rows, rec["log_p"], "log_p", DP_REL)
    elif name == "grid-gauss":
        if rec is not None:
            problems += check_rows_against(rows, rec["log_p"], "log_p", GRID_REL)
            problems += check_rows_against(rows, rec["refine_delta_log"], "refine_delta_log",
                                           GRID_REL, scaled=True)
    elif name == "splitting-shift":
        for r in rows:
            if "extinction" in r["flags"]:
                problems.append(f"n={r['n']}: splitting population died out")
            elif oracle is None or r["n"] not in oracle:
                problems.append(f"n={r['n']}: no DP oracle value")
            elif not abs(split_z(r, oracle)) <= Z_LIMIT:
                problems.append(f"n={r['n']}: splitting log_p {r['log_p']!r} is "
                                f"{split_z(r, oracle):.2f} stderr from DP {oracle[r['n']]!r}")
    return problems


def split_z(row: dict, oracle: dict) -> float:
    """(splitting log_p - exact log_p) / splitting stderr_log."""
    return (row["log_p"] - oracle[row["n"]]) / row["stderr_log"]


def max_abs_z(data: bytes, oracle: dict) -> float:
    rows = parse(WORKLOADS["splitting-shift"], data)["rows"]
    return max(abs(split_z(r, oracle)) for r in rows if r["n"] in oracle)


def dp_log_p(data: bytes) -> dict:
    """{n: log_p} of a DP simulate.csv."""
    return {r["n"]: r["log_p"] for r in parse(ORACLE, data)["rows"]}


def exit_ok(name: str, code: int, data: bytes | None) -> bool:
    """Exit 0, or for report exit 1 with a written report whose fit failed.

    A failed fit is the program's scientific verdict, not an operational
    failure; a traceback or a usage error (code 2) is.
    """
    if code == 0:
        return data is not None
    if code != 1 or name != "report-shift" or data is None:
        return False
    try:
        return json.loads(data)["fit"]["passed"] is False
    except (ValueError, KeyError, TypeError):
        return False
