"""The tubewalk benchmark: wall time, set-up time and memory of CLI runs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one ``tubewalk`` CLI invocation on a builtin config, run
from ``src/`` in a fresh process.  The load is a closed loop from one
client: the next invocation starts when the previous one has exited, and
only if it is expected (at the run's median so far) to end within S
seconds, so a run lasts about S seconds whatever the workload.  The
BLAS/OpenMP pools are pinned to one thread.  ``--seed`` is passed on as
the CLI's ``--seed``.

The end-to-end invocations run with ``TUBEWALK_THREADS=1``.  On a host
whose few cores are shared, the speed of a second core comes and goes:
on a 2-vCPU VM, report-shift took 5.2 to 9.2 s at two threads from one
minute to the next and 7.1 to 9.5 s at one thread over the same minutes,
and grid-gauss spread twice as wide at two threads as at one.  What the
pool gains is measured in the traced run instead, as ``parallel.speedup``
and the ``parallel.thread_map`` figures.

Every invocation's science file is checked (see ``checks.py``) and must
be byte-identical to the run's first one, also across thread counts in a
traced run.  An invocation fails when it exits with a traceback, with
code 2, with code 1 other than a failed fit, or when a check fails.  For
splitting-shift, one exact-DP invocation at the same seed, made before
the timed loop, is the oracle; it is checked and counted as an
operation, but not timed.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: spawn to exit of one invocation, median over the run;
* ``setup_s``: spawn until the config is validated, in the same process,
  median over the run;
* ``peak_rss_mib``: peak resident memory (``ru_maxrss`` from ``wait4``),
  the smallest over the run.  With pool threads the peak depends on which
  tasks hold their large arrays at the same moment and jumps between a
  few values (16 MiB apart on report-shift, one gamma kernel array); the
  smallest does not flip between them.

``wall_s`` and ``setup_s`` are scaled to a fixed host speed.  The speed of
a shared host drifts by 20-30% over minutes, and every time the program
takes drifts with it: on a 2-vCPU VM, the run medians of the unscaled
wall time spread 0.12-0.20 of their median over ten runs of grid-gauss.
So the fixed program ``reference.py`` runs before the first invocation
and after each one, and each invocation's times are multiplied by
``REFERENCE_S`` over the mean time of the two reference runs around it.
Over ten runs that took the spread to 0.03-0.07 on grid-gauss,
splitting-shift and dp-deep and to 0.05-0.10 on report-shift, where
only three invocations fit in a run.  The
reference contains no package code, so the scaled times move only when
the package does.  The unscaled figures are printed above the result.

``--trace 1`` repeats rounds of three invocations -- untraced and traced
(spans recorded around the calls into each layer, see ``tracer.py``), both
with ``TUBEWALK_THREADS`` = the number of usable CPUs, and untraced with
one thread -- and reports the per-layer metrics: medians over
the traced invocations, plus ``parallel.speedup``, ``process.cpu_s`` and
``trace.overhead_frac`` from the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
INVOCATION_TIMEOUT_S = 150.0
MIN_INVOCATIONS = 3  # untraced runs: enough for a median even when S is short
E2E_THREADS = 1  # package threads of the end-to-end invocations
# Median spawn-to-exit time of reference.py on the 2-vCPU VM the benchmark
# was defined on; end-to-end times are scaled to the host speed it implies.
REFERENCE_S = 1.5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    # Load compiled bytecode, as an installed package does: the warm-up
    # invocation writes it, so no timed invocation compiles the sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TUBEWALK_THREADS"] = str(threads)
    for pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[pool] = "1"
    return env


class Invocation:
    """Outcome of one CLI process."""

    def __init__(self, code, wall_s, cpu_s, rss_mib, stderr, data, info, spawned):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mib = rss_mib
        self.stderr = stderr
        self.data = data  # science file bytes, or None if it was not written
        self.info = info or {}
        done = self.info.get("setup_done")
        self.setup_s = done - spawned if done is not None else None


def invoke(workdir: Path, cli_args, science: str | None, threads: int,
           trace: bool = False) -> Invocation:
    """Run one CLI invocation to completion and measure it."""
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    sidecar = workdir / "sidecar.json"
    sidecar.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(sidecar), "1" if trace else "0",
           *cli_args, "--out", str(out)]
    with open(workdir / "stderr", "wb+") as se:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=se, env=child_env(threads),
                                cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        se.seek(0)
        stderr = se.read().decode("utf-8", "replace")
    target = out / science if science else None
    data = target.read_bytes() if target is not None and target.is_file() else None
    info = json.loads(sidecar.read_text()) if sidecar.is_file() else None
    return Invocation(proc.returncode, ended - spawned, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, stderr, data, info, spawned)


def time_reference(threads: int) -> float:
    """Spawn-to-exit seconds of one run of the fixed reference program."""
    began = time.monotonic()
    subprocess.run([sys.executable, str(HERE / "reference.py")], env=child_env(threads), cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
                   timeout=INVOCATION_TIMEOUT_S)
    return time.monotonic() - began


def host_scale(refs) -> list:
    """Factor per invocation that takes its times to the reference host speed.

    ``refs`` are the reference times before the first invocation and after
    each one; invocation i lies between ``refs[i]`` and ``refs[i + 1]``.
    """
    return [REFERENCE_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]


class Judge:
    """Checks invocations of one workload and counts operations."""

    def __init__(self, name: str, seed: int, recorded: dict):
        self.name, self.seed, self.recorded = name, seed, recorded
        self.oracle = None
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, inv: Invocation, name: str | None = None) -> bool:
        name = name or self.name
        self.attempted += 1
        problems = []
        if "Traceback" in inv.stderr or not checks.exit_ok(name, inv.code, inv.data):
            problems.append(f"exit code {inv.code}: {inv.stderr.strip()[-400:]}")
        else:
            problems += checks.check(name, self.seed, inv.data, self.recorded, self.oracle)
            if name == self.name:
                if self.reference is None:
                    self.reference = inv.data
                elif inv.data != self.reference:
                    problems.append("science file differs from the run's first invocation")
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]
        return not problems


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _spread(label: str, values) -> str:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return f"{label} n={len(values)} {values}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"{label} n={len(values)} median={q2:.4f} q1={q1:.4f} q3={q3:.4f} "
            f"min={min(values):.4f} max={max(values):.4f}")


def _fits(start: float, seconds: float, durations) -> bool:
    """Whether one more step of the median duration so far ends within the run."""
    return time.monotonic() - start + statistics.median(durations) <= seconds


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.startswith("ns_per"):
        return "ns"
    if last in ("calls", "work", "grid_steps", "extinctions"):
        return "count"
    if last == "max_abs_z":
        return "stderr"
    return "ratio"


def measure(name: str, seed: int, seconds: float, trace: bool, recorded: dict, workdir: Path):
    workload = checks.WORKLOADS[name]
    args = [*workload.args, "--seed", str(seed)]
    threads = nproc() if trace else E2E_THREADS
    judge = Judge(name, seed, recorded)

    warm = invoke(workdir, ["--version"], None, threads)
    if warm.code != 0:
        raise SystemExit(f"error: the tubewalk CLI does not start: {warm.stderr.strip()[-400:]}")
    if name == "splitting-shift":
        inv = invoke(workdir, [*checks.ORACLE.args, "--seed", str(seed)],
                     checks.ORACLE.science, threads)
        if judge(inv, "oracle"):
            judge.oracle = checks.dp_log_p(inv.data)

    start = time.monotonic()
    if not trace:
        runs, refs = [], [time_reference(threads)]
        while len(runs) < MIN_INVOCATIONS or _fits(
                start, seconds, [r.wall_s + ref for r, ref in zip(runs, refs[1:])]):
            inv = invoke(workdir, args, workload.science, threads)
            judge(inv)
            runs.append(inv)
            refs.append(time_reference(threads))
        scale = host_scale(refs)
        walls = [r.wall_s * k for r, k in zip(runs, scale)]
        setups = [r.setup_s * k if r.setup_s is not None else None for r, k in zip(runs, scale)]
        rss = [r.rss_mib for r in runs]
        print(_spread("reference_s", refs))
        print(_spread("wall_s unscaled", [r.wall_s for r in runs]))
        print(_spread("setup_s unscaled", [r.setup_s for r in runs]))
        for label, values in (("wall_s", walls), ("setup_s", setups), ("peak_rss_mib", rss)):
            print(_spread(label, values))
        metrics = {
            "wall_s": (_median(walls), "s"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mib": (min(rss), "MiB"),
        }
        return judge, metrics

    plain, traced, single, z = [], [], [], []
    rounds = []
    while not traced or _fits(start, seconds, rounds):
        began = time.monotonic()
        for runs, threads_used, tracing in ((plain, threads, False), (traced, threads, True),
                                            (single, 1, False)):
            inv = invoke(workdir, args, workload.science, threads_used, trace=tracing)
            if judge(inv) and name == "splitting-shift":
                z.append(checks.max_abs_z(inv.data, judge.oracle))
            runs.append(inv)
        rounds.append(time.monotonic() - began)
    layers = [tracer.summarise(r.info["spans"], r.info["import_s"])
              for r in traced if r.info.get("spans") is not None]
    values = {k: _median([layer[k] for layer in layers]) for k in tracer.summarise([], 0.0)}
    values["mc.survival_splitting.max_abs_z"] = max(z, default=0.0)
    plain_wall = _median([r.wall_s for r in plain])
    values["parallel.speedup"] = _median([r.wall_s for r in single]) / plain_wall
    values["process.cpu_s"] = _median([r.cpu_s for r in plain])
    values["trace.overhead_frac"] = _median([r.wall_s for r in traced]) / plain_wall - 1.0
    for label, runs in (("wall_s untraced", plain), ("wall_s traced", traced),
                        ("wall_s 1 thread", single)):
        print(_spread(label, [r.wall_s for r in runs]))
    return judge, {k: (v, per_layer_unit(k)) for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(checks.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like Ctrl-C: stop the running invocation, clean up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "tubewalk" / "cli.py").is_file():
        print(f"error: no tubewalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    recorded = json.loads((HERE / "recorded.json").read_text())

    versions = {lib: metadata.version(lib) for lib in ("numpy", "scipy")}
    print(f"workload={args.workload} seed={args.seed} nproc={nproc()} "
          f"TUBEWALK_THREADS={nproc() if args.trace else E2E_THREADS} BLAS/OpenMP threads=1 "
          f"python={platform.python_version()} numpy={versions['numpy']} scipy={versions['scipy']}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        judge, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 recorded, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for problem in judge.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{args.workload}: {judge.failed} of {judge.attempted} operations failed")
    result = {
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
