"""Batch front-end: parse an experiment config, run estimators, emit tables.

Subcommands
-----------
simulate   survival estimates per n (optionally swept over start points) -> CSV
gamma      confinement-rate table over the configured beta grid -> CSV
fit        decay-constant fit vs predicted rate -> JSON + CSV (+ SVG)
verify     assumption checks and invariant self-tests -> report, exit status
report     consolidated JSON combining simulate, gamma and fit outputs

``simulate``, ``fit`` and ``report`` take their per-n survival estimates
from one runner, `rate.run_points`; ``report`` runs it once and builds
both its simulate rows and its fit from the same points (with a start
sweep, the fit takes each n's middle start, which is the fit's own).  Every output
embeds the master seed and a config hash; with a fixed config and seed,
reruns are byte-identical.  Every run is sequential; the environment
variable ``TUBEWALK_THREADS`` is not read.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .config import SCHEMA_VERSION, ConfigError, ExperimentConfig, check_fit_gamma, load_raw, validate
from .env import EnvironmentSpec, moments, sample_environment, verify_assumptions
from .gamma import GammaEstimate, estimate_gamma
from .parallel import thread_map
from .quench_dp import survival_brute_force, survival_dp_lattice
from .rate import RunPoint, make_estimator, run_points, task_environment, theorem_check
from .rng import derive_seed
from .tube import c_gh
from .walk import path_to_csv, sample_path


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _out_dir(cfg: ExperimentConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.output["dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- simulate

_SIM_HEADER = [
    "family",
    "method",
    "n",
    "alpha",
    "f_offset",
    "x0",
    "p",
    "log_p",
    "stderr_log",
    "refine_delta_log",
    "work",
    "est_seed",
    "flags",
    "master_seed",
    "config_hash",
]


def _points(cfg: ExperimentConfig, sweep_starts: bool) -> list[RunPoint]:
    """The survival points of the config's n ladder, from the one per-n runner."""
    return run_points(cfg.env_spec, cfg.template, cfg.n_list, make_estimator(**cfg.estimator_params),
                      seed=cfg.seed, env_seed=cfg.env_seed, shared_env=cfg.shared_env, x0=cfg.x0,
                      sweep_starts=sweep_starts)


def _fit_points(cfg: ExperimentConfig, points: list[RunPoint]) -> list[RunPoint]:
    """The fit's points among the plan's: with a start sweep, each n's middle
    start, which `survival_start_sweep` makes the fit's start to the bit."""
    if not cfg.sweep_starts:
        return points
    per_n = len(points) // len(cfg.n_list)
    return points[per_n // 2 :: per_n]


def _simulate_rows(cfg: ExperimentConfig) -> tuple[list[list], list[RunPoint]]:
    """The simulate table rows and the points behind them, one row a point."""
    points = _points(cfg, cfg.sweep_starts)
    chash = cfg.config_hash
    rows = [
        [
            cfg.env_spec.family,
            p.estimate.method,
            p.n,
            cfg.template.alpha,
            p.f_offset,
            p.x0,
            p.estimate.p,
            p.estimate.log_p,
            p.estimate.stderr_log,
            p.estimate.refine_delta_log,
            p.estimate.work,
            p.estimate.seed,
            ";".join(p.estimate.flags),
            cfg.seed,
            chash,
        ]
        for p in points
    ]
    return rows, points


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    rows, points = _simulate_rows(cfg)
    _write_csv(out / "simulate.csv", _SIM_HEADER, rows)
    if cfg.output.get("dump_path"):
        first = points[0]
        env = task_environment(cfg.env_spec, cfg.template, cfg.n_list, 0, cfg.env_seed, cfg.shared_env)
        path = sample_path(env, first.f_offset, first.n, first.x0, derive_seed(cfg.seed, 19))
        with open(out / "path.csv", "w", encoding="utf-8") as fh:
            path_to_csv(path, fh)
    print(f"wrote {out / 'simulate.csv'} ({len(rows)} rows)")
    return 0


# ------------------------------------------------------------------- gamma

_GAMMA_HEADER = [
    "beta",
    "gamma_hat",
    "ci_lo",
    "ci_hi",
    "t",
    "dt",
    "grid",
    "replicas",
    "master_seed",
    "config_hash",
]


def _table_estimate(cfg: ExperimentConfig, idx: int) -> GammaEstimate:
    """The estimate of gamma at gamma.beta[idx], seeded as the table's row."""
    return estimate_gamma(cfg.gamma["beta"][idx], seed=derive_seed(cfg.seed, 7, idx), **cfg.gamma_params)


def _gamma_rows(cfg: ExperimentConfig) -> tuple[list[list], list[GammaEstimate]]:
    """The gamma table rows and the estimates behind them, one per beta."""
    chash = cfg.config_hash
    estimates = thread_map(lambda idx: _table_estimate(cfg, idx), range(len(cfg.gamma["beta"])))
    rows = [
        [
            est.beta,
            est.gamma_hat,
            est.ci95[0],
            est.ci95[1],
            est.horizon_t,
            est.dt,
            est.grid_points,
            est.env_replicas,
            cfg.seed,
            chash,
        ]
        for est in estimates
    ]
    return rows, estimates


def cmd_gamma(cfg: ExperimentConfig, out: Path) -> int:
    rows, _ = _gamma_rows(cfg)
    _write_csv(out / "gamma.csv", _GAMMA_HEADER, rows)
    print(f"wrote {out / 'gamma.csv'} ({len(rows)} rows)")
    return 0


# --------------------------------------------------------------------- fit

def _fit_svg(xs, ys, slope, intercept, alpha) -> str:
    """Static line chart of (n^(1-2 alpha), log_p) with the fitted line."""
    w, h, m = 640, 440, 60
    x0, x1 = min(xs), max(xs)
    yy = list(ys) + [slope * x + intercept for x in (x0, x1)]
    y0, y1 = min(yy), max(yy)
    sx = lambda x: m + (x - x0) / (x1 - x0 or 1.0) * (w - 2 * m)
    sy = lambda y: h - m - (y - y0) / (y1 - y0 or 1.0) * (h - 2 * m)
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{m}" y1="{h-m}" x2="{w-m}" y2="{h-m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h-m}" stroke="black"/>',
        f'<line x1="{sx(x0):.2f}" y1="{sy(slope*x0+intercept):.2f}" '
        f'x2="{sx(x1):.2f}" y2="{sy(slope*x1+intercept):.2f}" stroke="red"/>',
        f'<polyline points="{pts}" fill="none" stroke="blue"/>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="blue"/>')
    parts.append(
        f'<text x="{w//2}" y="{h-15}" text-anchor="middle" font-size="13">n^(1-2a), a={alpha:g}</text>'
    )
    parts.append(
        f'<text x="18" y="{h//2}" font-size="13" transform="rotate(-90 18 {h//2})" '
        f'text-anchor="middle">log p</text>'
    )
    parts.append(f'<text x="{w//2}" y="25" text-anchor="middle" font-size="13">slope {slope:.5g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _fit_gamma(cfg: ExperimentConfig, estimates: list[GammaEstimate] | None = None):
    """Gamma source for the fit at beta = sigma_a/sigma_q.

    When beta > 0 is one of gamma.beta (to 1e-12), the fit predicts with
    that table row's estimate, so `gamma`, `fit` and `report` agree; the
    row is taken from ``estimates`` when the table is already computed.
    Otherwise "auto": the exact gamma(0) at beta = 0, which no estimate
    beats, or an estimate with the fit's own seed.
    """
    sa2, sq2 = moments(cfg.env_spec)
    beta = math.sqrt(sa2 / sq2)
    if beta > 0.0:
        for idx, b in enumerate(cfg.gamma["beta"]):
            if abs(float(b) - beta) <= 1e-12:
                return estimates[idx] if estimates is not None else _table_estimate(cfg, idx)
    return "auto"


def _fit_report(cfg: ExperimentConfig, points=None, gamma_source=None) -> dict:
    """The theorem check on the plan's ``points`` (run here when None);
    ``gamma_source`` defaults to `_fit_gamma(cfg)`."""
    if len(cfg.n_list) < 3:
        raise ConfigError("fit needs tube.n_list with at least 3 values")
    if points is None:
        points = _points(cfg, sweep_starts=False)
    if gamma_source is None:
        gamma_source = _fit_gamma(cfg)
    report = theorem_check(
        cfg.env_spec,
        cfg.template,
        cfg.n_list,
        points=points,
        gamma_source=gamma_source,
        gamma_params=cfg.gamma_params,
        seed=cfg.seed,
        tolerance=float(cfg.estimator["tolerance"]),
    )
    return _jsonable(report)


def cmd_fit(cfg: ExperimentConfig, out: Path) -> int:
    report = _fit_report(cfg)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "master_seed": cfg.seed,
        "config_hash": cfg.config_hash,
        "config": cfg.raw,
        "check": report,
    }
    _write_json(out / "fit.json", payload)
    alpha = cfg.template.alpha
    rows = [
        [p["n"], float(p["n"]) ** (1 - 2 * alpha), p["estimate"]["log_p"], cfg.seed, cfg.config_hash]
        for p in report["points"]
    ]
    _write_csv(out / "fit_points.csv", ["n", "n_pow", "log_p", "master_seed", "config_hash"], rows)
    if cfg.output.get("svg"):
        xs = [r[1] for r in rows]
        ys = [r[2] for r in rows]
        (out / "fit.svg").write_text(
            _fit_svg(xs, ys, report["fit"]["slope"], report["fit"]["intercept"], alpha),
            encoding="utf-8",
        )
    status = "PASS" if report["passed"] else "FAIL"
    print(
        f"{status} slope={report['fit']['slope']:.5g} predicted={report['predicted']:.5g} "
        f"discrepancy={report['discrepancy']:.3f} (tolerance {report['tolerance']:g})"
    )
    return 0 if report["passed"] else 1


# ------------------------------------------------------------------ verify

def _small_copy(cfg: ExperimentConfig) -> ExperimentConfig:
    """Reduced-effort copy of a config for quick self-tests."""
    raw = json.loads(json.dumps(cfg.raw))
    raw.setdefault("tube", {}).pop("n_list", None)
    raw["tube"]["n"] = min(64, min(cfg.n_list))
    est = raw.setdefault("estimator", {})
    est["replicas"] = 2000
    est["particles"] = 1000
    est["checkpoints"] = 4
    est["grid_points"] = max(50, min(200, int(cfg.estimator["grid_points"])))
    return validate(raw)


def _verify_checks(cfg: ExperimentConfig) -> list[tuple[str, bool, str]]:
    checks = []
    spec = cfg.env_spec

    rep = verify_assumptions(spec)
    checks.append(
        (
            "assumptions",
            rep.all_ok,
            f"mean-zero={rep.mean_drift_zero} varQ>0={rep.quenched_var_positive} "
            f"lambda1={rep.lambda1:g} lambda2={rep.lambda2:g} lambda3={rep.lambda3:g}",
        )
    )

    sa2, sq2 = moments(spec)
    env = sample_environment(spec, 200_000, derive_seed(cfg.seed, 17))
    mean_m = float(env.quenched_mean.mean())
    mean_v = float(env.quenched_var.mean())
    se_m = float(env.quenched_mean.std(ddof=1)) / math.sqrt(env.length)
    se_v = float(env.quenched_var.std(ddof=1)) / math.sqrt(env.length)
    ok_m = bool(abs(mean_m) <= 5 * se_m + 1e-12)
    ok_v = bool(abs(mean_v - sq2) <= 5 * se_v + 1e-12)
    checks.append(
        (
            "moments-mc",
            ok_m and ok_v,
            f"mean(m)={mean_m:.3e} (5se={5*se_m:.3e}), mean(v)-sigmaQ^2={mean_v - sq2:.3e}",
        )
    )

    tube = cfg.template.make(cfg.n_list[0])
    delta = abs(c_gh(tube, 1024) - c_gh(tube, 2048))
    checks.append(("quadrature", bool(delta < 1e-8), f"Richardson delta={delta:.2e}"))

    small_spec = spec if spec.is_lattice else EnvironmentSpec.rademacher()
    small_tube = cfg.template.make(8)
    small_env = sample_environment(small_spec, small_tube.f_offset + 8, derive_seed(cfg.seed, 23))
    dp = survival_dp_lattice(small_env, small_tube, small_tube.default_x0())
    bf = survival_brute_force(small_env, small_tube, small_tube.default_x0())
    checks.append(
        ("dp-vs-enumeration", bool(abs(dp.p - bf.p) <= 1e-10), f"|dp - brute|={abs(dp.p - bf.p):.2e}")
    )

    path = sample_path(small_env, small_tube.f_offset, 8, small_tube.default_x0(), derive_seed(cfg.seed, 29))
    try:
        path.validate()
        checks.append(("path-decomposition", True, "s = s0 + m + u exact"))
    except AssertionError as exc:
        checks.append(("path-decomposition", False, str(exc)))

    small = _small_copy(cfg)
    rows_a, _ = _simulate_rows(small)
    rows_b, _ = _simulate_rows(small)
    checks.append(("determinism", rows_a == rows_b, "simulate rows identical across reruns"))
    return checks


def cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    checks = _verify_checks(cfg)
    rep = verify_assumptions(cfg.env_spec)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "master_seed": cfg.seed,
        "config_hash": cfg.config_hash,
        "assumption_report": _jsonable(rep),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }
    _write_json(out / "verify.json", payload)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


# ------------------------------------------------------------------ report

def cmd_report(cfg: ExperimentConfig, out: Path) -> int:
    sim_rows, points = _simulate_rows(cfg)
    gamma_rows, estimates = _gamma_rows(cfg)
    fit = None
    if len(cfg.n_list) >= 3:
        fit = _fit_report(cfg, _fit_points(cfg, points), _fit_gamma(cfg, estimates))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "master_seed": cfg.seed,
        "config_hash": cfg.config_hash,
        "config": cfg.raw,
        "simulate": {"header": _SIM_HEADER, "rows": _jsonable(sim_rows)},
        "gamma": {"header": _GAMMA_HEADER, "rows": _jsonable(gamma_rows)},
        "fit": fit,
    }
    _write_json(out / "report.json", payload)
    print(f"wrote {out / 'report.json'}")
    if fit is not None and not fit["passed"]:
        return 1
    return 0


# -------------------------------------------------------------------- main

_COMMANDS = {
    "simulate": cmd_simulate,
    "gamma": cmd_gamma,
    "fit": cmd_fit,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tubewalk",
        description="Tube-survival probabilities and decay rates for random walks "
        "in an i.i.d. time environment.",
    )
    parser.add_argument("--version", action="version", version=f"tubewalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument(
            "--config",
            required=True,
            help="YAML (or JSON) experiment config; builtin:NAME loads a packaged example",
        )
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry, e.g. tube.alpha=0.25 (repeatable)",
        )
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        cfg = validate(load_raw(args.config, args.overrides, args.seed))
        if args.command in ("fit", "report"):
            check_fit_gamma(cfg)
        out = _out_dir(cfg, args.out)
    except (ValueError, OSError, yaml.YAMLError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](cfg, out)
    except (ValueError, RuntimeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
