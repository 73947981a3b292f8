"""Correctness gates on the artifacts of each job, and the artifact digest.

Every gate reads the job's files back from disk and derives what it
expects from the job's own config.  Tolerances are those of the
acceptance suite (tests/test_acceptance.py) and never looser:

- lattice mass is conserved against t=0 to 1e-12 per cell, the per-cell
  bound of criterion 1, and populations stay in [0, 1] to round-off;
- a T=2000 viscosity estimate with theta in [1.2, 1.5] is within 15% of
  the corrected viscosity and closer to it than to cot^2(theta)/2
  (criterion 3);
- every compare-2d relative L2 is below 0.05 (criterion 6b);
- the corrected-viscosity MSE beats the original one at >= 90% of the
  post-shock snapshots (criterion 4);
- the analytic profile at t=0 reproduces the cosine to 1e-6
  (tests/test_analytic.py).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

MASS_TOL_PER_CELL = 1e-12
RANGE_TOL = 1e-12
VISCOSITY_REL_TOL = 0.15
L2_LIMIT = 5e-2
MSE_WIN_FRACTION = 0.9
ANALYTIC_T0_ATOL = 1e-6


class GateError(Exception):
    """An artifact is missing, malformed or fails its gate."""


def read_csv(path):
    """Return (header, rows) of a numeric CSV; rows has shape (n, n_columns)."""
    path = Path(path)
    if not path.is_file():
        raise GateError(f"missing artifact {path.name}")
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        try:
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise GateError(f"{path.name}: unparsable row ({exc})") from None
    if rows.shape[1] != len(header):
        raise GateError(f"{path.name}: {rows.shape[1]} columns under header {header}")
    return header, rows


def _expect_header(path, header, expected):
    if header != list(expected):
        raise GateError(f"{Path(path).name}: header {header}, expected {list(expected)}")


def read_snapshots(out, cfg, columns):
    """Column arrays of each snapshot of a run, keyed by step."""
    snaps = {}
    for step in range(0, cfg["steps"] + 1, cfg["snapshot_stride"]):
        path = Path(out) / f"{cfg['run_id']}_t{step}.csv"
        header, rows = read_csv(path)
        _expect_header(path, header, columns)
        snaps[step] = {name: rows[:, k] for k, name in enumerate(header)}
    return snaps


def _check_lattice(snaps, n_sites):
    steps = sorted(snaps)
    mass0 = math.fsum(snaps[steps[0]]["rho"])
    for step in steps:
        cols = snaps[step]
        if cols["rho"].size != n_sites:
            raise GateError(f"t{step}: {cols['rho'].size} rows, expected {n_sites}")
        drift = abs(math.fsum(cols["rho"]) - mass0)
        if not drift <= MASS_TOL_PER_CELL * n_sites:
            raise GateError(f"t{step}: mass drift {drift:.3g} over {n_sites} cells")
        for name in ("f0", "f1"):
            f = cols[name]
            if not (np.all(f >= -RANGE_TOL) and np.all(f <= 1.0 + RANGE_TOL)):
                raise GateError(f"t{step}: population {name} leaves [0, 1]")


def _gate_simulate1d(job, ctx):
    cfg = job.config
    snaps = read_snapshots(job.out, cfg, ("t", "x", "rho", "u", "f0", "f1"))
    _check_lattice(snaps, cfg["grid"]["n_x"])
    ctx["sim1d"] = snaps


def _gate_simulate2d(job, ctx):
    cfg = job.config
    snaps = read_snapshots(job.out, cfg, ("t", "x", "y", "rho", "u", "f0", "f1"))
    _check_lattice(snaps, cfg["grid"]["n_x"] * cfg["grid"]["n_y"])


def predicted_viscosities(theta, zeta=0.0, xi=0.0):
    """Corrected and original viscosity in lattice units (dx = dt = 1)."""
    s2 = math.sin(theta) ** 2
    cot = math.cos(theta) / math.sin(theta)
    alpha = cot * math.cos(zeta - xi)
    nu = -0.5 * (1.0 - 1.0 / (s2 * math.sqrt(alpha * alpha + 1.0)))
    return nu, cot * cot / 2.0


def _gate_viscosity_sweep(job, ctx):
    cfg = job.config
    sw = cfg["sweep"]
    path = job.out / f"{cfg['run_id']}_sweep.csv"
    header, rows = read_csv(path)
    _expect_header(path, header, ("theta", "nu_pred", "nu_yepez", "nu_exp", "kept_fraction", "T"))
    if len(rows) != sw["count"]:
        raise GateError(f"{path.name}: {len(rows)} rows, expected {sw['count']}")
    zeta, xi = cfg["collision"]["zeta"], cfg["collision"]["xi"]
    for theta, nu_pred, nu_yepez, nu_exp, kept, t_steps in rows:
        nu, nu_orig = predicted_viscosities(theta, zeta, xi)
        if not (
            math.isclose(nu_pred, nu, rel_tol=1e-12, abs_tol=1e-15)
            and math.isclose(nu_yepez, nu_orig, rel_tol=1e-12, abs_tol=1e-15)
        ):
            raise GateError(f"theta={theta:.6g}: predicted viscosities do not match the formulas")
        if not math.isfinite(nu_exp) or not 0.0 < kept <= 1.0 or t_steps != sw["T"]:
            raise GateError(f"theta={theta:.6g}: no valid estimate (nu_exp={nu_exp}, kept={kept})")
        if t_steps == 2000 and 1.2 <= theta <= 1.5:
            rel = abs(nu_exp - nu) / nu
            if not (rel <= VISCOSITY_REL_TOL and abs(nu_exp - nu) < abs(nu_exp - nu_orig)):
                raise GateError(
                    f"theta={theta:.6g}: estimate {nu_exp:.6g} is {rel:.1%} from the corrected "
                    f"{nu:.6g} (original {nu_orig:.6g})"
                )


def _gate_steepness_sweep(job, ctx):
    sp = job.config["steepness"]
    path = job.out / f"{job.config['run_id']}_steepness.csv"
    header, rows = read_csv(path)
    _expect_header(path, header, ("theta", "n_x", "T", "delta"))
    expected = sp["count"] * len(sp["T_values"]) * len(sp["n_x_values"])
    if len(rows) != expected:
        raise GateError(f"{path.name}: {len(rows)} rows, expected {expected}")
    delta = rows[:, 3]
    if not np.all(np.isfinite(delta) & (delta > 0.0)):
        raise GateError(f"{path.name}: steepness not finite and positive")


def _gate_compare_2d(job, ctx):
    cfg = job.config
    path = job.out / f"{cfg['run_id']}_l2.csv"
    header, rows = read_csv(path)
    _expect_header(path, header, ("t", "metric"))
    if len(rows) < 2:
        raise GateError(f"{path.name}: fewer than two snapshots compared")
    values = rows[:, 1]
    worst = float(np.max(values[np.isfinite(values)]))
    if not worst < L2_LIMIT:
        raise GateError(f"{path.name}: relative L2 {worst:.4g} >= {L2_LIMIT}")


def _max_jump(rho):
    return float(np.max(np.abs(np.roll(rho, -1) - rho)))


def _gate_compare_analytic(job, ctx):
    cfg = job.config
    sim = ctx.get("sim1d")
    if sim is None:
        raise GateError("the simulate1d input of this round was not checked")
    steps = sorted(sim)
    shock = steps[int(np.argmax([_max_jump(sim[s]["rho"]) for s in steps]))]
    series = {}
    for variant in ("corrected", "yepez"):
        path = job.out / f"{cfg['run_id']}_mse_{variant}.csv"
        header, rows = read_csv(path)
        _expect_header(path, header, ("t", "metric"))
        if len(rows) != len(steps):
            raise GateError(f"{path.name}: {len(rows)} rows for {len(steps)} snapshots")
        series[variant] = rows[:, 1]
    after = np.asarray(steps) >= shock
    wins = float(np.mean(series["corrected"][after] < series["yepez"][after]))
    if not wins >= MSE_WIN_FRACTION:
        raise GateError(f"corrected MSE wins {wins:.0%} of post-shock snapshots")


def _gate_analytic(job, ctx):
    cfg = job.config
    snaps = read_snapshots(job.out, cfg, ("t", "x", "rho"))
    for step, cols in snaps.items():
        if cols["rho"].size != cfg["grid"]["n_x"] or not np.all(np.isfinite(cols["rho"])):
            raise GateError(f"t{step}: wrong size or non-finite density")
    ini = cfg["initial"]
    x = snaps[0]["x"]
    expected = ini["rho_b"] + ini["rho_a"] * np.cos(2.0 * math.pi * x / cfg["grid"]["length_x"])
    err = float(np.max(np.abs(snaps[0]["rho"] - expected)))
    if not err <= ANALYTIC_T0_ATOL:
        raise GateError(f"t0 profile differs from the initial cosine by {err:.3g}")


GATES = {
    "simulate1d": _gate_simulate1d,
    "simulate2d": _gate_simulate2d,
    "viscosity-sweep": _gate_viscosity_sweep,
    "steepness-sweep": _gate_steepness_sweep,
    "compare-2d": _gate_compare_2d,
    "compare-analytic": _gate_compare_analytic,
    "analytic": _gate_analytic,
}


def check_job(job, ctx):
    """Return the reason ``job``'s artifacts fail their gate, or None.

    ``ctx`` carries data between the jobs of one round, checked in order
    (compare-analytic needs the snapshots of the simulate1d job).
    """
    try:
        manifest = json.loads((job.out / "manifest.json").read_text())
        if manifest.get("results", {}).get("failures"):
            raise GateError(f"manifest lists failures {manifest['results']['failures']}")
        GATES[job.command](job, ctx)
    except (GateError, OSError, json.JSONDecodeError) as exc:
        return str(exc)
    return None


def artifact_digest(out):
    """SHA-256 over every CSV below ``out``, sorted by relative path.

    Manifests are left out because they hold wall-clock timings.
    """
    out = Path(out)
    h = hashlib.sha256()
    for path in sorted(out.rglob("*.csv"), key=lambda p: p.relative_to(out).as_posix()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def artifact_bytes(out):
    """Bytes of CSV and manifest output below ``out``."""
    out = Path(out)
    return sum(p.stat().st_size for p in out.rglob("*") if p.suffix in (".csv", ".json"))
