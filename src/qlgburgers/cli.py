"""Command-line front end.

One command per simulator or experiment; each reads a YAML config,
validates it strictly (unknown keys are rejected), writes its CSV
artifacts plus a ``manifest.json`` with the fully resolved config,
package version and stage timings into the output directory.

Exit codes: 0 success, 1 configuration/validation error (the message
names the offending key; an analytic series too short for its Bessel
argument counts as one, naming ``analytic.l_trunc``; so do a config file
that cannot be read as UTF-8 YAML, an ``--out`` that cannot be made a
directory and a CSV or manifest that cannot be written, which name the
path; CSVs written before a failed write stay), 2 runtime
divergence of the reference solver (the divergence step is recorded in
the manifest).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import yaml

__all__ = ["main"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config schema.  Leaves are (type, default[, rule]); REQUIRED marks a
# mandatory key.  A rule is the tuple of allowed values, or the smallest
# integer (of each entry, for a list).  _resolve applies every rule.

REQUIRED = object()


def _only(model):
    return (str, model, (model,))  # each command accepts its own model name alone


_GRID_1D = {"n_x": (int, REQUIRED), "length_x": (float, REQUIRED)}
_GRID_2D = {"n_x": (int, REQUIRED), "n_y": (int, REQUIRED), "ds": (float, 1.0)}
_COLLISION = {"theta": (float, REQUIRED), "zeta": (float, 0.0), "xi": (float, 0.0)}
_INITIAL = {
    "rho_b": (float, REQUIRED),
    "rho_a": (float, REQUIRED),
    "mode": (str, "equilibrium", ("equilibrium", "symmetric")),
}
_VSET = {
    "name": (str, ""),
    "shifts": (list, None),
    "basis": (list, None),
}
_FDM = {"substeps": (object, "auto", 1)}
# Sections shared by the commands that set up a cosine run on a grid.
_SETUP_1D = {"grid": _GRID_1D, "collision": _COLLISION, "initial": _INITIAL}
_SETUP_2D = {"grid": _GRID_2D, "collision": _COLLISION, "initial": _INITIAL, "velocity_set": _VSET}
_SNAPSHOTS = {"steps": (int, REQUIRED, 0), "snapshot_stride": (int, 1, 1)}
_LATTICE = {
    "collision_path": (str, "closed_form", ("closed_form", "quantum")),
    "streaming": (str, "standard", ("standard", "reversed")),
}

SCHEMAS = {
    "simulate1d": {
        "model": _only("d1q2"),
        "run_id": (str, REQUIRED),
        **_SETUP_1D,
        "grid": {**_GRID_1D, "n_x": (int, REQUIRED, 3)},  # two sites stream both populations alike
        **_SNAPSHOTS,
        **_LATTICE,
    },
    "simulate2d": {
        "model": _only("d2q2"),
        "run_id": (str, REQUIRED),
        **_SETUP_2D,
        **_SNAPSHOTS,
        **_LATTICE,
    },
    "fdm1d": {
        "model": _only("fdm1d"),
        "run_id": (str, REQUIRED),
        **_SETUP_1D,
        **_SNAPSHOTS,
        "fdm": {**_FDM, "c_s": (float, None), "nu": (float, None)},
    },
    "fdm2d": {
        "model": _only("fdm2d"),
        "run_id": (str, REQUIRED),
        **_SETUP_2D,
        **_SNAPSHOTS,
        "fdm": _FDM,
    },
    "analytic": {
        "model": _only("analytic"),
        "run_id": (str, REQUIRED),
        **_SETUP_1D,
        **_SNAPSHOTS,
        "analytic": {
            "l_trunc": (int, 80, 1),
            "nu_variant": (str, "corrected", ("corrected", "yepez")),
        },
    },
    "viscosity-sweep": {
        "model": _only("viscosity-sweep"),
        "run_id": (str, REQUIRED),
        "collision": {"zeta": (float, 0.0), "xi": (float, 0.0)},
        "sweep": {
            "theta_start": (float, 0.05),
            "theta_stop": (float, REQUIRED),
            "count": (int, 30, 1),
            "T": (int, 200, 1),
            "n_x": (int, 64, 3),
            "rho_a": (float, 0.005),
            "rho_b": (float, 1.0),
            "variant": (str, "pde_consistent", ("pde_consistent", "literal")),
        },
    },
    "steepness-sweep": {
        "model": _only("steepness-sweep"),
        "run_id": (str, REQUIRED),
        "collision": {"zeta": (float, 0.0), "xi": (float, 0.0)},
        "steepness": {
            "theta_start": (float, 0.2),
            "theta_stop": (float, REQUIRED),
            "count": (int, 12, 1),
            "T_values": (list, [200], 0),
            "n_x_values": (list, [64], 3),
            "length_x": (float, 2.0),
            "rho_a": (float, 0.4),
            "rho_b": (float, 1.0),
        },
    },
    "compare-analytic": {
        "model": _only("compare-analytic"),
        "run_id": (str, REQUIRED),
        **_SETUP_1D,
        "analytic": {"l_trunc": (int, 80, 1)},
        "compare": {"input": (str, REQUIRED), "input_run_id": (str, REQUIRED)},
    },
    "compare-2d": {
        "model": _only("compare-2d"),
        "run_id": (str, REQUIRED),
        **_SETUP_2D,
        **_SNAPSHOTS,
        **_LATTICE,
        "fdm": _FDM,
    },
}


def _resolve(cfg, schema, path=""):
    if not isinstance(cfg, dict):
        raise ConfigError(f"config section '{path or '<root>'}' must be a mapping")
    out = {}
    for key in cfg:
        if key not in schema:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key '{where}'")
    for key, spec in schema.items():
        where = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            sub = cfg.get(key, {})
            out[key] = _resolve(sub if sub is not None else {}, spec, where)
            continue
        typ, default, *rule = spec
        if key in cfg and cfg[key] is not None:
            val = cfg[key]
            if typ is float and isinstance(val, (int, float)) and not isinstance(val, bool):
                val = float(val)
                if not math.isfinite(val):
                    raise ConfigError(f"config key '{where}' must be a finite number, got {val!r}")
            elif typ is int:
                if isinstance(val, bool) or not isinstance(val, int):
                    raise ConfigError(f"config key '{where}' must be an integer, got {val!r}")
            elif typ is not object and not isinstance(val, typ):
                raise ConfigError(
                    f"config key '{where}' must be {typ.__name__}, got {type(val).__name__}"
                )
            out[key] = val
        elif default is REQUIRED:
            raise ConfigError(f"missing required config key '{where}'")
        else:
            out[key] = default
        if not rule:
            continue
        if isinstance(rule[0], tuple):
            if out[key] not in rule[0]:
                raise ConfigError(f"config key '{where}' must be one of {rule[0]}, got {out[key]!r}")
        else:
            _check_minimum(where, out[key], rule[0])
    return out


def _check_minimum(where, value, minimum):
    if where == "fdm.substeps" and value == "auto":
        return
    entries = value if isinstance(value, list) else [value]
    if not entries or any(
        isinstance(v, bool) or not isinstance(v, int) or v < minimum for v in entries
    ):
        kind = "a non-empty list of integers" if isinstance(value, list) else "an integer"
        also = " or 'auto'" if where == "fdm.substeps" else ""
        raise ConfigError(f"config key '{where}' must be {kind} >= {minimum}{also}, got {value!r}")


@functools.cache
def _yaml_loader():
    """``yaml.SafeLoader`` that also reads a number with an exponent and no point,
    ``5e-3`` say, as a float; YAML 1.1, which PyYAML follows, reads a string."""
    loader = type("Loader", (yaml.SafeLoader,), {})
    exponent = re.compile(r"^[-+]?([0-9][0-9_]*(\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$")
    loader.add_implicit_resolver("tag:yaml.org,2002:float", exponent, list("-+.0123456789"))
    return loader


def _apply_overrides(cfg, overrides):
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        key, _, raw = item.partition("=")
        try:
            value = yaml.load(raw, Loader=_yaml_loader())
        except yaml.YAMLError as exc:
            raise ConfigError(f"config key '{key}' override {raw!r} is not valid YAML") from exc
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            if isinstance(node, dict):
                node = node.setdefault(part, {})
        if not isinstance(node, dict):  # the root too: a YAML list or scalar
            raise ConfigError(f"override '{key}' descends into a non-mapping")
        node[parts[-1]] = value
    return cfg


# ---------------------------------------------------------------------------
# Builders from resolved config sections.


def _built(key, build, *args, **kwargs):
    """``build(*args, **kwargs)``; its ValueError is raised again as a config error naming ``key``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}' invalid: {exc}") from exc


def _build_vset(section):
    from .lattice import VelocitySet2D, velocity_set_by_name

    if section["name"]:
        if section["shifts"] is not None or section["basis"] is not None:
            raise ConfigError("config key 'velocity_set' must give either name or shifts, not both")
        return _built("velocity_set.name", velocity_set_by_name, name=section["name"])
    if section["shifts"] is None:
        raise ConfigError("config key 'velocity_set' needs a name or explicit shifts")
    given = {key: section[key] for key in ("shifts", "basis") if section[key] is not None}
    return _built("velocity_set", VelocitySet2D, **given, name="custom")


def _build_setup(resolved):
    """Grid, collision parameters and velocity set of a cosine run; 1D has no velocity set."""
    from .collision import CollisionParams
    from .lattice import Grid1D, Grid2D

    g = resolved["grid"]  # its keys are the fields of the grid class
    grid = _built("grid", Grid2D if "n_y" in g else Grid1D, **g)
    params = _built("collision", CollisionParams, **resolved["collision"])
    vset = _build_vset(resolved["velocity_set"]) if "velocity_set" in resolved else None
    # on a grid where c1 - c0 is a multiple of the size nothing is transported
    if vset is not None and not np.any(np.subtract(*vset.shifts[::-1]) % grid.shape):
        raise ConfigError(
            f"config key 'velocity_set' invalid: shifts {vset.shifts!r} differ by a multiple "
            f"of the grid {grid.shape}, so both populations stream alike"
        )
    return grid, params, vset


def _analytic_config(resolved, grid, params, nu_variant):
    from .experiments import analytic_config_for

    ini, l_trunc = resolved["initial"], resolved["analytic"]["l_trunc"]
    args = (grid, params, ini["rho_b"], ini["rho_a"], nu_variant, l_trunc)
    # the other keys are checked by now: only theta can leave the viscosity <= 0
    return _built("collision.theta", analytic_config_for, *args)


def _run_args(resolved, grid):
    """Keyword arguments of a lattice-gas run from the initial, step and streaming keys.

    The cosine start must keep every site's density in [0, 2]; a config error names ``initial``.
    """
    from .lattice import _check_cosine_range

    ini = resolved["initial"]
    _built("initial", _check_cosine_range, len(grid.shape), ini["rho_b"], ini["rho_a"])
    return {
        "rho_b": ini["rho_b"],
        "rho_a": ini["rho_a"],
        "steps": resolved["steps"],
        "stride": resolved["snapshot_stride"],
        "collision": resolved["collision_path"],
        "reversed_streaming": resolved["streaming"] == "reversed",
        "init": ini["mode"],
    }


def _vset_manifest(vset):
    c0, c1 = vset.cartesian()
    return {
        "name": vset.name,
        "shifts": [list(map(int, s)) for s in vset.shifts],
        "basis": [list(map(float, b)) for b in vset.basis],
        "cartesian": [list(map(float, c0)), list(map(float, c1))],
    }


def _coeffs_manifest(coeffs):
    return {name: np.asarray(value).tolist() for name, value in vars(coeffs).items()}


@contextlib.contextmanager
def _timed(timings, name):
    """Record the wall time of the block as ``timings[name]``, also when it raises."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Commands.  A 2D config is one with a velocity set; the 1D and 2D
# commands of a family share their handler.


def _cmd_simulate(resolved, outdir, timings):
    from .collision import predicted_coefficients_1d
    from .experiments import _qlg_snapshots
    from .io import snapshot_filename, write_snapshot_1d, write_snapshot_2d
    from .lattice import predicted_coefficients_2d

    grid, params, vset = _build_setup(resolved)
    write = write_snapshot_1d if vset is None else write_snapshot_2d
    with _timed(timings, "simulate"):
        # write each snapshot when it is produced, then drop it, so the steps up
        # to the next snapshot hold no field beyond their own
        for t, fld in _qlg_snapshots(grid, params, vset, **_run_args(resolved, grid)):
            write(outdir / snapshot_filename(resolved["run_id"], t), fld)
            del fld
    if vset is None:
        coeffs = predicted_coefficients_1d(params, grid.dx, grid.dt)
        return {"predicted_coefficients": _coeffs_manifest(coeffs)}
    coeffs = predicted_coefficients_2d(vset, params, grid.ds, grid.dt)
    return {"velocity_set": _vset_manifest(vset), "predicted_coefficients": _coeffs_manifest(coeffs)}


def _fdm_setup(resolved, grid, params, vset):
    """Coefficient set and substep count of a reference run, and their manifest entries.

    2D solves on the index grid: streaming shifts act there, so the
    comparison with the lattice gas is site-by-site.  1D takes (c_s, nu),
    predicted or overridden, as the axis-aligned 2D set that its update
    runs; ``auto`` bounds the step by that set.
    """
    from .collision import predicted_coefficients_1d
    from .fdm import _axis_aligned, substeps_auto
    from .lattice import predicted_coefficients_2d

    if vset is not None:
        ds = grid.ds
        coeffs = predicted_coefficients_2d(vset.index_space(), params, ds, grid.dt)
        out = {
            "velocity_set": _vset_manifest(vset),
            "index_space_coefficients": _coeffs_manifest(coeffs),
        }
    else:
        predicted = predicted_coefficients_1d(params, grid.dx, grid.dt)
        fdm = resolved["fdm"]
        c_s = predicted.c_s if fdm["c_s"] is None else fdm["c_s"]
        nu = predicted.nu if fdm["nu"] is None else fdm["nu"]
        coeffs, out, ds = _axis_aligned(c_s, nu), {"c_s": c_s, "nu": nu}, grid.dx
    substeps = resolved["fdm"]["substeps"]
    if substeps == "auto":
        substeps = _built("fdm.substeps", substeps_auto, coeffs=coeffs, ds=ds, dt=grid.dt)
    return coeffs, substeps, out


def _cmd_fdm(resolved, outdir, timings):
    from .experiments import _fdm_snapshots
    from .fdm import FdmDivergenceError
    from .io import _write_sites, snapshot_filename

    grid, params, vset = _build_setup(resolved)
    ini = resolved["initial"]
    coeffs, substeps, out = _fdm_setup(resolved, grid, params, vset)
    run = (ini["rho_b"], ini["rho_a"], resolved["steps"], resolved["snapshot_stride"], substeps)
    div_step = None
    with _timed(timings, "solve"):
        # write each snapshot as it is solved, as simulate does, and hold no trace
        try:
            for t, rho in _fdm_snapshots(grid, coeffs, *run):
                path = outdir / snapshot_filename(resolved["run_id"], t)
                _write_sites(path, grid.coordinates(), float(t) * grid.dt, rho=rho)
        except FdmDivergenceError as exc:
            div_step = exc.step
    return {**out, "substeps": substeps, "divergence_step": div_step}


def _cmd_analytic(resolved, outdir, timings):
    from .analytic import cole_hopf_density
    from .io import snapshot_filename, write_density_snapshot_1d

    grid, params, _ = _build_setup(resolved)
    cfg = _analytic_config(resolved, grid, params, resolved["analytic"]["nu_variant"])
    xs = grid.positions()
    steps = range(0, resolved["steps"] + 1, resolved["snapshot_stride"])
    times = [step * grid.dt for step in steps]
    with _timed(timings, "evaluate"):
        # one call for all times builds the t-independent series tables once
        rhos = cole_hopf_density(xs, times, cfg)
        for step, t, rho in zip(steps, times, rhos):
            write_density_snapshot_1d(
                outdir / snapshot_filename(resolved["run_id"], step), xs, rho, t
            )
    return {"nu": cfg.nu, "bessel_argument": cfg.amplitude, "l_trunc": cfg.l_trunc}


def _sweep_angles(resolved, key, check_ends):
    """The angles of sweep section ``key``, after the checks that every angle shares.

    A bad phase pair or initial density fails the whole sweep, not each of its rows.
    ``check_ends`` makes the ends of the range valid angles too (one end for one angle).
    """
    from .collision import CollisionParams
    from .lattice import _check_cosine_range

    sw, phases = resolved[key], resolved["collision"]
    _built("collision", CollisionParams, theta=math.pi / 2, **phases)
    _built(key, _check_cosine_range, 1, sw["rho_b"], sw["rho_a"])
    if check_ends:
        for end in ("theta_start", "theta_stop")[: sw["count"]]:
            _built(f"{key}.{end}", CollisionParams, theta=sw[end], **phases)
    return np.linspace(sw["theta_start"], sw["theta_stop"], sw["count"])


def _cmd_viscosity_sweep(resolved, outdir, timings):
    from .experiments import viscosity_sweep
    from .io import write_rows_csv

    sw = resolved["sweep"]
    thetas = _sweep_angles(resolved, "sweep", check_ends=False)
    with _timed(timings, "sweep"):
        args = (thetas, sw["T"], sw["n_x"], sw["rho_a"], sw["rho_b"])
        rows = viscosity_sweep(*args, **resolved["collision"], variant=sw["variant"])
    write_rows_csv(
        outdir / f"{resolved['run_id']}_sweep.csv",
        ("theta", "nu_pred", "nu_yepez", "nu_exp", "kept_fraction", "T"),
        [(r.theta, r.nu_pred, r.nu_yepez, r.nu_exp, r.kept_fraction, r.T) for r in rows],
    )
    # one entry per error row, so rows with equal angles are each counted
    failures = [
        {"row": i, "theta": float(r.theta), "error": r.error} for i, r in enumerate(rows) if r.error
    ]
    return {"failures": failures} if failures else {}


def _cmd_steepness_sweep(resolved, outdir, timings):
    from .experiments import steepness_sweep
    from .io import write_rows_csv
    from .lattice import Grid1D

    sp = resolved["steepness"]
    for n_x in sp["n_x_values"]:
        _built("steepness", Grid1D, n_x=n_x, length_x=sp["length_x"])
    thetas = _sweep_angles(resolved, "steepness", check_ends=True)
    with _timed(timings, "sweep"):
        args = (thetas, sp["T_values"], sp["n_x_values"], sp["length_x"], sp["rho_a"], sp["rho_b"])
        rows = steepness_sweep(*args, **resolved["collision"])
    write_rows_csv(
        outdir / f"{resolved['run_id']}_steepness.csv",
        ("theta", "n_x", "T", "delta"),
        [(r["theta"], r["n_x"], r["T"], r["delta"]) for r in rows],
    )
    return {}


def _cmd_compare_analytic(resolved, outdir, timings):
    from .experiments import DensityTrace, mse_compare
    from .io import read_trace_1d, write_rows_csv

    grid, params, _ = _build_setup(resolved)
    cmp_cfg = resolved["compare"]
    with _timed(timings, "read"):
        steps, xs, rho = read_trace_1d(cmp_cfg["input"], cmp_cfg["input_run_id"])
    if rho.shape[1] != grid.n_x:
        raise ConfigError(
            f"config key 'grid.n_x'={grid.n_x} does not match input snapshots ({rho.shape[1]} sites)"
        )
    if abs(xs[1] - xs[0] - grid.dx) > 1e-9 * grid.dx:
        raise ConfigError(
            f"config key 'grid.length_x' implies dx={grid.dx} but input snapshots "
            f"have spacing {xs[1] - xs[0]}"
        )
    trace = DensityTrace(rho=rho, steps=steps, grid=grid)
    out = {}
    with _timed(timings, "compare"):
        for variant in ("corrected", "yepez"):
            cfg = _analytic_config(resolved, grid, params, variant)
            series = mse_compare(trace, cfg)
            write_rows_csv(
                outdir / f"{resolved['run_id']}_mse_{variant}.csv",
                ("t", "metric"),
                list(zip(series.times(grid.dt), series.values)),
            )
            out[f"nu_{variant}"] = cfg.nu
    return out


def _cmd_compare_2d(resolved, outdir, timings):
    from .experiments import l2_compare_2d, run_fdm_2d, run_qlg_2d
    from .io import write_rows_csv

    grid, params, vset = _build_setup(resolved)
    coeffs, substeps, _ = _fdm_setup(resolved, grid, params, vset)
    run = _run_args(resolved, grid)
    with _timed(timings, "qlg"):
        qlg = run_qlg_2d(grid, params, vset, **run)
    with _timed(timings, "fdm"):
        fdm, div_step = run_fdm_2d(
            grid, coeffs, run["rho_b"], run["rho_a"], run["steps"], run["stride"], substeps
        )
    with _timed(timings, "compare"):
        series = l2_compare_2d(qlg, fdm, run["rho_b"])
    write_rows_csv(
        outdir / f"{resolved['run_id']}_l2.csv",
        ("t", "metric"),
        list(zip(series.times(grid.dt), series.values)),
    )
    return {
        "velocity_set": _vset_manifest(vset),
        "substeps": substeps,
        "divergence_step": div_step,
    }


_COMMANDS = {
    "simulate1d": _cmd_simulate,
    "simulate2d": _cmd_simulate,
    "fdm1d": _cmd_fdm,
    "fdm2d": _cmd_fdm,
    "analytic": _cmd_analytic,
    "viscosity-sweep": _cmd_viscosity_sweep,
    "steepness-sweep": _cmd_steepness_sweep,
    "compare-analytic": _cmd_compare_analytic,
    "compare-2d": _cmd_compare_2d,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qlgburgers",
        description="Quantum lattice gas simulator for Burgers-like equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--out", default=None, help="output directory (default: '.')")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (dotted path), repeatable",
        )
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_yaml_loader())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: cannot read '{args.config}': {exc}", file=sys.stderr)
        return 1
    except yaml.YAMLError as exc:
        print(f"config error: invalid YAML in '{args.config}': {exc}", file=sys.stderr)
        return 1

    from . import __version__
    from .analytic import TruncationError
    from .io import write_manifest

    if raw is None:  # an empty file, or one holding only comments or null
        raw = {}
    try:
        raw = _apply_overrides(raw, args.override)
        resolved = _resolve(raw, SCHEMAS[args.command])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    outdir = Path(args.out) if args.out else Path(".")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file on the path, or no permission
        print(f"config error: cannot make output directory '{outdir}': {exc}", file=sys.stderr)
        return 1

    timings = {}
    try:
        with _timed(timings, "total"):
            extra = _COMMANDS[args.command](resolved, outdir, timings) or {}
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError; OSError: a read or write
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TruncationError as exc:
        print(f"config error: config key 'analytic.l_trunc' too small: {exc}", file=sys.stderr)
        return 1
    diverged = args.command in ("fdm1d", "fdm2d") and extra["divergence_step"] is not None

    try:
        write_manifest(
            outdir / "manifest.json", resolved, __version__, timings, extra={"results": extra}
        )
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 2 if diverged else 0


if __name__ == "__main__":
    sys.exit(main())
