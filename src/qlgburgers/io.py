"""CSV and manifest output.

Snapshot files carry one row per site with header ``t,x[,y],rho,u,f0,f1``
and are named ``{run_id}_t{step}.csv``; all floats are written with 17
significant digits so a round trip through text is exact.  Every CSV is
written column by column through one writer.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = [
    "read_trace_1d",
    "read_trace_2d",
    "snapshot_filename",
    "write_density_snapshot_1d",
    "write_manifest",
    "write_rows_csv",
    "write_snapshot_1d",
    "write_snapshot_2d",
]

# Rows formatted at once.  Formatting whole columns of a 512 x 512
# snapshot holds every cell string in memory and triples peak RSS; at
# 512 rows the writer needs little more than the columns themselves.
_BLOCK_ROWS = 512


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _cells(column, start, stop) -> list:
    """Rows [start, stop) of one column as text.

    A column is a sequence, a scalar repeated in every row, or a function
    of (start, stop) that makes those rows on demand.
    """
    if np.isscalar(column):
        return [_cell(column)] * (stop - start)
    block = column(start, stop) if callable(column) else column[start:stop]
    if isinstance(block, np.ndarray) and block.dtype.kind == "f":
        return [format(v, ".17g") for v in block.tolist()]
    return [_cell(v) for v in block]


def _write_columns(path, header, n_rows, columns) -> None:
    """Write ``n_rows`` CSV rows under ``header``, one cell per column."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            rows = zip(*(_cells(c, start, stop) for c in columns))
            fh.write("".join(",".join(row) + "\n" for row in rows))


def _write_sites(path, grid, t, **values) -> None:
    """Write one row per site: t, x (and y, varying fastest, in 2D), then the ``values``."""
    if hasattr(grid, "n_y"):
        # made per block: whole x and y columns add 4 MB at 512 x 512, which shows in peak RSS
        sites = {
            "x": lambda start, stop: np.arange(start, stop) // grid.n_y * grid.ds,
            "y": lambda start, stop: np.arange(start, stop) % grid.n_y * grid.ds,
        }
    else:
        sites = {"x": grid.positions()}
    flat = [np.ravel(v) for v in values.values()]
    _write_columns(path, ("t", *sites, *values), flat[0].size, [t, *sites.values(), *flat])


def _write_field(path, fld) -> None:
    rho = fld.f0 + fld.f1
    u = fld.f1 - fld.f0
    _write_sites(path, fld.grid, fld.t * fld.grid.dt, rho=rho, u=u, f0=fld.f0, f1=fld.f1)


def snapshot_filename(run_id: str, step: int) -> str:
    return f"{run_id}_t{step}.csv"


def write_snapshot_1d(path, fld) -> None:
    """Write one 1D field snapshot (columns t,x,rho,u,f0,f1)."""
    _write_field(path, fld)


def write_snapshot_2d(path, fld) -> None:
    """Write one 2D field snapshot (columns t,x,y,rho,u,f0,f1)."""
    _write_field(path, fld)


def write_density_snapshot_1d(path, xs, rho, t) -> None:
    """Write a density-only snapshot (columns t,x,rho), e.g. analytic output."""
    _write_columns(path, ("t", "x", "rho"), len(xs), [t, xs, rho])


def write_rows_csv(path, header, rows) -> None:
    """Write rows of mixed values; floats get 17 significant digits, None an empty cell."""
    rows = list(rows)
    _write_columns(path, header, len(rows), list(zip(*rows)))


def _read_trace(directory, run_id: str):
    """(steps, xs, rho) of every ``{run_id}_t{step}.csv`` under ``directory``, ordered by step."""
    directory = Path(directory)
    found = []
    for path in directory.glob(f"{run_id}_t*.csv"):
        try:
            step = int(path.stem[len(run_id) + 2 :])
        except ValueError:
            continue
        found.append((step, path))
    if not found:
        raise FileNotFoundError(f"no snapshots matching {run_id}_t*.csv under {directory}")
    steps, xs, rhos = [], None, []
    for step, path in sorted(found):
        data = np.genfromtxt(path, delimiter=",", names=True)
        data = np.atleast_1d(data)
        if xs is None:
            xs = np.asarray(data["x"], dtype=float)
        rhos.append(np.asarray(data["rho"], dtype=float))
        steps.append(step)
    return np.asarray(steps), xs, np.stack(rhos)


def read_trace_1d(directory, run_id: str):
    """Read the snapshots written by a 1D run back into arrays.

    Returns (steps, xs, rho) with rho of shape (n_snapshots, n_x),
    ordered by step.
    """
    return _read_trace(directory, run_id)


def read_trace_2d(directory, run_id: str, n_x: int, n_y: int):
    """Read 2D snapshots back; returns (steps, rho) with shape (n, n_x, n_y)."""
    steps, _, rho = _read_trace(directory, run_id)
    return steps, rho.reshape(len(steps), n_x, n_y)


def write_manifest(path, resolved_config, version: str, timings, extra=None) -> None:
    """Write the run manifest: resolved config, version and timings."""
    manifest = {
        "config": resolved_config,
        "version": version,
        "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
    }
    if extra:
        manifest.update(extra)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
