"""CSV and manifest output.

Snapshot files carry one row per site with header ``t,x[,y],rho,u,f0,f1``
and are named ``{run_id}_t{step}.csv``; all floats are written with 17
significant digits so a round trip through text is exact.

Every snapshot, of a lattice field (t,x[,y],rho,u,f0,f1) or of a density
alone (t,x[,y],rho), is written by the one site writer ``_write_sites``
from the coordinates of each axis and the value columns.

Every float cell is the text of ``format(v, ".17g")``.  The site writer
makes it for a whole block of values at once with ``_format17g``,
which puts each value's text into a fixed-width slot of NUL-padded ASCII
bytes; a block of rows is then one byte buffer, written with its NULs
dropped.
The kernel covers the fixed-notation band 1e-4 <= |v| < 1e15, where
``.17g`` prints the 17 rounded digits with a decimal point and no
exponent, and signed zeros.  Every other value (subnormals and other
|v| < 1e-4, |v| >= 1e15, NaN and infinities) and every call of fewer
than ``_VECTOR_MIN`` values, where the kernel's fixed cost exceeds its
gain, go through ``format()`` itself.  Mixed rows of Python values
(``write_rows_csv``) are written cell by cell.
"""

from __future__ import annotations

import glob
import json
import math
from pathlib import Path

import numpy as np

__all__ = [
    "read_trace_1d",
    "snapshot_filename",
    "write_density_snapshot_1d",
    "write_manifest",
    "write_rows_csv",
    "write_snapshot_1d",
    "write_snapshot_2d",
]

# Rows written at once.  The line buffer and the kernel's temporaries
# grow with it; at 1024 rows of a 7-column snapshot they stay near 1 MB.
_BLOCK_ROWS = 1024

# Smallest number of values that _format17g formats with its kernel.
# Measured: the kernel's fixed cost is about that of 100-120 format()
# calls, so below this one format() per value is as fast or faster.
_VECTOR_MIN = 128

# Slot of one formatted float, as five native-order uint64 words: byte 0
# holds the sign, bytes 1-5 the "0.000" of a value below 1, then 17
# (digit, point) byte pairs.  Only the pair of the last integer digit can
# hold a point.  A fallback text (at most 24 bytes) fills the slot from
# byte 0.
_SLOT = 40


def _u64(table):
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint64)


def _digit_words():
    """Word of each 4-digit chunk 0000-9999 as (digit, NUL) pairs; entries
    10000 onwards have the chunk's trailing zeros as NUL, for the last
    nonzero chunk of a value (a zero chunk after it is all NUL)."""
    place = np.array([1000, 100, 10, 1], np.int16)
    digits = (np.arange(10000, dtype=np.int16)[:, None] // place % 10).astype(np.uint8)
    pairs = np.zeros((2, 10000, 8), np.uint8)
    pairs[:, :, 0::2] = digits + ord("0")
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    pairs[1, :, 0::2][trailing] = 0
    return _u64(pairs).reshape(20000)


def _lead_words():
    """Word 0 for each leading digit 0-9, which is byte 6."""
    words = np.zeros((10, 8), np.uint8)
    words[:, 6] = np.arange(10) + ord("0")
    return _u64(words).ravel()


def _exponent_words():
    """Per decimal exponent E = -4..14, the bytes its layout adds: "0." and
    -E-1 zeros below 1; from 1 up, a '0' kept on each integer digit (OR
    leaves a digit as it is) and the point after the last of them."""
    slots = np.zeros((19, _SLOT), np.uint8)
    for e in range(-4, 15):
        slot = slots[e + 4]
        if e < 0:
            slot[1:3] = (ord("0"), ord("."))
            slot[3 : 2 - e] = ord("0")
        else:
            slot[6 : 8 + 2 * e : 2] = ord("0")
            slot[7 + 2 * e] = ord(".")
    return _u64(slots).reshape(19, 5)


_DIGITS = _digit_words()
_LEAD = _lead_words()
_MINUS = _u64([ord("-"), 0, 0, 0, 0, 0, 0, 0])[0]
_EXPONENT = _exponent_words()
_POW10 = np.array([float(10**k) for k in range(23)])  # each exact in float64
_VELTKAMP = 134217729.0  # 2**27 + 1


def _halves(a):
    """Veltkamp split a = hi + lo, each with at most 26 significant bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _digits17(a, e):
    """round(a * 10**(16 - e)) with ties to even, exact, as int64.

    Dekker's two-product gives a * 10**k = hi + lo exactly.  For every
    result kept (N >= 10**16 > 2**53) hi is an even integer, so
    hi + rint(lo) is the correctly rounded product.
    """
    k = 16 - e
    p, p_hi, p_lo = np.take(_POW10, k), np.take(_POW10_HI, k), np.take(_POW10_LO, k)
    hi = a * p
    a_hi, a_lo = _halves(a)
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _format_each(v):
    """The slots of ``format(v, ".17g")``, one call per value."""
    texts = [format(x, ".17g") for x in v.ravel().tolist()]
    return np.array(texts, dtype=f"S{_SLOT}").view(np.uint8).reshape(v.shape + (_SLOT,))


def _format17g(values):
    """Slots of NUL-padded ASCII, shape ``values.shape + (_SLOT,)``, that
    read ``format(v, ".17g")`` once their NULs are dropped."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < _VECTOR_MIN:
        return _format_each(v)
    shape, v = v.shape, v.ravel()
    a = np.abs(v)
    band = (a >= 1e-4) & (a < 1e15)
    zero = np.flatnonzero(a == 0)
    other = np.flatnonzero(~band & (a != 0))
    a[~band] = 1.0
    # .17g prints the 17 digits N of a = N * 10**(e - 16), 10**16 <= N < 10**17;
    # log10 can be one off next to a power of ten, and whether it is depends
    # on the rounded N, not on the product before rounding
    e = np.floor(np.log10(a)).astype(np.intp)
    n = _digits17(a, e)
    off = (n >= 10**17).astype(np.intp) - (n < 10**16)
    fix = np.flatnonzero(off)
    if fix.size:
        e[fix] += off[fix]
        n[fix] = _digits17(a[fix], e[fix])

    # floor division by a constant (libdivide) is about twice as fast as divmod
    lead = n // 10**16
    high = n // 10**8 - lead * 10**8
    low = n % 10**8
    c1 = high // 10**4
    c2 = high - c1 * 10**4
    c3 = low // 10**4
    c4 = low - c3 * 10**4
    words = np.empty((v.size, 5), np.uint64)
    words[:, 0] = np.take(_LEAD, lead)
    # trailing zeros become NUL: the chunk table's second half for the last
    # nonzero chunk, all NUL after it
    words[:, 1] = np.take(_DIGITS, c1 + 10000 * ((c2 | low) == 0))
    words[:, 2] = np.take(_DIGITS, c2 + 10000 * (low == 0))
    words[:, 3] = np.take(_DIGITS, c3 + 10000 * (c4 == 0))
    words[:, 4] = np.take(_DIGITS, c4 + 10000)
    words |= np.take(_EXPONENT, e + 4, axis=0)
    slots = words.view(np.uint8)
    # a whole number prints no point: its first fractional digit became NUL
    whole = np.flatnonzero(e >= 0)
    whole = whole[slots[whole, 8 + 2 * e[whole]] == 0]
    slots[whole, 7 + 2 * e[whole]] = 0
    words[zero] = 0
    words[zero, 0] = _LEAD[0]
    words[np.signbit(v), 0] |= _MINUS
    if other.size:
        slots[other] = _format_each(v[other])
    return slots.reshape(shape + (_SLOT,))


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_sites(path, coordinates, t, **values) -> None:
    """Write one row per site: t, x (and y, varying fastest, in 2D), then the ``values``.

    ``coordinates`` holds the coordinates of each lattice axis.  A value is
    an array with one entry per site, or a function of (start, stop) that
    makes the entries of rows [start, stop) on demand.
    """
    shape = tuple(len(c) for c in coordinates)
    n_rows = math.prod(shape)
    # the slots of t and of each axis's coordinates are made once and gathered per block
    t_slot = _format17g(t)
    axes = [_format17g(c) for c in coordinates]
    columns = [v if callable(v) else np.ravel(v) for v in values.values()]
    header = ("t", *("x", "y")[: len(axes)], *values)
    # one line buffer for every block: a slot per cell, then its separator
    line = np.zeros((min(n_rows, _BLOCK_ROWS), len(header), _SLOT + 1), np.uint8)
    line[..., _SLOT] = ord(",")
    line[:, -1, _SLOT] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            rows = line[: stop - start]
            rows[:, 0, :_SLOT] = t_slot
            index = np.unravel_index(np.arange(start, stop), shape)
            for j, (slots, i) in enumerate(zip(axes, index), 1):
                rows[:, j, :_SLOT] = np.take(slots, i, axis=0)
            block = np.empty((stop - start, len(columns)))
            for j, v in enumerate(columns):
                block[:, j] = v(start, stop) if callable(v) else v[start:stop]
            rows[:, 1 + len(axes) :, :_SLOT] = _format17g(block)
            # translate drops the NULs about 6x faster than a boolean mask,
            # whose branches mispredict on the alternating digit/NUL bytes
            fh.write(rows.tobytes().translate(None, b"\0"))


def _write_field(path, fld) -> None:
    f0, f1 = np.ravel(fld.f0), np.ravel(fld.f1)
    # rho and u are made per block: whole columns add 4 MB at 512 x 512, which shows in peak RSS
    _write_sites(
        path,
        fld.grid.coordinates(),
        fld.t * fld.grid.dt,
        rho=lambda start, stop: f0[start:stop] + f1[start:stop],
        u=lambda start, stop: f1[start:stop] - f0[start:stop],
        f0=f0,
        f1=f1,
    )


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
    _write_sites(path, (xs,), t, rho=rho)


def write_rows_csv(path, header, rows) -> None:
    """Write rows of mixed values; floats get 17 significant digits, None an empty cell."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join([_cell(v) for v in row]) + "\n" for row in rows)


def read_trace_1d(directory, run_id: str):
    """Read the snapshots of a run back into arrays.

    The snapshots are the files ``{run_id}_t{step}.csv`` under ``directory``
    whose ``step`` is a string of ASCII digits; ``run_id`` is matched
    literally, never as a glob pattern.  Returns (steps, xs, rho) with rho of
    shape (n_snapshots, n_x), ordered by step.
    """
    directory = Path(directory)
    found = []
    for path in directory.glob(f"{glob.escape(run_id)}_t*.csv"):
        step = path.stem[len(run_id) + 2 :]
        if step.isascii() and step.isdigit():
            found.append((int(step), path))
    if not found:
        raise FileNotFoundError(f"no snapshots matching {run_id}_t*.csv under {directory}")
    steps, xs, rhos = [], None, []
    for step, path in sorted(found):
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            if "x" not in header or "rho" not in header:
                raise ValueError(f"{path} has no x and rho columns: header {','.join(header)}")
            columns = (header.index("x"), header.index("rho"))
            data = np.loadtxt(fh, delimiter=",", usecols=columns, ndmin=2)
        if xs is None:
            xs = data[:, 0]
        rhos.append(data[:, 1])
        steps.append(step)
    return np.asarray(steps), xs, np.stack(rhos)


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
