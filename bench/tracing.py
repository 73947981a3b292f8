"""Per-layer spans of the qlgburgers modules, recorded from outside the package.

Every public function of each layer module is wrapped, and the wrapper is
installed wherever the function is bound: its own module, the package
namespace and every other qlgburgers module that imported it by name.
``experiments`` and ``lattice`` bind names when they are imported, so
patching ``lattice.step_1d`` alone would miss ``run_qlg_1d``; ``cli``
imports inside its commands and picks the wrappers up from the patched
modules.

Spans are kept in memory as parallel arrays (name, start, end, parent,
job, work) and turned into self times and per-layer metrics when a round
ends.  A layer's self time is the time its spans ran minus the time their
child spans ran.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "qlgburgers"
LAYERS = ("collision", "lattice", "experiments", "fdm", "analytic", "io", "cli")

SMALL_SITES = 4096  # .small: calls on at most this many sites
LARGE_SITES = 1 << 18  # .large: calls on at least this many sites
BYTES_PER_SITE = 32  # f0, f1 read and written once per site, float64

# (name, unit, better, exact): ``exact`` metrics are counts that must repeat
# exactly between traced rounds; the others are times and their ratios.
PER_LAYER = (
    ("collision.calls", "count", "lower", True),
    ("collision.sites", "count", "lower", True),
    ("collision.self_s", "s", "lower", False),
    ("collision.ns_per_site.small", "ns/site", "lower", False),
    ("collision.ns_per_site.large", "ns/site", "lower", False),
    ("collision.gb_per_s_computed.large", "GB/s", "higher", False),
    ("collision.range_errors", "count", "lower", True),
    ("lattice.steps", "count", "lower", True),
    ("lattice.site_steps", "count", "lower", True),
    ("lattice.self_s", "s", "lower", False),
    ("lattice.stream_s", "s", "lower", False),
    ("lattice.init_s", "s", "lower", False),
    ("lattice.ns_per_site_step.small", "ns/site-step", "lower", False),
    ("lattice.ns_per_site_step.large", "ns/site-step", "lower", False),
    ("experiments.driver_self_s", "s", "lower", False),
    ("experiments.viscosity_calls", "count", "lower", True),
    ("experiments.viscosity_s", "s", "lower", False),
    ("experiments.kept_fraction", "fraction", "higher", True),
    ("experiments.steepness_s", "s", "lower", False),
    ("experiments.compare_s", "s", "lower", False),
    ("experiments.snapshot_mb", "MB", "lower", True),
    ("experiments.rows_failed", "count", "lower", True),
    ("fdm.substep_calls", "count", "lower", True),
    ("fdm.cell_substeps", "count", "lower", True),
    ("fdm.substeps_per_step", "substeps/step", "lower", True),
    ("fdm.self_s", "s", "lower", False),
    ("fdm.ns_per_cell_substep", "ns/cell-substep", "lower", False),
    ("fdm.check_s", "s", "lower", False),
    ("fdm.divergences", "count", "lower", True),
    ("analytic.calls", "count", "lower", True),
    ("analytic.points", "count", "lower", True),
    ("analytic.terms", "count", "lower", True),
    ("analytic.self_s", "s", "lower", False),
    ("analytic.ns_per_term", "ns/term", "lower", False),
    ("analytic.bessel_calls", "count", "lower", True),
    ("analytic.bessel_s", "s", "lower", False),
    ("analytic.truncation_errors", "count", "lower", True),
    ("io.write_calls", "count", "lower", True),
    ("io.rows_written", "count", "lower", True),
    ("io.bytes_written", "bytes", "lower", True),
    ("io.write_s", "s", "lower", False),
    ("io.write_mb_per_s", "MB/s", "higher", False),
    ("io.rows_read", "count", "lower", True),
    ("io.read_s", "s", "lower", False),
    ("io.manifest_s", "s", "lower", False),
    ("cli.jobs", "count", "lower", True),
    ("cli.self_s", "s", "lower", False),
    ("cli.nonzero_exits", "count", "lower", True),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _measure_write(rows_of):
    def measure(args, kwargs, result, counters):
        counters["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        return rows_of(args, kwargs)

    return measure


def _measure_run(args, kwargs, result, counters):
    trace = result[0] if isinstance(result, tuple) else result
    counters["experiments.snapshot_bytes"] += trace.rho.nbytes
    return trace.rho.size


def _measure_viscosity(args, kwargs, result, counters):
    rho = _arg(args, kwargs, 0, "trace").rho
    considered = (rho.shape[0] - 1) * rho.shape[1]
    counters["experiments.points_kept"] += round(result.kept_fraction * considered)
    counters["experiments.points_considered"] += considered
    return considered


def _measure_sweep(args, kwargs, result, counters):
    counters["experiments.rows_failed"] += sum(1 for row in result if row.error)
    return len(result)


def _measure_analytic(args, kwargs, result, counters):
    points = int(np.size(_arg(args, kwargs, 0, "x")))
    counters["analytic.terms"] += points * _arg(args, kwargs, 2, "cfg").l_trunc
    return points


def _measure_main(args, kwargs, result, counters):
    counters["cli.nonzero_exits"] += result != 0
    return 0


# Work recorded per span, by wrapped function: sites, rows or points.
MEASURES = {
    "collision.collide_closed_form": lambda a, k, r, c: int(np.size(_arg(a, k, 0, "f0"))),
    "collision.collide_quantum": lambda a, k, r, c: int(np.size(_arg(a, k, 0, "f0"))),
    "lattice.step_1d": lambda a, k, r, c: _arg(a, k, 0, "fld").f0.size,
    "lattice.step_2d": lambda a, k, r, c: _arg(a, k, 0, "fld").f0.size,
    "experiments.run_qlg_1d": _measure_run,
    "experiments.run_qlg_2d": _measure_run,
    "experiments.run_fdm_1d": _measure_run,
    "experiments.run_fdm_2d": _measure_run,
    "experiments.experimental_viscosity": _measure_viscosity,
    "experiments.viscosity_sweep": _measure_sweep,
    "fdm.fdm_step_1d": lambda a, k, r, c: _arg(a, k, 0, "rho").size,
    "fdm.fdm_step_2d": lambda a, k, r, c: _arg(a, k, 0, "rho").size,
    "analytic.cole_hopf_density": _measure_analytic,
    "io.write_snapshot_1d": _measure_write(lambda a, k: _arg(a, k, 1, "fld").grid.n_x),
    "io.write_snapshot_2d": _measure_write(lambda a, k: _arg(a, k, 1, "fld").f0.size),
    "io.write_density_snapshot_1d": _measure_write(lambda a, k: len(_arg(a, k, 1, "xs"))),
    "io.write_rows_csv": _measure_write(lambda a, k: len(_arg(a, k, 2, "rows"))),
    "io.read_trace_1d": lambda a, k, r, c: r[2].size,
    "io.read_trace_2d": lambda a, k, r, c: r[1].size,
    "cli.main": _measure_main,
}


class SpanLog:
    """Spans of one round, as parallel arrays indexed by span number."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.work = array("q")
        self.errors = {}  # span number -> exception class name

    def open(self, name_id, parent, job):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(parent)
        self.job.append(job)
        self.work.append(0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }


def self_times(start, end, parent):
    """Duration of each span minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap
    and their durations add up to the part of its interval they cover.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


class Tracer:
    """Wraps the layer functions of the loaded qlgburgers modules.

    ``install`` puts the wrappers in place and ``uninstall`` restores the
    original functions, so untraced rounds in the same process run the
    unmodified code.  ``job`` tags the spans of the job being run.
    """

    def __init__(self):
        self.names = []
        self.log = SpanLog()
        self.counters = Counter()
        self.job = -1
        self._stack = [-1]
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._patched = []  # (module, attribute, original)
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))

    def _wrap(self, qualname, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        measure = MEASURES.get(qualname)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = self.log
            idx = log.open(name_id, stack[-1], self.job)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                log.end[idx] = clock()
                stack.pop()
                log.errors[idx] = type(exc).__name__
                raise
            log.end[idx] = clock()
            stack.pop()
            if measure is not None:
                log.work[idx] = measure(args, kwargs, result, self.counters)
            return result

        return traced

    def install(self):
        """Start a fresh span log and bind every wrapper at each of its import sites."""
        self.log = SpanLog()
        self.counters = Counter()
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def save(self, path):
        """Write the current span log to ``path`` (.npz with the name table)."""
        np.savez(path, names=np.asarray(self.names), **self.log.arrays())


def layer_metrics(names, spans, errors, counters):
    """Per-layer metrics of one traced round.

    ``spans`` holds the arrays of :meth:`SpanLog.arrays`, ``names`` maps
    their name ids to ``layer.function``, ``errors`` maps span numbers to
    the exception each raised.  Timings are self times except the
    ``ns_per_site*`` and ``gb_per_s*`` ones, which use the inclusive time
    of the collide or step calls.  Ratios with nothing to divide by (a
    layer the workload does not reach) are reported as 0.
    """
    name_id = spans["name"]
    layer_of = np.array([n.split(".", 1)[0] for n in names], dtype=object)[name_id]
    dur = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    work = spans["work"]

    def fns(*functions):
        return np.isin(name_id, [k for k, name in enumerate(names) if name in functions])

    def self_of(mask):
        return float(np.sum(own[mask]))

    def count(mask):
        return int(np.count_nonzero(mask))

    def total(mask):
        return int(np.sum(work[mask]))

    def per_unit(seconds, units):
        return seconds / units * 1e9 if units else 0.0

    def raised(exc_name, *functions):
        return sum(1 for idx, exc in errors.items() if exc == exc_name and names[name_id[idx]] in functions)

    collide = fns("collision.collide_closed_form", "collision.collide_quantum")
    collide_small = collide & (work <= SMALL_SITES)
    collide_large = collide & (work >= LARGE_SITES)
    large_s = float(np.sum(dur[collide_large]))
    step = fns("lattice.step_1d", "lattice.step_2d")
    step_small = step & (work <= SMALL_SITES)
    step_large = step & (work >= LARGE_SITES)
    visc = fns("experiments.experimental_viscosity")
    fdm_step = fns("fdm.fdm_step_1d", "fdm.fdm_step_2d")
    checks = fns("fdm.divergence_check")
    series = fns("analytic.cole_hopf_density")
    bessel = fns("analytic.bessel_ratios", "analytic.bessel_ratio")
    writes = fns(
        "io.write_snapshot_1d",
        "io.write_snapshot_2d",
        "io.write_density_snapshot_1d",
        "io.write_rows_csv",
    )
    reads = fns("io.read_trace_1d", "io.read_trace_2d")
    write_s = self_of(writes)
    considered = counters["experiments.points_considered"]

    return {
        "collision.calls": count(collide),
        "collision.sites": total(collide),
        "collision.self_s": self_of(layer_of == "collision"),
        "collision.ns_per_site.small": per_unit(float(np.sum(dur[collide_small])), total(collide_small)),
        "collision.ns_per_site.large": per_unit(large_s, total(collide_large)),
        "collision.gb_per_s_computed.large": (
            BYTES_PER_SITE * total(collide_large) / large_s / 1e9 if large_s else 0.0
        ),
        "collision.range_errors": raised(
            "PopulationRangeError", "collision.collide_closed_form", "collision.collide_quantum"
        ),
        "lattice.steps": count(step),
        "lattice.site_steps": total(step),
        "lattice.self_s": self_of(layer_of == "lattice"),
        "lattice.stream_s": self_of(fns("lattice.stream_1d", "lattice.stream_2d")),
        "lattice.init_s": self_of(fns("lattice.init_cosine_1d", "lattice.init_cosine_2d")),
        "lattice.ns_per_site_step.small": per_unit(float(np.sum(dur[step_small])), total(step_small)),
        "lattice.ns_per_site_step.large": per_unit(float(np.sum(dur[step_large])), total(step_large)),
        "experiments.driver_self_s": self_of(
            fns(
                "experiments.run_qlg_1d",
                "experiments.run_qlg_2d",
                "experiments.run_fdm_1d",
                "experiments.run_fdm_2d",
            )
        ),
        "experiments.viscosity_calls": count(visc),
        "experiments.viscosity_s": self_of(visc),
        "experiments.kept_fraction": (
            counters["experiments.points_kept"] / considered if considered else 0.0
        ),
        "experiments.steepness_s": self_of(fns("experiments.shock_steepness")),
        "experiments.compare_s": self_of(fns("experiments.mse_compare", "experiments.l2_compare_2d")),
        "experiments.snapshot_mb": counters["experiments.snapshot_bytes"] / 1e6,
        "experiments.rows_failed": counters["experiments.rows_failed"],
        "fdm.substep_calls": count(fdm_step),
        "fdm.cell_substeps": total(fdm_step),
        "fdm.substeps_per_step": count(fdm_step) / count(checks) if count(checks) else 0.0,
        "fdm.self_s": self_of(layer_of == "fdm"),
        "fdm.ns_per_cell_substep": per_unit(self_of(fdm_step), total(fdm_step)),
        "fdm.check_s": self_of(checks),
        "fdm.divergences": raised("FdmDivergenceError", "fdm.divergence_check"),
        "analytic.calls": count(series),
        "analytic.points": total(series),
        "analytic.terms": counters["analytic.terms"],
        "analytic.self_s": self_of(layer_of == "analytic"),
        "analytic.ns_per_term": per_unit(self_of(series), counters["analytic.terms"]),
        "analytic.bessel_calls": count(bessel),
        "analytic.bessel_s": self_of(bessel),
        "analytic.truncation_errors": raised("TruncationError", "analytic.cole_hopf_density"),
        "io.write_calls": count(writes),
        "io.rows_written": total(writes),
        "io.bytes_written": counters["io.bytes_written"],
        "io.write_s": write_s,
        "io.write_mb_per_s": counters["io.bytes_written"] / 1e6 / write_s if write_s else 0.0,
        "io.rows_read": total(reads),
        "io.read_s": self_of(reads),
        "io.manifest_s": self_of(fns("io.write_manifest")),
        "cli.jobs": count(fns("cli.main")),
        "cli.self_s": self_of(layer_of == "cli"),
        "cli.nonzero_exits": counters["cli.nonzero_exits"],
    }


def layer_self_times(names, spans):
    """Self time summed per layer."""
    own = self_times(spans["start"], spans["end"], spans["parent"])
    layer_ids = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=int)
    per = np.bincount(layer_ids[spans["name"]], weights=own, minlength=len(LAYERS))
    return {layer: float(per[k]) for k, layer in enumerate(LAYERS)}


def calls_by_name(names, spans):
    counts = np.bincount(spans["name"], minlength=len(names))
    return {name: int(counts[k]) for k, name in enumerate(names)}
