"""Run drivers, estimators, sweeps and comparisons for the reproduction studies.

This module glues the lattice gas, the analytic solution and the
finite-difference reference together: it runs simulations into density
traces, measures the effective viscosity with the filtered estimator,
tracks shock steepness, and computes the error metrics used to compare
against the analytic solution (1D) and the reference solver (2D).  A
run of either solver yields its snapshots from one generator; ``run_*``
collects them into a trace, and the command line writes them as it goes.
The sweeps run the lattice gas over a theta grid: the viscosity sweep
measures batches of traces, and the steepness sweep keeps no trace, as it
steps every (N_x, theta) lattice as one flat state and reduces blocks of
its densities as they fill.

The estimators and comparisons only read their traces, and reruns of the
same configuration are bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticConfig, evaluate_on_grid
from .collision import CollisionParams, PopulationRangeError, collide_closed_form
from .collision import predicted_coefficients_1d
from .fdm import FdmDivergenceError, divergence_check, fdm_step_2d
from .lattice import (
    Grid1D,
    Grid2D,
    PdeCoefficients2D,
    VelocitySet2D,
    _SHIFTS_1D,
    _cosine_density,
    density,
    init_cosine_1d,
    init_cosine_2d,
    step_1d,
    step_2d,
)

__all__ = [
    "DensityTrace",
    "MetricSeries",
    "SweepRow",
    "ViscosityEstimate",
    "analytic_config_for",
    "experimental_viscosity",
    "l2_compare_2d",
    "mse_compare",
    "run_fdm_2d",
    "run_qlg_1d",
    "run_qlg_2d",
    "shock_formation_step",
    "shock_onset_step",
    "shock_steepness",
    "steepness_sweep",
    "viscosity_sweep",
]

DENOMINATOR_GUARD = 1e-12

# Bytes of the density traces one batch of a viscosity sweep holds.  All 30
# angles of a 200-step sweep on 64 sites fit in one batch, and 3 angles of a
# 2000-step one; one batch of every angle of a long sweep raises peak RSS by
# several MB.
_SWEEP_BATCH_BYTES = 4_000_000

# Snapshots per block of the viscosity estimator and of the steepness maximum.  A
# steepness block holds every lattice of a sweep, 2304 sites for fig6: 128 snapshots
# (2.4 MB, a 3.0 MB sweep peak) run as fast as 256 (4.7 MB, a 5.6 MB peak) and stay
# below 256 of its larger grid alone (3.1 MB).
_BLOCK = 128


@dataclass(frozen=True)
class DensityTrace:
    """Time-indexed density snapshots of one run, or of a batch of 1D runs, on a grid.

    ``rho`` has shape (n_snapshots, n_x) in 1D or (n_snapshots, n_x,
    n_y) in 2D; ``steps`` holds the lattice step index of each
    snapshot, with a uniform stride.  A batch of B 1D runs has ``rho``
    of shape (n_snapshots, B, n_x), and ``rho[:, k]`` holds the densities of run k.
    """

    rho: np.ndarray
    steps: np.ndarray
    grid: object

    def __post_init__(self):
        if len(self.steps) != self.rho.shape[0]:
            raise ValueError("steps and rho snapshot counts differ")
        if len(self.steps) >= 2:
            strides = np.diff(self.steps)
            if np.any(strides != strides[0]) or strides[0] <= 0:
                raise ValueError(f"snapshot stride not uniform: {self.steps!r}")

    @property
    def stride(self) -> int:
        if len(self.steps) < 2:
            raise ValueError("trace has fewer than 2 snapshots, stride undefined")
        return int(self.steps[1] - self.steps[0])

    @property
    def is_1d(self) -> bool:
        return len(self.grid.shape) == 1

    def times(self) -> np.ndarray:
        return np.asarray(self.steps, dtype=float) * self.grid.dt


@dataclass(frozen=True)
class MetricSeries:
    """A scalar metric per snapshot, e.g. MSE or relative L2."""

    steps: np.ndarray
    values: np.ndarray

    def times(self, dt: float) -> np.ndarray:
        return np.asarray(self.steps, dtype=float) * dt


@dataclass(frozen=True)
class ViscosityEstimate:
    """Result of the filtered experimental-viscosity pipeline.

    ``value`` is the time average of the per-step filtered spatial
    means, or None when no step yielded a valid estimate.  ``kept_fraction``
    counts points surviving the denominator guard and the one-sigma
    filter, relative to all (x, t) points considered.
    """

    value: float | None
    per_step: np.ndarray
    steps: np.ndarray
    kept_fraction: float
    n_skipped_steps: int
    variant: str


@dataclass(frozen=True)
class SweepRow:
    theta: float
    nu_pred: float
    nu_yepez: float
    nu_exp: float | None
    kept_fraction: float
    T: int
    error: str = ""


def _snapshot_count(steps: int, stride: int) -> int:
    """Number of snapshots of a run: step 0 and every stride-th step up to ``steps``."""
    if steps < 0 or stride < 1:
        raise ValueError(f"need steps >= 0 and snapshot stride >= 1, got {steps} and {stride}")
    return steps // stride + 1


def _snapshots(state, advance, steps: int, stride: int):
    """Yield (step, state) at step 0 and every stride-th step; ``advance(state, t)`` makes step t.

    Steps after the last snapshot are taken too, so a failure there still surfaces.
    """
    yield 0, state
    for t in range(1, steps + 1):
        state = advance(state, t)
        if t % stride == 0:
            yield t, state


def _qlg_snapshots(grid, params, vset, rho_b, rho_a, steps, stride, collision, reversed_streaming, init):
    """Lattice-gas field snapshots from the cosine start; ``vset`` None selects 1D.

    In 1D ``params`` may be a sequence of parameter sets, which steps one (B, n_x) batch.
    """
    kwargs = {"collision": collision, "reversed_streaming": reversed_streaming}
    if vset is None:
        fld = init_cosine_1d(grid, rho_b, rho_a, params, init=init)
        return _snapshots(fld, lambda f, t: step_1d(f, params, **kwargs), steps, stride)
    fld = init_cosine_2d(grid, rho_b, rho_a, params, init=init)
    return _snapshots(fld, lambda f, t: step_2d(f, params, vset, **kwargs), steps, stride)


def _trace(snapshots, n_snapshots, grid) -> tuple:
    """Copy (step, rho) snapshots into one preallocated trace; returns (trace, divergence_step).

    A reference-solver divergence ends the trace after the last healthy snapshot.
    """
    rho, recorded, div_step = None, [], None
    try:
        for t, snap in snapshots:
            if rho is None:
                rho = np.empty((n_snapshots,) + snap.shape, dtype=snap.dtype)
            rho[len(recorded)] = snap
            recorded.append(t)
    except FdmDivergenceError as exc:
        div_step = exc.step
    return DensityTrace(rho=rho[: len(recorded)], steps=np.asarray(recorded), grid=grid), div_step


def _fdm_snapshots(grid, coeffs, rho_b, rho_a, steps, stride, substeps):
    """Reference-solver density snapshots from the cosine start on a Grid1D or a Grid2D.

    Each lattice step is ``substeps`` calls of :func:`fdm_step_2d`, then the
    divergence check, whose :class:`FdmDivergenceError` ends the snapshots;
    ``work`` keeps the update's buffers for this run only.
    """
    if not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise ValueError(f"substeps must be an integer >= 1, got {substeps!r}")
    ds = grid.dx if isinstance(grid, Grid1D) else grid.ds
    dt_sub = grid.dt / substeps
    work = {}

    def advance(rho, t):
        for _ in range(substeps):
            rho = fdm_step_2d(rho, coeffs, ds, dt_sub, work)
        divergence_check(rho, rho_b, rho_a, t)
        return rho

    return _snapshots(_cosine_density(grid, rho_b, rho_a), advance, steps, stride)


def run_qlg_1d(
    grid: Grid1D,
    params: CollisionParams,
    rho_b: float,
    rho_a: float,
    steps: int,
    stride: int = 1,
) -> DensityTrace:
    """Run the 1D lattice gas from the equilibrium start and record density snapshots.

    Every step is the closed-form collision and standard streaming.
    ``params`` is one :class:`CollisionParams`, or a sequence of B of them:
    then one run steps all B lattices as a (B, n_x) batch, the trace has
    ``rho`` of shape (n_snapshots, B, n_x), and its rows ``rho[:, k]`` equal
    the run with ``params[k]`` alone bit for bit.
    """
    if not isinstance(params, CollisionParams):
        params = tuple(params)
    snaps = _qlg_snapshots(
        grid, params, None, rho_b, rho_a, steps, stride, "closed_form", False, "equilibrium"
    )
    snaps = ((t, density(fld)) for t, fld in snaps)
    return _trace(snaps, _snapshot_count(steps, stride), grid)[0]


def run_qlg_2d(
    grid: Grid2D,
    params: CollisionParams,
    vset: VelocitySet2D,
    rho_b: float,
    rho_a: float,
    steps: int,
    stride: int = 1,
    collision: str = "closed_form",
    reversed_streaming: bool = False,
    init: str = "equilibrium",
) -> DensityTrace:
    """Run the 2D lattice gas and record density snapshots."""
    snaps = _qlg_snapshots(
        grid, params, vset, rho_b, rho_a, steps, stride, collision, reversed_streaming, init
    )
    snaps = ((t, density(fld)) for t, fld in snaps)
    return _trace(snaps, _snapshot_count(steps, stride), grid)[0]


def run_fdm_2d(
    grid: Grid1D | Grid2D,
    coeffs: PdeCoefficients2D,
    rho_b: float,
    rho_a: float,
    steps: int,
    stride: int,
    substeps: int,
) -> tuple:
    """Run the reference solver on a Grid2D or a Grid1D; returns (trace, divergence_step).

    A 1D run takes the axis-aligned set ``fdm._axis_aligned(c_s, nu)`` of
    its (c_s, nu), which :func:`fdm_step_2d` updates on one row.  The
    time step equals the lattice dt so series align sample for sample;
    ``substeps``, an integer >= 1 such as :func:`substeps_auto` returns,
    splits it for stability.  On divergence the trace is truncated after
    the last healthy snapshot.
    """
    snaps = _fdm_snapshots(grid, coeffs, rho_b, rho_a, steps, stride, substeps)
    return _trace(snaps, _snapshot_count(steps, stride), grid)


def _check_one_1d_run(trace: DensityTrace, name: str) -> None:
    if not trace.is_1d:
        raise ValueError(f"{name} requires a 1D trace")
    if trace.rho.ndim != 2:
        raise ValueError(f"{name} takes the trace of one run; pass a batch's rows trace.rho[:, k]")


def _compact(values, mask):
    """Move each row's masked entries of ``values`` to its front, in order.

    Returns (compacted, count per row, live) with ``live`` marking each
    row's first ``count`` columns; the columns up to the largest count are
    kept and the rest of a row is zero.
    """
    count = np.count_nonzero(mask, axis=1)
    live = np.arange(count.max(initial=0)) < count[:, None]
    out = np.zeros(live.shape, dtype=values.dtype)
    out[live] = values[mask]  # both row-major: row i's masked entries fill its live columns
    return out, count, live


def _row_sums(values, count):
    """``np.add.reduce(values[i, :count[i]])`` for every row i, bit for bit.

    Rows of equal count are summed in one call: numpy's pairwise summation
    runs along each C-contiguous row of a 2-D reduction exactly as on the row
    alone, so grouping changes no bit.  Entries past a row's count are never read.
    """
    out = np.zeros(len(count))
    # the distinct counts; a first np.unique call adds about 1.6 MB to peak RSS
    for n in np.flatnonzero(np.bincount(count)):
        if n:
            rows = np.flatnonzero(count == n)
            out[rows] = np.add.reduce(values[rows, :n], axis=1)
    return out


def experimental_viscosity(
    trace: DensityTrace, alpha: float, *, variant: str = "pde_consistent"
) -> ViscosityEstimate:
    """Measure the effective viscosity of a 1D density trace.

    ``alpha`` = cot(theta) cos(zeta - xi) is the formula's only collision input
    (:meth:`CollisionParams.alpha`; a reference-solver trace passes its own).
    Pointwise estimate per site and step, in lattice units,

        nu(x, t) = [rho(x, t+1) - rho(x, t)
                    +- alpha (rho(x, t) - 1)(rho(x+1, t) - rho(x, t))]
                   / [rho(x-1, t) - 2 rho(x, t) + rho(x+1, t)]

    then the filtering pipeline: per step, drop sites whose denominator
    is below 1e-12, compute the spatial mean and (population) standard
    deviation, keep points within one sigma of the mean, average the
    kept points over space, and finally average over steps.

    ``variant`` selects the sign of the advection correction:
    ``"literal"`` takes the estimator with the + sign, ``"pde_consistent"``
    the - sign implied by the derived equation.  Calibration on
    reference-solver traces with known viscosity (see tests) shows only
    the latter recovers it, so it is the default; the other form is kept
    for the sign-discrepancy study.  The result is converted to grid
    units via dx^2/dt.

    The steps are processed in blocks of up to ``_BLOCK`` at once: each
    step's valid estimates, then its kept ones, are compacted to the front
    of its row, and the rows of equal count are summed by one reduction.
    Every step's mean, deviation and kept mean equal numpy's ``mean`` and
    ``std`` on that step's points alone, bit for bit.
    """
    _check_one_1d_run(trace, "experimental_viscosity")
    if trace.rho.shape[0] < 2:
        raise ValueError("trace too short: need at least 2 consecutive snapshots")
    if trace.stride != 1:
        raise ValueError(f"estimator needs consecutive snapshots, stride is {trace.stride}")
    if variant == "literal":
        sign = 1.0
    elif variant == "pde_consistent":
        sign = -1.0
    else:
        raise ValueError(f"variant must be 'literal' or 'pde_consistent', got {variant!r}")

    rho = trace.rho
    per_step = []
    used_steps = []
    n_kept = 0
    n_total = (rho.shape[0] - 1) * rho.shape[1]
    n_skipped = 0
    for first in range(0, rho.shape[0] - 1, _BLOCK):
        stop = min(first + _BLOCK, rho.shape[0] - 1)
        cur, nxt = rho[first:stop], rho[first + 1 : stop + 1]
        # the formula above in its written order of operations, in reused
        # buffers: + and * commute exactly, so no bit changes
        fwd = np.roll(cur, -1, axis=1)
        den = np.multiply(2.0, cur)
        np.subtract(np.roll(cur, 1, axis=1), den, out=den)
        den += fwd
        np.subtract(fwd, cur, out=fwd)
        num = np.subtract(cur, 1.0)
        num *= sign * float(alpha)
        num *= fwd
        num += np.subtract(nxt, cur, out=fwd)
        valid = np.abs(den) >= DENOMINATOR_GUARD
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(num, den, out=num, where=valid)
        # numpy's own mean and std arithmetic (one pairwise sum each, divided
        # by the count) on the compacted estimates of every step of the block
        # at once; no arithmetic reads a step's columns past its count
        est, count, live = _compact(num, valid)
        del fwd, den, num  # before the statistics' buffers, to keep peak memory down
        size = np.maximum(count, 1)
        mean = _row_sums(est, count) / size
        dev = np.subtract(est, mean[:, None], out=np.zeros_like(est), where=live)
        std = np.sqrt(_row_sums(dev * dev, count) / size)
        kept = np.abs(dev, out=dev) <= std[:, None]
        kept &= live
        kept, kept_count, _ = _compact(est, kept)
        used = np.flatnonzero(kept_count)  # steps with no valid or no kept point are skipped
        n_skipped += len(count) - len(used)
        n_kept += int(kept_count.sum())
        per_step.extend((_row_sums(kept, kept_count)[used] / kept_count[used]).tolist())
        used_steps.extend(np.asarray(trace.steps)[first + used].astype(int).tolist())

    scale = trace.grid.dx ** 2 / trace.grid.dt
    value = scale * float(np.mean(per_step)) if per_step else None
    return ViscosityEstimate(
        value=value,
        per_step=scale * np.asarray(per_step),
        steps=np.asarray(used_steps),
        kept_fraction=n_kept / n_total if n_total else 0.0,
        n_skipped_steps=n_skipped,
        variant=variant,
    )


def _cell_differences(rho: np.ndarray) -> np.ndarray:
    """|rho(x + e) - rho(x)| of every snapshot of ``rho`` along each lattice axis e,
    periodic: one array of the snapshots' shape per axis, stacked on a new axis 0."""
    diffs = np.empty((rho.ndim - 1,) + rho.shape, dtype=rho.dtype)
    for d, axis in zip(diffs, range(1, rho.ndim)):
        np.abs(np.subtract(np.roll(rho, -1, axis=axis), rho, out=d), out=d)
    return diffs


def _cell_jumps(rho: np.ndarray) -> np.ndarray:
    """Largest one-cell density jump of each snapshot of ``rho``, over every lattice axis.

    A snapshot holding a NaN has a NaN jump.
    """
    diffs = _cell_differences(rho)
    return np.max(diffs, axis=(0,) + tuple(range(2, diffs.ndim)))


def shock_steepness(trace: DensityTrace) -> float:
    """Max steepness Delta = max_{x,t} |w~(x, t) - w~(x+1, t)|.

    w~ = w / alpha = c (1 - rho), so Delta = c * max |rho(x+1) - rho(x)|
    over the whole trace.  A NaN anywhere in the trace makes it NaN.
    """
    _check_one_1d_run(trace, "shock_steepness")
    return trace.grid.c * float(np.max(_cell_differences(trace.rho)))


def shock_formation_step(trace: DensityTrace) -> int:
    """Snapshot step with the largest one-cell density jump.

    Used as the deterministic 'after shock formation' marker for the
    error comparisons; the maximum of the discrete gradient is a
    parameter-free proxy for the fully formed shock.  A NaN jump counts
    as the largest, so the first snapshot holding a NaN is the step.
    """
    return int(trace.steps[int(np.argmax(_cell_jumps(trace.rho)))])


def shock_onset_step(trace: DensityTrace) -> int | None:
    """First snapshot step whose max one-cell jump reaches twice the first snapshot's jump.

    Marks the onset of nonlinear steepening (the shock beginning to
    form), which precedes the gradient maximum used by
    :func:`shock_formation_step`.  A NaN jump counts as reaching it, so a
    snapshot holding a NaN is at or after the onset.
    """
    jumps = _cell_jumps(trace.rho)
    reached = np.flatnonzero(np.isnan(jumps) | (jumps >= 2.0 * jumps[0]))
    return int(trace.steps[reached[0]]) if reached.size else None


def analytic_config_for(
    grid: Grid1D,
    params: CollisionParams,
    rho_b: float,
    rho_a: float,
    nu_variant: str = "corrected",
    l_trunc: int = 80,
) -> AnalyticConfig:
    """Analytic configuration matching a lattice setup.

    ``nu_variant`` selects the corrected viscosity or the original
    formulation's cot^2(theta)/2 value for the comparison baseline.
    """
    coeffs = predicted_coefficients_1d(params, grid.dx, grid.dt)
    if nu_variant == "corrected":
        nu = coeffs.nu
    elif nu_variant == "yepez":
        nu = coeffs.nu_yepez
    else:
        raise ValueError(f"nu_variant must be 'corrected' or 'yepez', got {nu_variant!r}")
    return AnalyticConfig(
        length_x=grid.length_x,
        rho_b=rho_b,
        rho_a=rho_a,
        c=grid.c,
        alpha=params.alpha(),
        nu=nu,
        l_trunc=l_trunc,
    )


def mse_compare(trace: DensityTrace, cfg: AnalyticConfig) -> MetricSeries:
    """Mean squared error between a 1D trace and the analytic solution.

    The analytic density is sampled at the lattice sites and snapshot
    times of the trace.
    """
    _check_one_1d_run(trace, "mse_compare")
    if abs(cfg.length_x - trace.grid.length_x) > 1e-12 * cfg.length_x:
        raise ValueError(
            f"grid mismatch: analytic L_x={cfg.length_x}, trace L_x={trace.grid.length_x}"
        )
    xs = trace.grid.positions()
    ana = evaluate_on_grid(cfg, xs, trace.times())
    mse = np.mean((trace.rho - ana) ** 2, axis=1)
    return MetricSeries(steps=trace.steps.copy(), values=mse)


def l2_compare_2d(qlg: DensityTrace, fdm: DensityTrace, rho_b: float) -> MetricSeries:
    """Relative L2 distance ||rho_qlg - rho_fdm|| / ||rho_qlg - rho_b||.

    Both traces must share the grid and snapshot stride; the series
    covers the common snapshots, i.e. it stops where the (possibly
    divergence-truncated) reference trace stops.  Snapshots where the
    lattice field is uniform have an undefined metric and are reported
    as NaN.
    """
    if qlg.rho.shape[1:] != fdm.rho.shape[1:]:
        raise ValueError(f"grid mismatch: {qlg.rho.shape[1:]} vs {fdm.rho.shape[1:]}")
    n = min(qlg.rho.shape[0], fdm.rho.shape[0])
    if not np.array_equal(qlg.steps[:n], fdm.steps[:n]):
        raise ValueError("snapshot steps differ between the traces")
    axes = tuple(range(1, qlg.rho.ndim))
    num = np.sqrt(np.sum((qlg.rho[:n] - fdm.rho[:n]) ** 2, axis=axes))
    den = np.sqrt(np.sum((qlg.rho[:n] - rho_b) ** 2, axis=axes))
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.nan)
    return MetricSeries(steps=qlg.steps[:n].copy(), values=values)


def _failed_row(theta: float, steps: int, exc: Exception) -> SweepRow:
    nan = float("nan")
    return SweepRow(theta, nan, nan, None, 0.0, steps, error=str(exc))


def viscosity_sweep(
    thetas,
    steps: int,
    n_x: int = 64,
    rho_a: float = 0.005,
    rho_b: float = 1.0,
    zeta: float = 0.0,
    xi: float = 0.0,
    variant: str = "pde_consistent",
) -> list:
    """Measure the effective viscosity over a theta grid (lattice units).

    For each theta: run the lattice gas (N_x sites, unit spacing),
    apply :func:`experimental_viscosity`, and emit one row with the
    predicted viscosities recomputed from the angles.  Per-theta
    failures are recorded in the row and the sweep continues.

    The angles with valid parameters run in batches, one (B, n_x) lattice
    run per batch of B angles whose traces fit in ``_SWEEP_BATCH_BYTES``;
    the estimator then runs on each angle's rows alone.  A batch that
    fails is rerun one angle at a time, so every row, error text included,
    is the one a run of its angle alone gives.
    """
    grid = Grid1D(n_x=n_x, length_x=float(n_x))
    thetas = [float(theta) for theta in thetas]
    rows = {}
    runs = []  # (row index, params, predicted coefficients) of each valid angle
    for i, theta in enumerate(thetas):
        try:
            params = CollisionParams(theta=theta, zeta=zeta, xi=xi)
            runs.append((i, params, predicted_coefficients_1d(params, grid.dx, grid.dt)))
        except (ValueError, ArithmeticError) as exc:
            rows[i] = _failed_row(theta, steps, exc)

    def run(batch):
        params = [p for _, p, _ in batch]
        try:
            trace = run_qlg_1d(grid, params if len(batch) > 1 else params[0], rho_b, rho_a, steps)
            rho = trace.rho.reshape(len(trace.steps), len(batch), n_x)  # a view, one angle too
            for k, (i, p, coeffs) in enumerate(batch):
                one = DensityTrace(rho[:, k], trace.steps, grid)
                est = experimental_viscosity(one, p.alpha(), variant=variant)
                nu = (coeffs.nu, coeffs.nu_yepez)
                rows[i] = SweepRow(p.theta, *nu, est.value, est.kept_fraction, steps)
        except (ValueError, ArithmeticError) as exc:
            if len(batch) == 1:
                rows[batch[0][0]] = _failed_row(batch[0][1].theta, steps, exc)
            else:
                for item in batch:
                    run([item])

    per_batch = max(1, _SWEEP_BATCH_BYTES // (8 * n_x * (max(steps, 0) + 1)))
    for start in range(0, len(runs), per_batch):
        run(runs[start : start + per_batch])
    return [rows[i] for i in range(len(thetas))]


def steepness_sweep(
    thetas,
    steps_list,
    n_x_list=(64,),
    length_x: float = 2.0,
    rho_a: float = 0.4,
    rho_b: float = 1.0,
    zeta: float = 0.0,
    xi: float = 0.0,
) -> list:
    """Shock steepness over (theta, T, N_x) combinations.

    Returns rows of dicts with keys theta, n_x, T, delta.

    Every (N_x, theta) lattice steps in one flat state for max(T) steps: one
    group per N_x in ``n_x_list`` order, each the (B, n_x) batch of
    :func:`init_cosine_1d` raveled, with one parameter set per site.  A step is
    one :func:`collide_closed_form` call, which checks every site, and one
    gather per population that streams each row periodically, so every site
    takes the arithmetic of its run alone.  No trace is kept:
    :func:`shock_steepness` runs on each lattice's view of blocks of at most
    ``_BLOCK`` density snapshots, with a block ending at every T,
    and a running maximum per lattice gives each row.  That equals the
    steepness of the whole trace up to T bit for bit: the maximum is exact in
    any order, and rounding c * jump is monotone in the jump.  A range error
    names the step, N_x, theta row and site of the first bad f0 population in
    flat order (groups, then rows, then sites), or failing that of f1.
    """
    thetas = [float(theta) for theta in thetas]
    if not len(steps_list) or any(int(T) != T or T < 0 for T in steps_list):
        raise ValueError(f"steps_list must hold integer step counts >= 0, got {steps_list!r}")
    if not thetas or not len(n_x_list):
        return []
    longest = int(max(steps_list))
    params = tuple(CollisionParams(theta=theta, zeta=zeta, xi=xi) for theta in thetas)
    grids = [Grid1D(n_x=int(n_x), length_x=length_x) for n_x in n_x_list]
    starts = [init_cosine_1d(grid, rho_b, rho_a, params) for grid in grids]
    f0 = np.concatenate([fld.f0.ravel() for fld in starts])
    f1 = np.concatenate([fld.f1.ravel() for fld in starts])
    offsets = np.cumsum([0] + [fld.f0.size for fld in starts])
    site_params = tuple(p for grid in grids for p in params for _ in range(grid.n_x))
    # a population moving by `shift` takes site x of its row from site (x - shift) mod n_x
    x = np.concatenate([np.tile(np.arange(grid.n_x), len(params)) for grid in grids])
    n = np.repeat([grid.n_x for grid in grids], np.diff(offsets))
    sources = [np.arange(f0.size) - x + (x - shift) % n for (shift,) in _SHIFTS_1D]

    block = np.empty((_BLOCK, f0.size))
    first = 0  # step of the block's first snapshot
    running = [[-math.inf] * len(params) for _ in grids]
    delta_at = {}  # T -> delta of every lattice over steps 0..T, per grid
    for t in range(longest + 1):
        if t:
            try:
                g0, g1 = collide_closed_form(f0, f1, site_params)
            except PopulationRangeError as exc:
                g = int(np.searchsorted(offsets, exc.index, side="right")) - 1
                row, site = divmod(int(exc.index - offsets[g]), grids[g].n_x)
                where = f"n_x={grids[g].n_x}, theta row {row} (theta={thetas[row]!r}), site x={site}"
                message = f"collision failed at t={t - 1}, {where}: {exc}"
                raise PopulationRangeError(message, exc.index, exc.value) from exc
            f0, f1 = g0.take(sources[0]), g1.take(sources[1])
        np.add(f0, f1, out=block[t - first])
        if t - first + 1 < _BLOCK and t not in steps_list:
            continue
        recorded = np.arange(first, t + 1)
        for grid, start, best in zip(grids, offsets, running):
            for k in range(len(params)):
                lo = start + k * grid.n_x
                sub = DensityTrace(block[: t - first + 1, lo : lo + grid.n_x], recorded, grid)
                best[k] = max(best[k], shock_steepness(sub))
        delta_at[t] = [list(best) for best in running]
        first = t + 1
    return [
        {"theta": theta, "n_x": grid.n_x, "T": int(t_steps), "delta": delta_at[t_steps][g][k]}
        for g, grid in enumerate(grids)
        for k, theta in enumerate(thetas)
        for t_steps in steps_list
    ]
