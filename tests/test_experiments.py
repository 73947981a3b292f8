"""Estimator and comparison tests, including the sign-convention calibration."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlgburgers.collision import CollisionParams, PopulationRangeError, predicted_coefficients_1d
from qlgburgers.experiments import (
    DensityTrace,
    analytic_config_for,
    experimental_viscosity,
    l2_compare_2d,
    mse_compare,
    run_fdm_2d,
    run_qlg_1d,
    run_qlg_2d,
    shock_formation_step,
    shock_onset_step,
    shock_steepness,
    steepness_sweep,
    viscosity_sweep,
    _BLOCK,
    _row_sums,
)
from qlgburgers.analytic import evaluate_on_grid
from qlgburgers.fdm import _axis_aligned, substeps_auto
from qlgburgers.lattice import (
    AXIS_SYMMETRIC,
    Grid1D,
    Grid2D,
    density,
    init_cosine_1d,
    predicted_coefficients_2d,
    step_1d,
)

P3 = CollisionParams(theta=math.pi / 3)


def lattice_grid(n):
    return Grid1D(n_x=n, length_x=float(n))


class TestDensityTrace:
    def test_uniform_stride_enforced(self):
        g = lattice_grid(8)
        with pytest.raises(ValueError, match="stride"):
            DensityTrace(rho=np.ones((3, 8)), steps=np.array([0, 1, 3]), grid=g)

    def test_snapshot_counts_must_agree(self):
        with pytest.raises(ValueError, match="steps and rho snapshot counts differ"):
            DensityTrace(rho=np.ones((3, 8)), steps=np.array([0, 1]), grid=lattice_grid(8))

    def test_one_snapshot_has_no_stride(self):
        trace = DensityTrace(rho=np.ones((1, 8)), steps=np.array([0]), grid=lattice_grid(8))
        with pytest.raises(ValueError, match="fewer than 2 snapshots, stride undefined"):
            trace.stride

    @pytest.mark.parametrize("steps, stride", [(-1, 1), (4, 0), (4, -2)])
    def test_run_rejects_negative_steps_and_stride_below_one(self, steps, stride):
        with pytest.raises(ValueError) as info:
            run_qlg_1d(lattice_grid(8), P3, 1.0, 0.1, steps, stride=stride)
        assert str(info.value) == f"need steps >= 0 and snapshot stride >= 1, got {steps} and {stride}"

    def test_times(self):
        g = Grid1D(n_x=8, length_x=2.0)
        tr = DensityTrace(rho=np.ones((3, 8)), steps=np.array([0, 2, 4]), grid=g)
        np.testing.assert_allclose(tr.times(), [0.0, 2 * g.dt, 4 * g.dt])


def reference_viscosity(trace, alpha, sign=-1.0, filter_sigmas=1.0):
    """The estimator's per-step loop on numpy's mean/std, over the whole trace at once."""
    rho = trace.rho
    cur, fwd, bwd = rho[:-1], np.roll(rho[:-1], -1, axis=1), np.roll(rho[:-1], 1, axis=1)
    num = rho[1:] - cur + sign * alpha * (cur - 1.0) * (fwd - cur)
    den = bwd - 2.0 * cur + fwd
    per_step, steps, n_kept, n_skipped = [], [], 0, 0
    for k in range(num.shape[0]):
        valid = np.abs(den[k]) >= 1e-12
        if not np.any(valid):
            n_skipped += 1
            continue
        est = num[k, valid] / den[k, valid]
        keep = np.abs(est - est.mean()) <= filter_sigmas * est.std()
        if not np.any(keep):
            n_skipped += 1
            continue
        n_kept += int(np.count_nonzero(keep))
        per_step.append(float(est[keep].mean()))
        steps.append(int(trace.steps[k]))
    scale = trace.grid.dx**2 / trace.grid.dt
    return scale * np.asarray(per_step), np.asarray(steps), n_kept / num.size, n_skipped


class TestExperimentalViscosity:
    def test_calibration_on_fdm_trace(self):
        # ground-truth: reference solver with known (c_s, nu); the
        # pde-consistent variant recovers nu within 2 percent, the literal
        # + sign does not -- this pins the estimator convention
        grid = lattice_grid(64)
        theta = 1.3
        params = CollisionParams(theta=theta)
        coeffs = predicted_coefficients_1d(params, grid.dx, grid.dt)
        trace, div = run_fdm_2d(
            grid, _axis_aligned(coeffs.c_s, coeffs.nu), 1.0, 0.005, steps=400, stride=1, substeps=4
        )
        assert div is None
        est = experimental_viscosity(trace, params.alpha(), variant="pde_consistent")
        # the one-sigma filter keeps just under half the points here; the
        # recovery is far inside the 2 percent band regardless
        assert est.kept_fraction > 0.4
        assert est.value == pytest.approx(coeffs.nu, rel=0.02)
        literal = experimental_viscosity(trace, params.alpha(), variant="literal")
        assert abs(literal.value - coeffs.nu) > abs(est.value - coeffs.nu)

    def test_calibration_with_explicit_alpha(self):
        # the estimator also runs on traces with no collision params at all
        grid = lattice_grid(64)
        c_s, nu = 0.25, 0.04
        coeffs = _axis_aligned(c_s, nu)
        trace, _ = run_fdm_2d(grid, coeffs, 1.0, 0.005, steps=400, stride=1, substeps=4)
        est = experimental_viscosity(trace, c_s * grid.dt / grid.dx)
        assert est.value == pytest.approx(nu, rel=0.02)

    def test_uniform_trace_gives_no_estimate(self):
        grid = lattice_grid(32)
        trace = run_qlg_1d(grid, P3, 1.2, 0.0, steps=8, stride=1)
        est = experimental_viscosity(trace, P3.alpha())
        assert est.value is None
        assert est.n_skipped_steps == 8
        assert est.kept_fraction == 0.0

    def test_qlg_trace_matches_prediction(self):
        grid = lattice_grid(64)
        params = CollisionParams(theta=1.0)
        coeffs = predicted_coefficients_1d(params, grid.dx, grid.dt)
        trace = run_qlg_1d(grid, params, 1.0, 0.005, steps=300, stride=1)
        est = experimental_viscosity(trace, params.alpha())
        assert est.value == pytest.approx(coeffs.nu, rel=0.05)

    def test_blocks_equal_whole_trace_formula(self):
        # 600 step pairs span five blocks; the steps are offset so that a
        # block that indexed steps from its own start would show
        grid = lattice_grid(64)
        params = CollisionParams(theta=1.3)
        run = run_qlg_1d(grid, params, 1.0, 0.005, steps=600, stride=1)
        trace = DensityTrace(rho=run.rho, steps=run.steps + 1000, grid=grid)
        est = experimental_viscosity(trace, params.alpha())
        rho, a = trace.rho, params.alpha()
        cur, fwd, bwd = rho[:-1], np.roll(rho[:-1], -1, axis=1), np.roll(rho[:-1], 1, axis=1)
        num = rho[1:] - cur - a * (cur - 1.0) * (fwd - cur)
        den = bwd - 2.0 * cur + fwd
        expected = []
        for k in range(num.shape[0]):
            valid = np.abs(den[k]) >= 1e-12
            e = num[k, valid] / den[k, valid]
            expected.append(float(e[np.abs(e - e.mean()) <= e.std()].mean()))
        np.testing.assert_array_equal(est.steps, trace.steps[:-1])
        scale = grid.dx**2 / grid.dt
        assert est.per_step.tobytes() == (scale * np.asarray(expected)).tobytes()

    @pytest.mark.parametrize(
        "theta, n_x, rho_a, variant",
        [
            (0.08, 64, 0.005, "pde_consistent"),
            (0.8, 64, 0.005, "pde_consistent"),
            (1.3, 64, 0.005, "pde_consistent"),
            (math.pi / 2, 64, 0.005, "pde_consistent"),
            (1.2, 63, 0.005, "pde_consistent"),
            (1.3, 64, 0.0, "pde_consistent"),
            (1.0, 33, 0.3, "literal"),
            (1.3, 129, 0.005, "pde_consistent"),
            (1.1, 300, 0.005, "pde_consistent"),
        ],
    )
    def test_equals_numpy_mean_and_std_bitwise(self, theta, n_x, rho_a, variant):
        # 300 step pairs span three blocks; fig3's bytes rest on these per-step sums.
        # n_x 129 and 300 put more than numpy's 128-element pairwise block in a
        # step; no case may warn, the ones where every step is skipped included
        params = CollisionParams(theta=theta)
        trace = run_qlg_1d(lattice_grid(n_x), params, 1.0, rho_a, steps=300, stride=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = experimental_viscosity(trace, params.alpha(), variant=variant)
        sign = 1.0 if variant == "literal" else -1.0
        per_step, steps, kept, skipped = reference_viscosity(trace, params.alpha(), sign)
        assert est.per_step.tobytes() == per_step.tobytes()
        assert est.steps.tobytes() == steps.tobytes()
        assert (est.kept_fraction, est.n_skipped_steps) == (kept, skipped)
        if rho_a == 0.0:
            assert skipped == 300 and est.value is None

    def test_skipped_and_kept_steps_mix_in_one_block(self):
        # pairs of snapshots, each pair one of: flat (no valid point), a ramp
        # (valid only at the wrap), a held two-valued pattern (two estimates,
        # each one sigma from their mean) and sparse noise (any count)
        rng = np.random.default_rng(16)
        n_x, x = 40, np.arange(40)
        rows = []
        for kind in rng.integers(0, 4, 150):
            if kind == 3:
                rows += [1.0 + rng.normal(0, 0.01, n_x) * (rng.random(n_x) < 0.7) for _ in range(2)]
            else:
                row = (np.ones(n_x), 1.0 + 0.01 * x / n_x, 1.0 + 0.01 * (x % 2))[kind]
                rows += [row, row]
        trace = DensityTrace(rho=np.array(rows), steps=np.arange(300), grid=lattice_grid(n_x))
        params = CollisionParams(theta=1.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = experimental_viscosity(trace, params.alpha())
        per_step, steps, kept, skipped = reference_viscosity(trace, params.alpha())
        assert est.per_step.tobytes() == per_step.tobytes()
        assert est.steps.tobytes() == steps.tobytes()
        assert (est.kept_fraction, est.n_skipped_steps) == (kept, skipped)
        cur = trace.rho[:-1]
        den = np.roll(cur, 1, axis=1) - 2.0 * cur + np.roll(cur, -1, axis=1)
        n_valid = np.count_nonzero(np.abs(den) >= 1e-12, axis=1)
        first_block = n_valid[:_BLOCK].tolist()
        assert {0, 2, n_x} <= set(first_block) and len(set(first_block)) > 5
        # at one sigma every step with a valid point keeps one: only the flat pairs are skipped
        assert steps.tolist() == np.flatnonzero(n_valid).tolist()
        assert 0 < first_block.count(0) < _BLOCK

    def test_reductions_equal_numpy_mean_and_std(self):
        # the estimator's sums are numpy's own _mean/_var arithmetic; a numpy
        # that changes either would show here before it moves fig3's bytes
        rng = np.random.default_rng(7)
        for n in range(1, 201):
            for x in (rng.normal(0.07, 0.3, n), rng.uniform(-1e3, 1e3, n)):
                mean = np.add.reduce(x) / n
                dev = x - mean
                std = np.sqrt(np.add.reduce(dev * dev) / n)
                assert mean.tobytes() == x.mean().tobytes()
                assert std.tobytes() == x.std().tobytes()

    def test_requires_consecutive_snapshots(self):
        grid = lattice_grid(32)
        trace = run_qlg_1d(grid, P3, 1.0, 0.01, steps=10, stride=2)
        with pytest.raises(ValueError, match="stride"):
            experimental_viscosity(trace, P3.alpha())

    def test_requires_1d(self):
        grid = Grid2D(n_x=8, n_y=8, ds=1.0)
        trace = run_qlg_2d(grid, P3, AXIS_SYMMETRIC, 1.0, 0.01, steps=4, stride=1)
        with pytest.raises(ValueError, match="1D"):
            experimental_viscosity(trace, P3.alpha())

    def test_one_snapshot_is_too_short(self):
        trace = run_qlg_1d(lattice_grid(16), P3, 1.0, 0.05, 0)
        with pytest.raises(ValueError, match="trace too short: need at least 2 consecutive snapshots"):
            experimental_viscosity(trace, P3.alpha())

    def test_unknown_variant_rejected(self):
        trace = run_qlg_1d(lattice_grid(16), P3, 1.0, 0.05, 4)
        with pytest.raises(ValueError, match="variant must be 'literal' or 'pde_consistent', got 'plus'"):
            experimental_viscosity(trace, P3.alpha(), variant="plus")


class TestRowSums:
    # the estimator's grouped sums equal np.add.reduce on each row alone, bit for bit;
    # entries past a row's count hold NaN or inf and must never reach its sum

    @staticmethod
    def check(values, count):
        with np.errstate(invalid="ignore", over="ignore"):
            got = _row_sums(values, count)
            want = np.array([np.add.reduce(values[i, :n]) for i, n in enumerate(count)])
        assert got.tobytes() == want.tobytes()
        return got

    def test_counts_0_to_300_mixed_in_one_block(self):
        rng = np.random.default_rng(16)
        count = np.concatenate([rng.permutation(301), rng.integers(0, 301, 99)])
        scale = 10.0 ** rng.integers(-8, 9, (len(count), 1))
        values = rng.normal(0.0, 1.0, (len(count), 310)) * scale
        special = rng.random(values.shape) * (np.arange(len(count)) % 2 == 1)[:, None]
        values[special > 0.98] = -0.0
        values[(special > 0.5) & (special < 0.502)] = np.nan
        values[(special > 0.3) & (special < 0.303)] = np.inf
        values[(special > 0.1) & (special < 0.103)] = -np.inf
        values[4] = -0.0
        tail = np.arange(values.shape[1]) >= count[:, None]
        values[tail] = rng.choice([np.nan, np.inf, -np.inf], np.count_nonzero(tail))
        got = self.check(values, count)
        clean = np.arange(len(count)) % 2 == 0
        assert np.all(np.isfinite(got[clean])) and np.all(got[count == 0] == 0.0)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.lists(st.floats(), max_size=40), min_size=1, max_size=8),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_any_floats(self, rows, pad):
        count = np.array([len(r) for r in rows])
        values = np.full((len(rows), int(count.max()) + 3), pad)
        for i, r in enumerate(rows):
            values[i, : len(r)] = r
        self.check(values, count)


class TestShockSteepness:
    def test_uniform_trace_zero(self):
        grid = lattice_grid(32)
        trace = run_qlg_1d(grid, P3, 1.1, 0.0, steps=5, stride=1)
        assert shock_steepness(trace) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_front(self):
        # rho = (..., 1+eps, 1-eps, ...) has a single jump of 2 eps, so
        # Delta = c * 2 eps
        g = Grid1D(n_x=16, length_x=2.0)
        eps = 0.05
        rho = np.ones(16)
        rho[:8] = 1 + eps
        rho[8:] = 1 - eps
        trace = DensityTrace(rho=rho[None, :], steps=np.array([0]), grid=g)
        assert shock_steepness(trace) == pytest.approx(g.c * 2 * eps, rel=1e-12)

    def test_monotone_in_window_length(self):
        grid = Grid1D(n_x=64, length_x=2.0)
        params = CollisionParams(theta=1.45)
        long_trace = run_qlg_1d(grid, params, 1.0, 0.4, steps=2000, stride=1)
        short = DensityTrace(rho=long_trace.rho[:201], steps=long_trace.steps[:201], grid=grid)
        assert shock_steepness(long_trace) >= shock_steepness(short)


class TestShockMarkers:
    def test_formation_after_onset(self):
        grid = Grid1D(n_x=64, length_x=2.0)
        trace = run_qlg_1d(grid, P3, 1.0, 0.4, steps=300, stride=1)
        onset = shock_onset_step(trace)
        formation = shock_formation_step(trace)
        assert onset is not None
        assert onset <= formation

    def test_onset_none_for_smooth_run(self):
        grid = Grid1D(n_x=64, length_x=2.0)
        trace = run_qlg_1d(grid, CollisionParams(theta=1.55), 1.0, 0.005, steps=50, stride=1)
        assert shock_onset_step(trace) is None

    @staticmethod
    def cell_jump(snap):
        """The largest |rho(next cell) - rho(cell)| over every axis, periodic, cell by cell."""
        out = 0.0
        for cell in np.ndindex(snap.shape):
            for axis in range(snap.ndim):
                nb = list(cell)
                nb[axis] = (nb[axis] + 1) % snap.shape[axis]
                out = max(out, abs(snap[tuple(nb)] - snap[cell]))
        return out

    @pytest.mark.parametrize("shape", [(16,), (6, 5)])
    def test_markers_equal_cell_by_cell_jumps(self, shape):
        rng = np.random.default_rng(13)
        rho = rng.uniform(0.5, 1.5, (9, *shape)) * rng.uniform(0.1, 3.0, (9,) + (1,) * len(shape))
        grid = Grid1D(n_x=16, length_x=2.0) if len(shape) == 1 else Grid2D(n_x=6, n_y=5, ds=1.0)
        trace = DensityTrace(rho=rho, steps=np.arange(0, 27, 3), grid=grid)
        jumps = [self.cell_jump(snap) for snap in rho]
        assert shock_formation_step(trace) == 3 * int(np.argmax(jumps))
        onset = next((3 * k for k, j in enumerate(jumps) if j >= 2.0 * jumps[0]), None)
        assert shock_onset_step(trace) == onset
        if len(shape) == 1:
            assert shock_steepness(trace) == grid.c * max(jumps)

    def test_nan_propagates_in_every_marker(self):
        # a NaN jump counts as the largest: steepness is NaN, the first NaN
        # snapshot is the formation step, and it reaches the onset, which the
        # finite jumps, below twice the first, do not
        grid = Grid1D(n_x=16, length_x=2.0)
        rho = 1.0 + 0.1 * np.sin(np.arange(16) * 0.4) * np.arange(1, 7)[:, None] ** 0.1
        rho[3, 5] = np.nan
        trace = DensityTrace(rho=rho, steps=np.arange(0, 12, 2), grid=grid)
        assert math.isnan(shock_steepness(trace))
        assert shock_formation_step(trace) == 6
        assert shock_onset_step(trace) == 6
        rho[0, 0] = np.nan
        assert shock_onset_step(trace) == 0
        assert shock_formation_step(trace) == 0


class TestMseCompare:
    def test_zero_against_own_samples(self):
        grid = Grid1D(n_x=32, length_x=2.0)
        cfg = analytic_config_for(grid, P3, 1.0, 0.2)
        steps = np.arange(0, 33, 8)
        rho = evaluate_on_grid(cfg, grid.positions(), steps * grid.dt)
        trace = DensityTrace(rho=rho, steps=steps, grid=grid)
        series = mse_compare(trace, cfg)
        np.testing.assert_allclose(series.values, 0.0, atol=1e-20)

    def test_grid_mismatch_rejected(self):
        grid = Grid1D(n_x=32, length_x=2.0)
        other = Grid1D(n_x=32, length_x=4.0)
        cfg = analytic_config_for(other, P3, 1.0, 0.2)
        trace = run_qlg_1d(grid, P3, 1.0, 0.2, steps=4, stride=1)
        with pytest.raises(ValueError, match="mismatch"):
            mse_compare(trace, cfg)

    def test_corrected_beats_yepez_after_shock(self):
        grid = Grid1D(n_x=64, length_x=2.0)
        trace = run_qlg_1d(grid, P3, 1.0, 0.4, steps=256, stride=4)
        mse_corr = mse_compare(trace, analytic_config_for(grid, P3, 1.0, 0.4, "corrected"))
        mse_yep = mse_compare(trace, analytic_config_for(grid, P3, 1.0, 0.4, "yepez"))
        t_shock = shock_formation_step(trace)
        after = trace.steps >= t_shock
        wins = np.count_nonzero(mse_corr.values[after] < mse_yep.values[after])
        assert wins / np.count_nonzero(after) >= 0.9


class TestL2Compare2D:
    def test_identical_traces_zero(self):
        grid = Grid2D(n_x=16, n_y=16, ds=1.0)
        trace = run_qlg_2d(grid, P3, AXIS_SYMMETRIC, 1.0, 0.1, steps=10, stride=2)
        series = l2_compare_2d(trace, trace, rho_b=1.0)
        np.testing.assert_allclose(series.values, 0.0, atol=1e-15)

    def test_uniform_field_is_nan(self):
        grid = Grid2D(n_x=8, n_y=8, ds=1.0)
        qlg = run_qlg_2d(grid, P3, AXIS_SYMMETRIC, 1.0, 0.0, steps=2, stride=1)
        coeffs = predicted_coefficients_2d(AXIS_SYMMETRIC, P3, 1.0, 1.0)
        substeps = substeps_auto(coeffs, grid.ds, grid.dt)
        fdm, _ = run_fdm_2d(grid, coeffs, 1.0, 0.0, steps=2, stride=1, substeps=substeps)
        series = l2_compare_2d(qlg, fdm, rho_b=1.0)
        assert np.all(np.isnan(series.values))

    def test_mismatch_rejected(self):
        g1 = Grid2D(n_x=8, n_y=8, ds=1.0)
        g2 = Grid2D(n_x=16, n_y=8, ds=1.0)
        a = run_qlg_2d(g1, P3, AXIS_SYMMETRIC, 1.0, 0.1, steps=2, stride=1)
        b = run_qlg_2d(g2, P3, AXIS_SYMMETRIC, 1.0, 0.1, steps=2, stride=1)
        with pytest.raises(ValueError, match="mismatch"):
            l2_compare_2d(a, b, rho_b=1.0)

    def test_snapshot_steps_must_agree(self):
        grid = Grid2D(n_x=8, n_y=8, ds=1.0)
        a = run_qlg_2d(grid, P3, AXIS_SYMMETRIC, 1.0, 0.1, steps=4, stride=1)
        b = run_qlg_2d(grid, P3, AXIS_SYMMETRIC, 1.0, 0.1, steps=8, stride=2)
        with pytest.raises(ValueError, match="snapshot steps differ between the traces"):
            l2_compare_2d(a, b, rho_b=1.0)

    def test_1d_embedded_reduction(self):
        # with the axis-aligned set and a y-constant start the 2D relative
        # L2 against the reference solver equals the 1D one to round-off
        n, steps, stride = 32, 40, 4
        params = CollisionParams(theta=1.1)
        g1 = lattice_grid(n)
        c = predicted_coefficients_1d(params, g1.dx, g1.dt)
        qlg1 = run_qlg_1d(g1, params, 1.0, 0.05, steps, stride=stride)
        fdm1, _ = run_fdm_2d(g1, _axis_aligned(c.c_s, c.nu), 1.0, 0.05, steps, stride, substeps=4)
        num = np.sqrt(np.sum((qlg1.rho - fdm1.rho) ** 2, axis=1))
        den = np.sqrt(np.sum((qlg1.rho - 1.0) ** 2, axis=1))

        g2 = Grid2D(n_x=n, n_y=8, ds=1.0)
        coeffs2 = predicted_coefficients_2d(AXIS_SYMMETRIC, params, 1.0, 1.0)
        # y-constant runs need a y-independent start: rho_a cos(2 pi j / N_y)
        # is absent only in the 1D-style initializer, so build the 2D traces
        # from the 1D ones by broadcasting
        qlg2 = DensityTrace(
            rho=np.repeat(qlg1.rho[:, :, None], 8, axis=2), steps=qlg1.steps, grid=g2
        )
        fdm2, _ = run_fdm_2d(g2, coeffs2, 1.0, 0.0, 0, stride=1, substeps=1)  # placeholder grid run
        fdm2 = DensityTrace(
            rho=np.repeat(fdm1.rho[:, :, None], 8, axis=2), steps=fdm1.steps, grid=g2
        )
        series = l2_compare_2d(qlg2, fdm2, rho_b=1.0)
        with np.errstate(invalid="ignore"):
            expected = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)
        np.testing.assert_allclose(series.values, expected, rtol=1e-12)


class TestSweepQualitative:
    def test_tail_needs_longer_runs(self):
        # short runs agree mid-range but drift in the large-angle tail,
        # where thermalization is slow; the long run pulls the tail in
        def rel_err(theta, steps):
            grid = lattice_grid(64)
            params = CollisionParams(theta=theta)
            coeffs = predicted_coefficients_1d(params, grid.dx, grid.dt)
            trace = run_qlg_1d(grid, params, 1.0, 0.005, steps, stride=1)
            est = experimental_viscosity(trace, params.alpha())
            return abs(est.value - coeffs.nu) / coeffs.nu

        mid_short = rel_err(0.8, 200)
        tail_short = rel_err(1.5, 200)
        tail_long = rel_err(1.5, 2000)
        assert mid_short < 0.05
        assert tail_short > 3 * mid_short
        assert tail_long < tail_short


class TestStreamingConvention:
    def test_standard_streaming_matches_analytic_reversed_does_not(self):
        # the empirical sign validation: only the default convention tracks
        # the closed-form solution; the reversed flag advects the other way
        grid = Grid1D(n_x=64, length_x=2.0)
        cfg = analytic_config_for(grid, P3, 1.0, 0.4, "corrected")
        std = run_qlg_1d(grid, P3, 1.0, 0.4, steps=128, stride=16)
        fld = init_cosine_1d(grid, 1.0, 0.4, P3)
        for _ in range(128):
            fld = step_1d(fld, P3, reversed_streaming=True)
        rev = DensityTrace(density(fld)[None], np.array([128]), grid)
        mse_std = mse_compare(std, cfg).values[-1]
        mse_rev = mse_compare(rev, cfg).values[-1]
        assert mse_std < 1e-3
        assert mse_rev > 50 * mse_std


class TestSweeps:
    def test_viscosity_sweep_rows(self):
        thetas = np.linspace(1.2, 1.5, 4)
        rows = viscosity_sweep(thetas, steps=60)
        assert len(rows) == 4
        assert rows[0].theta == pytest.approx(1.2)
        assert rows[-1].theta == pytest.approx(1.5)
        for r in rows:
            assert r.error == ""
            assert r.nu_exp is not None
            assert r.nu_pred == pytest.approx(
                predicted_coefficients_1d(CollisionParams(theta=r.theta), 1.0, 1.0).nu
            )

    @pytest.mark.parametrize("steps_list", [[8, 2.5], [-1], []])
    def test_steepness_sweep_needs_integer_step_counts(self, steps_list):
        with pytest.raises(ValueError) as info:
            steepness_sweep([1.0], steps_list, [8])
        assert str(info.value) == f"steps_list must hold integer step counts >= 0, got {steps_list!r}"

    def test_steepness_sweep_of_no_angles_is_empty(self):
        assert steepness_sweep([], [8], [8]) == []

    def test_sweep_records_failures_and_continues(self):
        rows = viscosity_sweep([1.3, float("nan")], steps=20)
        assert rows[0].error == ""
        assert rows[1].error != ""
        assert rows[1].nu_exp is None

    def test_sweep_determinism(self):
        thetas = [1.25, 1.4]
        a = viscosity_sweep(thetas, steps=50)
        b = viscosity_sweep(thetas, steps=50)
        assert [r.nu_exp for r in a] == [r.nu_exp for r in b]

    @pytest.mark.parametrize("init", ["equilibrium", "symmetric"])
    def test_batch_run_equals_single_runs(self, init):
        grid = Grid1D(n_x=33, length_x=2.0)
        params = [CollisionParams(theta=t) for t in (0.3, 1.1, math.pi / 2)]
        batch = run_qlg_1d(grid, params, 1.0, 0.4, 30, stride=3)
        assert batch.rho.shape == (11, 3, 33) and batch.is_1d
        for k, p in enumerate(params):
            single = run_qlg_1d(grid, p, 1.0, 0.4, 30, stride=3)
            assert np.array_equal(batch.rho[:, k], single.rho)
            assert np.array_equal(batch.steps, single.steps)
        with pytest.raises(ValueError, match=r"trace of one run; pass a batch's rows trace\.rho"):
            experimental_viscosity(batch, params[0].alpha())
        # the start and the streaming that run_qlg_1d fixes, as simulate1d may set them
        fld = init_cosine_1d(grid, 1.0, 0.4, tuple(params), init=init)
        singles = [init_cosine_1d(grid, 1.0, 0.4, p, init=init) for p in params]
        for _ in range(30):
            fld = step_1d(fld, tuple(params), reversed_streaming=True)
            singles = [step_1d(one, p, reversed_streaming=True) for one, p in zip(singles, params)]
            for k, one in enumerate(singles):
                assert np.array_equal(fld.f0[k], one.f0) and np.array_equal(fld.f1[k], one.f1)

    def test_failing_batch_rerun_per_angle(self, tmp_path, monkeypatch):
        # a population of the second angle leaves [0, 1] after step 20, so the
        # collision of step 21 fails inside a batch of three; the batch is
        # rerun angle by angle, and rows and manifest failure texts equal
        # those of a sweep that runs every angle alone
        import json

        import qlgburgers.experiments as ex
        import qlgburgers.lattice as lat
        import yaml

        from qlgburgers.cli import main

        bad = 1.25
        failing_batches = []
        real_collide = lat._collide

        def collide(fld, params, path):
            g0, g1 = real_collide(fld, params, path)
            thetas = [p.theta for p in (params if isinstance(params, tuple) else (params,))]
            if fld.t == 20 and bad in thetas:
                failing_batches.append(len(thetas))
                g0 = g0.copy()
                g0.reshape(len(thetas), -1)[thetas.index(bad), 3] = 1.5
            return g0, g1

        monkeypatch.setattr(lat, "_collide", collide)
        cfg = {
            "model": "viscosity-sweep",
            "run_id": "vs",
            "sweep": {"theta_start": 1.2, "theta_stop": 1.35, "count": 4, "T": 40},
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        results = {}
        for budget in (0, 3 * 8 * 64 * 41):  # every angle alone, then batches of 3
            monkeypatch.setattr(ex, "_SWEEP_BATCH_BYTES", budget)
            out = tmp_path / str(budget)
            assert main(["viscosity-sweep", "--config", str(path), "--out", str(out)]) == 0
            rows = viscosity_sweep(np.linspace(1.2, 1.35, 4), steps=40)
            manifest = json.loads((out / "manifest.json").read_text())
            results[budget] = (repr(rows), (out / "vs_sweep.csv").read_bytes(), manifest["results"])
        assert results[0] == results[3 * 8 * 64 * 41]
        assert failing_batches == [1, 1, 3, 1, 3, 1]
        (failure,) = results[0][2]["failures"]
        assert (failure["row"], failure["theta"]) == (1, 1.25)
        assert "t=21, site x=" in failure["error"]

    def test_steepness_blocks_equal_whole_trace(self):
        # T values straddle the 128-snapshot blocks and 256, out of order and with
        # T = 0; the reference takes shock_steepness of each angle's whole trace up to T
        thetas, steps_list = [0.9, 1.3, math.pi / 2], [300, 0, 257, 127, 129, 255, 128, 256]
        rows = steepness_sweep(thetas, steps_list=steps_list, n_x_list=[16, 9])
        expected = []
        for n_x in (16, 9):
            grid = Grid1D(n_x=n_x, length_x=2.0)
            for theta in thetas:
                params = CollisionParams(theta=theta)
                trace = run_qlg_1d(grid, params, 1.0, 0.4, 300)
                for t in steps_list:
                    sub = DensityTrace(trace.rho[: t + 1], trace.steps[: t + 1], grid)
                    expected.append({"theta": theta, "n_x": n_x, "T": t, "delta": shock_steepness(sub)})
        assert rows == expected

    def test_steepness_sweep_memory(self):
        # a fig6-size sweep: the flat state of all 24 lattices and its block of
        # 128 density snapshots; stepping each grid alone in 256-snapshot blocks
        # peaked at 4.8 MB
        args = (np.linspace(0.2, math.pi / 2, 12), [200, 2000], [64, 128])
        tracemalloc.start()
        try:
            rows = steepness_sweep(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 48
        assert peak < 4_000_000

    @pytest.mark.parametrize(
        "bad, named",
        [
            # (population, n_x group, theta row, site) of each injected value, then the one named
            ([("f0", 1, 2, 100)], (1, 2, 100)),
            ([("f1", 0, 0, 3), ("f0", 1, 1, 100)], (1, 1, 100)),
            ([("f0", 1, 0, 5), ("f0", 0, 2, 7)], (0, 2, 7)),
            ([("f1", 1, 0, 9), ("f1", 1, 0, 8)], (1, 0, 8)),
        ],
    )
    def test_steepness_range_error_names_grid_row_and_site(self, monkeypatch, bad, named):
        # values out of [0, 1] enter the collision of the field at t = 4; the
        # error names the first bad f0 site in flat order (groups, rows, sites),
        # or failing that the first bad f1 site, with its grid and theta
        import qlgburgers.experiments as ex

        thetas, n_x_list = [0.9, 1.0, 1.3], [16, 128]
        offsets = [0, len(thetas) * 16]
        real_collide, calls = ex.collide_closed_form, []

        def collide(f0, f1, params):
            calls.append(None)
            if len(calls) == 5:
                f0, f1 = f0.copy(), f1.copy()
                for pop, group, row, x in bad:
                    (f0 if pop == "f0" else f1)[offsets[group] + row * n_x_list[group] + x] = 1.5
            return real_collide(f0, f1, params)

        monkeypatch.setattr(ex, "collide_closed_form", collide)
        with pytest.raises(PopulationRangeError) as err:
            steepness_sweep(thetas, steps_list=[20], n_x_list=n_x_list)
        group, row, x = named
        index = offsets[group] + row * n_x_list[group] + x
        pop = next(p for p, *where in bad if tuple(where) == named)
        assert str(err.value) == (
            f"collision failed at t=4, n_x={n_x_list[group]}, theta row {row} "
            f"(theta={thetas[row]!r}), site x={x}: "
            f"population {pop} out of [0, 1]: 1.5 at flat index {index}"
        )
        assert (err.value.index, err.value.value) == (index, 1.5)
        assert len(calls) == 5

    def test_steepness_sweep_rows(self):
        rows = steepness_sweep([0.9, 1.3], steps_list=[50, 100], n_x_list=[32])
        assert len(rows) == 4
        by_key = {(r["theta"], r["T"]): r["delta"] for r in rows}
        assert by_key[(0.9, 100)] >= by_key[(0.9, 50)]
