"""Reference-solver tests: stencils, decay rates, convergence, divergence."""

import math
import tracemalloc

import numpy as np
import pytest

from qlgburgers import experiments
from qlgburgers.analytic import cole_hopf_density
from qlgburgers.collision import CollisionParams, predicted_coefficients_1d
from qlgburgers.experiments import analytic_config_for, run_fdm_2d
from qlgburgers.fdm import (
    FdmDivergenceError,
    _axis_aligned,
    divergence_check,
    fdm_step_2d,
    substeps_auto,
)
from qlgburgers.lattice import (
    AXIS_SYMMETRIC,
    ORTHOGONAL,
    TRIANGULAR,
    Grid1D,
    Grid2D,
    PdeCoefficients2D,
    VelocitySet2D,
    _cosine_density,
    predicted_coefficients_2d,
)

P3 = CollisionParams(theta=math.pi / 3)


def pure_diffusion(nu):
    return PdeCoefficients2D(a=np.zeros(2), b=np.zeros(2), D=nu * np.eye(2))


class TestStencils:
    def test_uniform_field_invariant_1d(self):
        rho = np.full(32, 1.3)
        out = fdm_step_2d(rho, _axis_aligned(2.0, 0.1), 1.0, 0.2)
        assert np.array_equal(out, rho)

    def test_uniform_field_invariant_2d(self):
        rho = np.full((16, 16), 0.7)
        coeffs = predicted_coefficients_2d(TRIANGULAR, P3, 1.0, 1.0)
        out = fdm_step_2d(rho, coeffs, ds=1.0, dt=0.1)
        assert np.array_equal(out, rho)

    def test_heat_mode_decay_rate_1d(self):
        # single cosine mode under pure diffusion decays by exp(-nu beta^2 t)
        n, nu, steps = 64, 0.08, 1000
        dx = dt = 1.0
        beta = 2 * math.pi / n
        x = np.arange(n)
        rho = 1.0 + 1e-4 * np.cos(beta * x)
        for _ in range(steps):
            rho = fdm_step_2d(rho, _axis_aligned(0.0, nu), dx, dt)
        amp = 2.0 * float(np.mean((rho - 1.0) * np.cos(beta * x)))
        expected = 1e-4 * math.exp(-nu * beta**2 * steps)
        assert amp == pytest.approx(expected, rel=0.01)

    def test_heat_mode_decay_rate_2d_anisotropic(self):
        # decay rate exp(-k.D.k t) for k along x with anisotropic D
        n, steps = 32, 500
        d = np.array([[0.12, 0.0], [0.0, 0.05]])
        coeffs = PdeCoefficients2D(a=np.zeros(2), b=np.zeros(2), D=d)
        beta = 2 * math.pi / n
        i = np.arange(n)[:, None]
        rho = 1.0 + 1e-4 * np.cos(beta * i) * np.ones((1, n))
        for _ in range(steps):
            rho = fdm_step_2d(rho, coeffs, ds=1.0, dt=1.0)
        amp = 2.0 * float(np.mean((rho - 1.0) * np.cos(beta * i)))
        expected = 1e-4 * math.exp(-d[0, 0] * beta**2 * steps)
        assert amp == pytest.approx(expected, rel=0.01)

    def test_cross_term_stencil(self):
        # a pure cos(kx + ky) mode exercises the corner stencil; decay rate
        # is exp(-k.D.k t) with the off-diagonal contribution included
        n, steps = 32, 200
        d = np.array([[0.08, 0.03], [0.03, 0.08]])
        coeffs = PdeCoefficients2D(a=np.zeros(2), b=np.zeros(2), D=d)
        beta = 2 * math.pi / n
        i = np.arange(n)[:, None]
        j = np.arange(n)[None, :]
        mode = np.cos(beta * (i + j))
        rho = 1.0 + 1e-4 * mode
        for _ in range(steps):
            rho = fdm_step_2d(rho, coeffs, ds=1.0, dt=1.0)
        amp = 2.0 * float(np.mean((rho - 1.0) * mode))
        rate = d[0, 0] + d[1, 1] + 2 * d[0, 1]
        expected = 1e-4 * math.exp(-rate * beta**2 * steps)
        assert amp == pytest.approx(expected, rel=0.01)

    def test_2d_rows_match_1d_bitwise(self):
        coeffs = predicted_coefficients_2d(AXIS_SYMMETRIC, P3, 1.0, 1.0)
        c1d = predicted_coefficients_1d(P3, 1.0, 1.0)
        rng = np.random.default_rng(3)
        row = rng.uniform(0.8, 1.2, 48)
        rho2 = np.tile(row[:, None], (1, 5))
        rho1 = row.copy()
        for _ in range(25):
            rho2 = fdm_step_2d(rho2, coeffs, ds=1.0, dt=1.0)
            rho1 = fdm_step_2d(rho1, _axis_aligned(c1d.c_s, c1d.nu), 1.0, 1.0)
        for j in range(5):
            assert np.array_equal(rho2[:, j], rho1)

    def test_mass_conserved(self):
        # both the central advection and the diffusion stencils telescope
        # over the periodic grid, so total mass is conserved to round-off
        rng = np.random.default_rng(11)
        rho = 1.0 + 0.1 * rng.standard_normal(64)
        mass0 = float(np.sum(rho))
        for _ in range(1000):
            rho = fdm_step_2d(rho, _axis_aligned(0.3, 0.05), 1.0, 0.5)
        assert float(np.sum(rho)) == pytest.approx(mass0, abs=1e-10)


def roll_step_1d(rho, c_s, nu, dx, dt):
    """Reference 1D update reading neighbours through np.roll."""
    fwd = np.roll(rho, -1)
    bwd = np.roll(rho, 1)
    drho = (fwd - bwd) / (2.0 * dx)
    d2rho = (fwd - 2.0 * rho + bwd) / (dx * dx)
    advection = (1.0 - rho) * (c_s * drho)
    return rho + dt * (-advection + nu * d2rho)


def roll_step_2d(rho, coeffs, ds, dt):
    """Reference 2D update reading neighbours through np.roll."""
    a, b, d = coeffs.a, coeffs.b, coeffs.D
    xf, xb = np.roll(rho, -1, axis=0), np.roll(rho, 1, axis=0)
    yf, yb = np.roll(rho, -1, axis=1), np.roll(rho, 1, axis=1)
    rx = (xf - xb) / (2.0 * ds)
    ry = (yf - yb) / (2.0 * ds)
    rxx = (xf - 2.0 * rho + xb) / (ds * ds)
    ryy = (yf - 2.0 * rho + yb) / (ds * ds)
    rxy = (
        np.roll(rho, (-1, -1), axis=(0, 1))
        - np.roll(rho, (-1, 1), axis=(0, 1))
        - np.roll(rho, (1, -1), axis=(0, 1))
        + np.roll(rho, (1, 1), axis=(0, 1))
    ) / (4.0 * ds * ds)
    advection = a[0] * rx + a[1] * ry + (1.0 - rho) * (b[0] * rx + b[1] * ry)
    diffusion = d[0, 0] * rxx + d[1, 1] * ryy + 2.0 * d[0, 1] * rxy
    return rho + dt * (-advection + diffusion)


class TestNeighbourReads:
    # the solver's neighbour reads must give the np.roll stencil bit for bit,
    # including axes of one and two cells, where both neighbours coincide
    COEFFS = PdeCoefficients2D(
        a=np.array([0.3, -0.2]),
        b=np.array([0.5, 0.7]),
        D=np.array([[0.11, 0.03], [0.03, 0.07]]),
    )

    @pytest.mark.parametrize("shape", [(5, 7), (1, 7), (5, 1), (2, 7), (5, 2), (1, 2)])
    def test_2d_matches_roll_reference(self, shape):
        rng = np.random.default_rng(5)
        rho = ref = rng.uniform(0.6, 1.4, shape)
        for _ in range(6):
            rho = fdm_step_2d(rho, self.COEFFS, ds=0.9, dt=0.3)
            ref = roll_step_2d(ref, self.COEFFS, ds=0.9, dt=0.3)
            assert np.array_equal(rho, ref)

    @pytest.mark.parametrize("n", [5, 1, 2])
    def test_1d_matches_roll_reference(self, n):
        rng = np.random.default_rng(6)
        rho = ref = rng.uniform(0.6, 1.4, n)
        for _ in range(6):
            rho = fdm_step_2d(rho, _axis_aligned(0.8, 0.05), 0.9, 0.3)
            ref = roll_step_1d(ref, c_s=0.8, nu=0.05, dx=0.9, dt=0.3)
            assert np.array_equal(rho, ref)

    FIG8_SET4 = VelocitySet2D(shifts=((-1, 1), (1, 0)), basis=((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)))

    @pytest.mark.parametrize("vset", [AXIS_SYMMETRIC, ORTHOGONAL, TRIANGULAR, FIG8_SET4])
    def test_velocity_sets_at_64_match_roll_reference(self, vset):
        # chained updates at the size compare-2d runs, one work dict for all of them
        coeffs = predicted_coefficients_2d(vset, P3, 1.0, 1.0)
        dt = 1.0 / substeps_auto(coeffs, 1.0, 1.0)
        rho = ref = np.random.default_rng(7).uniform(0.6, 1.4, (64, 64))
        work = {}
        for _ in range(12):
            rho = fdm_step_2d(rho, coeffs, ds=1.0, dt=dt, work=work)
            ref = roll_step_2d(ref, coeffs, ds=1.0, dt=dt)
            assert np.array_equal(rho, ref)

    def test_returned_fields_survive_later_calls(self):
        # every call returns a new array that no buffer kept in ``work`` shares
        rng = np.random.default_rng(8)
        work, fields = {}, [rng.uniform(0.6, 1.4, (64, 64))]
        for _ in range(4):
            fields.append(fdm_step_2d(fields[-1], self.COEFFS, ds=1.0, dt=0.3, work=work))
        kept = [f.copy() for f in fields]
        for _ in range(3):
            fdm_step_2d(rng.uniform(0.6, 1.4, (64, 64)), self.COEFFS, ds=1.0, dt=0.3, work=work)
        buffers = [buf for bufs in work.values() for buf in bufs]
        for field, copy in zip(fields, kept):
            assert np.array_equal(field, copy)
            assert not any(np.shares_memory(field, buf) for buf in buffers)

    def test_alternating_shapes_share_one_work_dict(self):
        rng = np.random.default_rng(9)
        shapes = [(64, 64), (5, 7), (1, 9), (5, 7), (64, 64), (1, 9)]
        rho = {s: rng.uniform(0.6, 1.4, s) for s in shapes}
        ref, line = dict(rho), rng.uniform(0.6, 1.4, 9)
        line_ref, work = line, {}
        for shape in shapes:
            rho[shape] = fdm_step_2d(rho[shape], self.COEFFS, ds=0.9, dt=0.3, work=work)
            ref[shape] = roll_step_2d(ref[shape], self.COEFFS, ds=0.9, dt=0.3)
            assert np.array_equal(rho[shape], ref[shape])
            # the 1D update runs on a (1, 9) row, the same buffers as the 2D one
            line = fdm_step_2d(line, _axis_aligned(0.8, 0.05), 0.9, 0.3, work)
            line_ref = roll_step_1d(line_ref, c_s=0.8, nu=0.05, dx=0.9, dt=0.3)
            assert np.array_equal(line, line_ref)
        assert sorted(work) == [(1, 9), (5, 7), (64, 64)]

    def test_rank_1_field_is_padded_as_one_row(self):
        # a row pads each of its 16384 cells with about one buffer entry per
        # pass; a (n, 1) column padded each with three and peaked at 2.5 MB
        rho = np.random.default_rng(13).uniform(0.6, 1.4, 16384)
        tracemalloc.start()
        try:
            out = fdm_step_2d(rho, _axis_aligned(0.8, 0.05), 0.9, 0.3, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == rho.shape
        assert peak < 1_600_000

    @pytest.mark.parametrize("n", [64, 5, 2, 1])
    def test_2d_update_of_a_line_is_the_1d_update(self, n):
        # a rank-1 field is one row: the 2D update with the axis-aligned set,
        # chained, gives the np.roll 1D update bit for bit and keeps the field rank 1
        coeffs = _axis_aligned(0.8, 0.05)
        rho = ref = np.random.default_rng(12).uniform(0.6, 1.4, n)
        work = {}
        for _ in range(8):
            rho = fdm_step_2d(rho, coeffs, ds=0.9, dt=0.3, work=work)
            ref = roll_step_1d(ref, c_s=0.8, nu=0.05, dx=0.9, dt=0.3)
            assert rho.shape == (n,)
            assert np.array_equal(rho, ref)

    @pytest.mark.parametrize(
        "bad, rho_a", [(np.nan, 0.4), (np.inf, 0.4), (-np.inf, 0.0), (None, 0.4), (None, 0.0)]
    )
    def test_divergence_text_and_step_match_roll_reference(self, bad, rho_a):
        # a start holding NaN or inf, or growth at a full unstable step until the
        # excursion check (rho_a > 0) or the finiteness check (rho_a = 0) trips
        coeffs = predicted_coefficients_2d(TRIANGULAR.index_space(), P3, 1.0, 1.0)
        start = 1.0 + 0.4 * np.random.default_rng(10).uniform(-1.0, 1.0, (64, 64))
        if bad is not None:
            start[3, 5] = bad

        def first_error(update):
            rho = start
            for step in range(1, 400):
                rho = update(rho)
                try:
                    divergence_check(rho, 1.0, rho_a, step)
                except FdmDivergenceError as err:
                    return str(err), err.step
            return None

        work = {}
        with np.errstate(all="ignore"):
            got = first_error(lambda rho: fdm_step_2d(rho, coeffs, 1.0, 1.0, work))
            want = first_error(lambda rho: roll_step_2d(rho, coeffs, 1.0, 1.0))
        assert got is not None and got == want
        if bad is not None:
            assert got[1] == 1


def chained_run_1d(grid, c_s, nu, rho_b, rho_a, steps, stride, substeps):
    """(snapshots, steps, (error text, step) or None) of axis-aligned updates and checks in a loop."""
    rho, coeffs = _cosine_density(grid, rho_b, rho_a), _axis_aligned(c_s, nu)
    snaps, kept = [rho], [0]
    for t in range(1, steps + 1):
        for _ in range(substeps):
            rho = fdm_step_2d(rho, coeffs, grid.dx, grid.dt / substeps)
        try:
            divergence_check(rho, rho_b, rho_a, t)
        except FdmDivergenceError as err:
            return snaps, kept, (str(err), err.step)
        if t % stride == 0:
            snaps.append(rho)
            kept.append(t)
    return snaps, kept, None


class TestRunFdm1D:
    # a 1D run is the 2D update of the axis-aligned set on one row, built
    # once per run: it must equal chained 1D updates and checks bit for bit
    @pytest.mark.parametrize("substeps", [1, 4])
    @pytest.mark.parametrize("c_s, nu, diverges", [(0.8, 0.05, False), (40.0, 1e-4, True)])
    def test_equals_chained_1d_updates(self, monkeypatch, substeps, c_s, nu, diverges):
        grid = Grid1D(n_x=32, length_x=2.0)
        errors = []

        def recorded_check(*args):
            try:
                divergence_check(*args)
            except FdmDivergenceError as err:
                errors.append((str(err), err.step))
                raise

        monkeypatch.setattr(experiments, "divergence_check", recorded_check)
        with np.errstate(all="ignore"):
            coeffs = _axis_aligned(c_s, nu)
            trace, div = run_fdm_2d(grid, coeffs, 1.0, 0.4, 400, stride=3, substeps=substeps)
            snaps, kept, error = chained_run_1d(grid, c_s, nu, 1.0, 0.4, 400, 3, substeps)
        assert (error is not None) == diverges
        assert errors == ([error] if diverges else [])
        assert div == (error[1] if diverges else None)
        assert np.array_equal(trace.steps, kept)
        assert np.array_equal(trace.rho, np.stack(snaps))


class TestConvergence:
    def test_second_order_against_cole_hopf(self):
        # fixed physical problem (c_s, nu from the 64-site setup), FDM on
        # refined grids, error at a pre-shock time; order >= 1.8 in dx
        base = Grid1D(n_x=64, length_x=2.0)
        coeffs = predicted_coefficients_1d(P3, base.dx, base.dt)
        cfg = analytic_config_for(base, P3, rho_b=1.0, rho_a=0.4)
        t_star = 20 * base.dt
        errors = []
        for n in (64, 128, 256):
            grid = Grid1D(n_x=n, length_x=2.0)
            steps = round(t_star / grid.dt)
            one_row = _axis_aligned(coeffs.c_s, coeffs.nu)
            trace, div = run_fdm_2d(grid, one_row, 1.0, 0.4, steps, stride=steps, substeps=1)
            assert div is None
            ana = cole_hopf_density(grid.positions(), t_star, cfg)
            errors.append(float(np.max(np.abs(trace.rho[-1] - ana))))
        order01 = math.log2(errors[0] / errors[1])
        order12 = math.log2(errors[1] / errors[2])
        assert order01 >= 1.8
        assert order12 >= 1.8


class TestDivergence:
    def test_nan_detected(self):
        with pytest.raises(FdmDivergenceError) as err:
            divergence_check(np.array([1.0, np.nan]), 1.0, 0.1, step=42)
        assert err.value.step == 42

    def test_excursion_detected(self):
        with pytest.raises(FdmDivergenceError):
            divergence_check(np.array([1.0, 2.5]), 1.0, 0.1, step=7)
        divergence_check(np.array([1.0, 1.5]), 1.0, 0.1, step=7)  # within 10 rho_a

    @pytest.mark.parametrize("rho_a", [0.1, -0.1])
    def test_excursion_bound_is_ten_times_the_amplitude_magnitude(self, rho_a):
        # a negative amplitude bounds the excursion as its magnitude does
        with pytest.raises(FdmDivergenceError, match="excursion 2.5 > 10 .* at step 7"):
            divergence_check(np.array([1.0, -1.5]), 1.0, rho_a, step=7)
        divergence_check(np.array([1.0, 0.5]), 1.0, rho_a, step=7)

    @pytest.mark.parametrize("substeps", ["auto", 0, 1.5])
    def test_run_takes_an_integer_substep_count(self, substeps):
        # "auto" is resolved by the caller, with substeps_auto
        grid = Grid2D(n_x=8, n_y=8, ds=1.0)
        with pytest.raises(ValueError, match="substeps must be an integer >= 1"):
            run_fdm_2d(grid, pure_diffusion(0.05), 1.0, 0.1, 4, stride=1, substeps=substeps)

    def test_unstable_run_reports_first_step_deterministically(self):
        # undersized viscosity at full step: central advection blows up
        grid = Grid2D(n_x=64, n_y=64, ds=1.0)
        coeffs = predicted_coefficients_2d(TRIANGULAR.index_space(), P3, 1.0, 1.0)
        steps_seen = []
        for _ in range(2):
            trace, div = run_fdm_2d(grid, coeffs, 1.0, 0.4, 200, stride=1, substeps=1)
            assert div is not None
            assert int(trace.steps[-1]) < div
            steps_seen.append(div)
        assert steps_seen[0] == steps_seen[1]

    def test_substepping_stabilizes(self):
        grid = Grid2D(n_x=64, n_y=64, ds=1.0)
        coeffs = predicted_coefficients_2d(ORTHOGONAL, P3, 1.0, 1.0)
        k = substeps_auto(coeffs, grid.ds, grid.dt)
        assert k > 1
        trace, div = run_fdm_2d(grid, coeffs, 1.0, 0.1, 200, stride=10, substeps=k)
        assert div is None
        assert trace.steps[-1] == 200


class TestSubstepsAuto:
    def test_mild_coefficients_need_no_substeps(self):
        coeffs = pure_diffusion(0.05)
        assert substeps_auto(coeffs, 1.0, 1.0) == 1

    def test_strong_advection_triggers_substeps(self):
        coeffs = predicted_coefficients_2d(TRIANGULAR.index_space(), P3, 1.0, 1.0)
        assert substeps_auto(coeffs, 1.0, 1.0) >= 4

    @pytest.mark.parametrize("c_s, nu", [(1e300, 0.05), (1.0, 1e300), (1e4, 1e-5)])
    def test_unrunnable_count_rejected(self, c_s, nu):
        # an infinite count (the square of the drift overflows) or a finite one beyond the limit
        with pytest.raises(ValueError, match="substeps per step"):
            substeps_auto(_axis_aligned(c_s, nu), 1.0, 1.0)
