"""Lattice tests: grids, velocity sets, stepping, symmetries, 2D coefficients."""

import math
import tracemalloc

import numpy as np
import pytest

from qlgburgers import lattice
from qlgburgers.collision import (
    CollisionParams,
    PopulationRangeError,
    collide_closed_form,
    equilibrium,
)
from qlgburgers.lattice import (
    AXIS_SYMMETRIC,
    ORTHOGONAL,
    TRIANGULAR,
    Grid1D,
    Grid2D,
    PopulationField,
    VelocitySet2D,
    density,
    init_cosine_1d,
    init_cosine_2d,
    predicted_coefficients_2d,
    step_1d,
    step_2d,
    stream_1d,
    stream_2d,
    velocity_set_by_name,
)

P3 = CollisionParams(theta=math.pi / 3)
RNG = np.random.default_rng(7)


def random_field_1d(grid, lo=0.1, hi=0.9):
    return PopulationField(
        f0=RNG.uniform(lo, hi, grid.n_x), f1=RNG.uniform(lo, hi, grid.n_x), grid=grid
    )


class TestBatch1D:
    # one (B, n_x) step per angle set equals B single-angle steps bit for bit
    PARAMS = (
        CollisionParams(theta=0.05),
        CollisionParams(theta=0.9, zeta=0.3, xi=-1.1),
        P3,
        CollisionParams(theta=math.pi / 2),
    )

    @pytest.mark.parametrize("init", ["equilibrium", "symmetric"])
    @pytest.mark.parametrize("reversed_streaming", [False, True])
    @pytest.mark.parametrize("n_x", [16, 17])
    def test_batch_steps_equal_single_steps(self, init, reversed_streaming, n_x):
        g = Grid1D(n_x=n_x, length_x=2.0)
        batch = init_cosine_1d(g, 1.0, 0.3, self.PARAMS, init=init)
        singles = [init_cosine_1d(g, 1.0, 0.3, p, init=init) for p in self.PARAMS]
        kwargs = {"reversed_streaming": reversed_streaming}
        for _ in range(40):
            batch = step_1d(batch, self.PARAMS, **kwargs)
            singles = [step_1d(f, p, **kwargs) for f, p in zip(singles, self.PARAMS)]
        assert batch.f0.shape == (4, n_x) and batch.t == 40
        for k, f in enumerate(singles):
            assert np.array_equal(batch.f0[k], f.f0) and np.array_equal(batch.f1[k], f.f1)

    def test_stream_rolls_each_row(self):
        f = np.arange(12.0).reshape(2, 6)
        g0, g1 = stream_1d(f, f + 100.0)
        for k in range(2):
            s0, s1 = stream_1d(f[k], f[k] + 100.0)
            assert np.array_equal(g0[k], s0) and np.array_equal(g1[k], s1)

    def test_quantum_path_takes_one_params(self):
        g = Grid1D(n_x=8, length_x=2.0)
        batch = init_cosine_1d(g, 1.0, 0.3, self.PARAMS)
        with pytest.raises(ValueError, match="one CollisionParams"):
            step_1d(batch, self.PARAMS, collision="quantum")

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            init_cosine_1d(Grid1D(n_x=8, length_x=2.0), 1.0, 0.3, ())


class TestGrids:
    def test_diffusive_scaling(self):
        g = Grid1D(n_x=64, length_x=2.0)
        assert g.dx == pytest.approx(2.0 / 64)
        assert g.dt == pytest.approx(g.dx**2)
        assert g.c == pytest.approx(1.0 / g.dx)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            Grid1D(n_x=1, length_x=1.0)
        with pytest.raises(ValueError):
            Grid2D(n_x=4, n_y=1, ds=1.0)

    def test_rejects_time_step_out_of_range(self):
        # dt = spacing^2 underflows to 0 or overflows to inf although the spacing is positive
        with pytest.raises(ValueError, match="finite dt"):
            Grid2D(n_x=4, n_y=4, ds=1e-200)
        with pytest.raises(ValueError, match="finite dt"):
            Grid1D(n_x=8, length_x=1e300)


class TestFieldShape:
    @pytest.mark.parametrize(
        "grid, f0_shape, f1_shape",
        [
            (Grid1D(n_x=8, length_x=1.0), (7,), (7,)),
            (Grid1D(n_x=8, length_x=1.0), (8,), (3, 8)),
            (Grid1D(n_x=8, length_x=1.0), (3, 8), (2, 8)),
            (Grid2D(n_x=4, n_y=4, ds=1.0), (4, 3), (4, 3)),
            (Grid2D(n_x=4, n_y=4, ds=1.0), (4, 4), (4, 5)),
            (Grid2D(n_x=4, n_y=4, ds=1.0), (4,), (4,)),
            (Grid2D(n_x=4, n_y=4, ds=1.0), (16,), (16,)),
        ],
    )
    def test_shape_not_matching_grid_rejected(self, grid, f0_shape, f1_shape):
        with pytest.raises(ValueError, match="does not match grid"):
            PopulationField(f0=np.full(f0_shape, 0.5), f1=np.full(f1_shape, 0.5), grid=grid)


class TestVelocitySets:
    def test_named_sets(self):
        assert velocity_set_by_name("axis_symmetric") is AXIS_SYMMETRIC
        with pytest.raises(ValueError, match="unknown velocity set"):
            velocity_set_by_name("hexagonal")

    def test_cartesian_from_basis(self):
        c0, c1 = TRIANGULAR.cartesian()
        np.testing.assert_allclose(c0, [-0.5, math.sqrt(3) / 2], atol=1e-15)
        np.testing.assert_allclose(c1, [0.5, math.sqrt(3) / 2], atol=1e-15)

    def test_rejects_fractional_shift(self):
        with pytest.raises(ValueError, match="integer"):
            VelocitySet2D(shifts=((0.5, 0), (1, 0)))

    def test_rejects_degenerate_basis(self):
        with pytest.raises(ValueError, match="dependent"):
            VelocitySet2D(shifts=((-1, 0), (1, 0)), basis=((1.0, 0.0), (2.0, 0.0)))

    @pytest.mark.parametrize(
        "shifts, basis",
        [
            ([1, 2], None),
            ([[1, 0]], None),
            ([[1, 2, 3], [0, 1]], None),
            ([[1, 0], [0]], None),
            ([[math.inf, 0], [0, 1]], None),
            ([[math.nan, 0], [0, 1]], None),
            ([["1", "0"], [0, 1]], None),
            ([[None, 0], [0, 1]], None),
            ([[10**30, 0], [0, 1]], None),
            ({}, None),
            ([[1, 0], [0, 1]], [1, 2]),
            ([[1, 0], [0, 1]], [[math.inf, 0], [0, 1]]),
            ([[1, 0], [0, 1]], [[math.nan, 0], [0, 1]]),
        ],
    )
    def test_rejects_bad_shape_or_entry(self, shifts, basis):
        given = {"shifts": shifts} if basis is None else {"shifts": shifts, "basis": basis}
        with pytest.raises(ValueError, match="two pairs of finite numbers"):
            VelocitySet2D(**given)

    def test_rejects_shift_beyond_int64_arithmetic(self):
        with pytest.raises(ValueError, match="magnitude"):
            VelocitySet2D(shifts=((1e300, 0), (0, 1)))

    def test_lists_kept_as_tuples(self):
        vset = VelocitySet2D(shifts=[[1.0, 0], [0, -1]], basis=[[1, 0], [0.5, 2]])
        assert vset.shifts == ((1, 0), (0, -1)) and type(vset.shifts[0][0]) is int
        assert vset.basis == ((1.0, 0.0), (0.5, 2.0)) and type(vset.basis[0][0]) is float
        assert vset == VelocitySet2D(shifts=((1, 0), (0, -1)), basis=((1.0, 0.0), (0.5, 2.0)))


class TestInit:
    def test_uniform_when_flat(self):
        g = Grid1D(n_x=16, length_x=2.0)
        fld = init_cosine_1d(g, 1.2, 0.0, P3)
        e0, e1 = equilibrium(1.2, P3)
        np.testing.assert_allclose(fld.f0, e0)
        np.testing.assert_allclose(fld.f1, e1)

    def test_fig4_setup_mass(self):
        g = Grid1D(n_x=64, length_x=2.0)
        fld = init_cosine_1d(g, 1.0, 0.4, P3)
        assert float(np.sum(density(fld))) == pytest.approx(64 * 1.0, abs=1e-10)
        rho = density(fld)
        xs = g.positions()
        np.testing.assert_allclose(rho, 1.0 + 0.4 * np.cos(math.pi * xs), atol=1e-12)

    def test_symmetric_init_option(self):
        g = Grid1D(n_x=16, length_x=2.0)
        fld = init_cosine_1d(g, 1.0, 0.3, P3, init="symmetric")
        np.testing.assert_allclose(fld.f0, fld.f1)

    def test_unknown_init_rejected(self):
        g = Grid1D(n_x=16, length_x=2.0)
        with pytest.raises(ValueError, match="init must be 'equilibrium' or 'symmetric', got 'cold'"):
            init_cosine_1d(g, 1.0, 0.3, P3, init="cold")

    def test_range_rejected(self):
        g = Grid1D(n_x=16, length_x=2.0)
        with pytest.raises(ValueError, match="leaves"):
            init_cosine_1d(g, 1.0, 1.5, P3)
        for rho_b, rho_a in ((math.nan, 0.1), (1.0, math.nan), (math.inf, 0.0)):
            with pytest.raises(ValueError, match="leaves"):
                init_cosine_1d(g, rho_b, rho_a, P3)

    def test_2d_mass_and_profile(self):
        g = Grid2D(n_x=64, n_y=64, ds=1.0)
        fld = init_cosine_2d(g, 1.0, 0.4, P3)
        assert float(np.sum(density(fld))) == pytest.approx(64 * 64, abs=1e-8)
        with pytest.raises(ValueError, match="leaves"):
            init_cosine_2d(g, 1.0, 0.6, P3)

    def test_observables(self):
        g = Grid1D(n_x=8, length_x=1.0)
        fld = random_field_1d(g)
        np.testing.assert_allclose(density(fld), fld.f0 + fld.f1)


class TestStreaming:
    def test_streaming_is_exact_permutation_1d(self):
        g = Grid1D(n_x=13, length_x=1.0)
        fld = random_field_1d(g)
        f0, f1 = fld.f0.copy(), fld.f1.copy()
        for _ in range(g.n_x):
            f0, f1 = stream_1d(f0, f1)
        assert np.array_equal(f0, fld.f0) and np.array_equal(f1, fld.f1)

    def test_streaming_is_exact_permutation_2d(self):
        f0 = RNG.uniform(0, 1, (6, 9))
        f1 = RNG.uniform(0, 1, (6, 9))
        g0, g1 = f0.copy(), f1.copy()
        for _ in range(18):  # lcm of shift periods for the triangular shifts
            g0, g1 = stream_2d(g0, g1, TRIANGULAR)
        assert np.array_equal(g0, f0) and np.array_equal(g1, f1)

    def test_reversed_inverts_standard(self):
        g = Grid1D(n_x=8, length_x=1.0)
        fld = random_field_1d(g)
        f0, f1 = stream_1d(*stream_1d(fld.f0, fld.f1), reversed_streaming=True)
        assert np.array_equal(f0, fld.f0) and np.array_equal(f1, fld.f1)


class TestStreamingEqualsRoll:
    # streaming copies slices into new arrays; np.roll is the reference, bit for bit
    FIG8_SET4 = VelocitySet2D(shifts=((-1, 1), (1, 0)), basis=((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)))

    @staticmethod
    def check(stream, f0, f1, rolled, *args, **kwargs):
        before = f0.copy(), f1.copy()
        g0, g1 = stream(f0, f1, *args, **kwargs)
        for g, f, want in zip((g0, g1), (f0, f1), rolled):
            assert g.dtype == f.dtype and g.shape == f.shape
            assert g.tobytes() == want.tobytes()
            assert not np.shares_memory(g, f)
        assert f0.tobytes() == before[0].tobytes() and f1.tobytes() == before[1].tobytes()

    @pytest.mark.parametrize("shape", [(7,), (3, 7), (5, 64), (1, 2)])
    @pytest.mark.parametrize("reversed_streaming", [False, True])
    def test_1d(self, shape, reversed_streaming):
        f0, f1 = RNG.uniform(0, 1, shape), RNG.uniform(0, 1, shape)
        sign = -1 if reversed_streaming else 1
        rolled = np.roll(f0, -sign, axis=-1), np.roll(f1, sign, axis=-1)
        self.check(stream_1d, f0, f1, rolled, reversed_streaming=reversed_streaming)

    @pytest.mark.parametrize("vset", [AXIS_SYMMETRIC, ORTHOGONAL, TRIANGULAR, FIG8_SET4])
    @pytest.mark.parametrize("shape", [(6, 6), (5, 9), (2, 3)])
    @pytest.mark.parametrize("reversed_streaming", [False, True])
    def test_2d_sets(self, vset, shape, reversed_streaming):
        f0, f1 = RNG.uniform(0, 1, shape), RNG.uniform(0, 1, shape)
        sign = -1 if reversed_streaming else 1
        rolled = tuple(
            np.roll(f, [sign * c for c in s], axis=(0, 1)) for f, s in zip((f0, f1), vset.shifts)
        )
        self.check(stream_2d, f0, f1, rolled, vset, reversed_streaming=reversed_streaming)

    def test_2d_random_shift_pairs(self):
        # zero on one axis, negative, and beyond the grid in either direction
        rng = np.random.default_rng(16)
        for _ in range(60):
            shape = tuple(int(n) for n in rng.integers(2, 8, 2))
            shifts = rng.integers(-20, 21, (2, 2))
            shifts[rng.integers(0, 2), rng.integers(0, 2)] = 0
            if np.array_equal(shifts[0], shifts[1]):
                continue
            vset = VelocitySet2D(shifts=shifts.tolist())
            f0, f1 = rng.uniform(0, 1, shape), rng.uniform(0, 1, shape)
            for reversed_streaming in (False, True):
                sign = -1 if reversed_streaming else 1
                rolled = tuple(
                    np.roll(f, [sign * int(c) for c in s], axis=(0, 1))
                    for f, s in zip((f0, f1), vset.shifts)
                )
                self.check(stream_2d, f0, f1, rolled, vset, reversed_streaming=reversed_streaming)

    def test_strided_input(self):
        f0, f1 = RNG.uniform(0, 1, (9, 5)).T, RNG.uniform(0, 1, (5, 18))[:, ::2]
        rolled = np.roll(f0, (1, 0), axis=(0, 1)), np.roll(f1, (0, -1), axis=(0, 1))
        self.check(stream_2d, f0, f1, rolled, ORTHOGONAL)

    def test_whole_periods_copy(self):
        f0, f1 = RNG.uniform(0, 1, (4, 6)), RNG.uniform(0, 1, (4, 6))
        vset = VelocitySet2D(shifts=((4, -12), (0, 6)))
        self.check(stream_2d, f0, f1, (f0, f1), vset)


class TestStep1D:
    def test_uniform_equilibrium_fixed(self):
        g = Grid1D(n_x=32, length_x=2.0)
        fld = init_cosine_1d(g, 1.1, 0.0, P3)
        nxt = step_1d(fld, P3)
        np.testing.assert_allclose(nxt.f0, fld.f0, atol=1e-12)
        np.testing.assert_allclose(nxt.f1, fld.f1, atol=1e-12)
        assert nxt.t == 1

    def test_unknown_collision_path_rejected(self):
        fld = init_cosine_1d(Grid1D(n_x=16, length_x=2.0), 1.0, 0.3, P3)
        with pytest.raises(ValueError, match="collision path must be 'closed_form' or 'quantum', got 'magic'"):
            step_1d(fld, P3, collision="magic")

    def test_single_site_swap_and_shift(self):
        # theta = pi/2 collision swaps the populations; a lone f0 excess at
        # x0 must reappear as f1 excess at x0 + 1 (f1 streams by +1).
        g = Grid1D(n_x=16, length_x=1.0)
        p = CollisionParams(theta=math.pi / 2)
        f0 = np.full(g.n_x, 0.25)
        f1 = np.full(g.n_x, 0.25)
        x0 = 5
        f0[x0] = 0.75
        fld = PopulationField(f0=f0, f1=f1, grid=g)
        nxt = step_1d(fld, p)
        assert nxt.f1[x0 + 1] == pytest.approx(0.75, abs=1e-12)
        assert nxt.f0[x0 - 1] == pytest.approx(0.25, abs=1e-12)
        assert nxt.f0[(x0 - 1) % g.n_x] == pytest.approx(0.25, abs=1e-12)
        mass = density(fld).sum()
        assert density(nxt).sum() == pytest.approx(mass, abs=1e-12)

    def test_mass_conserved_long_run(self):
        g = Grid1D(n_x=64, length_x=2.0)
        fld = init_cosine_1d(g, 1.0, 0.4, P3)
        mass0 = float(np.sum(density(fld)))
        for _ in range(10_000):
            fld = step_1d(fld, P3)
        assert float(np.sum(density(fld))) == pytest.approx(mass0, abs=1e-9)

    def test_quantum_path_matches_closed_form(self):
        g = Grid1D(n_x=32, length_x=2.0)
        fld = init_cosine_1d(g, 1.0, 0.3, P3)
        a = fld
        b = fld
        for _ in range(5):
            a = step_1d(a, P3, collision="closed_form")
            b = step_1d(b, P3, collision="quantum")
        np.testing.assert_allclose(a.f0, b.f0, atol=1e-12)
        np.testing.assert_allclose(a.f1, b.f1, atol=1e-12)

    def test_translation_equivariance(self):
        g = Grid1D(n_x=32, length_x=2.0)
        fld = init_cosine_1d(g, 1.0, 0.3, P3)
        shifted = PopulationField(f0=np.roll(fld.f0, 5), f1=np.roll(fld.f1, 5), grid=g)
        a = step_1d(step_1d(fld, P3), P3)
        b = step_1d(step_1d(shifted, P3), P3)
        assert np.array_equal(np.roll(a.f0, 5), b.f0)
        assert np.array_equal(np.roll(a.f1, 5), b.f1)

    def test_mirror_symmetry(self):
        # Reflecting x -> -x and swapping the populations maps the model
        # with advection parameter alpha onto the one with -alpha (realized
        # here by zeta = pi), and commutes with the step exactly.
        g = Grid1D(n_x=32, length_x=2.0)
        p = CollisionParams(theta=1.1)
        p_mirror = CollisionParams(theta=1.1, zeta=math.pi, xi=0.0)
        fld = random_field_1d(g)

        def mirror(f):
            return PopulationField(
                f0=np.roll(f.f1[::-1], 1), f1=np.roll(f.f0[::-1], 1), grid=g, t=f.t
            )

        a = mirror(step_1d(fld, p))
        b = step_1d(mirror(fld), p_mirror)
        np.testing.assert_allclose(a.f0, b.f0, atol=1e-15)
        np.testing.assert_allclose(a.f1, b.f1, atol=1e-15)

    def test_mirror_symmetry_same_params_at_half_pi(self):
        # alpha = 0 is self-mirrored: the literal reflect+swap commutes.
        g = Grid1D(n_x=16, length_x=1.0)
        p = CollisionParams(theta=math.pi / 2)
        fld = random_field_1d(g)

        def mirror(f):
            return PopulationField(
                f0=np.roll(f.f1[::-1], 1), f1=np.roll(f.f0[::-1], 1), grid=g, t=f.t
            )

        a = mirror(step_1d(fld, p))
        b = step_1d(mirror(fld), p)
        np.testing.assert_allclose(a.f0, b.f0, atol=1e-15)
        np.testing.assert_allclose(a.f1, b.f1, atol=1e-15)

    def test_range_error_carries_site_and_time(self):
        from qlgburgers.collision import PopulationRangeError

        g = Grid1D(n_x=8, length_x=1.0)
        f0 = np.full(8, 0.5)
        f0[3] = 1.5
        fld = PopulationField(f0=f0, f1=np.full(8, 0.5), grid=g, t=7)
        with pytest.raises(PopulationRangeError, match=r"t=7.*x=3"):
            step_1d(fld, P3)

    def test_batch_range_error_names_theta_row_and_site(self):
        from qlgburgers.collision import PopulationRangeError

        g = Grid1D(n_x=8, length_x=1.0)
        params = (CollisionParams(theta=1.0), P3, CollisionParams(theta=1.4))
        f0 = np.full((3, 8), 0.5)
        f0[1, 5] = 1.5
        fld = PopulationField(f0=f0, f1=np.full((3, 8), 0.5), grid=g, t=4)
        message = r"t=4, theta row 1 \(theta=1\.047.*\), site x=5"
        with pytest.raises(PopulationRangeError, match=message):
            step_1d(fld, params)

    def test_range_error_carries_2d_coordinates(self):
        from qlgburgers.collision import PopulationRangeError

        g = Grid2D(n_x=4, n_y=4, ds=1.0)
        f0 = np.full((4, 4), 0.5)
        f0[2, 1] = -0.2
        fld = PopulationField(f0=f0, f1=np.full((4, 4), 0.5), grid=g, t=3)
        with pytest.raises(PopulationRangeError, match=r"t=3.*\(2, 1\)"):
            step_2d(fld, P3, ORTHOGONAL)

    def test_2d_range_error_names_step_and_site(self):
        from qlgburgers.collision import PopulationRangeError

        g = Grid2D(n_x=5, n_y=6, ds=1.0)
        f1 = np.full((5, 6), 0.5)
        f1[3, 4] = 1.7
        fld = PopulationField(f0=np.full((5, 6), 0.5), f1=f1, grid=g, t=9)
        message = r"^collision failed at t=9, site \(i, j\)=\(3, 4\): population f1 out of"
        with pytest.raises(PopulationRangeError, match=message):
            step_2d(fld, P3, TRIANGULAR)

    def test_determinism(self):
        g = Grid1D(n_x=64, length_x=2.0)
        runs = []
        for _ in range(2):
            fld = init_cosine_1d(g, 1.0, 0.4, P3)
            for _ in range(50):
                fld = step_1d(fld, P3)
            runs.append(fld)
        assert np.array_equal(runs[0].f0, runs[1].f0)
        assert np.array_equal(runs[0].f1, runs[1].f1)


class TestStep2D:
    def test_uniform_equilibrium_fixed(self):
        g = Grid2D(n_x=16, n_y=16, ds=1.0)
        fld = init_cosine_2d(g, 1.1, 0.0, P3)
        nxt = step_2d(fld, P3, ORTHOGONAL)
        np.testing.assert_allclose(nxt.f0, fld.f0, atol=1e-12)

    def test_rows_reduce_to_1d(self):
        # with the axis-aligned symmetric set every x-slice evolves exactly
        # as an independent 1D lattice started from the same column state
        g2 = Grid2D(n_x=32, n_y=8, ds=1.0)
        fld2 = init_cosine_2d(g2, 1.0, 0.2, P3)
        evolved = fld2
        for _ in range(20):
            evolved = step_2d(evolved, P3, AXIS_SYMMETRIC)
        g1 = Grid1D(n_x=32, length_x=32.0)
        for j in (0, 3, 7):
            fld1 = PopulationField(
                f0=fld2.f0[:, j].copy(), f1=fld2.f1[:, j].copy(), grid=g1
            )
            for _ in range(20):
                fld1 = step_1d(fld1, P3)
            assert np.array_equal(evolved.f0[:, j], fld1.f0)
            assert np.array_equal(evolved.f1[:, j], fld1.f1)

    def test_mass_conserved(self):
        g = Grid2D(n_x=64, n_y=64, ds=1.0)
        fld = init_cosine_2d(g, 1.0, 0.2, P3)
        mass0 = float(np.sum(density(fld)))
        for _ in range(1000):
            fld = step_2d(fld, P3, TRIANGULAR)
        assert float(np.sum(density(fld))) == pytest.approx(mass0, abs=1e-8)


class TestPredictedCoefficients2D:
    def test_axis_symmetric_reduces_to_1d(self):
        from qlgburgers.collision import predicted_coefficients_1d

        c = predicted_coefficients_2d(AXIS_SYMMETRIC, P3, 1.0, 1.0)
        c1d = predicted_coefficients_1d(P3, 1.0, 1.0)
        np.testing.assert_allclose(c.a, [0.0, 0.0], atol=1e-15)
        # b carries the full 1D advection along +x so that the 2D equation
        # collapses onto the 1D one; the diffusion acts along x only.
        np.testing.assert_allclose(c.b, [c1d.c_s, 0.0], atol=1e-15)
        np.testing.assert_allclose(c.D, [[c1d.nu, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_orthogonal_set(self):
        c = predicted_coefficients_2d(ORTHOGONAL, P3, 1.0, 1.0)
        from qlgburgers.collision import predicted_coefficients_1d

        c1d = predicted_coefficients_1d(P3, 1.0, 1.0)
        np.testing.assert_allclose(c.a, [0.5, -0.5], atol=1e-15)
        np.testing.assert_allclose(c.b, 0.5 * c1d.c_s * np.array([-1.0, -1.0]), atol=1e-15)
        np.testing.assert_allclose(c.D, 0.5 * c1d.nu * np.eye(2), atol=1e-15)

    def test_triangular_set(self):
        c = predicted_coefficients_2d(TRIANGULAR, P3, 1.0, 1.0)
        from qlgburgers.collision import predicted_coefficients_1d

        c1d = predicted_coefficients_1d(P3, 1.0, 1.0)
        np.testing.assert_allclose(c.a, [0.0, math.sqrt(3) / 2], atol=1e-15)
        np.testing.assert_allclose(c.b, [0.5 * c1d.c_s, 0.0], atol=1e-15)
        assert c.D[0, 1] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(
            np.diag(c.D), 0.5 * c1d.nu * np.array([0.5, 1.5]), atol=1e-15
        )

    def test_D_symmetric(self):
        for vset in (AXIS_SYMMETRIC, ORTHOGONAL, TRIANGULAR):
            c = predicted_coefficients_2d(vset, P3, 0.5, 0.25)
            assert c.D[0, 1] == c.D[1, 0]


def whole_field_step(fld, params, vset, reversed_streaming=False):
    """The untiled step: one collision of the whole field, then streaming."""
    g0, g1 = collide_closed_form(fld.f0, fld.f1, params)
    f0, f1 = stream_2d(g0, g1, vset, reversed_streaming)
    return PopulationField(f0=f0, f1=f1, grid=fld.grid, t=fld.t + 1)


def tiles_of(monkeypatch, sites):
    """Make every closed-form 2D step tile, in tiles of ``sites`` sites."""
    monkeypatch.setattr(lattice, "_TILE_SITES", sites)
    monkeypatch.setattr(lattice, "_TILE_MIN_SITES", 0)


class TestTiledStep:
    # a large field collides and streams in row tiles, bit for bit as one whole-field step
    FIG8_SET4 = TestStreamingEqualsRoll.FIG8_SET4
    PARAMS = CollisionParams(theta=0.9, zeta=0.4, xi=-0.1)

    @staticmethod
    def assert_same(got, want):
        assert got.t == want.t
        for g, w in ((got.f0, want.f0), (got.f1, want.f1)):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    def check_chain(self, monkeypatch, grid, vset, tile_sites, steps=4, reversed_streaming=False):
        fld = init_cosine_2d(grid, 1.0, 0.4, self.PARAMS)
        want = fld
        for _ in range(steps):
            want = whole_field_step(want, self.PARAMS, vset, reversed_streaming)
        tiles_of(monkeypatch, tile_sites)
        got = fld
        for _ in range(steps):
            got = step_2d(got, self.PARAMS, vset, reversed_streaming=reversed_streaming)
        self.assert_same(got, want)

    # (shape, tile sites): tiles whose row count does not divide n_x, and tiles of one row
    # when a row holds more sites than a tile
    SHAPES = [
        ((300, 200), 7 * 200),
        ((1000, 70), 13 * 70),
        ((64, 64), 5 * 64),
        ((37, 5), 20),
        ((9, 50), 10),
    ]

    @pytest.mark.parametrize("vset", [AXIS_SYMMETRIC, ORTHOGONAL, TRIANGULAR, FIG8_SET4])
    @pytest.mark.parametrize("shape, tile_sites", SHAPES)
    @pytest.mark.parametrize("reversed_streaming", [False, True])
    def test_chained_steps_equal_whole_field(
        self, monkeypatch, vset, shape, tile_sites, reversed_streaming
    ):
        grid = Grid2D(*shape, ds=1.0)
        self.check_chain(monkeypatch, grid, vset, tile_sites, reversed_streaming=reversed_streaming)

    @pytest.mark.parametrize(
        "shifts",
        [((700, -3), (-1025, 513)), ((37, 0), (0, -74)), ((-38, 6), (75, 1)), ((2, 5), (-1, -5))],
    )
    @pytest.mark.parametrize("reversed_streaming", [False, True])
    def test_shifts_beyond_the_grid(self, monkeypatch, shifts, reversed_streaming):
        # 37 rows in tiles of 4 rows, 5 columns: whole periods, wraps and moves of many rows
        vset = VelocitySet2D(shifts=shifts)
        grid = Grid2D(37, 5, ds=1.0)
        self.check_chain(monkeypatch, grid, vset, 20, reversed_streaming=reversed_streaming)

    @staticmethod
    def count_collide_calls(monkeypatch):
        """The shapes of the populations each later collision of a step is called with."""
        calls = []

        def counted(f0, f1, params):
            calls.append(np.shape(f0))
            return collide_closed_form(f0, f1, params)

        monkeypatch.setattr(lattice, "collide_closed_form", counted)
        return calls

    def test_default_threshold(self, monkeypatch):
        # 512 x 512 sites are tiles of 64 rows; a field of two tiles or fewer is collided whole
        fields = {n: init_cosine_2d(Grid2D(n, n, ds=1.0), 1.0, 0.4, P3) for n in (256, 512)}
        want = {n: whole_field_step(fld, P3, ORTHOGONAL) for n, fld in fields.items()}
        calls = self.count_collide_calls(monkeypatch)
        for n, fld in fields.items():
            self.assert_same(step_2d(fld, P3, ORTHOGONAL), want[n])
        assert calls == [(256, 256)] + [(64, 512)] * 8

    def test_bad_f0_in_a_later_tile_is_named_before_bad_f1_in_the_first(self, monkeypatch):
        grid = Grid2D(n_x=30, n_y=8, ds=1.0)
        f0, f1 = np.full((30, 8), 0.5), np.full((30, 8), 0.5)
        f1[1, 2] = 1.7  # first tile of 4 rows
        f0[21, 5] = -0.25  # sixth tile
        fld = PopulationField(f0=f0, f1=f1, grid=grid, t=11)
        with pytest.raises(PopulationRangeError) as whole:
            step_2d(fld, P3, TRIANGULAR)
        tiles_of(monkeypatch, 32)
        calls = self.count_collide_calls(monkeypatch)
        with pytest.raises(PopulationRangeError) as tiled:
            step_2d(fld, P3, TRIANGULAR)
        assert calls == [(4, 8), (30, 8)]  # the first tile fails; the whole field names the site
        assert str(tiled.value) == str(whole.value)
        assert str(tiled.value).startswith(
            "collision failed at t=11, site (i, j)=(21, 5): population f0 out of [0, 1]: -0.25"
        )
        assert (tiled.value.index, tiled.value.value) == (whole.value.index, whole.value.value)
        assert (tiled.value.index, tiled.value.value) == (173, -0.25)

    def test_round_off_in_a_later_tile_is_clipped_as_before(self, monkeypatch):
        fld = init_cosine_2d(Grid2D(n_x=30, n_y=8, ds=1.0), 1.0, 0.4, P3)
        fld.f0[25, 3] = -5e-13
        fld.f1[17, 0] = 1.0 + 5e-13
        want = whole_field_step(fld, P3, ORTHOGONAL)
        tiles_of(monkeypatch, 32)
        self.assert_same(step_2d(fld, P3, ORTHOGONAL), want)


class TestMemoryBudget:
    # tracemalloc peaks at 512 x 512 (2 MB per population); they read no clock
    GRID = Grid2D(n_x=512, n_y=512, ds=1.0)

    def test_init_cosine_2d_peak(self):
        tracemalloc.start()
        try:
            init_cosine_2d(self.GRID, 1.0, 0.4, P3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9e6

    def test_step_2d_peak_counting_its_field(self):
        tracemalloc.start()
        try:
            fld = init_cosine_2d(self.GRID, 1.0, 0.4, P3)
            tracemalloc.reset_peak()
            step_2d(fld, P3, ORTHOGONAL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
