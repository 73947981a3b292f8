"""Kernel tests: unitary, state preparation, collision term, equilibrium."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlgburgers import collision
from qlgburgers.collision import (
    RANGE_TOL,
    CollisionParams,
    PopulationRangeError,
    build_collision_unitary,
    collide_closed_form,
    collide_quantum,
    equilibrium,
    jacobian_gap,
    measure_populations,
    omega,
    predicted_coefficients_1d,
    prepare_cell,
)

RNG = np.random.default_rng(20240517)

thetas = st.floats(min_value=0.05, max_value=math.pi / 2, allow_nan=False)
angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
pops = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def sample_params(n):
    out = []
    for _ in range(n):
        out.append(
            CollisionParams(
                theta=RNG.uniform(0.05, math.pi / 2),
                zeta=RNG.uniform(-math.pi, math.pi),
                xi=RNG.uniform(-math.pi, math.pi),
            )
        )
    return out


class TestCollisionParams:
    def test_theta_zero_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            CollisionParams(theta=0.0)

    def test_overflowing_phase_difference_rejected(self):
        # found by the unit-square property: cos(inf) raised deep in omega
        with pytest.raises(ValueError, match="zeta - xi"):
            CollisionParams(theta=1.0, zeta=5.7e305, xi=-1.8e308)

    def test_theta_above_half_pi_rejected(self):
        with pytest.raises(ValueError):
            CollisionParams(theta=math.pi / 2 + 1e-6)

    def test_alpha(self):
        assert CollisionParams(theta=math.pi / 4).alpha() == pytest.approx(1.0)
        assert CollisionParams(theta=math.pi / 2).alpha() == pytest.approx(0.0, abs=1e-15)
        p = CollisionParams(theta=math.pi / 4, zeta=math.pi, xi=0.0)
        assert p.alpha() == pytest.approx(-1.0)


class TestUnitary:
    def test_swap_block_at_half_pi(self):
        u = build_collision_unitary(CollisionParams(theta=math.pi / 2))
        inner = u[1:3, 1:3]
        np.testing.assert_allclose(inner, [[0, 1], [-1, 0]], atol=1e-15)

    def test_block_at_pi_third(self):
        u = build_collision_unitary(CollisionParams(theta=math.pi / 3))
        inner = u[1:3, 1:3].real
        s3 = math.sqrt(3) / 2
        np.testing.assert_allclose(inner, [[0.5, s3], [-s3, 0.5]], atol=1e-15)

    def test_mass_block_structure(self):
        for p in sample_params(10):
            u = build_collision_unitary(p)
            np.testing.assert_allclose(u[0], [1, 0, 0, 0], atol=0)
            np.testing.assert_allclose(u[3], [0, 0, 0, 1], atol=0)

    @given(thetas, angles, angles)
    @settings(max_examples=100)
    def test_unitarity(self, theta, zeta, xi):
        u = build_collision_unitary(CollisionParams(theta=theta, zeta=zeta, xi=xi))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


class TestPrepareMeasure:
    def test_vacuum(self):
        np.testing.assert_allclose(prepare_cell(0.0, 0.0), [1, 0, 0, 0], atol=0)

    def test_full_cell(self):
        np.testing.assert_allclose(prepare_cell(1.0, 1.0), [0, 0, 0, 1], atol=0)

    def test_half_half(self):
        np.testing.assert_allclose(prepare_cell(0.5, 0.5), [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(PopulationRangeError):
            prepare_cell(-0.1, 0.5)
        with pytest.raises(PopulationRangeError):
            prepare_cell(0.5, 1.1)

    def test_measure_basis_states(self):
        assert measure_populations(np.array([1, 0, 0, 0], dtype=complex)) == (0.0, 0.0)
        assert measure_populations(np.array([0, 0, 0, 1], dtype=complex)) == (1.0, 1.0)

    def test_measure_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            measure_populations(np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("shape", [(3,), (2, 5), (4, 2)])
    def test_measure_rejects_other_than_four_amplitudes(self, shape):
        with pytest.raises(ValueError) as info:
            measure_populations(np.zeros(shape, dtype=complex))
        assert str(info.value) == f"cell state must have 4 amplitudes, got shape {shape}"

    @given(pops, pops)
    @settings(max_examples=100)
    def test_round_trip(self, f0, f1):
        g0, g1 = measure_populations(prepare_cell(f0, f1))
        assert g0 == pytest.approx(f0, abs=1e-12)
        assert g1 == pytest.approx(f1, abs=1e-12)


class TestOmega:
    def test_symmetric_pair_at_half_pi(self):
        assert omega(0.3, 0.3, CollisionParams(theta=math.pi / 2)) == pytest.approx(0.0, abs=1e-15)

    def test_equilibrium_pair_rho_one_alpha_one(self):
        # Fixed point at rho=1, alpha=1 is (1 - sqrt(2)/2, sqrt(2)/2); the
        # reversed assignment is not a zero of omega (see decisions notes).
        p = CollisionParams(theta=math.pi / 4)
        assert omega(0.2929, 0.7071, p) == pytest.approx(0.0, abs=1e-4)
        assert abs(omega(0.7071, 0.2929, p)) > 0.4

    def test_saturated_cell(self):
        assert omega(1.0, 0.0, CollisionParams(theta=math.pi / 3)) == pytest.approx(0.75)

    def test_phase_invariance(self):
        for shift in (0.7, -2.0, math.pi):
            a = omega(0.3, 0.6, CollisionParams(theta=0.9, zeta=0.2, xi=1.1))
            b = omega(0.3, 0.6, CollisionParams(theta=0.9, zeta=0.2 + shift, xi=1.1 + shift))
            assert a == pytest.approx(b, abs=1e-12)


class TestCollide:
    def test_population_exchange_at_half_pi(self):
        p = CollisionParams(theta=math.pi / 2)
        assert collide_quantum(1.0, 0.0, p) == pytest.approx((0.0, 1.0), abs=1e-12)
        assert collide_closed_form(0.6, 0.4, p) == pytest.approx((0.4, 0.6), abs=1e-12)

    def test_equilibrium_is_fixed_point(self):
        for p in sample_params(8):
            for rho in (0.25, 0.5, 1.0, 1.5, 1.75):
                f0, f1 = equilibrium(rho, p)
                g0, g1 = collide_closed_form(f0, f1, p)
                assert g0 == pytest.approx(f0, abs=1e-10)
                assert g1 == pytest.approx(f1, abs=1e-10)
                q0, q1 = collide_quantum(f0, f1, p)
                assert q0 == pytest.approx(f0, abs=1e-10)

    @given(pops, pops, thetas, angles, angles)
    @settings(max_examples=200)
    def test_quantum_equals_closed_form(self, f0, f1, theta, zeta, xi):
        p = CollisionParams(theta=theta, zeta=zeta, xi=xi)
        q0, q1 = collide_quantum(f0, f1, p)
        c0, c1 = collide_closed_form(f0, f1, p)
        assert q0 == pytest.approx(c0, abs=1e-12)
        assert q1 == pytest.approx(c1, abs=1e-12)

    @given(pops, pops, thetas, angles, angles)
    @settings(max_examples=200)
    def test_mass_conserved(self, f0, f1, theta, zeta, xi):
        p = CollisionParams(theta=theta, zeta=zeta, xi=xi)
        for fn in (collide_quantum, collide_closed_form):
            g0, g1 = fn(f0, f1, p)
            assert g0 + g1 == pytest.approx(f0 + f1, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=math.pi / 2, exclude_min=True),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        pops,
        pops,
    )
    @settings(max_examples=300)
    def test_closed_form_keeps_unit_square(self, theta, zeta, xi, f0, f1):
        # the only rejected angles are those whose phase difference overflows
        try:
            p = CollisionParams(theta=theta, zeta=zeta, xi=xi)
        except ValueError:
            assert not math.isfinite(zeta - xi)
            return
        for g in collide_closed_form(f0, f1, p):
            assert not math.isnan(g)
            assert -RANGE_TOL <= g <= 1.0 + RANGE_TOL

    def test_sequence_of_params_matches_each_row(self):
        thetas = (0.05, 0.7, 1.3, math.pi / 2)
        params = [CollisionParams(theta=t, zeta=0.4, xi=-0.3) for t in thetas]
        f0 = RNG.uniform(0, 1, size=(4, 9))
        f1 = RNG.uniform(0, 1, size=(4, 9))
        g0, g1 = collide_closed_form(f0, f1, params)
        om = omega(f0, f1, params)
        for k, p in enumerate(params):
            s0, s1 = collide_closed_form(f0[k], f1[k], p)
            assert np.array_equal(g0[k], s0) and np.array_equal(g1[k], s1)
            assert np.array_equal(om[k], omega(f0[k], f1[k], p))

    def test_sequence_of_params_needs_one_row_each(self):
        params = [CollisionParams(theta=1.0), CollisionParams(theta=1.2)]
        for shape in ((3, 5), (5,)):
            with pytest.raises(ValueError, match="one leading row each"):
                collide_closed_form(np.full(shape, 0.5), np.full(shape, 0.5), params)
        with pytest.raises(ValueError, match="one CollisionParams"):
            collide_quantum(np.full((2, 5), 0.5), np.full((2, 5), 0.5), params)

    def test_angle_columns_of_a_mutated_list_are_fresh(self):
        # only a tuple's columns are reused; a list can change between calls
        f0, f1 = RNG.uniform(0, 1, size=(2, 7)), RNG.uniform(0, 1, size=(2, 7))
        params = [CollisionParams(theta=0.4), CollisionParams(theta=1.1)]
        first = omega(f0, f1, params)
        params[1] = CollisionParams(theta=0.2, zeta=0.5)
        second = omega(f0, f1, params)
        assert second[0].tobytes() == first[0].tobytes()
        assert second[1].tobytes() == omega(f0[1], f1[1], params[1]).tobytes()
        assert second[1].tobytes() != first[1].tobytes()

    def test_cached_tuple_equals_uncached_bitwise(self):
        params = tuple(sample_params(5))
        f0, f1 = RNG.uniform(0, 1, size=(5, 11)), RNG.uniform(0, 1, size=(5, 11))
        fresh = omega(f0, f1, list(params))
        cached = [omega(f0, f1, params) for _ in range(3)]  # the later calls reuse the columns
        for om in cached:
            assert om.tobytes() == fresh.tobytes()
        columns = collision._angle_terms(params, f0.shape)
        assert collision._angle_terms(params, f0.shape) is columns
        singles = np.array([collision._angle_terms(p, ()) for p in params])
        for column, single in zip(columns, singles.T):
            assert column.shape == (5, 1) and not column.flags.writeable
            assert column.ravel().tobytes() == single.tobytes()

    def test_cached_tuple_still_checks_shape(self):
        params = (CollisionParams(theta=1.0), CollisionParams(theta=1.2))
        omega(np.full((2, 5), 0.5), np.full((2, 5), 0.5), params)
        for shape in ((3, 5), (5,)):
            with pytest.raises(ValueError, match="one leading row each"):
                omega(np.full(shape, 0.5), np.full(shape, 0.5), params)
        g0, _ = collide_closed_form(np.full((2, 4), 0.3), np.full((2, 4), 0.6), params)
        assert g0.shape == (2, 4)

    def test_phase_invariance_of_both_paths(self):
        # (zeta, xi) enter only through zeta - xi
        base = CollisionParams(theta=0.9, zeta=0.2, xi=1.1)
        shifted = CollisionParams(theta=0.9, zeta=0.2 - 2.5, xi=1.1 - 2.5)
        for fn in (collide_quantum, collide_closed_form):
            a = fn(0.35, 0.8, base)
            b = fn(0.35, 0.8, shifted)
            assert a[0] == pytest.approx(b[0], abs=1e-12)
            assert a[1] == pytest.approx(b[1], abs=1e-12)

    def test_vectorized_matches_scalar(self):
        p = CollisionParams(theta=1.1, zeta=0.3, xi=-0.2)
        f0 = RNG.uniform(0, 1, size=50)
        f1 = RNG.uniform(0, 1, size=50)
        g0, g1 = collide_closed_form(f0, f1, p)
        for i in (0, 17, 49):
            s0, s1 = collide_closed_form(float(f0[i]), float(f1[i]), p)
            assert g0[i] == s0 and g1[i] == s1

    def test_relaxation_to_equilibrium(self):
        # Iterating the collision from a random pair converges to the
        # equilibrium of the conserved density.  The linearized multiplier
        # 1 + (J1 - J0) is negative for theta beyond ~0.6, so the deviation
        # alternates sign during the transient and |f - f_eq| is only
        # monotone on the two-step subsequence; in the overdamped
        # small-theta regime it is monotone per step.
        for theta in (0.3, 0.8, 1.2, 1.5):
            p = CollisionParams(theta=theta)
            f0, f1 = 0.9, 0.2
            rho = f0 + f1
            e0, e1 = equilibrium(rho, p)
            dist2 = abs(f0 - e0)
            dist = dist2
            converged = False
            for it in range(100_000):
                f0, f1 = collide_closed_form(f0, f1, p)
                d = abs(f0 - e0)
                if theta <= 0.5:
                    assert d <= dist + 1e-15
                dist = d
                if it % 2 == 1:
                    assert d <= dist2 + 1e-15
                    dist2 = d
                if d < 1e-8:
                    converged = True
                    break
            assert converged and f1 == pytest.approx(e1, abs=2e-8)


class TestEquilibrium:
    def test_full_density(self):
        for p in sample_params(5):
            assert equilibrium(2.0, p) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_rho_one_alpha_one(self):
        f0, f1 = equilibrium(1.0, CollisionParams(theta=math.pi / 4))
        assert f0 == pytest.approx(0.2929, abs=1e-4)
        assert f1 == pytest.approx(0.7071, abs=1e-4)

    def test_symmetric_limit(self):
        assert equilibrium(1.0, CollisionParams(theta=math.pi / 2)) == pytest.approx((0.5, 0.5))

    def test_mass_and_fixed_point(self):
        for p in sample_params(6):
            for rho in np.arange(0.0, 2.01, 0.25):
                f0, f1 = equilibrium(float(rho), p)
                assert f0 + f1 == pytest.approx(rho, abs=1e-12)
                if 0.0 < rho < 2.0:
                    assert omega(f0, f1, p) == pytest.approx(0.0, abs=1e-10)

    def test_out_of_range_rejected(self):
        p = CollisionParams(theta=1.0)
        with pytest.raises(ValueError):
            equilibrium(-0.1, p)
        with pytest.raises(ValueError):
            equilibrium(2.1, p)

    @staticmethod
    def expression(rho, p):
        """The equilibrium as one whole-array expression per population, then clipped."""
        a = p.alpha()
        if abs(a) < collision.ALPHA_SYMMETRIC_CUTOFF:
            f0, f1 = rho / 2.0, rho / 2.0
        else:
            q = np.sqrt(a * a + 1.0 - 2.0 * a * a * rho + a * a * rho * rho)
            gap = (math.sqrt(a * a + 1.0) - q) / (2.0 * a)
            f0, f1 = rho / 2.0 - gap, rho / 2.0 + gap
        return (f0, f1), (np.clip(f0, 0.0, 1.0), np.clip(f1, 0.0, 1.0))

    @pytest.mark.parametrize(
        "p, clipped",
        [
            (CollisionParams(theta=math.pi / 2), False),  # the symmetric limit
            (CollisionParams(theta=1.0, zeta=math.pi / 2), False),  # alpha 6e-17: the limit too
            (CollisionParams(theta=0.7, zeta=0.4, xi=-1.1), False),
            (CollisionParams(theta=1.2, zeta=math.pi), False),
            (CollisionParams(theta=1e-9), True),  # round-off leaves [0, 1]
            (CollisionParams(theta=1e-9, zeta=math.pi), True),
        ],
    )
    def test_arrays_equal_the_whole_array_expression(self, p, clipped):
        rho = np.concatenate(
            [RNG.uniform(0, 2, 600), RNG.uniform(0, 1e-3, 200), 2.0 - RNG.uniform(0, 1e-3, 200)]
        )
        rho[:6] = 0.0, -0.0, 2.0, 1.0, 5e-324, 1.0 - 1e-16
        raw, want = self.expression(rho, p)
        assert any(not np.array_equal(r, w) for r, w in zip(raw, want)) == clipped
        for shape in ((1000,), (25, 40), (1, 1000)):
            got = equilibrium(rho.reshape(shape), p)
            for g, w in zip(got, want):
                assert g.shape == shape and g.tobytes() == w.tobytes()
        for i, value in enumerate(rho[:6].tolist()):  # a 0-d call, signed zeros included
            got = equilibrium(value, p)
            for g, w in zip(got, want):
                assert g.shape == () and g.tobytes() == w[i].tobytes()

    @staticmethod
    def momentum(rho, p):
        """Equilibrium momentum u = f1 - f0 = (sqrt(1 + a^2) - sqrt(1 + a^2 (rho - 1)^2)) / a."""
        a = p.alpha()
        return (math.sqrt(a * a + 1.0) - math.sqrt(a * a + 1.0 - 2.0 * a * a * rho + a * a * rho * rho)) / a

    def test_momentum_consistency(self):
        for p in sample_params(6):
            for rho in (0.3, 1.0, 1.6):
                f0, f1 = equilibrium(rho, p)
                assert f1 - f0 == pytest.approx(self.momentum(rho, p), abs=1e-12)

    def test_momentum_at_rho_one(self):
        # u(1) = (sqrt(1 + a^2) - 1)/a on the fixed-point branch
        for theta in (0.4, 0.9, 1.3):
            p = CollisionParams(theta=theta)
            a = p.alpha()
            f0, f1 = equilibrium(1.0, p)
            assert f1 - f0 == pytest.approx((math.sqrt(1 + a * a) - 1) / a, rel=1e-12)

    def test_momentum_alpha_zero(self):
        f0, f1 = equilibrium(1.3, CollisionParams(theta=math.pi / 2))
        assert f1 - f0 == 0.0


def jacobian_gap_fd(rho, params, h=1e-6):
    """Independent oracle: central difference of omega at equilibrium."""
    f0, f1 = equilibrium(rho, params)
    j0 = (omega(f0 + h, f1, params) - omega(f0 - h, f1, params)) / (2 * h)
    j1 = (omega(f0, f1 + h, params) - omega(f0, f1 - h, params)) / (2 * h)
    return j1 - j0


class TestJacobianGap:
    def test_rho_one_quarter_pi(self):
        assert jacobian_gap(1.0, CollisionParams(theta=math.pi / 4)) == pytest.approx(
            -math.sqrt(2), abs=1e-12
        )

    def test_half_pi_any_rho(self):
        p = CollisionParams(theta=math.pi / 2)
        for rho in (0.1, 0.9, 1.7):
            assert jacobian_gap(rho, p) == pytest.approx(-2.0, abs=1e-12)

    def test_against_finite_difference(self):
        for theta in (0.3, 0.7, 1.0, 1.3, 1.5):
            p = CollisionParams(theta=theta)
            for rho in (0.3, 0.7, 1.0, 1.4, 1.8):
                closed = jacobian_gap(rho, p)
                fd = jacobian_gap_fd(rho, p)
                assert closed == pytest.approx(fd, rel=1e-5)


class TestPredictedCoefficients:
    def test_pi_third(self):
        c = predicted_coefficients_1d(CollisionParams(theta=math.pi / 3), 1.0, 1.0)
        assert c.nu == pytest.approx(0.077351, abs=1e-5)
        assert c.nu_yepez == pytest.approx(1 / 6, abs=1e-5)

    def test_half_pi(self):
        c = predicted_coefficients_1d(CollisionParams(theta=math.pi / 2), 1.0, 1.0)
        assert c.nu == pytest.approx(0.0, abs=1e-15)
        assert c.nu_yepez == pytest.approx(0.0, abs=1e-15)
        assert c.c_s == pytest.approx(0.0, abs=1e-15)

    def test_quarter_pi(self):
        c = predicted_coefficients_1d(CollisionParams(theta=math.pi / 4), 1.0, 1.0)
        assert c.nu == pytest.approx((math.sqrt(2) - 1) / 2, rel=1e-12)

    def test_scaling(self):
        p = CollisionParams(theta=1.0)
        base = predicted_coefficients_1d(p, 1.0, 1.0)
        scaled = predicted_coefficients_1d(p, 0.5, 0.25)
        assert scaled.c_s == pytest.approx(2.0 * base.c_s)
        assert scaled.nu == pytest.approx(base.nu)  # dx^2/dt = 1 under diffusive scaling

    def test_corrected_below_yepez(self):
        for theta in np.linspace(0.02, math.pi / 2 - 0.02, 100):
            c = predicted_coefficients_1d(CollisionParams(theta=float(theta)), 1.0, 1.0)
            assert c.nu < c.nu_yepez

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            predicted_coefficients_1d(CollisionParams(theta=1.0), -1.0, 1.0)


# The collision as it was before the fused range check: a full elementwise
# mask check of both populations, then an unconditional clip, at every site.
def reference_check(f0, f1):
    for name, f in (("f0", np.asarray(f0, dtype=float)), ("f1", np.asarray(f1, dtype=float))):
        bad = (f < -RANGE_TOL) | (f > 1.0 + RANGE_TOL) | ~np.isfinite(f)
        if np.any(bad):
            idx = int(np.argmax(bad.ravel()))
            val = float(f.ravel()[idx])
            raise PopulationRangeError(
                f"population {name} out of [0, 1]: {val!r} at flat index {idx}",
                index=idx,
                value=val,
            )


def reference_omega(f0, f1, params):
    reference_check(f0, f1)
    f0 = np.clip(np.asarray(f0, dtype=float), 0.0, 1.0)
    f1 = np.clip(np.asarray(f1, dtype=float), 0.0, 1.0)
    s2, cross = collision._angle_terms(params, f0.shape)
    return np.asarray((f0 - f1) * s2 + cross * np.sqrt(f0 * (1.0 - f0) * f1 * (1.0 - f1)))


def reference_collide(f0, f1, params, omega_fn=reference_omega):
    om = omega_fn(f0, f1, params)
    g0 = np.asarray(f0, dtype=float) - om
    g1 = np.asarray(f1, dtype=float) + om
    reference_check(g0, g1)
    return np.asarray(np.clip(g0, 0.0, 1.0)), np.asarray(np.clip(g1, 0.0, 1.0))


def outcome(fn, *args):
    """What ``fn(*args)`` did: its exact error, or the type, shape and bytes of its result."""
    try:
        result = fn(*args)
    except PopulationRangeError as exc:
        return ("raised", type(exc), str(exc), exc.index, np.float64(exc.value).tobytes())
    parts = result if isinstance(result, tuple) else (result,)
    return tuple((type(r), np.shape(r), np.asarray(r).dtype, np.asarray(r).tobytes()) for r in parts)


BAD_VALUES = (math.nan, math.inf, -math.inf, -2e-12, 1.0 + 2e-12)
P_CHECK = CollisionParams(theta=1.1, zeta=0.3, xi=-0.2)


class TestFusedRangeCheck:
    """The one min/max pass accepts, rejects, names and clips exactly as the mask check did."""

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("where", (0, 13, 29))
    @pytest.mark.parametrize("which", (0, 1))
    def test_bad_input_raises_as_before(self, value, where, which):
        pops = [RNG.uniform(0, 1, size=(3, 10)), RNG.uniform(0, 1, size=(3, 10))]
        pops[which].flat[where] = value
        expected = outcome(reference_collide, *pops, P_CHECK)
        assert expected[0] == "raised" and expected[3] == where
        assert expected[2].startswith(f"population f{which} ")
        assert outcome(collide_closed_form, *pops, P_CHECK) == expected
        assert outcome(omega, *pops, P_CHECK) == outcome(reference_omega, *pops, P_CHECK)
        assert outcome(prepare_cell, *pops) == outcome(reference_check, *pops)

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("where", (0, 13, 29))
    @pytest.mark.parametrize("which", (0, 1))
    def test_bad_output_raises_as_before(self, monkeypatch, value, where, which):
        # omega is replaced by one that drives output population `which` to `value` at `where`
        # (the other one may leave the range too, and then f0 is named first, as before)
        f0 = np.full((3, 10), 0.5)
        f1 = np.full((3, 10), 0.5)
        f0.flat[where] = f1.flat[where] = 1.0 if value > 1.0 else 0.0
        om = np.zeros((3, 10))
        om.flat[where] = f0.flat[where] - value if which == 0 else value - f1.flat[where]
        fake = lambda a, b, p: om.copy()  # noqa: E731
        expected = outcome(reference_collide, f0, f1, P_CHECK, fake)
        assert expected[0] == "raised" and expected[3] == where
        monkeypatch.setattr(collision, "omega", fake)
        assert outcome(collide_closed_form, f0, f1, P_CHECK) == expected

    @pytest.mark.parametrize("value, snapped", [(-5e-13, 0.0), (1.0 + 5e-13, 1.0), (-1e-12, 0.0)])
    def test_round_off_is_clipped_exactly(self, monkeypatch, value, snapped):
        f0 = RNG.uniform(0, 1, size=7)
        f1 = RNG.uniform(0, 1, size=7)
        f0[3] = f1[5] = value
        assert outcome(omega, f0, f1, P_CHECK) == outcome(reference_omega, f0, f1, P_CHECK)
        assert outcome(prepare_cell, f0, f1) == outcome(
            prepare_cell, np.clip(f0, 0, 1), np.clip(f1, 0, 1)
        )
        f0[2] = f1[4] = 0.0 if value < 0.0 else 1.0  # so that the outputs below are exact
        om = np.zeros(7)
        om[2], om[4] = f0[2] - value, value - f1[4]
        fake = lambda a, b, p: om.copy()  # noqa: E731
        expected = outcome(reference_collide, f0, f1, P_CHECK, fake)
        monkeypatch.setattr(collision, "omega", fake)
        g0, g1 = collide_closed_form(f0, f1, P_CHECK)
        assert g0[2] == snapped and g1[4] == snapped and g0[3] == snapped
        assert outcome(collide_closed_form, f0, f1, P_CHECK) == expected

    def test_in_range_values_come_back_bit_identical(self, monkeypatch):
        f0 = np.array([-0.0, 0.0, 1.0, 0.25, -0.0, 0.75])
        f1 = np.array([0.5, -0.0, 0.0, 1.0, -0.0, 0.125])
        assert outcome(omega, f0, f1, P_CHECK) == outcome(reference_omega, f0, f1, P_CHECK)
        assert outcome(collide_closed_form, f0, f1, P_CHECK) == outcome(
            reference_collide, f0, f1, P_CHECK
        )
        # a zero collision term returns the populations themselves, signed zeros included
        fake = lambda a, b, p: np.zeros(6)  # noqa: E731
        monkeypatch.setattr(collision, "omega", fake)
        g0, _ = collide_closed_form(f0, f1, P_CHECK)
        assert g0.tobytes() == f0.tobytes()
        assert g0.tobytes() == reference_collide(f0, f1, P_CHECK, fake)[0].tobytes()

    @pytest.mark.parametrize(
        "f0, f1, params",
        [
            (0.3, 0.6, P_CHECK),
            (np.float64(0.3), 0.6, P_CHECK),
            (np.asarray(0.3), np.asarray(0.6), P_CHECK),
            (np.asarray(-5e-13), np.asarray(1.0 + 5e-13), P_CHECK),
            (np.asarray(1.0 + 2e-12), np.asarray(0.5), P_CHECK),
            (np.asarray(0.5), np.asarray(math.nan), P_CHECK),
            (np.empty(0), np.empty(0), P_CHECK),
            (np.empty((0, 4)), np.empty((0, 4)), P_CHECK),
            (0.25, np.array([0.1, 0.9, 1.0 + 5e-13]), P_CHECK),
            (
                RNG.uniform(0, 1, size=(3, 16)),
                RNG.uniform(0, 1, size=(3, 16)),
                [CollisionParams(theta=t) for t in (0.2, 1.0, math.pi / 2)],
            ),
            ([[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6], [0.7, 0.8]], [P_CHECK, P_CHECK]),
        ],
    )
    def test_input_kinds_behave_as_before(self, f0, f1, params):
        assert outcome(collide_closed_form, f0, f1, params) == outcome(
            reference_collide, f0, f1, params
        )
        assert outcome(omega, f0, f1, params) == outcome(reference_omega, f0, f1, params)

    @given(
        st.lists(
            st.one_of(
                pops,
                st.floats(min_value=-1.5e-12, max_value=0.0),
                st.floats(min_value=1.0, max_value=1.0 + 1.5e-12),
            ),
            min_size=2,
            max_size=40,
        ),
        thetas,
        angles,
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_collide_equals_reference(self, values, theta, zeta, rnd):
        f0 = np.array(values)
        f1 = np.array(rnd.sample(values, len(values)))
        p = CollisionParams(theta=theta, zeta=zeta)
        assert outcome(collide_closed_form, f0, f1, p) == outcome(reference_collide, f0, f1, p)


class TestArrayContract:
    """Arrays in, arrays out: a 0-d input gives the bits of the 1-element call, never a float."""

    @pytest.mark.parametrize(
        "fn, n_in, top",  # top: populations lie in [0, 1], densities in [0, 2]
        [
            (omega, 2, 1.0),
            (collide_closed_form, 2, 1.0),
            (collide_quantum, 2, 1.0),
            (equilibrium, 1, 2.0),
            (jacobian_gap, 1, 2.0),
        ],
    )
    def test_0d_input_gives_the_bits_of_the_1_element_call(self, fn, n_in, top):
        rng = np.random.default_rng(28)
        edges = [[0.0, -0.0, top][:n_in], [top, 0.0][:n_in], [-0.0, top / 2][:n_in]]
        cells = np.concatenate([edges, rng.uniform(0.0, top, size=(40, n_in))])
        for theta, zeta in zip(rng.uniform(0.05, math.pi / 2, 10), rng.uniform(-math.pi, math.pi, 10)):
            p = CollisionParams(theta=float(theta), zeta=float(zeta))
            for cell in cells:
                want = fn(*(np.array([v]) for v in cell), p)
                want = want if isinstance(want, tuple) else (want,)
                for kind in (float, np.float64, np.asarray):
                    got = fn(*(kind(v) for v in cell), p)
                    got = got if isinstance(got, tuple) else (got,)
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        assert type(g) is not float and np.shape(g) == ()
                        assert np.asarray(g).tobytes() == w.tobytes()
