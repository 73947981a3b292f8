"""Collision kernel for the two-qubit quantum lattice gas cell.

Each lattice site carries two populations ``(f0, f1)`` in ``[0, 1]``,
encoded as a disentangled two-qubit state.  The collision is a
mass-conserving 4x4 unitary parametrized by three Euler angles
``(theta, zeta, xi)``; measuring the number operators after the unitary
yields the post-collision populations.  The same update has a closed
form, ``(f0 - omega, f1 + omega)``, with a single scalar collision term
``omega``.  Both paths are implemented and kept equivalent to 1e-12.

All functions are pure and never mutate their inputs.  Population and
density arguments are read as float arrays, and each function returns
what numpy computes for them: arrays for arrays, and a 0-d array or
numpy scalar for a 0-d input, never a Python float.  :func:`omega` and
:func:`collide_closed_form` also take a sequence of parameter sets, one
per leading row of the populations, so a sweep collides every angle in
one call with each row's arithmetic unchanged.

Every population entering :func:`prepare_cell` or :func:`omega`, and
every one leaving :func:`collide_closed_form`, is range-checked on every
site.  The check costs one min and one max reduction per array; the
elementwise mask that names the first bad site is built only when the
check fails, and the clip runs only when a value lies outside [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALPHA_SYMMETRIC_CUTOFF",
    "CollisionParams",
    "PdeCoefficients1D",
    "PopulationRangeError",
    "build_collision_unitary",
    "collide_closed_form",
    "collide_quantum",
    "equilibrium",
    "jacobian_gap",
    "measure_populations",
    "omega",
    "predicted_coefficients_1d",
    "prepare_cell",
]

# Below this |alpha| the equilibrium formula is evaluated in its
# symmetric limit (rho/2, rho/2) to avoid 0/0.
ALPHA_SYMMETRIC_CUTOFF = 1e-8

# Populations may stray this far outside [0, 1] from round-off and are
# clipped back onto it; anything worse, and any NaN or infinity, is
# treated as invalid input rather than clamped away.  The collision maps
# [0, 1]^2 into itself, so after a checked start only round-off reaches
# this band; the checks stay on every step because they are cheap and a
# corrupted field must stop the run where it happened.
RANGE_TOL = 1e-12


class PopulationRangeError(ValueError):
    """A population left [0, 1] by more than the round-off tolerance."""

    def __init__(self, message, index=None, value=None):
        super().__init__(message)
        self.index = index
        self.value = value


@dataclass(frozen=True)
class CollisionParams:
    """Euler angles of the mass-conserving collision unitary.

    ``theta`` controls the collision strength and must lie in
    ``(0, pi/2]``: at theta -> 0 the derived advection speed diverges
    (alpha ~ 1/sin(theta)), so that endpoint is rejected.  ``zeta`` and
    ``xi`` are free phases; all observable quantities depend on them
    only through ``cos(zeta - xi)``, so ``zeta - xi`` must be finite.
    """

    theta: float
    zeta: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.theta <= math.pi / 2:
            raise ValueError(
                f"theta must lie in (0, pi/2], got {self.theta!r}; "
                "alpha = cot(theta) cos(zeta - xi) diverges at theta = 0"
            )
        if not math.isfinite(self.zeta - self.xi):
            raise ValueError(f"zeta - xi must be finite, got {self.zeta!r} - {self.xi!r}")

    def alpha(self) -> float:
        """Advection parameter cot(theta) * cos(zeta - xi)."""
        return math.cos(self.theta) / math.sin(self.theta) * math.cos(self.zeta - self.xi)


@dataclass(frozen=True)
class PdeCoefficients1D:
    """Macroscopic coefficients of the derived 1D equation.

    ``c_s`` is the advection speed, ``nu`` the corrected kinematic
    viscosity and ``nu_yepez`` the viscosity of the original
    formulation, cot^2(theta)/2 in lattice units.
    """

    c_s: float
    nu: float
    nu_yepez: float


def _in_unit_range(f, name):
    """``f`` as a float array, checked against [0, 1] and snapped onto it.

    One min/max pass decides: NaN propagates through both reductions and
    +-inf fails the bounds, so it accepts exactly the inputs whose every
    element is finite and within :data:`RANGE_TOL` of [0, 1].  Only a
    failure builds the elementwise mask, to name the first bad element.
    The clip runs only when a value lies outside [0, 1]; inside, it would
    be the identity (``-0.0`` included), so skipping it keeps the bytes.
    """
    f = np.asarray(f, dtype=float)
    if not f.size:
        return f
    lo = np.minimum.reduce(f, axis=None)
    hi = np.maximum.reduce(f, axis=None)
    if not (lo >= -RANGE_TOL and hi <= 1.0 + RANGE_TOL):
        bad = (f < -RANGE_TOL) | (f > 1.0 + RANGE_TOL) | ~np.isfinite(f)
        idx = int(np.argmax(bad.ravel()))
        val = float(f.ravel()[idx])
        raise PopulationRangeError(
            f"population {name} out of [0, 1]: {val!r} at flat index {idx}",
            index=idx,
            value=val,
        )
    if lo < 0.0 or hi > 1.0:
        return np.clip(f, 0.0, 1.0)
    return f


def build_collision_unitary(params: CollisionParams) -> np.ndarray:
    """Return the 4x4 collision unitary in the |q0 q1> basis.

    The matrix acts as the identity on |00> and |11> (mass
    conservation) and rotates the inner {|01>, |10>} block by theta with
    phases zeta, xi.
    """
    th, ze, xi = params.theta, params.zeta, params.xi
    u = np.eye(4, dtype=complex)
    u[1, 1] = np.exp(1j * xi) * math.cos(th)
    u[1, 2] = np.exp(1j * ze) * math.sin(th)
    u[2, 1] = -np.exp(-1j * ze) * math.sin(th)
    u[2, 2] = np.exp(-1j * xi) * math.cos(th)
    return u


def prepare_cell(f0, f1) -> np.ndarray:
    """Encode populations into two-qubit amplitudes.

    Returns an array of shape ``(..., 4)`` with the amplitude of basis
    state |q0 q1> at index ``2*q0 + q1``; all amplitudes are real and
    non-negative, and measuring the number operators recovers
    ``(f0, f1)`` exactly.
    """
    f0 = _in_unit_range(f0, "f0")
    f1 = _in_unit_range(f1, "f1")
    amps = np.stack(
        [
            np.sqrt((1.0 - f0) * (1.0 - f1)),
            np.sqrt((1.0 - f0) * f1),
            np.sqrt(f0 * (1.0 - f1)),
            np.sqrt(f0 * f1),
        ],
        axis=-1,
    )
    return amps.astype(complex)


def measure_populations(state) -> tuple:
    """Expectation values of the number operators n0, n1.

    ``n0 = diag(0, 0, 1, 1)`` and ``n1 = diag(0, 1, 0, 1)``, so
    ``f0 = |a10|^2 + |a11|^2`` and ``f1 = |a01|^2 + |a11|^2``.  The
    state must be normalized to 1e-12.
    """
    state = np.asarray(state)
    if state.shape[-1] != 4:
        raise ValueError(f"cell state must have 4 amplitudes, got shape {state.shape}")
    p = np.abs(state) ** 2
    norm = p.sum(axis=-1)
    if np.any(np.abs(norm - 1.0) > 1e-12):
        raise ValueError(f"cell state not normalized: sum |a|^2 = {norm!r}")
    f0 = p[..., 2] + p[..., 3]
    f1 = p[..., 1] + p[..., 3]
    return f0, f1


def collide_quantum(f0, f1, params: CollisionParams) -> tuple:
    """Collision via the explicit quantum path: prepare, apply U, measure.

    Mass is conserved per cell: f0' + f1' = f0 + f1 to 1e-12.  Takes one
    parameter set; a sequence of them raises ``ValueError``.
    """
    if not isinstance(params, CollisionParams):
        raise ValueError("the quantum collision path takes one CollisionParams, not a sequence")
    u = build_collision_unitary(params)
    psi = prepare_cell(f0, f1)
    psi = psi @ u.T
    return measure_populations(psi)


# The last (params, shape, columns) of a tuple of parameter sets: a run
# passes the same tuple on every step, and tuples of frozen parameter sets
# cannot change, so their columns are built once per run.
_last_columns = None


def _angle_terms(params, shape):
    """sin^2(theta) and sin(2 theta) cos(zeta - xi) of ``params``.

    For a sequence of B parameter sets each term is a read-only float64
    column of shape (B, 1, ...) that broadcasts against populations of
    ``shape``, one set per leading row.  Every entry is computed with
    ``math.*`` as for a single set: numpy's vector sine can differ in the
    last bit.  The columns of the last tuple seen, keyed on its identity and
    ``shape``, are reused; any other sequence, a list say, is read afresh.
    """
    global _last_columns
    if isinstance(params, CollisionParams):
        th = params.theta
        return math.sin(th) ** 2, math.sin(2.0 * th) * math.cos(params.zeta - params.xi)
    last = _last_columns
    if last is not None and last[0] is params and last[1] == shape:
        return last[2]
    terms = np.array([_angle_terms(p, ()) for p in params], dtype=float).reshape(-1, 2)
    if shape[:1] != (len(terms),) or not terms.size:
        raise ValueError(
            f"{len(terms)} parameter sets need populations with one leading row each, "
            f"got shape {shape}"
        )
    terms.setflags(write=False)
    column = (len(terms),) + (1,) * (len(shape) - 1)
    columns = terms[:, 0].reshape(column), terms[:, 1].reshape(column)
    if type(params) is tuple:
        _last_columns = (params, shape, columns)
    return columns


def omega(f0, f1, params):
    """Scalar collision term.

    omega = (f0 - f1) sin^2(theta)
            + sin(2 theta) cos(zeta - xi) sqrt(f0 (1-f0) f1 (1-f1)),

    applied as f0 -> f0 - omega, f1 -> f1 + omega.  ``params`` is one
    :class:`CollisionParams` or a sequence of B of them, one per leading
    row of populations of shape (B, ...); every row then equals the call
    with its own parameter set bit for bit.
    """
    f0 = _in_unit_range(f0, "f0")
    f1 = _in_unit_range(f1, "f1")
    s2, cross = _angle_terms(params, f0.shape)
    if f0.shape != f1.shape:
        f0, f1 = np.broadcast_arrays(f0, f1)
    # (f0 - f1) s2 + cross sqrt(((f0 (1 - f0)) f1) (1 - f1)) in two buffers, each
    # product in the association above; + and * commute exactly, so the
    # order of operands does not change a bit
    out = np.subtract(1.0, f1, out=np.empty(f0.shape))
    root = np.subtract(1.0, f0, out=np.empty(f0.shape))
    np.multiply(root, f0, out=root)
    np.multiply(root, f1, out=root)
    np.multiply(root, out, out=root)
    np.sqrt(root, out=root)
    np.multiply(root, cross, out=root)
    np.subtract(f0, f1, out=out)
    np.multiply(out, s2, out=out)
    np.add(out, root, out=out)
    return out


def collide_closed_form(f0, f1, params) -> tuple:
    """Collision via the closed form (f0 - omega, f1 + omega).

    Equivalent to :func:`collide_quantum` to 1e-12 but roughly an order
    of magnitude cheaper.  ``params`` is one :class:`CollisionParams` or
    a sequence of them, one per leading row, as in :func:`omega`.
    Post-collision populations are checked against [0, 1], on every row;
    an excursion beyond round-off tolerance raises
    :class:`PopulationRangeError` instead of being clamped, since it
    signals inconsistent inputs rather than physics.
    """
    om = omega(f0, f1, params)
    g0 = np.asarray(f0, dtype=float) - om
    g1 = np.add(f1, om, out=om)  # omega's own buffer
    return _in_unit_range(g0, "f0"), _in_unit_range(g1, "f1")


def equilibrium(rho, params: CollisionParams) -> tuple:
    """Equilibrium populations at mass density rho in [0, 2].

    The fixed point of the collision is

        f0 = rho/2 - (sqrt(a^2+1) - sqrt(a^2+1 - 2 a^2 rho + a^2 rho^2)) / (2a)
        f1 = rho/2 + (same) / (2a)

    with a = alpha.  For |alpha| below :data:`ALPHA_SYMMETRIC_CUTOFF`
    the analytic limit (rho/2, rho/2) is returned.  Note the branch
    assignment: for alpha > 0 the equilibrium favours f1 (the
    population streaming along +x); this is forced by omega = 0
    together with the collision unitary, and is verified against the
    quantum path in the tests.

    The populations are formed in two new arrays and one temporary, each
    operation in place with ``out=`` and in the order of the formula above,
    then clipped onto [0, 1] in place.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0.0) or np.any(rho_arr > 2.0):
        raise ValueError(f"rho must lie in [0, 2], got {rho!r}")
    a = params.alpha()
    f0 = np.empty(rho_arr.shape)
    f1 = np.divide(rho_arr, 2.0, out=np.empty(rho_arr.shape))
    if abs(a) < ALPHA_SYMMETRIC_CUTOFF:
        np.copyto(f0, f1)
    else:
        # gap = (p - q) / (2a) with q = sqrt(a a + 1 - 2 a a rho + a a rho rho), one
        # operation per pass in that association; f0 is scratch
        aa = a * a
        gap = np.multiply(2.0 * a * a, rho_arr, out=np.empty(rho_arr.shape))
        np.subtract(aa + 1.0, gap, out=gap)
        np.multiply(aa, rho_arr, out=f0)
        np.multiply(f0, rho_arr, out=f0)
        np.add(gap, f0, out=gap)
        np.sqrt(gap, out=gap)
        np.subtract(math.sqrt(aa + 1.0), gap, out=gap)
        np.divide(gap, 2.0 * a, out=gap)
        np.divide(rho_arr, 2.0, out=f0)
        np.subtract(f0, gap, out=f0)
        np.add(f1, gap, out=f1)
    np.clip(f0, 0.0, 1.0, out=f0)
    np.clip(f1, 0.0, 1.0, out=f1)
    return f0, f1


def jacobian_gap(rho, params: CollisionParams):
    """Difference J1 - J0 of the collision Jacobian at equilibrium.

    J_i = d omega / d f_i evaluated at equilibrium(rho).  Closed form:

        J1 - J0 = -2 sin^2(theta) sqrt(a^2 + 1)
                  * sqrt(a^2 + 1 - 2 a^2 rho + a^2 rho^2)

    This is checked against a central finite difference of omega in the
    tests; it fixes the viscosity correction through 1/(J1 - J0).
    """
    rho = np.asarray(rho, dtype=float)
    a = params.alpha()
    q = np.sqrt(a * a + 1.0 - 2.0 * a * a * rho + a * a * rho * rho)
    return -2.0 * math.sin(params.theta) ** 2 * math.sqrt(a * a + 1.0) * q


def predicted_coefficients_1d(params: CollisionParams, dx: float, dt: float) -> PdeCoefficients1D:
    """Macroscopic coefficients of the derived 1D equation.

        d_t rho + c_s (1 - rho) d_x rho = nu d_xx rho

    with c = dx/dt, c_s = c * alpha,
    nu = -(dx^2/dt) (1/2) (1 - 1/(sin^2(theta) sqrt(alpha^2 + 1))),
    and nu_yepez = (dx^2/dt) cot^2(theta)/2 for comparison with the
    original formulation.
    """
    if dx <= 0.0 or dt <= 0.0:
        raise ValueError(f"dx and dt must be positive, got dx={dx!r}, dt={dt!r}")
    a = params.alpha()
    s2 = math.sin(params.theta) ** 2
    c = dx / dt
    scale = dx * dx / dt
    nu = -scale * 0.5 * (1.0 - 1.0 / (s2 * math.sqrt(a * a + 1.0)))
    cot = math.cos(params.theta) / math.sin(params.theta)
    nu_yepez = scale * cot * cot / 2.0
    return PdeCoefficients1D(c_s=c * a, nu=nu, nu_yepez=nu_yepez)
