"""Explicit finite-difference reference solver for the derived equations.

Solves the 2D anisotropic form

    d_t rho = -a . grad rho - b . [(1 - rho) grad rho] + div(D grad rho)

with explicit Euler in time and second-order central differences in
space (the cross derivative uses the 4-point corner stencil), periodic
boundaries.  The 1D equation d_t rho + c_s (1 - rho) d_x rho = nu d_xx rho
is its case a = 0, b = (c_s, 0), D = diag(nu, 0) on a single column, whose
y terms are exact zeros.  Each update copies the field once into an array
with one periodic ghost cell on every side (a halo) and reads all
neighbours, corners included, as views of that copy.  The nonlinear term
is discretized non-conservatively, exactly as the equation is written.

The scheme is intentionally plain: near shock formation it is expected
to go unstable, which mirrors the behaviour reported for the reference
method this solver reproduces.  Divergence (NaN/Inf or a density
excursion beyond 10x the initial amplitude) is detected and raised with
the first offending step, never silently ignored.  Optional
sub-stepping splits each lattice time step into k explicit substeps
when the stability bound is violated.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import PdeCoefficients2D

__all__ = [
    "FdmDivergenceError",
    "divergence_check",
    "fdm_step_1d",
    "fdm_step_2d",
    "substeps_auto",
]


class FdmDivergenceError(RuntimeError):
    """The explicit solver diverged; ``step`` is the first bad step."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


def divergence_check(rho, rho_b: float, rho_a: float, step: int):
    """Raise :class:`FdmDivergenceError` if the field has blown up."""
    if not np.all(np.isfinite(rho)):
        raise FdmDivergenceError(f"non-finite density at step {step}", step)
    if rho_a > 0.0 and np.max(np.abs(rho - rho_b)) > 10.0 * rho_a:
        raise FdmDivergenceError(
            f"density excursion {np.max(np.abs(rho - rho_b)):.3g} > 10 rho_a at step {step}",
            step,
        )


def _periodic_halo(rho: np.ndarray) -> np.ndarray:
    """Copy of ``rho`` with one periodic ghost cell on both sides of every axis.

    Axes are wrapped in order and each wrap copies whole padded slices,
    ghost cells of the earlier axes included, so the corners receive the
    diagonal periodic neighbours.
    """
    halo = np.empty(tuple(n + 2 for n in rho.shape), dtype=rho.dtype)
    halo[(slice(1, -1),) * rho.ndim] = rho
    for axis in range(rho.ndim):
        lead = (slice(None),) * axis
        halo[lead + (0,)] = halo[lead + (-2,)]
        halo[lead + (-1,)] = halo[lead + (1,)]
    return halo


def _axis_aligned(c_s: float, nu: float) -> PdeCoefficients2D:
    """The 1D coefficients (c_s, nu) as the 2D set a = 0, b = (c_s, 0), D = diag(nu, 0)."""
    return PdeCoefficients2D(a=np.zeros(2), b=np.array([c_s, 0.0]), D=np.diag([nu, 0.0]))


def _euler(rho: np.ndarray, coeffs, ds: float, dt: float) -> np.ndarray:
    """Explicit Euler update of the 2D equation; axis 0 of ``rho`` is x, axis 1 is y."""
    a, b, d = coeffs.a, coeffs.b, coeffs.D
    halo = _periodic_halo(rho)
    xf, xb = halo[2:, 1:-1], halo[:-2, 1:-1]
    yf, yb = halo[1:-1, 2:], halo[1:-1, :-2]
    rx = (xf - xb) / (2.0 * ds)
    ry = (yf - yb) / (2.0 * ds)
    rxx = (xf - 2.0 * rho + xb) / (ds * ds)
    ryy = (yf - 2.0 * rho + yb) / (ds * ds)
    rxy = (halo[2:, 2:] - halo[2:, :-2] - halo[:-2, 2:] + halo[:-2, :-2]) / (4.0 * ds * ds)
    advection = a[0] * rx + a[1] * ry + (1.0 - rho) * (b[0] * rx + b[1] * ry)
    diffusion = d[0, 0] * rxx + d[1, 1] * ryy + 2.0 * d[0, 1] * rxy
    return rho + dt * (-advection + diffusion)


def fdm_step_1d(rho: np.ndarray, c_s: float, nu: float, dx: float, dt: float) -> np.ndarray:
    """One explicit Euler update of the 1D equation, periodic: the 2D update on one column."""
    return _euler(rho[:, None], _axis_aligned(c_s, nu), dx, dt)[:, 0]


def fdm_step_2d(rho: np.ndarray, coeffs, ds: float, dt: float) -> np.ndarray:
    """One explicit Euler update of the 2D equation, periodic; ``coeffs`` has a, b and D."""
    return _euler(rho, coeffs, ds, dt)


# The largest substep count per lattice step that substeps_auto returns: a
# larger one is a run that would not end, not a stability bound to honour.
_MAX_AUTO_SUBSTEPS = 10**6


def substeps_auto(coeffs, ds: float, dt: float, drift_bound: float = 1.0) -> int:
    """Number of substeps needed for a stable explicit update.

    Combines the CFL-like bound max|d| dt/ds + 2 max eig(D) dt/ds^2
    <= 1/2 (d = a + (1 - rho) b, with |1 - rho| <= ``drift_bound``)
    with the von Neumann bound dt <= 2 D_ii / d_i^2 per axis, which
    governs central advection-diffusion stability.  Returns 1 when the
    bounds already hold for the full step; a ValueError when the count
    is not finite or exceeds ``_MAX_AUTO_SUBSTEPS``.
    """
    a, b, d = coeffs.a, coeffs.b, coeffs.D
    drift = np.abs(a) + drift_bound * np.abs(b)
    eigmax = float(np.max(np.linalg.eigvalsh(d))) if np.any(d) else 0.0
    k_cfl = (float(np.sum(drift)) * dt / ds + 2.0 * eigmax * dt / (ds * ds)) / 0.5
    k_vn = 0.0
    with np.errstate(over="ignore"):  # an overflow is an infinite count, rejected below
        for axis in range(2):
            if d[axis, axis] > 0.0:
                k_vn = max(k_vn, dt * drift[axis] ** 2 / (2.0 * d[axis, axis]))
    k = max(k_cfl, k_vn)
    if not k <= _MAX_AUTO_SUBSTEPS:  # false for NaN too
        raise ValueError(f"stability needs {float(k):.6g} substeps per step, over {_MAX_AUTO_SUBSTEPS}")
    return max(1, int(math.ceil(k)))
