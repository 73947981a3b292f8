"""Explicit finite-difference reference solver for the derived equations.

Solves the 2D anisotropic form

    d_t rho = -a . grad rho - b . [(1 - rho) grad rho] + div(D grad rho)

with explicit Euler in time and second-order central differences in
space (the cross derivative uses the 4-point corner stencil), periodic
boundaries.  The 1D equation d_t rho + c_s (1 - rho) d_x rho = nu d_xx rho
is its case a = 0, b = (0, c_s), D = diag(0, nu) on a single row, whose
x differences are exact zeros and whose cross term has a zero coefficient:
:func:`fdm_step_2d` updates a rank-1 field as one row, so each pass covers
about one entry per cell, there is no separate 1D update, and
``_axis_aligned`` is the one statement of that coefficient set.  The
nonlinear term is discretized non-conservatively, exactly as the equation
is written.

Each update reads the six numbers of its coefficient set once, as plain
floats, and copies the (n_x, n_y) field once into a flat buffer of
(n_x + 2) rows of w = n_y + 2, with one periodic ghost cell on every side,
corners included.  Cell (i, j) sits at w (i + 1) + j + 1, so its x
neighbours are w entries away, its y neighbours one, and its diagonal
ones w + 1 and w - 1.  Every ufunc pass then runs once over the contiguous stretch
from the first cell to the last, n_x w - 2 entries, into temporaries that
``out=`` reuses.  The stretch takes in the ghost columns between rows;
their entries get throwaway values and are never returned.  A run passes
one ``work`` dict to all its updates, which keeps the buffers, and the
views of them that an update reads and writes, per field shape for as
long as the run lasts.

The scheme is intentionally plain: near shock formation it is expected
to go unstable, which mirrors the behaviour reported for the reference
method this solver reproduces.  Divergence (NaN/Inf or a density
excursion beyond 10x the magnitude of the initial amplitude) is detected
and raised with the first offending step, never silently ignored.  Optional
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
    if rho_a != 0.0 and np.max(np.abs(rho - rho_b)) > 10.0 * abs(rho_a):
        raise FdmDivergenceError(
            f"density excursion {np.max(np.abs(rho - rho_b)):.3g} > 10 |rho_a| at step {step}",
            step,
        )


def _axis_aligned(c_s: float, nu: float) -> PdeCoefficients2D:
    """The 1D coefficients (c_s, nu) as the 2D set of a row: a = 0, b = (0, c_s), D = diag(0, nu)."""
    return PdeCoefficients2D(np.zeros(2), np.array([0.0, c_s]), np.array([[0.0, 0.0], [0.0, nu]]))


def _buffers(shape, work):
    """The buffers of an update of a field of ``shape`` and their views, kept in ``work`` if given.

    Returns the padded field as (n_x + 2, w) rows, the nine neighbour reads
    of the run (centre, x forward and back, y forward and back, then the
    diagonals +x+y, +x-y, -x+y, -x-y), the five temporary rows, and the
    cells of the fourth row, which ends up holding the increment.
    """
    bufs = None if work is None else work.get(shape)
    if bufs is None:
        n_x, n_y = shape
        w = n_y + 2
        pad, tmp = np.empty((n_x + 2) * w), np.empty((5, n_x * w))
        run = n_x * w - 2
        reads = tuple(
            pad[w + 1 + k : w + 1 + k + run] for k in (0, w, -w, 1, -1, w + 1, w - 1, 1 - w, -w - 1)
        )
        bufs = pad.reshape(n_x + 2, w), reads, tuple(tmp[:, :run]), tmp[3].reshape(n_x, w)[:, :n_y]
        if work is not None:
            work[shape] = bufs
    return bufs


def fdm_step_2d(rho: np.ndarray, coeffs, ds: float, dt: float, work=None) -> np.ndarray:
    """One explicit Euler update of the 2D equation, periodic; ``coeffs`` has a, b and D.

    Axis 0 of ``rho`` is x and axis 1 is y.  A rank-1 ``rho`` is one row
    (n_x = 1), and the result has its shape.  ``work`` is an optional dict in
    which the update keeps its buffers between calls; a run passes one to all
    its updates.  Each pass forms one operation of

        rho + dt (-(a0 rx + a1 ry + (1 - rho)(b0 rx + b1 ry))
                  + (d00 rxx + d11 ryy + (2 d01) rxy)),

    in this association and with the quotients of the stencils below, so
    the result is that of the whole-array expression bit for bit.
    """
    (a0, a1), (b0, b1), ((dxx, dxy), (_, dyy)) = [c.tolist() for c in (coeffs.a, coeffs.b, coeffs.D)]
    field = rho.reshape(-1, rho.shape[-1])
    halo, reads, (rx, ry, p, q, r), update = _buffers(field.shape, work)
    c, xf, xb, yf, yb, pp, pm, mp, mm = reads
    halo[1:-1, 1:-1] = field
    halo[0, 1:-1] = halo[-2, 1:-1]
    halo[-1, 1:-1] = halo[1, 1:-1]
    halo[:, 0] = halo[:, -2]
    halo[:, -1] = halo[:, 1]
    np.subtract(xf, xb, out=rx)
    np.divide(rx, 2.0 * ds, out=rx)  # rx = (xf - xb) / (2 ds)
    np.subtract(yf, yb, out=ry)
    np.divide(ry, 2.0 * ds, out=ry)  # ry
    np.multiply(c, 2.0, out=r)  # 2 rho, for both axes
    np.subtract(xf, r, out=p)
    np.add(p, xb, out=p)
    np.divide(p, ds * ds, out=p)  # rxx = (xf - 2 rho + xb) / ds^2
    np.subtract(yf, r, out=r)
    np.add(r, yb, out=r)
    np.divide(r, ds * ds, out=r)  # ryy
    np.multiply(p, dxx, out=p)
    np.multiply(r, dyy, out=r)
    np.add(p, r, out=p)  # d00 rxx + d11 ryy
    np.subtract(pp, pm, out=r)
    np.subtract(r, mp, out=r)
    np.add(r, mm, out=r)
    np.divide(r, 4.0 * ds * ds, out=r)  # rxy = (pp - pm - mp + mm) / (4 ds^2)
    np.multiply(r, 2.0 * dxy, out=r)
    np.add(p, r, out=p)  # diffusion
    np.multiply(rx, a0, out=q)
    np.multiply(ry, a1, out=r)
    np.add(q, r, out=q)  # a0 rx + a1 ry
    np.multiply(rx, b0, out=r)
    np.multiply(ry, b1, out=rx)
    np.add(r, rx, out=r)  # b0 rx + b1 ry
    np.subtract(1.0, c, out=rx)
    np.multiply(rx, r, out=r)
    np.add(q, r, out=q)  # advection
    np.negative(q, out=q)
    np.add(q, p, out=q)
    np.multiply(q, dt, out=q)
    out = np.add(field, update, out=np.empty(field.shape))
    return out.reshape(rho.shape)  # a new field


# The largest substep count per lattice step that substeps_auto returns: a
# larger one is a run that would not end, not a stability bound to honour.
_MAX_AUTO_SUBSTEPS = 10**6


def substeps_auto(coeffs, ds: float, dt: float) -> int:
    """Number of substeps needed for a stable explicit update.

    Combines the CFL-like bound max|d| dt/ds + 2 max eig(D) dt/ds^2
    <= 1/2 (d = a + (1 - rho) b, bounded by |a| + |b| as |1 - rho| <= 1)
    with the von Neumann bound dt <= 2 D_ii / d_i^2 per axis, which
    governs central advection-diffusion stability.  Returns 1 when the
    bounds already hold for the full step; a ValueError when the count
    is not finite or exceeds ``_MAX_AUTO_SUBSTEPS``.
    """
    a, b, d = coeffs.a, coeffs.b, coeffs.D
    drift = np.abs(a) + np.abs(b)
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
