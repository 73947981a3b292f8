"""Time stepping for the 1D and 2D quantum lattice gas.

A step is a per-site collision (closed form by default, quantum path
available) followed by classical streaming with periodic boundaries.
1D is the rank-1 case of one lattice: the ranks share the field class,
the collision and the streaming rule, which moves population ``i`` by
its integer shift (``c0 = -1``, ``c1 = +1`` sites per step in 1D, the
velocity set's pair in 2D).  That is the algorithmic description's
convention, validated against the analytic Burgers solution;
``reversed_streaming=True`` moves it the opposite way, the
finite-difference form kept for the discrepancy study.

Everything is deterministic: measurement is an expectation value, so
repeated runs are bitwise identical.

A closed-form 2D step of a field of more than ``_TILE_MIN_SITES`` sites
(two tiles) runs in row tiles of about ``_TILE_SITES`` = 2^15 sites, which
fit a core's L2 cache: each tile is collided with the one collision kernel
and its populations are copied straight to their streamed rows and columns
in the two new arrays by streaming's own slice copies, restricted to the
tile's rows: at most four per population.  No whole-field collision term
or unstreamed pair is formed, and every site gets the same operations, so
the bytes are those of the whole-field step.
A range error in any tile drops the tiles and reruns the step on the whole
field, which raises the error with the usual text, naming the first bad
site of f0 before any of f1.  Smaller fields, batches and the quantum path
take one whole-field collision followed by streaming.

A 1D field may carry a leading batch axis, shape (B, n_x), with one
:class:`CollisionParams` per row: one step then advances B independent
lattices, each row bit for bit as it would run alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .collision import (
    CollisionParams,
    PopulationRangeError,
    collide_closed_form,
    collide_quantum,
    equilibrium,
    predicted_coefficients_1d,
)

__all__ = [
    "Grid1D",
    "Grid2D",
    "PdeCoefficients2D",
    "PopulationField",
    "VelocitySet2D",
    "density",
    "init_cosine_1d",
    "init_cosine_2d",
    "predicted_coefficients_2d",
    "step_1d",
    "step_2d",
    "stream_1d",
    "stream_2d",
    "velocity_set_by_name",
]


@dataclass(frozen=True)
class Grid1D:
    """Periodic 1D grid with diffusive scaling dt = dx^2."""

    n_x: int
    length_x: float

    def __post_init__(self):
        if self.n_x < 2:
            raise ValueError(f"n_x must be >= 2, got {self.n_x}")
        if not (self.length_x > 0 and 0 < self.dt < math.inf):
            raise ValueError(f"length_x must be positive with a finite dt = dx^2 > 0, got {self.length_x}")

    @property
    def dx(self) -> float:
        return self.length_x / self.n_x

    @property
    def dt(self) -> float:
        return self.dx * self.dx

    @property
    def c(self) -> float:
        """Lattice speed dx/dt."""
        return self.dx / self.dt

    @property
    def shape(self) -> tuple:
        return (self.n_x,)

    def positions(self) -> np.ndarray:
        return np.arange(self.n_x) * self.dx

    def coordinates(self) -> tuple:
        return (self.positions(),)


@dataclass(frozen=True)
class Grid2D:
    """Periodic 2D index grid, spacing ds along both index axes, dt = ds^2."""

    n_x: int
    n_y: int
    ds: float

    def __post_init__(self):
        if self.n_x < 2 or self.n_y < 2:
            raise ValueError(f"n_x and n_y must be >= 2, got {self.n_x}, {self.n_y}")
        if not (self.ds > 0 and 0 < self.dt < math.inf):
            raise ValueError(f"ds must be positive with a finite dt = ds^2 > 0, got {self.ds}")

    @property
    def dt(self) -> float:
        return self.ds * self.ds

    @property
    def shape(self) -> tuple:
        return (self.n_x, self.n_y)

    def coordinates(self) -> tuple:
        return (np.arange(self.n_x) * self.ds, np.arange(self.n_y) * self.ds)


@dataclass(frozen=True)
class VelocitySet2D:
    """Two streaming directions on a Bravais lattice.

    ``shifts`` are the integer index moves of the two populations per
    step; ``basis`` holds the Cartesian basis vectors (e1, e2) of the
    lattice as rows.  Streaming uses only the integer shifts, so it is
    an exact permutation; the Cartesian geometry enters only through
    :func:`predicted_coefficients_2d` via c_i = n_i e1 + m_i e2.
    """

    shifts: tuple  # ((n0, m0), (n1, m1))
    basis: tuple = ((1.0, 0.0), (0.0, 1.0))
    name: str = ""

    def __post_init__(self):
        shifts, basis = _finite_pairs(self.shifts, "shifts"), _finite_pairs(self.basis, "basis")
        # the bound keeps every shift exact in the int64 arithmetic of streaming
        if np.any(shifts != np.round(shifts)) or np.any(np.abs(shifts) >= 2**31):
            raise ValueError(f"shifts must be integers of magnitude below 2**31, got {self.shifts!r}")
        if np.array_equal(shifts[0], shifts[1]):
            raise ValueError(f"the two streaming shifts must differ, got {self.shifts!r}")
        if abs(np.linalg.det(basis)) < 1e-12:
            raise ValueError(f"basis vectors are linearly dependent: {self.basis!r}")
        # given as any nested sequences of numbers, kept as tuples of ints and floats
        object.__setattr__(self, "shifts", tuple(map(tuple, shifts.astype(int).tolist())))
        object.__setattr__(self, "basis", tuple(map(tuple, basis.tolist())))

    def cartesian(self) -> tuple:
        """Cartesian velocity vectors (c0, c1)."""
        e = np.asarray(self.basis, dtype=float)
        return tuple(np.asarray(s, dtype=float) @ e for s in self.shifts)

    def index_space(self) -> "VelocitySet2D":
        """The same streaming viewed on a unit square lattice.

        Used by the finite-difference cross validation: the dynamics on
        the index grid equals a square-lattice gas whose velocities are
        the integer shifts.
        """
        return VelocitySet2D(shifts=self.shifts, name=self.name + "@index" if self.name else "")


def _finite_pairs(value, what):
    """``value`` as a 2x2 float array; a ValueError unless it is two pairs of finite numbers."""
    try:
        pairs = np.asarray(value)  # strings, None, mappings and huge integers: not kind "iuf"
    except ValueError:  # ragged
        pairs = np.asarray(None)
    if pairs.dtype.kind not in "iuf" or pairs.shape != (2, 2) or not np.all(np.isfinite(pairs)):
        raise ValueError(f"{what} must be two pairs of finite numbers, got {value!r}")
    return pairs.astype(float)


AXIS_SYMMETRIC = VelocitySet2D(shifts=((-1, 0), (1, 0)), name="axis_symmetric")
ORTHOGONAL = VelocitySet2D(shifts=((1, 0), (0, -1)), name="orthogonal")
# Triangular lattice: e1 = (1, 0), e2 = (1/2, sqrt(3)/2) gives
# c0 = (-1/2, sqrt(3)/2) and c1 = (1/2, sqrt(3)/2).
TRIANGULAR = VelocitySet2D(
    shifts=((-1, 1), (0, 1)),
    basis=((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)),
    name="triangular",
)

NAMED_VELOCITY_SETS = {
    "axis_symmetric": AXIS_SYMMETRIC,
    "orthogonal": ORTHOGONAL,
    "triangular": TRIANGULAR,
}


def velocity_set_by_name(name: str) -> VelocitySet2D:
    try:
        return NAMED_VELOCITY_SETS[name]
    except KeyError:
        raise ValueError(
            f"unknown velocity set {name!r}; known: {sorted(NAMED_VELOCITY_SETS)}"
        ) from None


@dataclass(frozen=True)
class PdeCoefficients2D:
    """Coefficients of the derived 2D equation.

        d_t rho + a . grad rho + b . [(1 - rho) grad rho]
                - div(D grad rho) = 0
    """

    a: np.ndarray
    b: np.ndarray
    D: np.ndarray


@dataclass(frozen=True)
class PopulationField:
    """The two populations on the grid's axes (axis 0 is x); 1D may add a batch axis (B, n_x)."""

    f0: np.ndarray
    f1: np.ndarray
    grid: Grid1D | Grid2D
    t: int = 0

    def __post_init__(self):
        shape = self.grid.shape
        if self.f0.shape[self.f0.ndim - len(shape) :] != shape or self.f1.shape != self.f0.shape:
            raise ValueError(
                f"field shape {self.f0.shape}/{self.f1.shape} does not match grid {shape}"
            )


def density(fld):
    """Pointwise mass density rho = f0 + f1."""
    return fld.f0 + fld.f1


def _cosine_density(grid, rho_b: float, rho_a: float) -> np.ndarray:
    """The cosine initial density of :func:`init_cosine_1d` and :func:`init_cosine_2d`."""
    if isinstance(grid, Grid1D):
        beta = 2.0 * math.pi / grid.length_x
        return rho_b + rho_a * np.cos(beta * grid.positions())
    i = np.arange(grid.n_x)[:, None]
    j = np.arange(grid.n_y)[None, :]
    return rho_b + rho_a * (np.cos(2.0 * math.pi * i / grid.n_x) + np.cos(2.0 * math.pi * j / grid.n_y))


def _check_cosine_range(rank, rho_b, rho_a):
    """Reject a cosine density on ``rank`` axes that leaves [0, 2], the densities of a site pair."""
    spread = rank * abs(rho_a)
    if not (rho_b - spread >= 0.0 and rho_b + spread <= 2.0):  # false for NaN too
        raise ValueError(f"initial density range [{rho_b - spread}, {rho_b + spread}] leaves [0, 2]")


def _cosine_pairs(grid, rho_b, rho_a, params, init):
    """Site pairs of the cosine density, after checking that it stays in [0, 2]."""
    _check_cosine_range(len(grid.shape), rho_b, rho_a)
    rho = _cosine_density(grid, rho_b, rho_a)
    if init == "equilibrium":
        return _per_row(params, lambda p: equilibrium(rho, p))
    if init == "symmetric":
        return _per_row(params, lambda p: (rho / 2.0, rho / 2.0))
    raise ValueError(f"init must be 'equilibrium' or 'symmetric', got {init!r}")


def _per_row(params, pair_of):
    """``pair_of(params)``, or for a sequence of parameter sets their pairs stacked as rows."""
    if isinstance(params, CollisionParams):
        return pair_of(params)
    pairs = [pair_of(p) for p in params]
    if not pairs:
        raise ValueError("the sequence of collision parameters is empty")
    return np.stack([f0 for f0, _ in pairs]), np.stack([f1 for _, f1 in pairs])


def init_cosine_1d(
    grid: Grid1D, rho_b: float, rho_a: float, params: CollisionParams, init: str = "equilibrium"
) -> PopulationField:
    """Field with rho(x, 0) = rho_b + rho_a cos(2 pi x / L_x).

    Site pairs are set to the equilibrium of the local density (so the
    hydrodynamic assumptions hold from t = 0) unless ``init`` selects
    the symmetric split (rho/2, rho/2).  A sequence of B parameter sets
    gives a (B, n_x) batch with row k initialised for ``params[k]``.
    """
    f0, f1 = _cosine_pairs(grid, rho_b, rho_a, params, init)
    return PopulationField(f0=f0, f1=f1, grid=grid, t=0)


def init_cosine_2d(
    grid: Grid2D, rho_b: float, rho_a: float, params: CollisionParams, init: str = "equilibrium"
) -> PopulationField:
    """Field with rho(i, j, 0) = rho_b + rho_a [cos(2 pi i / N_x) + cos(2 pi j / N_y)]."""
    f0, f1 = _cosine_pairs(grid, rho_b, rho_a, params, init)
    return PopulationField(f0=f0, f1=f1, grid=grid, t=0)


def _collide(fld, params, path):
    """Collide every site of ``fld``; a range error is raised again naming the step and site."""
    try:
        if path == "closed_form":
            return collide_closed_form(fld.f0, fld.f1, params)
        if path == "quantum":
            return collide_quantum(fld.f0, fld.f1, params)
    except PopulationRangeError as exc:
        rank = len(fld.grid.shape)
        index = tuple(int(c) for c in np.unravel_index(exc.index, fld.f0.shape))
        row, site = index[:-rank], index[-rank:]
        where = f"site x={site[0]}" if rank == 1 else f"site (i, j)={site}"
        if row:
            theta = (params if isinstance(params, CollisionParams) else params[row[0]]).theta
            where = f"theta row {row[0]} (theta={theta!r}), {where}"
        raise PopulationRangeError(
            f"collision failed at t={fld.t}, {where}: {exc}", exc.index, exc.value
        ) from exc
    raise ValueError(f"collision path must be 'closed_form' or 'quantum', got {path!r}")


# The integer shifts of f0 and f1 on a 1D lattice.
_SHIFTS_1D = ((-1,), (1,))


def _roll(f0, f1, shifts, reversed_streaming: bool) -> tuple:
    """Move population i by ``shifts[i]`` (reversed: ``-shifts[i]``) sites over the trailing
    axes, leaving a leading batch axis alone: an exact permutation.

    Equals ``np.roll`` bit for bit, without its per-call axis normalisation:
    each population is copied into one new array by slice copies, two along
    each shifted trailing axis (at most four in 2D), whose slices are worked
    out once per shift and grid shape.
    """
    sign = -1 if reversed_streaming else 1
    out = []
    for f, shift in zip((f0, f1), shifts):
        f = np.asarray(f)
        moved = np.empty_like(f)
        for dst, src in _slice_copies(shift, sign, f.shape[-len(shift) :]):
            moved[dst] = f[src]
        out.append(moved)
    return tuple(out)


@functools.lru_cache(maxsize=256)
def _slice_copies(shift, sign, shape, start=0, size=None):
    """(destination, source) index pairs that move an array whose trailing axes have
    ``shape`` periodically by ``sign * shift[k]`` sites along axis k.

    ``start`` and ``size`` pick the rows [start, start + size) of the first
    trailing axis, all of them by default; the source slices index those rows
    alone.  Each axis takes at most two pairs, the second one the wrap.
    """
    copies = (((...,), (...,)),)
    spans = ((start, shape[0] - start if size is None else size),) + tuple((0, n) for n in shape[1:])
    for c, n, (lo, m) in zip(shift, shape, spans):
        parts = ((slice(None), slice(None)),)
        if n:
            to = (lo + sign * int(c)) % n
            head = min(m, n - to)
            parts = ((slice(to, to + head), slice(0, head)),)
            if head < m:
                parts += ((slice(0, m - head), slice(head, m)),)
        copies = tuple((dst + (d,), src + (s,)) for dst, src in copies for d, s in parts)
    return copies


# A closed-form step of a 2D field of more than _TILE_MIN_SITES sites collides it
# in row tiles of about _TILE_SITES sites, whose passes run in a core's L2 (2 MB on
# the 2-core machine measured): 7.3-7.6 ns/site per 512^2 and 1024^2 step against
# 12.8-13.6 for the whole field, while at 2^15 sites the whole-field call was faster.
_TILE_SITES = 1 << 15
_TILE_MIN_SITES = 2 * _TILE_SITES


def _collide_and_stream_tiles(f0, f1, params, shifts, reversed_streaming):
    """Closed-form collision and streaming of a 2D field, one row tile at a time.

    Each tile's collided populations are copied straight into their streamed
    places in the two new arrays by the slice copies of streaming, restricted to
    the tile's rows, so no whole-field collision term or unstreamed pair is
    formed.  Every site goes through the same operations as in the whole-field
    call, so the result is the same bit for bit.
    """
    sign = -1 if reversed_streaming else 1
    n_x = f0.shape[0]
    rows = max(1, _TILE_SITES // f0.shape[1])
    out = np.empty(f0.shape), np.empty(f0.shape)
    for start in range(0, n_x, rows):
        size = min(rows, n_x - start)
        tile = slice(start, start + size)
        for g, moved, shift in zip(collide_closed_form(f0[tile], f1[tile], params), out, shifts):
            for dst, src in _slice_copies(shift, sign, f0.shape, start, size):
                moved[dst] = g[src]
    return out


def stream_1d(f0, f1, reversed_streaming: bool = False) -> tuple:
    """Streaming alone: f0 moves one site left and f1 one site right, along the last axis."""
    return _roll(f0, f1, _SHIFTS_1D, reversed_streaming)


def stream_2d(f0, f1, vset: VelocitySet2D, reversed_streaming: bool = False) -> tuple:
    """Streaming alone in 2D: shift population i by its integer shift pair."""
    return _roll(f0, f1, vset.shifts, reversed_streaming)


def step_1d(
    fld: PopulationField,
    params: CollisionParams,
    collision: str = "closed_form",
    reversed_streaming: bool = False,
) -> PopulationField:
    """One collision + streaming step with periodic wraparound.

    Default streaming moves population i by c_i sites (c0 = -1,
    c1 = +1); ``reversed_streaming`` moves it by -c_i, the literal
    finite-difference convention, kept for the sign-discrepancy study.
    A (B, n_x) batch field takes a sequence of B parameter sets, one per
    row; the quantum path takes only one set.
    """
    g0, g1 = _collide(fld, params, collision)
    f0, f1 = stream_1d(g0, g1, reversed_streaming)
    return PopulationField(f0=f0, f1=f1, grid=fld.grid, t=fld.t + 1)


def step_2d(
    fld: PopulationField,
    params: CollisionParams,
    vset: VelocitySet2D,
    collision: str = "closed_form",
    reversed_streaming: bool = False,
) -> PopulationField:
    """One 2D step: same collision as 1D, streaming by integer shifts.

    A closed-form step of one field of more than ``_TILE_MIN_SITES`` sites
    collides and streams it in row tiles; a range error in any tile reruns
    the step on the whole field, which raises it as every other step does.
    """
    if (
        fld.f0.size > _TILE_MIN_SITES
        and fld.f0.ndim == 2
        and collision == "closed_form"
        and isinstance(params, CollisionParams)
    ):
        try:
            f0, f1 = _collide_and_stream_tiles(
                fld.f0, fld.f1, params, vset.shifts, reversed_streaming
            )
        except PopulationRangeError:
            pass  # the whole-field path names the first bad site, f0 before f1
        else:
            return PopulationField(f0=f0, f1=f1, grid=fld.grid, t=fld.t + 1)
    g0, g1 = _collide(fld, params, collision)
    f0, f1 = stream_2d(g0, g1, vset, reversed_streaming)
    return PopulationField(f0=f0, f1=f1, grid=fld.grid, t=fld.t + 1)


def predicted_coefficients_2d(
    vset: VelocitySet2D, params: CollisionParams, ds: float, dt: float
) -> PdeCoefficients2D:
    """Coefficients (a, b, D) of the derived 2D equation.

    With c = ds/dt and (c_s, nu) from the 1D prediction:

        a = (c/2) (c0 + c1)
        b = (c_s/2) (c1 - c0)
        D = (nu/2) (c0 c0^T + c1 c1^T)

    The sign of b is pinned by the 1D reduction: for c0 = (-1, 0),
    c1 = (1, 0) the equation must collapse onto
    d_t rho + c_s (1 - rho) d_x rho = nu d_xx rho.
    """
    coeffs = predicted_coefficients_1d(params, ds, dt)
    c = ds / dt
    c0, c1 = vset.cartesian()
    a = 0.5 * c * (c0 + c1)
    b = 0.5 * coeffs.c_s * (c1 - c0)
    d = 0.5 * coeffs.nu * (np.outer(c0, c0) + np.outer(c1, c1))
    return PdeCoefficients2D(a=a, b=b, D=d)
