"""Closed-form Burgers solution for the 1D cosine initial condition.

The derived macroscopic equation

    d_t rho + c_s (1 - rho) d_x rho = nu d_xx rho

maps to Burgers' equation for w = c_s (1 - rho).  With the periodic
cosine initial density the Cole-Hopf transform turns it into a heat
problem whose solution is a modified-Bessel series:

    psi(y, t) = I_0(A) + 2 sum_{l>=1} I_l(A) exp(-nu l^2 beta^2 t) F_l(y)
    F_l(y)    = cos(l pi / 2) cos(l beta y) + sin(l pi / 2) sin(l beta y)
    w(x, t)   = w_bar - 2 nu d_y ln psi(y, t),   y = x - w_bar t,
    rho       = 1 - w / (c alpha)

with beta = 2 pi / L_x, A = c alpha rho_a / (2 nu beta) and
w_bar = c alpha (1 - rho_b): the perturbation around the mean w_bar
solves Burgers' equation in the frame moving with w_bar.

Bessel functions enter only through the ratios I_l(A)/I_0(A), computed
by normalized backward recurrence; the unscaled I_l(A) ~ e^A / sqrt(A)
would overflow long before the ratios lose accuracy.  Sums are carried
in extended precision: psi has dynamic range ~ e^{2A} across the
domain, and in plain float64 the cancellation near its minimum shows up
as ~1e-4 noise in rho for the reference configuration (A ~ 15), versus
~1e-8 with 80-bit arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AnalyticConfig",
    "TruncationError",
    "bessel_ratios",
    "cole_hopf_density",
    "evaluate_on_grid",
]

_LD = np.longdouble

# cos(l pi / 2), sin(l pi / 2) by l mod 4, evaluated exactly.
_COS_HALF_PI = (1, 0, -1, 0)
_SIN_HALF_PI = (0, 1, 0, -1)

# The largest Bessel argument |A| that AnalyticConfig accepts.  The backward
# recurrence starts at an order of at least ceil(A), so A = 10**7 already
# takes a 160 MB long-double table and, at the 5.5 s measured for 10**6 on a
# 2-core machine, about a minute per evaluation; A grows like
# 1/(pi/2 - theta) as theta nears pi/2.
_MAX_AMPLITUDE = 10**7


class TruncationError(ArithmeticError):
    """The truncated series produced a non-positive psi."""


@dataclass(frozen=True)
class AnalyticConfig:
    """Parameters of the analytic solution.

    ``c`` is the lattice speed dx/dt and ``alpha`` the advection
    parameter, so the advection speed is c_s = c * alpha.  ``l_trunc``
    is the series truncation order; 80 terms reproduce the reference
    setup to well below 1e-8.  The Bessel argument A must not exceed
    ``_MAX_AMPLITUDE`` in magnitude.
    """

    length_x: float
    rho_b: float
    rho_a: float
    c: float
    alpha: float
    nu: float
    l_trunc: int = 80

    def __post_init__(self):
        if self.nu <= 0.0:
            raise ValueError(f"nu must be positive, got {self.nu!r}")
        if self.l_trunc < 1:
            raise ValueError(f"l_trunc must be >= 1, got {self.l_trunc!r}")
        if self.length_x <= 0.0:
            raise ValueError(f"length_x must be positive, got {self.length_x!r}")
        if not abs(self.amplitude) <= _MAX_AMPLITUDE:  # false for NaN too
            raise ValueError(
                f"Bessel argument A = {self.amplitude:.6g} exceeds {_MAX_AMPLITUDE} in magnitude"
            )

    @property
    def beta(self) -> float:
        return 2.0 * math.pi / self.length_x

    @property
    def amplitude(self) -> float:
        """Bessel argument A = c alpha rho_a / (2 nu beta)."""
        return self.c * self.alpha * self.rho_a / (2.0 * self.nu * self.beta)

    @property
    def w_bar(self) -> float:
        """Mean of the initial Burgers field, c alpha (1 - rho_b)."""
        return self.c * self.alpha * (1.0 - self.rho_b)


def bessel_ratios(l_max: int, a: float) -> np.ndarray:
    """Ratios I_l(a)/I_0(a) for l = 0..l_max, by backward recurrence.

    Miller's algorithm: start the three-term recurrence
    I_{k-1} = I_{k+1} + (2k/a) I_k far above ``l_max`` with an arbitrary
    seed, recurse down to k = 0 and normalize by the l = 0 entry.  The
    start order ``max(l_max, a, 256) + 60`` keeps the relative error of
    every ratio below 1e-15 (checked against a brute-force series oracle
    in the tests) and, being independent of ``l_max`` up to order 256,
    returns bitwise-identical ratios for shared orders when only the
    truncation changes.  Intermediate values are rescaled when they grow
    large, so no unscaled Bessel value is ever formed.
    """
    if a <= 0.0:
        raise ValueError(f"Bessel argument must be positive, got {a!r}")
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max!r}")
    a_ld = _LD(a)
    start = int(max(l_max, math.ceil(a), 256)) + 60
    vals = np.zeros(start + 2, dtype=_LD)
    vals[start] = _LD(1e-30)
    for k in range(start, 0, -1):
        vals[k - 1] = vals[k + 1] + (_LD(2 * k) / a_ld) * vals[k]
        if abs(vals[k - 1]) > _LD("1e280"):
            vals[k - 1 :] /= _LD("1e280")
    return vals[: l_max + 1] / vals[0]


def _psi_sums(x, times, cfg: AnalyticConfig):
    """Yield (psi, d_x psi) at each of ``times``, normalized by I_0(A), in extended precision.

    ``x`` is a 1-D array; psi is evaluated at x - w_bar t.  The Bessel
    ratios do not depend on t, and neither do the (l, x) phase tables when
    w_bar is 0 (rho_b = 1): then they are built once for all times.
    """
    x = np.asarray(x, dtype=_LD)
    amp = cfg.amplitude
    if amp == 0.0:
        # rho_a = 0: psi is constant and the field stays at rho_b.
        for _ in times:
            yield np.ones_like(x), np.zeros_like(x)
        return
    beta = _LD(2) * _LD(np.pi) / _LD(cfg.length_x)
    nu = _LD(cfg.nu)
    ratios = bessel_ratios(cfg.l_trunc, abs(amp))
    if amp < 0.0:
        # I_l(-A) = (-1)^l I_l(A)
        ratios = ratios * np.where(np.arange(cfg.l_trunc + 1) % 2 == 0, 1, -1)
    ls = np.arange(1, cfg.l_trunc + 1)
    cl = np.array([_COS_HALF_PI[l % 4] for l in ls], dtype=_LD)[:, None]
    sl = np.array([_SIN_HALF_PI[l % 4] for l in ls], dtype=_LD)[:, None]
    l_beta = (ls.astype(_LD) * beta)[:, None]

    def shapes(y):
        phase = l_beta * y[None, :]
        cos_p = np.cos(phase)
        sin_p = np.sin(phase)
        return cl * cos_p + sl * sin_p, -cl * sin_p + sl * cos_p

    w_bar = _LD(cfg.w_bar)
    if w_bar == 0.0:
        fixed = shapes(x)
    rate = -nu * (ls * ls).astype(_LD) * beta * beta
    for t in times:
        shape, dshape = fixed if w_bar == 0.0 else shapes(x - w_bar * _LD(t))
        decay = np.exp(rate * _LD(t))
        weight = (_LD(2) * ratios[1:] * decay)[:, None]
        # np.sum(axis=0) over the C-contiguous (l, x) product adds its rows
        # one after another, sequentially in l; that order, and the grouping
        # (weight * l beta) * dshape, fix the output bytes.  Near the minimum
        # of psi the sum cancels down to ~e^{-2A} of the leading terms, so
        # the order also sets the noise floor.
        psi = _LD(1) + np.sum(weight * shape, axis=0)
        dpsi = np.sum((weight * l_beta) * dshape, axis=0)
        yield psi, dpsi


def cole_hopf_density(x, t, cfg: AnalyticConfig):
    """Density rho(x, t) of the analytic solution.

    ``x`` is a 1-D array of positions in [0, L_x).  ``t`` is a time >= 0
    or a 1-D sequence of them; for a sequence the result has shape
    ``(len(t), len(x))`` and row k equals the call with ``t[k]`` bit for
    bit, while the t-independent tables are built once per call.
    The log derivative of psi is evaluated analytically (psi and d_x psi
    as separate sums), so no stencil error enters the comparison
    baseline.  Raises :class:`TruncationError` naming the first time at
    which the truncated psi is not strictly positive somewhere.
    """
    times = [t] if np.ndim(t) == 0 else list(t)
    for tk in times:
        if tk < 0.0:
            raise ValueError(f"t must be >= 0, got {tk!r}")
    cs = cfg.c * cfg.alpha
    out = np.empty((len(times), len(x)))
    for k, (tk, (psi, dpsi)) in enumerate(zip(times, _psi_sums(x, times, cfg))):
        if np.any(psi <= 0.0):
            raise TruncationError(
                f"psi <= 0 at t={tk} (min {float(np.min(psi))!r}): series truncation "
                f"l_trunc={cfg.l_trunc} insufficient for A={cfg.amplitude:.6g}"
            )
        w = _LD(cfg.w_bar) - _LD(2) * _LD(cfg.nu) * dpsi / psi
        out[k] = _LD(1) - w / _LD(cs)
    return out[0] if np.ndim(t) == 0 else out


def evaluate_on_grid(cfg: AnalyticConfig, xs, ts) -> np.ndarray:
    """Density on the outer product of positions ``xs`` and times ``ts``.

    Returns an array of shape ``(len(ts), len(xs))``.
    """
    return cole_hopf_density(np.asarray(xs, dtype=float), np.asarray(ts, dtype=float), cfg)

