"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
the criteria execute.  Every tolerance is fixed here, not calibrated at
run time.
"""

import hashlib
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from qlgburgers.collision import (
    CollisionParams,
    build_collision_unitary,
    collide_closed_form,
    collide_quantum,
    equilibrium,
    jacobian_gap,
    omega,
    predicted_coefficients_1d,
)
from qlgburgers.experiments import (
    analytic_config_for,
    experimental_viscosity,
    l2_compare_2d,
    mse_compare,
    run_fdm_2d,
    run_qlg_1d,
    run_qlg_2d,
    shock_formation_step,
    shock_onset_step,
    steepness_sweep,
)
from qlgburgers.fdm import substeps_auto
from qlgburgers.lattice import (
    AXIS_SYMMETRIC,
    ORTHOGONAL,
    TRIANGULAR,
    Grid1D,
    Grid2D,
    PopulationField,
    init_cosine_2d,
    predicted_coefficients_2d,
    step_1d,
    step_2d,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LEDGER = Path(__file__).resolve().parent / "data" / "config_digests.json"
PI_THIRD = math.pi / 3


def report(criterion, ok, detail):
    # bypass pytest capture so the line shows in any invocation
    print(f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'}: {detail}", file=sys.__stdout__)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_kernel_property_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)

    # unitarity over sampled angles
    worst_unitarity = 0.0
    params_samples = [
        CollisionParams(
            theta=rng.uniform(0.05, math.pi / 2),
            zeta=rng.uniform(-math.pi, math.pi),
            xi=rng.uniform(-math.pi, math.pi),
        )
        for _ in range(50)
    ]
    for p in params_samples:
        u = build_collision_unitary(p)
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(u.conj().T @ u - np.eye(4))))
        )
    assert worst_unitarity < 1e-12

    # 1e4 random samples: mass conservation and path equivalence
    n = 10_000
    f0 = rng.uniform(0.0, 1.0, n)
    f1 = rng.uniform(0.0, 1.0, n)
    worst_mass = 0.0
    worst_equiv = 0.0
    for p in params_samples[:10]:
        q0, q1 = collide_quantum(f0, f1, p)
        c0, c1 = collide_closed_form(f0, f1, p)
        worst_mass = max(
            worst_mass,
            float(np.max(np.abs(q0 + q1 - f0 - f1))),
            float(np.max(np.abs(c0 + c1 - f0 - f1))),
        )
        worst_equiv = max(
            worst_equiv, float(np.max(np.abs(q0 - c0))), float(np.max(np.abs(q1 - c1)))
        )
    assert worst_mass < 1e-12
    assert worst_equiv < 1e-12

    # equilibrium fixed point
    worst_fp = 0.0
    for p in params_samples[:10]:
        for rho in np.arange(0.0, 2.01, 0.25):
            e0, e1 = equilibrium(float(rho), p)
            g0, g1 = collide_closed_form(e0, e1, p)
            worst_fp = max(worst_fp, abs(g0 - e0), abs(g1 - e1))
    assert worst_fp < 1e-10

    # closed-form Jacobian gap against the central-difference oracle
    h = 1e-6
    worst_jac = 0.0
    for theta in (0.3, 0.6, 0.9, 1.2, 1.5):
        p = CollisionParams(theta=theta)
        for rho in (0.2, 0.6, 1.0, 1.4, 1.8):
            e0, e1 = equilibrium(rho, p)
            j0 = (omega(e0 + h, e1, p) - omega(e0 - h, e1, p)) / (2 * h)
            j1 = (omega(e0, e1 + h, p) - omega(e0, e1 - h, p)) / (2 * h)
            fd = j1 - j0
            worst_jac = max(worst_jac, abs(jacobian_gap(rho, p) - fd) / abs(fd))
    assert worst_jac < 1e-5

    elapsed = time.time() - t0
    report(
        1,
        elapsed < 10.0,
        f"kernel properties: unitarity {worst_unitarity:.1e}, mass {worst_mass:.1e}, "
        f"quantum/closed gap {worst_equiv:.1e}, fixed point {worst_fp:.1e}, "
        f"jacobian rel {worst_jac:.1e}, in {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_2_viscosity_formulas():
    c = predicted_coefficients_1d(CollisionParams(theta=PI_THIRD), 1.0, 1.0)
    ok_nu = abs(c.nu - 0.077351) <= 1e-5
    ok_yepez = abs(c.nu_yepez - 0.166667) <= 1e-5
    thetas = np.linspace(0.01, math.pi / 2 - 0.01, 100)
    ok_order = all(
        (lambda cc: cc.nu < cc.nu_yepez)(
            predicted_coefficients_1d(CollisionParams(theta=float(t)), 1.0, 1.0)
        )
        for t in thetas
    )
    report(
        2,
        ok_nu and ok_yepez and ok_order,
        f"nu(pi/3)={c.nu:.6f} (target 0.077351), nu_yepez={c.nu_yepez:.6f} "
        f"(target 0.166667), corrected < original at all 100 sampled angles: {ok_order}",
    )


def test_criterion_3_viscosity_simulation():
    grid = Grid1D(n_x=64, length_x=64.0)
    rows = []
    for theta in np.linspace(1.2, 1.5, 5):
        params = CollisionParams(theta=float(theta))
        coeffs = predicted_coefficients_1d(params, grid.dx, grid.dt)
        trace = run_qlg_1d(grid, params, 1.0, 0.005, steps=2000, stride=1)
        est = experimental_viscosity(trace, params.alpha())
        rel = abs(est.value - coeffs.nu) / coeffs.nu
        closer = abs(est.value - coeffs.nu) < abs(est.value - coeffs.nu_yepez)
        rows.append((float(theta), rel, closer))
    worst_rel = max(r[1] for r in rows)
    all_closer = all(r[2] for r in rows)
    report(
        3,
        worst_rel <= 0.15 and all_closer,
        f"measured viscosity at 5 angles in [1.2, 1.5], T=2000: worst relative "
        f"error {worst_rel:.1%} (<= 15%), closer to corrected prediction at all angles: {all_closer}",
    )


def test_criterion_4_analytic_comparison():
    grid = Grid1D(n_x=64, length_x=2.0)
    params = CollisionParams(theta=PI_THIRD)
    trace = run_qlg_1d(grid, params, 1.0, 0.4, steps=512, stride=4)
    mse_corr = mse_compare(trace, analytic_config_for(grid, params, 1.0, 0.4, "corrected"))
    mse_yep = mse_compare(trace, analytic_config_for(grid, params, 1.0, 0.4, "yepez"))
    t_shock = shock_formation_step(trace)
    after = trace.steps >= t_shock
    wins = np.count_nonzero(mse_corr.values[after] < mse_yep.values[after])
    win_fraction = wins / np.count_nonzero(after)
    shock_idx = int(np.nonzero(after)[0][0])
    final_drop = mse_corr.values[-1] < 0.01 * mse_corr.values[shock_idx]
    third = len(mse_corr.values) // 3
    late_slope = float(np.polyfit(trace.steps[-third:], mse_corr.values[-third:], 1)[0])
    report(
        4,
        win_fraction >= 0.9 and final_drop and late_slope < 0.0,
        f"corrected-viscosity MSE below original at {win_fraction:.0%} of post-shock "
        f"snapshots (>= 90%); late decrease: final/shock = "
        f"{mse_corr.values[-1] / mse_corr.values[shock_idx]:.1e}, late slope {late_slope:.1e} < 0",
    )


def test_criterion_5_steepness_trends():
    thetas = np.linspace(0.2, math.pi / 2, 12)
    rows = steepness_sweep(thetas, steps_list=[200, 2000], n_x_list=[64])
    d200 = np.array([r["delta"] for r in rows if r["T"] == 200])
    d2000 = np.array([r["delta"] for r in rows if r["T"] == 2000])
    interior_max = 0 < int(np.argmax(d200)) < len(thetas) - 1
    longer_no_smaller = bool(np.all(d2000[-3:] >= d200[-3:]))
    rows_128 = steepness_sweep([1.4], steps_list=[200], n_x_list=[128])
    rows_64 = steepness_sweep([1.4], steps_list=[200], n_x_list=[64])
    halved = rows_128[0]["delta"] < rows_64[0]["delta"]
    report(
        5,
        interior_max and longer_no_smaller and halved,
        f"steepness has interior maximum at theta={thetas[int(np.argmax(d200))]:.2f}; "
        f"T=2000 >= T=200 for the three largest angles: {longer_no_smaller}; "
        f"doubling N_x lowers it at theta=1.4: {rows_64[0]['delta']:.2f} -> {rows_128[0]['delta']:.2f}",
    )


def test_criterion_6a_axis_set_reduces_to_1d_bitwise():
    grid2 = Grid2D(n_x=64, n_y=64, ds=1.0)
    params = CollisionParams(theta=PI_THIRD)
    fld2 = init_cosine_2d(grid2, 1.0, 0.1, params)
    start_cols = {j: (fld2.f0[:, j].copy(), fld2.f1[:, j].copy()) for j in (0, 13, 40)}
    for _ in range(30):
        fld2 = step_2d(fld2, params, AXIS_SYMMETRIC)
    grid1 = Grid1D(n_x=64, length_x=64.0)
    bitwise = True
    for j, (f0, f1) in start_cols.items():
        fld1 = PopulationField(f0=f0, f1=f1, grid=grid1)
        for _ in range(30):
            fld1 = step_1d(fld1, params)
        bitwise = bitwise and np.array_equal(fld2.f0[:, j], fld1.f0)
        bitwise = bitwise and np.array_equal(fld2.f1[:, j], fld1.f1)
    report(
        "6a",
        bitwise,
        "axis-aligned symmetric set: 2D column dynamics bitwise-identical to 1D runs (30 steps)",
    )


def test_criterion_6b_l2_below_threshold():
    grid = Grid2D(n_x=64, n_y=64, ds=1.0)
    params = CollisionParams(theta=PI_THIRD)
    worst = {}
    for vset in (AXIS_SYMMETRIC, ORTHOGONAL, TRIANGULAR):
        coeffs = predicted_coefficients_2d(vset.index_space(), params, grid.ds, grid.dt)
        qlg = run_qlg_2d(grid, params, vset, 1.0, 0.1, steps=200, stride=4)
        substeps = substeps_auto(coeffs, grid.ds, grid.dt)
        fdm, div = run_fdm_2d(grid, coeffs, 1.0, 0.1, steps=200, stride=4, substeps=substeps)
        series = l2_compare_2d(qlg, fdm, rho_b=1.0)
        finite = series.values[np.isfinite(series.values)]
        worst[vset.name] = float(np.max(finite))
    ok = all(v < 5e-2 for v in worst.values())
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in worst.items())
    report("6b", ok, f"relative L2 vs reference solver until divergence/end (< 0.05): {detail}")


def test_criterion_6c_divergence_at_or_after_shock():
    grid = Grid2D(n_x=64, n_y=64, ds=1.0)
    params = CollisionParams(theta=PI_THIRD)
    vset = AXIS_SYMMETRIC
    coeffs = predicted_coefficients_2d(vset.index_space(), params, grid.ds, grid.dt)
    qlg = run_qlg_2d(grid, params, vset, 1.0, 0.4, steps=200, stride=1)
    substeps = substeps_auto(coeffs, grid.ds, grid.dt)
    fdm, div = run_fdm_2d(grid, coeffs, 1.0, 0.4, steps=200, stride=1, substeps=substeps)
    onset = shock_onset_step(qlg)
    ok = div is not None and onset is not None and div >= onset
    report(
        "6c",
        ok,
        f"reference solver divergence at step {div} is at/after shock onset (step {onset})",
    )


CONFIG_COMMANDS = {
    "fig3_short": "viscosity-sweep",
    "fig3_long": "viscosity-sweep",
    "fig4": "simulate1d",
    "fig6": "steepness-sweep",
    "fig8_set1": "simulate2d",
    "fig8_set2": "simulate2d",
    "fig8_set3": "simulate2d",
    "fig8_set4": "simulate2d",
    "fig9": "compare-2d",
}


def test_criterion_7_determinism(tmp_path):
    """Two runs of every checked-in config write the same CSVs, and the first
    run writes the CSVs of the digest ledger ``tests/data/config_digests.json``.

    The ledger holds the sha256 of each CSV, and the numpy version, long double
    mantissa and machine of the run that made it.  Its digests hold for x86-64
    with the 80-bit long double, as the other sha256 pins do:
    ``analytic._psi_sums`` accumulates in long double.  A mismatch on another
    platform may be the platform's, so the failure shows those facts beside
    this run's; it is not a reason to skip or loosen the check.
    """
    from qlgburgers.cli import main

    ledger = json.loads(LEDGER.read_text())
    checked = 0
    for name, command in CONFIG_COMMANDS.items():
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            rc = main(
                [command, "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out)]
            )
            assert rc == 0, f"{name}: exit {rc}"
            outs.append(out)
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        assert csvs, f"{name}: no artifacts"
        for fname in csvs:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), (
                f"{name}/{fname} differs between reruns"
            )
            checked += 1
        digests = {f: hashlib.sha256((outs[0] / f).read_bytes()).hexdigest() for f in csvs}
        differing = sorted(set(digests.items()) ^ set(ledger["digests"][name].items()))
        assert not differing, (
            f"{name}: CSVs differ from the ledger, which was made with {ledger['made_with']}; "
            f"this run has numpy {np.__version__}, long double mantissa "
            f"{np.finfo(np.longdouble).nmant}, machine {platform.machine()}: {differing}"
        )
    report(
        7,
        True,
        f"two runs of every checked-in config byte-identical and equal to the ledger "
        f"({checked} CSV pairs)",
    )
