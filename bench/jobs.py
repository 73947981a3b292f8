"""Seeded workloads: each is a fixed list of CLI jobs.

The seed only picks physical parameters -- collision angles, the order of
the named velocity sets and the custom shift pair of the large 2D job --
inside the ranges where the acceptance suite's physics gates hold.
Grid sizes, step counts, snapshot strides and job counts are fixed per
workload, so the work a round does does not depend on the seed.  The
compare-2d angle range keeps the automatic FDM substep count at 9 for the
orthogonal and triangular sets and 3 for the axis-aligned one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

HALF_PI = math.pi / 2
NAMED_SETS = ("axis_symmetric", "orthogonal", "triangular")

# Why each workload exists; BENCHMARK.json repeats these lines.
WORKLOADS = {
    "sweep1d": "viscosity and steepness sweeps at 64-128 sites: lattice call overhead and "
    "the estimators, almost no I/O, no reference solver",
    "field2d": "simulate2d at 128x128 and one 512x512 job: the snapshot CSV writer, and a "
    "field pair larger than one core's L2",
    "reference": "compare-2d at 64x64 and the simulate1d, compare-analytic, analytic chain: "
    "the FDM substeps, the Cole-Hopf series and the CSV reader",
}

# Wrapped functions each workload must reach; a traced round in which one
# of them recorded no call means the tracer missed an import site.
REACHED = {
    "sweep1d": (
        "cli.main",
        "collision.collide_closed_form",
        "collision.omega",
        "collision.equilibrium",
        "lattice.init_cosine_1d",
        "lattice.step_1d",
        "lattice.stream_1d",
        "lattice.density",
        "experiments.viscosity_sweep",
        "experiments.steepness_sweep",
        "experiments.run_qlg_1d",
        "experiments.experimental_viscosity",
        "experiments.shock_steepness",
        "io.write_rows_csv",
        "io.write_manifest",
    ),
    "field2d": (
        "cli.main",
        "collision.collide_closed_form",
        "collision.omega",
        "collision.equilibrium",
        "lattice.init_cosine_2d",
        "lattice.step_2d",
        "lattice.stream_2d",
        "lattice.velocity_set_by_name",
        "lattice.predicted_coefficients_2d",
        "io.write_snapshot_2d",
        "io.write_manifest",
    ),
    "reference": (
        "cli.main",
        "collision.collide_closed_form",
        "collision.omega",
        "lattice.init_cosine_1d",
        "lattice.init_cosine_2d",
        "lattice.step_1d",
        "lattice.step_2d",
        "lattice.stream_2d",
        "experiments.run_qlg_2d",
        "experiments.run_fdm_2d",
        "experiments.l2_compare_2d",
        "experiments.mse_compare",
        "experiments.analytic_config_for",
        "fdm.fdm_step_2d",
        "fdm.divergence_check",
        "fdm.substeps_auto",
        "analytic.cole_hopf_density",
        "analytic.bessel_ratios",
        "analytic.evaluate_on_grid",
        "io.write_snapshot_1d",
        "io.write_density_snapshot_1d",
        "io.write_rows_csv",
        "io.read_trace_1d",
        "io.write_manifest",
    ),
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``qlgburgers <command> --config <name>.yaml --out <out>``."""

    name: str
    command: str
    config: dict
    out: Path


def _collision(theta):
    return {"theta": theta, "zeta": 0.0, "xi": 0.0}


def _sweep1d(rng, out):
    short = {
        "model": "viscosity-sweep",
        "run_id": "visc_short",
        "collision": {"zeta": 0.0, "xi": 0.0},
        "sweep": {
            "theta_start": rng.uniform(0.05, 0.1),
            "theta_stop": HALF_PI,
            "count": 30,
            "T": 200,
            "n_x": 64,
            "rho_a": 0.005,
            "rho_b": 1.0,
        },
    }
    long = {
        "model": "viscosity-sweep",
        "run_id": "visc_long",
        "collision": {"zeta": 0.0, "xi": 0.0},
        "sweep": {
            "theta_start": rng.uniform(1.18, 1.22),
            "theta_stop": HALF_PI,
            "count": 10,
            "T": 2000,
            "n_x": 64,
            "rho_a": 0.005,
            "rho_b": 1.0,
        },
    }
    steep = {
        "model": "steepness-sweep",
        "run_id": "steepness",
        "collision": {"zeta": 0.0, "xi": 0.0},
        "steepness": {
            "theta_start": rng.uniform(0.2, 0.25),
            "theta_stop": HALF_PI,
            "count": 12,
            "T_values": [200, 2000],
            "n_x_values": [64, 128],
            "length_x": 2.0,
            "rho_a": 0.4,
            "rho_b": 1.0,
        },
    }
    return [
        Job("visc_short", "viscosity-sweep", short, out / "visc_short"),
        Job("visc_long", "viscosity-sweep", long, out / "visc_long"),
        Job("steepness", "steepness-sweep", steep, out / "steepness"),
    ]


def _custom_set(rng):
    """Two distinct nonzero shifts with entries in {-1, 0, 1}, on a square or triangular basis."""
    moves = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)]
    s0, s1 = rng.sample(moves, 2)
    basis = rng.choice([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]])
    return {"shifts": [list(s0), list(s1)], "basis": basis}


def _simulate2d(run_id, n, steps, stride, vset, theta):
    return {
        "model": "d2q2",
        "run_id": run_id,
        "grid": {"n_x": n, "n_y": n, "ds": 1.0},
        "collision": _collision(theta),
        "initial": {"rho_b": 1.0, "rho_a": 0.4, "mode": "equilibrium"},
        "velocity_set": vset,
        "steps": steps,
        "snapshot_stride": stride,
    }


def _field2d(rng, out):
    jobs = []
    for name in rng.sample(NAMED_SETS, len(NAMED_SETS)):
        cfg = _simulate2d(f"s2d_{name}", 128, 400, 40, {"name": name}, rng.uniform(1.0, 1.1))
        jobs.append(Job(cfg["run_id"], "simulate2d", cfg, out / cfg["run_id"]))
    large = _simulate2d("s2d_large", 512, 200, 200, _custom_set(rng), rng.uniform(1.0, 1.1))
    jobs.append(Job("s2d_large", "simulate2d", large, out / "s2d_large"))
    return jobs


def _reference(rng, out):
    jobs = []
    for name in rng.sample(NAMED_SETS, len(NAMED_SETS)):
        cfg = {
            "model": "compare-2d",
            "run_id": f"c2d_{name}",
            "grid": {"n_x": 64, "n_y": 64, "ds": 1.0},
            "collision": _collision(rng.uniform(1.05, 1.075)),
            "initial": {"rho_b": 1.0, "rho_a": 0.1, "mode": "equilibrium"},
            "velocity_set": {"name": name},
            "steps": 200,
            "snapshot_stride": 4,
            "fdm": {"substeps": "auto"},
        }
        jobs.append(Job(cfg["run_id"], "compare-2d", cfg, out / cfg["run_id"]))
    grid = {"n_x": 64, "length_x": 2.0}
    collision = _collision(rng.uniform(1.0, 1.1))
    initial = {"rho_b": 1.0, "rho_a": 0.4, "mode": "equilibrium"}
    sim = {
        "model": "d1q2",
        "run_id": "sim1d",
        "grid": grid,
        "collision": collision,
        "initial": initial,
        "steps": 512,
        "snapshot_stride": 4,
    }
    cmp_ = {
        "model": "compare-analytic",
        "run_id": "cmp_analytic",
        "grid": grid,
        "collision": collision,
        "initial": initial,
        "analytic": {"l_trunc": 80},
        "compare": {"input": str(out / "sim1d"), "input_run_id": "sim1d"},
    }
    ana = {
        "model": "analytic",
        "run_id": "analytic",
        "grid": grid,
        "collision": collision,
        "initial": initial,
        "steps": 512,
        "snapshot_stride": 4,
        "analytic": {"l_trunc": 80, "nu_variant": "corrected"},
    }
    jobs += [
        Job("sim1d", "simulate1d", sim, out / "sim1d"),
        Job("cmp_analytic", "compare-analytic", cmp_, out / "cmp_analytic"),
        Job("analytic", "analytic", ana, out / "analytic"),
    ]
    return jobs


_BUILDERS = {"sweep1d": _sweep1d, "field2d": _field2d, "reference": _reference}


def make_jobs(workload: str, seed: int, out: Path) -> list:
    """The jobs of one round of ``workload``, all writing below ``out``."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, Path(out))
