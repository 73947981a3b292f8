"""Tests of the benchmark's own code (run with ``python -m pytest bench``)."""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from checks import artifact_digest, check_job  # noqa: E402
from jobs import WORKLOADS, Job, make_jobs  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402

import qlgburgers.cli as cli  # noqa: E402
import qlgburgers.experiments as experiments  # noqa: E402
import qlgburgers.lattice as lattice  # noqa: E402
from qlgburgers.collision import CollisionParams  # noqa: E402


def _dump(jobs):
    return [(job.name, job.command, yaml.safe_dump(job.config, sort_keys=True)) for job in jobs]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_always_gives_the_same_configs(workload, tmp_path):
    first = _dump(make_jobs(workload, 7, tmp_path))
    assert first == _dump(make_jobs(workload, 7, tmp_path))
    assert first != _dump(make_jobs(workload, 8, tmp_path))


def _work_keys(cfg):
    """The parts of a config that fix the amount of work."""
    keep = ("grid", "steps", "snapshot_stride", "analytic")
    out = {k: cfg[k] for k in keep if k in cfg}
    for section in ("sweep", "steepness"):
        if section in cfg:
            out[section] = {k: v for k, v in cfg[section].items() if k != "theta_start"}
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_does_not_change_the_work(workload, tmp_path):
    def shape(seed):
        jobs = make_jobs(workload, seed, tmp_path)
        return sorted((job.command, json.dumps(_work_keys(job.config), sort_keys=True)) for job in jobs)

    assert all(shape(seed) == shape(0) for seed in range(1, 6))


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_from_synthetic_spans():
    names = ["cli.main", "lattice.step_1d", "collision.collide_closed_form", "io.write_rows_csv"]
    spans = {
        "name": np.array([0, 1, 2, 1, 2, 3]),
        "start": np.array([0.0, 1.0, 1.5, 3.0, 3.5, 6.0]),
        "end": np.array([10.0, 2.0, 1.75, 4.0, 3.75, 8.0]),
        "parent": np.array([-1, 0, 1, 0, 3, 0]),
        "job": np.zeros(6, dtype=int),
        "work": np.array([0, 64, 64, 64, 64, 5]),
    }
    m = layer_metrics(names, spans, {}, Counter({"io.bytes_written": 4_000_000}))
    assert m["cli.self_s"] == 10.0 - 1.0 - 1.0 - 2.0
    assert m["lattice.self_s"] == 2 * 0.75
    assert m["collision.self_s"] == 2 * 0.25
    assert m["collision.calls"] == 2 and m["collision.sites"] == 128
    assert m["collision.ns_per_site.small"] == pytest.approx(0.5 / 128 * 1e9)
    assert m["collision.ns_per_site.large"] == 0.0
    assert m["lattice.ns_per_site_step.small"] == pytest.approx(2.0 / 128 * 1e9)
    assert m["io.rows_written"] == 5 and m["io.write_mb_per_s"] == 2.0
    assert set(m) == {name for name, *_ in PER_LAYER}


def test_tracer_reaches_names_bound_at_import():
    original = lattice.step_1d
    tracer = Tracer()
    tracer.install()
    try:
        assert experiments.step_1d is not original and lattice.step_1d is experiments.step_1d
        grid = lattice.Grid1D(n_x=16, length_x=16.0)
        experiments.run_qlg_1d(grid, CollisionParams(theta=1.0), 1.0, 0.01, steps=3)
    finally:
        tracer.uninstall()
    assert experiments.step_1d is original and lattice.step_1d is original
    spans = tracer.log.arrays()
    m = layer_metrics(tracer.names, spans, tracer.log.errors, tracer.counters)
    assert m["lattice.steps"] == 3 and m["lattice.site_steps"] == 48
    assert m["collision.calls"] == 3
    run = tracer.names.index("experiments.run_qlg_1d")
    step = tracer.names.index("lattice.step_1d")
    steps = np.flatnonzero(spans["name"] == step)
    assert spans["name"][spans["parent"][steps]].tolist() == [run] * 3


def _run(job, tmp_path):
    path = tmp_path / f"{job.name}.yaml"
    path.write_text(yaml.safe_dump(job.config))
    assert cli.main([job.command, "--config", str(path), "--out", str(job.out)]) == 0


def _simulate1d_job(tmp_path):
    cfg = {
        "model": "d1q2",
        "run_id": "sim",
        "grid": {"n_x": 16, "length_x": 2.0},
        "collision": {"theta": 1.0, "zeta": 0.0, "xi": 0.0},
        "initial": {"rho_b": 1.0, "rho_a": 0.4, "mode": "equilibrium"},
        "steps": 8,
        "snapshot_stride": 2,
    }
    return Job("sim", "simulate1d", cfg, tmp_path / "sim")


def _replace_field(path, row, column, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_gate_rejects_a_snapshot_that_loses_mass(tmp_path):
    job = _simulate1d_job(tmp_path)
    _run(job, tmp_path)
    assert check_job(job, {}) is None
    snap = job.out / "sim_t4.csv"
    rho = float(snap.read_text().splitlines()[3].split(",")[2])
    _replace_field(snap, 3, 2, repr(rho + 1e-6))
    assert "mass drift" in check_job(job, {})


def test_gate_rejects_a_viscosity_far_from_the_prediction(tmp_path):
    cfg = {
        "model": "viscosity-sweep",
        "run_id": "visc",
        "collision": {"zeta": 0.0, "xi": 0.0},
        "sweep": {
            "theta_start": 1.3,
            "theta_stop": 1.4,
            "count": 2,
            "T": 2000,
            "n_x": 64,
            "rho_a": 0.005,
            "rho_b": 1.0,
        },
    }
    job = Job("visc", "viscosity-sweep", cfg, tmp_path / "visc")
    _run(job, tmp_path)
    assert check_job(job, {}) is None
    sweep = job.out / "visc_sweep.csv"
    nu_exp = float(sweep.read_text().splitlines()[1].split(",")[3])
    _replace_field(sweep, 1, 3, repr(nu_exp * 1.2))
    assert "from the corrected" in check_job(job, {})


def test_digest_covers_csv_bytes_but_not_manifests(tmp_path):
    job = _simulate1d_job(tmp_path)
    _run(job, tmp_path)
    before = artifact_digest(tmp_path)
    (job.out / "manifest.json").write_text("{}\n")
    assert artifact_digest(tmp_path) == before
    _replace_field(job.out / "sim_t0.csv", 1, 2, "1.5")
    assert artifact_digest(tmp_path) != before


def test_benchmark_json_matches_the_benchmark():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == WORKLOADS
    per_layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    expected = [(name, unit, better) for name, unit, better, _ in PER_LAYER]
    assert per_layer == expected + [("trace_overhead_s", "s", "lower")]
    from run import END_TO_END

    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
