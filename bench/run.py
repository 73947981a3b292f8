"""Benchmark of the qlgburgers command line on seeded workloads.

Usage (from the repository root):

    python3 bench/run.py --workload sweep1d --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  This single process, with no
extra threads, runs the jobs of a workload one after another as in-process
``qlgburgers.cli.main([...])`` calls, in rounds, until ``--seconds`` is
used up.  The configs are generated from ``--seed`` (see jobs.py); every
artifact of every round passes a correctness gate (see checks.py) and all
rounds must write byte-identical CSVs.

With ``--trace 0`` the last line reports the end-to-end metrics: the median
round wall time, the median over rounds of the per-round median job time,
the import time of the package in a fresh interpreter (median of several),
the peak RSS after the first round and the bytes the round wrote.  With
``--trace 1`` untraced and traced rounds alternate and the last line
reports the per-layer metrics of the traced rounds (see tracing.py).
Output below ``.bench_work/`` of the checkout is scratch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import yaml

from checks import artifact_bytes, artifact_digest, check_job
from jobs import REACHED, WORKLOADS, make_jobs
from tracing import PER_LAYER, Tracer, calls_by_name, layer_metrics, layer_self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import qlgburgers, qlgburgers.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
)

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
)


def measure_setup(repeats=SETUP_REPEATS):
    """Median time to import qlgburgers and qlgburgers.cli in a fresh interpreter.

    One extra import runs first and is not timed: it writes the bytecode
    cache, which a user pays once per checkout, not once per invocation.
    """
    samples = []
    for k in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if k:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def _cache_sizes():
    """Per-core L2 and shared L3 sizes in KiB, from sysfs (None where absent)."""
    sizes = {"l2_kib": None, "l3_kib": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if f"l{level}_kib" in sizes and size.endswith("K"):
            sizes[f"l{level}_kib"] = int(size[:-1])
    return sizes


def _git_sha():
    """Commit of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 of the package and benchmark sources: the "same code" of the digest check."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, numpy_version):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        **_cache_sizes(),
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "gb_per_s": "computed from 32 B per collided site, not measured bandwidth",
    }


def run_round(jobs, config_paths, cli, tracer=None):
    """Run every job once; return (wall_s, per-job seconds, per-job exit codes)."""
    starts, ends, codes = [], [], []
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        argv = [job.command, "--config", str(config_paths[job.name]), "--out", str(job.out)]
        starts.append(time.perf_counter())
        try:
            codes.append(cli.main(argv))
        except Exception:
            traceback.print_exc()
            codes.append(None)
        ends.append(time.perf_counter())
    return ends[-1] - starts[0], [e - s for s, e in zip(starts, ends)], codes


def check_round(jobs, codes, gate):
    """Return {job name: reason} for the jobs that exited non-zero or, if
    ``gate``, whose artifacts fail their correctness gate."""
    failures, ctx = {}, {}
    for job, code in zip(jobs, codes):
        reason = f"exit code {code}" if code != 0 else check_job(job, ctx) if gate else None
        if reason:
            failures[job.name] = reason
    return failures


def _stored_digest(key, digest):
    """Digest recorded for ``key`` by an earlier run in this checkout (recording this one if none)."""
    path = WORK / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        known = {}
    if key not in known:
        known[key] = digest
        path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return known[key]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qlgburgers" / "__init__.py").is_file():
        print(f"bench: no qlgburgers package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import qlgburgers
    import qlgburgers.cli as cli

    if Path(qlgburgers.__file__).resolve().parent != SRC / "qlgburgers":
        print(f"bench: imported qlgburgers from {qlgburgers.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    out = work / "out"
    jobs = make_jobs(args.workload, args.seed, out)
    config_paths = {}
    for job in jobs:
        config_paths[job.name] = work / "configs" / f"{job.name}.yaml"
        config_paths[job.name].write_text(yaml.safe_dump(job.config, sort_keys=True))

    setup_s = measure_setup()

    tracer = None
    if args.trace:
        tracer = Tracer()
    rounds = []  # dicts: traced, wall_s, job_p50_s, failures, digest, bytes, metrics
    peak_rss_mb = None
    t_start = time.perf_counter()
    last = {False: 0.0, True: 0.0}  # duration of the last round of each kind
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        elapsed = time.perf_counter() - t_start
        need_more = len(rounds) < (2 if args.trace else 1)
        if not need_more and elapsed + last[traced] > args.seconds:
            break
        r0 = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        if traced:
            tracer.install()
        try:
            wall_s, times, codes = run_round(jobs, config_paths, cli, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        record = {
            "traced": traced,
            "wall_s": wall_s,
            "job_p50_s": statistics.median(times),
            "job_s": dict(zip((j.name for j in jobs), times)),
            # Later rounds must write the same bytes (checked by digest), so
            # gating the first round's artifacts covers all of them.
            "failures": check_round(jobs, codes, gate=not rounds),
            "digest": artifact_digest(out),
            "bytes": artifact_bytes(out),
        }
        if traced:
            record.update(trace_round(tracer, args.workload, work))
        rounds.append(record)
        last[traced] = time.perf_counter() - r0
    shutil.rmtree(out, ignore_errors=True)

    result = summarize(args, rounds, setup_s, peak_rss_mb, len(jobs))
    result["record"]["environment"] = environment(args, numpy.__version__)
    print(json.dumps({"record": result["record"]}, sort_keys=True))
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result["line"]))
    return 0


def trace_round(tracer, workload, work):
    """Per-layer metrics and accounting of the traced round just run."""
    spans = tracer.log.arrays()
    calls = calls_by_name(tracer.names, spans)
    per_layer = layer_self_times(tracer.names, spans)
    tracer.save(work / "spans.npz")
    total = sum(per_layer.values())
    shares = {
        "collision+lattice+experiments": sum(per_layer[k] for k in ("collision", "lattice", "experiments")),
        "io": per_layer["io"],
        "fdm+analytic": per_layer["fdm"] + per_layer["analytic"],
    }
    return {
        "metrics": layer_metrics(tracer.names, spans, tracer.log.errors, tracer.counters),
        "self_s_by_layer": per_layer,
        "self_s_total": total,
        "shares": {k: v / total for k, v in shares.items()} if total else {},
        "unreached": [name for name in REACHED[workload] if calls.get(name, 0) == 0],
    }


def summarize(args, rounds, setup_s, peak_rss_mb, n_jobs):
    """The result line and the run record."""
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    problems = []
    failed = 0
    key = f"{args.workload}:{args.seed}:{source_digest()}"
    reference = _stored_digest(key, rounds[0]["digest"])
    for r in rounds:
        # A round whose CSVs differ from the first run of this code and seed
        # fails as a whole: any of its jobs may be the one that changed.
        if r["digest"] != reference:
            failed += n_jobs
            problems.append("artifact digest differs from an earlier run of this code and seed")
        else:
            failed += len(r["failures"])
        problems += [f"{name}: {why}" for name, why in r["failures"].items()]

    record = {
        "rounds": len(rounds),
        "jobs_per_round": n_jobs,
        "artifact_sha256": rounds[0]["digest"],
        "wall_s_rounds": [r["wall_s"] for r in plain],
        "job_s_rounds": [r["job_s"] for r in plain],
    }
    if args.trace:
        metrics = {}
        for name, unit, _, exact in PER_LAYER:
            values = [r["metrics"][name] for r in traced]
            if exact and len(set(values)) > 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain
        )
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        last = traced[-1]
        for name in last["unreached"]:
            problems.append(f"wrapper {name} recorded no call")
        record.update(
            {
                "traced_wall_s": [r["wall_s"] for r in traced],
                "self_s_by_layer": last["self_s_by_layer"],
                "self_s_total": last["self_s_total"],
                "unaccounted_s": last["wall_s"] - last["self_s_total"],
                "shares": last["shares"],
            }
        )
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "job_p50_s": statistics.median(r["job_p50_s"] for r in plain),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "artifact_mb": statistics.median(r["bytes"] for r in plain) / 1e6,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record["problems"] = sorted(set(problems))
    record["jobs_failed"] = failed
    line = {
        "correct": not problems,
        "attempted": n_jobs * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    return {"line": line, "record": record}


if __name__ == "__main__":
    sys.exit(main())
