"""Benchmark of the halfspace-bloch command line, with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload coeffs --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One caller drives ``halfspace_bloch.cli.main`` in-process in a closed loop:
the next instance starts when the previous one has returned.  An instance is
one ``main`` call on one seeded, generated JSON config, timed from the call
until the output file is written; its output is then checked (see
``checks.py``) outside the timed span.  BLAS runs on one thread.  The loop
passes over a pool of at least 200 instances, at least once and until
``--seconds`` have gone by.

Times are taken at the reference speed.  The benchmark was written on a
shared 2-vCPU VM whose speed drifts by tens of percent within minutes, and
that drift swamped any change in the program.  So each instance is timed in
CPU seconds (which leave out time the VM was descheduled), and a fixed
piece of work that does not touch the program (``reference_seconds``) runs
before every ``REFERENCE_EVERY``-th instance; each time is scaled by
``REFERENCE_S`` over the mean of the reference samples around it, and each
cold start by ``REFERENCE_S`` over the median of the reference times taken
before them.  The unscaled figures are printed as notes.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median CPU time of cold starts, each a fresh interpreter that
  imports ``halfspace_bloch`` and generates the workload's configs;
* ``instances_per_s``: instances over the summed instance times;
* ``instance_ms_p50``, ``instance_ms_p90``: instance time quantiles;
* ``ok_frac``: instances that exited 0 and passed the check, over attempted;
* ``peak_rss_mb``: peak resident memory of the process running the loop.

``--trace 1`` reports the per-layer metrics.  It alternates untraced and
traced passes over a few stratum rounds of the pool, with
spans around the program's public functions (``tracer.py``).  Times are
seconds per pass, averaged over the traced passes; counts are per pass and
must repeat exactly between passes.  ``trace.overhead_frac`` compares the
median traced and untraced pass, ``trace.coverage_frac`` is the share of the
instance time inside layer spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import numpy as np

import checks
import tracer
import workloads

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25

#: cold starts per run for ``setup_s``, after one that fills the bytecode cache
SETUP_REPEATS = 7

#: untimed instances before the timed loop (lazy imports inside numpy)
WARMUP = 8

#: CPU seconds that ``reference_seconds`` takes at the speed times are
#: reported at; a 2-vCPU Xeon VM with Python 3.11 and numpy 2 takes about this
REFERENCE_S = 0.004

#: calls between two reference samples
REFERENCE_EVERY = 2

#: reference samples on each side of a call that set the speed it is scaled by
REFERENCE_WINDOW = 4

#: reference samples before each cold start
SETUP_REFERENCES = 3

COLD_START = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import halfspace_bloch.cli
import workloads
workload = sys.argv[3]
for instance in workloads.generate(workload, int(sys.argv[4]), workloads.timed_rounds(workload)):
    json.dumps(instance.config)
"""

END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("instance_ms_p50", "ms"),
    ("instance_ms_p90", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: per-layer self times: metric name -> span name
SELF_TIMES = {
    "bloch.bloch_series.self_s": "bloch.bloch_series",
    "bloch.closed_form_coeffs.self_s": "bloch.closed_form_coeffs",
    "bloch.max_discrepancy.self_s": "bloch.max_discrepancy",
    "spectrum.degeneracy_group.self_s": "spectrum.degeneracy_group",
    "rootfn.second_plane_solve.self_s": "rootfn.second_plane_solve",
    "rootfn.oned_double_criterion.self_s": "rootfn.oned_double_criterion",
    "lattice.enumerate_ball.self_s": "lattice.enumerate_ball",
    "galerkin.build.self_s": "galerkin.build",
    "galerkin.triangularity_witness.self_s": "galerkin.triangularity_witness",
    "galerkin.eigenvector_backsolve.self_s": "galerkin.eigenvector_backsolve",
    "galerkin.interior_cone.self_s": "galerkin.interior_cone",
    "galerkin.rank_probe.self_s": "galerkin.rank_probe",
    "isoenergetic.sample_surface.self_s": "isoenergetic.sample_surface",
    "cli.parse_s": "cli.parse",
    "cli.self_s": "cli",
}

#: per-layer span call counts: metric name -> span name
SPAN_CALLS = {
    "lattice.enumerate_ball.calls": "lattice.enumerate_ball",
    "galerkin.triangularity_witness.calls": "galerkin.triangularity_witness",
}

#: per-layer counts added by the tracer's measures, and their units
COUNTS = {
    "bloch.apply_A.calls": "count",
    "spectrum.eigenvalue.calls": "count",
    "bloch.coeffs_out": "count",
    "lattice.enumerate_ball.points": "count",
    "galerkin.matrix_n": "count",
    "galerkin.matrix_bytes": "bytes",
    "galerkin.rank_probe.n3": "count",
    "isoenergetic.grid_points": "count",
    "potential.support_size": "count",
    "cli.output_bytes": "bytes",
}

RATIOS = ("isoenergetic.retained_frac", "trace.overhead_frac", "trace.coverage_frac")


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SELF_TIMES}
    units.update({name: "count" for name in SPAN_CALLS})
    units.update(COUNTS)
    units.update({name: "ratio" for name in RATIOS})
    return units


# -- environment -----------------------------------------------------------------


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


# -- running instances --------------------------------------------------------------


def write_configs(pool, work: Path) -> list[Path]:
    paths = []
    for i, instance in enumerate(pool):
        path = work / f"config-{i}.json"
        path.write_text(json.dumps(instance.config), encoding="utf-8")
        paths.append(path)
    return paths


_REFERENCE_MATRIX = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)


def reference_seconds() -> float:
    """CPU seconds of a fixed piece of work that does not touch the program.

    Its mix follows the program's: Python loops over dicts and tuples, many
    small numpy calls, and a small dense product and SVD.  The host's speed
    drifts by tens of percent within minutes, and this work drifts with it.
    """
    start = process_time()
    acc: dict = {}
    for i in range(3000):
        key = (i % 61, i % 53)
        acc[key] = acc.get(key, 0.0) + math.sqrt(i + 1.0)
    for i in range(300):
        v = np.arange(i % 7 + 3, dtype=float)
        acc[i] = float(np.abs(v - 0.5).sum())
    a = _REFERENCE_MATRIX
    for _ in range(6):
        a = np.tanh(a @ _REFERENCE_MATRIX)
    np.linalg.svd(a, compute_uv=False)
    return process_time() - start


def near(refs: list[float], k: int) -> float:
    """Mean of the reference samples within ``REFERENCE_WINDOW`` of sample k.

    A mean, not a median: the speed changes within the span of a few
    instances, and an instance runs at the average speed over its span.
    """
    return statistics.fmean(refs[max(0, k - REFERENCE_WINDOW): k + REFERENCE_WINDOW + 1])


def call(instance, config: Path, out: Path) -> tuple[int, float, float]:
    """Run one instance; (exit code, wall seconds, CPU seconds).

    A crash counts as exit -1.
    """
    from halfspace_bloch import cli

    argv = [instance.command, "--config", str(config), "--out", str(out)]
    out.unlink(missing_ok=True)
    start, cpu = perf_counter(), process_time()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crashing instance is a failure, not the end of the run
        code = -1
        print(f"instance crashed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code, perf_counter() - start, process_time() - cpu


def checked(instance, code: int, out: Path) -> bool:
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    try:
        ok = checks.check(instance.command, instance.config, code, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        print(f"unreadable output: {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"check failed: {instance.stratum} (exit {code})", file=sys.stderr)
    return ok


def cold_start_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """CPU seconds of cold starts, and the mean reference time before each."""
    argv = [sys.executable, "-c", COLD_START, str(SRC), str(HERE), workload, str(seed)]
    times, refs = [], []
    for _ in range(SETUP_REPEATS + 1):
        refs.append(statistics.fmean(reference_seconds() for _ in range(SETUP_REFERENCES)))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(argv, check=True, cwd=ROOT)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return times[1:], refs[1:]


def run_untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    setup, setup_refs = cold_start_seconds(workload, seed)
    pool = workloads.generate(workload, seed, workloads.timed_rounds(workload))
    configs = write_configs(pool, work)
    out = work / "out"
    for instance, config in list(zip(pool, configs))[:WARMUP]:
        call(instance, config, out)

    # passes over the pool, with a reference sample before every
    # REFERENCE_EVERY-th call
    cpu: list[float] = []
    refs: list[float] = []
    wall_total = 0.0
    failed = 0
    start = perf_counter()
    while len(cpu) < len(pool) or perf_counter() - start < seconds:
        i = len(cpu) % len(pool)
        if len(cpu) % REFERENCE_EVERY == 0:
            refs.append(reference_seconds())
        code, wall, used = call(pool[i], configs[i], out)
        cpu.append(used)
        wall_total += wall
        if not checked(pool[i], code, out):
            failed += 1

    scale = [REFERENCE_S / near(refs, j // REFERENCE_EVERY) for j in range(len(cpu))]
    ms = [1e3 * t * f for t, f in zip(cpu, scale)]
    attempted = len(ms)
    values = {
        "setup_s": statistics.median(setup) * REFERENCE_S / statistics.median(setup_refs),
        "instances_per_s": attempted / (sum(ms) / 1e3),
        "instance_ms_p50": statistics.median(ms),
        "instance_ms_p90": statistics.quantiles(ms, n=10)[-1],
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {name: attempted for name in values}
    samples["setup_s"] = len(setup)
    samples["peak_rss_mb"] = 1
    raw = [1e3 * t for t in cpu]
    notes = [
        f"{len(pool)} instances in the pool, {attempted} calls, {len(refs)} reference samples",
        f"reference work took {1e3 * statistics.median(refs):.4g} ms of CPU "
        f"(quartiles {', '.join(f'{1e3 * q:.4g}' for q in statistics.quantiles(refs, n=4))}); "
        f"times below are scaled to {1e3 * REFERENCE_S:.4g} ms",
        f"unscaled CPU times: {attempted / (sum(raw) / 1e3):.4g} 1/s, "
        f"p50 {statistics.median(raw):.4g} ms, p90 {statistics.quantiles(raw, n=10)[-1]:.4g} ms; "
        f"unscaled set-up {statistics.median(setup):.4g} s",
        f"CPU time is {sum(raw) / 1e3 / wall_total:.4f} of wall time",
    ]
    units = dict(END_TO_END)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: (values[n], units[n], samples[n]) for n, _ in END_TO_END},
        "notes": notes,
    }


def run_pass(pool, configs, out: Path, trace: tracer.Tracer | None) -> dict:
    walls, failed, output_bytes = [], 0, 0
    for i, (instance, config) in enumerate(zip(pool, configs)):
        if trace is not None:
            trace.instance = i
        code, wall, _ = call(instance, config, out)
        walls.append(wall)
        if out.exists():
            output_bytes += out.stat().st_size
        if not checked(instance, code, out):
            failed += 1
    return {"wall": sum(walls), "failed": failed, "output_bytes": output_bytes}


def pass_layers(trace: tracer.Tracer, result: dict) -> dict:
    """Per-layer values of one traced pass."""
    self_s, calls = trace.aggregate()
    values = {name: self_s.get(span, 0.0) for name, span in SELF_TIMES.items()}
    values.update({name: calls.get(span, 0) for name, span in SPAN_CALLS.items()})
    values.update({name: trace.counts.get(name, 0) for name in COUNTS})
    values["cli.output_bytes"] = result["output_bytes"]
    grid = trace.counts.get("isoenergetic.grid_points", 0)
    retained = trace.counts.get("isoenergetic.retained", 0)
    values["isoenergetic.retained_frac"] = retained / grid if grid else 0.0
    values["trace.coverage_frac"] = sum(values[n] for n in SELF_TIMES) / result["wall"]
    return values


def run_traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    pool = workloads.generate(workload, seed, workloads.trace_rounds(workload))
    configs = write_configs(pool, work)
    out = work / "out"
    run_pass(pool, configs, out, None)

    plain, traced, layers, tracers = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(run_pass(pool, configs, out, None))
        trace = tracer.Tracer()
        undo = tracer.install(trace)
        try:
            traced.append(run_pass(pool, configs, out, trace))
        finally:
            undo()
        layers.append(pass_layers(trace, traced[-1]))
        tracers.append(trace)

    notes = []
    count_names = list(SPAN_CALLS) + list(COUNTS)
    repeat = all(
        [p[name] for name in count_names] == [layers[0][name] for name in count_names]
        for p in layers
    )
    if not repeat:
        notes.append("count metrics differ between traced passes")
    spans_path = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for number, trace in enumerate(tracers):
            for span in trace.spans:
                fh.write(json.dumps([number, *span]) + "\n")
    notes.append(f"spans written to {spans_path.relative_to(ROOT)}")

    units = per_layer_units()
    values = {
        name: statistics.fmean(p[name] for p in layers) if name not in count_names
        else layers[0][name]
        for name in layers[0]
    }
    values["trace.overhead_frac"] = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in plain)
        - 1.0
    )
    attempted = len(pool) * (len(plain) + len(traced))
    failed = sum(p["failed"] for p in plain + traced)
    return {
        "attempted": attempted,
        "failed": failed + (0 if repeat else 1),
        "metrics": {n: (values[n], units[n], len(traced)) for n in units},
        "notes": notes,
    }


# -- reporting ----------------------------------------------------------------------------


def report(workload: str, seed: int, trace: int, result: dict) -> dict:
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"workload {workload}  seed {seed}  {kind}")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    print(f"instances attempted {result['attempted']}, failed {result['failed']}")
    for note in result["notes"]:
        print(f"note: {note}")
    samples_word = "traced passes" if trace else "samples"
    for name, (value, unit, samples) in result["metrics"].items():
        print(f"  {name:40s} {value:>16.6g} {unit:6s} ({samples} {samples_word})")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in result["metrics"].items()
        },
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, end to end and traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            sys.stderr.write(done.stderr)
            if done.returncode != 0 or not lines:
                raise SystemExit(f"{workload} (trace {trace}) exited {done.returncode}")
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = metric
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "halfspace_bloch" / "cli.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir()
    try:
        run = run_traced if args.trace else run_untraced
        result = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report(args.workload, args.seed, args.trace, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
