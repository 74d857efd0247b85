#!/usr/bin/env python3
"""Benchmark of the thz-ris-planner library and CLI.

    python3 perfbench/run.py --workload pattern-cuts --seed 1 --seconds 16 --trace 0

One process drives one closed-loop client: it makes a seeded job, runs it,
waits for the result and starts the next. Jobs come in blocks with a fixed
mix of problem sizes, and a run measures a fixed number of whole blocks:
as many as fill --seconds at the workload's NOMINAL_BLOCK_S (the block's
time in reference seconds), and at least MIN_JOBS jobs, so that a tail
percentile with ten jobs beyond it exists. Every run of a workload thus
does the same amount of work, whatever the seed or the speed of the code.
A run that takes longer than MAX_STRETCH times --seconds stops early.

Times are reported in reference seconds (see hostspeed.py): the process is
pinned to one CPU, a background thread samples the speed of that CPU with
a fixed kernel every few milliseconds, and each job and set-up spawn is
scaled by the speed sampled while it ran. The raw times and a summary of
the samples are kept in the run record.

Workloads (see BENCHMARK.json for why each one is there):

  pattern-cuts  in-process panel synthesis, cut, FFT lattice and directivity
  squint-sweep  in-process squint_vs_angle sweeps
  cli-plan      `python -m thz_ris_planner.cli` in a fresh process per job

--trace 0 prints the end-to-end metrics. --trace 1 runs every job twice,
once untraced and once with spans around each public call into the library
(or, for cli-plan, around import, load_config and cli.main in the child),
and prints the per-layer metrics. Outputs are checked against the library's
reference routes after the timed loop. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the run's
record (environment, metrics, failures and spans) is written under
.perfbench_out/ in the checkout.
"""

import os

# One BLAS thread per process: numpy and scipy each load their own OpenBLAS,
# and two default pools would exceed the two cores this benchmark assumes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from hostspeed import MIN_SAMPLES, REF_S, HostMeter, pin_to_one_cpu  # noqa: E402
from spans import JOB_SPAN, NullTracer, Tracer, layer_times, reuse_fraction  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = {"pattern-cuts": "pattern_cuts", "squint-sweep": "squint_sweep", "cli-plan": "cli_plan"}
MIN_JOBS = 11  # the tail percentile needs ten jobs beyond it
MAX_STRETCH = 4.0  # a guard against a stalled host; the block count sets the work
SETUP_SPAWNS = 3
SPAWN_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": ("s", "spawn of a fresh interpreter until the package import returns; "
                "median of the run's spawns, in reference seconds"),
    "job_p50_s": ("s", "median wall time of one job, in reference seconds"),
    "job_tail_s": ("s", "wall time at the highest percentile with ten jobs beyond it, in reference seconds"),
    "jobs_per_s": ("1/s", "jobs completed per reference second of job wall time"),
    "peak_rss_mb": ("MB", "peak resident memory of the worker (largest child for cli-plan)"),
    "ok_frac": ("fraction", "share of attempted jobs that ran and passed every output check (1 - failed_frac)"),
}

SUBCOMMANDS = ("link-budget", "solve-aperture", "pattern", "squint", "power")
CALL_LAYERS = (
    "import",
    "config.load_config",
    *(f"cli.main.{sub}" for sub in SUBCOMMANDS),
    "radiation.principal_plane_cut",
    "radiation.directivity",
    "radiation.squint_vs_angle",
    "radiation.hemisphere_power_exact",
    "radiation.array_factor_fft",
    "surface.synthesize_profile",
    "surface.quantize_profile",
)
# computed operation counts, and the busy time they divide into ns_per_eval
OP_COUNTS = {
    "radiation.principal_plane_cut.cell_dir_evals": "radiation.principal_plane_cut",
    "radiation.directivity.cell_grid_evals": "radiation.directivity",
    "radiation.squint_vs_angle.cell_freq_evals": None,
    "radiation.squint_vs_angle.lag_freq_evals": None,
    "radiation.hemisphere_power_exact.lag_evals": None,
    "radiation.array_factor_fft.lattice_pts": None,
}
# descriptions of the per-layer metrics, by full name or by last component
LAYER_NOTES = {
    "busy_s": "reference seconds inside the call, summed over the traced jobs",
    "self_s": "busy seconds minus the nested config.load_config span",
    "calls": "calls made",
    "errors": "calls that raised (for cli.main: exit code 1 or an exception)",
    "ns_per_eval": "busy reference nanoseconds per computed evaluation",
    "cell_dir_evals": "computed: sum over calls of cells x cut directions",
    "cell_grid_evals": "computed: sum over calls of cells x |theta| x |phi| of the returned grid",
    "cell_freq_evals": "computed: sum over calls of cells x frequencies x angles",
    "lag_freq_evals": "computed: sum over calls of (2n-1)^2 lags x frequencies x angles",
    "lag_evals": "computed: sum over calls of (2n-1)^2 lags",
    "lattice_pts": "computed: sum over calls of FFT (u, v) lattice points",
    "lattice_reuse_frac": "share of (lattice, k) power evaluations whose key appeared earlier in the run",
    "reuse_frac": "share of calls whose (lattice, k) appeared earlier in the run",
    "cli.interpreter_s": "cli-plan process wall minus its import and cli.main spans",
    "bench.self_s": "job wall minus the spans of the calls the job made",
    "trace.overhead_frac": "traced over untraced job seconds of the same jobs, minus 1",
    "check.max_err_db": "largest output-check error, as dB",
}
REUSE = {
    "radiation.squint_vs_angle.lattice_reuse_frac": "radiation.squint_vs_angle",
    "radiation.hemisphere_power_exact.reuse_frac": "radiation.hemisphere_power_exact",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in CALL_LAYERS:
        units[f"{layer}.busy_s"] = "s"
        if layer.startswith("cli.main."):
            units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
    for name, layer in OP_COUNTS.items():
        units[name] = "count"
        if layer:
            units[f"{layer}.ns_per_eval"] = "ns"
    units.update(dict.fromkeys(REUSE, "fraction"))
    units.update({
        "cli.interpreter_s": "s",
        "bench.self_s": "s",
        "trace.overhead_frac": "fraction",
        "check.max_err_db": "dB",
    })
    return units


def describe_layer_metric(name: str) -> str:
    return LAYER_NOTES.get(name) or LAYER_NOTES[name.rsplit(".", 1)[1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small problems, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (SRC / "thz_ris_planner" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import thz_ris_planner  # noqa: F401
    import_span = (t0, time.perf_counter())
    wl = importlib.import_module(WORKLOADS[args.workload])

    tracer = Tracer() if args.trace else NullTracer()
    tracer.add("import", *import_span, None)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with HostMeter() as meter:
        while len(meter.samples) < MIN_SAMPLES:
            time.sleep(0.05)
        ctx = SimpleNamespace(tracer=tracer, work_dir=run_dir, env=env, job=None, tag="", meter=meter)
        setup_spans = [spawn_import(wl.IMPORT, env, tracer) for _ in range(SETUP_SPAWNS)]
        blocks = wl.blocks(random.Random(f"{args.workload}:{args.seed}"), args.size)
        loop = traced_loop if args.trace else timed_loop
        res = loop(wl, blocks, ctx, tracer, args.seconds)
    setup = [meter.to_reference(*span) for span in setup_spans]
    setup_raw = [end - start for start, end in setup_spans]
    sample_s = [cpu for _, cpu in meter.samples]
    speed_factor = statistics.fmean(sample_s) / REF_S
    rss_kb = resource.getrusage(getattr(wl, "RSS_WHO", resource.RUSAGE_SELF)).ru_maxrss

    failures = list(res.failures)
    max_err_db = res.max_err_db
    extra = {}
    if hasattr(wl, "finish"):
        extra, more = wl.finish(ctx, res.executed)
        failures.extend(more)
    attempted = len(res.executed)
    failed = len({j for j, _ in failures})

    extra["host"] = {
        "cpu": cpu,
        "sample_ref_s": REF_S,
        "samples": len(sample_s),
        "meter_threads": 1,
        "speed_factor": speed_factor,
        "speed_factor_quartiles": [q / REF_S for q in statistics.quantiles(sample_s, n=4)],
    }
    extra["setup_raw_s"] = setup_raw
    if args.trace:
        metrics = layer_metrics(tracer, res, max_err_db, 1.0 / speed_factor)
        units = per_layer_units()
    else:
        walls = sorted(res.walls)
        extra["tail_percentile"] = 100.0 * (len(walls) - 10) / len(walls)
        extra["jobs"] = len(walls)
        extra["job_walls_raw_s"] = res.raw_walls
        extra["job_walls_ref_s"] = res.walls
        metrics = {
            "setup_s": statistics.median(setup),
            "job_p50_s": statistics.median(walls),
            "job_tail_s": walls[len(walls) - 11],
            "jobs_per_s": res.completed / sum(res.walls),
            "peak_rss_mb": rss_kb / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}

    environment = describe_environment(args)
    record = {
        "environment": environment,
        "metrics": metrics,
        "failed_frac": failed / attempted,
        "check_max_err_db": max_err_db,
        "failures": failures,
        **extra,
    }
    if args.trace:
        record["spans"] = tracer.spans
    (run_dir / "run.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    shutil.rmtree(run_dir / "jobs", ignore_errors=True)

    for j, msg in failures:
        print(f"perfbench: job {j} failed: {msg}", file=sys.stderr)
    for name, value in metrics.items():
        note = END_TO_END[name][1] if name in END_TO_END else describe_layer_metric(name)
        print(f"# {name:48s} {value:14.6g} {units[name]:9s} {note}")
    print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted} jobs); "
          f"check.max_err_db {max_err_db:.3g}")
    for key, value in extra.items():
        if key not in ("job_walls_ref_s", "job_walls_raw_s"):
            print(f"# {key} {value}")
    print("# env " + json.dumps(environment, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def spawn_import(module: str, env: dict, tracer) -> tuple[float, float]:
    """(spawn, end): from spawning an interpreter until `import module` returns in it."""
    code = f"import time; t = time.perf_counter(); import {module}; print(t, time.perf_counter())"
    spawned = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=SPAWN_TIMEOUT_S, check=True)
    start, end = map(float, out.stdout.split())
    tracer.add("import", start, end, None)
    return spawned, end


def run_job(wl, job, j, ctx, tag):
    """One job: ((start, end), inputs, output or None, error or None)."""
    ctx.job, ctx.tag = j, tag
    ctx.tracer.job = j
    inputs = wl.prepare(job, ctx)
    start = time.perf_counter()
    try:
        raw = wl.execute(inputs, ctx)
    except Exception as exc:  # the closed loop goes on; the job counts as failed
        end = time.perf_counter()
        ctx.tracer.add(JOB_SPAN, start, end, None, ok=False)
        traceback.print_exc(file=sys.stderr)
        return (start, end), inputs, None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    ctx.tracer.add(JOB_SPAN, start, end, None)
    return (start, end), inputs, raw, None


def settle(wl, res, j, job, inputs, raw, err, traced):
    """Digest and check one job's output, outside the timed region.

    Only the fields the workload names in KEEP outlive the check, so memory
    does not grow with the number of jobs.
    """
    kept = None
    if raw is not None:
        res.completed += 1
        try:
            rec = wl.digest(job, inputs, raw)
            res.max_err_db = max(res.max_err_db, wl.check(job, rec))
        except Exception as exc:  # a failed or crashed check fails the job, not the run
            err = f"check: {type(exc).__name__}: {exc}"
        else:
            kept = {key: rec[key] for key in getattr(wl, "KEEP", ())}
            if traced:
                for name, count in rec["ops"].items():
                    res.ops[name] = res.ops.get(name, 0) + count
                for layer, keys in rec["keys"].items():
                    res.keys.setdefault(layer, []).extend(keys)
    res.executed.append((j, job, kept))
    if err:
        res.failures.append((j, err))


def new_result():
    return SimpleNamespace(spans=[], traced_spans=[], executed=[], failures=[], completed=0,
                           max_err_db=0.0, ops={}, keys={})


def to_walls(res, meter):
    """Raw and reference seconds of the jobs whose (start, end) the loop recorded."""
    res.raw_walls = [end - start for start, end in res.spans]
    res.walls = [meter.to_reference(*span) for span in res.spans]
    res.traced_walls = [meter.to_reference(*span) for span in res.traced_spans]


def numbered_jobs(blocks, n_blocks, min_jobs, seconds):
    """(index, job) over n_blocks whole blocks and at least min_jobs jobs.

    Stops early, at a block boundary, once the loop has run for
    MAX_STRETCH * seconds and min_jobs are done.
    """
    start = time.perf_counter()
    j = 0
    for b, block in enumerate(blocks):
        stalled = time.perf_counter() - start > MAX_STRETCH * seconds
        if j >= min_jobs and (b >= n_blocks or stalled):
            return
        for job in block:
            yield j, job
            j += 1
    raise AssertionError("job generators are endless")


def timed_loop(wl, blocks, ctx, tracer, seconds):
    res = new_result()
    n_blocks = max(1, round(seconds / wl.NOMINAL_BLOCK_S))
    for j, job in numbered_jobs(blocks, n_blocks, MIN_JOBS, seconds):
        span, inputs, raw, err = run_job(wl, job, j, ctx, "")
        res.spans.append(span)
        settle(wl, res, j, job, inputs, raw, err, False)
    to_walls(res, ctx.meter)
    return res


def traced_loop(wl, blocks, ctx, tracer, seconds):
    """Each job runs untraced and traced, in alternating order; checks use the traced run."""
    res = new_result()
    quiet = NullTracer()
    n_blocks = max(1, round(seconds / (2 * wl.NOMINAL_BLOCK_S)))
    for j, job in numbered_jobs(blocks, n_blocks, 1, seconds):
        pair = {}
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            ctx.tracer = tracer if traced else quiet
            pair[traced] = run_job(wl, job, j, ctx, "t" if traced else "u")
        res.spans.append(pair[False][0])
        res.traced_spans.append(pair[True][0])
        if pair[False][3]:
            res.failures.append((j, pair[False][3]))
        _, inputs, raw, err = pair[True]
        settle(wl, res, j, job, inputs, raw, err, True)
    ctx.tracer = tracer
    to_walls(res, ctx.meter)
    return res


def layer_metrics(tracer, res, max_err_db, factor) -> dict[str, float]:
    """Per-layer metrics; span times are scaled to reference seconds by factor."""
    stats = layer_times(tracer.spans)
    for s in stats.values():
        s["busy_s"] *= factor
        s["self_s"] *= factor
    zero = {"calls": 0, "errors": 0, "busy_s": 0.0, "self_s": 0.0}
    metrics = {}
    for layer in CALL_LAYERS:
        s = stats.get(layer, zero)
        metrics[f"{layer}.busy_s"] = s["busy_s"]
        if layer.startswith("cli.main."):
            metrics[f"{layer}.self_s"] = s["self_s"]
        metrics[f"{layer}.calls"] = s["calls"]
        metrics[f"{layer}.errors"] = s["errors"]
    for name, layer in OP_COUNTS.items():
        count = res.ops.get(name, 0)
        metrics[name] = count
        if layer:
            busy = stats.get(layer, zero)["busy_s"]
            metrics[f"{layer}.ns_per_eval"] = busy * 1e9 / count if count else 0.0
    for name, layer in REUSE.items():
        metrics[name] = reuse_fraction(res.keys.get(layer, []))
    bench_self = stats.get(JOB_SPAN, zero)["self_s"]
    # a cli-plan job is one child process, so its self time is the interpreter's
    runs_cli = any(stats.get(f"cli.main.{sub}") for sub in SUBCOMMANDS)
    metrics["cli.interpreter_s"] = bench_self if runs_cli else 0.0
    metrics["bench.self_s"] = bench_self
    metrics["trace.overhead_frac"] = sum(res.traced_walls) / sum(res.walls) - 1.0
    metrics["check.max_err_db"] = max_err_db
    return metrics


def describe_environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    tasks = Path("/proc/self/task")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "process_threads": len(list(tasks.iterdir())) if tasks.is_dir() else None,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_hash(SRC / "thz_ris_planner"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def git_commit(root: Path):
    """HEAD of the checkout's git repository, or None outside one."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def source_hash(package: Path) -> str:
    """sha256 over the package's files, so runs outside git can be matched to a tree."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(f"{path.relative_to(package)}\0".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
