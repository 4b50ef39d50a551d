"""Time sco end to end and layer by layer on one fixed workload.

    python3 perfbench/run.py --workload recovery-linear --seed 1 --seconds 25 --trace 0

Run from the repository root.  One process runs one workload as a closed
loop with one client: every job runs after the previous one finished.
BLAS is pinned to one thread before numpy is imported.  ``--seed`` alone
fixes the datasets and ``--seconds`` fixes how many there are (the
workload's ``dataset_seconds`` says how long one takes).  For each dataset
the run generates it (not timed), builds its problem (``setup_s``) and runs
the workload's job list on it (``wall_s``).  Per-dataset times vary a lot
with the data, so both are medians over the datasets.  ``job_p50_s``, the
median over single jobs, is printed but is not a gated metric.  The host's
speed drifts too, so each dataset's times are scaled by a frozen reference
block timed before and after it (see ``reference.py``); the raw medians are
printed and saved as well.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` takes half as many datasets, runs each one untraced and then
traced, and prints the per-layer metrics: counts and raw times summed over
the traced datasets, and the tracing overhead (the median over datasets of
traced minus untraced raw wall time).  Either way the last line of standard
output is one JSON object, and the full result, with the machine
description and (when traced) every span, is written to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.

Every solution is checked with ``validate_solution`` (for a path, on the
problem at the chosen budget); a job that raises, returns a non-finite
objective or fails the check counts as failed, and the remaining jobs
still run.  A traced job must give the same support and objective as the
untraced one.  ``perfbench/compare.py`` compares two sets of result files;
two traced runs of one commit and seed must agree on every count.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # must precede the first numpy import
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

clock = time.perf_counter

REPEATING_UNITS = ("count", "1", "calls/refit")  # per-layer metrics that must repeat exactly


@dataclass
class DatasetResult:
    """One dataset's set-up time and jobs."""

    wall: float = 0.0
    setup: float = 0.0
    job_seconds: list = field(default_factory=list)
    f1: list = field(default_factory=list)
    objective_ratios: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    scale: float = 1.0  # reference.NOMINAL_S over the reference block's time around it


def _plain_call(name, fn, args, kind=None):
    return fn(*args)


def run_dataset(workload, dataset, jobs, tracer):
    """Build the dataset's problem and run the jobs on it; time both.

    Job times exclude the problems a job builds itself (cross-validation
    folds); those count as set-up.
    """
    from sco import models
    from sco.bench import support_metrics
    from workloads import run_job

    result = DatasetResult()
    call = tracer.call if tracer else _plain_call
    build = tracer.build_problem if tracer else models.build_problem

    def raw_problem(data):
        t0 = clock()
        problem = build(data)
        result.setup += clock() - t0
        return problem

    def factory(data):
        problem = raw_problem(data)
        return tracer.wrap_problem(problem) if tracer else problem

    raw = raw_problem(dataset)
    problem = tracer.wrap_problem(raw) if tracer else raw
    planted = raw.oracle.value(dataset.theta_true)
    with tracer.installed() if tracer else nullcontext():
        for job in jobs:
            if tracer:
                tracer.job = f"{dataset.spec.seed}/{job[0]}/{job[1]}"
            setup_before = result.setup
            t0 = clock()
            try:
                solution, s_used = run_job(workload, job, dataset, problem, factory, call)
            except Exception:
                solution = None
                print(f"job {job} on dataset seed {dataset.spec.seed} raised:\n"
                      f"{traceback.format_exc()}", file=sys.stderr)
            seconds = clock() - t0 - (result.setup - setup_before)
            if tracer:
                tracer.job = None
            result.attempted += 1
            if solution is None or not _check(raw, s_used, solution):
                result.failed += 1
                continue
            result.wall += seconds
            result.job_seconds.append(seconds)
            result.f1.append(support_metrics(dataset.support_true, solution.support,
                                             dataset.p).f1)
            result.objective_ratios.append(solution.objective / planted)
    return result


def _check(problem, s_used, solution):
    """Whether a solution is valid for ``problem`` at budget ``s_used``; reports why not."""
    from sco.problem import validate_solution

    if not math.isfinite(solution.objective):
        print(f"non-finite objective {solution.objective!r}", file=sys.stderr)
        return False
    try:
        validate_solution(problem if s_used == problem.s else replace(problem, s=s_used),
                          solution)
    except ValueError as e:
        print(f"validate_solution failed: {e}", file=sys.stderr)
        return False
    return True


def _tail(samples):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return q, ordered[math.ceil(q / 100 * n) - 1]
    return None


def _git_commit():
    # read .git directly: the benchmark may run in a plain checkout with no git
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": _git_commit(),
        "seed": seed,
    }


def end_to_end_metrics(results):
    return {
        "wall_s": statistics.median(r.wall * r.scale for r in results),
        "setup_s": statistics.median(r.setup * r.scale for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "f1_mean": statistics.fmean(f for r in results for f in r.f1),
        "objective_ratio": statistics.fmean(q for r in results for q in r.objective_ratios),
    }


def per_layer_metrics(tracer, untraced, traced, generate_s, spec):
    metrics = tracer.layer_metrics()
    metrics["models.generate.s"] = generate_s
    metrics["trace.wall_s"] = statistics.median(r.wall for r in traced)
    # paired by dataset: the two runs of one dataset are back to back, so host drift cancels
    metrics["trace.overhead_s"] = statistics.median(t.wall - u.wall
                                                    for u, t in zip(untraced, traced))
    return {k: v for k, v in metrics.items() if k in spec}


def main(argv=None):
    if not (SRC / "sco" / "__init__.py").is_file():
        print(f"perfbench: no sco package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from reference import NOMINAL_S, reference_seconds
    from sco import models
    from tracing import Tracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench",
                        help="directory for the full result file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    # a traced run measures every dataset twice, so it takes half as many
    specs = workload.specs(args.seed, workload.dataset_count(
        args.seconds / 2 if args.trace else args.seconds))

    tracer = Tracer() if args.trace else None
    untraced, traced, problems = [], [], []
    generate_s = 0.0
    for i, model_spec in enumerate(specs):
        t0 = clock()
        dataset = models.generate(model_spec)
        generate_s += clock() - t0
        if i == 0:
            run_dataset(workload, dataset, workload.jobs[:1], None)  # warm-up, untimed
            before = reference_seconds(workload.reference)
        untraced.append(run_dataset(workload, dataset, workload.jobs, None))
        after = reference_seconds(workload.reference)
        untraced[-1].scale = NOMINAL_S[workload.reference] / math.sqrt(before * after)
        before = after
        if tracer:
            traced.append(run_dataset(workload, dataset, workload.jobs, tracer))
            if (traced[-1].f1, traced[-1].objective_ratios) != (untraced[-1].f1,
                                                                 untraced[-1].objective_ratios):
                problems.append(f"tracing changed the results on dataset seed {model_spec.seed}")
        del dataset  # free the design before the next one is generated

    results = untraced + traced
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    if failed:
        problems.insert(0, f"{failed} of {attempted} jobs failed")
    jobs = [t for r in untraced for t in r.job_seconds]
    f1_mean = statistics.fmean(f for r in untraced for f in r.f1) if jobs else 0.0
    metrics, counts = {}, {"f1_mean": f1_mean}
    if jobs and tracer:
        metrics = per_layer_metrics(tracer, untraced, traced, generate_s, spec)
        counts.update((k, v) for k, v in metrics.items() if spec[k] in REPEATING_UNITS)
    elif jobs:
        metrics = end_to_end_metrics(untraced)
    correct = not problems and set(metrics) == set(spec)

    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"datasets={len(specs)} jobs/dataset={len(workload.jobs)}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in spec.items():
        if name in metrics:
            print(f"{name:34s} {metrics[name]:.6g} {unit}")
    if jobs:
        # reported, not gated: a median over a mix of job kinds jumps between
        # the kinds' modes from one seed to the next
        scaled = [t * r.scale for r in untraced for t in r.job_seconds]
        tail = _tail(scaled)
        note = f", p{tail[0]} {tail[1]:.6g} s" if tail else ""
        print(f"# job_p50_s {statistics.median(scaled):.6g} s (n={len(scaled)} jobs{note}); "
              f"wall_s and setup_s are medians over {len(untraced)} datasets")
        print(f"# raw medians: wall {statistics.median(r.wall for r in untraced):.6g} s, "
              f"setup {statistics.median(r.setup for r in untraced):.6g} s, "
              f"job {statistics.median(jobs):.6g} s; host speed "
              f"{statistics.median(r.scale for r in untraced):.4g} x reference")
    print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for problem in problems:
        print(f"# NOT CORRECT: {problem}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": spec[k]} for k in spec if k in metrics}}
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "datasets": len(specs), "env": env, "result": result,
              "counts": counts, "dataset_wall_s": [r.wall for r in untraced],
              "dataset_setup_s": [r.setup for r in untraced],
              "dataset_scale": [r.scale for r in untraced]}
    if tracer:
        origin = tracer.spans[0].start if tracer.spans else 0.0
        record["spans"] = [s.record(origin) for s in tracer.spans]
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
