"""Benchmark of the segtransfer CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from `src/` next to this
directory and driven only through its CLI, one call at a time.  Inputs
come from the seed; outputs are checked.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, measured
untraced; with --trace 1 they are the per-layer ones of tracer.py, from
iterations run under the span tracer, each paired with an untraced
iteration that gives the tracing overhead.  See README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0
SETUP_SAMPLES = 5  # set-up is short and noisy; its median needs samples

END_TO_END = {  # name -> unit
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "miou": "frac",
    "pl_precision": "frac",
}


@dataclass
class CallResult:
    code: int
    wall_s: float
    rss_kib: int
    output: str


class Runner:
    """Runs CLI calls as child processes, one at a time, before a deadline."""

    # one BLAS thread: the client is one process, and the matrices are far
    # too small to gain from more
    THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    def __init__(self, work, deadline):
        self.deadline = deadline
        self.env = {**os.environ, **self.THREAD_ENV,
                    "PYTHONPATH": os.path.join(ROOT, "src"), "TMPDIR": work}
        self.log = os.path.join(work, "call.log")

    def __call__(self, cli_args, spans=None, run_id=""):
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return CallResult(-1, 0.0, 0, "not started: benchmark deadline reached")
        with open(self.log, "w") as log:
            start = time.perf_counter()
            if spans is None:
                cmd = [sys.executable, "-m", "segtransfer.cli", *cli_args]
            else:
                cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans, run_id,
                       repr(start), "--", *cli_args]
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                # wait4 gives the peak RSS of this child alone
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self.log) as fh:
            output = fh.read()
        return CallResult(proc.returncode, wall, usage.ru_maxrss, output)


@dataclass
class Iteration:
    wall_s: float
    rss_kib: int
    problems: list
    quality: dict
    docs: list


def iterate(case, runner, index, reference=None, traced=False):
    """One pass of a case's CLI calls, timed as a whole, then checked."""
    out = os.path.join(case.dir, f"it{index}")
    case.prepare(out)
    results, docs = [], []
    start = time.perf_counter()
    for j, args in enumerate(case.calls(out)):
        spans = os.path.join(out, f"spans{j}.json") if traced else None
        results.append(runner(args, spans, f"{case.w.name}/{case.seed}/{index}/{j}"))
    wall = time.perf_counter() - start
    outcome = case.check(out, [r.code for r in results], reference)
    for res, problems in zip(results, outcome.problems):
        if res.code != 0:
            problems.append(res.output.strip()[-500:])
    if traced:
        for j in range(len(results)):
            try:
                with open(os.path.join(out, f"spans{j}.json")) as fh:
                    docs.append(json.load(fh))
            except (OSError, ValueError) as e:
                outcome.problems[j].append(f"spans: {e}")
    shutil.rmtree(out, ignore_errors=True)
    return Iteration(wall, max(r.rss_kib for r in results), outcome.problems,
                     outcome.quality, docs)


def make_cases(workload, seed, work, runner, count, samples):
    """Set up `count` cases; returns (cases, setup seconds per sample).

    Set-up is the CLI gen-synth call plus the benchmark's own input files.
    It is timed `samples` times or once per case, whichever is more;
    extra samples regenerate case 0 into a scratch directory.
    """
    cases, times = [], []
    for i in range(max(count, samples)):
        s = wl.case_seed(seed, i if i < count else 0)
        case = wl.Case(workload, s, os.path.join(work, f"case{i}"))
        start = time.perf_counter()
        failure = case.setup(runner)
        times.append(time.perf_counter() - start)
        if failure is not None:
            raise RuntimeError(f"set-up of seed {s} failed:\n{failure}")
        if i < count:
            cases.append(case)
        else:
            shutil.rmtree(case.dir)
    return cases, times


def reference_for(case, reference):
    if case.w.check_reference and case.seed == 0:
        return reference[case.w.name]
    return None


def timed_run(workload, seed, seconds, work, runner):
    """Iterate the cases untraced for `seconds`: every case at least once,
    then round robin while another iteration fits."""
    cases, setup_times = make_cases(workload, seed, work, runner, workload.cases,
                                    SETUP_SAMPLES)
    reference = wl.load_reference()
    iters = []
    start = time.perf_counter()
    while True:
        case = cases[len(iters) % len(cases)]
        it = iterate(case, runner, len(iters), reference_for(case, reference))
        if len(iters) >= len(cases):
            first = iters[len(iters) % len(cases)]
            if it.quality != first.quality:
                it.problems[-1].append(f"not deterministic: {it.quality} != {first.quality}")
        iters.append(it)
        elapsed = time.perf_counter() - start
        typical = statistics.median(i.wall_s for i in iters)
        if len(iters) >= len(cases) and elapsed + typical > seconds:
            break
    quality = [i.quality for i in iters[:len(cases)]]
    metrics = {
        "run_s": statistics.median(i.wall_s for i in iters),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": statistics.median(i.rss_kib for i in iters) / 1024.0,
        "miou": _mean(q.get("miou") for q in quality),
        "pl_precision": _mean(q.get("pl_precision") for q in quality),
    }
    notes = [f"{len(iters)} iterations over {len(cases)} cases "
             f"(seeds {', '.join(str(c.seed) for c in cases)}); "
             f"set-ups {' '.join(f'{t:.3f}' for t in setup_times)} s; "
             f"iterations {' '.join(f'{i.wall_s:.3f}' for i in iters)} s"]
    return metrics, END_TO_END, iters, notes


def traced_run(workload, seed, seconds, work, runner):
    """Pairs of an untraced and a traced iteration of case 0, while
    another pair fits in `seconds`; per-layer metrics are medians over
    the pairs, and their counts must repeat exactly."""
    cases, _ = make_cases(workload, seed, work, runner, 1, 1)
    case = cases[0]
    reference = reference_for(case, wl.load_reference())
    iters, layer_runs = [], []
    start = time.perf_counter()
    while True:
        plain = iterate(case, runner, len(iters), reference)
        traced = iterate(case, runner, len(iters) + 1, reference, traced=True)
        iters += [plain, traced]
        layer_runs.append(tracer.aggregate(traced.docs, traced.wall_s, plain.wall_s))
        for name, unit in tracer.LAYER_METRICS.items():
            if unit[0] == "count" and layer_runs[-1][name] != layer_runs[0][name]:
                traced.problems[-1].append(f"count {name} changed between traced runs")
        elapsed = time.perf_counter() - start
        if elapsed * (len(layer_runs) + 1) / len(layer_runs) > seconds:
            break
    # counts are equal across the pairs (checked above); times take the median
    metrics = {name: layer_runs[0][name] if unit == "count"
               else statistics.median(r[name] for r in layer_runs)
               for name, (unit, _) in tracer.LAYER_METRICS.items()}
    units = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
    notes = [f"{len(layer_runs)} traced iterations of seed {case.seed}; untraced/traced "
             + " ".join(f"{p.wall_s:.3f}/{t.wall_s:.3f}" for p, t in zip(iters[::2], iters[1::2]))
             + " s"]
    return metrics, units, iters, notes


def _mean(values):
    """Mean of the values a failed check did not leave out; None if none."""
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def environment(workloads):
    """Where the numbers were measured."""
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            return int(out) // 1024 if out.isdigit() and int(out) > 0 else None
        except (OSError, subprocess.SubprocessError):
            return None

    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git_sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                     capture_output=True, text=True,
                                     timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    env = {
        "git_sha": git_sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(Runner.THREAD_ENV["OPENBLAS_NUM_THREADS"]),
        "l2_kib": getconf("LEVEL2_CACHE_SIZE"),
        "l3_kib": getconf("LEVEL3_CACHE_SIZE"),
    }
    for w in workloads:
        if w.kind == "label":
            side = w.config["image_size"]
            # per pseudolabel call: the float64 probability map and the float64
            # CIELAB image SLIC works on, to set against the caches
            env[f"{w.name}_working_set_kib"] = {
                "prob_map_f64": side * side * 2 * 8 // 1024,
                "lab_image_f64": side * side * 3 * 8 // 1024}
    return env


def run_workload(workload, args):
    """Run one workload, print its metrics; returns its result object."""
    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(work, time.perf_counter() + DEADLINE_S)
    try:
        run = traced_run if args.trace else timed_run
        metrics, units, iters, notes = run(workload, args.seed, args.seconds, work, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = [p for it in iters for p in it.problems]
    failed = sum(1 for p in calls if p)
    print(f"workload {workload.name} seed {args.seed}: " + "; ".join(notes))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_frac {failed / len(calls)!r} frac ({failed} of {len(calls)} CLI calls)")
    for problems in calls:
        for p in problems:
            print(f"failure: {p}")
    return {
        "correct": failed == 0 and None not in metrics.values(),
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None, workloads=wl.WORKLOADS):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(workloads), "all"],
                        help="one workload, or all of them one after the other")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "segtransfer", "cli.py")):
        print(f"error: no program at {os.path.join(ROOT, 'src', 'segtransfer')}",
              file=sys.stderr)
        return 2

    chosen = list(workloads.values()) if args.workload == "all" else [workloads[args.workload]]
    print("env " + json.dumps(environment(chosen), sort_keys=True))
    try:
        results = {w.name: run_workload(w, args) for w in chosen}
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[chosen[0].name]
    else:  # all: metric names are prefixed with their workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": v for name, r in results.items()
                        for metric, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
