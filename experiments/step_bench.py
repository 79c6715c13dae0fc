"""Time and minor page faults per training step, in process, at the c8 config.

    python3 experiments/step_bench.py [--src DIR ...] [--repeat N] [--out FILE]

For every `src/` tree given by --src (default: the one next to this
directory) it trains the acceptance-c8 configuration (32x32 images, 200
source / 100 target images, 15 epochs, lr 0.5, eta 0.01, mu 0.01) in
process, Full (pseudo labels, SRT and ADV on) and BL (`--no-pl --no-srt
--no-adv`), each run in a fresh process with one BLAS thread.  The trees
take turns, and each round's first tree rotates, so that two trees (say
a parent commit and a change) are compared within one harness run.

A step is measured from one entry of `toy_pipeline.batch_forward` to the
next within an epoch, so it covers all of a step's work -- the gather,
the features, the forward, the backward and the update -- whatever
functions a tree splits it into; the last step of each epoch is left
out, as its interval holds the epoch's target pass.  Minor page faults
come from `resource.getrusage` at the same points.  Each child prints
the median milliseconds per step, the mean minor faults per step and
the wall time of `train`; the harness prints the median of each tree and
variant, then one JSON document of all runs, which --out also writes to
a file.  The harness prints how many CPUs it may use: run it under
`taskset -c 0` for a 1-CPU measurement.  Uses the standard library and
numpy only.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.join(os.path.dirname(HERE), "src")
VARIANTS = {"Full": {}, "BL": {"use_pl": False, "use_srt": False, "use_adv": False}}
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child(variant):
    """Train one variant in this process and print its per-step numbers as JSON."""
    from segtransfer import toy_pipeline as tp
    from segtransfer.losses import LossWeights

    data = tp.gen_synthetic(tp.SynthConfig())
    cfg = tp.TrainConfig(epochs=15, learning_rate=0.5, weights=LossWeights(eta=0.01, mu=0.01),
                         **VARIANTS[variant])
    entries = []  # (perf_counter, minor faults) at each step's entry
    step = tp.batch_forward

    def timed(*args, **kwargs):
        entries.append((time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
        return step(*args, **kwargs)

    tp.batch_forward = timed
    start = time.perf_counter()
    tp.train(cfg, data)
    wall = time.perf_counter() - start
    per_epoch = -(-len(data["source"]["images"]) // cfg.batch_size)
    spans = [(t1 - t0, f1 - f0) for i, ((t0, f0), (t1, f1))
             in enumerate(zip(entries, entries[1:])) if (i + 1) % per_epoch]
    print(json.dumps({"steps": len(spans),
                      "ms_per_step": statistics.median(s for s, _ in spans) * 1e3,
                      "faults_per_step": sum(f for _, f in spans) / len(spans),
                      "train_s": wall}))


def run_child(src, variant):
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", variant],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", nargs="+", default=[DEFAULT_SRC],
                        help="src/ trees to run, side by side")
    parser.add_argument("--repeat", type=int, default=3, help="runs of each variant per tree")
    parser.add_argument("--out", default=None, help="also write the JSON document here")
    parser.add_argument("--child", choices=sorted(VARIANTS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    srcs = [os.path.abspath(src) for src in args.src]
    cpus = len(os.sched_getaffinity(0))
    print(f"CPUs this run may use: {cpus}", flush=True)

    rows = []
    for repeat in range(args.repeat):
        turn = repeat % len(srcs)
        for src in srcs[turn:] + srcs[:turn]:
            for variant in VARIANTS:
                row = {"src": src, "variant": variant, "repeat": repeat,
                       **run_child(src, variant)}
                rows.append(row)
                print(f"{variant:4s}  {row['ms_per_step']:7.3f} ms/step  "
                      f"{row['faults_per_step']:7.2f} faults/step  train {row['train_s']:6.3f} s"
                      f"  {src}", flush=True)
    summary = []
    print("medians:")
    for src in srcs:
        for variant in VARIANTS:
            group = [r for r in rows if r["src"] == src and r["variant"] == variant]
            m = {"src": src, "variant": variant, "n": len(group)}
            for key in ("ms_per_step", "faults_per_step", "train_s"):
                m[key] = round(statistics.median(r[key] for r in group), 4)
            summary.append(m)
            print(f"{variant:4s}  {m['ms_per_step']:7.3f} ms/step  "
                  f"{m['faults_per_step']:7.2f} faults/step  train {m['train_s']:6.3f} s"
                  f"  n={m['n']}  {src}")
    doc = {"src": srcs, "cpus": cpus, "repeat": args.repeat, "rows": rows, "medians": summary}
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
