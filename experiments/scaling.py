"""Wall time and peak memory of CLI `train` as the image side grows.

    python3 experiments/scaling.py [--src DIR ...] [--repeat N]
                                   [--sides 32 64 ...] [--out FILE]

For each side it runs CLI `gen-synth` once, then CLI `train` on that
data: Full (pseudo labels, SRT and ADV on) and BL (`--no-pl --no-srt
--no-adv`), from every `src/` tree given by --src (default: the one next
to this directory), N times each.  The trees take turns, side by side:
each round runs every tree once, and the round's first tree rotates, so
that two trees (say a parent commit and a change) are compared within
one harness run.  Every child runs alone, with one BLAS thread; CLI
`train` runs SLIC on every CPU it may use, so the harness first prints
that count, which the JSON document holds too (a 1-CPU run is serial),
and the line count of each tree's `segtransfer/*.py` files, as `wc -l`
gives it, which the document holds as `src_lines`.
For each child it prints the wall time and the child's own peak RSS
(`ru_maxrss` from `wait4`, which covers the processes it forked and
reaped); then the median of each side, call and tree; then one JSON
document of all rows and medians, which --out also writes to a file.
The data is the acceptance-c8 configuration (200 source / 100 target
images, lr 0.5, eta 0.01, mu 0.01) at each side, with fewer epochs at
the larger sides; `gen-synth` runs from the first tree.  Uses only the
standard library.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.join(os.path.dirname(HERE), "src")
EPOCHS = {32: 15, 64: 3, 128: 3, 256: 1}  # side -> training epochs
CONFIG = {"source_count": 200, "target_count": 100, "learning_rate": 0.5,
          "eta": 0.01, "mu": 0.01, "seed": 0}
VARIANTS = {"Full": [], "BL": ["--no-pl", "--no-srt", "--no-adv"]}
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(args, src, log):
    """(wall s, peak RSS MiB) of one CLI call, its output going to the file
    log; raises if the call fails."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": src}
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "segtransfer.cli", "--quiet", *args],
                                env=env, stdout=fh, stderr=subprocess.STDOUT)
        # wait4 gives the peak RSS of this child alone
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        with open(log) as fh:
            raise RuntimeError(f"{' '.join(args)} failed: {fh.read().strip()[-500:]}")
    return wall, usage.ru_maxrss / 1024.0


def src_lines(src):
    """Newlines in the tree's segtransfer/*.py files: the count `wc -l` gives."""
    pkg = os.path.join(src, "segtransfer")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += fh.read().count("\n")
    return total


def medians(rows):
    """The median wall time and peak RSS of each (side, call, tree)."""
    groups = {}
    for row in rows:
        groups.setdefault((row["side"], row["call"], row["src"]), []).append(row)
    return [{"side": side, "call": call, "src": src, "n": len(group),
             "wall_s": round(statistics.median(r["wall_s"] for r in group), 3),
             "peak_rss_mib": round(statistics.median(r["peak_rss_mib"] for r in group), 1)}
            for (side, call, src), group in groups.items()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", nargs="+", default=[DEFAULT_SRC],
                        help="src/ trees to run, side by side")
    parser.add_argument("--repeat", type=int, default=1, help="runs of each call per tree")
    parser.add_argument("--sides", type=int, nargs="+", default=sorted(EPOCHS),
                        choices=sorted(EPOCHS))
    parser.add_argument("--out", default=None, help="also write the JSON rows here")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    srcs = [os.path.abspath(src) for src in args.src]
    cpus = len(os.sched_getaffinity(0))
    print(f"CPUs this run may use: {cpus}", flush=True)
    lines = {src: src_lines(src) for src in srcs}
    for src, n in lines.items():
        print(f"{n} lines in {src}/segtransfer/*.py", flush=True)

    rows = []
    with tempfile.TemporaryDirectory() as work:
        log = os.path.join(work, "call.log")

        def record(side, name, src, cli_args, repeat):
            wall, rss = run_child(cli_args, src, log)
            rows.append({"side": side, "epochs": EPOCHS[side], "call": name, "src": src,
                         "repeat": repeat, "wall_s": round(wall, 3),
                         "peak_rss_mib": round(rss, 1)})
            print(f"{side:4d}^2  {name:9s}  wall {wall:8.2f} s  peak RSS {rss:8.1f} MiB"
                  f"  {src}", flush=True)

        for side in args.sides:
            cfg = os.path.join(work, f"cfg{side}.json")
            with open(cfg, "w") as fh:
                json.dump({**CONFIG, "image_size": side, "epochs": EPOCHS[side]}, fh)
            data = os.path.join(work, f"data{side}")
            record(side, "gen-synth", srcs[0], ["--config", cfg, "gen-synth", data], 0)
            for repeat in range(args.repeat):
                turn = repeat % len(srcs)
                for src in srcs[turn:] + srcs[:turn]:
                    for name, flags in VARIANTS.items():
                        out = os.path.join(work, "run")
                        record(side, name, src, ["--config", cfg, "train", data,
                                                 "--out", out, *flags], repeat)
                        shutil.rmtree(out)
    summary = medians(rows)
    print("medians:")
    for m in summary:
        print(f"{m['side']:4d}^2  {m['call']:9s}  wall {m['wall_s']:8.2f} s  "
              f"peak RSS {m['peak_rss_mib']:8.1f} MiB  n={m['n']}  {m['src']}")
    doc = {"src": srcs, "src_lines": lines, "cpus": cpus, "repeat": args.repeat, "config": CONFIG,
           "epochs": EPOCHS, "rows": rows, "medians": summary}
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
