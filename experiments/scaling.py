"""Wall time and peak memory of CLI `train` as the image side grows.

    python3 experiments/scaling.py [--src DIR] [--sides 32 64 ...] [--out FILE]

For each side it runs CLI `gen-synth` once, then CLI `train` twice on
that data: Full (pseudo labels, SRT and ADV on) and BL (`--no-pl
--no-srt --no-adv`).  Every child runs alone, with one BLAS thread, from
the `src/` tree given by --src (default: the one next to this
directory).  For each child it prints the wall time and the child's own
peak RSS (`ru_maxrss` from `wait4`), then one JSON document of all rows,
which --out also writes to a file.  The data is the acceptance-c8
configuration (200 source / 100 target images, lr 0.5, eta 0.01, mu
0.01) at each side, with fewer epochs at the larger sides.  Uses only
the standard library.
"""

import argparse
import json
import os
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=DEFAULT_SRC, help="src/ tree to run")
    parser.add_argument("--sides", type=int, nargs="+", default=sorted(EPOCHS),
                        choices=sorted(EPOCHS))
    parser.add_argument("--out", default=None, help="also write the JSON rows here")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)

    rows = []
    with tempfile.TemporaryDirectory() as work:
        for side in args.sides:
            cfg = os.path.join(work, f"cfg{side}.json")
            with open(cfg, "w") as fh:
                json.dump({**CONFIG, "image_size": side, "epochs": EPOCHS[side]}, fh)
            data = os.path.join(work, f"data{side}")
            calls = [("gen-synth", ["--config", cfg, "gen-synth", data])]
            calls += [(name, ["--config", cfg, "train", data,
                              "--out", os.path.join(work, f"{name}{side}"), *flags])
                      for name, flags in VARIANTS.items()]
            for name, cli_args in calls:
                wall, rss = run_child(cli_args, src, os.path.join(work, "call.log"))
                rows.append({"side": side, "epochs": EPOCHS[side], "call": name,
                             "wall_s": round(wall, 3), "peak_rss_mib": round(rss, 1)})
                print(f"{side:4d}^2  {name:9s}  wall {wall:8.2f} s  "
                      f"peak RSS {rss:8.1f} MiB", flush=True)
    doc = {"src": src, "config": CONFIG, "epochs": EPOCHS, "rows": rows}
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
