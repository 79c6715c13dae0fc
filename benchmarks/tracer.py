"""Span tracing of one CLI call, from outside the program.

Run as

    python3 benchmarks/tracer.py SPANS.json RUN_ID SPAWNED -- <segtransfer CLI args>

with the program's `src/` on PYTHONPATH.  SPAWNED is the caller's
time.perf_counter() just before it started this process (one
system-wide monotonic clock on Linux), so the root span `cli.run` covers
interpreter start-up too.  The tracer imports `segtransfer.cli`, replaces the public functions that
each layer's callers reach through module globals with timing wrappers,
runs `cli.main`, and writes every span and count to SPANS.json.  The
program itself is not modified.

A span is (name, start, end, parent, run id); the part of a span not
covered by its children is its self time.  Bookkeeping that a wrapper
does after the wrapped call (counting segments, pixels or bytes) runs
inside a `trace.bookkeeping` span, so it is charged to no layer.
`aggregate` turns the spans of one workload iteration into the per-layer
metrics listed in LAYER_METRICS.
"""

import functools
import json
import sys
import time

import numpy as np

IGNORE = 65535
BOOKKEEPING = "trace.bookkeeping"
STEP_SPANS = ("toy_pipeline.batch_forward", "toy_pipeline.backward_all")


class Recorder:
    """Spans and counts of one process, kept in memory until `dump`."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}

    def open(self, name, start=None):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter() if start is None else start, None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, names):
        return any(self.spans[i][0] in names for i in self.stack)

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def dump(self, path):
        # json.dumps runs the C encoder; json.dump would encode in Python
        doc = json.dumps({"run_id": self.run_id, "spans": self.spans, "counts": self.counts})
        with open(path, "w") as fh:
            fh.write(doc)


def count_components(labels):
    """Number of 4-connected equal-label regions, by numpy union-find.

    Independent of the program's own connectivity code, so the count
    keeps its meaning when that code is replaced.
    """
    labels = np.asarray(labels)
    h, w = labels.shape
    idx = np.arange(h * w).reshape(h, w)
    right = labels[:, :-1] == labels[:, 1:]
    down = labels[:-1, :] == labels[1:, :]
    a = np.concatenate([idx[:, :-1][right], idx[:-1, :][down]])
    b = np.concatenate([idx[:, 1:][right], idx[1:, :][down]])
    parent = np.arange(h * w)
    while True:
        ra, rb = parent[a], parent[b]
        differ = ra != rb
        if not differ.any():
            break
        # hook the larger root under the smallest root it touches; parents
        # only decrease, so no cycle can form
        np.minimum.at(parent, np.maximum(ra, rb)[differ], np.minimum(ra, rb)[differ])
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return int((parent == np.arange(h * w)).sum())


# ---------------------------------------------------------------------------
# bookkeeping after wrapped calls


def _after_connectivity(rec, args, kwargs, out):
    rec.add("superpixel.connectivity.input_segments", count_components(args[0]))
    rec.add("superpixel.connectivity.output_segments", int(np.asarray(out).max()) + 1)


def _after_assign(rec, args, kwargs, out):
    if not rec.inside(("pseudo_label.generate",)):
        return  # cmd_thresholds also calls it, for its printed summary
    out = np.asarray(out)
    rec.add("pseudo_label.pixels", out.size)
    rec.add("pseudo_label.admitted", (out != IGNORE).sum())


def _after_refine(rec, args, kwargs, out):
    before = np.asarray(args[0]) == IGNORE
    rec.add("pseudo_label.unlabelled_before_fill", before.sum())
    rec.add("pseudo_label.filled", (before & (np.asarray(out) != IGNORE)).sum())


def _after_read(rec, args, kwargs, out):
    rec.add("tensorio.read.bytes", 7 + 4 * out.ndim + out.nbytes)


# ---------------------------------------------------------------------------
# wrappers


def _span_wrapper(rec, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            b = rec.open(BOOKKEEPING)
            after(rec, args, kwargs, out)
            rec.close(b)
        return out
    return wrapper


def _count_wrapper(rec, key, fn, after=None):
    """No span: the call's time stays with its caller's span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if key is not None:
            rec.add(key, 1)
        out = fn(*args, **kwargs)
        if after is not None:
            b = rec.open(BOOKKEEPING)
            after(rec, args, kwargs, out)
            rec.close(b)
        return out
    return wrapper


def _segmenter_forward_wrapper(rec, fn):
    """Inside a training step the forward is part of the step; outside it
    is the target forward that feeds pseudo labels and evaluation."""
    target = _span_wrapper(rec, "toy_pipeline.target_forward", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.add("toy_pipeline.segmenter_forward.calls", 1)
        if rec.inside(STEP_SPANS):
            return fn(*args, **kwargs)
        return target(*args, **kwargs)
    return wrapper


def _write_bytes_wrapper(rec, fn):
    """Every file the program writes passes through atomic_write_bytes;
    a write_tensor span already open owns the bytes it writes."""
    own = _span_wrapper(rec, "tensorio.write", fn)

    @functools.wraps(fn)
    def wrapper(path, data):
        rec.add("tensorio.write.bytes", len(data))
        if rec.innermost() == "tensorio.write":
            return fn(path, data)
        return own(path, data)
    return wrapper


def _wrappers(rec):
    """(module, attribute) -> factory making the wrapper of that function."""
    def span(name, after=None):
        return lambda fn: _span_wrapper(rec, name, fn, after)

    def count(key, after=None):
        return lambda fn: _count_wrapper(rec, key, fn, after)

    def inspect(after):
        return count(None, after)

    return {
        ("superpixel", "slic"): span("superpixel.slic"),
        ("superpixel", "enforce_connectivity"):
            span("superpixel.connectivity", _after_connectivity),
        ("thresholds", "determine_lambdas"): span("thresholds.determine_lambdas"),
        ("pseudo_label", "generate"): span("pseudo_label.generate"),
        ("pseudo_label", "assign_initial"): inspect(_after_assign),
        ("pseudo_label", "refine_with_superpixels"): inspect(_after_refine),
        ("toy_pipeline", "train"): span("toy_pipeline.train"),
        ("toy_pipeline", "pixel_features"): span("toy_pipeline.pixel_features"),
        ("toy_pipeline", "batch_forward"): span("toy_pipeline.batch_forward"),
        ("toy_pipeline", "backward_all"): span("toy_pipeline.backward_all"),
        ("toy_pipeline", "segmenter_forward"):
            lambda fn: _segmenter_forward_wrapper(rec, fn),
        ("toy_pipeline", "prob_map_stats"): count("toy_pipeline.prob_map_stats.calls"),
        ("transfer", "batch_centroids"): span("transfer.batch_centroids"),
        ("transfer", "update_bank"): span("transfer.update_bank"),
        ("transfer", "srt_loss"): span("transfer.srt_loss"),
        ("losses", "classification_loss"): span("losses.classification_loss"),
        ("losses", "segmentation_loss"): span("losses.segmentation_loss"),
        ("losses", "discriminator_loss"): span("losses.discriminator_loss"),
        ("losses", "adversarial_loss_for_segmenter"): span("losses.adversarial_loss"),
        ("losses", "total_loss"): span("losses.total_loss"),
        ("metrics", "accumulate"): span("metrics.accumulate"),
        ("metrics", "summary"): span("metrics.summary"),
        ("tensorio", "read_tensor"): span("tensorio.read", _after_read),
        ("tensorio", "write_tensor"): span("tensorio.write"),
        ("tensorio", "atomic_write_bytes"): lambda fn: _write_bytes_wrapper(rec, fn),
    }


def install(rec):
    """Wrap each listed function wherever a segtransfer module holds it.

    A function that a later version of the program no longer has is
    skipped; its metrics then read 0.
    """
    modules = [m for n, m in sys.modules.items()
               if (n == "segtransfer" or n.startswith("segtransfer.")) and m is not None]
    for (mod_name, attr), factory in _wrappers(rec).items():
        fn = getattr(sys.modules.get("segtransfer." + mod_name), attr, None)
        if fn is None:
            continue
        wrapper = factory(fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("superpixel", "thresholds", "pseudo_label", "toy_pipeline", "transfer",
          "losses", "metrics", "tensorio", "cli")



def _layer_metrics():
    """name -> (unit, better); every name is printed for every workload."""
    fields = (
        ("superpixel.slic", ("calls", "self_s", "p50_ms", "p90_ms")),
        ("superpixel.connectivity", ("calls", "self_s", "p50_ms",
                                     "input_segments", "output_segments")),
        ("thresholds.determine_lambdas", ("calls", "self_s")),
        ("pseudo_label.generate", ("calls", "self_s", "p50_ms")),
        ("toy_pipeline.batch_forward", ("calls", "self_s", "p50_ms", "p90_ms")),
        ("toy_pipeline.backward_all", ("calls", "self_s", "p50_ms", "p90_ms")),
        ("toy_pipeline.target_forward", ("self_s",)),
        ("toy_pipeline.pixel_features", ("self_s",)),
        ("toy_pipeline.train", ("self_s",)),
        ("toy_pipeline.segmenter_forward", ("calls",)),
        ("toy_pipeline.prob_map_stats", ("calls",)),
        ("transfer.batch_centroids", ("calls", "self_s")),
        ("transfer", ("self_s",)),
        ("losses", ("self_s",)),
        ("metrics.accumulate", ("calls", "self_s")),
        ("tensorio.read", ("calls", "bytes", "self_s")),
        ("tensorio.write", ("calls", "bytes", "self_s")),
        ("cli", ("self_s",)))
    units = {"self_s": "s", "p50_ms": "ms", "p90_ms": "ms"}
    out = {f"{span}.{f}": (units.get(f, "count"), "lower") for span, fs in fields for f in fs}
    out["superpixel.connectivity.output_segments"] = ("count", "higher")
    out["pseudo_label.admitted_frac"] = ("frac", "higher")
    out["pseudo_label.fill_frac"] = ("frac", "higher")
    out["trace.coverage"] = ("frac", "higher")
    out["trace.overhead_frac"] = ("frac", "lower")
    return out


LAYER_METRICS = _layer_metrics()


def _self_times(doc):
    """[(span name, self seconds)] of one process's spans."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[0], s[2] - s[1] - c) for s, c in zip(spans, child)]


def aggregate(docs, wall_s, untraced_wall_s):
    """Per-layer metrics of one traced iteration.

    docs are the SPANS.json documents of the iteration's CLI calls;
    wall_s is the iteration's traced wall time as seen by the caller and
    untraced_wall_s the same iteration run without tracing.
    """
    selfs, counts = {}, {}
    for doc in docs:
        for name, s in _self_times(doc):
            selfs.setdefault(name, []).append(s)
        for key, n in doc["counts"].items():
            counts[key] = counts.get(key, 0) + n

    def by_prefix(prefix):
        return [s for name, vals in selfs.items()
                if name == prefix or name.startswith(prefix + ".") for s in vals]

    out = {}
    for metric in LAYER_METRICS:
        head, _, field = metric.rpartition(".")
        vals = by_prefix(head)
        if field == "calls":
            # count-only wrappers keep their own counter; spans count themselves
            out[metric] = counts.get(metric, len(vals))
        elif field == "self_s":
            out[metric] = float(sum(vals))
        elif field in ("p50_ms", "p90_ms"):
            q = 50 if field == "p50_ms" else 90
            out[metric] = float(np.percentile(vals, q)) * 1e3 if vals else 0.0
        else:
            out[metric] = counts.get(metric, 0)
    pixels = counts.get("pseudo_label.pixels", 0)
    unlabelled = counts.get("pseudo_label.unlabelled_before_fill", 0)
    out["pseudo_label.admitted_frac"] = counts.get("pseudo_label.admitted", 0) / pixels if pixels else 0.0
    out["pseudo_label.fill_frac"] = counts.get("pseudo_label.filled", 0) / unlabelled if unlabelled else 0.0
    layer_self = sum(s for layer in LAYERS for s in by_prefix(layer))
    out["trace.coverage"] = layer_self / wall_s
    out["trace.overhead_frac"] = wall_s / untraced_wall_s - 1.0
    return out


def main(argv):
    spans_path, run_id, spawned, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json RUN_ID SPAWNED -- <cli args>")
    rec = Recorder(run_id)
    root = rec.open("cli.run", float(spawned))
    from segtransfer import cli
    install(rec)
    try:
        code = cli.main(cli_args)
    finally:
        rec.close(root)
        rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
