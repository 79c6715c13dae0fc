"""Command-line surface and batch workflows.

Subcommands: gen-synth, thresholds, slic, pseudolabel, train, eval,
gradcheck.  Configuration is a flat JSON document whose keys and
defaults come from the config dataclasses; a CLI flag named after a key
overrides it, and the effective config is echoed into every output
directory.  Exit codes: 0 success, 2 validation error, 3 I/O error,
4 numeric failure.
"""

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

from . import tensorio
from .core import IGNORE, cast_json_value, validate_prob_map
from .errors import (
    InvalidConfigError,
    MissingFilesError,
    NumericCheckError,
    TooManySegmentsError,
    ValidationError,
)
from .metrics import ConfusionMatrix, accumulate, summary
from .pseudo_label import assign_initial, generate
from .superpixel import SlicParams, slic
from .thresholds import ClassThresholds, CurriculumSchedule, determine_lambdas
from .toy_pipeline import SynthConfig, TrainConfig, gen_synthetic, gradcheck, stack_dataset, train

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

MAX_SEGMENT_ID = 65534  # 65535 is the mask IGNORE sentinel

# a dataset directory: domain -> (image directory, mask directory, the masks'
# key in gen_synthetic's dict); <domain>/labels.json lists files and image labels
DATASET_LAYOUT = {
    "source": ("source/images", "source/masks", "masks"),
    "target": ("target/images", "target_eval/masks", "eval_masks"),
}

# the flat keys that differ from their dataclass field names
_RENAMES = {(CurriculumSchedule, "step"): "p_step", (SlicParams, "iterations"): "slic_iterations"}


def _flat_fields(cls):
    """(flat key, field) of every leaf field of cls, nested ones included."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from _flat_fields(f.type)
        else:
            yield _RENAMES.get((cls, f.name), f.name), f


# every default is written once, in its dataclass
CONFIG_DEFAULTS = {key: f.default for cls in (SynthConfig, TrainConfig)
                   for key, f in _flat_fields(cls)}


def _read_json(path, what):
    """The JSON document at path; a file that is not JSON is a validation error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
            raise InvalidConfigError(f"{what} is not valid JSON: {e}")


def _build(cls, cfg: dict):
    """cls built from the flat config, nested dataclasses included."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            kwargs[f.name] = _build(f.type, cfg)
        else:
            key = _RENAMES.get((cls, f.name), f.name)
            kwargs[f.name] = cast_json_value(key, f.type, cfg[key])
    return cls(**kwargs)


def load_config(path=None, overrides=None) -> dict:
    """Defaults, then the file's keys, then every override that names a
    config key and is not None (argparse leaves unset flags at None)."""
    cfg = dict(CONFIG_DEFAULTS)
    if path is not None:
        doc = _read_json(path, "config")
        if not isinstance(doc, dict):
            raise InvalidConfigError("config must be a flat JSON object")
        unknown = sorted(set(doc) - set(CONFIG_DEFAULTS))
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(doc)
    cfg.update((key, value) for key, value in (overrides or {}).items()
               if key in CONFIG_DEFAULTS and value is not None)
    # the dataclass constructors own the invariants; TrainConfig builds SlicParams too
    _build(SynthConfig, cfg)
    _build(TrainConfig, cfg)
    return cfg


def _say(args, msg):
    if not args.quiet:
        print(msg)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synth(args) -> int:
    cfg = load_config(args.config, vars(args))
    scfg = _build(SynthConfig, cfg)
    data = gen_synthetic(scfg)

    out = args.out
    for domain, (image_dir, mask_dir, mask_key) in DATASET_LAYOUT.items():
        part = data[domain]
        names = [f"im_{i:04d}" for i in range(len(part["images"]))]
        for sub, arrays, dtype in ((image_dir, part["images"], tensorio.DTYPE_U8),
                                   (mask_dir, part[mask_key], tensorio.DTYPE_U16)):
            os.makedirs(os.path.join(out, sub), exist_ok=True)
            for name, arr in zip(names, arrays):
                tensorio.write_tensor(os.path.join(out, sub, name + ".tnsr"), arr, dtype)
        tensorio.atomic_write_json(os.path.join(out, domain, "labels.json"),
                                   {"files": names, "image_labels": part["image_labels"]})
    tensorio.atomic_write_json(os.path.join(out, "config.json"), cfg)
    tensorio.atomic_write_json(os.path.join(out, "summary.json"), {
        "source_count": scfg.source_count,
        "target_count": scfg.target_count,
        "image_size": scfg.image_size,
        "num_classes": scfg.num_classes,
        "source_lesion_images": int(sum(data["source"]["image_labels"])),
        "target_lesion_images": int(sum(data["target"]["image_labels"])),
    })
    _say(args, f"wrote {scfg.source_count} source and {scfg.target_count} target "
               f"images ({scfg.image_size}x{scfg.image_size}) to {out}")
    return EXIT_OK


def _load_prob_dir(prob_dir):
    files = sorted(f for f in os.listdir(prob_dir) if f.endswith(".tnsr"))
    if not files:
        raise MissingFilesError(f"no .tnsr files in {prob_dir}")
    maps = []
    for f in files:
        arr = tensorio.read_tensor(os.path.join(prob_dir, f)).astype(np.float64)
        validate_prob_map(arr)
        maps.append(arr)
    return files, maps


def cmd_thresholds(args) -> int:
    if not (0.0 < args.p <= 1.0):
        raise InvalidConfigError(f"portion p must be in (0, 1], got {args.p}")
    _, maps = _load_prob_dir(args.prob_dir)
    thr = determine_lambdas(maps, args.p)
    tensorio.atomic_write_json(args.out, thr.to_json_dict())

    counts = np.zeros(thr.num_classes, dtype=np.int64)
    total = 0
    for m in maps:
        mask = assign_initial(m, thr)
        total += mask.size
        counts += np.bincount(mask[mask != IGNORE], minlength=thr.num_classes)
    _say(args, f"wrote thresholds for K={thr.num_classes} to {args.out}")
    for k in range(thr.num_classes):
        _say(args, f"  class {k}: threshold {thr.thresholds[k]:.6f}, "
                   f"selected {counts[k] / total:.4f} of all pixels")
    return EXIT_OK


def cmd_slic(args) -> int:
    cfg = load_config(args.config, vars(args))
    img = tensorio.read_tensor(args.image)
    labels = slic(img, _build(SlicParams, cfg))
    n_final = int(labels.max()) + 1
    if n_final > MAX_SEGMENT_ID:
        raise TooManySegmentsError(f"{n_final} segments exceed the 16-bit map format")
    tensorio.write_tensor(args.out, labels.astype(np.uint16), tensorio.DTYPE_U16)
    _say(args, f"wrote superpixel map with {n_final} segments to {args.out}")
    return EXIT_OK


def cmd_pseudolabel(args) -> int:
    cfg = load_config(args.config, vars(args))
    probs = tensorio.read_tensor(args.probs).astype(np.float64)
    validate_prob_map(probs)
    thr = ClassThresholds.from_json_dict(_read_json(args.thresholds, "thresholds file"))
    img = tensorio.read_tensor(args.image)
    sp = slic(img, _build(SlicParams, cfg))
    mask = generate(probs, thr, sp)
    tensorio.write_tensor(args.out, mask, tensorio.DTYPE_U16)

    total = mask.size
    fractions = [(k, float((mask == k).sum()) / total) for k in range(thr.num_classes)]
    selected = float((mask != IGNORE).sum()) / total
    _say(args, f"wrote pseudo labels to {args.out}; selected {selected:.4f} of pixels")
    for k, frac in fractions:
        _say(args, f"  class {k}: {frac:.4f}")
    return EXIT_OK


def _read_mask(path):
    """A label mask from a TNSR file: only integer codes (u8 or u16) are
    labels; a float mask would be truncated, and its NaN would crash."""
    mask = tensorio.read_tensor(path)
    if mask.dtype.kind != "u":
        raise ValidationError(f"{path}: a label mask must be u8 or u16, not {mask.dtype}")
    return mask


def _load_dataset(data_dir):
    """The dataset as stack_dataset returns it, and the target file names."""
    docs = {}
    for domain in DATASET_LAYOUT:
        doc = _read_json(os.path.join(data_dir, domain, "labels.json"), f"{domain}/labels.json")
        if not (isinstance(doc, dict)
                and all(isinstance(doc.get(key), list) for key in ("files", "image_labels"))):
            raise ValidationError(
                f"{domain}/labels.json must be an object whose files and image_labels are lists")
        docs[domain] = doc
        for name in doc["files"]:
            # names are joined into paths: keep them inside the dataset
            if (not isinstance(name, str) or name in ("", ".", "..")
                    or any(sep in name for sep in ("/", "\\", os.sep))):
                raise ValidationError(f"{domain}/labels.json: {name!r} is not a plain file name")
    data = {}
    for domain, (image_dir, mask_dir, mask_key) in DATASET_LAYOUT.items():
        data[domain] = {"images": [], mask_key: [], "image_labels": docs[domain]["image_labels"]}
        for name in docs[domain]["files"]:
            for key, sub, read in (("images", image_dir, tensorio.read_tensor),
                                   (mask_key, mask_dir, _read_mask)):
                data[domain][key].append(read(os.path.join(data_dir, sub, name + ".tnsr")))
    # K is taken from the source masks, and is at least 2
    data["num_classes"] = 1 + max([1, *(int(m[m != IGNORE].max(initial=0))
                                        for m in data["source"]["masks"])])
    return stack_dataset(data), docs["target"]["files"]


def cmd_train(args) -> int:
    cfg = load_config(args.config, vars(args))
    tcfg = _build(TrainConfig, cfg)
    data, tgt_names = _load_dataset(args.data_dir)
    result = train(tcfg, data)

    # the run directory is made only once train has accepted the dataset
    out = args.out
    os.makedirs(os.path.join(out, "models"), exist_ok=True)
    os.makedirs(os.path.join(out, "pseudo_labels"), exist_ok=True)
    tensorio.atomic_write_json(os.path.join(out, "config.json"), cfg)

    log_lines = [json.dumps(rec, sort_keys=True) for rec in result.log]
    tensorio.atomic_write_bytes(os.path.join(out, "log.jsonl"),
                                ("".join(line + "\n" for line in log_lines)).encode())

    columns = ["epoch", "p", "pl_fraction", "lr", "L_C", "L_S", "L_D", "L_SRT",
               "L_disc", "total", "miou", "iou_n", "iou_d"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in result.log:
        writer.writerow([rec.get(c, "") for c in columns])
    tensorio.atomic_write_bytes(os.path.join(out, "log.csv"), buf.getvalue().encode())

    for name, weights in result.models._asdict().items():
        tensorio.write_tensor(os.path.join(out, "models", name + ".tnsr"),
                              weights.astype(np.float32), tensorio.DTYPE_F32)
    for bank, tag in ((result.bank_s, "source"), (result.bank_t, "target")):
        tensorio.write_tensor(os.path.join(out, "models", f"centroids_{tag}.tnsr"),
                              bank.centroids.astype(np.float32), tensorio.DTYPE_F32)
        tensorio.atomic_write_json(os.path.join(out, "models", f"centroids_{tag}.json"),
                                   {"gamma": bank.gamma, "steps": bank.steps})
    for name, mask in zip(tgt_names, result.pseudo_masks):
        tensorio.write_tensor(os.path.join(out, "pseudo_labels", name + ".tnsr"),
                              mask, tensorio.DTYPE_U16)

    if result.log:
        miou = result.log[-1]["miou"]
        shown = f"{miou:.4f}" if miou is not None else "undefined"
        _say(args, f"trained {tcfg.epochs} epochs; final target miou {shown}")
    else:
        _say(args, "trained 0 epochs; nothing to log")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred_files = sorted(f for f in os.listdir(args.pred_dir) if f.endswith(".tnsr"))
    gt_files = sorted(f for f in os.listdir(args.gt_dir) if f.endswith(".tnsr"))
    if not pred_files or not gt_files:
        raise MissingFilesError("empty prediction or ground-truth directory")
    if pred_files != gt_files:
        raise MissingFilesError("prediction and ground-truth file sets differ")

    preds, gts = [], []
    num_classes = 2
    for f in pred_files:
        pred = _read_mask(os.path.join(args.pred_dir, f))
        gt = _read_mask(os.path.join(args.gt_dir, f))
        preds.append(pred)
        gts.append(gt)
        hi = max(int(pred[pred != IGNORE].max(initial=0)),
                 int(gt[gt != IGNORE].max(initial=0)))
        num_classes = max(num_classes, hi + 1)
    cm = ConfusionMatrix(num_classes)
    for pred, gt in zip(preds, gts):
        accumulate(cm, pred, gt)
    doc = summary(cm)
    out = json.dumps(doc, sort_keys=True)
    if args.out:
        tensorio.atomic_write_bytes(args.out, (out + "\n").encode())
    print(out)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report = gradcheck() if args.seed is None else gradcheck(args.seed)
    for block in ("classifier", "segmenter", "discriminator"):
        _say(args, f"{block}: max relative error {report[block]:.3e}")
    if report["max"] >= 1e-4:
        raise NumericCheckError(f"gradient check failed: max relative error {report['max']:.3e}")
    _say(args, "gradient check passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segtransfer",
        description="Self-training semantic transfer toolkit")
    parser.add_argument("--config", default=None, help="flat JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a two-domain synthetic dataset")
    p.add_argument("out")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("thresholds", help="determine class-balance thresholds")
    p.add_argument("prob_dir")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("slic", help="superpixel segmentation of one image")
    p.add_argument("image")
    p.add_argument("--out", required=True)
    p.add_argument("--n-segments", type=int, default=None, dest="n_segments")
    p.add_argument("--compactness", type=float, default=None)
    p.set_defaults(func=cmd_slic)

    p = sub.add_parser("pseudolabel", help="generate a pseudo-label mask")
    p.add_argument("probs")
    p.add_argument("thresholds")
    p.add_argument("image")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pseudolabel)

    p = sub.add_parser("train", help="run the toy training pipeline")
    p.add_argument("data_dir")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None, dest="learning_rate")
    for name in ("pl", "srt", "adv"):
        p.add_argument(f"--no-{name}", action="store_const", const=False, dest=f"use_{name}")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="IoU metrics from prediction and gt masks")
    p.add_argument("pred_dir")
    p.add_argument("gt_dir")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify analytic gradients")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericCheckError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
