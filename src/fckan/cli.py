"""Command-line entry point.

Subcommands: train (runs an experiment and writes a JSON record), bench
(function microbenchmark, CSV output), params (parameter audit against an
expected count), report (Markdown table over experiment records) and
fetch-data (downloads the IDX files; the only part of the package that
touches the network).

Exit codes: 0 success, 1 runtime/data error, 2 usage error.
"""

import argparse
import dataclasses
import errno
import glob
import math
import os
import sys
import time
import urllib.request

from . import __version__
from .basis import count
from .bench import bench_suite, format_table, machine_meta, write_csv
from .data import DATASET_NAMES, SPLIT_FILES, load_dataset
from .models import (
    COMBINE_OPS,
    ConfigError,
    ModelConfig,
    MODEL_KINDS,
    MODELS,
    param_shapes,
)
from .report import ReportError, load_record, make_record, render_report, write_record
from .training import TrainConfig, TrainingDiverged, run_experiment

DATA_URLS = {
    "mnist": "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "fashion-mnist": "http://fashion-mnist.s3-website.eu-central-1.amazonaws.com/",
}

DATA_FILES = tuple(stem + ".gz" for pair in SPLIT_FILES.values() for stem in pair)


def _parse_ints(text: str) -> tuple:
    """argparse type of --widths and --seeds: comma-separated integers."""
    try:
        values = tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expects at least one integer")
    return values


def _percent(text: str) -> float:
    """argparse type of --tolerance: a finite percentage >= 0, '%' optional."""
    try:
        value = float(text.rstrip("%"))
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expects a finite percentage >= 0, got {text!r}")
    return value


def _model_config(args, parser) -> ModelConfig:
    """The ModelConfig the model flags describe; the config checks the values."""
    functions = tuple(f.strip() for f in (args.functions or "").split(",") if f.strip())
    if args.combine is not None and len(functions) < 2:
        parser.error("--combine needs at least 2 functions")
    given = {k: v for k in ("grid_size", "spline_order")
             if (v := getattr(args, k)) is not None}
    base = MODELS[args.model].spline
    if given and base is None:
        parser.error("--grid-size/--spline-order only apply to spline models")
    try:
        spline = dataclasses.replace(base, **given) if given else None
        return ModelConfig(kind=args.model, widths=args.widths, functions=functions,
                           combine=args.combine or "sum", spline=spline)
    except TypeError:  # from replace: a flag the model's grid type has no field for
        fields = {f.name for f in dataclasses.fields(base)}
        bad = ", ".join("--" + k.replace("_", "-") for k in given if k not in fields)
        parser.error(f"{args.model}'s {type(base).__name__} takes no {bad}")


def cmd_train(args, parser) -> int:
    model_cfg = _model_config(args, parser)
    train_cfg = TrainConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(TrainConfig) if hasattr(args, f.name)})
    t0 = time.perf_counter()
    splits = load_dataset(train_cfg.dataset, args.data_dir)
    load_seconds = time.perf_counter() - t0
    log = None if args.quiet else print
    started = time.time()
    runs = run_experiment(model_cfg, train_cfg, splits=splits, log=log)
    record = make_record(model_cfg, train_cfg, runs, started, time.time(), load_seconds)
    write_record(record, args.out)
    agg = record["aggregate"]
    va, f1 = agg["val_acc"], agg["f1"]
    print(
        f"{train_cfg.dataset}: val acc {va['mean']:.2f} ± {va['std']:.2f}, "
        f"F1 {f1['mean']:.2f} ± {f1['std']:.2f} over {agg['runs']} runs "
        f"({agg['wall_seconds_mean']:.1f} s/run) -> {args.out}"
    )
    return 0


def cmd_bench(args, parser) -> int:
    results = bench_suite(n=args.n, repeats=args.repeats)
    meta = machine_meta()
    print(f"n={args.n} repeats={args.repeats}")
    print(f"machine: {meta['platform']} ({meta['cpus']} cpus)")
    print(format_table(results))
    if args.out:
        write_csv(results, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_params(args, parser) -> int:
    model_cfg = _model_config(args, parser)
    layers = [0] * (len(model_cfg.widths) - 1)
    for i, _, (rows, cols), _ in param_shapes(model_cfg):  # counted with no model built
        layers[i] += rows * cols
    total = sum(layers)
    for i, size in enumerate(layers):
        print(f"{f'layer {i}':<10} {size:>10}")
    print(f"{'total':<10} {total:>10}")
    if args.expect is not None:
        tolerance = count("expect", args.expect, 0) * args.tolerance / 100.0
        if abs(total - args.expect) > tolerance:
            print(f"error: expected {args.expect} ± {args.tolerance}% but counted {total} "
                  f"(off by {total - args.expect})", file=sys.stderr)
            return 1
        print(f"matches {args.expect} within {args.tolerance}% (off by {total - args.expect})")
    return 0


def cmd_report(args, parser) -> int:
    paths = []
    for pattern in args.inputs:
        paths.extend(sorted(glob.glob(pattern)))
    if not paths:
        raise ReportError(f"no experiment records match {args.inputs}")
    records = [load_record(p) for p in paths]
    table = render_report(records)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table + "\n")
        print(f"wrote {args.out}")
    else:
        print(table)
    return 0


def cmd_fetch_data(args, parser) -> int:
    datasets = DATASET_NAMES if args.dataset == "all" else (args.dataset,)
    rc = 0
    for ds in datasets:
        target = os.path.join(args.data_dir, ds)
        for fname in DATA_FILES:
            url = DATA_URLS[ds] + fname
            dest = os.path.join(target, fname)
            if args.print_urls:
                print(f"{url} -> {dest}")
                continue
            if os.path.exists(dest):
                print(f"have {dest}")
                continue
            os.makedirs(target, exist_ok=True)
            print(f"fetching {url}")
            try:
                urllib.request.urlretrieve(url, dest)
            except Exception as e:  # noqa: BLE001 - report and keep going
                print(f"error: download failed: {e}; any mirror of the standard IDX files "
                      f"works, placed under {target}", file=sys.stderr)
                rc = 1
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fckan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fckan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    data_dir = os.environ.get("FCKAN_DATA_DIR", "data")

    def add_model_flags(p):
        p.add_argument("--model", required=True, choices=MODEL_KINDS)
        p.add_argument("--functions", help="comma list for fc-kan, e.g. sin,cos")
        p.add_argument("--combine", choices=tuple(COMBINE_OPS))
        p.add_argument("--widths", type=_parse_ints, default=ModelConfig.widths)
        p.add_argument("--grid-size", type=int)
        p.add_argument("--spline-order", type=int)

    t = sub.add_parser("train", help="train a model and write an experiment record")
    t.set_defaults(run=cmd_train, parser=t)
    add_model_flags(t)
    t.add_argument("--dataset", choices=DATASET_NAMES, default=TrainConfig.dataset)
    t.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                   help="default 25 on mnist, 35 on fashion-mnist")
    t.add_argument("--batch", dest="batch_size", metavar="BATCH", type=int,
                   default=TrainConfig.batch_size)
    t.add_argument("--lr", dest="lr0", metavar="LR", type=float, default=TrainConfig.lr0)
    t.add_argument("--gamma", type=float, default=TrainConfig.gamma)
    t.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    t.add_argument("--seeds", type=_parse_ints, default=TrainConfig.seeds, help="one run each")
    t.add_argument("--data-dir", default=data_dir)
    t.add_argument("--out", default="experiment.json")
    t.add_argument("--quiet", action="store_true")

    b = sub.add_parser("bench", help="basis-function throughput microbenchmark")
    b.set_defaults(run=cmd_bench, parser=b)
    b.add_argument("--n", type=int, default=1_000_000)
    b.add_argument("--repeats", type=int, default=10)
    b.add_argument("--out", default=None, help="CSV path")

    p = sub.add_parser("params", help="audit parameter counts")
    p.set_defaults(run=cmd_params, parser=p)
    add_model_flags(p)
    p.add_argument("--expect", type=int, default=None)
    p.add_argument("--tolerance", type=_percent, default=0.05, help="percent, default 0.05")

    r = sub.add_parser("report", help="render a Markdown table from records")
    r.set_defaults(run=cmd_report, parser=r)
    r.add_argument("--inputs", nargs="+", required=True, help="glob(s) of record JSONs")
    r.add_argument("--out", default=None)

    f = sub.add_parser("fetch-data", help="download the IDX files")
    f.set_defaults(run=cmd_fetch_data, parser=f)
    f.add_argument("--dataset", choices=DATASET_NAMES + ("all",), default="all")
    f.add_argument("--data-dir", default=data_dir)
    f.add_argument("--print-urls", action="store_true",
                   help="list the canonical URLs without downloading")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            # what writing --out would raise, before any work and without touching it
            out = getattr(args, "out", None)
            folder = os.path.dirname(out or "") or "."
            if out and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
                code = errno.EACCES if os.path.isdir(folder) else errno.ENOENT
                raise OSError(code, os.strerror(code), out)
            return args.run(args, args.parser)
        except ConfigError as e:  # a flag's value that its config rejects: a usage error
            args.parser.error(str(e))
    except SystemExit as e:  # argparse --help or usage errors
        return int(e.code or 0)
    except (OSError, ValueError, MemoryError, ReportError, TrainingDiverged) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
