"""Command-line entry point.

Subcommands: train (runs an experiment and writes a JSON record), bench
(function microbenchmark, CSV output), params (parameter audit against an
expected count), report (Markdown table over experiment records) and
fetch-data (downloads the IDX files; the only part of the package that
touches the network).

Exit codes: 0 success, 1 runtime/data error, 2 usage error.
"""

import argparse
import glob
import os
import sys
import time
import urllib.request

from . import __version__
from .bench import bench_suite, format_table, machine_meta, write_csv
from .basis import BasisKind
from .data import DATASET_NAMES, SPLIT_FILES, load_dataset
from .models import (
    ModelConfig,
    MODEL_KINDS,
    build_model,
    count_params,
    default_spline,
    layer_param_counts,
)
from .report import ReportError, load_record, make_record, render_report, write_record
from .training import TrainConfig, TrainingDiverged, run_experiment

DATA_URLS = {
    "mnist": "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "fashion-mnist": "http://fashion-mnist.s3-website.eu-central-1.amazonaws.com/",
}

DATA_FILES = tuple(stem + ".gz" for pair in SPLIT_FILES.values() for stem in pair)


def _parse_ints(text: str, flag: str, parser):
    try:
        values = tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        parser.error(f"{flag} expects comma-separated integers, got {text!r}")
    if not values:
        parser.error(f"{flag} expects at least one integer")
    return values


def _parse_percent(text: str, parser):
    try:
        return float(text.rstrip("%"))
    except ValueError:
        parser.error(f"--tolerance expects a percentage like 0.05, got {text!r}")


def _default_data_dir() -> str:
    return os.environ.get("FCKAN_DATA_DIR", "data")


def _resolve_data_dir(data_dir: str, dataset: str) -> str:
    def has_all(d):
        stems = [s for pair in SPLIT_FILES.values() for s in pair]
        return all(
            os.path.exists(os.path.join(d, s)) or os.path.exists(os.path.join(d, s + ".gz"))
            for s in stems
        )

    for candidate in (os.path.join(data_dir, dataset), data_dir):
        if has_all(candidate):
            return candidate
    names = ", ".join(DATA_FILES)
    raise FileNotFoundError(
        f"{dataset} files not found under {data_dir!r} or "
        f"{os.path.join(data_dir, dataset)!r}; expected {names} "
        f"(optionally uncompressed). Try: fckan fetch-data --dataset {dataset} "
        f"--data-dir {data_dir}"
    )


def _model_config(args, parser) -> ModelConfig:
    functions = ()
    if args.functions:
        functions = tuple(f.strip() for f in args.functions.split(",") if f.strip())
    if args.model != "fc-kan":
        if functions:
            parser.error(f"--functions only applies to fc-kan, not {args.model}")
        if args.combine is not None:
            parser.error(f"--combine only applies to fc-kan, not {args.model}")
    else:
        if not functions:
            parser.error("fc-kan needs --functions, e.g. --functions sin,cos")
        if args.combine is not None and len(functions) < 2:
            parser.error("--combine needs at least 2 functions")
    spline = None
    grid_size = getattr(args, "grid_size", None)
    spline_order = getattr(args, "spline_order", None)
    if grid_size is not None or spline_order is not None:
        base = default_spline(args.model)
        if base is None:
            parser.error(f"--grid-size/--spline-order only apply to spline models")
        spline = BasisKind(
            name=base.name,
            grid_size=grid_size if grid_size is not None else base.grid_size,
            spline_order=spline_order if spline_order is not None else base.spline_order,
            lo=base.lo,
            hi=base.hi,
        )
    try:
        return ModelConfig(
            kind=args.model,
            widths=getattr(args, "widths", (784, 64, 10)),
            functions=functions,
            combine=args.combine or "sum",
            spline=spline,
        )
    except ValueError as e:
        parser.error(str(e))


def cmd_train(args, parser) -> int:
    model_cfg = _model_config(args, parser)
    try:
        train_cfg = TrainConfig(
            dataset=args.dataset,
            epochs=args.epochs,
            batch_size=args.batch,
            lr0=args.lr,
            gamma=args.gamma,
            weight_decay=args.weight_decay,
            runs=args.runs,
            seeds=args.seeds,
        )
    except ValueError as e:
        parser.error(str(e))
    directory = _resolve_data_dir(args.data_dir, args.dataset)
    splits = load_dataset(args.dataset, directory)
    log = None if args.quiet else lambda s: print(s)
    started = time.time()
    runs, aggregate = run_experiment(model_cfg, train_cfg, splits=splits, log=log)
    record = make_record(model_cfg, train_cfg, runs, aggregate, started, time.time())
    write_record(record, args.out)
    print(
        f"{args.dataset}: val acc {aggregate.val_acc_mean:.2f} ± "
        f"{aggregate.val_acc_std:.2f}, F1 {aggregate.f1_mean:.2f} ± "
        f"{aggregate.f1_std:.2f} over {aggregate.runs} runs "
        f"({aggregate.wall_seconds_mean:.1f} s/run) -> {args.out}"
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
    model = build_model(model_cfg)
    total = count_params(model)
    for name, n in layer_param_counts(model):
        print(f"{name:<10} {n:>10}")
    print(f"{'total':<10} {total:>10}")
    if args.expect is not None:
        tolerance = args.expect * args.tolerance / 100.0
        diff = abs(total - args.expect)
        if diff > tolerance:
            print(
                f"expected {args.expect} ± {args.tolerance}% but counted {total} "
                f"(off by {total - args.expect})",
                file=sys.stderr,
            )
            return 1
        print(f"matches {args.expect} within {args.tolerance}% (off by {total - args.expect})")
    return 0


def cmd_report(args, parser) -> int:
    paths = []
    for pattern in args.inputs:
        paths.extend(sorted(glob.glob(pattern)))
    if not paths:
        print(f"no experiment records match {args.inputs}", file=sys.stderr)
        return 1
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
                print(
                    f"download failed: {e}\nany mirror of the standard IDX files "
                    f"works; place them under {target}",
                    file=sys.stderr,
                )
                rc = 1
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fckan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fckan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p, widths=False):
        p.add_argument("--model", required=True, choices=MODEL_KINDS)
        p.add_argument("--functions", help="comma list for fc-kan, e.g. sin,cos")
        p.add_argument("--combine", choices=("sum", "product"))
        if widths:
            p.add_argument("--widths", default="784,64,10")
            p.add_argument("--grid-size", type=int, dest="grid_size")
            p.add_argument("--spline-order", type=int, dest="spline_order")

    t = sub.add_parser("train", help="train a model and write an experiment record")
    add_model_flags(t)
    t.add_argument("--dataset", choices=DATASET_NAMES, default="mnist")
    t.add_argument("--epochs", type=int, default=None,
                   help="default 25 on mnist, 35 on fashion-mnist")
    t.add_argument("--batch", type=int, default=64)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--gamma", type=float, default=0.8)
    t.add_argument("--weight-decay", type=float, default=1e-4)
    t.add_argument("--runs", type=int, default=3)
    t.add_argument("--seeds", default="0,1,2")
    t.add_argument("--data-dir", default=None)
    t.add_argument("--out", default="experiment.json")
    t.add_argument("--quiet", action="store_true")

    b = sub.add_parser("bench", help="basis-function throughput microbenchmark")
    b.add_argument("--n", type=int, default=1_000_000)
    b.add_argument("--repeats", type=int, default=10)
    b.add_argument("--out", default=None, help="CSV path")

    p = sub.add_parser("params", help="audit parameter counts")
    add_model_flags(p, widths=True)
    p.add_argument("--expect", type=int, default=None)
    p.add_argument("--tolerance", default="0.05", help="percent, default 0.05")

    r = sub.add_parser("report", help="render a Markdown table from records")
    r.add_argument("--inputs", nargs="+", required=True, help="glob(s) of record JSONs")
    r.add_argument("--out", default=None)

    f = sub.add_parser("fetch-data", help="download the IDX files")
    f.add_argument("--dataset", choices=DATASET_NAMES + ("all",), default="all")
    f.add_argument("--data-dir", default=None)
    f.add_argument("--print-urls", action="store_true",
                   help="list the canonical URLs without downloading")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    handlers = {
        "train": cmd_train,
        "bench": cmd_bench,
        "params": cmd_params,
        "report": cmd_report,
        "fetch-data": cmd_fetch_data,
    }
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seeds", None) is not None and isinstance(args.seeds, str):
            args.seeds = _parse_ints(args.seeds, "--seeds", parser)
        if getattr(args, "widths", None) is not None and isinstance(args.widths, str):
            args.widths = _parse_ints(args.widths, "--widths", parser)
        if isinstance(getattr(args, "tolerance", None), str):
            args.tolerance = _parse_percent(args.tolerance, parser)
        if hasattr(args, "data_dir") and args.data_dir is None:
            args.data_dir = _default_data_dir()
        return handlers[args.command](args, parser)
    except SystemExit as e:  # argparse --help or usage errors
        return int(e.code or 0)
    except (OSError, ValueError, ReportError, TrainingDiverged) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
