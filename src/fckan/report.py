"""Experiment records and the Markdown results table.

A record is one JSON document per experiment with top-level keys "model",
"train", "runs", "aggregate" and "meta". The report renders one row per
record as "mean ± std" cells grouped by dataset; within a dataset group the
best accuracy/F1 cells are bolded, and the lowest mean wall time (times are
machine-specific, so smaller is the interesting extreme).
"""

import json
import time

from . import __version__
from .bench import machine_meta
from .models import ModelConfig
from .training import TrainConfig, aggregate_runs

RECORD_KEYS = ("model", "train", "runs", "aggregate", "meta")

TIMING_NOTE = ("wall_seconds covers the full run including per-epoch validation passes; "
               "load_seconds, the dataset load before the runs, is outside it")


class ReportError(ValueError):
    """Unreadable or malformed experiment record."""


def model_label(model: dict) -> str:
    kind = model["kind"]
    fns = model.get("functions") or []
    if kind != "fc-kan":
        return kind
    label = f"fc-kan {'+'.join(fns)}"
    if len(fns) > 1:
        label += f" ({model.get('combine', 'sum')})"
    return label


def make_record(model_cfg: ModelConfig, train_cfg: TrainConfig, runs,
                started: float, finished: float, load_seconds: float | None = None) -> dict:
    """The record of ``runs``, its aggregate built by aggregate_runs;
    ``load_seconds`` is the time taken to load the dataset, None if untimed."""
    return {
        "model": model_cfg.to_dict(),
        "train": train_cfg.to_dict(),
        "runs": [r.to_dict() for r in runs],
        "aggregate": aggregate_runs(runs),
        "meta": {
            "artifact_version": __version__,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
            "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(finished)),
            "machine": machine_meta(),
            "load_seconds": load_seconds,
            "timing_note": TIMING_NOTE,
        },
    }


def write_record(record: dict, path):
    with open(path, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")


def load_record(path) -> dict:
    try:
        with open(path) as f:
            record = json.load(f)
    except json.JSONDecodeError as e:
        raise ReportError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(record, dict):
        raise ReportError(f"{path}: a record is a JSON object, got {type(record).__name__}")
    missing = [k for k in RECORD_KEYS if k not in record]
    if missing:
        raise ReportError(f"{path}: record is missing keys {missing}")
    try:
        _table_row(record)
    except (KeyError, TypeError, ValueError) as e:
        raise ReportError(f"{path}: missing or non-numeric field ({e!r})") from None
    return record


def _cell(mean: float, std: float) -> str:
    return f"{mean:.2f} ± {std:.2f}"


def _table_row(record: dict) -> dict:
    """The fields of a record that its table row shows."""
    agg = record["aggregate"]
    return {
        "dataset": record["train"]["dataset"],
        "model": model_label(record["model"]),
        **{k: (float(agg[k]["mean"]), float(agg[k]["std"]))
           for k in ("train_acc", "val_acc", "f1")},
        "time": float(agg["wall_seconds_mean"]),
    }


def render_report(records) -> str:
    """Markdown table over a list of records read by load_record."""
    if not records:
        raise ReportError("no experiment records to report")
    rows = [_table_row(rec) for rec in records]
    lines = [
        "| Dataset | Model | Train. Acc. | Val. Acc. | F1 | Time (s) |",
        "|---|---|---|---|---|---|",
    ]
    datasets = []
    for r in rows:
        if r["dataset"] not in datasets:
            datasets.append(r["dataset"])
    for ds in datasets:
        group = [r for r in rows if r["dataset"] == ds]
        best = {
            k: max(r[k][0] for r in group) for k in ("train_acc", "val_acc", "f1")
        }
        best_time = min(r["time"] for r in group)
        for r in group:
            cells = []
            for k in ("train_acc", "val_acc", "f1"):
                c = _cell(*r[k])
                if len(group) > 1 and r[k][0] == best[k]:
                    c = f"**{c}**"
                cells.append(c)
            t = f"{r['time']:.2f}"
            if len(group) > 1 and r["time"] == best_time:
                t = f"**{t}**"
            lines.append(
                f"| {ds} | {r['model']} | {cells[0]} | {cells[1]} | {cells[2]} | {t} |"
            )
    return "\n".join(lines)
