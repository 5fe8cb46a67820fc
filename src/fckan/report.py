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
from .training import AggregateMetrics, TrainConfig

RECORD_KEYS = ("model", "train", "runs", "aggregate", "meta")

TIMING_NOTE = "wall_seconds covers the full run including per-epoch validation passes"


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
                aggregate: AggregateMetrics, started: float, finished: float) -> dict:
    return {
        "model": model_cfg.to_dict(),
        "train": train_cfg.to_dict(),
        "runs": [r.to_dict() for r in runs],
        "aggregate": aggregate.to_dict(),
        "meta": {
            "artifact_version": __version__,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
            "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(finished)),
            "machine": machine_meta(),
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
    missing = [k for k in RECORD_KEYS if k not in record]
    if missing:
        raise ReportError(f"{path}: record is missing keys {missing}")
    return record


def _cell(mean: float, std: float) -> str:
    return f"{mean:.2f} ± {std:.2f}"


def render_report(records) -> str:
    """Markdown table over a list of experiment records."""
    if not records:
        raise ReportError("no experiment records to report")
    rows = []
    for rec in records:
        agg = rec["aggregate"]
        rows.append(
            {
                "dataset": rec["train"]["dataset"],
                "model": model_label(rec["model"]),
                "train_acc": (agg["train_acc"]["mean"], agg["train_acc"]["std"]),
                "val_acc": (agg["val_acc"]["mean"], agg["val_acc"]["std"]),
                "f1": (agg["f1"]["mean"], agg["f1"]["std"]),
                "time": agg["wall_seconds_mean"],
            }
        )
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
