"""Training-step and inference-forward times of the five default model kinds.

Each kind is built as in golden_trajectory.py: seed 0, widths 784-64-10,
fc-kan with sin, cos, arctan and relu by product. One repeat times, per kind,
--steps calls of fckan.training.train_step, the step train_model takes
(forward, loss, backward and AdamW update at lr 1e-3, weight decay 1e-4), on
fixed random batches of 64, and one inference forward of a random batch of
1000. Repeats go round the kinds in turn, so host noise spreads over all of
them, after one untimed warm-up round. After the timed repeats, one more
batch-1000 forward and one more train_step per kind run under tracemalloc,
untimed, each for the peak of the NumPy buffers it allocates, and one batch-64
forward plus loss records onto a fresh Tape, for the number of ops a step
sweeps.

    PYTHONPATH=src python tests/bench_train_step.py [--out BENCH_train_step.json]

Per kind, the median and quartiles over the repeats of the milliseconds per
step and per forward, the traced peak MiB of the forward (forward_peak_mib)
and of the step (step_peak_mib) and the tape's node count (tape_nodes) are
appended as one entry to the JSON list in --out by
append_entry, which adds bench.machine_meta() and the git commit, SHA-256
and line count of the measured fckan source. The file is a trajectory: a
run appends and never rewrites.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import fckan
from fckan.bench import machine_meta
from fckan.models import MODEL_KINDS
from fckan.tensor import Tape, Tensor, softmax_cross_entropy
from fckan.training import train_step
from golden_trajectory import BATCH, LR, default_model

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCH_train_step.json")
FORWARD_BATCH = 1000
MIN_REPEATS = 5
SRC = os.path.dirname(os.path.abspath(fckan.__file__))  # the measured fckan package


def source_commit():
    """(commit, dirty) of the git checkout holding the imported fckan; (None,
    None) when it is not in one, such as an installed copy."""

    def git(*args):
        return subprocess.run(["git", "-C", SRC, *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--", "."))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def source_sha256():
    """SHA-256 over the imported fckan package's .py files, each taken as its
    name and its bytes in name order, so that two uncommitted variants of one
    commit can be told apart."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return digest.hexdigest()


def source_lines():
    """Non-blank, non-comment lines of the imported fckan package's .py files."""
    count = 0
    for name in os.listdir(SRC):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                count += sum(1 for line in f if line.strip() and not line.lstrip().startswith("#"))
    return count


def append_entry(path, started: str, **fields) -> int:
    """Append one entry to the JSON list in path (a new list if the file is
    absent) and return the list's length. The entry holds the commit, dirty
    flag, SHA-256 and line count of the measured fckan source, the UTC time
    the measurement started, bench.machine_meta(), then fields."""
    entries = []
    if os.path.exists(path):
        with open(path) as f:
            entries = json.load(f)
        if not isinstance(entries, list):
            raise SystemExit(f"{path} does not hold a JSON list")
    commit, dirty = source_commit()
    entries.append({"commit": commit, "source_dirty": dirty, "source_sha256": source_sha256(),
                    "source_lines": source_lines(), "created_utc": started,
                    "machine": machine_meta(), **fields})
    with open(path, "w") as f:
        json.dump(entries, f, indent=1)
        f.write("\n")
    return len(entries)


def peak_mib(call) -> float:
    """Peak MiB that tracemalloc traces while call() runs. tracemalloc slows
    every allocation, so no timed call runs under it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class Kind:
    """One default model with its optimiser and fixed inputs."""

    def __init__(self, kind: str, steps: int):
        self.model, self.opt = default_model(kind)
        rng = np.random.default_rng(2024)
        self.batches = [(rng.random((BATCH, 784), dtype=np.float32),
                         rng.integers(0, 10, BATCH)) for _ in range(steps)]
        self.X = Tensor(rng.random((FORWARD_BATCH, 784), dtype=np.float32))

    def step_ms(self) -> float:
        t0 = time.perf_counter()
        for xb, yb in self.batches:
            train_step(self.model, self.opt, xb, yb, LR)
        return (time.perf_counter() - t0) * 1e3 / len(self.batches)

    def forward_ms(self) -> float:
        t0 = time.perf_counter()
        self.model.forward(self.X)
        return (time.perf_counter() - t0) * 1e3

    def forward_peak_mib(self) -> float:
        return peak_mib(lambda: self.model.forward(self.X))

    def step_peak_mib(self) -> float:
        xb, yb = self.batches[0]
        return peak_mib(lambda: train_step(self.model, self.opt, xb, yb, LR))

    def tape_nodes(self) -> int:
        """Nodes of one batch-64 forward plus loss, as train_step records them."""
        xb, yb = self.batches[0]
        tape = Tape()
        softmax_cross_entropy(tape, self.model.forward(Tensor(xb), tape=tape), yb)
        return len(tape)


def summary(times) -> dict:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


def measure(steps: int, repeats: int) -> dict:
    kinds = {k: Kind(k, steps) for k in MODEL_KINDS}
    for k in kinds.values():  # warm-up round
        k.step_ms()
        k.forward_ms()
    times = {name: ([], []) for name in kinds}
    for _ in range(repeats):
        for name, k in kinds.items():
            times[name][0].append(k.step_ms())
            times[name][1].append(k.forward_ms())
    return {name: {"step_ms": summary(s), "forward_ms": summary(f),
                   "forward_peak_mib": round(kinds[name].forward_peak_mib(), 2),
                   "step_peak_mib": round(kinds[name].step_peak_mib(), 2),
                   "tape_nodes": kinds[name].tape_nodes()}
            for name, (s, f) in times.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=DEFAULT_OUT, help="JSON list to append to")
    ap.add_argument("--steps", type=int, default=20, help="timed steps per repeat")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)
    if args.steps < 1 or args.repeats < MIN_REPEATS:
        ap.error(f"need --steps >= 1 and --repeats >= {MIN_REPEATS}")
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    kinds = measure(args.steps, args.repeats)
    n = append_entry(args.out, started,
                     protocol={"widths": [784, 64, 10], "step_batch": BATCH,
                               "forward_batch": FORWARD_BATCH,
                               "steps_per_repeat": args.steps, "repeats": args.repeats},
                     kinds=kinds)
    for name, k in kinds.items():
        s, fw = k["step_ms"], k["forward_ms"]
        print(f"{name:<14} step {s['median']:8.2f} ms [{s['q1']:.2f}, {s['q3']:.2f}]   "
              f"forward {fw['median']:8.2f} ms [{fw['q1']:.2f}, {fw['q3']:.2f}]   "
              f"peak {k['forward_peak_mib']:7.2f} MiB   step peak {k['step_peak_mib']:6.2f} MiB   "
              f"{k['tape_nodes']:3d} tape nodes")
    print(f"appended entry {n} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
