"""Golden training trajectory of the five default model kinds.

Each kind is built at seed 0 with widths 784-64-10 (fc-kan with sin, cos,
arctan and relu by product) and takes 5 steps of fckan.training.train_step
(AdamW at lr 1e-3, weight decay 1e-4) on fixed random batches of 64. The
trajectory is the 5 losses and, after the last step, the float64 sum and
absolute sum of every parameter.

    PYTHONPATH=src python tests/golden_trajectory.py --write
        rewrite tests/golden_trajectory.json from the current code
    PYTHONPATH=src python tests/golden_trajectory.py --exact
        print, per kind, the SHA-256 of the save_model bytes and of the
        losses; equal digests mean bit-identical numerics on this machine

tests/test_golden.py compares a fresh trajectory with the committed file.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from fckan.models import MODEL_KINDS, ModelConfig, build_model, save_model
from fckan.training import AdamW, train_step

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_trajectory.json")
STEPS, BATCH, LR, WEIGHT_DECAY = 5, 64, 1e-3, 1e-4
FCKAN = {"functions": ("sin", "cos", "arctan", "relu"), "combine": "product"}


def batches():
    rng = np.random.default_rng(2024)
    return [(rng.random((BATCH, 784), dtype=np.float32), rng.integers(0, 10, BATCH))
            for _ in range(STEPS)]


def default_model(kind: str):
    """(model, optimiser): the kind's default model at seed 0 and its AdamW."""
    model = build_model(ModelConfig(kind=kind, seed=0, **(FCKAN if kind == "fc-kan" else {})))
    return model, AdamW(model.params, weight_decay=WEIGHT_DECAY)


def train(kind: str):
    """(model, losses) after STEPS AdamW steps of the kind's default model."""
    model, opt = default_model(kind)
    return model, [train_step(model, opt, xb, yb, LR)[0] for xb, yb in batches()]


def trajectory(kind: str) -> dict:
    model, losses = train(kind)
    params = {}
    for p in model.params:
        data = p.tensor.data.astype(np.float64)
        params[p.name] = {"sum": float(data.sum()), "abs_sum": float(np.abs(data).sum())}
    return {"losses": losses, "params": params}


def exact_digests(kind: str):
    """SHA-256 of the trained model's save_model bytes and of its losses."""
    model, losses = train(kind)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.fckn")
        save_model(model, path)
        with open(path, "rb") as f:
            model_digest = hashlib.sha256(f.read()).hexdigest()
    loss_digest = hashlib.sha256(np.array(losses, dtype=np.float64).tobytes()).hexdigest()
    return model_digest, loss_digest, losses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN_PATH}")
    mode.add_argument("--exact", action="store_true", help="print SHA-256 digests")
    args = ap.parse_args(argv)
    if args.write:
        golden = {kind: trajectory(kind) for kind in MODEL_KINDS}
        with open(GOLDEN_PATH, "w") as f:
            json.dump(golden, f, indent=1)
            f.write("\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    for kind in MODEL_KINDS:
        model_digest, loss_digest, losses = exact_digests(kind)
        print(f"{kind:<14} save_model {model_digest}  losses {loss_digest}  "
              f"first loss {losses[0]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
