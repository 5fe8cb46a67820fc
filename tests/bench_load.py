"""Wall time and peak memory of fckan.data.load_dataset on MNIST-shaped files.

The files are perfbench's synthetic set for seed 1 (perfbench/synth.py): the
four gzipped IDX files of a 60000/10000 split, the ones the benchmark loads,
generated once into --data-dir and reused after. Each of --processes fresh
Python processes imports the fckan found next to this script's import of it
(so PYTHONPATH picks the source measured), then times one
load_dataset("mnist", ...) call and reports its peak RSS after the load.
A fresh process per sample means each load pays for first-touch page faults
as a training run does, and no load sees another's freed memory.

    PYTHONPATH=src python tests/bench_load.py [--processes 7] [--out BENCH_load.json]

The median and quartiles of the seconds and of the peak RSS are appended as
one entry to the JSON list in --out by bench_train_step.append_entry, which
adds bench.machine_meta() and the git commit, SHA-256 and line count of the
measured fckan source. The file is a trajectory: a run appends and never
rewrites.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time

import fckan
from bench_train_step import append_entry, summary

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
import synth  # noqa: E402

DEFAULT_OUT = os.path.join(HERE, "..", "BENCH_load.json")
SEED = 1
MIN_PROCESSES = 5

CHILD = """
import resource, sys, time
from fckan.data import load_dataset
t0 = time.perf_counter()
load_dataset("mnist", sys.argv[1])
seconds = time.perf_counter() - t0
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def measure(data_dir: str, processes: int):
    """(seconds, peak RSS MB) of one load_dataset call per fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fckan.__file__)))
    seconds, rss = [], []
    for _ in range(processes):
        out = subprocess.run([sys.executable, "-c", CHILD, data_dir], env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        seconds.append(float(out[0]))
        rss.append(float(out[1]))
    return seconds, rss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    ap.add_argument("--processes", type=int, default=7)
    ap.add_argument("--data-dir", default=os.path.join(tempfile.gettempdir(),
                                                       "fckan-bench-load"))
    args = ap.parse_args(argv)
    if args.processes < MIN_PROCESSES:
        ap.error(f"need --processes >= {MIN_PROCESSES}")
    data_dir = synth.write_dataset(SEED, args.data_dir)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    seconds, rss = measure(data_dir, args.processes)
    s, m = summary(seconds), summary(rss)
    n = append_entry(args.out, started,
                     protocol={"data": f"perfbench/synth.py seed {SEED}, gzipped IDX",
                               "processes": args.processes},
                     load_dataset_s=s, peak_rss_mb=m)
    print(f"load_dataset {s['median']:.3f} s [{s['q1']:.3f}, {s['q3']:.3f}]   "
          f"peak RSS {m['median']:.1f} MB [{m['q1']:.1f}, {m['q3']:.1f}]")
    print(f"appended entry {n} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
