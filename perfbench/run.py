"""consensuslab benchmark: closed-loop workloads through the CLI's user path.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  With --trace 0 a workload reports its
end-to-end metrics; with --trace 1 it runs the traced variant and reports
per-layer metrics, writing its spans to .perfbench/trace-<workload>.npz.
Every job's outputs are checked.  Each workload runs in its own
interpreter with BLAS/OpenMP threads pinned to 1; "all" runs every
workload, one fresh process each.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("mc_shared", "mc_random", "manet", "exact_certify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(args) -> int:
    import numpy
    import scipy

    import pb_workloads

    workload = pb_workloads.WORKLOADS[args.workload]
    work = os.path.join(SCRATCH, f"work-{os.getpid()}")
    trace_path = os.path.join(SCRATCH, f"trace-{workload.name}.npz") if args.trace else None
    try:
        res = pb_workloads.measure(workload, args.seed, args.seconds, bool(args.trace), work,
                                   trace_path=trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sizes = res["sizes"]
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"manifest commit={_git_commit()} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__}")
    print(f"sizes n={res['n']} R={sizes.replicas} horizon={sizes.horizon}"
          + (f" certified_prefix={sizes.prefix}" if sizes.prefix else "")
          + f" config_hash={res['config_hash']} jobs={res['jobs']}")
    notes = res["notes"]
    for name, m in res["metrics"].items():
        shown = notes.get(name) if notes.get(name) == "missing" else f"{m['value']:.6g}"
        print(f"  {name:38s} {shown:>14s} {m['unit']:12s} {notes.get(name, '')}".rstrip())
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':38s} {frac:>14.6g} {'frac':12s} "
          f"{res['failed']} of {res['attempted']} checks {' '.join(res['failed_checks'])}".rstrip())
    if notes.get("shares"):
        print(f"self-time shares: {notes['shares']}")
    print(json.dumps({key: res[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh interpreter; metrics are keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "consensuslab", "__init__.py")):
        print(f"perfbench: no consensuslab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported, here and in children
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
