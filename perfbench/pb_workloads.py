"""Workloads of the consensuslab benchmark, the closed loop that runs them,
and the checks on their outputs.

A job is one call of the user path ``consensuslab.cli.main(["run", ...])``
on a config in the ``configs/*.json`` schema (the templates sit in
``configs/`` next to this file); exact_certify then certifies a prefix of
the same topology trace.  Jobs run one at a time in one process with no
worker threads: a closed loop with a single client.  Job seeds derive from
the benchmark seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pb_trace import PER_LAYER, ROOT, Recorder, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_PROBES = 5  # fresh interpreters whose median set-up time is setup_s
# reference() on the host the benchmark was defined on (2-CPU Linux host,
# Python 3.11, numpy 2.4); end-to-end times are rescaled to this speed
REF_NOMINAL_S = 0.1

# name, unit, better, bound (largest worsening of the median tolerated)
END_TO_END = (
    ("replica_steps_per_s", "1/s", "higher", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


@dataclass(frozen=True)
class Sizes:
    replicas: int     # Monte Carlo replicas or MANET runs; 1 for the exact recursion
    horizon: int      # steps (rounds for MANET) per job
    prefix: int = 0   # certified trace length, exact_certify only


@dataclass(frozen=True)
class Job:
    out: str
    sizes: Sizes
    rc: int
    wall_s: float
    certified: tuple[bool, float] | None


@dataclass
class Context:
    """What set-up leaves behind: the imported package and the config file."""

    workload: "Workload"
    cli: object
    dynamics: object
    topology: object
    template: dict
    config_path: str
    work_dir: str
    n: int
    oracle: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: tuple[str, ...]            # layers it exercises, named as in pb_trace.LAYERS
    full: Sizes
    tiny: Sizes                       # warm-up, reproducibility and smoke-test size
    replica_steps: Callable[[Sizes], int]
    check: Callable[[Context, Job], list]

    def template(self) -> dict:
        with open(os.path.join(HERE, "configs", f"{self.name}.json")) as fh:
            return json.load(fh)


# ---------------------------------------------------------------------------
# Output checks, all run outside the timed region
# ---------------------------------------------------------------------------

def _rows(path: str) -> list[dict[str, str]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, ln.strip().split(","))) for ln in fh if ln.strip()]


def _bias_row_holds(job: Job) -> bool:
    rows = _rows(os.path.join(job.out, "consensus_stats.csv"))
    return any(r["quantity"] == "mean_final" and r["holds"] == "true" for r in rows)


def _mean_v(job: Job) -> list[dict[str, str]]:
    return _rows(os.path.join(job.out, "mean_V.csv"))


def _exact_final_v(ctx: Context, horizon: int) -> float:
    """E V at the last time, from the exact recursion on the same process."""
    if horizon not in ctx.oracle:
        cli, tpl = ctx.cli, ctx.template
        gains = cli.build_gains(tpl["gains"])
        process = cli.build_process(tpl["topology"], gains, horizon, 0)
        x1 = cli.build_x1(tpl.get("x1"), process.n)
        _, ev = ctx.dynamics.exact_second_moment(
            process, gains, cli.build_noise(tpl["noise"]), x1, horizon)
        ctx.oracle[horizon] = float(ev[-1])
    return ctx.oracle[horizon]


def _check_mc_shared(ctx: Context, job: Job) -> list:
    last = _mean_v(job)[-1]
    mc, se = float(last["meanV"]), float(last["stderrV"])
    exact = _exact_final_v(ctx, job.sizes.horizon)
    return [("mc_mean_V_within_4se_of_exact", abs(mc - exact) <= 4 * se),
            ("bias_row_holds", _bias_row_holds(job))]


def _check_mc_random(ctx: Context, job: Job) -> list:
    finite = all(math.isfinite(float(r[col])) for r in _mean_v(job) for col in ("meanV", "stderrV"))
    return [("bias_row_holds", _bias_row_holds(job)), ("mean_V_finite", finite)]


def _check_manet(ctx: Context, job: Job) -> list:
    finals = [float(r["final_mean"]) for r in _rows(os.path.join(job.out, "manet_summary.csv"))]
    return [("mean_final_in_c7_band", 0.45 <= statistics.fmean(finals) <= 0.55)]


def _check_exact_certify(ctx: Context, job: Job) -> list:
    ev = [float(r["meanV"]) for r in _mean_v(job)]
    delta = float(ctx.template["topology"]["delta"])
    certified, min_delta = job.certified or (False, math.inf)
    return [("exact_V_finite_nonnegative", all(math.isfinite(v) and v >= 0 for v in ev)),
            ("joint_connectivity_verified", certified is True),
            ("minimal_delta_within_delta", min_delta <= delta)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "mc_shared",
            "shared star-rotation topology, n=5, R=500, Gaussian noise: the noise draw "
            "dominates; loads rng re-seats, noise draw, update kernel and V reduction",
            ("rng.seat", "dynamics.noise_draw", "dynamics.engine", "dynamics.v_reduce",
             "topology.emit", "graph.laplacian"),
            Sizes(500, 2500), Sizes(8, 40),
            lambda s: s.replicas * s.horizon, _check_mc_shared),
        Workload(
            "mc_random",
            "per-replica loop over random block graphs, n=5, R=64, uniform noise: loads "
            "graph build and validation, topology emission, rng re-seats and R=1 overhead",
            ("topology.emit", "graph.build", "graph.laplacian", "rng.seat",
             "dynamics.noise_draw", "dynamics.engine", "dynamics.v_reduce"),
            Sizes(64, 120), Sizes(4, 30),
            lambda s: s.replicas * s.horizon, _check_mc_random),
        Workload(
            "manet",
            "fig2 MANET preset, n=9, 100-run batch plus one single run: loads reception "
            "probabilities, batch and single rounds and the V reduction",
            ("manet.reception", "manet.batch", "manet.single", "manet.run",
             "dynamics.v_reduce", "rng.seat", "graph.build"),
            Sizes(100, 600), Sizes(4, 20),
            lambda s: (s.replicas + 1) * s.horizon, _check_manet),
        Workload(
            "exact_certify",
            "no random draws: exact second-moment recursion on a (delta=0.3, c=2) cycle "
            "process, its CSV/SVG artifacts, then DFS joint-connectivity certification",
            ("dynamics.exact", "dynamics.noise_cov", "topology.emit", "graph.laplacian",
             "topology.certify", "topology.connectivity", "cli.artifact", "analysis.fit"),
            Sizes(1, 12000, 6000), Sizes(1, 200, 100),
            lambda s: s.horizon + s.prefix, _check_exact_certify),
    )
}


# ---------------------------------------------------------------------------
# Host speed reference
# ---------------------------------------------------------------------------

def reference() -> float:
    """Seconds for a fixed mix of interpreter, allocation, small-array,
    Philox and bulk-draw work that uses nothing from the package.

    A shared host drifts in speed by tens of percent over minutes, more than
    any bound worth keeping.  The benchmark times this loop before and after
    every job and set-up probe and rescales each duration by
    REF_NOMINAL_S / reference, which cancels the drift while a change to the
    package still moves the rescaled time in full.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    for i in range(20_000):
        [{"a": i, "b": (i, i)}] * 2
    x, lap = np.zeros(5), np.eye(5)
    for _ in range(4000):
        x = x - 0.1 * (lap @ x)
        c = x - x.mean()
        float(c @ c)
    key = np.random.SeedSequence(1).generate_state(2, np.uint64)
    for _ in range(400):
        np.random.Generator(np.random.Philox(key=key)).uniform(-1.0, 1.0, (5, 5))
    gen = np.random.Generator(np.random.Philox(key=key))
    for _ in range(60):
        np.einsum("ij,ijr->ir", lap, gen.standard_normal((5, 5, 500)))
    return time.perf_counter() - t0


def _rescaled(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_NOMINAL_S * 2.0 / (ref_before + ref_after)


# ---------------------------------------------------------------------------
# Set-up and jobs
# ---------------------------------------------------------------------------

def job_seed(seed: int, label) -> int:
    """31-bit config seed for one job, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def setup(workload: Workload, work_dir: str) -> Context:
    """Package import, config building and one tiny warm-up job."""
    from consensuslab import cli, dynamics, manet, topology

    os.makedirs(work_dir, exist_ok=True)
    template = workload.template()
    if "topology" in template:
        gains = cli.build_gains(template["gains"])
        n = cli.build_process(template["topology"], gains, workload.tiny.horizon, 0).n
    else:
        n = manet.scenario_preset(template["figure"])[0].n
    config_path = os.path.join(work_dir, f"{workload.name}.json")
    with open(config_path, "w") as fh:
        json.dump(template, fh)
    ctx = Context(workload, cli, dynamics, topology, template, config_path, work_dir, n, {})
    warm = run_job(ctx, workload.tiny, job_seed(0, "warm-up"))
    shutil.rmtree(warm.out)
    return ctx


def _certify(ctx: Context, sizes: Sizes) -> tuple[bool, float] | None:
    topo = ctx.template["topology"]
    gains = ctx.cli.build_gains(ctx.template["gains"])
    trace = ctx.cli.build_process(topo, gains, sizes.horizon, 0).trace(sizes.prefix)
    delta, c = float(topo["delta"]), float(topo["c"])
    try:
        ok, _ = ctx.topology.verify_joint_connectivity(trace, delta, c)
        return ok, ctx.topology.minimal_delta(trace, c)
    except ValueError:  # counted as a failed check
        return None


def run_job(ctx: Context, sizes: Sizes, seed: int, recorder: Recorder | None = None,
            out: str | None = None) -> Job:
    """One timed job; the CLI's own summary lines are swallowed."""
    if out is None:
        out = tempfile.mkdtemp(dir=ctx.work_dir)
    argv = ["run", ctx.config_path, "--horizon", str(sizes.horizon),
            "--seed", str(seed), "--out-dir", out]
    if ctx.template.get("method") != "exact":
        argv += ["--replicas", str(sizes.replicas)]
    root = recorder.span(ROOT) if recorder else contextlib.nullcontext()
    certified = None
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        with root:
            rc = ctx.cli.main(argv)
            if sizes.prefix:
                certified = _certify(ctx, sizes)
        wall = time.perf_counter() - t0
    return Job(out, sizes, rc, wall, certified)


def check_job(ctx: Context, job: Job) -> list:
    if job.rc != 0:
        return [("exit_code_0", False)]
    try:
        return [("exit_code_0", True), *ctx.workload.check(ctx, job)]
    except (OSError, ValueError, KeyError, IndexError):
        return [("exit_code_0", True), ("outputs_readable", False)]


def _csv_digests(out: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def reproducibility_check(ctx: Context, seed: int) -> tuple[str, bool]:
    """The same short job twice with the same seed and out-dir gives equal CSV bytes."""
    out = os.path.join(ctx.work_dir, "repro")
    seen = []
    for _ in range(2):
        os.makedirs(out)
        job = run_job(ctx, ctx.workload.tiny, job_seed(seed, "repro"), out=out)
        seen.append((job.rc, _csv_digests(out)))
        shutil.rmtree(out)
    ok = seen[0] == seen[1] and seen[0][0] == 0 and bool(seen[0][1])
    return ("csv_bytes_reproducible", ok)


def probe_setup(workload: Workload, work_dir: str, count: int) -> list[tuple[float, float]]:
    """(wall, rescaled) set-up seconds in `count` fresh interpreters, one after another."""
    samples = []
    ref = reference()
    for k in range(count):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "pb_setup.py"), workload.name,
             os.path.join(work_dir, f"setup-probe-{k}")],
            capture_output=True, text=True, timeout=150, check=True)
        wall = float(done.stdout.split()[-1])
        ref_before, ref = ref, reference()
        samples.append((wall, _rescaled(wall, ref_before, ref)))
    return samples


# ---------------------------------------------------------------------------
# One measured run
# ---------------------------------------------------------------------------

def measure(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: str,
            sizes: Sizes | None = None, setup_probes: int | None = None,
            trace_path: str | None = None) -> dict:
    """Run the closed loop for `seconds` of job time and check every output.

    Untraced, jobs run bare and the end-to-end metrics are reported, with
    times rescaled by the reference loop run between jobs.  Traced, jobs
    alternate between bare and hooked; the hooked ones give the per-layer
    metrics (in plain wall time) and the bare ones the tracing overhead.
    """
    sizes = sizes or workload.full
    ctx = setup(workload, work_dir)
    probes = SETUP_PROBES if setup_probes is None else setup_probes
    setup_s = probe_setup(workload, work_dir, probes) if not trace else []
    checks = [reproducibility_check(ctx, seed)]
    recorder = Recorder() if trace else None
    bare, hooked = [], []  # (wall, rescaled) seconds per job
    ref = reference()
    k = 0
    while sum(w for w, _ in bare + hooked) < seconds or not bare or (trace and not hooked):
        if trace and k % 2:
            with recorder.installed():
                job = run_job(ctx, sizes, job_seed(seed, k), recorder)
        else:
            job = run_job(ctx, sizes, job_seed(seed, k))
        ref_before, ref = ref, reference()
        (hooked if trace and k % 2 else bare).append(
            (job.wall_s, _rescaled(job.wall_s, ref_before, ref)))
        checks += check_job(ctx, job)
        shutil.rmtree(job.out)
        k += 1
    steps = workload.replica_steps(sizes)
    if trace:
        values, notes = layer_metrics(recorder, steps * len(hooked), sizes.horizon * len(hooked),
                                      [w for w, _ in hooked], [r for _, r in hooked],
                                      [r for _, r in bare])
        units = {name: unit for name, unit, *_ in PER_LAYER}
        if trace_path:
            recorder.save(trace_path)
    else:
        run_wall, run_scaled = zip(*bare)
        setup_wall, setup_scaled = zip(*setup_s)
        values = {
            "replica_steps_per_s": steps / statistics.median(run_scaled),
            "run_s": statistics.median(run_scaled),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {
            "replica_steps_per_s": f"unscaled {steps / statistics.median(run_wall):.6g}",
            "run_s": f"p50 of n={len(bare)} jobs; unscaled {statistics.median(run_wall):.6g}",
            "setup_s": f"p50 of n={len(setup_s)} fresh interpreters; "
                       f"unscaled {statistics.median(setup_wall):.6g}",
        }
        units = {name: unit for name, unit, *_ in END_TO_END}
    failed = [label for label, ok in checks if not ok]
    return {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": sorted(set(failed)),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        "notes": notes,
        "sizes": sizes,
        "n": ctx.n,
        "jobs": len(bare) + len(hooked),
        "config_hash": config_hash(ctx.template),
    }
