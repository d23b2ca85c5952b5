"""Span recorder and hooks for the traced benchmark run.

The traced run wraps calls into the library's modules from outside: each
hook replaces a function at the attribute where its caller looks it up
(a module global or a class attribute) and records one span per call,
with name, start, end and parent.  Spans stay in memory and are written
out once the run ends.  A hook whose target no longer exists is skipped;
a layer none of whose targets exist reads as missing.  The untraced run
installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

MISSING = -1.0  # JSON value of a layer metric whose hooks all failed to resolve

# layer -> hook targets "module:Attr.path"; a trailing "+" patches the
# method on every subclass that defines it.  When several targets of one
# layer nest, only the outermost span counts towards calls and time.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.run_experiment": ("consensuslab.cli:run_experiment",),
    "cli.artifact": ("consensuslab.cli:emit_plot",
                     "consensuslab.dynamics:write_trace_csv",
                     "consensuslab.dynamics:write_monte_carlo_csv",
                     "consensuslab.manet:write_positions_csv"),
    "analysis.fit": ("consensuslab.analysis:fit_rate",
                     "consensuslab.analysis:consensus_stats"),
    "dynamics.engine": ("consensuslab.dynamics:monte_carlo_V",
                        "consensuslab.dynamics:run"),
    "dynamics.exact": ("consensuslab.dynamics:exact_second_moment",
                       "consensuslab.dynamics:adversarial_exact_moments"),
    "dynamics.noise_cov": ("consensuslab.dynamics:aggregate_noise_covariance",),
    "dynamics.noise_draw": ("consensuslab.dynamics:EdgeNoiseSampler.aggregate",
                            "consensuslab.dynamics:EdgeNoiseSampler.aggregate_batch"),
    "dynamics.v_reduce": ("consensuslab.dynamics:_disagreement_vec",
                          "consensuslab.manet:_disagreement_vec"),
    "rng.seat": ("consensuslab.rng:StreamPool.at",),
    "topology.emit": ("consensuslab.topology:TopologyProcess.graph_at+",),
    "graph.build": ("consensuslab.graph:WeightedDigraph.__post_init__",),
    "graph.laplacian": ("consensuslab.dynamics:_cached_laplacian",
                        "consensuslab.graph:_cached_laplacian"),
    "topology.connectivity": ("consensuslab.topology:is_strongly_connected_presence",
                              "consensuslab.topology:is_strongly_connected"),
    "topology.certify": ("consensuslab.topology:verify_joint_connectivity",
                         "consensuslab.topology:minimal_delta"),
    "manet.reception": ("consensuslab.manet:_round_probabilities",
                        "consensuslab.manet:reception_probability"),
    "manet.batch": ("consensuslab.manet:run_manet_batch",),
    "manet.single": ("consensuslab.manet:simulate_round",),
    "manet.run": ("consensuslab.manet:run_manet",),
}
ROOT = "job"  # the benchmark's own span around one job

# name, unit, better, layer it reads, statistic, and what it should move
# (or leave flat) on which workload.  Statistics: p50 / tail per call, the
# tail being the highest percentile with at least ten samples beyond it;
# "/step" divides by the job's replica-steps (the headline's unit), "/round"
# by MANET rounds, "/job" by traced jobs; "us" is inclusive time of the
# outermost spans, "self_us" excludes child spans.
PER_LAYER = (
    ("rng.seat_us_p50", "us", "lower", "rng.seat", "p50",
     "replica_steps_per_s on mc_random; flat on exact_certify"),
    ("rng.seat_us_tail", "us", "lower", "rng.seat", "tail",
     "replica_steps_per_s on mc_random; flat on exact_certify"),
    ("rng.seats_per_step", "count/step", "lower", "rng.seat", "calls/step",
     "replica_steps_per_s on mc_random; flat on exact_certify"),
    ("dynamics.noise_draw_us_per_step", "us/step", "lower", "dynamics.noise_draw", "us/step",
     "replica_steps_per_s on mc_shared (largest) and mc_random; flat on exact_certify"),
    ("dynamics.draws_per_step", "count/step", "lower", "dynamics.noise_draw", "draws/step",
     "replica_steps_per_s on mc_shared (largest) and mc_random; flat on exact_certify"),
    ("dynamics.update_us_per_step", "us/step", "lower", "dynamics.engine", "self_us/step",
     "replica_steps_per_s on mc_shared and mc_random; flat on exact_certify"),
    ("dynamics.v_reduce_us_per_step", "us/step", "lower", "dynamics.v_reduce", "us/step",
     "replica_steps_per_s on mc_random and manet; flat on exact_certify"),
    ("dynamics.exact_us_per_step", "us/step", "lower", "dynamics.exact", "self_us/step",
     "replica_steps_per_s on exact_certify; flat on mc_shared, mc_random, manet"),
    ("dynamics.noise_cov_us_p50", "us", "lower", "dynamics.noise_cov", "p50",
     "replica_steps_per_s on exact_certify; flat on mc_shared, mc_random, manet"),
    ("dynamics.noise_cov_us_tail", "us", "lower", "dynamics.noise_cov", "tail",
     "replica_steps_per_s on exact_certify; flat on mc_shared, mc_random, manet"),
    ("topology.emit_us_p50", "us", "lower", "topology.emit", "p50",
     "replica_steps_per_s on mc_random; flat on mc_shared"),
    ("topology.emit_us_tail", "us", "lower", "topology.emit", "tail",
     "replica_steps_per_s on mc_random; flat on mc_shared"),
    ("topology.emits_per_step", "count/step", "lower", "topology.emit", "calls/step",
     "replica_steps_per_s on mc_random; flat on mc_shared"),
    ("graph.graphs_built_per_step", "count/step", "lower", "graph.build", "calls/step",
     "replica_steps_per_s on mc_random; flat on mc_shared, manet"),
    ("graph.validate_us_p50", "us", "lower", "graph.build", "p50",
     "replica_steps_per_s on mc_random; flat on mc_shared, manet"),
    ("graph.validate_us_tail", "us", "lower", "graph.build", "tail",
     "replica_steps_per_s on mc_random; flat on mc_shared, manet"),
    ("graph.laplacian_hit_ratio", "frac", "higher", "graph.laplacian", "hits/call",
     "replica_steps_per_s on mc_random; flat on mc_shared, manet"),
    ("topology.connectivity_checks", "count/job", "lower", "topology.connectivity", "calls/job",
     "replica_steps_per_s on exact_certify; flat on all others"),
    ("topology.connectivity_check_us_p50", "us", "lower", "topology.connectivity", "p50",
     "replica_steps_per_s on exact_certify; flat on all others"),
    ("topology.connectivity_check_us_tail", "us", "lower", "topology.connectivity", "tail",
     "replica_steps_per_s on exact_certify; flat on all others"),
    ("topology.certify_s", "s/job", "lower", "topology.certify", "s/job",
     "replica_steps_per_s on exact_certify; flat on all others"),
    ("manet.reception_us_per_round", "us/round", "lower", "manet.reception", "us/round",
     "replica_steps_per_s on manet; flat on all others"),
    ("manet.reception_calls_per_round", "count/round", "lower", "manet.reception", "calls/round",
     "replica_steps_per_s on manet; flat on all others"),
    ("manet.batch_round_us", "us/round", "lower", "manet.batch", "self_us/round",
     "replica_steps_per_s on manet; flat on all others"),
    ("manet.single_round_us", "us/round", "lower", "manet.single", "us/round",
     "replica_steps_per_s on manet; flat on all others"),
    ("analysis.fit_s", "s/job", "lower", "analysis.fit", "s/job",
     "run_s on exact_certify (long artifacts)"),
    ("cli.artifact_s", "s/job", "lower", "cli.artifact", "s/job",
     "run_s on exact_certify (long artifacts)"),
    ("cli.self_s", "s/job", "lower", "cli.run_experiment", "self_s/job",
     "run_s on exact_certify (config build, inline CSV loop)"),
    ("trace.overhead_frac", "frac", "lower", None, "overhead",
     "nothing: traced job time over untraced job time, minus 1"),
    ("trace.coverage", "frac", "higher", None, "coverage",
     "nothing: summed layer self time over traced job time"),
)


class _CountingGenerator:
    """Generator proxy that counts the random numbers each draw returns."""

    __slots__ = ("_gen", "_rec")

    def __init__(self, gen, rec: "Recorder"):
        self._gen = gen
        self._rec = rec

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        rec = self._rec

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            rec.add_draws(int(np.size(out)))
            return out

        return draw


class Recorder:
    """In-memory spans plus the hooks that produce them."""

    def __init__(self) -> None:
        self.layers = [ROOT, *LAYERS]  # ROOT is layer 0
        self._ids = {name: k for k, name in enumerate(self.layers)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.draws = np.zeros(len(self.layers), dtype=np.int64)
        self.laplacian_hits = 0
        self.resolved: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _open(self, layer_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._ids[name])
        try:
            yield
        finally:
            self._close(idx)

    def add_draws(self, count: int) -> None:
        top = self._stack[-1]
        self.draws[self.layer[top] if top >= 0 else 0] += count

    # -- hooks -------------------------------------------------------------
    def _wrap(self, layer: str, fn):
        layer_id = self._ids[layer]
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            idx = opened(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        if layer == "rng.seat":
            @functools.wraps(fn)
            def seat(*args, **kwargs):
                return _CountingGenerator(hooked(*args, **kwargs), self)
            return seat
        if layer == "graph.laplacian":
            @functools.wraps(fn)
            def laplacian(g, *args, **kwargs):
                self.laplacian_hits += "_lap" in vars(g)
                return hooked(g, *args, **kwargs)
            return laplacian
        return hooked

    def _patch(self, owner, name: str, layer: str) -> None:
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self._wrap(layer, original))

    def install(self) -> None:
        """Patch every resolvable target; unresolvable ones are skipped."""
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                every_subclass = path.endswith("+")
                *owner_path, name = path.rstrip("+").split(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in owner_path:
                        owner = getattr(owner, part)
                except (ImportError, AttributeError):
                    continue
                owners = _with_subclasses(owner) if every_subclass else [owner]
                for cls in owners:
                    if callable(vars(cls).get(name)):
                        self._patch(cls, name, layer)
                        self.resolved.add(layer)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- output ------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.layers), **self.arrays())


def _with_subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


def _percentiles(samples: np.ndarray) -> tuple[float, float, float]:
    """(p50, tail value, tail percentile) in the samples' unit."""
    if samples.size == 0:
        return 0.0, 0.0, 0.0
    s = np.sort(samples)
    if s.size < 11:  # no percentile has ten samples beyond it: report the max
        return float(np.median(s)), float(s[-1]), 100.0
    k = s.size - 11  # ten samples lie above index k
    return float(np.median(s)), float(s[k]), 100.0 * (k + 1) / s.size


def layer_metrics(rec: Recorder, replica_steps: int, rounds: int, traced_job_s: list[float],
                  traced_rescaled_s: list[float], untraced_rescaled_s: list[float]
                  ) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics from the recorded spans, plus display notes.

    Layer times are plain wall time; the tracing overhead compares job times
    rescaled to the host's reference speed, like the end-to-end metrics.
    """
    a = rec.arrays()
    layer, parent = a["layer"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    outer = np.ones(dur.size, dtype=bool)  # no ancestor in the same layer
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        outer[live] &= layer[anc[live]] != layer[live]
        anc[live] = parent[anc[live]]
    n_layers = len(rec.layers)
    calls = np.bincount(layer[outer], minlength=n_layers)
    incl = np.bincount(layer[outer], weights=dur[outer], minlength=n_layers)
    selfs = np.bincount(layer, weights=dur - child, minlength=n_layers)
    jobs, busy = max(int(calls[0]), 1), sum(traced_job_s)  # layer 0 is ROOT

    def per_call_us(k):
        return _percentiles(dur[outer & (layer == k)] * 1e6)

    stats = {
        "p50": lambda k: per_call_us(k)[0],
        "tail": lambda k: per_call_us(k)[1],
        "calls/step": lambda k: calls[k] / replica_steps,
        "us/step": lambda k: incl[k] * 1e6 / replica_steps,
        "self_us/step": lambda k: selfs[k] * 1e6 / replica_steps,
        "draws/step": lambda k: rec.draws[k] / replica_steps,
        "hits/call": lambda k: rec.laplacian_hits / calls[k] if calls[k] else 0.0,
        "calls/round": lambda k: calls[k] / rounds,
        "us/round": lambda k: incl[k] * 1e6 / rounds,
        "self_us/round": lambda k: selfs[k] * 1e6 / rounds,
        "calls/job": lambda k: calls[k] / jobs,
        "s/job": lambda k: incl[k] / jobs,
        "self_s/job": lambda k: selfs[k] / jobs,
        "overhead": lambda k: np.median(traced_rescaled_s) / np.median(untraced_rescaled_s) - 1.0,
        "coverage": lambda k: (selfs.sum() - selfs[0]) / busy,
    }
    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    for name, _, _, src, stat, _ in PER_LAYER:
        if src is not None and src not in rec.resolved:
            values[name], notes[name] = MISSING, "missing"
            continue
        k = rec.layers.index(src) if src else 0
        values[name] = float(stats[stat](k))
        if stat in ("p50", "tail"):
            notes[name] = f"p{per_call_us(k)[2]:.4g} of n={int(calls[k])}"
    notes["shares"] = "  ".join(f"{rec.layers[k]}={selfs[k] / busy:.3f}"
                                for k in np.argsort(-selfs) if selfs[k] > 0)
    return values, notes
