"""Configuration-driven experiment runner.

Subcommands: run, sweep, verify, plot.  Experiments are described by JSON
configs with nested sections mirroring the library types (topology,
gains, noise, scene); every artifact is a CSV (optionally mirrored as a
deterministic SVG) and re-running a config with the same seed reproduces
the CSV bytes.  Exit codes: 0 success, 1 runtime failure, 2 config
error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis, dynamics, graph, manet, topology

ENV_OUT_DIR = "CONSENSUSLAB_OUT"

class ConfigError(Exception):
    """Invalid configuration; carries the offending field path."""


def _req(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"missing required field '{path}{key}'")
    return cfg[key]


def _check_keys(cfg: dict, known, path: str) -> None:
    """Reject the keys of a config section that its kind does not read."""
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ConfigError(f"unknown config key(s) {[path + k for k in unknown]}; "
                          f"this section reads {sorted(known)}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")


# ---------------------------------------------------------------------------
# Section builders
# ---------------------------------------------------------------------------

def build_gains(cfg: dict, path: str = "gains.") -> dynamics.GainSchedule:
    kind = _req(cfg, "kind", path)
    if kind == "theorem_design":
        _check_keys(cfg, ("kind", "n", "c", "a_max", "delta"), path)
        return dynamics.design_gain_schedule(
            int(_req(cfg, "n", path)), float(_req(cfg, "c", path)),
            float(_req(cfg, "a_max", path)), float(_req(cfg, "delta", path)))
    if kind == "table":
        _check_keys(cfg, ("kind", "values"), path)
        return dynamics.GainSchedule("table", table=np.asarray(_req(cfg, "values", path), dtype=float))
    if kind in ("constant", "power", "log_corrected"):
        _check_keys(cfg, ("kind", "alpha", "t_star", "exponent", "shift"), path)
        return dynamics.GainSchedule(
            kind, alpha=float(cfg.get("alpha", 1.0)), t_star=float(cfg.get("t_star", 0.0)),
            exponent=float(cfg.get("exponent", 1.0)), shift=float(cfg.get("shift", 0.0)))
    raise ConfigError(f"unknown gain kind '{kind}' at '{path}kind'")


# noise kind -> the keys `make_noise` reads for it besides "kind"
_NOISE_KEYS = {"zero": (), "iid_gaussian": ("v", "std"), "iid_uniform": ("v", "half_width"),
               "m_dependent_ma": ("v", "theta", "m"), "martingale_difference": ("v",)}


def build_noise(cfg: dict, path: str = "noise.") -> dynamics.NoiseModel:
    kind = _req(cfg, "kind", path)
    if kind in _NOISE_KEYS:
        _check_keys(cfg, ("kind", *_NOISE_KEYS[kind]), path)
    try:
        return dynamics.make_noise(
            kind, v=float(cfg.get("v", 0.0)),
            theta=cfg.get("theta"), half_width=cfg.get("half_width"),
            std=cfg.get("std"), m=cfg.get("m"))
    except ValueError as e:
        raise ConfigError(f"bad noise section: {e}")


def _build_graph(cfg: dict, path: str) -> graph.WeightedDigraph:
    n = int(_req(cfg, "n", path))
    if "builder" in cfg:
        name = cfg["builder"]
        _check_keys(cfg, ("n", "builder", "center") if name == "star" else ("n", "builder"), path)
        builders = {
            "complete": graph.complete_graph,
            "pair": graph.pair_graph,
            "cycle": graph.cycle_graph,
            "star": lambda n: graph.star_graph(n, int(cfg.get("center", 0))),
        }
        if name not in builders:
            raise ConfigError(f"unknown graph builder '{name}' at '{path}builder'")
        return builders[name](n)
    _check_keys(cfg, ("n", "edges", "a_max"), path)
    edges = [(int(j) - 1, int(i) - 1, float(w)) for j, i, w in _req(cfg, "edges", path)]
    return graph.from_edges(n, edges, cfg.get("a_max"))


def build_process(cfg: dict, gains: dynamics.GainSchedule | None, horizon: int,
                  seed: int, path: str = "topology.") -> topology.TopologyProcess:
    kind = _req(cfg, "kind", path)
    if kind == "fixed":
        _check_keys(cfg, ("kind", "graph"), path)
        return topology.FixedProcess(_build_graph(_req(cfg, "graph", path), path + "graph."))
    if kind == "periodic":
        _check_keys(cfg, ("kind", "n", "builder"), path)
        n = int(_req(cfg, "n", path))
        builder = cfg.get("builder", "star_rotation")
        if builder == "star_rotation":
            comps = topology.star_rotation_components(n)
        elif builder == "cycle_edges":
            comps = topology.cycle_edge_components(n)
        else:
            raise ConfigError(f"unknown periodic builder '{builder}' at '{path}builder'")
        return topology.PeriodicProcess(comps)
    if kind == "extensible_block":
        _check_keys(cfg, ("kind", "base", "delta", "c"), path)
        base = _build_graph(_req(cfg, "base", path), path + "base.")
        return topology.ExtensibleBlockProcess(
            base, float(_req(cfg, "delta", path)), float(_req(cfg, "c", path)), horizon)
    if kind == "adversarial":
        _check_keys(cfg, ("kind", "n", "delta", "c"), path)
        if gains is None:
            raise ConfigError("adversarial topology requires a gains section")
        return topology.AdversarialProcess(
            gains, float(_req(cfg, "delta", path)), float(_req(cfg, "c", path)),
            int(_req(cfg, "n", path)), horizon)
    if kind == "random_block":
        _check_keys(cfg, ("kind", "K", "mu", "p", "n", "seed"), path)
        return topology.RandomBlockProcess(
            int(_req(cfg, "K", path)), float(_req(cfg, "mu", path)),
            float(_req(cfg, "p", path)), int(_req(cfg, "n", path)),
            int(cfg.get("seed", seed)))
    raise ConfigError(f"unknown topology kind '{kind}' at '{path}kind'")


def build_x1(cfg, n: int) -> np.ndarray:
    if cfg is None:
        return np.linspace(0.0, 1.0, n)
    if isinstance(cfg, dict):
        kind = cfg.get("kind", "linspace")
        if kind == "linspace":
            _check_keys(cfg, ("kind", "lo", "hi"), "x1.")
            return np.linspace(float(cfg.get("lo", 0.0)), float(cfg.get("hi", 1.0)), n)
        raise ConfigError(f"unknown x1 kind '{kind}'")
    arr = np.asarray(cfg, dtype=float)
    if arr.shape != (n,):
        raise ConfigError(f"x1 must have length {n}")
    return arr


# ---------------------------------------------------------------------------
# SVG emission (hand-rolled so artifacts are byte-deterministic)
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H, _SVG_PAD = 720, 480, 60
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def write_svg_lines(path: str, series, xlabel: str, ylabel: str,
                    logx: bool = False, logy: bool = False, title: str = "") -> None:
    """One polyline per (name, xs, ys) triple on labeled axes."""
    def tx(v):
        return math.log10(v) if logx else v

    def ty(v):
        return math.log10(v) if logy else v

    pts = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)) for _, xs, ys in series]
    xs_all = np.concatenate([p[0] for p in pts])
    ys_all = np.concatenate([p[1] for p in pts])
    if logx and np.any(xs_all <= 0) or logy and np.any(ys_all <= 0):
        raise ValueError("log axes need positive data")
    x0, x1 = tx(xs_all.min()), tx(xs_all.max())
    y0, y1 = ty(ys_all.min()), ty(ys_all.max())
    x1 = x1 if x1 > x0 else x0 + 1
    y1 = y1 if y1 > y0 else y0 + 1
    W, H, P = _SVG_W, _SVG_H, _SVG_PAD

    def px(v):
        return P + (tx(v) - x0) / (x1 - x0) * (W - 2 * P)

    def py(v):
        return H - P - (ty(v) - y0) / (y1 - y0) * (H - 2 * P)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
           f'viewBox="0 0 {W} {H}">',
           f'<rect width="{W}" height="{H}" fill="white"/>',
           f'<line x1="{P}" y1="{H - P}" x2="{W - P}" y2="{H - P}" stroke="black"/>',
           f'<line x1="{P}" y1="{P}" x2="{P}" y2="{H - P}" stroke="black"/>',
           f'<text x="{W // 2}" y="{H - P // 3}" text-anchor="middle" '
           f'font-size="14">{xlabel}</text>',
           f'<text x="{P // 3}" y="{H // 2}" text-anchor="middle" font-size="14" '
           f'transform="rotate(-90 {P // 3} {H // 2})">{ylabel}</text>']
    if title:
        out.append(f'<text x="{W // 2}" y="{P // 2}" text-anchor="middle" '
                   f'font-size="15">{title}</text>')
    for k, (name, xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                   f'points="{coords}"><title>{name}</title></polyline>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def emit_plot(csv_path: str, kind: str, out_path: str) -> None:
    """Render a CSV artifact: loglog_V, states, or positions."""
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        rows = [ln.strip().split(",") for ln in fh if ln.strip()]
    data = {name: np.array([float(r[k]) for r in rows]) for k, name in enumerate(header)}
    if kind == "loglog_V":
        ycol = "meanV" if "meanV" in data else "V"
        if "t" not in data or ycol not in data:
            raise ValueError("loglog_V needs columns t and V/meanV")
        mask = (data[ycol] > 0) & (data["t"] > 0)
        write_svg_lines(out_path, [(ycol, data["t"][mask], data[ycol][mask])],
                        "log10 t", f"log10 {ycol}", logx=True, logy=True)
        return
    if kind == "states":
        names = [h for h in header if h.startswith("x_")]
        if "t" not in data or not names:
            raise ValueError("states plot needs columns t and x_1..x_n")
        write_svg_lines(out_path, [(h, data["t"], data[h]) for h in names],
                        "t", "state")
        return
    if kind == "positions":
        if not {"l", "agent", "px", "py"} <= set(header):
            raise ValueError("positions plot needs columns l, agent, px, py")
        series = []
        for agent in np.unique(data["agent"]):
            m = data["agent"] == agent
            series.append((f"agent {int(agent)}", data["px"][m], data["py"][m]))
        write_svg_lines(out_path, series, "x [km]", "y [km]")
        return
    raise ValueError(f"unknown plot kind {kind!r}")


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _random_balanced_graph(rng: np.random.Generator, n: int, a_max: float = 3.0) -> graph.WeightedDigraph:
    # symmetric weights are balanced by construction
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                wt = rng.uniform(1.0, a_max)
                w[i, j] = w[j, i] = wt
    if not w.any():
        w[0, 1] = w[1, 0] = 1.0
    return graph.WeightedDigraph(n, w, a_max)


def _random_digraph(rng: np.random.Generator, n: int, a_max: float = 3.0) -> graph.WeightedDigraph:
    w = np.where(rng.random((n, n)) < 0.45, rng.uniform(1.0, a_max, (n, n)), 0.0)
    np.fill_diagonal(w, 0.0)
    return graph.WeightedDigraph(n, w, a_max)


def _random_joint_trace(rng: np.random.Generator):
    """Random balanced trace satisfying the (delta, c) bound, plus its schedule."""
    n = int(rng.integers(3, 7))
    delta = float(rng.uniform(0.0, 0.5))
    c = float(rng.integers(1, 4))
    horizon = int(rng.integers(40, 200))
    proc = topology.ExtensibleBlockProcess(graph.cycle_graph(n), delta, c, horizon)
    return n, proc.trace(horizon), proc.schedule


def run_verify_suites(cases: int = 500, seed: int = 0) -> list[SuiteResult]:
    """The five randomized inequality suites at 1e-9 relative tolerance."""
    rng = np.random.default_rng(seed)
    results = []

    fails = 0
    for _ in range(cases):
        n, trace, sched = _random_joint_trace(rng)
        d_max = max(float(graph.degrees(g)[0].max()) for g in trace)
        u = rng.uniform(0.1, 0.9)
        gains = dynamics.GainSchedule("power", alpha=u / d_max * 5.0, t_star=4.0, exponent=1.0)
        horizon = len(trace)
        i = int(rng.integers(1, max(2, horizon // 2)))
        t = int(rng.integers(i, horizon + 1))
        try:
            chk = analysis.check_window_contraction(trace, gains, sched, i=i, t=t,
                                                    seed=int(rng.integers(1 << 30)))
            fails += 0 if chk.holds else 1
        except ValueError:
            fails += 1
    results.append(SuiteResult("window_contraction", cases, fails))

    fails = 0
    for _ in range(cases):
        delta = float(rng.uniform(0.0, 0.5))
        c = float(rng.integers(1, 4))
        sched = topology.schedule_times(delta, c, int(rng.integers(50, 600)))
        t_star = int(rng.integers(0, 100))
        tmax = int(sched.times[-1])
        t = int(rng.integers(2, tmax + 1)) if tmax > 2 else 2
        i = int(rng.integers(1, t + 1))
        t2 = float(sched.times[1])
        plain_min = t2 ** (1 - delta) + t_star
        log_min = plain_min * math.log(t2 + t_star)
        c1 = float(rng.uniform(0.05, 0.9)) * min(plain_min, log_min)
        try:
            b = analysis.schedule_product_bounds(sched, c1, t_star, delta, i, t)
        except ValueError:
            fails += 1
            continue
        ok = b.lhs_product < b.rhs_power and b.lhs_log_product < b.rhs_log_power
        fails += 0 if ok else 1
    results.append(SuiteResult("schedule_product_bounds", cases, fails))

    fails = 0
    for _ in range(max(cases, 1000)):
        n = int(rng.integers(2, 9))
        g = _random_digraph(rng, n)
        a = float(rng.uniform(0.0, 1.0))
        x = rng.standard_normal(n)
        chk = analysis.check_step_lower_bound(g, a, x)
        fails += 0 if chk.holds else 1
    results.append(SuiteResult("step_lower_bound", max(cases, 1000), fails))

    fails = 0
    for n in range(2, 51):
        _, (r1, r2) = graph.complete_pair_eigenbasis(n)
        if r1 > 1e-10 or r2 > 1e-10:
            fails += 1
    results.append(SuiteResult("eigenbasis_residuals", 49, fails))

    fails = 0
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        g = _random_balanced_graph(rng, n)
        din, dout = graph.degrees(g)
        d_max = float(din.max())
        a = float(rng.uniform(0.0, 1.0)) / d_max
        A = np.eye(n) - a * graph.laplacian(g)
        ok = (A.min() >= -1e-12
              and np.allclose(A.sum(axis=0), 1.0, atol=1e-12)
              and np.allclose(A.sum(axis=1), 1.0, atol=1e-12))
        fails += 0 if ok else 1
    results.append(SuiteResult("doubly_stochastic", cases, fails))
    return results


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    kind: str
    seed: int
    config_hash: str
    out_dir: str
    artifacts: dict = field(default_factory=dict)
    rates: list = field(default_factory=list)       # (label, slope, stderr)
    checks: list = field(default_factory=list)      # (label, passed, detail)
    summary: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _config_hash(cfg: dict) -> str:
    # where the artifacts go is not part of what they hold
    kept = {k: v for k, v in cfg.items() if k != "out_dir"}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]


def _write_report(report: ExperimentReport) -> None:
    path = os.path.join(report.out_dir, "report.json")
    payload = {
        "kind": report.kind, "seed": report.seed, "config_hash": report.config_hash,
        "artifacts": report.artifacts, "rates": report.rates,
        "checks": report.checks, "summary": report.summary,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    report.artifacts["report"] = path


def _csv_path(report: ExperimentReport, key: str, stem: str | None = None) -> str:
    """Register artifact `key` as <out_dir>/<stem or key>.csv and return its path."""
    path = os.path.join(report.out_dir, f"{stem or key}.csv")
    report.artifacts[key] = path
    return path


def _mirror_svg(cfg: dict, report: ExperimentReport, csv_path: str, plot_kind: str,
                name: str) -> None:
    """Render a CSV artifact as <name>.svg unless the config sets "svg": false."""
    if cfg.get("svg", True):
        svg = os.path.join(report.out_dir, f"{name}.svg")
        emit_plot(csv_path, plot_kind, svg)
        report.artifacts[f"{name}_svg"] = svg


def _write_quantities(path: str, experiment_id: str, rows) -> None:
    """Write (quantity, value, stderr, holds) rows under one experiment id."""
    with open(path, "w") as fh:
        fh.write("experiment_id,quantity,value,stderr,holds\n")
        for quantity, value, stderr, holds in rows:
            fh.write(f"{experiment_id},{quantity},{value:.12g},{stderr:.12g},"
                     f"{str(holds).lower()}\n")


def _verify_suite(cfg: dict, report: ExperimentReport) -> None:
    results = run_verify_suites(int(cfg.get("cases", 500)), report.seed)
    _write_quantities(_csv_path(report, "verify"), "verify",
                      [(r.name, r.cases - r.failures, 0, r.passed) for r in results])
    report.checks += [(r.name, r.passed, f"{r.failures}/{r.cases} failures") for r in results]


def _manet_study(cfg: dict, report: ExperimentReport) -> None:
    figure = cfg.get("figure", "fig2")
    scene, gains = manet.scenario_preset(figure)
    if "speed_b" in cfg:  # sweepable relative-speed exponent
        scene = replace(scene, speed_b=float(cfg["speed_b"]))
    if "gains" in cfg:
        gains = build_gains(cfg["gains"])
    rounds = int(cfg.get("horizon", 10_000))
    runs = int(cfg.get("replicas", 100))
    batch = manet.run_manet_batch(scene, gains, rounds, runs, report.seed)
    trace = manet.run_manet(scene, gains, rounds, report.seed)
    tpath = _csv_path(report, "states")
    dynamics.write_trace_csv(trace, tpath)
    ppath = _csv_path(report, "positions")
    manet.write_positions_csv(scene, min(rounds, 200), ppath)
    final_range = np.ptp(batch.final_states, axis=1)
    final_mean = batch.final_states.mean(axis=1)
    with open(_csv_path(report, "summary", "manet_summary"), "w") as fh:
        fh.write("run,final_range,final_mean\n")
        for r, (spread, mean) in enumerate(zip(final_range, final_mean)):
            fh.write(f"{r},{spread:.12g},{mean:.12g}\n")
    _mirror_svg(cfg, report, tpath, "states", "states")
    _mirror_svg(cfg, report, ppath, "positions", "positions")
    med = float(np.median(final_range))
    mean_final = float(final_mean.mean())
    report.summary.update(median_final_range=med, mean_final=mean_final,
                          frac_range_lt_005=float((final_range < 0.05).mean()))
    report.rates.append((f"{figure}_median_final_range", med, 0.0))
    if figure == "fig2" and rounds >= 10_000 and runs >= 50:
        report.checks.append(("fig2_mean_final_in_band", 0.45 <= mean_final <= 0.55,
                              f"mean final {mean_final:.4f}"))


def _protocol_sections(cfg: dict, seed: int):
    """(horizon, gains, noise, process, x1) from the shared component sections."""
    horizon = int(_req(cfg, "horizon", ""))
    if "delta" in cfg:  # sweepable shared exponent for adversarial studies
        targets = [sec for sec, kind in (("topology", "adversarial"), ("gains", "theorem_design"))
                   if cfg.get(sec, {}).get("kind") == kind]
        if not targets:
            raise ConfigError("top-level 'delta' is read only by an adversarial topology "
                              "or theorem_design gains; neither is configured")
        for sec in targets:
            cfg[sec]["delta"] = float(cfg["delta"])
    gains = build_gains(_req(cfg, "gains", ""), "gains.")
    noise = build_noise(_req(cfg, "noise", ""), "noise.")
    process = build_process(_req(cfg, "topology", ""), gains, horizon, seed, "topology.")
    return horizon, gains, noise, process, build_x1(cfg.get("x1"), process.n)


def _protocol_run(cfg: dict, report: ExperimentReport) -> None:
    horizon, gains, noise, process, x1 = _protocol_sections(cfg, report.seed)
    trace = dynamics.run(process, gains, noise, x1, horizon, report.seed)
    tpath = _csv_path(report, "trace")
    dynamics.write_trace_csv(trace, tpath)
    _mirror_svg(cfg, report, tpath, "states", "states")
    report.summary["consensus_value"] = trace.consensus_value


def _mean_v_study(cfg: dict, report: ExperimentReport):
    """E V(t) by Monte Carlo or the exact recursion; returns (ts, E V, horizon)."""
    horizon, gains, noise, process, x1 = _protocol_sections(cfg, report.seed)
    if cfg.get("method", "monte_carlo") == "exact":
        if isinstance(process, topology.AdversarialProcess) and noise.independent_across_time:
            ts, mean_v = dynamics.adversarial_exact_moments(process, gains, noise.v, x1, horizon)
        else:
            ts, mean_v = dynamics.exact_second_moment(process, gains, noise, x1, horizon)
        result = dynamics.MonteCarloResult(ts, mean_v, np.zeros_like(mean_v), None, 0)
    else:
        result = dynamics.monte_carlo_V(process, gains, noise, x1, horizon,
                                        int(cfg.get("replicas", 200)), report.seed)
    mpath = _csv_path(report, "mean_V")
    dynamics.write_monte_carlo_csv(result, mpath)
    _mirror_svg(cfg, report, mpath, "loglog_V", "mean_V")
    if result.final_states is not None:
        stats = analysis.consensus_stats(result.final_states, x1)
        se = math.sqrt(stats.var_final / stats.replicas) if stats.replicas else 0.0
        bias_ok = abs(stats.mean_final - stats.target_average) <= 4 * max(se, 1e-300)
        _write_quantities(_csv_path(report, "consensus_stats"), report.config_hash,
                          [("mean_final", stats.mean_final, se, bias_ok),
                           ("var_final", stats.var_final, 0, True)])
        report.summary.update(mean_final=stats.mean_final, var_final=stats.var_final)
    return result.ts, result.mean_V, horizon


def _rate_study(cfg: dict, report: ExperimentReport) -> None:
    ts, mean_v, horizon = _mean_v_study(cfg, report)
    win = cfg.get("fit_window")
    if win is None:
        win = (0.2 * horizon, horizon)  # transient decays faster than the tail
    fit = analysis.fit_rate(ts, mean_v, (float(win[0]), float(win[1])))
    _write_quantities(_csv_path(report, "fits"), report.config_hash,
                      [("slope", fit.slope, fit.stderr_slope, True),
                       ("intercept", fit.intercept, 0, True)])
    report.rates.append(("slope", fit.slope, fit.stderr_slope))
    report.summary["slope"] = fit.slope


_COMMON_KEYS = frozenset({"kind", "seed", "out_dir"})
_PROTOCOL_KEYS = _COMMON_KEYS | {"horizon", "delta", "topology", "gains", "noise", "x1", "svg"}
_MEAN_V_KEYS = _PROTOCOL_KEYS | {"method", "replicas"}
_RATE_KEYS = _MEAN_V_KEYS | {"fit_window"}

# experiment kind -> (runner filling the report, top-level config keys it reads)
EXPERIMENTS = {
    "protocol_run": (_protocol_run, _PROTOCOL_KEYS),
    "monte_carlo": (_mean_v_study, _MEAN_V_KEYS),
    "rate_study": (_rate_study, _RATE_KEYS),
    "adversarial_study": (_rate_study, _RATE_KEYS),
    "random_topology_study": (_rate_study, _RATE_KEYS),
    "manet_study": (_manet_study, _COMMON_KEYS | {"figure", "speed_b", "gains", "horizon",
                                                  "replicas", "svg"}),
    "verify_suite": (_verify_suite, _COMMON_KEYS | {"cases"}),
}


def _prepare(config, overrides: dict | None) -> tuple[dict, str]:
    """Load a config, apply overrides, reject keys its kind does not read,
    and create the output directory."""
    cfg = load_config(config) if isinstance(config, str) else copy.deepcopy(config)
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    kind = _req(cfg, "kind", "")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind '{kind}' at 'kind'")
    _check_keys(cfg, EXPERIMENTS[kind][1], "")
    out_dir = cfg.get("out_dir") or os.environ.get(ENV_OUT_DIR) or "out"
    os.makedirs(out_dir, exist_ok=True)
    return cfg, out_dir


def run_experiment(config, overrides: dict | None = None) -> ExperimentReport:
    """Execute one configured experiment and write its artifacts."""
    cfg, out_dir = _prepare(config, overrides)
    kind = cfg["kind"]
    report = ExperimentReport(kind, int(cfg.get("seed", 0)), _config_hash(cfg), out_dir)
    EXPERIMENTS[kind][0](cfg, report)
    _write_report(report)
    return report


def _set_by_path(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise ConfigError(f"sweep parameter '{dotted}' not found in config")
        node = node[p]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"sweep parameter '{dotted}' not found in config")
    node[parts[-1]] = value


def sweep(config, parameter: str, values, overrides: dict | None = None) -> ExperimentReport:
    """Run one experiment per value; aggregate `value,slope,stderr` rows.

    For manet studies the aggregated quantity is the median final range
    (recorded in the slope column; the CSV schema is shared).
    """
    base, out_dir = _prepare(config, overrides)
    rows = []
    for k, val in enumerate(values):
        cfg = copy.deepcopy(base)
        _set_by_path(cfg, parameter, val)
        cfg["seed"] = int(base.get("seed", 0)) + 1000 * k
        cfg["out_dir"] = os.path.join(out_dir, f"{parameter.replace('.', '_')}_{val}")
        rates = run_experiment(cfg).rates
        rows.append((val, *rates[0][1:]) if rates else (val, float("nan"), float("nan")))
    report = ExperimentReport("sweep", int(base.get("seed", 0)), _config_hash(base), out_dir)
    with open(_csv_path(report, "sweep"), "w") as fh:
        fh.write("value,slope,stderr\n")
        for val, slope, stderr in rows:
            fh.write(f"{val},{slope:.12g},{stderr:.12g}\n")
    report.summary["rows"] = [[float(v) if isinstance(v, (int, float)) else v, s, e]
                              for v, s, e in rows]
    _write_report(report)
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="consensuslab",
                                 description="noisy average-consensus simulation lab")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--replicas", type=int, default=None)
        p.add_argument("--horizon", type=int, default=None)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep over a config")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--parameter", required=True, help="dotted path, e.g. topology.delta")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    add_common(p_sweep)

    p_ver = sub.add_parser("verify", help="run the randomized verification suites")
    p_ver.add_argument("--cases", type=int, default=500)
    p_ver.add_argument("--seed", type=int, default=0)

    p_plot = sub.add_parser("plot", help="render a CSV artifact as SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("--kind", required=True, choices=["loglog_V", "states", "positions"])
    p_plot.add_argument("--out", default=None)
    return ap


def _overrides(args) -> dict:
    return {"seed": args.seed, "out_dir": args.out_dir,
            "replicas": args.replicas, "horizon": args.horizon}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            report = run_experiment(args.config, _overrides(args))
            for label, ok, detail in report.checks:
                print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
            for label, slope, stderr in report.rates:
                print(f"rate {label}: {slope:.4f} +/- {stderr:.4f}")
            print(f"artifacts in {report.out_dir}")
            if report.kind == "verify_suite" and not report.passed:
                return 3
            return 0 if report.passed else 1
        if args.command == "sweep":
            vals = []
            for tok in (t.strip() for t in args.values.split(",")):
                for parse in (int, float, str):  # first that accepts the token
                    try:
                        vals.append(parse(tok))
                        break
                    except ValueError:
                        pass
            report = sweep(args.config, args.parameter, vals, _overrides(args))
            print(f"sweep rows: {report.summary['rows']}")
            print(f"artifacts in {report.out_dir}")
            return 0
        if args.command == "verify":
            results = run_verify_suites(args.cases, args.seed)
            for r in results:
                print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.failures}/{r.cases} failures")
            return 0 if all(r.passed for r in results) else 3
        # plot, the last subcommand
        out = args.out or (os.path.splitext(args.csv)[0] + ".svg")
        emit_plot(args.csv, args.kind, out)
        print(f"wrote {out}")
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
