"""Run a fixed set of small experiments and print a digest of every artifact.

    python tools/artifact_digests.py OUT_DIR

Runs every `configs/*.json` at the reduced sizes of the checked-in-config
tests, the four `perfbench/configs/*.json` at small sizes, protocol runs
and Monte Carlo runs with moving-average, martingale-difference and
uniform noise, a 64-replica uniform-noise random-block Monte Carlo over
300 steps, an exact adversarial study and one two-value sweep, each into
its own directory under OUT_DIR.  Then prints `sha256  relpath` for every
file under OUT_DIR, sorted by path.  `consensuslab` is imported from the `src` directory of
the tree this script lives in.

To check that a refactor leaves every artifact byte-identical, run the
script of each tree into the same OUT_DIR (report.json records artifact
paths), emptying it in between, save both listings and compare them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from consensuslab import cli  # noqa: E402

# config file -> overrides (the sizes of the checked-in-config tests)
CHECKED_IN = {
    "fig2.json": {"horizon": 200, "replicas": 8},
    "fig3.json": {"horizon": 200, "replicas": 8},
    "fig4.json": {"horizon": 200, "replicas": 8},
    "rate_uniform.json": {"horizon": 400, "replicas": 16, "fit_window": [80, 400]},
    "adversarial_rates.json": {"horizon": 400, "replicas": 16, "fit_window": [80, 400]},
    "critical_exponent.json": {"horizon": 400, "fit_window": [80, 400]},
    "log_regime.json": {"horizon": 2000, "fit_window": [200, 2000]},
    "random_block.json": {"horizon": 400, "replicas": 8, "fit_window": [80, 400]},
    "verify.json": {"cases": 30},
}
PERFBENCH = {
    "manet.json": {"horizon": 200, "replicas": 8},
    "mc_random.json": {"horizon": 120, "replicas": 8},
    "mc_shared.json": {"horizon": 300, "replicas": 20},
    "exact_certify.json": {"horizon": 500},
}
NOISES = {
    "ma": {"kind": "m_dependent_ma", "v": 0.01, "m": 2},
    "martingale": {"kind": "martingale_difference", "v": 0.01},
    "uniform": {"kind": "iid_uniform", "half_width": 0.1},
}
GAINS = {"kind": "power", "alpha": 1.0, "t_star": 4.0, "exponent": 0.8}
# one topology per noise, so each engine path meets each noise kind once
RUN_TOPOLOGIES = {
    "ma": {"kind": "extensible_block", "base": {"builder": "cycle", "n": 5},
           "delta": 0.3, "c": 2.0},
    "martingale": {"kind": "adversarial", "n": 4, "delta": 0.3, "c": 1.0},
    "uniform": {"kind": "random_block", "n": 5, "K": 3, "mu": 0.3, "p": 1.0},
}
MC_TOPOLOGIES = {
    "ma": {"kind": "periodic", "builder": "star_rotation", "n": 4},
    "martingale": {"kind": "random_block", "n": 4, "K": 2, "mu": 0.3, "p": 1.0},
    "uniform": {"kind": "fixed", "graph": {"n": 3, "a_max": 2.0,
                                           "edges": [[1, 2, 1.5], [2, 3, 1.0], [3, 1, 2.0]]}},
}


def _load(path: Path, overrides: dict) -> dict:
    return json.loads(path.read_text()) | overrides


def run_all(out: Path) -> None:
    for name, small in CHECKED_IN.items():
        cfg = _load(ROOT / "configs" / name, small)
        cli.run_experiment(cfg | {"out_dir": str(out / "configs" / name[:-5])})
    for name, small in PERFBENCH.items():
        cfg = _load(ROOT / "perfbench" / "configs" / name, small)
        cli.run_experiment(cfg | {"out_dir": str(out / "perfbench" / name[:-5])})
    for label, noise in NOISES.items():
        cli.run_experiment({
            "kind": "protocol_run", "seed": 11, "horizon": 150,
            "topology": RUN_TOPOLOGIES[label], "gains": GAINS, "noise": noise,
            "out_dir": str(out / f"protocol_run_{label}")})
        n = MC_TOPOLOGIES[label].get("n") or MC_TOPOLOGIES[label]["graph"]["n"]
        cli.run_experiment({
            "kind": "monte_carlo", "seed": 12, "horizon": 150, "replicas": 12,
            "topology": MC_TOPOLOGIES[label], "gains": GAINS, "noise": noise,
            "x1": [float(k * k) for k in range(n)],
            "out_dir": str(out / f"monte_carlo_{label}")})
    cli.run_experiment({
        "kind": "monte_carlo", "seed": 13, "horizon": 300, "replicas": 64,
        "topology": RUN_TOPOLOGIES["uniform"], "gains": GAINS, "noise": NOISES["uniform"],
        "out_dir": str(out / "monte_carlo_uniform_random_block")})
    cfg = _load(ROOT / "configs" / "adversarial_rates.json", CHECKED_IN["adversarial_rates.json"])
    cli.run_experiment(cfg | {"method": "exact", "out_dir": str(out / "adversarial_exact")})
    cli.sweep(cfg | {"out_dir": str(out / "sweep_delta")}, "delta", [0.2, 0.3])


def digests(out: Path) -> list[tuple[str, str]]:
    rows = []
    for dirpath, _, files in os.walk(out):
        for f in files:
            path = Path(dirpath) / f
            rows.append((hashlib.sha256(path.read_bytes()).hexdigest(),
                         path.relative_to(out).as_posix()))
    return sorted(rows, key=lambda r: r[1])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/artifact_digests.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty; give a new or empty directory", file=sys.stderr)
        return 2
    run_all(out)
    for digest, rel in digests(out):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
