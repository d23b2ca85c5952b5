"""Metrics and inequality checks: disagreement, rate fitting, and the
contraction/lower-bound/product inequalities used by the verification
suites."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import GainSchedule
from .graph import WeightedDigraph, degrees, laplacian
from .topology import ConnectivitySchedule, window_indices

REL_TOL = 1e-9


def disagreement(x: Sequence[float]) -> float:
    """V(x) = sum_i (x_i - x_ave)^2, computed as a centered sum of squares."""
    x = np.asarray(x, dtype=float)
    if x.size < 1:
        raise ValueError("need at least one coordinate")
    c = x - x.mean()
    return float(np.dot(c, c))


@dataclass(frozen=True)
class RateFit:
    """Least-squares line on (log t, log y): slope estimates the decay exponent."""

    slope: float
    intercept: float
    stderr_slope: float
    window: tuple[float, float]


def fit_rate(ts: Sequence[int], values: Sequence[float],
             window: tuple[float, float]) -> RateFit:
    """Log-log regression of a positive series over a time window.

    Negative slope means decay; an exact power law y = C t^p is
    recovered to machine precision with stderr 0.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (ts >= lo) & (ts <= hi)
    if mask.sum() < 10:
        raise ValueError("window must contain at least 10 points")
    y = values[mask]
    if np.any(y <= 0):
        raise ValueError("rate fitting needs strictly positive values")
    x = np.log(ts[mask])
    ly = np.log(y)
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, ly) / sxx)
    intercept = float(ly.mean() - slope * x.mean())
    resid = ly - (intercept + slope * x)
    dof = max(len(y) - 2, 1)
    stderr = math.sqrt(float(np.dot(resid, resid)) / dof / sxx)
    return RateFit(slope, intercept, stderr, (float(lo), float(hi)))


@dataclass(frozen=True)
class ProductBounds:
    """Both sides of the two schedule-product inequalities.

    The plain pair bounds prod (1 - c1/(t_{j+1}^{1-delta} + t*)) by a
    power of window endpoints; the log pair bounds the log-corrected
    product by a ratio of logs.
    """

    lhs_product: float
    rhs_power: float
    lhs_log_product: float
    rhs_log_power: float


def schedule_product_bounds(schedule: ConnectivitySchedule, c1: float, t_star: int,
                            delta: float, i: int, t: int) -> ProductBounds:
    """Evaluate the product bounds for milestone indices k_i .. k_tilde - 1.

    Factors must stay inside (0, 1); an empty index range gives products
    equal to 1.
    """
    if c1 <= 0 or t_star < 0:
        raise ValueError("need c1 > 0 and t_star >= 0")
    k_i, k_tilde = window_indices(schedule, i, t)
    c = schedule.c
    times = schedule.times
    js = np.arange(k_i, k_tilde)  # 1-based js; factor uses t_{j+1}
    if js.size:
        t_next = times[js].astype(float)  # times[j] is t_{j+1} for 1-based j
        denom = t_next ** (1 - delta) + t_star
        fac = 1.0 - c1 / denom
        if np.any(fac <= 0) or np.any(fac >= 1):
            raise ValueError("plain product factors must lie in (0, 1)")
        lhs = float(np.prod(fac))
        # log-corrected factor carries the offset inside the log, matching
        # the log-corrected gain a(t) = alpha/((sqrt(t)+t*) log(t+t*))
        log_denom = denom * np.log(t_next + t_star)
        fac_log = 1.0 - c1 / log_denom
        if np.any(fac_log <= 0) or np.any(fac_log >= 1):
            raise ValueError("log product factors must lie in (0, 1)")
        lhs_log = float(np.prod(fac_log))
    else:
        lhs = 1.0
        lhs_log = 1.0
    rhs = ((i ** (1 - delta) + 2 * c + t_star) / ((t + 1) ** (1 - delta) + t_star)) ** (c1 / (2 * c))
    num = math.log(2 * c + i ** (1 - delta) + t_star)
    den = math.log((t + 1) ** (1 - delta) + t_star)
    rhs_log = (num / den) ** (c1 * (1 - delta) / (2 * c))
    return ProductBounds(lhs, rhs, lhs_log, rhs_log)


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float
    holds: bool


def check_window_contraction(trace: Sequence[WeightedDigraph], gains: GainSchedule,
                             schedule: ConnectivitySchedule, i: int = 1,
                             t: int | None = None, z: Sequence[float] | None = None,
                             seed: int = 0, tol: float = REL_TOL) -> InequalityCheck:
    """Product contraction bound on V through the transition matrices.

    For balanced traces with a(t) in (0, 1/d_max), V(Phi(t, i+1) z) is
    bounded by V(z) times the product over complete windows of
    (1 - d_l (1 - d_l)^2 e_l / (n (n-1)^2)), where d_l is the window's
    minimal gain and e_l the window's minimal 1 - a(t) d_max.
    """
    trace = list(trace)
    n = trace[0].n
    if t is None:
        t = len(trace)
    if not (1 <= i <= t <= len(trace)):
        raise ValueError("need 1 <= i <= t <= len(trace)")
    d_max = max(float(degrees(g)[0].max()) for g in trace)
    a_all = gains.values(np.arange(1, t + 1))
    if np.any(a_all <= 0) or np.any(a_all >= 1 / d_max):
        raise ValueError("gains must lie in (0, 1/d_max) for the contraction bound")
    if z is None:
        z = np.random.default_rng(seed).standard_normal(n)
    z = np.asarray(z, dtype=float)
    phi = np.eye(n)
    for l in range(i + 1, t + 1):
        phi = (np.eye(n) - a_all[l - 1] * laplacian(trace[l - 1])) @ phi
    lhs = disagreement(phi @ z)
    times = schedule.times
    # k^i and k~^t computed directly so t may run past the last milestone
    pos = int(np.searchsorted(times, i + 1, side="left"))
    k_i = pos + 1
    k_tilde = int(np.searchsorted(times, t + 1, side="right"))
    bound = 1.0
    for l in range(k_i, k_tilde):  # 1-based window index l
        lo, hi = int(times[l - 1]), int(times[l])
        window_a = a_all[lo - 1: hi - 1]
        d_l = float(window_a.min())
        e_l = float((1 - window_a * d_max).min())
        bound *= 1.0 - d_l * (1 - d_l) ** 2 * e_l / (n * (n - 1) ** 2)
    rhs = disagreement(z) * bound
    scale = max(abs(lhs), abs(rhs), 1e-15)
    return InequalityCheck(lhs, rhs, lhs <= rhs + tol * scale)


def check_step_lower_bound(g: WeightedDigraph, a: float, x: Sequence[float],
                           tol: float = REL_TOL) -> InequalityCheck:
    """Single-step disagreement lower bound via the largest eigenvalue.

    V((I - aL)x) >= (1 - a lambda_max(L + L')) V(x) for any weighted
    digraph and a > 0; the right side may be negative, in which case the
    bound is vacuous but still checked.
    """
    if a < 0:
        raise ValueError("need a >= 0")
    x = np.asarray(x, dtype=float)
    L = laplacian(g)
    lam = float(np.linalg.eigvalsh(L + L.T).max())
    lhs = disagreement(x - a * (L @ x))
    rhs = (1 - a * lam) * disagreement(x)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return InequalityCheck(lhs, rhs, lhs >= rhs - tol * scale)


@dataclass(frozen=True)
class ConsensusStats:
    """Across-replica statistics of the per-run consensus value."""

    mean_final: float
    var_final: float
    target_average: float
    replicas: int


def consensus_stats(final_states: np.ndarray, x1: Sequence[float]) -> ConsensusStats:
    """Per-replica consensus value is the final state average; the target
    is the average of the initial state."""
    final_states = np.asarray(final_states, dtype=float)
    if final_states.ndim != 2 or final_states.shape[0] < 2:
        raise ValueError("need a (replicas >= 2) x n matrix of final states")
    vals = final_states.mean(axis=1)
    return ConsensusStats(float(vals.mean()), float(vals.var(ddof=1)),
                          float(np.mean(np.asarray(x1, dtype=float))), len(vals))
