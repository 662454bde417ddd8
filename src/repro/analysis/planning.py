"""Resource planning: spare-count and checkpoint-interval calculators.

The paper notes that "the calculation of the optimal number of extra
nodes for a particular case depends on several factors including job size,
job duration, the MTTF of the system, etc. and is out of scope for this
paper" — this module supplies that calculation, plus the classical
Young/Daly checkpoint-interval optimum, both validated against the
simulator in the test suite.

Model: node failures are independent Poisson processes, so the number of
failures in a job of duration ``T`` on ``n`` nodes is Poisson with mean
``n * T / MTTF_node``.  A job survives iff failures ≤ available rescues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def expected_failures(n_nodes: int, duration: float, mttf_node: float) -> float:
    """Mean number of node failures during the job."""
    if mttf_node <= 0:
        raise ValueError("mttf_node must be positive")
    if duration < 0 or n_nodes < 0:
        raise ValueError("duration and n_nodes must be non-negative")
    return n_nodes * duration / mttf_node


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P[X <= k] for X ~ Binomial(n, p)."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    total = 0.0
    term = (1.0 - p) ** n  # P[X = 0]
    total = term
    for i in range(1, k + 1):
        term *= (n - i + 1) / i * (p / (1.0 - p))
        total += term
    return min(1.0, total)


def survival_probability(n_workers: int, n_spares: int, duration: float,
                         mttf_node: float) -> float:
    """P[job completes] with the paper's scheme.

    ``n_spares`` includes the FD; the FD joins as the final rescue, so the
    recoverable failure budget is ``n_spares`` (paper Fig. 3).  Spare
    nodes can fail too — conservatively they count into the failure pool.

    Each node fails at most once during the job (exponential clock cut at
    the horizon), so the failure count is Binomial(n, 1 - e^{-T/M}); the
    Poisson form is its T << M limit.
    """
    if mttf_node <= 0:
        raise ValueError("mttf_node must be positive")
    n_total = n_workers + n_spares
    p_fail = 1.0 - math.exp(-duration / mttf_node)
    return binomial_cdf(n_spares, n_total, p_fail)


def required_spares(n_workers: int, duration: float, mttf_node: float,
                    target_survival: float = 0.99,
                    max_spares: int = 10_000) -> int:
    """Smallest spare count reaching ``target_survival``.

    Accounts for the spares' own failure rate (adding spares adds nodes).
    """
    if not (0.0 < target_survival < 1.0):
        raise ValueError("target_survival must be in (0, 1)")
    for n_spares in range(1, max_spares + 1):
        if survival_probability(n_workers, n_spares, duration,
                                mttf_node) >= target_survival:
            return n_spares
    raise ValueError(
        f"no spare count up to {max_spares} reaches {target_survival}"
    )


# ----------------------------------------------------------------------
# checkpoint interval (Young / Daly)
# ----------------------------------------------------------------------
def daly_interval(checkpoint_cost: float, mttf_job: float) -> float:
    """Young/Daly optimum ``sqrt(2 * C * M)`` (first order), in seconds.

    ``mttf_job`` is the MTTF of the *job* (system MTTF / node count).
    """
    if checkpoint_cost < 0 or mttf_job <= 0:
        raise ValueError("need checkpoint_cost >= 0 and mttf_job > 0")
    return math.sqrt(2.0 * checkpoint_cost * mttf_job)


def expected_overhead_fraction(interval: float, checkpoint_cost: float,
                               mttf_job: float,
                               recovery_cost: float = 0.0) -> float:
    """First-order expected runtime overhead of a checkpointing scheme.

    Per interval of useful work ``tau`` the job pays ``C`` (checkpoint)
    always and, with probability ``(tau + C)/M``, a failure costing
    ``R + tau/2`` (recovery plus mean redo).
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    per_interval = checkpoint_cost + (interval + checkpoint_cost) / mttf_job \
        * (recovery_cost + interval / 2.0)
    return per_interval / interval


@dataclass
class SparePlan:
    """Recommendation produced by :func:`plan_job`."""

    n_workers: int
    n_spares: int
    survival_probability: float
    expected_failures: float
    checkpoint_interval: float
    expected_overhead_fraction: float


def plan_job(n_workers: int, duration: float, mttf_node: float,
             checkpoint_cost: float, recovery_cost: float = 17.0,
             target_survival: float = 0.99) -> SparePlan:
    """One-stop planner: spares + checkpoint interval for a job."""
    n_spares = required_spares(n_workers, duration, mttf_node,
                               target_survival)
    mttf_job = mttf_node / (n_workers + n_spares)
    interval = daly_interval(checkpoint_cost, mttf_job)
    return SparePlan(
        n_workers=n_workers,
        n_spares=n_spares,
        survival_probability=survival_probability(
            n_workers, n_spares, duration, mttf_node),
        expected_failures=expected_failures(
            n_workers + n_spares, duration, mttf_node),
        checkpoint_interval=interval,
        expected_overhead_fraction=expected_overhead_fraction(
            interval, checkpoint_cost, mttf_job, recovery_cost),
    )
