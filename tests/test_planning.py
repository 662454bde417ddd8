"""Tests for the spare-count / checkpoint-interval planner.

Includes a Monte-Carlo validation of the survival model against the
simulator's own MTTF-driven fault injection.
"""

import math

import numpy as np
import pytest

from repro.analysis import (
    daly_interval,
    expected_failures,
    expected_overhead_fraction,
    plan_job,
    required_spares,
    survival_probability,
)


def poisson_cdf(k: int, mean: float) -> float:
    """P[X <= k] for X ~ Poisson(mean): the Poisson limit of the
    planner's binomial failure count, kept here as an oracle."""
    if k < 0:
        return 0.0
    term = math.exp(-mean)
    total = term
    for i in range(1, k + 1):
        term *= mean / i
        total += term
    return min(1.0, total)


class TestPoissonMachinery:
    def test_poisson_cdf_known_values(self):
        assert poisson_cdf(0, 1.0) == pytest.approx(math.exp(-1))
        assert poisson_cdf(1, 1.0) == pytest.approx(2 * math.exp(-1))
        assert poisson_cdf(-1, 1.0) == 0.0
        assert poisson_cdf(100, 1.0) == pytest.approx(1.0)

    def test_cdf_monotone_in_k(self):
        vals = [poisson_cdf(k, 3.0) for k in range(10)]
        assert vals == sorted(vals)

    def test_expected_failures(self):
        assert expected_failures(100, 3600.0, 360000.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            expected_failures(10, 1.0, 0.0)


class TestSurvival:
    def test_more_spares_more_survival(self):
        probs = [survival_probability(256, s, 86400.0, 4e6)
                 for s in range(1, 6)]
        assert probs == sorted(probs)

    def test_required_spares_meets_target(self):
        n = required_spares(256, 86400.0, 4e6, target_survival=0.999)
        assert survival_probability(256, n, 86400.0, 4e6) >= 0.999
        if n > 1:
            assert survival_probability(256, n - 1, 86400.0, 4e6) < 0.999

    def test_longer_job_needs_more_spares(self):
        short = required_spares(256, 3600.0, 4e6)
        long = required_spares(256, 10 * 86400.0, 4e6)
        assert long > short

    def test_target_validation(self):
        with pytest.raises(ValueError):
            required_spares(10, 1.0, 1e6, target_survival=1.5)

    def test_survival_matches_monte_carlo(self):
        """The closed form vs the simulator's own exponential fault model."""
        from repro.cluster import exponential_node_failures

        n_nodes, duration, mttf, budget = 40, 50.0, 400.0, 5
        rng = np.random.default_rng(0)
        trials = 400
        survived = 0
        for _ in range(trials):
            plan = exponential_node_failures(
                rng, n_nodes=n_nodes, mttf_node=mttf, horizon=duration
            )
            if len(plan) <= budget:
                survived += 1
        from repro.analysis.planning import binomial_cdf

        p_fail = 1 - math.exp(-duration / mttf)
        predicted = binomial_cdf(budget, n_nodes, p_fail)
        assert survived / trials == pytest.approx(predicted, abs=0.06)
        # the Poisson limit is close but not exact at this failure density
        assert poisson_cdf(budget, n_nodes * duration / mttf) < predicted


class TestDaly:
    def test_interval_formula(self):
        assert daly_interval(10.0, 2000.0) == pytest.approx(200.0)
        with pytest.raises(ValueError):
            daly_interval(1.0, 0.0)

    def test_overhead_minimised_near_daly_point(self):
        C, M = 5.0, 5000.0
        opt = daly_interval(C, M)
        here = expected_overhead_fraction(opt, C, M)
        assert expected_overhead_fraction(opt / 4, C, M) > here
        assert expected_overhead_fraction(opt * 4, C, M) > here

    def test_overhead_includes_recovery_cost(self):
        base = expected_overhead_fraction(100.0, 5.0, 5000.0, recovery_cost=0.0)
        with_rec = expected_overhead_fraction(100.0, 5.0, 5000.0,
                                              recovery_cost=17.0)
        assert with_rec > base


class TestPlanner:
    def test_plan_for_paper_like_job(self):
        # 256 workers, 30-minute job, node MTTF ~2 months
        plan = plan_job(n_workers=256, duration=1800.0, mttf_node=5e6,
                        checkpoint_cost=0.03, recovery_cost=17.0)
        assert plan.n_spares >= 1
        assert plan.survival_probability >= 0.99
        assert plan.checkpoint_interval > 0
        assert 0 < plan.expected_overhead_fraction < 0.2

    def test_plan_scales_with_risk(self):
        safe = plan_job(64, 3600.0, 1e7, 0.03)
        risky = plan_job(64, 3600.0, 1e5, 0.03)
        assert risky.n_spares >= safe.n_spares
        assert risky.expected_failures > safe.expected_failures
        # higher failure rate => checkpoint more often
        assert risky.checkpoint_interval < safe.checkpoint_interval
