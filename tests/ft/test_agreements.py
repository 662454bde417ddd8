"""Integer agreements stay plain ints through the collective engine.

``FTContext.agree_min`` contributes a Python ``int`` to the team's
allreduce and gets the agreed ``int`` back, so a failure-free iteration
makes no send-buffer copy and no NumPy reduction.  The engine prices
each agreement once, when its last member arrives.
"""

from repro.experiments.common import run_ft_scenario
from repro.ft.app import FTContext
from repro.gaspi.collectives import CollectiveCosts, CollectiveEngine
from repro.workloads.spec import scaled_spec


def test_failure_free_agreements_contribute_and_return_ints(monkeypatch):
    contributions = []
    agreed = []
    arrive = CollectiveEngine.arrive
    agree_min = FTContext.agree_min

    def spy_arrive(self, kind, *args, **kwargs):
        if kind == "allreduce":
            contributions.append(kwargs["contribution"])
        return arrive(self, kind, *args, **kwargs)

    def spy_agree_min(self, value):
        result = yield from agree_min(self, value)
        agreed.append(result)
        return result

    monkeypatch.setattr(CollectiveEngine, "arrive", spy_arrive)
    monkeypatch.setattr(FTContext, "agree_min", spy_agree_min)
    spec = scaled_spec(workers=16, iterations=20, name="int-agreements")
    out = run_ft_scenario("int-agreements", spec, n_spares=2)

    assert out.n_recoveries == 0
    # one agreement per worker and iteration, on the iteration number
    assert len(contributions) == len(agreed) == 16 * 20
    assert all(type(c) is int for c in contributions)
    assert all(type(v) is int for v in agreed)
    assert sorted(set(agreed)) == list(range(20))


def test_each_allreduce_instance_is_priced_once(monkeypatch):
    arrivals = []
    prices = []
    arrive = CollectiveEngine.arrive
    allreduce = CollectiveCosts.allreduce

    def spy_arrive(self, kind, *args, **kwargs):
        if kind == "allreduce":
            arrivals.append(kind)
        return arrive(self, kind, *args, **kwargs)

    def spy_allreduce(self, p, nbytes):
        prices.append((p, nbytes))
        return allreduce(self, p, nbytes)

    monkeypatch.setattr(CollectiveEngine, "arrive", spy_arrive)
    monkeypatch.setattr(CollectiveCosts, "allreduce", spy_allreduce)
    spec = scaled_spec(workers=16, iterations=20, name="priced-once")
    out = run_ft_scenario("priced-once", spec, n_spares=2)

    assert out.n_recoveries == 0
    # 16 arrivals per agreement, one int64 price per completed instance
    assert len(arrivals) == 16 * 20
    assert prices == [(16, 8)] * 20
