"""Configuration of the GASPI runtime instance."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gaspi.collectives import CollectiveCosts


@dataclass
class GaspiConfig:
    """Knobs of one GASPI world.

    ``n_queues`` defaults to GPI-2's 16; the paper's threaded fault detector
    monitors pings "in parallel on different communication queues", which the
    FT layer implements by issuing concurrent pings up to its thread count.
    """

    n_queues: int = 16
    queue_depth: int = 4096
    n_notifications: int = 1024
    collective_costs: CollectiveCosts = field(default_factory=CollectiveCosts)
    #: attach the runtime protocol sanitizer (``repro.gaspi.sanitize``)
    #: to the world; also switched on globally by ``REPRO_SANITIZE=1``.
    #: Catches double-posted live notifications, posts after
    #: ``QUEUE_FULL`` without drain, and segment use-after-free/OOB at
    #: the moment they happen, raising ``SanitizerError``.
    sanitize: bool = False
