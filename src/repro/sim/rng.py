"""Named, reproducible random-number streams.

Every stochastic component (fault injection, workload generation) draws
from its own named stream derived from a single root seed, so adding a
consumer never perturbs the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


class RngStreams:
    """Factory of independent ``numpy.random.Generator`` streams by name."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``.

        The stream key is derived from ``(root seed, name)`` via SHA-256, so
        it is stable across runs, platforms and Python hash randomization.
        """
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            key = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(np.random.SeedSequence([self.seed, key]))
            self._streams[name] = gen
        return gen
