"""Every configuration field must be read somewhere in ``src/repro``.

A dataclass field that nothing reads is a dead knob: setting it changes
nothing, yet its docstring promises behaviour.  This scans the package's
source with :mod:`ast` and collects every attribute *load*
(``obj.field``); a field whose name never appears there is reported.
The check is by name, not by type, so it can miss a dead field that
shares its name with a live attribute elsewhere, but it never flags a
field that code reads as ``obj.field``.
"""

import ast
import dataclasses
import functools
from pathlib import Path

import pytest

from repro.checkpoint.manager import CheckpointConfig
from repro.cluster.machine import MachineSpec
from repro.cluster.transport import TransportParams
from repro.ft.config import FTConfig
from repro.gaspi.collectives import CollectiveCosts
from repro.gaspi.config import GaspiConfig
from repro.workloads.spec import WorkloadSpec

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

CONFIGS = [GaspiConfig, CollectiveCosts, FTConfig, CheckpointConfig,
           MachineSpec, TransportParams, WorkloadSpec]


@functools.cache
def _attribute_reads() -> frozenset:
    reads = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return frozenset(reads)


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_every_config_field_is_read(cls):
    reads = _attribute_reads()
    unread = [f.name for f in dataclasses.fields(cls)
              if f.name not in reads]
    assert not unread, f"{cls.__name__} fields never read: {unread}"
