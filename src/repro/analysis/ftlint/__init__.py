"""``ftlint``: protocol- and determinism-aware static analysis.

The paper's fault-tolerance guarantees are *conventions* in the source —
workers read a local health flag before every blocking GASPI call, the
DES stays deterministic because nothing in a sim path consults the wall
clock or unseeded randomness, tracing stays free because every emission
is gated on ``tracer.enabled``.  ``ftlint`` turns those conventions into
machine-checked rules (see ``ANALYSIS.md`` for the rule ↔ paper map):

======  ==============================================================
FT001   blocking GASPI calls in worker/solver code need a health-flag
        check (or a finite timeout outside unbounded retry loops)
FT002   no wall-clock reads or unseeded randomness in sim paths
FT003   ``tracer.emit`` must be gated by the zero-cost ``enabled`` flag
FT004   posting calls must check ``QUEUE_FULL`` and not hold a queue
        slot's status across a yield
FT005   broad ``except`` clauses must not swallow FT control-flow
        exceptions in recovery paths
FT006   public functions in ``src/repro`` carry type annotations
FT007   a posted notification must meet a wait/drain on every path to
        function exit, and a live id must not be double-posted
FT008   a deleted segment id must be re-created before any further use
        (recovery-epoch rebind discipline)
FT009   every ``group_create`` reaches ``group_commit`` (or an explicit
        delete/escape) on every path
FT010   a posting loop must keep a ``wait``/``drain`` reachable
======  ==============================================================

FT001–FT006 are per-statement visitors; FT007–FT010 run a pure-stdlib
CFG + dataflow engine (:mod:`cfg`, :mod:`dataflow`, :mod:`flowrules`).
The same invariants are asserted dynamically by the runtime sanitizer
(``repro.gaspi.sanitize``, enabled with ``REPRO_SANITIZE=1``).

Run it as ``python tools/ftlint.py src tests`` or
``python -m repro.analysis src tests``.
"""

from repro.analysis.ftlint.core import (
    FileContext,
    Finding,
    Rule,
    all_rules,
    analyze_file,
    analyze_paths,
    iter_python_files,
    register,
)
from repro.analysis.ftlint.baseline import (
    Baseline,
    fingerprint,
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.ftlint.reporters import render_human, render_json
from repro.analysis.ftlint.cli import main

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "fingerprint",
    "iter_python_files",
    "load_baseline",
    "main",
    "register",
    "render_human",
    "render_json",
    "split_by_baseline",
    "write_baseline",
]
