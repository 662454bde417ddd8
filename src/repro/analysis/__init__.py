"""Post-run analysis: capacity planning for FT runs.

Per-failure timelines and recovery reports of a traced run live in
:mod:`repro.obs.timeline`.
"""

from repro.analysis.planning import (
    SparePlan,
    daly_interval,
    expected_failures,
    expected_overhead_fraction,
    plan_job,
    required_spares,
    survival_probability,
)

__all__ = [
    "SparePlan",
    "daly_interval",
    "expected_failures",
    "expected_overhead_fraction",
    "plan_job",
    "required_spares",
    "survival_probability",
]
