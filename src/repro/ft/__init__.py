"""Application-driven fault tolerance for GASPI programs (the paper's core).

Components, mirroring Sect. IV of the paper:

* :mod:`repro.ft.roles` / :mod:`repro.ft.config` — worker / idle / FD role
  assignment over the physical ranks, with spares pre-allocated at job
  start (non-shrinking recovery).
* :mod:`repro.ft.control` — the per-rank failure-acknowledgment control
  block, written one-sidedly by the FD into every healthy rank's global
  memory; workers poll a *local* flag (zero cost while failure-free).
* :mod:`repro.ft.detector` — the dedicated fault-detector process
  (Listing 1): periodic one-sided ping scan, rescue assignment
  (:func:`repro.ft.spares.assign_rescues`), notice broadcast; optional
  threaded scanning and the FD-watchdog extension.
* :mod:`repro.ft.recovery` — communication reconstruction (Listing 2):
  identity takeover, ``gaspi_proc_kill`` of suspects, group rebuild with
  blocking commit; returns the rank's new team.
* :mod:`repro.ft.app` — the generic application driver (Fig. 3 flowchart)
  tying roles, detection, recovery and checkpointing together around an
  :class:`FTProgram`: every computing rank (worker or rescue) runs one
  worker loop, and keeps one :class:`FTContext` for the whole run.
* :mod:`repro.ft.strategies` — the alternative detectors the paper
  evaluates qualitatively (all-to-all ping, neighbor ring).
"""

from repro.ft.roles import Role
from repro.ft.config import FTConfig
from repro.ft.control import ControlBlock, FailureNotice, FT_SEGMENT
from repro.ft.spares import assign_rescues, RescueAssignment
from repro.ft.detector import fd_process, scan_once
from repro.ft.recovery import perform_recovery
from repro.ft.app import FTContext, FTProgram, ft_main, run_ft_application

__all__ = [
    "Role",
    "FTConfig",
    "ControlBlock",
    "FailureNotice",
    "FT_SEGMENT",
    "assign_rescues",
    "RescueAssignment",
    "fd_process",
    "scan_once",
    "perform_recovery",
    "FTContext",
    "FTProgram",
    "ft_main",
    "run_ft_application",
]
