"""Shared scenario runner for the paper-scale experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import FaultPlan, MachineSpec, TransportParams
from repro.checkpoint.manager import CheckpointConfig, CheckpointManager
from repro.checkpoint.pfs import ParallelFileSystem
from repro.gaspi.config import GaspiConfig
from repro.ft import FTConfig
from repro.ft.app import FTRunResult, run_ft_application
from repro.workloads.kernels import ModelLanczosProgram
from repro.workloads.spec import WorkloadSpec


def ft_config_for(spec: WorkloadSpec, n_spares: int = 4,
                  fd_threads: int = 1, **overrides: Any) -> FTConfig:
    """The paper's FT configuration around a workload spec."""
    params = dict(
        n_workers=spec.n_workers,
        n_spares=n_spares,
        fd_scan_period=3.0,
        comm_timeout=1.0,
        fd_threads=fd_threads,
        idle_poll=0.1,
        checkpoint_interval=spec.checkpoint_interval,
        checkpoint=CheckpointConfig(),
    )
    params.update(overrides)
    return FTConfig(**params)


def machine_for(cfg: FTConfig) -> MachineSpec:
    """One rank per node, QDR-IB-like transport (paper testbed)."""
    return MachineSpec(
        n_nodes=cfg.n_ranks,
        procs_per_node=1,
        transport_params=TransportParams(),
    )


@dataclass
class ScenarioOutcome:
    """One scenario's measurements, decomposed Figure-4 style."""

    name: str
    spec: WorkloadSpec
    total_runtime: float
    computation_time: float
    redo_work_time: float
    reinit_time: float
    detection_time: float
    n_recoveries: int
    result: Optional[FTRunResult] = field(default=None, repr=False)
    #: checkpoint-plane per-phase totals (mirror/restore ops, bytes,
    #: virtual seconds) from the world's :class:`CheckpointManager` —
    #: empty when the run never attached one
    ckpt_phases: Dict[str, float] = field(default_factory=dict, repr=False)

    @property
    def overhead(self) -> float:
        return self.total_runtime - self.computation_time

    def components(self) -> Dict[str, float]:
        return {
            "computation": self.computation_time,
            "redo_work": self.redo_work_time,
            "reinit": self.reinit_time,
            "detection": self.detection_time,
        }


def _recovery_decomposition(result: FTRunResult, injects: List[float],
                            spec: WorkloadSpec) -> Tuple[float, float, float, int]:
    """(detection, reinit, redo, n_recoveries) summed over all recoveries.

    * detection: fault injection -> earliest worker failure-ack, per epoch;
    * reinit: failure-ack -> restore completed, averaged over the new
      team's members, per epoch (group rebuild + checkpoint read);
    * redo: re-executed iterations (beyond the nominal count) x anchored
      iteration time, maximum over workers.
    """
    workers = result.worker_results()
    acks: Dict[int, List[float]] = {}
    restores: Dict[int, List[float]] = {}
    for w in workers.values():
        pending_epoch = None
        ack_t = None
        for t, label, info in w.get("timeline", []):
            if label == "failure-ack":
                pending_epoch = info.get("epoch")
                ack_t = t
                acks.setdefault(pending_epoch, []).append(t)
            elif label == "recovered" and info.get("rescue"):
                # a rescue has no failure-ack; its span starts at recovery
                pending_epoch = info.get("epoch")
                ack_t = t
            elif label == "restore" and pending_epoch is not None:
                restores.setdefault(pending_epoch, []).append(t - ack_t)
                pending_epoch = None

    detection = 0.0
    reinit = 0.0
    epochs = sorted(acks)
    for idx, epoch in enumerate(epochs):
        first_ack = min(acks[epoch])
        inject = injects[idx] if idx < len(injects) else first_ack
        detection += max(0.0, first_ack - inject)
        spans = restores.get(epoch, [])
        if spans:
            reinit += sum(spans) / len(spans)

    redo_iters = 0
    for w in workers.values():
        executed = w.get("counters", {}).get("iterations", 0)
        redo_iters = max(redo_iters, int(executed) - spec.n_iterations)
    redo = max(0, redo_iters) * spec.iteration_time
    return detection, reinit, redo, len(epochs)


def run_ft_scenario(
    name: str,
    spec: WorkloadSpec,
    kill_times: Optional[List[Tuple[float, int]]] = None,
    n_spares: int = 4,
    fd_threads: int = 1,
    until: Optional[float] = None,
    gaspi_config: Optional[GaspiConfig] = None,
    **cfg_overrides: Any,
) -> ScenarioOutcome:
    """Run the model kernel under the FT stack with optional kills.

    ``kill_times`` are ``(time, physical rank)`` pairs.  ``gaspi_config``
    overrides the GASPI world knobs (e.g. ``sanitize=True``).
    """
    cfg = ft_config_for(spec, n_spares=n_spares, fd_threads=fd_threads,
                        **cfg_overrides)
    plan = FaultPlan()
    injects: List[float] = []
    for t, rank in (kill_times or []):
        plan.kill_process(t, rank)
        injects.append(t)
    horizon = until or (spec.setup_time + spec.baseline_runtime) * 4 + 600
    # the pfs backend (and pfs_every mirroring) needs an actual PFS model
    needs_pfs = (cfg.checkpoint.backend == "pfs"
                 or cfg.checkpoint.pfs_every > 0)
    result = run_ft_application(
        cfg, ModelLanczosProgram(spec),
        machine_spec=machine_for(cfg),
        gaspi_config=gaspi_config,
        fault_plan=plan if plan.events else None,
        until=horizon,
        pfs_factory=(lambda sim: ParallelFileSystem(sim)) if needs_pfs
        else None,
    )
    workers = result.worker_results()
    if not workers or any(w["status"] != "done" for w in workers.values()):
        raise RuntimeError(
            f"scenario {name!r} did not complete: "
            f"{ {k: w['status'] for k, w in workers.items()} }"
        )
    total = max(w["t_done"] for w in workers.values())
    # deduplicate simultaneous injections per detection epoch
    unique_injects = sorted(set(injects))
    detection, reinit, redo, n_rec = _recovery_decomposition(
        result, unique_injects, spec
    )
    computation = total - redo - reinit - detection
    manager = CheckpointManager.maybe_of(result.run.world)
    return ScenarioOutcome(
        name=name,
        spec=spec,
        total_runtime=total,
        computation_time=computation,
        redo_work_time=redo,
        reinit_time=reinit,
        detection_time=detection,
        n_recoveries=n_rec,
        result=result,
        ckpt_phases={} if manager is None else dict(manager.phase_totals),
    )
