"""Job processes (JPs) — a job's execution agent (§4.1.4).

:class:`JobProcess` is the base class of the job's
:class:`~repro.execution.jobmanager.JobManager`, so one object executes a
job.  The paper runs a JP per job on every worker hosting its tasks; the
simulation charges no cost to a JP itself, so the JM runs its own monotasks
and takes the worker of each from its task's placement.  A monotask runs on
that worker's machine:

* **CPU** — occupies one core (reserving it in the allocation ledger, which
  is what makes Ursa's SE≈UE: the core is held exactly while it is driven)
  for the fused chain's work.
* **Network** — opens a pull-based transfer from all sender machines at once
  through the cluster fabric (§4.2.3).
* **Disk** — submits the read/write to the machine's disk.

Every completion goes through one ``_finish`` callback, which records the
sizes of the outputs and reports back through ``monotask_finished``, where
the JM "releases the resource to the worker when it completes a monotask".
The simulation carries sizes only: no real data is computed here, and an
output's size is its dataset's measured one where the API gave one
(``DataHandle.sizes``), otherwise the size the JM resolved at ready time.
"""

from __future__ import annotations

from typing import Callable

from ..dataflow.graph import ResourceType
from ..dataflow.monotask import Monotask, MonotaskState

__all__ = ["JobProcess"]

DoneCallback = Callable[[Monotask], None]


class JobProcess:
    """Executes the monotasks of one job on the workers its tasks hold.

    The base of the job's JM: it acts on the JM's ``sim``, ``cluster``,
    ``metadata`` and ``reserve_per_task`` and reports each completion to
    its ``monotask_finished``."""

    def run(self, mt: Monotask, on_done: DoneCallback) -> None:
        if mt.state is not MonotaskState.QUEUED:
            raise RuntimeError(f"{mt!r} must be queued before running (is {mt.state})")
        mt.state = MonotaskState.RUNNING
        mt.started_at = self.sim.now
        machine = self.cluster.machine(mt.task.worker)
        if mt.rtype is ResourceType.CPU:
            # Each CPU monotask uses exactly one core at full utilization
            # until it completes (§4.2.1) — reserve it for the SE ledger.
            # Under the executor-model baselines the container holds it.
            if self.reserve_per_task:
                machine.reserve_cores(1)
            mt.handle = machine.cpu.submit(mt.work_mb, self._finish, mt, on_done)
        elif mt.rtype is ResourceType.NETWORK:
            mt.handle = self.cluster.network.start_transfer(
                machine.index, mt.sources or [], self._finish, mt, on_done
            )
        else:
            mt.handle = machine.disk.submit(mt.work_mb, self._finish, mt, on_done)

    def abort_monotask(self, mt: Monotask) -> float:
        """Fault layer: cancel a RUNNING monotask's in-flight service and
        release what it held.  Returns the work (MB) it had *completed* when
        aborted — wasted effort that re-execution will repeat.  The caller
        owns the monotask-state rewind and the worker-slot accounting."""
        handle, mt.handle = mt.handle, None
        machine = self.cluster.machine(mt.task.worker)
        if mt.rtype is ResourceType.NETWORK:
            self.cluster.network.cancel(machine.index, handle)
            return 0.0
        if mt.rtype is ResourceType.CPU:
            if self.reserve_per_task:
                machine.release_cores(1)
            remaining = machine.cpu.cancel(handle)
        else:
            remaining = machine.disk.cancel(handle)
        return max(0.0, mt.work_mb - remaining)

    # ------------------------------------------------------------------
    def _finish(self, mt: Monotask, on_done: DoneCallback) -> None:
        # zero-work submissions and local-only transfers complete through a
        # call_soon no abort can withdraw; it fires at the abort instant,
        # after the fault layer rewound the monotask, so it falls through
        if mt.state is not MonotaskState.RUNNING:
            return
        mt.handle = None
        worker = mt.task.worker
        if mt.rtype is ResourceType.CPU:
            if self.reserve_per_task:
                self.cluster.machine(worker).release_cores(1)
            outputs = mt.chain_outputs
        else:
            dataset = mt.head_op.output
            outputs = () if dataset is None else ((dataset, mt.expected_out_mb),)
        # each output is recorded at its dataset's measured size where the
        # dataset gives one, otherwise at the size resolved at ready time
        record, part = self.metadata.record, mt.partition_index
        for dataset, size in outputs:
            sizes = dataset.sizes
            record(dataset, part, size if sizes is None else sizes[part], worker)
        mt.state = MonotaskState.DONE
        mt.finished_at = self.sim.now
        self.monotask_finished(mt)
        on_done(mt)
