"""Job processes (JPs) — a job's execution agent (§4.1.4).

:class:`JobProcess` is the base class of the job's
:class:`~repro.execution.jobmanager.JobManager`, so one object executes a
job.  The paper runs a JP per job on every worker hosting its tasks; the
simulation charges no cost to a JP itself, so the JM runs its own monotasks
and takes the worker of each from its task's placement.  A monotask runs on
that worker's machine:

* **CPU** — occupies one core (reserving it in the allocation ledger, which
  is what makes Ursa's SE≈UE: the core is held exactly while it is driven),
  runs the fused UDF chain on completion, and records outputs.
* **Network** — opens a pull-based transfer from all sender machines at once
  through the cluster fabric (§4.2.3).
* **Disk** — submits the read/write to the machine's disk.

Every completion goes through one ``_finish`` callback, which records the
outputs and reports back through ``monotask_finished``, where the JM
"releases the resource to the worker when it completes a monotask".
"""

from __future__ import annotations

from typing import Any, Callable

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
        meta = self.metadata
        part = mt.partition_index
        worker = mt.task.worker
        if mt.rtype is ResourceType.CPU:
            if self.reserve_per_task:
                self.cluster.machine(worker).release_cores(1)
            # Run the fused chain's UDFs on real payloads where any input has
            # one, and record each output: the real payload where one was
            # materialized, otherwise the size expected at ready time.
            expected = dict(mt.chain_outputs or ())
            internal: dict[int, Any] = {}
            for op in mt.ops:
                ins = []
                for h in op.reads:
                    if h.data_id in internal:
                        ins.append(internal[h.data_id])
                    else:
                        rec = meta.find(h, part)
                        ins.append(None if rec is None else rec.payload)
                if op.udf is not None and any(x is not None for x in ins):
                    out = op.udf(ins, part)
                else:
                    out = ins[0] if ins else None
                dataset = op.output
                if dataset is None:
                    continue
                internal[dataset.data_id] = out
                if out is not None:
                    meta.record(dataset, part, 0.0, worker, out)
                else:
                    meta.record(dataset, part, expected.get(dataset, mt.expected_out_mb), worker)
        elif mt.head_op.output is not None:
            op = mt.head_op
            dataset = op.output
            if mt.rtype is ResourceType.NETWORK:
                # assemble the pulled partition (real payloads when present)
                payload = meta.gather_shards(op, part)
                if payload is not None:
                    meta.record(dataset, part, 0.0, worker, payload)
                else:
                    meta.record(dataset, part, mt.input_size_mb, worker)
            else:
                # disk read surfaces the input payload into memory; disk
                # write records the final dataset at this worker
                payload = None
                for h in op.reads:
                    rec = meta.find(h, part)
                    if rec is not None:
                        payload = rec.payload
                        break
                meta.record(dataset, part, mt.expected_out_mb, worker, payload)
        mt.state = MonotaskState.DONE
        mt.finished_at = self.sim.now
        self.monotask_finished(mt)
        on_done(mt)
