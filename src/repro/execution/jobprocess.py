"""Job processes (JPs) — per-(job, worker) execution agents (§4.1.4).

A JP runs monotasks on its worker's machine:

* **CPU** — occupies one core (reserving it in the allocation ledger, which
  is what makes Ursa's SE≈UE: the core is held exactly while it is driven),
  runs the fused UDF chain on completion, and records outputs.
* **Network** — opens a pull-based transfer from all sender machines at once
  through the cluster fabric (§4.2.3).
* **Disk** — submits the read/write to the machine's disk.

The JP reports completion back to the JM, which "releases the resource to
the worker when it completes a monotask".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..cluster.machine import Machine
from ..dataflow.graph import ResourceType
from ..dataflow.monotask import Monotask, MonotaskState

if TYPE_CHECKING:  # pragma: no cover
    from .jobmanager import JobManager

__all__ = ["JobProcess"]

DoneCallback = Callable[[Monotask], None]


class JobProcess:
    """Executes the monotasks of one job placed on one worker."""

    def __init__(self, jm: "JobManager", machine: Machine):
        self.jm = jm
        self.machine = machine
        # mt_id -> the service request / transfer driving it.  Every _finish_*
        # callback checks membership first: zero-work submissions and
        # local-only transfers complete through an un-cancellable call_soon,
        # so after a fault-layer abort the stale completion must fall through
        # silently instead of re-finishing a rewound monotask.
        self._inflight: dict[int, Any] = {}

    # ------------------------------------------------------------------
    def run(self, mt: Monotask, on_done: DoneCallback) -> None:
        if mt.state is not MonotaskState.QUEUED:
            raise RuntimeError(f"{mt!r} must be queued before running (is {mt.state})")
        mt.state = MonotaskState.RUNNING
        mt.started_at = self.jm.sim.now
        if mt.rtype is ResourceType.CPU:
            self._run_cpu(mt, on_done)
        elif mt.rtype is ResourceType.NETWORK:
            self._run_network(mt, on_done)
        else:
            self._run_disk(mt, on_done)

    def abort_monotask(self, mt: Monotask) -> float:
        """Fault layer: cancel a RUNNING monotask's in-flight service and
        release what it held.  Returns the work (MB) it had *completed* when
        aborted — wasted effort that re-execution will repeat.  The caller
        owns the monotask-state rewind and the worker-slot accounting."""
        handle = self._inflight.pop(mt.mt_id, None)
        if handle is None:
            return 0.0
        if mt.rtype is ResourceType.CPU:
            if self.jm.reserve_cpu_cores:
                self.machine.release_cores(1)
            remaining = self.machine.cpu.cancel(handle)
            return max(0.0, mt.work_mb - remaining)
        if mt.rtype is ResourceType.NETWORK:
            self.jm.cluster.network.cancel(handle)
            return 0.0
        remaining = self.machine.disk.cancel(handle)
        return max(0.0, mt.work_mb - remaining)

    # ------------------------------------------------------------------
    def _run_cpu(self, mt: Monotask, on_done: DoneCallback) -> None:
        # Each CPU monotask uses exactly one core at full utilization until
        # it completes (§4.2.1) — reserve it for the SE ledger.  Under the
        # executor-model baselines the container already holds the cores.
        if self.jm.reserve_cpu_cores:
            self.machine.reserve_cores(1)
        self._inflight[mt.mt_id] = self.machine.cpu.submit(
            mt.work_mb, self._finish_cpu, mt, on_done
        )

    def _finish_cpu(self, mt: Monotask, on_done: DoneCallback) -> None:
        if mt.mt_id not in self._inflight:
            return  # aborted by the fault layer after a zero-work call_soon
        if self.jm.reserve_cpu_cores:
            self.machine.release_cores(1)
        real_outputs = self._execute_udf_chain(mt)
        self._record_outputs(mt, real_outputs)
        self._complete(mt, on_done)

    def _execute_udf_chain(self, mt: Monotask) -> dict[int, Any]:
        """Run the fused chain's UDFs on real payloads, if any input has one.

        Returns data_id -> payload for every chain output that was actually
        materialized; empty in size-only mode.
        """
        meta = self.jm.metadata
        internal: dict[int, Any] = {}
        produced: dict[int, Any] = {}
        for op in mt.ops:
            ins = []
            for h in op.reads:
                if h.data_id in internal:
                    ins.append(internal[h.data_id])
                elif meta.has(h, mt.partition_index):
                    ins.append(meta.get(h, mt.partition_index).payload)
                else:
                    ins.append(None)
            if op.udf is not None and any(x is not None for x in ins):
                out = op.udf(ins, mt.partition_index)
            else:
                out = ins[0] if ins else None
            if op.output is not None:
                internal[op.output.data_id] = out
                if out is not None:
                    produced[op.output.data_id] = out
        return produced

    def _run_network(self, mt: Monotask, on_done: DoneCallback) -> None:
        sources = mt.sources or []
        self._inflight[mt.mt_id] = self.jm.cluster.network.start_transfer(
            self.machine.index, sources, self._finish_network, mt, on_done
        )

    def _finish_network(self, mt: Monotask, on_done: DoneCallback) -> None:
        if mt.mt_id not in self._inflight:
            return  # aborted after a local-only call_soon completion
        # Assemble the pulled partition (real payloads when present).
        op = mt.head_op
        out = op.output
        if out is not None:
            payload = self.jm.metadata.gather_shards(op, mt.partition_index)
            size = mt.input_size_mb if payload is None else None
            if payload is not None:
                self.jm.metadata.record(out, mt.partition_index, 0.0, self.machine.index, payload)
            else:
                self.jm.metadata.record(out, mt.partition_index, size, self.machine.index)
        self._complete(mt, on_done)

    def _run_disk(self, mt: Monotask, on_done: DoneCallback) -> None:
        self._inflight[mt.mt_id] = self.machine.disk.submit(
            mt.work_mb, self._finish_disk, mt, on_done
        )

    def _finish_disk(self, mt: Monotask, on_done: DoneCallback) -> None:
        if mt.mt_id not in self._inflight:
            return  # aborted by the fault layer after a zero-work call_soon
        op = mt.head_op
        out = op.output
        if out is not None:
            # disk read surfaces the input payload into memory; disk write
            # records the final dataset at this worker
            payload = None
            for h in op.reads:
                if self.jm.metadata.has(h, mt.partition_index):
                    rec = self.jm.metadata.get(h, mt.partition_index)
                    payload = rec.payload
                    break
            self.jm.metadata.record(
                out, mt.partition_index, mt.expected_out_mb, self.machine.index, payload
            )
        self._complete(mt, on_done)

    # ------------------------------------------------------------------
    def _record_outputs(self, mt: Monotask, real_outputs: dict[int, Any]) -> None:
        """Record chain outputs: real payloads where materialized, otherwise
        the expected sizes computed when the task became ready."""
        meta = self.jm.metadata
        expected = dict(mt.chain_outputs or [])
        for op in mt.ops:
            handle = op.output
            if handle is None:
                continue
            payload = real_outputs.get(handle.data_id)
            if payload is not None:
                meta.record(handle, mt.partition_index, 0.0, self.machine.index, payload)
            else:
                size = expected.get(handle, mt.expected_out_mb)
                meta.record(handle, mt.partition_index, size, self.machine.index)

    def _complete(self, mt: Monotask, on_done: DoneCallback) -> None:
        self._inflight.pop(mt.mt_id, None)
        mt.state = MonotaskState.DONE
        mt.finished_at = self.jm.sim.now
        self.jm.monotask_finished(mt)
        on_done(mt)
