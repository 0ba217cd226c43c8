"""Per-job metadata store (§4.1.3 "Metadata", §4.1.4).

The JM "maintains a metadata store that records the size and locality of each
dataset partition"; JPs keep the actual data.  The simulation carries sizes
only: every partition has a size and a location, and the APIs that compute
real data measure it before they submit (:mod:`repro.api`).

Shuffle pulls: ``pull_sources`` returns a :class:`~repro.simcore.network.PullSet`
of one shard of every partition the network op reads: the partition's
measured shard size where its dataset gives one (``DataHandle.shard_sizes``),
a ``shard_weights`` split of its size otherwise.  When every shard of a pull
is an even split (no ``shard_weights``, no shard sizes on a read dataset),
all output partitions of the network op pull the same pairs, so the store
builds that ``PullSet`` once and hands the same object to every consumer.
The cached copy is valid while the generations of the op's read datasets
are unchanged; ``load_inputs``, ``record`` and ``invalidate_machine`` bump
them, so a re-executed producer makes the next pull re-resolve.
"""

from __future__ import annotations

from typing import Optional

from ..dataflow.graph import DataHandle, Op
from ..simcore.network import PullSet

__all__ = ["PartitionRecord", "MetadataStore"]


class PartitionRecord:
    """Size and location of one dataset partition."""

    __slots__ = ("size_mb", "location")

    def __init__(self, size_mb: float, location: Optional[int]):
        self.size_mb = float(size_mb)
        self.location = location   # machine index; None = external input (HDFS)


class MetadataStore:
    """All partition records of one job, keyed by (data_id, partition)."""

    def __init__(self) -> None:
        self._records: dict[tuple[int, int], PartitionRecord] = {}
        # data_id -> bumped whenever one of its partitions is written or dropped
        self._generation: dict[int, int] = {}
        # net op_id -> ((num_machines, read generations), shared PullSet)
        self._pulls: dict[int, tuple[tuple, PullSet]] = {}

    def _written(self, data_id: int) -> None:
        self._generation[data_id] = self._generation.get(data_id, 0) + 1

    # -- loading job inputs ---------------------------------------------
    def load_inputs(self, handle: DataHandle) -> None:
        assert handle.is_input
        for i, size_mb in enumerate(handle.sizes):
            self._records[(handle.data_id, i)] = PartitionRecord(size_mb, None)
        self._written(handle.data_id)

    # -- recording produced partitions ------------------------------------
    def record(self, handle: DataHandle, partition: int, size_mb: float, location: int) -> None:
        self._records[(handle.data_id, partition)] = PartitionRecord(size_mb, location)
        self._written(handle.data_id)

    # -- fault layer -------------------------------------------------------
    def invalidate_machine(self, machine: int) -> list[tuple[int, int]]:
        """Drop every partition record located on ``machine`` (its data died
        with the worker) and return the dropped ``(data_id, partition)``
        keys, sorted, so lineage recovery can decide which producer tasks
        must re-execute.  External inputs (location ``None``) survive — they
        model durable HDFS storage, not worker-local shards."""
        dropped = sorted(
            key for key, rec in self._records.items() if rec.location == machine
        )
        for key in dropped:
            del self._records[key]
            self._written(key[0])
        return dropped

    def drop_pulls(self) -> None:
        """Forget the shared pulls and the generations that keyed them (the
        job is finished; nothing pulls again).  Clearing both together keeps
        the cache sound: a later entry is keyed by generations counted
        from zero again."""
        self._pulls.clear()
        self._generation.clear()

    # -- queries -----------------------------------------------------------
    def find(self, handle: DataHandle, partition: int) -> Optional[PartitionRecord]:
        """The partition's record, or ``None`` when it is not recorded."""
        return self._records.get((handle.data_id, partition))

    def get(self, handle: DataHandle, partition: int) -> PartitionRecord:
        try:
            return self._records[(handle.data_id, partition)]
        except KeyError:
            raise KeyError(
                f"partition {partition} of dataset {handle.name!r} not recorded yet"
            ) from None

    def pull_sources(self, net_op: Op, out_partition: int, num_machines: int) -> PullSet:
        """(machine, size) pairs a network monotask pulls for one output
        partition: the matching shard of every partition of every read
        dataset.  External-input partitions count as remote reads from a
        round-robin 'HDFS' node.

        An evenly split pull is the same for every output partition, so it
        is built once per generation of the op's reads and shared."""
        reads = net_op.reads
        if net_op.shard_weights is not None or any(
            h.shard_sizes is not None for h in reads
        ):
            return self._build_pull(net_op, out_partition, num_machines)
        generation = self._generation
        key = (num_machines, tuple([generation.get(h.data_id, 0) for h in reads]))
        cached = self._pulls.get(net_op.op_id)
        if cached is not None and cached[0] == key:
            return cached[1]
        pull = self._build_pull(net_op, out_partition, num_machines)
        self._pulls[net_op.op_id] = (key, pull)
        return pull

    def _build_pull(self, net_op: Op, out_partition: int, num_machines: int) -> PullSet:
        num_shards = net_op.parallelism
        weights = net_op.shard_weights
        total_w = sum(weights) if weights is not None else None
        records = self._records
        machines: list[int] = []
        sizes: list[float] = []
        for handle in net_op.reads:
            did = handle.data_id
            shard_sizes = handle.shard_sizes
            for i in range(handle.num_partitions):
                rec = records[(did, i)]
                ss = None if shard_sizes is None else shard_sizes[i]
                if ss is not None:
                    size = ss.get(out_partition, 0.0)
                elif weights is not None:
                    size = rec.size_mb * weights[out_partition] / total_w
                else:
                    size = rec.size_mb / num_shards
                loc = rec.location
                machines.append(i % num_machines if loc is None else loc)
                sizes.append(size)
        return PullSet(machines, sizes)
