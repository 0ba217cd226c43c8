"""Per-job metadata store and data store (§4.1.3 "Metadata", §4.1.4).

The JM "maintains a metadata store that records the size and locality of each
dataset partition"; JPs keep the actual data.  In the simulation both live in
one :class:`MetadataStore` per job: every partition has a size and a
location, and optionally a real payload when the job runs actual UDFs.

Shuffle payloads: a CPU op feeding a shuffle produces *sharded* partitions —
a dict mapping the consumer's output-partition index to the items bound for
it.  A pull reads the exact shard size for real payloads and a weighted
split of the partition size otherwise.

Shuffle pulls: ``pull_sources`` returns a :class:`~repro.simcore.network.PullSet`.
When every shard of a pull is an even split (no ``shard_weights``, no read
dataset holding a dict payload), all output partitions of the network op
pull the same pairs, so the store builds that ``PullSet`` once and hands
the same object to every consumer.  The cached copy is valid while the
generations of the op's read datasets are unchanged; ``load_inputs``,
``record`` and ``invalidate_machine`` bump them, so a re-executed producer
makes the next pull re-resolve.
"""

from __future__ import annotations

from typing import Any, Optional

from ..dataflow.graph import DataHandle, Op
from ..simcore.network import PullSet

__all__ = ["PartitionRecord", "MetadataStore", "estimate_payload_mb", "DEFAULT_MB_PER_ELEMENT"]

# Rough in-memory footprint of one deserialized record; only used to convert
# real payload sizes into simulated MB (tests pin behaviour, not realism).
DEFAULT_MB_PER_ELEMENT = 1e-4

_NOTHING_SHARDED: frozenset[int] = frozenset()


def estimate_payload_mb(payload: Any) -> float:
    """Estimate the MB footprint of a real partition payload."""
    if payload is None:
        return 0.0
    if isinstance(payload, dict):
        return sum(estimate_payload_mb(v) for v in payload.values())
    if isinstance(payload, (list, tuple, set)):
        return max(len(payload) * DEFAULT_MB_PER_ELEMENT, 0.0)
    return DEFAULT_MB_PER_ELEMENT


class PartitionRecord:
    """Size, location and (optional) payload of one dataset partition."""

    __slots__ = ("size_mb", "location", "payload", "shard_sizes")

    def __init__(
        self,
        size_mb: float,
        location: Optional[int],
        payload: Any = None,
        shard_sizes: Optional[dict[int, float]] = None,
    ):
        self.size_mb = float(size_mb)
        self.location = location   # machine index; None = external input (HDFS)
        self.payload = payload
        self.shard_sizes = shard_sizes


class MetadataStore:
    """All partition records of one job, keyed by (data_id, partition)."""

    def __init__(self) -> None:
        self._records: dict[tuple[int, int], PartitionRecord] = {}
        # data_id -> bumped whenever one of its partitions is written or dropped
        self._generation: dict[int, int] = {}
        # data_ids with at least one dict (sharded real) payload partition;
        # rebound on the rare add, so size-only stores share one empty set
        self._sharded: frozenset[int] = _NOTHING_SHARDED
        # net op_id -> ((num_machines, read generations), shared PullSet)
        self._pulls: dict[int, tuple[tuple, PullSet]] = {}

    def _written(self, data_id: int, shard_sizes: Optional[dict]) -> None:
        self._generation[data_id] = self._generation.get(data_id, 0) + 1
        if shard_sizes is not None:
            self._sharded = self._sharded | {data_id}

    # -- loading job inputs ---------------------------------------------
    def load_inputs(self, handle: DataHandle) -> None:
        assert handle.initial is not None
        for i, (size_mb, payload) in enumerate(handle.initial):
            shard_sizes = None
            if isinstance(payload, dict):
                shard_sizes = {
                    k: estimate_payload_mb(v)
                    for k, v in payload.items()
                }
            self._records[(handle.data_id, i)] = PartitionRecord(
                size_mb, None, payload, shard_sizes
            )
            self._written(handle.data_id, shard_sizes)

    # -- recording produced partitions ------------------------------------
    def record(
        self,
        handle: DataHandle,
        partition: int,
        size_mb: float,
        location: int,
        payload: Any = None,
    ) -> None:
        shard_sizes = None
        if payload is not None:
            if isinstance(payload, dict):
                shard_sizes = {
                    k: estimate_payload_mb(v)
                    for k, v in payload.items()
                }
                size_mb = sum(shard_sizes.values())
            else:
                size_mb = estimate_payload_mb(payload)
        self._records[(handle.data_id, partition)] = PartitionRecord(
            size_mb, location, payload, shard_sizes
        )
        self._written(handle.data_id, shard_sizes)

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
            self._written(key[0], None)
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
            h.data_id in self._sharded for h in reads
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
            for i in range(handle.num_partitions):
                rec = records[(did, i)]
                ss = rec.shard_sizes
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

    def gather_shards(self, net_op: Op, out_partition: int) -> Optional[list]:
        """The real items bound for ``out_partition`` from every dict payload
        ``net_op`` reads, in source order; ``None`` when no read partition
        holds one (size-only data)."""
        reads = net_op.reads
        if not any(h.data_id in self._sharded for h in reads):
            return None
        records = self._records
        items: list = []
        real = False
        for h in reads:
            did = h.data_id
            for i in range(h.num_partitions):
                payload = records[(did, i)].payload
                if isinstance(payload, dict):
                    real = True
                    items.extend(payload.get(out_partition, ()))
        return items if real else None
