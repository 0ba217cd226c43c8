"""Real partitions of API jobs, evaluated before the job is submitted.

The simulator carries sizes only: the JM estimates each monotask from the
input sizes it knows at ready time (§4.2.1).  The APIs still return real
results, so this module keeps, per OpGraph, each CPU op's UDF and each
dataset's real partitions, and :func:`evaluate` runs every op on them in
topological order: a CPU op applies ``udf(ins, i)`` where any input is real
(otherwise its first input passes through), a network op gathers the items
bound for each output partition from every dict (sharded) partition it
reads, and a disk op passes its first input through.  Each produced dataset
then gets its measured sizes through ``OpGraph.set_sizes``: a partition
weighs :func:`estimate_payload_mb` of its value, and a dict value also gives
the size of each shard, which the simulated pull reads.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence
from weakref import WeakKeyDictionary

from ..dataflow.graph import DataHandle, GraphError, Op, OpGraph, ResourceType

__all__ = ["DEFAULT_MB_PER_ELEMENT", "estimate_payload_mb", "set_udf", "set_input",
           "evaluate", "partitions"]

# Rough in-memory footprint of one deserialized record; only used to convert
# real payload sizes into simulated MB (tests pin behaviour, not realism).
DEFAULT_MB_PER_ELEMENT = 1e-4

# A UDF receives the list of input-partition payloads (one entry per dataset
# read, in read() order) and the output partition index, and returns the
# output partition payload.
Udf = Callable[[list, int], Any]

# per graph, held only as long as the graph: op_id -> UDF, data_id -> values
_UDFS: "WeakKeyDictionary[OpGraph, dict[int, Udf]]" = WeakKeyDictionary()
_VALUES: "WeakKeyDictionary[OpGraph, dict[int, list]]" = WeakKeyDictionary()


def estimate_payload_mb(payload: Any) -> float:
    """Estimate the MB footprint of a real partition payload."""
    if payload is None:
        return 0.0
    if isinstance(payload, dict):
        return sum(estimate_payload_mb(v) for v in payload.values())
    if isinstance(payload, (list, tuple, set)):
        return max(len(payload) * DEFAULT_MB_PER_ELEMENT, 0.0)
    return DEFAULT_MB_PER_ELEMENT


def set_udf(op: Op, udf: Udf) -> Op:
    """Attach ``udf`` to the CPU op ``op``; returns ``op`` for chaining."""
    if op.rtype is not ResourceType.CPU:
        raise GraphError(f"only CPU ops carry UDFs ({op.name} is {op.rtype.value})")
    _UDFS.setdefault(op.graph, {})[op.op_id] = udf
    return op


def _measure(values: Sequence[Any]) -> tuple[list[float], Optional[list]]:
    """Per-partition sizes of real values, and per partition the shard sizes
    of a dict value (``None`` when no partition is a dict)."""
    shards = [
        {k: estimate_payload_mb(v) for k, v in value.items()} if isinstance(value, dict) else None
        for value in values
    ]
    sizes = [
        estimate_payload_mb(v) if s is None else sum(s.values()) for v, s in zip(values, shards)
    ]
    return sizes, (None if all(s is None for s in shards) else shards)


def set_input(handle: DataHandle, values: Sequence[Any]) -> None:
    """Mark ``handle`` as a job input holding the real partitions
    ``values``; each partition weighs at least 1e-6 MB."""
    values = list(values)
    sizes, shards = _measure(values)
    handle.graph.set_input(handle, [max(size, 1e-6) for size in sizes], shards)
    _VALUES.setdefault(handle.graph, {})[handle.data_id] = values


def _gather(reads: list, i: int) -> Optional[list]:
    shards = [v for values in reads for v in values or () if isinstance(v, dict)]
    return [item for shard in shards for item in shard.get(i, ())] if shards else None


def evaluate(graph: OpGraph) -> None:
    """Run every op of ``graph`` on the real partitions and set each produced
    dataset's measured sizes; a dataset with a partition that has no value
    keeps the sizes its producer resolves at ready time."""
    udfs, values = _UDFS.get(graph, {}), _VALUES.setdefault(graph, {})
    for op in graph.topological_order():
        dataset = op.output
        if dataset is None:
            continue
        reads = [values.get(h.data_id) for h in op.reads]
        udf = udfs.get(op.op_id)
        out: list = []
        for i in range(op.parallelism):
            if op.rtype is ResourceType.NETWORK:
                out.append(_gather(reads, i))
                continue
            ins = [None if v is None or i >= len(v) else v[i] for v in reads]
            if udf is not None and any(x is not None for x in ins):
                out.append(udf(ins, i))
            else:
                out.append(ins[0] if ins else None)
        values[dataset.data_id] = out
        if all(v is not None for v in out):
            graph.set_sizes(dataset, *_measure(out))


def partitions(handle: DataHandle) -> list[Any]:
    """The real partitions of ``handle`` after :func:`evaluate` (``[]``
    where one has no value)."""
    return [[] if v is None else v for v in _VALUES[handle.graph][handle.data_id]]
