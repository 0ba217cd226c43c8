"""Ursa's dataflow primitives (§4.1.1).

A job is an :class:`OpGraph` of operations over distributed datasets:

* ``OpGraph.create_data(partitions)`` — declare a :class:`DataHandle`, a
  distributed dataset with a fixed number of partitions;
* ``OpGraph.create_op(rtype)`` — declare an :class:`Op` that uses a *single*
  resource type (CPU, NETWORK or DISK);
* ``op1.to(op2, dep)`` — add a dependency edge, either ``SYNC`` (barrier:
  op2 starts only after op1 finished on *all* partitions — a shuffle) or
  ``ASYNC`` (pipelined: partition-wise one-to-one).

Datasets carry sizes only.  Workload generators set explicit output sizes
and CPU-work factors so large synthetic jobs run without materializing
data; the high-level Dataset/SQL/Pregel APIs run their user-defined
functions on real data before they submit and give each produced dataset
its measured sizes (``OpGraph.set_sizes``).
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Mapping, Optional, Sequence

from ..rules import POS_INT

__all__ = ["ResourceType", "DepType", "DataHandle", "Op", "OpGraph", "GraphError"]


class GraphError(ValueError):
    """Raised for structurally invalid OpGraphs."""


class ResourceType(enum.Enum):
    """The single resource an Op (and its monotasks) uses (§1: monotask)."""

    CPU = "cpu"
    NETWORK = "network"
    DISK = "disk"

    # members are singletons: hash by identity in C instead of Enum's
    # Python-level hash of the member name
    __hash__ = object.__hash__


class DepType(enum.Enum):
    # barrier: the monotask dependency is logically fully bipartite, but the
    # planner stores it once per op-group edge (a shared tuple per side)
    SYNC = "sync"
    ASYNC = "async"  # pipelined; monotask dependency is one-to-one

    __hash__ = object.__hash__


# Maps (output partition index, input sizes in MB) to the produced size in MB.
SizeFn = Callable[[int, float], float]

# Per partition, the {output partition: MB} shards a shuffle pulls, or None
# for an even split.
ShardSizes = Optional[Sequence[Optional[Mapping[int, float]]]]


class DataHandle:
    """A distributed dataset with ``partitions`` partitions."""

    __slots__ = ("graph", "data_id", "num_partitions", "name", "producer", "sizes", "shard_sizes")

    def __init__(self, graph: "OpGraph", data_id: int, num_partitions: int, name: str):
        if not POS_INT.ok(num_partitions):
            raise GraphError(
                f"dataset {name!r} needs a positive integer partition count, "
                f"got {num_partitions!r}"
            )
        self.graph = graph
        self.data_id = data_id
        self.num_partitions = num_partitions
        self.name = name
        self.producer: Optional["Op"] = None
        # Per-partition MB known before the job runs (a job input's, or a
        # produced dataset's as measured on real data); see set_sizes().
        self.sizes: Optional[list[float]] = None
        self.shard_sizes: ShardSizes = None

    @property
    def is_input(self) -> bool:
        return self.producer is None and self.sizes is not None

    def __repr__(self) -> str:  # pragma: no cover
        return f"DataHandle({self.name}, p={self.num_partitions})"


class Op:
    """A single-resource operation.  Fluent builder API mirrors the paper:

    ``dag.create_op(CPU).read(msg).create(out).set_m2i(2.0)``

    The paper's user-defined function is attached in :mod:`repro.api`,
    which runs it on real data before the job is submitted.
    """

    __slots__ = (
        "graph", "op_id", "rtype", "name", "reads", "creates",
        "size_fn", "cpu_work_factor", "out_edges", "in_edges",
        "m2i", "shard_weights",
    )

    def __init__(self, graph: "OpGraph", op_id: int, rtype: ResourceType, name: str):
        self.graph = graph
        self.op_id = op_id
        self.rtype = rtype
        self.name = name
        self.reads: list[DataHandle] = []
        self.creates: list[DataHandle] = []
        self.size_fn: Optional[SizeFn] = None
        # Actual CPU work per MB of input (the *estimate* stays input-size,
        # per §4.2.1 footnote 3: "we only use the input data size ... and rely
        # on processing rate monitoring ... to adjust for the difference").
        self.cpu_work_factor: float = 1.0
        self.out_edges: list[tuple["Op", DepType]] = []
        self.in_edges: list[tuple["Op", DepType]] = []
        # Memory-to-input ratio for the §4.2.1 memory estimate; high-level
        # APIs set operation-specific values (e.g. 2 for filter, 1+s for
        # join with selectivity s).
        self.m2i: float = 1.5
        # For NETWORK ops: relative weight of each output partition's shard
        # when splitting a producer partition without measured shard sizes
        # (receiver-side skew).  None means uniform 1/parallelism shards.
        self.shard_weights: Optional[list[float]] = None

    # -- builder -------------------------------------------------------
    def read(self, *handles: DataHandle) -> "Op":
        for h in handles:
            self._check_same_graph(h)
            self.reads.append(h)
        return self

    def create(self, *handles: DataHandle) -> "Op":
        for h in handles:
            self._check_same_graph(h)
            if h.producer is not None:
                raise GraphError(
                    f"dataset {h.name!r} already produced by op {h.producer.name!r}"
                )
            if h.is_input:
                raise GraphError(f"dataset {h.name!r} is a job input; ops cannot create it")
            h.producer = self
            self.creates.append(h)
        return self

    def set_output_size(self, size_fn: SizeFn) -> "Op":
        self.size_fn = size_fn
        return self

    def set_cpu_work_factor(self, factor: float) -> "Op":
        if self.rtype is not ResourceType.CPU:
            raise GraphError("cpu_work_factor applies only to CPU ops")
        if factor <= 0:
            raise GraphError("cpu_work_factor must be positive")
        self.cpu_work_factor = factor
        return self

    def set_m2i(self, m2i: float) -> "Op":
        if m2i <= 0:
            raise GraphError("m2i must be positive")
        self.m2i = m2i
        return self

    def set_shard_weights(self, weights: Sequence[float]) -> "Op":
        if self.rtype is not ResourceType.NETWORK:
            raise GraphError("shard_weights apply only to network ops")
        if len(weights) != self.parallelism:
            raise GraphError(
                f"{len(weights)} shard weights for parallelism {self.parallelism}"
            )
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise GraphError("shard weights must be non-negative with positive sum")
        self.shard_weights = [float(w) for w in weights]
        return self

    def to(self, other: "Op", dep: DepType = DepType.ASYNC) -> "Op":
        """Create a dependency edge ``self -> other``."""
        if other.graph is not self.graph:
            raise GraphError("cannot connect ops from different graphs")
        if other is self:
            raise GraphError(f"op {self.name!r} cannot depend on itself")
        self.out_edges.append((other, dep))
        other.in_edges.append((self, dep))
        return self

    # -- derived properties --------------------------------------------
    @property
    def parallelism(self) -> int:
        """Number of monotasks this op expands to = partitions of its output
        (or of its first read if the op creates nothing, e.g. a final sink)."""
        if self.creates:
            return self.creates[0].num_partitions
        if self.reads:
            return self.reads[0].num_partitions
        raise GraphError(f"op {self.name!r} reads and creates nothing")

    @property
    def output(self) -> Optional[DataHandle]:
        return self.creates[0] if self.creates else None

    def _check_same_graph(self, h: DataHandle) -> None:
        if h.graph is not self.graph:
            raise GraphError("dataset belongs to a different OpGraph")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Op({self.name}, {self.rtype.value})"


class OpGraph:
    """A job's operation graph (the paper's ``OpGraph``)."""

    def __init__(self, name: str = "job"):
        self.name = name
        self.ops: list[Op] = []
        self.datasets: list[DataHandle] = []

    # -- construction ---------------------------------------------------
    def create_data(self, num_partitions: int, name: str = "") -> DataHandle:
        h = DataHandle(self, len(self.datasets), num_partitions, name or f"d{len(self.datasets)}")
        self.datasets.append(h)
        return h

    def create_op(self, rtype: ResourceType, name: str = "") -> Op:
        op = Op(self, len(self.ops), rtype, name or f"op{len(self.ops)}")
        self.ops.append(op)
        return op

    def set_input(
        self, handle: DataHandle, sizes_mb: Sequence[float], shard_sizes: ShardSizes = None
    ) -> None:
        """Mark ``handle`` as a pre-existing job input (e.g. an HDFS file)
        of the given sizes (see :meth:`set_sizes`)."""
        if handle.producer is not None:
            raise GraphError(f"dataset {handle.name!r} is produced by an op")
        self.set_sizes(handle, sizes_mb, shard_sizes)

    def set_sizes(
        self, handle: DataHandle, sizes: Sequence[float], shard_sizes: ShardSizes = None
    ) -> None:
        """Give ``handle`` its per-partition sizes in MB and, optionally, per
        partition the ``{out_partition: MB}`` shards a shuffle reading it
        pulls (``None`` splits evenly).  A job input's sizes are loaded when
        its JM starts; a produced dataset's are recorded as it is produced."""
        for what, seq in (("sizes", sizes), ("shard-size maps", shard_sizes)):
            if seq is not None and len(seq) != handle.num_partitions:
                raise GraphError(
                    f"dataset {handle.name!r}: {len(seq)} {what} for "
                    f"{handle.num_partitions} partitions"
                )
        sizes = [float(size) for size in sizes]
        for i, size in enumerate(sizes):
            if not (math.isfinite(size) and size >= 0):
                raise GraphError(
                    f"dataset {handle.name!r} partition {i}: size must be a finite "
                    f"non-negative number of MB, got {size}"
                )
        handle.sizes = sizes
        handle.shard_sizes = None if shard_sizes is None else list(shard_sizes)

    # -- validation -----------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants before planning.

        * the op DAG is acyclic;
        * every read dataset is either a job input or produced by some op
          that precedes the reader;
        * async edges connect ops of equal parallelism (one-to-one);
        * network/disk ops create at most one dataset.
        """
        self._check_acyclic()
        for op in self.ops:
            for h in op.reads:
                if not h.is_input and h.producer is None:
                    raise GraphError(
                        f"op {op.name!r} reads dataset {h.name!r} which is "
                        f"neither a job input nor produced by any op"
                    )
            for parent, dep in op.in_edges:
                if dep is DepType.ASYNC and parent.parallelism != op.parallelism:
                    raise GraphError(
                        f"async edge {parent.name!r}->{op.name!r} requires equal "
                        f"parallelism ({parent.parallelism} != {op.parallelism})"
                    )
            if op.rtype is not ResourceType.CPU and len(op.creates) > 1:
                raise GraphError(f"{op.rtype.value} op {op.name!r} creates multiple datasets")

    def _check_acyclic(self) -> None:
        state: dict[int, int] = {}  # 0 visiting, 1 done

        for root in self.ops:
            if root.op_id in state:
                continue
            stack: list[tuple[Op, int]] = [(root, 0)]
            while stack:
                op, idx = stack.pop()
                if idx == 0:
                    if state.get(op.op_id) == 1:
                        continue
                    state[op.op_id] = 0
                if idx < len(op.out_edges):
                    stack.append((op, idx + 1))
                    child = op.out_edges[idx][0]
                    cstate = state.get(child.op_id)
                    if cstate == 0:
                        raise GraphError(f"OpGraph {self.name!r} has a cycle through {child.name!r}")
                    if cstate is None:
                        stack.append((child, 0))
                else:
                    state[op.op_id] = 1

    # -- convenience -----------------------------------------------------
    def roots(self) -> list[Op]:
        return [op for op in self.ops if not op.in_edges]

    def topological_order(self) -> list[Op]:
        self._check_acyclic()
        indeg = {op.op_id: len(op.in_edges) for op in self.ops}
        frontier = [op for op in self.ops if indeg[op.op_id] == 0]
        order: list[Op] = []
        while frontier:
            op = frontier.pop()
            order.append(op)
            for child, _dep in op.out_edges:
                indeg[child.op_id] -= 1
                if indeg[child.op_id] == 0:
                    frontier.append(child)
        if len(order) != len(self.ops):  # pragma: no cover - caught by _check_acyclic
            raise GraphError("cycle detected")
        return order

    def __repr__(self) -> str:  # pragma: no cover
        return f"OpGraph({self.name}, ops={len(self.ops)}, datasets={len(self.datasets)})"
