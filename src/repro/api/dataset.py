"""Spark-like dataset transformations over Ursa's primitives (§4.1.2).

Transformations are lazy: each one appends CPU/network ops to the lineage's
OpGraph (narrow ops connect with async edges, so the planner fuses them into
single CPU monotasks; wide ops insert the ser → shuffle → deser triple from
the paper's reduceByKey listing).  Actions run the UDFs on the real data,
submit the job with the sizes they measured, and return the real results.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..dataflow.graph import DataHandle, DepType, Op, OpGraph, ResourceType
from ..rules import POS_INT, require
from .payloads import set_udf

if TYPE_CHECKING:  # pragma: no cover
    from .context import UrsaContext

__all__ = ["Dataset"]


def _hash_shard(key: Any, partitions: int) -> int:
    # stable across processes (no PYTHONHASHSEED dependence for ints/strs)
    if isinstance(key, int):
        return key % partitions
    return sum(bytearray(str(key), "utf-8")) % partitions


class Dataset:
    """A (lazy) distributed dataset; one lineage maps to one OpGraph."""

    def __init__(
        self,
        ctx: "UrsaContext",
        graph: OpGraph,
        handle: DataHandle,
        creator: Optional[Op],
    ):
        self.ctx = ctx
        self.graph = graph
        self.handle = handle
        self.creator = creator  # op producing `handle`, None for inputs

    @property
    def num_partitions(self) -> int:
        return self.handle.num_partitions

    def _out_partitions(self, partitions: Optional[int]) -> int:
        """A wide op's output partition count: ``None`` keeps the input's."""
        if partitions is None:
            return self.num_partitions
        require(POS_INT, partitions=partitions)
        return partitions

    def _cpu(self, name: str, reads: list, out: DataHandle, udf) -> Op:
        """A CPU op that maps ``reads`` to ``out`` through ``udf``."""
        op = self.graph.create_op(ResourceType.CPU, name).read(*reads).create(out)
        return set_udf(op, udf)

    # ------------------------------------------------------------------
    # narrow transformations (fused into one CPU monotask chain)
    # ------------------------------------------------------------------
    def _narrow(self, name: str, udf, m2i: float = 1.5, size_factor: float = 1.0) -> "Dataset":
        out = self.graph.create_data(self.num_partitions, f"{name}_out")
        op = self._cpu(name, [self.handle], out, udf).set_m2i(m2i)
        if size_factor != 1.0:
            op.set_output_size(lambda i, s: s * size_factor)
        if self.creator is not None:
            self.creator.to(op, DepType.ASYNC)
        return Dataset(self.ctx, self.graph, out, op)

    def map(self, fn: Callable[[Any], Any]) -> "Dataset":
        return self._narrow("map", lambda ins, i: [fn(x) for x in ins[0]])

    def flat_map(self, fn: Callable[[Any], Any]) -> "Dataset":
        def udf(ins, i):
            out = []
            for x in ins[0]:
                out.extend(fn(x))
            return out

        return self._narrow("flatMap", udf)

    def filter(self, pred: Callable[[Any], bool]) -> "Dataset":
        return self._narrow(
            "filter", lambda ins, i: [x for x in ins[0] if pred(x)], m2i=2.0, size_factor=0.5
        )

    def map_partitions(self, fn: Callable[[list], list]) -> "Dataset":
        return self._narrow("mapPartitions", lambda ins, i: list(fn(ins[0])))

    def key_by(self, fn: Callable[[Any], Any]) -> "Dataset":
        return self.map(lambda x: (fn(x), x))

    # ------------------------------------------------------------------
    # wide transformations (ser -> shuffle -> deser, as in §4.1.2)
    # ------------------------------------------------------------------
    def _shuffle(
        self,
        name: str,
        partitions: int,
        ser_udf,
        deser_udf,
        m2i: float = 1.5,
    ) -> "Dataset":
        msg = self.graph.create_data(self.num_partitions, f"{name}_msg")
        shuffled = self.graph.create_data(partitions, f"{name}_shuffled")
        result = self.graph.create_data(partitions, f"{name}_out")
        ser = self._cpu(f"{name}_ser", [self.handle], msg, ser_udf)
        shuffle = (
            self.graph.create_op(ResourceType.NETWORK, f"{name}_shuffle")
            .read(msg)
            .create(shuffled)
        )
        deser = self._cpu(f"{name}_deser", [shuffled], result, deser_udf).set_m2i(m2i)
        if self.creator is not None:
            self.creator.to(ser, DepType.ASYNC)
        ser.to(shuffle, DepType.SYNC)
        shuffle.to(deser, DepType.ASYNC)
        return Dataset(self.ctx, self.graph, result, deser)

    def reduce_by_key(
        self, combiner: Callable[[Any, Any], Any], partitions: Optional[int] = None
    ) -> "Dataset":
        """The paper's example API: local combine, shuffle, final combine."""
        p = self._out_partitions(partitions)

        def ser(ins, i):
            local: dict = {}
            for k, v in ins[0]:
                local[k] = combiner(local[k], v) if k in local else v
            shards: dict[int, list] = {}
            for k, v in local.items():
                shards.setdefault(_hash_shard(k, p), []).append((k, v))
            return shards

        def deser(ins, i):
            acc: dict = {}
            for k, v in ins[0]:
                acc[k] = combiner(acc[k], v) if k in acc else v
            return sorted(acc.items(), key=lambda kv: str(kv[0]))

        return self._shuffle("reduceByKey", p, ser, deser)

    def group_by_key(self, partitions: Optional[int] = None) -> "Dataset":
        p = self._out_partitions(partitions)

        def ser(ins, i):
            shards: dict[int, list] = {}
            for k, v in ins[0]:
                shards.setdefault(_hash_shard(k, p), []).append((k, v))
            return shards

        def deser(ins, i):
            acc: dict = {}
            for k, v in ins[0]:
                acc.setdefault(k, []).append(v)
            return sorted(acc.items(), key=lambda kv: str(kv[0]))

        return self._shuffle("groupByKey", p, ser, deser, m2i=2.0)

    def join(self, other: "Dataset", partitions: Optional[int] = None) -> "Dataset":
        """Inner join of two keyed datasets (same lineage graph required)."""
        if other.graph is not self.graph:
            raise ValueError(
                "join requires datasets from the same context lineage; build "
                "both sides from the same inputs (one job = one OpGraph)"
            )
        p = self._out_partitions(partitions)

        def ser_side(tag):
            def ser(ins, i):
                shards: dict[int, list] = {}
                for k, v in ins[0]:
                    shards.setdefault(_hash_shard(k, p), []).append((k, tag, v))
                return shards

            return ser

        left_msg = self.graph.create_data(self.num_partitions, "join_lmsg")
        right_msg = self.graph.create_data(other.num_partitions, "join_rmsg")
        l_shuf = self.graph.create_data(p, "join_lshuf")
        r_shuf = self.graph.create_data(p, "join_rshuf")
        result = self.graph.create_data(p, "join_out")

        ser_l = self._cpu("join_ser_l", [self.handle], left_msg, ser_side(0))
        ser_r = self._cpu("join_ser_r", [other.handle], right_msg, ser_side(1))
        sh_l = self.graph.create_op(ResourceType.NETWORK, "join_shuf_l").read(left_msg).create(l_shuf)
        sh_r = self.graph.create_op(ResourceType.NETWORK, "join_shuf_r").read(right_msg).create(r_shuf)

        def joiner(ins, i):
            left: dict = {}
            right: dict = {}
            for part in ins:
                if part is None:
                    continue
                for k, tag, v in part:
                    (left if tag == 0 else right).setdefault(k, []).append(v)
            out = []
            for k, lvs in left.items():
                for lv in lvs:
                    for rv in right.get(k, []):
                        out.append((k, (lv, rv)))
            return sorted(out, key=lambda kv: str(kv[0]))

        join_op = self._cpu("join", [l_shuf, r_shuf], result, joiner).set_m2i(2.0)
        if self.creator is not None:
            self.creator.to(ser_l, DepType.ASYNC)
        if other.creator is not None:
            other.creator.to(ser_r, DepType.ASYNC)
        ser_l.to(sh_l, DepType.SYNC)
        ser_r.to(sh_r, DepType.SYNC)
        sh_l.to(join_op, DepType.ASYNC)
        sh_r.to(join_op, DepType.ASYNC)
        return Dataset(self.ctx, self.graph, result, join_op)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def collect(self) -> list:
        out: list = []
        for part in self.collect_partitions():
            out.extend(part)
        return out

    def collect_partitions(self) -> list[list]:
        jm = self.ctx.run_graph(self.graph)
        return self.ctx.fetch_partitions(jm, self.handle)

    def count(self) -> int:
        return len(self.collect())

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        vals = self.collect()
        if not vals:
            raise ValueError("reduce of empty dataset")
        return functools.reduce(fn, vals)

    def sum(self) -> Any:
        return functools.reduce(operator.add, self.collect(), 0)
