"""A Pregel-like vertex-centric API (§4.1.2) plus PageRank/CC/SSSP programs.

Each superstep becomes a (CPU message-generation) → (network shuffle) →
(CPU apply) triple in the job's OpGraph; vertex state stays partitioned and
resident, so apply-tasks inherit hard locality to the machines that hold
their partition — the in-memory iterative pattern of §2's graph workloads.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..dataflow.graph import DepType, OpGraph, ResourceType
from .payloads import set_input, set_udf

__all__ = ["VertexProgram", "run_pregel", "pagerank_program", "connected_components_program", "sssp_program"]

# messages: compute(vertex, value, out_neighbors, incoming) -> (new_value, [(dst, msg)])
ComputeFn = Callable[[Any, Any, list, list], tuple[Any, list]]


class VertexProgram:
    """A vertex-centric program: per-superstep compute + message combiner."""

    def __init__(
        self,
        compute: ComputeFn,
        combine: Optional[Callable[[Any, Any], Any]] = None,
        name: str = "pregel",
    ):
        self.compute = compute
        self.combine = combine
        self.name = name


def _partition_of(vertex: Any, partitions: int) -> int:
    if isinstance(vertex, int):
        return vertex % partitions
    return sum(bytearray(str(vertex), "utf-8")) % partitions


def build_pregel_graph(
    vertices: dict[Any, Any],
    adjacency: dict[Any, list],
    program: VertexProgram,
    supersteps: int,
    partitions: int,
) -> tuple[OpGraph, Any]:
    """Unroll ``supersteps`` iterations into an OpGraph.

    Returns (graph, final state handle); partitions hold lists of
    (vertex, value, out_neighbors) and are carried across supersteps.
    """
    if supersteps <= 0:
        raise ValueError("need at least one superstep")
    graph = OpGraph(program.name)
    chunks: list[list] = [[] for _ in range(partitions)]
    for v, value in vertices.items():
        chunks[_partition_of(v, partitions)].append((v, value, list(adjacency.get(v, []))))
    state = graph.create_data(partitions, "state0")
    set_input(state, chunks)
    prev_apply = None

    for step in range(supersteps):
        msg = graph.create_data(partitions, f"msg{step}")
        shuffled = graph.create_data(partitions, f"inbox{step}")
        new_state = graph.create_data(partitions, f"state{step + 1}")

        def gen_udf(ins, pidx, _state_read=0):
            shards: dict[int, list] = {}
            for v, value, neigh in ins[0]:
                _new, outgoing = program.compute(v, value, neigh, [])
                for dst, m in outgoing:
                    shards.setdefault(_partition_of(dst, partitions), []).append((dst, m))
            if program.combine is not None:
                for shard, msgs in shards.items():
                    acc: dict = {}
                    for dst, m in msgs:
                        acc[dst] = program.combine(acc[dst], m) if dst in acc else m
                    shards[shard] = list(acc.items())
            return shards

        def apply_udf(ins, pidx):
            inbox, st = ins[0], ins[1]
            incoming: dict = {}
            for dst, m in inbox or []:
                if program.combine is not None and dst in incoming:
                    incoming[dst] = program.combine(incoming[dst], m)
                else:
                    incoming[dst] = m
            out = []
            for v, value, neigh in st:
                msgs = [incoming[v]] if v in incoming else []
                new_value, _outgoing = program.compute(v, value, neigh, msgs)
                out.append((v, new_value, neigh))
            return out

        gen = set_udf(
            graph.create_op(ResourceType.CPU, f"gen{step}").read(state).create(msg), gen_udf
        ).set_cpu_work_factor(1.5)
        shuffle = (
            graph.create_op(ResourceType.NETWORK, f"shuffle{step}")
            .read(msg).create(shuffled)
        )
        apply = graph.create_op(ResourceType.CPU, f"apply{step}")
        apply_op = set_udf(apply.read(shuffled, state).create(new_state), apply_udf).set_m2i(2.0)
        if prev_apply is not None:
            prev_apply.to(gen, DepType.ASYNC)
        gen.to(shuffle, DepType.SYNC)
        shuffle.to(apply_op, DepType.ASYNC)
        state = new_state
        prev_apply = apply_op

    return graph, state


def run_pregel(
    ctx,
    vertices: dict[Any, Any],
    adjacency: dict[Any, list],
    program: VertexProgram,
    supersteps: int,
    partitions: int = 4,
) -> dict[Any, Any]:
    """Run the unrolled program on the context's cluster; return final values."""
    graph, final = build_pregel_graph(vertices, adjacency, program, supersteps, partitions)
    jm = ctx.run_graph(graph)
    out: dict[Any, Any] = {}
    for part in ctx.fetch_partitions(jm, final):
        for v, value, _neigh in part:
            out[v] = value
    return out


# ----------------------------------------------------------------------
# canonical vertex programs
# ----------------------------------------------------------------------
def pagerank_program(damping: float = 0.85) -> VertexProgram:
    """PageRank with combiner; values are (rank, out_degree is from adjacency)."""

    def compute(v, rank, neigh, incoming):
        if incoming:
            rank = (1.0 - damping) + damping * incoming[0]
        share = rank / len(neigh) if neigh else 0.0
        return rank, [(dst, share) for dst in neigh]

    return VertexProgram(compute, combine=lambda a, b: a + b, name="pagerank")


def connected_components_program() -> VertexProgram:
    """Label propagation: every vertex adopts the minimum label seen."""

    def compute(v, label, neigh, incoming):
        if incoming:
            label = min(label, incoming[0])
        return label, [(dst, label) for dst in neigh]

    return VertexProgram(compute, combine=min, name="cc")


def sssp_program() -> VertexProgram:
    """Single-source shortest paths over unit-weight edges; inf = unreached."""

    def compute(v, dist, neigh, incoming):
        if incoming:
            dist = min(dist, incoming[0])
        return dist, [(dst, dist + 1.0) for dst in neigh if dist != float("inf")]

    return VertexProgram(compute, combine=min, name="sssp")
