"""Size-only workload specifications and their OpGraph compiler.

Experiments need jobs that are statistically shaped like the paper's
workloads (TPC-H/TPC-DS queries, iterative ML, graph analytics) without
materializing terabytes.  A :class:`JobSpec` is a DAG of
:class:`StageSpec`s; ``build_graph`` compiles it into Ursa primitives with
per-partition sizes drawn from seeded skew distributions.  The same graphs
run unmodified on Ursa and on every baseline system (they all host the same
execution layer).

Stage knobs map to the §2 utilization patterns:

* ``expand`` shapes intermediate-data growth/shrinkage (join fan-outs vs
  filters) — the irregular fluctuations of Figs. 1e–1h;
* ``cpu_factor`` decouples actual compute time from the input-size estimate
  (the scheduler's processing-rate monitor absorbs the difference, §4.2.1);
* ``skew_sigma`` skews both partition sizes and shuffle shard sizes;
* ``reads_cache_of`` re-reads a resident dataset (iterative ML/graph jobs),
  which pins tasks by locality and produces the regular CPU/network
  alternation of Figs. 1a–1d.
"""

from __future__ import annotations

from itertools import groupby
from typing import Optional, Sequence

import numpy as np

from ..dataflow.graph import DepType, OpGraph, ResourceType
from ..rules import FLAG, INT, NONNEG, NONNEG_INT, POS, POS_INT, TEXT
from ..rules import optional, require, ruled, ruled_dataclass, seq_of
from ..simcore.rng import lognormal_multipliers

__all__ = ["StageSpec", "JobSpec"]

_VOLUMES = seq_of(POS)


@ruled_dataclass()
class StageSpec:
    """One stage of a size-only job."""

    parallelism: int = ruled(POS_INT)
    shuffle_parents: tuple[int, ...] = ruled(seq_of(NONNEG_INT), ())
    narrow_parent: Optional[int] = ruled(optional(NONNEG_INT), None)
    reads_cache_of: Optional[int] = ruled(optional(NONNEG_INT), None)
    source_mb: float = ruled(NONNEG, 0.0)    # > 0: stage reads this much job input
    from_disk: bool = ruled(FLAG, True)      # source input arrives via disk monotasks
    expand: float = ruled(POS, 1.0)          # stage output size = expand × input size
    cpu_factor: float = ruled(POS, 1.0)      # actual CPU work vs input-size estimate
    skew_sigma: float = ruled(NONNEG, 0.0)
    m2i: float = ruled(POS, 1.5)
    write_output_mb: float = ruled(NONNEG, 0.0)  # > 0: stage also writes final output


def _draw_skews(rng: np.random.Generator, draws: list[tuple[int, float]]) -> list:
    """The multipliers of each of ``draws``, in order, drawing each run of
    equal sigmas in one call: the same values as one call per draw."""
    out = []
    for sigma, run in groupby(draws, key=lambda draw: draw[1]):
        counts = [n for n, _sigma in run]
        values = lognormal_multipliers(rng, sum(counts), sigma)
        start = 0
        for n in counts:
            out.append(values[start:start + n])
            start += n
    return out


@ruled_dataclass()
class JobSpec:
    """A complete size-only job: stages + resource-request behaviour."""

    name: str = ruled(TEXT)
    stages: list[StageSpec] = ruled(seq_of(StageSpec))
    requested_memory_mb: float = ruled(POS)
    memory_accuracy: float = ruled(NONNEG, 0.8)  # memory used per MB estimated
    category: str = ruled(TEXT, "generic")
    seed: int = ruled(INT, 0)

    def validate(self) -> None:
        for i, st in enumerate(self.stages):
            for p in st.shuffle_parents:
                if not 0 <= p < i:
                    raise ValueError(f"stage {i}: bad shuffle parent {p}")
            for ref in (st.narrow_parent, st.reads_cache_of):
                if ref is not None:
                    if not 0 <= ref < i:
                        raise ValueError(f"stage {i}: bad stage reference {ref}")
                    if self.stages[ref].parallelism != st.parallelism:
                        raise ValueError(
                            f"stage {i}: narrow/cache link to stage {ref} "
                            f"requires equal parallelism"
                        )
            if st.source_mb == 0 and not st.shuffle_parents and st.narrow_parent is None \
                    and st.reads_cache_of is None:
                raise ValueError(f"stage {i} has no inputs")

    # ------------------------------------------------------------------
    def build_graph(
        self,
        rng: np.random.Generator,
        *,
        name: Optional[str] = None,
        source_mb: Optional[Sequence[float]] = None,
    ) -> OpGraph:
        """Compile to an OpGraph with per-partition skew drawn from ``rng``.

        ``name`` and ``source_mb`` size one request of a job type without a
        spec of its own: the graph's name, and one input volume per source
        stage (``source_mb > 0``), in stage order, in place of the spec's."""
        self.validate()
        volumes = [st.source_mb for st in self.stages if st.source_mb > 0]
        if source_mb is not None:
            require(_VOLUMES, source_mb=source_mb)
            if len(source_mb) != len(volumes):
                raise ValueError(
                    f"source_mb gives {len(source_mb)} volumes for "
                    f"{len(volumes)} source stages"
                )
            volumes = source_mb
        sources = iter(volumes)
        skews = iter(_draw_skews(rng, self._skew_draws()))
        g = OpGraph(self.name if name is None else name)
        cpu_ops = []
        out_handles = []

        for i, st in enumerate(self.stages):
            cpu_reads = []
            cpu_parents = []  # (op, deptype)

            if st.source_mb > 0:
                volume = next(sources)
                sizes = [volume / st.parallelism * w for w in next(skews)]
                src = g.create_data(st.parallelism, f"s{i}_input")
                g.set_input(src, sizes)
                if st.from_disk:
                    loaded = g.create_data(st.parallelism, f"s{i}_loaded")
                    disk = g.create_op(ResourceType.DISK, f"s{i}_read").read(src).create(loaded)
                    cpu_reads.append(loaded)
                    cpu_parents.append((disk, DepType.ASYNC))
                else:
                    cpu_reads.append(src)

            for p in st.shuffle_parents:
                shuffled = g.create_data(st.parallelism, f"s{i}_from{p}")
                net = (
                    g.create_op(ResourceType.NETWORK, f"s{i}_shuffle{p}")
                    .read(out_handles[p])
                    .create(shuffled)
                )
                if st.skew_sigma > 0:
                    net.set_shard_weights(list(next(skews)))
                cpu_ops[p].to(net, DepType.SYNC)
                cpu_reads.append(shuffled)
                cpu_parents.append((net, DepType.ASYNC))

            if st.narrow_parent is not None:
                cpu_reads.append(out_handles[st.narrow_parent])
                cpu_parents.append((cpu_ops[st.narrow_parent], DepType.ASYNC))

            if st.reads_cache_of is not None:
                cpu_reads.append(out_handles[st.reads_cache_of])
                # no edge: the cache producer is an ancestor via other paths;
                # if it is not, fall back to a narrow dependency for safety
                if not self._has_path(st.reads_cache_of, i):
                    cpu_parents.append((cpu_ops[st.reads_cache_of], DepType.ASYNC))

            out = g.create_data(st.parallelism, f"s{i}_out")
            expand_w = next(skews)
            cpu = (
                g.create_op(ResourceType.CPU, f"s{i}_cpu")
                .read(*cpu_reads)
                .create(out)
                .set_cpu_work_factor(st.cpu_factor)
                .set_m2i(st.m2i)
                .set_output_size(
                    lambda idx, size, e=st.expand, w=expand_w: size * e * w[idx]
                )
            )
            for op, dep in cpu_parents:
                op.to(cpu, dep)
            cpu_ops.append(cpu)
            out_handles.append(out)

            if st.write_output_mb > 0:
                written = g.create_data(st.parallelism, f"s{i}_written")
                wr = g.create_op(ResourceType.DISK, f"s{i}_write").read(out).create(written)
                cpu.to(wr, DepType.ASYNC)

        return g

    def _skew_draws(self) -> list[tuple[int, float]]:
        """(count, sigma) of each skew draw :meth:`build_graph` makes, in
        its order: per stage, the source partition sizes, the shard
        weights of each shuffle, then the output expansion."""
        draws = []
        for st in self.stages:
            p, sigma = st.parallelism, st.skew_sigma
            if st.source_mb > 0:
                draws.append((p, sigma))
            if sigma > 0:
                draws += [(p, sigma)] * len(st.shuffle_parents)
            draws.append((p, sigma))
        return draws

    def _has_path(self, src: int, dst: int) -> bool:
        """Is stage ``src`` an ancestor of ``dst`` through declared deps?"""
        frontier = [dst]
        seen = set()
        while frontier:
            s = frontier.pop()
            if s == src:
                return True
            if s in seen:
                continue
            seen.add(s)
            st = self.stages[s]
            frontier.extend(st.shuffle_parents)
            if st.narrow_parent is not None:
                frontier.append(st.narrow_parent)
        return False

    # ------------------------------------------------------------------
    def total_source_mb(self) -> float:
        return sum(st.source_mb for st in self.stages)

    @property
    def depth(self) -> int:
        memo: dict[int, int] = {}

        def d(i: int) -> int:
            if i in memo:
                return memo[i]
            st = self.stages[i]
            parents = list(st.shuffle_parents)
            if st.narrow_parent is not None:
                parents.append(st.narrow_parent)
            memo[i] = 1 + max((d(p) for p in parents), default=0)
            return memo[i]

        return max(d(i) for i in range(len(self.stages)))
