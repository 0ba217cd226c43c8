"""Network fabric models.

Two fabrics are provided:

* :class:`ReceiverSideFabric` — the model Ursa itself uses (§4.2.3: "We use a
  simple method that considers only the network bandwidth at the receiver
  side").  A transfer (one network monotask's pull, streaming from all its
  senders at once) shares the destination machine's downlink equally with the
  other transfers arriving there.  Each receiver is an independent
  :class:`~repro.simcore.resources.SharedProcessor`, so the model is both
  faithful to the paper and O(local transfers) per state change.

* :class:`MaxMinFabric` — an optional higher-fidelity model that performs
  max-min fair (water-filling) allocation across *both* sender uplinks and
  receiver downlinks.  Used by the ablation bench to show the receiver-side
  simplification does not change who wins.

Both expose the same ``start_transfer`` / ``cancel(dst, handle)`` interface
so the execution layers are fabric-agnostic.  The handle ``start_transfer``
returns is the fabric's own bookkeeping — the downlink's request entry, or
the max-min fabric's flow set — and ``None`` for a pull that is all local;
cancelling it after it finished (or cancelling ``None``) does nothing.  A
transfer's sources travel as a :class:`PullSet`: the metadata store builds
one per shuffle and every consumer of that shuffle shares it, so the fabric
reads its totals instead of re-summing the pairs.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..series import StepSeries
from .engine import Simulation
from .resources import SharedProcessor

__all__ = ["PullSet", "ReceiverSideFabric", "MaxMinFabric", "NetworkFabric"]

_EPS = 1e-9


def _check_size(num_machines: int, downlink_mbps: float) -> None:
    """Refuse a fabric no transfer can run on, naming the argument; written
    so NaN fails too."""
    if isinstance(num_machines, bool) or not (isinstance(num_machines, Integral)
                                              and num_machines > 0):
        raise ValueError(f"num_machines must be a positive integer, got {num_machines!r}")
    if not (math.isfinite(downlink_mbps) and downlink_mbps > 0):
        raise ValueError(f"downlink_mbps must be positive and finite, got {downlink_mbps!r}")


class PullSet:
    """The immutable ``(machine, MB)`` pairs one transfer pulls, kept as two
    columns (``machines``, ``sizes``).

    ``total_mb`` and ``local_mb(dst)`` add the sizes left to right, exactly
    as a plain ``sum`` over the pair list would, so sharing one instance
    between transfers leaves every float bit-identical.
    """

    __slots__ = ("machines", "sizes", "total_mb", "_local")

    def __init__(self, machines: Sequence[int], sizes: Sequence[float]):
        if len(machines) != len(sizes):
            raise ValueError("machines and sizes differ in length")
        self.machines = tuple(machines)
        self.sizes = tuple(sizes)
        self.total_mb = float(sum(self.sizes))
        # local_mb memo: None until asked, False after the first receiver
        # (most pulls have one), then {machine: MB} for every machine
        self._local: Any = None

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, float]]) -> "PullSet":
        pairs = tuple(pairs)
        return cls([m for m, _size in pairs], [size for _m, size in pairs])

    def local_mb(self, dst: int) -> float:
        """MB of the pairs already on ``dst`` (they cost no network time)."""
        memo = self._local
        if memo is None:
            self._local = False
            return float(sum(size for src, size in zip(self.machines, self.sizes) if src == dst))
        if memo is False:
            # a second receiver: group every machine's sizes in one pass and
            # sum each group in pair order, as the single scan does
            by_src: dict = {}
            for src, size in zip(self.machines, self.sizes):
                by_src.setdefault(src, []).append(size)
            memo = self._local = {src: float(sum(sizes)) for src, sizes in by_src.items()}
        return memo.get(dst, 0.0)

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return zip(self.machines, self.sizes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PullSet):
            return self.machines == other.machines and self.sizes == other.sizes
        if isinstance(other, (list, tuple)):
            return list(self) == [tuple(pair) for pair in other]
        return NotImplemented

    def __repr__(self) -> str:
        return f"PullSet({list(self)!r}, total_mb={self.total_mb!r})"


class ReceiverSideFabric:
    """Downlink-shared fabric (the paper's §4.2.3 model)."""

    def __init__(
        self,
        sim: Simulation,
        num_machines: int,
        downlink_mbps: float,
        used_traces: Optional[list[StepSeries]] = None,
    ):
        _check_size(num_machines, downlink_mbps)
        self.sim = sim
        self.downlink_mbps = float(downlink_mbps)
        self._rx = [
            SharedProcessor(sim, capacity=1.0, unit_rate=downlink_mbps,
                            used_trace=used_traces[m] if used_traces is not None else None,
                            name=f"net.rx[{m}]")
            for m in range(num_machines)
        ]

    def start_transfer(self, dst, sources, callback, *args) -> Optional[list]:
        """Pull ``sources`` into ``dst`` and run ``callback(*args)`` once the
        remote bytes arrive; returns the downlink's request entry."""
        # a PullSet is shared as is; a plain sequence is wrapped once
        pull = sources if isinstance(sources, PullSet) else PullSet.of(sources)
        remote_mb = pull.total_mb - pull.local_mb(dst)
        if remote_mb <= _EPS:
            self.sim.call_soon(callback, *args)
            return None
        return self._rx[dst].submit(remote_mb, callback, *args)

    def cancel(self, dst: int, handle: Optional[list]) -> None:
        """Withdraw the transfer ``start_transfer(dst, ...)`` returned."""
        self._rx[dst].cancel(handle)

    def active_transfers(self, dst: int) -> int:
        return self._rx[dst].active_count

    def receive_rate(self, dst: int) -> float:
        """Aggregate MB/s currently flowing into machine ``dst``."""
        rx = self._rx[dst]
        return rx.per_request_speed() * rx.active_count


class _Transfer:
    """One in-flight :class:`MaxMinFabric` pull: its callback and the flows
    still moving its bytes.  ``live`` turns False once it finishes or is
    cancelled."""

    __slots__ = ("callback", "args", "flows", "live")

    def __init__(self, callback: Callable[..., Any], args: tuple):
        self.callback = callback
        self.args = args
        self.flows: list[_Flow] = []
        self.live = True


class _Flow:
    __slots__ = ("src", "dst", "remaining", "rate", "transfer")

    def __init__(self, src: int, dst: int, size: float, transfer: _Transfer):
        self.src = src
        self.dst = dst
        self.remaining = float(size)
        self.rate = 0.0
        self.transfer = transfer


class MaxMinFabric:
    """Water-filling max-min fair fabric over uplinks and downlinks.

    State changes trigger a full re-allocation, which is O(flows × machines)
    in the worst case; acceptable for the ablation-scale runs it serves.
    """

    def __init__(
        self,
        sim: Simulation,
        num_machines: int,
        downlink_mbps: float,
        used_traces: Optional[list[StepSeries]] = None,
    ):
        _check_size(num_machines, downlink_mbps)
        self.sim = sim
        self.n = num_machines
        # every sender uplink runs at the same rate as the receiver downlinks
        self.port_mbps = float(downlink_mbps)
        self._flows: list[_Flow] = []
        self._last_advance = 0.0
        self._completion_ev: Optional[list] = None  # engine heap entry
        self._used_traces = used_traces

    # ------------------------------------------------------------------
    def start_transfer(self, dst, sources, callback, *args) -> Optional[_Transfer]:
        tr = _Transfer(callback, args)
        self._advance()
        for src, size in sources:
            if src == dst or size <= _EPS:
                continue
            flow = _Flow(src, dst, size, tr)
            tr.flows.append(flow)
            self._flows.append(flow)
        if not tr.flows:
            self.sim.call_soon(callback, *args)
            return None
        self._reallocate()
        return tr

    def cancel(self, dst: int, handle: Optional[_Transfer]) -> None:
        if handle is None or not handle.live:
            return
        handle.live = False
        self._advance()
        self._flows = [f for f in self._flows if f.transfer is not handle]
        self._reallocate()

    def active_transfers(self, dst: int) -> int:
        return len({id(f.transfer) for f in self._flows if f.dst == dst})

    def receive_rate(self, dst: int) -> float:
        return sum(f.rate for f in self._flows if f.dst == dst)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_advance
        if dt > 0:
            for f in self._flows:
                f.remaining = max(0.0, f.remaining - f.rate * dt)
        self._last_advance = now

    def _reallocate(self) -> None:
        # Progressive filling: repeatedly find the most-constrained port,
        # freeze its flows at the fair share, remove the port, repeat.
        unfixed = list(self._flows)
        up_cap = [self.port_mbps] * self.n
        down_cap = [self.port_mbps] * self.n
        for f in unfixed:
            f.rate = 0.0
        while unfixed:
            up_load: dict[int, int] = {}
            down_load: dict[int, int] = {}
            for f in unfixed:
                up_load[f.src] = up_load.get(f.src, 0) + 1
                down_load[f.dst] = down_load.get(f.dst, 0) + 1
            best_share = math.inf
            best_port: tuple[str, int] | None = None
            for src, cnt in up_load.items():
                share = up_cap[src] / cnt
                if share < best_share:
                    best_share, best_port = share, ("up", src)
            for dst, cnt in down_load.items():
                share = down_cap[dst] / cnt
                if share < best_share:
                    best_share, best_port = share, ("down", dst)
            assert best_port is not None
            kind, port = best_port
            frozen = [
                f for f in unfixed
                if (kind == "up" and f.src == port) or (kind == "down" and f.dst == port)
            ]
            for f in frozen:
                f.rate = best_share
                up_cap[f.src] -= best_share
                down_cap[f.dst] -= best_share
            unfixed = [f for f in unfixed if f not in frozen]
        if self._used_traces is not None:
            for m in range(self.n):
                self._used_traces[m].record(self.sim.now, self.receive_rate(m))
        self._schedule_completion()

    def _schedule_completion(self) -> None:
        if self._completion_ev is not None:
            self.sim.cancel(self._completion_ev)
            self._completion_ev = None
        next_dt = math.inf
        for f in self._flows:
            if f.rate > _EPS:
                next_dt = min(next_dt, f.remaining / f.rate)
        if math.isfinite(next_dt):
            self._completion_ev = self.sim.schedule(max(0.0, next_dt), self._on_completion)

    def _on_completion(self) -> None:
        self._completion_ev = None
        self._advance()
        still: list[_Flow] = []
        finished: list[_Transfer] = []
        for f in self._flows:
            if f.remaining <= _EPS:
                tr = f.transfer
                tr.flows.remove(f)
                if not tr.flows:
                    tr.live = False
                    finished.append(tr)
            else:
                still.append(f)
        self._flows = still
        self._reallocate()
        for tr in finished:
            tr.callback(*tr.args)


#: either fabric; both expose ``start_transfer``, ``cancel(dst, handle)``,
#: ``active_transfers`` and ``receive_rate``
NetworkFabric = ReceiverSideFabric | MaxMinFabric
