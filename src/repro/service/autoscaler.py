"""Worker elasticity: a hysteresis autoscaler over the fault-layer hooks.

The fault subsystem already gave workers a clean offline/online seam —
``Worker.fault_crash()`` / ``Worker.fault_rejoin()`` plus
``AdmissionController.resize()`` — built so that placement, queueing and
admission all respect a worker's ``alive`` flag.  The autoscaler reuses
exactly those hooks, with one semantic difference from a crash: a
**scale-in is a graceful drain**.  Only a worker with no running, queued
or assigned work may be decommissioned, and its stored dataset shards
are *not* invalidated — the machine stops accepting new work but stays
reachable as a shuffle source, so nothing is ever re-executed because of
the autoscaler (pinned by ``tests/service``).

Decisions and actuation are split so hysteresis is unit-testable:

* :class:`HysteresisScaler` is a pure state machine — feed it
  :class:`LoadSample` values, get −1/0/+1 back.  It requires
  ``up_stable`` / ``down_stable`` consecutive one-sided samples and a
  post-action ``cooldown`` before acting, so a constant load can never
  make it flap (the dead band between ``down_util`` and ``up_util``
  yields no action at all).
* :class:`Autoscaler` samples the live system every ``interval``
  simulated seconds (admission queue depth, head-of-queue wait, cluster
  CPU occupancy), actuates the decision, and records the active worker
  count as a step series whose exact mean, minimum and peak the SLO
  report reads.

Scale-up brings back the **lowest**-index parked worker (rate monitors
re-seeded from nominal rates, like a blackout rejoin); scale-down parks
the **highest**-index idle worker — deterministic choices, so service
runs remain bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..dataflow.graph import ResourceType
from ..obs import recorder as _obs
from ..rules import NONNEG, NONNEG_INT, POS, POS_INT, ruled, ruled_dataclass
from ..series import StepSeries

__all__ = ["AutoscalerConfig", "LoadSample", "HysteresisScaler", "Autoscaler"]


@ruled_dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs of the elasticity policy (see docs/OPERATIONS.md)."""

    interval: float = ruled(POS, 1.0)           # sampling period (simulated seconds)
    min_workers: int = ruled(POS_INT, 1)        # never drain below this many active workers
    max_workers: int = ruled(NONNEG_INT, 0)     # 0 = the whole cluster
    initial_workers: int = ruled(NONNEG_INT, 0)  # 0 = start with the whole cluster active
    up_queue: int = ruled(NONNEG_INT, 2)        # admission queue depth that signals pressure
    up_wait: float = ruled(NONNEG, 3.0)         # head-of-queue wait (s) that signals pressure
    up_util: float = ruled(POS, 0.85)           # CPU occupancy that signals pressure
    down_util: float = ruled(NONNEG, 0.25)      # CPU occupancy low enough to drain a worker
    up_stable: int = ruled(POS_INT, 2)          # consecutive pressured samples before +1
    down_stable: int = ruled(POS_INT, 5)        # consecutive idle samples before −1
    cooldown: float = ruled(NONNEG, 5.0)        # seconds after any action before the next

    def __post_init__(self) -> None:
        if not self.down_util < self.up_util:
            raise ValueError(f"AutoscalerConfig.down_util must be < up_util, got {self.down_util}")


@dataclass(frozen=True)
class LoadSample:
    """One observation of the load signals the policy reads."""

    t: float
    queue_depth: int      # jobs waiting at admission
    head_wait: float      # seconds the oldest waiting job has queued
    utilization: float    # CPU slot occupancy over *active* workers, [0, 1]


class HysteresisScaler:
    """Pure decision core: consecutive-sample stability + cooldown.

    ``decide`` returns +1 (add a worker), −1 (drain one) or 0.  A sample
    is *pressured* when any up-signal fires (queue depth, head wait or
    utilization above threshold) and *idle* when the queue is empty and
    utilization sits below ``down_util``; anything in between resets both
    streaks, which is what makes a constant mid-band load a no-op
    forever.
    """

    def __init__(self, cfg: AutoscalerConfig):
        self.cfg = cfg
        self._up_streak = 0
        self._down_streak = 0
        self._last_action_t: Optional[float] = None

    def decide(self, sample: LoadSample) -> int:
        cfg = self.cfg
        pressured = (
            sample.queue_depth >= cfg.up_queue
            or sample.head_wait >= cfg.up_wait
            or sample.utilization >= cfg.up_util
        )
        idle = sample.queue_depth == 0 and sample.utilization <= cfg.down_util
        if pressured:
            self._up_streak += 1
            self._down_streak = 0
        elif idle:
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = 0
            self._down_streak = 0
            return 0
        if (
            self._last_action_t is not None
            and sample.t - self._last_action_t < cfg.cooldown
        ):
            return 0
        if pressured and self._up_streak >= cfg.up_stable:
            self._up_streak = 0
            self._last_action_t = sample.t
            return 1
        if idle and self._down_streak >= cfg.down_stable:
            self._down_streak = 0
            self._last_action_t = sample.t
            return -1
        return 0


class Autoscaler:
    """Actuation over one :class:`~repro.scheduler.ursa.UrsaSystem`."""

    def __init__(self, system, cfg: AutoscalerConfig, stop_time: float):
        self.system = system
        self.cfg = cfg
        self.stop_time = stop_time
        self.scaler = HysteresisScaler(cfg)
        n = len(system.workers)
        self.max_workers = cfg.max_workers if cfg.max_workers > 0 else n
        self.initial_workers = cfg.initial_workers if cfg.initial_workers > 0 else n
        if not cfg.min_workers <= self.initial_workers <= self.max_workers <= n:
            raise ValueError(
                f"need min <= initial <= max <= {n} workers, got "
                f"{cfg.min_workers}/{self.initial_workers}/{self.max_workers}"
            )
        # stats for the SLO report
        self.samples = 0
        self.scale_ups = 0
        self.scale_downs = 0
        #: the active worker count, recorded at each scale action
        self.active = StepSeries(self.initial_workers)

    # ------------------------------------------------------------------
    @property
    def active_workers(self) -> int:
        return sum(1 for w in self.system.workers if w.alive)

    def start(self) -> None:
        """Park the tail of the cluster and begin sampling."""
        for w in self.system.workers[self.initial_workers:]:
            w.fault_crash()  # queues are empty pre-run: a pure deactivation
        self._resize_admission()
        self.system.sim.schedule(self.cfg.interval, self._sample)

    # ------------------------------------------------------------------
    def _resize_admission(self) -> None:
        total = sum(
            w.memory_capacity_mb for w in self.system.workers if w.alive
        )
        self.system.admission.resize(total)

    def _observe(self) -> LoadSample:
        now = self.system.sim.now
        adm = self.system.admission
        head_wait = 0.0
        if adm.waiting:
            head_wait = now - min(adm._wait_since.values())
        cores = 0
        busy = 0
        for w in self.system.workers:
            if w.alive:
                cores += w.machine.spec.cores
                busy += w.running[ResourceType.CPU]
        util = busy / cores if cores else 0.0
        return LoadSample(
            t=now, queue_depth=adm.queue_length, head_wait=head_wait,
            utilization=util,
        )

    def _sample(self) -> None:
        now = self.system.sim.now
        self.samples += 1
        decision = self.scaler.decide(self._observe())
        if decision > 0:
            self._scale_up(now)
        elif decision < 0:
            self._scale_down(now)
        if now + self.cfg.interval <= self.stop_time:
            self.system.sim.schedule(self.cfg.interval, self._sample)

    # ------------------------------------------------------------------
    def _scale_up(self, now: float) -> None:
        if self.active_workers >= self.max_workers:
            return
        parked = [w for w in self.system.workers if not w.alive]
        worker = min(parked, key=lambda w: w.index)
        worker.fault_rejoin()
        self._resize_admission()
        self.scale_ups += 1
        self.active.record(now, self.active_workers)
        rec = _obs.RECORDER
        if rec is not None:
            rec.autoscale(now, +1, self.active_workers)
        # newly admittable memory may unblock waiting jobs right away
        self.system._try_admit()
        self.system._ensure_tick()

    def _scale_down(self, now: float) -> None:
        if self.active_workers <= self.cfg.min_workers:
            return
        idle = [
            w for w in self.system.workers
            if w.alive
            and not any(w.running.values())
            and w.queued_monotasks == 0
            and sum(w.assigned_work.values()) < 1e-9
        ]
        if not idle:
            return  # graceful drain: never evict in-flight work
        worker = max(idle, key=lambda w: w.index)
        worker.fault_crash()  # nothing queued/running: deactivation only —
        # note: unlike a real crash, stored shards are NOT invalidated, so
        # the machine remains a valid shuffle source while it drains away
        self._resize_admission()
        self.scale_downs += 1
        self.active.record(now, self.active_workers)
        rec = _obs.RECORDER
        if rec is not None:
            rec.autoscale(now, -1, self.active_workers)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Picklable summary for the SLO report."""
        now = self.system.sim.now
        active = self.active
        return {
            "enabled": True,
            "samples": self.samples,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "min_active": min(active.values),
            "max_active": active.peak,
            "final_active": self.active_workers,
            "mean_active": active.mean(0.0, now) if now > 0 else float(self.active_workers),
        }
