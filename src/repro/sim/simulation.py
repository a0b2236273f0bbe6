"""The end-to-end group-rekeying simulation.

Wires together: an arrival process and duration model (the workload), a
key server (any scheme from :mod:`repro.server`), an optional reliable
rekey transport over a lossy multicast channel, real :class:`Member`
state machines for a tracked sample of the receivers, and per-rekey
verification of the security invariants.

The server names who needs each payload row (the sparseness property,
Section 2.2), so a receiver needs no key state to be delivered to: only
the tracked receivers hold a :class:`Member` and absorb.  They are the
first :data:`TRACKED_RECEIVERS` joiners (a later joiner takes the slot a
tracked member left), every receiver the transport abandons (rebuilt
from its registration; its unicast catch-up restores it), and the
:data:`DEPARTED_SAMPLE` most recent tracked departures.

Time is seconds; rekeying is periodic (``Tp``); joins/leaves between rekey
points accumulate into the next batch exactly as in Section 2.1.1.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

import repro.obs as obs
from repro.faults.channel import FaultyChannel
from repro.faults.schedule import FaultSchedule
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.members.durations import TwoClassDuration
from repro.members.member import Member
from repro.members.population import LossPopulation
from repro.obs.latency import LatencyTracker
from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss
from repro.server.base import BatchResult
from repro.server.partitioned import PartitionedServer
from repro.sim.engine import EventLoop
from repro.sim.metrics import RekeyRecord, SimulationMetrics
from repro.transport.session import TransportExhausted, TransportTask

#: Live receivers that hold a :class:`Member`, at most, not counting
#: those the transport abandoned: the size of ``server_full_64k``'s
#: sample.  The others are ids only — delivered to, booked by the latency
#: tracker, and named by the audience derivation the sample checks.
TRACKED_RECEIVERS = 256

#: Recently departed tracked members kept for the forward-secrecy check:
#: none of them may hold the group key after the next rekeying.
DEPARTED_SAMPLE = 32


@dataclass
class SimulationConfig:
    """Knobs of one simulation run.

    Attributes
    ----------
    arrival_rate:
        Mean joins per second (Poisson arrivals).
    rekey_period:
        ``Tp`` — seconds between batch rekey points.
    horizon:
        Simulated seconds.
    duration_model:
        Anything with ``sample_with_class(rng)``.
    loss_population:
        Per-member loss-rate assignment; required when a transport is
        attached, used as the reported ``loss_rate`` join attribute for
        loss-homogenized servers.
    transport:
        A transport protocol instance (``run(task, channel)``), or None to
        count server cost only.
    verify:
        Check security invariants after every rekeying, on the tracked
        receivers (see :data:`TRACKED_RECEIVERS`): each one absorbing
        learns exactly as many keys as the payload rows that name it,
        each one in sync holds the group key, and no recently departed
        one (see :data:`DEPARTED_SAMPLE`) does.  What that proves for
        the untracked receivers is in ``docs/security.md``.
    seed:
        Workload RNG seed (the channel RNG derives from it).
    cost_only:
        Track no receiver: no :class:`Member` objects, no absorbing, no
        latency records; only server-side costs are collected.  The regime
        of the paper's analytic results (cost = number of encrypted keys).
        Incompatible with ``transport`` and ``verify`` (both need
        receivers).
    deferred_wrap:
        Inert; kept so existing callers still construct.  Every payload
        row seals on the first read of its ciphertext (see
        :class:`repro.crypto.wrap.WrapBatch`), so a cost-only run does no
        HMAC work whatever this says.
    fault_schedule:
        Optional :class:`~repro.faults.schedule.FaultSchedule`.  Channel
        faults (bursts, blackouts, duplicates, jitter) apply to every
        delivery draw; :class:`~repro.faults.schedule.ServerCrash` points
        crash-and-restore the server through the snapshot machinery at the
        next rekey; :class:`~repro.faults.schedule.ChurnStorm` events
        inject membership bursts.
    recovery_delay:
        Seconds between a receiver being abandoned (``OUT_OF_SYNC``) and
        its scheduled unicast catch-up.
    """

    arrival_rate: float = 1.0
    rekey_period: float = 60.0
    horizon: float = 3600.0
    duration_model: TwoClassDuration = field(default_factory=TwoClassDuration)
    loss_population: Optional[LossPopulation] = None
    transport: Optional[object] = None
    verify: bool = True
    seed: int = 0
    cost_only: bool = False
    deferred_wrap: bool = False
    fault_schedule: Optional[FaultSchedule] = None
    recovery_delay: float = 30.0

    def __post_init__(self) -> None:
        if self.cost_only and self.transport is not None:
            raise ValueError("cost_only runs cannot attach a transport")
        if self.cost_only and self.verify:
            raise ValueError(
                "cost_only runs cannot verify member key state; "
                "pass verify=False"
            )
        if self.recovery_delay < 0:
            raise ValueError("recovery_delay must be non-negative")


class GroupRekeyingSimulation:
    """Drive a key server through a full simulated session.

    Parameters
    ----------
    server:
        The scheme under test.
    config:
        Workload and infrastructure knobs.
    join_attributes:
        Optional hook ``(member_id, member_class, loss_rate) -> dict``
        giving the extra keyword arguments for ``server.join`` (PT servers
        need ``member_class``; loss-homogenized servers need
        ``loss_rate``).  The default passes what the server's
        ``join_attributes`` names.
    """

    def __init__(
        self,
        server: PartitionedServer,
        config: Optional[SimulationConfig] = None,
        join_attributes: Optional[Callable[[str, str, float], Dict]] = None,
    ) -> None:
        self.server = server
        self.config = config if config is not None else SimulationConfig()
        self._join_attributes = join_attributes
        # Which attributes the scheme takes is settled here, once: a
        # crash-restore swaps ``self.server`` for one of the same scheme.
        self._joins_take_class = "member_class" in server.join_attributes
        self._joins_take_loss = "loss_rate" in server.join_attributes
        self.loop = EventLoop()
        self.rng = random.Random(self.config.seed)
        if self.config.fault_schedule is not None:
            self.channel: MulticastChannel = FaultyChannel(
                self.config.fault_schedule,
                clock=lambda: self.loop.now,
                seed=self.config.seed + 1,
            )
        else:
            self.channel = MulticastChannel(seed=self.config.seed + 1)
        #: member_id -> state machine, None for a receiver not tracked.
        self.members: Dict[str, Optional[Member]] = {}
        #: The receivers that hold a state machine, in the order they got
        #: one: only these absorb and are verified.
        self.tracked: Dict[str, Member] = {}
        #: loss rate -> the one (stateless) process its members share
        self._loss_processes: Dict[float, BernoulliLoss] = {}
        # Bound once: every member's departure event holds this one method.
        self._depart_event = self._depart
        self.departed: List[Member] = []
        self.metrics = SimulationMetrics()
        self._next_member = 0
        self._crash_cursor = 0
        #: The server's sync tracker, the one record of which receivers are
        #: out of step.  Only a transport abandons receivers; a run without
        #: one builds none (a tracker makes every rekey admit and forget).
        transport = self.config.transport
        self.sync_tracker = self.server.sync if transport is not None else None
        #: Member-level time-to-new-DEK accounting (needs real receivers).
        self.latency: Optional[LatencyTracker] = None
        if not self.config.cost_only:
            # Looked up through self.server at call time: a crash-restore
            # replaces the server, and the label is read off live partitions.
            self.latency = LatencyTracker(
                scheme=server.name, shard_fn=self._shard_label
            )

    def _shard_label(self, member_id: str) -> str:
        return self.server.shard_label(member_id)

    def _desynced(self) -> Mapping[str, Tuple[float, int]]:
        """The tracker's ledger of receivers awaiting unicast catch-up,
        ``member -> (desynced_at, desynced_epoch)``; empty without one."""
        tracker = self.sync_tracker
        return tracker.desynced if tracker is not None else {}

    # ------------------------------------------------------------------
    # workload events
    # ------------------------------------------------------------------

    def _default_join_attributes(self, member_class: str, loss_rate: float) -> Dict:
        attributes: Dict = {}
        if self._joins_take_class:
            attributes["member_class"] = member_class
        if self._joins_take_loss:
            attributes["loss_rate"] = loss_rate
        return attributes

    def _admit_new_member(self) -> str:
        """Join one fresh member now (shared by arrivals and churn storms)."""
        now = self.loop.now
        member_id = f"m{self._next_member}"
        self._next_member += 1
        duration, member_class = self.config.duration_model.sample_with_class(self.rng)
        loss_rate = 0.0
        if self.config.loss_population is not None:
            loss_rate = self.config.loss_population.assign(self.rng).loss_rate
        if self._join_attributes is not None:
            attributes = self._join_attributes(member_id, member_class, loss_rate)
        else:
            attributes = self._default_join_attributes(member_class, loss_rate)

        registration = self.server.join(member_id, at_time=now, **attributes)
        member = None
        if self._tracks_joiner():
            member = Member(member_id, registration.individual_key)
            self.tracked[member_id] = member
        self.members[member_id] = member
        if self.config.transport is not None:
            # Only a transport draws from the channel.
            loss = self._loss_processes.get(loss_rate)
            if loss is None:
                loss = self._loss_processes[loss_rate] = BernoulliLoss(loss_rate)
            self.channel.subscribe(member_id, loss)
        self.loop.schedule(now + duration, self._depart_event, member_id)
        return member_id

    def _tracks_joiner(self) -> bool:
        """Whether the next joiner gets a :class:`Member`: while the tracked
        receivers hold fewer than :data:`TRACKED_RECEIVERS`, never in a
        cost-only run.  Nothing is drawn, so the join order alone fixes
        who is tracked."""
        return not self.config.cost_only and len(self.tracked) < TRACKED_RECEIVERS

    def _arrive(self) -> None:
        self._admit_new_member()
        self.loop.schedule_in(
            self.rng.expovariate(self.config.arrival_rate), self._arrive
        )

    def _depart(self, member_id: str) -> None:
        if member_id not in self.members:
            return
        member = self.members.pop(member_id)
        self.server.leave(member_id, at_time=self.loop.now)
        if self.config.transport is not None:
            self.channel.unsubscribe(member_id)
        since = self._desynced().get(member_id)
        if since is not None and self.latency is not None:
            # Terminal for the latency story: this member leaves without
            # ever recovering — close the interval instead of leaking it.
            # (The ledger keeps it until the next batch forgets it.)
            self.latency.close_abandoned(
                member_id, since, self.loop.now, reason="departed"
            )
        if member is not None:
            del self.tracked[member_id]
            self.departed.append(member)
            if len(self.departed) > DEPARTED_SAMPLE:
                self.departed.pop(0)

    def _churn_storm(self, joins: int, leaves: int) -> None:
        """Inject a membership burst on top of the steady workload."""
        victims = sorted(self.members)
        if leaves and victims:
            for member_id in self.rng.sample(victims, min(leaves, len(victims))):
                self._depart(member_id)
        for __ in range(joins):
            self._admit_new_member()

    # ------------------------------------------------------------------
    # rekeying
    # ------------------------------------------------------------------

    def _maybe_crash(self, now: float) -> bool:
        """Crash-and-restore the server when a crash point has come due.

        The crash lands *mid-batch*: the server computes the pending batch,
        then dies before any packet reaches the wire.  Recovery restores
        the pre-batch snapshot (taken synchronously, modeling durable
        state) and the restored server re-derives an identical batch —
        which the equality check below proves — then delivers it normally.
        The doomed batch runs unobserved: the epoch is booked once, by the
        replay (one ``epoch`` event, ``server.rekeys`` and ``rekey`` span).
        Returns True when this rekey point was handled through the
        crash path.
        """
        schedule = self.config.fault_schedule
        if schedule is None:
            return False
        crashes = schedule.crashes
        if self._crash_cursor >= len(crashes) or (
            crashes[self._crash_cursor].at_time > now
        ):
            return False
        from repro.server.snapshot import restore_server, snapshot_server

        # Consume every crash point that has come due; one restore covers
        # them all (repeated crashes before the same rekey point collapse).
        while self._crash_cursor < len(crashes) and (
            crashes[self._crash_cursor].at_time <= now
        ):
            self._crash_cursor += 1
        state = snapshot_server(self.server)
        with obs.unobserved():
            doomed = self.server.rekey(now=now)  # computed, then lost in the crash
        tracker = self.server._sync
        restored = restore_server(state)
        restored._sync = tracker  # sync registry survives (durable)
        self.server = restored
        replay = self.server.rekey(now=now)
        if (replay.epoch, replay.cost, replay.breakdown) != (
            doomed.epoch,
            doomed.cost,
            doomed.breakdown,
        ):
            raise AssertionError(
                f"crash-restore divergence at t={now}: restored server "
                f"re-derived epoch {replay.epoch} cost {replay.cost}, "
                f"crashed one had epoch {doomed.epoch} cost {doomed.cost}"
            )
        self.metrics.server_crashes += 1
        obs_metrics.inc("server.crashes")
        obs_tracing.event("server-crash", epoch=replay.epoch)
        obs_events.emit("crash", time=now, epoch=replay.epoch)
        self._deliver_batch(replay, now)
        return True

    def _rekey(self) -> None:
        now = self.loop.now
        with obs_tracing.span("epoch", time=now) as epoch_span:
            self._attach_fault_windows(epoch_span, now)
            if not self._maybe_crash(now):
                result = self.server.rekey(now=now)
                self._deliver_batch(result, now)
        self.loop.schedule(now + self.config.rekey_period, self._rekey)

    def _attach_fault_windows(self, epoch_span, now: float) -> None:
        """Attach every fault window open at ``now`` as span events."""
        schedule = self.config.fault_schedule
        if schedule is None or obs_tracing.active_tracer() is None:
            return
        window_kinds = (
            ("loss-burst", schedule.bursts),
            ("blackout", schedule.blackouts),
            ("duplicate", schedule.duplicates),
            ("jitter", schedule.jitters),
        )
        for kind, windows in window_kinds:
            for window in windows:
                if window.active(now):
                    epoch_span.event(
                        "fault-window",
                        kind=kind,
                        start=window.start,
                        end=window.end,
                    )

    def _deliver_batch(self, result: BatchResult, now: float) -> None:
        """Transport the batch payload, let the tracked receivers absorb it,
        handle degradation, verify, record.

        One receiver pass per epoch, after delivery: the server names who
        needs each row (the sparseness property, Section 2.2), the
        transport delivers, and every in-sync receiver it did not abandon
        is delivered; the tracked ones among them absorb once, with
        ``verify`` learning exactly as many keys as the rows that name
        them.  An abandoned receiver keeps its pre-epoch keys and goes
        OUT_OF_SYNC, outside the delivered; one not tracked gets a
        :class:`Member` for its unicast catch-up to restore.
        """
        transport_keys = transport_packets = transport_rounds = 0
        transport_elapsed = 0.0
        abandoned: List[str] = []
        completed: Dict[str, float] = {}
        late: Set[str] = set()
        obs_tracing.set_attr("epoch", result.epoch)
        registry = obs_metrics.active_registry()
        config, transport = self.config, self.config.transport
        if not config.cost_only:
            members, tracked = self.members, self.tracked
            if result.advanced:
                # ELK/LKH+ one-way advances: each member computes locally.
                for member in tracked.values():
                    member.apply_advances(result.advanced)
            if result.encrypted_keys:
                gave_up: Set[str] = set()
                named: Optional[Counter] = None
                if transport is not None or config.verify:
                    audiences = self.server.audiences(result)
                    # Rows per receiver, counted before any delivery: every
                    # receiver's for the registry, else the tracked ones'.
                    if registry is not None:
                        named = Counter(chain.from_iterable(audiences.values()))
                    elif config.verify:
                        sample = set(tracked)
                        named = Counter(
                            chain.from_iterable(
                                audience & sample for audience in audiences.values()
                            )
                        )
                if transport is not None:
                    if registry is not None:
                        registry.observe_many(
                            "receiver.interest_keys", list(named.values())
                        )
                    task = TransportTask(result.encrypted_keys, audiences)
                    with obs_tracing.span(
                        "transport",
                        protocol=getattr(transport, "name", type(transport).__name__),
                    ) as transport_span:
                        try:
                            outcome = transport.run(task, self.channel)
                        except TransportExhausted as exc:
                            # Graceful degradation: the receivers the transport
                            # could not satisfy go OUT_OF_SYNC and recover over
                            # unicast instead of failing the whole run.
                            outcome = exc.result
                            gave_up = exc.pending | outcome.abandoned
                        else:
                            gave_up = outcome.abandoned
                            if not outcome.satisfied and not gave_up:
                                raise RuntimeError(
                                    f"transport failed to satisfy all receivers "
                                    f"at t={now}"
                                )
                        transport_span.set("rounds", outcome.rounds)
                        transport_span.set("packets", outcome.packets_sent)
                        transport_span.set("abandoned", len(gave_up))
                    transport_keys = outcome.keys_sent
                    transport_packets = outcome.packets_sent
                    transport_rounds = outcome.rounds
                    transport_elapsed = outcome.elapsed
                    completed, late = outcome.completed, outcome.late
                    if registry is not None:
                        registry.inc("transport.keys_sent", outcome.keys_sent)
                        registry.inc("transport.packets_sent", outcome.packets_sent)
                # Receivers go out of sync in roster order, so the events
                # below do not depend on set iteration (the hash seed).
                # OUT_OF_SYNC receivers lack wraps they would need, and one
                # the transport gave up on joins them: the unicast catch-up
                # path owns them.
                with obs_tracing.span("deliver") as deliver_span:
                    desynced = self._desynced()
                    if gave_up:
                        abandoned = [rid for rid in members if rid in gave_up]
                        tracker, delay = self.sync_tracker, config.recovery_delay
                        for member_id in abandoned:
                            tracker.mark_out_of_sync(member_id, result.epoch, now)
                            self.loop.schedule(now + delay, self._catch_up, member_id)
                            if members[member_id] is None:
                                registration = self.server.registration(member_id)
                                members[member_id] = tracked[member_id] = Member(
                                    member_id, registration.individual_key
                                )
                    delivered = (
                        [rid for rid in members if rid not in desynced]
                        if desynced
                        else list(members)
                    )
                    index = result.index()
                    for member_id, member in tracked.items():
                        if member_id in desynced:
                            continue
                        keys = member.absorb(result.encrypted_keys, index=index)
                        if config.verify and len(keys) != named[member_id]:
                            raise AssertionError(
                                f"member {member_id} learned {len(keys)} keys "
                                f"in epoch {result.epoch} from "
                                f"{named[member_id]} rows naming it"
                            )
                    deliver_span.set("receivers", len(delivered))
                self.latency.observe_deliveries(delivered, result.epoch, completed, late)
                self.latency.epoch_complete(result.epoch)
        if self.config.verify:
            self._verify(result)
        self.metrics.add(
            RekeyRecord(
                time=now,
                epoch=result.epoch,
                cost=result.cost,
                joined=len(result.joined),
                departed=len(result.departed),
                migrated=len(result.migrated),
                group_size=self.server.size,
                breakdown=dict(result.breakdown),
                transport_keys=transport_keys,
                transport_packets=transport_packets,
                transport_rounds=transport_rounds,
                transport_elapsed=transport_elapsed,
                abandoned=len(abandoned),
            )
        )

    def _catch_up(self, member_id: str) -> None:
        """Unicast recovery: re-issue the member's current entitlement."""
        if member_id not in self._desynced() or member_id not in self.members:
            return  # departed (or already recovered) in the meantime
        payload, recovery = self.server.catch_up(member_id, now=self.loop.now)
        self.members[member_id].absorb(payload)
        if self.latency is not None:
            self.latency.observe_recovery(recovery)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def _verify(self, result: BatchResult) -> None:
        """Security invariants after a rekeying.

        * every tracked member in sync holds the current group key (exact
          id and version);
        * no recently departed tracked member holds it.
        """
        dek = self.server.group_key()
        desynced = self._desynced()
        for member_id, member in self.tracked.items():
            if member_id in desynced:
                # Legitimately behind until its unicast catch-up lands.
                continue
            if not member.holds(dek.key_id, dek.version):
                raise AssertionError(
                    f"member {member_id} missing group key "
                    f"{dek.key_id}#{dek.version} at t={self.loop.now}"
                )
        for member in self.departed:
            if member.holds(dek.key_id, dek.version):
                raise AssertionError(
                    f"departed member {member.member_id} holds current group key"
                )
        self.metrics.verification_checks += 1

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def _tree_degree(self) -> int:
        """The server's key-tree degree (for the Ne(N, L) trace check)."""
        for partition in self.server.partitions:
            if hasattr(partition, "tree"):
                return partition.tree.degree
        return 4

    def run(self) -> SimulationMetrics:
        """Run the configured horizon; returns the collected metrics."""
        # Spans and event records stamp simulated time from here on.
        obs.bind_clock(lambda: self.loop.now)
        obs_metrics.gauge_set("server.degree", self._tree_degree())
        self.loop.schedule_in(
            self.rng.expovariate(self.config.arrival_rate), self._arrive
        )
        self.loop.schedule(self.config.rekey_period, self._rekey)
        if self.config.fault_schedule is not None:
            for storm in self.config.fault_schedule.storms:
                if storm.at_time <= self.config.horizon:
                    self.loop.schedule(
                        storm.at_time, self._churn_storm, storm.joins, storm.leaves
                    )
        self.loop.run_until(self.config.horizon)
        if self.latency is not None:
            # Close any interval still awaiting resync at the horizon so
            # latency accounting never leaks an open story.  A departed
            # member's interval closed when it left.
            members = self.members
            self.latency.finish(
                [entry for entry in self._desynced().items() if entry[0] in members],
                self.loop.now,
            )
        return self.metrics
