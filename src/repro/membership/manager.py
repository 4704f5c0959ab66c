"""Seeded membership dynamics and the self-healing hierarchy.

The :class:`MembershipManager` turns a
:class:`~repro.membership.plan.ChurnPlan` into concrete per-round membership
transitions.  Every draw is a pure function of
``(plan.seed, round, kind, entity)``: the first uniform of a dedicated
:class:`numpy.random.SeedSequence` stream (the same idiom as the fault
injector), computed for all entities of a kind in one batch by
:func:`~repro.utils.rng.first_uniforms`, so

* the same plan + seed reproduce the same arrivals, departures, crashes and
  partitions regardless of which algorithm (or how much observability) is
  running,
* transitions never touch the *algorithm's* RNG streams — a null plan is
  bit-identical to no plan at all, and
* a run killed and resumed from a checkpoint replays the remaining rounds'
  churn exactly, because the live topology (active set, home map, edge/link
  episode states) is checkpointed alongside the model.

Self-healing lives here too: heartbeat-style failure detection on the plan's
timeout budget (charged to the virtual clock), deterministic least-load
re-homing of a crashed edge's orphaned clients, edge-state handoff on
failover, and state reconciliation when a partition heals — each charged to
the communication tracker and the :mod:`repro.simtime` cost model so failover
has a bytes and simulated-time price.

Every transition emits a ``membership`` trace event (``joined`` / ``left`` /
``re-homed`` / ``edge_crash`` / ``edge_recover`` / ``partition`` / ``heal`` /
``reconcile``) carrying the post-transition active population, so the
trace-report ledger can be balance-checked: ``joined − left`` must equal the
net population delta.
"""

from __future__ import annotations

import bisect
import heapq
from itertools import compress

import numpy as np

from repro.membership.plan import ChurnPlan
from repro.obs import NULL_TRACER
from repro.utils.rng import first_uniforms, stable_key

__all__ = ["MembershipManager", "NullMembership", "NULL_MEMBERSHIP",
           "resolve_membership"]

#: Floats carried by one heartbeat probe (the detection traffic).
HEARTBEAT_FLOATS = 1.0
#: Non-model floats in an edge-state handoff: the cached loss estimate plus
#: the (summarized) quarantine set that travels with the anchor model.
HANDOFF_EXTRA_FLOATS = 2.0


class NullMembership:
    """Shared no-op: the static topology.  Every query is the identity."""

    enabled = False
    plan = ChurnPlan.none()

    def bind(self, edges) -> None:
        """No-op: a static topology has nothing to bind."""

    def bind_flat(self, clients, num_edges: int = 0) -> None:
        """No-op: a static topology has nothing to bind."""

    def begin_round(self, round_index: int, *, tracker=None, timing=None,
                    dim: int = 0) -> None:
        """No-op: no churn transitions ever happen."""

    def edge_available(self, edge_id: int) -> bool:
        """Every edge is always up."""
        return True

    def client_active(self, client_id: int) -> bool:
        """Every client is always active."""
        return True

    def roster(self, edge_id: int):
        """``None``: algorithms take their static (bit-identical) path."""
        return None

    def state_dict(self) -> dict:
        """Empty: nothing to checkpoint."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """No-op: nothing to restore."""


#: The module-level shared instance (never mutated).
NULL_MEMBERSHIP = NullMembership()


class _LazyActorMap:
    """``client_id -> actor`` mapping that resolves through a population.

    Stands in for the eager ``_actors`` dict when the manager is bound to a
    virtual topology: holding real actor references for every client would
    materialize the population, so lookups defer to the population's
    ``client(cid)`` (which returns the live cohort member or materializes it
    on the spot).
    """

    __slots__ = ("_resolve",)

    def __init__(self, resolve) -> None:
        self._resolve = resolve

    def __getitem__(self, client_id: int):
        return self._resolve(client_id)


class MembershipManager:
    """Per-run membership oracle plus the self-healing bookkeeping.

    Parameters
    ----------
    plan:
        The declarative churn configuration.  ``ChurnPlan.none()`` yields a
        disabled manager whose every query is a constant-time no-op.
    obs:
        Optional :class:`~repro.obs.Tracer` receiving ``membership`` events
        and the membership metric counters; defaults to the shared no-op
        tracer.

    An algorithm binds its topology once at construction — :meth:`bind` with
    its edge servers (hierarchical algorithms: rosters and re-homing apply),
    or :meth:`bind_flat` with its flat client list (two-layer baselines:
    client churn only; the multi-layer generalization also passes its
    top-area count so crash/partition episodes darken whole subtrees,
    without cross-subtree re-homing).
    """

    enabled: bool

    def __init__(self, plan: ChurnPlan, *, obs=None) -> None:
        self.plan = plan
        self.obs = obs if obs is not None else NULL_TRACER
        self.enabled = not plan.is_null
        self._bound = False
        self._rehoming = False        # rosters exist (hierarchical binding)
        self._num_edges = 0
        self._actors: dict[int, object] = {}
        self._client_ids: tuple[int, ...] = ()
        self._initial_home: dict[int, int] = {}
        # Spawn keys of the bound entities ("client" / "edge" / "link"),
        # derived on first draw and reused every round.
        self._keys: dict[str, np.ndarray] = {}
        # ---- the live topology (checkpointed; see state_dict) -------------
        self.active: set[int] = set()
        self.home: dict[int, int] = {}
        self.edge_up: dict[int, bool] = {}
        self.partitioned: set[int] = set()
        # ---- indexes derived from it (rebuilt on bind and on restore) -----
        self._active_mask = np.empty(0, dtype=bool)  # aligned with _client_ids
        self._members: list[list[int]] = []          # edge -> sorted homed ids

    # ------------------------------------------------------------ rng plumbing
    def _uniforms(self, round_index: int, kind: str,
                  entity: str) -> np.ndarray:
        """This round's ``kind`` draw for every bound ``entity`` in id order:
        element ``i`` is the first uniform of the stream of
        ``(seed, kind, round, f"{entity}:{id_i}")``."""
        keys = self._keys.get(entity)
        if keys is None:
            ids = (self._client_ids if entity == "client"
                   else range(self._num_edges))
            keys = self._keys[entity] = np.fromiter(
                (stable_key(f"{entity}:{i}") for i in ids),
                dtype=np.uint64, count=len(ids))
        return first_uniforms(self.plan.seed,
                              (stable_key("membership:" + kind), round_index),
                              keys)

    def _emit(self, round_index: int, action: str, entity: str,
              **fields) -> None:
        self.obs.event("membership", round=round_index, action=action,
                       entity=entity, active=len(self.active), **fields)

    # ---------------------------------------------------------------- binding
    def bind(self, edges) -> None:
        """Bind a hierarchical topology: rosters, homes, and re-homing apply.

        Virtual edge servers (anything exposing ``client_ids()`` +
        ``resolve_client``) bind *lazily*: the manager keeps ids and homes
        only, and actors are materialized through the population exactly when
        a roster is assembled.  Membership state is O(population ids) either
        way — ids, not clients; per round, the churn draw is one batched
        kernel call over those ids and the Python work is O(transitions).
        """
        if not self.enabled:
            return
        self._num_edges = len(edges)
        if edges and hasattr(edges[0], "client_ids"):
            self._actors = _LazyActorMap(edges[0].resolve_client)
            self._initial_home = {cid: edge.edge_id
                                  for edge in edges for cid in edge.client_ids()}
        else:
            self._actors = {client.client_id: client
                            for edge in edges for client in edge.clients}
            self._initial_home = {client.client_id: edge.edge_id
                                  for edge in edges for client in edge.clients}
        self._rehoming = True
        self._init_population(sorted(self._initial_home))

    def bind_flat(self, clients, num_edges: int = 0) -> None:
        """Bind a flat topology: client churn only (no rosters to move).

        ``num_edges > 0`` additionally arms crash/partition episodes for the
        caller's ``num_edges`` top-level areas — they go dark and recover,
        but their clients are never re-homed across subtrees (the data
        assignment is structural there; documented limitation).

        A virtual client roster (exposing ``client_ids()``) binds by id
        without materializing a single client.
        """
        if not self.enabled:
            return
        self._num_edges = int(num_edges)
        self._actors = {}
        self._initial_home = {}
        self._rehoming = False
        if hasattr(clients, "client_ids"):
            self._init_population(sorted(clients.client_ids()))
        else:
            self._init_population(sorted(c.client_id for c in clients))

    def _init_population(self, client_ids) -> None:
        self._client_ids = tuple(client_ids)
        self._keys = {}
        self.home = dict(self._initial_home)
        self.edge_up = {eid: True for eid in range(self._num_edges)}
        self.partitioned = set()
        self._active_mask = np.ones(len(self._client_ids), dtype=bool)
        if self.plan.start_absent > 0.0:
            u = self._uniforms(0, "start_absent", "client")
            self._active_mask = u >= self.plan.start_absent
        self.active = set(compress(self._client_ids, self._active_mask))
        self._index_homes()
        self._bound = True
        self._open_ledger()

    def _open_ledger(self) -> None:
        """The ledger's opening balance: the active population a run (or a
        resumed run) starts from."""
        self._emit(-1, "population", "run", total=len(self._client_ids))

    # --------------------------------------------------------------- queries
    def edge_available(self, edge_id: int) -> bool:
        """Is this edge (or top-level area) reachable from the cloud?"""
        if not self.enabled:
            return True
        return (self.edge_up.get(edge_id, True)
                and edge_id not in self.partitioned)

    def client_active(self, client_id: int) -> bool:
        """Is this client currently a member of the federation?"""
        return not self.enabled or client_id in self.active

    def roster(self, edge_id: int):
        """The edge's *current* client actors, or ``None`` when membership is
        disabled (or flat-bound) — callers fall back to the construction-time
        roster, byte-identically."""
        if not self.enabled or not self._rehoming:
            return None
        active = self.active
        return [self._actors[cid] for cid in self._members[edge_id]
                if cid in active]

    # ------------------------------------------------------ derived indexes
    def _index_homes(self) -> None:
        """Rebuild the per-edge member index from ``home`` (bind time and
        checkpoint restore)."""
        self._members = [[] for _ in range(self._num_edges)]
        for cid in self._client_ids:
            eid = self.home.get(cid)
            if eid is not None:
                self._members[eid].append(cid)

    def _set_home(self, cid: int, dst: int) -> None:
        """Move ``cid``'s home to ``dst``, keeping the member index in step."""
        members = self._members[self.home[cid]]
        del members[bisect.bisect_left(members, cid)]
        bisect.insort(self._members[dst], cid)
        self.home[cid] = dst

    # ------------------------------------------------------------- transitions
    def begin_round(self, round_index: int, *, tracker=None, timing=None,
                    dim: int = 0) -> None:
        """Advance all membership processes to ``round_index``.

        Called once per cloud round, before the algorithm's round body, inside
        the round's virtual-clock scope: detection waits and handoff/sync
        transfers land on the round's simulated timeline and in the round's
        communication delta.  Transition order is fixed (edge episodes, then
        link episodes, then client churn; entities in id order) so the event
        stream and every downstream draw are deterministic.
        """
        if not self.enabled:
            return
        if not self._bound:
            raise RuntimeError("MembershipManager.begin_round before bind(); "
                               "the algorithm must bind its topology first")
        plan = self.plan
        if plan.edge_mttf > 0.0 and self._num_edges:
            self._edge_episodes(round_index, tracker, timing, dim)
        if plan.link_mttf > 0.0 and self._num_edges:
            self._link_episodes(round_index, tracker, timing, dim)
        if plan.arrive > 0.0 or plan.depart > 0.0:
            self._client_churn(round_index, tracker, timing, dim)

    def _detect(self, round_index: int, entity: str, tracker, timing) -> None:
        """Heartbeat failure detection: the cloud notices a dead edge/link
        only after the plan's timeout budget of missed heartbeats."""
        if timing is not None and timing.enabled and \
                self.plan.heartbeat_timeout_s > 0.0:
            timing.advance(self.plan.heartbeat_timeout_s, f"detect:{entity}")
        if tracker is not None:
            # The heartbeat probe that went unanswered.
            tracker.record("edge_cloud", "up", count=1,
                           floats=HEARTBEAT_FLOATS)
        self.obs.count("membership_detections_total")

    def _edge_episodes(self, round_index: int, tracker, timing,
                       dim: int) -> None:
        p_fail = 1.0 / self.plan.edge_mttf
        p_heal = 1.0 / self.plan.edge_mttr
        u = self._uniforms(round_index, "edge_episode", "edge")
        up = np.array([self.edge_up[e] for e in range(self._num_edges)],
                      dtype=bool)
        # An edge's transition depends only on its own state, so the set of
        # transitioning edges is fixed up front; they apply in id order.
        for eid in np.flatnonzero(np.where(up, u < p_fail,
                                           u < p_heal)).tolist():
            entity = f"edge:{eid}"
            if self.edge_up[eid]:
                self.edge_up[eid] = False
                self._detect(round_index, entity, tracker, timing)
                self._emit(round_index, "edge_crash", entity)
                self.obs.count("membership_edge_crashes_total")
                if self.plan.rehome and self._rehoming:
                    self._rehome_orphans(round_index, eid, tracker,
                                         timing, dim)
            else:
                self.edge_up[eid] = True
                self._emit(round_index, "edge_recover", entity)
                self.obs.count("membership_recovered_total")
                # The cloud re-syncs the anchor model to the reborn edge.
                if tracker is not None:
                    tracker.record("edge_cloud", "down", count=1, floats=dim)
                if timing is not None and timing.enabled:
                    timing.transfer("edge_cloud", eid, dim)

    def _rehome_orphans(self, round_index: int, dead_eid: int, tracker,
                        timing, dim: int) -> None:
        """Move every client homed at the crashed edge to a surviving one.

        Target selection is deterministic: least current load (clients homed
        there, active or not), then shortest ring distance from the dead
        edge, then lowest edge id.  Active orphans are charged a warm model
        sync on their new ``client_edge`` link; each distinct target edge is
        charged the state handoff (the dead edge's anchor model, cached loss
        estimate, and quarantine summary, replayed down from the cloud).
        """
        survivors = [e for e in range(self._num_edges)
                     if e != dead_eid and self.edge_up[e]
                     and e not in self.partitioned]
        orphans = list(self._members[dead_eid])
        if not survivors or not orphans:
            return
        n = self._num_edges
        targets = [(len(self._members[e]),
                    min((e - dead_eid) % n, (dead_eid - e) % n), e)
                   for e in survivors]
        heapq.heapify(targets)

        handoff_targets: set[int] = set()
        for cid in orphans:
            load, ring, target = targets[0]
            heapq.heapreplace(targets, (load + 1, ring, target))
            self._set_home(cid, target)
            handoff_targets.add(target)
            if cid in self.active:
                self._emit(round_index, "re-homed", f"client:{cid}",
                           src=dead_eid, dst=target)
                self.obs.count("membership_rehomed_total")
                # Warm sync: the new edge ships the current model down.
                if tracker is not None:
                    tracker.record("client_edge", "down", count=1, floats=dim)
                if timing is not None and timing.enabled:
                    timing.transfer("client_edge", cid, dim)
        for target in sorted(handoff_targets):
            # Edge-state handoff: anchor model + loss estimate + quarantine
            # summary, shipped to each adopting edge.
            if tracker is not None:
                tracker.record("edge_cloud", "down", count=1,
                               floats=dim + HANDOFF_EXTRA_FLOATS)
            if timing is not None and timing.enabled:
                timing.transfer("edge_cloud", target,
                                dim + HANDOFF_EXTRA_FLOATS)
            self.obs.count("membership_handoffs_total")

    def _link_episodes(self, round_index: int, tracker, timing,
                       dim: int) -> None:
        p_cut = 1.0 / self.plan.link_mttf
        p_heal = 1.0 / self.plan.link_mttr
        u = self._uniforms(round_index, "link_episode", "link")
        cut = np.zeros(self._num_edges, dtype=bool)
        cut[list(self.partitioned)] = True
        for eid in np.flatnonzero(np.where(cut, u < p_heal,
                                           u < p_cut)).tolist():
            entity = f"link:{eid}"
            if eid not in self.partitioned:
                self.partitioned.add(eid)
                self._detect(round_index, entity, tracker, timing)
                self._emit(round_index, "partition", entity, edge=eid)
                self.obs.count("membership_partitions_total")
            else:
                self.partitioned.discard(eid)
                self._emit(round_index, "heal", entity, edge=eid)
                self.obs.count("membership_heals_total")
                # Reconcile the diverged edge: anchor re-sync down, the
                # edge's cached loss estimate back up.
                if tracker is not None:
                    tracker.record("edge_cloud", "down", count=1, floats=dim)
                    tracker.record("edge_cloud", "up", count=1, floats=1.0)
                if timing is not None and timing.enabled:
                    timing.transfer("edge_cloud", eid, dim + 1)
                self._emit(round_index, "reconcile", f"edge:{eid}",
                           floats=dim + 1)

    def _client_churn(self, round_index: int, tracker, timing,
                      dim: int) -> None:
        plan = self.plan
        u = self._uniforms(round_index, "client_churn", "client")
        mask = self._active_mask
        # A client's transition depends only on whether it is active, so
        # the transitioning set is fixed up front; it applies in id order.
        for idx in np.flatnonzero(np.where(mask, u < plan.depart,
                                           u < plan.arrive)).tolist():
            cid = self._client_ids[idx]
            entity = f"client:{cid}"
            eid = self.home.get(cid)
            if mask[idx]:
                mask[idx] = False
                self.active.discard(cid)
                self._emit(round_index, "left", entity, edge=eid)
                self.obs.count("membership_left_total")
            else:
                # A returning client whose home crashed meanwhile is adopted
                # immediately (when re-homing is on and a survivor exists):
                # least active load, then lowest id.
                if (self._rehoming and plan.rehome and eid is not None
                        and not self.edge_available(eid)):
                    survivors = [e for e in range(self._num_edges)
                                 if self.edge_available(e)]
                    if survivors:
                        active = self.active
                        eid = min(survivors, key=lambda e: (
                            sum(c in active for c in self._members[e]), e))
                        self._set_home(cid, eid)
                mask[idx] = True
                self.active.add(cid)
                self._emit(round_index, "joined", entity, edge=eid)
                self.obs.count("membership_joined_total")
                # Warm join: the current model is shipped down before the
                # client can participate.
                if tracker is not None:
                    tracker.record("client_edge", "down", count=1, floats=dim)
                if timing is not None and timing.enabled:
                    timing.transfer("client_edge", cid, dim)

    # ------------------------------------------------------------ persistence
    def state_dict(self) -> dict:
        """The live topology (the transition draws themselves are pure)."""
        if not self.enabled:
            return {}
        return {"active": sorted(self.active),
                "home": {str(cid): int(eid)
                         for cid, eid in sorted(self.home.items())},
                "edge_up": {str(eid): bool(up)
                            for eid, up in sorted(self.edge_up.items())},
                "partitioned": sorted(self.partitioned)}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (checkpoint resume).

        An empty dict (a checkpoint written before the membership layer
        existed, or by a run without churn) keeps the bind-time topology, so
        stale checkpoints resume cleanly.  A restored topology re-opens the
        ledger at the restored active count, so a resumed run's segment of a
        concatenated trace balances on its own.
        """
        if not state or not self.enabled:
            return
        self.active = {int(c) for c in state.get("active", ())}
        self.home = {int(c): int(e)
                     for c, e in state.get("home", {}).items()}
        self.edge_up = {int(e): bool(up)
                        for e, up in state.get("edge_up", {}).items()}
        self.partitioned = {int(e) for e in state.get("partitioned", ())}
        self._active_mask = np.isin(
            np.asarray(self._client_ids, dtype=np.int64),
            np.fromiter(self.active, dtype=np.int64, count=len(self.active)))
        self._index_homes()
        self._open_ledger()


def resolve_membership(churn, *, obs=None):
    """Coerce ``churn`` (``None`` | spec string | :class:`ChurnPlan` |
    manager) into a membership manager bound to ``obs``.

    ``None`` and null plans resolve to the shared :data:`NULL_MEMBERSHIP`,
    keeping the static-topology path free of per-run allocations."""
    if isinstance(churn, (MembershipManager, NullMembership)):
        return churn
    if churn is None:
        return NULL_MEMBERSHIP
    if isinstance(churn, str):
        churn = ChurnPlan.parse(churn)
    if not isinstance(churn, ChurnPlan):
        raise TypeError(f"churn must be a ChurnPlan, spec string, or "
                        f"MembershipManager, got {type(churn).__name__}")
    if churn.is_null:
        return NULL_MEMBERSHIP
    return MembershipManager(churn, obs=obs)
