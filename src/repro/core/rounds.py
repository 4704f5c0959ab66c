"""The two shared rounds every registered algorithm is a schedule of.

The Remarks after Theorems 1–2 place the baselines inside HierMinimax's
schedule: ``τ2 = 1`` gives DRFA, ``τ1 = τ2 = 1`` gives Stochastic-AFL, and
HierFAVG / FedAvg are the fixed-weight schedules of the hierarchical and the
flat topology.  So there are two rounds, not five:

* :class:`HierarchicalRound` — Algorithm 1 over client → edge → cloud.
  Phase 1 samples ``m_E`` edges, each runs ModelUpdate (``τ2`` blocks of
  ``τ1`` local steps) and the cloud averages (Eqs. (5)/(6)); Phase 2 probes a
  uniform edge subset and ascends ``p`` (Eq. (7)).
* :class:`FlatRound` — the same two phases over client → cloud, with mixing
  weights ``q`` over clients.

A registered algorithm is one of these plus its name, docstring and schedule
parameters: its constructor hands the shared keywords to
:class:`~repro.core.base.FederatedAlgorithm` (which rejects any other) and its
own parameters to ``_schedule``.  The strategy switches are class attributes:

``is_minimax``
    ``True``: sample by the mixing weights and run Phase 2 (HierMinimax,
    DRFA, Stochastic-AFL).  ``False``: the fixed-weight schedule — uniform
    sampling, no Phase 2, no weights (HierFAVG, FedAvg).
``use_checkpoint``
    Phase 2 probes the random-checkpoint aggregate instead of the round-final
    model (DRFA; HierMinimax takes it as a constructor ablation switch).
``single_step``
    τ1 is fixed to 1 (Stochastic-AFL).

Neither base is registered, so each registered class wraps its own
``run_round`` reference; none inherits it from another registered class.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import FederatedAlgorithm
from repro.sim.round_ops import Upload, aggregate, ascend_weights, \
    client_loss, fan_out, relay, train_clients
from repro.topology.sampling import sample_by_weight, \
    sample_checkpoint_slot, sample_uniform_subset
from repro.utils.rng import restore_generator
from repro.utils.validation import check_fraction, check_positive_float, \
    check_positive_int

__all__ = ["FlatRound", "HierarchicalRound", "EDGE_UNAVAILABLE"]

#: Sentinel returned by :meth:`HierarchicalRound._edge_roster` when the
#: membership layer has taken an edge out of service for the round (crashed,
#: partitioned, or left without a single active client).
EDGE_UNAVAILABLE = object()


class FlatRound(FederatedAlgorithm):
    """Client → cloud round: FedAvg, Stochastic-AFL and DRFA.

    Each round the cloud samples ``m_clients`` clients (by ``q``, or
    uniformly on the fixed-weight schedule), broadcasts ``w``; each runs
    ``τ1`` local steps and the cloud averages (by data size with
    ``weight_by_data``).  Minimax schedules then probe a uniform client
    subset at the fresh model, or at the step-``t'`` checkpoint aggregate
    with ``use_checkpoint``, and ascend ``q`` by ``η_q · τ1``.
    """

    uses_hierarchy = False
    weights_name = "q"
    use_checkpoint = False
    single_step = False

    def _schedule(self, *, tau1: int = 1, m_clients: int | None,
                  eta_q: float = 0.0, projection_q=None,
                  weight_by_data: bool = False) -> None:
        """Validate and install the schedule parameters; build the actors."""
        self.tau1 = 1 if self.single_step else check_positive_int(tau1, "tau1")
        n = self.dataset.num_clients
        self.m_clients = n if m_clients is None else check_positive_int(
            m_clients, "m_clients")
        check_fraction(self.m_clients, n, "m_clients")
        self.weight_by_data = bool(weight_by_data)
        self.clients = self._build_clients()
        # Flat topology: client arrivals/departures only (no edges to fail).
        self.membership.bind_flat(self.clients)
        if self.is_minimax:
            self.eta_q = check_positive_float(eta_q, "eta_q")
            self._init_weights(n, projection_q)

    @property
    def slots_per_round(self) -> int:
        """``τ1`` local steps per round."""
        return self.tau1

    def run_round(self, k: int) -> None:
        """Sample, ``τ1`` local steps, average; minimax: ascend ``q``."""
        ctx = self.ctx
        d = self.w.size
        minimax = self.is_minimax
        if minimax:
            sampled = sample_by_weight(self.q, self.m_clients, self.rng)
        else:
            sampled = sample_uniform_subset(len(self.clients),
                                            self.m_clients, self.rng)
        slot = {}
        if self.use_checkpoint:
            # Checkpoint step t' uniform in {1, ..., τ1}; it rides along with
            # the broadcast.
            slot["t_prime"] = int(self.rng.integers(1, self.tau1 + 1))
        with ctx.obs.span("phase1_model_update", round=k,
                          sampled_clients=len(sampled), **slot):
            ctx.tracker.record("client_cloud", "down",
                               count=len(np.unique(sampled)),
                               floats=d + len(slot))
            # Sampling by q is with replacement: the dispatcher chains a
            # client's duplicate occurrences so its minibatch stream advances
            # exactly as a serial loop would.  A single-step straggler that
            # cannot finish its one step is a dropout.
            clients = [self.clients[int(i)] for i in sampled]
            uploads = train_clients(
                ctx, k, clients, self.w, steps=self.tau1, link="client_cloud",
                checkpoint_after=slot.get("t_prime"),
                down_floats=d + 1 if slot else None,
                weights=([float(c.num_samples) for c in clients]
                         if self.weight_by_data else None))
            ctx.tracker.sync_cycle("client_cloud")
            # Survivor-weighted average: dropped clients leave the
            # denominator.  Without the checkpoint the probe model is w.
            self.w, w_probe = aggregate(
                ctx, k, uploads, self.w, link="client_cloud",
                what="phase1_model_update" if minimax else "model_update",
                rule=ctx.cloud_rule,
                checkpoint=self.use_checkpoint)
        if not minimax:
            return
        with ctx.obs.span("phase2_weight_update", round=k):
            probed = sample_uniform_subset(len(self.clients), self.m_clients,
                                           self.rng)
            self.q = ascend_weights(
                ctx, k, self.cloud, self.q, probed,
                lambda cid: client_loss(ctx, k, self.clients[cid], w_probe,
                                        link="client_cloud"),
                link="client_cloud", prefix="client", down_floats=d,
                stale=self._last_losses, eta=self.eta_q, tau1=self.tau1,
                gauge="worst_client_loss")


class HierarchicalRound(FederatedAlgorithm):
    """Client → edge → cloud round: HierMinimax and HierFAVG.

    Phase 1: the cloud samples ``m_E`` edges (by ``p`` plus a checkpoint
    slot ``(c1, c2)``, or uniformly on the fixed-weight schedule) and each
    runs :meth:`~repro.sim.edge.EdgeServer.model_update`; the cloud averages
    the returned models (by edge data size with ``weight_by_data``) and,
    with ``use_checkpoint``, the checkpoint snapshots.  Phase 2 (minimax
    only) probes a uniform edge subset at that checkpoint model and ascends
    ``p`` by ``η_p · τ1 · τ2``.
    """

    uses_hierarchy = True

    def _schedule(self, *, tau1: int, tau2: int, m_edges: int | None,
                  eta_p: float = 0.0, projection_p=None,
                  use_checkpoint: bool = False, compressor=None,
                  weight_by_data: bool = False) -> None:
        """Validate and install the schedule parameters; build the actors."""
        self.tau1 = check_positive_int(tau1, "tau1")
        self.tau2 = check_positive_int(tau2, "tau2")
        n_e = self.dataset.num_edges
        self.m_edges = n_e if m_edges is None else check_positive_int(
            m_edges, "m_edges")
        check_fraction(self.m_edges, n_e, "m_edges")
        self.weight_by_data = bool(weight_by_data)
        self.use_checkpoint = bool(use_checkpoint)
        self.compressor = compressor
        self._comp_rng = self.rng_factory.stream("compression")
        self._dim = self.w.size
        self.edges = self._build_edges()
        self.membership.bind(self.edges)
        if self.is_minimax:
            self.eta_p = check_positive_float(eta_p, "eta_p")
            self._init_weights(n_e, projection_p)

    @property
    def slots_per_round(self) -> int:
        """``τ1·τ2`` local steps per cloud round."""
        return self.tau1 * self.tau2

    def _extra_state(self) -> dict:
        state = super()._extra_state()
        if not self.is_minimax:
            return state
        state["comp_rng"] = self._comp_rng
        if hasattr(self.compressor, "state_dict"):
            # Error-feedback residuals are carried from round to round.
            state["compressor"] = self.compressor.state_dict()
        return state

    def _restore_extra(self, extra: dict) -> None:
        super()._restore_extra(extra)
        if not self.is_minimax:
            return
        restore_generator(self._comp_rng, extra["comp_rng"])
        if hasattr(self.compressor, "load_state_dict"):
            self.compressor.load_state_dict(extra.get("compressor", {}))

    # ---------------------------------------------------------- phase-1 pieces
    def _sample_phase1(self) -> tuple[np.ndarray, dict, tuple | None]:
        """Phase-1 edges, the slot fields the broadcast carries (minimax:
        ``c1``/``c2``) and the checkpoint ModelUpdate snapshots at."""
        if not self.is_minimax:
            return sample_uniform_subset(self.dataset.num_edges, self.m_edges,
                                         self.rng), {}, None
        sampled = sample_by_weight(self.p, self.m_edges, self.rng)
        c1, c2 = sample_checkpoint_slot(self.tau1, self.tau2, self.rng)
        return (sampled, {"c1": c1, "c2": c2},
                (c1, c2) if self.use_checkpoint else None)

    def _edge_roster(self, edge_id: int):
        """The edge's membership-adjusted roster for this round.

        ``None`` means "use the construction-time roster" (membership
        disabled — the byte-identical static path);
        :data:`EDGE_UNAVAILABLE` means the edge must be skipped this round
        (crashed, partitioned, or drained of active clients); any list is
        the live roster to train/probe with.
        """
        membership = self.membership
        if not membership.enabled:
            return None
        if not membership.edge_available(edge_id):
            return EDGE_UNAVAILABLE
        roster = membership.roster(edge_id)
        if roster is not None and not roster:
            return EDGE_UNAVAILABLE
        return roster

    def _edge_leg(self, k: int, eid: int,
                  checkpoint: tuple[int, int] | None):
        """One sampled edge's Phase-1 leg: broadcast, ModelUpdate, upload.

        The cloud broadcasts ``w^(k)`` (plus the ``(c1, c2)`` slot on minimax
        schedules); the upload is the round-final model and, with the
        checkpoint, its snapshot.  Returns the delivered ``(w_e, w_e_ckpt)``
        pair, or ``None`` when the edge is dark, out of service, or its
        upload was lost in transit.  The leg is charged to the innermost
        open timing scope: a ``branch()`` in the synchronous round, a
        ``measure()`` in the semi-asynchronous one.
        """
        ctx = self.ctx
        if ctx.injecting and self.faults.edge_dark(k, eid):
            return None
        roster = self._edge_roster(eid)
        if roster is EDGE_UNAVAILABLE:
            return None
        d = self._dim
        compressor = self.compressor
        unit = float(d) if compressor is None else \
            compressor.payload_floats(d)
        return relay(
            ctx, k, "edge_cloud", eid, f"edge:{eid}", self.w,
            lambda: self.edges[eid].model_update(
                ctx, k, self.w, tau1=self.tau1, tau2=self.tau2,
                checkpoint=checkpoint, weight_by_data=self.weight_by_data,
                compressor=compressor, comp_rng=self._comp_rng,
                roster=roster),
            down_floats=d + 2 if self.is_minimax else d,
            up_floats=(2 if self.use_checkpoint else 1) * unit,
            compressor=compressor, comp_rng=self._comp_rng)

    def _aggregate_phase1(self, k: int, uploads: list[Upload]) -> np.ndarray:
        """Eqs. (5)/(6): the new ``w`` and the Phase-2 probe model."""
        self.w, w_checkpoint = aggregate(
            self.ctx, k, uploads, self.w, link="edge_cloud",
            what=("phase1_model_update" if self.is_minimax
                  else "model_update"),
            rule=self.ctx.cloud_rule, checkpoint=self.use_checkpoint)
        return w_checkpoint

    # ------------------------------------------------------------------ round
    def run_round(self, k: int) -> None:
        """Phase 1 (model + checkpoint), then Phase 2 (weights) if minimax."""
        ctx = self.ctx
        sampled, slot, checkpoint = self._sample_phase1()
        with ctx.obs.span("phase1_model_update", round=k,
                          sampled_edges=len(sampled), **slot):
            # Cloud broadcasts w^(k) (and (c1, c2)) to the sampled edges.
            ctx.tracker.record("edge_cloud", "down",
                               count=len(np.unique(sampled)),
                               floats=self._dim + len(slot))
            # Sampled edges work concurrently: the synchronous barrier means
            # Phase 1's simulated duration is the slowest edge's leg.
            uploads = fan_out(
                ctx, sampled, lambda eid: self._edge_leg(k, eid, checkpoint),
                prefix="edge", label="phase1",
                weight=((lambda eid: float(self.edges[eid].num_samples))
                        if self.weight_by_data else None))
            ctx.tracker.sync_cycle("edge_cloud")
            w_checkpoint = self._aggregate_phase1(k, uploads)
        if self.is_minimax:
            self._phase2_weight_update(k, w_checkpoint)

    def _phase2_weight_update(self, k: int, w_checkpoint: np.ndarray) -> None:
        """Phase 2 (Eq. (7)): probe a uniform edge subset, ascend the weights."""
        ctx = self.ctx
        d = self._dim
        timing = ctx.timing

        def estimate(eid: int) -> float | None:
            roster = self._edge_roster(eid)
            if roster is EDGE_UNAVAILABLE or (
                    ctx.injecting and self.faults.edge_dark(k, eid)):
                return None
            if timing.enabled:
                timing.transfer("edge_cloud", eid, d)
            return self.edges[eid].estimate_loss(ctx, k, w_checkpoint,
                                                 roster=roster)

        with ctx.obs.span("phase2_weight_update", round=k):
            probed = sample_uniform_subset(self.dataset.num_edges,
                                           self.m_edges, self.rng)
            self.p = ascend_weights(
                ctx, k, self.cloud, self.p, probed, estimate,
                link="edge_cloud", prefix="edge", down_floats=d,
                stale=self._last_losses, eta=self.eta_p, tau1=self.tau1,
                tau2=self.tau2, gauge="worst_edge_loss")
