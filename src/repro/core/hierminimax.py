"""HierMinimax — Algorithm 1 of the paper.

Hierarchical distributed minimax optimization over the client-edge-cloud network:

* **Phase 1 (model update).**  The cloud samples ``m_E`` edge servers i.i.d. from
  the current edge weights ``p^(k)`` and a checkpoint index ``(c1, c2)`` uniformly
  from ``[τ1]×[τ2]``, then broadcasts ``w^(k)`` and ``(c1, c2)``.  Each sampled edge
  runs ModelUpdate — ``τ2`` client-edge aggregation blocks of ``τ1`` local SGD steps
  (Eq. (4)) — and simultaneously aggregates the block-``c2``/step-``c1`` checkpoint
  snapshot.  The cloud averages the returned models (Eq. (5)) and checkpoint models
  (Eq. (6)).
* **Phase 2 (weight update).**  The cloud samples a fresh uniform subset of ``m_E``
  edges, broadcasts the checkpoint model, collects each sampled edge's minibatch
  loss estimate, builds the unbiased gradient estimate ``v`` (``v_e = N_E/m_E ·
  f_e`` on sampled coordinates), and takes the projected ascent step
  ``p^(k+1) = Π_P(p^(k) + η_p τ1 τ2 v)`` (Eq. (7)).

The checkpoint mechanism is what lets the weight vector be updated once per
``τ1·τ2`` model-update slots while keeping the ascent direction unbiased for the
*average* iterate of the round (Appendix A) — the asymmetric-synchronization device
that the convergence analysis of §5 hinges on.

Setting ``τ1 = τ2 = 1`` with full participation recovers Stochastic-AFL's update
pattern; ``τ2 = 1`` recovers DRFA's (Remarks after Theorems 1–2); both reductions
are verified by the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import EDGE_UNAVAILABLE, FederatedAlgorithm
from repro.data.dataset import FederatedDataset
from repro.nn.models import ModelFactory
from repro.ops.projections import Projection, identity_projection, project_simplex
from repro.sim.cloud import CloudServer
from repro.sim.round_ops import RoundContext, Upload, aggregate, \
    ascend_weights, fan_out
from repro.topology.sampling import (
    sample_by_weight,
    sample_checkpoint_slot,
    sample_uniform_subset,
)
from repro.utils.rng import restore_generator
from repro.utils.validation import check_fraction, check_positive_float, check_positive_int

__all__ = ["HierMinimax"]


class HierMinimax(FederatedAlgorithm):
    """The paper's algorithm: hierarchical distributed minimax optimization.

    Parameters
    ----------
    dataset, model_factory, batch_size, eta_w, seed, projection_w, logger:
        See :class:`~repro.core.base.FederatedAlgorithm`.
    eta_p:
        Weight learning rate ``η_p`` of Eq. (7).
    tau1:
        Local SGD steps per client-edge aggregation block.
    tau2:
        Client-edge aggregation blocks per cloud round.
    m_edges:
        Edge servers sampled per phase (``m_E``); defaults to full participation.
    projection_p:
        Projection onto the weight constraint set ``P``; defaults to the
        probability simplex ``Δ_{N_E-1}``.  Pass e.g. a
        :func:`~repro.ops.projections.project_capped_simplex` closure for the
        paper's general convex-constraint variant.
    use_checkpoint:
        Ablation switch.  ``True`` (the paper's algorithm) estimates Phase-2
        losses at the uniformly-sampled checkpoint model of Eq. (6) — the device
        that keeps the ascent direction unbiased for the round's iterates.
        ``False`` estimates them at the round-final global model ``w^(k+1)``
        instead (a biased but cheaper variant), exercised by
        ``benchmarks/bench_ablation_checkpoint.py``.
    compressor:
        Optional :class:`~repro.compression.Compressor` applied to all model
        uploads (client→edge and edge→cloud) as deltas against the receiver's
        reference model — the quantized extension in the spirit of
        Hier-Local-QSGD [22].  ``None`` (default) is the paper's full-precision
        algorithm.
    """

    name = "hierminimax"
    is_minimax = True
    uses_hierarchy = True

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 eta_p: float = 1e-3, tau1: int = 2, tau2: int = 2,
                 m_edges: int | None = None,
                 projection_p: Projection | None = None,
                 use_checkpoint: bool = True,
                 compressor=None,
                 batch_size: int = 1, eta_w: float = 1e-3, seed: int = 0,
                 projection_w: Projection = identity_projection,
                 logger=None, obs=None, faults=None, backend=None,
                 defense=None, timing=None, churn=None,
                 population=None) -> None:
        super().__init__(dataset, model_factory, batch_size=batch_size, eta_w=eta_w,
                         seed=seed, projection_w=projection_w, logger=logger,
                         obs=obs, faults=faults, backend=backend,
                         defense=defense, timing=timing, churn=churn,
                         population=population)
        self.eta_p = check_positive_float(eta_p, "eta_p")
        self.tau1 = check_positive_int(tau1, "tau1")
        self.tau2 = check_positive_int(tau2, "tau2")
        n_e = self.dataset.num_edges
        self.m_edges = n_e if m_edges is None else check_positive_int(m_edges, "m_edges")
        check_fraction(self.m_edges, n_e, "m_edges")
        self.edges = self._build_edges()
        self.membership.bind(self.edges)
        self.cloud = CloudServer(
            n_e, weight_projection=projection_p if projection_p is not None
            else project_simplex)
        self.p: np.ndarray = self.cloud.initial_weights()
        self.use_checkpoint = bool(use_checkpoint)
        self.compressor = compressor
        self._comp_rng = self.rng_factory.stream("compression")
        self._dim = self.w.size

    @property
    def slots_per_round(self) -> int:
        """``τ1·τ2`` local steps per cloud round."""
        return self.tau1 * self.tau2

    def current_weights(self) -> np.ndarray:
        """The current edge weight vector ``p^(k)``."""
        return self.p

    # ---------------------------------------------------------- checkpointing
    def _extra_state(self) -> dict:
        state = {"p": self.p, "comp_rng": self._comp_rng,
                 **super()._extra_state()}
        if hasattr(self.compressor, "state_dict"):
            # Error-feedback residuals are carried from round to round.
            state["compressor"] = self.compressor.state_dict()
        return state

    def _restore_extra(self, extra: dict) -> None:
        super()._restore_extra(extra)
        self.p = np.asarray(extra["p"], dtype=np.float64)
        restore_generator(self._comp_rng, extra["comp_rng"])
        if hasattr(self.compressor, "load_state_dict"):
            self.compressor.load_state_dict(extra.get("compressor", {}))

    # ---------------------------------------------------------- phase-1 pieces
    def _edge_upload(self, ctx: RoundContext, eid: int,
                     checkpoint: tuple[int, int] | None):
        """One sampled edge's Phase-1 leg (see :meth:`_edge_leg`): the cloud
        broadcasts ``w^(k)`` plus the ``(c1, c2)`` slot; uploads are the
        round-final model and, with the checkpoint, its snapshot."""
        unit_floats = (float(self._dim) if self.compressor is None
                       else self.compressor.payload_floats(self._dim))
        return self._edge_leg(
            ctx, eid, down_floats=self._dim + 2,
            up_floats=(2 if self.use_checkpoint else 1) * unit_floats,
            checkpoint=checkpoint, compressor=self.compressor,
            comp_rng=self._comp_rng)

    def _aggregate_phase1(self, ctx: RoundContext, uploads: list[Upload],
                          ) -> np.ndarray:
        """Eqs. (5)/(6): the new ``w`` and the Phase-2 probe model."""
        self.w, w_checkpoint = aggregate(
            ctx, uploads, self.w, link="edge_cloud",
            what="phase1_model_update", rule=self._cloud_agg,
            checkpoint=self.use_checkpoint)
        return w_checkpoint

    # ------------------------------------------------------------------ round
    def run_round(self, round_index: int) -> None:
        """One training round: Phase 1 (model + checkpoint) then Phase 2 (weights)."""
        ctx = self._context(round_index)
        # ---- Phase 1: sample edges by p, sample the checkpoint slot.
        sampled = sample_by_weight(self.p, self.m_edges, self.rng)
        c1, c2 = sample_checkpoint_slot(self.tau1, self.tau2, self.rng)
        checkpoint = (c1, c2) if self.use_checkpoint else None
        with self.obs.span("phase1_model_update", round=round_index,
                           sampled_edges=len(sampled), c1=c1, c2=c2):
            # Cloud broadcasts w^(k) and (c1, c2) to the sampled edges.
            self.tracker.record("edge_cloud", "down",
                                count=len(np.unique(sampled)),
                                floats=self._dim + 2)
            # Sampled edges work concurrently: the synchronous barrier means
            # Phase 1's simulated duration is the slowest edge's leg.
            uploads = fan_out(
                ctx, sampled,
                lambda eid: self._edge_upload(ctx, eid, checkpoint),
                prefix="edge", label="phase1")
            self.tracker.sync_cycle("edge_cloud")
            w_checkpoint = self._aggregate_phase1(ctx, uploads)

        # ---- Phase 2: uniform re-sample, loss estimation at the checkpoint model.
        self._phase2_weight_update(ctx, w_checkpoint)

    def _phase2_weight_update(self, ctx: RoundContext,
                              w_checkpoint: np.ndarray) -> None:
        """Phase 2 (Eq. (7)): probe a uniform edge subset, ascend the weights."""
        d = self._dim
        timing = self.timing

        def estimate(eid: int) -> float | None:
            roster = self._edge_roster(eid)
            if roster is EDGE_UNAVAILABLE or (
                    ctx.injecting and self.faults.edge_dark(ctx.round_index,
                                                            eid)):
                return None
            if timing.enabled:
                timing.transfer("edge_cloud", eid, d)
            return self.edges[eid].estimate_loss(
                self.engine, w_checkpoint, tracker=self.tracker,
                faults=self.faults, round_index=ctx.round_index,
                loss_clip=self._loss_clip, timing=timing, roster=roster)

        with self.obs.span("phase2_weight_update", round=ctx.round_index):
            probed = sample_uniform_subset(self.dataset.num_edges,
                                           self.m_edges, self.rng)
            self.p = ascend_weights(
                ctx, self.cloud, self.p, probed, estimate, link="edge_cloud",
                prefix="edge", down_floats=d, stale=self._last_losses,
                loss_clip=self._loss_clip, eta=self.eta_p, tau1=self.tau1,
                tau2=self.tau2, gauge="worst_edge_loss")
