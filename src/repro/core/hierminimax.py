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

from repro.core.rounds import HierarchicalRound
from repro.ops.projections import Projection

__all__ = ["HierMinimax"]


class HierMinimax(HierarchicalRound):
    """The paper's algorithm: hierarchical distributed minimax optimization.

    Parameters
    ----------
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
    **common:
        The shared keywords of :class:`~repro.core.base.FederatedAlgorithm`.
    """

    name = "hierminimax"
    is_minimax = True

    def __init__(self, dataset, model_factory, *, eta_p: float = 1e-3,
                 tau1: int = 2, tau2: int = 2, m_edges: int | None = None,
                 projection_p: Projection | None = None,
                 use_checkpoint: bool = True, compressor=None,
                 **common) -> None:
        super().__init__(dataset, model_factory, **common)
        self._schedule(eta_p=eta_p, tau1=tau1, tau2=tau2, m_edges=m_edges,
                       projection_p=projection_p,
                       use_checkpoint=use_checkpoint, compressor=compressor)
