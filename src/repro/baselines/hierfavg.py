"""HierFAVG (Liu et al., ICC '20) — hierarchical FedAvg.

Uses the same three-layer client-edge-cloud schedule as HierMinimax (``τ1`` local
steps per client-edge aggregation, ``τ2`` aggregations per cloud round) but solves
the *minimization* problem (1): edges are sampled uniformly, there is no weight
vector and no Phase 2.  It is the ablation isolating the value of minimax fairness
from the value of the hierarchy in the paper's comparisons (Figs. 3–4, Table 2).
"""

from __future__ import annotations

from repro.core.rounds import HierarchicalRound

__all__ = ["HierFAVG"]


class HierFAVG(HierarchicalRound):
    """Hierarchical Federated Averaging (minimization objective).

    Parameters
    ----------
    tau1, tau2:
        Local steps per aggregation block and blocks per cloud round
        (the paper's comparison uses 2 and 2).
    m_edges:
        Edge servers sampled (uniformly) per round; defaults to full participation.
    weight_by_data:
        ``True`` (default, faithful to Liu et al. and to Eq. (1) with ``q_n``
        proportional to data size): client-edge and edge-cloud aggregations are
        weighted by sample counts.  ``False`` uses plain means at both levels.
    **common:
        The shared keywords of :class:`~repro.core.base.FederatedAlgorithm`.
    """

    name = "hierfavg"

    def __init__(self, dataset, model_factory, *, tau1: int = 2,
                 tau2: int = 2, m_edges: int | None = None,
                 weight_by_data: bool = True, **common) -> None:
        super().__init__(dataset, model_factory, **common)
        self._schedule(tau1=tau1, tau2=tau2, m_edges=m_edges,
                       weight_by_data=weight_by_data)
