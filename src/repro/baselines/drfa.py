"""DRFA (Deng, Kamani & Mahdavi, NeurIPS '20) — distributionally robust FedAvg.

The strongest two-layer minimax baseline: like Stochastic-AFL it optimizes
per-client weights ``q``, but clients run ``τ`` local SGD steps per round, and the
weight ascent uses a loss estimate at a *random checkpoint* — the average of the
clients' models snapshotted at a uniformly drawn step ``t' ∈ [τ]`` — with the step
scaled by ``τ``, keeping the ascent direction unbiased for the round's iterates.

HierMinimax with ``τ2 = 1`` reduces to this update pattern (remarks after
Theorems 1–2), which the test suite verifies.
"""

from __future__ import annotations

from repro.core.rounds import FlatRound
from repro.ops.projections import Projection

__all__ = ["DRFA"]


class DRFA(FlatRound):
    """Distributionally Robust Federated Averaging over a flat topology.

    Parameters
    ----------
    eta_q:
        Weight (ascent) learning rate.
    tau1:
        Local SGD steps per round (the paper's comparison uses 2).
    m_clients:
        Clients sampled per phase; defaults to full participation.
    projection_q:
        Projection onto the weight constraint set (default: probability simplex).
    **common:
        The shared keywords of :class:`~repro.core.base.FederatedAlgorithm`.
    """

    name = "drfa"
    is_minimax = True
    use_checkpoint = True

    def __init__(self, dataset, model_factory, *, eta_q: float = 1e-3,
                 tau1: int = 2, m_clients: int | None = None,
                 projection_q: Projection | None = None, **common) -> None:
        super().__init__(dataset, model_factory, **common)
        self._schedule(eta_q=eta_q, tau1=tau1, m_clients=m_clients,
                       projection_q=projection_q)
