"""Stochastic-AFL (Mohri et al., ICML '19) — two-layer agnostic federated learning.

Solves the minimax problem (2) over per-client weights ``q`` with *single-step*
local updates: each round the cloud samples ``m`` clients by ``q``, each takes one
SGD step from the global model, and the cloud averages; it then samples a fresh
uniform subset, collects loss estimates at the new model, and takes a projected
ascent step on ``q``.  It is the ``τ1 = τ2 = 1`` communication-heavy extreme that
HierMinimax generalizes (see the remark after Theorem 1).
"""

from __future__ import annotations

from repro.core.rounds import FlatRound
from repro.ops.projections import Projection

__all__ = ["StochasticAFL"]


class StochasticAFL(FlatRound):
    """Stochastic Agnostic Federated Learning over a flat client-cloud topology.

    Parameters
    ----------
    eta_q:
        Weight (ascent) learning rate.
    m_clients:
        Clients sampled per phase; defaults to full participation.
    projection_q:
        Projection onto the weight constraint set (default: probability simplex).
    **common:
        The shared keywords of :class:`~repro.core.base.FederatedAlgorithm`.
    """

    name = "stochastic_afl"
    is_minimax = True
    single_step = True

    def __init__(self, dataset, model_factory, *, eta_q: float = 1e-3,
                 m_clients: int | None = None,
                 projection_q: Projection | None = None, **common) -> None:
        super().__init__(dataset, model_factory, **common)
        self._schedule(eta_q=eta_q, m_clients=m_clients,
                       projection_q=projection_q)
