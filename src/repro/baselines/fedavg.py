"""FedAvg (McMahan et al., AISTATS '17) — the standard two-layer FL baseline.

Solves the minimization problem (1) with ``q_n`` proportional to client data sizes:
each round the cloud samples ``m`` clients uniformly, broadcasts the global model,
each sampled client runs ``τ1`` local SGD steps, and the cloud averages the returns
weighted by local dataset size.  No edge servers, no mixing-weight updates — the
fairness-blind control of the paper's figures.
"""

from __future__ import annotations

from repro.core.rounds import FlatRound

__all__ = ["FedAvg"]


class FedAvg(FlatRound):
    """Federated Averaging over a flat client-cloud topology.

    Parameters
    ----------
    tau1:
        Local SGD steps per round (the paper's comparison uses 2).
    m_clients:
        Clients sampled per round; defaults to full participation.
    weight_by_data:
        Aggregate proportionally to client dataset sizes (the q_n of Eq. (1));
        ``False`` uses a plain mean.
    **common:
        The shared keywords of :class:`~repro.core.base.FederatedAlgorithm`.
    """

    name = "fedavg"

    def __init__(self, dataset, model_factory, *, tau1: int = 2,
                 m_clients: int | None = None, weight_by_data: bool = True,
                 **common) -> None:
        super().__init__(dataset, model_factory, **common)
        self._schedule(tau1=tau1, m_clients=m_clients,
                       weight_by_data=weight_by_data)
