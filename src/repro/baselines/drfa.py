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

import numpy as np

from repro.core.base import FederatedAlgorithm
from repro.data.dataset import FederatedDataset
from repro.nn.models import ModelFactory
from repro.ops.projections import Projection, identity_projection, project_simplex
from repro.sim.cloud import CloudServer
from repro.sim.round_ops import aggregate, ascend_weights, client_loss, \
    train_clients
from repro.topology.sampling import sample_by_weight, sample_uniform_subset
from repro.utils.validation import check_fraction, check_positive_float, check_positive_int

__all__ = ["DRFA"]


class DRFA(FederatedAlgorithm):
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
    """

    name = "drfa"
    is_minimax = True
    uses_hierarchy = False

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 eta_q: float = 1e-3, tau1: int = 2, m_clients: int | None = None,
                 projection_q: Projection | None = None,
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
        self.eta_q = check_positive_float(eta_q, "eta_q")
        self.tau1 = check_positive_int(tau1, "tau1")
        n = self.dataset.num_clients
        self.m_clients = n if m_clients is None else check_positive_int(
            m_clients, "m_clients")
        check_fraction(self.m_clients, n, "m_clients")
        self.clients = self._build_clients()
        # Flat topology: client arrivals/departures only (no edges to fail).
        self.membership.bind_flat(self.clients)
        self.cloud = CloudServer(
            n, weight_projection=projection_q if projection_q is not None
            else project_simplex)
        self.q: np.ndarray = self.cloud.initial_weights()

    @property
    def slots_per_round(self) -> int:
        """``τ1`` local steps per round."""
        return self.tau1

    def current_weights(self) -> np.ndarray:
        """The per-client mixing weights ``q^(k)``."""
        return self.q

    # ---------------------------------------------------------- checkpointing
    def _extra_state(self) -> dict:
        return {"q": self.q, **super()._extra_state()}

    def _restore_extra(self, extra: dict) -> None:
        super()._restore_extra(extra)
        self.q = np.asarray(extra["q"], dtype=np.float64)

    def run_round(self, round_index: int) -> None:
        """One DRFA round: τ1 local steps with a random checkpoint, then q ascent."""
        ctx = self._context(round_index)
        d = self.w.size
        sampled = sample_by_weight(self.q, self.m_clients, self.rng)
        # Checkpoint step t' uniform in {1, ..., tau1}.
        t_prime = int(self.rng.integers(1, self.tau1 + 1))
        with self.obs.span("phase1_model_update", round=round_index,
                           sampled_clients=len(sampled), t_prime=t_prime):
            self.tracker.record("client_cloud", "down",
                                count=len(np.unique(sampled)), floats=d + 1)
            # Sampling is with replacement: the same client may appear twice;
            # the dispatcher chains duplicate occurrences so its minibatch
            # stream advances exactly as a serial loop would advance it.  The
            # checkpoint snapshot rides along with the round-final upload.
            uploads = train_clients(ctx, [self.clients[int(i)] for i in sampled],
                                    self.w, steps=self.tau1,
                                    link="client_cloud",
                                    checkpoint_after=t_prime,
                                    down_floats=d + 1)
            self.tracker.sync_cycle("client_cloud")
            self.w, w_checkpoint = aggregate(
                ctx, uploads, self.w, link="client_cloud",
                what="phase1_model_update", rule=self._cloud_agg,
                checkpoint=True)

        # Weight ascent phase at the checkpoint model, scaled by tau1.
        with self.obs.span("phase2_weight_update", round=round_index):
            probed = sample_uniform_subset(len(self.clients), self.m_clients,
                                           self.rng)
            self.q = ascend_weights(
                ctx, self.cloud, self.q, probed,
                lambda cid: client_loss(ctx, self.clients[cid], w_checkpoint,
                                        link="client_cloud"),
                link="client_cloud", prefix="client", down_floats=d,
                stale=self._last_losses, loss_clip=self._loss_clip,
                eta=self.eta_q, tau1=self.tau1, gauge="worst_client_loss")
