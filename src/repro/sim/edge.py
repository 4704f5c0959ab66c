"""Edge-server actor: the ModelUpdate and LossEstimation procedures of Algorithm 1.

An :class:`EdgeServer` owns the clients of its edge area and implements

* :meth:`model_update` — Part (a) (τ2 client-edge aggregation blocks of τ1 local
  SGD steps each) and Part (b) (checkpoint aggregation at block ``c2``);
* :meth:`estimate_loss` — the Phase-2 loss estimation
  ``f_e(w) = (1/N0) Σ_n f_n(w; ξ_n)``.

Communication with its clients is accounted on the ``client_edge`` link of the
supplied :class:`~repro.topology.comm.CommunicationTracker`.  Each block is one
client leg plus one aggregation point of :mod:`repro.sim.round_ops`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.network import NeuralNetwork
from repro.ops.projections import Projection, identity_projection
from repro.sim.client import Client
from repro.sim.round_ops import RoundContext, aggregate, client_loss, \
    gather_losses, mean_reply, train_clients
from repro.topology.comm import CommunicationTracker
from repro.utils.validation import check_positive_float, check_positive_int

__all__ = ["EdgeServer"]


class EdgeServer:
    """One edge server and its associated clients ``N_e``."""

    def __init__(self, edge_id: int, clients: Sequence[Client]) -> None:
        if not clients:
            raise ValueError(f"edge server {edge_id} needs at least one client")
        self.edge_id = int(edge_id)
        self.clients = list(clients)

    @property
    def num_clients(self) -> int:
        """``N0`` for this area."""
        return len(self.clients)

    @property
    def num_samples(self) -> int:
        """Total training samples of the area's clients."""
        return sum(c.num_samples for c in self.clients)

    def model_update(self, engine: NeuralNetwork, w_start: np.ndarray, *,
                     tau1: int, tau2: int, lr: float,
                     projection: Projection = identity_projection,
                     checkpoint: tuple[int, int] | None = None,
                     tracker: CommunicationTracker | None = None,
                     weight_by_data: bool = False,
                     compressor=None,
                     comp_rng: np.random.Generator | None = None,
                     obs=None,
                     faults=None, round_index: int = 0,
                     backend=None,
                     defense=None,
                     timing=None,
                     roster: Sequence[Client] | None = None,
                     ) -> tuple[np.ndarray, np.ndarray | None]:
        """Run the ModelUpdate procedure from global model ``w_start``.

        Parameters
        ----------
        tau1, tau2:
            Local SGD steps per block and client-edge aggregation blocks per round.
        checkpoint:
            The cloud-sampled ``(c1, c2)`` with ``c1 ∈ [1, τ1]``,
            ``c2 ∈ [0, τ2-1]``; ``None`` disables Part (b) (used by HierFAVG).
        tracker:
            Communication accounting; each aggregation block is one ``client_edge``
            sync cycle; checkpoint uploads ride along with the block-``c2`` upload.
        weight_by_data:
            ``False`` (HierMinimax, Eq. (5)'s uniform ``1/N0`` average — clients of
            an area share one distribution) or ``True`` (HierFAVG's FedAvg-style
            aggregation proportional to client dataset sizes, the ``q_n`` of
            Eq. (1)).
        compressor / comp_rng:
            Optional :class:`~repro.compression.Compressor` applied to client
            uploads — each client transmits a compressed *delta* against the
            block's broadcast model (the Hier-Local-QSGD extension).  Tracker
            float counts use the compressor's payload size.
        obs:
            Optional :class:`~repro.obs.Tracer`: each aggregation block is an
            ``edge_block`` span and each client invocation a
            ``client_local_steps`` span; local steps feed the
            ``sgd_steps_total`` counter.
        faults / round_index:
            Optional :class:`~repro.faults.FaultInjector` plus the cloud round
            it should be queried at.  Dropped clients (and uploads lost or
            quarantined in transit) are excluded from each block's aggregate,
            whose weights are renormalized over the survivors; stragglers
            contribute truncated updates (and miss the checkpoint snapshot
            when they time out before step ``c1``).  A block with zero
            survivors leaves the edge model unchanged.  With a disabled (or
            absent) injector every code path and floating-point operation is
            identical to the pre-fault implementation.
        backend:
            Optional :class:`~repro.exec.ExecutionBackend` running the block's
            client SGD loops (``None`` = serial).  Each block is one dispatch:
            fault decisions fix each client's step budget *before* dispatch,
            and compression / message faults / accounting are applied to the
            returned results afterwards, in client order — so every backend
            is bit-identical to serial (see :mod:`repro.exec.base`).
        defense:
            Optional active :class:`~repro.defense.RobustAggregator` (the
            ``edge`` tier of a :class:`~repro.defense.DefensePolicy`): each
            block's delivered client uploads are combined by the robust rule
            instead of the weighted mean, and rejected/clipped senders are
            reported through ``faults.suspect``.  ``None`` (empty slot or the
            reference mean) keeps the plain weighted mean.
        timing:
            Optional :class:`~repro.simtime.SimTimer`.  Each block charges a
            parallel client region (broadcast down, ``steps`` of compute, the
            upload back) on the virtual clock; the block's simulated duration
            is the max over its participating clients.  A straggler whose
            update was truncated at ``steps < τ1`` is charged at the plan's
            ``straggler_slowdown`` pace — the truncated update still occupies
            the device for (roughly) the full round deadline.  The charge is
            purely additive arithmetic: numerical results are unaffected.
        roster:
            Optional client list overriding the construction-time roster —
            the :mod:`repro.membership` layer passes the edge's *current*
            clients (survivors of churn plus adoptees of a failover).
            ``None`` (default) uses ``self.clients``, byte-identically.

        Returns
        -------
        (w_edge, w_edge_checkpoint):
            The edge model after τ2 blocks, and the aggregated checkpoint model
            (``None`` when ``checkpoint`` is ``None``).
        """
        tau1 = check_positive_int(tau1, "tau1")
        tau2 = check_positive_int(tau2, "tau2")
        lr = check_positive_float(lr, "lr")
        c1: int | None = None
        c2: int | None = None
        if checkpoint is not None:
            c1, c2 = checkpoint
            if not 1 <= c1 <= tau1:
                raise ValueError(f"c1 must be in [1, {tau1}], got {c1}")
            if not 0 <= c2 < tau2:
                raise ValueError(f"c2 must be in [0, {tau2}), got {c2}")
        d = w_start.size
        clients = self.clients if roster is None else list(roster)
        if not clients:
            raise ValueError(f"edge server {self.edge_id} cannot run a model "
                             f"update with an empty roster")
        n0 = len(clients)
        if weight_by_data:
            agg_weights = np.array([c.num_samples for c in clients],
                                   dtype=np.float64)
            agg_weights /= agg_weights.sum()
        else:
            agg_weights = np.full(n0, 1.0 / n0)
        ctx = RoundContext(round_index, engine, lr=lr, projection=projection,
                           backend=backend, obs=obs, faults=faults,
                           timing=timing, tracker=tracker)
        upload_floats = float(d) if compressor is None else \
            compressor.payload_floats(d)
        w_edge = np.array(w_start, dtype=np.float64, copy=True)
        w_ckpt: np.ndarray | None = None
        for t2 in range(tau2):
            is_ckpt_block = c2 is not None and t2 == c2
            with ctx.obs.span("edge_block", edge=self.edge_id, block=t2):
                # Edge broadcasts w_edge to its clients (model-sized, down).
                ctx.tracker.record("client_edge", "down", count=n0, floats=d)
                uploads = train_clients(
                    ctx, clients, w_edge, steps=tau1, link="client_edge",
                    checkpoint_after=c1 if is_ckpt_block else None,
                    weights=agg_weights, up_floats=upload_floats,
                    compressor=compressor, comp_rng=comp_rng,
                    label=f"block:{t2}")
                ctx.tracker.sync_cycle("client_edge")
                w_edge, block_ckpt = aggregate(
                    ctx, uploads, w_edge, link="client_edge",
                    what=f"edge:{self.edge_id}:block:{t2}", rule=defense,
                    checkpoint=is_ckpt_block, expected=n0)
                if is_ckpt_block:
                    w_ckpt = block_ckpt
        return w_edge, w_ckpt

    def estimate_loss(self, engine: NeuralNetwork, w: np.ndarray, *,
                      tracker: CommunicationTracker | None = None,
                      faults=None, round_index: int = 0,
                      loss_clip: float | None = None,
                      timing=None,
                      roster: Sequence[Client] | None = None) -> float | None:
        """LossEstimation: average the clients' minibatch losses at ``w``.

        With an active fault injector the average runs over the clients that
        actually replied (dropped-out clients stay silent; probe replies can be
        lost or corrupted in transit).  Returns ``None`` when *no* client
        replied — the caller falls back to a stale loss for this edge.

        ``loss_clip`` applies the score-damped update at this tier too: client
        reports are capped at ``loss_clip ×`` the cohort median *before* they
        enter the edge average, so one inflated report cannot poison the whole
        edge's score (the cloud-side clip over edge reports is blind to that —
        an attacked edge looks unanimous from above).
        """
        ctx = RoundContext(round_index, engine, faults=faults, timing=timing,
                           tracker=tracker)
        by_id = {client.client_id: client
                 for client in (self.clients if roster is None else roster)}
        # Probes run concurrently: the estimate costs the slowest client's
        # (broadcast + forward pass + scalar reply) chain.
        replies = gather_losses(
            ctx, "client_edge", list(by_id),
            lambda cid: client_loss(ctx, by_id[cid], w, link="client_edge"),
            prefix="client", down_floats=w.size, label="probe_fanout")
        return mean_reply(ctx, replies, loss_clip, "client")

    def full_loss(self, engine: NeuralNetwork, w: np.ndarray) -> float:
        """Exact edge loss ``f_e(w)`` over all the area's data (theory/diagnostics)."""
        total = 0.0
        for client in self.clients:
            total += client.full_loss(engine, w)
        return total / self.num_clients

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeServer(id={self.edge_id}, clients={self.num_clients})"
