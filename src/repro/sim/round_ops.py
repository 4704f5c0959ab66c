"""Shared round primitives: the step kinds every algorithm is built from.

Algorithm 1 has three kinds of step — clients run local SGD, servers average
their children's models (Eqs. (4)–(6)), and the cloud takes a projected ascent
step on the mixing weights (Eq. (7)) — and the baselines are special cases of
the same schedule (the Remarks after Theorems 1–2).  This module implements
each kind once, with the fault, defense, timing and membership hooks threaded
through it, so an algorithm is its sampling schedule plus calls to:

* :func:`train_clients` — a client leg: step budgets from membership and
  faults, one :func:`~repro.exec.run_local_steps` dispatch, the virtual-clock
  price of the group, then every upload in client order (compression,
  accounting, the faulty link);
* :func:`relay` / :func:`fan_out` — a server leg: broadcast to a child
  server, run its update, carry its (optionally compressed) upload back
  through the faulty link — for every sampled child concurrently;
* :func:`aggregate` — an aggregation point: survivor-renormalised weighted
  mean or the installed robust rule, plus the checkpoint aggregate, with
  ``degraded_round`` / ``checkpoint_fallback`` when nothing arrived;
* :func:`gather_losses` / :func:`mean_reply` — loss probes answered up one
  link, and their (score-damped) average at a server;
* :func:`ascend_weights` — Phase 2: probe, stale-loss fallback, loss clip and
  :meth:`~repro.sim.cloud.CloudServer.update_weights`.

**Floating-point orders.**  Two aggregation orders exist and both are kept
bit for bit (see :func:`aggregate`): the edge tier accumulates pre-normalised
weights (``1/N0`` or the data share) and divides by the surviving weight only
after a loss; the cloud and interior tiers accumulate raw weights and always
divide by the surviving total, which on a healthy round is the cohort size.

With no fault plan, no defense, no cost model and no churn every primitive
reduces to the paper's arithmetic — no draw, no branch on a disabled layer.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.defense.policy import clip_loss_reports, robust_combine
from repro.exec.dispatch import ClientWork, run_local_steps
from repro.membership import NULL_MEMBERSHIP
from repro.obs import NULL_TRACER
from repro.ops.projections import Projection, identity_projection
from repro.simtime import NULL_TIMING
from repro.topology.comm import CommunicationTracker

__all__ = ["RoundContext", "Upload", "train_clients", "local_steps", "relay",
           "fan_out", "aggregate", "gather_losses", "client_loss", "mean_reply",
           "ascend_weights"]


class RoundContext:
    """Everything a primitive reads besides its own inputs, for one round.

    ``faults`` may be ``None`` (a bare actor call): nothing is injected and no
    degradation is reported.  A missing tracker is replaced by a private one
    whose counts are simply dropped.
    """

    __slots__ = ("round_index", "engine", "lr", "projection", "backend",
                 "obs", "faults", "injecting", "timing", "tracker",
                 "membership")

    def __init__(self, round_index: int, engine, *, lr: float = 0.0,
                 projection: Projection = identity_projection,
                 backend=None, obs=None, faults=None, timing=None,
                 tracker: CommunicationTracker | None = None,
                 membership=NULL_MEMBERSHIP) -> None:
        self.round_index = round_index
        self.engine = engine
        self.lr = lr
        self.projection = projection
        self.backend = backend
        self.obs = obs if obs is not None else NULL_TRACER
        self.faults = faults
        self.injecting = faults is not None and faults.enabled
        self.timing = timing if timing is not None else NULL_TIMING
        self.tracker = (tracker if tracker is not None
                        else CommunicationTracker())
        self.membership = membership


class Upload(NamedTuple):
    """One delivered upload at an aggregation point."""

    sender: str
    weight: float
    w: np.ndarray
    ckpt: np.ndarray | None


# ---------------------------------------------------------------- client leg
def _compress(compressor, sender: int, delta: np.ndarray,
              rng: np.random.Generator | None) -> np.ndarray:
    """Apply a compressor to an upload delta, with sender attribution if supported."""
    if rng is None:
        # A fixed fallback generator would silently re-seed on every call,
        # making "random" quantization identical across all uploads — require
        # the caller to thread a real stream instead.
        raise ValueError("compression requires an explicit comp_rng generator")
    if hasattr(compressor, "compress_from"):
        return compressor.compress_from(sender, delta, rng)
    return compressor.compress(delta, rng)


def local_steps(ctx: RoundContext, clients: Sequence, w_start: np.ndarray, *,
                steps: int, checkpoint_after: int | None = None,
                weights: Sequence[float] | None = None,
                ) -> tuple[list[ClientWork], list[float], list]:
    """Fix each client's step budget, then run the group as one dispatch.

    Inactive members and dropouts get no work; a straggler's truncated
    budget loses the checkpoint snapshot when it stops before
    ``checkpoint_after``.  Fault decisions are pure functions of (seed,
    round, client), so fixing them before dispatch changes no bit.  Returns
    the work items, their aggregation weights (``1.0`` without ``weights``)
    and the backend's results, all in client order.
    """
    faults = ctx.faults
    membership = ctx.membership
    work: list[ClientWork] = []
    kept: list[float] = []
    for i, client in enumerate(clients):
        cid = client.client_id
        if membership.enabled and not membership.client_active(cid):
            continue
        budget = (faults.client_steps(ctx.round_index, cid, steps)
                  if ctx.injecting else steps)
        if budget < 1:
            continue
        snapshot = (checkpoint_after if checkpoint_after is not None
                    and checkpoint_after <= budget else None)
        work.append(ClientWork(client, budget, snapshot))
        kept.append(1.0 if weights is None else weights[i])
    results = run_local_steps(
        ctx.backend, ctx.engine, w_start, work, lr=ctx.lr,
        projection=ctx.projection, obs=ctx.obs) if work else []
    return work, kept, results


def train_clients(ctx: RoundContext, clients: Sequence, w_start: np.ndarray,
                  *, steps: int, link: str,
                  checkpoint_after: int | None = None,
                  weights: Sequence[float] | None = None,
                  down_floats: float | None = None,
                  up_floats: float | None = None,
                  compressor=None, comp_rng: np.random.Generator | None = None,
                  label: str | None = None) -> list[Upload]:
    """One client leg: local SGD from ``w_start`` and the uploads it returns.

    Runs :func:`local_steps`, prices the group on the virtual clock (clients
    work concurrently: the leg costs the slowest broadcast + compute + upload
    chain, a truncated straggler at the plan's ``straggler_slowdown`` pace),
    then post-processes every result in client order: optional compression
    of the delta against ``w_start``, the upload's accounting on ``link``,
    and the faulty link.  ``down_floats`` / ``up_floats`` default to the
    model size; an upload carrying a checkpoint snapshot costs twice
    ``up_floats``.  Returns the delivered uploads in client order.
    """
    d = w_start.size
    down = float(d) if down_floats is None else down_floats
    unit = float(d) if up_floats is None else up_floats
    work, kept, results = local_steps(ctx, clients, w_start, steps=steps,
                                      checkpoint_after=checkpoint_after,
                                      weights=weights)
    timing = ctx.timing
    if timing.enabled:
        slowdown = ctx.faults.plan.straggler_slowdown if ctx.injecting else 1.0
        with timing.parallel(label):
            for item in work:
                cid = item.client.client_id
                with timing.branch(f"client:{cid}" if timing.record
                                   else None):
                    timing.transfer(link, cid, down)
                    timing.compute(cid, item.steps,
                                   scale=(slowdown if item.steps < steps
                                          else 1.0))
                    timing.transfer(
                        link, cid,
                        unit * (2 if item.checkpoint_after is not None
                                else 1))
    uploads: list[Upload] = []
    for item, weight, result in zip(work, kept, results):
        cid = item.client.client_id
        w_end, w_c = result.w_end, result.w_checkpoint
        if compressor is not None:
            # Transmit compressed deltas against the broadcast model.
            w_end = w_start + _compress(compressor, cid, w_end - w_start,
                                        comp_rng)
            if w_c is not None:
                w_c = w_start + _compress(compressor, cid, w_c - w_start,
                                          comp_rng)
        sender = f"client:{cid}"
        delivered = _deliver(
            ctx, link, sender, w_end, w_c,
            floats=unit * (2 if item.checkpoint_after is not None else 1),
            ref=w_start)
        if delivered is not None:
            uploads.append(Upload(sender, weight, *delivered))
    return uploads


# ---------------------------------------------------------------- server leg
def _deliver(ctx: RoundContext, link: str, sender: str, *payloads,
            floats: float, ref: np.ndarray | None = None):
    """Account one upload on ``link`` and pass it through the faulty link.

    Returns the delivered payload tuple, or ``None`` when the upload was lost
    or quarantined in transit.
    """
    ctx.tracker.record(link, "up", count=1, floats=floats)
    if not ctx.injecting:
        return payloads
    return ctx.faults.receive(ctx.round_index, link, sender, *payloads,
                              floats=floats, tracker=ctx.tracker, ref=ref)


def relay(ctx: RoundContext, link: str, entity: int, sender: str,
          w_ref: np.ndarray, update: Callable[[], tuple | None], *,
          down_floats: float, up_floats: float, compressor=None,
          comp_rng: np.random.Generator | None = None,
          ) -> tuple[np.ndarray, np.ndarray | None] | None:
    """One child server's leg: broadcast, its update, the upload back.

    ``update()`` runs the child (and charges its own work to the innermost
    open timing scope); it returns the child's ``(w, w_ckpt)`` or ``None``
    when the child produced nothing.  With a ``compressor`` both models
    travel as compressed deltas against ``w_ref``.  Returns the delivered
    pair, or ``None``.
    """
    timing = ctx.timing
    if timing.enabled:
        timing.transfer(link, entity, down_floats)
    out = update()
    if out is None:
        return None
    w, w_ckpt = out
    if compressor is not None:
        w = w_ref + compressor.compress(w - w_ref, comp_rng)
        if w_ckpt is not None:
            w_ckpt = w_ref + compressor.compress(w_ckpt - w_ref, comp_rng)
    if timing.enabled:
        timing.transfer(link, entity, up_floats)
    return _deliver(ctx, link, sender, w, w_ckpt, floats=up_floats, ref=w_ref)


def fan_out(ctx: RoundContext, ids: Sequence[int],
            leg: Callable[[int], tuple | None], *, prefix: str,
            label: str | None = None,
            weight: Callable[[int], float] | None = None) -> list[Upload]:
    """Run ``leg(i)`` for every child in ``ids`` and collect what arrives.

    Children work concurrently: the fan-out costs the slowest leg.  Each
    ``leg`` returns the child's delivered ``(w, w_ckpt)`` or ``None``; the
    upload is attributed to ``"{prefix}:{i}"`` with aggregation weight
    ``weight(i)`` (``1.0`` without one).
    """
    timing = ctx.timing
    uploads: list[Upload] = []
    with timing.parallel(label):
        for i in ids:
            i = int(i)
            sender = f"{prefix}:{i}"
            with timing.branch(sender if timing.record else None):
                delivered = leg(i)
            if delivered is not None:
                uploads.append(Upload(sender,
                                      1.0 if weight is None else weight(i),
                                      *delivered))
    return uploads


# ---------------------------------------------------------- aggregation point
def _weighted_sum(pairs: list[tuple[float, np.ndarray]],
                  expected: int | None) -> np.ndarray | None:
    if not pairs:
        return None
    acc = np.zeros(pairs[0][1].size)
    total = 0.0
    for weight, w in pairs:
        # 1.0 * w == w exactly: a unit weight skips the temporary.
        acc += w if weight == 1.0 else weight * w
        total += weight
    if expected is None or len(pairs) < expected:
        acc /= total
    return acc


def aggregate(ctx: RoundContext, uploads: Sequence[Upload], ref: np.ndarray,
              *, link: str, what: str, rule=None, checkpoint: bool = False,
              expected: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Fold one aggregation point's delivered uploads into ``(w, w_ckpt)``.

    Without a robust ``rule`` the model is ``Σ weight·w`` over the uploads,
    divided by the surviving weight.  ``expected`` selects the edge-tier
    order: the weights are pre-normalised over ``expected`` participants, so
    the division happens only when fewer arrived (a healthy block's
    arithmetic is untouched).  With ``expected=None`` (cloud and interior
    tiers) the division always happens.  An active robust rule replaces the
    mean and reports rejected / clipped senders through ``faults.suspect``;
    both combines reference ``ref``, the model the uploads answer.

    Zero survivors keep ``ref`` (``degraded_round``).  With ``checkpoint``
    the uploads' snapshots are aggregated the same way; when none arrived
    the probe model falls back to the fresh ``w`` (``checkpoint_fallback``).
    Without ``checkpoint`` the returned ``w_ckpt`` is ``w`` itself.
    """
    faults = ctx.faults
    if rule is not None:
        w = robust_combine(rule, [(u.sender, u.weight, u.w) for u in uploads],
                           ref=ref, faults=faults,
                           round_index=ctx.round_index, link=link)
        w_ckpt = robust_combine(
            rule, [(u.sender, u.weight, u.ckpt) for u in uploads
                   if u.ckpt is not None],
            ref=ref, faults=faults, round_index=ctx.round_index,
            link=link) if checkpoint else None
    else:
        w = _weighted_sum([(u.weight, u.w) for u in uploads], expected)
        w_ckpt = _weighted_sum([(u.weight, u.ckpt) for u in uploads
                                if u.ckpt is not None],
                               expected) if checkpoint else None
    if w is None:
        w = ref
        if faults is not None:
            faults.degraded_round(ctx.round_index, what)
    if not checkpoint:
        return w, w
    if w_ckpt is None:
        if faults is not None:
            faults.checkpoint_fallback(ctx.round_index, what)
        w_ckpt = w
    return w, w_ckpt


# -------------------------------------------------------------------- losses
def _clip_losses(ctx: RoundContext, losses: dict, loss_clip: float | None,
                prefix: str) -> dict:
    """Score-damped reports: cap at ``loss_clip ×`` the median, flag senders.

    Returns ``losses`` itself (no copy, no arithmetic) without an active
    clip, so the healthy path stays bit-identical.
    """
    if loss_clip is None or not losses:
        return losses
    clipped, ids, cap = clip_loss_reports(losses, loss_clip)
    if ctx.faults is not None:
        for key in ids:
            ctx.faults.suspect(ctx.round_index, f"{prefix}:{key}",
                               action="loss_clipped", aggregator="loss_clip",
                               cap=round(cap, 6))
    return clipped


def gather_losses(ctx: RoundContext, link: str, ids: Sequence[int],
                  estimate: Callable[[int], float | None], *, prefix: str,
                  down_floats: float, label: str | None = None,
                  ) -> dict[int, float]:
    """Probe every child in ``ids`` for a loss and collect the replies.

    ``estimate(i)`` checks the child's availability, charges the broadcast
    and runs the child's estimate, returning ``None`` when it stays silent.
    Each reply travels up ``link`` as one float through the faulty link.
    Children answer concurrently: the probe costs the slowest branch.
    Returns ``{i: loss}`` for the replies that arrived, in ``ids`` order.
    """
    tracker = ctx.tracker
    timing = ctx.timing
    tracker.record(link, "down", count=len(ids), floats=down_floats)
    replies: dict[int, float] = {}
    with timing.parallel(label):
        for i in ids:
            i = int(i)
            with timing.branch(f"{prefix}:{i}" if timing.record else None):
                loss = estimate(i)
                if loss is None:
                    continue
                if timing.enabled:
                    timing.transfer(link, i, 1)
                delivered = _deliver(ctx, link, f"{prefix}:{i}", loss,
                                     floats=1.0)
                if delivered is None:
                    continue
            replies[i] = delivered[0]
    tracker.sync_cycle(link)
    return replies


def client_loss(ctx: RoundContext, client, w: np.ndarray, *,
                link: str | None = None) -> float | None:
    """One client's answer to a loss probe at ``w``.

    ``None`` when the client is not a member or dropped out this round (a
    straggler still answers).  With ``link`` the broadcast is charged here;
    the forward pass always is.
    """
    cid = client.client_id
    if not ctx.membership.client_active(cid) or (
            ctx.injecting
            and not ctx.faults.client_available(ctx.round_index, cid)):
        return None
    if ctx.timing.enabled:
        if link is not None:
            ctx.timing.transfer(link, cid, w.size)
        ctx.timing.probe(cid)
    return client.estimate_loss(ctx.engine, w)


def mean_reply(ctx: RoundContext, replies: dict, loss_clip: float | None,
               prefix: str) -> float | None:
    """Average of the arrived replies (``None`` when none did), after the
    loss clip damps the cohort — one inflated report cannot poison the
    whole subtree's score on its way up."""
    if not replies:
        return None
    replies = _clip_losses(ctx, replies, loss_clip, prefix)
    return sum(replies.values()) / len(replies)


def ascend_weights(ctx: RoundContext, cloud, weights: np.ndarray,
                   probed: Sequence[int],
                   estimate: Callable[[int], float | None], *, link: str,
                   prefix: str, down_floats: float, stale: dict[int, float],
                   loss_clip: float | None, eta: float, tau1: int = 1,
                   tau2: int = 1, gauge: str) -> np.ndarray:
    """Phase 2 (Eq. (7)): probe ``probed``, then one projected ascent step.

    A probed entity that stays silent (dark, unavailable, reply lost)
    contributes the last loss the cloud saw for it, if any
    (``stale_loss``); ``stale`` is that memory and is refreshed in place.
    Returns the updated weights, or ``weights`` unchanged when no loss at
    all is known this round (``degraded_round``).
    """
    faults = ctx.faults
    replies = gather_losses(ctx, link, probed, estimate, prefix=prefix,
                            down_floats=down_floats, label="phase2")
    losses: dict[int, float] = {}
    for e in probed:
        eid = int(e)
        if eid in replies:
            losses[eid] = replies[eid]
            continue
        value = stale.get(eid)
        if value is not None:
            faults.stale_loss(ctx.round_index, f"{prefix}:{eid}", value)
            losses[eid] = value
    losses = _clip_losses(ctx, losses, loss_clip, prefix)
    if not losses:
        # No loss information at all this round: keep the weights as is.
        faults.degraded_round(ctx.round_index, "phase2_weight_update")
        return weights
    stale.update(losses)
    ctx.obs.gauge(gauge, max(losses.values()))
    v = cloud.build_loss_vector(losses)
    return cloud.update_weights(weights, v, eta_p=eta, tau1=tau1, tau2=tau2)
