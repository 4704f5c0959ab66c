"""HierMinimax generalized to arbitrary-depth hierarchies.

The paper formulates the algorithm for the three-layer client-edge-cloud network
and observes that both the system model ("multi-layer hub-and-spoke-type network
topology", §3) and the method generalize.  :class:`MultiLevelHierMinimax` is that
generalization:

* the network is a :class:`~repro.multilayer.tree.HierarchyTree` of any depth
  ``L``; level 0 is the cloud, level ``L`` the clients;
* each level ``l ∈ {1, …, L}`` has its own period ``τ_l`` — a node at level
  ``l-1`` performs ``τ_l`` aggregations of its children per invocation, and the
  leaves run ``τ_L`` local SGD steps per invocation, so one cloud round spans
  ``Π_l τ_l`` training slots (for ``L = 2`` this is the paper's ``τ1·τ2``);
* the checkpoint index generalizes from ``(c1, c2) ∈ [τ1]×[τ2]`` to a
  mixed-radix digit vector ``(c_1, …, c_L) ∈ [τ_1]×…×[τ_L]`` sampled uniformly,
  each subtree snapshotting during its parent's ``c``-th iteration — preserving
  the uniform-over-slots property behind the unbiased weight gradient;
* minimax weights ``p`` live on the level-1 subtrees (the generalization of edge
  areas), sampled/updated exactly as in Algorithm 1.

With ``depth = 2`` this class executes the same schedule as
:class:`~repro.core.hierminimax.HierMinimax` (verified by the test suite).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.base import FederatedAlgorithm
from repro.data.dataset import FederatedDataset
from repro.multilayer.tree import HierarchyTree
from repro.nn.models import ModelFactory
from repro.ops.projections import Projection, identity_projection, project_simplex
from repro.sim.cloud import CloudServer
from repro.sim.round_ops import RoundContext, aggregate, ascend_weights, \
    client_loss, fan_out, gather_losses, local_steps, mean_reply, relay, \
    train_clients
from repro.topology.comm import CommunicationTracker
from repro.topology.sampling import sample_by_weight, sample_uniform_subset
from repro.utils.validation import check_fraction, check_positive_float, check_positive_int

__all__ = ["MultiLevelHierMinimax"]


class MultiLevelHierMinimax(FederatedAlgorithm):
    """Minimax-fair optimization over an L-level aggregation tree.

    Parameters
    ----------
    dataset:
        Federated data; its edge areas must match the tree's level-1 subtrees
        (``tree.validate_dataset``).
    tree:
        The aggregation hierarchy; default: the paper's 3-layer tree inferred
        from the dataset layout (``regular([N_E, N0])``).
    taus:
        Per-level periods, top first: ``taus[l-1]`` is the number of iterations a
        node at level ``l`` performs per invocation — aggregation blocks for
        interior servers, local SGD steps for the leaf clients.  For the paper's
        three-layer system this is ``(τ2, τ1)``.  Default: all 2 (the paper's
        experimental setting).
    eta_p, m_top, projection_p:
        Weight-ascent rate, sampled level-1 subtrees per phase, and the
        projection onto ``P`` — as in :class:`~repro.core.HierMinimax`.
    """

    name = "multilevel_hierminimax"
    is_minimax = True
    uses_hierarchy = True

    def __init__(self, dataset: FederatedDataset, model_factory: ModelFactory, *,
                 tree: HierarchyTree | None = None,
                 taus: tuple[int, ...] | None = None,
                 eta_p: float = 1e-3, m_top: int | None = None,
                 projection_p: Projection | None = None,
                 batch_size: int = 1, eta_w: float = 1e-3, seed: int = 0,
                 projection_w: Projection = identity_projection,
                 logger=None, obs=None, faults=None, backend=None,
                 defense=None, timing=None, churn=None,
                 population=None) -> None:
        super().__init__(dataset, model_factory, batch_size=batch_size,
                         eta_w=eta_w, seed=seed, projection_w=projection_w,
                         logger=logger, obs=obs, faults=faults, backend=backend,
                         defense=defense, timing=timing, churn=churn,
                         population=population)
        if tree is None:
            counts = self.dataset.clients_per_edge()
            if len(set(counts)) != 1:
                raise ValueError("default tree requires a uniform dataset layout; "
                                 "pass an explicit HierarchyTree otherwise")
            tree = HierarchyTree.regular([self.dataset.num_edges, counts[0]])
        tree.validate_dataset(self.dataset)
        self.tree = tree
        depth = tree.depth
        if taus is None:
            taus = tuple([2] * depth)
        if len(taus) != depth:
            raise ValueError(f"need one tau per level: {depth} levels, "
                             f"got {len(taus)} taus")
        self.taus = tuple(check_positive_int(t, f"taus[{i}]")
                          for i, t in enumerate(taus))
        self.eta_p = check_positive_float(eta_p, "eta_p")
        n_top = tree.num_top_areas
        self.m_top = n_top if m_top is None else check_positive_int(m_top, "m_top")
        check_fraction(self.m_top, n_top, "m_top")
        self.clients = self._build_clients()
        self.cloud = CloudServer(
            n_top, weight_projection=projection_p if projection_p is not None
            else project_simplex)
        self.p: np.ndarray = self.cloud.initial_weights()
        # Replace the base tracker with one that knows the per-level links.
        self.tracker = CommunicationTracker(extra_links=tuple(tree.link_names()))
        self._top_nodes = tree.children_of(0, 0)
        # Level-1 subtrees are structural (a client's leaf position is fixed by
        # the tree), so churn runs in flat mode: arrivals/departures plus
        # crash/partition episodes on the top areas, without re-homing.
        self.membership.bind_flat(self.clients, num_edges=tree.num_top_areas)

    # ---------------------------------------------------------- checkpointing
    def _extra_state(self) -> dict:
        return {"p": self.p, **super()._extra_state()}

    def _restore_extra(self, extra: dict) -> None:
        super()._restore_extra(extra)
        self.p = np.asarray(extra["p"], dtype=np.float64)

    @property
    def slots_per_round(self) -> int:
        """``Π_l τ_l`` local steps per cloud round."""
        return math.prod(self.taus)

    def current_weights(self) -> np.ndarray:
        """The level-1 subtree weights ``p^(k)``."""
        return self.p

    # -------------------------------------------------------------- recursion
    def _decode_checkpoint(self, slot: int) -> tuple[int, ...]:
        """Mixed-radix digits ``(c_1, …, c_L)`` of a flat slot, leaf fastest."""
        digits = [0] * len(self.taus)
        for level in range(len(self.taus) - 1, -1, -1):
            digits[level] = slot % self.taus[level]
            slot //= self.taus[level]
        return tuple(digits)

    def _subtree_update(self, ctx: RoundContext, level: int, node: int,
                        w_start: np.ndarray,
                        ckpt_digits: tuple[int, ...] | None,
                        ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Recursive ModelUpdate of the subtree rooted at (level, node).

        Returns the subtree's final model and its checkpoint aggregate (``None``
        when this invocation is outside the checkpoint path).  Interior nodes
        average over surviving children, so a whole-subtree failure surfaces
        as an unchanged model; only a leaf directly under the cloud (a
        depth-1 tree) can return ``None``, when it drops out.
        """
        depth = self.tree.depth
        if level == depth:
            # Leaf: taus[-1] local SGD steps; snapshot after (leaf digit + 1).
            work, _, results = local_steps(
                ctx, [self.clients[node]], w_start, steps=self.taus[-1],
                checkpoint_after=(None if ckpt_digits is None
                                  else ckpt_digits[-1] + 1))
            return (results[0].w_end, results[0].w_checkpoint) if work \
                else None
        kids = self.tree.children_of(level, node)
        link = f"level_{level + 1}"
        d = w_start.size
        tau_here = self.taus[level - 1]  # iterations a level-`level` node performs
        c_here = None if ckpt_digits is None else ckpt_digits[level - 1]
        w = np.array(w_start, dtype=np.float64, copy=True)
        w_ckpt: np.ndarray | None = None
        for t in range(tau_here):
            on_ckpt_path = c_here is not None and t == c_here
            digits = ckpt_digits if on_ckpt_path else None
            with self.obs.span("edge_block", level=level, node=node, block=t):
                self.tracker.record(link, "down", count=len(kids), floats=d)
                if level + 1 == depth:
                    # Children are the leaf clients: run the whole sibling
                    # group as one dispatch on the execution backend.
                    uploads = train_clients(
                        ctx, [self.clients[k] for k in kids], w,
                        steps=self.taus[-1], link=link,
                        checkpoint_after=(None if digits is None
                                          else digits[-1] + 1))
                else:
                    # Sibling subtrees work concurrently: the block costs the
                    # slowest child's (down + subtree + up) chain, and nested
                    # parallel groups fold to a max-of-max — each level's
                    # barrier in one expression.
                    uploads = fan_out(
                        ctx, kids,
                        lambda k: relay(
                            ctx, link, k, f"node:{level + 1}:{k}", w,
                            lambda: self._subtree_update(ctx, level + 1, k,
                                                         w, digits),
                            down_floats=d,
                            up_floats=d * (2 if on_ckpt_path else 1)),
                        prefix=f"node:{level + 1}")
                self.tracker.sync_cycle(link)
                # Interior nodes are the generalization of the edge tier: the
                # policy's edge-slot aggregator applies at every level below
                # the cloud.
                w, block_ckpt = aggregate(
                    ctx, uploads, w, link=link,
                    what=f"node:{level}:{node}:block:{t}", rule=self._edge_agg,
                    checkpoint=on_ckpt_path)
                if on_ckpt_path:
                    w_ckpt = block_ckpt
        return w, w_ckpt

    def _subtree_loss(self, ctx: RoundContext, level: int, node: int,
                      w: np.ndarray) -> float | None:
        """Recursive LossEstimation: mean of minibatch losses over leaf clients.

        Returns ``None`` when no leaf of the subtree replied.  With a loss
        clip installed, every interior node damps its children's cohort
        before averaging.
        """
        depth = self.tree.depth
        if level == depth:
            return client_loss(ctx, self.clients[node], w)
        link = f"level_{level + 1}"
        d = w.size
        timing = self.timing

        def estimate(k: int) -> float | None:
            if timing.enabled:
                timing.transfer(link, k, d)
            return self._subtree_loss(ctx, level + 1, k, w)

        prefix = "client" if level + 1 == depth else f"node:{level + 1}"
        replies = gather_losses(ctx, link, self.tree.children_of(level, node),
                                estimate, prefix=prefix, down_floats=d)
        return mean_reply(ctx, replies, self._loss_clip, prefix)

    # ------------------------------------------------------------------ round
    def run_round(self, round_index: int) -> None:
        """One generalized Algorithm-1 round over the tree."""
        ctx = self._context(round_index)
        d = self.w.size
        faults = self.faults
        membership = self.membership
        timing = self.timing

        def available(aid: int) -> bool:
            # Top areas are the generalization of edge servers: an edge
            # outage blacks out the whole level-1 subtree for the round,
            # whether faulted or churned away.
            return not ((ctx.injecting and faults.edge_dark(round_index, aid))
                        or (membership.enabled
                            and not membership.edge_available(aid)))

        # Phase 1: sample level-1 subtrees by p; sample the checkpoint digits.
        sampled = sample_by_weight(self.p, self.m_top, self.rng)
        slot = int(self.rng.integers(0, self.slots_per_round))
        ckpt_digits = self._decode_checkpoint(slot)
        with self.obs.span("phase1_model_update", round=round_index,
                           sampled_areas=len(sampled), checkpoint_slot=slot):
            self.tracker.record("level_1", "down", count=len(np.unique(sampled)),
                                floats=d + len(self.taus))
            # Sampled areas work concurrently; nested levels fold to
            # max-of-max.  The cloud itself performs exactly one "iteration"
            # per round, so the level-1 digit is consumed by sampling: the
            # subtree is always on the checkpoint path at the top.
            uploads = fan_out(
                ctx, sampled,
                lambda aid: relay(
                    ctx, "level_1", aid, f"area:{aid}", self.w,
                    lambda: self._subtree_update(
                        ctx, 1, self._top_nodes[aid], self.w, ckpt_digits),
                    down_floats=d + len(self.taus),
                    up_floats=2 * d) if available(aid) else None,
                prefix="area", label="phase1")
            self.tracker.sync_cycle("level_1")
            self.w, w_checkpoint = aggregate(
                ctx, uploads, self.w, link="level_1",
                what="phase1_model_update", rule=self._cloud_agg,
                checkpoint=True)

        # Phase 2: uniform re-sample; recursive loss estimation; ascent on p.
        def estimate(aid: int) -> float | None:
            if not available(aid):
                return None
            if timing.enabled:
                timing.transfer("level_1", aid, d)
            return self._subtree_loss(ctx, 1, self._top_nodes[aid],
                                      w_checkpoint)

        with self.obs.span("phase2_weight_update", round=round_index):
            probed = sample_uniform_subset(len(self._top_nodes), self.m_top,
                                           self.rng)
            # Ascent step scaled by the Π_l τ_l slots each update stands in for.
            self.p = ascend_weights(
                ctx, self.cloud, self.p, probed, estimate, link="level_1",
                prefix="area", down_floats=d, stale=self._last_losses,
                loss_clip=self._loss_clip, eta=self.eta_p,
                tau1=self.slots_per_round, tau2=1, gauge="worst_edge_loss")
