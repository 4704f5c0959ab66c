"""Contract tests for the shared round primitives of :mod:`repro.sim.round_ops`.

Every algorithm's aggregation points, client legs and weight ascent go
through these functions, so their arithmetic order and degradation rules are
pinned here directly (the golden trajectory digests pin their composition).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.defense.aggregators import AggregationOutcome, RobustAggregator
from repro.faults import FaultInjector, FaultPlan
from repro.sim.cloud import CloudServer
from repro.sim.round_ops import RunContext, Upload, aggregate, \
    ascend_weights, mean_reply
from repro.topology.comm import CommunicationTracker


class _Events:
    """Tracer stand-in keeping every event verbatim."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[tuple[str, dict]] = []

    def event(self, kind: str, **fields) -> None:
        self.events.append((kind, fields))

    def count(self, name: str, amount: float = 1.0) -> None:
        """Counters are not under test."""

    def gauge(self, name: str, value: float) -> None:
        """Gauges are not under test."""

    def kinds(self, kind: str) -> list[dict]:
        return [fields for k, fields in self.events if k == kind]


K = 3  # the round index every context-bound call below runs at


def _ctx(plan: FaultPlan | None = None, loss_clip: float | None = None):
    obs = _Events()
    faults = FaultInjector(plan if plan is not None else FaultPlan.none(),
                           obs=obs)
    ctx = RunContext(None, 0.1, obs=obs, faults=faults,
                     tracker=CommunicationTracker(), loss_clip=loss_clip)
    return ctx, obs


def _vectors(n: int, d: int = 5, seed: int = 0) -> list[np.ndarray]:
    gen = np.random.default_rng(seed)
    return [gen.normal(size=d) for _ in range(n)]


class TestArithmeticOrder:
    def test_edge_tier_healthy_block_skips_the_division(self):
        ctx, _ = _ctx()
        ws = _vectors(3)
        weights = np.full(3, 1.0 / 3)
        uploads = [Upload(f"client:{i}", weights[i], w, None)
                   for i, w in enumerate(ws)]
        out, _ = aggregate(ctx, K, uploads, np.zeros(5), link="client_edge",
                           what="edge:0:block:0", expected=3)
        acc = np.zeros(5)
        for weight, w in zip(weights, ws):
            acc += weight * w
        assert np.array_equal(out, acc)

    def test_edge_tier_divides_by_surviving_weight_after_a_loss(self):
        ctx, _ = _ctx()
        ws = _vectors(3)
        share = np.array([2.0, 3.0, 5.0]) / 10.0
        uploads = [Upload("client:0", share[0], ws[0], None),
                   Upload("client:2", share[2], ws[2], None)]
        out, _ = aggregate(ctx, K, uploads, np.zeros(5), link="client_edge",
                           what="edge:0:block:0", expected=3)
        acc = np.zeros(5)
        acc += share[0] * ws[0]
        acc += share[2] * ws[2]
        live = 0.0
        live += share[0]
        live += share[2]
        acc /= live
        assert np.array_equal(out, acc)

    @pytest.mark.parametrize("survivors", [4, 2])
    def test_cloud_tier_sums_then_divides_by_the_count(self, survivors):
        ctx, _ = _ctx()
        ws = _vectors(survivors, seed=1)
        uploads = [Upload(f"edge:{i}", 1.0, w, None) for i, w in enumerate(ws)]
        out, _ = aggregate(ctx, K, uploads, np.zeros(5), link="edge_cloud",
                           what="phase1_model_update")
        acc = np.zeros(5)
        for w in ws:
            acc += w
        acc /= survivors
        assert np.array_equal(out, acc)

    def test_cloud_tier_weighted_mean(self):
        ctx, _ = _ctx()
        ws = _vectors(3, seed=2)
        sizes = [12.0, 30.0, 7.0]
        uploads = [Upload(f"edge:{i}", s, w, None)
                   for i, (s, w) in enumerate(zip(sizes, ws))]
        out, _ = aggregate(ctx, K, uploads, np.zeros(5), link="edge_cloud",
                           what="model_update")
        acc = np.zeros(5)
        for s, w in zip(sizes, ws):
            acc += s * w
        assert np.array_equal(out, acc / sum(sizes))


class TestDegradation:
    def test_zero_survivors_keep_the_model(self):
        ctx, obs = _ctx()
        ref = np.arange(5.0)
        out, ckpt = aggregate(ctx, K, [], ref, link="edge_cloud",
                              what="phase1_model_update", checkpoint=True)
        assert np.array_equal(out, np.arange(5.0))
        assert ckpt is out
        faults = [f["fault"] for f in obs.kinds("fault")]
        assert faults == ["degraded_round", "checkpoint_fallback"]
        assert obs.kinds("fault")[0]["entity"] == "phase1_model_update"

    def test_missing_checkpoint_probes_the_fresh_model(self):
        ctx, obs = _ctx()
        ws = _vectors(2, seed=3)
        uploads = [Upload(f"edge:{i}", 1.0, w, None) for i, w in enumerate(ws)]
        out, ckpt = aggregate(ctx, K, uploads, np.zeros(5), link="edge_cloud",
                              what="phase1_model_update", checkpoint=True)
        assert np.array_equal(out, (ws[0] + ws[1]) / 2)
        assert ckpt is out
        assert [f["fault"] for f in obs.kinds("fault")] == \
            ["checkpoint_fallback"]

    def test_checkpoint_aggregated_over_its_own_survivors(self):
        ctx, obs = _ctx()
        ws = _vectors(3, seed=4)
        cs = _vectors(3, seed=5)
        uploads = [Upload("edge:0", 1.0, ws[0], cs[0]),
                   Upload("edge:1", 1.0, ws[1], None),
                   Upload("edge:2", 1.0, ws[2], cs[2])]
        _, ckpt = aggregate(ctx, K, uploads, np.zeros(5), link="edge_cloud",
                            what="phase1_model_update", checkpoint=True)
        acc = np.zeros(5)
        acc += cs[0]
        acc += cs[2]
        assert np.array_equal(ckpt, acc / 2)
        assert obs.events == []

    def test_bare_actor_context_reports_nothing(self):
        ctx = RunContext(None, 0.1)
        out, _ = aggregate(ctx, 0, [], np.ones(3), link="client_edge",
                           what="edge:0:block:0", expected=2)
        assert np.array_equal(out, np.ones(3))


class _Distrustful(RobustAggregator):
    """Rejects the first upload, clips the second, averages the rest."""

    name = "distrustful"

    def __init__(self) -> None:
        self.refs: list[np.ndarray | None] = []

    def combine(self, vectors, weights=None, ref=None) -> AggregationOutcome:
        self.refs.append(ref)
        return AggregationOutcome(value=np.mean(vectors[2:], axis=0),
                                  rejected=(0,), clipped=(1,))


class TestRobustRule:
    def test_rejected_and_clipped_senders_are_suspected(self):
        ctx, obs = _ctx()
        ws = _vectors(4, seed=6)
        ref = np.zeros(5)
        uploads = [Upload(f"client:{i}", 0.25, w, None)
                   for i, w in enumerate(ws)]
        rule = _Distrustful()
        out, _ = aggregate(ctx, K, uploads, ref, link="client_edge",
                           what="edge:1:block:0", rule=rule, expected=4)
        assert np.array_equal(out, np.mean(ws[2:], axis=0))
        assert rule.refs == [ref]
        flagged = [(f["entity"], f["action"], f["link"])
                   for f in obs.kinds("defense")]
        assert flagged == [("client:0", "rejected", "client_edge"),
                           ("client:1", "clipped", "client_edge")]
        assert ctx.faults.suspicion == {"client:0": 1, "client:1": 1}


class TestLosses:
    def test_stale_loss_replaces_a_lost_probe(self):
        # Every reply is lost (no retries): the cloud must reuse its memory.
        ctx, obs = _ctx(FaultPlan.parse("msg_loss=1.0,max_retries=0,seed=0"))
        cloud = CloudServer(3)
        p = cloud.initial_weights()
        stale = {0: 0.5, 2: 2.0}
        out = ascend_weights(ctx, K, cloud, p, [0, 1, 2], lambda e: 1.0,
                             link="edge_cloud", prefix="edge", down_floats=4,
                             stale=stale, eta=0.1,
                             gauge="worst_edge_loss")
        expected = cloud.update_weights(
            p, cloud.build_loss_vector({0: 0.5, 2: 2.0}), eta_p=0.1)
        assert np.array_equal(out, expected)
        used = [(f["entity"], f["value"]) for f in obs.kinds("fault")
                if f["fault"] == "stale_loss_fallback"]
        assert used == [("edge:0", 0.5), ("edge:2", 2.0)]

    def test_no_loss_at_all_keeps_the_weights(self):
        ctx, obs = _ctx()
        cloud = CloudServer(2)
        p = cloud.initial_weights()
        out = ascend_weights(ctx, K, cloud, p, [0, 1], lambda e: None,
                             link="edge_cloud", prefix="edge", down_floats=4,
                             stale={}, eta=0.1,
                             gauge="worst_edge_loss")
        assert out is p
        assert [f["fault"] for f in obs.kinds("fault")] == ["degraded_round"]

    def test_fresh_losses_refresh_the_memory(self):
        ctx, _ = _ctx()
        cloud = CloudServer(2)
        stale = {0: 9.0}
        ascend_weights(ctx, K, cloud, cloud.initial_weights(), [0, 1],
                       lambda e: 1.0 + e, link="edge_cloud", prefix="edge",
                       down_floats=4, stale=stale, eta=0.1,
                       gauge="worst_edge_loss")
        assert stale == {0: 1.0, 1: 2.0}

    def test_mean_reply_clips_then_averages(self):
        ctx, obs = _ctx(loss_clip=2.0)
        replies = {0: 1.0, 1: 1.0, 2: 1.0, 3: 40.0}
        out = mean_reply(ctx, K, replies, "client")
        assert out == (1.0 + 1.0 + 1.0 + 2.0) / 4
        assert [f["entity"] for f in obs.kinds("defense")] == ["client:3"]
        assert mean_reply(ctx, K, {}, "client") is None
        unclipped, _ = _ctx()
        assert mean_reply(unclipped, K, {0: 1.5, 1: 2.5}, "client") == 2.0
