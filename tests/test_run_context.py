"""Contract tests for the per-run :class:`~repro.sim.round_ops.RunContext`,
the registry's derived keyword tables and the perfbench layer wrappers.

* Every algorithm resolves its layer hooks into exactly one ``RunContext``
  per instance: no context is built per round, per edge leg or per probe.
* The registered baselines are thin schedules over the two shared rounds of
  :mod:`repro.core.rounds`: they own no round, no checkpoint hooks.
* The registry derives each algorithm's accepted keywords from its
  constructor signature; the sets are pinned here.
* ``perfbench/layers.py`` (imported read-only) still finds every layer entry
  point, and wraps each figure algorithm's round exactly once.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.baselines import registry
from repro.baselines.registry import ALGORITHMS, make_algorithm
from repro.core.hierminimax import HierMinimax
from repro.experiments.presets import FIGURE_ALGORITHMS, fig3_preset
from repro.experiments.runner import build_preset_dataset, build_preset_model
from repro.faults import FaultPlan
from repro.multilayer import MultiLevelHierMinimax
from repro.nn.models import make_model_factory
from repro.sim.round_ops import RunContext

from tests.conftest import make_blob_fed

ROUNDS = 3
REPO = Path(__file__).resolve().parents[1]

_COMMON = {"batch_size", "eta_w", "seed", "projection_w", "logger", "obs",
           "faults", "backend", "defense", "timing", "churn", "population"}
_HIER = {"eta_p", "tau1", "tau2", "m_edges", "projection_p",
         "use_checkpoint", "compressor"}
#: Every registered algorithm's accepted construction keywords.
ACCEPTED = {
    "fedavg": _COMMON | {"tau1", "m_clients", "weight_by_data"},
    "stochastic_afl": _COMMON | {"eta_q", "m_clients", "projection_q"},
    "drfa": _COMMON | {"eta_q", "tau1", "m_clients", "projection_q"},
    "hierfavg": _COMMON | {"tau1", "tau2", "m_edges", "weight_by_data"},
    "hierminimax": _COMMON | _HIER,
    "semiasync_hierminimax": _COMMON | _HIER | {"staleness"},
}


@pytest.fixture()
def fed():
    return make_blob_fed(num_edges=4, clients_per_edge=2, n_per_client=10,
                         dim=5, seed=1)


@pytest.fixture()
def factory(fed):
    return make_model_factory("logistic", fed.input_dim, fed.num_classes)


def _builders(fed, factory):
    """One constructor per registered algorithm plus the multi-level one,
    with faults and churn on so every hook path runs."""
    common = dict(batch_size=4, eta_w=0.1, seed=3,
                  faults=FaultPlan.parse("client_dropout=0.2,seed=1"),
                  churn="arrive=0.2,depart=0.1,edge_mttf=3,seed=2")
    builders = [
        lambda name=name: make_algorithm(name, fed, factory, eta_p=0.05,
                                         tau1=2, tau2=2, m_edges=2, **common)
        for name in ALGORITHMS]
    builders.append(lambda: MultiLevelHierMinimax(fed, factory, eta_p=0.05,
                                                  m_top=2, **common))
    return builders


class TestOneContextPerRun:
    def test_each_instance_builds_exactly_one(self, fed, factory,
                                              monkeypatch):
        built: list[RunContext] = []
        original = RunContext.__post_init__

        def counting(ctx):
            original(ctx)
            built.append(ctx)

        monkeypatch.setattr(RunContext, "__post_init__", counting)
        for build in _builders(fed, factory):
            before = len(built)
            algo = build()
            algo.run(ROUNDS, eval_every=ROUNDS)
            assert len(built) == before + 1, algo.name
            assert built[-1] is algo.ctx, algo.name

    def test_context_carries_the_runs_hooks(self, fed, factory):
        algo = HierMinimax(fed, factory, eta_w=0.1, defense="edge=median,"
                           "cloud=krum,loss_clip=2.5")
        ctx = algo.ctx
        assert (ctx.engine, ctx.lr, ctx.tracker, ctx.obs, ctx.faults,
                ctx.timing, ctx.membership, ctx.backend) == (
            algo.engine, 0.1, algo.tracker, algo.obs, algo.faults,
            algo.timing, algo.membership, algo.backend)
        assert ctx.edge_rule is algo.defense.tier("edge")
        assert ctx.cloud_rule is algo.defense.tier("cloud")
        assert ctx.loss_clip == 2.5
        with pytest.raises(AttributeError):
            ctx.lr = 1.0

    def test_multilevel_keeps_its_tracker(self, fed, factory):
        algo = MultiLevelHierMinimax(fed, factory)
        assert algo.ctx.tracker is algo.tracker
        algo.run_round(0)
        assert algo.tracker.snapshot().cycles["level_1"] == 2

    def test_bad_learning_rate_is_rejected_at_the_context(self):
        with pytest.raises(ValueError):
            RunContext(None, 0.0)


class TestThinBaselines:
    @pytest.mark.parametrize("name", ["fedavg", "stochastic_afl", "drfa",
                                      "hierfavg"])
    def test_baseline_owns_no_round_and_no_checkpoint_hooks(self, name):
        own = vars(ALGORITHMS[name])
        for attr in ("run_round", "_extra_state", "_restore_extra",
                     "current_weights"):
            assert attr not in own, f"{name} defines {attr}"

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_accepted_keywords_are_pinned(self, name):
        assert registry._COMMON_KEYS | registry._EXTRA_KEYS[name] \
            == ACCEPTED[name]

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_constructor_rejects_a_foreign_keyword(self, name, fed, factory):
        foreign = sorted({"weight_by_data", "eta_q", "compressor"}
                         - ACCEPTED[name])[0]
        with pytest.raises(TypeError):
            ALGORITHMS[name](fed, factory, **{foreign: None})


def _perfbench_layers(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", REPO / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    # Registered while it loads: its dataclasses resolve their module.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_layer_timers_wrap_each_figure_round_once(monkeypatch):
    preset = fig3_preset("tiny")
    dataset = build_preset_dataset(preset, seed=0)
    factory = build_preset_model(preset, dataset)
    classes = {ALGORITHMS[name] for name in FIGURE_ALGORITHMS}
    # A figure class deriving from another would be wrapped twice whenever
    # the install visits the parent first.
    assert not [(a, b) for a in classes for b in classes
                if a is not b and issubclass(a, b)]
    inherited = {cls for cls in classes if "run_round" not in vars(cls)}
    timers = _perfbench_layers(monkeypatch).LayerTimers()
    timers.install(classes)
    try:
        for name in FIGURE_ALGORITHMS:
            algo = make_algorithm(
                name, dataset, factory, batch_size=preset.batch_size,
                eta_w=preset.eta_w, eta_p=preset.eta_p, tau1=preset.tau1,
                tau2=preset.tau2, m_edges=preset.m_edges, seed=0)
            algo.run(ROUNDS, eval_every=ROUNDS)
    finally:
        timers.remove()
        for cls in inherited:
            # remove() pins the inherited original on the subclass.
            del cls.run_round
    stats = timers.snapshot()["stats"]
    assert stats["sim.model_update"]["calls"] > 0
    assert stats["sim.estimate_loss"]["calls"] > 0
    assert stats["core.round"]["calls"] == ROUNDS * len(FIGURE_ALGORITHMS)
