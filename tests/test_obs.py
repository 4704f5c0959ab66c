"""Tests for repro.obs: span tracing, metrics, JSONL traces, and the analyzer.

The contract under test is the one DESIGN.md's Observability section states:
tracing is opt-in through the ``obs=`` hook, bit-identical to untraced runs,
and a written trace replays to the same communication totals the live
:class:`~repro.topology.comm.CommunicationTracker` reports.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import cli
from repro.core.hierminimax import HierMinimax
from repro.data.registry import make_federated_dataset
from repro.nn.models import make_model_factory
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    TraceWriter,
    analyze_trace,
    format_trace_report,
)
from repro.obs.metrics import Histogram
from repro.utils.logging import RunLogger


def tiny_algo(obs=None, seed=0):
    data = make_federated_dataset("emnist_digits", seed=seed, scale="tiny")
    factory = make_model_factory("logistic", data.input_dim, data.num_classes)
    return HierMinimax(data, factory, tau1=2, tau2=2, m_edges=5, batch_size=8,
                       eta_w=0.05, eta_p=2e-3, seed=seed, obs=obs)


# --------------------------------------------------------------------- spans
class TestSpans:
    def test_nesting_paths_and_depths(self):
        obs = Tracer()
        with obs.span("run") as outer:
            with obs.span("cloud_round", round=0) as mid:
                with obs.span("phase1_model_update") as inner:
                    pass
        assert outer.depth == 0 and outer.path == "run"
        assert mid.depth == 1 and mid.path == "run/cloud_round"
        assert inner.depth == 2
        assert inner.path == "run/cloud_round/phase1_model_update"

    def test_totals_accumulate_counts_and_time(self):
        obs = Tracer()
        for _ in range(3):
            with obs.span("work"):
                pass
        totals = obs.span_totals()
        assert totals["work"]["count"] == 3
        assert totals["work"]["total_s"] >= 0.0

    def test_duration_measured(self):
        obs = Tracer()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                x = 0.0
                for i in range(1000):
                    x += i
        assert outer.duration >= inner.duration >= 0.0

    def test_set_attaches_attrs(self):
        buf = io.StringIO()
        with Tracer(TraceWriter(buf, flush_every=1)) as obs:
            with obs.span("cloud_round", round=3) as span:
                span.set(comm={"cycles": {"edge_cloud": 2}})
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        span_ev = next(e for e in events if e["ev"] == "span")
        assert span_ev["attrs"]["round"] == 3
        assert span_ev["attrs"]["comm"]["cycles"]["edge_cloud"] == 2

    def test_write_max_depth_drops_deep_spans_but_times_them(self):
        buf = io.StringIO()
        obs = Tracer(TraceWriter(buf, flush_every=1), write_max_depth=0)
        with obs.span("run"):
            with obs.span("cloud_round"):
                pass
        obs.close()
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        written = [e["name"] for e in events if e["ev"] == "span"]
        assert written == ["run"]
        assert obs.span_totals()["cloud_round"]["count"] == 1


# ------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_gauge_histogram_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("steps").inc(5)
        reg.counter("steps").inc()
        reg.gauge("worst_loss").set(2.5)
        reg.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        reg.histogram("lat").observe(50.0)
        snap = reg.snapshot()
        assert snap["counters"]["steps"] == 6
        assert snap["gauges"]["worst_loss"] == 2.5
        hist = snap["histograms"]["lat"]
        assert hist["count"] == 2
        assert hist["buckets"]["0.1"] == 1 and hist["buckets"]["+inf"] == 1
        assert hist["min"] == 0.05 and hist["max"] == 50.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_name_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_histogram_mean_and_unsorted_buckets(self):
        h = Histogram(buckets=(1.0, 2.0))
        assert h.mean == 0.0
        h.observe(1.0)
        h.observe(3.0)
        assert h.mean == 2.0
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))

    def test_percentile_nearest_rank_small_samples(self):
        # The documented rule: rank = max(1, ceil(q/100 * n)), 1-based over
        # the sorted samples — no interpolation is invented.
        h1 = Histogram()
        h1.observe(7.0)
        assert h1.percentile(0) == h1.percentile(50) == h1.percentile(99) == 7.0
        h2 = Histogram()
        h2.observe(10.0)
        h2.observe(2.0)
        assert h2.percentile(50) == 2.0   # ceil(0.5*2)=1 -> smaller sample
        assert h2.percentile(51) == 10.0  # ceil(0.51*2)=2 -> larger sample
        assert h2.percentile(100) == 10.0

    def test_percentile_exact_while_raw_retained(self):
        from repro.obs.metrics import RAW_SAMPLE_LIMIT

        h = Histogram(buckets=(1.0, 100.0))
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count <= RAW_SAMPLE_LIMIT
        assert h.percentile(95) == 95.0  # exact despite the coarse buckets
        assert h.as_dict()["p50"] == 50.0

    def test_percentile_bucket_fallback_beyond_raw_limit(self):
        from repro.obs.metrics import RAW_SAMPLE_LIMIT

        h = Histogram(buckets=(1.0, 10.0))
        for _ in range(200):
            h.observe(0.5)
        for _ in range(100):
            h.observe(5.0)
        assert h.count > RAW_SAMPLE_LIMIT
        # Conservative estimate: the covering bucket's upper bound ...
        assert h.percentile(50) == 1.0
        # ... clamped to the observed maximum when the bound overshoots it.
        assert h.percentile(99) == 5.0  # min(bound 10.0, max 5.0)
        low = Histogram(buckets=(1.0,))
        for _ in range(300):
            low.observe(0.25)
        assert low.percentile(99) == 0.25

    def test_percentile_empty_and_invalid_q(self):
        h = Histogram()
        assert h.percentile(50) is None
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_cardinality_guard_caps_series(self):
        reg = MetricsRegistry(max_series=2)
        real = reg.counter("a")
        reg.gauge("b")
        with pytest.warns(UserWarning, match="max_series=2"):
            sink = reg.counter("leak:client:0")
        assert sink is not real
        sink.inc(5)  # keeps working, just unregistered
        assert reg.series == 2 and reg.overflow == 1
        assert "leak:client:0" not in reg.snapshot()["counters"]
        assert reg.snapshot()["overflow"] == 1

    def test_cardinality_guard_warns_once_and_shares_sinks(self):
        import warnings as _warnings

        reg = MetricsRegistry(max_series=1)
        reg.counter("only")
        with pytest.warns(UserWarning):
            first = reg.histogram("leak:0")
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")  # a second warning would raise
            second = reg.histogram("leak:1")
            assert reg.gauge("leak:2") is reg.gauge("leak:3")
        assert first is second
        assert reg.overflow == 4
        # Existing series stay live and writable at the cap.
        reg.counter("only").inc()
        assert reg.snapshot()["counters"]["only"] == 1

    def test_cardinality_guard_reset_clears_overflow(self):
        reg = MetricsRegistry(max_series=1)
        reg.counter("x")
        with pytest.warns(UserWarning):
            reg.counter("y")
        reg.reset()
        assert reg.series == 0 and reg.overflow == 0
        assert "overflow" not in reg.snapshot()
        reg.counter("fresh")  # re-registers without warning after reset

    def test_max_series_validated(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_series=0)

    def test_tracer_delegates(self):
        obs = Tracer()
        obs.count("sgd_steps_total", 4)
        obs.gauge("worst_edge_loss", 1.25)
        obs.observe("round_time_s", 0.01)
        snap = obs.snapshot()
        assert snap["counters"]["sgd_steps_total"] == 4
        assert snap["gauges"]["worst_edge_loss"] == 1.25
        assert snap["histograms"]["round_time_s"]["count"] == 1


# ---------------------------------------------------------------- JSONL I/O
class TestTraceWriter:
    def test_numpy_values_serialize(self):
        buf = io.StringIO()
        w = TraceWriter(buf, flush_every=1)
        w.write({"ev": "log", "t": np.float64(0.5), "kind": "x",
                 "fields": {"arr": np.arange(3), "n": np.int64(7)}})
        rec = json.loads(buf.getvalue())
        assert rec["t"] == 0.5 and rec["fields"]["arr"] == [0, 1, 2]
        assert rec["fields"]["n"] == 7 and w.records_written == 1

    def test_file_target_and_trace_lifecycle(self, tmp_path):
        path = tmp_path / "sub" / "run.trace.jsonl"
        with Tracer(str(path), meta={"note": "unit"}) as obs:
            with obs.span("run"):
                obs.event("hello", round=0)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [e["ev"] for e in events]
        assert kinds[0] == "trace_start" and kinds[-1] == "trace_end"
        assert "metrics" in kinds and "log" in kinds and "span" in kinds
        assert events[0]["meta"] == {"note": "unit"}

    def test_close_idempotent(self, tmp_path):
        obs = Tracer(str(tmp_path / "t.jsonl"))
        obs.close()
        obs.close()  # must not raise or duplicate trace_end
        events = (tmp_path / "t.jsonl").read_text().splitlines()
        assert sum("trace_end" in line for line in events) == 1


# ----------------------------------------------------------------- replaying
class TestTraceRoundTrip:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "run.trace.jsonl"
        obs = Tracer(str(path))
        algo = tiny_algo(obs=obs)
        result = algo.run(rounds=12, eval_every=4)
        obs.close()
        return path, result, obs

    def test_replayed_comm_matches_live_snapshot(self, traced_run):
        path, result, _ = traced_run
        report = analyze_trace(path)
        assert report.replay_consistent
        assert report.comm_cycles == dict(result.comm.cycles)
        assert report.comm_messages == dict(result.comm.messages)
        for link, floats in result.comm.floats.items():
            assert report.comm_floats[link] == pytest.approx(floats, rel=1e-9)
        assert report.edge_cloud_cycles == result.comm.edge_cloud_cycles

    def test_round_timeline_reconstructed(self, traced_run):
        path, result, _ = traced_run
        report = analyze_trace(path)
        assert len(report.rounds) == result.rounds_run
        assert [r.round_index for r in report.rounds] == list(range(12))
        assert all(r.algorithm == "hierminimax" for r in report.rounds)
        assert all(r.duration_s >= 0 and r.cycles > 0 for r in report.rounds)

    def test_phase_times_cover_run_wallclock(self, traced_run):
        path, _, obs = traced_run
        report = analyze_trace(path)
        assert report.run_total_s > 0
        # Phases must account for nearly all of the measured run span: the
        # instrumentation would be lying about attribution otherwise.
        assert report.phase_coverage > 0.8
        assert report.phase_coverage <= 1.0 + 1e-9
        # The trace's span totals agree with the in-memory accumulation.
        for name, slot in obs.span_totals().items():
            assert report.span_totals[name]["count"] == slot["count"]

    def test_metrics_round_trip(self, traced_run):
        path, result, obs = traced_run
        report = analyze_trace(path)
        counters = report.metrics["counters"]
        assert counters["rounds_total"] == result.rounds_run
        # 12 rounds x 5 edges x tau2=2 blocks x 3 clients x tau1=2 steps
        assert counters["sgd_steps_total"] == 12 * 5 * 2 * 3 * 2
        assert counters["edge_cloud_bytes"] == pytest.approx(
            result.comm.edge_cloud_bytes, rel=1e-9)
        assert report.metrics["histograms"]["round_time_s"]["count"] == 12

    def test_format_report_mentions_key_sections(self, traced_run):
        path, _, _ = traced_run
        text = format_trace_report(analyze_trace(path), timeline=3)
        for needle in ("per-phase breakdown", "phase1_model_update",
                       "edge-cloud cycles", "round timeline",
                       "sgd_steps_total"):
            assert needle in text
        assert "WARNING" not in text

    def test_analyze_accepts_parsed_events(self, traced_run):
        path, _, _ = traced_run
        from repro.obs import load_trace

        events = load_trace(path)
        assert analyze_trace(events).events == len(events)


# ------------------------------------------------------------- determinism
class TestDeterminism:
    def test_traced_run_bit_identical_to_untraced(self, tmp_path):
        plain = tiny_algo(obs=None).run(rounds=6, eval_every=3)
        obs = Tracer(str(tmp_path / "paired.trace.jsonl"))
        traced = tiny_algo(obs=obs).run(rounds=6, eval_every=3)
        obs.close()
        assert np.array_equal(plain.final_params, traced.final_params)
        assert np.array_equal(plain.final_weights, traced.final_weights)
        assert plain.comm.cycles == traced.comm.cycles
        assert plain.comm.floats == traced.comm.floats

    def test_null_tracer_is_inert(self):
        obs = NullTracer()
        assert obs is not NULL_TRACER  # constructible, but
        with obs.span("anything", k=1) as span:
            span.set(more=2)
        assert span is obs.span("other")  # shared singleton span
        obs.count("c")
        obs.gauge("g", 1.0)
        obs.observe("h", 1.0)
        obs.event("e", x=1)
        assert obs.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}
        assert obs.span_totals() == {}
        with obs:
            pass  # context-manager protocol mirrors Tracer


# ---------------------------------------------------------------- RunLogger
class TestRunLoggerFlush:
    def test_last_round_flushed_before_run_end(self):
        buf = io.StringIO()
        log = RunLogger(stream=buf, every=5)
        for k in range(7):
            log({"event": "round", "round": k})
        log({"event": "run_end", "rounds": 7})
        lines = buf.getvalue().splitlines()
        # rounds 0 and 5 pass the stride; round 6 flushes before run_end.
        assert [l.split("] ")[1].split(":")[0] for l in lines] == [
            "round", "round", "round", "run_end"]
        assert "round=6" in lines[2]

    def test_explicit_flush(self):
        buf = io.StringIO()
        log = RunLogger(stream=buf, every=10)
        log({"event": "round", "round": 0})
        log({"event": "round", "round": 1})
        log.flush()
        log.flush()  # idempotent
        assert buf.getvalue().count("round:") == 2

    def test_algorithm_emits_run_end(self):
        buf = io.StringIO()
        data = make_federated_dataset("emnist_digits", seed=0, scale="tiny")
        factory = make_model_factory("logistic", data.input_dim,
                                     data.num_classes)
        algo = HierMinimax(data, factory, tau1=2, tau2=2, m_edges=5,
                           batch_size=8, seed=0,
                           logger=RunLogger(stream=buf, every=4))
        algo.run(rounds=5, eval_every=1)
        text = buf.getvalue()
        assert "run_end" in text
        # the final round (index 4) reaches the stream despite every=4.
        assert "round=4" in text


# ---------------------------------------------------------------------- CLI
class TestTraceReportCLI:
    def test_reports_trace(self, tmp_path, capsys):
        path = tmp_path / "cli.trace.jsonl"
        obs = Tracer(str(path))
        tiny_algo(obs=obs).run(rounds=3, eval_every=3)
        obs.close()
        assert cli.main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-phase breakdown" in out and "3 rounds" in out

    def test_missing_file_errors(self, tmp_path, capsys):
        rc = cli.main(["trace-report", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "no such trace" in capsys.readouterr().err


# ------------------------------------------------------------ runner wiring
class TestRunnerIntegration:
    def test_experiment_phase_attribution(self):
        from repro.experiments.presets import fig3_preset
        from repro.experiments.runner import run_experiment

        preset = fig3_preset(scale="tiny").with_overrides(
            slots=48, eval_points=2, algorithms=("fedavg", "hierminimax"))
        obs = Tracer()
        out = run_experiment(preset, seed=0, obs=obs)
        assert set(out.phase_times) == {"fedavg", "hierminimax"}
        for phases in out.phase_times.values():
            assert phases["phase1_model_update"] > 0
            assert phases["evaluate"] > 0
        assert out.phase_times["hierminimax"]["phase2_weight_update"] > 0
        assert out.metrics["counters"]["sgd_steps_total"] > 0
        assert out.setup_times["data_gen"] > 0

    def test_runner_marks_each_algorithm_done(self, tmp_path):
        from repro.experiments.presets import fig3_preset
        from repro.experiments.runner import run_experiment
        from repro.obs import load_trace

        preset = fig3_preset(scale="tiny").with_overrides(
            slots=48, eval_points=2, algorithms=("fedavg", "hierminimax"))
        path = tmp_path / "exp.trace.jsonl"
        with Tracer(str(path)) as obs:
            run_experiment(preset, seed=0, obs=obs)
        done = [e["fields"] for e in load_trace(path)
                if e.get("ev") == "log" and e.get("kind") == "algorithm_done"]
        assert [d["algorithm"] for d in done] == ["fedavg", "hierminimax"]
        assert all(d["rounds"] > 0 and "worst_accuracy" in d for d in done)


# ------------------------------------------------------------ ledger table
class TestLedgerTable:
    #: ``log`` kinds the report reads outside the ledger table (heartbeat)
    #: or that carry no ledger (per-algorithm completion marker).
    NON_LEDGER_KINDS = {"heartbeat", "algorithm_done"}

    def test_every_emitted_log_kind_is_declared(self, tmp_path):
        """A traced run with every layer active emits no ``log`` kind that
        is neither a ledger row's nor explicitly outside the table."""
        from repro.chaos.hooks import chaos
        from repro.chaos.plan import ChaosPlan
        from repro.defense import AttackPlan
        from repro.exec import make_backend
        from repro.faults import FaultPlan
        from repro.obs import load_trace
        from repro.obs.report import ledger_table
        from tests.conftest import make_blob_fed

        fed = make_blob_fed(num_edges=3, clients_per_edge=3)
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)
        plan = FaultPlan(client_dropout=0.2, msg_loss=0.2, seed=3,
                         byzantine=AttackPlan(attack="sign_flip",
                                              clients=(0, 4), scale=5.0))
        path = tmp_path / "all-layers.trace.jsonl"
        backend = make_backend("process", workers=2)
        try:
            with chaos(ChaosPlan(worker_kill=(1,), seed=0)), \
                    Tracer(str(path), invariants=True) as obs:
                HierMinimax(fed, factory, batch_size=4, eta_w=0.1,
                            eta_p=0.05, tau1=2, tau2=2, m_edges=2, seed=0,
                            obs=obs, faults=plan, backend=backend,
                            defense="trimmed_mean,trim=0.3",
                            churn="arrive=0.1,depart=0.1,edge_mttf=3,"
                                  "edge_mttr=2,seed=1",
                            ).run(rounds=6, eval_every=3)
        finally:
            backend.close()
        kinds = {ev["kind"] for ev in load_trace(path) if ev["ev"] == "log"}
        declared = {kind for spec in ledger_table() for kind in spec.kinds}
        assert {"fault", "attack", "defense", "membership", "chaos",
                "worker_respawn"} <= kinds
        assert not kinds - declared - self.NON_LEDGER_KINDS
