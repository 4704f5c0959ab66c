"""Golden text of ``format_trace_report``: the report's wording is pinned.

Synthetic event streams with fixed span durations exercise every ledger
section (faults, byzantine, membership, invariants, resilience) at several
``timeline`` settings, elided and not; a kill-at-checkpoint + resume
quickstart churn trace (durations fixed after the fact) pins the report of
a real concatenated trace.  The expected texts live in
``tests/golden_trace_report.json``.

Regenerate the file only when the report format is *meant* to change::

    PYTHONPATH=src python -m tests.test_trace_report_golden
"""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

import pytest

from repro.obs import analyze_trace, format_trace_report, load_trace

GOLDEN_PATH = Path(__file__).with_name("golden_trace_report.json")
REPO = Path(__file__).resolve().parents[1]

KILL_RESUME_CHURN = "arrive=0.05,depart=0.02,edge_mttf=5,edge_mttr=4,seed=1"


def synthetic_stream(rounds: int, *, drop_left: bool = False) -> list[dict]:
    """A deterministic trace touching every ledger, with fixed durations.

    ``drop_left`` deletes the first ``left`` membership entry, so the
    population delta no longer matches joined − left.
    """
    events: list[dict] = [{"ev": "trace_start", "t": 0.0,
                           "meta": {"case": "synthetic"}}]

    def log(kind, **fields):
        events.append({"ev": "log", "t": 0.0, "kind": kind,
                       "fields": fields})

    def span(name, dur_s, **attrs):
        events.append({"ev": "span", "t": 0.0, "name": name,
                       "path": name, "depth": 1, "dur_s": dur_s,
                       "attrs": attrs})

    active = 20
    dropped = not drop_left
    log("membership", round=-1, action="population", entity="run",
        active=active, total=24)
    totals = {"cycles": {}, "messages": {}, "floats": {}}
    for r in range(rounds):
        # faults: explicit recovery flags, plus older events without one
        log("fault", round=r, fault="client_dropout", entity=f"client:{r}",
            recovery=False)
        if r % 2:
            log("fault", round=r, fault="retry_success", entity="edge:1",
                recovery=True)
        if r % 3 == 0:
            log("fault", round=r, fault="stale_loss_fallback",
                entity="edge:0")
        if r % 4 == 1:
            log("fault", round=r, fault="msg_lost", entity="edge:1")
        # byzantine: tampered uploads and the defense's reactions
        if r % 2 == 0:
            log("attack", round=r, attack="sign_flip", entity="client:3")
        if r % 3 == 0:
            log("defense", round=r, entity="client:3", action="reject")
        if r % 5 == 0:
            log("defense", round=r, entity="client:3", action="clip")
        # membership: transitions carry the post-transition head count
        if r % 3 == 0:
            active -= 1
            if dropped:
                log("membership", round=r, action="left",
                    entity=f"client:{r}", active=active, edge=0)
            dropped = True
        if r % 4 == 2:
            active += 1
            log("membership", round=r, action="joined",
                entity=f"client:{r + 30}", active=active, edge=1)
        if r % 5 == 1:
            log("membership", round=r, action="edge_crash", entity="edge:2",
                active=active)
            log("membership", round=r, action="re-homed",
                entity=f"client:{r}", active=active, src=2, dst=0)
        if r % 5 == 3:
            log("membership", round=r, action="edge_recover",
                entity="edge:2", active=active)
        if r % 6 == 4:
            log("membership", round=r, action="flight_dropped",
                entity="edge:2", dispatched=r - 1)
        # invariants
        if r % 2:
            log("invariant", check="simplex_weights", round=r,
                message=f"mixing weights sum to {1 + r / 10:g}")
        if r % 7 == 3:
            log("invariant", check="finite_params", round=r,
                message="non-finite entries in w")
        # resilience
        if r % 6 == 2:
            log("exec_retry", backend="process", attempt=1, round=r)
        if r % 6 == 5:
            log("worker_respawn", backend="process", round=r)
        if r == 4:
            log("chaos", site="worker_kill", round=r)
            log("checkpoint_fallback", round=r, requested="a", used="b")
            log("shard_corrupt_detected", shard=3, round=r)
        log("heartbeat", round=r, rounds=rounds)
        span("phase1_model_update", 0.004)
        span("phase2_weight_update", 0.002)
        if r % 4 == 0:
            span("evaluate", 0.001)
        span("checkpoint", 0.0005)
        comm = {"cycles": {"client_edge": 4, "edge_cloud": 1},
                "messages": {"client_edge:up": 6, "edge_cloud:up": 3},
                "floats": {"client_edge:up": 600.0 + r,
                           "edge_cloud:up": 300.0}}
        for part, values in comm.items():
            for key, value in values.items():
                totals[part][key] = totals[part].get(key, 0) + value
        span("cloud_round", 0.008 + r * 0.0001, algorithm="hierminimax",
             round=r, comm=comm, sim_s=0.5 if r % 2 else 0.0)
    span("run", 0.01 * rounds + 0.05, algorithm="hierminimax",
         comm_total=totals, sim_total_s=0.25 * rounds)
    events.append({"ev": "metrics", "t": 0.0,
                   "data": {"counters": {"rounds_total": rounds,
                                         "sgd_steps_total": 40 * rounds},
                            "gauges": {"worst_group_accuracy": 0.5}}})
    events.append({"ev": "trace_end", "t": 0.0})
    return events


def spans_only_stream() -> list[dict]:
    """A trace with no ledger events at all: no ledger section may appear."""
    return [event for event in synthetic_stream(3)
            if event["ev"] != "log" or event["kind"] == "heartbeat"]


def _synthetic_cases() -> dict[str, str]:
    cases = {}
    for rounds in (4, 14):
        for timeline in (0, 2, 5):
            report = analyze_trace(synthetic_stream(rounds))
            cases[f"synthetic-{rounds}r-t{timeline}"] = format_trace_report(
                report, timeline=timeline)
    cases["synthetic-14r-imbalanced-t2"] = format_trace_report(
        analyze_trace(synthetic_stream(14, drop_left=True)), timeline=2)
    cases["spans-only-t5"] = format_trace_report(
        analyze_trace(spans_only_stream()), timeline=5)
    return cases


def kill_resume_trace(workdir: Path) -> list[dict]:
    """A quickstart churn run killed at its round-30 checkpoint, resumed to
    round 60, and the two traces concatenated; span durations are fixed so
    the report is deterministic."""
    quickstart = str(REPO / "examples" / "quickstart.py")
    ckpt = workdir / "qs.ckpt.json"
    base = ["quickstart.py", "--scale", "tiny", "--rounds", "60",
            "--churn", KILL_RESUME_CHURN, "--checkpoint", str(ckpt),
            "--checkpoint-every", "10"]
    events: list[dict] = []
    for leg, extra in (("a", ["--stop-after", "30"]), ("b", ["--resume"])):
        trace = workdir / f"qs.{leg}.jsonl"
        argv = sys.argv
        sys.argv = base + extra + ["--trace", str(trace)]
        try:
            runpy.run_path(quickstart, run_name="__main__")
        finally:
            sys.argv = argv
        events.extend(load_trace(trace))
    for event in events:
        if event.get("ev") == "span":
            event["dur_s"] = 0.001
    return events


def kill_resume_text(report) -> str:
    """The report of :func:`kill_resume_trace` without its header line (the
    event count, which the resume's own ledger entries may change)."""
    return format_trace_report(report, timeline=2).split("\n", 1)[1]


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def kill_resume_report(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("kill_resume")
    return analyze_trace(kill_resume_trace(workdir))


@pytest.mark.parametrize("case", sorted(_synthetic_cases()))
def test_synthetic_report_text_is_pinned(golden, case):
    assert _synthetic_cases()[case] == golden[case]


def test_kill_resume_report_text_is_pinned(golden, kill_resume_report):
    text = kill_resume_text(kill_resume_report)
    assert "30 -> 23 (net -7; ledger balanced)" in text
    assert text == golden["kill-resume-t2"]


def test_kill_resume_trace_replays_as_one_run(kill_resume_report):
    """The resumed segment's restored comm totals are subtracted, and the
    two tracers' counters add up to the whole 60-round run."""
    report = kill_resume_report
    assert report.replay_consistent
    assert report.edge_cloud_cycles == 2 * 60  # Phase 1 + Phase 2 per round
    counters = report.metrics["counters"]
    assert counters["rounds_total"] == 60
    membership = report.ledger("membership")
    assert membership.balanced
    assert counters["membership_joined_total"] == membership.totals["joined"]
    assert counters["membership_left_total"] == membership.totals["left"]


def test_metrics_counters_sum_and_gauges_keep_the_last_value():
    def metrics(counters, gauges):
        return {"ev": "metrics", "t": 0.0,
                "data": {"counters": counters, "gauges": gauges}}

    report = analyze_trace([metrics({"rounds_total": 3, "a": 1},
                                    {"acc": 0.5}),
                            metrics({"rounds_total": 4}, {"acc": 0.7})])
    assert report.metrics["counters"] == {"rounds_total": 7, "a": 1}
    assert report.metrics["gauges"] == {"acc": 0.7}


if __name__ == "__main__":
    import tempfile

    cases = _synthetic_cases()
    with tempfile.TemporaryDirectory() as tmp:
        cases["kill-resume-t2"] = kill_resume_text(
            analyze_trace(kill_resume_trace(Path(tmp))))
    GOLDEN_PATH.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
