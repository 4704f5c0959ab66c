"""Offline trace analysis: reconstruct a run from its JSONL trace.

``python -m repro trace-report run.trace.jsonl`` (or
:func:`analyze_trace` / :func:`format_trace_report` programmatically) replays a
trace written by :class:`~repro.obs.tracer.Tracer` and reports

* the per-phase wall-clock breakdown (``phase1_model_update``,
  ``phase2_weight_update``, ``evaluate``, ``data_gen``) and what fraction of
  the measured ``run`` spans those phases cover,
* communication totals replayed from the per-round deltas and the run-final
  snapshot the instrumented :class:`~repro.core.base.FederatedAlgorithm`
  attaches to its spans — these must match the live
  :class:`~repro.topology.comm.CommSnapshot` of the run (a resumed run's
  ``comm_restored`` opening balance is subtracted from its snapshot, so a
  killed + resumed trace replays as one run),
* the round timeline (duration and traffic of each cloud round),
* one ledger per cross-cutting layer, replayed from its ``log`` events as
  declared in :func:`ledger_table`: faults injected versus recovered,
  byzantine uploads tampered versus filtered, membership transitions (whose
  joined − left balance must equal each run's population change), runtime
  invariant violations, and crash-recovery actions versus injected chaos
  kill-points — and
* the metrics snapshots: counters summed over the trace's runs, gauges and
  histograms as last written.
"""

from __future__ import annotations

import functools
import json
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from string import Formatter
from typing import Any, Collection, Iterable, Iterator, Mapping, NamedTuple

__all__ = ["TraceReport", "RoundRecord", "Ledger", "LedgerTally", "Law",
           "ledger_table", "load_trace", "analyze_trace",
           "format_trace_report", "follow_trace", "PHASE_SPANS"]

#: Span names treated as "phases" in the breakdown, in display order.
PHASE_SPANS = ("data_gen", "phase1_model_update", "phase2_weight_update",
               "evaluate")

#: Phase spans nested inside ``run`` (data_gen happens outside algorithm runs).
_RUN_PHASES = ("phase1_model_update", "phase2_weight_update", "evaluate")

_BYTES_PER_FLOAT = 8


@dataclass(frozen=True)
class RoundRecord:
    """One ``cloud_round`` span replayed from a trace."""

    algorithm: str
    round_index: int
    start_s: float
    duration_s: float
    floats: float          # payload floats moved during the round (all links)
    cycles: int            # sync cycles completed during the round
    sim_s: float = 0.0     # simulated round makespan (0 without a cost model)

    @property
    def bytes(self) -> float:
        """Wire bytes of the round (floats are float64-equivalent units)."""
        return self.floats * _BYTES_PER_FLOAT


@dataclass(frozen=True)
class TraceReport:
    """Everything :func:`analyze_trace` reconstructs from one trace file."""

    events: int
    span_totals: Mapping[str, Mapping[str, float]]
    run_total_s: float
    phase_times: Mapping[str, float]
    phase_coverage: float          # (phase1+phase2+evaluate) / run wall-clock
    rounds: tuple[RoundRecord, ...]
    comm_cycles: Mapping[str, int]
    comm_messages: Mapping[str, int]
    comm_floats: Mapping[str, float]
    replay_consistent: bool        # per-round deltas sum to the final snapshot
    sim_time_s: float = 0.0        # simulated seconds across the trace's runs
    metrics: Mapping[str, Any] = field(default_factory=dict)
    meta: Mapping[str, Any] = field(default_factory=dict)
    #: Every declared ledger's replay, keyed by :attr:`Ledger.name`.
    ledgers: Mapping[str, "LedgerTally"] = field(default_factory=dict)
    #: Recorded per-round timing trees (``sim_tree`` attrs of ``cloud_round``
    #: spans) — input of :mod:`repro.obs.critical_path`.
    sim_trees: tuple = ()
    #: Heartbeat progress records replayed from the trace, in file order.
    heartbeats: tuple = ()

    def ledger(self, name: str) -> "LedgerTally":
        """The replay of ledger ``name`` declared in :func:`ledger_table`."""
        return self.ledgers[name]

    @property
    def ledgers_balanced(self) -> bool:
        """Does every declared balance law hold in every run segment?"""
        return all(tally.balanced for tally in self.ledgers.values())

    @property
    def total_bytes(self) -> float:
        """Replayed traffic volume in wire bytes."""
        return sum(self.comm_floats.values()) * _BYTES_PER_FLOAT

    @property
    def total_cycles(self) -> int:
        """Replayed sync-cycle total across links."""
        return sum(self.comm_cycles.values())

    @property
    def edge_cloud_cycles(self) -> int:
        """Replayed cycles on the cloud-facing links (the theory's measure)."""
        return sum(v for k, v in self.comm_cycles.items()
                   if k in ("edge_cloud", "client_cloud", "level_1"))


def load_trace(path: str | Path, *, strict: bool = False) -> list[dict]:
    """Parse a JSONL trace file into a list of event dicts.

    A run killed mid-write (OOM, SIGKILL, full disk) leaves a truncated final
    line; by default such malformed lines are *skipped with a warning* so the
    surviving prefix still profiles and reports.  Pass ``strict=True`` to get
    the old behaviour: a :class:`ValueError` naming the offending line.
    """
    events = []
    with Path(path).open() as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{line_no}: not a JSON trace record: "
                        f"{exc}") from exc
                warnings.warn(
                    f"{path}:{line_no}: skipping malformed trace record "
                    f"(truncated write?): {exc}", stacklevel=2)
    return events


def follow_trace(path: str | Path, *, poll_s: float = 0.5,
                 timeout_s: float | None = None) -> Iterator[dict]:
    """Tail a live trace file, yielding events as the writer appends them.

    Buffers the (possibly partial) final line until its newline arrives, so a
    mid-write poll never yields a truncated record.  Stops when a
    ``trace_end`` event is seen — the writer's close marker — or, when
    ``timeout_s`` is set, after that many seconds without a new event.
    Malformed *complete* lines are skipped with a warning, as in
    :func:`load_trace`.
    """
    buf = ""
    idle_s = 0.0
    with Path(path).open() as fh:
        while True:
            chunk = fh.read()
            if chunk:
                idle_s = 0.0
                *complete, buf = (buf + chunk).split("\n")
                for line in map(str.strip, complete):
                    if not line:
                        continue
                    try:
                        ev = json.loads(line)
                    except json.JSONDecodeError as exc:
                        warnings.warn(f"{path}: skipping malformed trace "
                                      f"record: {exc}", stacklevel=2)
                        continue
                    yield ev
                    if ev.get("ev") == "trace_end":
                        return
            else:
                if timeout_s is not None and idle_s >= timeout_s:
                    return
                time.sleep(poll_s)
                idle_s += poll_s


#: Comm snapshot parts and the numeric type each accumulates in.
_COMM_PARTS = {"cycles": int, "messages": int, "floats": float}


def _merge_comm(into: Mapping[str, dict], snapshot: Mapping,
                sign: int = 1) -> None:
    for part, cast in _COMM_PARTS.items():
        for k, v in snapshot.get(part, {}).items():
            into[part][k] = cast(into[part].get(k, 0)) + sign * cast(v)


# ---------------------------------------------------------------- ledgers
class Law(NamedTuple):
    """Balance law ``plus − minus == Δlevel``, checked per run segment: each
    ``opens`` entry (a run's opening balance, or a resumed run's restored
    one) starts a segment at its ``level`` field, and every later event
    carrying ``level`` moves that segment's closing level."""

    plus: str
    minus: str
    level: str
    opens: str


@dataclass(frozen=True)
class Ledger:
    """One row of :func:`ledger_table`: how a layer's ``log`` events replay.

    ``kinds`` maps each tallied log kind to the event field naming an entry
    (``""``: the kind itself).  An event counts toward ``sides[1]`` when its
    boolean ``flag`` field says so or, lacking it, when its kind or entry is
    in ``second``; else toward ``sides[0]``.  ``labels`` tag listed entries
    by side.  ``headline`` parts are formatted with the entry counts, side
    totals, ``total``, ``entries`` and ``rounds`` (rounds with an entry);
    parts after the first appear only when a count they name is nonzero.
    ``timeline`` titles the per-round timeline, whose cells ``round_cell``
    formats from a side (or entry) ``key`` and its count ``n``; ``records``
    = (field, noun) lists every event with that field.
    """

    name: str
    kinds: Mapping[str, str]
    headline: tuple[str, ...]
    sides: tuple[str, str] | tuple[()] = ()
    second: Collection[str] = ()
    flag: str = ""
    labels: tuple[str, str] | tuple[()] = ()
    law: Law | None = None
    timeline: str = ""
    round_cell: str = "{n:4d} {key}"
    records: tuple[str, str] | tuple[()] = ()


@functools.cache
def ledger_table() -> tuple[Ledger, ...]:
    """The ledger table: every layer's ``log`` events and how the report
    replays them.  A new layer adds a row here, not report code."""
    # Imported here: repro.faults depends on repro.obs for its events.
    from repro.faults.injector import RECOVERY_KINDS

    return (
        Ledger("faults", {"fault": "fault"},
               ("faults: {injected} injected, {recovered} recovery actions, "
                "{rounds} rounds affected",),
               sides=("injected", "recovered"), second=RECOVERY_KINDS,
               flag="recovery", labels=("injected", "recovery"),
               timeline="fault"),
        Ledger("byzantine", {"attack": "attack", "defense": "action"},
               ("byzantine: {attacked} attacked uploads, {filtered} "
                "filtered/clipped, {rounds} rounds affected",),
               sides=("attacked", "filtered"), second=("defense",),
               labels=("attack", "defense"), timeline="byzantine"),
        Ledger("membership", {"membership": "action"},
               ("membership: {joined} joined, {left} left, {re-homed} "
                "re-homed, {edge_crash} edge crashes, {edge_recover} "
                "recoveries",),
               law=Law("joined", "left", level="active", opens="population"),
               timeline="membership", round_cell="{n} {key}"),
        Ledger("invariants", {"invariant": "check"},
               ("invariants: {total} violation(s) across {entries} "
                "check(s)",),
               records=("message", "violation records")),
        Ledger("resilience",
               dict.fromkeys(("exec_retry", "worker_respawn",
                              "checkpoint_fallback", "shard_corrupt_detected",
                              "chaos"), ""),
               ("resilience: {recovery} recovery action(s)",
                ", {injected} injected kill-point(s)"),
               sides=("recovery", "injected"), second=("chaos",)),
    )


@dataclass
class LedgerTally:
    """One :class:`Ledger` replayed from a trace (:meth:`TraceReport.ledger`).

    ``totals`` counts events per entry, ``sides`` per side, ``by_round`` per
    round (rounds ≥ 0) and side — or entry, for a ledger without sides.
    ``segments`` holds ``[opening level, closing level, plus − minus]`` per
    run segment of the ledger's :class:`Law` (a trace whose first events
    carry no opening entry starts one at the first level it sees).
    """

    spec: Ledger
    totals: dict[str, int] = field(default_factory=dict)
    sides: dict[str, int] = field(init=False)
    entry_sides: dict[str, str] = field(default_factory=dict)
    by_round: dict[int, dict[str, int]] = field(default_factory=dict)
    records: list[tuple[int, str, str]] = field(default_factory=list)
    segments: list[list] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.sides = dict.fromkeys(self.spec.sides, 0)

    def add(self, kind: str, fields: Mapping[str, Any]) -> None:
        """Tally one ``log`` event of one of the ledger's kinds."""
        spec, law = self.spec, self.spec.law
        entry = (str(fields.get(spec.kinds[kind], "?"))
                 if spec.kinds[kind] else kind)
        self.totals[entry] = self.totals.get(entry, 0) + 1
        rnd = int(fields.get("round", -1))
        key = entry
        if spec.sides:
            second = fields.get(spec.flag) if spec.flag else None
            if second is None:
                second = kind in spec.second or entry in spec.second
            key = spec.sides[bool(second)]
            self.sides[key] += 1
            self.entry_sides[entry] = key
        if rnd >= 0:
            slot = self.by_round.setdefault(rnd, dict.fromkeys(self.sides, 0))
            slot[key] = slot.get(key, 0) + 1
        if spec.records:
            self.records.append(
                (rnd, entry, str(fields.get(spec.records[0], ""))))
        if law:
            level = fields.get(law.level)
            if level is not None:
                if entry == law.opens or not self.segments:
                    self.segments.append([int(level), int(level), 0])
                self.segments[-1][1] = int(level)
            if self.segments:
                self.segments[-1][2] += ((entry == law.plus)
                                         - (entry == law.minus))

    @property
    def total(self) -> int:
        """Events tallied across all entries."""
        return sum(self.totals.values())

    @property
    def initial(self) -> int:
        """Opening level of the first run segment (-1 without one)."""
        return self.segments[0][0] if self.segments else -1

    @property
    def final(self) -> int:
        """Closing level of the last run segment (-1 without one)."""
        return self.segments[-1][1] if self.segments else -1

    @property
    def unbalanced(self) -> list[tuple[int, list]]:
        """``(index, segment)`` of every run segment whose law fails."""
        return [(i, seg) for i, seg in enumerate(self.segments)
                if seg[2] != seg[1] - seg[0]]

    @property
    def balanced(self) -> bool:
        """Does the ledger's law (if any) hold in every run segment?"""
        return not self.unbalanced


def analyze_trace(source: str | Path | Iterable[dict]) -> TraceReport:
    """Replay ``source`` (a path or parsed event stream) into a report."""
    events = (load_trace(source) if isinstance(source, (str, Path))
              else list(source))
    span_totals: dict[str, dict] = {}
    rounds: list[RoundRecord] = []
    deltas: dict[str, dict] = {part: {} for part in _COMM_PARTS}
    finals: dict[str, dict] = {part: {} for part in _COMM_PARTS}
    have_final = False
    sim_total = 0.0
    sim_from_rounds = 0.0
    have_sim_final = False
    # Each tracer writes one ``metrics`` event when it closes: counters add
    # up across a trace's runs, every other section keeps its last value.
    metrics: dict[str, dict] = {}
    # A resumed run's restored comm totals, pending its ``run`` span.
    restored: Mapping | None = None
    meta: Mapping[str, Any] = {}
    ledgers = {spec.name: LedgerTally(spec) for spec in ledger_table()}
    routes = {kind: tally for tally in ledgers.values()
              for kind in tally.spec.kinds}
    sim_trees: list = []
    heartbeats: list[dict] = []
    for ev in events:
        kind = ev.get("ev")
        if kind == "trace_start":
            meta = ev.get("meta", {})
        elif kind == "metrics":
            for section, values in ev.get("data", {}).items():
                merged = metrics.setdefault(section, {})
                for key, value in values.items():
                    merged[key] = (merged.get(key, 0) + value
                                   if section == "counters" else value)
        elif kind == "log" and ev.get("kind") == "comm_restored":
            restored = ev.get("fields", {})
        elif kind == "log" and ev.get("kind") == "heartbeat":
            heartbeats.append(ev.get("fields", {}))
        elif kind == "log" and ev.get("kind") in routes:
            routes[ev["kind"]].add(ev["kind"], ev.get("fields", {}))
        elif kind == "span":
            name = ev.get("name", "?")
            slot = span_totals.setdefault(name, {"count": 0, "total_s": 0.0})
            slot["count"] += 1
            slot["total_s"] += float(ev.get("dur_s", 0.0))
            attrs = ev.get("attrs", {})
            if name == "cloud_round":
                if "sim_tree" in attrs:
                    sim_trees.append(attrs["sim_tree"])
                comm = attrs.get("comm", {})
                _merge_comm(deltas, comm)
                sim_s = float(attrs.get("sim_s", 0.0))
                sim_from_rounds += sim_s
                rounds.append(RoundRecord(
                    algorithm=str(attrs.get("algorithm", "?")),
                    round_index=int(attrs.get("round", -1)),
                    start_s=float(ev.get("t", 0.0)),
                    duration_s=float(ev.get("dur_s", 0.0)),
                    floats=float(sum(comm.get("floats", {}).values())),
                    cycles=int(sum(comm.get("cycles", {}).values())),
                    sim_s=sim_s,
                ))
            elif name == "run":
                if "comm_total" in attrs:
                    # Run-final snapshots accumulate across the trace's runs;
                    # a resumed run's total also counts the rounds it
                    # restored, which an earlier segment already reported.
                    have_final = True
                    _merge_comm(finals, attrs["comm_total"])
                    if restored is not None:
                        _merge_comm(finals, restored, sign=-1)
                        restored = None
                if "sim_total_s" in attrs:
                    have_sim_final = True
                    sim_total += float(attrs["sim_total_s"])
    # Prefer the exact run-final snapshots; fall back to summed round deltas.
    comm = finals if have_final else deltas
    replay_consistent = (not have_final) or _consistent(
        deltas["cycles"], finals["cycles"]) and _consistent(
        deltas["floats"], finals["floats"], rel=1e-9)
    run_total = span_totals.get("run", {}).get("total_s", 0.0)
    phase_times = {p: span_totals.get(p, {}).get("total_s", 0.0)
                   for p in PHASE_SPANS}
    in_run = sum(phase_times[p] for p in _RUN_PHASES)
    coverage = (in_run / run_total) if run_total > 0 else 0.0
    return TraceReport(
        events=len(events),
        span_totals=span_totals,
        run_total_s=run_total,
        phase_times=phase_times,
        phase_coverage=coverage,
        rounds=tuple(rounds),
        comm_cycles=comm["cycles"],
        comm_messages=comm["messages"],
        comm_floats=comm["floats"],
        replay_consistent=replay_consistent,
        sim_time_s=sim_total if have_sim_final else sim_from_rounds,
        metrics=metrics,
        meta=meta,
        ledgers=ledgers,
        sim_trees=tuple(sim_trees),
        heartbeats=tuple(heartbeats),
    )


def _consistent(deltas: Mapping, finals: Mapping, *, rel: float = 0.0) -> bool:
    """Do summed per-round deltas agree with the run-final snapshot?

    Cycle counts must match exactly; float volumes up to ``rel`` relative
    error (per-round deltas are floating-point differences).  A trace without
    per-round records (``write_max_depth=0``) is vacuously consistent.
    """
    if not deltas:
        return True
    for key in set(deltas) | set(finals):
        a, b = float(deltas.get(key, 0)), float(finals.get(key, 0))
        if abs(a - b) > rel * max(abs(a), abs(b), 1.0):
            return False
    return True


def format_trace_report(report: TraceReport, *, timeline: int = 5) -> str:
    """Human-readable rendering of a :class:`TraceReport`.

    Parameters
    ----------
    timeline:
        Show at most this many rounds from the start and end of the timeline
        (0 hides the timeline section).
    """
    algos = sorted({r.algorithm for r in report.rounds})
    lines = [f"trace: {report.events} events, {len(report.rounds)} rounds"
             + (f", {len(report.heartbeats)} heartbeats"
                if report.heartbeats else "")
             + (f", algorithms: {', '.join(algos)}" if algos else "")]
    if report.meta:
        lines.append(f"meta : {json.dumps(dict(report.meta), sort_keys=True)}")
    lines += ["", f"run wall-clock        : {report.run_total_s:.3f} s "
                  f"(phases cover {report.phase_coverage:.1%})"]
    if report.sim_time_s > 0.0:
        lines.append(f"simulated time        : {report.sim_time_s:.3f} s "
                     f"(virtual clock; cost-model makespan)")
    lines.append("per-phase breakdown:")
    for phase in PHASE_SPANS:
        t = report.phase_times.get(phase, 0.0)
        slot = report.span_totals.get(phase, {})
        share = t / report.run_total_s if report.run_total_s > 0 else 0.0
        lines.append(f"  {phase:<22s} {t:10.3f} s  {share:6.1%}  "
                     f"({int(slot.get('count', 0))} spans)")
    other = {n: s for n, s in report.span_totals.items()
             if n not in PHASE_SPANS + ("run", "cloud_round")}
    for name in sorted(other, key=lambda n: -other[n]["total_s"])[:4]:
        s = other[name]
        lines.append(f"  {name:<22s} {s['total_s']:10.3f} s   (nested; "
                     f"{int(s['count'])} spans)")
    lines += ["", "communication (replayed"
              + ("" if report.replay_consistent
                 else "; WARNING: deltas disagree with final snapshot") + "):",
              f"  total cycles          : {report.total_cycles}",
              f"  edge-cloud cycles     : {report.edge_cloud_cycles}",
              f"  total traffic         : {report.total_bytes / 1e6:.3f} MB"]
    for key in sorted(report.comm_floats):
        mb = report.comm_floats[key] * _BYTES_PER_FLOAT / 1e6
        msgs = report.comm_messages.get(key, 0)
        lines.append(f"    {key:<20s} {mb:10.3f} MB  ({msgs} messages)")
    if report.sim_trees:
        # Imported lazily to keep the module dependency one-way.
        from repro.obs.critical_path import (analyze_critical_paths,
                                             format_critical_path)
        lines += ["", format_critical_path(
            analyze_critical_paths(report.sim_trees), timeline=timeline)]
    if timeline > 0 and report.rounds:
        lines += ["", "round timeline:"] + _elide(
            report.rounds, timeline, timeline, _round_line, "rounds")
    for tally in report.ledgers.values():
        if tally.totals:
            lines += _ledger_lines(tally, timeline)
    counters = report.metrics.get("counters", {}) if report.metrics else {}
    gauges = report.metrics.get("gauges", {}) if report.metrics else {}
    if counters or gauges:
        lines += ["", "metrics:"]
        for k in sorted(counters):
            lines.append(f"  {k:<22s} {counters[k]:g}")
        for k in sorted(gauges):
            lines.append(f"  {k:<22s} {gauges[k]:g}  (gauge)")
    return "\n".join(lines)


def _elide(items, head: int, tail: int, render, noun: str) -> list[str]:
    """``render`` each item, or only the first ``head`` and last ``tail``
    around a marker counting the elided ``noun``."""
    items = list(items)
    if len(items) <= head + tail:
        return [render(item) for item in items]
    return ([render(item) for item in items[:head]]
            + [f"  … {len(items) - head - tail} {noun} elided …"]
            + [render(item) for item in items[len(items) - tail:]])


def _headline(parts: tuple[str, ...], counts: Counter) -> str:
    """The first part, then each later part naming a nonzero count."""
    return parts[0].format_map(counts) + "".join(
        part.format_map(counts) for part in parts[1:]
        if any(counts[name] for _, name, _, _ in Formatter().parse(part)
               if name))


def _ledger_lines(tally: LedgerTally, timeline: int) -> list[str]:
    """One ledger's report section, rendered from its :class:`Ledger` row."""
    spec, law = tally.spec, tally.spec.law
    counts = Counter({**tally.totals, **tally.sides, "total": tally.total,
                      "entries": len(tally.totals),
                      "rounds": len(tally.by_round)})
    lines = ["", _headline(spec.headline, counts)]
    if law and tally.segments:
        verdict, unbalanced = "balanced", tally.unbalanced
        if unbalanced:
            index, (opened, closed, delta) = unbalanced[0]
            verdict = f"IMBALANCED: {law.plus}-{law.minus}={delta:+d}"
            if len(tally.segments) > 1:
                verdict += (f" vs net {closed - opened:+d} in segment "
                            f"{index + 1} of {len(tally.segments)}")
        lines.append(f"  {law.opens:<22s}: {tally.initial} -> {tally.final} "
                     f"(net {tally.final - tally.initial:+d}; "
                     f"ledger {verdict})")
    listed = sorted(e for e in tally.totals if not law or e != law.opens)
    groups = zip(spec.sides, spec.labels) if spec.labels else [(None, "")]
    for side, label in groups:
        lines += [f"  {entry:<22s} {tally.totals[entry]:6d}"
                  + (f"  ({label})" if label else "")
                  for entry in listed
                  if side is None or tally.entry_sides[entry] == side]
    if timeline > 0 and spec.timeline and tally.by_round:
        lines.append(f"{spec.timeline} timeline:")
        lines += _elide(
            sorted(tally.by_round.items()), timeline, timeline,
            lambda row: f"  round {row[0]:>5d}  " + "  ".join(
                spec.round_cell.format(n=n, key=key)
                for key, n in sorted(row[1].items())), "rounds")
    if timeline > 0 and spec.records:
        lines += _elide(tally.records, 2 * timeline, 0,
                        lambda rec: f"  round {rec[0]:>5d}  {rec[1]}: "
                                    f"{rec[2]}", spec.records[1])
    return lines


def _round_line(r: RoundRecord) -> str:
    line = (f"  [{r.algorithm}] round {r.round_index:>5d}  "
            f"{r.duration_s * 1e3:8.2f} ms  {r.bytes / 1e3:10.1f} kB  "
            f"{r.cycles:4d} cycles")
    if r.sim_s > 0.0:
        line += f"  {r.sim_s * 1e3:8.2f} sim-ms"
    return line
