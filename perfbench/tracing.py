"""In-memory spans around the package's public functions.

The benchmark wraps module attributes of ``eqshares`` (the names the callers
look up at call time), so no program file changes. Each span holds its name,
start, end, parent span and cell id; a cell is one (instance, rule) pair of
``batch``, opened by ``run_rule`` and closed by the next ``load_election``.
Spans stay in memory until :meth:`Tracer.write` at the end of a run.

Layer times (``.s``) are inclusive of child spans, except the first-use
profile derivations (``model.derive.*``), which are charged to
``model.derive.s`` alone. ``.self_s`` excludes every child span.
"""
from __future__ import annotations

import functools
import os
import statistics
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional, Sequence

import eqshares.axioms
import eqshares.cli
import eqshares.model
import eqshares.pabulib
import eqshares.rules
import eqshares.stats

DERIVE = "model.derive."
RULES = ("utilitarian", "mes", "mes-add1u", "fres-complete", "bos", "bos-plus")

# One span: [name, start, end, parent index or -1, cell id or -1].
Span = list


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._cell = -1
        self._cells = 0

    def _open(self, name: str, cell: Optional[str]) -> int:
        if cell == "new":
            self._cell = self._cells
            self._cells += 1
        elif cell == "none":
            self._cell = -1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._cell])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        idx = self._open(name, cell)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, perf_counter())

    def wrap(
        self,
        fn: Callable,
        name,
        cell: Optional[str] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span; ``name`` may be a function of the args."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name(*args) if callable(name) else name, cell)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, perf_counter())
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def _targets(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, replacement) for every traced boundary."""
        cli, rules, stats, axioms, pabulib, model = (
            eqshares.cli, eqshares.rules, eqshares.stats, eqshares.axioms,
            eqshares.pabulib, eqshares.model,
        )
        out = [
            (cli, "load_election", self.wrap(
                cli.load_election, "cli.load_election", "none", _count_bytes)),
            (pabulib, "parse_pb", self.wrap(pabulib.parse_pb, "pabulib.parse_pb")),
            (pabulib, "ballots_to_utilities", self.wrap(
                pabulib.ballots_to_utilities, "pabulib.ballots_to_utilities")),
            (pabulib, "write_pb", self.wrap(pabulib.write_pb, "pabulib.write_pb")),
            (cli, "write_pb", self.wrap(cli.write_pb, "pabulib.write_pb")),
            (cli, "gen_euclidean", self.wrap(
                cli.gen_euclidean, "synth.gen_euclidean")),
            (cli, "run_rule", self.wrap(
                cli.run_rule, lambda rule, *_: f"rules.run_rule.{rule}", "new",
                _count_rounds)),
            (rules, "mes", self.wrap(rules.mes, "rules.mes")),
            (rules, "min_rho", self.wrap(rules.min_rho, "rules.min_rho")),
            (rules, "bos_quote", self.wrap(rules.bos_quote, "rules.bos_quote")),
            (cli, "build_record", self.wrap(cli.build_record, "stats.build_record")),
            (stats, "audit", self.wrap(stats.audit, "axioms.audit")),
            (axioms, "utilitarian", self.wrap(
                axioms.utilitarian, "axioms.utilitarian")),
            (axioms, "ejr_plus_violations", self.wrap(
                axioms.ejr_plus_violations, "axioms.ejr_plus_violations")),
            (cli, "records_from_jsonl", self.wrap(
                cli.records_from_jsonl, "stats.records_from_jsonl", None,
                _count_records)),
            (cli, "aggregate_records", self.wrap(
                cli.aggregate_records, "stats.aggregate_records")),
            (cli, "aggregate_to_csv", self.wrap(
                cli.aggregate_to_csv, "stats.aggregate_to_csv")),
        ]
        for owner, attr in ((model.Election, "cost_utilities"),
                            (model.UtilityProfile, "supporters"),
                            (model.UtilityProfile, "project_totals")):
            prop = owner.__dict__[attr]
            traced = functools.cached_property(
                self.wrap(prop.func, DERIVE + attr))
            traced.__set_name__(owner, attr)
            out.append((owner, attr, traced))
        return out

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Replace the traced attributes for the duration of the block."""
        targets = self._targets()
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Spans as tab-separated id, parent, cell, name, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tcell\tname\tstart_s\tend_s\n")
            for idx, (name, start, end, parent, cell) in enumerate(self.spans):
                handle.write(
                    f"{idx}\t{parent}\t{cell}\t{name}\t{start!r}\t{end!r}\n"
                )


def _count_bytes(counts: Counter, args: tuple, result) -> None:
    counts["pabulib.bytes_read"] += os.path.getsize(args[0])


def _count_rounds(counts: Counter, args: tuple, result) -> None:
    rounds = getattr(result, "rounds", None)
    if rounds is None:
        rounds = result.purchases
    counts["rules.rounds"] += sum(1 for r in rounds if r.rho is not None)


def _count_records(counts: Counter, args: tuple, result) -> None:
    counts["stats.records_in"] += len(result)


def span_times(spans: Sequence[Span]) -> tuple[list[float], list[float]]:
    """Per span: self time, and time inside outermost derivation spans.

    Children always follow their parent in ``spans`` (ids are assigned on
    entry), so one backward pass sees every child before its parent.
    """
    n = len(spans)
    children = [0.0] * n
    derive = [0.0] * n
    for idx in range(n - 1, -1, -1):
        name, start, end, parent, _ = spans[idx]
        if parent < 0:
            continue
        duration = end - start
        children[parent] += duration
        derive[parent] += duration if name.startswith(DERIVE) else derive[idx]
    own = [spans[i][2] - spans[i][1] - children[i] for i in range(n)]
    return own, derive


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced pass."""
    spans = tracer.spans
    own, derive = span_times(spans)
    time_s: Counter = Counter()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for idx, (name, start, end, _, _) in enumerate(spans):
        time_s[name] += end - start - derive[idx]
        self_s[name] += own[idx]
        calls[name] += 1

    cells: dict[int, float] = {}
    for name, start, end, parent, cell in spans:
        if cell >= 0 and (parent < 0 or spans[parent][4] != cell):
            cells[cell] = cells.get(cell, 0.0) + end - start
    add1u_probes = sum(
        1 for name, _, _, parent, _ in spans
        if name == "rules.mes" and parent >= 0
        and spans[parent][0] == "rules.run_rule.mes-add1u"
    )
    quotes = calls["rules.min_rho"] + calls["rules.bos_quote"]
    counts = tracer.counts
    out = {
        "pabulib.parse_pb.s": time_s["pabulib.parse_pb"],
        "pabulib.ballots_to_utilities.s": time_s["pabulib.ballots_to_utilities"],
        "pabulib.bytes_read": counts["pabulib.bytes_read"],
        "model.derive.s": sum(v for k, v in time_s.items() if k.startswith(DERIVE)),
        "rules.min_rho.calls": calls["rules.min_rho"],
        "rules.min_rho.s": time_s["rules.min_rho"],
        "rules.bos_quote.calls": calls["rules.bos_quote"],
        "rules.bos_quote.s": time_s["rules.bos_quote"],
        "rules.rounds": counts["rules.rounds"],
        "rules.quote_yield": counts["rules.rounds"] / quotes if quotes else 0.0,
        "rules.add1u.probes": add1u_probes,
        "axioms.audit.calls": calls["axioms.audit"],
        "axioms.audit.s": time_s["axioms.audit"],
        "axioms.ejr_plus_violations.s": time_s["axioms.ejr_plus_violations"],
        "axioms.utilitarian.calls": calls["axioms.utilitarian"],
        "stats.build_record.self_s": self_s["stats.build_record"],
        "stats.records_from_jsonl.s": time_s["stats.records_from_jsonl"],
        "stats.aggregate_records.s": time_s["stats.aggregate_records"],
        "stats.aggregate_to_csv.s": time_s["stats.aggregate_to_csv"],
        "stats.records_in": counts["stats.records_in"],
        "cli.batch.self_s": self_s["cli.batch"],
        "cli.aggregate.self_s": self_s["cli.aggregate"],
        "cli.cell.p50_s": statistics.median(cells.values()) if cells else 0.0,
        "cli.cell.max_s": max(cells.values(), default=0.0),
    }
    for rule in RULES:
        out[f"rules.run_rule.{rule}.s"] = time_s[f"rules.run_rule.{rule}"]
    return out


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer times of a traced set-up."""
    times: Counter = Counter()
    for name, start, end, _, _ in tracer.spans:
        times[name] += end - start
    return {
        "pabulib.write_pb.s": times["pabulib.write_pb"],
        "synth.gen_euclidean.s": times["synth.gen_euclidean"],
    }
