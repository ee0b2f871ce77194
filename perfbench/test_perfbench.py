"""Tests of the benchmark's own checker, span arithmetic and generators."""
from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for _path in (HERE.parent / "src", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import checks  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from eqshares.cli import main  # noqa: E402

RULES = ("utilitarian", "mes", "bos", "fres-complete")


@pytest.fixture(scope="module")
def batch_run(tmp_path_factory):
    """Records of a small generated approval instance, and its corpus."""
    base = tmp_path_factory.mktemp("bench")
    corpus_dir = base / "corpus"
    corpus_dir.mkdir()
    election = corpus.approval_election([7, 0, 0], 60, 8, "small")
    corpus.write_approval(corpus_dir / "small.pb", election)
    out = base / "records.jsonl"
    assert main([
        "batch", str(corpus_dir), "--model", "cost", "--rules", ",".join(RULES),
        "--out", str(out),
    ]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    instances = {"small": checks.read_instance(corpus_dir / "small.pb")}
    return records, instances


def test_clean_records_pass(batch_run):
    records, instances = batch_run
    report = checks.check_cells(records, instances, RULES)
    assert (report.attempted, report.failed, report.problems) == (4, 0, [])
    assert any(r["fractions"] is not None for r in records)


def test_tampered_payment_is_flagged(batch_run):
    records, instances = batch_run
    tampered = copy.deepcopy(records)
    record = next(r for r in tampered if r["rule"] == "mes" and r["rounds"])
    payments = record["rounds"][0]["payments"]
    voter = next(iter(payments))
    payments[voter] = str(Fraction(payments[voter]) + 1)
    report = checks.check_cells(tampered, instances, RULES)
    assert report.failed == 1
    assert any("small|mes: round 0: payments sum" in p for p in report.problems)


def test_tampered_fractional_payment_is_flagged(batch_run):
    records, instances = batch_run
    tampered = copy.deepcopy(records)
    record = next(r for r in tampered if r["rule"] == "fres-complete")
    rnd = next(r for r in record["rounds"] if r["rho"] is not None)
    rnd["alpha"] = str(Fraction(rnd["alpha"]) / 2)
    assert checks.check_cells(tampered, instances, RULES).failed == 1


def test_missing_cell_is_flagged(batch_run):
    records, instances = batch_run
    report = checks.check_cells(
        [r for r in records if r["rule"] != "bos"], instances, RULES)
    assert report.failed == 1
    assert report.problems == ["small|bos: 0 records, expected 1"]


def test_reference_digest_ignores_runtime(batch_run):
    records, instances = batch_run
    reference = checks.check_cells(records, instances, RULES).digests
    rerun = copy.deepcopy(records)
    for record in rerun:
        record["runtime_sec"] += 1.0
        record["timings"] = {"rule": 0.5}
    assert checks.check_cells(rerun, instances, RULES, reference).failed == 0
    rerun[0]["selected"] = []
    assert checks.check_cells(rerun, instances, RULES, reference).failed == 1


def test_overspending_outcome_is_flagged(batch_run):
    records, instances = batch_run
    tampered = copy.deepcopy(records)
    record = next(r for r in tampered if r["rule"] == "utilitarian")
    record["selected"] = list(instances["small"].names)
    problems = checks.record_problems(record, instances["small"])
    assert any("over the budget" in p for p in problems)


def test_self_times_on_synthetic_span_tree():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli.batch", 0.0, 10.0, -1, -1],
        ["cli.load_election", 0.0, 2.0, 0, -1],
        ["pabulib.parse_pb", 0.5, 1.5, 1, -1],
        ["rules.run_rule.mes", 2.0, 7.0, 0, 0],
        ["model.derive.supporters", 2.0, 3.0, 3, 0],
        ["rules.min_rho", 3.0, 4.0, 3, 0],
        ["stats.build_record", 7.0, 9.0, 0, 0],
        ["axioms.audit", 7.5, 8.5, 6, 0],
        ["model.derive.project_totals", 7.5, 8.0, 7, 0],
    ]
    own, derive = tracing.span_times(tracer.spans)
    assert own == [1.0, 1.0, 1.0, 3.0, 1.0, 1.0, 1.0, 0.5, 0.5]
    assert derive == [1.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5, 0.5, 0.0]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.batch.self_s"] == 1.0
    assert metrics["rules.run_rule.mes.s"] == 4.0
    assert metrics["model.derive.s"] == 1.5
    assert metrics["axioms.audit.s"] == 0.5
    assert metrics["stats.build_record.self_s"] == 1.0
    assert metrics["pabulib.parse_pb.s"] == 1.0
    assert metrics["rules.min_rho.calls"] == 1
    assert metrics["cli.cell.p50_s"] == metrics["cli.cell.max_s"] == 7.0


def test_tracer_restores_wrapped_attributes():
    tracer = tracing.Tracer()
    targets = [(owner, attr) for owner, attr, _ in tracer._targets()]
    before = [vars(owner)[attr] for owner, attr in targets]
    with tracer.installed():
        during = [vars(owner)[attr] for owner, attr in targets]
    assert all(a is not b for a, b in zip(before, during))
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(targets, before))


def test_generator_seed_reproduces_files(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        corpus.write_archive_sources(tmp_path / name, seed)
        corpus.write_approval(
            tmp_path / name / "wide.pb",
            corpus.approval_election([seed, 0, 0], 2000, 50, "wide"),
        )
    files = sorted(p.name for p in (tmp_path / "a").glob("*.pb"))
    assert len(files) == corpus.ARCHIVE_FILES + 1
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    assert corpus.corpus_sha256(tmp_path / "a") == \
        corpus.corpus_sha256(tmp_path / "b")
    assert (tmp_path / "a" / "wide.pb").read_bytes() != \
        (tmp_path / "c" / "wide.pb").read_bytes()


def test_profile_seed_fixes_projects_and_seed_varies_ballots():
    def election(seed):
        return corpus.approval_election([seed, 0, 0], 200, 12, "p",
                                        profile_seed=[0, 0])

    a, b = election(3), election(4)
    assert a.projects == b.projects and a.budget == b.budget
    assert a.scores != b.scores


def test_scaled_time_divides_out_host_speed():
    sampler = hostspeed.Sampler()
    # A host at half the reference speed: the kernel takes twice as long.
    sampler.samples = [(float(t), 2 * hostspeed.REFERENCE_S)
                       for t in range(20)]
    busy = 4 * 2 * hostspeed.REFERENCE_S  # samples at 10..13 lie inside
    assert sampler.scaled(10.0, 14.0) == pytest.approx((4.0 - busy) / 2)
    # Too few samples inside: the nearest ones stand in.
    assert sampler.scaled(30.0, 30.5) == pytest.approx(0.25)


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for moves in layers.values():
        for move in moves:
            assert move["metric"] in end_to_end
            assert move["workload"] in workloads
