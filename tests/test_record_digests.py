"""Committed digests of the ``batch`` records on the bundled fixtures.

What the rules compute is fixed: a change that is meant to leave the
records alone (a faster kernel, a smaller ledger) must leave these digests
alone too, and a change that alters a record must update its digest and
say why. Each digest covers one configuration of ``batch --rules`` with all
seven rules on ``tests/fixtures``: the cost or score model, with or without
``--exhaustive-redistribution``.

A record is masked as the benchmark's reference digests mask it: only the
fields listed below are kept, so ``runtime_sec`` and any field added later
drop out, and each record is serialised as sorted-key JSON. The digest is
the sha256 of those lines, in the order ``batch`` writes them.

The same test pins ``aggregate`` over each configuration's records: the
sha256 of its summary CSV without the ``runtime_sec`` rows, which are the
only rows that change from run to run (as the benchmark's aggregate digest
drops them).

The test also checks that its inputs still exercise what the digests are
there to pin: a bos round with coverage below 1, a full quote that caps a
payer, and the add1u scan.

A second test pins records at scale: ``batch --rules all`` under each
model on ``tests/fixtures/wide/approval-1000.pb``, a 1,000-voter, 40-project
approval file written by ``write_pb`` from
``tests/instances.py::pabulib_approval_election(1000, 1000, 40)``. It runs
with the coarse ``--add1u-step 100``, so that the add1u scan makes about
two dozen probes rather than more than 2,000 at the default step of 1.

A third test pins records of decimal scores: ``batch --rules all`` under
each model on ``tests/fixtures/euclidean``, three 150-voter,
150-candidate instances written by ``eqshares gen euclidean --dist D
--seed 0`` for D = 1, 2, 3. Their scores are decimals over 10^9, nearly all
distinct, so each column's entries have large, different denominators.
The files are committed, not generated, since numpy does not promise its
samplers' streams across versions.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from eqshares import rules
from eqshares.cli import main

RULES = "mes,mes-add1u,fres,fres-complete,bos,bos-plus,utilitarian"

RECORD_FIELDS = (
    "instance", "rule", "model", "ballot_type", "n_voters", "n_projects",
    "budget", "selected", "fractions", "feasible", "rounds", "metrics",
    "config_hash",
)
ROUND_FIELDS = ("project", "alpha", "rho", "payments", "overspent")
METRIC_FIELDS = (
    "score_satisfaction", "cost_satisfaction", "relative_score_satisfaction",
    "relative_cost_satisfaction", "exclusion_ratio", "budget_spent_fraction",
    "exhaustive", "ejr_plus_violations",
)

DIGESTS = {
    ("cost", False):
        "c43dccb4644969eedcad9ee9732ca27d00e9b2cf620cdc7d5e5458690f8cfa99",
    ("cost", True):
        "95f7f047e39e2e795bee0e499a2655cdaea304a17e637e538317f8cbbd4d37ce",
    ("score", False):
        "dad99421ab6f6b8c7a3452b83cbb112c1773606154816a66d630ee652f7f37df",
    ("score", True):
        "1accff788288c8603b2a70b27ce9ab42c30770b6122eadd17b04c2b3ab691de3",
}

# The aggregate does not depend on --exhaustive-redistribution here.
AGGREGATE_DIGESTS = {
    "cost": "6c574b8ffa6d02849e5ae0be8fae91f6d82ce973ead37be33c33f6c819a79cb5",
    "score": "acf04485ea9a17fcdeed20090d631ac8143618185dfb88959c0a0e1822bd7f02",
}

WIDE_STEP = "100"
WIDE_RULES = {"bos", "bos-plus", "fres-complete", "mes-add1u", "utilitarian"}
WIDE_DIGESTS = {
    "cost": "1e127347e10aec95502a7854513a538882c25c4b835eb77f2a750aa4028a09d5",
    "score": "f2841ee1ab89c33efafda7d3bce17275fb4db62aa80d864ba6a3952fcd748492",
}

EUCLIDEAN_RULES = WIDE_RULES
EUCLIDEAN_DIGESTS = {
    "cost": "9677d23dceaffa3d5325adc10cfeb13a914ba56e7707dd1502b9d3adf6df3976",
    "score": "75bf4db192fa5aca0004fc98ac697920698f7c2af90b14d11aecf2c151c5023c",
}


def masked(record: dict) -> str:
    """The record's digest text: the listed fields, as sorted-key JSON."""
    out = {key: record[key] for key in RECORD_FIELDS}
    out["rounds"] = [
        {key: r[key] for key in ROUND_FIELDS} for r in record["rounds"]
    ]
    out["metrics"] = {
        key: record["metrics"][key]
        for key in METRIC_FIELDS if key in record["metrics"]
    }
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def records_digest(records: list[dict]) -> str:
    text = "\n".join(masked(r) for r in records)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "model, redistribute", sorted(DIGESTS),
    ids=[f"{m}-{'redistribute' if r else 'plain'}" for m, r in sorted(DIGESTS)],
)
def test_batch_records_match_their_digest(
    model, redistribute, fixtures_dir, tmp_path, monkeypatch
):
    capped = []
    real_full_quote = rules._full_quote

    def watched(*args):
        quote = real_full_quote(*args)
        capped.append(quote.capped)
        return quote

    monkeypatch.setattr(rules, "_full_quote", watched)
    out = tmp_path / "records.jsonl"
    argv = ["batch", str(fixtures_dir), "--rules", RULES, "--model", model,
            "--out", str(out)]
    if redistribute:
        argv.append("--exhaustive-redistribution")
    assert main(argv) == 0
    with out.open(encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]

    # The inputs still reach what the digest pins.
    assert {r["rule"] for r in records} == set(RULES.split(","))
    assert any(r["rule"] == "mes-add1u" for r in records)
    assert any(
        rnd["alpha"] != "1" for r in records if r["rule"] == "bos"
        for rnd in r["rounds"]
    )
    assert any(capped)

    assert records_digest(records) == DIGESTS[model, redistribute]

    summary = tmp_path / "summary.csv"
    assert main(["aggregate", str(out), "--out", str(summary)]) == 0
    lines = summary.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = "".join(line for line in lines if line.split(",")[1] != "runtime_sec")
    assert len(kept.splitlines()) == 176
    digest = hashlib.sha256(kept.encode("utf-8")).hexdigest()
    assert digest == AGGREGATE_DIGESTS[model]


@pytest.mark.parametrize("model", sorted(WIDE_DIGESTS))
def test_wide_approval_records_match_their_digest(
    model, fixtures_dir, tmp_path, monkeypatch
):
    probes = []
    real_loop = rules._equal_shares

    def counted_loop(*args, **kwargs):
        probes.append(1)
        return real_loop(*args, **kwargs)

    monkeypatch.setattr(rules, "_equal_shares", counted_loop)
    out = tmp_path / "records.jsonl"
    assert main([
        "batch", str(fixtures_dir / "wide"), "--rules", "all",
        "--model", model, "--add1u-step", WIDE_STEP, "--out", str(out),
    ]) == 0
    with out.open(encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]

    assert {r["rule"] for r in records} == WIDE_RULES
    assert {(r["n_voters"], r["n_projects"]) for r in records} == {(1000, 40)}
    assert len(probes) > 10  # the add1u scan grew the endowment
    assert any(
        rnd["alpha"] != "1" for r in records if r["rule"] == "bos"
        for rnd in r["rounds"]
    )
    assert records_digest(records) == WIDE_DIGESTS[model]


@pytest.mark.parametrize("model", sorted(EUCLIDEAN_DIGESTS))
def test_decimal_score_records_match_their_digest(model, fixtures_dir, tmp_path):
    out = tmp_path / "records.jsonl"
    assert main([
        "batch", str(fixtures_dir / "euclidean"), "--rules", "all",
        "--model", model, "--out", str(out),
    ]) == 0
    with out.open(encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]

    assert {r["rule"] for r in records} == EUCLIDEAN_RULES
    assert {r["instance"] for r in records} == {
        f"euclid_d{d}_s0000" for d in (1, 2, 3)
    }
    assert records_digest(records) == EUCLIDEAN_DIGESTS[model]
