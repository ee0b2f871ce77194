"""Acceptance suite: thirteen end-to-end criteria, one test each.

Each test prints one ``criterion NN: PASS`` line on success (visible with
``pytest -s``); a failure shows up as an ordinary pytest failure. The
criteria cover golden traces, adversarial families, randomized axiom
sweeps, oracle comparisons, serialization, and runtime budgets.

Criterion 7 audits every buyout-rule run performed under cost utilities
by criteria 1 through 5; those tests register their runs in
``BOS_COST_RUNS`` as they go, so the file relies on pytest's in-module
definition order.
"""

from __future__ import annotations

import csv
import random
import time
from collections import defaultdict
from fractions import Fraction as F

import pytest

import oracles
from eqshares.axioms import (
    ejr_plus_violations,
    ejr_up_to_witnesses,
    fractional_ejr_falsifier,
    overspend_rounds_exhaust_majority,
)
from eqshares.cli import BENCH_RULES, main
from eqshares.model import (
    BudgetState,
    Election,
    Project,
    UtilityModel,
    UtilityProfile,
)
from eqshares.pabulib import (
    BallotType,
    ballots_to_utilities,
    load_election,
    parse_pb,
    write_pb,
)
from eqshares.rules import (
    RuleConfig,
    TieBreaker,
    add1u,
    bos,
    bos_plus,
    bos_quote,
    fres,
    mes,
    run_rule,
    utilitarian,
)
from eqshares.stats import (
    QUANTILE_POINTS,
    RATIONAL_METRICS,
    RunRecord,
    bucket_label,
    metric_values,
    records_to_jsonl,
)
from eqshares.synth import (
    EuclideanConfig,
    PropOneConfig,
    gen_euclidean,
    gen_prop_one,
    standard_clusters,
)
from instances import random_approval_election, random_cardinal_election

# Every buyout run under cost utilities from criteria 1-5, stored as
# (criterion number, overspend-audit verdict). Storing the verdict rather
# than the election keeps the threshold sweep from pinning thousands of
# instances in memory.
BOS_COST_RUNS: list[tuple[int, bool]] = []


def register_bos_run(suite: int, election: Election, outcome) -> None:
    if election.utility_model is not UtilityModel.COST:
        return
    BOS_COST_RUNS.append(
        (suite, overspend_rounds_exhaust_majority(election, outcome))
    )


def report(number: int, detail: str) -> None:
    print(f"criterion {number:02d}: PASS ({detail})")


@pytest.fixture(scope="module")
def approval_corpus():
    rng = random.Random(8675309)
    return [random_approval_election(rng) for _ in range(500)]


@pytest.fixture(scope="module")
def cardinal_corpus():
    rng = random.Random(5551212)
    return [random_cardinal_election(rng) for _ in range(200)]


def replay_balances(election: Election, rounds) -> list[tuple]:
    balances = [election.budget / election.n_voters] * election.n_voters
    trajectory = []
    for record in rounds:
        for voter, payment in record.payments.items():
            balances[voter] -= payment
        trajectory.append(tuple(balances))
    return trajectory


def test_criterion_01_reference_golden_traces(reference_election):
    e = reference_election
    fres_config = RuleConfig(tie_breaker=TieBreaker(order=(2, 5)))
    start = time.perf_counter()
    greedy = utilitarian(e)
    shares = mes(e)
    fractional = fres(e, fres_config)
    buyout = bos(e)
    elapsed = time.perf_counter() - start

    assert greedy.selected == (0, 1, 2)

    assert [(r.project, r.alpha, r.rho) for r in shares.rounds] == [
        (0, 1, F(1, 6)), (3, 1, F(1, 4)), (4, 1, F(5, 17)),
    ]
    k = 1000
    assert replay_balances(e, shares.rounds) == [
        (50*k,) * 6 + (100*k,) * 4,
        (50*k,) * 6 + (40*k,) * 4,
        (50*k, 0) + (50*k,) * 4 + (0, 0, 0, 40*k),
    ]

    assert [(r.project, r.alpha, r.rho) for r in fractional.purchases] == [
        (0, 1, F(1, 6)),
        (2, F(5, 6), F(1, 5)),
        (3, F(5, 6), F(1, 4)),
        (3, F(1, 6), F(1, 3)),
        (4, F(11, 17), F(1, 3)),
        (5, F(1, 2), F(1)),
    ]
    assert fractional.fractions == {
        0: 1, 2: F(5, 6), 3: 1, 4: F(11, 17), 5: F(1, 2),
    }
    assert fractional.fractions.get(1, F(0)) == 0

    assert [(r.project, r.alpha, r.rho, r.overspent) for r in buyout.rounds] == [
        (0, 1, F(1, 6), ()),
        (2, F(5, 6), F(1, 5), (1, 2, 3, 4)),
        (3, 1, F(5, 18), ()),
        (5, F(5, 6), F(3, 5), (5, 8)),
    ]
    assert buyout.selected == (0, 2, 3, 5)
    register_bos_run(1, e, buyout)

    assert elapsed < 1.0
    report(1, f"four golden traces exact, {elapsed:.3f}s")


def test_criterion_02_case_study_outcomes(minority_election, tail_election,
                                          blocks_election):
    assert set(add1u(minority_election).selected) == {1}
    minority_buyout = bos(minority_election)
    assert set(minority_buyout.selected) == {0}
    assert set(bos_plus(minority_election).selected) == {0}
    register_bos_run(2, minority_election, minority_buyout)

    assert set(mes(tail_election).selected) == {1}
    tail_buyout = bos(tail_election)
    assert set(tail_buyout.selected) == {0}
    register_bos_run(2, tail_election, tail_buyout)

    assert set(mes(blocks_election).selected) == set(range(7))
    assert set(add1u(blocks_election).selected) == set(range(10))
    blocks_buyout = bos(blocks_election)
    assert set(blocks_buyout.selected) == set(range(7)) | {10, 11, 12}
    assert set(bos_plus(blocks_election).selected) == set(range(10))
    register_bos_run(2, blocks_election, blocks_buyout)

    report(2, "minority, tail, and block case studies exact")


def threshold_election(n: int, x: int) -> Election:
    rows = [{0: 1} if i < x else {1: 1} for i in range(n)]
    profile = UtilityProfile.from_rows(n, 2, rows)
    return Election(
        (Project(0, "full", F(n)), Project(1, "unit", F(1))),
        n, F(n), profile, utility_model=UtilityModel.COST,
    )


def test_criterion_03_threshold_family():
    checked = 0
    for n in (100, 414, 1000):
        for x in range(1, n):
            e = threshold_election(n, x)
            outcome = bos(e)
            # Exact rational pivot: the full-budget project quotes ratio
            # n / x^2, the unit project 1 / (n - x).
            expected = (0,) if x * x > n * (n - x) else (1,)
            assert outcome.selected == expected, (n, x)
            register_bos_run(3, e, outcome)
            checked += 1
    assert checked == 99 + 413 + 999
    report(3, f"{checked} pivot decisions exact across n in (100, 414, 1000)")


def test_criterion_04_starved_minority_family():
    for ell in (1, 2, 3):
        election, tie = gen_prop_one(PropOneConfig(ell))
        election = election.with_model(UtilityModel.COST)
        config = RuleConfig(tie_breaker=tie)
        small_block = set(range(ell))
        rest = set(range(ell, len(election.projects)))
        buyout = bos(election, config)
        assert set(buyout.selected) == rest, ell
        assert not small_block & set(buyout.selected)
        register_bos_run(4, election, buyout)
        boosted = bos_plus(election, config)
        assert set(boosted.selected) == rest, ell
    report(4, "both buyout rules starve the small block for ell in (1, 2, 3)")


def test_criterion_05_group_share_slack_bound(approval_corpus):
    witnesses_found = 0
    for e in approval_corpus:
        max_cost = max(p.cost for p in e.projects)
        n = e.n_voters

        def slack(size: int) -> F:
            return F(n - size, 2 * size) * max_cost

        buyout = bos(e)
        witnesses_found += len(ejr_up_to_witnesses(e, buyout, slack))
        register_bos_run(5, e, buyout)
        boosted = bos_plus(e)
        witnesses_found += len(ejr_up_to_witnesses(e, boosted, slack))
    assert witnesses_found == 0
    report(5, f"no witness at slack (n-s)/(2s)*maxcost over "
              f"{len(approval_corpus)} instances")


def test_criterion_06_fractional_counterexample_search(cardinal_corpus):
    counterexamples = 0
    for k, e in enumerate(cardinal_corpus):
        outcome = fres(e)
        found = fractional_ejr_falsifier(e, outcome, trials=1000, seed=k)
        assert found.trials == 1000
        if found.counterexample is not None:
            counterexamples += 1
    assert counterexamples == 0
    report(6, f"0 counterexamples in {len(cardinal_corpus)} x 1000 trials")


def test_criterion_07_overspend_rounds_drain_majorities():
    suites = {suite for suite, _ in BOS_COST_RUNS}
    assert suites == {1, 2, 3, 4, 5}
    violations = [suite for suite, ok in BOS_COST_RUNS if not ok]
    assert violations == []
    report(7, f"{len(BOS_COST_RUNS)} cost-utility buyout runs, "
              f"0 majority violations")


def test_criterion_08_equal_shares_ejr_plus_regression(approval_corpus):
    buyout_flagged = 0
    boosted_flagged = 0
    for e in approval_corpus:
        assert ejr_plus_violations(e, mes(e))[0] == 0
        assert ejr_plus_violations(e, add1u(e))[0] == 0
        if ejr_plus_violations(e, bos(e))[0] > 0:
            buyout_flagged += 1
        if ejr_plus_violations(e, bos_plus(e))[0] > 0:
            boosted_flagged += 1
    total = len(approval_corpus)
    print(f"informational: bos EJR+ violation rate "
          f"{buyout_flagged}/{total}, bos-plus {boosted_flagged}/{total}")
    report(8, f"0 violations for mes and mes-add1u on {total} instances")


def test_criterion_09_quote_optimality_oracle():
    rng = random.Random(314159)
    quotes_checked = 0
    for _ in range(200):
        e = random_cardinal_election(rng)
        balances = [
            F(rng.randint(0, 24), rng.choice([1, 2, 3, 4]))
            for _ in range(e.n_voters)
        ]
        state = BudgetState(balances)
        for project in e.projects:
            quote = bos_quote(project, state, e.utilities)
            if quote is None:
                continue
            supporters = [
                (float(e.utilities.value(i, project.id)), float(balances[i]))
                for i in e.utilities.supporters[project.id]
                if balances[i] > 0
            ]
            sweep = oracles.sweep_quote_min_ratio(float(project.cost),
                                                  supporters)
            assert float(quote.ratio) <= sweep * (1 + 1e-3)
            quotes_checked += 1
    assert quotes_checked > 200
    report(9, f"{quotes_checked} quotes at or below a 10^4-point sweep")


def test_criterion_10_spatial_selection_geometry():
    start = time.perf_counter()
    pooled_selected = 0
    pooled_left = 0
    right_shares = {"mes": [], "bos": [], "fres": []}
    for seed in range(50):
        config = EuclideanConfig(
            voter_clusters=standard_clusters(1), seed=seed
        )
        e = gen_euclidean(config)
        floats = [float(v) for v in e.metadata["candidate_coords"].split()]
        xs = floats[0::2]

        greedy = utilitarian(e)
        pooled_selected += len(greedy.selected)
        pooled_left += sum(1 for c in greedy.selected if xs[c] < 0.5)

        for name, rule in (("mes", mes), ("bos", bos)):
            outcome = rule(e)
            share = F(
                sum(1 for c in outcome.selected if xs[c] > 0.5),
                len(outcome.selected),
            )
            right_shares[name].append(share)

        fractional = fres(e)
        total = sum(fractional.fractions.values())
        right = sum(
            share for c, share in fractional.fractions.items() if xs[c] > 0.5
        )
        right_shares["fres"].append(right / total)

    assert F(pooled_left, pooled_selected) >= F(85, 100)
    for name, shares in right_shares.items():
        average = sum(shares, F(0)) / len(shares)
        assert average > 0, name
        assert average < F(1, 3) + F(5, 100), name
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(10, f"50 spatial elections match the expected geometry, "
               f"{elapsed:.0f}s")


def test_criterion_11_aggregation_oracle(tmp_path):
    rng = random.Random(424242)
    records = []
    for i in range(100):
        metrics: dict[str, object] = {
            name: str(F(rng.randint(0, 400), rng.randint(1, 25)))
            for name in RATIONAL_METRICS
        }
        metrics["exhaustive"] = rng.random() < 0.5
        metrics["ejr_plus_violations"] = rng.choice([None, 0, 1, 2, 3])
        records.append(RunRecord(
            instance=f"i{i:03d}",
            rule=rng.choice(BENCH_RULES),
            model="cost",
            ballot_type=rng.choice(["approval", "scoring"]),
            n_voters=rng.randint(1, 50),
            n_projects=rng.randint(1, 40),
            budget=str(rng.randint(1, 10**6)),
            selected=("A",),
            fractions=None,
            feasible=True,
            rounds=(),
            metrics=metrics,
            runtime_sec=rng.random(),
            config_hash=f"{rng.getrandbits(64):016x}",
        ))
    source = tmp_path / "records.jsonl"
    source.write_text(records_to_jsonl(records), encoding="utf-8")
    target = tmp_path / "summary.csv"
    assert main(["aggregate", str(source), "--out", str(target)]) == 0

    expected: dict[tuple, list[F]] = defaultdict(list)
    for record in records:
        bucket = bucket_label(record.n_projects)
        for metric, value in metric_values(record).items():
            expected[(record.rule, metric, bucket,
                      record.ballot_type)].append(value)

    with open(target, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(expected)
    for row in rows:
        key = (row["rule"], row["metric"], row["bucket"], row["ballot_type"])
        values = expected.pop(key)
        assert int(row["count"]) == len(values)
        assert row["mean"] == str(oracles.second_mean(values))
        assert row["std"] == repr(oracles.second_std(values))
        quantiles = oracles.second_quantiles(values)
        for p in QUANTILE_POINTS:
            assert row[f"q{p}"] == str(quantiles[p])
    assert not expected
    report(11, f"{len(rows)} aggregate rows equal the independent "
               f"implementation exactly")


def fuzzed_election(rng: random.Random, ballot_type: BallotType) -> Election:
    m = rng.randint(1, 6)
    n = rng.randint(1, 6)
    budget = F(rng.randint(20, 400), rng.choice([1, 2, 4, 5, 10]))
    projects = tuple(
        Project(c, f"p{c + 1}", budget * F(rng.randint(1, 10), 10))
        for c in range(m)
    )
    rows: list[dict[int, F]] = []
    for _ in range(n):
        if ballot_type is BallotType.CHOOSE1:
            rows.append({rng.randrange(m): F(1)})
            continue
        chosen = [c for c in range(m) if rng.random() < 0.6]
        if ballot_type is BallotType.APPROVAL:
            rows.append({c: F(1) for c in chosen})
        elif ballot_type is BallotType.ORDINAL:
            rng.shuffle(chosen)
            rows.append({
                c: F(len(chosen) - pos) for pos, c in enumerate(chosen)
            })
        else:
            rows.append({
                c: F(rng.randint(1, 40),
                     rng.choice([1, 2, 4, 5, 8, 10, 16, 20, 25]))
                for c in chosen
            })
    profile = UtilityProfile.from_rows(n, m, rows)
    return Election(projects, n, budget, profile)


def test_criterion_12_serialization_round_trips(fixtures_dir):
    for name in ("reference.pb", "minority.pb", "tail.pb", "blocks.pb"):
        e = load_election(str(fixtures_dir / name), UtilityModel.COST)
        ballot_type = BallotType.parse(e.metadata["vote_type"])
        back = ballots_to_utilities(
            parse_pb(write_pb(e, ballot_type)), UtilityModel.COST
        )
        assert back.same_instance(e), name

    rng = random.Random(97531)
    fuzzed = 0
    for ballot_type in BallotType:
        for _ in range(20):
            e = fuzzed_election(rng, ballot_type)
            back = ballots_to_utilities(
                parse_pb(write_pb(e, ballot_type)), UtilityModel.SCORE
            )
            assert back.same_instance(e), ballot_type
            fuzzed += 1
    assert fuzzed == 100
    report(12, "4 bundled fixtures and 100 fuzzed files round-trip exactly")


def test_criterion_13_buyout_vs_add1u_runtime(reference_election,
                                              minority_election,
                                              tail_election, blocks_election):
    corpus = [reference_election, minority_election, tail_election,
              blocks_election]
    buyout_total = 0.0
    add1u_total = 0.0
    for e in corpus:
        start = time.perf_counter()
        run_rule("bos", e)
        buyout_total += time.perf_counter() - start
        start = time.perf_counter()
        run_rule("mes-add1u", e)
        add1u_total += time.perf_counter() - start
    assert buyout_total * 5 < add1u_total
    report(13, f"bos {buyout_total:.2f}s vs mes-add1u {add1u_total:.2f}s "
               f"over the fixture corpus")
