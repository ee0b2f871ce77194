"""Ballot-file parsing, conversion, and serialization tests."""

from __future__ import annotations

import random
import re
import tempfile
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqshares.model import Election, Project, UtilityModel, UtilityProfile
from eqshares.pabulib import (
    BallotType,
    PbFile,
    PbParseError,
    PbProject,
    PbVote,
    PbWriteError,
    _ASCII_STRIPPED,
    _decimal_str,
    _parse_decimal,
    ballots_to_utilities,
    load_election,
    parse_pb,
    write_pb,
)
from oracles import naive_read_pb
from test_acceptance import fuzzed_election
from test_model import assert_profile_of_products

MINIMAL = """META
key;value
budget;10
vote_type;approval
PROJECTS
project_id;cost
p1;5
p2;10
VOTES
voter_id;vote
v1;p1,p2
"""


def build(
    meta="budget;10\nvote_type;approval",
    projects="p1;5\np2;10",
    votes="v1;p1,p2",
    vote_header="voter_id;vote",
):
    return (
        "META\nkey;value\n"
        + meta
        + "\nPROJECTS\nproject_id;cost\n"
        + projects
        + "\nVOTES\n"
        + vote_header
        + "\n"
        + votes
        + "\n"
    )


def load_text(text: str, model: UtilityModel = UtilityModel.COST) -> Election:
    """``load_election`` of ``text`` written to a file as it is."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "election.pb"
        path.write_text(text, encoding="utf-8", newline="")
        return load_election(str(path), model)


def error_for(text: str) -> PbParseError:
    """The fault ``parse_pb`` reports for ``text``, which ``load_election``
    of the same text in a file must report too, with the same type, line
    and message, and without a warning."""
    with pytest.raises(PbParseError) as info:
        parse_pb(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(PbParseError) as loaded:
            load_text(text)
    assert type(loaded.value) is type(info.value)
    assert (loaded.value.line, loaded.value.message) == (
        info.value.line, info.value.message
    )
    assert caught == []
    return info.value


class TestParse:
    def test_minimal_approval_file(self):
        pb = parse_pb(MINIMAL)
        assert pb.budget == 10
        assert pb.ballot_type is BallotType.APPROVAL
        assert [p.id for p in pb.projects] == ["p1", "p2"]
        assert pb.projects[1].cost == 10
        assert pb.votes == (pb.votes[0],)
        assert pb.votes[0].voter_id == "v1"
        assert pb.votes[0].vote == ("p1", "p2")
        assert pb.votes[0].points is None

    def test_crlf_and_blank_lines_accepted(self):
        text = MINIMAL.replace("\n", "\r\n") + "\r\n\r\n"
        assert parse_pb(text).budget == 10

    def test_extra_project_columns_kept(self):
        text = build(projects="p1;5;parks\np2;10;roads").replace(
            "project_id;cost", "project_id;cost;category"
        )
        pb = parse_pb(text)
        assert pb.projects[0].extra == {"category": "parks"}

    def test_empty_vote_cell(self):
        pb = parse_pb(build(votes="v1;"))
        assert pb.votes[0].vote == ()

    def test_no_votes_at_all(self):
        text = build(votes="").rstrip("\n") + "\n"
        text = text.replace("voter_id;vote\n\n", "voter_id;vote\n")
        assert parse_pb(text).votes == ()

    def test_error_string_carries_line_number(self):
        err = error_for(build(meta="budget;10;extra\nvote_type;approval"))
        assert err.line == 3
        assert str(err) == "line 3: " + err.message


class TestParseErrors:
    def test_unexpected_end_of_file(self):
        text = "META\nkey;value\nbudget;10\nvote_type;approval\n"
        err = error_for(text)
        assert err.line == 5
        assert "end of file" in err.message

    def test_sections_out_of_order(self):
        text = MINIMAL.replace("META\nkey;value\n", "")
        err = error_for(text)
        assert err.line == 1
        assert "expected META" in err.message

    def test_missing_required_header_column(self):
        err = error_for(build().replace("voter_id;vote", "voter_id"))
        assert err.line == 10
        assert "'vote'" in err.message

    def test_duplicate_header_column(self):
        err = error_for(
            build().replace("project_id;cost", "project_id;cost;cost")
        )
        assert err.line == 6
        assert "duplicate column" in err.message

    def test_projects_header_starts_with_project_id(self):
        err = error_for(
            build().replace("project_id;cost", "cost;project_id")
        )
        assert err.line == 6
        assert "must start with 'project_id'" in err.message

    def test_meta_header_is_key_and_value_only(self):
        err = error_for(build().replace("key;value", "key;value;extra"))
        assert err.line == 2
        assert "META header must be 'key;value'" in err.message

    def test_meta_rows_need_two_fields(self):
        assert error_for(build(meta="budget;10;x\nvote_type;approval")).line == 3

    def test_duplicate_meta_key(self):
        err = error_for(
            build(meta="budget;10\nbudget;20\nvote_type;approval")
        )
        assert err.line == 4

    def test_missing_budget(self):
        err = error_for(build(meta="vote_type;approval"))
        assert "'budget'" in err.message
        assert err.line == 4  # the PROJECTS line, where META provably ended

    def test_missing_vote_type(self):
        assert "'vote_type'" in error_for(build(meta="budget;10")).message

    def test_non_numeric_budget(self):
        err = error_for(build(meta="budget;lots\nvote_type;approval"))
        assert err.line == 3
        assert "non-numeric budget" in err.message

    def test_non_positive_budget(self):
        err = error_for(build(meta="budget;0\nvote_type;approval"))
        assert err.line == 3
        assert "positive" in err.message

    def test_unknown_vote_type(self):
        err = error_for(build(meta="budget;10\nvote_type;plurality"))
        assert err.line == 4
        assert "plurality" in err.message

    def test_project_field_count_mismatch(self):
        err = error_for(build(projects="p1;5\np2"))
        assert err.line == 8
        assert "expected 2 fields, got 1" in err.message

    def test_empty_project_id(self):
        assert error_for(build(projects=";5\np2;10")).line == 7

    def test_duplicate_project_id(self):
        err = error_for(build(projects="p1;5\np1;10"))
        assert err.line == 8

    def test_non_numeric_cost(self):
        err = error_for(build(projects="p1;cheap\np2;10"))
        assert err.line == 7
        assert "non-numeric cost" in err.message

    def test_empty_voter_id(self):
        assert error_for(build(votes=";p1")).line == 11

    def test_duplicate_voter_id(self):
        err = error_for(build(votes="v1;p1\nv1;p2"))
        assert err.line == 12

    def test_duplicate_project_in_vote(self):
        err = error_for(build(votes="v1;p1,p1"))
        assert err.line == 11
        assert "duplicate project in vote" in err.message

    def test_unknown_project_reference(self):
        err = error_for(build(votes="v1;p9"))
        assert err.line == 11
        assert "p9" in err.message

    def test_points_column_required_for_scoring(self):
        err = error_for(build(meta="budget;10\nvote_type;scoring"))
        assert err.line == 10
        assert "points column" in err.message

    def test_missing_points_for_vote(self):
        err = error_for(
            build(
                meta="budget;10\nvote_type;scoring",
                vote_header="voter_id;vote;points",
                votes="v1;p1;",
            )
        )
        assert err.line == 11
        assert "missing points" in err.message

    def test_non_numeric_points(self):
        err = error_for(
            build(
                meta="budget;10\nvote_type;scoring",
                vote_header="voter_id;vote;points",
                votes="v1;p1;much",
            )
        )
        assert err.line == 11
        assert "non-numeric points" in err.message

    def test_points_length_mismatch(self):
        err = error_for(
            build(
                meta="budget;10\nvote_type;cumulative",
                vote_header="voter_id;vote;points",
                votes="v1;p1,p2;7",
            )
        )
        assert err.line == 11
        assert "1 entries for 2 vote entries" in err.message


class TestBallotTypeParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("approval", BallotType.APPROVAL),
            (" Choose-1 ", BallotType.CHOOSE1),
            ("CUMULATIVE", BallotType.CUMULATIVE),
            ("choose_1", BallotType.CHOOSE1),
            ("Scoring", BallotType.SCORING),
            ("ordinal", BallotType.ORDINAL),
        ],
    )
    def test_normalization(self, text, expected):
        assert BallotType.parse(text) is expected

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            BallotType.parse("plurality")


class TestBallotsToUtilities:
    def test_minimal_approval(self):
        e = ballots_to_utilities(parse_pb(MINIMAL), UtilityModel.COST)
        assert e.n_voters == 1
        assert len(e.projects) == 2
        assert e.scores.support_set(0) == {0: 1, 1: 1}
        assert e.utilities.support_set(0) == {0: 5, 1: 10}
        assert e.metadata["pb_voter_ids"] == "v1"

    def test_ordinal_borda_weights(self):
        text = build(
            meta="budget;10\nvote_type;ordinal",
            projects="A;1\nB;1\nC;1",
            votes="v1;B,A,C",
        )
        e = ballots_to_utilities(parse_pb(text), UtilityModel.SCORE)
        by_name = {p.name: p.id for p in e.projects}
        row = e.scores.support_set(0)
        assert row[by_name["B"]] == 3
        assert row[by_name["A"]] == 2
        assert row[by_name["C"]] == 1

    def test_borda_weights_fixed_before_drops(self):
        # The over-budget first choice keeps its rank slot, so the weights
        # of the surviving projects do not shift up.
        text = build(
            meta="budget;10\nvote_type;ordinal",
            projects="X;99\nA;1\nB;1",
            votes="v1;X,A,B",
        )
        with pytest.warns(UserWarning, match="X"):
            e = ballots_to_utilities(parse_pb(text), UtilityModel.SCORE)
        by_name = {p.name: p.id for p in e.projects}
        row = e.scores.support_set(0)
        assert row[by_name["A"]] == 2
        assert row[by_name["B"]] == 1

    def test_cumulative_points_under_cost_model(self):
        text = build(
            meta="budget;200\nvote_type;cumulative",
            projects="A;100\nB;50",
            vote_header="voter_id;vote;points",
            votes="v1;A,B;7,3",
        )
        e = ballots_to_utilities(parse_pb(text), UtilityModel.COST)
        assert e.utilities.support_set(0) == {0: 700, 1: 150}

    def test_zero_points_drop_out_of_support(self):
        text = build(
            meta="budget;10\nvote_type;scoring",
            vote_header="voter_id;vote;points",
            votes="v1;p1,p2;0,5",
        )
        e = ballots_to_utilities(parse_pb(text), UtilityModel.SCORE)
        assert e.scores.support_set(0) == {1: 5}

    def test_negative_points_rejected(self):
        text = build(
            meta="budget;10\nvote_type;scoring",
            vote_header="voter_id;vote;points",
            votes="v1;p1;-1",
        )
        with pytest.raises(ValueError, match="negative points"):
            ballots_to_utilities(parse_pb(text), UtilityModel.SCORE)

    def test_scoring_ballot_without_points_rejected(self):
        # The parser always fills points for scoring files; a hand-built
        # file may not, and the check must survive ``python -O``.
        pb = PbFile(
            {"budget": "10", "vote_type": "scoring"},
            (PbProject("p1", F(5)),),
            (PbVote("v1", ("p1",), points=None),),
        )
        with pytest.raises(ValueError, match="'v1': scoring ballot has no points"):
            ballots_to_utilities(pb, UtilityModel.SCORE)

    def test_choose1_needs_exactly_one(self):
        text = build(meta="budget;10\nvote_type;choose1")
        with pytest.raises(ValueError, match="exactly one"):
            ballots_to_utilities(parse_pb(text), UtilityModel.SCORE)

    def test_choose1_single_pick(self):
        text = build(meta="budget;10\nvote_type;choose1", votes="v1;p2")
        e = ballots_to_utilities(parse_pb(text), UtilityModel.SCORE)
        assert e.scores.support_set(0) == {1: 1}

    def test_over_budget_projects_dropped_with_warning(self):
        text = build(projects="p1;5\np2;10\nbig;11\nhuge;50",
                     votes="v1;p1,big,huge")
        with pytest.warns(UserWarning, match="big, huge"):
            e = ballots_to_utilities(parse_pb(text), UtilityModel.COST)
        assert [p.name for p in e.projects] == ["p1", "p2"]
        assert e.scores.support_set(0) == {0: 1}

    def test_empty_votes_produce_empty_rows(self):
        e = ballots_to_utilities(parse_pb(build(votes="v1;\nv2;p1")),
                                 UtilityModel.COST)
        assert e.n_voters == 2
        assert not e.scores.support_set(0)


class TestWrite:
    def test_minimal_output_layout(self):
        e = ballots_to_utilities(parse_pb(MINIMAL), UtilityModel.COST)
        text = write_pb(e, BallotType.APPROVAL)
        assert text.splitlines()[:4] == [
            "META",
            "key;value",
            "budget;10",
            "vote_type;approval",
        ]
        assert text.endswith("v1;p1,p2\n")
        assert "num_projects;2" in text
        assert "num_votes;1" in text

    def test_voter_ids_reused_when_consistent(self):
        e = ballots_to_utilities(parse_pb(build(votes="alice;p1\nbob;p2")),
                                 UtilityModel.COST)
        assert "alice;p1" in write_pb(e, BallotType.APPROVAL)

    def test_voter_ids_regenerated_on_mismatch(self):
        e = ballots_to_utilities(parse_pb(MINIMAL), UtilityModel.COST)
        bad = dict(e.metadata)
        bad["pb_voter_ids"] = "a,b,c"
        e = Election(e.projects, e.n_voters, e.budget, e.scores,
                     e.utility_model, bad)
        assert "v1;p1,p2" in write_pb(e, BallotType.APPROVAL)

    def test_extra_metadata_preserved(self):
        text = build(
            meta="budget;10\nvote_type;approval\ndescription;small town"
        )
        e = ballots_to_utilities(parse_pb(text), UtilityModel.COST)
        assert "description;small town" in write_pb(e, BallotType.APPROVAL)

    def test_decimal_costs(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        e = Election((Project(0, "a", F(5, 2)),), 1, F(10), prof)
        assert "a;2.5" in write_pb(e, BallotType.APPROVAL)

    def test_non_decimal_fraction_rejected(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        e = Election((Project(0, "a", F(1, 3)),), 1, F(10), prof)
        with pytest.raises(PbWriteError, match="decimal"):
            write_pb(e, BallotType.APPROVAL)

    def test_non_approval_scores_rejected(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 2}])
        e = Election((Project(0, "a", 1),), 1, F(10), prof)
        with pytest.raises(PbWriteError, match="non-approval"):
            write_pb(e, BallotType.APPROVAL)

    def test_choose1_rejects_multiple_approvals(self):
        e = ballots_to_utilities(parse_pb(MINIMAL), UtilityModel.COST)
        with pytest.raises(PbWriteError, match="choose-1"):
            write_pb(e, BallotType.CHOOSE1)

    def test_ordinal_requires_staircase(self):
        prof = UtilityProfile.from_rows(1, 2, [{0: 1, 1: 1}])
        e = Election((Project(0, "a", 1), Project(1, "b", 1)), 1, F(10), prof)
        with pytest.raises(PbWriteError, match="ranking"):
            write_pb(e, BallotType.ORDINAL)

    def test_delimiter_in_project_name_rejected(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        e = Election((Project(0, "a;b", 1),), 1, F(10), prof)
        with pytest.raises(PbWriteError, match="delimiter"):
            write_pb(e, BallotType.APPROVAL)

    def test_delimiter_in_metadata_rejected(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        e = Election((Project(0, "a", 1),), 1, F(10), prof,
                     metadata={"note": "x;y"})
        with pytest.raises(PbWriteError, match="delimiter"):
            write_pb(e, BallotType.APPROVAL)

    def test_duplicate_project_names_rejected(self):
        prof = UtilityProfile.from_rows(1, 2, [{0: 1}])
        e = Election((Project(0, "a", 1), Project(1, "a", 1)), 1, F(10), prof)
        with pytest.raises(PbWriteError, match="unique"):
            write_pb(e, BallotType.APPROVAL)


class TestRoundTrips:
    def round_trip(self, text: str, ballot_type: BallotType) -> None:
        e = ballots_to_utilities(parse_pb(text), UtilityModel.SCORE)
        back = ballots_to_utilities(
            parse_pb(write_pb(e, ballot_type)), UtilityModel.SCORE
        )
        assert back.same_instance(e)
        assert back.metadata["pb_voter_ids"] == e.metadata["pb_voter_ids"]

    def test_approval(self):
        self.round_trip(MINIMAL, BallotType.APPROVAL)

    def test_choose1(self):
        self.round_trip(
            build(meta="budget;10\nvote_type;choose1", votes="v1;p2\nv2;p1"),
            BallotType.CHOOSE1,
        )

    def test_ordinal(self):
        self.round_trip(
            build(
                meta="budget;10\nvote_type;ordinal",
                projects="A;1\nB;2\nC;3",
                votes="v1;B,A,C\nv2;C",
            ),
            BallotType.ORDINAL,
        )

    def test_cumulative(self):
        self.round_trip(
            build(
                meta="budget;10\nvote_type;cumulative",
                vote_header="voter_id;vote;points",
                votes="v1;p1,p2;7,3\nv2;p1;0.5",
            ),
            BallotType.CUMULATIVE,
        )

    def test_scoring(self):
        self.round_trip(
            build(
                meta="budget;10\nvote_type;scoring",
                vote_header="voter_id;vote;points",
                votes="v1;p1,p2;100,2",
            ),
            BallotType.SCORING,
        )

    def test_bundled_fixture(self, fixtures_dir):
        path = str(fixtures_dir / "reference.pb")
        e = load_election(path, UtilityModel.COST)
        ballot_type = BallotType.parse(e.metadata["vote_type"])
        back = ballots_to_utilities(
            parse_pb(write_pb(e, ballot_type)), UtilityModel.COST
        )
        assert back.same_instance(e)


class TestLoadElection:
    def test_loads_fixture_with_model(self, fixtures_dir):
        e = load_election(str(fixtures_dir / "minority.pb"), UtilityModel.COST)
        assert e.n_voters == 414
        assert e.utility_model is UtilityModel.COST
        assert next(p for p in e.projects if p.name == "B").cost == 6000

    def test_utf8_byte_order_mark_accepted(self, fixtures_dir, tmp_path):
        source = fixtures_dir / "reference.pb"
        marked = tmp_path / "reference.pb"
        marked.write_text(source.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        plain = load_election(str(source), UtilityModel.COST)
        e = load_election(str(marked), UtilityModel.COST)
        assert e.same_instance(plain)
        assert e.metadata == plain.metadata

    def test_byte_order_mark_only_at_the_start(self):
        assert parse_pb("\ufeff" + MINIMAL) == parse_pb(MINIMAL)
        err = error_for(MINIMAL.replace("PROJECTS", "\ufeffPROJECTS"))
        assert err.line == 5


class TestQuotedCells:
    """What real Pabulib files hold: cells quoted as ``csv`` quotes them."""

    def test_quoted_project_id_holding_semicolon(self):
        pb = parse_pb(build(projects='"p;1";5\np2;10', votes='v1;"p;1,p2"'))
        assert [p.id for p in pb.projects] == ["p;1", "p2"]
        assert pb.votes[0].vote == ("p;1", "p2")

    def test_quoted_vote_list(self):
        pb = parse_pb(build(votes='v1;"p1,p2"\nv2;"p2"'))
        assert [v.vote for v in pb.votes] == [("p1", "p2"), ("p2",)]
        assert parse_pb(build(votes='v1;"p1,p2"')) == parse_pb(MINIMAL)

    def test_extra_vote_columns(self):
        pb = parse_pb(build(vote_header="voter_id;vote;age;sex",
                            votes="v1;p1,p2;34;F\nv2;p2;;"))
        assert [v.vote for v in pb.votes] == [("p1", "p2"), ("p2",)]
        assert pb.votes[0].points is None

    @pytest.mark.parametrize("field", ["projects", "votes"])
    def test_line_of_only_semicolon_is_an_error(self, field):
        rows = {"projects": "p1;5\n;\np2;10", "votes": "v1;p1\n;\nv2;p2"}
        err = error_for(build(**{field: rows[field]}))
        assert err.line == {"projects": 8, "votes": 12}[field]
        assert "empty" in err.message

    def test_quoted_cell_spanning_lines(self):
        text = build(projects='p1;5;"Park\nand pond"\np2;10;roads',
                     votes="v1;p1\nv1;p2").replace(
            "project_id;cost", "project_id;cost;name")
        err = error_for(text)
        assert err.line == 13
        assert "duplicate voter id" in err.message
        pb = parse_pb(text.replace("v1;p2", "v2;p2"))
        assert pb.projects[0].extra == {"name": "Park\nand pond"}
        assert [v.voter_id for v in pb.votes] == ["v1", "v2"]

    def test_row_spanning_lines_is_numbered_by_its_last_line(self):
        text = build(projects='p1;cheap;"Park\nand pond"').replace(
            "project_id;cost", "project_id;cost;name")
        err = error_for(text)
        assert err.line == 8
        assert "non-numeric cost" in err.message

    def test_unclosed_quote_is_an_error(self):
        err = error_for(build(projects='p1;5\n"p2;10'))
        assert err.line == 11
        assert "expected 2 fields, got 1" in err.message
        err = error_for(build(votes='v1;p1\n"v2;p2') + "  \n")
        assert err.line == 13
        assert "expected 2 fields, got 1" in err.message
        err = error_for(build(projects='p1;5\n"p2;' + "x" * 200_000))
        assert err.line == 8
        assert "field larger than field limit" in err.message

    def test_quoted_whitespace_is_not_a_blank_line(self):
        err = error_for(build(votes='v1;p1\n" "'))
        assert err.line == 12
        assert "expected 2 fields, got 1" in err.message


def one_voter_election(names, metadata=None) -> Election:
    prof = UtilityProfile.from_rows(1, len(names), [{0: 1}])
    projects = tuple(Project(i, name, 1) for i, name in enumerate(names))
    return Election(projects, 1, F(10), prof, metadata=metadata or {})


CELL_TEXT = st.text(alphabet='ab;," \t\n\r\x85\u2028', max_size=4)


class TestWrittenCells:
    """Every cell write_pb writes reads back unchanged, or it refuses."""

    def test_voter_id_with_semicolon_rejected(self):
        e = one_voter_election(["p1"], {"pb_voter_ids": "a;b"})
        with pytest.raises(PbWriteError, match="voter id 'a;b'"):
            write_pb(e, BallotType.APPROVAL)

    def test_project_name_with_surrounding_space_rejected(self):
        with pytest.raises(PbWriteError, match="' p1'"):
            write_pb(one_voter_election([" p1"]), BallotType.APPROVAL)

    def test_empty_project_name_rejected(self):
        with pytest.raises(PbWriteError, match="project name ''"):
            write_pb(one_voter_election([""]), BallotType.APPROVAL)

    @pytest.mark.parametrize("metadata", [
        {"note": '"quoted" note'}, {'"note"': "x"}, {"note": "x\u2028y"},
    ])
    def test_metadata_that_would_read_back_changed_rejected(self, metadata):
        with pytest.raises(PbWriteError, match="metadata"):
            write_pb(one_voter_election(["p1"], metadata), BallotType.APPROVAL)

    def test_project_name_starting_with_quote_rejected(self):
        with pytest.raises(PbWriteError, match="project name"):
            write_pb(one_voter_election(['"p1"']), BallotType.APPROVAL)

    def test_inner_quotes_round_trip(self):
        e = one_voter_election(['a"b'], {"note": 'say "hi"'})
        back = ballots_to_utilities(
            parse_pb(write_pb(e, BallotType.APPROVAL)), UtilityModel.SCORE
        )
        assert [p.name for p in back.projects] == ['a"b']
        assert back.metadata["note"] == 'say "hi"'

    @given(
        st.lists(CELL_TEXT, min_size=1, max_size=3, unique=True),
        CELL_TEXT, CELL_TEXT, CELL_TEXT,
    )
    @settings(max_examples=200, deadline=None)
    def test_written_file_reads_back_or_write_refuses(
        self, names, voter_id, key, value
    ):
        metadata = {"pb_voter_ids": voter_id, key: value}
        e = one_voter_election(names, metadata)
        try:
            text = write_pb(e, BallotType.APPROVAL)
        except PbWriteError:
            return
        back = ballots_to_utilities(parse_pb(text), UtilityModel.SCORE)
        assert [p.name for p in back.projects] == names
        assert back.metadata["pb_voter_ids"] in (voter_id, "v1")
        assert back.metadata[key] == value


# The decimal grammar and value the reader has always had: this pattern
# after stripping, then the ``Fraction`` of the stripped text.
DECIMAL_PATTERN = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)$")


def reference_decimal(text: str):
    """The value of ``text`` as a decimal cell, or None if it is not one."""
    if not DECIMAL_PATTERN.match(text.strip()):
        return None
    return F(text.strip())


def parsed_decimal(text: str):
    try:
        value = _parse_decimal(text)
    except ValueError:
        return None
    assert type(value) is F
    return value


# ASCII digits, and decimal digits of other scripts (Arabic-Indic,
# Devanagari, fullwidth), which both ``\d`` and ``int`` read.
DIGITS = st.sampled_from("0123456789" + "٣٩०९０９")
SPACE = st.sampled_from(["", " ", "\t", "\n", " \r\n", " "])


@st.composite
def decimal_texts(draw):
    """Mostly well-formed decimals: a sign, leading zeros, whole and
    fraction digits (up to 30 of them) with either part missing."""
    whole = "".join(draw(st.lists(DIGITS, max_size=12)))
    frac = "".join(draw(st.lists(DIGITS, max_size=30)))
    point = draw(st.sampled_from(["", ".", "."]))
    return (draw(SPACE) + draw(st.sampled_from(["", "+", "-"])) + whole
            + point + frac + draw(SPACE))


class TestParseDecimal:
    """``_parse_decimal`` accepts and values text exactly as the decimal
    pattern plus ``Fraction`` of the stripped text do."""

    @pytest.mark.parametrize("text", [
        "0", "5", "-5", "+5", ".5", "5.", "-.5", "+5.", "007", "-007.0100",
        " 2.5 ", "\t-0\n", "0." + "9" * 30, "1" * 40 + "." + "0" * 29 + "1",
        "٣.٥", "１０",
    ])
    def test_accepted(self, text):
        assert parsed_decimal(text) == reference_decimal(text) is not None

    @pytest.mark.parametrize("text", [
        "1e5", "1E5", "1_0", ".", "+", "-", "", "  ", "+-1", "1.2.3", ". 5",
        "5 .5", "1/2", "inf", "nan", "0x10", "½", "⅕",
    ])
    def test_rejected(self, text):
        assert reference_decimal(text) is None
        with pytest.raises(ValueError, match="not a decimal number"):
            _parse_decimal(text)

    @given(decimal_texts())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_on_decimals(self, text):
        assert parsed_decimal(text) == reference_decimal(text)

    @given(st.text(alphabet="0123456789.+-_eE /٣½", max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_on_any_text(self, text):
        assert parsed_decimal(text) == reference_decimal(text)


# The pattern the reader matched before it parsed without a regex: a sign,
# then digits with an optional fraction part, or a fraction part alone; the
# whole and fraction digits are groups 2 and 3.
_DECIMAL_RE = re.compile(r"([+-]?)(?=\.?\d)(\d*)(?:\.(\d*))?")


def regex_decimal(text: str):
    """The value the regex reader gave ``text``, or None if it refused."""
    match = _DECIMAL_RE.fullmatch(text.strip())
    if match is None:
        return None
    sign, whole, frac = match.groups(default="")
    numerator = int(whole + frac)
    return F(-numerator if sign == "-" else numerator, 10 ** len(frac))


class TestRegexOracle:
    """``_parse_decimal`` accepts and values text exactly as the regex
    reader did. ``\\d`` is Unicode Nd, as ``str.isdecimal`` is: ``٣`` is a
    decimal digit and ``²`` is not, and ``_`` and ``e`` are what ``int``
    and ``float`` would take beyond the grammar."""

    @given(st.text(
        alphabet=st.sampled_from(
            ["+", "-", ".", " ", "\t", "\n", "\u3000", "٣", "²", "_", "e",
             *"0123456789"]
        ),
        max_size=10,
    ))
    @example("²")
    @example("1²")
    @example("-٣.٣")
    @example("1_0")
    @example("1e5")
    @example(" +.5\u3000")
    @example(".")
    @example("-")
    @example("5..")
    @settings(max_examples=1000, deadline=None)
    def test_matches_the_regex(self, text):
        value = regex_decimal(text)
        if value is None:
            with pytest.raises(ValueError, match="not a decimal number"):
                _parse_decimal(text)
        else:
            assert parsed_decimal(text) == value


def reference_decimal_str(value: F) -> str:
    """A rational's exact decimal string, with twos and fives counted one
    division at a time; PbWriteError when it has none."""
    denominator = value.denominator
    twos = fives = 0
    while denominator % 2 == 0:
        denominator //= 2
        twos += 1
    while denominator % 5 == 0:
        denominator //= 5
        fives += 1
    if denominator != 1:
        raise PbWriteError(f"{value} has no exact decimal representation")
    shift = max(twos, fives)
    scaled = value.numerator * 10**shift // value.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    if shift == 0:
        return sign + digits
    whole, frac = digits[:-shift], digits[-shift:].rstrip("0")
    return sign + whole + ("." + frac if frac else "")


def rendered(render, value):
    try:
        return render(value)
    except PbWriteError as exc:
        return ("error", str(exc))


class TestDecimalStr:
    """``_decimal_str`` writes the same text, or raises the same error, as
    counting twos and fives by repeated division."""

    @pytest.mark.parametrize("value", [
        F(0), F(7), F(-7), F(1, 2), F(-3, 8), F(1, 5**31), F(2, 5**32),
        F(1, 5**40), F(3, 2**70), F(1, 2**40 * 5**3), F(550868107, 10**9),
        F(1, 3), F(5, 6), F(1, 5**33 * 7), F(-1, 2**64 * 3),
    ])
    def test_cases(self, value):
        assert rendered(_decimal_str, value) == rendered(
            reference_decimal_str, value
        )

    @given(
        st.integers(-10**25, 10**25),
        st.integers(0, 70),
        st.integers(0, 40),
        st.sampled_from([1, 1, 1, 3, 7, 9, 11, 21, 625 * 3]),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_reference(self, numerator, twos, fives, odd):
        value = F(numerator, 2**twos * 5**fives * odd)
        text = rendered(_decimal_str, value)
        assert text == rendered(reference_decimal_str, value)
        if isinstance(text, str):
            assert _parse_decimal(text) == value


def assert_profile_as_validated(e: Election) -> None:
    """The profile equals the one ``from_rows`` builds of the same rows, and
    every entry is a positive ``Fraction``."""
    scores = e.scores
    assert scores == UtilityProfile.from_rows(
        scores.n_voters, scores.n_projects, scores.rows
    )
    for row in scores.rows:
        assert all(0 <= c < scores.n_projects for c in row)
        assert all(type(u) is F and u > 0 for u in row.values())


class TestBallotsToUtilitiesProfile:
    """``ballots_to_utilities`` builds its profile directly; it must be the
    profile ``from_rows`` validates, for every ballot type."""

    @pytest.mark.parametrize(
        "name", ["reference.pb", "minority.pb", "tail.pb", "blocks.pb"]
    )
    def test_fixtures(self, fixtures_dir, name):
        pb = parse_pb((fixtures_dir / name).read_text(encoding="utf-8"))
        assert_profile_as_validated(ballots_to_utilities(pb, UtilityModel.COST))

    def test_fuzzed_files_of_every_ballot_type(self):
        # The files of acceptance criterion 12, drawn in its order.
        rng = random.Random(97531)
        for ballot_type in BallotType:
            for _ in range(20):
                e = fuzzed_election(rng, ballot_type)
                pb = parse_pb(write_pb(e, ballot_type))
                back = ballots_to_utilities(pb, UtilityModel.SCORE)
                assert_profile_as_validated(back)
                assert back.scores == e.scores

    def test_hand_built_integer_points(self):
        pb = PbFile(
            meta={"budget": "10", "vote_type": "scoring"},
            projects=(PbProject("a", F(1)), PbProject("b", F(2))),
            votes=(PbVote("v1", ("a", "b"), (3, 0)),),
        )
        e = ballots_to_utilities(pb, UtilityModel.SCORE)
        assert e.scores.rows == ({0: F(3)},)
        assert_profile_as_validated(e)


class TestFirstFaultNamed:
    """Rows are checked in bulk, but a fault still names its first cause."""

    def test_first_unknown_project_named(self):
        err = error_for(build(votes="v1;p1,p8,p9"))
        assert err.line == 11
        assert err.message == "vote references unknown project 'p8'"

    def test_voter_row_faults_keep_their_messages(self):
        err = error_for(build(votes="v1;p1\nv2;p2;x"))
        assert (err.line, err.message) == (12, "expected 2 fields, got 3")
        err = error_for(build(votes="v1;p1\n;p2"))
        assert (err.line, err.message) == (12, "empty voter id")
        err = error_for(build(votes="v1;p1\nv1;p2"))
        assert (err.line, err.message) == (12, "duplicate voter id 'v1'")

    def test_first_non_approval_voter_named(self):
        prof = UtilityProfile.from_rows(3, 2, [{0: 1}, {0: 1, 1: 2}, {1: 3}])
        e = Election(
            (Project(0, "a", 1), Project(1, "b", 1)), 3, F(10), prof,
            metadata={"pb_voter_ids": "x,y,z"},
        )
        for ballot_type in (BallotType.APPROVAL, BallotType.CHOOSE1):
            with pytest.raises(PbWriteError) as info:
                write_pb(e, ballot_type)
            assert str(info.value) == "voter 'y' has non-approval scores"


def parse_and_convert(text: str, model: UtilityModel = UtilityModel.COST) -> Election:
    return ballots_to_utilities(parse_pb(text), model)


READERS = pytest.mark.parametrize(
    "read", [parse_and_convert, load_text], ids=["parse_pb", "load_election"]
)


@READERS
@pytest.mark.parametrize("meta, header, votes, preset", [
    ("vote_type;approval", "voter_id;vote", "v1;p1,p2\nv2;p2\nv3;", True),
    ("vote_type;choose1", "voter_id;vote", "v1;p2\nv2;p1", True),
    # Points of 1 are approval scores too, found by the walk.
    ("vote_type;cumulative", "voter_id;vote;points", "v1;p1,p2;1,1", False),
    ("vote_type;cumulative", "voter_id;vote;points", "v1;p1,p2;1,2", False),
], ids=["approval", "choose1", "points-of-one", "points"])
def test_approval_ballots_need_no_walk(read, meta, header, votes, preset):
    """On approval and choose-1 ballots every entry is the shared ONE, so
    the loaded profile's is_approval is set when it is built; it always
    equals the walk over the entries."""
    e = read(build(meta="budget;10\n" + meta, votes=votes, vote_header=header))
    scores = e.scores
    assert ("is_approval" in vars(scores)) == preset
    walked = UtilityProfile(scores.n_voters, scores.n_projects, scores.rows)
    assert scores.is_approval == walked.is_approval


class TestLoadFaults:
    """``load_election`` reports what parsing and then converting the same
    text reports: a parse fault wins over an earlier conversion fault, and
    a file that does not parse warns of no dropped project."""

    CHOOSE1 = build(
        meta="budget;10\nvote_type;choose1",
        projects="a;1\nb;1\nbig;99",
        votes="v1;a,b\nv2;zz",
    )
    SCORING = build(
        meta="budget;10\nvote_type;scoring",
        projects="a;1\nb;1\nbig;99",
        vote_header="voter_id;vote;points",
        votes="v1;a;-1\nv2;b;x",
    )

    @READERS
    @pytest.mark.parametrize("text, message", [
        (CHOOSE1, "vote references unknown project 'zz'"),
        (SCORING, "non-numeric points"),
    ], ids=["choose1", "negative-points"])
    def test_a_later_parse_fault_wins(self, read, text, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(PbParseError) as info:
                read(text)
        assert (info.value.line, info.value.message) == (13, message)
        assert caught == []

    @READERS
    @pytest.mark.parametrize("text, message", [
        (CHOOSE1.replace("v2;zz", "v2;a"),
         "voter 'v1': choose-1 ballot must list exactly one project, got 2"),
        (SCORING.replace("v2;b;x", "v2;b;-2"),
         "voter 'v1': negative points for 'a'"),
    ], ids=["choose1", "negative-points"])
    def test_a_conversion_fault_follows_the_warning(self, read, text, message):
        with pytest.warns(UserWarning, match="dropped 1 project.*: big"):
            with pytest.raises(ValueError) as info:
                read(text)
        assert type(info.value) is ValueError
        assert str(info.value) == message


NAMES = ("p1", "p2", "p3", "p4", "p5")
COSTS = ("1", "2.5", "0.25", "7", "60", "0", "-3")
POINTS = ("0", "1", "2.5", "3", "10")


# Whitespace beside a cell: tab, line tabulation, form feed, file and unit
# separators, next line, no-break space, line separator and ideographic
# space. Some end a line for ``str.splitlines``.
ODD_SPACES = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
              "\u2028", "\u3000")


@st.composite
def pb_texts(draw):
    """`.pb` text of any ballot type: projects over budget or of cost at
    most 0, blank lines, LF, CRLF or lone-CR line ends and a byte-order
    mark. Some files hold a conversion fault: a choose-1 ballot that does
    not list one project, or negative points.

    The VOTES rows are one of: plain (no whitespace but the line ends and
    no quote, so that cells are read as written); plain but for one
    ``ODD_SPACES`` character beside a voter id or cell, or on a line of its
    own; or spaced, with votes quoted or spaced and quoted cells holding a
    space or a line break."""
    ballot_type = draw(st.sampled_from(list(BallotType)))
    style = draw(st.sampled_from(["plain", "odd", "odd", "spaced"]))
    names = NAMES[: draw(st.integers(1, len(NAMES)))]
    costs = [draw(st.sampled_from(COSTS)) for _ in names]
    points = ballot_type in (BallotType.CUMULATIVE, BallotType.SCORING)
    lines = ["META", "key;value", "budget;50", f"vote_type;{ballot_type.value}",
             "PROJECTS", "project_id;cost",
             *(f"{name};{cost}" for name, cost in zip(names, costs)),
             "VOTES", "voter_id;vote;points" if points else "voter_id;vote"]
    votes_at = len(lines)
    for voter in range(draw(st.integers(1, 5))):
        vote = draw(st.permutations(names))
        if ballot_type is BallotType.CHOOSE1 and draw(st.integers(0, 9)):
            vote = vote[:1]
        else:
            vote = vote[: draw(st.integers(0, len(vote)))]
        cells = [f"v{voter}", ",".join(vote)]
        if style == "spaced":
            cells[1] = draw(st.sampled_from([",", " , "])).join(vote)
            quoted = draw(st.sampled_from([0, 1, 1, 2, 3]))
            at = draw(st.integers(0, 1))
            if quoted == 1:
                cells[1] = f'"{cells[1]}"'
            elif quoted == 2:
                cells[at] = f'" {cells[at]}"'
            elif quoted == 3:
                cells[at] = f'"{cells[at]}\n"'
        if points:
            scores = [draw(st.sampled_from(POINTS)) for _ in vote]
            if scores and not draw(st.integers(0, 9)):
                scores[-1] = "-1"
            cells.append(",".join(scores))
        lines.append(";".join(cells))
        if not draw(st.integers(0, 4)):
            lines.append("  " if style == "spaced" and draw(st.booleans()) else "")
    if style == "odd":
        row = draw(st.integers(votes_at, len(lines) - 1))
        line = lines[row]
        # Beside the voter id, beside the vote (most often after it, where
        # a line-ending space leaves the row's cells as they were), or on a
        # line of its own.
        first = line.find(";")
        after = line.find(";", first + 1)
        if after < 0:
            after = len(line)
        at = draw(st.sampled_from([0, first, first + 1, after, after, None]))
        space = draw(st.sampled_from(ODD_SPACES))
        if at is None:
            lines.insert(row, space)
        else:
            lines[row] = line[:at] + space + line[at:]
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + "\n"
    return ("\ufeff" if draw(st.booleans()) else "") + text


def outcome(read):
    """What ``read()`` gives: its result or the type and text of its fault,
    and the text of each warning it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read()
        except ValueError as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


class TestLoadMatchesParseAndConvert:
    @given(pb_texts(), st.sampled_from(list(UtilityModel)))
    @settings(max_examples=150, deadline=None)
    def test_same_election_or_fault(self, text, model):
        loaded, warned = outcome(lambda: load_text(text, model))
        expected, expected_warned = outcome(lambda: parse_and_convert(text, model))
        assert warned == expected_warned
        if not isinstance(expected, Election):
            assert loaded == expected
            return
        assert loaded.projects == expected.projects
        assert loaded.budget == expected.budget
        assert loaded.n_voters == expected.n_voters
        assert loaded.utility_model is expected.utility_model is model
        assert loaded.metadata == expected.metadata
        assert loaded.metadata["pb_voter_ids"] == ",".join(
            v.voter_id for v in parse_pb(text).votes
        )
        assert loaded.scores.rows == expected.scores.rows
        assert_profile_of_products(
            loaded.cost_utilities, loaded.scores,
            [p.cost for p in loaded.projects],
        )


class TestReadersMatchTheNaiveReader:
    """``load_election`` and ``parse_pb`` share one loop over the VOTES
    rows, which reads a section without whitespace or quotes as written.
    The naive reader shares no code with them: it strips every cell."""

    @given(pb_texts(), st.sampled_from(list(UtilityModel)))
    @settings(max_examples=300, deadline=None)
    @example(build(votes="v1;p1\xa0"), UtilityModel.COST)
    @example(build(votes="\xa0v1;p1,p2"), UtilityModel.COST)
    @example(build(votes="v1;p1\x1c"), UtilityModel.SCORE)
    @example(build(votes="v1;p2\nv2;p1\x1f"), UtilityModel.SCORE)
    @example(build(votes='v1;"p1,\np2"'), UtilityModel.COST)
    def test_same_voters_rows_warning_or_fault(self, text, model):
        expected = naive_read_pb(text)
        for read in (load_text, parse_and_convert):
            got, warned = outcome(lambda: read(text, model))
            assert warned == [w for w in [expected["warning"]] if w]
            if expected["fault"] is None:
                assert isinstance(got, Election), got
                assert got.metadata["pb_voter_ids"] == ",".join(
                    expected["voter_ids"]
                )
                assert got.scores.rows == tuple(expected["rows"])
                continue
            line, message = expected["fault"]
            if line is None:
                assert got == (ValueError, message)
            else:
                assert got == (PbParseError, f"line {line}: {message}")

    def test_the_strip_check_covers_ascii_whitespace_and_quotes(self):
        ascii_spaces = {chr(c) for c in range(128) if chr(c).isspace()}
        assert set(_ASCII_STRIPPED) == ascii_spaces - {"\r", "\n"} | {'"'}


@pytest.mark.parametrize("model", list(UtilityModel))
def test_a_spaced_copy_of_the_wide_fixture_loads_as_the_fixture(
    fixtures_dir, tmp_path, model
):
    path = fixtures_dir / "wide" / "approval-1000.pb"
    text = path.read_text(encoding="utf-8")
    votes = text.index("\nVOTES\n") + len("\nVOTES\n")
    spaced = tmp_path / path.name
    spaced.write_text(
        text[:votes] + text[votes:].replace(";", "; ").replace(",", ", "),
        encoding="utf-8",
    )
    got = load_election(str(spaced), model)
    want = load_election(str(path), model)
    assert got.projects == want.projects
    assert got.scores.rows == want.scores.rows
    assert got.metadata["pb_voter_ids"] == want.metadata["pb_voter_ids"]
    assert got.n_voters == 1000
