"""Seeded inputs for the benchmark workloads.

Every function here is deterministic in its seed: the same seed writes
byte-identical files. The elections are built with the package's own model
classes and written with ``eqshares.pabulib.write_pb`` (looked up on the
module at call time, so a tracer that wraps it sees the call); the record
archive is produced by the package's own ``batch`` command.

Pabulib-shaped approval files follow the shape of the public Pabulib data
(Faliszewski et al. 2023, "Participatory Budgeting: Data, Tools and
Analysis"): tens of projects with costs in thousands, a budget near a third
of the total cost, and ballots of one to ten approvals drawn with a skewed
project popularity.
"""
from __future__ import annotations

import hashlib
import shutil
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from eqshares import cli, pabulib
from eqshares.model import Election, Project, UtilityProfile

ONE = Fraction(1)

# approval-wide: the measured corpus and the archive aggregated with it.
WIDE_FILES = 2
WIDE_VOTERS = 20_000
WIDE_PROJECTS = 50
ARCHIVE_FILES = 40
ARCHIVE_VOTERS = (40, 160)
ARCHIVE_PROJECTS = (4, 40)
ARCHIVE_COPIES = 60
ARCHIVE_RULES = "utilitarian,mes"

FIXTURE_NAMES = ("blocks.pb", "minority.pb", "reference.pb", "tail.pb")


def approval_election(
    seed: Sequence[int], n_voters: int, n_projects: int, instance: str,
    profile_seed: Optional[Sequence[int]] = None,
) -> Election:
    """One Pabulib-shaped approval election, deterministic in its seeds.

    The projects' costs and popularity are drawn from ``profile_seed``
    (``seed`` if it is None), the ballots from ``seed``. Costs are log-normal
    around 80,000 and rounded to thousands. Each voter approves 1 to 10
    projects (mean about 4), sampled without replacement with probability
    weighted by the log-normal popularity (Efraimidis-Spirakis keys).
    """
    profile = np.random.default_rng(seed if profile_seed is None else profile_seed)
    popularity = profile.lognormal(0.0, 1.0, n_projects)
    costs = np.clip(
        np.round(profile.lognormal(np.log(80.0), 0.9, n_projects)), 5, 900
    ).astype(np.int64) * 1000
    rng = np.random.default_rng([*seed, 1 << 16])
    lengths = 1 + rng.binomial(9, 0.35, n_voters)
    keys = np.log(rng.random((n_voters, n_projects))) / popularity
    ranked = np.argsort(-keys, axis=1, kind="stable")
    rows = [
        {int(c): ONE for c in ranked[i, : lengths[i]]} for i in range(n_voters)
    ]
    budget = max(int(costs.max()), int(costs.sum()) * 3 // 10 // 1000 * 1000)
    projects = tuple(
        Project(c, str(101 + c), Fraction(int(costs[c])))
        for c in range(n_projects)
    )
    return Election(
        projects=projects,
        n_voters=n_voters,
        budget=Fraction(budget),
        scores=UtilityProfile.from_rows(n_voters, n_projects, rows),
        metadata={
            "description": f"synthetic Pabulib-shaped approval instance {instance}",
            "country": "Synthetic",
            "unit": "Synthetic",
            "instance": instance,
            "rule": "greedy",
            "min_length": "1",
            "max_length": "10",
        },
    )


def write_approval(path: Path, election: Election) -> None:
    path.write_text(
        pabulib.write_pb(election, pabulib.BallotType.APPROVAL), encoding="utf-8"
    )


def write_wide_corpus(out_dir: Path, seed: int) -> None:
    """The approval-wide files: WIDE_FILES elections of fixed size.

    The k-th file's projects are the same on every seed; only its ballots
    change with the seed. With 20,000 ballots, the rules then do about the
    same work on every seed, so the benchmark's times measure the program
    rather than how hard a seed's draw of costs happened to be.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(WIDE_FILES):
        stem = f"wide_s{seed}_{k}"
        election = approval_election(
            [seed, 0, k], WIDE_VOTERS, WIDE_PROJECTS, stem, profile_seed=[0, k]
        )
        write_approval(out_dir / f"{stem}.pb", election)


def write_archive_sources(out_dir: Path, seed: int) -> None:
    """Small approval files spanning every project-count bucket.

    As in ``write_wide_corpus``, sizes and projects are the same on every
    seed and the ballots change with it.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes = np.random.default_rng([2])
    for k in range(ARCHIVE_FILES):
        n_voters = int(sizes.integers(*ARCHIVE_VOTERS, endpoint=True))
        n_projects = int(sizes.integers(*ARCHIVE_PROJECTS, endpoint=True))
        stem = f"arch_s{seed}_{k:03d}"
        election = approval_election([seed, 1, k], n_voters, n_projects, stem,
                                     profile_seed=[1, k])
        write_approval(out_dir / f"{stem}.pb", election)


def write_archive(src_dir: Path, out_path: Path) -> None:
    """Batch the archive sources and repeat the records ARCHIVE_COPIES times.

    Every line is a record exactly as ``batch`` wrote it; the copies give
    the aggregation a record count of Pabulib-archive scale without running
    thousands of instances during set-up.
    """
    once = out_path.with_suffix(".once.jsonl")
    code = cli.main([
        "batch", str(src_dir), "--model", "cost", "--rules", ARCHIVE_RULES,
        "--parallelism", "1", "--out", str(once),
    ])
    if code != 0:
        raise RuntimeError(f"archive batch exited with code {code}")
    out_path.write_text(once.read_text(encoding="utf-8") * ARCHIVE_COPIES,
                        encoding="utf-8")
    once.unlink()


def copy_fixtures(fixtures_dir: Path, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in FIXTURE_NAMES:
        shutil.copyfile(fixtures_dir / name, out_dir / name)


def gen_spatial(out_dir: Path, seed: int) -> None:
    """One standard 150x150 spatial instance, through ``gen euclidean``."""
    code = cli.main([
        "gen", "euclidean", "--dist", "1", "--count", "1",
        "--seed", str(seed), "--out", str(out_dir),
    ])
    if code != 0:
        raise RuntimeError(f"gen euclidean exited with code {code}")


def corpus_sha256(*dirs: Path) -> str:
    """Digest of the names and bytes of every .pb file in the directories."""
    digest = hashlib.sha256()
    for directory in dirs:
        for path in sorted(directory.glob("*.pb")):
            digest.update(path.name.encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()
