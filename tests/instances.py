"""Random small-instance builders shared by property and acceptance tests."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from eqshares.model import Election, Project, UtilityModel, UtilityProfile


def random_approval_election(
    rng: random.Random, max_voters: int = 8, max_projects: int = 6
) -> Election:
    """Approval ballots audited under cost utilities."""
    n = rng.randint(1, max_voters)
    m = rng.randint(1, max_projects)
    budget = rng.randint(2, 30)
    projects = tuple(
        Project(c, f"p{c}", Fraction(rng.randint(1, budget))) for c in range(m)
    )
    rows = []
    for _ in range(n):
        rows.append({c: 1 for c in range(m) if rng.random() < 0.55})
    scores = UtilityProfile.from_rows(n, m, rows)
    return Election(projects, n, Fraction(budget), scores,
                    utility_model=UtilityModel.COST)


def random_cardinal_election(
    rng: random.Random, max_voters: int = 6, max_projects: int = 5
) -> Election:
    """General cardinal utilities under a randomly chosen utility model."""
    n = rng.randint(1, max_voters)
    m = rng.randint(1, max_projects)
    budget = rng.randint(4, 40)
    projects = tuple(
        Project(c, f"p{c}", Fraction(rng.randint(1, budget))) for c in range(m)
    )
    rows = []
    for _ in range(n):
        row = {}
        for c in range(m):
            if rng.random() < 0.6:
                row[c] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        rows.append(row)
    scores = UtilityProfile.from_rows(n, m, rows)
    model = UtilityModel.COST if rng.random() < 0.5 else UtilityModel.SCORE
    return Election(projects, n, Fraction(budget), scores, utility_model=model)


def pabulib_approval_election(
    seed: int, n_voters: int, n_projects: int
) -> Election:
    """A Pabulib-shaped approval election, drawn as the bench corpus draws
    one (log-normal costs around 80,000 in thousands, 1 to 10 approvals a
    voter weighted by log-normal popularity, a budget of 30% of the total
    cost) but from :mod:`random`, whose stream is stable across versions."""
    rng = random.Random(seed)
    popularity = [rng.lognormvariate(0.0, 1.0) for _ in range(n_projects)]
    costs = [
        1000 * min(900, max(5, round(rng.lognormvariate(math.log(80.0), 0.9))))
        for _ in range(n_projects)
    ]
    rows = []
    for _ in range(n_voters):
        length = 1 + sum(rng.random() < 0.35 for _ in range(9))
        # Efraimidis-Spirakis keys: weighted sampling without replacement.
        keys = [math.log(1.0 - rng.random()) / w for w in popularity]
        ranked = sorted(range(n_projects), key=keys.__getitem__, reverse=True)
        rows.append(dict.fromkeys(ranked[:length], 1))
    projects = tuple(
        Project(c, str(101 + c), Fraction(cost)) for c, cost in enumerate(costs)
    )
    budget = max(max(costs), sum(costs) * 3 // 10 // 1000 * 1000)
    scores = UtilityProfile.from_rows(n_voters, n_projects, rows)
    return Election(projects, n_voters, Fraction(budget), scores)
