from __future__ import annotations

import numpy as np
import pytest

from direx import model, pef
from direx.data import (
    commissioning_counts,
    commissioning_distribution,
    design_counts,
    design_distribution,
)

PAPER_BETA = 4.7614e-8
PAPER_J_MID = 53_478
PAPER_K = 17


@pytest.fixture(scope="session")
def vertices() -> model.PolytopeVertexSet:
    return model.enumerate_extreme_points()


@pytest.fixture(scope="session")
def commissioning() -> dict:
    return {
        "counts": commissioning_counts(),
        "distribution": commissioning_distribution(),
    }


@pytest.fixture(scope="session")
def design() -> dict:
    return {"counts": design_counts(), "distribution": design_distribution()}


@pytest.fixture(scope="session")
def production_table(commissioning) -> pef.PefTable:
    """The k=17 table at the production power and middle anchor."""
    return pef.build_pef_table(
        commissioning["distribution"], PAPER_BETA, PAPER_K, j_mid=PAPER_J_MID
    )


@pytest.fixture(scope="session")
def small_table(commissioning) -> pef.PefTable:
    """A quick k=6 table used by simulation-heavy tests."""
    return pef.build_pef_table(
        commissioning["distribution"], 1e-6, 6, optimize_j_mid=True
    )


def random_polytope_point(
    rng: np.random.Generator, verts: model.PolytopeVertexSet
) -> model.ConditionalDistribution:
    lam = rng.dirichlet(np.ones(len(verts)) * rng.uniform(0.05, 2.0))
    return model.ConditionalDistribution((lam @ verts.vertices).reshape(4, 4))


def constant_pef(beta: float, q: float) -> pef.TrialPef:
    """The constant table ``F = 1``: a PEF for every model and power."""
    return pef.TrialPef.from_excess(np.zeros((4, 4)), beta, q)


def dense_trials(rec) -> list[tuple[int, int]]:
    """All trials of a block record as (settings, outcome) pairs, the
    implicit settings-00, outcome-00 trials included."""
    by_pos = dict(rec.events)
    out = [(0, by_pos.get(j, 0)) for j in range(1, rec.length)]
    out.append((rec.spot_settings, rec.spot_outcome))
    return out
