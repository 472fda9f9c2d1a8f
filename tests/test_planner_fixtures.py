"""Planner regression table: picks and cost orderings stay pinned.

tests/fixtures/planner/cases.json records, for a canonical bundle, which
strategy the planner must choose for each query, the full ascending
cost ordering of the admissible candidates and each candidate's raw
estimate. Everything in the stack is deterministic — generator, A'
index, analytic cost formulas — so any drift here is a real behaviour
change of the planner, not noise. After
an *intentional* cost-model change, regenerate the table by re-running
each case through ``FederatedEngine.candidates`` and reviewing the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.planner import FederatedEngine, LogicalQuery
from repro.workloads import PolystoreScale, QueryWorkload, build_polyphony

FIXTURE = Path(__file__).parent / "fixtures" / "planner" / "cases.json"

TABLE = json.loads(FIXTURE.read_text())
CASES = TABLE["cases"]


@pytest.fixture(scope="module")
def fixture_bundle():
    spec = TABLE["bundle"]
    return build_polyphony(
        stores=spec["stores"],
        scale=PolystoreScale(n_albums=spec["n_albums"]),
        seed=spec["seed"],
    )


def run_case(bundle, case):
    engine = FederatedEngine(
        bundle.polystore,
        bundle.aindex,
        memory_budget=case["memory_budget"],
    )
    query = QueryWorkload(bundle).query(
        case["database"], case["size"], variant=case["variant"]
    )
    targets = case["targets"]
    logical = LogicalQuery(
        database=query.database,
        query=query.query,
        level=case["level"],
        targets=tuple(targets) if targets else None,
    )
    return engine.candidates(logical)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_chosen_strategy_pinned(fixture_bundle, case):
    ranked, __ = run_case(fixture_bundle, case)
    assert ranked[0][1].strategy == case["chosen"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cost_ordering_pinned(fixture_bundle, case):
    ranked, rejected = run_case(fixture_bundle, case)
    assert [e.strategy for __, e in ranked] == case["cost_order"]
    assert sorted(r["strategy"] for r in rejected) == case["inadmissible"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_raw_estimates_pinned(fixture_bundle, case):
    """Every raw estimate equals the recorded float exactly: a change
    to the cost code that claims no change to any estimate is held to
    the last bit."""
    ranked, __ = run_case(fixture_bundle, case)
    assert {e.strategy: e.raw for __, e in ranked} == case["raw"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_estimates_strictly_ordered(fixture_bundle, case):
    """The recorded ordering reflects genuinely ascending totals."""
    ranked, __ = run_case(fixture_bundle, case)
    totals = [e.total for __, e in ranked]
    assert totals == sorted(totals)
    assert all(total > 0 for total in totals)


def test_table_covers_every_store_kind(fixture_bundle):
    """The mix exercises a seed query on all four engine kinds."""
    covered = {case["database"] for case in CASES}
    assert covered >= {"catalogue", "transactions", "similar", "discount"}


def test_table_has_an_inadmissible_case():
    assert any(case["inadmissible"] for case in CASES)
