"""Ablation: multi-instance scale-out (Section III-A).

"Since QUEPA does not store any data, it is easy to deploy multiple
instances of the system that can answer independent queries in
parallel." The ablation measures a batch of independent queries on
1/2/4/8 instances: the makespan must shrink near-linearly while the
per-query answers stay identical to a single instance's. The makespans
are virtual seconds, so they are pinned exactly.
"""

from __future__ import annotations

from repro.cluster import DispatchPolicy, QuepaCluster
from repro.core import Quepa
from repro.network import centralized_profile
from repro.workloads import QueryWorkload

from .conftest import QUERY_SIZES

#: The rows of the committed ``results/ablation_cluster_scaleout.txt``.
PINNED_MAKESPANS = {1: 8.947060, 2: 4.486480, 4: 2.243240, 8: 1.121620}


def test_ablation_cluster_scaleout(benchmark, bundle7, report):
    workload = QueryWorkload(bundle7)
    queries = [
        workload.query("transactions", QUERY_SIZES[0], variant=v)
        for v in range(16)
    ]

    def run():
        makespans = {}
        for instances in (1, 2, 4, 8):
            cluster = QuepaCluster(
                bundle7.polystore, bundle7.aindex,
                instances=instances,
                policy=DispatchPolicy.LEAST_LOADED,
            )
            for query in queries:
                cluster.submit(query.database, query.query)
            makespans[instances] = cluster.drain().makespan
        # Answer-equivalence against a standalone instance.
        solo = Quepa(
            bundle7.polystore, bundle7.aindex,
            profile=centralized_profile(bundle7.database_names()),
        )
        solo_answer = solo.augmented_search(
            queries[0].database, queries[0].query
        )
        cluster = QuepaCluster(bundle7.polystore, bundle7.aindex, instances=2)
        cluster_answer = cluster.submit(
            queries[0].database, queries[0].query
        ).answer
        same = {str(k) for k in solo_answer.augmented_keys()} == {
            str(k) for k in cluster_answer.augmented_keys()
        }
        return makespans, same

    makespans, same = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    report.section("makespan of 16 independent queries vs instances")
    for instances, makespan in makespans.items():
        report.row(instances=instances, makespan_s=makespan,
                   speedup=makespans[1] / makespan)

    assert same, "clustered answers must match a standalone instance"
    for instances, pinned in PINNED_MAKESPANS.items():
        assert abs(makespans[instances] - pinned) <= 1e-9, (
            f"{instances} instances: makespan {makespans[instances]!r} "
            f"moved from the committed {pinned}"
        )
    # Near-linear scale-out over the measured range.
    assert makespans[2] < makespans[1] / 1.7
    assert makespans[4] < makespans[1] / 3.0
    assert makespans[8] < makespans[1] / 4.0
    report.note("independent queries scale out across instances")
