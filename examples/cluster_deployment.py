"""Multi-instance QUEPA (Section III-A) with graceful degradation.

Run with:  python examples/cluster_deployment.py

Shows the two operational properties of QUEPA's architecture:

1. *scale-out* — QUEPA stores no data, so several instances (each with
   its own cache and runtime, all planning against one A' index)
   answer independent queries in parallel; the cluster's makespan for
   a query batch drops as instances are added.
2. *loose coupling under failure* — when one store of the polystore
   goes down, augmented queries keep answering from the remaining
   stores (``skip_unavailable``), reporting what was skipped.
"""

from repro.cluster import DispatchPolicy, QuepaCluster
from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.testing import DownStore
from repro.workloads import PolystoreScale, QueryWorkload, build_polyphony


def main() -> None:
    bundle = build_polyphony(stores=7, scale=PolystoreScale(n_albums=400))
    workload = QueryWorkload(bundle)
    queries = [
        workload.query("transactions", 100, variant=v) for v in range(8)
    ]

    print("=== 1. Scale-out: one batch of 8 independent queries ===")
    for instances in (1, 2, 4):
        cluster = QuepaCluster(
            bundle.polystore, bundle.aindex,
            instances=instances,
            policy=DispatchPolicy.LEAST_LOADED,
        )
        for query in queries:
            cluster.submit(query.database, query.query)
        report = cluster.drain()
        print(
            f"  {instances} instance(s): makespan "
            f"{report.makespan:7.3f}s virtual, per-instance load "
            f"{report.per_instance_counts()}"
        )

    print("\n=== 2. Graceful degradation when the catalogue is down ===")
    inner = bundle.polystore.detach("catalogue")
    bundle.polystore.attach("catalogue", DownStore(inner))
    quepa = Quepa(bundle.polystore, bundle.aindex)
    config = AugmentationConfig(
        augmenter="outer_batch", batch_size=64, threads_size=4,
        skip_unavailable=True,
    )
    query = workload.query("transactions", 20)
    answer = quepa.augmented_search(query.database, query.query,
                                    config=config)
    touched = sorted({k.database for k in answer.augmented_keys()})
    print(f"  answered with {len(answer.augmented)} augmented objects "
          f"from {touched}")
    print(f"  skipped (unavailable): {answer.stats.unavailable_databases}")

    # Restore the store: the polystore is loosely coupled, nothing to
    # rebuild — the next query sees the catalogue again.
    bundle.polystore.detach("catalogue")
    bundle.polystore.attach("catalogue", inner)
    answer = quepa.augmented_search(query.database, query.query,
                                    config=config)
    print(f"  after recovery: {answer.stats.unavailable_databases=} "
          f"{len(answer.augmented)} objects")


if __name__ == "__main__":
    main()
