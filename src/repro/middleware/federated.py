"""Apache Metamodel-like federated middleware (META-NAT / META-AUG).

Metamodel exposes heterogeneous stores behind one query interface. The
paper implements the augmentation task on it in two ways:

* **native** (META-NAT) — with Metamodel's own operators, i.e. joins:
  the middleware pulls the candidate collections of every other
  supported store into its own memory and hash-joins them against the
  local answer on the linking attributes. Without an A' index this is
  the only way to find related objects; memory grows with the polystore
  and big runs go out of memory, exactly the red-X behaviour of Fig 13.
* **augmented** (META-AUG) — re-implementing QUEPA's algorithm through
  the middleware interface: fetch each related key individually, paying
  the interface-translation overhead on every call, with no batching or
  threading (Metamodel's connectors are synchronous). Scales linearly,
  like QUEPA, but with a constant-factor penalty.

Redis is not supported (``supported_engines``), as in the paper.
"""

from __future__ import annotations

from repro.core.augmentation import Augmentation
from repro.core.search import result_seeds
from repro.middleware.base import MiddlewareSystem
from repro.network.executor import ExecContext
from repro.workloads.queries import WorkloadQuery

#: Interface-translation multiplier on per-call overhead (META-AUG).
TRANSLATION_OVERHEAD = 2.5
#: Middleware CPU to deserialize/convert one pulled object (META-NAT).
CONVERT_CPU_PER_OBJECT = 0.0004
#: Middleware CPU per hash-join probe (META-NAT).
PROBE_CPU = 0.00002


class FederatedMiddleware(MiddlewareSystem):
    """META: common-interface federation over SQL/document/graph.

    Inside the cross-store planner this architecture competes as the
    ``collect_join`` strategy (:class:`repro.planner.plans.CollectJoinPlan`),
    built from the same scan/convert/probe cost constants above.
    """

    #: Planner strategy this emulator's architecture is exposed as.
    PLAN_STRATEGY = "collect_join"

    supported_engines = frozenset({"relational", "document", "graph"})

    def __init__(self, *args, mode: str = "augmented", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if mode not in ("native", "augmented"):
            raise ValueError(f"mode must be 'native' or 'augmented', got {mode!r}")
        self.mode = mode
        self.name = "META-NAT" if mode == "native" else "META-AUG"
        self._augmentation = Augmentation(self.bundle.aindex)

    def _execute(self, ctx: ExecContext, query: WorkloadQuery, level: int) -> int:
        if query.engine not in self.supported_engines:
            raise ValueError(
                f"{self.name} cannot connect to {query.engine} stores"
            )
        originals = self.run_local_query(ctx, query)
        if self.mode == "native":
            return self._run_native(ctx, originals, level)
        return self._run_augmented(ctx, originals, level)

    # -- META-NAT: cross-store hash joins ---------------------------------------

    def _run_native(self, ctx: ExecContext, originals, level: int) -> int:
        """Join the local answer against every other supported store.

        Each augmentation level is one more join round: round ``r``
        joins the frontier against all remote collections, pulling each
        collection into middleware memory (footprint-checked) and
        paying join CPU proportional to candidates x frontier.
        """
        footprint = len(originals)
        self.check_memory(footprint)
        frontier = len(originals)
        answer = len(originals)
        rounds = level + 1
        remote = list(self.supported_databases())
        for __ in range(rounds):
            for database, __kind in remote:
                store = self.bundle.polystore.database(database)
                for collection in store.collections():
                    keys = self.scan_collection(ctx, database, collection)
                    # Pulled rows plus the hash-join build table over
                    # them: the middleware holds both.
                    footprint += 2 * len(keys)
                    self.check_memory(footprint)
                    # Build side: deserialize every pulled object into
                    # the middleware's row model; probe side: one probe
                    # per frontier row.
                    ctx.cpu(CONVERT_CPU_PER_OBJECT * len(keys))
                    ctx.cpu(PROBE_CPU * frontier)
            # Matches found by the value joins equal what the A' index
            # records (both reflect the same ground truth); the joined
            # intermediate result is materialized in middleware memory.
            matched_total = self._index_matches(frontier)
            footprint += matched_total
            self.check_memory(footprint)
            ctx.cpu(CONVERT_CPU_PER_OBJECT * matched_total)
            answer += matched_total
            frontier = matched_total
        return answer

    def _index_matches(self, frontier: int) -> int:
        """Expected join fan-out per round (the ground-truth density)."""
        # Every entity is present once per store holding it, plus two
        # matching links; the join discovers the same related objects
        # the A' index records.
        per_object = max(1, len(self.bundle.databases) - 1)
        return frontier * per_object

    # -- META-AUG: QUEPA's algorithm through the interface -------------------------

    def _run_augmented(self, ctx: ExecContext, originals, level: int) -> int:
        seeds = result_seeds(originals)
        plan = self._augmentation.plan(seeds, level)
        ctx.cpu(plan.edges_examined * ctx.cost_model.aindex_edge_cost)
        kinds = dict(self.bundle.databases)
        fetched: set = set()
        for key in plan.keys:
            if kinds.get(key.database) not in self.supported_engines:
                continue  # Redis objects are unreachable through META
            store = self.bundle.polystore.database(key.database)
            # Interface translation overhead on every single-object call
            # (no cache in the middleware: duplicates are refetched).
            ctx.cpu(ctx.cost_model.per_query_overhead * (TRANSLATION_OVERHEAD - 1.0))
            results = ctx.store_call(
                key.database,
                lambda key=key, store=store: store.multi_get([key]),
            )
            fetched.update(obj.key for obj in results)
        return len(originals) + len(fetched)
