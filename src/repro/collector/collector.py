"""The Collector pipeline: polystore in, populated A' index out.

Blocking (BLAST stand-in) proposes candidate pairs, pairwise matching
(Duke stand-in) scores them and emits p-relations, the local-dedup rule
prunes conflicting identities, and everything is inserted into the A'
index — where the Consistency Condition materializes the transitive
closure (Section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.collector.blocking import TokenBlocker
from repro.collector.matching import PairwiseMatcher
from repro.core.aindex import AIndex
from repro.errors import StoreUnavailableError
from repro.model.polystore import Polystore
from repro.model.prelations import PRelation


@dataclass
class CollectorSettings:
    """Knobs of the pipeline; defaults mirror the paper's calibration."""

    max_block_size: int = 50
    min_token_length: int = 3
    #: Keep collecting when a database is unreachable: its objects are
    #: skipped (and reported) instead of failing the whole run. The A'
    #: index stays correct — a skipped store just contributes no new
    #: p-relations until a later run picks it up.
    skip_unavailable: bool = True


@dataclass
class CollectorReport:
    """What one collector run did."""

    objects_scanned: int = 0
    candidate_pairs: int = 0
    relations_found: int = 0
    identities: int = 0
    matchings: int = 0
    relations: list[PRelation] = field(default_factory=list)
    #: Databases whose scan failed under ``skip_unavailable``.
    skipped_databases: tuple[str, ...] = ()
    #: Database -> reason for each skipped scan.
    errors: dict[str, str] = field(default_factory=dict)


class Collector:
    """Discovers p-relations across the polystore and stores them."""

    def __init__(
        self,
        matcher: PairwiseMatcher,
        settings: CollectorSettings | None = None,
    ) -> None:
        self.matcher = matcher
        self.settings = settings or CollectorSettings()
        self.blocker = TokenBlocker(
            max_block_size=self.settings.max_block_size,
            min_token_length=self.settings.min_token_length,
        )

    def collect(self, polystore: Polystore, aindex: AIndex) -> CollectorReport:
        """Run blocking + matching over ``polystore`` into ``aindex``."""
        report = CollectorReport()
        objects = []
        skipped: list[str] = []
        for database in polystore:
            # Chunked multi_get scan: one native batch per chunk rather
            # than one point lookup per object, same objects and order.
            try:
                for obj in polystore.database(database).scan_objects():
                    objects.append(obj)
            except StoreUnavailableError as exc:
                if not self.settings.skip_unavailable:
                    raise
                skipped.append(database)
                report.errors[database] = f"unavailable: {exc}"
        report.skipped_databases = tuple(skipped)
        report.objects_scanned = len(objects)

        pairs = list(self.blocker.candidate_pairs(objects))
        report.candidate_pairs = len(pairs)

        relations = self.matcher.match_pairs(pairs)
        report.relations = relations
        report.relations_found = len(relations)
        for relation in relations:
            if relation.type.value == "identity":
                report.identities += 1
            else:
                report.matchings += 1
            aindex.add(relation)
        return report
