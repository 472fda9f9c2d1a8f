"""A Neo4j-like property graph.

Nodes carry labels and property maps; relationships are typed, directed
and may carry properties. The native query API covers what the
similar-items workload needs: label/property match, neighbourhood
expansion, k-hop traversal, and shortest paths. Every node is a data
object whose collection is its primary label.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.errors import KeyNotFoundError, QueryError
from repro.model.objects import DataObject, GlobalKey
from repro.stores.base import Store


@dataclass
class Node:
    """A labelled node with a property map."""

    id: str
    labels: tuple[str, ...]
    properties: dict[str, Any] = field(default_factory=dict)

    @property
    def primary_label(self) -> str:
        return self.labels[0] if self.labels else "Node"

    def payload(self) -> dict[str, Any]:
        data = dict(self.properties)
        data["_id"] = self.id
        data["_labels"] = list(self.labels)
        return data


@dataclass
class Edge:
    """A directed, typed relationship."""

    id: str
    type: str
    start: str
    end: str
    properties: dict[str, Any] = field(default_factory=dict)

    def payload(self) -> dict[str, Any]:
        return {
            "type": self.type,
            "start": self.start,
            "end": self.end,
            "properties": dict(self.properties),
        }


class GraphStore(Store):
    """An in-memory property graph with adjacency indexes."""

    engine = "graph"

    def __init__(self) -> None:
        super().__init__()
        self._nodes: dict[str, Node] = {}
        self._edges: dict[str, Edge] = {}
        self._outgoing: dict[str, list[str]] = {}
        self._incoming: dict[str, list[str]] = {}
        self._by_label: dict[str, set[str]] = {}
        self._edge_counter = itertools.count(1)
        self._node_counter = itertools.count(1)

    # -- writes -----------------------------------------------------------------

    def create_node(
        self,
        labels: tuple[str, ...] | str,
        properties: Mapping[str, Any] | None = None,
        node_id: str | None = None,
    ) -> Node:
        if isinstance(labels, str):
            labels = (labels,)
        node_id = node_id or f"n{next(self._node_counter)}"
        if node_id in self._nodes:
            raise QueryError(f"node id {node_id!r} already exists")
        node = Node(node_id, tuple(labels), dict(properties or {}))
        self._nodes[node_id] = node
        self._outgoing[node_id] = []
        self._incoming[node_id] = []
        for label in labels:
            self._by_label.setdefault(label, set()).add(node_id)
        self.stats.writes += 1
        self._emit_change(
            "append", node.primary_label, node_id, node.payload()
        )
        return node

    def update_node(
        self,
        node_id: str,
        properties: Mapping[str, Any],
        replace: bool = False,
    ) -> Node:
        """SET properties on an existing node.

        With ``replace=False`` (the Cypher ``SET n.k = v`` shape) the
        given properties are merged into the current map; with
        ``replace=True`` (``SET n = {..}``) they replace it entirely —
        which is what WAL replay uses, since CDC captures post-state.
        Labels are immutable (they define the node's collection).
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise KeyNotFoundError(f"node {node_id!r}")
        if replace:
            node.properties = dict(properties)
        else:
            node.properties.update(properties)
        self.stats.writes += 1
        self._emit_change(
            "update", node.primary_label, node_id, node.payload()
        )
        return node

    def create_edge(
        self,
        start: str,
        rel_type: str,
        end: str,
        properties: Mapping[str, Any] | None = None,
    ) -> Edge:
        if start not in self._nodes:
            raise KeyNotFoundError(f"node {start!r}")
        if end not in self._nodes:
            raise KeyNotFoundError(f"node {end!r}")
        edge_id = f"e{next(self._edge_counter)}"
        edge = Edge(edge_id, rel_type, start, end, dict(properties or {}))
        self._edges[edge_id] = edge
        self._outgoing[start].append(edge_id)
        self._incoming[end].append(edge_id)
        self.stats.writes += 1
        # Edges are not data objects (no collection of their own); the
        # underscore collection marks the event as infrastructure so A'
        # maintenance skips it, while WAL replay still restores it.
        self._emit_change("append", "_edge", edge_id, edge.payload())
        return edge

    def delete_node(self, node_id: str) -> bool:
        node = self._nodes.pop(node_id, None)
        if node is None:
            return False
        for edge_id in list(self._outgoing.pop(node_id, ())):
            edge = self._edges.pop(edge_id, None)
            if edge:
                self._incoming.get(edge.end, []).remove(edge_id)
        for edge_id in list(self._incoming.pop(node_id, ())):
            edge = self._edges.pop(edge_id, None)
            if edge:
                self._outgoing.get(edge.start, []).remove(edge_id)
        for label in node.labels:
            self._by_label.get(label, set()).discard(node_id)
        self.stats.writes += 1
        self._emit_change("delete", node.primary_label, node_id)
        return True

    # -- reads ------------------------------------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyNotFoundError(f"node {node_id!r}") from None

    def match(
        self,
        label: str | None = None,
        properties: Mapping[str, Any] | None = None,
        limit: int | None = None,
    ) -> list[Node]:
        """MATCH (n:label {properties}) RETURN n."""
        self.stats.queries += 1
        if label is not None:
            candidate_ids: Iterator[str] = iter(sorted(self._by_label.get(label, ())))
        else:
            candidate_ids = iter(self._nodes)
        results: list[Node] = []
        for node_id in candidate_ids:
            if limit is not None and len(results) >= limit:
                break
            self.stats.rows_examined += 1
            node = self._nodes[node_id]
            if properties and any(
                node.properties.get(key) != value
                for key, value in properties.items()
            ):
                continue
            results.append(node)
        self.stats.objects_returned += len(results)
        return results

    def neighbors(
        self,
        node_id: str,
        rel_type: str | None = None,
        direction: str = "both",
    ) -> list[Node]:
        """Adjacent nodes, optionally filtered by relationship type."""
        if node_id not in self._nodes:
            raise KeyNotFoundError(f"node {node_id!r}")
        found: list[Node] = []
        seen: set[str] = set()
        if direction in ("out", "both"):
            for edge_id in self._outgoing[node_id]:
                edge = self._edges[edge_id]
                if rel_type is None or edge.type == rel_type:
                    if edge.end not in seen:
                        seen.add(edge.end)
                        found.append(self._nodes[edge.end])
        if direction in ("in", "both"):
            for edge_id in self._incoming[node_id]:
                edge = self._edges[edge_id]
                if rel_type is None or edge.type == rel_type:
                    if edge.start not in seen:
                        seen.add(edge.start)
                        found.append(self._nodes[edge.start])
        return found

    def traverse(
        self,
        start: str,
        depth: int,
        rel_type: str | None = None,
    ) -> list[Node]:
        """All nodes within ``depth`` hops of ``start`` (excluded)."""
        if start not in self._nodes:
            raise KeyNotFoundError(f"node {start!r}")
        visited = {start}
        frontier = deque([(start, 0)])
        found: list[Node] = []
        while frontier:
            node_id, level = frontier.popleft()
            if level >= depth:
                continue
            for neighbor in self.neighbors(node_id, rel_type, direction="out"):
                if neighbor.id not in visited:
                    visited.add(neighbor.id)
                    found.append(neighbor)
                    frontier.append((neighbor.id, level + 1))
        return found

    def shortest_path(self, start: str, end: str) -> list[str] | None:
        """Node ids along a shortest undirected path, or ``None``."""
        if start not in self._nodes or end not in self._nodes:
            raise KeyNotFoundError(f"node {start!r} or {end!r}")
        if start == end:
            return [start]
        parents: dict[str, str] = {start: start}
        frontier = deque([start])
        while frontier:
            node_id = frontier.popleft()
            for neighbor in self.neighbors(node_id, direction="both"):
                if neighbor.id in parents:
                    continue
                parents[neighbor.id] = node_id
                if neighbor.id == end:
                    path = [end]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                frontier.append(neighbor.id)
        return None

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return len(self._edges)

    # -- Store contract ------------------------------------------------------------

    def execute(self, query: Any) -> list[DataObject]:
        """Native query: Cypher text or a dict with an ``op`` key.

        Strings are parsed as the Cypher subset of
        :mod:`repro.stores.graph.cypher`; results are the nodes bound by
        the first bare-variable RETURN item (property-only returns yield
        derived ``_result`` rows, which are not augmentable). Dict form:

        ``{"op": "match", "label": ..., "properties": ..., "limit": ...}``
        ``{"op": "neighbors", "node": ..., "rel_type": ...}``
        ``{"op": "traverse", "node": ..., "depth": ..., "rel_type": ...}``
        """
        if isinstance(query, str):
            return self._execute_cypher(query)
        if not isinstance(query, Mapping) or "op" not in query:
            raise QueryError(f"unsupported graph query: {query!r}")
        op = query["op"]
        if op == "match":
            nodes = self.match(
                query.get("label"), query.get("properties"), query.get("limit")
            )
        elif op == "neighbors":
            self.stats.queries += 1
            nodes = self.neighbors(
                query["node"], query.get("rel_type"), query.get("direction", "both")
            )
            self.stats.objects_returned += len(nodes)
            self.stats.rows_examined += len(nodes)
        elif op == "traverse":
            self.stats.queries += 1
            nodes = self.traverse(
                query["node"], query.get("depth", 1), query.get("rel_type")
            )
            self.stats.objects_returned += len(nodes)
            self.stats.rows_examined += len(nodes)
        else:
            raise QueryError(f"unknown graph op {op!r}")
        return [self._to_object(node) for node in nodes]

    def _execute_cypher(self, text: str) -> list[DataObject]:
        from repro.stores.graph.cypher import execute_cypher

        self.stats.queries += 1
        result = execute_cypher(self, text)
        if result.nodes:
            objects = [self._to_object(node) for node in result.nodes]
        else:
            database = self.database_name or "graph"
            objects = [
                DataObject(GlobalKey(database, "_result", f"row{i}"), row)
                for i, row in enumerate(result.rows)
            ]
        self.stats.objects_returned += len(objects)
        return objects

    def scatter(self, query: Any, scheme: Any) -> tuple[list, Any]:
        """Every shard runs the query itself: the Cypher subset has no
        SKIP, so a shard's LIMIT bounds the answer's. Cypher answers
        across shards only a node pattern that returns its node: an edge
        is a join over a cut graph, property rows have no key."""
        targets, merge = super().scatter(query, scheme)
        if isinstance(query, str):
            from repro.stores.graph.cypher import parse_cypher

            parsed = parse_cypher(query)
            if parsed.edges or all(item.prop for item in parsed.items):
                raise QueryError(
                    "cypher across shards answers one node pattern that "
                    "returns its node"
                )
            merge = {"order": [
                f"{o.variable}.{o.prop}{'' if o.ascending else ' DESC'}"
                for o in parsed.order
            ], "limit": parsed.limit}
        elif isinstance(query, Mapping) and query.get("op") == "match":
            merge = {"order": ["_id"] * (query.get("label") is not None),
                     "limit": query.get("limit")}
        return targets, merge

    def merge(self, query: Any, results: list[list[DataObject]]) -> list[DataObject]:
        """Cypher and ``match`` re-run over the shards' nodes; the other
        ops, which walk edges, take the union."""
        if isinstance(query, str) or query.get("op") == "match":
            return self._rerun(query, results)
        return super().merge(query, results)

    def _explain_plan(self, query: Any) -> dict[str, Any]:
        """Access path for a graph query: label-index scan when the
        (first) node pattern has a label, adjacency probe for
        ``neighbors``, bounded BFS for ``traverse``, full node scan
        otherwise."""
        if isinstance(query, str):
            from repro.stores.graph.cypher import parse_cypher

            parsed = parse_cypher(query)
            label = parsed.nodes[0].label if parsed.nodes else None
            plan = self._match_plan(label)
            plan["hops"] = len(parsed.edges)
            if parsed.edges:
                # Each hop expands the frontier through adjacency lists.
                plan["estimated_cost"] = float(
                    plan["estimated_rows"]
                    + len(parsed.edges) * self.edge_count()
                )
            return plan
        if not isinstance(query, Mapping) or "op" not in query:
            raise QueryError(f"unsupported graph query: {query!r}")
        op = query["op"]
        if op == "match":
            return self._match_plan(query.get("label"))
        if op == "neighbors":
            node_id = query["node"]
            degree = len(self._outgoing.get(node_id, ())) + len(
                self._incoming.get(node_id, ())
            )
            return {
                "access_path": "adjacency_probe",
                "index": "adjacency",
                "estimated_rows": degree,
                "estimated_cost": float(degree),
            }
        if op == "traverse":
            # Upper bound: a BFS can touch every node and edge once.
            nodes, edges = self.node_count(), self.edge_count()
            return {
                "access_path": "bfs_traversal",
                "index": "adjacency",
                "depth": query.get("depth", 1),
                "estimated_rows": nodes,
                "estimated_cost": float(nodes + edges),
            }
        raise QueryError(f"unknown graph op {op!r}")

    def _match_plan(self, label: str | None) -> dict[str, Any]:
        if label is not None:
            examined = len(self._by_label.get(label, ()))
            return {
                "access_path": "label_index",
                "index": f"label:{label}",
                "estimated_rows": examined,
                "estimated_cost": float(examined),
            }
        return {
            "access_path": "node_scan",
            "index": None,
            "estimated_rows": self.node_count(),
            "estimated_cost": float(self.node_count()),
        }

    def cypher(self, text: str) -> list[dict[str, Any]]:
        """Run a Cypher-subset query and return plain value rows."""
        from repro.stores.graph.cypher import execute_cypher

        self.stats.queries += 1
        result = execute_cypher(self, text)
        self.stats.objects_returned += len(result.rows)
        return result.rows

    def get_value(self, collection: str, key: str) -> Any:
        node = self._nodes.get(key)
        if node is None or collection not in node.labels:
            raise KeyNotFoundError(f"{collection}.{key}")
        return node.payload()

    def multi_get(self, keys) -> list[DataObject]:  # type: ignore[override]
        """Batch fetch via one node-id lookup per unique key.

        Probes the node map directly (the engine's internal-id batch
        lookup), checking each node carries the requested label;
        duplicates fetch once and missing keys are dropped.
        """
        self.stats.multi_gets += 1
        found: list[DataObject] = []
        nodes = self._nodes
        for key in dict.fromkeys(keys):
            node = nodes.get(key.key)
            if node is None or key.collection not in node.labels:
                continue
            found.append(DataObject(key, node.payload()))
        self.stats.objects_returned += len(found)
        return found

    def collections(self) -> list[str]:
        return sorted(self._by_label)

    def collection_keys(self, collection: str) -> Iterator[str]:
        return iter(sorted(self._by_label.get(collection, ())))

    # -- state contract ----------------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        nodes = [
            {
                "id": node.id,
                "labels": list(node.labels),
                "properties": node.properties,
            }
            for node in sorted(self._nodes.values(), key=lambda n: n.id)
        ]
        edges = [
            edge.payload()
            for edge in sorted(self._edges.values(), key=lambda e: e.id)
        ]
        return {"nodes": nodes, "edges": edges}

    @classmethod
    def load_state(cls, payload: dict[str, Any]) -> "GraphStore":
        store = cls()
        for node in payload["nodes"]:
            store.create_node(
                tuple(node["labels"]), node["properties"], node_id=node["id"]
            )
        for edge in payload["edges"]:
            store.apply_change("append", "_edge", "", edge)
        return store

    def empty_like(self) -> "GraphStore":
        return GraphStore()

    def records(self) -> Iterator[tuple[str, str, Any]]:
        """Each node once, under its primary label; then every edge as
        an ``_edge`` record (what :meth:`create_edge` emits)."""
        for node in self._nodes.values():
            yield node.primary_label, node.id, node.payload()
        for edge in self._edges.values():
            yield "_edge", edge.id, edge.payload()

    def apply_change(
        self, op: str, collection: str, key: str, value: Any = None
    ) -> None:
        """Nodes upsert. An ``_edge`` append creates the edge, or raises
        :class:`KeyNotFoundError` when an endpoint is not here; edge ids
        are local, so re-applying one adds a parallel edge."""
        if collection == "_edge":
            if op == "append":
                self.create_edge(
                    value["start"],
                    value["type"],
                    value["end"],
                    value.get("properties"),
                )
        elif op == "delete":
            self.delete_node(key)
        else:
            payload = dict(value or {})
            labels = tuple(payload.pop("_labels", ()) or (collection,))
            payload.pop("_id", None)
            if key in self._nodes:
                self.update_node(key, payload, replace=True)
            else:
                self.create_node(labels, payload, node_id=key)

    def _to_object(self, node: Node) -> DataObject:
        return DataObject(
            GlobalKey(
                self.database_name or "graph", node.primary_label, node.id
            ),
            node.payload(),
        )
