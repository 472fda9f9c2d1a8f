"""In-process storage engines standing in for the paper's DBMSs.

Four engines mirror the Polyphony testbed (Section VII-A):

* :mod:`repro.stores.relational` — MySQL stand-in: tables, schemas,
  primary keys, secondary indexes, and a real SQL subset (parser +
  executor).
* :mod:`repro.stores.document` — MongoDB stand-in: schemaless
  collections queried with Mongo-style filter documents.
* :mod:`repro.stores.graph` — Neo4j stand-in: a property graph with
  labels, relationship types and traversal queries.
* :mod:`repro.stores.keyvalue` — Redis stand-in: GET/SET/MGET/KEYS/SCAN.

All engines implement the minimal :class:`~repro.stores.base.Store`
contract QUEPA needs — run a native query, fetch one object by key,
fetch many objects by key, and dump / load / replay their own state —
while each also keeps its full native API, which is the whole point of
a polystore.
"""

from repro.stores.base import Store
from repro.stores.document.store import DocumentStore
from repro.stores.graph.store import GraphStore
from repro.stores.keyvalue.store import KeyValueStore
from repro.stores.relational.engine import RelationalStore

#: Engine family name -> class: the one table that says which engines
#: exist (``ENGINES[name].load_state(payload)`` rebuilds a store).
ENGINES: dict[str, type[Store]] = {
    cls.engine: cls
    for cls in (RelationalStore, DocumentStore, GraphStore, KeyValueStore)
}

__all__ = [
    "ENGINES",
    "DocumentStore",
    "GraphStore",
    "KeyValueStore",
    "RelationalStore",
    "Store",
]
