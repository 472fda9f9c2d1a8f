"""Multi-session serving: scheduler, server front end, load generator.

The serving layer lets many concurrent sessions share one
:class:`~repro.core.system.Quepa` instance safely::

    from repro.serving import QuepaServer, ServingConfig

    with QuepaServer(quepa, ServingConfig(workers=8)) as server:
        answer = server.search("alice", "mysql", "SELECT ...", level=1)

See docs/SERVING.md for the scheduler design, the admission and
backpressure knobs, the metrics it publishes and the load generator.
"""

from repro.serving.coalesce import SingleFlight
from repro.serving.loadgen import (
    ClientReport,
    LoadGenerator,
    LoadReport,
    PlannedRequest,
)
from repro.serving.server import (
    QuepaServer,
    Request,
    Scheduler,
    ServingConfig,
    Ticket,
)

__all__ = [
    "ClientReport",
    "LoadGenerator",
    "LoadReport",
    "PlannedRequest",
    "QuepaServer",
    "Request",
    "Scheduler",
    "ServingConfig",
    "SingleFlight",
    "Ticket",
]
