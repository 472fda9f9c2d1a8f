"""Deployment, cost and execution model for the polystore testbed.

The paper's experiments run on real EC2 machines; here the same cost
structure (network roundtrips, per-query overhead, per-object service
time, CPU contention, thread spawn overhead) is modelled explicitly.

Two interchangeable execution backends drive the augmenters:

* :class:`~repro.network.executor.VirtualRuntime` — deterministic
  virtual time: store operations charge simulated durations, parallel
  work is placed with greedy list scheduling on a pool's worker slots
  and CPU contention is bounded by each machine's cores (Graham's
  bound). This is what the benchmark figures use.
* :class:`~repro.network.executor.RealRuntime` — real threads
  (``concurrent.futures``) with optional scaled-down real sleeps, used to
  check that every augmenter produces identical *answers* under genuine
  concurrency.
"""

from repro.network.executor import ExecContext, RealRuntime, Runtime, VirtualRuntime
from repro.network.latency import (
    CostModel,
    DeploymentProfile,
    Machine,
    StoreSite,
    centralized_profile,
    distributed_profile,
)

__all__ = [
    "CostModel",
    "DeploymentProfile",
    "ExecContext",
    "Machine",
    "RealRuntime",
    "Runtime",
    "StoreSite",
    "VirtualRuntime",
    "centralized_profile",
    "distributed_profile",
]
