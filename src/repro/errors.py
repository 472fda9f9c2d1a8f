"""Exception hierarchy for the QUEPA reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class. Sub-hierarchies mirror the main
subsystems: stores, query languages, the polystore model, the A' index,
augmentation, and the middleware baselines.
"""

from __future__ import annotations

import copy


class ReproError(Exception):
    """Base class for all errors raised by this package."""


def clone_exception(exc: BaseException) -> BaseException:
    """A fresh exception equivalent to ``exc``, safe to re-raise.

    Re-raising a *stored* exception object (a worker's failure handed to
    a waiting client, a coalesced flight's error shared by followers)
    mutates its ``__traceback__`` in place, so a second re-raise shows a
    stale, ever-growing traceback — and concurrent re-raises race on the
    same object. Cloning gives every raise site its own object while
    preserving the original's type, args, attributes and cause chain.

    Falls back to the original object if the exception resists copying
    (exotic ``__init__`` signatures); that keeps behaviour no worse than
    the pre-clone world.
    """
    try:
        clone = copy.copy(exc)
    except Exception:
        return exc
    if clone is exc or type(clone) is not type(exc):
        return exc
    # Carry the chain and the original frames: the clone raises with the
    # worker-side traceback attached, and propagation prepends the new
    # frames onto a fresh linked list without touching the original's.
    clone.__cause__ = exc.__cause__
    clone.__context__ = exc.__context__
    clone.__suppress_context__ = exc.__suppress_context__
    clone.__traceback__ = exc.__traceback__
    return clone


# --------------------------------------------------------------------------
# Model / polystore errors
# --------------------------------------------------------------------------


class ModelError(ReproError):
    """Errors in the polystore data model (PDM)."""


class InvalidGlobalKeyError(ModelError):
    """A global key string could not be parsed as ``db.collection.key``."""


class UnknownDatabaseError(ModelError):
    """A database name does not exist in the polystore."""


class InvalidProbabilityError(ModelError):
    """A p-relation probability is outside the half-open interval (0, 1]."""


# --------------------------------------------------------------------------
# Store errors
# --------------------------------------------------------------------------


class StoreError(ReproError):
    """Base for all storage-engine errors."""


class KeyNotFoundError(StoreError):
    """A requested key does not exist in the store."""


class DuplicateKeyError(StoreError):
    """An insert collides with an existing primary key."""


class SchemaError(StoreError):
    """A row does not conform to its table schema."""


class FaultError(StoreError):
    """Base for fault-layer errors (see :mod:`repro.faults`).

    Covers injected faults, open circuit breakers and exhausted timeout
    budgets. A ``FaultError`` is still a :class:`StoreError`, so code
    that treats store trouble generically keeps working.
    """


class StoreUnavailableError(FaultError):
    """A store could not be reached (down, timing out, flaky)."""

    def __init__(self, message: str, database: str | None = None):
        super().__init__(message)
        #: The unreachable database, when the raiser knows it.
        self.database = database


class InjectedFaultError(StoreUnavailableError):
    """A configured fault schedule failed this call on purpose."""


class CircuitOpenError(StoreUnavailableError):
    """The per-store circuit breaker is open; the call was not sent."""


class TimeoutExceeded(FaultError):
    """A per-augmentation timeout budget was exhausted."""


class QueryError(StoreError):
    """A native query is malformed or references unknown names."""


class SqlSyntaxError(QueryError):
    """The SQL parser rejected the statement."""


class UnsupportedQueryError(QueryError):
    """The query uses a feature the engine does not implement."""


# --------------------------------------------------------------------------
# Core / augmentation errors
# --------------------------------------------------------------------------


class AugmentationError(ReproError):
    """Base for errors during augmented query answering."""


class NotAugmentableError(AugmentationError):
    """The validator rejected a query for augmented execution."""


class UnknownAugmenterError(AugmentationError):
    """A configuration names an augmenter that is not registered."""


class ConfigurationError(AugmentationError):
    """An augmenter configuration parameter is invalid."""


# --------------------------------------------------------------------------
# Serving errors
# --------------------------------------------------------------------------


class ServingError(ReproError):
    """Base for serving-layer (scheduler/server) errors."""


class ServerBusy(ServingError):
    """The admission queue is full; the request was shed (load shedding).

    Clients should back off and retry; the server remains healthy.
    """


class RequestDeadlineExceeded(ServingError):
    """A request's deadline expired while it was still queued.

    A deadline that expires *during* execution surfaces as
    :class:`TimeoutExceeded` instead, via the augmentation timeout
    budget the deadline was translated into.
    """


# --------------------------------------------------------------------------
# Optimizer / ML errors
# --------------------------------------------------------------------------


class OptimizerError(ReproError):
    """Base for adaptive-optimizer errors."""


class NotTrainedError(OptimizerError):
    """Prediction was requested before the models were trained."""


class TrainingError(OptimizerError):
    """The training set is unusable (empty, degenerate, malformed)."""


# --------------------------------------------------------------------------
# Middleware baseline errors
# --------------------------------------------------------------------------


class MiddlewareError(ReproError):
    """Base for middleware-emulator errors."""


class OutOfMemoryError(MiddlewareError):
    """A middleware run exceeded its memory budget (the red 'X' in Fig 13)."""

    def __init__(self, message: str, footprint: int = 0, budget: int = 0):
        super().__init__(message)
        self.footprint = footprint
        self.budget = budget


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


class PlannerError(ReproError):
    """Base for cross-store planner errors (see repro.planner)."""


class UnknownStrategyError(PlannerError):
    """A physical-plan strategy name that no enumerated plan carries."""
