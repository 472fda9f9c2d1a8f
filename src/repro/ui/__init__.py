"""The User Interface component (Section III-A, step 1/8).

The paper's QUEPA exposes augmented search and exploration through a
REST interface; results carry probabilities rendered as colors and
rankings. This package provides the same surface without a network
dependency:

* :mod:`repro.ui.api` — a transport-agnostic request router speaking
  JSON-shaped dicts (``POST /query``, ``POST /explore`` and friends).
  Plug it behind any HTTP framework, or drive it directly in tests.
* :mod:`repro.ui.reports` — the one place a report is built: eleven
  plain functions in one ``REPORTS`` table plus the coercion of raw
  parameters onto their signatures; the API and the CLI both render
  these payloads.
* :mod:`repro.ui.render` — presentation helpers: probability bands
  ("colors"), ranked plain-text and ANSI rendering of augmented
  answers and exploration steps.
"""

from repro.ui.api import ApiError, QuepaApi
from repro.ui.render import (
    AnsiRenderer,
    TextRenderer,
    probability_band,
)
from repro.ui.server import QuepaHttpServer, serve

__all__ = [
    "AnsiRenderer",
    "ApiError",
    "QuepaApi",
    "QuepaHttpServer",
    "TextRenderer",
    "probability_band",
    "serve",
]
