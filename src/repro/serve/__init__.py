"""Online fuzzy-memoized inference: ``repro serve`` and its load generator.

The serving stack answers the deployment question behind the paper's
memoization story: the model is loaded *once* and served by memoized
clones whose memo buffers stay warm across requests, and the reuse
threshold is retunable live — per layer — without a restart.  See :mod:`repro.serve.server` for the
HTTP surface and :mod:`repro.serve.state` for the serving semantics.
"""

from repro.serve.loadgen import ServeClient, ServeError, run_loadgen
from repro.serve.server import DEFAULT_SERVE_PORT, InferenceServer
from repro.serve.state import (
    DEFAULT_SESSION_TTL,
    MAX_INFER_ROWS,
    ServeState,
    parse_layer_thetas,
)

__all__ = [
    "DEFAULT_SERVE_PORT",
    "DEFAULT_SESSION_TTL",
    "MAX_INFER_ROWS",
    "InferenceServer",
    "ServeClient",
    "ServeError",
    "ServeState",
    "parse_layer_thetas",
    "run_loadgen",
]
