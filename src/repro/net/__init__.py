"""``repro.net``: the asyncio network front-end over the serving stack.

The last layer between the batched serving core and actual clients on a
socket: admission control → micro-batching (load-adaptive window) →
vectorized execution → JSON response, with graceful SIGTERM drain and
multi-index tenancy, on the stdlib asyncio event loop.  See
``docs/networking.md`` for the endpoint reference and operational
semantics; the high-level entry points are :func:`repro.api.net_serve`
and the ``repro net`` CLI.
"""

from __future__ import annotations

from .adaptive import AdaptiveWindow
from .admission import AdmissionController, NetStats, TokenBucket
from .config import NetConfig
from .drain import drain, install_signal_handlers
from .http import HttpError, Request, json_response, read_request, render_response
from .loadgen import LoadResult, format_table, http_fetch, http_request, run_load, sweep
from .server import NetServer, ServerThread
from .tenancy import DEFAULT_TENANT, Tenant, TenantManager

__all__ = [
    "AdaptiveWindow",
    "AdmissionController",
    "DEFAULT_TENANT",
    "HttpError",
    "LoadResult",
    "NetConfig",
    "NetServer",
    "NetStats",
    "Request",
    "ServerThread",
    "Tenant",
    "TenantManager",
    "TokenBucket",
    "drain",
    "format_table",
    "http_fetch",
    "http_request",
    "install_signal_handlers",
    "json_response",
    "read_request",
    "render_response",
    "run_load",
    "sweep",
]
