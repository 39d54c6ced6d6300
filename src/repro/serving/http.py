"""The network front end: a stdlib-only HTTP tier over the serving stack.

Two layers, deliberately separated:

* :class:`SearchHttpApp` — the *application*: it turns ``(method, target,
  body)`` triples into JSON :class:`HttpResponse` objects.  It knows the
  routes, the request validation into
  :class:`~repro.api.requests.SearchRequest`, the wire pagination, and the
  **fixed exception→status mapping** (:data:`ERROR_STATUS`) — and it knows
  nothing about sockets.  That makes the whole HTTP surface drivable
  in-process: the load generator and the CI perf smoke call
  :meth:`SearchHttpApp.dispatch` directly, so the network tier is tested
  end to end without ever binding a port.
* :class:`SearchHttpServer` — the *transport*: a thin
  :func:`asyncio.start_server` adapter that parses HTTP/1.1 requests
  (keep-alive, ``Content-Length`` bodies) off a stream and writes the
  app's responses back.  It contains no routing or search logic at all.

Routes::

    GET  /healthz            liveness: 200 while accepting, 503 once stopped
    GET  /stats              service + engine/replica metrics as JSON
                             (plus the slow-query log when enabled)
    GET  /metrics            Prometheus text exposition of every registry
                             reachable from the service (engine, cache,
                             replicas, active fault injector)
    GET  /search?pattern=..&tau=..&top_k=..&offset=..&limit=..
    POST /search             same parameters as a JSON object body

Tracing: every ``/search`` response echoes ``X-Repro-Trace-Id`` when the
request was traced.  A trace is minted when the caller passes
``debug=trace`` or when a slow-query log is attached, and adopted when the
caller supplies an ``X-Repro-Trace-Id`` header; only ``debug=trace`` adds
the full span tree to the response payload as ``"trace"``.  Untraced
requests pay a single ``is None`` test.

Error contract — every error body is ``{"error": {"type", "message",
"status"}}`` and the status comes from the first matching row of
:data:`ERROR_STATUS` (ordered subclass-first, so
:class:`~repro.exceptions.PatternTooLongError` hits its own row before the
generic :class:`~repro.exceptions.QueryError` one):

=============================  ======
exception                      status
=============================  ======
``ServiceOverloadedError``     429
``ServiceStoppedError``        503
``NoHealthyReplicaError``      503
``DrainTimeoutError``          503
``DeadlineExceededError``      504
``PatternTooLongError``        400
``ValidationError``            400
``QueryError``                 400
``ReproError`` (any other)     500
anything else                  500
=============================  ======

A ``/search`` page is rendered straight from the answer's arrays
(:class:`~repro.core.base.MatchArrays`: ``ids[offset:end].tolist()`` and
``values[offset:end].tolist()`` into ``{"position", "probability"}`` or
``{"document", "relevance"}`` dicts), so serving a request builds no
``Occurrence`` / ``ListingMatch`` record; the bytes are those the records
would render.

A degraded answer (a sharded engine in ``partial=True`` mode whose
shards stayed down after crash recovery) is still a 200, with
``"partial": true`` and the failed shard ordinals in
``"failed_shards"`` added to the response object — complete answers
carry neither key.

The app serves whatever the :class:`~repro.serving.AsyncSearchService`
serves — a plain engine, a sharded one, or a
:class:`~repro.serving.ReplicaSet` — and ``/stats`` duck-types the
engine's own ``stats()`` in next to the service counters, so replica
health is one curl away.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type, Union
from urllib.parse import parse_qs, urlsplit

from ..api.requests import SearchRequest
from ..core.base import LISTING, MatchArrays
from ..exceptions import (
    DeadlineExceededError,
    DrainTimeoutError,
    NoHealthyReplicaError,
    PatternTooLongError,
    QueryError,
    ReproError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ValidationError,
)
from ..faults.injection import active_injector
from ..obs.metrics import MetricSample, render_prometheus
from ..obs.trace import SlowQueryLog, Trace
from .service import AsyncSearchService

#: Caller-supplied trace identifiers must be short and header-safe.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9_.:-]{1,64}$")

#: The trace-id request/response header.
TRACE_HEADER = "x-repro-trace-id"

#: The wire contract: first matching row wins, so subclasses must precede
#: their bases (``PatternTooLongError`` before ``QueryError``,
#: ``ValidationError`` before ``ReproError``).  Anything not matching any
#: row — including non-:class:`ReproError` exceptions — maps to 500.
ERROR_STATUS: Tuple[Tuple[Type[BaseException], int], ...] = (
    (ServiceOverloadedError, 429),
    (ServiceStoppedError, 503),
    (NoHealthyReplicaError, 503),
    (DrainTimeoutError, 503),
    (DeadlineExceededError, 504),
    (PatternTooLongError, 400),
    (ValidationError, 400),
    (QueryError, 400),
    (ReproError, 500),
)

#: Reason phrases for the statuses this tier emits.
_REASONS: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Hard cap on request-line/header/body sizes the socket transport accepts.
MAX_REQUEST_BYTES = 1 << 20


def status_for_exception(error: BaseException) -> int:
    """The HTTP status :data:`ERROR_STATUS` assigns to ``error``."""
    for exc_type, status in ERROR_STATUS:
        if isinstance(error, exc_type):
            return status
    return 500


@dataclass(frozen=True)
class HttpResponse:
    """One response: a status code plus a JSON payload or a plain-text body.

    ``text`` set (the ``/metrics`` exposition) overrides ``payload`` and
    switches the content type to Prometheus' text format.
    """

    status: int
    payload: Mapping[str, Any]
    headers: Tuple[Tuple[str, str], ...] = field(default=())
    text: Optional[str] = None

    @property
    def reason(self) -> str:
        """Reason phrase for :attr:`status`."""
        return _REASONS.get(self.status, "Unknown")

    @property
    def ok(self) -> bool:
        """Whether the status is a success (2xx)."""
        return 200 <= self.status < 300

    @property
    def content_type(self) -> str:
        """The wire content type (JSON, or Prometheus text for ``text``)."""
        if self.text is not None:
            return "text/plain; version=0.0.4; charset=utf-8"
        return "application/json"

    def body(self) -> bytes:
        """The body bytes: ``text`` verbatim, else the payload as JSON."""
        if self.text is not None:
            return self.text.encode("utf-8")
        return json.dumps(self.payload, sort_keys=True).encode("utf-8")

    def encode(self) -> bytes:
        """The full HTTP/1.1 response bytes (status line, headers, body)."""
        body = self.body()
        lines = [
            f"HTTP/1.1 {self.status} {self.reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(body)}",
        ]
        lines.extend(f"{name}: {value}" for name, value in self.headers)
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("ascii") + body


def _error_response(error: BaseException) -> HttpResponse:
    status = status_for_exception(error)
    return HttpResponse(
        status,
        {
            "error": {
                "type": type(error).__name__,
                "message": str(error),
                "status": status,
            }
        },
    )


def _page_to_json(answer: MatchArrays, offset: int, limit: Optional[int]) -> List[Dict[str, Any]]:
    """Wire shape of one page: position/probability or document/relevance dicts.

    Rendered straight from the answer's arrays (``tolist`` gives the same
    Python ints and floats a record holds), so no record is built.
    """
    end = None if limit is None else offset + limit
    ids = answer.ids[offset:end].tolist()
    values = answer.values[offset:end].tolist()
    if answer.kind == LISTING:
        return [{"document": ident, "relevance": value} for ident, value in zip(ids, values)]
    return [{"position": ident, "probability": value} for ident, value in zip(ids, values)]


def _single(params: Mapping[str, List[str]], name: str) -> Optional[str]:
    values = params.get(name)
    if not values:
        return None
    if len(values) > 1:
        raise ValidationError(f"parameter {name!r} given {len(values)} times")
    return values[0]


def _as_float(name: str, raw: Any) -> float:
    if isinstance(raw, bool):
        raise ValidationError(f"parameter {name!r} must be a number, got {raw!r}")
    if isinstance(raw, (int, float)):
        return float(raw)
    try:
        return float(str(raw))
    except (TypeError, ValueError):
        raise ValidationError(f"parameter {name!r} must be a number, got {raw!r}")


def _as_int(name: str, raw: Any) -> int:
    if isinstance(raw, bool):
        raise ValidationError(f"parameter {name!r} must be an integer, got {raw!r}")
    if isinstance(raw, int):
        return raw
    try:
        return int(str(raw))
    except (TypeError, ValueError):
        raise ValidationError(f"parameter {name!r} must be an integer, got {raw!r}")


@dataclass(frozen=True)
class _ParsedQuery:
    """A validated ``/search`` call: the request plus its wire pagination."""

    request: SearchRequest
    offset: int
    limit: Optional[int]


def _parse_search(params: Mapping[str, Any]) -> _ParsedQuery:
    """Validate raw query/body parameters into a :class:`_ParsedQuery`.

    ``params`` maps names to either strings (query string, via
    :func:`urllib.parse.parse_qs` flattened by :func:`_single`) or JSON
    values (POST body).  Unknown parameter names are rejected — a typo'd
    ``taau=0.3`` must not silently search with the default threshold.
    """
    known = {"pattern", "tau", "top_k", "timeout_ms", "offset", "limit"}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValidationError(
            f"unknown parameter(s): {', '.join(unknown)}; expected {sorted(known)}"
        )
    pattern = params.get("pattern")
    if pattern is None or not isinstance(pattern, str) or not pattern:
        raise ValidationError("parameter 'pattern' is required and must be a string")
    tau = params.get("tau")
    top_k = params.get("top_k")
    timeout_ms = params.get("timeout_ms")
    offset = params.get("offset")
    limit = params.get("limit")
    request = SearchRequest(
        pattern,
        tau=None if tau is None else _as_float("tau", tau),
        top_k=None if top_k is None else _as_int("top_k", top_k),
        timeout_ms=None if timeout_ms is None else _as_float("timeout_ms", timeout_ms),
    )
    parsed_offset = 0 if offset is None else _as_int("offset", offset)
    if parsed_offset < 0:
        raise ValidationError(f"offset must be non-negative, got {parsed_offset}")
    parsed_limit = None if limit is None else _as_int("limit", limit)
    if parsed_limit is not None and parsed_limit < 0:
        raise ValidationError(f"limit must be non-negative, got {parsed_limit}")
    return _ParsedQuery(request, parsed_offset, parsed_limit)


class SearchHttpApp:
    """Routes and JSON encoding over one :class:`AsyncSearchService`.

    The app is transport-independent: :meth:`dispatch` is a plain
    coroutine from ``(method, target, body, headers)`` to
    :class:`HttpResponse`, equally callable from the socket server, the
    load generator, or a test.  All search traffic funnels through
    ``service.submit``, so micro-batching, deduplication and admission
    control apply to HTTP callers exactly as they do to in-process ones.

    Parameters
    ----------
    service:
        The coalescing service to front.
    slow_log:
        Optional :class:`~repro.obs.trace.SlowQueryLog`; attaching one
        traces every ``/search`` request and retains the worst span
        trees, dumped under ``"slow_queries"`` in ``/stats``.
    """

    def __init__(
        self,
        service: AsyncSearchService,
        *,
        slow_log: Optional[SlowQueryLog] = None,
    ) -> None:
        self._service = service
        self._slow_log = slow_log

    @property
    def service(self) -> AsyncSearchService:
        """The coalescing service this app fronts."""
        return self._service

    @property
    def slow_log(self) -> Optional[SlowQueryLog]:
        """The attached slow-query log, if any."""
        return self._slow_log

    async def dispatch(
        self,
        method: str,
        target: str,
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> HttpResponse:
        """Answer one request; never raises — errors become JSON responses.

        ``headers`` maps lowercase header names to values; the only one
        the app reads is ``x-repro-trace-id`` (caller-supplied trace
        identifier, echoed back on the response).
        """
        try:
            split = urlsplit(target)
            path = split.path or "/"
            if path == "/healthz":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._healthz()
            if path == "/stats":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._stats()
            if path == "/metrics":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._metrics()
            if path == "/search":
                if method == "GET":
                    query = parse_qs(split.query)
                    params = {name: _single(query, name) for name in query}
                    return await self._search(params, headers)
                if method == "POST":
                    return await self._search(self._decode_body(body), headers)
                return self._method_not_allowed("GET, POST")
            return HttpResponse(
                404,
                {
                    "error": {
                        "type": "NotFound",
                        "message": f"no route for {path!r}",
                        "status": 404,
                    }
                },
            )
        except Exception as error:  # noqa: BLE001 — the wire error boundary
            return _error_response(error)

    def _method_not_allowed(self, allow: str) -> HttpResponse:
        return HttpResponse(
            405,
            {
                "error": {
                    "type": "MethodNotAllowed",
                    "message": f"allowed: {allow}",
                    "status": 405,
                }
            },
            headers=(("Allow", allow),),
        )

    def _decode_body(self, body: Optional[bytes]) -> Dict[str, Any]:
        if not body:
            raise ValidationError("POST /search requires a JSON object body")
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValidationError(f"request body is not valid JSON: {error}")
        if not isinstance(decoded, dict):
            raise ValidationError(
                f"request body must be a JSON object, got {type(decoded).__name__}"
            )
        return decoded

    def _healthz(self) -> HttpResponse:
        service = self._service
        healthy = not service.closed
        payload = {
            "status": "ok" if healthy else "stopped",
            "running": service.running,
        }
        return HttpResponse(200 if healthy else 503, payload)

    def _stats(self) -> HttpResponse:
        service = self._service
        payload: Dict[str, Any] = {"service": service.stats()}
        engine_stats = getattr(service.engine, "stats", None)
        if callable(engine_stats):
            payload["engine"] = engine_stats()
        if self._slow_log is not None:
            payload["slow_queries"] = self._slow_log.dump()
        return HttpResponse(200, payload)

    def _metrics(self) -> HttpResponse:
        """Prometheus text exposition of every reachable registry."""
        samples: List[MetricSample] = list(self._service.metrics_samples())
        injector = active_injector()
        if injector is not None:
            samples.extend(injector.metrics_samples())
        return HttpResponse(200, {}, text=render_prometheus(samples))

    def _trace_for(
        self, params: Dict[str, Any], headers: Optional[Mapping[str, str]]
    ) -> Tuple[Optional[Trace], bool]:
        """The request's trace (or ``None``) and whether to echo the tree.

        ``debug=trace`` is stripped from ``params`` here so the search
        parameter validation stays strict.  A caller-supplied
        ``x-repro-trace-id`` header both enables tracing and names the
        trace; malformed identifiers are a 400, not silently replaced.
        """
        debug = params.pop("debug", None)
        if debug is not None and debug != "trace":
            raise ValidationError(
                f"parameter 'debug' only supports 'trace', got {debug!r}"
            )
        supplied = (headers or {}).get(TRACE_HEADER)
        if supplied is not None and not _TRACE_ID_RE.match(supplied):
            raise ValidationError(
                "header X-Repro-Trace-Id must match "
                f"{_TRACE_ID_RE.pattern} (got {supplied!r})"
            )
        traced = (
            debug == "trace"
            or supplied is not None
            or self._slow_log is not None
        )
        if not traced:
            return None, False
        return Trace(supplied), debug == "trace"

    async def _search(
        self, params: Mapping[str, Any], headers: Optional[Mapping[str, str]]
    ) -> HttpResponse:
        started = time.perf_counter()
        cleaned = {
            name: value for name, value in params.items() if value is not None
        }
        trace, echo_trace = self._trace_for(cleaned, headers)
        if trace is None:
            parsed = _parse_search(cleaned)
            request = parsed.request
            result = await self._service.submit(request)
        else:
            with trace.span("validate", parent="request"):
                parsed = _parse_search(cleaned)
            request = replace(parsed.request, trace=trace)
            with trace.span("service", parent="request") as meta:
                result = await self._service.submit(request)
                meta["count"] = result.count
        serialize_started = time.perf_counter()
        answer = result.arrays
        payload: Dict[str, Any] = {
            "pattern": request.pattern,
            "tau": request.tau,
            "top_k": request.top_k,
            "count": len(answer),
            "offset": parsed.offset,
            "limit": parsed.limit,
            "matches": _page_to_json(answer, parsed.offset, parsed.limit),
        }
        if answer.failed_shards:
            # Degraded-but-usable is still a 200; the keys appear only on
            # degraded answers so complete responses are byte-stable.
            payload["partial"] = True
            payload["failed_shards"] = list(answer.failed_shards)
        if trace is None:
            return HttpResponse(200, payload)
        trace.add(
            "serialize",
            (time.perf_counter() - serialize_started) * 1000.0,
            parent="request",
            matches=len(payload["matches"]),
        )
        total_ms = (time.perf_counter() - started) * 1000.0
        tree = trace.to_dict(total_ms=total_ms)
        if self._slow_log is not None:
            self._slow_log.record(total_ms, tree)
        if echo_trace:
            payload["trace"] = tree
        return HttpResponse(
            200, payload, headers=(("X-Repro-Trace-Id", trace.trace_id),)
        )


class SearchHttpServer:
    """Asyncio socket transport for a :class:`SearchHttpApp`.

    Minimal HTTP/1.1: request line + headers parsed off the stream,
    ``Content-Length`` bodies, keep-alive by default (``Connection:
    close`` honoured), one request in flight per connection.  Bind with
    ``port=0`` to let the OS pick (the bound port is :attr:`port` after
    :meth:`start`) — the pattern the tests and the load generator's
    socket mode use.

    ``idle_timeout_s`` bounds how long a kept-alive connection may sit
    without delivering a complete request: a client that connects and
    goes silent (or trickles half a request) would otherwise pin a
    connection handler forever.  On expiry the connection is closed
    cleanly — no response bytes are written, since there is no request to
    answer.  ``None`` (default) keeps the historical wait-forever
    behaviour.
    """

    def __init__(
        self,
        app: Union[SearchHttpApp, AsyncSearchService],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout_s: Optional[float] = None,
    ) -> None:
        if idle_timeout_s is not None and idle_timeout_s <= 0:
            raise ValidationError(
                f"idle_timeout_s must be positive (or None), got {idle_timeout_s}"
            )
        self._app = app if isinstance(app, SearchHttpApp) else SearchHttpApp(app)
        self._host = host
        self._requested_port = port
        self._idle_timeout_s = idle_timeout_s
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def app(self) -> SearchHttpApp:
        """The application this server exposes."""
        return self._app

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def host(self) -> str:
        """The bind host."""
        return self._host

    @property
    def idle_timeout_s(self) -> Optional[float]:
        """Per-connection idle read timeout (``None``: wait forever)."""
        return self._idle_timeout_s

    async def start(self) -> "SearchHttpServer":
        """Bind and start accepting connections (idempotent)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle, host=self._host, port=self._requested_port
            )
        return self

    async def stop(self) -> None:
        """Stop accepting connections and close the listening socket."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    async def __aenter__(self) -> "SearchHttpServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                if self._idle_timeout_s is None:
                    parsed = await self._read_request(reader)
                else:
                    try:
                        # The whole request must arrive within the idle
                        # budget — this also bounds a trickled half-request.
                        parsed = await asyncio.wait_for(
                            self._read_request(reader), timeout=self._idle_timeout_s
                        )
                    except asyncio.TimeoutError:
                        return  # idle connection: close cleanly, answer nothing
                if parsed is None:
                    return
                method, target, headers, body = parsed
                response = await self._app.dispatch(method, target, body, headers)
                writer.write(response.encode())
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    return
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return  # the peer went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], Optional[bytes]]]:
        """Parse one request off the stream; ``None`` on a clean EOF."""
        line = await reader.readline()
        if not line or not line.strip():
            return None
        try:
            method, target, _version = line.decode("ascii").split(None, 2)
        except (UnicodeDecodeError, ValueError):
            return None
        headers: Dict[str, str] = {}
        total = len(line)
        while True:
            header = await reader.readline()
            total += len(header)
            if total > MAX_REQUEST_BYTES:
                return None
            if not header or header in (b"\r\n", b"\n"):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body: Optional[bytes] = None
        length_header = headers.get("content-length")
        if length_header is not None:
            try:
                length = int(length_header)
            except ValueError:
                return None
            if length < 0 or length > MAX_REQUEST_BYTES:
                return None
            body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body
