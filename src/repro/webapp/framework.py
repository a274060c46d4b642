"""Micro web framework on the standard library (the Flask substitute).

The paper's backend is Flask; offline we build the equivalent from
``http.server``: decorator-based routing, JSON request/response
helpers, CORS headers (the frontend is served from a different port —
the paper's "completely decoupled" microservice split), and a
threaded server that runs in-process for tests and examples.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..resilience.faults import InjectedFault, fault_check

Handler = Callable[["Request"], "Response"]


@dataclass
class Request:
    """A parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, list]
    headers: Dict[str, str]
    body: bytes = b""

    def json(self) -> Dict[str, Any]:
        """Parse the body as a JSON object; ``ValueError`` (→ 400) on bad
        input, including valid JSON that is not an object (``[1]``,
        ``"x"``) — every handler reads named fields from the payload."""
        if not self.body:
            raise ValueError("empty request body")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"request body must be a JSON object, got "
                             f"{type(payload).__name__}")
        return payload


@dataclass
class Response:
    """An HTTP response; use the class helpers to construct one.

    A response is either *buffered* (``body`` bytes, the default) or
    *streamed*: when ``stream`` is set the server sends no
    Content-Length, writes each chunk as it is produced and flushes
    after every write — the transport for server-sent events.
    """

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    stream: Optional[Iterable[bytes]] = None

    @classmethod
    def json(cls, payload: Any, status: int = 200) -> "Response":
        return cls(status=status,
                   body=json.dumps(payload, ensure_ascii=False).encode("utf-8"))

    @classmethod
    def event_stream(cls, events: Iterable[Any],
                     status: int = 200) -> "Response":
        """A server-sent-events response.

        ``events`` yields JSON-serializable payloads, each framed as
        one ``data: {...}\\n\\n`` SSE message.  The iterable is pulled
        lazily inside the server thread, so a generator that blocks on
        an :class:`~repro.serving.EngineRequest` streams tokens to the
        client as the engine produces them.
        """
        def frames() -> Iterator[bytes]:
            try:
                for event in events:
                    payload = json.dumps(event, ensure_ascii=False)
                    yield f"data: {payload}\n\n".encode("utf-8")
            finally:
                # Deterministically close the source generator when the
                # stream is abandoned (client disconnect), so its own
                # cleanup — e.g. cancelling an engine request — runs
                # now, not at some later garbage collection.
                close = getattr(events, "close", None)
                if close is not None:
                    close()
        return cls(status=status, content_type="text/event-stream",
                   headers={"Cache-Control": "no-cache"}, stream=frames())

    @classmethod
    def text(cls, text: str, status: int = 200,
             content_type: str = "text/plain; charset=utf-8") -> "Response":
        return cls(status=status, body=text.encode("utf-8"),
                   content_type=content_type)

    @classmethod
    def html(cls, markup: str, status: int = 200) -> "Response":
        return cls.text(markup, status=status,
                        content_type="text/html; charset=utf-8")

    @classmethod
    def error(cls, message: str, status: int = 400,
              headers: Optional[Dict[str, str]] = None) -> "Response":
        """A JSON error body; ``headers`` carries hints like Retry-After."""
        response = cls.json({"error": message}, status=status)
        if headers:
            response.headers.update(headers)
        return response


class App:
    """Route table + request dispatch (the Flask-like object)."""

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self._routes: Dict[Tuple[str, str], Handler] = {}

    def route(self, path: str, methods: Tuple[str, ...] = ("GET",)):
        """Decorator registering a handler for ``path``."""
        def decorator(handler: Handler) -> Handler:
            for method in methods:
                key = (method.upper(), path)
                if key in self._routes:
                    raise ValueError(f"duplicate route {method} {path}")
                self._routes[key] = handler
            return handler
        return decorator

    def dispatch(self, request: Request) -> Response:
        """Resolve and invoke the handler; errors become JSON responses."""
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            if any(path == request.path for _, path in self._routes):
                return Response.error("method not allowed", status=405)
            return Response.error(f"no route for {request.path}", status=404)
        try:
            return handler(request)
        except ValueError as exc:
            return Response.error(str(exc), status=400)
        except Exception as exc:  # noqa: BLE001 - a server must not die
            return Response.error(f"internal error: {exc}", status=500)


class _RequestHandler(BaseHTTPRequestHandler):
    """Bridges ``http.server`` to :class:`App` dispatch."""

    app: App  # injected by Server

    def _handle(self, method: str) -> None:
        parsed = urlparse(self.path)
        length = int(self.headers.get("Content-Length", 0) or 0)
        body = self.rfile.read(length) if length else b""
        request = Request(
            method=method,
            path=parsed.path,
            query=parse_qs(parsed.query),
            headers={k.lower(): v for k, v in self.headers.items()},
            body=body,
        )
        response = self.app.dispatch(request)
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        if response.stream is None:
            self.send_header("Content-Length", str(len(response.body)))
        else:
            # Streamed: no length up front; the connection close marks
            # the end of the body (we speak HTTP/1.0, no chunked coding).
            self.send_header("Connection", "close")
        # CORS: the decoupled frontend lives on another origin.
        self.send_header("Access-Control-Allow-Origin", "*")
        self.send_header("Access-Control-Allow-Headers", "Content-Type")
        self.send_header("Access-Control-Allow-Methods", "GET, POST, OPTIONS")
        for key, value in response.headers.items():
            self.send_header(key, value)
        self.end_headers()
        if response.stream is None:
            self.wfile.write(response.body)
            return
        try:
            for chunk in response.stream:
                # "framework.write": chaos point modelling the client
                # hanging up mid-stream — same handling as a real
                # broken pipe, so the test suite can prove the engine
                # slot is always released.
                fault_check("framework.write")
                self.wfile.write(chunk)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, InjectedFault):
            pass  # client went away mid-stream
        finally:
            # Tell the stream it is done either way, so generator
            # backends can release resources held for the client
            # (the serving engine's batch slot, most importantly).
            close = getattr(response.stream, "close", None)
            if close is not None:
                close()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_OPTIONS(self) -> None:  # noqa: N802 - CORS preflight
        self.send_response(204)
        self.send_header("Access-Control-Allow-Origin", "*")
        self.send_header("Access-Control-Allow-Headers", "Content-Type")
        self.send_header("Access-Control-Allow-Methods", "GET, POST, OPTIONS")
        self.end_headers()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep tests and benchmarks quiet


class Server:
    """A threaded HTTP server hosting one :class:`App`.

    ``port=0`` picks a free port (use :attr:`port` after start).
    """

    def __init__(self, app: App, host: str = "127.0.0.1", port: int = 0) -> None:
        self.app = app
        handler = type(f"{app.name}Handler", (_RequestHandler,), {"app": app})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "Server":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
