"""The persistent CEC server: one asyncio front end over a backend.

:class:`CecServer` is a long-running process component that accepts
``repro-service/1`` (and ``repro-fleet/1`` cache) requests over a
Unix-domain or TCP socket. Its front end exists once, whatever serves
the jobs: the connection loop and its line limit, decode errors, one
verb table over the protocol registry, request-field validation, the
draining rules, ``ping``/``stats``/``metrics``/``shutdown``, and the
optional Prometheus ``/metrics`` endpoint.

Behind it sits one of two backends, chosen by the ``shards`` argument:

* :class:`~repro.service.local.LocalBackend` (no ``shards``): the job
  queue, the worker pool, the structural-hash proof cache and the
  live-progress spools — a repeated or symmetric query is answered
  from disk, certificate included.
* :class:`~repro.fleet.shards.ShardBackend` (``shards=[...]``): the
  fleet front door. Submits are consistent-hashed onto other servers,
  job verbs are forwarded to the shard that owns the job, and proof
  certificates move between shard caches (``repro-router``).

Threading model: every request and every job mutation runs on one
event loop (the caller's thread under :meth:`serve_forever`, a daemon
thread under :meth:`start`). The other threads are the worker pool's
and the optional ``/metrics`` endpoint's, which reads only the
thread-safe :class:`~repro.instrument.Recorder` and
:class:`~repro.instrument.MetricsRegistry`.
"""

import asyncio
import os
import socket
import threading
import time
from concurrent.futures import Future

from .. import __version__
from ..instrument import MetricsRegistry, Recorder, get_logger
from ..instrument.metrics import to_prometheus_text
from . import protocol
from .metrics_http import MetricsHTTPServer

#: Verbs a draining server still answers: they only read state, and a
#: draining server's in-flight jobs are exactly the ones worth
#: watching. The cache verbs touch the on-disk cache, never the queue.
_DRAINING_VERBS = frozenset(
    {"ping", "stats", "metrics", "progress"}
) | protocol.FLEET_VERBS

log = get_logger("service.server")


class CecServer:
    """Persistent equivalence-checking service.

    Args:
        address: ``host:port`` or a Unix socket path (see
            :func:`repro.service.protocol.parse_address`).
        recorder: server-level :class:`Recorder` (one is created when
            omitted); serves the ``stats`` verb.
        metrics_address: optional ``host:port`` for the Prometheus
            ``/metrics`` HTTP endpoint (``None`` disables it; the
            ``metrics`` protocol verb works either way).
        shards: backend ``repro-serve`` addresses; when given, the
            server runs no jobs itself and routes them onto these
            shards.
        **settings: the backend's settings. Without shards (see
            :class:`~repro.service.local.LocalBackend`): ``workers``
            (``0`` = one in-process worker thread), ``queue_limit``,
            ``cache_dir`` (``None`` disables caching),
            ``default_time_limit`` / ``default_conflict_limit``,
            ``poll_interval`` (``result --wait`` heartbeat period),
            ``retain_jobs`` and ``progress_interval`` (``0`` disables
            live progress). With shards (see
            :class:`~repro.fleet.shards.ShardBackend`): ``replicas``,
            ``health_interval``, ``down_after`` and ``shard_timeout``.
    """

    def __init__(
        self, address, recorder=None, metrics_address=None, shards=None,
        **settings
    ):
        self.family, self.target = protocol.parse_address(address)
        if metrics_address is not None:
            metrics_family, metrics_target = protocol.parse_address(
                metrics_address
            )
            if metrics_family != "tcp":
                raise ValueError(
                    "metrics endpoint needs host:port, got %r"
                    % metrics_address
                )
        self.recorder = recorder if recorder is not None else Recorder()
        self.metrics = MetricsRegistry()
        if shards:
            from ..fleet.shards import ShardBackend

            self.backend = ShardBackend(
                self.recorder, self.metrics, shards, **settings
            )
            self.ring = self.backend.ring
        else:
            from .local import LocalBackend

            # Built first: a process pool must fork before any thread
            # of this process (the /metrics endpoint below) exists.
            self.backend = LocalBackend(
                self.recorder, self.metrics, **settings
            )
            self.cache = self.backend.cache
            self._executor = self.backend.executor
        self.recorder.meta.setdefault("tool", self.backend.component)
        self.recorder.meta["address"] = protocol.format_address(
            self.family, self.target
        )
        frontend = {
            "ping": self._ping, "stats": self._stats,
            "metrics": self._metrics, "shutdown": self._shutdown,
        }
        self._verbs = {
            verb: frontend.get(verb)
            or getattr(self.backend, "handle_" + verb.replace("-", "_"))
            for verb in protocol.VERBS | protocol.FLEET_VERBS
        }
        self._started_monotonic = time.monotonic()
        self._shutting_down = False
        self._loop = None
        self._thread = None
        self._server = None
        self._stopping = None
        self._connections = set()
        self._sock = None
        self._metrics_http = None
        try:
            self._sock = _listening_socket(self.family, self.target)
            self._bound = self._sock.getsockname()
            if metrics_address is not None:
                host, port = metrics_target
                self._metrics_http = MetricsHTTPServer(
                    host, port, self.prometheus_text
                ).start()
        except OSError:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self):
        """The bound address (with the OS-assigned port for ``:0``)."""
        if self.family == "unix":
            return self.target
        host, port = self._bound[:2]
        return "%s:%d" % (host, port)

    @property
    def metrics_address(self):
        """``host:port`` of the /metrics endpoint (None when disabled)."""
        metrics_http = self._metrics_http
        return None if metrics_http is None else metrics_http.address

    @property
    def metrics_port(self):
        """The bound ``/metrics`` port, or None when disabled."""
        metrics_http = self._metrics_http
        return None if metrics_http is None else metrics_http.port

    def serve_forever(self):
        """Serve on the calling thread until :meth:`shutdown`."""
        if not self._shutting_down:
            self._run(self._open())

    def start(self):
        """Serve on a daemon thread (tests/benchmarks); returns it.

        The server is accepting connections when this returns.
        """
        listening = Future()
        self._thread = threading.Thread(
            target=self._serve_thread, args=(listening,),
            name="repro-serve", daemon=True,
        )
        self._thread.start()
        listening.result()
        return self._thread

    def _serve_thread(self, listening):
        try:
            loop = self._open()
        except BaseException as exc:
            listening.set_exception(exc)
            return
        listening.set_result(None)
        self._run(loop)

    def shutdown(self):
        """Start draining (any thread; never blocks).

        The server stops accepting connections and refuses new work;
        admitted jobs run to completion and open connections keep
        their draining-mode answers until then; then the loop ends.
        """
        self._shutting_down = True
        loop, stopping = self._loop, self._stopping
        if loop is None or stopping is None:
            return
        try:
            loop.call_soon_threadsafe(stopping.set)
        except RuntimeError:  # the loop has already finished
            pass

    def close(self):
        """Shut down, wait for the loop, release every resource
        (idempotent)."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.backend.close()
        if self._sock is not None:
            self._sock.close()
        metrics_http, self._metrics_http = self._metrics_http, None
        if metrics_http is not None:
            metrics_http.close()
        if self.family == "unix":
            try:
                os.unlink(self.target)
            except OSError:
                pass

    def _open(self):
        """Create the event loop and start listening on it."""
        if self._loop is not None:
            raise RuntimeError("server is already running")
        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(self._listen())
        except BaseException:
            self._loop.close()
            raise
        return self._loop

    def _run(self, loop):
        try:
            loop.run_until_complete(self._serve_until_stopped())
        finally:
            loop.close()

    async def _listen(self):
        self._stopping = asyncio.Event()
        if self._shutting_down:
            self._stopping.set()
        if self.family == "unix":
            start = asyncio.start_unix_server
        else:
            start = asyncio.start_server
        self._server = await start(
            self._serve_connection, sock=self._sock,
            limit=protocol.MAX_LINE_BYTES + 1,
        )
        await self.backend.start()

    async def _serve_until_stopped(self):
        await self._stopping.wait()
        server, self._server = self._server, None
        server.close()
        await self.backend.drain()
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        await asyncio.gather(*connections, return_exceptions=True)

    # ------------------------------------------------------------------
    # Connections and dispatch
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)

        async def send(response):
            writer.write(protocol.encode(response))
            await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # StreamReader.readline signals a limit overrun
                    # (line longer than MAX_LINE_BYTES) as ValueError.
                    await send(protocol.error_response(
                        protocol.ERR_INVALID_REQUEST,
                        "request line exceeds %d bytes"
                        % protocol.MAX_LINE_BYTES,
                    ))
                    return
                if not line:
                    return
                try:
                    request = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    await send(protocol.error_response(exc.code, str(exc)))
                    continue
                if await self.dispatch(request, send):
                    return
        except OSError:  # the peer went away mid-exchange
            pass
        except asyncio.CancelledError:
            # The server is closing. The task ends normally: asyncio's
            # stream callback (3.11) logs a cancelled connection task
            # as an error.
            pass
        finally:
            self._connections.discard(task)
            writer.close()

    async def dispatch(self, request, send):
        """Answer one request via *send*; True ends the connection."""
        verb = request.get("verb")
        handler = self._verbs.get(verb) if isinstance(verb, str) else None
        if handler is None:
            await send(protocol.error_response(
                protocol.ERR_INVALID_REQUEST,
                "unknown verb %r" % (verb,),
                verb=verb if isinstance(verb, str) else None,
            ))
            return False
        if self._shutting_down and verb not in _DRAINING_VERBS:
            await send(protocol.error_response(
                protocol.ERR_SHUTTING_DOWN, "server is shutting down",
                verb=verb,
            ))
            return False
        problem = _field_error(verb, request)
        if problem is not None:
            code, message = problem
            await send(protocol.error_response(code, message, verb=verb))
            return False
        try:
            response = await handler(request, send)
        except OSError:
            raise
        except Exception as exc:
            # A handler bug must cost one request, never the
            # connection (or, behind a fleet, the shard's health).
            log.exception("%s request failed", verb)
            response = protocol.error_response(
                protocol.ERR_INVALID_REQUEST,
                "request could not be handled: %s: %s"
                % (type(exc).__name__, exc),
                verb=verb,
            )
        await send(response)
        return verb == "shutdown"

    # ------------------------------------------------------------------
    # Front-end verbs
    # ------------------------------------------------------------------

    async def _ping(self, request, send):
        return protocol.ping_response()

    async def _stats(self, request, send):
        return protocol.ok_response("stats", stats=self.stats_report())

    async def _metrics(self, request, send):
        return protocol.ok_response(
            "metrics", metrics=self.metrics.report(),
            prometheus=self.prometheus_text(),
        )

    async def _shutdown(self, request, send):
        # Only this server stops: a fleet's shards are independent
        # processes with their own lifecycles.
        self.shutdown()
        return protocol.ok_response("shutdown")

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def stats_report(self):
        """Server-level ``repro-stats/1`` report with derived gauges.

        Point-in-time gauges (queue depth, uptime, latency quantiles)
        are refreshed on every read, so scrapes between jobs never see
        stale values.
        """
        self.backend.refresh_gauges(
            uptime=time.monotonic() - self._started_monotonic
        )
        for name, value in self.metrics.quantile_gauges().items():
            self.recorder.gauge(name, value)
        self.recorder.meta["version"] = __version__
        return self.recorder.report()

    def prometheus_text(self):
        """Prometheus text rendering of metrics + stats (the `/metrics`
        body and the ``metrics`` verb's ``prometheus`` field)."""
        return to_prometheus_text(
            self.metrics.report(), stats_report=self.stats_report(),
            build_info={
                "component": self.backend.component,
                "version": __version__,
            },
        )


def _listening_socket(family, target):
    """Bind the listening socket now, so address errors surface in the
    constructor and ``:0`` resolves to a real port before serving."""
    if family == "unix":
        if os.path.exists(target):
            os.unlink(target)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind(target)
        sock.listen(128)
    except OSError:
        sock.close()
        raise
    return sock


def _non_negative(value, kinds):
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and value >= 0)


def _field_error(verb, request):
    """``(code, message)`` for a malformed request field, else None.

    Checked once, before any backend sees the request: a bad budget
    never reaches a worker and a bad wait never reaches a shard.
    """
    if verb == "submit":
        for field, kinds, what in (
            ("time_limit", (int, float), "a number"),
            ("conflict_limit", int, "an integer"),
        ):
            value = request.get(field)
            if value is not None and not _non_negative(value, kinds):
                return protocol.ERR_BAD_INPUT, (
                    "%s must be %s >= 0, got %r" % (field, what, value)
                )
    elif verb == "result":
        timeout = request.get("timeout")
        if timeout is not None and not _non_negative(timeout, (int, float)):
            return protocol.ERR_INVALID_REQUEST, (
                "timeout must be a number >= 0, got %r" % (timeout,)
            )
    return None
