"""The local backend of :class:`~repro.service.server.CecServer`.

Jobs run on this host: :class:`LocalBackend` admits them into the
bounded :class:`~repro.service.jobs.JobTable`, fans them out to a
worker pool (:func:`repro.service.worker.execute_job`; ``workers >= 1``
separate processes, ``workers == 0`` one in-process thread, for tests
and platforms without ``fork``), and consults the structural-hash
:class:`~repro.service.cache.ProofCache` before paying for any solving
— a repeated or symmetric query is answered from disk, certificate
included. Running workers append live ``repro-progress/1`` heartbeats
to per-job spool files that the ``progress`` verb tails.

Every method runs on the server's event-loop thread, and so does every
job mutation: a pool completion is handed to the loop with
``call_soon_threadsafe`` before it touches the job, which also wakes a
blocked ``result --wait`` the moment the job ends.
"""

import asyncio
import io
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from ..aig.aiger import AigerError, read_aag
from ..instrument import Recorder, TraceContext, get_logger
from ..instrument.metrics import TIME_BUCKETS
from ..instrument.progress import (
    DEFAULT_INTERVAL as DEFAULT_PROGRESS_INTERVAL,
    latest_heartbeat,
    remove_spool,
)
from ..instrument.tracing import merge_trace_documents, new_span_id
from . import protocol
from .cache import ProofCache, cache_key
from .jobs import DONE, QUEUED, JobTable, QueueFullError
from .worker import build_options, execute_job

log = get_logger("service.server")

#: Heartbeat interval while a ``result --wait`` request is blocked.
DEFAULT_POLL_INTERVAL = 0.25


def _warm_worker():
    """No-op warm-up task: forces the process pool to fork its workers
    while the server is still single-threaded (see ``__init__``)."""
    return os.getpid()


class LocalBackend:
    """Job table, worker pool, proof cache and progress spools.

    Args:
        recorder / metrics: the server's, which this backend feeds.
        workers: worker processes (``0`` = one in-process worker
            thread).
        queue_limit: maximum queued+running jobs before ``submit``
            answers ``queue-full``.
        cache_dir: proof-cache directory (``None`` disables caching).
        default_time_limit / default_conflict_limit: per-job budget
            applied when the request does not carry its own.
        poll_interval: heartbeat period for blocked ``result`` waits.
        retain_jobs: terminal jobs kept for late ``status``/``result``
            queries before eviction (bounds server memory; defaults to
            :attr:`JobTable.DEFAULT_RETAIN_TERMINAL`).
        progress_interval: seconds between live progress heartbeats
            from running workers (``None`` = the default ~0.25s;
            ``0`` disables the progress plane entirely).
    """

    component = "repro-serve"

    def __init__(
        self,
        recorder,
        metrics,
        workers=1,
        queue_limit=32,
        cache_dir=None,
        default_time_limit=None,
        default_conflict_limit=None,
        poll_interval=DEFAULT_POLL_INTERVAL,
        retain_jobs=None,
        progress_interval=None,
    ):
        self.recorder = recorder
        self.metrics = metrics
        self.jobs = JobTable(
            queue_limit=queue_limit, retain_terminal=retain_jobs
        )
        self.cache = (
            ProofCache(cache_dir, recorder=recorder) if cache_dir else None
        )
        self.default_time_limit = default_time_limit
        self.default_conflict_limit = default_conflict_limit
        self.poll_interval = poll_interval
        self.progress_interval = (
            DEFAULT_PROGRESS_INTERVAL
            if progress_interval is None else float(progress_interval)
        )
        # Heartbeat spool: one JSONL file per running job, written by
        # the worker process and tailed by the `progress` verb. A
        # private tempdir (removed in close()) keeps the server free of
        # any cross-job file naming discipline.
        self._progress_dir = (
            tempfile.mkdtemp(prefix="repro-progress-")
            if self.progress_interval > 0 else None
        )
        self._loop = None
        if workers >= 1:
            # A fork-start pool is safe only because the workers are
            # all forked HERE, while the process is still
            # single-threaded: the warm-up submit below launches every
            # worker before the event loop, the /metrics thread or any
            # other thread exists.
            self.executor = ProcessPoolExecutor(max_workers=workers)
            self.executor.submit(_warm_worker).result()
        else:
            self.executor = ThreadPoolExecutor(max_workers=1)
        recorder.gauge("service/workers", max(workers, 1))

    async def start(self):
        self._loop = asyncio.get_running_loop()

    async def drain(self):
        """Wait until every admitted job is terminal."""
        pending = {self._ended(job) for job in self.jobs.active()}
        if pending:
            await asyncio.wait(pending)

    def close(self):
        """Reap the pool and drop the spool directory.

        The pool is reaped synchronously: its manager thread and GC
        finalizers release pipe fds asynchronously, and letting them
        run past ``close()`` lets those closes race the fds of
        whatever server is created next (observed as a fresh listener
        dying before its first ``accept``).
        """
        self.executor.shutdown(wait=True)
        if self._progress_dir is not None:
            shutil.rmtree(self._progress_dir, ignore_errors=True)

    def refresh_gauges(self, uptime):
        self.recorder.gauge("service/uptime-seconds", uptime)
        hits = self.recorder.counter("service/cache-hits")
        misses = self.recorder.counter("service/cache-misses")
        if hits + misses:
            self.recorder.gauge(
                "service/hit-rate", hits / float(hits + misses)
            )
        completed = self.recorder.counter("service/jobs-completed")
        seconds = self.recorder.phase_seconds("service/job")
        if completed and seconds > 0:
            self.recorder.gauge(
                "service/jobs-per-second", completed / seconds
            )
        self.recorder.gauge("service/queue-depth", self.jobs.pending())

    def _ended(self, job):
        """A future resolved once *job* is terminal (``asyncio.wait``
        on it with a timeout never cancels it)."""
        ended = self._loop.create_future()
        job.when_terminal(lambda: ended.set_result(None))
        return ended

    # ------------------------------------------------------------------
    # submit
    # ------------------------------------------------------------------

    async def handle_submit(self, request, send):
        self.recorder.count("service/jobs-submitted")
        # Trace context: adopt the client's when present and
        # well-formed, otherwise degrade to a fresh trace — a malformed
        # header must never fail the job. All server-side spans of this
        # job hang under one root "service/job" span whose id is minted
        # here and propagated to the worker.
        context, propagated = TraceContext.from_wire(request.get("trace"))
        if "trace" in request and not propagated:
            self.recorder.count("service/trace-degraded")
        job_span_id = new_span_id()
        job_recorder = Recorder()
        job_recorder.meta["tool"] = "repro-serve"
        job_recorder.start_trace(context.child(job_span_id))
        try:
            aig_a = read_aag(io.StringIO(request["aag_a"]))
            aig_b = read_aag(io.StringIO(request["aag_b"]))
            build_options(request.get("options"))
            key = cache_key(aig_a, aig_b, request.get("options"))
        except (AigerError, ValueError, KeyError, TypeError) as exc:
            self.recorder.count("service/jobs-rejected")
            return protocol.error_response(
                protocol.ERR_BAD_INPUT, str(exc), verb="submit",
            )
        if (aig_a.num_inputs != aig_b.num_inputs
                or aig_a.num_outputs != aig_b.num_outputs):
            self.recorder.count("service/jobs-rejected")
            return protocol.error_response(
                protocol.ERR_BAD_INPUT,
                "interface mismatch: %dx%d vs %dx%d inputs/outputs"
                % (aig_a.num_inputs, aig_a.num_outputs,
                   aig_b.num_inputs, aig_b.num_outputs),
                verb="submit",
            )
        if self.cache is not None:
            with job_recorder.phase("cache/lookup"):
                cached = self.cache.lookup(key)
            self.metrics.observe(
                "cache/lookup-seconds",
                job_recorder.phase_seconds("cache/lookup"),
                buckets=TIME_BUCKETS, unit="seconds",
            )
            if cached is not None:
                self.recorder.count("service/cache-hits")
                job = self.jobs.add_terminal(key=key)
                job.recorder = job_recorder
                job.span_id = job_span_id
                job.trace_parent = context.parent_id
                self._assemble_job_telemetry(
                    job, verdict=_verdict_of(cached), cached=True,
                )
                job.finish(
                    _verdict_of(cached), cached, worker_stats=None,
                    cached=True,
                )
                self._note_job_done(job)
                self.jobs.note_terminal(job)
                return protocol.ok_response(
                    "submit", job=job.id, state=job.state, cached=True,
                    verdict=job.verdict,
                )
            self.recorder.count("service/cache-misses")
        try:
            job = self.jobs.admit(key=key)
        except QueueFullError as exc:
            self.recorder.count("service/queue-rejects")
            return protocol.error_response(
                protocol.ERR_QUEUE_FULL, str(exc), verb="submit",
                queue_limit=self.jobs.queue_limit,
            )
        job.recorder = job_recorder
        job.span_id = job_span_id
        job.trace_parent = context.parent_id
        job.job_stats = job_recorder.report()
        if self._progress_dir is not None:
            job.progress_path = os.path.join(
                self._progress_dir, "%s.jsonl" % job.id
            )
        payload = {
            "aag_a": request["aag_a"],
            "aag_b": request["aag_b"],
            "options": request.get("options") or {},
            "time_limit": request.get(
                "time_limit", self.default_time_limit
            ),
            "conflict_limit": request.get(
                "conflict_limit", self.default_conflict_limit
            ),
            "certify": bool(request.get("certify")),
            "lint": bool(request.get("lint")),
            "trim": bool(request.get("trim", True)),
            # Worker-side phases become spans of the same trace,
            # parented under this job's root span.
            "trace": context.child(job_span_id).to_wire(),
            # Live heartbeat spool (None disables progress in the
            # worker).
            "progress_path": job.progress_path,
            "progress_interval": self.progress_interval,
        }
        job.mark_running()
        try:
            job.future = self.executor.submit(execute_job, payload)
        except RuntimeError as exc:  # pool already shut down or broken
            self.jobs.release(job)
            job.fail(protocol.ERR_SHUTTING_DOWN, str(exc))
            self.jobs.note_terminal(job)
            return protocol.error_response(
                protocol.ERR_SHUTTING_DOWN, str(exc), verb="submit",
            )
        # The pool calls back on its own thread (or, for a cancel, on
        # this one); either way the job itself is finished on the loop.
        job.future.add_done_callback(
            lambda future, job=job: self._loop.call_soon_threadsafe(
                self._on_job_finished, job, future,
            )
        )
        log.info(
            "job %s admitted (queue depth %d)",
            job.id, self.jobs.pending(),
            extra={"job_id": job.id, "trace_id": context.trace_id},
        )
        self.recorder.gauge("service/queue-depth", self.jobs.pending())
        return protocol.ok_response(
            "submit", job=job.id, state=QUEUED, cached=False,
            queue_depth=self.jobs.pending(),
        )

    def _on_job_finished(self, job, future):
        # The try/finally guarantees the job always reaches a terminal
        # state (otherwise result --wait clients would heartbeat
        # forever).
        self.jobs.release(job)
        try:
            self._finalize_job(job, future)
        finally:
            self._harvest_progress(job)
            if not job.is_terminal:
                job.fail(protocol.ERR_WORKER_FAILED,
                         "internal error while finalizing the job")
                self.recorder.count("service/jobs-failed")
            self.jobs.note_terminal(job)
            if job.state != DONE:
                error = job.error or {}
                log.warning(
                    "job %s %s: %s", job.id, job.state,
                    error.get("message", "no detail"),
                    extra={"job_id": job.id,
                           "trace_id": _trace_id_of(job)},
                )

    def _finalize_job(self, job, future):
        if future.cancelled():
            job.fail(protocol.ERR_CANCELLED, "job was cancelled",
                     cancelled=True)
            self.recorder.count("service/jobs-cancelled")
            return
        exc = future.exception()
        if exc is not None:
            job.fail(protocol.ERR_WORKER_FAILED,
                     "%s: %s" % (type(exc).__name__, exc))
            self.recorder.count("service/jobs-failed")
            return
        response = future.result()
        if not response.get("ok"):
            error = response.get("error") or {}
            job.fail(error.get("code", protocol.ERR_WORKER_FAILED),
                     error.get("message", "worker reported failure"))
            self.recorder.count("service/jobs-failed")
            return
        # Fold the worker's telemetry into the server-wide aggregates:
        # phase timings and counters into the stats report, histogram
        # observations into the cross-process metrics registry.
        worker_stats = response.get("stats")
        if isinstance(worker_stats, dict):
            try:
                self.recorder.merge_report(worker_stats)
            except (KeyError, TypeError, ValueError):
                self.recorder.count("service/stats-merge-failures")
        worker_metrics = response.get("metrics")
        if isinstance(worker_metrics, dict):
            try:
                self.metrics.merge_report(worker_metrics)
            except (KeyError, TypeError, ValueError):
                self.recorder.count("service/metrics-merge-failures")
        # Store before marking the job terminal: a client that sees the
        # result and immediately re-submits must find the cache entry.
        # A cache failure is an operational problem, not a job failure:
        # the verdict is still valid and must still be delivered.
        if (self.cache is not None and job.key is not None
                and response["result"].get("equivalent") is not None):
            try:
                with job.recorder.phase("cache/store"):
                    self.cache.store(
                        job.key, response["result"],
                        meta={"job": job.id,
                              "verdict": response["verdict"]},
                    )
            except OSError as store_exc:
                self.recorder.count("service/cache-store-failures")
                log.warning(
                    "cache store failed for job %s: %s",
                    job.id, store_exc,
                    extra={"job_id": job.id,
                           "trace_id": _trace_id_of(job)},
                )
        self._assemble_job_telemetry(
            job, verdict=response["verdict"], cached=False,
            worker_trace=response.get("trace"),
        )
        job.finish(
            response["verdict"], response["result"],
            worker_stats=worker_stats, cached=False,
        )
        self._note_job_done(job)

    def _assemble_job_telemetry(
        self, job, verdict, cached, worker_trace=None,
    ):
        """Record the job's spans, stats block, and latency metrics.

        Must run before :meth:`Job.finish`: waiting result handlers
        read ``job.trace``/``job.job_stats`` as soon as the job ends.
        """
        self.metrics.observe(
            "service/job-seconds", job.elapsed_seconds(),
            buckets=TIME_BUCKETS, unit="seconds",
        )
        recorder = job.recorder
        if recorder is None:
            return
        if job.started_at is not None:
            wait = job.queue_wait_seconds()
            self.metrics.observe(
                "service/queue-wait-seconds", wait,
                buckets=TIME_BUCKETS, unit="seconds",
            )
            recorder.add_time("service/queue-wait", wait)
            self.recorder.add_time("service/queue-wait", wait)
            recorder.add_span(
                "service/queue-wait", wait, ts=job.submitted_at,
                parent_id=job.span_id, job=job.id,
            )
        # The job's root span covers submission to completion and
        # carries the id every other server/worker span parents under.
        recorder.add_span(
            "service/job", job.elapsed_seconds(), ts=job.submitted_at,
            span_id=job.span_id, parent_id=job.trace_parent,
            job=job.id, cached=cached, verdict=verdict,
        )
        job.job_stats = recorder.report()
        trace = recorder.trace_report()
        if isinstance(worker_trace, dict):
            try:
                trace = merge_trace_documents(trace, worker_trace)
            except (KeyError, TypeError, ValueError):
                self.recorder.count("service/trace-merge-failures")
        job.trace = trace

    def _note_job_done(self, job):
        self.recorder.count("service/jobs-completed")
        self.recorder.count("service/verdict-%s" % job.verdict)
        self.recorder.add_time("service/job", job.elapsed_seconds())
        self.recorder.gauge("service/queue-depth", self.jobs.pending())
        log.info(
            "job %s done verdict=%s cached=%s elapsed=%.3fs",
            job.id, job.verdict, job.cached, job.elapsed_seconds(),
            extra={"job_id": job.id, "trace_id": _trace_id_of(job)},
        )

    # ------------------------------------------------------------------
    # status / result / cancel
    # ------------------------------------------------------------------

    def _get_job(self, request, verb):
        job_id = request.get("job")
        job = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            return None, protocol.error_response(
                protocol.ERR_UNKNOWN_JOB, "unknown job %r" % (job_id,),
                verb=verb,
            )
        return job, None

    async def handle_status(self, request, send):
        job, error = self._get_job(request, "status")
        if error is not None:
            return error
        return protocol.ok_response("status", **job.snapshot())

    async def handle_result(self, request, send):
        job, error = self._get_job(request, "result")
        if error is not None:
            return error
        wait = bool(request.get("wait"))
        timeout = request.get("timeout")
        deadline = None
        if wait and timeout is not None:
            deadline = self._loop.time() + timeout
        ended = self._ended(job) if wait else None
        while wait and not job.is_terminal:
            budget = self.poll_interval
            if deadline is not None:
                budget = min(budget, deadline - self._loop.time())
                if budget <= 0:
                    return protocol.error_response(
                        protocol.ERR_TIMEOUT,
                        "job %s still %s after the wait timeout"
                        % (job.id, job.state),
                        verb="result", **job.snapshot(),
                    )
            await asyncio.wait({ended}, timeout=budget)
            if job.is_terminal:
                break
            # Heartbeats during a blocked wait carry the job's live
            # progress document so `repro-client submit --wait` shows
            # the search moving, not just "running".
            await send(protocol.ok_response(
                "result", final=False,
                progress=self._job_progress(job), **job.snapshot(),
            ))
        if not job.is_terminal:
            return protocol.ok_response("result", **job.snapshot())
        if job.state == DONE:
            return protocol.ok_response(
                "result", result=job.result,
                worker_stats=job.worker_stats, job_stats=job.job_stats,
                trace=job.trace, **job.snapshot(),
            )
        error = job.error or {}
        return protocol.error_response(
            error.get("code", protocol.ERR_WORKER_FAILED),
            error.get("message", "job did not complete"),
            verb="result", **job.snapshot(),
        )

    async def handle_cancel(self, request, send):
        job, error = self._get_job(request, "cancel")
        if error is not None:
            return error
        if job.is_terminal:
            return protocol.ok_response(
                "cancel", cancelled=(job.state == "cancelled"),
                **job.snapshot(),
            )
        cancelled = job.future.cancel() if job.future is not None else False
        if cancelled:
            # The completion hand-off marks the job cancelled on the
            # loop; wait for it so the response shows the final state.
            await asyncio.wait({self._ended(job)}, timeout=5.0)
        return protocol.ok_response(
            "cancel", cancelled=cancelled, **job.snapshot(),
        )

    # ------------------------------------------------------------------
    # progress (live heartbeats)
    # ------------------------------------------------------------------

    def _job_progress(self, job):
        """The job's newest ``repro-progress/1`` heartbeat, or None."""
        if job.progress is not None:
            return job.progress
        if job.progress_path is None:
            return None
        document = latest_heartbeat(job.progress_path)
        if document is None:
            return None
        document["job"] = job.id
        return document

    def _harvest_progress(self, job):
        """Cache the final heartbeat on the job and drop its spool."""
        path = job.progress_path
        if path is None:
            return
        document = latest_heartbeat(path)
        if document is not None:
            document["job"] = job.id
            job.progress = document
        remove_spool(path)
        job.progress_path = None

    async def handle_progress(self, request, send):
        """The ``progress`` verb: one job's latest heartbeat, or —
        without a ``job`` field — a listing of every active job (plus
        the most recent completions) with their heartbeats."""
        if request.get("job") is None:
            jobs = []
            for job in self.jobs.active():
                entry = job.snapshot()
                entry["progress"] = self._job_progress(job)
                jobs.append(entry)
            for job in self.jobs.recent_terminal():
                entry = job.snapshot()
                entry["progress"] = job.progress
                jobs.append(entry)
            return protocol.ok_response(
                "progress", jobs=jobs, queue_depth=self.jobs.pending(),
            )
        job, error = self._get_job(request, "progress")
        if error is not None:
            return error
        return protocol.ok_response(
            "progress", progress=self._job_progress(job),
            **job.snapshot(),
        )

    # ------------------------------------------------------------------
    # cache verbs (repro-fleet/1)
    # ------------------------------------------------------------------

    def _cache_key_of(self, request, verb):
        """``(key, None)`` or ``(None, error response)``."""
        if self.cache is None:
            return None, protocol.fleet_error(
                protocol.ERR_NO_CACHE,
                "server runs without a proof cache", verb=verb,
            )
        key = request.get("key")
        if not isinstance(key, str) or not key:
            return None, protocol.fleet_error(
                protocol.ERR_INVALID_REQUEST,
                "cache verbs need a string 'key'", verb=verb,
            )
        return key, None

    async def handle_cache(self, request, send):
        """``cache`` without a key answers lookup/store statistics;
        with a key it is a metadata probe. This is the one code path
        behind both a fleet's cross-shard fetch and ``repro-client
        cache``."""
        if self.cache is not None and request.get("key") is None:
            return protocol.fleet_response(
                "cache",
                entries=len(self.cache.keys()),
                hits=self.recorder.counter("cache/hits"),
                misses=self.recorder.counter("cache/misses"),
                stores=self.recorder.counter("cache/stores"),
            )
        key, error = self._cache_key_of(request, "cache")
        if error is not None:
            return error
        self.recorder.count("service/cache-probes")
        meta = self.cache.read_meta(key)
        found = key in self.cache
        return protocol.fleet_response(
            "cache", key=key, found=found, meta=meta if found else None,
        )

    async def handle_cache_get(self, request, send):
        """Ship the stored result document for a key."""
        key, error = self._cache_key_of(request, "cache-get")
        if error is not None:
            return error
        self.recorder.count("service/cache-remote-gets")
        result = self.cache.lookup(key)
        if result is None:
            return protocol.fleet_response(
                "cache-get", key=key, found=False,
            )
        return protocol.fleet_response(
            "cache-get", key=key, found=True, result=result,
            meta=self.cache.read_meta(key),
        )

    async def handle_cache_put(self, request, send):
        """Install a peer's content-addressed result document."""
        key, error = self._cache_key_of(request, "cache-put")
        if error is not None:
            return error
        result = request.get("result")
        if not isinstance(result, dict):
            return protocol.fleet_error(
                protocol.ERR_BAD_INPUT,
                "cache-put needs a 'result' document", verb="cache-put",
            )
        meta = request.get("meta")
        if meta is not None and not isinstance(meta, dict):
            return protocol.fleet_error(
                protocol.ERR_BAD_INPUT,
                "cache-put 'meta' must be a mapping", verb="cache-put",
            )
        try:
            stored = self.cache.store(key, result, meta=meta)
        except ValueError as exc:  # undecided results are never cached
            return protocol.fleet_error(
                protocol.ERR_BAD_INPUT, str(exc), verb="cache-put",
            )
        except OSError as exc:
            self.recorder.count("service/cache-store-failures")
            return protocol.fleet_error(
                protocol.ERR_CACHE_STORE_FAILED, str(exc), verb="cache-put",
            )
        self.recorder.count("service/cache-remote-puts")
        return protocol.fleet_response("cache-put", key=key, stored=stored)


def _trace_id_of(job):
    recorder = getattr(job, "recorder", None)
    context = recorder.trace_context if recorder is not None else None
    return context.trace_id if context is not None else None


def _verdict_of(result_doc):
    return {True: "equivalent", False: "not_equivalent"}.get(
        result_doc.get("equivalent"), "undecided"
    )
