"""``repro-serve``: run the persistent CEC service.

Examples::

    repro-serve --listen 127.0.0.1:7711 --workers 4 --cache .cec-cache
    repro-serve --listen /tmp/cec.sock --time-limit 60 \\
        --stats-json server-stats.json
    repro-serve --listen 127.0.0.1:7700 \\
        --shard 127.0.0.1:7711 --shard 127.0.0.1:7712

With ``--shard`` the server runs no jobs itself: it is the fleet front
door (``repro-router``, the same program under another name), routing
each submit onto one of the shards and brokering cross-shard proof-
cache transfers. The options of the local job queue (``--workers``,
``--cache``, budgets, ...) then do not apply and are refused, as are
the fleet options without ``--shard``.

The server runs until SIGINT/SIGTERM or a client ``shutdown`` verb;
on exit it writes its ``repro-stats/1`` report (jobs, hit rate,
throughput) to ``--stats-json`` when given.

``--self-lint`` runs the ``repro.analyze`` concurrency-hazard and
schema-drift passes over the installed package before binding the
socket and refuses to start on any unwaived finding — a cheap guard
against deploying a build whose multi-process invariants have drifted.
"""

import argparse
import signal
import sys

from .. import __version__
from ..exit_codes import EXIT_INVALID_INPUT, EXIT_NEGATIVE, EXIT_OK
from ..instrument import Recorder, configure_logging, get_logger
from .server import CecServer

log = get_logger("service.serve")


def _self_lint():
    """Pre-flight: run the concurrency and schema-drift analyzers.

    Lints the installed ``repro`` package (the code that is about to
    serve requests, not the working tree) and returns ``EXIT_OK`` only
    when both passes are clean of unwaived findings.
    """
    from ..analyze.concurrency import lint_package as lint_concurrency
    from ..analyze.schema_drift import lint_package as lint_schema

    findings = list(lint_concurrency()) + list(lint_schema())
    for finding in findings:
        log.warning("self-lint: %s", finding.render())
    if findings:
        print(
            "repro-serve: self-lint found %d unwaived finding(s); "
            "refusing to start" % len(findings),
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    log.info("self-lint: concurrency and schema passes clean")
    return EXIT_OK


#: Backend options (argparse dest -> CecServer argument). Unset ones
#: take the backend's default; the other backend's are refused.
_LOCAL_OPTIONS = {
    "workers": "workers", "queue_limit": "queue_limit",
    "cache": "cache_dir", "retain_jobs": "retain_jobs",
    "time_limit": "default_time_limit",
    "conflict_limit": "default_conflict_limit",
    "progress_interval": "progress_interval",
}
_FLEET_OPTIONS = {
    "replicas": "replicas", "health_interval": "health_interval",
    "down_after": "down_after", "timeout": "shard_timeout",
}

#: Lower bounds of the numeric options that have one.
_MINIMUM = {
    "workers": 0, "queue_limit": 1, "retain_jobs": 0,
    "progress_interval": 0, "replicas": 1, "down_after": 1,
}


def build_parser(router=False):
    parser = argparse.ArgumentParser(
        prog="repro-router" if router else "repro-serve",
        description="Persistent combinational-equivalence-checking "
        "service with a job queue, worker pool, and structural-hash "
        "proof cache, or (with --shard) the consistent-hash front door "
        "of a fleet of such servers.",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__,
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:7711", metavar="ADDR",
        required=router,
        help="host:port or Unix socket path (default %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes; 0 = in-process single worker "
        "(default 1)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=None, metavar="N",
        help="maximum queued+running jobs (default 32)",
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="proof-cache directory (omit to disable caching)",
    )
    parser.add_argument(
        "--retain-jobs", type=int, default=None, metavar="N",
        help="finished jobs kept in memory for late status/result "
        "queries before eviction (default 256)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="default per-job wall-clock budget",
    )
    parser.add_argument(
        "--conflict-limit", type=int, default=None, metavar="N",
        help="default per-job solver conflict budget",
    )
    parser.add_argument(
        "--stats-json", metavar="PATH", default=None,
        help="write the server's repro-stats/1 report here on exit",
    )
    parser.add_argument(
        "--progress-interval", type=float, default=None, metavar="SECONDS",
        help="cadence of live repro-progress/1 heartbeats written by "
        "workers and served on the 'progress' verb (0 disables; "
        "default 0.25)",
    )
    parser.add_argument(
        "--shard", action="append", default=None, metavar="ADDR",
        dest="shards", required=router,
        help="route jobs to this repro-serve instead of running them "
        "(repeat once per shard)",
    )
    parser.add_argument(
        "--replicas", type=int, metavar="N",
        help="ring points per shard (default 64; every router of a "
        "fleet must agree)",
    )
    parser.add_argument(
        "--health-interval", type=float, metavar="SECONDS",
        help="seconds between background shard pings (default 2.0)",
    )
    parser.add_argument(
        "--down-after", type=int, metavar="N",
        help="consecutive failures before a shard leaves the ring "
        "(default 2)",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-line timeout talking to a shard (default 60.0)",
    )
    parser.add_argument(
        "--metrics", metavar="ADDR", default=None,
        help="serve a Prometheus /metrics endpoint on this host:port "
        "(port 0 picks a free one; omit to disable)",
    )
    parser.add_argument(
        "--self-lint", action="store_true",
        help="run the concurrency-hazard and schema-drift analyzers "
        "over the installed repro package before serving; refuse to "
        "start on any unwaived finding",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON log lines instead of plain text",
    )
    parser.add_argument(
        "--log-level", default="info", metavar="LEVEL",
        choices=("debug", "info", "warning", "error"),
        help="log verbosity (default %(default)s)",
    )
    return parser


def main(argv=None, router=False):
    parser = build_parser(router)
    prog = parser.prog
    args = parser.parse_args(argv)
    configure_logging(json_logs=args.log_json, level=args.log_level)
    if args.shards:
        accepted, refused = _FLEET_OPTIONS, _LOCAL_OPTIONS
        reason = "cannot be combined with --shard"
    else:
        accepted, refused = _LOCAL_OPTIONS, _FLEET_OPTIONS
        reason = "need --shard"
    given = [
        "--" + name.replace("_", "-") for name in sorted(refused)
        if getattr(args, name) is not None
    ]
    if given:
        print("%s: %s %s" % (prog, ", ".join(given), reason),
              file=sys.stderr)
        return EXIT_INVALID_INPUT
    for name, low in sorted(_MINIMUM.items()):
        value = getattr(args, name)
        if value is not None and value < low:
            print("%s: --%s must be >= %d"
                  % (prog, name.replace("_", "-"), low), file=sys.stderr)
            return EXIT_INVALID_INPUT
    settings = {
        argument: getattr(args, name)
        for name, argument in accepted.items()
        if getattr(args, name) is not None
    }
    if args.self_lint:
        code = _self_lint()
        if code != EXIT_OK:
            return code
    recorder = Recorder()
    try:
        server = CecServer(
            args.listen, recorder=recorder, metrics_address=args.metrics,
            shards=args.shards, **settings
        )
    except (ValueError, OSError) as exc:
        print("%s: %s" % (prog, exc), file=sys.stderr)
        return EXIT_INVALID_INPUT

    def _stop(signum, frame):
        server.shutdown()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    log.info("%s %s listening on %s (%s)", prog, __version__,
             server.address, ", ".join(
                 "%s=%s" % item for item in sorted(settings.items())
             ) or "defaults")
    if server.metrics_address is not None:
        log.info("metrics endpoint on http://%s/metrics",
                 server.metrics_address)
    try:
        server.serve_forever()
    finally:
        server.close()
        if args.stats_json:
            server.stats_report()
            recorder.write_json(args.stats_json)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
