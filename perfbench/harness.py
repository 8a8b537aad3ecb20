"""Shared machinery of the benchmark: timing, spans, statistics, processes.

Nothing here imports ``repro``; the workload modules do, after ``run.py``
has put the checkout's ``src`` directory on ``sys.path``.
"""

import contextlib
import functools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for inputs, sockets and caches (removed after each run).
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
#: Span dumps of traced runs.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Bound on one operation; a slower op is counted as failed.
OP_TIMEOUT_S = 60.0
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Added to every reported ``fail_frac``: a metric that reads 0 has no
#: relative bound, so a clean run reads 0.001 and a first failure in a
#: few hundred ops still breaks the bound. The exact rate is
#: ``failed``/``attempted`` of the same result line.
FAIL_FLOOR = 1e-3


class OpTimeout(Exception):
    """An operation ran past :data:`OP_TIMEOUT_S`."""


class OpFailure(Exception):
    """An operation returned a wrong, missing or unverifiable answer."""


@contextlib.contextmanager
def deadline(seconds=OP_TIMEOUT_S):
    """Raise :class:`OpTimeout` in the main thread after *seconds*."""

    def expire(signum, frame):
        raise OpTimeout("operation exceeded %.0f s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env():
    """Environment for ``repro`` subprocesses: the checkout's sources, and
    temporary files (such as the servers' progress spools) kept inside
    the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = WORK_DIR
    env.pop("PYTHONSTARTUP", None)
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def tail(values):
    """``(value, percentile, beyond)``: the highest percentile of *values*
    with at least ten samples above it; the maximum when there are ten
    or fewer samples."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, 0
    return ordered[count - 11], 100.0 * (count - 10) / count, 10


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median_time(fn, repeats):
    """Median wall seconds of *repeats* calls of *fn*."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Host facts (recorded with every run so drift can be told apart)
# ----------------------------------------------------------------------

def _calibration_loop():
    total = 0
    for i in range(200_000):
        total += i * i & 7
    return total


def host_info(seed):
    """nproc, Python version, seed, and a fixed pure-Python loop's time."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "calib_ms": 1000.0 * median_time(_calibration_loop, 5),
    }


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------

def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb():
    """Peak RSS of the largest reaped descendant."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def tree_peak_rss_mb(pids):
    """Largest ``VmHWM`` over *pids* and all their live descendants."""
    best = 0.0
    stack = list(pids)
    seen = set()
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        try:
            with open("/proc/%d/status" % pid) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        best = max(best, int(line.split()[1]) / 1024.0)
            for tid in os.listdir("/proc/%d/task" % pid):
                with open("/proc/%d/task/%s/children" % (pid, tid)) as handle:
                    stack.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue
    return best


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

def stop_process(proc, grace=5.0):
    """Wait for *proc* to exit; terminate, then kill, if it lingers."""
    for action in (None, proc.terminate, proc.kill):
        if action is not None:
            try:
                action()
            except OSError:
                pass
        try:
            proc.wait(timeout=grace)
            return
        except subprocess.TimeoutExpired:
            continue
    proc.wait()


def python_probe(code, repeats):
    """Median wall seconds of ``python -c CODE`` in a fresh interpreter."""
    env = child_env()

    def once():
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            stdout=subprocess.DEVNULL, timeout=OP_TIMEOUT_S,
        )

    return median_time(once, repeats)


def startup_metrics(repeats=5):
    """``startup.*``: import cost of the CLI and the modules it loads."""
    env = child_env()
    import_s = python_probe("import repro.cli", repeats)
    bare_s = python_probe("pass", repeats)
    listing = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print(sum(1 for m in sys.modules "
         "if m == 'repro' or m.startswith('repro.')))"],
        env=env, check=True, capture_output=True, text=True,
        timeout=OP_TIMEOUT_S,
    )
    return {
        "startup.import_ms": 1000.0 * (import_s - bare_s),
        "startup.repro_modules": int(listing.stdout.strip()),
    }


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    Each span is ``[name, start, end, parent_index, op_id]``; parents
    follow the (single-threaded) call nesting. :meth:`wrap` replaces a
    module or class attribute with a spanning wrapper for the duration
    of :meth:`installed`.
    """

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name):
        """Span every call of ``owner.attr`` under *name* once installed."""
        self._patches.append((owner, attr, name))

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for owner, attr, name in self._patches:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._spanning(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _spanning(self, fn, name):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    # -- aggregation ---------------------------------------------------

    def _outermost(self, name):
        """Spans of *name* with no ancestor of the same name."""
        spans = self.spans
        for record in spans:
            if record[0] != name:
                continue
            parent = record[3]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                yield record

    def count(self, name):
        return sum(1 for _ in self._outermost(name))

    def total_ms(self, name):
        return 1000.0 * sum(r[2] - r[1] for r in self._outermost(name))

    def self_ms(self, name):
        """Time inside *name* spans not covered by their child spans."""
        child_time = {}
        for record in self.spans:
            if record[3] >= 0:
                child_time[record[3]] = (
                    child_time.get(record[3], 0.0) + record[2] - record[1]
                )
        return 1000.0 * sum(
            record[2] - record[1] - child_time.get(index, 0.0)
            for index, record in enumerate(self.spans)
            if record[0] == name
        )

    def dump(self, path):
        """Write the spans as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op_id) in enumerate(
                    self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id,
                }) + "\n")


class _NullTracer:
    """Stands in for :class:`Tracer` in untraced passes: records nothing."""

    op_id = None

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()


def paired_passes(ops, one, tracer, counts):
    """Run every op untraced and then traced, back to back.

    Pairing the two runs of each op keeps host drift out of the tracing
    overhead, and alternating which runs first cancels warm-up effects.
    ``one(slot, op, tracer, counts)`` runs one op and returns what the
    oracle needs; *counts* is None on the untraced run.

    Returns ``(untraced_s, traced_s, outputs of the traced runs, failed)``.
    """
    times = [0.0, 0.0]
    outputs = []
    failed = 0
    for slot, op in enumerate(ops):
        for traced in ((False, True) if slot % 2 else (True, False)):
            start = time.perf_counter()
            try:
                with deadline():
                    if traced:
                        tracer.op_id = slot
                        with tracer.installed():
                            output = one(slot, op, tracer, counts)
                        outputs.append((slot, op, output))
                    else:
                        one(slot, op, NULL_TRACER, None)
            except Exception as exc:  # counted, reported, never raised
                print("# traced-run op %s failed: %r" % (op.name, exc),
                      file=sys.stderr)
                failed += 1
            times[traced] += time.perf_counter() - start
    tracer.op_id = None
    return times[0], times[1], outputs, failed
