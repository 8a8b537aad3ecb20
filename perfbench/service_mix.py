"""service-mix: submit→verdict through ``repro-router`` and two shards.

The router and two ``repro-serve --workers 1`` shards are started through
their CLIs on Unix sockets in the run's scratch directory, each shard
with a fresh cache directory. One client connection drives a closed
loop; an op is one ``submit`` followed by ``result --wait``. The seeded
mix holds repeats of a small hot set of suite pairs (cache-hit reads,
warmed during set-up), fresh restructured adders (misses: dispatch,
worker solve, trim, cache-store writes) and fresh non-equivalent
mutants.
"""

import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time

import inputs
import layers
import oracle
from harness import (
    NULL_TRACER,
    OP_TIMEOUT_S,
    OpFailure,
    child_env,
    deadline,
    stop_process,
    tree_peak_rss_mb,
)

NAME = "service-mix"
#: Wall time of one round on the reference host (2 CPUs). Every round
#: brings its own fresh misses and mutants.
NOMINAL_ROUND_S = 15.0
SETUP_IMPORTS = ("repro.circuits", "repro.transforms.restructure",
                 "repro.baselines.bdd_cec", "repro.service.client")

#: Share of ops that are cache hits: two in three, the hit rate the
#: repo's service benchmark records (``BENCH_service.json``,
#: ``hit_rate`` 0.6667: one cold pass, then two warm passes). Every
#: other proportion below is a synthetic choice (see METRICS.md).
HIT_SHARE = 2 / 3
#: Small suite pairs repeated as cache hits, each equally often. The set
#: and the counts are fixed so that hit costs and the proof clauses hits
#: deliver do not swing with the seed; the seed orders the repeats.
HOT_SET = ("add08", "cmp10", "alu06", "smaj09")
#: Fresh ops per round: equivalent misses and refutable mutants.
MISSES = 50
MUTANTS = 30
#: Adder widths of the misses and mutants, used in rotation.
WIDTHS = (10, 11, 12)
#: Misses replayed in-process to split their latency (traced run only).
OVERHEAD_SAMPLES = 12
PINGS = 20
START_TIMEOUT_S = 30.0


class Served:
    __slots__ = ("cached", "ack_s", "doc")

    def __init__(self, cached, ack_s, doc):
        self.cached = cached
        self.ack_s = ack_s
        self.doc = doc


class Fleet:
    """A router over two shards, started through their CLIs."""

    def __init__(self, workdir):
        # Relative socket paths stay short whatever the checkout's path.
        base = os.path.relpath(workdir)
        self.shards = [os.path.join(base, "s%d.sock" % i) for i in range(2)]
        self.router = os.path.join(base, "r.sock")
        self.procs = []
        self._logs = []
        self.client = None
        env = child_env()
        commands = [
            ["repro.service.serve_cli", "--listen", address, "--workers",
             "1", "--cache", os.path.join(base, "cache%d" % i),
             "--log-level", "warning"]
            for i, address in enumerate(self.shards)
        ]
        commands.append(
            ["repro.fleet.router_cli", "--listen", self.router,
             "--shard", self.shards[0], "--shard", self.shards[1],
             "--log-level", "warning"])
        try:
            for i, command in enumerate(commands):
                log = open(os.path.join(base, "log%d.txt" % i), "w")
                self._logs.append(log)
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-m"] + command, env=env,
                    stdout=log, stderr=subprocess.STDOUT))
            start = time.perf_counter()
            for address in self.shards + [self.router]:
                self._await_ping(address, start)
            self.client = self.direct(self.router)
        except BaseException:
            self.close()
            raise

    def _await_ping(self, address, start):
        while True:
            try:
                with self.direct(address, timeout=5.0) as probe:
                    probe.ping()
                return
            except OSError:
                if time.perf_counter() - start > START_TIMEOUT_S:
                    raise RuntimeError("%s did not answer ping" % address)
                time.sleep(0.02)

    def direct(self, address, timeout=OP_TIMEOUT_S):
        """A client of *address* that does not retry failed connects."""
        from repro.service.client import ServiceClient

        return ServiceClient(address, timeout=timeout, retries=0)

    def counters(self):
        """(router counters, summed shard counters)."""
        with self.direct(self.router) as client:
            router = client.stats().get("counters", {})
        shards = {}
        for address in self.shards:
            with self.direct(address) as client:
                for name, value in client.stats().get("counters", {}).items():
                    shards[name] = shards.get(name, 0) + value
        return router, shards

    def close(self):
        if self.client is not None:
            self.client.close()
        for address in [self.router] + self.shards:
            try:
                with self.direct(address, timeout=5.0) as control:
                    control.shutdown()
            except Exception:  # already gone or never started
                pass
        for proc in self.procs:
            stop_process(proc)
        for log in self._logs:
            log.close()


class State:
    def __init__(self, workdir, hot, ops):
        self.workdir = workdir
        self.hot = hot
        self.ops = ops
        self.fleet = None
        self.restarts = 0
        #: (pair name, proof digest) -> (clauses, resolutions replayed);
        #: cache hits deliver the same proof again and again.
        self.replays = {}

    def start_fleet(self):
        """A fresh fleet with empty caches and the hot set warmed."""
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None
        workdir = os.path.join(self.workdir, "f%d" % self.restarts)
        self.restarts += 1
        os.makedirs(workdir)
        self.fleet = Fleet(workdir)
        for pair in self.hot:
            with deadline():
                served = _request(self.fleet.client, pair, NULL_TRACER)
            if served.doc.get("equivalent") is not True:
                raise RuntimeError("warm-up of %s failed" % pair.name)

    def close(self):
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None


def prepare(seed, workdir, rounds):
    from repro.circuits import by_name
    from repro.circuits import generators as gen

    rng = random.Random(seed)
    hot = [inputs.Pair(name, "eq", *by_name(name).build())
           for name in HOT_SET]
    fresh = MISSES + MUTANTS
    hits = round(HIT_SHARE / (1.0 - HIT_SHARE) * fresh)
    ops = [hot[index % len(hot)] for index in range(hits * rounds)]
    for index in range(fresh * rounds):
        width = WIDTHS[index % len(WIDTHS)]
        variant_seed = rng.randrange(1 << 30)
        golden = gen.ripple_carry_adder(width)
        variant = inputs.restructured(gen.carry_lookahead_adder(width),
                                      variant_seed)
        name = "add%02d~r%d" % (width, variant_seed)
        if index % fresh < MISSES:
            ops.append(inputs.Pair(name, "eq", golden, variant))
        else:
            ops.append(inputs.Pair(name + "-m", "neq", golden,
                                   inputs.mutant(rng, golden, variant)))
    rng.shuffle(ops)
    state = State(workdir, hot, ops)
    try:
        state.start_fleet()
    except BaseException:
        state.close()
        raise
    return state


def _request(client, pair, tracer):
    """submit → result --wait; a broken exchange drops the connection."""
    try:
        with tracer.span("service.submit"):
            start = time.perf_counter()
            submitted = client.submit(pair.text_a, pair.text_b)
            ack_s = time.perf_counter() - start
        with tracer.span("service.result"):
            response = client.result(submitted["job"], wait=True)
    except BaseException:
        client.close()
        raise
    return Served(bool(submitted.get("cached")), ack_s, response["result"])


def _slim(doc):
    """The parts of a result document the oracle reads."""
    return {field: doc.get(field)
            for field in ("equivalent", "counterexample", "proof")}


def run_op(state, op, slot):
    served = _request(state.fleet.client, op, NULL_TRACER)
    served.doc = _slim(served.doc)
    return served


def verify(state, op, slot, served):
    """Check one served document; returns its proof's clause count."""
    from repro.proof.tracecheck import parse_tracecheck

    doc = served.doc
    if op.kind == "neq":
        if doc.get("equivalent") is not False:
            raise OpFailure("verdict %r on a mutant" % doc.get("equivalent"))
        oracle.check_counterexample(op.aig_a, op.aig_b,
                                    doc.get("counterexample"))
        return 0
    if doc.get("equivalent") is not True or not doc.get("proof"):
        raise OpFailure("verdict %r on an equivalent pair"
                        % doc.get("equivalent"))
    key = (op.name, hashlib.sha1(doc["proof"].encode()).hexdigest())
    if key not in state.replays:
        store, _ = parse_tracecheck(doc["proof"])
        state.replays[key] = (len(store), oracle.replay(store, op.axioms()))
    return state.replays[key][0]


def peak_rss_mb(state):
    return tree_peak_rss_mb([proc.pid for proc in state.fleet.procs])


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

def _client_pass(state, tracer, full_docs):
    """Every op once; returns (seconds, outcomes, failed).

    The first full document served for each pair is kept in *full_docs*;
    outcomes keep only what the oracle reads.
    """
    outcomes = []
    failed = 0
    start = time.perf_counter()
    for slot, op in enumerate(state.ops):
        tracer.op_id = slot
        begun = time.perf_counter()
        try:
            with deadline(), tracer.span("service.request"):
                served = _request(state.fleet.client, op, tracer)
        except Exception as exc:  # counted, reported, never raised
            print("# traced op %s failed: %r" % (op.name, exc),
                  file=sys.stderr)
            failed += 1
            continue
        latency = time.perf_counter() - begun
        full_docs.setdefault(op.name, served.doc)
        served.doc = _slim(served.doc)
        outcomes.append((slot, op, served, latency))
    tracer.op_id = None
    return time.perf_counter() - start, outcomes, failed


def _median_ping_ms(address, fleet):
    samples = []
    with fleet.direct(address) as client:
        client.ping()
        for _ in range(PINGS):
            start = time.perf_counter()
            client.ping()
            samples.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(samples)


def _median_ms(values):
    return 1000.0 * statistics.median(values) if values else 0.0


def _side_layers(state, outcomes, full_docs):
    """Layers the benchmark calls itself: parsing and cache keys of every
    submitted pair, and serialization and proof-cache store/lookup of
    every distinct served document."""
    from repro.aig.aiger import read_aag
    from repro.core.serialize import result_from_dict, result_to_dict
    from repro.service.cache import ProofCache, cache_key

    parse_s = key_s = 0.0
    and_nodes = 0
    for slot, op, served, _ in outcomes:
        start = time.perf_counter()
        aig_a = read_aag(io.StringIO(op.text_a))
        aig_b = read_aag(io.StringIO(op.text_b))
        parse_s += time.perf_counter() - start
        and_nodes += aig_a.num_ands + aig_b.num_ands
        start = time.perf_counter()
        cache_key(aig_a, aig_b)
        key_s += time.perf_counter() - start
    serialize_s = 0.0
    doc_bytes = 0
    lookups, stores = [], []
    scratch = ProofCache(os.path.join(state.workdir, "scratch-cache"))
    for number, doc in enumerate(full_docs.values()):
        result = result_from_dict(doc)
        start = time.perf_counter()
        doc_bytes += len(json.dumps(result_to_dict(result)))
        serialize_s += time.perf_counter() - start
        key = "%064x" % number
        start = time.perf_counter()
        scratch.store(key, doc)
        stores.append(time.perf_counter() - start)
        start = time.perf_counter()
        if scratch.lookup(key) is None:
            raise OpFailure("scratch proof cache lost an entry")
        lookups.append(time.perf_counter() - start)
    return {
        "aig.parse_ms": 1000.0 * parse_s,
        "aig.and_nodes": and_nodes,
        "aig.cache_key_ms": 1000.0 * key_s,
        "core.serialize_ms": 1000.0 * serialize_s,
        "core.result_doc_kb": doc_bytes / 1024.0 / len(full_docs),
        "service.cache_lookup_ms": _median_ms(lookups),
        "service.cache_store_ms": _median_ms(stores),
    }


def _miss_replicas(outcomes, tracer, counts):
    """Check+trim in-process the first equivalent misses; returns the
    median of (served latency - untraced in-process time) in ms. A
    second, traced replica of each feeds the engine-layer metrics."""
    from repro.core.cec import check_equivalence
    from repro.proof.trim import trim

    gaps = []
    for slot, op, served, latency in outcomes:
        if len(gaps) == OVERHEAD_SAMPLES:
            break
        if served.cached or op.kind != "eq":
            continue
        start = time.perf_counter()
        with deadline():
            result = check_equivalence(op.aig_a, op.aig_b)
            trim(result.proof)
        gaps.append(latency - (time.perf_counter() - start))
        tracer.op_id = slot
        with deadline(), tracer.installed():
            result = check_equivalence(op.aig_a, op.aig_b)
            with tracer.span("proof.trim"):
                trimmed, _ = trim(result.proof)
        counts.add_check(result)
        counts.add_trim(len(result.proof), len(trimmed))
    tracer.op_id = None
    return _median_ms(gaps)


def traced(state):
    """Per-layer metrics; returns (metrics, attempted, failed, tracer)."""
    untraced_s, _, failed = _client_pass(state, NULL_TRACER, {})
    state.start_fleet()
    fleet = state.fleet
    router_before, shards_before = fleet.counters()
    tracer = layers.make_tracer()
    full_docs = {}
    traced_s, outcomes, traced_failed = _client_pass(state, tracer,
                                                     full_docs)
    failed += traced_failed
    router_after, shards_after = fleet.counters()
    rtt_ms = _median_ping_ms(fleet.shards[0], fleet)
    hop_ms = _median_ping_ms(fleet.router, fleet) - rtt_ms

    def delta(after, before, name):
        return after.get(name, 0) - before.get(name, 0)

    checked = []
    for outcome in outcomes:
        slot, op, served, _ = outcome
        try:
            tracer.op_id = slot
            with tracer.span("proof.check"):
                verify(state, op, slot, served)
            checked.append(outcome)
        except Exception as exc:  # counted, reported, never raised
            print("# traced op %s failed: %r" % (op.name, exc),
                  file=sys.stderr)
            failed += 1
    tracer.op_id = None
    hits = [latency for _, _, served, latency in outcomes if served.cached]
    misses = [latency for _, _, served, latency in outcomes
              if not served.cached]
    counts = layers.EngineCounts()
    miss_overhead_ms = _miss_replicas(outcomes, tracer, counts)
    metrics = layers.engine_metrics(tracer, counts)
    metrics.update(_side_layers(state, checked, full_docs))
    check_ms = tracer.total_ms("proof.check")
    resolutions = sum(replayed for _, replayed in state.replays.values())
    metrics.update({
        "proof.check_ms": check_ms,
        "proof.kres_per_s": resolutions / check_ms if check_ms else 0.0,
        "service.rtt_ms": rtt_ms,
        "fleet.router_hop_ms": hop_ms,
        "service.submit_ack_ms": _median_ms(
            [served.ack_s for _, _, served, _ in outcomes]),
        "service.hit_ms": _median_ms(hits),
        "service.miss_ms": _median_ms(misses),
        "service.miss_overhead_ms": miss_overhead_ms,
        "service.cache_hit_frac": len(hits) / len(state.ops),
        "service.worker_jobs": (
            delta(shards_after, shards_before, "service/jobs-completed")
            - delta(shards_after, shards_before, "service/cache-hits")),
        "fleet.jobs_routed": delta(router_after, router_before,
                                   "fleet/jobs-routed"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    return metrics, 2 * len(state.ops), failed, tracer
