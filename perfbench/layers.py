"""Per-layer metrics of a traced run, named by the program's modules.

Spans come from the benchmark's side only: :func:`make_tracer` wraps
public entry points (``build_miter``, ``tseitin_encode``, the
``Simulator`` pattern methods, ``Solver.solve``, ``SweepEngine.sweep``,
the ``check_proof`` that ``certify`` calls) and the workloads open spans
around the calls they make themselves. Counts are read from the result
objects the public API returns, so they repeat exactly for one seed.

Layer times (``*_ms`` of a code layer) are totals over the traced pass;
``service.*`` and ``fleet.*`` times are medians per request. A metric a
workload does not exercise is reported as 0.
"""

#: Every per-layer metric with its unit, in reporting order.
METRICS = [
    ("startup.import_ms", "ms"),
    ("startup.repro_modules", "count"),
    ("aig.parse_ms", "ms"),
    ("aig.and_nodes", "count"),
    ("aig.miter_ms", "ms"),
    ("aig.simulate_ms", "ms"),
    ("aig.sim_passes", "count"),
    ("aig.cache_key_ms", "ms"),
    ("cnf.encode_ms", "ms"),
    ("cnf.clauses", "count"),
    ("sat.solve_ms", "ms"),
    ("sat.calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.mprops_per_s", "1e6/s"),
    ("core.sweep_ms", "ms"),
    ("core.sweep_self_ms", "ms"),
    ("core.merges_structural", "count"),
    ("core.merges_sat", "count"),
    ("core.sat_useful_frac", "frac"),
    ("core.certify_ms", "ms"),
    ("core.serialize_ms", "ms"),
    ("core.result_doc_kb", "KiB"),
    ("core.res_ratio_geomean", "x"),
    ("proof.trim_ms", "ms"),
    ("proof.trim_kept_frac", "frac"),
    ("proof.logged_clauses", "count"),
    ("proof.check_ms", "ms"),
    ("proof.kres_per_s", "1e3/s"),
    ("proof.write_ms", "ms"),
    ("service.rtt_ms", "ms"),
    ("fleet.router_hop_ms", "ms"),
    ("service.submit_ack_ms", "ms"),
    ("service.hit_ms", "ms"),
    ("service.miss_ms", "ms"),
    ("service.miss_overhead_ms", "ms"),
    ("service.cache_lookup_ms", "ms"),
    ("service.cache_store_ms", "ms"),
    ("service.cache_hit_frac", "frac"),
    ("service.worker_jobs", "count"),
    ("fleet.jobs_routed", "count"),
    ("trace.overhead_frac", "frac"),
    ("host.calib_ms", "ms"),
]

#: Counts that must repeat exactly across traced runs of one seed.
EXACT = (
    "aig.and_nodes", "aig.sim_passes", "cnf.clauses", "sat.calls",
    "sat.conflicts", "sat.propagations", "core.merges_structural",
    "core.merges_sat", "core.sat_useful_frac", "core.res_ratio_geomean",
    "proof.trim_kept_frac", "proof.logged_clauses",
    "service.cache_hit_frac", "service.worker_jobs", "fleet.jobs_routed",
)


def make_tracer():
    """A :class:`~harness.Tracer` wrapping the engine's public layers."""
    import importlib

    from harness import Tracer
    from repro.aig.simulate import Simulator
    from repro.sat.solver import Solver

    # ``repro.core`` re-exports functions named like its modules, so the
    # modules are looked up by name.
    cec, certify, fraig = (
        importlib.import_module("repro.core." + name)
        for name in ("cec", "certify", "fraig")
    )
    tracer = Tracer()
    tracer.wrap(cec, "build_miter", "aig.miter")
    tracer.wrap(fraig, "tseitin_encode", "cnf.encode")
    for method in ("add_random_patterns", "add_patterns", "add_pattern",
                   "set_patterns"):
        tracer.wrap(Simulator, method, "aig.simulate")
    tracer.wrap(Solver, "solve", "sat.solve")
    tracer.wrap(fraig.SweepEngine, "sweep", "core.sweep")
    tracer.wrap(certify, "check_proof", "proof.check")
    return tracer


class EngineCounts:
    """Exact counters summed over the check results of one pass."""

    def __init__(self):
        self.values = dict.fromkeys((
            "conflicts", "propagations", "structural", "sat_merges",
            "sat_calls", "sat_unsat", "sim_passes", "cnf_clauses",
            "logged", "kept", "resolutions_checked", "and_nodes",
        ), 0)

    def add_check(self, result):
        engine = result.engine
        values = self.values
        values["conflicts"] += engine.solver.stats.conflicts
        values["propagations"] += engine.solver.stats.propagations
        values["structural"] += engine.stats.structural_merges
        values["sat_merges"] += engine.stats.sat_merges
        values["sat_calls"] += engine.stats.sat_calls
        values["sat_unsat"] += engine.stats.sat_calls_unsat
        values["sim_passes"] += engine.stats.sim_passes
        values["cnf_clauses"] += len(engine.enc.cnf.clauses)

    def add_trim(self, logged, kept):
        self.values["logged"] += logged
        self.values["kept"] += kept


def engine_metrics(tracer, counts):
    """Metrics of the miter/CNF/simulation/SAT/sweep/proof layers."""
    values = counts.values
    solve_ms = tracer.total_ms("sat.solve")
    check_ms = tracer.total_ms("proof.check")
    return {
        "aig.miter_ms": tracer.total_ms("aig.miter"),
        "aig.simulate_ms": tracer.total_ms("aig.simulate"),
        "aig.sim_passes": values["sim_passes"],
        "cnf.encode_ms": tracer.total_ms("cnf.encode"),
        "cnf.clauses": values["cnf_clauses"],
        "sat.solve_ms": solve_ms,
        "sat.calls": tracer.count("sat.solve"),
        "sat.conflicts": values["conflicts"],
        "sat.propagations": values["propagations"],
        "sat.mprops_per_s": (
            values["propagations"] / solve_ms / 1000.0 if solve_ms else 0.0
        ),
        "core.sweep_ms": tracer.total_ms("core.sweep"),
        "core.sweep_self_ms": tracer.self_ms("core.sweep"),
        "core.merges_structural": values["structural"],
        "core.merges_sat": values["sat_merges"],
        "core.sat_useful_frac": (
            values["sat_unsat"] / values["sat_calls"]
            if values["sat_calls"] else 0.0
        ),
        "core.certify_ms": tracer.total_ms("core.certify"),
        "proof.trim_ms": tracer.total_ms("proof.trim"),
        "proof.trim_kept_frac": (
            values["kept"] / values["logged"] if values["logged"] else 0.0
        ),
        "proof.logged_clauses": values["logged"],
        "proof.check_ms": check_ms,
        "proof.kres_per_s": (
            values["resolutions_checked"] / check_ms if check_ms else 0.0
        ),
        "proof.write_ms": tracer.total_ms("proof.write"),
    }


def complete(metrics):
    """*metrics* with every :data:`METRICS` name present (0 = unused)."""
    unknown = set(metrics) - {name for name, _ in METRICS}
    if unknown:
        raise KeyError("undeclared per-layer metrics: %s" % sorted(unknown))
    return {name: metrics.get(name, 0) for name, _ in METRICS}
