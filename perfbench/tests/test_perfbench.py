"""Tests of the benchmark itself (not collected by the repo's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

They check that exact counts of traced runs and the ``proof_clauses`` of
timed passes repeat for one seed, that a different seed changes the
generated inputs, that ops cut off by the run guard count as failed,
that the oracle rejects bad certificates, and that the benchmark
refuses to run without the program's sources.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import sat_heavy  # noqa: E402
import service_mix  # noqa: E402
import suite_cli  # noqa: E402
from harness import OpFailure  # noqa: E402


@pytest.fixture
def tmp_path():
    """A scratch directory inside the checkout, removed afterwards."""
    os.makedirs(harness.WORK_DIR, exist_ok=True)
    path = tempfile.mkdtemp(dir=harness.WORK_DIR)
    try:
        yield pathlib.Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(harness.WORK_DIR)
        except OSError:
            pass


def _exact(metrics):
    return {name: metrics[name] for name in layers.EXACT if name in metrics}


def _traced_twice(module, tmp_path, keep, seed=3):
    """Two traced runs of the first *keep* ops of one seed's inputs."""
    runs = []
    for index in range(2):
        workdir = tmp_path / ("run%d" % index)
        workdir.mkdir()
        state = module.prepare(seed, str(workdir), 1)
        state.ops = keep(state.ops)
        try:
            metrics, attempted, failed, _ = module.traced(state)
        finally:
            state.close()
        assert failed == 0
        assert attempted == 2 * len(state.ops)
        runs.append(layers.complete(metrics))
    return runs


def _service_mix_subset(ops):
    hits = [op for op in ops if op.name in service_mix.HOT_SET][:6]
    fresh = [op for op in ops if op.name not in service_mix.HOT_SET]
    return hits + [op for op in fresh if op.kind == "eq"][:2] \
        + [op for op in fresh if op.kind == "neq"][:1]


SUBSETS = {
    "sat-heavy": (sat_heavy, lambda ops: [
        op for op in ops if op.name.startswith("add24c")][:2]),
    "suite-cli": (suite_cli, lambda ops: [
        op for op in ops if op.kind == "eq"][:3]
        + [op for op in ops if op.kind == "neq"][:2]),
    "service-mix": (service_mix, _service_mix_subset),
}


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 41))
    value, percentile, beyond = harness.tail(values)
    assert (value, percentile, beyond) == (30, 75.0, 10)
    assert sum(1 for v in values if v > value) == 10
    assert harness.tail([3, 1, 2]) == (3, 100.0, 0)


def test_sat_heavy_exact_counts_repeat(tmp_path):
    first, second = _traced_twice(
        sat_heavy, tmp_path,
        lambda ops: [op for op in ops if op.name.startswith("mul05")][:2])
    assert _exact(first) == _exact(second)
    assert first["sat.conflicts"] > 0 and first["proof.logged_clauses"] > 0


def test_suite_cli_exact_counts_repeat(tmp_path):
    first, second = _traced_twice(
        suite_cli, tmp_path,
        lambda ops: [op for op in ops if op.kind == "eq"][:3]
        + [op for op in ops if op.kind == "neq"][:2])
    assert _exact(first) == _exact(second)
    assert first["core.res_ratio_geomean"] > 0
    assert first["startup.repro_modules"] > 0


def test_service_mix_exact_counts_repeat(tmp_path):
    first, second = _traced_twice(service_mix, tmp_path, _service_mix_subset)
    assert _exact(first) == _exact(second)
    assert first["service.cache_hit_frac"] == pytest.approx(6 / 9)
    assert first["service.worker_jobs"] == 3
    assert first["fleet.jobs_routed"] == 9


@pytest.mark.parametrize("workload", sorted(SUBSETS))
def test_timed_proof_clauses_repeat(tmp_path, workload):
    module, keep = SUBSETS[workload]
    clauses = []
    for index in range(2):
        workdir = tmp_path / ("run%d" % index)
        workdir.mkdir()
        state = module.prepare(3, str(workdir), 1)
        state.ops = keep(state.ops)
        metrics, attempted, failed = run.timed_pass(
            module, state, guard_s=float("inf"))
        assert (attempted, failed) == (len(state.ops), 0)
        clauses.append(metrics["proof_clauses"])
    assert clauses[0] == clauses[1] > 0


def test_run_guard_counts_skipped_ops_as_failed(tmp_path):
    state = sat_heavy.prepare(3, str(tmp_path), 1)
    metrics, attempted, failed = run.timed_pass(sat_heavy, state,
                                                guard_s=0.0)
    assert attempted == failed == len(state.ops)
    assert metrics["ops_per_s"] == 0
    assert metrics["fail_frac"] == pytest.approx(1 + harness.FAIL_FLOOR)


def test_seed_shapes_inputs(tmp_path):
    def texts(seed):
        workdir = pathlib.Path(tempfile.mkdtemp(dir=str(tmp_path)))
        state = suite_cli.prepare(seed, str(workdir), 1)
        names = sorted(op.name for op in state.ops)
        mutants = {}
        for op in state.ops:
            if op.kind == "neq":
                with open(op.path_b) as handle:
                    mutants[op.name] = handle.read()
        return names, mutants

    assert texts(1) == texts(1)
    assert texts(1) != texts(2)


def test_oracle_rejects_bad_certificates():
    from repro.circuits import by_name
    from repro.core.cec import check_equivalence
    from repro.proof.trim import trim

    aig_a, aig_b = by_name("add08").build()
    axioms = oracle.miter_cnf(aig_a, aig_b)
    proof, _ = trim(check_equivalence(aig_a, aig_b).proof)
    lines = []
    for clause_id in proof.ids():
        if proof.chain(clause_id) is not None:
            clause = proof.clause(clause_id)
            lines.append(" ".join(str(lit) for lit in clause + (0,)))
    oracle.check_drup(lines, axioms)
    assert oracle.replay(proof, axioms) > 0
    with pytest.raises(OpFailure):
        oracle.check_drup(lines[:-1], axioms)
    with pytest.raises(OpFailure):
        oracle.check_drup(["0"], axioms)
    # A proof of one pair is not a proof of another pair's miter.
    other = oracle.miter_cnf(*by_name("add16").build())
    with pytest.raises(OpFailure):
        oracle.replay(proof, other)
    with pytest.raises(OpFailure):
        oracle.check_counterexample(aig_a, aig_b, [0] * aig_a.num_inputs)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        command = json.load(handle)["command"]
    proc = subprocess.run(
        command + ["--workload", "sat-heavy", "--seed", "1",
                   "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
