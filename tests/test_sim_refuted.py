"""The simulation-refuted path of ``check_equivalence``.

When the initial random patterns already set the miter output, the
check skips the sweep. These tests pin that the shortcut changes
nothing but the work done: on every Table 4 pair's seeded mutant it
returns the counterexample a full sweep followed by ``_conclude``
returns, it runs no SAT call, a mutant simulation misses still goes
through the sweep, and equivalent pairs keep byte-identical proofs.
"""

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

import repro.sat.solver
from repro.aig.miter import build_miter
from repro.baselines.bdd_cec import bdd_check
from repro.circuits import SUITE
from repro.circuits.faults import FAULT_KINDS, Fault, inject
from repro.cli import main
from repro.core.cec import _conclude, check_equivalence
from repro.core.fraig import SweepEngine, SweepOptions
from repro.instrument import Recorder

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "data"

#: sha256 of ``repro-cec add24_a.aag add24_b.aag --proof`` (trimmed
#: DRUP) before the shortcut existed.
ADD24_TRIMMED_DRUP_SHA256 = (
    "cfa434917cbc6f04b9b96926b00afb089a52178cb8c40a988aa42b17ca425991"
)


def _mutant(rng, golden, victim, attempts=20):
    """A seeded fault-injected copy of *victim* that *golden* refutes.

    The same draw the suite-cli benchmark makes: fault kind and target
    from *rng*, kept once ``bdd_check`` proves it non-equivalent.
    """
    and_vars = list(victim.and_vars())
    for _ in range(attempts):
        kind = rng.choice(FAULT_KINDS)
        if kind == "output_flip":
            target = rng.randrange(victim.num_outputs)
        else:
            target = rng.choice(and_vars)
        candidate = inject(victim, Fault(kind, target))
        if bdd_check(golden, candidate).equivalent is False:
            return candidate
    raise RuntimeError("no detectable fault in %d attempts" % attempts)


@functools.lru_cache(maxsize=None)
def _suite():
    return tuple((pair.name, pair.build()) for pair in SUITE)


@functools.lru_cache(maxsize=None)
def _mutants(seed):
    """``(name, golden, mutant)`` for every suite pair, in suite order."""
    rng = random.Random(seed)
    return tuple((name, golden, _mutant(rng, golden, victim))
                 for name, (golden, victim) in _suite())


def _full_sweep_counterexample(golden, mutant):
    miter = build_miter(golden, mutant)
    engine = SweepEngine(miter.aig, SweepOptions())
    engine.sweep()
    result = _conclude(miter, engine, miter.output)
    assert result.equivalent is False
    return result.counterexample


@pytest.fixture()
def no_solve(monkeypatch):
    """Make any SAT call fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a SAT call ran on a simulation-refuted miter")

    monkeypatch.setattr(repro.sat.solver.Solver, "solve", refuse)


def _check(golden, mutant):
    recorder = Recorder()
    result = check_equivalence(golden, mutant, recorder=recorder)
    return result, recorder


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_counterexample_matches_a_full_sweep(seed):
    refuted = 0
    for name, golden, mutant in _mutants(seed):
        result, recorder = _check(golden, mutant)
        assert result.equivalent is False, name
        assert result.counterexample == \
            _full_sweep_counterexample(golden, mutant), name
        if recorder.counter("cec/sim_refuted"):
            refuted += 1
            assert "cec/sweep" not in result.stats["phases"], name
            assert result.engine.stats.sat_calls == 0, name
    # Simulation settles nearly every mutant on its own.
    assert refuted >= len(SUITE) - 2


def test_refuted_mutants_run_no_sat_call(no_solve):
    for name, golden, mutant in _mutants(1):
        if name == "cmp10":
            continue
        result, recorder = _check(golden, mutant)
        assert recorder.counter("cec/sim_refuted") == 1, name
        assert result.equivalent is False


def test_mutant_simulation_misses_still_sweeps():
    mutants = {name: (golden, mutant)
               for name, golden, mutant in _mutants(1)}
    result, recorder = _check(*mutants["cmp10"])
    assert recorder.counter("cec/sim_refuted") == 0
    assert "cec/sweep" in result.stats["phases"]
    assert result.engine.stats.sat_calls > 0
    assert result.equivalent is False


def test_stats_json_reports_the_shortcut(tmp_path, capsys):
    files = []
    for name, text in (("and", "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"),
                       ("or", "aag 3 2 0 1 1\n2\n4\n7\n6 3 5\n")):
        path = tmp_path / (name + ".aag")
        path.write_text(text)
        files.append(str(path))
    stats_path = tmp_path / "stats.json"
    assert main(files + ["--stats-json", str(stats_path)]) == 1
    assert "NOT EQUIVALENT" in capsys.readouterr().out
    report = json.loads(stats_path.read_text())
    assert report["counters"]["cec/sim_refuted"] == 1
    assert "cec/sweep" not in report["phases"]
    assert "cec/conclude" in report["phases"]


def test_add24_trimmed_proof_is_byte_identical(tmp_path):
    proof = tmp_path / "add24.drup"
    assert main([
        str(EXAMPLES / "add24_a.aag"), str(EXAMPLES / "add24_b.aag"),
        "--proof", str(proof), "--quiet",
    ]) == 0
    digest = hashlib.sha256(proof.read_bytes()).hexdigest()
    assert digest == ADD24_TRIMMED_DRUP_SHA256
