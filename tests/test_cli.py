"""Tests for the repro-cec command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro.cli
from repro.aig import lit_not, write_aag, write_aig
from repro.circuits import carry_lookahead_adder, ripple_carry_adder
from repro.cli import build_parser, main
from repro.core.certify import CertificationError
from repro.instrument.recorder import validate_report

SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src")
)


@pytest.fixture
def circuit_files(tmp_path):
    good_a = tmp_path / "a.aag"
    good_b = tmp_path / "b.aig"
    bad = tmp_path / "bad.aag"
    write_aag(ripple_carry_adder(4), str(good_a))
    write_aig(carry_lookahead_adder(4), str(good_b))
    broken = carry_lookahead_adder(4).copy()
    broken.set_output(1, lit_not(broken.outputs[1]))
    write_aag(broken, str(bad))
    return str(good_a), str(good_b), str(bad)


def reject_certificate(result, **kwargs):
    """Stand-in for ``certify`` that rejects every certificate."""
    raise CertificationError("resolution check failed: forged")


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["x", "y"])
        assert args.engine == "sweep"
        assert args.sim_words == 4

    def test_engine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["x", "y", "--engine", "zchaff"])


class TestMain:
    def test_equivalent_exit_code(self, circuit_files, capsys):
        file_a, file_b, _ = circuit_files
        assert main([file_a, file_b]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_non_equivalent_exit_code(self, circuit_files, capsys):
        file_a, _, bad = circuit_files
        assert main([file_a, bad]) == 1
        out = capsys.readouterr().out
        assert "NOT EQUIVALENT" in out
        assert "counterexample" in out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/a.aag", "/nonexistent/b.aag"]) == 3

    def test_proof_written(self, circuit_files, tmp_path, capsys):
        file_a, file_b, _ = circuit_files
        proof_path = tmp_path / "out.drup"
        assert main([file_a, file_b, "--proof", str(proof_path)]) == 0
        content = proof_path.read_text()
        assert content.strip().endswith("0")

    def test_untrimmed_proof_is_larger(self, circuit_files, tmp_path):
        file_a, file_b, _ = circuit_files
        trimmed = tmp_path / "trim.drup"
        full = tmp_path / "full.drup"
        main([file_a, file_b, "--proof", str(trimmed)])
        main([file_a, file_b, "--proof", str(full), "--no-trim"])
        assert len(full.read_text()) >= len(trimmed.read_text())

    def test_certify_flag(self, circuit_files, capsys):
        file_a, file_b, _ = circuit_files
        assert main([file_a, file_b, "--certify"]) == 0
        assert "certified" in capsys.readouterr().out

    def test_rejected_certificate_is_invalid_input(
        self, circuit_files, monkeypatch, capsys
    ):
        # Exit 1 means "circuits differ"; a certificate that fails its
        # replay is exit 3 with a message, never a traceback.
        file_a, file_b, _ = circuit_files
        monkeypatch.setattr(repro.cli, "certify", reject_certificate)
        assert main([file_a, file_b, "--certify"]) == 3
        captured = capsys.readouterr()
        assert "certificate INVALID: resolution check failed: forged" \
            in captured.err
        assert "EQUIVALENT" not in captured.out

    def test_certify_phase_in_stats_json(self, circuit_files, tmp_path):
        file_a, file_b, _ = circuit_files
        stats_path = tmp_path / "stats.json"
        assert main([
            file_a, file_b, "--certify", "--quiet",
            "--stats-json", str(stats_path),
        ]) == 0
        report = validate_report(json.loads(stats_path.read_text()))
        assert report["phases"]["cec/certify"]["count"] == 1
        assert report["phases"]["cec/certify"]["seconds"] > 0

    def test_monolithic_engine(self, circuit_files, capsys):
        file_a, file_b, _ = circuit_files
        assert main([file_a, file_b, "--engine", "monolithic"]) == 0

    def test_bdd_engine(self, circuit_files, capsys):
        file_a, file_b, bad = circuit_files
        assert main([file_a, file_b, "--engine", "bdd"]) == 0
        assert main([file_a, bad, "--engine", "bdd"]) == 1

    def test_quiet_suppresses_stats(self, circuit_files, capsys):
        file_a, file_b, _ = circuit_files
        main([file_a, file_b, "--quiet"])
        out = capsys.readouterr().out
        assert "resolutions" not in out

    def test_seed_and_sim_words_accepted(self, circuit_files):
        file_a, file_b, _ = circuit_files
        assert main(
            [file_a, file_b, "--sim-words", "1", "--seed", "42"]
        ) == 0


class TestBddSweepEngine:
    def test_equivalent(self, circuit_files, capsys):
        file_a, file_b, _ = circuit_files
        assert main([file_a, file_b, "--engine", "bddsweep"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_fault(self, circuit_files, capsys):
        file_a, _, bad = circuit_files
        assert main([file_a, bad, "--engine", "bddsweep"]) == 1
        assert "counterexample" in capsys.readouterr().out


class TestServerPassthrough:
    @pytest.fixture()
    def server(self, tmp_path):
        from repro.service import CecServer

        instance = CecServer(str(tmp_path / "cli.sock"), workers=0)
        instance.start()
        yield instance
        instance.close()

    def test_binary_aig_input_is_supported(
        self, server, circuit_files, capsys
    ):
        # file_b is binary AIGER: --server must accept exactly the
        # same inputs as a local run (read_auto + re-emit as text).
        file_a, file_b, _ = circuit_files
        assert main(
            [file_a, file_b, "--server", server.address, "--quiet"]
        ) == 0

    def test_not_equivalent_over_server(
        self, server, circuit_files, capsys
    ):
        file_a, _, bad = circuit_files
        assert main(
            [file_a, bad, "--server", server.address, "--quiet"]
        ) == 1

    def test_rejected_certificate_is_invalid_input(
        self, server, circuit_files, monkeypatch, capsys
    ):
        file_a, file_b, _ = circuit_files
        monkeypatch.setattr(repro.cli, "certify", reject_certificate)
        assert main(
            [file_a, file_b, "--server", server.address, "--certify"]
        ) == 3
        assert "certificate INVALID" in capsys.readouterr().err

    def test_missing_file_is_invalid_input(self, server, capsys):
        assert main(
            ["/nonexistent/a.aag", "/nonexistent/b.aag",
             "--server", server.address]
        ) == 3
        assert "error:" in capsys.readouterr().err


#: Modules no ``repro-cec`` run on the default sweep engine executes:
#: a fresh ``import repro.cli`` must not load them.
OFF_CLI_PATH = [
    "multiprocessing",
    "logging",
    "uuid",
    "repro.baselines",
    "repro.bdd",
    "repro.sat.reference",
    "repro.instrument.metrics",
    "repro.instrument.logs",
    "repro.instrument.progress",
    "repro.instrument.timeseries",
    "repro.instrument.tracing",
    "repro.instrument.profiling",
    "repro.analyze.findings",
    "repro.proof.compress",
    "repro.proof.interpolant",
    "repro.proof.tracecheck",
    "repro.aig.cuts",
    "repro.aig.dot",
    "repro.aig.npn",
    "repro.aig.structhash",
]

#: Packages whose ``__all__`` names resolve through repro._lazy.
PACKAGES = [
    "repro", "repro.aig", "repro.analyze", "repro.baselines", "repro.cnf",
    "repro.core", "repro.instrument", "repro.proof", "repro.sat",
    "repro.service",
]


def _fresh_modules(statement):
    """``sys.modules`` of a fresh interpreter after *statement*."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-c",
         statement + "; import json, sys; print(json.dumps(sorted(sys.modules)))"],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


class TestStartup:
    def test_import_loads_only_the_run_path(self):
        # Every repro-cec process pays for what ``import repro.cli``
        # pulls in: baselines, the reference solver, metrics, tracing
        # and logging have no place on that path.
        loaded = set(_fresh_modules("import repro.cli"))
        assert sorted(loaded.intersection(OFF_CLI_PATH)) == []
        repro_modules = [name for name in loaded
                         if name == "repro" or name.startswith("repro.")]
        assert len(repro_modules) <= 30, sorted(repro_modules)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_resolves(self, package):
        # A name that does not resolve raises in the fresh interpreter,
        # which fails the run.
        _fresh_modules(
            "import importlib; module = importlib.import_module(%r); "
            "[getattr(module, name) for name in module.__all__]" % package
        )

    def test_exports_that_name_a_submodule_are_callables(self):
        import repro.core
        import repro.proof

        # Each is both a submodule and the function it exports; the
        # package attribute must be the function.
        assert callable(repro.core.certify)
        assert callable(repro.proof.trim)
        from repro.core import certify
        from repro.proof import trim

        assert callable(certify) and callable(trim)

    def test_unknown_export_is_an_attribute_error(self):
        import repro.core

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.core.no_such_name
