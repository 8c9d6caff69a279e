"""Tests for ``python -m repro analyze`` and the checked-in fixtures."""

import os
import pathlib

import pytest

from repro.ir import parse_module, verify
from repro.ir.analysis import run_checks
from repro.tools.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: fixture file -> the check its seeded bug must trigger.
SEEDED_BUGS = {
    "buffer_safety_bug.mlir": "buffer-safety.use-after-free",
    "range_underflow_bug.mlir": "range.linear-underflow",
    "lint_dead_result_bug.mlir": "lint.unused-result",
    "concurrency_shard_overlap_bug.mlir": "concurrency.shard-overlap",
}


class TestFixtures:
    @pytest.mark.parametrize("name", sorted(SEEDED_BUGS))
    def test_fixture_parses_and_verifies(self, name):
        module = parse_module((FIXTURES / name).read_text())
        verify(module)

    @pytest.mark.parametrize("name,expected", sorted(SEEDED_BUGS.items()))
    def test_fixture_triggers_its_seeded_check(self, name, expected):
        module = parse_module((FIXTURES / name).read_text())
        findings = run_checks(module, phase="final")
        assert expected in {f.check for f in findings}


class TestAnalyzeCommand:
    @pytest.mark.parametrize("name,expected", sorted(SEEDED_BUGS.items()))
    def test_seeded_bug_exits_nonzero_with_op_path(self, name, expected, capsys):
        exit_code = main(["analyze", str(FIXTURES / name)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert expected in captured.out
        assert "[at=builtin.module" in captured.out

    def test_all_fixtures_in_one_invocation(self, capsys):
        paths = [str(FIXTURES / name) for name in sorted(SEEDED_BUGS)]
        assert main(["analyze", *paths]) == 1
        captured = capsys.readouterr()
        for expected in SEEDED_BUGS.values():
            assert expected in captured.out

    def test_check_selection_filters_findings(self, capsys):
        # The range fixture is clean as far as buffer safety goes.
        exit_code = main(
            [
                "analyze",
                str(FIXTURES / "range_underflow_bug.mlir"),
                "--checks",
                "buffer-safety",
            ]
        )
        assert exit_code == 0
        assert "clean" in capsys.readouterr().out

    def test_min_severity_gates_exit_code(self, capsys):
        # The underflow fixture only has WARNING/NOTE findings; raising
        # the gate to "error" reports them without failing.
        exit_code = main(
            [
                "analyze",
                str(FIXTURES / "range_underflow_bug.mlir"),
                "--min-severity",
                "error",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "range.linear-underflow" in captured.out

    def test_unknown_check_is_usage_error(self, capsys):
        exit_code = main(
            [
                "analyze",
                str(FIXTURES / "range_underflow_bug.mlir"),
                "--checks",
                "no-such-check",
            ]
        )
        assert exit_code == 2
        assert "unknown check" in capsys.readouterr().err

    def test_no_input_is_usage_error(self, capsys):
        assert main(["analyze"]) == 2
        assert "nothing to analyze" in capsys.readouterr().err

    def test_reproducer_dumped_to_artifact_dir(self, tmp_path, capsys):
        exit_code = main(
            [
                "analyze",
                str(FIXTURES / "buffer_safety_bug.mlir"),
                "--artifact-dir",
                str(tmp_path),
            ]
        )
        assert exit_code == 1
        dumped = list(tmp_path.rglob("*"))
        assert any(p.is_file() for p in dumped), "expected a reproducer dump"

    def test_generated_corpus_is_clean(self, capsys):
        exit_code = main(["analyze", "--corpus", "1", "--seed", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "clean" in captured.out


class TestJsonFormat:
    def test_findings_are_machine_readable(self, capsys):
        import json

        exit_code = main(
            [
                "analyze",
                str(FIXTURES / "concurrency_shard_overlap_bug.mlir"),
                "--format",
                "json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        payload = json.loads(captured.out)
        assert payload["ok"] is False
        assert payload["failures"] == 1
        assert "concurrency" in payload["checks"]
        (module,) = payload["modules"]
        assert module["status"] == "findings"
        (finding,) = module["findings"]
        assert finding["check"] == "concurrency.shard-overlap"
        assert finding["severity"] == "error"
        assert finding["gating"] is True
        assert "lo_spn.task" in finding["op_path"]
        # No human-readable noise may pollute the JSON document.
        assert captured.out.lstrip().startswith("{")

    def test_clean_module_reports_ok(self, capsys, tmp_path):
        import json

        clean = tmp_path / "clean.mlir"
        clean.write_text('"builtin.module"() ({\n}) : () -> ()\n')
        exit_code = main(["analyze", str(clean), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["ok"] is True
        assert payload["modules"][0]["status"] == "clean"


class TestSelftestIntegration:
    def test_selftest_covers_the_analyses(self):
        # --selftest asserts one intentionally-broken module per
        # analysis; it must stay green as checks evolve.
        assert main(["--selftest"]) == 0
