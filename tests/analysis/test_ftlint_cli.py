"""CLI behaviour: formats, exit codes, baseline lifecycle, entry points."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.ftlint import cli

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = textwrap.dedent("""
    def step(ctx, q):
        ret = yield from ctx.wait(q)
        return ret
""")

CLEAN = textwrap.dedent("""
    def step(ctx, guard, q):
        guard.assert_healthy()
        ret = yield from ctx.wait(q)
        return ret
""")


@pytest.fixture
def project(tmp_path, monkeypatch):
    """A tiny repo-shaped tree with one FT001 violation; cwd moved into it."""
    target = tmp_path / "src" / "repro" / "ft"
    target.mkdir(parents=True)
    (target / "fixture.py").write_text(VIOLATION, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(args):
    return cli.main(args)


class TestExitCodes:
    def test_violation_fails(self, project, capsys):
        assert run(["src", "--select", "FT001"]) == 1
        assert "FT001" in capsys.readouterr().out

    def test_clean_tree_passes(self, project, capsys):
        (project / "src/repro/ft/fixture.py").write_text(CLEAN,
                                                         encoding="utf-8")
        assert run(["src", "--select", "FT001"]) == 0

    def test_no_paths_is_usage_error(self, project, capsys):
        assert run([]) == 2

    def test_missing_path_is_usage_error(self, project, capsys):
        assert run(["no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, project, capsys):
        assert run(["src", "--select", "FT999"]) == 2

    def test_ignore_drops_rule(self, project):
        assert run(["src", "--ignore", "FT001,FT006"]) == 0

    def test_parse_error_always_fails(self, project, capsys):
        (project / "src/repro/ft/broken.py").write_text("def broken(:\n",
                                                        encoding="utf-8")
        assert run(["src", "--select", "FT001", "--write-baseline"]) == 1
        assert run(["src", "--select", "FT001"]) == 1
        assert "PARSE" in capsys.readouterr().out

    def test_list_rules(self, project, capsys):
        assert run(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("FT")]
        assert listed == [f"FT{n:03d}" for n in range(1, 11)]
        assert [rule.id for rule in cli.all_rules()] == listed


class TestJsonFormat:
    def test_document_shape(self, project, capsys):
        assert run(["src", "--select", "FT001", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "ftlint"
        assert doc["files_checked"] == 1
        (finding,) = doc["findings"]
        assert finding["rule"] == "FT001"
        assert finding["status"] == "new"
        assert finding["path"] == "src/repro/ft/fixture.py"
        assert finding["line"] >= 1
        assert len(finding["fingerprint"]) == 16
        assert doc["summary"]["new"] == 1

    def test_human_format_mentions_location(self, project, capsys):
        run(["src", "--select", "FT001"])
        out = capsys.readouterr().out
        assert "src/repro/ft/fixture.py:" in out


class TestBaselineLifecycle:
    def test_write_then_pass_then_fail_on_any(self, project, capsys):
        assert run(["src", "--select", "FT001", "--write-baseline"]) == 0
        assert (project / cli.DEFAULT_BASELINE).exists()
        capsys.readouterr()

        # grandfathered: default --fail-on new passes
        assert run(["src", "--select", "FT001"]) == 0
        capsys.readouterr()
        run(["src", "--select", "FT001", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["baselined"] == 1
        assert doc["findings"][0]["status"] == "baselined"

        # strict mode still sees it
        assert run(["src", "--select", "FT001", "--fail-on", "any"]) == 1
        # and --no-baseline pretends the file is absent
        assert run(["src", "--select", "FT001", "--no-baseline"]) == 1

    def test_new_violation_on_top_of_baseline_fails(self, project, capsys):
        run(["src", "--select", "FT001", "--write-baseline"])
        extra = VIOLATION + textwrap.dedent("""
            def second(ctx, q):
                ret = yield from ctx.barrier(q)
                return ret
        """)
        (project / "src/repro/ft/fixture.py").write_text(extra,
                                                         encoding="utf-8")
        capsys.readouterr()
        assert run(["src", "--select", "FT001"]) == 1
        out = capsys.readouterr().out
        assert "barrier" in out

    def test_fixed_violation_reports_stale_entry(self, project, capsys):
        run(["src", "--select", "FT001", "--write-baseline"])
        (project / "src/repro/ft/fixture.py").write_text(CLEAN,
                                                         encoding="utf-8")
        capsys.readouterr()
        assert run(["src", "--select", "FT001", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["new"] == 0
        assert len(doc["stale_baseline_entries"]) == 1

    def test_explicit_baseline_path(self, project, capsys):
        alt = "custom-baseline.json"
        assert run(["src", "--select", "FT001", "--baseline", alt,
                    "--write-baseline"]) == 0
        assert (project / alt).exists()
        assert run(["src", "--select", "FT001", "--baseline", alt]) == 0

    def test_corrupt_baseline_is_an_error(self, project, capsys):
        (project / cli.DEFAULT_BASELINE).write_text("{\"version\": 99}",
                                                    encoding="utf-8")
        assert run(["src", "--select", "FT001"]) == 2
        assert "baseline" in capsys.readouterr().err


class TestEntryPoints:
    """The two documented launchers resolve and run."""

    def test_tools_script(self):
        proc = subprocess.run(
            [sys.executable, "tools/ftlint.py", "--list-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "FT001" in proc.stdout

    def test_module_launcher(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "FT006" in proc.stdout


class TestSarifFormat:
    def _sarif(self, capsys, args):
        code = run(args)
        return code, json.loads(capsys.readouterr().out)

    def test_document_shape(self, project, capsys):
        code, doc = self._sarif(
            capsys, ["src", "--select", "FT001", "--format", "sarif"])
        assert code == 1
        assert doc["version"] == "2.1.0"
        (sarif_run,) = doc["runs"]
        driver = sarif_run["tool"]["driver"]
        assert driver["name"] == "ftlint"
        assert any(rule["id"] == "FT001" for rule in driver["rules"])
        (result,) = sarif_run["results"]
        assert result["ruleId"] == "FT001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == \
            "src/repro/ft/fixture.py"
        assert location["region"]["startLine"] >= 1
        assert "ftlintFingerprint/v1" in result["partialFingerprints"]

    def test_rule_index_is_consistent(self, project, capsys):
        _, doc = self._sarif(
            capsys, ["src", "--select", "FT001", "--format", "sarif"])
        (sarif_run,) = doc["runs"]
        rules = sarif_run["tool"]["driver"]["rules"]
        (result,) = sarif_run["results"]
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_baselined_finding_carried_as_unchanged(self, project, capsys):
        run(["src", "--select", "FT001", "--write-baseline"])
        capsys.readouterr()
        code, doc = self._sarif(
            capsys, ["src", "--select", "FT001", "--format", "sarif"])
        assert code == 0  # grandfathered under --fail-on new
        (result,) = doc["runs"][0]["results"]
        assert result["level"] == "note"
        assert result["baselineState"] == "unchanged"
        assert result["suppressions"][0]["kind"] == "external"

    def test_fingerprint_matches_local_baseline_format(self, project, capsys):
        _, sarif_doc = self._sarif(
            capsys, ["src", "--select", "FT001", "--format", "sarif"])
        run(["src", "--select", "FT001", "--format", "json"])
        json_doc = json.loads(capsys.readouterr().out)
        sarif_fp = sarif_doc["runs"][0]["results"][0][
            "partialFingerprints"]["ftlintFingerprint/v1"]
        assert sarif_fp == json_doc["findings"][0]["fingerprint"]

