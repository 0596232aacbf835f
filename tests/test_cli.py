"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def grammar_file(tmp_path):
    path = tmp_path / "dangling.y"
    path.write_text(
        """
        %start stmt
        stmt : IF expr THEN stmt ELSE stmt
             | IF expr THEN stmt
             | ID ':=' expr ;
        expr : ID ;
        """
    )
    return str(path)


class TestCLI:
    def test_conflicted_grammar_reports(self, grammar_file, capsys):
        exit_code = main([grammar_file])
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "Shift/Reduce conflict" in output
        assert "Ambiguity detected" in output
        assert "1 conflicts" in output

    def test_clean_grammar(self, tmp_path, capsys):
        path = tmp_path / "clean.y"
        path.write_text("s : 'a' s 'b' | %empty ;")
        assert main([str(path)]) == 0
        assert "no conflicts" in capsys.readouterr().out

    def test_corpus_grammar(self, capsys):
        exit_code = main(["--corpus", "figure7", "--quiet"])
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "2 conflicts" in output
        assert "2 unifying" in output

    def test_unknown_corpus(self, capsys):
        assert main(["--corpus", "bogus"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_arguments(self, capsys):
        assert main([]) == 2

    def test_bad_grammar_file(self, tmp_path, capsys):
        path = tmp_path / "broken.y"
        path.write_text("s : @@@")
        assert main([str(path)]) == 2

    def test_negative_jobs_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--corpus", "figure1", "--jobs", "-2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err
        assert "Traceback" not in err

    def test_list_corpus(self, capsys):
        assert main(["--list-corpus"]) == 0
        output = capsys.readouterr().out
        assert "figure1" in output
        assert "SQL.1" in output

    def test_states_flag(self, grammar_file, capsys):
        main([grammar_file, "--states", "--quiet"])
        output = capsys.readouterr().out
        assert "State 0" in output

    def test_extendedsearch_flag(self, capsys):
        exit_code = main(["--corpus", "ambfailed01", "--extendedsearch", "--quiet"])
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "1 unifying" in output

    def test_restricted_misses_ambfailed01(self, capsys):
        main(["--corpus", "ambfailed01", "--quiet"])
        output = capsys.readouterr().out
        assert "0 unifying" in output


class TestLintCLI:
    def test_lint_text_output_labels_source_file(self, grammar_file, capsys):
        # The dangling-else conflict is a proved ambiguity, so the
        # default --fail-on error threshold trips.
        assert main([grammar_file, "--lint"]) == 1
        output = capsys.readouterr().out
        assert "dangling.y:" in output
        assert "warning[dangling-else]" in output
        assert "error[proved-ambiguous]" in output
        assert "lint:" in output

    def test_fail_on_warning_flips_exit_code(self, grammar_file):
        assert main([grammar_file, "--lint", "--fail-on", "warning"]) == 1

    def test_corpus_lint(self, capsys):
        # figure7's conflicts are proved ambiguous, so lint exits 1.
        assert main(["--corpus", "figure7", "--lint"]) == 1
        output = capsys.readouterr().out
        assert "<figure7>:" in output
        assert "warning[lr-class]" in output
        assert "error[proved-ambiguous]" in output

    def test_clean_corpus_grammar_passes_fail_on_warning(self, capsys):
        assert main(
            ["--corpus", "clean-json", "--lint", "--fail-on", "warning"]
        ) == 0
        assert "0 errors, 0 warnings" in capsys.readouterr().out

    def test_json_format(self, grammar_file, capsys):
        import json

        assert main([grammar_file, "--lint", "--lint-format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["source"] == grammar_file
        assert any(d["rule"] == "dangling-else" for d in data["diagnostics"])

    def test_sarif_format(self, grammar_file, capsys):
        import json

        assert main([grammar_file, "--lint", "--lint-format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"
        assert doc["runs"][0]["results"]

    def test_rule_selection(self, grammar_file, capsys):
        assert main(
            [grammar_file, "--lint", "--rule", "dangling-else",
             "--fail-on", "warning"]
        ) == 1
        output = capsys.readouterr().out
        assert "dangling-else" in output
        assert "lr-class" not in output

    def test_no_rule_suppression(self, grammar_file, capsys):
        assert main(
            [grammar_file, "--lint", "--no-rule", "dangling-else",
             "--no-rule", "lr-class", "--no-rule", "proved-ambiguous",
             "--fail-on", "warning"]
        ) == 0
        assert "dangling-else" not in capsys.readouterr().out

    def test_unknown_rule_is_usage_error(self, grammar_file, capsys):
        assert main([grammar_file, "--lint", "--rule", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "dangling-else" in err  # the known-rule list is printed

    def test_fail_on_error_fires_on_error_diagnostics(self, tmp_path):
        path = tmp_path / "nonproductive.y"
        path.write_text("s : 'a' | x ;\nx : x 'b' ;\n")
        assert main([str(path), "--lint"]) == 1


class TestRobustCLI:
    def test_robust_report_file_and_completeness_exit(self, tmp_path, capsys):
        import json

        out = tmp_path / "robust.json"
        # With --robust-report the exit code tracks completeness, not
        # conflict presence: figure1 has conflicts but explains them all.
        assert main(
            ["--corpus", "figure1", "--quiet", "--robust-report", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert data["grammar"] == "figure1"
        assert data["complete"] is True
        assert data["conflicts"] == 3
        assert [r["rung"] for r in data["reports"]] == ["unifying"] * 3
        assert all(r["verified"] for r in data["reports"])

    def test_robust_report_stdout(self, capsys):
        import json

        assert main(["--corpus", "figure1", "--quiet", "--robust-report", "-"]) == 0
        output = capsys.readouterr().out
        data = json.loads(output[output.index("{"):])
        assert data["complete"] is True

    def test_robust_report_unwritable_path(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "r.json"
        assert main(
            ["--corpus", "figure1", "--quiet", "--robust-report", str(missing)]
        ) == 2
        assert "cannot write robust report" in capsys.readouterr().err

    def test_max_configurations_starves_but_stays_complete(self, tmp_path, capsys):
        import json

        out = tmp_path / "starved.json"
        assert main(
            ["--corpus", "figure1", "--quiet", "--max-configurations", "1",
             "--robust-report", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert data["complete"] is True  # stubs fill in, nothing is dropped
        assert data["degraded"] > 0
        summary_line = capsys.readouterr().out
        assert "degraded" in summary_line

    def test_retry_timed_out_upgrades_and_reports(self, capsys):
        exit_code = main(
            ["--corpus", "figure1", "--quiet", "--time-limit", "0",
             "--cumulative-limit", "30", "--retry-timed-out"]
        )
        output = capsys.readouterr().out
        assert exit_code == 1  # conflicts exist; no --robust-report
        assert "3 unifying" in output
        assert "3/3 retries upgraded" in output

    def test_fault_at_every_stage_still_exits_zero(self, tmp_path, capsys):
        """The acceptance scenario: one fault per pipeline stage, and the
        run exits 0 with one recorded degradation naming each stage."""
        import json

        from repro.robust import FaultKind, FaultSpec, inject_faults

        out = tmp_path / "faulted.json"
        specs = [
            FaultSpec(point, FaultKind.EXCEPTION, at=0)
            for point in ("lasg", "search", "verify", "nonunifying", "render")
        ]
        with inject_faults(*specs):
            exit_code = main(
                ["--corpus", "figure1", "--robust-report", str(out)]
            )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Report rendering failed" in output  # the render fault degraded
        data = json.loads(out.read_text())
        assert data["complete"] is True
        assert data["degraded_by_stage"] == {
            "lasg": 1, "search": 1, "verify": 1, "nonunifying": 1, "render": 1
        }
        reasons = [
            d["reason"]
            for r in data["reports"]
            for d in r["degradations"]
        ]
        assert len(reasons) == 5
        assert all("injected fault" in reason for reason in reasons)

    def test_conflict_free_grammar_still_writes_robust_report(self, tmp_path):
        import json

        out = tmp_path / "clean.json"
        assert main(
            ["--corpus", "clean-json", "--quiet", "--robust-report", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert data["complete"] is True
        assert data["conflicts"] == 0
        assert data["reports"] == []


class TestTableAlgorithm:
    def test_ielr_dissolves_nonlalr_conflicts(self, capsys):
        exit_code = main(["--corpus", "nonlalr01", "--table-algorithm", "ielr"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "no conflicts" in output
        assert "minimal" in output

    def test_lalr_default_still_conflicts(self, capsys):
        exit_code = main(["--corpus", "nonlalr01", "--quiet"])
        assert exit_code == 1
        assert "2 conflicts" in capsys.readouterr().out

    def test_unknown_algorithm_is_a_structured_error(self, capsys):
        """The fix under test: an unknown table_algorithm exits through
        the CLI error path (exit 2, 'error:' on stderr), never a bare
        ValueError traceback."""
        exit_code = main(["--corpus", "nonlalr01", "--table-algorithm", "bogus"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error:")
        assert "unknown table algorithm 'bogus'" in captured.err
        assert "lalr, ielr, lr1" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_directive_algorithm_carries_source_line(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.y"
        path.write_text("%algorithm bogus\ns : 'a' ;\n")
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "unknown table algorithm" in err

    def test_directive_respected_without_flag(self, tmp_path, capsys):
        path = tmp_path / "nonlalr.y"
        path.write_text(
            "%algorithm ielr\n"
            "s : 'a' X 'd' | 'a' Y 'e' | 'b' X 'e' | 'b' Y 'd' ;\n"
            "X : 'c' ;\nY : 'c' ;\n"
        )
        assert main([str(path)]) == 0
        assert "no conflicts" in capsys.readouterr().out


class TestProvenance:
    def test_provenance_flag_annotates_reports(self, capsys):
        exit_code = main(["--corpus", "nonlalr01", "--provenance"])
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "Provenance: LALR merge artifact" in output
        assert "splits into minimal-LR(1) states" in output

    def test_genuine_verdict(self, capsys):
        main(["--corpus", "nonlalr03-genuine", "--provenance"])
        assert "Provenance: genuine LR(1) conflict" in capsys.readouterr().out

    def test_default_output_has_no_provenance_line(self, capsys):
        main(["--corpus", "nonlalr01"])
        assert "Provenance" not in capsys.readouterr().out

    def test_robust_report_includes_provenance(self, tmp_path):
        import json

        destination = tmp_path / "robust.json"
        main(
            [
                "--corpus",
                "nonlalr01",
                "--provenance",
                "--quiet",
                "--robust-report",
                str(destination),
            ]
        )
        document = json.loads(destination.read_text())
        verdicts = {entry["provenance"]["verdict"] for entry in document["reports"]}
        assert verdicts == {"LALR merge artifact"}


class TestAlgorithmCache:
    def test_cache_hits_per_algorithm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        for _ in range(2):
            assert (
                main(
                    [
                        "--corpus",
                        "nonlalr01",
                        "--table-algorithm",
                        "ielr",
                        "--cache-dir",
                        cache_dir,
                    ]
                )
                == 0
            )
        capsys.readouterr()
        # Different construction, same grammar: a distinct cache entry,
        # so the LALR run still reports its conflicts.
        assert (
            main(
                ["--corpus", "nonlalr01", "--quiet", "--cache-dir", cache_dir]
            )
            == 1
        )
        assert "2 conflicts" in capsys.readouterr().out


class TestSignalCancellation:
    """SIGINT/SIGTERM mid-campaign: structured cancellation, exit 130."""

    def test_sigint_mid_campaign_flushes_partial_report(self, tmp_path):
        import json
        import os
        import signal
        import subprocess
        import sys
        import time

        out = tmp_path / "interrupted.json"
        env = dict(os.environ, PYTHONPATH="src")
        # C.4's unifying searches time out (paper: T/L), so a generous
        # per-conflict budget guarantees the campaign is still mid-search
        # when the signal lands.
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "--corpus", "C.4",
                "--time-limit", "60",
                "--cumulative-limit", "600",
                "--quiet",
                "--robust-report", str(out),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        time.sleep(2.0)
        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=60)

        assert process.returncode == 130
        assert "interrupted" in stderr
        assert "received SIGINT" in stderr
        assert "Traceback" not in stderr
        # The partial robust report was still flushed, well-formed, and
        # covers every conflict (unreached ones as cancellation stubs).
        data = json.loads(out.read_text())
        assert data["conflicts"] == len(data["reports"])
        assert any(
            any(
                d.get("error_type") == "Cancelled"
                for d in report.get("degradations", [])
            )
            for report in data["reports"]
        )

    def test_sigterm_stops_parallel_run_promptly(self, tmp_path):
        import json
        import os
        import signal
        import subprocess
        import sys
        import time

        out = tmp_path / "interrupted.json"
        env = dict(os.environ, PYTHONPATH="src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "--corpus", "C.4",
                "--time-limit", "60",
                "--cumulative-limit", "600",
                "--jobs", "2",
                "--quiet",
                "--robust-report", str(out),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        time.sleep(2.0)
        signalled = time.monotonic()
        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60)
        # The workers are stopped, not waited for: their searches would
        # run for up to a minute each.
        assert time.monotonic() - signalled < 10.0
        assert process.returncode == 130
        assert "received SIGTERM" in stderr
        assert "Traceback" not in stderr
        data = json.loads(out.read_text())
        assert data["complete"]
        assert data["conflicts"] == len(data["reports"])

    def test_token_cancellation_in_process(self, capsys):
        """The same machinery, driven without a real signal."""
        import json

        from repro.core import CounterexampleFinder
        from repro.corpus import load as load_corpus
        from repro.automaton import build_automaton
        from repro.robust.budget import CancellationToken

        token = CancellationToken()
        token.cancel("received SIGINT")
        automaton = build_automaton(load_corpus("figure1"))
        summary = CounterexampleFinder(
            automaton, time_limit=30.0, token=token
        ).explain_all()
        # Every conflict is covered; all are cancellation stubs.
        assert summary.num_conflicts == 3
        assert len(summary.reports) == 3
        assert all(r.rung.value == "stub" for r in summary.reports)
