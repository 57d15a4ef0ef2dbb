from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cookietrail
from cookietrail import cli, crawllog
from cookietrail.cli import _load_logs, build_parser, main
from cookietrail.crawllog import (
    BannerObserved, CookieSet, HttpRequest, Interaction, VisitEnd, VisitStart, parse_log_text, serialize
)
from cookietrail.detector import IntractableFinding
from cookietrail.errors import InputError, PipelineError, quoted
from cookietrail.jar import SNAPSHOT_FORMAT, SNAPSHOT_VERSION, CookieJar, HistoryEntry
from cookietrail.model import (
    Channel, CookieKey, InteractionAction, InteractionStage, Iteration, Phase, VisitOutcome
)
from helpers import (
    cmp_banner, native_banner, object_path, paywall_banner, random_config, run_pipeline, save_jar, set_path
)

DEMO = Path(__file__).parent.parent / "demo"


def _run(args) -> int:
    return main([str(a) for a in args])


def _argv(command: str, d: Path, flags: dict | None = None) -> list:
    """``command``'s argv over the analyzed demo run in ``d``, its outputs written beside it.

    ``flags`` add options or replace the command's own; a list repeats its flag.
    """
    rules = {"--psl": DEMO / "psl.dat", "--trackers": d / "trackers.txt"}
    options = {
        "simulate": {"--config": DEMO / "ecosystem.json", "--seed": 7, "--out": d / "x.log"},
        "validate-log": {"--log": d / "run.log"},
        "build-jar": {"--log": d / "run.log", "--out": d / "out.snap"},
        "detect": {"--jar": d / "jar.snap", "--log": d / "run.log", **rules, "--out": d / "out.jsonl"},
        "report": {"--findings": d / "findings.jsonl", "--jar": d / "jar.snap", "--log": d / "run.log", **rules,
                   "--out": d / "report"},
        "filter-convert": {"--adblock": d / "adblock.txt", "--out": d / "out.txt"},
    }[command] | (flags or {})
    return [command, *(arg for flag, value in options.items()
                       for item in (value if isinstance(value, list) else [value]) for arg in (flag, item))]


def _run_json(command: str, d: Path, flags: dict | None = None) -> int:
    """Run ``_argv(command, d, flags)`` with ``--errors json``; its exit code."""
    return _run(["--errors", "json", *_argv(command, d, flags)])


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory) -> Path:
    """The demo crawled at seed 7 and analyzed, once per module; tests read copies of it.

    It holds the crawl's log, tracker list and truth, its jar, findings, resets and syncs, an adblock list and an
    empty pipeline config: a valid input for every reader.
    """
    d = tmp_path_factory.mktemp("demo-run")
    assert _run(_argv("simulate", d, {"--out": d / "run.log", "--trackers-out": d / "trackers.txt",
                                     "--truth-out": d / "truth.json"})) == 0
    assert _run(_argv("build-jar", d, {"--out": d / "jar.snap"})) == 0
    assert _run(_argv("detect", d, {"--out": d / "findings.jsonl", "--resets-out": d / "resets.jsonl",
                                   "--syncs-out": d / "syncs.jsonl"})) == 0
    (d / "adblock.txt").write_text("||adnet.example^\n")
    (d / "pipeline.json").write_text("{}")
    return d


@pytest.fixture
def workspace(tmp_path, demo_run):
    """A directory holding the demo crawl's run.log, trackers.txt and truth.json."""
    for name in ("run.log", "trackers.txt", "truth.json"):
        shutil.copyfile(demo_run / name, tmp_path / name)
    return tmp_path


@pytest.fixture
def analyzed(tmp_path, demo_run):
    """A directory holding all of ``demo_run``."""
    shutil.copytree(demo_run, tmp_path, dirs_exist_ok=True)
    return tmp_path


class TestSimulate:
    def test_rerun_identical_files(self, tmp_path):
        for name in ("a", "b"):
            assert (
                _run(
                    [
                        "simulate",
                        "--config", DEMO / "ecosystem.json",
                        "--seed", 7,
                        "--out", tmp_path / f"{name}.log",
                    ]
                )
                == 0
            )
        assert (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()

    def test_trackers_out_lists_listed_domains(self, workspace):
        text = (workspace / "trackers.txt").read_text()
        assert "adnet.example" in text
        assert "partit.example" in text

    def test_invalid_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert _run(["simulate", "--config", bad, "--seed", 1, "--out", tmp_path / "x.log"]) == 1

    @pytest.mark.parametrize(
        "path, value",
        [
            (("sites", 0, "paywall"), "false"),
            (("trackers", 0, "honors_gpc"), "no"),
            (("trackers", 0, "sets_partitioned"), 1),
            (("trackers", 0, "resets_on_send"), None),
            (("trackers", 0, "listed"), "false"),
            (("trackers", 0, "drop_after_reject_prob"), "0.5"),
            (("trackers", 0, "drop_after_reject_prob"), True),
            (("schedule", "gpc_enabled"), "false"),
        ],
    )
    def test_config_flag_of_the_wrong_type_is_invalid_config(self, tmp_path, capsys, path, value):
        """A flag must be a JSON boolean and a probability a number, not a string that reads as one; the error
        names the object and the field."""
        config = json.loads((DEMO / "ecosystem.json").read_text())
        set_path(config, path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "x.log"
        assert _run(["--errors", "json", "simulate", "--config", bad, "--seed", 1, "--out", out]) == 1
        record = _json_error(capsys)
        assert record["error"] == "INVALID_CONFIG"
        assert record["message"] == f"{bad}: {object_path(path)}bad {path[-1]} {quoted(value)}", record
        assert not out.exists()

    @pytest.mark.parametrize("embedded", [True, False])
    def test_unknown_value_kind_is_invalid_config_at_load(self, tmp_path, capsys, embedded):
        """A value generator of unknown kind fails the load, whether or not any site embeds its tracker."""
        config = json.loads((DEMO / "ecosystem.json").read_text())
        if embedded:
            tracker = config["trackers"][0]
            assert any(e["tracker"] == tracker["domain"] for s in config["sites"] for e in s.get("embeds", []))
        else:
            tracker = {"domain": "unembedded.example", "cookies": [{"name": "u"}]}
            config["trackers"].append(tracker)
        tracker["cookies"][0]["value"] = {"kind": "bogus"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "x.log"
        assert _run(["--errors", "json", "simulate", "--config", bad, "--seed", 1, "--out", out]) == 1
        where = f"trackers[{config['trackers'].index(tracker)}]: cookies[0]: value"
        assert _json_error(capsys) == {"error": "INVALID_CONFIG", "message": f"{bad}: {where}: bad kind 'bogus'"}
        assert os.listdir(tmp_path) == ["bad.json"]

    # SHA-256 of the demo's --trackers-out and --truth-out at seed 7, with and without --run-id.
    DEMO_TRACKERS = "106eeea17f0aa2adaeb677d16bbdd64499e2fc8342a254ec246fcb77c5055f6d"
    DEMO_TRUTH = "eb508d051e19e19ba4e6be4a3dad8f6a0744f7269a7c8d8c2af073a77e611a0b"

    def test_outputs_equal_the_library_path(self, tmp_path):
        """--out is ``serialize(generate(...))`` byte for byte; --trackers-out and --truth-out are as written before."""
        simulator = cookietrail.simulator
        demo = simulator.EcosystemConfig.from_json((DEMO / "ecosystem.json").read_text(encoding="utf-8"))
        cases = [("demo", demo, 7)] + [(str(seed), random_config(random.Random(seed)), seed) for seed in range(50)]
        for name, config, seed in cases:
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(config.to_obj()), encoding="utf-8")
            truth = json.dumps(simulator.ground_truth(config, seed).to_obj(), sort_keys=True, separators=(",", ":"))
            for label in ("", "run-b"):
                out = tmp_path / name / (label or "none")
                out.mkdir(parents=True)
                argv = ["simulate", "--config", config_path, "--seed", seed, "--out", out / "run.log",
                        "--trackers-out", out / "trackers.txt", "--truth-out", out / "truth.json"]
                assert _run(argv + (["--run-id", label] if label else [])) == 0
                log = serialize(simulator.generate(config, seed, run_label=label))
                assert (out / "run.log").read_bytes() == log.encode("utf-8"), (name, label)
                trackers = "".join(f"{d}\n" for d in config.listed_tracker_domains())
                assert (out / "trackers.txt").read_bytes() == trackers.encode("utf-8"), (name, label)
                assert (out / "truth.json").read_bytes() == f"{truth}\n".encode("utf-8"), (name, label)
                assert sorted(os.listdir(out)) == ["run.log", "trackers.txt", "truth.json"]
                if name == "demo":
                    assert hashlib.sha256((out / "trackers.txt").read_bytes()).hexdigest() == self.DEMO_TRACKERS
                    assert hashlib.sha256((out / "truth.json").read_bytes()).hexdigest() == self.DEMO_TRUTH

    def test_failure_mid_crawl_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        """The log streams to a temporary file; a failure after the first visit removes it, and old outputs stay."""
        directory = tmp_path / "out"
        directory.mkdir()
        visits = []
        start = cookietrail.simulator._Run._start

        def failing_start(run, *args):
            if visits:
                # The first visit has gone to the sink: the log is open beside its target.
                staged = [p for p in os.listdir(directory) if p.startswith(".run.log.") and p.endswith(".tmp")]
                assert len(staged) == 1, staged
                raise InputError("INVALID_CONFIG", "planted failure")
            visits.append(args)
            start(run, *args)

        monkeypatch.setattr(cookietrail.simulator._Run, "_start", failing_start)
        argv = ["--errors", "json", "simulate", "--config", DEMO / "ecosystem.json", "--seed", 7,
                "--out", directory / "run.log", "--truth-out", directory / "truth.json"]
        assert _run(argv) == 1
        assert _json_error(capsys) == {"error": "INVALID_CONFIG", "message": "planted failure"}
        assert os.listdir(directory) == []
        (directory / "run.log").write_bytes(b"old log\n")
        (directory / "truth.json").write_bytes(b"old truth\n")
        visits.clear()
        assert _run(argv) == 1
        _json_error(capsys)
        assert sorted(os.listdir(directory)) == ["run.log", "truth.json"]
        assert (directory / "run.log").read_bytes() == b"old log\n"
        assert (directory / "truth.json").read_bytes() == b"old truth\n"

    @pytest.mark.parametrize("flag", ["--trackers-out", "--truth-out"])
    def test_unwritable_later_output_leaves_no_log(self, tmp_path, capsys, flag):
        """An output that cannot be written fails the command before any output takes its place."""
        missing = tmp_path / "missing" / "file"
        argv = ["--errors", "json", "simulate", "--config", DEMO / "ecosystem.json", "--seed", 7,
                "--out", tmp_path / "run.log", flag, missing]
        assert _run(argv) == 1
        problem = f"[Errno 2] No such file or directory: {quoted(str(missing))}"
        assert _json_error(capsys) == {"error": "IO_ERROR", "message": problem}
        assert os.listdir(tmp_path) == []
        (tmp_path / "run.log").write_bytes(b"old log\n")
        assert _run(argv) == 1
        _json_error(capsys)
        assert os.listdir(tmp_path) == ["run.log"]
        assert (tmp_path / "run.log").read_bytes() == b"old log\n"

    def test_target_that_is_a_directory_is_io_error_naming_it(self, tmp_path, capsys):
        (tmp_path / "run.log").mkdir()
        assert _run(["--errors", "json", "simulate", "--config", DEMO / "ecosystem.json", "--seed", 7,
                     "--out", tmp_path / "run.log"]) == 1
        problem = f"[Errno 21] Is a directory: {quoted(str(tmp_path / 'run.log'))}"
        assert _json_error(capsys) == {"error": "IO_ERROR", "message": problem}
        assert os.listdir(tmp_path) == ["run.log"]


# Each command's output flags in the order it opens them, after simulate's.
_STAGED_FLAGS = {"build-jar": ["--out"], "detect": ["--out", "--resets-out", "--syncs-out"],
                 "filter-convert": ["--out"]}


class TestStagedOutputs:
    """build-jar, detect, report and filter-convert stage their outputs as simulate does: a failed run replaces none."""

    @pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _STAGED_FLAGS.items() for f in flags])
    @pytest.mark.parametrize("unwritable", ["in a missing directory", "a directory"])
    def test_unwritable_output_leaves_the_others_as_they_were(self, analyzed, tmp_path, capsys, command, flag,
                                                              unwritable):
        out = tmp_path / "out"
        out.mkdir()
        if unwritable == "a directory":
            blocked = tmp_path / "blocked"
            blocked.mkdir()
            problem = f"[Errno 21] Is a directory: {quoted(str(blocked))}"
        else:
            blocked = tmp_path / "missing" / "file"
            problem = f"[Errno 2] No such file or directory: {quoted(str(blocked))}"
        paths = {f: blocked if f == flag else out / f.strip("-") for f in _STAGED_FLAGS[command]}
        argv = ["--errors", "json", *_argv(command, analyzed, paths)]
        capsys.readouterr()
        assert _run(argv) == 1
        assert _json_error(capsys) == {"error": "IO_ERROR", "message": problem}
        assert os.listdir(out) == []
        others = [path for path in paths.values() if path != blocked]
        for path in others:
            path.write_bytes(b"old\n")
        assert _run(argv) == 1
        _json_error(capsys)
        assert sorted(os.listdir(out)) == sorted(path.name for path in others)
        assert all(path.read_bytes() == b"old\n" for path in others)

    @pytest.mark.parametrize("blocked", ["banner_type_averages.csv", "totals.csv", "tracker_table.csv",
                                         "manifest.json"])
    def test_unwritable_report_file_leaves_the_directory_as_it_was(self, analyzed, tmp_path, capsys, blocked):
        """report stages its CSVs and manifest too: one that cannot be written replaces none of the others."""
        def report(out):
            return _run_json("report", analyzed, {"--out": out})

        fresh, earlier = tmp_path / "fresh", tmp_path / "earlier"
        (fresh / blocked).mkdir(parents=True)
        assert report(earlier) == 0
        names = sorted(os.listdir(earlier))
        assert len(names) == 14 and "manifest.json" in names
        for name in names:
            (earlier / name).write_bytes(b"old\n")
        (earlier / blocked).unlink()
        (earlier / blocked).mkdir()
        capsys.readouterr()
        for out in (fresh, earlier):
            assert report(out) == 1
            assert _json_error(capsys) == {"error": "IO_ERROR",
                                           "message": f"[Errno 21] Is a directory: {quoted(str(out / blocked))}"}
        assert os.listdir(fresh) == [blocked]
        assert sorted(os.listdir(earlier)) == names
        assert all((earlier / name).read_bytes() == b"old\n" for name in names if name != blocked)

    def test_failure_while_saving_the_jar_keeps_the_old_snapshot(self, analyzed, tmp_path, capsys, monkeypatch):
        def failing_save(jar, out):
            out.write("partial")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(CookieJar, "save", failing_save)
        target = tmp_path / "out" / "jar.snap"
        target.parent.mkdir()
        target.write_bytes(b"old\n")
        capsys.readouterr()
        assert _run_json("build-jar", analyzed, {"--out": target}) == 1
        assert _json_error(capsys) == {"error": "IO_ERROR", "message": "[Errno 28] No space left on device"}
        assert os.listdir(target.parent) == ["jar.snap"]
        assert target.read_bytes() == b"old\n"


@pytest.mark.parametrize("argv", [
    ["validate-log", "--log", "P" * 100_000],
    ["simulate", "--config", DEMO / "ecosystem.json", "--seed", 7, "--out", "R" * 100_000],
], ids=["validate-log", "simulate"])
def test_an_io_error_on_a_huge_path_is_one_bounded_record(tmp_path, capsys, monkeypatch, argv):
    """An IO_ERROR cuts the path it names like every other echoed value."""
    monkeypatch.chdir(tmp_path)
    assert _run(["--errors", "json", *argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1 and len(err.encode("utf-8")) < 1000, err[:200]
    problem = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: {quoted(argv[-1])}"
    assert json.loads(err) == {"error": "IO_ERROR", "message": problem}
    assert os.listdir(tmp_path) == []


class TestPipeline:
    def test_full_pipeline_and_determinism(self, workspace):
        d = workspace
        for run in ("one", "two"):
            jar, findings = d / f"jar-{run}.snap", d / f"findings-{run}.jsonl"
            assert _run(_argv("build-jar", d, {"--out": jar})) == 0
            assert _run(_argv("detect", d, {"--jar": jar, "--out": findings, "--resets-out": d / f"resets-{run}.jsonl",
                                            "--syncs-out": d / f"syncs-{run}.jsonl"})) == 0
            assert _run(_argv("report", d, {"--findings": findings, "--jar": jar, "--out": d / f"report-{run}",
                                            "--tiers": "2,4,6"})) == 0

        def digest(path: Path) -> str:
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert digest(d / "jar-one.snap") == digest(d / "jar-two.snap")
        assert digest(d / "findings-one.jsonl") == digest(d / "findings-two.jsonl")
        one = sorted((d / "report-one").iterdir())
        two = sorted((d / "report-two").iterdir())
        assert [p.name for p in one] == [p.name for p in two]
        for a, b in zip(one, two):
            assert digest(a) == digest(b), a.name

    def test_findings_match_truth(self, analyzed):
        truth = json.loads((analyzed / "truth.json").read_text())
        expected = {(f["name"], f["host"], f["sender_site"]) for f in truth["expected_findings"]}
        records = [json.loads(line) for line in (analyzed / "findings.jsonl").read_text().splitlines()[1:]]
        assert {(r["name"], r["host"], r["sender_site"]) for r in records if r["canonical"]} == expected

    def test_detect_with_empty_jar_exits_zero(self, workspace, tmp_path):
        empty = tmp_path / "empty.snap"
        save_jar(CookieJar(), empty)
        out = tmp_path / "findings.jsonl"
        assert _run(_argv("detect", workspace, {"--jar": empty, "--out": out})) == 0
        assert out.read_text() == '{"format_version":1}\n'

    def test_report_manifest_lists_files(self, analyzed):
        assert _run(_argv("report", analyzed)) == 0
        report_dir = analyzed / "report"
        manifest = json.loads((report_dir / "manifest.json").read_text())
        names = {f["name"] for f in manifest["files"]}
        assert "tracker_table.csv" in names
        assert "expiry_renewal_heatmap.csv" in names
        for entry in manifest["files"]:
            data = (report_dir / entry["name"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_build_jar_sampling_flags(self, workspace, tmp_path):
        out = tmp_path / "sampled.snap"
        assert _run(_argv("build-jar", workspace, {"--out": out, "--sample-n": 1, "--sample-seed": 3})) == 0
        assert len(CookieJar.load(out).accepted_sites) == 1


class TestValidateLog:
    def test_valid_log(self, workspace):
        assert _run(["validate-log", "--log", workspace / "run.log"]) == 0

    def test_sequence_violation_exit_2(self, workspace, tmp_path, capsys):
        lines = (workspace / "run.log").read_text().splitlines()
        # Swap two body lines of one visit to break stage ordering.
        for i in range(1, len(lines) - 1):
            a, b = json.loads(lines[i]), json.loads(lines[i + 1])
            if a.get("kind") == "INTERACTION" and b.get("kind") == "HTTP_REQUEST":
                lines[i], lines[i + 1] = lines[i + 1], lines[i]
                break
        bad = tmp_path / "bad.log"
        bad.write_text("\n".join(lines) + "\n")
        assert _run(["--errors", "json", "validate-log", "--log", bad]) == 2
        err = capsys.readouterr().err
        assert "SEQUENCE_VIOLATION" in err

    def test_malformed_record_exit_1(self, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_text('{"format_version":1}\n{"kind": "VISIT_START"\n')
        assert _run(["validate-log", "--log", bad]) == 1

    def test_malformed_cookie_header_exit_1(self, workspace, tmp_path, capsys):
        lines = (workspace / "run.log").read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record.get("kind") == "HTTP_REQUEST" and record.get("cookie_header"):
                record["cookie_header"] = record["cookie_header"] + "; brokenpair"
                lines[i] = json.dumps(record)
                break
        bad = tmp_path / "bad.log"
        bad.write_text("\n".join(lines) + "\n")
        assert _run(["--errors", "json", "validate-log", "--log", bad]) == 1
        assert "MALFORMED_PAIR" in capsys.readouterr().err

    def test_missing_file_io_error(self, tmp_path):
        assert _run(["validate-log", "--log", tmp_path / "nope.log"]) == 1


@pytest.mark.parametrize("command", ["validate-log", "build-jar"])
@pytest.mark.parametrize("header, code, problem", [
    ("=novalue; Domain=.x.com", "MISSING_NAME", "Set-Cookie without a cookie name: '=novalue; Domain=.x.com'"),
    ("id=1; Domain=a..b", "INVALID_LABEL", "empty label in 'a..b'"),
], ids=["no-name", "bad-domain"])
def test_a_set_cookie_header_without_a_cookie_names_its_visit(workspace, capsys, command, header, code, problem):
    """The first COOKIE_SET's header, which an accepted visit sets, replaced by one that no cookie can be read from."""
    lines = (workspace / "run.log").read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if '"kind":"COOKIE_SET"' in line)
    record = json.loads(lines[first])
    record["set_cookie_header"] = header
    lines[first] = json.dumps(record)
    bad = workspace / "bad-set-cookie.log"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert _run_json(command, workspace, {"--log": bad}) == 1
    assert _json_error(capsys) == {"error": code, "message": f"visit {record['visit_id']!r}: {problem}"}
    assert not (workspace / "out.snap").exists()


class TestPipelineConfig:
    def _write_config(self, workspace, **overrides):
        jar = workspace / "jar.snap"
        _run(["build-jar", "--log", workspace / "run.log", "--out", jar])
        config = {
            "psl_path": str(DEMO / "psl.dat"),
            "filter_lists": {"plain": [str(workspace / "trackers.txt")], "adblock": []},
            "jar_path": str(jar),
            "log_paths": [str(workspace / "run.log")],
            "report_dir": str(workspace / "cfg-report"),
            "tier_cutoffs": [2, 6],
        }
        config.update(overrides)
        path = workspace / "pipeline.json"
        path.write_text(json.dumps(config))
        return path

    def test_detect_and_report_from_config(self, workspace):
        config = self._write_config(workspace)
        findings = workspace / "cfg-findings.jsonl"
        assert _run(["detect", "--config", config, "--out", findings]) == 0
        assert findings.read_text().count("\n") > 1
        assert _run(["report", "--config", config, "--findings", findings]) == 0
        assert (workspace / "cfg-report" / "manifest.json").exists()

    def test_flags_override_config(self, workspace):
        config = self._write_config(workspace)
        out = workspace / "override-report"
        findings = workspace / "cfg-findings.jsonl"
        _run(["detect", "--config", config, "--out", findings])
        assert _run(["report", "--config", config, "--findings", findings, "--out", out]) == 0
        assert (out / "manifest.json").exists()

    def test_missing_referenced_path_rejected(self, workspace):
        config = self._write_config(workspace, jar_path=str(workspace / "ghost.snap"))
        code = _run(["detect", "--config", config, "--out", workspace / "f.jsonl"])
        assert code == 1



def _rewrite_hosts(log: str, rewrite) -> str:
    """A log with ``rewrite`` applied to every host field."""
    lines = log.split("\n")
    for i, line in enumerate(lines[1:-1], start=1):
        record = json.loads(line)
        for field in ("site", "target_host", "setter_context_host"):
            if field in record:
                record[field] = rewrite(record[field])
        lines[i] = json.dumps(record, sort_keys=True)
    return "\n".join(lines)


class TestCanonicalHosts:
    def test_upper_case_log_yields_the_same_artifacts(self, workspace, tmp_path):
        rules = ["--psl", DEMO / "psl.dat", "--trackers", workspace / "trackers.txt"]
        upper = tmp_path / "upper.log"
        upper.write_text(_rewrite_hosts((workspace / "run.log").read_text(), str.upper))
        logs = {"lower": workspace / "run.log", "upper": upper}
        for name, log in logs.items():
            assert _run(["validate-log", "--log", log]) == 0
            assert _run(["build-jar", "--log", log, "--out", tmp_path / f"{name}.snap"]) == 0
            assert _run(["detect", "--jar", tmp_path / f"{name}.snap", "--log", log, *rules,
                         "--out", tmp_path / f"{name}.jsonl"]) == 0
        findings = (tmp_path / "upper.jsonl").read_text()
        assert findings == (tmp_path / "lower.jsonl").read_text()
        assert any(json.loads(line)["canonical"] for line in findings.splitlines()[1:])
        assert (tmp_path / "upper.snap").read_bytes() == (tmp_path / "lower.snap").read_bytes()


class TestMergedLogs:
    @pytest.mark.parametrize("second", ["the first again", "reused visit ids", "a cut line"])
    def test_a_bad_second_log_is_named_by_every_log_reader(self, analyzed, tmp_path, capsys, second):
        """The second of two logs fails as it would alone, and the record names it.

        A visit id that the first log holds is a sequence violation (exit 2), and a cut line an input error.
        """
        log, other = analyzed / "run.log", tmp_path / "other.log"
        if second == "the first again":
            other = log
        else:
            # Without --run-id, a second run reuses the first run's visit ids.
            run_id = {"--run-id": "b"} if second == "a cut line" else {}
            assert _run(_argv("simulate", analyzed, {"--seed": 8, "--out": other, **run_id})) == 0
        first_visit = json.loads(other.read_text().splitlines()[1])["visit_id"]
        if second == "a cut line":
            lines = other.read_text().split("\n")
            lines[2] = lines[2][:-1]
            other.write_text("\n".join(lines))
            problem = "line 3: invalid JSON (Expecting ',' delimiter)"
            expected = 1, {"error": "MALFORMED_RECORD", "message": f"{other}: {problem}"}
        else:
            assert first_visit in parse_log_text(log.read_text()).visits
            problem = f"visit {first_visit!r}: duplicate VISIT_START"
            expected = 2, {"error": "SEQUENCE_VIOLATION", "message": f"{other}: {problem}"}
        capsys.readouterr()
        for command in ("build-jar", "detect", "report"):
            code = _run_json(command, analyzed, {"--log": [log, other]})
            assert (code, _json_error(capsys)) == expected, command

    def test_runs_with_distinct_ids_merge(self, workspace, tmp_path):
        second, merged = tmp_path / "second.log", tmp_path / "merged.snap"
        assert _run(_argv("simulate", workspace, {"--seed": 8, "--out": second, "--run-id": "b"})) == 0
        assert _run(_argv("build-jar", workspace, {"--log": [workspace / "run.log", second], "--out": merged})) == 0
        jar = CookieJar.load(merged)
        assert len(jar.accepted_sites) == 3  # same sites accepted in both runs
        assert len(jar.history) == 20  # two runs' writes accumulate

    def test_three_logs_form_one_indexed_stream(self, workspace, tmp_path):
        logs = []
        for run_id, seed in (("a", 7), ("b", 8), ("c", 9)):
            logs.append(tmp_path / f"{run_id}.log")
            assert _run(["simulate", "--config", DEMO / "ecosystem.json", "--seed", seed,
                         "--out", logs[-1], "--run-id", run_id]) == 0
        # Each file parsed on its own is numbered from 0; merged, a file's events follow the previous file's,
        # and its visits follow the previous file's visits.
        parts = [parse_log_text(path.read_text()) for path in logs]
        merged = _load_logs(logs)
        first, requests, cookie_sets = 0, [], []
        for part in parts:
            requests += [e._replace(event_index=first + e.event_index) for e in part.requests]
            cookie_sets += [e._replace(event_index=first + e.event_index) for e in part.cookie_sets]
            first += len(part)
        assert (merged.requests, merged.cookie_sets, len(merged)) == (requests, cookie_sets, first)
        assert list(merged.visits.items()) == [row for part in parts for row in part.visits.items()]
        assert merged.ended == [row for part in parts for row in part.ended]
        stream = {e.event_index: e for e in merged.requests + merged.cookie_sets}

        jar, findings = tmp_path / "jar.snap", tmp_path / "findings.jsonl"
        assert _run(_argv("build-jar", workspace, {"--log": logs, "--out": jar})) == 0
        assert _run(_argv("detect", workspace, {"--jar": jar, "--log": logs, "--out": findings})) == 0
        assert _run(_argv("report", workspace, {"--findings": findings, "--jar": jar, "--log": logs})) == 0
        # A history row's index (the set_at of its write) names the COOKIE_SET in the merged stream.
        written = [row.event_index for row in CookieJar.load(jar).history]
        assert written == sorted(set(written))
        assert all(isinstance(stream[i], CookieSet) for i in written)
        assert {stream[i].visit_id[0] for i in written} == {"a", "b", "c"}
        records = [json.loads(line) for line in findings.read_text().splitlines()[1:]]
        assert {r["visit_id"][0] for r in records} == {"a", "b", "c"}
        assert all(stream[r["event_index"]].visit_id == r["visit_id"] for r in records)


def _interleaved_events() -> list:
    """Two accept-phase visits, then two measure-phase reject visits, each pair interleaved."""
    S = InteractionStage

    def tracker_set(visit_id, stage, pair):
        return CookieSet(visit_id, stage, f"{pair}; Domain=tracker.net; Max-Age=86400", "cdn.tracker.net")

    def send(visit_id, stage, header, host="cdn.tracker.net", url="https://cdn.tracker.net/px", parent=None):
        return HttpRequest(visit_id, stage, host, url, Channel.RESOURCE_FETCH, header, parent)

    accept = (Phase.STATEFUL_ACCEPT, Iteration.ACCEPT_ITER, False)
    reject = (Phase.STATELESS_MEASURE, Iteration.REJECT_ITER, False)
    return [
        VisitStart("a1", "first.com", 1, *accept),
        BannerObserved("a1", paywall_banner()),
        VisitStart("a2", "second.com", 2, *accept),
        BannerObserved("a2", native_banner()),
        Interaction("a1", InteractionAction.ACCEPT_CLICKED, S.AFTER_ACCEPT),
        Interaction("a2", InteractionAction.ACCEPT_CLICKED, S.AFTER_ACCEPT),
        tracker_set("a1", S.AFTER_ACCEPT, "id=one"),
        tracker_set("a2", S.AFTER_ACCEPT, "id=two"),
        tracker_set("a2", S.AFTER_ACCEPT, "uid=AbCdEf1234567890"),
        tracker_set("a1", S.AFTER_ACCEPT, "pref=1"),
        VisitEnd("a2", VisitOutcome.ACCEPTED),
        VisitEnd("a1", VisitOutcome.ACCEPTED),
        VisitStart("m1", "third.com", 3, *reject),
        BannerObserved("m1", native_banner()),
        VisitStart("m2", "fourth.com", 4, *reject),
        BannerObserved("m2", cmp_banner(settings_reject=True)),
        send("m2", S.BEFORE_INTERACTION, "id=one; uid=AbCdEf1234567890"),
        send("m1", S.BEFORE_INTERACTION, "id=two; pref=1"),
        tracker_set("m1", S.BEFORE_INTERACTION, "id=three"),
        send("m2", S.BEFORE_INTERACTION, "", "sync.other.com", "https://sync.other.com/?u=AbCdEf1234567890",
             "https://cdn.tracker.net/px"),
        Interaction("m2", InteractionAction.REJECT_CLICKED, S.AFTER_REJECT),
        Interaction("m1", InteractionAction.REJECT_CLICKED, S.AFTER_REJECT),
        send("m1", S.AFTER_REJECT, "id=one"),
        tracker_set("m2", S.AFTER_REJECT, "uid=renewed"),
        VisitEnd("m1", VisitOutcome.REJECTED),
        VisitEnd("m2", VisitOutcome.REJECTED),
    ]


def _interleaved_chain(directory: Path) -> dict[str, str]:
    """Run build-jar, detect and report over the interleaved log; the SHA-256 of each artifact."""
    log = directory / "run.log"
    log.write_text(serialize(_interleaved_events()))
    (directory / "psl.dat").write_text("com\nnet\n")
    (directory / "trackers.txt").write_text("tracker.net\nother.com\n")
    rules = ["--psl", directory / "psl.dat", "--trackers", directory / "trackers.txt"]
    jar, findings = directory / "jar.snap", directory / "findings.jsonl"
    resets, syncs = directory / "resets.jsonl", directory / "syncs.jsonl"
    assert _run(["build-jar", "--log", log, "--out", jar]) == 0
    assert _run(["detect", "--jar", jar, "--log", log, *rules, "--out", findings,
                 "--resets-out", resets, "--syncs-out", syncs]) == 0
    assert _run(["report", "--findings", findings, "--jar", jar, "--log", log, *rules,
                 "--resets", resets, "--syncs", syncs, "--out", directory / "report"]) == 0
    names = ("jar.snap", "findings.jsonl", "resets.jsonl", "syncs.jsonl", "report/manifest.json")
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


class TestInterleavedVisits:
    # The artifacts' digests as the chain wrote them before the run index existed.
    PINNED = {
        "jar.snap": "56c4f598cd09108651e2acb2d7817a9a5cb020bb423fd3338b457dad64bb1db5",
        "findings.jsonl": "0afb987115b2b8caad86b39260fad9b8a1f95194889452a7d2dac32f8f153802",
        "resets.jsonl": "f4c734db1e0314a070cbc4e665c925e1d0315b542df3e35eb2b0571591f2332e",
        "syncs.jsonl": "1f25b0afb571dd540283a275e1d0b56ebe2e25df99b89cf03c4f7b351588ec3a",
        "report/manifest.json": "82de8313045aecf7a8e0ae88c5ef1cc08c4a234a3cc98ec1aa663c32e26cf5aa",
    }

    def test_artifacts_keep_their_bytes(self, tmp_path):
        assert _interleaved_chain(tmp_path) == self.PINNED

    def test_writes_apply_at_visit_end_and_findings_keep_event_order(self, tmp_path):
        _interleaved_chain(tmp_path)
        jar = CookieJar.load(tmp_path / "jar.snap")
        # a2 ends first, so a1's write of id, applied last, is the one kept.
        assert jar.entries[CookieKey("id", "tracker.net")].value == "one"
        assert jar.setters_of(CookieKey("id", "tracker.net")) == ("second.com", "first.com")
        records = [json.loads(line) for line in (tmp_path / "findings.jsonl").read_text().splitlines()[1:]]
        assert [r["visit_id"] for r in records] == ["m2", "m2", "m1", "m1", "m1"]
        assert [r["event_index"] for r in records] == sorted(r["event_index"] for r in records)
        resets = [json.loads(line) for line in (tmp_path / "resets.jsonl").read_text().splitlines()[1:]]
        assert [(r["name"], r["sender_site"]) for r in resets] == [("id", "third.com"), ("uid", "fourth.com")]


def _analyzed_run(directory: Path, config: dict, seed: int) -> list:
    """Simulate ``config`` at ``seed``, build its jar and detect; the report's input options."""
    directory.mkdir()
    (directory / "config.json").write_text(json.dumps(config))
    log, jar, trackers = directory / "run.log", directory / "jar.snap", directory / "trackers.txt"
    findings, resets, syncs = directory / "findings.jsonl", directory / "resets.jsonl", directory / "syncs.jsonl"
    rules = ["--psl", DEMO / "psl.dat", "--trackers", trackers]
    assert _run(["simulate", "--config", directory / "config.json", "--seed", seed, "--out", log,
                 "--trackers-out", trackers]) == 0
    assert _run(["build-jar", "--log", log, "--out", jar]) == 0
    assert _run(["detect", "--jar", jar, "--log", log, *rules, "--out", findings,
                 "--resets-out", resets, "--syncs-out", syncs]) == 0
    return ["--findings", findings, "--jar", jar, "--log", log, *rules, "--resets", resets, "--syncs", syncs]


def _manifest_digest(report_args: list, out: Path, tiers: str = "2,5,10,20") -> str:
    assert _run(["report", *report_args, "--tiers", tiers, "--out", out]) == 0
    return hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()


class TestReportBytes:
    """The report manifest, which holds every CSV's SHA-256, keeps its bytes."""

    # The digests as the report wrote them while each analytics table still
    # filtered and tallied the findings itself.
    DEMO_PINNED = {
        "plain": "d7fea2afec1ecd00194614ed6921434e97f46b9320e97cc288d6ecabb84b1a05",
        "gpc": "d07445b7453a5d55772678c0c03d7a2775f404001e1c90a2bbbe44d5babf43c4",
    }
    # random_config(random.Random(seed)) at that seed.
    RANDOM_PINNED = {
        0: "69b166a3ed531fd2ac3713ec0fd519c94966af05a23c9fe76efe8a61789dbe1e",
        1: "ddb7f047f6f0c366a1c2ab861d5c059093d8ef3db49fa9ea13d07423a47aff67",
        2: "4b3bbc82151503b8d10b1a7299d837b5c61a7842ef6ada56bc9a80da2453c725",
        3: "c7468a92111ca5673bec6a67a7e92f4879fac7bcc0ace98aab7f3a66a315e931",
        4: "8d6eb4fb08b5e7bf46279ec1bbdbf4e20f249c9b384139fdb568188b135f3ed5",
    }

    def test_demo_with_and_without_gpc_findings(self, tmp_path):
        config = json.loads((DEMO / "ecosystem.json").read_text())
        report_args = _analyzed_run(tmp_path / "baseline", config, 7)
        config["schedule"]["gpc_enabled"] = True
        gpc_findings = _analyzed_run(tmp_path / "gpc", config, 7)[1]
        got = {
            "plain": _manifest_digest(report_args, tmp_path / "plain"),
            "gpc": _manifest_digest([*report_args, "--gpc-findings", gpc_findings], tmp_path / "with-gpc"),
        }
        assert got == self.DEMO_PINNED

    def test_random_configs(self, tmp_path):
        got = {}
        for seed in self.RANDOM_PINNED:
            report_args = _analyzed_run(tmp_path / f"run{seed}", random_config(random.Random(seed)).to_obj(), seed)
            got[seed] = _manifest_digest(report_args, tmp_path / f"report{seed}")
        assert got == self.RANDOM_PINNED

    # The demo's jar and log at seed 7 with no findings at all, in both
    # findings inputs, no resets or syncs, and a tier that holds no site:
    # every blank and boolean cell the report writes.
    EMPTY_PINNED = "86ef50f1725b57e2a41e295c846aec5032c641d523cacabf5a6e596aefa64fc1"

    def test_header_only_findings_blank_and_boolean_cells(self, tmp_path):
        config = json.loads((DEMO / "ecosystem.json").read_text())
        jar_log_rules = _analyzed_run(tmp_path / "run", config, 7)[2:10]
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"format_version":1}\n')
        out = tmp_path / "report"
        digest = _manifest_digest(
            ["--findings", empty, "--gpc-findings", empty, *jar_log_rules], out, tiers="0,5"
        )
        rows = {p.name: p.read_text().splitlines()[1:] for p in out.glob("*.csv")}
        assert rows["channel_split.csv"] == ["0.0,0.0,true"]
        assert rows["gpc_report.csv"] == ["0.0,,true"]
        assert rows["rank_tiers.csv"][0] == "0,,,0,0,true"
        assert rows["banner_type_averages.csv"][0].split(",")[2] == ""
        assert rows["tracker_table.csv"] == []
        assert rows["totals.csv"][0].split(",")[3:5] == ["", ""]
        assert any(row.endswith(",") for row in rows["paywall_share.csv"])
        assert digest == self.EMPTY_PINNED


class TestFilterConvert:
    def test_conversion(self, tmp_path, capsys):
        adblock = tmp_path / "list.txt"
        adblock.write_text("! comment\n||tracker.net^\n||ads.example^$third-party\n@@||ok.example^\n")
        out = tmp_path / "domains.txt"
        assert _run(["filter-convert", "--adblock", adblock, "--out", out]) == 0
        assert out.read_text() == "ads.example\ntracker.net\n"

    def test_stdout_when_no_out(self, tmp_path, capsys):
        adblock = tmp_path / "list.txt"
        adblock.write_text("||tracker.net^\n")
        assert _run(["filter-convert", "--adblock", adblock]) == 0
        assert capsys.readouterr().out == "tracker.net\n"


def _run_fresh(args, cwd) -> subprocess.CompletedProcess:
    """Run the CLI in a new interpreter, the way the installed script runs."""
    env = {**os.environ, "PYTHONPATH": str(Path(cookietrail.__file__).parent.parent)}
    return subprocess.run([sys.executable, "-m", "cookietrail.cli", *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def _json_error(capsys) -> dict:
    """The single JSON error record on stderr; a traceback there fails the test."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])


class TestSharedParser:
    # (exit code, argv): one chain.  The second detect drops --resets-out,
    # --syncs-out and --psl, and the last command drops --errors json, so an
    # option carried over from an earlier call would change what is written.
    SEQUENCE = (
        (0, ["simulate", "--config", DEMO / "ecosystem.json", "--seed", 7, "--out", "run.log",
             "--trackers-out", "trackers.txt", "--truth-out", "truth.json"]),
        (0, ["build-jar", "--log", "run.log", "--out", "jar.snap"]),
        (0, ["detect", "--jar", "jar.snap", "--log", "run.log", "--psl", DEMO / "psl.dat",
             "--trackers", "trackers.txt", "--out", "f1.jsonl", "--resets-out", "resets.jsonl",
             "--syncs-out", "syncs.jsonl"]),
        (0, ["detect", "--jar", "jar.snap", "--log", "run.log", "--trackers", "trackers.txt", "--out", "f2.jsonl"]),
        (0, ["report", "--findings", "f1.jsonl", "--jar", "jar.snap", "--log", "run.log", "--psl", DEMO / "psl.dat",
             "--trackers", "trackers.txt", "--resets", "resets.jsonl", "--syncs", "syncs.jsonl",
             "--out", "report1"]),
        (0, ["report", "--findings", "f2.jsonl", "--jar", "jar.snap", "--log", "run.log", "--out", "report2"]),
        (1, ["--errors", "json", "validate-log", "--log", "missing.log"]),
        (1, ["validate-log", "--log", "missing.log"]),
    )

    @staticmethod
    def _tree(root: Path) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    def test_sequence_in_one_process_matches_fresh_processes(self, tmp_path, monkeypatch, capsys):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        shared.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(shared)
        for code, command in self.SEQUENCE:
            assert _run(command) == code, command
            if "--resets-out" in command:
                # Set aside: a --resets-out or --syncs-out carried over to the next detect would rewrite them.
                kept = {name: Path(name).read_bytes() for name in ("resets.jsonl", "syncs.jsonl")}
                for name in kept:
                    Path(name).unlink()
            elif command[0] == "detect":
                for name, data in kept.items():
                    assert not Path(name).exists(), name
                    Path(name).write_bytes(data)
        shared_err = capsys.readouterr().err
        fresh_err = ""
        for code, command in self.SEQUENCE:
            done = _run_fresh(command, fresh)
            assert done.returncode == code, done.stderr
            fresh_err += done.stderr
        assert shared_err == fresh_err
        shared_tree, fresh_tree = self._tree(shared), self._tree(fresh)
        assert shared_tree.keys() == fresh_tree.keys()
        for name in shared_tree:
            assert shared_tree[name] == fresh_tree[name], name

    def test_no_option_carries_over_between_parses(self):
        parser = build_parser()
        first = parser.parse_args(["detect", "--out", "a", "--resets-out", "r", "--log", "x", "--log", "y"])
        second = parser.parse_args(["detect", "--out", "b", "--log", "z"])
        assert (first.resets_out, first.log) == ("r", ["x", "y"])
        assert (second.resets_out, second.syncs_out, second.psl, second.log) == (None, None, None, ["z"])

    def test_parser_is_built_once_across_calls(self, workspace, monkeypatch):
        built = []
        original_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        after_round = []
        try:
            for _ in range(3):
                assert _run(["validate-log", "--log", workspace / "run.log"]) == 0
                assert _run(["build-jar", "--log", workspace / "run.log", "--out", workspace / "jar.snap"]) == 0
                after_round.append(len(built))
        finally:
            build_parser.cache_clear()
        # The root parser and its subcommand parsers, built in the first round only.
        assert built.count("cookietrail") == 1
        assert after_round[0] > 1
        assert after_round == after_round[:1] * 3

    def test_patched_build_jar_takes_effect_with_the_parser_cached(self, workspace, monkeypatch):
        build_parser()
        calls = []
        original = cli.build_jar

        def traced(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "build_jar", traced)
        for name in ("a", "b"):
            assert _run(["build-jar", "--log", workspace / "run.log", "--out", workspace / f"{name}.snap"]) == 0
        assert len(calls) == 2
        assert (workspace / "a.snap").read_bytes() == (workspace / "b.snap").read_bytes()


# --- the reader table: every input reader against every fault it can meet ------------------------------------


# Every file the CLI reads, as "command flag": (a valid input of the analyzed run, the code of an error in it).  A
# path is the demo's file; a name is the analyzed run's.
_READERS = {
    "simulate --config": (DEMO / "ecosystem.json", "INVALID_CONFIG"),
    "build-jar --config": ("pipeline.json", "INVALID_CONFIG"),
    "detect --config": ("pipeline.json", "INVALID_CONFIG"),
    "report --config": ("pipeline.json", "INVALID_CONFIG"),
    "validate-log --log": ("run.log", "MALFORMED_RECORD"),
    "build-jar --log": ("run.log", "MALFORMED_RECORD"),
    "detect --log": ("run.log", "MALFORMED_RECORD"),
    "report --log": ("run.log", "MALFORMED_RECORD"),
    "detect --jar": ("jar.snap", "CORRUPT_SNAPSHOT"),
    "report --jar": ("jar.snap", "CORRUPT_SNAPSHOT"),
    "report --findings": ("findings.jsonl", "MALFORMED_RECORD"),
    "report --gpc-findings": ("findings.jsonl", "MALFORMED_RECORD"),
    "report --resets": ("resets.jsonl", "MALFORMED_RECORD"),
    "report --syncs": ("syncs.jsonl", "MALFORMED_RECORD"),
    "detect --psl": (DEMO / "psl.dat", "MALFORMED_RULE"),
    "detect --trackers": ("trackers.txt", "MALFORMED_DOMAIN"),
    "detect --adblock": ("adblock.txt", "MALFORMED_DOMAIN"),
    "filter-convert --adblock": ("adblock.txt", "MALFORMED_DOMAIN"),
}
LOGS = tuple(reader for reader in _READERS if reader.endswith(" --log"))
JARS = ("detect --jar", "report --jar")
NDJSON = ("report --findings", "report --gpc-findings", "report --resets", "report --syncs")
PIPELINE = ("build-jar --config", "detect --config", "report --config")
CONFIGS = ("simulate --config", *PIPELINE)

DEEP = "[" * 200_000  # nested past the JSON decoder's recursion limit
LONG = "9" * 5000  # more digits than int() converts
HUGE = "X" * 100_000  # a value that no member, number or host field accepts


class _Fault(NamedTuple):
    name: str
    readers: tuple
    make: Callable  # the bad input, str or bytes, from the text of the reader's valid input
    problem: str | None  # its record's message after "<path>: " (None: it has no record)
    code: str | None = None  # its record's code, if not the reader's
    exit: int = 1


def _after_header(line: str):
    """A log or NDJSON file whose one record is ``line``."""
    return lambda text: f"{text.partition(chr(10))[0]}\n{line}\n"


def _as_payload(line: str):
    """A jar snapshot whose payload is ``line``, checksummed so that only the payload is wrong."""
    header = json.dumps({"format": SNAPSHOT_FORMAT, "format_version": SNAPSHOT_VERSION,
                         "payload_sha256": hashlib.sha256(line.encode()).hexdigest()})
    return lambda text: f"{header}\n{line}\n"


def _line_edit(pattern: str | None, edit):
    """An edit of a log or NDJSON file: ``edit`` changes its first record that ``pattern`` finds (None: its first)."""
    def apply(text: str) -> str:
        lines = text.split("\n")
        i = next(i for i, line in enumerate(lines) if i and (pattern is None or re.search(pattern, line)))
        record = json.loads(lines[i])
        edit(record)
        lines[i] = json.dumps(record, ensure_ascii=False)
        return "\n".join(lines)
    return apply


def _payload_edit(edit):
    """An edit of a jar snapshot: ``edit`` changes its payload, checksummed again."""
    def apply(text: str) -> str:
        payload = json.loads(text.split("\n")[1])
        edit(payload)
        return _as_payload(json.dumps(payload, ensure_ascii=False))(text)
    return apply


def _config_edit(path: tuple, value):
    """An edit of a JSON config: ``value`` at ``path``."""
    return _config_change(lambda config: set_path(config, path, value))


def _config_change(edit):
    """An edit of a JSON config: ``edit`` changes it."""
    def apply(text: str) -> str:
        config = json.loads(text)
        edit(config)
        return json.dumps(config)
    return apply


def _header_version(version):
    """A header whose ``format_version`` is ``version``."""
    def apply(text: str) -> str:
        header, rest = text.split("\n", 1)
        return json.dumps({**json.loads(header), "format_version": version}) + "\n" + rest
    return apply


def _cut_line(text: str) -> str:
    """The file with its first record's last character cut."""
    header, record, rest = text.split("\n", 2)
    return f"{header}\n{record[:-1]}\n{rest}"


def _nested_setter_list(text: str) -> str:
    """The first finding's ``setter_sites`` moved under an extra last key, beside a ``stage``."""
    header, line, rest = text.split("\n", 2)
    head, after = line.split(',"setter_sites":', 1)
    sites, tail = after.split(',"stage":', 1)
    return f'{header}\n{head},"stage":{tail[:-1]},"zz":{{"a":0,"setter_sites":{sites},"stage":1}}}}\n{rest}'


_LABEL_TOO_LONG = f"label longer than 63 octets: {'x' * 20}..."
_HEADER_WANTED = "line 1: expected header record {'format_version': 1}, got {'format_version': %r}"

# Each fault of an input, and what every reader it applies to makes of it.
_FAULTS = [
    _Fault("not-utf8", tuple(_READERS), lambda text: b"\xff\xfe" + text.encode("utf-16-le"),
           "not UTF-8 (invalid start byte)"),
    _Fault("nested-too-deep", LOGS + NDJSON, _after_header(DEEP), "line 2: invalid JSON (nested too deeply)"),
    _Fault("nested-too-deep", JARS, _as_payload(DEEP), "line 2: invalid JSON (nested too deeply)"),
    _Fault("nested-too-deep-header", JARS, lambda text: f"{DEEP}\n{DEEP}\n",
           "line 1: invalid JSON (nested too deeply)"),
    _Fault("nested-too-deep", CONFIGS, lambda text: DEEP, "invalid JSON (nested too deeply)"),
    _Fault("integer-too-long", LOGS, lambda text: re.sub(r'"rank":\d+', f'"rank":{LONG}', text, count=1),
           "line 2: invalid JSON (integer too long)"),
    _Fault("integer-too-long", NDJSON, _after_header(LONG), "line 2: invalid JSON (integer too long)"),
    _Fault("integer-too-long", JARS, _as_payload(f'{{"accepted_sites":[],"entries":[],"history":[],"n":{LONG}}}'),
           "line 2: invalid JSON (integer too long)"),
    _Fault("integer-too-long-header", JARS, lambda text: f"{LONG}\n{{}}\n", "line 1: invalid JSON (integer too long)"),
    _Fault("integer-too-long", CONFIGS, lambda text: LONG, "invalid JSON (integer too long)"),
    _Fault("not-an-object", LOGS + NDJSON, _after_header("[1]"), "line 2: not a JSON object"),
    _Fault("not-an-object", JARS, lambda text: "[1]\n{}\n", "line 1: not a JSON object"),
    _Fault("not-an-object", CONFIGS, lambda text: "[]", "not a JSON object"),
    _Fault("missing-field", ("simulate --config",), lambda text: "{}", "missing field 'sites'"),
    *(_Fault(f"format-version-{version}", LOGS + NDJSON, _header_version(version), _HEADER_WANTED % version)
      for version in (True, 1.0)),
    *(_Fault(f"format-version-{version}", JARS, _header_version(version), "unrecognized snapshot header")
      for version in (True, 1.0)),
    _Fault("cut-line", LOGS + NDJSON, _cut_line, "line 2: invalid JSON (Expecting ',' delimiter)"),
    _Fault("rank-0", LOGS, _line_edit('"kind":"VISIT_START"', lambda r: r.update(rank=0)), "line 2: bad rank 0"),
    _Fault("unparsable-url", LOGS, _line_edit('"kind":"HTTP_REQUEST"', lambda r: r.update(target_url="https://[::1/x")),
           "line 5: bad target_url 'https://[::1/x' (Invalid IPv6 URL)", "UNPARSABLE_URL"),
    *(_Fault(f"host-{name}", LOGS, lambda text, host=host: _rewrite_hosts(text, lambda _host: host),
             f"line 2: bad site {host!r} ({why})", code)
      for name, host, code, why in [
          ("empty-label", "a..b.example", "INVALID_LABEL", "empty label in 'a..b.example'"),
          ("space", "bad host.example", "INVALID_LABEL", "illegal character in label 'bad host'"),
          ("no-label", "...", "EMPTY_HOST", "hostname '...' has no labels"),
      ]),
    # JSON allows U+2028 raw inside a string: it does not end the record.
    _Fault("raw-u2028", LOGS, _line_edit('"cookie_header":"[^"]', lambda r: r.update(
        cookie_header=r["cookie_header"].replace("=", "=\u2028", 1))), None, exit=0),
    _Fault("raw-u2028", JARS, _payload_edit(lambda p: p["entries"][0].update(value="a\u2028b")), None, exit=0),
    _Fault("cookie-listed-twice", JARS,
           _payload_edit(lambda p: p["entries"].insert(1, {**p["entries"][0], "value": "tampered"})),
           "entries[1]: duplicate cookie ('mid', 'metrics.example', None)"),
    # build-jar writes canonical hosts and sites only; a cookie under any other host could never match a send.
    _Fault("host-not-canonical", JARS, _payload_edit(lambda p: p["entries"][0].update(host="METRICS.EXAMPLE.")),
           "entries[0]: bad host 'METRICS.EXAMPLE.' (not canonical)"),
    # The jar checks --findings' setter lists; --gpc-findings come from another run's jar, so only their types count.
    _Fault("setter-list-not-the-jars", ("report --findings",),
           _line_edit(None, lambda r: r["setter_sites"].append("elsewhere.example")),
           "record 0: cookie 'pref' of 'adnet.example' (partition None) has setter_sites other than the jar's",
           "FINDING_NOT_IN_JAR"),
    _Fault("setter-list-not-the-jars", ("report --gpc-findings",),
           _line_edit(None, lambda r: r["setter_sites"].append("elsewhere.example")), None, exit=0),
    _Fault("setter-list-nested", ("report --findings", "report --gpc-findings"), _nested_setter_list,
           "record 0: missing field 'setter_sites'"),
    # Every command checks the whole pipeline config, whichever of its fields it uses.
    *(_Fault(name, PIPELINE, lambda text, config=config: json.dumps(config), problem) for name, config, problem in [
        ("mistyped-section", {"filter_lists": []}, "field 'filter_lists' must be dict, got []"),
        ("mistyped-sample", {"sample": 5}, "field 'sample' must be dict, got 5"),
        ("mistyped-tiers", {"tier_cutoffs": ["a"]}, "field 'tier_cutoffs' must be a list of int, got ['a']"),
        ("mistyped-sample-n", {"sample": {"n": "5"}}, "field 'sample.n' must be int, got '5'"),
        ("mistyped-psl", {"psl_path": 5}, "field 'psl_path' must be str, got 5"),
        ("unknown-key", {"psl_pth": "psl.dat"}, "unknown field 'psl_pth'"),
        ("unknown-nested-key", {"filter_lists": {"plain": [], "adblok": []}}, "unknown field 'filter_lists.adblok'"),
        ("unknown-key-case", {"sample": {"N": 1}}, "unknown field 'sample.N'"),
        ("dotted-key", {"sample.n": 1}, "unknown field 'sample.n'"),
        ("removed-key", {"extra_tracker_domains_path": "extra.txt"}, "unknown field 'extra_tracker_domains_path'"),
    ]),
    _Fault("bad-rule", ("detect --psl",), lambda text: "// rules\nfoo..bar\n",
           "line 2: bad rule 'foo..bar' (empty label in 'foo..bar')"),
    # A huge value in one field: a 100,000-character string where a member, number or host is due, or a list of
    # 100,000 strings where any string is.  Its record quotes it cut.
    _Fault("huge-phase", LOGS, _line_edit('"kind":"VISIT_START"', lambda r: r.update(phase=HUGE)),
           f"line 2: bad phase {quoted(HUGE)}"),
    _Fault("huge-banner-action", LOGS, _line_edit('"kind":"BANNER_OBSERVED"', lambda r: set_path(
        r, ("banner", "layers", 0, "buttons", 0, 1), HUGE)),
           f"line 3: banner: layers[0]: buttons[0]: bad action {quoted(HUGE)}"),
    _Fault("huge-stage", ("report --findings", "report --gpc-findings"),
           _line_edit(None, lambda r: r.update(stage=HUGE)), f"record 0: bad stage {quoted(HUGE)}"),
    _Fault("huge-event-index", ("report --resets",), _line_edit(None, lambda r: r.update(event_index=HUGE)),
           f"record 0: bad event_index {quoted(HUGE)}"),
    _Fault("huge-parameter-name", ("report --syncs",),
           _line_edit(None, lambda r: r.update(parameter_name=["u"] * 100_000)),
           f"record 0: bad parameter_name {quoted(['u'] * 100_000)}"),
    _Fault("huge-phase", JARS, _payload_edit(lambda p: p["entries"][0].update(phase=HUGE)),
           f"entries[0]: bad phase {quoted(HUGE)}"),
    # A row past the first is named by its own index: the fourth history row, the third cookie of the second tracker
    # and the sixth phase-2 site, after five that are read.
    _Fault("bad-history-row", JARS, _payload_edit(lambda p: p["history"][3].update(setter_site="NEWS-PORTAL.COM")),
           "history[3]: bad setter_site 'NEWS-PORTAL.COM' (not canonical)"),
    _Fault("bad-later-lifetime", ("simulate --config",), _config_change(lambda c: c["trackers"][1]["cookies"].extend(
        [{"name": "b"}, {"name": "c", "lifetime": "soon"}])), "trackers[1]: cookies[2]: bad lifetime 'soon'"),
    _Fault("later-site-not-a-string", ("simulate --config",), _config_change(lambda c: c["schedule"]["phase2"].extend(
        [*c["schedule"]["phase2"][:2], 7])), "schedule: bad phase2[5] 7"),
    _Fault("label-not-a-string", ("simulate --config",),
           _config_edit(("sites", 4, "banner", "layers", 0, "buttons", 0, 0), 5),
           "sites[4]: banner: layers[0]: buttons[0]: bad label 5"),
    _Fault("huge-channel", ("simulate --config",), _config_edit(("sites", 0, "embeds", 0, "channel"), HUGE),
           f"sites[0]: embeds[0]: bad channel {quoted(HUGE)}"),
    _Fault("huge-value-key", ("simulate --config",), _config_edit(("trackers", 0, "cookies", 0, "value"), {HUGE: 1}),
           f"trackers[0]: cookies[0]: value: unknown field {quoted(HUGE)}"),
    _Fault("huge-rank", ("simulate --config",), _config_edit(("sites", 0, "rank"), HUGE),
           f"sites[0]: bad rank {quoted(HUGE)}"),
    _Fault("huge-key", PIPELINE, lambda text: json.dumps({HUGE: 1}), f"unknown field {quoted(HUGE)}"),
    _Fault("huge-rule", ("detect --psl",), lambda text: f"// rules\ncom\n{HUGE}.com\n",
           f"line 3: bad rule {quoted(HUGE)} ({_LABEL_TOO_LONG})"),
    # A tracker list's bad line is a warning: the command goes on without it.
    _Fault("huge-domain", ("detect --trackers",), lambda text: f"{text}{HUGE}.example\n",
           f"{quoted(HUGE)}: {_LABEL_TOO_LONG}", exit=0),
    _Fault("huge-domain", ("detect --adblock", "filter-convert --adblock"), lambda text: f"{text}||{HUGE}.example^\n",
           f"{quoted('||' + HUGE)}: {_LABEL_TOO_LONG}", exit=0),
]
_PAIRS = [(fault, reader) for fault in _FAULTS for reader in fault.readers]


def _bad_input(d: Path, fault: _Fault, reader: str) -> tuple[list, Path, str]:
    """The argv that gives ``reader`` the input with ``fault``, that input's path, and the code of its record."""
    command, flag = reader.split()
    source, code = _READERS[reader]
    bad = d / f"bad-{Path(source).name}"
    text = (d / source).read_text(encoding="utf-8")
    made = fault.make(text)
    assert made != text, fault.name
    bad.write_bytes(made if isinstance(made, bytes) else made.encode("utf-8"))
    return _argv(command, d, {flag: bad}), bad, fault.code or code


@pytest.mark.parametrize("fault, reader", _PAIRS, ids=[f"{f.name}-{reader.replace(' ', '')}" for f, reader in _PAIRS])
def test_every_reader_fault_is_one_bounded_record_naming_the_file(analyzed, capsys, fault, reader):
    """A fault in any input exits 1, writing nothing, with one JSON record under 1,000 bytes that names the file.

    An input read in spite of its fault exits 0, each of its warning records bounded and naming the file the same way.
    """
    argv, bad, code = _bad_input(analyzed, fault, reader)
    files = sorted(os.listdir(analyzed))
    capsys.readouterr()
    assert _run(["--errors", "json", *argv]) == fault.exit
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert all(len(line.encode()) < 1000 for line in lines), [line[:200] for line in lines]
    records = [json.loads(line) for line in lines if line.startswith("{")]
    if fault.exit:
        assert len(lines) == 1, err
        assert sorted(os.listdir(analyzed)) == files  # it wrote no output
    expected = [] if fault.problem is None else [(code, f"{bad}: {fault.problem}")]
    assert [(record["error"], record["message"]) for record in records] == expected


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["detect", "--jar", "j"], "cookietrail detect: the following arguments are required: --out"),
            (["simulate", "--config", "c", "--seed", "notanint", "--out", "o"],
             "cookietrail simulate: argument --seed: invalid int value: 'notanint'"),
            (["no-such-command"], "cookietrail: argument command: invalid choice"),
            (["validate-log", "--log", "x", "--bogus"], "cookietrail: unrecognized arguments: --bogus"),
            ([], "cookietrail: the following arguments are required: command"),
        ],
    )
    def test_usage_error_exits_1_with_a_json_record(self, capsys, argv, message):
        assert _run(["--errors", "json", *argv]) == 1
        record = _json_error(capsys)
        assert record["error"] == "USAGE_ERROR"
        assert record["message"].startswith(message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--config", "c", "--seed", "x" * 100_000, "--out", "o"],
             f"cookietrail simulate: argument --seed: invalid int value: {quoted('x' * 100_000)}"),
            (["y" * 100_000], f"cookietrail: argument command: invalid choice: {quoted('y' * 100_000)} (choose from "),
            (["validate-log", "--log", "x", *["z"] * 100_000], f"cookietrail: unrecognized arguments: {'z ' * 30}..."),
            (["build-jar", "--sample=" + "x" * 100_000],
             f"cookietrail build-jar: ambiguous option: --sample={'x' * 51}... could match --sample-n, --sample-seed"),
        ],
        ids=["seed", "command", "unrecognized", "ambiguous"],
    )
    def test_a_refused_value_is_cut_in_its_usage_error(self, capsys, argv, message):
        """argparse echoes a value it refuses whole; the record cuts it to 60 characters, as every other error does."""
        assert _run(["--errors", "json", *argv]) == 1
        record = _json_error(capsys)
        assert record["error"] == "USAGE_ERROR" and record["message"].startswith(message)
        assert len(json.dumps(record)) < 1000

    def test_bad_errors_option_is_reported_as_text(self, capsys):
        assert _run(["--errors", "xml", "validate-log", "--log", "x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: USAGE_ERROR: cookietrail: argument --errors: invalid choice: 'xml'")
        assert "Traceback" not in err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cookietrail detect")

    @pytest.mark.parametrize("case", [
        "usage", ("not-utf8", "validate-log --log"), ("format-version-True", "validate-log --log"),
        ("bad-rule", "detect --psl"),
    ], ids=["usage", "not-utf8-log", "format-version-True-log", "bad-rule-psl"])
    def test_usage_error_in_a_fresh_process(self, analyzed, case):
        """A usage error, and rows of the reader table, in a new interpreter: one record on stderr and no traceback.

        A test runner captures warnings, so only a fresh process shows that nothing else reaches stderr.
        """
        if case == "usage":
            argv, record = ["detect", "--jar", "x"], {
                "error": "USAGE_ERROR", "message": "cookietrail detect: the following arguments are required: --out"}
        else:
            fault = next(fault for fault in _FAULTS if fault.name == case[0] and case[1] in fault.readers)
            argv, bad, code = _bad_input(analyzed, fault, case[1])
            record = {"error": code, "message": f"{bad}: {fault.problem}"}
        done = _run_fresh(["--errors", "json", *argv], analyzed)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert [json.loads(line) for line in done.stderr.splitlines()] == [record]


class TestOversizedExpiry:
    """A Max-Age past the largest float is a malformed expiry: the cookie is kept as a session cookie."""

    def test_readers(self, analyzed, tmp_path, capsys):
        lines = (analyzed / "run.log").read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if '"kind":"COOKIE_SET"' in line)
        lines[first] = re.sub(r"Max-Age=\d+", "Max-Age=1" + "0" * 400, lines[first])
        long = tmp_path / "long.log"
        long.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert _run_json("validate-log", analyzed, {"--log": long}) == 1
        record = _json_error(capsys)
        assert record["error"] == "MALFORMED_EXPIRES" and record["message"].startswith("visit 'p1-")
        assert record["message"].split(": ", 1)[1].startswith("bad Max-Age '1000")
        jar = tmp_path / "long.snap"
        assert _run_json("build-jar", analyzed, {"--log": long, "--out": jar}) == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        records = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert [record["error"] for record in records] == ["MALFORMED_EXPIRES"]
        assert records[0]["message"].startswith("visit 'p1-")
        assert records[0]["message"].split(": ", 1)[1].startswith("bad Max-Age '1000")
        assert _run_json("detect", analyzed, {"--jar": jar, "--log": long}) == 0
        assert "Traceback" not in capsys.readouterr().err


    def test_snapshot_expiry_past_the_largest_float(self, analyzed, tmp_path, capsys):
        """A snapshot whose integer lifetime no float holds is corrupt, not an overflow in the report."""
        header, payload = (analyzed / "jar.snap").read_text().splitlines()
        payload = json.loads(payload)
        payload["entries"][0]["original_expiry"] = 10**400
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        header = json.dumps({**json.loads(header), "payload_sha256": hashlib.sha256(payload.encode()).hexdigest()})
        jar = tmp_path / "long.snap"
        jar.write_text(f"{header}\n{payload}\n")
        capsys.readouterr()
        assert _run_json("report", analyzed, {"--jar": jar}) == 1
        problem = "entries[0]: original_expiry is not a finite number a float holds"
        assert _json_error(capsys) == {"error": "CORRUPT_SNAPSHOT", "message": f"{jar}: {problem}"}


def test_detect_warning_names_its_visit(analyzed, tmp_path, capsys):
    """A measure-phase cookie pair without '=' is a warning of detect that names its visit, as validate-log's does."""
    lines = (analyzed / "run.log").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if '"kind":"HTTP_REQUEST"' in line and '"visit_id":"p2' in line)
    record = json.loads(lines[i])
    record["cookie_header"] += "; brokenpair"
    lines[i] = json.dumps(record)
    log = tmp_path / "pair.log"
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert _run_json("detect", analyzed, {"--log": log}) == 0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    records = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert [r for r in records if r["error"] == "MALFORMED_PAIR"] == [
        {"error": "MALFORMED_PAIR", "message": f"visit {record['visit_id']!r}: cookie pair without '=': 'brokenpair'"}
    ]


def test_detect_warns_of_a_nameless_set_cookie_in_a_canonical_visit(analyzed, tmp_path, capsys):
    """A measure-phase Set-Cookie that detect reads for resets, on a visit with a canonical finding, and that no
    cookie can be read from, is a MISSING_NAME warning naming its visit, as validate-log's error does."""
    findings = [json.loads(line) for line in (analyzed / "findings.jsonl").read_text().splitlines()[1:]]
    canonical = {f["visit_id"] for f in findings if f["canonical"]}
    lines = (analyzed / "run.log").read_text().splitlines()
    i = next(i for i, line in enumerate(lines)
             if '"kind":"COOKIE_SET"' in line and json.loads(line)["visit_id"] in canonical)
    record = json.loads(lines[i])
    record["set_cookie_header"] = "=novalue; Domain=.x.com"
    lines[i] = json.dumps(record)
    log = tmp_path / "nameless.log"
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert _run_json("detect", analyzed, {"--log": log}) == 0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    records = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    problem = "Set-Cookie without a cookie name: '=novalue; Domain=.x.com'"
    assert records == [{"error": "MISSING_NAME", "message": f"visit {record['visit_id']!r}: {problem}"}]


def test_a_cookie_host_without_registrable_domain_warns_once(tmp_path, capsys):
    """A listed cookie host that is itself a suffix-list rule fails each of its sends, with one
    HOST_IS_PUBLIC_SUFFIX warning for the host, not one per send."""
    d = tmp_path / "run"
    _analyzed_run(d, random_config(random.Random(0)).to_obj(), 0)
    psl = tmp_path / "psl.dat"
    psl.write_text((DEMO / "psl.dat").read_text() + "t0.net\n")
    capsys.readouterr()
    assert _run_json("detect", d, {"--psl": psl}) == 0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    records = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert records == [
        {"error": "HOST_IS_PUBLIC_SUFFIX", "message": "cookie host 't0.net': 't0.net' has no registrable part"}
    ]


def test_list_warnings_name_their_file(analyzed, tmp_path, capsys):
    """Each tracker or adblock list's MALFORMED_DOMAIN warning names its own file and keeps its line."""
    plain_a, plain_b, adblock = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "ad.txt"
    plain_a.write_text("good.example\nbad..example\n")
    plain_b.write_text("# comment\nx y\n")
    adblock.write_text("||ok.example^\n||c..d^\n")
    expected = [
        {"error": "MALFORMED_DOMAIN", "message": message, "line": 2}
        for message in (f"{plain_a}: 'bad..example': empty label in 'bad..example'",
                        f"{plain_b}: 'x y': whitespace inside entry", f"{adblock}: '||c..d^': empty label in 'c..d'")
    ]
    capsys.readouterr()
    assert _run_json("detect", analyzed, {"--trackers": [plain_a, plain_b], "--adblock": adblock}) == 0
    err = capsys.readouterr().err
    assert [json.loads(line) for line in err.splitlines() if '"MALFORMED_DOMAIN"' in line] == expected
    assert _run_json("filter-convert", analyzed, {"--adblock": adblock}) == 0
    err = capsys.readouterr().err
    assert [json.loads(line) for line in err.splitlines() if line.startswith("{")] == expected[2:]


class TestReportTiersAndConfigTypes:
    """A bad ``--tiers``, a negative sample size or a missing input named in the pipeline config.

    Each exits 1 with one JSON record and no traceback.
    """

    @pytest.mark.parametrize("tiers", ["x", "10,,20", "5.5"])
    def test_bad_tiers_is_a_usage_error(self, analyzed, capsys, tiers):
        capsys.readouterr()
        assert _run_json("report", analyzed, {"--tiers": tiers}) == 1
        record = _json_error(capsys)
        assert record["error"] == "USAGE_ERROR"
        assert record["message"].startswith("cookietrail report: argument --tiers: ")

    def test_a_long_tiers_value_is_cut_in_its_usage_error(self, analyzed, capsys):
        tiers = "1," + "2x" * 50_000
        capsys.readouterr()
        assert _run_json("report", analyzed, {"--tiers": tiers}) == 1
        assert _json_error(capsys) == {
            "error": "USAGE_ERROR",
            "message": f"cookietrail report: argument --tiers: expected comma-separated integers, got {quoted(tiers)}",
        }

    @pytest.mark.parametrize("key, missing", [("psl_path", "P" * 100_000), ("log_paths", "L" * 100_000),
                                              ("psl_path", "missing.dat")], ids=["long-psl", "long-log", "psl"])
    def test_a_missing_input_path_is_invalid_config_in_a_bounded_record(self, analyzed, capsys, key, missing):
        """An input path that does not exist, even one too long for a file name, is INVALID_CONFIG, quoted cut."""
        path = analyzed / "pipeline.json"
        value = [str(analyzed / "run.log"), missing] if key == "log_paths" else missing
        path.write_text(json.dumps({key: value}))
        capsys.readouterr()
        assert _run_json("detect", analyzed, {"--config": path}) == 1
        record = _json_error(capsys)
        assert record == {"error": "INVALID_CONFIG",
                          "message": f"{path}: referenced path does not exist: {quoted(missing)}"}
        assert len(json.dumps(record)) < 1000

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_sample_is_invalid(self, analyzed, capsys, source):
        (analyzed / "pipeline.json").write_text(json.dumps({"sample": {"n": -1}}))
        flags = {"--sample-n": -1} if source == "flag" else {"--config": analyzed / "pipeline.json"}
        capsys.readouterr()
        assert _run_json("build-jar", analyzed, flags) == 1
        assert _json_error(capsys) == {"error": "INVALID_SAMPLE",
                                       "message": "sample size must not be negative, got -1"}
        assert not (analyzed / "out.snap").exists()

    def test_config_tiers_reach_the_report(self, analyzed):
        path = analyzed / "pipeline.json"
        path.write_text(json.dumps({"tier_cutoffs": [2, 6]}))
        assert _run(_argv("report", analyzed, {"--config": path})) == 0
        rows = (analyzed / "report" / "rank_tiers.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "6"]


def _config_field_cases(d: Path, out: Path) -> dict:
    """Each pipeline-config key -> (a command's argv writing under ``out``, the key's flag in it, its config value)."""
    jar, log, psl, trackers, adblock = d / "jar.snap", d / "run.log", d / "psl.dat", d / "plain.txt", d / "adblock.txt"
    build = ["build-jar", "--log", log, "--out", out / "jar.snap", "--sample-n", "1", "--sample-seed", "5"]
    detect = ["detect", "--jar", jar, "--log", log, "--psl", psl, "--trackers", trackers, "--adblock", adblock,
              "--out", out / "findings.jsonl"]
    report = ["report", "--findings", d / "findings.jsonl", "--jar", jar, "--log", log, "--psl", psl,
              "--trackers", trackers, "--tiers", "2,6", "--out", out / "report"]
    return {
        "psl_path": (detect, ["--psl", psl], str(psl)),
        "filter_lists.plain": (detect, ["--trackers", trackers], [str(trackers)]),
        "filter_lists.adblock": (detect, ["--adblock", adblock], [str(adblock)]),
        "jar_path": (build, ["--out", out / "jar.snap"], str(out / "jar.snap")),
        "log_paths": (build, ["--log", log], [str(log)]),
        "report_dir": (report, ["--out", out / "report"], str(out / "report")),
        "sample.n": (build, ["--sample-n", "1"], 1),
        "sample.seed": (build, ["--sample-seed", "5"], 5),
        "tier_cutoffs": (report, ["--tiers", "2,6"], [2, 6]),
    }


class TestConfigFieldTable:
    """Each ``--config`` field does what its flag does, and ``--extra-domains`` is gone."""

    @staticmethod
    def _artifacts(out: Path) -> list:
        return sorted((str(p.relative_to(out)), p.read_bytes()) for p in out.rglob("*") if p.is_file())

    @pytest.mark.parametrize("key", list(_config_field_cases(Path(), Path())))
    def test_config_field_writes_what_its_flag_writes(self, analyzed, key):
        # Each list and the suffix list change the findings: the suffix list makes a tracker a public suffix.
        trackers = (analyzed / "trackers.txt").read_text().split()
        (analyzed / "plain.txt").write_text("".join(f"{domain}\n" for domain in trackers[::2]))
        (analyzed / "adblock.txt").write_text("".join(f"||{domain}^\n" for domain in trackers[1::2]))
        (analyzed / "psl.dat").write_text(f"com\nexample\n{trackers[1]}\n")
        artifacts = {}
        for source in ("flag", "config", "neither"):
            out = analyzed / source
            out.mkdir()
            argv, flag, value = _config_field_cases(analyzed, out)[key]
            if source != "flag":
                at = next(i for i in range(len(argv)) if argv[i:i + 2] == flag)
                argv = argv[:at] + argv[at + 2:]
            if source == "config":
                section, _, name = key.rpartition(".")
                config = out / "pipeline.json"
                config.write_text(json.dumps({section: {name: value}} if section else {key: value}))
                argv += ["--config", config]
            code = _run(argv)
            (out / "pipeline.json").unlink(missing_ok=True)
            artifacts[source] = self._artifacts(out) if code == 0 else code
        assert artifacts["flag"] and artifacts["config"] == artifacts["flag"]
        # Without the field the command fails or writes something else, so the field was read.
        assert artifacts["neither"] != artifacts["flag"]

    @pytest.mark.parametrize("command", ["detect", "report"])
    def test_extra_domains_is_a_usage_error(self, analyzed, capsys, command):
        capsys.readouterr()
        assert _run_json(command, analyzed, {"--extra-domains": analyzed / "trackers.txt"}) == 1
        record = _json_error(capsys)
        assert record["error"] == "USAGE_ERROR"
        assert "--extra-domains" in record["message"]


class TestFindingsReader:
    def _mutate(self, analyzed, tmp_path, index: int, mutate) -> Path:
        lines = (analyzed / "findings.jsonl").read_text().splitlines()
        assert len(lines) > index + 1
        record = json.loads(lines[index + 1])
        mutate(record)
        lines[index + 1] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        return bad

    @pytest.mark.parametrize(
        "field, value",
        [
            ("name", 7), ("host", 5), ("partition", 1), ("tracker_domain", 4), ("canonical", "yes"),
            ("canonical", 1), ("setter_sites", "abc"), ("setter_sites", [3]), ("event_index", "x"),
            ("event_index", True), ("event_index", 1.5), ("value_at_send", None), ("sender_site", []),
            ("visit_id", {}), ("stage", "NOT_A_STAGE"), ("stage", ["x"]), ("channel", 3),
        ],
    )
    def test_mistyped_field_exits_1(self, analyzed, tmp_path, capsys, field, value):
        bad = self._mutate(analyzed, tmp_path, 1, lambda record: record.__setitem__(field, value))
        capsys.readouterr()
        assert _run_json("report", analyzed, {"--findings": bad}) == 1
        assert _json_error(capsys) == {"error": "MALFORMED_RECORD",
                                       "message": f"{bad}: record 1: bad {field} {value!r}"}

    def test_missing_field_exits_1(self, analyzed, tmp_path, capsys):
        bad = self._mutate(analyzed, tmp_path, 0, lambda record: record.pop("partition"))
        capsys.readouterr()
        assert _run_json("report", analyzed, {"--findings": bad}) == 1
        assert _json_error(capsys) == {"error": "MALFORMED_RECORD",
                                       "message": f"{bad}: record 0: missing field 'partition'"}

    def test_finding_not_in_jar_exits_1(self, analyzed, tmp_path, capsys):
        bad = self._mutate(analyzed, tmp_path, 2, lambda record: record.__setitem__("name", "elsewhere"))
        capsys.readouterr()
        assert _run_json("report", analyzed, {"--findings": bad}) == 1
        record = _json_error(capsys)
        assert record["error"] == "FINDING_NOT_IN_JAR"
        assert record["message"].startswith(f"{bad}: record 2: cookie 'elsewhere' of ")


class TestFindingsSharing:
    """Findings share their setter lists with the jar: ``report`` checks each record's list against ``--jar``.

    The file is rewritten with ``json.dumps``'s default separators, so every
    record is decoded in full.
    """

    separators = None

    def _findings_file(self, analyzed, tmp_path, mutate) -> Path:
        lines = (analyzed / "findings.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        mutate(records)
        path = tmp_path / "mutated.jsonl"
        path.write_text("\n".join([lines[0], *(json.dumps(r, separators=self.separators) for r in records)]) + "\n")
        return path

    def test_detect_writes_the_jars_setter_lists(self, analyzed):
        jar = CookieJar.load(analyzed / "jar.snap")
        records = [json.loads(line) for line in (analyzed / "findings.jsonl").read_text().splitlines()[1:]]
        assert len(records) > len({itemgetter("name", "host", "partition")(r) for r in records})
        for record in records:
            key = CookieKey(record["name"], record["host"], record["partition"])
            assert record["setter_sites"] == list(jar.setters_of(key)) != []
        assert len(cli._read_findings(str(analyzed / "findings.jsonl"), jar)) == len(records)

    @pytest.mark.parametrize("change", ["longer", "same length"])
    def test_setter_sites_other_than_the_jars_exit_1(self, analyzed, tmp_path, capsys, change):
        def mutate(records):
            sites = records[3]["setter_sites"]
            records[3]["setter_sites"] = ["elsewhere.com", *(sites if change == "longer" else sites[1:])]

        path = self._findings_file(analyzed, tmp_path, mutate)
        record = json.loads(path.read_text().splitlines()[4])
        capsys.readouterr()
        assert _run_json("report", analyzed, {"--findings": path}) == 1
        assert _json_error(capsys) == {
            "error": "FINDING_NOT_IN_JAR",
            "message": f"{path}: record 3: cookie {record['name']!r} of {record['host']!r} "
                       f"(partition {record['partition']!r}) has setter_sites other than the jar's",
        }

    def test_gpc_findings_lists_are_type_checked_and_dropped(self, analyzed, tmp_path, capsys):
        """``--gpc-findings`` come from another run's jar: any list of strings is read, ``[5]`` is not."""
        path = self._findings_file(analyzed, tmp_path, lambda records: records[0].__setitem__("setter_sites", ["x"]))
        assert _run_json("report", analyzed, {"--gpc-findings": path}) == 0
        assert cli._read_findings(str(path)) == cli._read_findings(str(analyzed / "findings.jsonl"))
        bad = self._findings_file(analyzed, tmp_path, lambda records: records[0].__setitem__("setter_sites", [5]))
        assert bad == path
        capsys.readouterr()
        assert _run_json("report", analyzed, {"--gpc-findings": path}) == 1
        assert _json_error(capsys) == {"error": "MALFORMED_RECORD",
                                       "message": f"{path}: record 0: bad setter_sites [5]"}

    def test_a_numeric_setter_in_the_snapshot_is_corrupt(self, analyzed, tmp_path, capsys):
        """A snapshot setter of ``5`` is corrupt; a findings ``setter_sites`` of ``[5]`` is a bad record."""
        record = json.loads((analyzed / "findings.jsonl").read_text().splitlines()[1])
        key = (record["name"], record["host"], record["partition"])
        header, payload = (analyzed / "jar.snap").read_text().splitlines()
        payload = json.loads(payload)
        rows = [i for i, row in enumerate(payload["history"]) if (row["name"], row["host"], row["partition"]) == key]
        for i in rows:
            payload["history"][i]["setter_site"] = 5
        bad_jar = _snapshot(tmp_path / "bad.snap", None, json.dumps(payload, sort_keys=True, separators=(",", ":")))
        findings = self._findings_file(analyzed, tmp_path, lambda records: records[0].__setitem__("setter_sites", [5]))
        capsys.readouterr()
        assert _run_json("report", analyzed, {"--findings": findings, "--jar": bad_jar}) == 1
        assert _json_error(capsys) == {"error": "CORRUPT_SNAPSHOT",
                                       "message": f"{bad_jar}: history[{rows[0]}]: bad setter_site 5"}
        assert _run_json("report", analyzed, {"--findings": findings}) == 1
        assert _json_error(capsys) == {"error": "MALFORMED_RECORD",
                                       "message": f"{findings}: record 0: bad setter_sites [5]"}

    def _first_error(self, analyzed, tmp_path, capsys, path: Path) -> dict:
        capsys.readouterr()
        assert _run_json("report", analyzed, {"--findings": path}) == 1
        return _json_error(capsys)

    def test_a_record_not_in_the_jar_before_a_bad_record_is_the_error(self, analyzed, tmp_path, capsys):
        """The first bad line in the file is the error, whichever check it fails."""
        def mutate(records):
            records[1]["name"] = "elsewhere"
            records[2]["event_index"] = "x"

        path = self._findings_file(analyzed, tmp_path, mutate)
        record = self._first_error(analyzed, tmp_path, capsys, path)
        assert record["error"] == "FINDING_NOT_IN_JAR"
        assert record["message"].startswith(f"{path}: record 1: cookie 'elsewhere' of ")

    def test_a_bad_record_before_a_line_that_is_not_json_is_the_error(self, analyzed, tmp_path, capsys):
        path = self._findings_file(analyzed, tmp_path, lambda records: records[2].__setitem__("event_index", "x"))
        with path.open("a") as handle:
            handle.write("{not json\n")
        assert self._first_error(analyzed, tmp_path, capsys, path) == {
            "error": "MALFORMED_RECORD", "message": f"{path}: record 2: bad event_index 'x'"}
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[1], "{not json", *lines[2:]]) + "\n")
        assert self._first_error(analyzed, tmp_path, capsys, path) == {
            "error": "MALFORMED_RECORD", "message": f"{path}: line 3: invalid JSON (Expecting property name enclosed "
                                                   "in double quotes)"}


class TestFindingsSharingCompact(TestFindingsSharing):
    """The same, with the file rewritten compactly as ``detect`` writes it: unedited records skip the decode."""

    separators = (",", ":")


def test_findings_with_default_separators_give_the_same_report(analyzed):
    """Every line re-encoded with ``json.dumps``'s default separators: the same report, byte for byte."""
    spaced = analyzed / "spaced.jsonl"
    spaced.write_text("".join(json.dumps(json.loads(line)) + "\n"
                              for line in (analyzed / "findings.jsonl").read_text().splitlines()))
    reports = []
    for findings in (analyzed / "findings.jsonl", spaced):
        out = analyzed / f"{findings.stem}-report"
        assert _run(_argv("report", analyzed, {"--findings": findings, "--resets": analyzed / "resets.jsonl",
                                               "--syncs": analyzed / "syncs.jsonl", "--out": out})) == 0
        reports.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert len(reports[0]) == 14 and reports[1] == reports[0]


# --- the findings encoder against the path it replaced ------------------------------------


def _ref_finding_to_record(finding: IntractableFinding, jar: CookieJar) -> dict:
    """The record ``detect`` passed to ``json.dumps`` before ``encode_finding``: the reference."""
    return {
        "name": finding.key.name,
        "host": finding.key.host,
        "partition": finding.key.partition,
        "value_at_send": finding.value_at_send,
        "sender_site": finding.sender_site,
        "tracker_domain": finding.tracker_domain,
        "setter_sites": list(jar.setters_of(finding.key)),
        "stage": finding.stage.name,
        "channel": finding.channel.name,
        "visit_id": finding.visit_id,
        "event_index": finding.event_index,
        "canonical": finding.canonical,
    }


def _hand_built_findings() -> tuple[list[IntractableFinding], CookieJar]:
    """Findings of awkward strings, and a jar that gives their cookies empty, one-item and awkward setter lists."""
    from test_crawllog import _AWKWARD

    findings = []
    history = []
    stages, channels = list(InteractionStage), list(Channel)
    setter_lists = [(), ("one.com",), tuple(_AWKWARD), ("two.com",)]
    for n, text in enumerate(_AWKWARD):
        for partition in (None, text, ""):
            key = CookieKey(text, text, partition)
            history += [HistoryEntry(key, site, 0) for site in setter_lists[n % len(setter_lists)]]
            findings.append(IntractableFinding(
                key=key, value_at_send=text, sender_site=text, tracker_domain=text, stage=stages[n % len(stages)],
                channel=channels[n % len(channels)], visit_id=text, event_index=(0, 7, 2**31, 2**70)[n % 4],
                canonical=n % 2 == 0,
            ))
    return findings, CookieJar(history=history)


def test_findings_encoder_matches_json_dumps():
    """detect's findings on the demo and 100 random ecosystems, and awkward ones: identical bytes."""
    demo = cookietrail.simulator.EcosystemConfig.from_json((DEMO / "ecosystem.json").read_text(encoding="utf-8"))
    runs = [run_pipeline(demo, 7)] + [run_pipeline(random_config(random.Random(seed)), seed) for seed in range(100)]
    batches = [(result.findings, jar) for _events, jar, result in runs] + [_hand_built_findings()]
    for n, (findings, jar) in enumerate(batches):
        setters: dict = {}
        assert [cli._FINDING_FIELDS.encode(f, cli._setters_json(jar, f.key, setters)) for f in findings] == [
            json.dumps(_ref_finding_to_record(f, jar), sort_keys=True, separators=(",", ":")) for f in findings
        ], n
        # The schema reads the record back.
        assert [cli._FINDING_FIELDS.decode(_ref_finding_to_record(f, jar)) for f in findings] == findings, n
        # The memo encodes each cookie's setter list once.
        assert len(setters) == len({f.key for f in findings}), n
    detected = [f for findings, _jar in batches[:-1] for f in findings]
    assert len(detected) > 1000
    assert {f.canonical for f in detected} == {True, False}
    assert {f.key.partition is None for findings, _jar in batches for f in findings} == {True, False}


# --- the findings reader against the path it replaced ------------------------------------
#
# A reader that decodes every line in full with ``json.loads`` and compares
# each record's list with the jar's as a list, as ``_read_findings`` did
# before it compared setter lists as text.  Like the reader, it stops at the
# first bad line.  The reader must give equal findings, or the same error, on
# every input.


def _ref_read_ndjson(path: str):
    header_seen = False
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                problem = exc.msg if isinstance(exc, json.JSONDecodeError) else "nested too deeply"
                raise InputError("MALFORMED_RECORD", f"{path}: line {lineno}: invalid JSON ({problem})") from None
            if not isinstance(obj, dict):
                raise InputError("MALFORMED_RECORD", f"{path}: line {lineno}: not a JSON object")
            if not header_seen:
                version = obj.get("format_version")
                if type(version) is not int or version != 1:
                    expected = "expected header record {'format_version': 1}"
                    raise InputError("MALFORMED_RECORD", f"{path}: line {lineno}: {expected}, got {quoted(obj)}")
                header_seen = True
                continue
            yield obj
    if not header_seen:
        raise InputError("MALFORMED_RECORD", f"{path}: missing format_version header record")


def _ref_read_findings(path: str, jar: CookieJar) -> list[IntractableFinding]:
    built = []
    for index, obj in enumerate(_ref_read_ndjson(path)):
        try:
            finding = cli._FINDING_FIELDS.decode(obj)
        except ValueError as exc:
            raise InputError("MALFORMED_RECORD", f"{path}: record {index}: {exc}") from None
        key = finding.key
        sites = list(jar.setters_of(key)) if key in jar.entries else None
        if sites != obj["setter_sites"]:
            problem = "is not in the jar" if sites is None else "has setter_sites other than the jar's"
            raise InputError("FINDING_NOT_IN_JAR", f"{path}: record {index}: cookie {quoted(key.name)} of "
                                                   f"{quoted(key.host)} (partition {quoted(key.partition)}) {problem}")
        built.append(finding)
    return built


def _read_outcome(read, path: Path, jar: CookieJar):
    """("ok", findings) or ("error", (type, code, message))."""
    try:
        return "ok", read(str(path), jar)
    except PipelineError as exc:
        return "error", (type(exc), exc.code, exc.message)


def _write_findings(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(f"{line}\n" for line in ['{"format_version":1}', *lines]), encoding="utf-8")
    return path


@functools.cache
def _detected() -> list[tuple[str, CookieJar, list[IntractableFinding], list[str]]]:
    """(name, jar, findings, record lines as ``detect`` writes them): the demo, 50 random seeds, crawl-scale seed 1."""
    from test_simulator import _benchmark_workloads

    demo = cookietrail.simulator.EcosystemConfig.from_json((DEMO / "ecosystem.json").read_text(encoding="utf-8"))
    cases = [("demo", demo, 7)] + [(f"random {seed}", random_config(random.Random(seed)), seed) for seed in range(50)]
    cases.append(("crawl-scale 1", _benchmark_workloads().crawl_scale(1)[0], 1000))
    runs = []
    for name, config, seed in cases:
        _events, jar, result = run_pipeline(config, seed)
        setters: dict = {}
        lines = [cli._FINDING_FIELDS.encode(f, cli._setters_json(jar, f.key, setters)) for f in result.findings]
        runs.append((name, jar, result.findings, lines))
    return runs


@pytest.fixture
def full_decodes(monkeypatch) -> list:
    """The line numbers the reader decoded in full, header lines included."""
    decoded = []
    decode = crawllog._record_object

    def counting(line, lineno):
        decoded.append(lineno)
        return decode(line, lineno)

    monkeypatch.setattr(crawllog, "_record_object", counting)
    return decoded


def test_findings_reader_matches_the_full_decode_on_detect_output(tmp_path, full_decodes):
    """detect's own files: the same findings, and no record line is decoded in full."""
    runs = _detected()
    assert sum(len(lines) for _name, _jar, _findings, lines in runs) > 3000
    for name, jar, findings, lines in runs:
        path = _write_findings(tmp_path / "findings.jsonl", lines)
        full_decodes.clear()
        assert _read_outcome(cli._read_findings, path, jar) == _read_outcome(_ref_read_findings, path, jar) == (
            "ok", findings), name
        assert full_decodes == [1], name


def _split_list(line: str) -> tuple[str, str, str]:
    """The line before ``,"setter_sites":``, its list's text and the line from ``,"stage":`` on."""
    i, j = line.index(',"setter_sites":'), line.index(',"stage":')
    return line[:i], line[i + len(',"setter_sites":'):j], line[j:]


def _after_stage(tail: str, text: str) -> str:
    """``tail`` (from ``,"stage":`` on) with ``text`` inserted after the stage's value."""
    k = tail.index(',"tracker_domain":')
    return tail[:k] + text + tail[k:]


def _renamed(line: str, sites: str) -> str:
    head, _sites, tail = _split_list(line.replace('"name":"', '"name":"elsewhere-', 1))
    return f'{head},"setter_sites":{sites}{tail}'


def _with_value(line: str, value: str) -> str:
    record = json.loads(line)
    record["value_at_send"] = value
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# (what the edit does, the edit, the error code it must give or None, whether the edited line
# is still read without decoding its list)
_LINE_EDITS = [
    ("list with default separators", lambda h, s, t: h + ',"setter_sites":' + json.dumps(json.loads(s)) + t,
     None, False),
    ("site with an escaped dot", lambda h, s, t: h + ',"setter_sites":' + s.replace(".", "\\u002e", 1) + t,
     None, False),
    ("list after stage", lambda h, s, t: h + _after_stage(t, ',"setter_sites":' + s), None, False),
    ("duplicate key, the jar's list before stage", lambda h, s, t: h + f',"setter_sites":{s}' * 2 + t,
     None, False),
    ("duplicate key, the jar's list after stage",
     lambda h, s, t: h + ',"setter_sites":' + s + _after_stage(t, ',"setter_sites":' + s), None, False),
    ("duplicate key, another list after stage",
     lambda h, s, t: h + ',"setter_sites":' + s + _after_stage(t, ',"setter_sites":["elsewhere.com"]'),
     "FINDING_NOT_IN_JAR", False),
    ("extra top-level key at the end", lambda h, s, t: h + ',"setter_sites":' + s + t[:-1] + ',"zz":1}',
     None, False),
    ("extra top-level key before stage", lambda h, s, t: h + ',"setter_sites":' + s + ',"extra":[1]' + t,
     None, False),
    ("spaces after the keys' colons", lambda h, s, t: (h + ',"setter_sites":' + s + t).replace('":', '": '),
     None, False),
    ("whitespace around the line", lambda h, s, t: " " + h + ',"setter_sites":' + s + t + "\t", None, True),
    ("another list", lambda h, s, t: h + ',"setter_sites":["elsewhere.com"]' + t, "FINDING_NOT_IN_JAR", False),
    ("another list of the same length",
     lambda h, s, t: h + ',"setter_sites":' + s.replace('["', '["x', 1) + t, "FINDING_NOT_IN_JAR", False),
    ("an empty list", lambda h, s, t: h + ',"setter_sites":[]' + t, "FINDING_NOT_IN_JAR", False),
    ("a list that is not a list", lambda h, s, t: h + ',"setter_sites":"abc"' + t, "MALFORMED_RECORD", False),
    ("a mistyped field", lambda h, s, t: re.sub(r'"event_index":(\d+)', r'"event_index":"\1"', h)
     + ',"setter_sites":' + s + t, "MALFORMED_RECORD", False),
    ("not JSON", lambda h, s, t: h + ',"setter_sites":' + s + t[:-1], "MALFORMED_RECORD", False),
    ("a raw ,\"stage\": inside value_at_send",
     lambda h, s, t: h + ',"setter_sites":' + s + t.replace('"value_at_send":"', '"value_at_send":"x,"stage":1,"', 1),
     "MALFORMED_RECORD", False),
]


@pytest.mark.parametrize("what, edit, code, unlisted", _LINE_EDITS, ids=[case[0] for case in _LINE_EDITS])
def test_findings_reader_matches_the_full_decode_on_edited_lines(tmp_path, full_decodes, what, edit, code,
                                                                 unlisted):
    """One record edited among records read without decoding their lists: the same findings or error."""
    _name, jar, _findings, lines = _detected()[0]
    edited = edit(*_split_list(lines[1]))
    assert edited != lines[1]
    path = _write_findings(tmp_path / "findings.jsonl", [lines[0], edited, *lines[2:]])
    full_decodes.clear()
    got = _read_outcome(cli._read_findings, path, jar)
    assert got == _read_outcome(_ref_read_findings, path, jar)
    assert (got[1][1] if got[0] == "error" else None) == code
    if code is None:
        assert full_decodes == ([1] if unlisted else [1, 3])


@pytest.mark.parametrize(
    "what, edit, problem",
    [
        ("a cookie not in the jar, with an empty list", lambda line: _renamed(line, "[]"), "is not in the jar"),
        ("a cookie not in the jar, with its list", lambda line: _renamed(line, _split_list(line)[1]),
         "is not in the jar"),
        ("a ,\"stage\": escaped inside value_at_send", lambda line: _with_value(line, 'a,"stage":"b'), None),
        ("a ,\"setter_sites\": escaped inside value_at_send",
         lambda line: _with_value(line, ',"setter_sites":[],"stage":'), None),
    ],
)
def test_findings_reader_matches_the_full_decode_on_edited_records(tmp_path, what, edit, problem):
    _name, jar, findings, lines = _detected()[0]
    path = _write_findings(tmp_path / "findings.jsonl", [lines[0], edit(lines[1]), *lines[2:]])
    got = _read_outcome(cli._read_findings, path, jar)
    assert got == _read_outcome(_ref_read_findings, path, jar)
    if problem is None:
        assert got[0] == "ok" and got[1][1].value_at_send != findings[1].value_at_send
    else:
        assert got[0] == "error" and got[1][2].startswith(f"{path}: record 1: cookie 'elsewhere-")
        assert got[1][2].endswith(problem)


def test_a_list_nested_under_an_extra_key_is_still_a_missing_field(tmp_path):
    """The real list removed, and the jar's list with a ``stage`` nested under an extra last key."""
    _name, jar, _findings, lines = _detected()[0]
    head, sites, tail = _split_list(lines[1])
    path = _write_findings(tmp_path / "findings.jsonl",
                           [lines[0], head + tail[:-1] + ',"zz":{"a":0,"setter_sites":' + sites + ',"stage":1}}'])
    got = _read_outcome(cli._read_findings, path, jar)
    assert got == _read_outcome(_ref_read_findings, path, jar) == (
        "error", (InputError, "MALFORMED_RECORD", f"{path}: record 1: missing field 'setter_sites'"))


# Any character a UTF-8 file can hold: a lone surrogate (category Cs) cannot be written.
_EDIT_CHARACTERS = st.sampled_from(list('"\\,:[]{} \t\nsa1.-eu') + ["\u2028", "\x00"]) | st.characters(
    exclude_categories=("Cs",))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_findings_reader_matches_the_full_decode_on_one_character_edits(tmp_path, data):
    """A compact record line with one character deleted, inserted or replaced: the same findings or error."""
    _name, jar, _findings, lines = _detected()[0]
    index = data.draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    at = data.draw(st.integers(0, len(line)))
    how = data.draw(st.sampled_from(["delete", "insert", "replace"]))
    character = "" if how == "delete" else data.draw(_EDIT_CHARACTERS)
    edited = line[:at] + character + line[at + (how != "insert"):]
    path = _write_findings(tmp_path / "findings.jsonl", [*lines[:index], edited, *lines[index + 1:]])
    assert _read_outcome(cli._read_findings, path, jar) == _read_outcome(_ref_read_findings, path, jar)


def _snapshot(path: Path, header, payload: str) -> Path:
    """A snapshot whose header (``None``: a valid one) checksums ``payload``."""
    if header is None:
        header = json.dumps({"format": SNAPSHOT_FORMAT, "format_version": SNAPSHOT_VERSION,
                             "payload_sha256": hashlib.sha256(payload.encode()).hexdigest()})
    path.write_text(f"{header}\n{payload}\n")
    return path


class TestSnapshotReader:
    @pytest.mark.parametrize(
        "header, payload, problem",
        [
            ("[1]", "{}", "line 1: not a JSON object"),
            ('"x"', "{}", "line 1: not a JSON object"),
            ('{"format":"x"}', "{}", "unrecognized snapshot header"),
            (None, "[]", "line 2: not a JSON object"),
            (None, '{"entries":[1],"history":[],"accepted_sites":[]}', "entries[0]: not an object"),
            (None, '{"entries":{},"history":[],"accepted_sites":[]}', "bad entries {}"),
            (None, '{"entries":[],"history":["x"],"accepted_sites":[]}', "history[0]: not an object"),
            (None, '{"entries":[],"history":[[]],"accepted_sites":[]}', "history[0]: not an object"),
            (None, '{"entries":[],"history":[]}', "missing field 'accepted_sites'"),
        ],
    )
    def test_valid_json_of_the_wrong_shape_is_corrupt(self, analyzed, tmp_path, capsys, header, payload, problem):
        bad = _snapshot(tmp_path / "bad.snap", header, payload)
        capsys.readouterr()
        assert _run_json("detect", analyzed, {"--jar": bad}) == 1
        assert _json_error(capsys) == {"error": "CORRUPT_SNAPSHOT", "message": f"{bad}: {problem}"}

    @staticmethod
    def _mutated(analyzed, tmp_path, mutate) -> Path:
        payload = json.loads((analyzed / "jar.snap").read_text().splitlines()[1])
        mutate(payload)
        return _snapshot(tmp_path / "bad.snap", None, json.dumps(payload, sort_keys=True, separators=(",", ":")))

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("entries", "name", 5), ("entries", "host", None), ("entries", "partition", 1),
            ("entries", "value", 2), ("entries", "original_expiry", "60"), ("entries", "original_expiry", True),
            ("entries", "setter_site", ["a.com"]), ("entries", "set_at", 1.0), ("entries", "set_at", False),
            ("entries", "consent_state_at_set", 0), ("entries", "phase", None), ("entries", "effective_expiry", 5),
            ("history", "name", 5), ("history", "host", {}), ("history", "partition", 0),
            ("history", "setter_site", 5), ("history", "event_index", "3"), ("history", "event_index", True),
            ("history", "deleted", 0), ("history", "deleted", "no"),
            ("entries", "phase", "BOGUS"), ("entries", "consent_state_at_set", "name"),
            ("entries", "effective_expiry", "soon"),
        ],
    )
    @pytest.mark.parametrize("command", ["detect", "report"])
    def test_mistyped_field_is_corrupt(self, analyzed, tmp_path, capsys, section, field, value, command):
        bad = self._mutated(analyzed, tmp_path, lambda payload: payload[section][1].__setitem__(field, value))
        capsys.readouterr()
        assert _run_json(command, analyzed, {"--jar": bad}) == 1
        assert _json_error(capsys) == {"error": "CORRUPT_SNAPSHOT",
                                       "message": f"{bad}: {section}[1]: bad {field} {value!r}"}

    def test_missing_field_is_corrupt(self, analyzed, tmp_path, capsys):
        bad = self._mutated(analyzed, tmp_path, lambda payload: payload["history"][0].pop("deleted"))
        capsys.readouterr()
        assert _run_json("detect", analyzed, {"--jar": bad}) == 1
        assert _json_error(capsys) == {"error": "CORRUPT_SNAPSHOT",
                                       "message": f"{bad}: history[0]: missing field 'deleted'"}

    @pytest.mark.parametrize("value", ["abc", ["a.com", 1], {"a.com": 1}, None])
    def test_accepted_sites_must_be_a_list_of_strings(self, analyzed, tmp_path, capsys, value):
        bad = self._mutated(analyzed, tmp_path, lambda payload: payload.__setitem__("accepted_sites", value))
        capsys.readouterr()
        assert _run_json("detect", analyzed, {"--jar": bad}) == 1
        assert _json_error(capsys) == {"error": "CORRUPT_SNAPSHOT",
                                       "message": f"{bad}: bad accepted_sites {value!r}"}

    def test_an_integer_expiry_loads(self, analyzed, tmp_path):
        """JSON does not tell 60 from 60.0 apart by meaning; both are lifetimes."""
        def mutate(payload):
            for entry in payload["entries"]:
                if entry["original_expiry"] is not None:
                    entry["original_expiry"] = int(entry["original_expiry"])

        jar = CookieJar.load(self._mutated(analyzed, tmp_path, mutate))
        assert jar.entries == CookieJar.load(analyzed / "jar.snap").entries


class TestResetsAndSyncsReaders:
    @pytest.mark.parametrize("kind", ["resets", "syncs"])
    def test_records_decode_to_what_detect_found(self, analyzed, kind):
        records = [json.loads(line) for line in (analyzed / f"{kind}.jsonl").read_text().splitlines()[1:]]
        assert records
        fields = {"resets": cli._RESET_FIELDS, "syncs": cli._SYNC_FIELDS}[kind]
        assert [json.loads(fields.encode(fields.decode(record))) for record in records] == records
        assert _run_json("report", analyzed, {f"--{kind}": analyzed / f"{kind}.jsonl"}) == 0
        header, row = (analyzed / "report" / "totals.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))[kind] == str(len(records))

    @pytest.mark.parametrize("kind", ["resets", "syncs"])
    @pytest.mark.parametrize(
        "mutate, problem",
        [
            (lambda records: [[1, 2], "x"], "line 2: not a JSON object"),
            (lambda records: [records[0], 7], "line 3: not a JSON object"),
            (lambda records: [{k: v for k, v in records[0].items() if k != "name"}], "record 0: missing field 'name'"),
            (lambda records: [records[0], {**records[0], "host": 5}], "record 1: bad host 5"),
            (lambda records: [{**records[0], "partition": False}], "record 0: bad partition False"),
        ],
    )
    def test_bad_record_exits_1(self, analyzed, tmp_path, capsys, kind, mutate, problem):
        lines = (analyzed / f"{kind}.jsonl").read_text().splitlines()
        records = mutate([json.loads(line) for line in lines[1:]])
        bad = tmp_path / f"{kind}.jsonl"
        bad.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")
        capsys.readouterr()
        assert _run_json("report", analyzed, {f"--{kind}": bad}) == 1
        assert _json_error(capsys) == {"error": "MALFORMED_RECORD", "message": f"{bad}: {problem}"}

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("resets", "event_index", True),
            ("resets", "event_index", "3"),
            ("resets", "sender_site", None),
            ("syncs", "carrying_url", 1),
            ("syncs", "parameter_name", []),
        ],
    )
    def test_mistyped_field_exits_1(self, analyzed, tmp_path, capsys, kind, field, value):
        lines = (analyzed / f"{kind}.jsonl").read_text().splitlines()
        record = {**json.loads(lines[1]), field: value}
        bad = tmp_path / f"{kind}.jsonl"
        bad.write_text(f"{lines[0]}\n{json.dumps(record)}\n")
        capsys.readouterr()
        assert _run_json("report", analyzed, {f"--{kind}": bad}) == 1
        assert _json_error(capsys) == {"error": "MALFORMED_RECORD",
                                       "message": f"{bad}: record 0: bad {field} {value!r}"}
