"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v``; the terminal summary prints
one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import time
from pathlib import Path

import pytest

from cookietrail import analytics, reports, simulator as sim
from cookietrail.cli import main
from cookietrail.crawllog import parse_log_text, serialize, strict_issues
from cookietrail.errors import InputError, InvariantError
from cookietrail.filterlist import is_tracker
from cookietrail.jar import CookieJar
from cookietrail.model import (
    FIXED_EXPIRY,
    BannerType,
    ConsentState,
    CookieKey,
    CookieRecord,
    InteractionStage,
    Phase,
)

from helpers import SIM_PSL, native_banner, random_config, run_pipeline, set_path, write_report

DEMO = Path(__file__).parent.parent / "demo"


def _run_cli(args) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([str(a) for a in args])
    return code, stderr.getvalue()


# --- criterion 1: end-to-end oracle equivalence -----------------------------------


def test_c1_oracle_equivalence_randomized():
    """Detector output equals simulator ground truth on 200+ randomized runs."""
    started = time.monotonic()
    checked = 0
    coverage = {"cmp": 0, "native": 0, "paywall": 0, "gpc": 0, "partitioned": 0, "drop": 0}
    for seed in range(200):
        config = random_config(random.Random(seed))
        banner_types = {s.banner.banner_type for s in config.sites}
        coverage["cmp"] += BannerType.CMP in banner_types
        coverage["native"] += BannerType.NATIVE in banner_types
        coverage["paywall"] += BannerType.PAYWALL in banner_types
        coverage["gpc"] += config.schedule.gpc_enabled
        coverage["partitioned"] += any(t.sets_partitioned for t in config.trackers)
        coverage["drop"] += any(t.drop_after_reject_prob > 0 for t in config.trackers)
        _, jar, result = run_pipeline(config, seed)
        truth = sim.ground_truth(config, seed)
        got = {(f.key, f.sender_site, f.stage) for f in result.canonical_findings}
        assert got == truth.expected_findings, f"findings mismatch at seed {seed}"
        assert set(jar.entries) == set(truth.expected_jar_keys), f"jar mismatch at seed {seed}"
        checked += 1
    # Two large ecosystems to pin the runtime expectation.
    for seed in (9001, 9002):
        config = random_config(random.Random(seed), n_sites=1000)
        _, jar, result = run_pipeline(config, seed)
        truth = sim.ground_truth(config, seed)
        got = {(f.key, f.sender_site, f.stage) for f in result.canonical_findings}
        assert got == truth.expected_findings
        assert set(jar.entries) == set(truth.expected_jar_keys)
        checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 200
    assert all(count > 0 for count in coverage.values()), coverage
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


# --- criterion 2: tracker matching conformance --------------------------------------


def test_c2_is_tracker_matches_reference_on_1e5_pairs():
    rng = random.Random(0xC2)
    labels = ["ads", "track", "cdn", "a", "b", "net", "com", "io", "x", "sync", "t1", "t2"]

    def rand_domain(max_labels):
        return ".".join(rng.choices(labels, k=rng.randint(1, max_labels)))

    disagreements = 0
    for _ in range(100_000):
        entry = rand_domain(3)
        roll = rng.random()
        if roll < 0.3:
            host = entry  # exact-match arm
        elif roll < 0.6:
            host = rand_domain(2) + "." + entry  # suffix arm
        elif roll < 0.7:
            host = rng.choice(labels) + entry  # boundary violation arm
        else:
            host = rand_domain(4)
        tracker_set = frozenset({entry})
        reference = host == entry or host.endswith("." + entry)
        if is_tracker(host, tracker_set) != reference:
            disagreements += 1
    assert disagreements == 0


# --- criterion 3: public-suffix conformance ------------------------------------------


def test_c3_psl_suite_zero_failures(psl_rules):
    from test_psl import _suite_vectors
    from cookietrail.model import canonicalize_host
    from cookietrail.psl import etld_plus_one

    failures = 0
    for raw_input, expected in _suite_vectors():
        if raw_input is None or raw_input.startswith("."):
            failures += expected is not None
            continue
        try:
            got = etld_plus_one(canonicalize_host(raw_input), psl_rules)
        except InputError as exc:
            got = None if exc.code == "HOST_IS_PUBLIC_SUFFIX" else "error"
        want = canonicalize_host(expected) if expected is not None else None
        failures += got != want
    assert failures == 0


# --- criterion 4: jar semantics under random write sequences --------------------------


def test_c4_jar_semantics_property():
    from datetime import datetime, timezone

    assert FIXED_EXPIRY == datetime(2028, 1, 1, 12, 12, 12, tzinfo=timezone.utc)
    rng = random.Random(0xC4)
    names = ["a", "b", "c", "d"]
    hosts = ["t1.net", "t2.net", "deep.t1.net"]
    partitions = [None, None, "p1.com", "p2.com"]
    for _ in range(10_000):
        jar = CookieJar()
        model: dict[CookieKey, None] = {}
        for step in range(rng.randint(1, 12)):
            key = CookieKey(rng.choice(names), rng.choice(hosts), rng.choice(partitions))
            expiry = rng.choice([None, 1.0, 3600.0, 365 * 86400.0, 0.0, -30.0])
            record = CookieRecord(
                key=key,
                value=f"v{step}",
                original_expiry=expiry,
                setter_site=f"s{step % 3}.com",
                set_at=step,
                consent_state_at_set=ConsentState.POST_ACCEPT,
                phase=Phase.STATEFUL_ACCEPT,
            )
            jar.upsert(record)
            if expiry is not None and expiry <= 0:
                model.pop(key, None)  # deletion honored, never extended
            else:
                model[key] = None
        assert set(jar.entries) == set(model)
        assert all(r.effective_expiry == FIXED_EXPIRY for r in jar.entries.values())
    # Partitioned and plain twins coexist as two entries.
    jar = CookieJar()
    for partition in (None, "top.com"):
        jar.upsert(
            CookieRecord(
                key=CookieKey("id", "t.net", partition),
                value="1",
                original_expiry=60.0,
                setter_site="top.com",
                set_at=0,
                consent_state_at_set=ConsentState.POST_ACCEPT,
                phase=Phase.STATEFUL_ACCEPT,
            )
        )
    assert len(jar.entries) == 2


# --- criterion 5: unique-count accounting identity -------------------------------------


def test_c5_accounting_identity_on_simulated_runs():
    for seed in range(40):
        config = random_config(random.Random(5000 + seed))
        _, jar, result = run_pipeline(config, seed)
        canonical = result.canonical_findings
        finding_groups = {(f.key.name, f.key.host) for f in canonical}
        flagged_jar_groups = {
            (key.name, key.host)
            for key in jar.entries
            if (key.name, key.host) in finding_groups
        }
        assert finding_groups == flagged_jar_groups
        assert all(f.key in jar.entries for f in canonical)
        assert all(f.stage is InteractionStage.BEFORE_INTERACTION for f in canonical)


# --- criterion 6: scenario reproduction (paper-shaped, synthetic) ------------------------


def _uniform_ecosystem(trackers: list[sim.TrackerSpec], *, phase2=15, phase1=5, embed_count=6, rng=None):
    tracker_domains = [t.domain for t in trackers]
    rng = rng or random.Random(0)
    sites = []
    for i in range(phase1 + phase2):
        chosen = rng.sample(tracker_domains, min(embed_count, len(tracker_domains)))
        embeds = tuple(sim.EmbedSpec(d) for d in chosen)
        sites.append(sim.SiteSpec(f"s{i}.com", i + 1, native_banner(), embeds))
    # Every tracker lands in the jar: the first phase-1 site embeds them all.
    sites[0] = sim.SiteSpec(
        "s0.com", 1, native_banner(), tuple(sim.EmbedSpec(d) for d in tracker_domains)
    )
    return sim.EcosystemConfig(
        sites=tuple(sites),
        trackers=tuple(trackers),
        schedule=sim.Schedule(
            phase1=tuple(s.site for s in sites[:phase1]),
            phase2=tuple(s.site for s in sites[phase1:]),
        ),
    )


def test_c6a_reload_drop_quarter():
    trackers = [
        sim.TrackerSpec(f"t{i}.net", (sim.CookieSpec(f"c{i}"),), drop_after_reject_prob=0.25)
        for i in range(8)
    ]
    reductions = []
    for seed in range(50):
        config = _uniform_ecosystem(trackers, rng=random.Random(seed))
        _, _, result = run_pipeline(config, seed)
        before = len(result.canonical_findings)
        after = sum(
            1 for f in result.findings if not f.canonical and f.stage is InteractionStage.AFTER_RELOADED_REJECT
        )
        assert before > 0
        reductions.append(1 - after / before)
    mean = sum(reductions) / len(reductions)
    assert abs(mean - 0.25) <= 0.03, f"mean reload reduction {mean:.4f}"


def test_c6b_gpc_thirty_percent():
    trackers = [
        sim.TrackerSpec(f"t{i}.net", (sim.CookieSpec(f"c{i}"),), honors_gpc=i < 3)
        for i in range(10)
    ]
    reductions = []
    for seed in range(50):
        rng_sites = random.Random(10_000 + seed)
        base_config = _uniform_ecosystem(trackers, rng=rng_sites)
        gpc_config = sim.EcosystemConfig(
            base_config.sites,
            base_config.trackers,
            sim.Schedule(
                base_config.schedule.phase1, base_config.schedule.phase2, gpc_enabled=True
            ),
        )
        _, _, baseline = run_pipeline(base_config, seed)
        _, _, with_gpc = run_pipeline(gpc_config, seed)
        report = analytics.gpc_report(
            baseline.canonical_findings, with_gpc.canonical_findings, []
        )
        reductions.append(report.reduction_fraction)
    mean = sum(reductions) / len(reductions)
    assert abs(mean - 0.30) <= 0.03, f"mean signal reduction {mean:.4f}"


# --- criterion 7: byte-identical pipeline reruns -------------------------------------------


def test_c7_pipeline_determinism(tmp_path):
    digests = []
    for attempt in ("first", "second"):
        root = tmp_path / attempt
        root.mkdir()
        log, jar, findings = root / "run.log", root / "jar.snap", root / "findings.jsonl"
        trackers = root / "trackers.txt"
        report_dir = root / "report"
        assert _run_cli(
            ["simulate", "--config", DEMO / "ecosystem.json", "--seed", 42,
             "--out", log, "--trackers-out", trackers]
        )[0] == 0
        assert _run_cli(["build-jar", "--log", log, "--out", jar])[0] == 0
        assert _run_cli(
            ["detect", "--jar", jar, "--log", log, "--psl", DEMO / "psl.dat",
             "--trackers", trackers, "--out", findings]
        )[0] == 0
        assert _run_cli(
            ["report", "--findings", findings, "--jar", jar, "--log", log,
             "--psl", DEMO / "psl.dat", "--trackers", trackers,
             "--out", report_dir, "--tiers", "2,4,6"]
        )[0] == 0
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*")):
            if path.is_file():
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(path.read_bytes())
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1]


# --- criterion 8: corrupted-log rejection ----------------------------------------------------


def _base_log_lines(seed: int = 13) -> list[str]:
    config = sim.EcosystemConfig.from_json((DEMO / "ecosystem.json").read_text())
    return serialize(sim.generate(config, seed)).splitlines()


# (kind, field, value): a string field of a log record holding a number.
_FIELD_TYPE_MUTATIONS = (
    ("HTTP_REQUEST", "target_host", 5),
    ("VISIT_START", "site", 42),
    ("COOKIE_SET", "set_cookie_header", 7),
    ("COOKIE_SET", "setter_context_host", 7),
    ("HTTP_REQUEST", "cookie_header", 3),
)

# (path into a banner, value): a label or category that is not a string, a toggle flag that is not a
# bool.  Each path exists in a two-layer banner whose settings layer has a toggle.
_BANNER_TYPE_MUTATIONS = (
    (("layers", 0, "buttons", 0, 0), 5),
    (("layers", 1, "toggles", 0, 0), 5),
    (("layers", 1, "toggles", 0, 1), "false"),
    (("layers", 1, "toggles", 0, 2), 1),
)


def _mutants(lines: list[str]):
    """Yield (mutated_text, expected_error_class, expected_exit) tuples."""
    records = [json.loads(line) for line in lines]

    def positions(kind, key=None, limit=50):
        out = []
        for i, record in enumerate(records):
            if record.get("kind") == kind and (key is None or record.get(key)):
                out.append(i)
        return out[:limit]

    # a) stage relabeling: a request claims a stage the visit is not in.
    for i in positions("HTTP_REQUEST"):
        record = dict(records[i])
        record["stage"] = (
            "AFTER_RELOADED_REJECT" if record["stage"] == "BEFORE_INTERACTION" else "BEFORE_INTERACTION"
        )
        yield "\n".join(lines[:i] + [json.dumps(record)] + lines[i + 1:]), "SEQUENCE_VIOLATION", 2

    # b) line-boundary truncation right after a VISIT_START leaves the visit open.
    for i in positions("VISIT_START"):
        yield "\n".join(lines[: i + 1]), "SEQUENCE_VIOLATION", 2

    # c) mid-line truncation breaks the JSON record.
    for i in positions("COOKIE_SET"):
        yield "\n".join(lines[:i] + [lines[i][:-4]]), "MALFORMED_RECORD", 1

    # d) malformed cookie headers (pair without '=').
    for i in positions("HTTP_REQUEST", key="cookie_header"):
        record = dict(records[i])
        record["cookie_header"] += "; brokenpair"
        yield "\n".join(lines[:i] + [json.dumps(record)] + lines[i + 1:]), "MALFORMED_PAIR", 1

    # e) Set-Cookie without a name.
    for i in positions("COOKIE_SET"):
        record = dict(records[i])
        record["set_cookie_header"] = "=orphan; Max-Age=60"
        yield "\n".join(lines[:i] + [json.dumps(record)] + lines[i + 1:]), "MISSING_NAME", 1

    # f) unknown event kind.
    for i in positions("VISIT_END"):
        record = dict(records[i])
        record["kind"] = "VISIT_FINISH"
        yield "\n".join(lines[:i] + [json.dumps(record)] + lines[i + 1:]), "MALFORMED_RECORD", 1

    # g) missing required field.
    for i in positions("VISIT_START"):
        record = dict(records[i])
        del record["site"]
        yield "\n".join(lines[:i] + [json.dumps(record)] + lines[i + 1:]), "MALFORMED_RECORD", 1

    # h) bad enum value.
    for i in positions("VISIT_END"):
        record = dict(records[i])
        record["outcome"] = "MAYBE"
        yield "\n".join(lines[:i] + [json.dumps(record)] + lines[i + 1:]), "MALFORMED_RECORD", 1

    # i) events for a visit that never started.
    for i, visit_record in [(i, records[i]) for i in positions("VISIT_END")]:
        orphan = dict(visit_record)
        orphan["visit_id"] = "ghost-" + orphan["visit_id"]
        yield "\n".join(lines + [json.dumps(orphan)]), "SEQUENCE_VIOLATION", 2

    # j) duplicate VISIT_START for an already-closed visit.
    for i in positions("VISIT_START"):
        yield "\n".join(lines + [lines[i]]), "SEQUENCE_VIOLATION", 2

    # k) header removal and header corruption.
    yield "\n".join(lines[1:]), "MALFORMED_RECORD", 1
    yield "\n".join(['{"format_version":99}'] + lines[1:]), "MALFORMED_RECORD", 1

    # l) interaction whose resulting stage contradicts its action.
    for i in positions("INTERACTION"):
        record = dict(records[i])
        record["resulting_stage"] = (
            "AFTER_ACCEPT" if record["action"] == "REJECT_CLICKED" else "AFTER_REJECT"
        )
        yield "\n".join(lines[:i] + [json.dumps(record)] + lines[i + 1:]), "SEQUENCE_VIOLATION", 2

    # m) rank corrupted to a non-positive value.
    for i in positions("VISIT_START"):
        record = dict(records[i])
        record["rank"] = 0
        yield "\n".join(lines[:i] + [json.dumps(record)] + lines[i + 1:]), "MALFORMED_RECORD", 1

    # n) a redirect's URL that urlsplit rejects (unclosed IPv6 bracket).
    for i in positions("HTTP_REQUEST", key="redirect_parent_url"):
        for url_field in ("target_url", "redirect_parent_url"):
            record = dict(records[i])
            record[url_field] = "https://[::1/match?uid=x"
            yield "\n".join(lines[:i] + [json.dumps(record)] + lines[i + 1:]), "UNPARSABLE_URL", 1

    # o) a string field holding a number: hosts and the cookie headers.
    for kind, field, value in _FIELD_TYPE_MUTATIONS:
        for i in positions(kind, limit=10):
            record = dict(records[i])
            record[field] = value
            yield "\n".join(lines[:i] + [json.dumps(record)] + lines[i + 1:]), "MALFORMED_RECORD", 1

    # p) a banner field of the wrong type.
    for i in positions("BANNER_OBSERVED", limit=10):
        layers = records[i]["banner"]["layers"]
        if len(layers) < 2 or not layers[1]["toggles"]:
            continue
        for path, value in _BANNER_TYPE_MUTATIONS:
            record = json.loads(lines[i])
            set_path(record["banner"], path, value)
            yield "\n".join(lines[:i] + [json.dumps(record)] + lines[i + 1:]), "MALFORMED_RECORD", 1


def c8_corpus() -> list[tuple[str, str, int]]:
    """Every C8 mutant: of the demo log, and of the logs of two larger randomized ecosystems."""
    corpus = list(_mutants(_base_log_lines()))
    for extra_seed in (77, 78):
        config = random_config(random.Random(extra_seed), n_sites=20)
        corpus += list(_mutants(serialize(sim.generate(config, extra_seed)).splitlines()))
    return corpus


def test_c8_corrupted_log_corpus(tmp_path):
    corpus = c8_corpus()
    assert len(corpus) >= 500, f"only {len(corpus)} mutants generated"

    silent = 0
    wrong_class = []
    for index, (text, expected_class, expected_exit) in enumerate(corpus):
        got_class = None
        got_exit = 0
        try:
            index = parse_log_text(text)
        except InvariantError as exc:
            got_class, got_exit = exc.code, 2
        except InputError as exc:
            got_class, got_exit = exc.code, 1
        else:
            issues = strict_issues(index)
            if issues:
                got_class, got_exit = issues[0].code, 1
        if got_class is None:
            silent += 1
        elif got_class != expected_class or got_exit != expected_exit:
            wrong_class.append((index, expected_class, got_class))
    assert silent == 0, f"{silent} corrupted logs accepted silently"
    assert not wrong_class, wrong_class[:10]

    # Spot-check the CLI surface agrees with the library behavior.
    for text, expected_class, expected_exit in corpus[:: len(corpus) // 10]:
        bad = tmp_path / "bad.log"
        bad.write_text(text + "\n", encoding="utf-8")
        code, stderr = _run_cli(["--errors", "json", "validate-log", "--log", bad])
        assert code == expected_exit
        assert expected_class in stderr


def test_c8_field_type_mutations_exit_1_from_every_log_reader(tmp_path):
    """A non-string host or header is an input error for validate-log, build-jar and detect."""
    log, trackers, jar = tmp_path / "demo.log", tmp_path / "trackers.txt", tmp_path / "jar.json"
    assert _run_cli(["simulate", "--config", DEMO / "ecosystem.json", "--seed", 1,
                     "--out", log, "--trackers-out", trackers])[0] == 0
    assert _run_cli(["build-jar", "--log", log, "--out", jar])[0] == 0
    lines = log.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    for kind, field, value in _FIELD_TYPE_MUTATIONS:
        i = next(i for i, r in enumerate(records) if r.get("kind") == kind)
        bad = tmp_path / f"{field}.log"
        bad.write_text("\n".join(lines[:i] + [json.dumps({**records[i], field: value})] + lines[i + 1:]) + "\n")
        for command in (
            ["validate-log", "--log", bad],
            ["build-jar", "--log", bad, "--out", tmp_path / "bad-jar.json"],
            ["detect", "--jar", jar, "--log", bad, "--psl", DEMO / "psl.dat",
             "--trackers", trackers, "--out", tmp_path / "findings.json"],
        ):
            code, stderr = _run_cli(["--errors", "json", *command])
            assert code == 1, (field, command[0], stderr)
            assert json.loads(stderr)["error"] == "MALFORMED_RECORD", (field, command[0], stderr)


# (path into the demo config, value): one config field holding the wrong type.
_CONFIG_TYPE_MUTATIONS = (
    (("sites", 0, "site"), 42),
    (("sites", 0, "rank"), "x"),
    (("trackers", 0, "cookies", 0, "name"), 7),
    (("trackers", 0, "cookies", 0, "value", "length"), "z"),
    (("trackers", 0, "cookies", 0, "lifetime"), float("inf")),
    (("sites", 0, "banner"), 5),
    (("sites", 4, "banner", "layers", 0, "buttons", 0, 0), 5),
    (("sites", 4, "banner", "layers", 1, "toggles", 0, 0), 5),
    (("sites", 4, "banner", "layers", 1, "toggles", 0, 1), "false"),
    (("sites", 4, "banner", "layers", 1, "toggles", 0, 2), 1),
)


def test_c8_config_type_mutations_exit_1_with_invalid_config(tmp_path):
    """simulate rejects a mistyped config field with an INVALID_CONFIG record, not a traceback."""
    for path, value in _CONFIG_TYPE_MUTATIONS:
        config = json.loads((DEMO / "ecosystem.json").read_text())
        set_path(config, path, value)
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps(config))
        code, stderr = _run_cli(["--errors", "json", "simulate", "--config", bad, "--seed", 1,
                                 "--out", tmp_path / "out.log"])
        assert code == 1, (path, stderr)
        assert json.loads(stderr)["error"] == "INVALID_CONFIG", (path, stderr)


# --- criterion 9: report conservation laws -----------------------------------------------------


def test_c9_report_conservation(tmp_path):
    """The report's tables, written from every matched send, sum to the canonical findings."""
    for seed in range(25):
        config = random_config(random.Random(7000 + seed))
        index, jar, result = run_pipeline(config, seed)
        canonical = result.canonical_findings
        inputs = reports.ReportInputs(
            findings=result.findings, jar=jar, rules=SIM_PSL,
            trackers=frozenset(config.listed_tracker_domains()),
            visits=index.visits, tier_cutoffs=[10],
        )
        write_report(tmp_path / str(seed), inputs)

        def rows(name: str) -> list[list[str]]:
            with open(tmp_path / str(seed) / name, encoding="utf-8", newline="") as handle:
                return list(csv.reader(handle))[1:]

        assert sum(int(count) for *_cell, count in rows("expiry_renewal_heatmap.csv")) == len({f.key for f in canonical})
        assert sum(int(row[1]) for row in rows("tracker_table.csv")) == len(canonical)
        fractions = [float(fraction) for _, fraction in rows("ecdf_findings_per_sender.csv")]
        if fractions:
            assert fractions == sorted(fractions)
            assert fractions[-1] == 1.0


# --- criterion 10: the paper's causal claims as metamorphic relations ---------------------


def _canonical_sends(config: sim.EcosystemConfig, seed: int) -> tuple[frozenset, frozenset]:
    """The canonical sends that ``detect`` finds and that the oracle expects, each as (name, host, sender, stage)."""
    _, _, result = run_pipeline(config, seed)
    detected = frozenset((f.key.name, f.key.host, f.sender_site, f.stage) for f in result.canonical_findings)
    truth = sim.ground_truth(config, seed).expected_findings
    return detected, frozenset((key.name, key.host, sender, stage) for key, sender, stage in truth)


@pytest.fixture(scope="module")
def relation_bases() -> list[tuple[sim.EcosystemConfig, tuple[frozenset, frozenset]]]:
    """For each of 200 seeds, a random ecosystem with the GPC signal off, which every relation changes, and its
    canonical sends."""
    configs = [random_config(random.Random(seed), gpc=False) for seed in range(200)]
    return [(config, _canonical_sends(config, seed)) for seed, config in enumerate(configs)]


def _partitioning(config: sim.EcosystemConfig, rng: random.Random):
    """One tracker switches to partitioned cookies: no canonical send stays on its exact host."""
    domain = rng.choice(config.trackers).domain
    trackers = tuple(t._replace(sets_partitioned=True) if t.domain == domain else t for t in config.trackers)
    return trackers, config.schedule, lambda before, after: all(host != domain for _, host, _, _ in after)


def _gpc(config: sim.EcosystemConfig, rng: random.Random):
    """Turning the GPC signal on never adds a canonical send."""
    return config.trackers, config.schedule._replace(gpc_enabled=True), frozenset.issuperset


def _fewer_acceptances(config: sim.EcosystemConfig, rng: random.Random):
    """Removing a phase-1 site never adds a canonical send."""
    phase1 = list(config.schedule.phase1)
    phase1.remove(rng.choice(phase1))
    return config.trackers, config.schedule._replace(phase1=tuple(phase1)), frozenset.issuperset


@pytest.mark.parametrize("relation", [_partitioning, _gpc, _fewer_acceptances],
                         ids=["partitioning", "gpc", "fewer-acceptances"])
def test_c10_metamorphic_relation(relation_bases, relation):
    """A relation between two runs that the paper's claims imply holds for ``detect`` and for the oracle, each on
    its own, on 200 random ecosystems; and the change removes some sends, so the relation is not vacuous."""
    removed = {"detect": 0, "oracle": 0}
    for seed, (config, sends) in enumerate(relation_bases):
        trackers, schedule, holds = relation(config, random.Random(seed))
        changed = _canonical_sends(sim.EcosystemConfig(config.sites, trackers, schedule), seed)
        for side, before, after in zip(removed, sends, changed):
            assert holds(before, after), (side, seed, sorted(after - before))
            removed[side] += len(before - after)
    assert removed["detect"] > 0 and removed["oracle"] > 0, removed
