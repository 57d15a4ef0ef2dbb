from __future__ import annotations

import itertools
import random
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

import pytest

from cookietrail.crawllog import (
    CookieSet,
    HttpRequest,
    Interaction,
    VisitEnd,
    VisitStart,
    parse_cookie_header,
    parse_log_text,
    serialize,
)
from cookietrail.detector import (
    Detector,
    IntractableFinding,
    SyncFinding,
    detect_reset,
    detect_sync,
    match_sent_to_jar,
    syncable_value,
)
from cookietrail import simulator as sim
from cookietrail.errors import InputError
from cookietrail.filterlist import is_tracker
from cookietrail.jar import CookieJar, build_jar
from cookietrail.model import (
    Channel,
    CookieKey,
    CookieRecord,
    InteractionAction,
    InteractionStage,
    Iteration,
    Phase,
    VisitOutcome,
    domain_match,
)
from cookietrail.psl import etld_plus_one, load_psl

from helpers import index_run, random_config, run_pipeline
from test_jar import make_record

DEMO = Path(__file__).parent.parent / "demo"

RULES = load_psl("com\nnet\nexample\n")
TRACKERS = frozenset({"tracker.net", "other-tracker.com", "shop.com"})


def sent(name="id", value="123", target="cdn.tracker.net") -> tuple[str, str, str]:
    """A sent cookie as ``match_sent_to_jar`` takes it: name, value, target host."""
    return name, value, target


def jar_with(*records: CookieRecord) -> CookieJar:
    jar = CookieJar()
    for record in records:
        jar.upsert(record)
    return jar


class TestMatchSentToJar:
    def test_domain_match_on_subdomain_target(self):
        jar = jar_with(make_record("id", "tracker.net", value="123"))
        assert match_sent_to_jar(*sent(target="a.tracker.net"), jar) == CookieKey("id", "tracker.net")

    def test_partitioned_entries_never_match(self):
        jar = jar_with(make_record("id", "tracker.net", partition="shop.com", value="123"))
        assert match_sent_to_jar(*sent(target="tracker.net"), jar) is None

    def test_value_tie_break_wins_over_host_length(self):
        jar = jar_with(
            make_record("id", "tracker.net", value="123"),
            make_record("id", "a.tracker.net", value="999", set_at=1),
        )
        # Target a.tracker.net domain-matches both entries; the value match
        # must win even though the other host is shorter.
        got = match_sent_to_jar(*sent(value="999", target="a.tracker.net"), jar)
        assert got == CookieKey("id", "a.tracker.net")
        got = match_sent_to_jar(*sent(value="123", target="a.tracker.net"), jar)
        assert got == CookieKey("id", "tracker.net")

    def test_longest_host_among_equal_values(self):
        jar = jar_with(
            make_record("id", "tracker.net", value="same"),
            make_record("id", "a.tracker.net", value="same", set_at=1),
        )
        got = match_sent_to_jar(*sent(value="same", target="b.a.tracker.net"), jar)
        assert got == CookieKey("id", "a.tracker.net")

    def test_no_candidate(self):
        jar = jar_with(make_record("id", "tracker.net"))
        assert match_sent_to_jar(*sent(name="zz"), jar) is None
        assert match_sent_to_jar(*sent(target="unrelated.org"), jar) is None

    def test_selection_invariant_under_insertion_order(self):
        """Brute force: result is identical for every insertion order of candidates."""
        records = [
            make_record("id", "tracker.net", value="123"),
            make_record("id", "a.tracker.net", value="999"),
            make_record("id", "b.a.tracker.net", value="999"),
            make_record("other", "a.tracker.net", value="999"),
        ]
        probes = [
            sent(value="999", target="b.a.tracker.net"),
            sent(value="123", target="a.tracker.net"),
            sent(value="zzz", target="x.b.a.tracker.net"),
        ]
        for probe in probes:
            results = set()
            for order in itertools.permutations(range(len(records))):
                jar = CookieJar()
                for position, i in enumerate(order):
                    jar.upsert(
                        make_record(
                            records[i].key.name,
                            records[i].key.host,
                            value=records[i].value,
                            set_at=position,
                        )
                    )
                results.add(match_sent_to_jar(*probe, jar))
            assert len(results) == 1, (probe, results)


    def test_matches_linear_scan_on_random_jars(self):
        """Suffix lookup picks what a scan over every jar entry picks."""

        def scan(name: str, value: str, target: str, jar: CookieJar) -> CookieKey | None:
            best = None
            for key, record in jar.entries.items():
                if key.partition is not None or key.name != name:
                    continue
                if not domain_match(target, key.host):
                    continue
                rank = (0 if record.value == value else 1, -len(key.host), key.host)
                if best is None or rank < best[0]:
                    best = (rank, key)
            return best[1] if best else None

        rng = random.Random(5)
        hosts = ["", "net", "tracker.net", "a.tracker.net", "b.a.tracker.net", "x.tracker.net",
                 "a..b", ".b", "b", "tracker.net.", "net.", "."]
        targets = hosts + ["c.b.a.tracker.net", "z.a..b", "q.tracker.net.", "nottracker.net", ".."]
        matched = 0
        for _ in range(2000):
            jar = CookieJar()
            for step in range(rng.randint(0, 12)):
                jar.upsert(
                    make_record(
                        rng.choice(["id", "uid"]),
                        rng.choice(hosts),
                        partition=rng.choice([None, None, "p.com"]),
                        value=rng.choice(["1", "2"]),
                        expiry=rng.choice([60.0, 60.0, -1.0]),
                        set_at=step,
                    )
                )
            for _ in range(4):
                probe = sent(name=rng.choice(["id", "uid"]), value=rng.choice(["1", "2"]), target=rng.choice(targets))
                got = match_sent_to_jar(*probe, jar)
                assert got == scan(*probe, jar), (probe, sorted(jar.entries, key=repr))
                matched += got is not None
        assert matched > 1000


def _reject_visit_events(visit_id="v1", site="new.com", header="id=123",
                         target="cdn.tracker.net", outcome=VisitOutcome.REJECTED,
                         stage=InteractionStage.BEFORE_INTERACTION):
    events = [
        VisitStart(visit_id, site, 5, Phase.STATELESS_MEASURE, Iteration.REJECT_ITER, False),
    ]
    if stage is InteractionStage.BEFORE_INTERACTION:
        events.append(
            HttpRequest(visit_id, stage, target, f"https://{target}/px", Channel.RESOURCE_FETCH, header)
        )
    if outcome is VisitOutcome.REJECTED:
        events.append(Interaction(visit_id, InteractionAction.REJECT_CLICKED, InteractionStage.AFTER_REJECT))
        events.append(Interaction(visit_id, InteractionAction.RELOAD, InteractionStage.AFTER_RELOADED_REJECT))
        if stage is InteractionStage.AFTER_RELOADED_REJECT:
            events.append(
                HttpRequest(visit_id, stage, target, f"https://{target}/px", Channel.RESOURCE_FETCH, header)
            )
    events.append(VisitEnd(visit_id, outcome))
    return events


class TestDetect:
    def test_definitional_case_yields_one_finding(self):
        jar = jar_with(make_record("id", "tracker.net", value="123", setter="basic.com"))
        jar.mark_accepted("basic.com")
        index = parse_log_text(serialize(_reject_visit_events()))
        result = Detector(RULES, TRACKERS).detect(jar, index)
        assert len(result.canonical_findings) == 1
        finding = result.canonical_findings[0]
        assert finding.key == CookieKey("id", "tracker.net")
        assert finding.sender_site == "new.com"
        assert finding.tracker_domain == "tracker.net"
        assert finding.stage is InteractionStage.BEFORE_INTERACTION

    def test_empty_jar_no_findings(self):
        index = parse_log_text(serialize(_reject_visit_events()))
        result = Detector(RULES, TRACKERS).detect(CookieJar(), index)
        assert result.findings == []

    def test_send_only_after_reload_is_staged_not_canonical(self):
        jar = jar_with(make_record("id", "tracker.net", value="123"))
        index = parse_log_text(
            serialize(_reject_visit_events(stage=InteractionStage.AFTER_RELOADED_REJECT))
        )
        # The builder emits a BEFORE request only for BEFORE stage, so here the
        # only send happens after reload.
        result = Detector(RULES, TRACKERS).detect(jar, index)
        canonical = result.canonical_findings
        staged = [f for f in result.findings if not f.canonical]
        assert canonical == []
        assert len(staged) == 1 and staged[0].stage is InteractionStage.AFTER_RELOADED_REJECT

    def test_failed_rejection_excluded_from_canonical(self):
        jar = jar_with(make_record("id", "tracker.net", value="123"))
        index = parse_log_text(
            serialize(_reject_visit_events(outcome=VisitOutcome.INTERACTION_FAILED))
        )
        result = Detector(RULES, TRACKERS).detect(jar, index)
        assert result.canonical_findings == []
        assert len([f for f in result.findings if not f.canonical]) == 1
        assert result.stats.failed_rejections == 1

    def test_non_tracking_match_not_a_finding(self):
        jar = jar_with(make_record("pref", "benign.example", value="1"))
        index = parse_log_text(
            serialize(_reject_visit_events(header="pref=1", target="benign.example"))
        )
        result = Detector(RULES, TRACKERS).detect(jar, index)
        assert result.findings == []
        assert result.stats.non_tracking_matches == 1

    def test_send_only_at_after_accept_is_staged(self):
        jar = jar_with(make_record("id", "tracker.net", value="123"))
        events = [
            VisitStart("a1", "new.com", 5, Phase.STATELESS_MEASURE, Iteration.ACCEPT_ITER, False),
            Interaction("a1", InteractionAction.ACCEPT_CLICKED, InteractionStage.AFTER_ACCEPT),
            HttpRequest(
                "a1",
                InteractionStage.AFTER_ACCEPT,
                "cdn.tracker.net",
                "https://cdn.tracker.net/px",
                Channel.RESOURCE_FETCH,
                "id=123",
            ),
            VisitEnd("a1", VisitOutcome.ACCEPTED),
        ]
        result = Detector(RULES, TRACKERS).detect(jar, parse_log_text(serialize(events)))
        assert result.canonical_findings == []
        assert [f.stage for f in result.findings if not f.canonical] == [InteractionStage.AFTER_ACCEPT]

    def test_accept_iteration_before_sends_not_canonical(self):
        jar = jar_with(make_record("id", "tracker.net", value="123"))
        events = [
            VisitStart("a1", "new.com", 5, Phase.STATELESS_MEASURE, Iteration.ACCEPT_ITER, False),
            HttpRequest(
                "a1",
                InteractionStage.BEFORE_INTERACTION,
                "cdn.tracker.net",
                "https://cdn.tracker.net/px",
                Channel.RESOURCE_FETCH,
                "id=123",
            ),
            Interaction("a1", InteractionAction.ACCEPT_CLICKED, InteractionStage.AFTER_ACCEPT),
            VisitEnd("a1", VisitOutcome.ACCEPTED),
        ]
        result = Detector(RULES, TRACKERS).detect(jar, parse_log_text(serialize(events)))
        assert result.canonical_findings == []
        assert len([f for f in result.findings if not f.canonical]) == 1

    def test_subset_and_uniques_identity(self):
        jar = jar_with(
            make_record("id", "tracker.net", value="1", setter="a.com"),
            make_record("sid", "tracker.net", value="2", setter="a.com", set_at=1),
            make_record("unsent", "tracker.net", value="3", setter="a.com", set_at=2),
        )
        index = parse_log_text(serialize(_reject_visit_events(header="id=1; sid=2")))
        result = Detector(RULES, TRACKERS).detect(jar, index)
        canonical = result.canonical_findings
        finding_keys = {f.key for f in canonical}
        assert finding_keys <= set(jar.entries)
        flagged = {
            key for key in jar.entries
            if (key.name, key.host) in {(f.key.name, f.key.host) for f in canonical}
        }
        assert {(k.name, k.host) for k in finding_keys} == {(k.name, k.host) for k in flagged}


    def test_first_party_tracking_permitted(self):
        # A tracker host that is also the sending site is first-party there, and still a finding.
        jar = jar_with(make_record("id", "shop.com", value="123", setter="basic.com"))
        index = parse_log_text(serialize(_reject_visit_events(site="shop.com", target="www.shop.com")))
        result = Detector(RULES, TRACKERS).detect(jar, index)
        [finding] = result.canonical_findings
        assert finding.key == CookieKey("id", "shop.com")
        assert finding.sender_site == finding.tracker_domain == "shop.com"


def _request(target, header, visit_id="v1", stage=InteractionStage.BEFORE_INTERACTION):
    return HttpRequest(visit_id, stage, target, f"https://{target}/", Channel.RESOURCE_FETCH, header)


class TestDetectSends:
    """Detection decides one send per (HTTP_REQUEST, cookie pair), in event order."""

    def test_one_observation_per_pair(self):
        jar = jar_with(make_record("id", "tracker.net", value="123"))
        result = Detector(RULES, TRACKERS).detect(jar, parse_log_text(serialize(_reject_visit_events())))
        assert result.stats.observations == 1
        [finding] = result.findings
        assert finding.key.name == "id"
        assert finding.sender_site == "new.com"
        assert finding.stage is InteractionStage.BEFORE_INTERACTION

    def test_empty_header_no_observations(self):
        jar = jar_with(make_record("id", "tracker.net", value="123"))
        result = Detector(RULES, TRACKERS).detect(jar, parse_log_text(serialize(_reject_visit_events(header=""))))
        assert result.stats.observations == 0
        assert result.findings == []

    def test_conservation_total_equals_pair_sum(self):
        events = _reject_visit_events()
        events.insert(2, _request("other.net", "id=123; t=9"))
        index = parse_log_text(serialize(events))
        result = Detector(RULES, TRACKERS).detect(CookieJar(), index)
        expected = sum(len(parse_cookie_header(e.cookie_header)) for e in index.requests)
        assert result.stats.observations == expected == 3

    def test_same_cookie_to_two_trackers_distinct(self):
        jar = jar_with(
            make_record("id", "tracker.net", value="123"),
            make_record("id", "other-tracker.com", value="123", set_at=1),
        )
        events = _reject_visit_events()
        events.insert(2, _request("other-tracker.com", "id=123"))
        result = Detector(RULES, TRACKERS).detect(jar, parse_log_text(serialize(events)))
        assert result.stats.observations == 2
        assert [(f.key.host, f.event_index) for f in result.findings] == [("tracker.net", 1), ("other-tracker.com", 2)]

    def test_warning_order_pairs_then_psl_failures(self):
        """Every malformed-pair warning, in event order and naming its visit, comes before the PSL failures, which
        give one warning per cookie host however many of its sends fail."""
        rules = load_psl("com\nnet\nexample\ntracker.net\n")
        jar = jar_with(make_record("id", "tracker.net", value="123"))
        accept_visit = [
            VisitStart("a1", "shop.com", 1, Phase.STATEFUL_ACCEPT, Iteration.ACCEPT_ITER, False),
            Interaction("a1", InteractionAction.ACCEPT_CLICKED, InteractionStage.AFTER_ACCEPT),
            _request("cdn.tracker.net", "junk2", "a1", InteractionStage.AFTER_ACCEPT),
            VisitEnd("a1", VisitOutcome.ACCEPTED),
        ]
        events = [
            *_reject_visit_events("v1", header="id=123; junk1"),
            *accept_visit,
            *_reject_visit_events("v2", header="=x; id=123"),
        ]
        result = Detector(rules, TRACKERS).detect(jar, parse_log_text(serialize(events)))
        assert [(i.code, i.detail) for i in result.issues] == [
            ("MALFORMED_PAIR", "visit 'v1': cookie pair without '=': 'junk1'"),
            ("MALFORMED_PAIR", "visit 'a1': cookie pair without '=': 'junk2'"),
            ("MALFORMED_PAIR", "visit 'v2': cookie pair without '=': '=x'"),
            ("HOST_IS_PUBLIC_SUFFIX", "cookie host 'tracker.net': 'tracker.net' has no registrable part"),
        ]
        assert result.stats.psl_failures == 2


def _assert_accounted(result) -> None:
    stats = result.stats
    accounted = stats.unmatched_observations + stats.non_tracking_matches + stats.psl_failures
    assert stats.observations == accounted + len(result.findings)


class TestDetectionStatsIdentity:
    """Each measure-phase observation is unmatched, non-tracking, a PSL failure or a finding."""

    def test_demo_log(self):
        config = sim.EcosystemConfig.from_json((DEMO / "ecosystem.json").read_text())
        index = parse_log_text(serialize(sim.generate(config, 7)))
        rules = load_psl((DEMO / "psl.dat").read_text())
        trackers = frozenset(config.listed_tracker_domains())
        result = Detector(rules, trackers).detect(build_jar(index), index)
        assert result.findings
        _assert_accounted(result)

    def test_random_configs(self):
        for seed in range(50):
            _, _, result = run_pipeline(random_config(random.Random(seed)), seed)
            _assert_accounted(result)

    def test_public_suffix_cookie_host_is_counted(self):
        # With tracker.net a public suffix, the matched tracking cookie has no registrable domain.
        rules = load_psl("com\nnet\nexample\ntracker.net\n")
        jar = jar_with(make_record("id", "tracker.net", value="123"))
        index = parse_log_text(serialize(_reject_visit_events(header="id=123; other=1")))
        result = Detector(rules, TRACKERS).detect(jar, index)
        assert result.findings == []
        assert (result.stats.observations, result.stats.psl_failures) == (2, 1)
        assert [issue.code for issue in result.issues] == ["HOST_IS_PUBLIC_SUFFIX"]
        _assert_accounted(result)


class TestDetectReset:
    def _index_with_set(self, set_header="id=123; Domain=.tracker.net; Max-Age=60", context="cdn.tracker.net"):
        events = _reject_visit_events()
        events.insert(
            2,
            CookieSet("v1", InteractionStage.BEFORE_INTERACTION, set_header, context),
        )
        return parse_log_text(serialize(events))

    def _finding(self, **kwargs):
        base = dict(
            key=CookieKey("id", "tracker.net"),
            value_at_send="123",
            sender_site="new.com",
            tracker_domain="tracker.net",
            stage=InteractionStage.BEFORE_INTERACTION,
            channel=Channel.RESOURCE_FETCH,
            visit_id="v1",
            event_index=1,
            canonical=True,
        )
        base.update(kwargs)
        return IntractableFinding(**base)

    def test_reset_detected(self):
        index = self._index_with_set()
        resets = detect_reset([self._finding()], index, issues=[])
        assert len(resets) == 1
        assert resets[0].key == CookieKey("id", "tracker.net")
        assert resets[0].sender_site == "new.com"

    def test_unrelated_set_ignored(self):
        index = self._index_with_set(set_header="unrelated=1")
        assert detect_reset([self._finding()], index, issues=[]) == []

    def test_two_senders_two_resets(self):
        first = _reject_visit_events(visit_id="v1", site="s1.com")
        second = _reject_visit_events(visit_id="v2", site="s2.com")
        for visit in (first, second):
            visit.insert(
                2,
                CookieSet(
                    visit[0].visit_id,
                    InteractionStage.BEFORE_INTERACTION,
                    "id=9; Domain=.tracker.net; Max-Age=60",
                    "cdn.tracker.net",
                ),
            )
        index = parse_log_text(serialize(first + second))
        findings = [
            self._finding(visit_id="v1", sender_site="s1.com"),
            self._finding(visit_id="v2", sender_site="s2.com"),
        ]
        resets = detect_reset(findings, index, issues=[])
        assert len(resets) == 2
        assert {r.sender_site for r in resets} == {"s1.com", "s2.com"}

    def test_non_canonical_findings_ignored(self):
        index = self._index_with_set()
        assert detect_reset([self._finding(canonical=False)], index, issues=[]) == []

    def test_unreadable_set_is_an_issue_naming_its_visit(self):
        index = self._index_with_set(set_header="=novalue; Domain=.tracker.net")
        issues = []
        assert detect_reset([self._finding()], index, issues=issues) == []
        assert [(i.code, i.detail) for i in issues] == [
            ("MISSING_NAME", "visit 'v1': Set-Cookie without a cookie name: '=novalue; Domain=.tracker.net'")
        ]


class TestDetectSync:
    def _finding(self, value, **kwargs):
        base = dict(
            key=CookieKey("id", "tracker.net"),
            value_at_send=value,
            sender_site="new.com",
            tracker_domain="tracker.net",
            stage=InteractionStage.BEFORE_INTERACTION,
            channel=Channel.RESOURCE_FETCH,
            visit_id="v1",
            event_index=1,
            canonical=True,
        )
        base.update(kwargs)
        return IntractableFinding(**base)

    def _index_with_redirect(self, url, target_host):
        events = _reject_visit_events()
        events.insert(
            2,
            HttpRequest(
                "v1",
                InteractionStage.BEFORE_INTERACTION,
                target_host,
                url,
                Channel.RESOURCE_FETCH,
                "",
                redirect_parent_url="https://cdn.tracker.net/px",
            ),
        )
        return parse_log_text(serialize(events))

    def test_sync_to_other_tracker(self):
        value = "AbCdEf123456"
        index = self._index_with_redirect(
            f"https://other-tracker.com/?uid={value}", "other-tracker.com"
        )
        syncs = detect_sync([self._finding(value)], index, RULES, TRACKERS)
        assert len(syncs) == 1
        sync = syncs[0]
        assert sync.origin_tracker == "tracker.net"
        assert sync.destination_tracker == "other-tracker.com"
        assert sync.parameter_name == "uid"

    def test_simple_values_excluded(self):
        index = self._index_with_redirect("https://other-tracker.com/?uid=true", "other-tracker.com")
        assert detect_sync([self._finding("true")], index, RULES, TRACKERS) == []

    def test_same_tracker_destination_excluded(self):
        value = "AbCdEf123456"
        index = self._index_with_redirect(f"https://a.tracker.net/?uid={value}", "a.tracker.net")
        assert detect_sync([self._finding(value)], index, RULES, TRACKERS) == []

    def test_non_redirect_requests_ignored(self):
        value = "AbCdEf123456"
        events = _reject_visit_events(header="")
        events.insert(
            2,
            HttpRequest(
                "v1",
                InteractionStage.BEFORE_INTERACTION,
                "other-tracker.com",
                f"https://other-tracker.com/?uid={value}",
                Channel.RESOURCE_FETCH,
                "",
            ),
        )
        index = parse_log_text(serialize(events))
        assert detect_sync([self._finding(value)], index, RULES, TRACKERS) == []

    def test_long_digit_values_still_sync(self):
        # Longer than ten characters is identifier-like even when numeric.
        value = "123456789012345"
        index = self._index_with_redirect(f"https://other-tracker.com/?x={value}", "other-tracker.com")
        assert len(detect_sync([self._finding(value)], index, RULES, TRACKERS)) == 1


    def test_repeat_sends_of_one_value_match_brute_force(self):
        """Many findings share one key and value; output equals a pairwise scan, order included."""

        def brute_force(findings, events):
            syncs = []
            for event in events:
                if not isinstance(event, HttpRequest) or event.redirect_parent_url is None:
                    continue
                try:
                    destination = etld_plus_one(event.target_host, RULES)
                except InputError:
                    continue
                if not is_tracker(event.target_host, TRACKERS):
                    continue
                for name, value in parse_qsl(urlsplit(event.target_url).query, keep_blank_values=True):
                    for f in findings:
                        if not (f.canonical and syncable_value(f.value_at_send) and f.value_at_send == value):
                            continue
                        if f.tracker_domain == destination:
                            continue
                        sync = SyncFinding(f.key, event.target_url, f.tracker_domain, destination, name)
                        if sync not in syncs:
                            syncs.append(sync)
            return syncs

        shared, other = "AbCdEf123456", "ZyXwVu987654"
        origins = [
            (CookieKey("id", "tracker.net"), "tracker.net"),
            (CookieKey("uid", "a.tracker.net"), "tracker.net"),
            (CookieKey("id", "other-tracker.com"), "other-tracker.com"),
        ]
        rng = random.Random(3)
        findings = []
        for i in range(300):
            key, domain = origins[0] if i < 200 else rng.choice(origins)
            findings.append(
                self._finding(
                    shared if rng.random() < 0.9 else other,
                    key=key,
                    tracker_domain=domain,
                    sender_site=f"s{i % 40}.com",
                    visit_id=f"v{i % 40}",
                    event_index=i,
                    canonical=rng.random() < 0.95,
                )
            )
        urls = [
            ("other-tracker.com", f"https://other-tracker.com/s?uid={shared}"),
            ("shop.com", f"https://shop.com/s?a={shared}&b={shared}&c={other}"),
            ("a.tracker.net", f"https://a.tracker.net/?x={shared}"),
            ("unlisted.com", f"https://unlisted.com/?x={shared}"),
            ("other-tracker.com", f"https://other-tracker.com/s?uid={shared}"),
            ("shop.com", f"https://shop.com/t?w={other}"),
        ]
        events = [
            HttpRequest(
                f"v{i}", InteractionStage.BEFORE_INTERACTION, host, url, Channel.RESOURCE_FETCH, "",
                redirect_parent_url="https://cdn.tracker.net/px",
            )
            for i, (host, url) in enumerate(urls)
        ]
        expected = brute_force(findings, events)
        assert len(expected) >= 8
        assert detect_sync(findings, index_run(events), RULES, TRACKERS) == expected


@pytest.mark.parametrize("value, syncable", [
    *((flag, False) for flag in ["YES", "NO", "true", "false", "0", "1"]),
    ("1234567890", False),
    ("12345678901", True),
    ("shortvalue", False),
    ("AbCdEf123456", True),
])
def test_syncable_value(value, syncable):
    assert syncable_value(value) is syncable
