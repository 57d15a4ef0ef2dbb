from __future__ import annotations

import csv
import dataclasses
import math
import random
import statistics
from collections import Counter
from pathlib import Path

from hypothesis import given, strategies as st

from cookietrail import reports
from cookietrail.analytics import (
    ExpiryBucket,
    PartitionedRow,
    SetterBucket,
    banner_type_report,
    ecdf,
    expiry_bucket,
    five_number_summary,
    gpc_report,
    partitioned_summary,
    rank_tier_averages,
    renewal_heatmap,
    setter_bucket,
    tracker_table,
)
from cookietrail.detector import IntractableFinding
from cookietrail.jar import CookieJar
from cookietrail.model import BannerType, Channel, CookieKey, InteractionStage
from cookietrail.psl import load_psl
from cookietrail.simulator import EcosystemConfig

from helpers import SIM_PSL, random_config, run_pipeline, write_report
from test_jar import make_record

DAY = 86400.0
DEMO = Path(__file__).parent.parent / "demo"
RULES = load_psl("com\nnet\n")


def finding(name="id", host="tracker.net", sender="s.com", value="x", *,
            tracker=None, stage=InteractionStage.BEFORE_INTERACTION,
            channel=Channel.RESOURCE_FETCH, canonical=True,
            visit_id=None, event_index=0) -> IntractableFinding:
    return IntractableFinding(
        key=CookieKey(name, host),
        value_at_send=value,
        sender_site=sender,
        tracker_domain=tracker or host,
        stage=stage,
        channel=channel,
        visit_id=visit_id or f"v-{sender}",
        event_index=event_index,
        canonical=canonical,
    )


def keys_of(findings) -> set[CookieKey]:
    return {f.key for f in findings}


def report_tables(directory: Path, inputs: reports.ReportInputs) -> dict[str, list[list[str]]]:
    """Write the report suite and read back each CSV's data rows, by file name."""
    manifest = write_report(directory, inputs)
    tables = {}
    for entry in manifest["files"]:
        with open(directory / entry["name"], encoding="utf-8", newline="") as handle:
            tables[entry["name"]] = list(csv.reader(handle))[1:]
    return tables


def hand_built_inputs(findings, jar) -> reports.ReportInputs:
    """Report inputs over hand-built findings: no visits, so no rejected sender sites."""
    return reports.ReportInputs(findings=findings, jar=jar, rules=RULES, trackers=frozenset(),
                                visits={}, tier_cutoffs=[10])


def pipeline_inputs(config, seed) -> tuple[reports.ReportInputs, list[str]]:
    """Report inputs over a simulated run, and the rejected sender sites the report counts on."""
    index, jar, result = run_pipeline(config, seed)
    visits = index.visits
    inputs = reports.ReportInputs(findings=result.findings, jar=jar, rules=SIM_PSL,
                                  trackers=frozenset(config.listed_tracker_domains()),
                                  visits=visits, tier_cutoffs=[5, max(site.rank for site in config.sites)])
    return inputs, reports._site_views(visits)[0]


def report_cases() -> list:
    """The demo at seed 7 and 30 random ecosystems, each with its seed."""
    demo = EcosystemConfig.from_json((DEMO / "ecosystem.json").read_text(encoding="utf-8"))
    return [(demo, 7)] + [(random_config(random.Random(seed)), seed) for seed in range(30)]


class TestEcdf:
    def test_examples(self):
        assert ecdf([0, 0, 1]) == [(0, 2 / 3), (1, 1.0)]
        assert ecdf([]) == []
        assert ecdf([5]) == [(5, 1.0)]

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60))
    def test_non_decreasing_and_terminal_one(self, values):
        points = ecdf(values)
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        xs = [x for x, _ in points]
        assert xs == sorted(set(xs))


class TestExpiryBucket:
    def test_session(self):
        assert expiry_bucket(None) is ExpiryBucket.SESSION

    def test_one_year_is_y1(self):
        # The most common lifetime, 365 days, lands in the one-year bucket.
        assert expiry_bucket(365 * DAY) is ExpiryBucket.Y1

    def test_boundaries(self):
        assert expiry_bucket(1 * DAY) is ExpiryBucket.D1
        assert expiry_bucket(1 * DAY + 1) is ExpiryBucket.D10
        assert expiry_bucket(10 * DAY) is ExpiryBucket.D10
        # The paper's "more than 10 days": one second past it leaves D10.
        assert expiry_bucket(10 * DAY + 1) is ExpiryBucket.M3
        assert expiry_bucket(90 * DAY) is ExpiryBucket.M3
        assert expiry_bucket(90 * DAY + 1) is ExpiryBucket.Y1
        assert expiry_bucket(365 * DAY + 1) is ExpiryBucket.OVER_Y1
        assert expiry_bucket(366 * DAY) is ExpiryBucket.OVER_Y1

    def test_setter_buckets(self):
        assert setter_bucket(1, 1000) is SetterBucket.EXACTLY_ONE
        assert setter_bucket(2, 10000) is SetterBucket.LE_0_1_PCT
        assert setter_bucket(2, 1000) is SetterBucket.LE_1_PCT
        assert setter_bucket(50, 1000) is SetterBucket.LE_10_PCT
        assert setter_bucket(500, 1000) is SetterBucket.GT_10_PCT


class TestRenewalHeatmap:
    def _jar(self):
        jar = CookieJar()
        for i, site in enumerate(["a.com"]):
            jar.mark_accepted(site)
        jar.upsert(make_record("once", "t.net", expiry=2 * 365 * DAY, setter="a.com"))
        return jar

    def test_set_once_over_y1_cell(self):
        jar = self._jar()
        cells = renewal_heatmap(jar, {CookieKey("once", "t.net")})
        nonzero = [c for c in cells if c.count]
        assert len(nonzero) == 1
        cell = nonzero[0]
        assert cell.expiry_bucket is ExpiryBucket.OVER_Y1
        assert cell.setter_bucket is SetterBucket.EXACTLY_ONE

    def test_percentage_bucketing(self):
        jar = CookieJar()
        for site in ("a.com", "b.com"):
            jar.upsert(make_record("id", "t.net", expiry=30 * DAY, setter=site))
        for i in range(1000):
            jar.mark_accepted(f"s{i}.com")
        cells = renewal_heatmap(jar, {CookieKey("id", "t.net")})
        nonzero = [c for c in cells if c.count]
        assert nonzero[0].setter_bucket is SetterBucket.LE_1_PCT  # 2 of the jar's 1000 accepted sites = 0.2%
        assert nonzero[0].expiry_bucket is ExpiryBucket.M3
        jar.accepted_sites = {"a.com", "b.com"}
        assert [c.setter_bucket for c in renewal_heatmap(jar, {CookieKey("id", "t.net")}) if c.count] == [
            SetterBucket.GT_10_PCT
        ]

    def test_conservation(self):
        jar = CookieJar()
        jar.mark_accepted("a.com")
        findings = []
        for i in range(7):
            jar.upsert(make_record(f"c{i}", "t.net", expiry=(i + 1) * 20 * DAY, setter="a.com", set_at=i))
            findings.append(finding(f"c{i}", "t.net"))
        cells = renewal_heatmap(jar, keys_of(findings))
        assert sum(c.count for c in cells) == len(keys_of(findings)) == 7
        assert len(cells) == len(ExpiryBucket) * len(SetterBucket)


class TestTrackerTable:
    def test_grouping_and_sort(self):
        findings = []
        # Tracker X: one unique cookie, 5 sends across 3 senders.
        for i, sender in enumerate(["s1.com", "s2.com", "s3.com", "s1.com", "s2.com"]):
            findings.append(finding("id", "x.net", sender=sender, event_index=i))
        # Tracker Y: 2 senders only.
        findings.append(finding("a", "y.net", sender="s1.com", event_index=10))
        findings.append(finding("b", "y.net", sender="s2.com", event_index=11))
        rows = tracker_table(findings)
        assert [r.tracker_domain for r in rows] == ["x.net", "y.net"]
        x = rows[0]
        assert (x.total_cookies, x.unique_cookies, x.senders) == (5, 1, 3)

    def test_sum_totals_equals_findings(self):
        findings = [finding("id", "x.net"), finding("id", "y.net"), finding("z", "x.net", event_index=1)]
        rows = tracker_table(findings)
        assert sum(r.total_cookies for r in rows) == len(findings)

    def test_empty(self):
        assert tracker_table([]) == []

    def test_tie_broken_by_domain(self):
        findings = [finding("a", "bbb.net", sender="s1.com"), finding("a", "aaa.net", sender="s2.com")]
        rows = tracker_table(findings)
        assert [r.tracker_domain for r in rows] == ["aaa.net", "bbb.net"]


class TestRankTiers:
    def test_avg_sent_counts_zero_sites(self):
        rows = rank_tier_averages(
            {"top.com": 4, "quiet.com": 0},
            set(),
            CookieJar(),
            [100],
            site_ranks={"top.com": 10, "quiet.com": 20},
        )
        assert rows[0].avg_sent == 2.0  # (4 + 0) / 2

    def test_empty_tier_flagged(self):
        rows = rank_tier_averages({}, set(), CookieJar(), [50], site_ranks={})
        assert rows[0].empty_tier and rows[0].avg_sent is None and rows[0].avg_set is None

    def test_avg_set_counts_history_writes(self):
        jar = CookieJar()
        jar.mark_accepted("setter.com")
        for i in range(5):
            jar.upsert(make_record(f"c{i}", "t.net", setter="setter.com", set_at=i))
        keys = {CookieKey(f"c{i}", "t.net") for i in range(4)}  # c4 was not sent intractably
        rows = rank_tier_averages({}, keys, jar, [100], site_ranks={"setter.com": 3})
        assert rows[0].avg_set == 4.0

    def test_cumulative_tiers(self):
        rows = rank_tier_averages(
            {"a.com": 1, "b.com": 0},
            {CookieKey("id", "t.net")},
            CookieJar(),
            [10, 100],
            site_ranks={"a.com": 50, "b.com": 5},
        )
        assert rows[0].avg_sent == 0.0  # only b.com within top 10
        assert rows[1].avg_sent == 0.5


class TestBannerTypeReport:
    def test_ratio_two_to_one(self):
        # Constructed 2:1 split; recounted by hand: CMP sites average 4,
        # native sites average 2.
        findings = []
        for i in range(4):
            findings.append(finding("id", "t.net", sender="cmp.com", event_index=i))
        for i in range(2):
            findings.append(finding("id", "t.net", sender="nat.com", event_index=10 + i))
        averages, _shares = banner_type_report(
            Counter(f.sender_site for f in findings),
            findings,
            keys_of(findings),
            CookieJar(),
            sender_banner_types={"cmp.com": BannerType.CMP, "nat.com": BannerType.NATIVE},
            paywall_setters=set(),
        )
        assert averages.ratio == 2.0

    def test_ratio_none_without_native(self):
        findings = [finding("id", "t.net", sender="cmp.com")]
        averages, _shares = banner_type_report(
            {"cmp.com": 1},
            findings,
            keys_of(findings),
            CookieJar(),
            sender_banner_types={"cmp.com": BannerType.CMP},
            paywall_setters=set(),
        )
        assert averages.ratio is None and averages.native_avg is None

    def test_equal_averages_ratio_one(self):
        findings = [
            finding("id", "t.net", sender="cmp.com"),
            finding("id", "t.net", sender="nat.com", event_index=1),
        ]
        averages, _shares = banner_type_report(
            {"cmp.com": 1, "nat.com": 1},
            findings,
            keys_of(findings),
            CookieJar(),
            sender_banner_types={"cmp.com": BannerType.CMP, "nat.com": BannerType.NATIVE},
            paywall_setters=set(),
        )
        assert averages.ratio == 1.0

    def test_paywall_share_by_threshold(self):
        findings = [
            finding("a", "t.net", sender="low.com"),
            finding("b", "t.net", sender="high.com", event_index=1),
            finding("c", "t.net", sender="high.com", event_index=2),
        ]
        jar = CookieJar()
        for name, setter in (("a", "pay.com"), ("b", "plain.com"), ("c", "plain.com")):
            jar.upsert(make_record(name, "t.net", setter=setter))
        _averages, shares = banner_type_report(
            {"low.com": 1, "high.com": 2},
            findings,
            keys_of(findings),
            jar,
            sender_banner_types={"low.com": BannerType.NATIVE, "high.com": BannerType.NATIVE},
            paywall_setters={"pay.com"},
        )
        by_threshold = {row.threshold: row for row in shares}
        assert by_threshold[1].paywall_share == 1.0  # only low.com (1 finding, paywall-set)
        assert by_threshold[1].site_fraction == 0.5
        assert by_threshold[2].paywall_share == 1 / 3

    def test_zero_send_threshold_has_no_share(self):
        _averages, shares = banner_type_report(
            {"quiet.com": 0},
            [],
            set(),
            CookieJar(),
            sender_banner_types={"quiet.com": BannerType.NATIVE},
            paywall_setters=set(),
        )
        assert shares[0].threshold == 0
        assert shares[0].paywall_share is None

    def test_paywall_shares_match_the_per_finding_intersection(self, tmp_path):
        """The demo and 50 random ecosystems: the report's shares are one setter-list intersection per finding."""
        demo = EcosystemConfig.from_json((DEMO / "ecosystem.json").read_text(encoding="utf-8"))
        cases = [(demo, 7)] + [(random_config(random.Random(seed)), seed) for seed in range(50)]
        with_paywall = 0
        for n, (config, seed) in enumerate(cases):
            inputs, rejected = pipeline_inputs(config, seed)
            paywall_setters = reports._site_views(inputs.visits)[3]
            rows = report_tables(tmp_path / str(n), inputs)["paywall_share.csv"]
            got = [(int(t), float(fraction), float(share) if share else None) for t, fraction, share in rows]
            assert got == _ref_paywall_shares(inputs.findings, inputs.jar, rejected, paywall_setters), n
            with_paywall += any(share for _t, _fraction, share in got)
        assert with_paywall >= 5, with_paywall


def _ref_paywall_shares(findings, jar, rejected_sites, paywall_setters) -> list[tuple]:
    """``banner_type_report``'s shares as computed when each finding carried its cookie's setter list."""
    canonical = [(f, jar.setters_of(f.key)) for f in findings if f.canonical]
    per_site = Counter(f.sender_site for f, _sites in canonical)
    shares = []
    for threshold in sorted({per_site[s] for s in rejected_sites}):
        covered = {s for s in rejected_sites if per_site[s] <= threshold}
        theirs = [sites for f, sites in canonical if f.sender_site in covered]
        with_paywall = sum(1 for sites in theirs if set(paywall_setters).intersection(sites))
        shares.append((threshold, len(covered) / len(rejected_sites), with_paywall / len(theirs) if theirs else None))
    return shares


class TestGpcReport:
    def test_identical_sets_no_reduction(self):
        baseline = [finding("id", "t.net", sender=f"s{i}.com", event_index=i) for i in range(4)]
        report = gpc_report(baseline, baseline, [])
        assert report.reduction_fraction == 0.0

    def test_gpc_empty_full_reduction(self):
        baseline = [finding("id", "t.net")]
        report = gpc_report(baseline, [], [])
        assert report.reduction_fraction == 1.0
        assert report.overlap_with_reloaded_reject is None

    def test_constructed_30_percent_drop(self):
        baseline = [finding(f"c{i}", "t.net", event_index=i) for i in range(10)]
        gpc = baseline[:7]
        report = gpc_report(baseline, gpc, [])
        assert math.isclose(report.reduction_fraction, 0.30)

    def test_overlap_on_unique_keys(self):
        gpc = [finding("a", "t.net"), finding("b", "t.net", event_index=1)]
        reloaded = [finding("a", "t.net", stage=InteractionStage.AFTER_RELOADED_REJECT, canonical=False)]
        report = gpc_report(gpc, gpc, reloaded)
        assert report.overlap_with_reloaded_reject == 0.5

    def test_empty_baseline_flagged(self):
        report = gpc_report([], [], [])
        assert report.empty_baseline and report.reduction_fraction == 0.0


class TestChannelSplit:
    """channel_split.csv: the shares of canonical findings sent by resource fetch and by script API call."""

    def _split(self, tmp_path, channels, staged=()) -> list[str]:
        jar = CookieJar()
        jar.upsert(make_record("id", "tracker.net"))
        findings = [finding(channel=channel, visit_id=f"v{i}", event_index=i) for i, channel in enumerate(channels)]
        findings += [
            finding(channel=channel, stage=InteractionStage.AFTER_REJECT, canonical=False, event_index=1000 + i)
            for i, channel in enumerate(staged)
        ]
        (row,) = report_tables(tmp_path, hand_built_inputs(findings, jar))["channel_split.csv"]
        return row

    def test_all_resource(self, tmp_path):
        assert self._split(tmp_path, [Channel.RESOURCE_FETCH] * 4) == ["1.0", "0.0", "false"]

    def test_empty(self, tmp_path):
        assert self._split(tmp_path / "none", []) == ["0.0", "0.0", "true"]
        assert self._split(tmp_path / "staged", [], staged=[Channel.API_CALL]) == ["0.0", "0.0", "true"]

    def test_73_27_mix(self, tmp_path):
        channels = [Channel.RESOURCE_FETCH] * 73 + [Channel.API_CALL] * 27
        resource, api, empty = self._split(tmp_path, channels, staged=[Channel.API_CALL] * 10)
        assert (round(float(resource), 2), round(float(api), 2), empty) == (0.73, 0.27, "false")
        assert float(resource) + float(api) == 1.0


class TestReportViews:
    """The views the report builds once: canonical findings, the per-sender tally and the key set."""

    # Tables of matched sends, which count staged findings too.
    ALL_SENDS = ("stage_counts.csv", "totals.csv")

    def test_staged_findings_never_reach_the_analytics_tables(self, tmp_path):
        staged_seen = 0
        for n, (config, seed) in enumerate(report_cases()):
            inputs, _rejected = pipeline_inputs(config, seed)
            canonical = [f for f in inputs.findings if f.canonical]
            staged_seen += len(inputs.findings) - len(canonical)
            every = report_tables(tmp_path / f"{n}-all", inputs)
            only = report_tables(tmp_path / f"{n}-canonical", dataclasses.replace(inputs, findings=canonical))
            assert every.keys() == only.keys()
            for name in every.keys() - set(self.ALL_SENDS):
                assert every[name] == only[name], (n, name)
            # Each findings input is filtered: staged signal-run findings do not count either.
            with_gpc = report_tables(tmp_path / f"{n}-gpc", dataclasses.replace(inputs, gpc_findings=inputs.findings))
            gpc_only = report_tables(tmp_path / f"{n}-gpc-canonical", dataclasses.replace(inputs, gpc_findings=canonical))
            assert with_gpc["gpc_report.csv"] == gpc_only["gpc_report.csv"], n
        assert staged_seen > 100, staged_seen

    def test_conservation_and_zero_send_sites(self, tmp_path):
        """Heatmap and tracker totals sum to the canonical views; every rejected site is tallied, sending or not."""
        zero_send_sites = 0
        for n, (config, seed) in enumerate(report_cases()):
            inputs, rejected = pipeline_inputs(config, seed)
            canonical = [f for f in inputs.findings if f.canonical]
            tables = report_tables(tmp_path / str(n), inputs)
            assert sum(int(count) for *_cell, count in tables["expiry_renewal_heatmap.csv"]) == len(keys_of(canonical))
            assert sum(int(row[1]) for row in tables["tracker_table.csv"]) == len(canonical)
            sent = Counter(f.sender_site for f in canonical)
            tally = [sent[site] for site in rejected]
            zero_send_sites += tally.count(0)
            summary = {row[0]: row for row in tables["summary_stats.csv"]}
            if rejected:
                assert int(summary["findings_per_rejected_site"][1]) == len(rejected)
            *_, widest = tables["rank_tiers.csv"]
            cutoff, avg_sent, _avg_set, sent_sites, *_ = widest
            assert int(sent_sites) == len(rejected), n
            assert (float(avg_sent) if avg_sent else None) == (statistics.fmean(tally) if tally else None), n
        assert zero_send_sites >= 10, zero_send_sites


class TestPartitionedSummary:
    def test_partitioned_with_np_sibling(self):
        trackers = frozenset({"t.net"})
        jar = CookieJar()
        jar.upsert(make_record("id_p", "t.net", partition="a.com"))
        jar.upsert(make_record("id", "t.net", set_at=1))
        every, tracking = partitioned_summary(jar, trackers, RULES)
        assert every.total_unique == 2
        assert every.partitioned == 1
        assert tracking.total_unique == 2
        assert tracking.partitioned == 1
        assert tracking.along_with_np == 1

    def test_no_partitioned(self):
        trackers = frozenset({"t.net"})
        jar = CookieJar()
        jar.upsert(make_record("id", "t.net"))
        jar.upsert(make_record("x", "benign.com", set_at=1))
        assert partitioned_summary(jar, trackers, RULES) == [
            PartitionedRow("all", 2, 0, None),
            PartitionedRow("tracking", 1, 0, 0),
        ]

    def test_same_key_both_ways_counts_once_per_group(self):
        trackers = frozenset({"t.net"})
        jar = CookieJar()
        jar.upsert(make_record("id", "t.net", partition="a.com"))
        jar.upsert(make_record("id", "t.net", set_at=1))
        every, tracking = partitioned_summary(jar, trackers, RULES)
        assert every.total_unique == 1
        assert every.partitioned == 1
        assert tracking.along_with_np == 1

    def test_np_from_different_tracker_does_not_count(self):
        trackers = frozenset({"t.net", "u.net"})
        jar = CookieJar()
        jar.upsert(make_record("id", "t.net", partition="a.com"))
        jar.upsert(make_record("other", "u.net", set_at=1))
        _every, tracking = partitioned_summary(jar, trackers, RULES)
        assert tracking.along_with_np == 0

    def test_listed_host_without_registrable_domain(self):
        """A listed host that is itself a suffix rule is tracking but shares no registrable domain with a sibling;
        its subdomains keep theirs."""
        rules = load_psl("com\nnet\nt.net\n")
        jar = CookieJar()
        jar.upsert(make_record("id_p", "t.net", partition="a.com"))
        jar.upsert(make_record("id", "t.net", set_at=1))
        jar.upsert(make_record("y", "a.t.net", partition="a.com", set_at=2))
        jar.upsert(make_record("z", "b.a.t.net", set_at=3))
        jar.upsert(make_record("x", "benign.com", set_at=4))
        assert partitioned_summary(jar, frozenset({"t.net"}), rules) == [
            PartitionedRow("all", 5, 2, None),
            PartitionedRow("tracking", 4, 2, 1),
        ]


def test_five_number_summary():
    summary = five_number_summary([1, 2, 3, 4, 5])
    assert (summary.min, summary.median, summary.max) == (1, 3, 5)
    assert summary.mean == 3.0
    assert five_number_summary([]) is None
    assert five_number_summary([3.0]) == (1, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0)
