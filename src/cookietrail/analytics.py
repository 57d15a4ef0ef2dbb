"""Aggregate findings into report tables and figure datasets.

All reports are deterministic functions of their inputs.  Unless a report
says otherwise, "unique" means grouped by cookie (name, host), averages are
means, and five-number summaries accompany any mean that summarizes a
per-site distribution.  Each row type is a ``NamedTuple`` whose fields are
its CSV's columns, in order, so ``reports.write_report_suite`` writes rows as
they come.

The reports take the views of the findings that ``reports.write_report_suite``
builds once: the canonical findings, the per-sender tally (canonical findings
per rejected sender site, zero-send sites included, so its keys are the
rejected sites) and the set of unique canonical cookie keys.
"""

from __future__ import annotations

import enum
import statistics
from collections import Counter, defaultdict
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .detector import IntractableFinding, tracker_domain
from .jar import CookieJar
from .model import BannerType, CookieKey, SiteId
from .psl import PslRuleSet

DAY = 86400.0


class ExpiryBucket(enum.Enum):
    SESSION = "SESSION"
    D1 = "D1"  # <= 1 day
    D10 = "D10"  # (1 day, 10 days]
    M3 = "M3"  # (10 days, 90 days]
    Y1 = "Y1"  # (90 days, 365 days]
    OVER_Y1 = "OVER_Y1"  # > 365 days


class SetterBucket(enum.Enum):
    EXACTLY_ONE = "EXACTLY_ONE"
    LE_0_1_PCT = "LE_0_1_PCT"
    LE_1_PCT = "LE_1_PCT"
    LE_10_PCT = "LE_10_PCT"
    GT_10_PCT = "GT_10_PCT"


def expiry_bucket(original_expiry: float | None) -> ExpiryBucket:
    """Bucket a lifetime (seconds; None for session cookies)."""
    if original_expiry is None:
        return ExpiryBucket.SESSION
    if original_expiry <= 1 * DAY:
        return ExpiryBucket.D1
    if original_expiry <= 10 * DAY:
        return ExpiryBucket.D10
    if original_expiry <= 90 * DAY:
        return ExpiryBucket.M3
    if original_expiry <= 365 * DAY:
        return ExpiryBucket.Y1
    return ExpiryBucket.OVER_Y1


def setter_bucket(setter_count: int, accepted_count: int) -> SetterBucket:
    """Bucket a renewal count: set-once is its own row, the rest by share of accepted sites."""
    if setter_count <= 1:
        return SetterBucket.EXACTLY_ONE
    pct = 100.0 * setter_count / accepted_count if accepted_count else 100.0
    if pct <= 0.1:
        return SetterBucket.LE_0_1_PCT
    if pct <= 1.0:
        return SetterBucket.LE_1_PCT
    if pct <= 10.0:
        return SetterBucket.LE_10_PCT
    return SetterBucket.GT_10_PCT


def ecdf(values: Iterable[float]) -> list[tuple[float, float]]:
    """Step points of the empirical CDF; the last fraction is exactly 1."""
    ordered = sorted(values)
    total = len(ordered)
    if total == 0:
        return []
    points: list[tuple[float, float]] = []
    seen = 0
    for i, x in enumerate(ordered):
        seen += 1
        if i + 1 == total or ordered[i + 1] != x:
            points.append((x, seen / total))
    return points


class FiveNumberSummary(NamedTuple):
    count: int
    mean: float
    min: float
    q1: float
    median: float
    q3: float
    max: float


def five_number_summary(values: Sequence[float]) -> FiveNumberSummary | None:
    if not values:
        return None
    ordered = sorted(values)
    if len(ordered) == 1:
        x = ordered[0]
        return FiveNumberSummary(1, x, x, x, x, x, x)
    q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return FiveNumberSummary(
        len(ordered), statistics.fmean(ordered), ordered[0], q1, median, q3, ordered[-1]
    )


# --- expiry / renewal heatmap ------------------------------------------------


class HeatmapCell(NamedTuple):
    expiry_bucket: ExpiryBucket
    setter_bucket: SetterBucket
    count: int


def renewal_heatmap(jar: CookieJar, keys: Collection[CookieKey]) -> list[HeatmapCell]:
    """Unique intractable cookies by lifetime and by how many sites set them.

    Setter counts are bucketed by their share of the jar's accepted sites.
    Emits the full grid (zero cells included); cell counts sum to
    ``len(keys)``.
    """
    counts: Counter[tuple[ExpiryBucket, SetterBucket]] = Counter()
    for key in keys:
        record = jar.entries[key]
        cell = (
            expiry_bucket(record.original_expiry),
            setter_bucket(len(jar.setters_of(key)), len(jar.accepted_sites)),
        )
        counts[cell] += 1
    return [
        HeatmapCell(eb, sb, counts.get((eb, sb), 0))
        for eb in ExpiryBucket
        for sb in SetterBucket
    ]


# --- tracker table ------------------------------------------------------------


class TrackerRow(NamedTuple):
    tracker_domain: SiteId
    total_cookies: int
    unique_cookies: int
    senders: int


def tracker_table(canonical: Iterable[IntractableFinding]) -> list[TrackerRow]:
    """Per-tracker totals over the canonical findings, sorted by sender count."""
    total: Counter[SiteId] = Counter()
    uniques: dict[SiteId, set[tuple[str, str]]] = defaultdict(set)
    senders: dict[SiteId, set[SiteId]] = defaultdict(set)
    for f in canonical:
        total[f.tracker_domain] += 1
        uniques[f.tracker_domain].add((f.key.name, f.key.host))
        senders[f.tracker_domain].add(f.sender_site)
    rows = [
        TrackerRow(domain, total[domain], len(uniques[domain]), len(senders[domain]))
        for domain in total
    ]
    rows.sort(key=lambda r: (-r.senders, r.tracker_domain))
    return rows


# --- rank tiers ----------------------------------------------------------------


class RankTierRow(NamedTuple):
    cutoff: int
    avg_sent: float | None
    avg_set: float | None
    sent_sites: int
    set_sites: int
    empty_tier: bool  # no rejected and no accepted site within the cutoff


def rank_tier_averages(
    per_sender: Mapping[SiteId, int],
    keys: Collection[CookieKey],
    jar: CookieJar,
    tiers: Sequence[int],
    *,
    site_ranks: Mapping[SiteId, int],
) -> list[RankTierRow]:
    """Average cookies sent per rejected site and set per accepted site, per top-N tier.

    ``avg_sent`` averages the per-sender tally over rejected sites whose rank
    is within the cutoff; ``avg_set`` averages intractable-cookie writes (jar
    history rows for ``keys``) over accepted sites in the cutoff.
    """
    set_per_site: Counter[SiteId] = Counter()
    for row in jar.history:
        if not row.deleted and row.key in keys:
            set_per_site[row.setter_site] += 1
    rows = []
    for cutoff in tiers:
        senders = [s for s in per_sender if s in site_ranks and site_ranks[s] <= cutoff]
        setters = [s for s in jar.accepted_sites if s in site_ranks and site_ranks[s] <= cutoff]
        avg_sent = statistics.fmean(per_sender[s] for s in senders) if senders else None
        avg_set = statistics.fmean(set_per_site[s] for s in setters) if setters else None
        empty = not senders and not setters
        rows.append(RankTierRow(cutoff, avg_sent, avg_set, len(senders), len(setters), empty))
    return rows


# --- banner types ---------------------------------------------------------------


class BannerTypeAverages(NamedTuple):
    cmp_avg: float | None
    native_avg: float | None
    ratio: float | None  # None when either average is unavailable or native is 0
    cmp_sites: int
    native_sites: int


class PaywallShareRow(NamedTuple):
    threshold: int  # sites sending <= threshold canonical findings
    site_fraction: float
    paywall_share: float | None  # None when those sites sent nothing


def banner_type_report(
    per_sender: Mapping[SiteId, int],
    canonical: Iterable[IntractableFinding],
    keys: Collection[CookieKey],
    jar: CookieJar,
    *,
    sender_banner_types: Mapping[SiteId, BannerType],
    paywall_setters: Collection[SiteId],
) -> tuple[BannerTypeAverages, list[PaywallShareRow]]:
    """Compare cookie volume across banner types of the rejected sender sites.

    Returns the CMP and native averages, and the paywall shares: for each
    distinct per-site finding count k, among the rejected sites sending at
    most k cookies, the fraction of their findings whose cookie the jar
    records as set (at least once) by a site with a cookie-paywall banner.
    """
    cmp_counts = [n for s, n in per_sender.items() if sender_banner_types.get(s) is BannerType.CMP]
    native_counts = [n for s, n in per_sender.items() if sender_banner_types.get(s) is BannerType.NATIVE]
    cmp_avg = statistics.fmean(cmp_counts) if cmp_counts else None
    native_avg = statistics.fmean(native_counts) if native_counts else None
    ratio = None
    if cmp_avg is not None and native_avg is not None and native_avg > 0:
        ratio = cmp_avg / native_avg

    paywall_setters = set(paywall_setters)
    paywalled = {key for key in keys if not paywall_setters.isdisjoint(jar.setters_of(key))}
    paywall_per_site = Counter(f.sender_site for f in canonical if f.key in paywalled)
    at_count: dict[int, list[int]] = {}  # per-site finding count -> [its sites, their paywall-set findings]
    for s, n in per_sender.items():
        tally = at_count.setdefault(n, [0, 0])
        tally[0] += 1
        tally[1] += paywall_per_site[s]
    shares: list[PaywallShareRow] = []
    covered = sent = with_paywall = 0  # over the sites sending at most the threshold
    for threshold in sorted(at_count):
        sites, paywall_set = at_count[threshold]
        covered += sites
        sent += threshold * sites
        with_paywall += paywall_set
        share = with_paywall / sent if sent else None
        shares.append(PaywallShareRow(threshold, covered / len(per_sender), share))
    return BannerTypeAverages(cmp_avg, native_avg, ratio, len(cmp_counts), len(native_counts)), shares


# --- GPC -------------------------------------------------------------------------


class GpcReport(NamedTuple):
    reduction_fraction: float
    overlap_with_reloaded_reject: float | None
    empty_baseline: bool = False


def _unique_keys(findings: Iterable[IntractableFinding]) -> set[tuple[str, str]]:
    return {(f.key.name, f.key.host) for f in findings}


def gpc_report(
    baseline: Sequence[IntractableFinding],
    gpc: Sequence[IntractableFinding],
    reloaded_reject_findings: Iterable[IntractableFinding],
) -> GpcReport:
    """Reduction from enabling the do-not-share signal, plus reload overlap.

    Reduction compares the canonical finding counts of a matched baseline
    run and the signal-enabled run (``baseline`` and ``gpc`` hold canonical
    findings only); overlap is on unique keys between the signal run and
    the baseline's after-reload sends.
    """
    if not baseline:
        return GpcReport(0.0, None, empty_baseline=True)
    reduction = 1.0 - len(gpc) / len(baseline)
    gpc_keys = _unique_keys(gpc)
    overlap = None
    if gpc_keys:
        overlap = len(gpc_keys & _unique_keys(reloaded_reject_findings)) / len(gpc_keys)
    return GpcReport(reduction, overlap)


# --- partitioned cookies -----------------------------------------------------------


class PartitionedRow(NamedTuple):
    cookie_type: str  # "all" or "tracking"
    total_unique: int
    partitioned: int
    along_with_np: int | None  # counted for tracking cookies only


def partitioned_summary(
    jar: CookieJar,
    trackers: frozenset[str],
    rules: PslRuleSet,
) -> list[PartitionedRow]:
    """Unique-cookie counts by partitioned status: all cookies, then tracking cookies.

    ``along_with_np`` counts partitioned tracking cookies accompanied by a
    non-partitioned tracking cookie from the same registrable domain.  A
    listed host without one (``detector.tracker_domain``'s error) is
    tracking but has no such sibling.
    """
    verdicts: dict[str, SiteId | Exception | None] = {}
    groups: dict[tuple[str, str], bool] = {}
    np_tracking_domains: set[SiteId] = set()
    for key in jar.entries:
        group = (key.name, key.host)
        partitioned = key.partition is not None
        groups[group] = groups.get(group, False) or partitioned
        if not partitioned:
            domain = tracker_domain(key.host, rules, trackers, verdicts)
            if type(domain) is str:
                np_tracking_domains.add(domain)
    partitioned_count = sum(1 for flagged in groups.values() if flagged)
    tracking_groups = {
        g: flagged for g, flagged in groups.items() if tracker_domain(g[1], rules, trackers, verdicts) is not None
    }
    tracking_partitioned = [g for g, flagged in tracking_groups.items() if flagged]
    along = sum(1 for _, host in tracking_partitioned if verdicts[host] in np_tracking_domains)
    return [
        PartitionedRow("all", len(groups), partitioned_count, None),
        PartitionedRow("tracking", len(tracking_groups), len(tracking_partitioned), along),
    ]
