"""Detect cross-site transmission of jar cookies, cookie resets, and cookie syncing.

A finding is *canonical* when the cookie was sent before any banner
interaction on a visit whose banner was later successfully rejected; sends
matched at other stages (or on other visits) are kept for stage analysis
with ``canonical=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple
from urllib.parse import parse_qsl, urlsplit

from .crawllog import RunIndex, SentCookieObservation, VisitSummary, extract_sent, parse_set_cookie
from .errors import InputError, ParseIssue
from .filterlist import TrackerDomainSet, is_tracker
from .jar import CookieJar
from .model import Channel, CookieKey, InteractionStage, Phase, SiteId, VisitOutcome
from .psl import PslRuleSet, etld_plus_one


def match_sent_to_jar(obs: SentCookieObservation, jar: CookieJar) -> CookieKey | None:
    """Find the jar entry a sent cookie came from, or None.

    Candidates share the cookie name, are not partitioned (partitioned
    entries never travel cross-site), and their host domain-matches the
    request target.  The hosts that domain-match a target are exactly its
    label suffixes (``a.b.c``, ``b.c``, ``c``), so candidates are looked up
    in ``jar.entries`` by suffix, longest first, instead of scanning the jar.
    Ties prefer an exact value match, then the longest host.
    """
    labels = obs.target_host.split(".")
    longest: CookieKey | None = None
    for i in range(len(labels)):
        key = CookieKey(obs.name, ".".join(labels[i:]), None)
        record = jar.entries.get(key)
        if record is None:
            continue
        if record.value == obs.value:
            return key
        if longest is None:
            longest = key
    return longest


class IntractableFinding(NamedTuple):
    """One matched (jar entry, transmission) pair.

    The sites that set the cookie are the jar's: ``CookieJar.setters_of(key)``.
    """

    key: CookieKey
    value_at_send: str
    sender_site: SiteId
    tracker_domain: SiteId
    stage: InteractionStage
    channel: Channel
    visit_id: str
    event_index: int
    canonical: bool


class ResetFinding(NamedTuple):
    key: CookieKey
    sender_site: SiteId
    event_index: int


class SyncFinding(NamedTuple):
    source_key: CookieKey
    carrying_url: str
    origin_tracker: SiteId
    destination_tracker: SiteId
    parameter_name: str


@dataclass
class DetectionStats:
    visits: int = 0
    rejected_visits: int = 0
    failed_rejections: int = 0
    observations: int = 0
    unmatched_observations: int = 0
    non_tracking_matches: int = 0
    psl_failures: int = 0  # tracking matches whose cookie host has no registrable domain


@dataclass
class DetectionResult:
    findings: list[IntractableFinding]
    resets: list[ResetFinding]
    syncs: list[SyncFinding]
    stats: DetectionStats
    issues: list[ParseIssue] = field(default_factory=list)

    @property
    def canonical_findings(self) -> list[IntractableFinding]:
        return [f for f in self.findings if f.canonical]


def detect_intractable(
    jar: CookieJar,
    observations: Iterable[SentCookieObservation],
    visits: Mapping[str, VisitSummary],
    rules: PslRuleSet,
    trackers: TrackerDomainSet,
    *,
    issues: list[ParseIssue],
    stats: DetectionStats,
) -> list[IntractableFinding]:
    """Match measure-phase sends against the jar and label each finding's stage.

    Only tracking cookies (blocklist match on the jar host) yield findings;
    first- and third-party hosts alike.  Findings keep event order, so the
    output is deterministic however the observations were produced.  Each
    measure-phase observation lands in exactly one of ``stats``'
    ``unmatched_observations``, ``non_tracking_matches`` and ``psl_failures``,
    or in the findings.

    Each cookie host's verdict (not a tracker, its tracker domain, or the PSL
    error) is reached once per call and reused for every later send.
    """
    findings: list[IntractableFinding] = []
    verdicts: dict[str, SiteId | InputError | None] = {}  # cookie host -> tracker domain, None if not a tracker
    for obs in observations:
        visit = visits[obs.visit_id]
        if visit.phase is not Phase.STATELESS_MEASURE:
            continue
        stats.observations += 1
        key = match_sent_to_jar(obs, jar)
        if key is None:
            stats.unmatched_observations += 1
            continue
        host = key.host
        if host in verdicts:
            tracker_domain = verdicts[host]
        elif not is_tracker(host, trackers):
            tracker_domain = verdicts[host] = None
        else:
            try:
                tracker_domain = etld_plus_one(host, rules)
            except InputError as exc:
                tracker_domain = exc
            verdicts[host] = tracker_domain
        if tracker_domain is None:
            stats.non_tracking_matches += 1
            continue
        if type(tracker_domain) is not str:
            stats.psl_failures += 1
            issues.append(ParseIssue(tracker_domain.code, f"cookie host {host!r}: {tracker_domain.message}"))
            continue
        findings.append(
            IntractableFinding(
                key=key,
                value_at_send=obs.value,
                sender_site=obs.sender_site,
                tracker_domain=tracker_domain,
                stage=obs.stage,
                channel=obs.channel,
                visit_id=obs.visit_id,
                event_index=obs.event_index,
                canonical=visit.rejected_measurement and obs.stage is InteractionStage.BEFORE_INTERACTION,
            )
        )
    return findings


def detect_reset(findings: Iterable[IntractableFinding], index: RunIndex) -> list[ResetFinding]:
    """Canonical findings whose key is re-set within the sender's own visit."""
    per_visit_keys: dict[str, dict[CookieKey, SiteId]] = {}
    for finding in findings:
        if finding.canonical:
            per_visit_keys.setdefault(finding.visit_id, {})[finding.key] = finding.sender_site
    resets: list[ResetFinding] = []
    for event in index.cookie_sets:
        keys = per_visit_keys.get(event.visit_id)
        if not keys:
            continue
        try:
            fragment = parse_set_cookie(event.set_cookie_header, event.setter_context_host)
        except InputError:
            continue
        set_key = CookieKey(fragment.name, fragment.host, None)
        if fragment.partitioned or set_key not in keys:
            continue
        resets.append(ResetFinding(set_key, keys[set_key], event.event_index))
    return resets


def syncable_value(value: str) -> bool:
    # Longer than 10 characters: this length alone rules out flags
    # (YES, true, 0, ...) and numbers of up to 10 digits.
    return len(value) > 10


def detect_sync(
    findings: Iterable[IntractableFinding],
    index: RunIndex,
    rules: PslRuleSet,
    trackers: TrackerDomainSet,
) -> list[SyncFinding]:
    """Identifier-looking cookie values reappearing in redirect URL parameters.

    A sync is recorded when a canonical finding's value shows up verbatim as
    a query-parameter value of a redirect target whose registrable domain is
    a different tracker.  Each redirect target host's destination (its
    tracker domain, or None) is reached once per call.
    """
    # value -> distinct (key, tracker domain) in first-seen order: the only
    # finding fields a sync carries, so repeat sends of one cookie collapse.
    by_value: dict[str, dict[tuple[CookieKey, SiteId], None]] = {}
    for finding in findings:
        if finding.canonical and syncable_value(finding.value_at_send):
            pairs = by_value.setdefault(finding.value_at_send, {})
            pairs.setdefault((finding.key, finding.tracker_domain), None)
    if not by_value:
        return []
    syncs: list[SyncFinding] = []
    seen: set[SyncFinding] = set()
    destinations: dict[str, SiteId | None] = {}  # target host -> its tracker domain, None if not a tracker
    for event in index.requests:
        if event.redirect_parent_url is None:
            continue
        host = event.target_host
        if host in destinations:
            destination = destinations[host]
        else:
            try:
                destination = etld_plus_one(host, rules)
            except InputError:
                destination = None
            if destination is not None and not is_tracker(host, trackers):
                destination = None
            destinations[host] = destination
        if destination is None:
            continue
        params = parse_qsl(urlsplit(event.target_url).query, keep_blank_values=True)
        for name, value in params:
            for key, origin in by_value.get(value, ()):
                if destination == origin:
                    continue
                sync = SyncFinding(
                    source_key=key,
                    carrying_url=event.target_url,
                    origin_tracker=origin,
                    destination_tracker=destination,
                    parameter_name=name,
                )
                if sync not in seen:
                    seen.add(sync)
                    syncs.append(sync)
    return syncs


class Detector:
    """Bundles the rule inputs and runs the full detection pass over a log."""

    def __init__(self, rules: PslRuleSet, trackers: TrackerDomainSet):
        self.rules = rules
        self.trackers = trackers

    def detect(self, jar: CookieJar, index: RunIndex) -> DetectionResult:
        stats = DetectionStats()
        issues: list[ParseIssue] = []
        for visit in index.visits.values():
            if visit.phase is not Phase.STATELESS_MEASURE:
                continue
            stats.visits += 1
            if visit.rejected_measurement:
                stats.rejected_visits += 1
            elif visit.in_reject_iteration and visit.outcome is VisitOutcome.INTERACTION_FAILED:
                stats.failed_rejections += 1
        observations = extract_sent(index, issues=issues)
        findings = detect_intractable(
            jar, observations, index.visits, self.rules, self.trackers, issues=issues, stats=stats
        )
        resets = detect_reset(findings, index)
        syncs = detect_sync(findings, index, self.rules, self.trackers)
        return DetectionResult(findings=findings, resets=resets, syncs=syncs, stats=stats, issues=issues)
