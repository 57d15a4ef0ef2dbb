"""Detect cross-site transmission of jar cookies, cookie resets, and cookie syncing.

A finding is *canonical* when the cookie was sent before any banner
interaction on a visit whose banner was later successfully rejected; sends
matched at other stages (or on other visits) are kept for stage analysis
with ``canonical=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple
from urllib.parse import parse_qsl, urlsplit

from .crawllog import RunIndex, in_visit, parse_cookie_header, parse_set_cookie
from .errors import InputError, ParseIssue
from .filterlist import is_tracker
from .jar import CookieJar
from .model import Channel, CookieKey, InteractionStage, Phase, SiteId, VisitOutcome, label_suffixes
from .psl import PslRuleSet, etld_plus_one


def match_sent_to_jar(name: str, value: str, target_host: str, jar: CookieJar) -> CookieKey | None:
    """Find the jar entry a cookie sent to ``target_host`` came from, or None.

    Candidates share the cookie name, are not partitioned (partitioned
    entries never travel cross-site), and their host domain-matches the
    request target, that is, is one of its ``label_suffixes``: they are
    looked up in ``jar.entries`` by suffix, longest first, instead of
    scanning the jar.  Ties prefer an exact value match, then the longest host.
    """
    longest: CookieKey | None = None
    for host in label_suffixes(target_host):
        key = CookieKey(name, host, None)
        record = jar.entries.get(key)
        if record is None:
            continue
        if record.value == value:
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


def tracker_domain(
    host: str, rules: PslRuleSet, trackers: frozenset[str], memo: dict[str, SiteId | InputError | None]
) -> SiteId | InputError | None:
    """A listed host's tracker domain (its registrable domain), None for an unlisted host, or the PSL's error.

    The one tracker verdict, for ``detect`` and ``report`` alike, reached
    once per host and ``memo``, which keeps hosts in first-reached order.
    """
    if host not in memo:
        try:
            memo[host] = etld_plus_one(host, rules) if is_tracker(host, trackers) else None
        except InputError as exc:
            memo[host] = exc
    return memo[host]


def detect_intractable(
    jar: CookieJar,
    index: RunIndex,
    rules: PslRuleSet,
    trackers: frozenset[str],
    *,
    issues: list[ParseIssue],
    stats: DetectionStats,
) -> list[IntractableFinding]:
    """Match measure-phase sends against the jar and label each finding's stage.

    One walk of the run's requests: every Cookie header is split, in every
    phase, so each malformed pair is an issue naming its visit; each pair
    sent on a measure-phase visit is then decided.  Only tracking cookies
    (blocklist match on the jar host) yield findings; first- and third-party
    hosts alike.  Findings keep event order.  Each measure-phase pair lands
    in exactly one of ``stats``' ``unmatched_observations``,
    ``non_tracking_matches`` and ``psl_failures``, or in the findings.  After
    all the pair issues comes one PSL issue per cookie host that failed, in
    the order the hosts were first decided.
    """
    findings: list[IntractableFinding] = []
    verdicts: dict[str, SiteId | InputError | None] = {}
    visits = index.visits
    for event in index.requests:
        start = len(issues)
        pairs = parse_cookie_header(event.cookie_header, issues=issues)
        if len(issues) > start:
            in_visit(issues, start, event.visit_id)
        visit = visits[event.visit_id]
        if visit.phase is not Phase.STATELESS_MEASURE:
            continue
        stats.observations += len(pairs)
        canonical = visit.rejected_measurement and event.stage is InteractionStage.BEFORE_INTERACTION
        for name, value in pairs:
            key = match_sent_to_jar(name, value, event.target_host, jar)
            if key is None:
                stats.unmatched_observations += 1
                continue
            domain = tracker_domain(key.host, rules, trackers, verdicts)
            if domain is None:
                stats.non_tracking_matches += 1
            elif type(domain) is not str:
                stats.psl_failures += 1
            else:
                findings.append(
                    IntractableFinding(
                        key, value, visit.site, domain, event.stage, event.channel,
                        event.visit_id, event.event_index, canonical,
                    )
                )
    for host, verdict in verdicts.items():
        if isinstance(verdict, InputError):
            issues.append(ParseIssue(verdict.code, f"cookie host {host!r}: {verdict.message}"))
    return findings


def detect_reset(
    findings: Iterable[IntractableFinding], index: RunIndex, *, issues: list[ParseIssue]
) -> list[ResetFinding]:
    """Canonical findings whose key is re-set within the sender's own visit.

    Only the Set-Cookie headers of visits with a canonical finding are read;
    one that no cookie can be read from (``MISSING_NAME``, or a bad Domain's
    host code) is an issue naming its visit.
    """
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
        except InputError as exc:
            issues.append(ParseIssue(exc.code, exc.message))
            in_visit(issues, len(issues) - 1, event.visit_id)
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
    trackers: frozenset[str],
) -> list[SyncFinding]:
    """Identifier-looking cookie values reappearing in redirect URL parameters.

    A sync is recorded when a canonical finding's value shows up verbatim as
    a query-parameter value of a redirect target whose registrable domain is
    a different tracker.  Each redirect target host's verdict is reached once
    per call.
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
    destinations: dict[str, SiteId | InputError | None] = {}
    for event in index.requests:
        if event.redirect_parent_url is None:
            continue
        destination = tracker_domain(event.target_host, rules, trackers, destinations)
        if type(destination) is not str:
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

    def __init__(self, rules: PslRuleSet, trackers: frozenset[str]):
        self.rules = rules
        self.trackers = trackers

    def detect(self, jar: CookieJar, index: RunIndex) -> DetectionResult:
        stats = DetectionStats()
        issues: list[ParseIssue] = []
        for visit in index.visits.values():
            if visit.phase is not Phase.STATELESS_MEASURE:
                continue
            if visit.rejected_measurement:
                stats.rejected_visits += 1
            elif visit.in_reject_iteration and visit.outcome is VisitOutcome.INTERACTION_FAILED:
                stats.failed_rejections += 1
        findings = detect_intractable(jar, index, self.rules, self.trackers, issues=issues, stats=stats)
        resets = detect_reset(findings, index, issues=issues)
        syncs = detect_sync(findings, index, self.rules, self.trackers)
        return DetectionResult(findings=findings, resets=resets, syncs=syncs, stats=stats, issues=issues)
