"""Crawl-log wire format: event types, NDJSON parsing/serialization, cookie headers.

A log is newline-delimited JSON, one record per line, preceded by a header
record ``{"format_version": 1}``.  Events for one visit must appear as
``VISIT_START, (BANNER_OBSERVED)?, interleaved HTTP_REQUEST / COOKIE_SET /
INTERACTION, VISIT_END``.  The stage of a request or cookie-set event must
equal the stage established by the most recent interaction (initially
``BEFORE_INTERACTION``), so stages are non-decreasing by construction.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass, fields
from email.utils import parsedate_to_datetime
from typing import Iterable
from urllib.parse import urlsplit

from .errors import InputError, InvariantError, ParseIssue
from .model import (
    CRAWL_EPOCH,
    BannerButton,
    BannerDescriptor,
    BannerLayer,
    BannerToggle,
    BannerType,
    ButtonAction,
    Channel,
    CookieKey,
    CookieRecord,
    InteractionAction,
    InteractionStage,
    Iteration,
    Phase,
    SiteId,
    VisitOutcome,
    canonicalize_host,
    consent_state_for_stage,
)

FORMAT_VERSION = 1

# The stage each interaction action transitions a visit into.
_ACTION_STAGE = {
    InteractionAction.ACCEPT_CLICKED: InteractionStage.AFTER_ACCEPT,
    InteractionAction.REJECT_CLICKED: InteractionStage.AFTER_REJECT,
    InteractionAction.RELOAD: InteractionStage.AFTER_RELOADED_REJECT,
}


@dataclass(frozen=True)
class VisitStart:
    visit_id: str
    site: SiteId
    rank: int
    phase: Phase
    iteration: Iteration
    gpc_enabled: bool
    event_index: int = -1


@dataclass(frozen=True)
class BannerObserved:
    visit_id: str
    banner: BannerDescriptor
    event_index: int = -1


@dataclass(frozen=True)
class Interaction:
    visit_id: str
    action: InteractionAction
    resulting_stage: InteractionStage
    event_index: int = -1


@dataclass(frozen=True)
class HttpRequest:
    visit_id: str
    stage: InteractionStage
    target_host: str
    target_url: str
    channel: Channel
    cookie_header: str
    redirect_parent_url: str | None = None
    event_index: int = -1


@dataclass(frozen=True)
class CookieSet:
    visit_id: str
    stage: InteractionStage
    set_cookie_header: str
    setter_context_host: str
    event_index: int = -1


@dataclass(frozen=True)
class VisitEnd:
    visit_id: str
    outcome: VisitOutcome
    event_index: int = -1


CrawlEvent = VisitStart | BannerObserved | Interaction | HttpRequest | CookieSet | VisitEnd

_KINDS = {
    "VISIT_START": VisitStart,
    "BANNER_OBSERVED": BannerObserved,
    "INTERACTION": Interaction,
    "HTTP_REQUEST": HttpRequest,
    "COOKIE_SET": CookieSet,
    "VISIT_END": VisitEnd,
}
_KIND_NAMES = {cls: name for name, cls in _KINDS.items()}


@dataclass(frozen=True)
class SentCookieObservation:
    """One cookie name/value pair observed in an outgoing request."""

    name: str
    value: str
    target_host: str
    sender_site: SiteId
    stage: InteractionStage
    channel: Channel
    visit_id: str
    event_index: int


@dataclass(frozen=True)
class SetCookieFragment:
    """The pieces of a Set-Cookie header the pipeline cares about."""

    name: str
    value: str
    host: str
    original_expiry: float | None  # None is a session cookie
    partitioned: bool


@dataclass(frozen=True)
class VisitSummary:
    visit_id: str
    site: SiteId
    rank: int
    phase: Phase
    iteration: Iteration
    gpc_enabled: bool
    banner_type: BannerType
    outcome: VisitOutcome


# --- banner serialization -------------------------------------------------


def banner_to_obj(banner: BannerDescriptor) -> dict:
    return {
        "banner_type": banner.banner_type.value,
        "layers": [
            {
                "buttons": [[b.label, b.action.value] for b in layer.buttons],
                "toggles": [[t.category, t.preselected, t.essential] for t in layer.toggles],
            }
            for layer in banner.layers
        ],
    }


def banner_from_obj(obj: dict) -> BannerDescriptor:
    layers = tuple(
        BannerLayer(
            buttons=tuple(BannerButton(lbl, ButtonAction(act)) for lbl, act in layer.get("buttons", [])),
            toggles=tuple(BannerToggle(cat, bool(pre), bool(ess)) for cat, pre, ess in layer.get("toggles", [])),
        )
        for layer in obj.get("layers", [])
    )
    return BannerDescriptor(BannerType(obj["banner_type"]), layers)


# --- event <-> record -----------------------------------------------------


def event_to_record(event: CrawlEvent) -> dict:
    record: dict = {"kind": _KIND_NAMES[type(event)]}
    for f in fields(event):
        if f.name == "event_index":
            continue
        value = getattr(event, f.name)
        if f.name == "banner":
            value = banner_to_obj(value)
        elif isinstance(value, enum.Enum):
            value = value.name
        record[f.name] = value
    return record


def _require(obj: dict, key: str, lineno: int):
    if key not in obj or obj[key] is None:
        raise InputError("MALFORMED_RECORD", f"line {lineno}: missing field {key!r}")
    return obj[key]


def _str_field(obj: dict, key: str, lineno: int) -> str:
    raw = _require(obj, key, lineno)
    if not isinstance(raw, str):
        raise InputError("MALFORMED_RECORD", f"line {lineno}: {key} must be a string")
    return raw


def _enum_field(enum_cls, obj: dict, key: str, lineno: int):
    raw = _require(obj, key, lineno)
    try:
        return enum_cls[raw]
    except (KeyError, TypeError):
        raise InputError("MALFORMED_RECORD", f"line {lineno}: bad {key} value {raw!r}") from None


def _url_field(value, key: str, lineno: int) -> str:
    """A URL field: a string that ``urlsplit`` accepts, as detection splits it."""
    if not isinstance(value, str):
        raise InputError("MALFORMED_RECORD", f"line {lineno}: {key} must be a string")
    try:
        urlsplit(value)
    except ValueError as exc:
        raise InputError("UNPARSABLE_URL", f"line {lineno}: bad {key} {value!r} ({exc})") from None
    return value


def record_to_event(obj: dict, lineno: int, event_index: int) -> CrawlEvent:
    kind = _require(obj, "kind", lineno)
    cls = _KINDS.get(kind)
    if cls is None:
        raise InputError("MALFORMED_RECORD", f"line {lineno}: unknown kind {kind!r}")
    visit_id = _require(obj, "visit_id", lineno)
    if not isinstance(visit_id, str) or not visit_id:
        raise InputError("MALFORMED_RECORD", f"line {lineno}: bad visit_id {visit_id!r}")
    try:
        if cls is VisitStart:
            rank = _require(obj, "rank", lineno)
            if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
                raise InputError("MALFORMED_RECORD", f"line {lineno}: rank must be a positive int")
            gpc = _require(obj, "gpc_enabled", lineno)
            if not isinstance(gpc, bool):
                raise InputError("MALFORMED_RECORD", f"line {lineno}: gpc_enabled must be a bool")
            return VisitStart(
                visit_id=visit_id,
                site=_str_field(obj, "site", lineno),
                rank=rank,
                phase=_enum_field(Phase, obj, "phase", lineno),
                iteration=_enum_field(Iteration, obj, "iteration", lineno),
                gpc_enabled=gpc,
                event_index=event_index,
            )
        if cls is BannerObserved:
            try:
                banner = banner_from_obj(_require(obj, "banner", lineno))
            except (InputError, KeyError, ValueError, TypeError) as exc:
                raise InputError("MALFORMED_RECORD", f"line {lineno}: bad banner object ({exc})") from None
            return BannerObserved(visit_id=visit_id, banner=banner, event_index=event_index)
        if cls is Interaction:
            return Interaction(
                visit_id=visit_id,
                action=_enum_field(InteractionAction, obj, "action", lineno),
                resulting_stage=_enum_field(InteractionStage, obj, "resulting_stage", lineno),
                event_index=event_index,
            )
        if cls is HttpRequest:
            cookie_header = obj.get("cookie_header", "")
            if not isinstance(cookie_header, str):
                raise InputError("MALFORMED_RECORD", f"line {lineno}: cookie_header must be a string")
            redirect_parent_url = obj.get("redirect_parent_url")
            if redirect_parent_url is not None:
                _url_field(redirect_parent_url, "redirect_parent_url", lineno)
            return HttpRequest(
                visit_id=visit_id,
                stage=_enum_field(InteractionStage, obj, "stage", lineno),
                target_host=_str_field(obj, "target_host", lineno),
                target_url=_url_field(_require(obj, "target_url", lineno), "target_url", lineno),
                channel=_enum_field(Channel, obj, "channel", lineno),
                cookie_header=cookie_header,
                redirect_parent_url=redirect_parent_url,
                event_index=event_index,
            )
        if cls is CookieSet:
            return CookieSet(
                visit_id=visit_id,
                stage=_enum_field(InteractionStage, obj, "stage", lineno),
                set_cookie_header=_str_field(obj, "set_cookie_header", lineno),
                setter_context_host=_str_field(obj, "setter_context_host", lineno),
                event_index=event_index,
            )
        return VisitEnd(
            visit_id=visit_id,
            outcome=_enum_field(VisitOutcome, obj, "outcome", lineno),
            event_index=event_index,
        )
    except (TypeError, AttributeError) as exc:
        raise InputError("MALFORMED_RECORD", f"line {lineno}: malformed record ({exc})") from None


# --- serialization --------------------------------------------------------


def serialize(events: Iterable[CrawlEvent]) -> str:
    """Serialize events to the NDJSON wire format, header record first."""
    lines = [json.dumps({"format_version": FORMAT_VERSION}, sort_keys=True, separators=(",", ":"))]
    for event in events:
        lines.append(json.dumps(event_to_record(event), sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


# --- parsing with sequencing validation ------------------------------------


class _VisitState:
    __slots__ = ("site", "stage", "saw_body", "banner_count")

    def __init__(self, site: str):
        self.site = site
        self.stage = InteractionStage.BEFORE_INTERACTION
        self.saw_body = False  # any event beyond VISIT_START/BANNER_OBSERVED
        self.banner_count = 0


def parse_log(lines: Iterable[str]) -> list[CrawlEvent]:
    """Parse an NDJSON crawl log into events with monotonically increasing indices.

    Raises:
        InputError: ``MALFORMED_RECORD`` with the offending line number.
        InvariantError: ``SEQUENCE_VIOLATION`` naming the visit and event.
    """
    events: list[CrawlEvent] = []
    open_visits: dict[str, _VisitState] = {}
    closed_visits: set[str] = set()
    header_seen = False
    event_index = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError("MALFORMED_RECORD", f"line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise InputError("MALFORMED_RECORD", f"line {lineno}: record is not an object")
        if not header_seen:
            version = obj.get("format_version")
            if version != FORMAT_VERSION:
                raise InputError(
                    "MALFORMED_RECORD",
                    f"line {lineno}: expected header record {{'format_version': {FORMAT_VERSION}}}, got {obj!r}",
                )
            header_seen = True
            continue
        event = record_to_event(obj, lineno, event_index)
        _check_sequence(event, open_visits, closed_visits)
        events.append(event)
        event_index += 1
    if not header_seen:
        raise InputError("MALFORMED_RECORD", "missing format_version header record")
    if open_visits:
        visit_id = next(iter(open_visits))
        raise InvariantError("SEQUENCE_VIOLATION", f"visit {visit_id!r} has no VISIT_END")
    return events


def parse_log_text(text: str) -> list[CrawlEvent]:
    return parse_log(text.splitlines())


def merge_logs(event_lists: Iterable[list[CrawlEvent]]) -> list[CrawlEvent]:
    """Concatenate independently parsed logs, re-indexing events.

    Visit ids must be disjoint across the inputs; a collision would silently
    conflate two visits, so it is rejected as a sequencing violation.
    """
    merged: list[CrawlEvent] = []
    seen_visits: set[str] = set()
    for events in event_lists:
        file_visits = {e.visit_id for e in events}
        overlap = file_visits & seen_visits
        if overlap:
            raise InvariantError(
                "SEQUENCE_VIOLATION", f"visit ids repeat across merged logs: {sorted(overlap)[:5]}"
            )
        seen_visits |= file_visits
        for event in events:
            merged.append(dataclasses.replace(event, event_index=len(merged)))
    return merged


def _violation(visit_id: str, detail: str):
    raise InvariantError("SEQUENCE_VIOLATION", f"visit {visit_id!r}: {detail}")


def _check_sequence(event: CrawlEvent, open_visits: dict[str, _VisitState], closed: set[str]):
    visit_id = event.visit_id
    if isinstance(event, VisitStart):
        if visit_id in open_visits or visit_id in closed:
            _violation(visit_id, "duplicate VISIT_START")
        open_visits[visit_id] = _VisitState(event.site)
        return
    state = open_visits.get(visit_id)
    if state is None:
        detail = "event after VISIT_END" if visit_id in closed else "event before VISIT_START"
        _violation(visit_id, f"{detail} ({type(event).__name__})")
    if isinstance(event, BannerObserved):
        if state.saw_body or state.banner_count:
            _violation(visit_id, "BANNER_OBSERVED not immediately after VISIT_START")
        state.banner_count += 1
        return
    if isinstance(event, VisitEnd):
        del open_visits[visit_id]
        closed.add(visit_id)
        return
    state.saw_body = True
    if isinstance(event, Interaction):
        expected = _ACTION_STAGE[event.action]
        if event.resulting_stage is not expected:
            _violation(visit_id, f"{event.action.value} cannot result in stage {event.resulting_stage.name}")
        if event.resulting_stage <= state.stage:
            _violation(
                visit_id,
                f"stage {event.resulting_stage.name} does not advance past {state.stage.name}",
            )
        state.stage = event.resulting_stage
        return
    # HTTP_REQUEST / COOKIE_SET carry the stage the visit is currently in.
    if event.stage is not state.stage:
        _violation(
            visit_id,
            f"{type(event).__name__} at stage {event.stage.name} while visit is at {state.stage.name}",
        )


# --- cookie headers ---------------------------------------------------------


def parse_cookie_header(header: str, *, issues: list[ParseIssue] | None = None) -> list[tuple[str, str]]:
    """Split a request Cookie header into ordered (name, value) pairs.

    Pairs are separated by ``;`` (canonically ``"; "``) and split at the first
    ``=``.  Segments without a ``=`` or without a name are collected into
    ``issues`` as ``MALFORMED_PAIR``; the remaining pairs are still returned.
    """
    if not header:
        return []
    pairs: list[tuple[str, str]] = []
    for segment in header.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        name, sep, value = segment.partition("=")
        if not sep or not name:
            if issues is not None:
                issues.append(ParseIssue("MALFORMED_PAIR", f"cookie pair without '=': {segment!r}"))
            continue
        pairs.append((name, value))
    return pairs


def _parse_expires(value: str) -> float:
    parsed = parsedate_to_datetime(value)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=CRAWL_EPOCH.tzinfo)
    return (parsed - CRAWL_EPOCH).total_seconds()


def parse_set_cookie(
    header: str,
    context_host: str,
    *,
    issues: list[ParseIssue] | None = None,
) -> SetCookieFragment:
    """Parse a Set-Cookie header value into the fields the pipeline uses.

    The cookie host is the canonicalized Domain attribute when present, else
    the setting context host.  Max-Age takes precedence over Expires; with
    neither the cookie is a session cookie.  A malformed Expires or Max-Age
    falls back to session with a collected ``MALFORMED_EXPIRES`` issue.

    Raises:
        InputError: ``MISSING_NAME`` when the name/value part has no name.
    """
    segments = [s.strip() for s in header.split(";")]
    name, sep, value = segments[0].partition("=")
    name = name.strip()
    if not sep or not name:
        raise InputError("MISSING_NAME", f"Set-Cookie without a cookie name: {header[:60]!r}")
    domain: str | None = None
    max_age: float | None = None
    expires: float | None = None
    partitioned = False
    for segment in segments[1:]:
        if not segment:
            continue
        attr, _, attr_value = segment.partition("=")
        attr = attr.strip().lower()
        attr_value = attr_value.strip()
        if attr == "domain" and attr_value:
            domain = attr_value
        elif attr == "max-age":
            try:
                max_age = float(int(attr_value))
            except ValueError:
                if issues is not None:
                    issues.append(ParseIssue("MALFORMED_EXPIRES", f"bad Max-Age {attr_value!r}"))
        elif attr == "expires":
            try:
                expires = _parse_expires(attr_value)
            except (ValueError, TypeError):
                if issues is not None:
                    issues.append(ParseIssue("MALFORMED_EXPIRES", f"bad Expires {attr_value!r}"))
        elif attr == "partitioned":
            partitioned = True
    host = canonicalize_host(domain) if domain else canonicalize_host(context_host)
    original_expiry = max_age if max_age is not None else expires
    return SetCookieFragment(name, value, host, original_expiry, partitioned)


def record_from_cookie_set(event: CookieSet, visit: VisitStart, *, issues: list[ParseIssue] | None = None) -> CookieRecord:
    """Build a CookieRecord from a COOKIE_SET event and its visit context."""
    fragment = parse_set_cookie(event.set_cookie_header, event.setter_context_host, issues=issues)
    partition = visit.site if fragment.partitioned else None
    return CookieRecord(
        key=CookieKey(fragment.name, fragment.host, partition),
        value=fragment.value,
        original_expiry=fragment.original_expiry,
        setter_site=visit.site,
        set_at=event.event_index,
        consent_state_at_set=consent_state_for_stage(event.stage),
        phase=visit.phase,
    )


# --- derived views ----------------------------------------------------------


def visit_starts(events: Iterable[CrawlEvent]) -> dict[str, VisitStart]:
    return {e.visit_id: e for e in events if isinstance(e, VisitStart)}


def summarize_visits(events: Iterable[CrawlEvent]) -> dict[str, VisitSummary]:
    """Condense a parsed event stream into one summary row per visit."""
    starts: dict[str, VisitStart] = {}
    banners: dict[str, BannerType] = {}
    outcomes: dict[str, VisitOutcome] = {}
    for event in events:
        if isinstance(event, VisitStart):
            starts[event.visit_id] = event
        elif isinstance(event, BannerObserved):
            banners[event.visit_id] = event.banner.banner_type
        elif isinstance(event, VisitEnd):
            outcomes[event.visit_id] = event.outcome
    return {
        visit_id: VisitSummary(
            visit_id=visit_id,
            site=start.site,
            rank=start.rank,
            phase=start.phase,
            iteration=start.iteration,
            gpc_enabled=start.gpc_enabled,
            banner_type=banners.get(visit_id, BannerType.NONE),
            outcome=outcomes[visit_id],
        )
        for visit_id, start in starts.items()
    }


def extract_sent(
    events: Iterable[CrawlEvent],
    *,
    issues: list[ParseIssue] | None = None,
) -> list[SentCookieObservation]:
    """One observation per (HTTP_REQUEST, cookie pair), in event order."""
    sites = visit_starts(events)
    observations: list[SentCookieObservation] = []
    for event in events:
        if not isinstance(event, HttpRequest):
            continue
        start = sites[event.visit_id]
        for name, value in parse_cookie_header(event.cookie_header, issues=issues):
            observations.append(
                SentCookieObservation(
                    name=name,
                    value=value,
                    target_host=event.target_host,
                    sender_site=start.site,
                    stage=event.stage,
                    channel=event.channel,
                    visit_id=event.visit_id,
                    event_index=event.event_index,
                )
            )
    return observations


def strict_issues(events: Iterable[CrawlEvent]) -> list[ParseIssue]:
    """Re-parse every cookie header in the stream, collecting all issues.

    Used by strict validation: a log that parses cleanly may still carry
    malformed cookie headers, which are tolerated during detection but
    rejected by ``validate-log``.
    """
    issues: list[ParseIssue] = []
    for event in events:
        if isinstance(event, HttpRequest):
            parse_cookie_header(event.cookie_header, issues=issues)
        elif isinstance(event, CookieSet):
            try:
                parse_set_cookie(event.set_cookie_header, event.setter_context_host, issues=issues)
            except InputError as exc:
                issues.append(ParseIssue(exc.code, exc.message))
    return issues
