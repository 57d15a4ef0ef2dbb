"""Crawl-log wire format: event types, NDJSON parsing/serialization, cookie headers.

A log is newline-delimited JSON, one record per line, preceded by a header
record ``{"format_version": 1}``.  Events for one visit must appear as
``VISIT_START, (BANNER_OBSERVED)?, interleaved HTTP_REQUEST / COOKIE_SET /
INTERACTION, VISIT_END``.  The stage of a request or cookie-set event must
equal the stage established by the most recent interaction (initially
``BEFORE_INTERACTION``), so stages are non-decreasing by construction.

Each event kind's wire record is declared once, in ``_EVENT_FIELDS``: a
``model.RecordFields`` whose ``encode`` and ``decode`` are compiled from the
declaration, and every codec's ``encode`` writes what its ``decode`` reads.
``encode`` writes the event's line directly, and the bytes are exactly those
of ``json.dumps(record, sort_keys=True, separators=(",", ":"))``.  A banner
(``_BANNER_FIELDS``, its layers, buttons and toggles) is declared the same way,
and ``decode_banner`` reads it once per distinct banner of a load.
``log_writer`` writes each event's line as it is handed the event, so a log is
written as it is made (``simulate``); ``serialize`` joins the same lines.

Records end at ``\\n`` only.  JSON allows U+2028, U+2029 and U+0085 raw
inside a string, so they do not end a record, as ``str.splitlines`` would
have them do.

Logs, findings, resets and syncs are all read through ``read_records``: the
header checked once, each record line decoded with the JSON scanner, and the
first bad line in file order the error, worded ``line <n>: ...``.

Parsing builds the run index (``RunIndex``) as it reads, in one pass over the
lines and with no event list in between: the decoder of the record's kind
checks its fields, in the event's field order, and builds the event, numbered
with its final index (a parse can continue the index of the logs parsed
before it, so several logs form one run); then a filer checks the event's
place in its visit's sequence and files it.  An HTTP_REQUEST or COOKIE_SET is
appended to the index's requests or cookie sets.  The open visit keeps its
VISIT_START and banner type, and VISIT_END turns them into the visit's
``VisitSummary``.  A field error reads ``line <n>: missing field '<f>'`` or
``line <n>: bad <f> <value>``, a banner's naming its path, as ``line <n>:
banner: layers[0]: buttons[1]: bad action <value>``.  Hosts (``site``,
``target_host``, ``setter_context_host``) are canonicalized at parse time, so
every later stage sees canonical hosts.  A URL field must be one that
``urlsplit`` accepts; ``urlsplit`` raises only on a bracket or a non-ASCII
netloc, so an ASCII URL without brackets is accepted without the call.  Later stages read the index
and walk no events.

Events and the records derived from them are immutable ``NamedTuple``s,
cheaper to build than frozen dataclasses.  Tell kinds apart by
``type(event) is``: a record equals any tuple of equal fields, whatever its
kind.
"""

from __future__ import annotations

import heapq
import json
import marshal
from dataclasses import dataclass
from email.utils import parsedate_to_datetime
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple
from urllib.parse import urlsplit

from .errors import InputError, InvariantError, ParseIssue, json_object, quoted
from .model import (
    CRAWL_EPOCH,
    HOST,
    OPTIONAL_STR,
    POSITIVE_INT,
    BannerButton,
    BannerDescriptor,
    BannerLayer,
    BannerToggle,
    BannerType,
    ButtonAction,
    Channel,
    CookieKey,
    CookieRecord,
    Field,
    InteractionAction,
    InteractionStage,
    Iteration,
    Phase,
    RecordFields,
    SiteId,
    VisitOutcome,
    canonical_json,
    canonicalize_host,
    consent_state_for_stage,
)

FORMAT_VERSION = 1
HEADER_LINE = canonical_json({"format_version": FORMAT_VERSION}) + "\n"  # of a log, findings, resets or syncs

# The stage each interaction action transitions a visit into.
_ACTION_STAGE = {
    InteractionAction.ACCEPT_CLICKED: InteractionStage.AFTER_ACCEPT,
    InteractionAction.REJECT_CLICKED: InteractionStage.AFTER_REJECT,
    InteractionAction.RELOAD: InteractionStage.AFTER_RELOADED_REJECT,
}


class VisitStart(NamedTuple):
    visit_id: str
    site: SiteId
    rank: int
    phase: Phase
    iteration: Iteration
    gpc_enabled: bool
    event_index: int = -1


class BannerObserved(NamedTuple):
    visit_id: str
    banner: BannerDescriptor
    event_index: int = -1


class Interaction(NamedTuple):
    visit_id: str
    action: InteractionAction
    resulting_stage: InteractionStage
    event_index: int = -1


class HttpRequest(NamedTuple):
    visit_id: str
    stage: InteractionStage
    target_host: str
    target_url: str
    channel: Channel
    cookie_header: str
    redirect_parent_url: str | None = None
    event_index: int = -1


class CookieSet(NamedTuple):
    visit_id: str
    stage: InteractionStage
    set_cookie_header: str
    setter_context_host: str
    event_index: int = -1


class VisitEnd(NamedTuple):
    visit_id: str
    outcome: VisitOutcome
    event_index: int = -1


CrawlEvent = VisitStart | BannerObserved | Interaction | HttpRequest | CookieSet | VisitEnd


class SetCookieFragment(NamedTuple):
    """The pieces of a Set-Cookie header the pipeline cares about."""

    name: str
    value: str
    host: str
    original_expiry: float | None  # None is a session cookie
    partitioned: bool


class VisitSummary(NamedTuple):
    visit_id: str
    site: SiteId
    rank: int
    phase: Phase
    iteration: Iteration
    gpc_enabled: bool
    banner_type: BannerType
    outcome: VisitOutcome

    @property
    def accepted_setter(self) -> bool:
        """An accept-phase visit whose banner was accepted: its cookie writes fill the jar."""
        return self.phase is Phase.STATEFUL_ACCEPT and self.outcome is VisitOutcome.ACCEPTED

    @property
    def in_reject_iteration(self) -> bool:
        """A measure-phase visit of the reject iteration, whatever its outcome."""
        return self.phase is Phase.STATELESS_MEASURE and self.iteration is Iteration.REJECT_ITER

    @property
    def rejected_measurement(self) -> bool:
        """A reject-iteration visit that ended REJECTED: its sends before any interaction are canonical."""
        return self.in_reject_iteration and self.outcome is VisitOutcome.REJECTED


@dataclass(frozen=True)
class RunIndex:
    """What the stages read of a run, built by ``parse_log_text`` as it parses; ``len()`` counts its events."""

    visits: dict[str, VisitSummary]  # by visit id, in VISIT_START order
    ended: list[VisitSummary]  # the same rows, in VISIT_END order
    requests: list[HttpRequest]  # in event order
    cookie_sets: list[CookieSet]  # in event order
    event_count: int  # the run's events, of every kind

    def __len__(self) -> int:
        return self.event_count


# --- banners ---------------------------------------------------------------

# A banner's wire record: a button is ``[label, action]`` and a toggle ``[category,
# preselected, essential]``; a layer's lists and a banner's layers may be omitted.
_BUTTON_FIELDS = RecordFields(BannerButton, positional=True, label={str}, action=ButtonAction)
_TOGGLE_FIELDS = RecordFields(BannerToggle, positional=True, category={str}, preselected={bool}, essential={bool})
_LAYER_FIELDS = RecordFields(
    BannerLayer, buttons=Field({list}, read=_BUTTON_FIELDS.rows, default=[]),
    toggles=Field({list}, read=_TOGGLE_FIELDS.rows, default=[]),
)
_BANNER_FIELDS = RecordFields(
    BannerDescriptor, banner_type=BannerType, layers=Field({list}, read=_LAYER_FIELDS.rows, default=[]),
)


def decode_banner(obj: dict, name: str, banners: dict) -> BannerDescriptor:
    """The banner of a config or log record, read by ``_BANNER_FIELDS`` once per distinct banner of one load.

    A NONE banner must have no layers, and each error starts ``<name>: ``.
    The ``banners`` memo maps the fields the declaration reads, marshalled
    (or, past marshal's depth, their repr), to the descriptor: equal bytes,
    like equal reprs of JSON values, mean equal descriptors, and a key that
    the declaration ignores, however large, does not split a banner.
    """
    fields = (obj.get("banner_type"), obj.get("layers", []))
    try:
        key = marshal.dumps(fields)  # a quarter of repr's cost
    except ValueError:  # nested deeper than marshal goes, which JSON allows on Python 3.12+
        key = repr(fields)
    banner = banners.get(key)
    if banner is None:
        banner = _BANNER_FIELDS.nested(obj, name)
        if banner.banner_type is BannerType.NONE and banner.layers:
            raise ValueError(f"{name}: banner_type NONE must have no layers")
        banners[key] = banner
    return banner


# --- the wire records: one compiled codec per event kind ------------------------


def _check_url(value: str, name: str) -> str:
    """A URL field must be a string that ``urlsplit`` accepts, as detection splits it.

    ``urlsplit`` raises only on a ``[`` or ``]`` in the netloc or on a
    non-ASCII netloc (Python 3.10 to 3.13, as the tests check), so an ASCII
    string without brackets cannot fail and skips the call.
    """
    if value.isascii() and "[" not in value and "]" not in value:
        return value
    try:
        urlsplit(value)
    except ValueError as exc:
        raise InputError("UNPARSABLE_URL", f"bad {name} {quoted(value)} ({exc})") from None
    return value


def _banner_json(banner: BannerDescriptor, banners: dict) -> str:
    """A banner's JSON, memoized in ``banners`` for one log being written.

    The memo is keyed by ``id(banner)``, which hashes no nested record, and
    holds the banner itself beside its JSON, so no id is reused while it is a
    key.  Equal banners from one config load are one object (``decode_banner``).
    """
    entry = banners.get(id(banner))
    if entry is None:
        entry = banners[id(banner)] = (banner, _BANNER_FIELDS.encode(banner))
    return entry[1]


VISIT_ID = Field({str}, test="{}")  # not empty
URL = Field({str}, read=_check_url)
BANNER = Field({dict}, read=decode_banner, memo="banners", write=_banner_json)

# The wire record of each event kind.  A request's cookie header and redirect
# parent may be omitted.
_EVENT_FIELDS = {
    VisitStart: RecordFields(
        VisitStart, kind="VISIT_START", visit_id=VISIT_ID, site=HOST, rank=POSITIVE_INT, phase=Phase,
        iteration=Iteration, gpc_enabled={bool},
    ),
    BannerObserved: RecordFields(BannerObserved, kind="BANNER_OBSERVED", visit_id=VISIT_ID, banner=BANNER),
    Interaction: RecordFields(
        Interaction, kind="INTERACTION", visit_id=VISIT_ID, action=InteractionAction, resulting_stage=InteractionStage,
    ),
    HttpRequest: RecordFields(
        HttpRequest, kind="HTTP_REQUEST", visit_id=VISIT_ID, stage=InteractionStage, target_host=HOST,
        target_url=URL, channel=Channel, cookie_header=Field({str}, default=""),
        redirect_parent_url=URL._replace(types=OPTIONAL_STR, default=None),
    ),
    CookieSet: RecordFields(
        CookieSet, kind="COOKIE_SET", visit_id=VISIT_ID, stage=InteractionStage, set_cookie_header={str},
        setter_context_host=HOST,
    ),
    VisitEnd: RecordFields(VisitEnd, kind="VISIT_END", visit_id=VISIT_ID, outcome=VisitOutcome),
}

# The scanner ``raw_decode`` wraps: (value, end) of the JSON value at an index,
# ``StopIteration`` if none starts there.
_scan_json = json.JSONDecoder().scan_once


def _violation(visit_id: str, detail: str):
    raise InvariantError("SEQUENCE_VIOLATION", f"visit {visit_id!r}: {detail}")


class _VisitState:
    """An open visit: its VISIT_START, its banner type once seen, and where its sequence stands."""

    __slots__ = ("start", "banner_type", "stage", "saw_body")

    def __init__(self, start: VisitStart):
        self.start = start
        self.banner_type: BannerType | None = None  # None until BANNER_OBSERVED
        self.stage = InteractionStage.BEFORE_INTERACTION
        self.saw_body = False  # any event beyond VISIT_START/BANNER_OBSERVED


class _LogParser:
    """The state of one parse: the index being built, the open visits, each host's canonical form and each banner.

    Each filer takes one decoded event, checks its place in its visit, and
    only then files it.
    """

    __slots__ = ("visits", "ended", "requests", "cookie_sets", "open_visits", "hosts", "banners")

    def __init__(self, run: RunIndex | None):
        # Every visit seen so far, by id: a visit takes its slot at VISIT_START (holding None
        # while open), so the table stays in VISIT_START order.
        self.visits: dict[str, VisitSummary | None] = {} if run is None else run.visits
        self.ended: list[VisitSummary] = [] if run is None else run.ended
        self.requests: list[HttpRequest] = [] if run is None else run.requests
        self.cookie_sets: list[CookieSet] = [] if run is None else run.cookie_sets
        self.open_visits: dict[str, _VisitState] = {}
        self.hosts: dict[str, str] = {}  # raw -> canonical: each distinct host is canonicalized once
        self.banners: dict[bytes | str, BannerDescriptor] = {}  # ``decode_banner``'s memo

    def _state(self, event: CrawlEvent) -> _VisitState:
        """The open visit an event after VISIT_START belongs to."""
        state = self.open_visits.get(event.visit_id)
        if state is None:
            detail = "event after VISIT_END" if event.visit_id in self.visits else "event before VISIT_START"
            _violation(event.visit_id, f"{detail} ({type(event).__name__})")
        return state

    def _at_stage(self, event: HttpRequest | CookieSet) -> None:
        """HTTP_REQUEST / COOKIE_SET carry the stage the visit is currently in."""
        state = self._state(event)
        state.saw_body = True
        if event.stage is not state.stage:
            _violation(event.visit_id, f"{type(event).__name__} at stage {event.stage.name} "
                                       f"while visit is at {state.stage.name}")

    def visit_start(self, event: VisitStart) -> None:
        if event.visit_id in self.visits:
            _violation(event.visit_id, "duplicate VISIT_START")
        self.visits[event.visit_id] = None
        self.open_visits[event.visit_id] = _VisitState(event)

    def banner_observed(self, event: BannerObserved) -> None:
        state = self._state(event)
        if state.saw_body or state.banner_type is not None:
            _violation(event.visit_id, "BANNER_OBSERVED not immediately after VISIT_START")
        state.banner_type = event.banner.banner_type

    def interaction(self, event: Interaction) -> None:
        state = self._state(event)
        state.saw_body = True
        resulting = event.resulting_stage
        if resulting is not _ACTION_STAGE[event.action]:
            _violation(event.visit_id, f"{event.action.value} cannot result in stage {resulting.name}")
        if resulting <= state.stage:
            _violation(event.visit_id, f"stage {resulting.name} does not advance past {state.stage.name}")
        state.stage = resulting

    def http_request(self, event: HttpRequest) -> None:
        self._at_stage(event)
        self.requests.append(event)

    def cookie_set(self, event: CookieSet) -> None:
        self._at_stage(event)
        self.cookie_sets.append(event)

    def visit_end(self, event: VisitEnd) -> None:
        state = self._state(event)
        del self.open_visits[event.visit_id]
        banner_type = BannerType.NONE if state.banner_type is None else state.banner_type
        self.visits[event.visit_id] = summary = VisitSummary(*state.start[:6], banner_type, event.outcome)
        self.ended.append(summary)


# Each event tag's decoder, and the filer named after the tag that takes what it decodes.
_READERS = {fields.tag: (fields.decode, getattr(_LogParser, fields.tag.lower())) for fields in _EVENT_FIELDS.values()}
# Each event kind's encoder, looked up by ``log_writer`` once per event.
_ENCODERS = {kind: fields.encode for kind, fields in _EVENT_FIELDS.items()}


def log_writer(write: Callable[[str], object]) -> Callable[[CrawlEvent], None]:
    """Write a log's header record through ``write``, and return the sink that writes each event's line.

    The sink encodes each event it is handed with its kind's codec and writes
    its line, newline included, at once, so a log can be written as its
    events are made, with no event list.
    """
    write(HEADER_LINE)
    banners: dict = {}

    def write_event(event: CrawlEvent) -> None:
        write(_ENCODERS[type(event)](event, banners) + "\n")

    return write_event


def serialize(events: Iterable[CrawlEvent]) -> str:
    """Serialize events to the NDJSON wire format, header record first: ``log_writer``'s lines, joined."""
    lines: list[str] = []
    write_event = log_writer(lines.append)
    for event in events:
        write_event(event)
    return "".join(lines)


def _record_object(line: str, lineno: int) -> dict:
    """The JSON object a stripped, non-blank line holds, decoded with the scanner (``json_object`` words errors)."""
    try:
        obj, end = _scan_json(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(line) or type(obj) is not dict:
        obj = json_object(line, "MALFORMED_RECORD", f"line {lineno}: ")
    return obj


def read_records(lines: Iterable[str], from_line: Callable[[str], object] | None = None) -> Iterator[tuple]:
    """Yield ``(line number, JSON object)`` for each record after the header of a log, findings, resets or syncs.

    ``lines`` are the file's lines, split at ``\\n`` only (its text's
    ``split("\\n")``, or the open text file); blank ones are skipped.
    ``from_line``, if given, is first handed each stripped record line: what
    it returns, if not None, is yielded in place of the object, undecoded.
    The first bad line raises ``InputError("MALFORMED_RECORD", "line <n>:
    ...")`` when the stream reaches it.
    """
    numbered = enumerate(lines, start=1)
    for lineno, raw in numbered:
        line = raw.strip()
        if line:
            obj = _record_object(line, lineno)
            version = obj.get("format_version")
            if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 are not 1
                expected = f"expected header record {{'format_version': {FORMAT_VERSION}}}"
                raise InputError("MALFORMED_RECORD", f"line {lineno}: {expected}, got {quoted(obj)}")
            break
    else:
        raise InputError("MALFORMED_RECORD", "missing format_version header record")
    for lineno, raw in numbered:
        line = raw.strip()
        if not line:
            continue
        if from_line is not None:
            record = from_line(line)
            if record is not None:
                yield lineno, record
                continue
        yield lineno, _record_object(line, lineno)


def parse_log_text(text: str, run: RunIndex | None = None) -> RunIndex:
    """Parse the text of an NDJSON crawl log into its run index, checking every record and every visit's sequence.

    One pass over the lines (``read_records``) decodes, checks and files each
    record; no event list is built.  With ``run``, the index of the logs
    parsed before this one, the parse continues it: events are numbered after
    its events, its tables are extended in place (so ``run`` itself is not to
    be read again) and a visit id it holds cannot start again.  ``len()`` of
    the result counts the events of every log it holds.  Hosts (``site``,
    ``target_host``, ``setter_context_host``) are canonical from here on.

    Raises:
        InputError: ``MALFORMED_RECORD``, ``UNPARSABLE_URL``, or a host's
            ``EMPTY_HOST`` / ``INVALID_LABEL``, with the offending line number.
        InvariantError: ``SEQUENCE_VIOLATION`` naming the visit and event.
    """
    parser = _LogParser(run)
    hosts, banners = parser.hosts, parser.banners
    index = 0 if run is None else run.event_count
    for lineno, obj in read_records(text.split("\n")):
        kind = obj.get("kind")
        reader = _READERS.get(kind) if isinstance(kind, str) else None
        if reader is None:
            problem = f"unknown kind {quoted(kind)}" if "kind" in obj else "missing field 'kind'"
            raise InputError("MALFORMED_RECORD", f"line {lineno}: {problem}")
        decode, file = reader
        try:
            event = decode(obj, index, hosts, banners)
        except ValueError as exc:
            raise InputError("MALFORMED_RECORD", f"line {lineno}: {exc}") from None
        except InputError as exc:
            raise InputError(exc.code, f"line {lineno}: {exc.message}") from None
        file(parser, event)
        index += 1
    if parser.open_visits:
        visit_id = next(iter(parser.open_visits))
        raise InvariantError("SEQUENCE_VIOLATION", f"visit {visit_id!r} has no VISIT_END")
    return RunIndex(parser.visits, parser.ended, parser.requests, parser.cookie_sets, index)


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
                issues.append(ParseIssue("MALFORMED_PAIR", f"cookie pair without '=': {quoted(segment)}"))
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
        raise InputError("MISSING_NAME", f"Set-Cookie without a cookie name: {quoted(header)}")
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
            except (ValueError, OverflowError):  # OverflowError: past the largest float
                if issues is not None:
                    issues.append(ParseIssue("MALFORMED_EXPIRES", f"bad Max-Age {quoted(attr_value)}"))
        elif attr == "expires":
            try:
                expires = _parse_expires(attr_value)
            except (ValueError, TypeError, OverflowError):
                if issues is not None:
                    issues.append(ParseIssue("MALFORMED_EXPIRES", f"bad Expires {quoted(attr_value)}"))
        elif attr == "partitioned":
            partitioned = True
    host = canonicalize_host(domain) if domain else canonicalize_host(context_host)
    original_expiry = max_age if max_age is not None else expires
    return SetCookieFragment(name, value, host, original_expiry, partitioned)


def record_from_cookie_set(
    event: CookieSet, visit: VisitStart | VisitSummary, *, issues: list[ParseIssue] | None = None
) -> CookieRecord:
    """Build a CookieRecord from a COOKIE_SET event and its visit's site and phase."""
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


# --- reading the run index ----------------------------------------------------


def in_visit(issues: list[ParseIssue], start: int, visit_id: str) -> None:
    """Start the message of each issue from ``issues[start]`` on with ``visit '<id>': ``; cheap if there is none."""
    issues[start:] = [ParseIssue(i.code, f"visit {visit_id!r}: {i.detail}", i.line) for i in issues[start:]]


_event_index = attrgetter("event_index")


def strict_issues(index: RunIndex) -> list[ParseIssue]:
    """Re-parse every cookie header of the run, in event order, collecting all issues, each naming its visit.

    Used by strict validation: a log that parses cleanly may still carry
    malformed cookie headers, which are tolerated during detection but
    rejected by ``validate-log``.
    """
    issues: list[ParseIssue] = []
    for event in heapq.merge(index.requests, index.cookie_sets, key=_event_index):
        start = len(issues)
        if type(event) is HttpRequest:
            parse_cookie_header(event.cookie_header, issues=issues)
        else:
            try:
                parse_set_cookie(event.set_cookie_header, event.setter_context_host, issues=issues)
            except InputError as exc:
                issues.append(ParseIssue(exc.code, exc.message))
        in_visit(issues, start, event.visit_id)
    return issues
