"""Core domain types shared across the measurement pipeline.

Hosts and site identities are plain lowercase strings and
:func:`canonicalize_host` is the single normalization entry point.  Time is
virtual throughout: event ordering uses monotonic event indices assigned at
log-parse time, and cookie lifetimes are carried as seconds relative to
:data:`CRAWL_EPOCH` rather than wall-clock instants.

Cookie keys and jar records here, like the jar's history rows and the
detector's findings, are immutable ``NamedTuple``s: built, hashed and
compared in C on every jar lookup.  A record equals any tuple of equal
fields, whatever its kind, so kinds are told apart by ``type()``.
"""

from __future__ import annotations

import enum
import itertools
import operator
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple

from .errors import InputError

# A registrable domain (public suffix plus one label), lowercase.
SiteId = str

# Virtual "now": absolute Expires dates in logs are interpreted relative to
# this instant, making every parsed lifetime a plain seconds offset.
CRAWL_EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)

# Uniform far-future expiry rewritten onto every stored cookie so nothing can
# lapse mid-measurement.
FIXED_EXPIRY = datetime(2028, 1, 1, 12, 12, 12, tzinfo=timezone.utc)


class ConsentState(enum.Enum):
    PRE_CONSENT = "PRE_CONSENT"
    POST_ACCEPT = "POST_ACCEPT"
    POST_REJECT = "POST_REJECT"


class Phase(enum.Enum):
    STATEFUL_ACCEPT = "STATEFUL_ACCEPT"
    STATELESS_MEASURE = "STATELESS_MEASURE"


class InteractionStage(enum.IntEnum):
    """Stages of a single visit, in the only order they may appear."""

    BEFORE_INTERACTION = 0
    AFTER_REJECT = 1
    AFTER_ACCEPT = 2
    AFTER_RELOADED_REJECT = 3


class Iteration(enum.Enum):
    REJECT_ITER = "REJECT_ITER"
    ACCEPT_ITER = "ACCEPT_ITER"


class Channel(enum.Enum):
    RESOURCE_FETCH = "RESOURCE_FETCH"
    API_CALL = "API_CALL"


class VisitOutcome(enum.Enum):
    ACCEPTED = "ACCEPTED"
    REJECTED = "REJECTED"
    NO_BANNER = "NO_BANNER"
    INTERACTION_FAILED = "INTERACTION_FAILED"
    LOAD_FAILED = "LOAD_FAILED"


class BannerType(enum.Enum):
    NONE = "NONE"
    NATIVE = "NATIVE"
    CMP = "CMP"
    PAYWALL = "PAYWALL"


class ButtonAction(enum.Enum):
    ACCEPT = "ACCEPT"
    REJECT = "REJECT"
    SETTINGS = "SETTINGS"
    SAVE = "SAVE"
    OTHER = "OTHER"


class InteractionAction(enum.Enum):
    ACCEPT_CLICKED = "ACCEPT_CLICKED"
    REJECT_CLICKED = "REJECT_CLICKED"
    RELOAD = "RELOAD"


@dataclass(frozen=True)
class BannerButton:
    label: str
    action: ButtonAction


@dataclass(frozen=True)
class BannerToggle:
    category: str
    preselected: bool
    essential: bool


@dataclass(frozen=True)
class BannerLayer:
    buttons: tuple[BannerButton, ...] = ()
    toggles: tuple[BannerToggle, ...] = ()


@dataclass(frozen=True)
class BannerDescriptor:
    """Static description of a consent banner as seen by the crawler."""

    banner_type: BannerType
    layers: tuple[BannerLayer, ...] = ()

    def __post_init__(self):
        if self.banner_type is BannerType.NONE and self.layers:
            raise InputError("INVALID_CONFIG", "banner_type NONE must have no layers")


class CookieKey(NamedTuple):
    """Identity of a stored cookie.

    The partition label participates in identity: a partitioned and a
    non-partitioned cookie with equal (name, host) are distinct entries.
    Path and value deliberately do not participate.
    """

    name: str
    host: str  # canonical, no leading dot
    partition: SiteId | None = None


class CookieRecord(NamedTuple):
    """One cookie observation with its provenance.

    ``original_expiry`` is the lifetime carried by the Set-Cookie header:
    ``None`` for session cookies, otherwise seconds relative to the moment of
    setting (absolute Expires dates are converted against ``CRAWL_EPOCH``).
    A non-positive offset means the write was a deletion.
    """

    key: CookieKey
    value: str
    original_expiry: float | None
    setter_site: SiteId
    set_at: int
    consent_state_at_set: ConsentState
    phase: Phase
    effective_expiry: datetime = FIXED_EXPIRY

    @property
    def is_deletion(self) -> bool:
        # Zero-or-negative lifetimes collapse to "already expired" per the
        # cookie standard's earliest-representable-date rule.
        return self.original_expiry is not None and self.original_expiry <= 0


def consent_state_for_stage(stage: InteractionStage) -> ConsentState:
    """Consent state in effect for events observed at ``stage``."""
    if stage is InteractionStage.BEFORE_INTERACTION:
        return ConsentState.PRE_CONSENT
    if stage is InteractionStage.AFTER_ACCEPT:
        return ConsentState.POST_ACCEPT
    return ConsentState.POST_REJECT


_LABEL_RE = re.compile(r"[a-z0-9_-]+\Z")
# A host that is already canonical: lowercase ASCII labels of 1 to 63 octets,
# none empty.  Such a host is a fixed point of the full normalization.
_CANONICAL_HOST_RE = re.compile(r"[a-z0-9_-]{1,63}(\.[a-z0-9_-]{1,63})*\Z")


def canonicalize_host(raw: str) -> str:
    """Normalize a hostname: lowercase, strip surrounding dots, punycode IDNA labels.

    A host that is already canonical is returned as is, after one match.

    Raises:
        InputError: ``EMPTY_HOST`` for empty input, ``INVALID_LABEL`` for a
            label over 63 octets, an empty interior label, or an illegal
            character.
    """
    if type(raw) is str and _CANONICAL_HOST_RE.fullmatch(raw):
        return raw
    if not raw or not raw.strip():
        raise InputError("EMPTY_HOST", "empty hostname")
    host = raw.strip().lower().strip(".")
    if not host:
        raise InputError("EMPTY_HOST", f"hostname {raw!r} has no labels")
    out = []
    for label in host.split("."):
        if not label:
            raise InputError("INVALID_LABEL", f"empty label in {raw!r}")
        if label.isascii():
            if not _LABEL_RE.fullmatch(label):
                raise InputError("INVALID_LABEL", f"illegal character in label {label!r}")
            encoded = label
        else:
            try:
                encoded = label.encode("idna").decode("ascii")
            except UnicodeError as exc:
                raise InputError("INVALID_LABEL", f"IDNA conversion failed for {label!r}: {exc}") from None
        if len(encoded) > 63:
            raise InputError("INVALID_LABEL", f"label longer than 63 octets: {encoded[:20]}...")
        out.append(encoded)
    return ".".join(out)


def domain_match(target_host: str, cookie_host: str) -> bool:
    """True when a cookie stored for ``cookie_host`` covers ``target_host``."""
    return target_host == cookie_host or target_host.endswith("." + cookie_host)


# --- wire records ----------------------------------------------------------------


class RecordFields:
    """The wire codec of one record kind: each field's JSON type, in record order.

    The kind is a ``NamedTuple`` whose first field is a ``CookieKey``.  On the
    wire the key is flattened to ``name``, ``host`` and ``partition``, and every
    other field keeps its name, so the declared names must be the key's fields
    followed by the kind's others; construction raises ``TypeError`` otherwise.
    A field is declared by the set of exact JSON types it may have, by an
    ``Enum`` class (a string: the member's name) or by ``datetime`` (a string:
    its ``isoformat()``).  A ``wire_only`` field is checked on read and
    dropped: the record does not hold it, and ``obj`` does not write it.

    ``values`` checks an object in one set lookup: every allowed combination
    of field types is precomputed.  Types are exact: a boolean is not an
    ``event_index``.  Only enum and date fields are converted, by index.
    """

    def __init__(self, kind: type, /, *, wire_only: tuple[str, ...] = (), **fields):
        held = [name for name in fields if name not in wire_only]
        if held != [*CookieKey._fields, *kind._fields[1:]]:
            raise TypeError(f"{kind.__name__} is declared as {held}: not the key's fields, then its own")
        self.kind = kind
        self.names = tuple(held)
        self.types = {name: {str} if isinstance(spec, type) else spec for name, spec in fields.items()}
        self.get = operator.itemgetter(*fields)
        self.rows = frozenset(itertools.product(*self.types.values()))
        self.held = operator.itemgetter(*map(list(fields).index, held)) if wire_only else None
        # (index in the flattened record, name, read, write) of each enum or date field
        self.converted = [(i, name, *_converters(fields[name])) for i, name in enumerate(held)
                          if isinstance(fields[name], type)]

    def values(self, obj) -> tuple:
        """An object's field values in declared order; ``ValueError`` names the first missing or mistyped one."""
        try:
            values = self.get(obj)
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from None
        if tuple(map(type, values)) not in self.rows:
            for (name, types), value in zip(self.types.items(), values):
                if type(value) not in types:
                    raise ValueError(f"bad {name} {value!r}")
        return values

    def build(self, values: tuple):
        """The record of what ``values`` returned: wire-only fields dropped, enums and dates read.

        Raises:
            ValueError: ``bad <field> <value>`` for an unknown member name or
                an unparsable date.
        """
        if self.held is not None:
            values = self.held(values)
        if self.converted:
            values = list(values)
            for i, name, read, _write in self.converted:
                try:
                    values[i] = read(values[i])
                except (KeyError, ValueError):
                    raise ValueError(f"bad {name} {values[i]!r}") from None
        return self.kind(CookieKey(*values[:3]), *values[3:])

    def record(self, obj):
        """The record a decoded JSON object holds; ``ValueError`` names the first bad field."""
        return self.build(self.values(obj))

    def obj(self, record) -> dict:
        """The JSON object that writes ``record``, for ``json.dumps``."""
        values = [*record[0], *record[1:]]
        for i, _name, _read, write in self.converted:
            values[i] = write(values[i])
        return dict(zip(self.names, values))


def _converters(declared: type) -> tuple:
    """(read, write) of a field declared by a type: an ``Enum`` by member name, a ``datetime`` in ISO format."""
    if declared is datetime:
        return datetime.fromisoformat, datetime.isoformat
    return declared.__members__.__getitem__, operator.attrgetter("_name_")


OPTIONAL_STR = {str, type(None)}
