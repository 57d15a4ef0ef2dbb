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
    """The exact JSON types each field of one record kind may have, in record order.

    ``values`` checks a record against them in one set lookup: every allowed
    combination of field types is precomputed.  Types are exact: a boolean is
    not an ``event_index``.
    """

    def __init__(self, **types: set[type]):
        self.types = types
        self.get = operator.itemgetter(*types)
        self.rows = frozenset(itertools.product(*types.values()))

    def values(self, obj) -> tuple:
        """The record's field values in order; ``ValueError`` names the first missing or mistyped one."""
        if not isinstance(obj, dict):
            raise ValueError("record is not an object")
        try:
            values = self.get(obj)
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from None
        if tuple(map(type, values)) not in self.rows:
            for (name, types), value in zip(self.types.items(), values):
                if type(value) not in types:
                    raise ValueError(f"bad {name} {value!r}")
        return values


OPTIONAL_STR = {str, type(None)}
