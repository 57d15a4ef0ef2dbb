"""Core domain types shared across the measurement pipeline.

Hosts and site identities are plain lowercase strings and
:func:`canonicalize_host` is the single normalization entry point.  Time is
virtual throughout: event ordering uses monotonic event indices assigned at
log-parse time, and cookie lifetimes are carried as seconds relative to
:data:`CRAWL_EPOCH` rather than wall-clock instants.

Cookie keys, jar records and banners here, like the jar's history rows and
the detector's findings, are immutable ``NamedTuple``s: built, hashed and
compared in C on every jar lookup.  A record equals any tuple of equal
fields, whatever its kind, so kinds are told apart by ``type()``.  Each wire
record kind is declared once, as a ``RecordFields``: every codec's ``encode``
writes what its ``decode`` reads.
"""

from __future__ import annotations

import enum
import functools
import json
import re
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _string
from typing import Callable, NamedTuple

from .errors import InputError, quoted

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


class BannerButton(NamedTuple):
    label: str
    action: ButtonAction


class BannerToggle(NamedTuple):
    category: str
    preselected: bool
    essential: bool


class BannerLayer(NamedTuple):
    buttons: tuple[BannerButton, ...] = ()
    toggles: tuple[BannerToggle, ...] = ()


class BannerDescriptor(NamedTuple):
    """Static description of a consent banner as seen by the crawler; a NONE banner has no layers."""

    banner_type: BannerType
    layers: tuple[BannerLayer, ...] = ()


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
        raise InputError("EMPTY_HOST", f"hostname {quoted(raw)} has no labels")
    out = []
    for label in host.split("."):
        if not label:
            raise InputError("INVALID_LABEL", f"empty label in {quoted(raw)}")
        if label.isascii():
            if not _LABEL_RE.fullmatch(label):
                raise InputError("INVALID_LABEL", f"illegal character in label {quoted(label)}")
            encoded = label
        else:
            try:
                encoded = label.encode("idna").decode("ascii")
            except UnicodeError as exc:
                raise InputError("INVALID_LABEL", f"IDNA conversion failed for {quoted(label)}: {exc}") from None
        if len(encoded) > 63:
            raise InputError("INVALID_LABEL", f"label longer than 63 octets: {encoded[:20]}...")
        out.append(encoded)
    return ".".join(out)


def domain_match(target_host: str, cookie_host: str) -> bool:
    """True when a cookie stored for ``cookie_host`` covers ``target_host``."""
    return target_host == cookie_host or target_host.endswith("." + cookie_host)


@functools.lru_cache
def label_suffixes(host: str) -> tuple[str, ...]:
    """The hosts ``h`` with ``domain_match(host, h)``: its label suffixes, longest first (``a.b.c``, ``b.c``, ``c``).

    The pipeline's one statement of domain-match: the cookie hosts a request
    carries, the list entries that make a host a tracker and the names suffix
    rules are looked up by.  Cached: a crawl sends to few distinct hosts.
    """
    labels = host.split(".")
    return tuple(".".join(labels[i:]) for i in range(len(labels)))


# --- wire records ----------------------------------------------------------------

_REQUIRED = object()  # the default of a field the wire may not omit

# The one canonical JSON encoder: a value as ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` writes it.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class Field(NamedTuple):
    """A wire field that is more than a set of JSON types or an ``Enum``.

    ``types`` are the exact JSON types the field may have, or an ``Enum``
    (a member's name), and ``test`` a further check of such a value, as source
    with ``{}`` for the value.  ``read``, if given, checks or converts every
    value but null once each field's type has passed: ``read(value, name)``,
    or ``read(value, name, *memos)`` with the memos of one load that ``memo``
    names (``"hosts"``, ``"banners"`` or ``"hosts, banners"``).  It raises
    ``ValueError`` or ``InputError`` itself.  A field that a declaration's
    ``rows`` or ``nested`` reads is written by that declaration's ``encode``;
    one with a ``read`` of its own names its ``write``: ``write(value)``, or
    ``write(value, banners)`` if ``memo`` names the banners.  Any other value
    is written as its type decides.  A field the wire may omit reads as its
    ``default``, a wire value.
    """

    types: set | enum.EnumMeta
    test: str = ""
    read: Callable | None = None
    memo: str = ""
    write: Callable | None = None
    default: object = _REQUIRED


def _canonical_host(raw: str, name: str, hosts: dict) -> str:
    """``canonicalize_host(raw)``, once per distinct host that one log's ``hosts`` memo has seen."""
    host = hosts.get(raw)
    if host is None:
        try:
            host = hosts[raw] = canonicalize_host(raw)
        except InputError as exc:
            raise InputError(exc.code, f"bad {name} {quoted(raw)} ({exc.message})") from None
    return host


def _iso_date(value: str, name: str) -> datetime:
    try:
        return datetime.fromisoformat(value)
    except ValueError:
        raise ValueError(f"bad {name} {quoted(value)}") from None


def _string_list(value: list, name: str) -> list:
    """A list whose items are all strings, checked in one C loop."""
    try:
        "".join(value)
    except TypeError:
        raise ValueError(f"bad {name} {quoted(value)}") from None
    return value


def _already_canonical(raw: str, name: str, hosts: dict) -> str:
    """``raw``, refused unless it is its own canonical form; once per distinct string of one load's ``hosts``."""
    if raw not in hosts:
        try:
            canonical = canonicalize_host(raw) == raw
        except InputError:
            canonical = False
        if not canonical:
            raise ValueError(f"bad {name} {quoted(raw)} (not canonical)")
        hosts[raw] = raw
    return raw


def _canonical_list(value: list, name: str, hosts: dict) -> list:
    """A list of strings, each its own canonical form, as ``_already_canonical`` checks ``<name>[<i>]``."""
    for index, raw in enumerate(_string_list(value, name)):
        _already_canonical(raw, f"{name}[{index}]", hosts)
    return value


OPTIONAL_STR = {str, type(None)}
POSITIVE_INT = Field({int}, test="{} >= 1")
HOST = Field({str}, read=_canonical_host, memo="hosts")  # read as its canonical form
STRINGS = Field({list}, read=_string_list)  # a list of strings
# A host or site that a file this program wrote holds, so canonical already; a list of them.
CANONICAL = Field({str}, read=_already_canonical, memo="hosts")
OPTIONAL_CANONICAL = Field(OPTIONAL_STR, read=_already_canonical, memo="hosts")
CANONICAL_LIST = Field({list}, read=_canonical_list, memo="hosts")
_DATE = Field({str}, read=_iso_date)  # a ``datetime`` in ISO format


class RecordFields:
    """The wire codec of one record kind: ``encode`` and ``decode``, compiled from its declaration.

    The kind is a ``NamedTuple``, and each keyword declares one of its fields
    on the wire, in the kind's field order.  A field is declared by the set of
    exact JSON types it may have, by an ``Enum`` class (a string: the member's
    name), by ``datetime`` (a string: its ``isoformat()``) or by a ``Field``.
    A string declares the constant tag of a crawl-log event (``kind``),
    written but not held; an event's last field, ``event_index``, is not on
    the wire but numbered by its reader.  Names that start with ``CookieKey``'s
    are the kind's first field, flattened.  A ``wire_only`` field is checked
    on read and not held.  Construction raises ``TypeError`` unless the names
    held are the kind's fields.  A ``positional`` record is on the wire as the
    list of all its fields' values, in order.

    ``encode(record, *wire_only)``, given the JSON text of each wire-only
    field, is the record's line, byte for byte ``json.dumps(obj,
    sort_keys=True, separators=(",", ":"))`` of its object (or list), which
    ``decode(obj)`` reads back: it checks the fields in declared order in three
    passes (each field the wire may not omit is present, each has its type,
    each value reads) and returns the record.  A failed check raises
    ``ValueError("missing field '<f>'")`` or ``ValueError("bad <f> <value>")``
    (``errors.quoted``), or what the field's ``read`` raises.  A log event's codec takes the memos of
    one log: ``encode(event, banners)`` and ``decode(obj, event_index, hosts,
    banners)``, and another kind with a field that takes a memo
    ``encode(record, banners)`` and ``decode(obj, hosts, banners)``.
    ``nested`` and ``rows`` read a field that holds a record or a list of them.
    """

    def __init__(self, kind: type, /, *, wire_only: tuple[str, ...] = (), positional: bool = False, **fields):
        tags = [spec for spec in fields.values() if isinstance(spec, str)]
        held = [name for name, spec in fields.items() if name not in wire_only and not isinstance(spec, str)]
        flat = held[:3] == list(CookieKey._fields)
        expected = [*CookieKey._fields, *kind._fields[1:]] if flat else list(kind._fields)
        if tags and expected[-1] == "event_index":
            expected.pop()
        if held != expected or len(tags) > 1 or not all(map(str.isidentifier, [*fields, *tags])):
            raise TypeError(f"{kind.__name__} is declared as {held}, not as its fields {expected}")
        self.tag = tags[0] if tags else None
        self.arity = len(held) if positional else None  # a positional record's number of values
        self.memos = bool(tags) or any(type(spec) is Field and spec.memo for spec in fields.values())
        namespace = {"_new": tuple.__new__, "_kind": kind, "_key": CookieKey, "_string": _string,
                     "_json": canonical_json, "_int": int.__repr__, "_quoted": quoted}
        exec(_compile(fields, wire_only, held, flat, self, namespace), namespace)
        self.decode = namespace["decode"]
        self.encode = namespace["encode"]

    def nested(self, obj, name: str, *memos):
        """``decode(obj, *memos)`` of the record that ``name`` holds; each error starts ``<name>: ``."""
        try:
            if type(obj) is not (list if self.arity else dict) or self.arity and len(obj) != self.arity:
                raise ValueError(f"not a list of {self.arity} values" if self.arity else "not an object")
            return self.decode(obj, *memos)
        except InputError as exc:
            raise InputError(exc.code, f"{name}: {exc.message}") from None
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None

    def rows(self, objs: list, name: str, *memos) -> tuple:
        """Each record of the list ``objs`` that ``name`` holds, read as ``nested`` reads ``<name>[<i>]``, from 0.

        The rows are decoded in one loop, with no name built.  From the first
        row that fails on, ``nested`` reads them, so a row that fails is
        named; a decode depends only on its row and on memos that hold what
        read, so that row fails there as it did in the loop.
        """
        decode, shape, arity = self.decode, list if self.arity else dict, self.arity
        records = []
        try:
            for obj in objs:
                if type(obj) is not shape or arity and len(obj) != arity:
                    break
                records.append(decode(obj, *memos))
            else:
                return tuple(records)
        except (InputError, ValueError):
            pass
        start = len(records)
        records += [self.nested(obj, f"{name}[{index}]", *memos) for index, obj in enumerate(objs[start:], start)]
        return tuple(records)


def _compile(fields: dict, wire_only: tuple, held: list, flat: bool, codec: RecordFields, namespace: dict) -> str:
    """The source of a declaration's ``decode`` and ``encode``; the objects they use go into ``namespace``."""
    fetched, omitted, typed, valued = [], [], [], []
    texts = {}  # each field's JSON text in ``encode``'s f-string, by name
    memos = ["hosts", "banners"] if codec.memos else []
    for i, (name, spec) in enumerate(fields.items()):
        v = f"f{i}"
        if isinstance(spec, str):
            texts[name] = _string(spec)
            continue
        if isinstance(spec, Field):
            field = spec
        elif spec is datetime:
            field = _DATE
        else:  # a set of JSON types, or an Enum read from its member's name
            field = Field(spec)
        enum_kind = field.types if isinstance(field.types, enum.EnumMeta) else None
        nullable = enum_kind is None and type(None) in field.types
        types = {str} if enum_kind else field.types - {type(None)}
        inner = getattr(field.read, "__self__", None)  # the declaration whose ``rows`` or ``nested`` reads the field
        inner = inner if isinstance(inner, RecordFields) else None
        namespace[f"_t{i}"] = next(iter(types)) if len(types) == 1 else frozenset(types)
        namespace[f"_r{i}"], namespace[f"_d{i}"] = field.read, field.default
        namespace[f"_w{i}"] = inner.encode if inner else field.write

        if field.default is _REQUIRED:  # a positional record's values are all unpacked instead
            fetched.append(f"        {v} = obj[{name!r}]")
        else:
            omitted.append(f"    {v} = obj.get({name!r}, _d{i})")
        bad = f"type({v}) {'is not' if len(types) == 1 else 'not in'} _t{i}"
        if field.test:
            bad += f" or not {field.test.format(v)}"
        if nullable:
            bad = f"{v} is not None and ({bad})"
        typed.append(f'    if {bad}:\n        raise ValueError(f"bad {name} {{_quoted({v})}}")')
        if enum_kind:
            namespace[f"_r{i}"] = dict(enum_kind.__members__)
            valued.append(f'    try:\n        {v} = _r{i}[{v}]\n    except KeyError:\n'
                          f'        raise ValueError(f"bad {name} {{_quoted({v})}}") from None')
        elif field.read is not None:
            read = f"{v} = _r{i}({v}, {name!r}{', ' + field.memo if field.memo else ''})"
            valued.append(f"    if {v} is not None:\n        {read}" if nullable else f"    {read}")

        memo = ", banners" if (inner.memos if inner else "banners" in field.memo) else ""  # what ``_w{i}`` takes
        if name in wire_only:
            texts[name] = f"{{{name}}}"
        elif inner and field.read.__func__ is RecordFields.rows:
            rows = f"[_w{i}(x{memo}) for x in {v}]" if memo else f"map(_w{i}, {v})"
            texts[name] = f'[{{",".join({rows})}}]'
        elif inner or field.write:
            texts[name] = f"{{_w{i}({v}{memo})}}"
        elif enum_kind:
            texts[name] = f'"{{{v}._name_}}"'
        elif spec is datetime:
            texts[name] = f'"{{{v}.isoformat()}}"'
        elif types in ({str}, {int}, {bool}):
            # An int as ``json.dumps`` writes it, a bool included.
            text = f'"true" if {v} is True else "false" if {v} is False else _int({v})'
            text = f"_string({v})" if types == {str} else text
            texts[name] = f'{{"null" if {v} is None else {text}}}' if nullable else f"{{{text}}}"
        else:
            texts[name] = f"{{_json({v})}}"

    variables = [f"f{list(fields).index(name)}" for name in held]
    built, unpacked = list(variables), list(variables)
    if flat:
        built[:3] = [f"_new(_key, ({', '.join(variables[:3])}))"]
        unpacked[:3] = [f"({', '.join(variables[:3])})"]
    if codec.tag:
        built.append("event_index")
        unpacked.append("_")
    if codec.arity:
        fetched = [f"    {', '.join(variables)}, = obj"]
        written = f"[{','.join(texts[name] for name in held)}]"
    else:
        if fetched:
            fetched = ["    try:", *fetched, "    except KeyError as exc:",
                       '        raise ValueError(f"missing field {exc}") from None']
        written = f"{{{{{','.join(f'{_string(name)}:{texts[name]}' for name in sorted(texts))}}}}}"
    return "\n".join([
        f"def decode({', '.join(['obj', *(['event_index'] if codec.tag else []), *memos])}):",
        *fetched, *omitted, *typed, *valued,
        f"    return _new(_kind, ({', '.join(built)},))",
        f"def encode({', '.join(['r', *(['banners'] if memos else wire_only)])}):",
        f"    {', '.join(unpacked)}, = r",
        f"    return f'{written}'",
        "",
    ])
