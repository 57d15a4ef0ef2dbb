"""Deterministic web-ecosystem simulator with an independent ground-truth oracle.

``crawl`` turns a declarative ecosystem description into a crawl log, and
hands each event to a sink as it is made (``generate`` collects them into a
list): an accept-everything stateful pass over the phase-1 sites, then per
phase-2 site a reject iteration (reject, reload) and an accept iteration.  One
``_Run`` writes every visit, one method per visit kind, and each visit is
``VISIT_START``, ``BANNER_OBSERVED`` unless the site has no banner, then:

- accept phase (``p1-``): ``ACCEPT_CLICKED``, then per embed a request and
  the tracker's cookie writes, which reach the browser's store.
- reject iteration (``p2r-``): the pre-consent requests, ``REJECT_CLICKED``,
  ``RELOAD``, and the pre-consent requests that survive the seeded reload drop.
- accept iteration (``p2a-``, sites with a banner): the pre-consent requests,
  ``ACCEPT_CLICKED``, the consented requests, then the consented trackers'
  cookie writes, which do not reach the store.

A visit whose banner is missing, or offers no way to accept (reject), ends
there with ``NO_BANNER`` (``INTERACTION_FAILED``), after the pre-consent
requests in the measure phase.  The accept phase loads every embed.  The
measure phase skips GPC-honoring trackers when GPC is on, and
``POST_ACCEPT_ONLY`` embeds before consent or ``PRE_CONSENT_ONLY`` ones after
it.  Each measure-phase request may be followed by its tracker's resets and
sync redirects.

The simulated browser attaches stored cookies whose host domain-matches the
request target and whose partition, if any, equals the visited site.  Its
cookie store (``_CookieStore``) is indexed by host, then partition, so a request
reads only the buckets of the target's label suffixes with partition None or
the visited site, and the cost of a request does not grow with the store.

``ground_truth`` computes the cookies the detector must report by direct
enumeration over the configuration, sharing only the seeded derivation
discipline (and the banner predicates) with ``generate``.

A config's records are ``NamedTuple``s read through one ``model.RecordFields``
declaration per kind, and ``validate`` checks what relates them; an error
names its object by its path: ``sites[0]: embeds[1]: bad channel 'SCRIPT'``.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Callable, NamedTuple

from . import _rand
from .errors import InputError, json_object, quoted
from .model import (
    HOST,
    BannerDescriptor,
    BannerLayer,
    BannerType,
    ButtonAction,
    Channel,
    CookieKey,
    Field,
    InteractionAction,
    InteractionStage,
    Iteration,
    Phase,
    RecordFields,
    SiteId,
    VisitOutcome,
    _canonical_host,
    domain_match,
    label_suffixes,
)
from .crawllog import (
    BANNER,
    BannerObserved,
    CookieSet,
    CrawlEvent,
    HttpRequest,
    Interaction,
    VisitEnd,
    VisitStart,
    _BANNER_FIELDS,
)

# --- banner predicates ------------------------------------------------------


@functools.cache
def default_synonyms() -> tuple[frozenset[str], frozenset[str]]:
    """The casefolded button labels that count as reject and as save actions, from the package's data file."""
    obj = json.loads(resources.files("cookietrail").joinpath("data/reject_synonyms.json").read_text("utf-8"))
    return frozenset(map(str.casefold, obj["reject"])), frozenset(map(str.casefold, obj["save"]))


# The enum members the predicates and the crawl read per visit, looked up once:
# a lookup on the class costs about 0.15 µs.
_NO_BANNER = BannerType.NONE
_REJECT, _SETTINGS, _SAVE, _ACCEPT = ButtonAction.REJECT, ButtonAction.SETTINGS, ButtonAction.SAVE, ButtonAction.ACCEPT


def _find_button(layer: BannerLayer, action: ButtonAction, labels: frozenset[str] = frozenset()):
    for button in layer.buttons:
        if button.action is action or button.label.casefold().strip() in labels:
            return button
    return None


def can_reject(banner: BannerDescriptor) -> bool:
    """True when the banner can be rejected without ever accepting.

    A main-layer reject button rejects.  Otherwise the main layer must open a
    settings layer, where a reject button (by action or label) rejects, and so
    does a save button (by action or label) while no non-essential toggle is
    preselected on.
    """
    if banner.banner_type is _NO_BANNER or not banner.layers:
        return False
    main = banner.layers[0]
    if _find_button(main, _REJECT) is not None:
        return True
    if _find_button(main, _SETTINGS) is None or len(banner.layers) < 2:
        return False
    reject, save = default_synonyms()
    settings = banner.layers[1]
    if _find_button(settings, _REJECT, reject) is not None:
        return True
    return (_find_button(settings, _SAVE, save) is not None
            and not any(t.preselected and not t.essential for t in settings.toggles))


def can_accept(banner: BannerDescriptor) -> bool:
    """True when the main layer offers a direct accept button."""
    if banner.banner_type is _NO_BANNER or not banner.layers:
        return False
    return _find_button(banner.layers[0], _ACCEPT) is not None


# --- ecosystem configuration ----------------------------------------------------


class EmbedLoadPolicy(enum.Enum):
    ALWAYS = "ALWAYS"  # fires pre-consent and again on reload / after accept
    PRE_CONSENT_ONLY = "PRE_CONSENT_ONLY"  # initial page load only (and its reload)
    POST_ACCEPT_ONLY = "POST_ACCEPT_ONLY"  # consent-gated, never pre-consent


VALUE_KINDS = ("hex", "digits", "const")


class ValueGenerator(NamedTuple):
    kind: str = "hex"  # one of VALUE_KINDS
    length: int = 16
    const: str = ""

    def generate(self, seed: int, tracker: str, name: str, setter: str) -> str:
        if self.kind == "hex":
            return _rand.hex_token(seed, "cookie-value", tracker, name, setter, length=self.length)
        if self.kind == "digits":
            return _rand.digit_token(seed, "cookie-value", tracker, name, setter, length=self.length)
        if self.kind == "const":
            return self.const
        raise InputError("INVALID_CONFIG", f"unknown value generator kind {quoted(self.kind)}")


class CookieSpec(NamedTuple):
    name: str
    value: ValueGenerator = ValueGenerator()
    lifetime: int | None = 365 * 86400  # whole seconds; None = session cookie


class TrackerSpec(NamedTuple):
    domain: SiteId
    cookies: tuple[CookieSpec, ...]
    honors_gpc: bool = False
    sets_partitioned: bool = False
    sync_partners: tuple[SiteId, ...] = ()
    drop_after_reject_prob: float = 0.0
    resets_on_send: bool = False
    listed: bool = True  # present in the tracker filter list handed to the detector


class EmbedSpec(NamedTuple):
    tracker: SiteId
    policy: EmbedLoadPolicy = EmbedLoadPolicy.ALWAYS
    channel: Channel = Channel.RESOURCE_FETCH


class SiteSpec(NamedTuple):
    site: SiteId
    rank: int
    banner: BannerDescriptor
    embeds: tuple[EmbedSpec, ...] = ()
    paywall: bool = False


class Schedule(NamedTuple):
    phase1: tuple[SiteId, ...]
    phase2: tuple[SiteId, ...]
    gpc_enabled: bool = False


class _Sections(NamedTuple):  # the top-level object of a config's JSON
    sites: tuple[SiteSpec, ...]
    trackers: tuple[TrackerSpec, ...]
    schedule: Schedule


_LIFETIME_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "y": 365 * 86400}


def _parse_lifetime(raw: int | float | str, name: str) -> int | None:
    """A number is whole seconds, a string may end in a d/h/m/s/y unit, and "session" is a session cookie."""
    try:
        if type(raw) is not str:
            return int(raw)
        text = raw.strip().lower()
        if text == "session":
            return None
        unit = 1
        if text and text[-1] in _LIFETIME_UNITS:
            unit = _LIFETIME_UNITS[text[-1]]
            text = text[:-1]
        return int(float(text) * unit)
    except (ValueError, OverflowError):  # not a number, or NaN or infinite
        raise ValueError(f"bad {name} {quoted(raw)}") from None


def _hosts(values: list, name: str, hosts: dict[str, SiteId]) -> tuple[SiteId, ...]:
    """Each string of a list as a canonical host, as ``model.HOST`` reads one; item ``i`` is named ``<name>[<i>]``."""
    canonical = []
    for index, value in enumerate(values):
        where = f"{name}[{index}]"
        if type(value) is not str:
            raise ValueError(f"bad {where} {quoted(value)}")
        canonical.append(_canonical_host(value, where, hosts))
    return tuple(canonical)


def _value_generator(obj: dict, name: str) -> ValueGenerator:
    """A cookie's value generator, which refuses a key it does not know."""
    for key in obj:
        if key not in ValueGenerator._fields:
            raise ValueError(f"{name}: unknown field {quoted(key)}")
    return _GENERATOR_FIELDS.nested(obj, name)


# The wire record of each object in a config.  A field with a default may be
# omitted; a list of objects is read by its kind's ``rows``.
_OFF = Field({bool}, default=False)
_HOSTS = Field({list}, read=_hosts, memo="hosts")
_GENERATOR_FIELDS = RecordFields(
    ValueGenerator, kind=Field({str}, test=f"{{}} in {VALUE_KINDS}", default="hex"), length=Field({int}, default=16),
    const=Field({str}, default=""),
)
_COOKIE_FIELDS = RecordFields(
    CookieSpec, name={str}, value=Field({dict}, read=_value_generator, write=_GENERATOR_FIELDS.encode, default={}),
    lifetime=Field({int, float, str, type(None)}, read=_parse_lifetime, default="365d"),
)
_TRACKER_FIELDS = RecordFields(
    TrackerSpec, domain=HOST, cookies=Field({list}, read=_COOKIE_FIELDS.rows), honors_gpc=_OFF,
    sets_partitioned=_OFF, sync_partners=_HOSTS._replace(default=[]),
    drop_after_reject_prob=Field({int, float}, default=0.0), resets_on_send=_OFF,
    listed=_OFF._replace(default=True),
)
_EMBED_FIELDS = RecordFields(
    EmbedSpec, tracker=HOST, policy=Field(EmbedLoadPolicy, default="ALWAYS"),
    channel=Field(Channel, default="RESOURCE_FETCH"),
)
_SITE_FIELDS = RecordFields(
    SiteSpec, site=HOST, rank={int}, banner=BANNER,
    embeds=Field({list}, read=_EMBED_FIELDS.rows, memo="hosts, banners", default=[]), paywall=_OFF,
)
_SCHEDULE_FIELDS = RecordFields(Schedule, phase1=_HOSTS, phase2=_HOSTS, gpc_enabled=_OFF)
_SECTIONS_FIELDS = RecordFields(
    _Sections, sites=Field({list}, read=_SITE_FIELDS.rows, memo="hosts, banners"),
    trackers=Field({list}, read=_TRACKER_FIELDS.rows, memo="hosts, banners"),
    schedule=Field({dict}, read=_SCHEDULE_FIELDS.nested, memo="hosts, banners"),
)


@dataclass(frozen=True)
class EcosystemConfig:
    sites: tuple[SiteSpec, ...]
    trackers: tuple[TrackerSpec, ...]
    schedule: Schedule

    def validate(self) -> None:
        """Check what relates records, and the ranges, of a loaded config or one built in code (``INVALID_CONFIG``)."""

        def fail(message: str):
            raise InputError("INVALID_CONFIG", message)

        known_trackers, seen = {t.domain for t in self.trackers}, set()
        for index, tracker in enumerate(self.trackers):
            if tracker.domain in seen:
                fail(f"trackers[{index}]: duplicate domain {quoted(tracker.domain)}")
            seen.add(tracker.domain)
            if not 0.0 <= tracker.drop_after_reject_prob <= 1.0:
                fail(f"trackers[{index}]: drop_after_reject_prob {quoted(tracker.drop_after_reject_prob)} "
                     "is outside [0, 1]")
            if not tracker.cookies:
                fail(f"trackers[{index}]: no cookies")
            for position, partner in enumerate(tracker.sync_partners):
                if partner not in known_trackers:
                    fail(f"trackers[{index}]: sync_partners[{position}]: undefined tracker {quoted(partner)}")
        known_sites, none, paywall = set(), BannerType.NONE, BannerType.PAYWALL  # looked up once: ~0.15 µs each
        for index, site in enumerate(self.sites):
            if site.site in known_sites:
                fail(f"sites[{index}]: duplicate site {quoted(site.site)}")
            known_sites.add(site.site)
            if site.rank < 1:
                fail(f"sites[{index}]: rank {quoted(site.rank)} is not positive")
            banner_type, layers = site.banner
            if site.paywall != (banner_type is paywall):
                fail(f"sites[{index}]: paywall flag disagrees with banner type")
            if banner_type is none and layers:
                fail(f"sites[{index}]: banner: banner_type NONE must have no layers")
            embedded = set()
            for position, embed in enumerate(site.embeds):
                if embed.tracker not in known_trackers or embed.tracker in embedded:
                    problem = "duplicate" if embed.tracker in embedded else "undefined"
                    fail(f"sites[{index}]: embeds[{position}]: {problem} tracker {quoted(embed.tracker)}")
                embedded.add(embed.tracker)
        phase1 = set(self.schedule.phase1)
        for phase, scheduled in (("phase1", self.schedule.phase1), ("phase2", self.schedule.phase2)):
            for index, name in enumerate(scheduled):
                if name not in known_sites:
                    fail(f"schedule: {phase}[{index}]: undefined site {quoted(name)}")
                if phase == "phase2" and name in phase1:
                    fail(f"schedule: phase2[{index}]: site {quoted(name)} is in phase1 too")

    def site(self, name: SiteId) -> SiteSpec:
        return self._site_index[name]

    def tracker(self, name: SiteId) -> TrackerSpec:
        return self._tracker_index[name]

    def __post_init__(self):
        self.validate()  # once per construction, ``dataclasses.replace`` included
        object.__setattr__(self, "_site_index", {s.site: s for s in self.sites})
        object.__setattr__(self, "_tracker_index", {t.domain: t for t in self.trackers})

    def listed_tracker_domains(self) -> list[SiteId]:
        return sorted(t.domain for t in self.trackers if t.listed)

    # --- JSON form --------------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "EcosystemConfig":
        """The config a JSON text holds; text that is not a JSON object is ``INVALID_CONFIG``."""
        return cls.from_obj(json_object(text, "INVALID_CONFIG"))

    @classmethod
    def from_obj(cls, obj: dict) -> "EcosystemConfig":
        """Load a config by its declarations; each distinct raw host and banner is read once per load.

        A field error is ``INVALID_CONFIG``, and a bad host keeps its own code.
        """
        try:
            sections = _SECTIONS_FIELDS.decode(obj, {}, {})
        except ValueError as exc:
            raise InputError("INVALID_CONFIG", str(exc)) from None
        return cls(*sections)

    def to_obj(self) -> dict:
        """The JSON object ``from_obj`` reads.  Each distinct banner's is decoded once per call from the JSON its
        declaration writes, so equal banners share one object, as ``from_obj`` makes them share one descriptor."""
        banners: dict[BannerDescriptor, dict] = {}

        def banner_obj(banner: BannerDescriptor) -> dict:
            obj = banners.get(banner)
            if obj is None:
                obj = banners[banner] = json.loads(_BANNER_FIELDS.encode(banner))
            return obj

        return {
            "sites": [
                {
                    "site": s.site,
                    "rank": s.rank,
                    "banner": banner_obj(s.banner),
                    "embeds": [
                        {"tracker": e.tracker, "policy": e.policy.name, "channel": e.channel.name}
                        for e in s.embeds
                    ],
                    "paywall": s.paywall,
                }
                for s in self.sites
            ],
            "trackers": [
                {
                    "domain": t.domain,
                    "cookies": [
                        {
                            "name": c.name,
                            "value": {"kind": c.value.kind, "length": c.value.length, "const": c.value.const},
                            "lifetime": c.lifetime,
                        }
                        for c in t.cookies
                    ],
                    "honors_gpc": t.honors_gpc,
                    "sets_partitioned": t.sets_partitioned,
                    "sync_partners": list(t.sync_partners),
                    "drop_after_reject_prob": t.drop_after_reject_prob,
                    "resets_on_send": t.resets_on_send,
                    "listed": t.listed,
                }
                for t in self.trackers
            ],
            "schedule": {
                "phase1": list(self.schedule.phase1),
                "phase2": list(self.schedule.phase2),
                "gpc_enabled": self.schedule.gpc_enabled,
            },
        }


# --- ground truth ----------------------------------------------------------------


@dataclass(frozen=True)
class GroundTruth:
    expected_findings: frozenset[tuple[CookieKey, SiteId, InteractionStage]]
    expected_jar_keys: frozenset[CookieKey]

    def to_obj(self) -> dict:
        def key_obj(key: CookieKey) -> dict:
            return {"name": key.name, "host": key.host, "partition": key.partition}

        return {
            "expected_jar_keys": [
                key_obj(k) for k in sorted(self.expected_jar_keys, key=lambda k: (k.name, k.host, k.partition or ""))
            ],
            "expected_findings": [
                {**key_obj(k), "sender_site": sender, "stage": stage.name}
                for k, sender, stage in sorted(
                    self.expected_findings,
                    key=lambda t: (t[1], t[0].name, t[0].host, t[0].partition or ""),
                )
            ],
        }


def _embed_target(tracker_domain: SiteId) -> str:
    return f"cdn.{tracker_domain}"


def _reload_dropped(seed: int, site: SiteId, tracker: TrackerSpec) -> bool:
    if tracker.drop_after_reject_prob <= 0.0:
        return False
    return _rand.unit_float(seed, "reload-drop", site, tracker.domain) < tracker.drop_after_reject_prob


def ground_truth(config: EcosystemConfig, seed: int) -> GroundTruth:
    """Enumerate the jar keys and pre-interaction findings the pipeline must report.

    Implemented by direct iteration over the configuration, independently of
    the event-emission path: phase-1 accepted sites contribute their embeds'
    cookies (latest write wins, non-positive lifetimes delete), phase-2
    successfully rejected sites send every attachable non-partitioned cookie
    before interaction, and ambiguous same-name sends resolve exactly like
    the detector's documented value-then-longest-host preference.
    """
    jar_values: dict[CookieKey, str] = {}
    for site_name in config.schedule.phase1:
        site = config.site(site_name)
        if not can_accept(site.banner):
            continue
        for embed in site.embeds:
            tracker = config.tracker(embed.tracker)
            partition = site.site if tracker.sets_partitioned else None
            for cookie in tracker.cookies:
                key = CookieKey(cookie.name, tracker.domain, partition)
                if cookie.lifetime is not None and cookie.lifetime <= 0:
                    jar_values.pop(key, None)
                else:
                    jar_values[key] = cookie.value.generate(seed, tracker.domain, cookie.name, site.site)

    listed = {t.domain for t in config.trackers if t.listed}

    def listed_match(host: str) -> bool:
        return any(domain_match(host, entry) for entry in listed)

    # Phase 1 is over: the non-partitioned cookies a phase-2 send can carry,
    # grouped by host.  A cookie for ``host`` attaches to ``target`` exactly
    # when ``domain_match(target, host)``, that is when ``host`` is one of
    # the target's label suffixes, so only those groups are read.
    by_host: dict[str, list[tuple[CookieKey, str]]] = {}
    for key, value in jar_values.items():
        if key.partition is None:
            by_host.setdefault(key.host, []).append((key, value))

    def attachable(target: str) -> list[tuple[CookieKey, str]]:
        labels = target.split(".")
        return [pair for i in range(len(labels)) for pair in by_host.get(".".join(labels[i:]), ())]

    findings: set[tuple[CookieKey, SiteId, InteractionStage]] = set()

    def record_sends(target: str, sender: SiteId) -> list[tuple[CookieKey, str]]:
        attached = attachable(target)
        by_name: dict[str, list[CookieKey]] = {}
        for key, _ in attached:
            by_name.setdefault(key.name, []).append(key)
        for key, value in attached:
            resolved = _resolve_like_detector(value, by_name[key.name], jar_values)
            if listed_match(resolved.host):
                findings.add((resolved, sender, InteractionStage.BEFORE_INTERACTION))
        return attached

    for site_name in config.schedule.phase2:
        site = config.site(site_name)
        if not can_reject(site.banner):
            continue
        for embed in site.embeds:
            tracker = config.tracker(embed.tracker)
            if embed.policy is EmbedLoadPolicy.POST_ACCEPT_ONLY:
                continue
            if config.schedule.gpc_enabled and tracker.honors_gpc:
                continue
            # Sync redirects fire when the origin request carried at least one
            # of the origin tracker's cookies, and attach the partner's own.
            if record_sends(_embed_target(tracker.domain), site.site) and tracker.sync_partners:
                for partner in tracker.sync_partners:
                    record_sends(f"sync.{partner}", site.site)
    return GroundTruth(frozenset(findings), frozenset(jar_values))


def _resolve_like_detector(value: str, same_name: list[CookieKey], jar_values: dict[CookieKey, str]) -> CookieKey:
    """The value-then-longest-host preference the detector applies to a send of one of ``same_name``.

    ``same_name`` holds every attached cookie of the sent cookie's name.
    """
    return min(same_name, key=lambda key: (jar_values[key] != value, -len(key.host), key.host))


# --- log generation ----------------------------------------------------------------

# ``tuple.__new__(kind, fields)`` builds a NamedTuple record without the Python
# frame of its generated ``__new__``, as ``model``'s compiled codecs do.
_new = tuple.__new__
# More of the enum members the crawl reads per visit (see ``_NO_BANNER``).
_POST_ACCEPT_ONLY, _PRE_CONSENT_ONLY = EmbedLoadPolicy.POST_ACCEPT_ONLY, EmbedLoadPolicy.PRE_CONSENT_ONLY
_RESOURCE_FETCH = Channel.RESOURCE_FETCH
_BEFORE_INTERACTION = InteractionStage.BEFORE_INTERACTION
_ACCEPT_PHASE = (Phase.STATEFUL_ACCEPT, Iteration.ACCEPT_ITER)
_REJECT_ITERATION = (Phase.STATELESS_MEASURE, Iteration.REJECT_ITER)
_ACCEPT_ITERATION = (Phase.STATELESS_MEASURE, Iteration.ACCEPT_ITER)
_ACCEPT_CLICK = (InteractionAction.ACCEPT_CLICKED, InteractionStage.AFTER_ACCEPT)
_REJECT_CLICK = (InteractionAction.REJECT_CLICKED, InteractionStage.AFTER_REJECT)
_RELOAD = (InteractionAction.RELOAD, InteractionStage.AFTER_RELOADED_REJECT)
_ACCEPTED, _REJECTED = VisitOutcome.ACCEPTED, VisitOutcome.REJECTED
_ENDED_NO_BANNER, _INTERACTION_FAILED = VisitOutcome.NO_BANNER, VisitOutcome.INTERACTION_FAILED


class _CookieStore:
    """The simulated browser's cookies, bucketed by host, then by partition.

    Each bucket is an insertion-ordered ``dict[CookieKey, str]`` and keeps the
    ``pop`` / re-insert order of its own keys.  ``domain_match(target, host)``
    holds exactly when ``host`` is one of the target's ``label_suffixes``,
    so ``attached`` walks those suffixes, longest first, and for each looks
    the suffix up once and reads its ``None`` bucket, then its
    ``visited_site`` one, instead of scanning every cookie.

    The callers sort what ``attached`` returns, or pick from it by a key, so
    its order only matters where a key ties.  The header key ``(-len(host),
    host, name, partition)`` is total.  The resets' key ``(name, host)`` and
    the sync key ``(len(value), name, host)`` tie only between two keys that
    differ in partition alone; every stored key's host is its tracker's domain
    and ``sets_partitioned`` is fixed per tracker, so such keys never coexist.
    The output therefore equals that of a full scan of a flat,
    insertion-ordered store.
    """

    def __init__(self):
        self._hosts: dict[str, dict[SiteId | None, dict[CookieKey, str]]] = {}

    def set(self, key: CookieKey, value: str) -> None:
        self._hosts.setdefault(key.host, {}).setdefault(key.partition, {})[key] = value

    def delete(self, key: CookieKey) -> None:
        bucket = self._hosts.get(key.host, {}).get(key.partition)
        if bucket is not None:
            bucket.pop(key, None)

    def attached(self, target: str, visited_site: SiteId) -> list[tuple[CookieKey, str]]:
        """The (key, value) pairs a request to ``target`` from ``visited_site`` carries, unsorted."""
        found: list[tuple[CookieKey, str]] = []
        hosts = self._hosts
        for suffix in label_suffixes(target):
            partitions = hosts.get(suffix)
            if partitions:
                bucket = partitions.get(None)
                if bucket:
                    found.extend(bucket.items())
                bucket = partitions.get(visited_site)
                if bucket:
                    found.extend(bucket.items())
        return found


def _header_order(pair: tuple[CookieKey, str]) -> tuple:
    key = pair[0]
    return -len(key.host), key.host, key.name, key.partition or ""


def _name_host(pair: tuple[CookieKey, str]) -> tuple[str, str]:
    return pair[0].name, pair[0].host


def _carried_order(pair: tuple[CookieKey, str]) -> tuple:
    return len(pair[1]), pair[0].name, pair[0].host


def _attach_header(attached: list[tuple[CookieKey, str]]) -> str:
    """Cookie header for the pairs ``_CookieStore.attached`` found for one request.

    The store looks them up by host and partition over the target's label
    suffixes; the header lists them longest host first.
    """
    if len(attached) > 1:
        attached = sorted(attached, key=_header_order)
    return "; ".join([f"{key.name}={value}" for key, value in attached])


def _set_cookie_attributes(cookie: CookieSpec, tracker: TrackerSpec) -> str:
    """What follows ``name=value`` in the tracker's Set-Cookie header for ``cookie``."""
    parts = ["", f"Domain=.{tracker.domain}"]
    if cookie.lifetime is not None:
        parts.append(f"Max-Age={int(cookie.lifetime)}")
    if tracker.sets_partitioned:
        parts.append("Partitioned")
    return "; ".join(parts)


class _Tracker:
    """What a tracker's requests and cookie writes need, worked out once per crawl."""

    __slots__ = ("spec", "domain", "target", "honors_gpc", "partitioned", "resets_on_send", "syncs", "writes",
                 "reset_attributes")

    def __init__(self, tracker: TrackerSpec):
        self.spec, self.domain, self.target = tracker, tracker.domain, _embed_target(tracker.domain)
        self.honors_gpc, self.partitioned, self.resets_on_send = (
            tracker.honors_gpc, tracker.sets_partitioned, tracker.resets_on_send)
        # Each sync partner's host and its redirect URL, but for the carried value.
        self.syncs = tuple((f"sync.{partner}", f"https://sync.{partner}/match?uid=") for partner in tracker.sync_partners)
        # Each cookie write: its name, value generator, Set-Cookie attributes and whether it deletes.
        self.writes = tuple(
            (cookie.name, cookie.value, _set_cookie_attributes(cookie, tracker),
             cookie.lifetime is not None and cookie.lifetime <= 0)
            for cookie in tracker.cookies
        )
        # A reset re-sets a carried cookie with the attributes of the first spec of its name.
        self.reset_attributes: dict[str, str] = {}
        for name, _, attributes, _ in self.writes:
            self.reset_attributes.setdefault(name, attributes)


def generate(config: EcosystemConfig, seed: int, *, run_label: str = "") -> list[CrawlEvent]:
    """The crawl log of one run as a list of its events, collected from ``crawl``; equal for equal (config, seed).

    ``serialize(generate(...))`` is byte for byte the log that ``crawl`` writes
    through ``crawllog.log_writer``.
    """
    events: list[CrawlEvent] = []
    crawl(config, seed, events.append, run_label=run_label)
    return events


def crawl(config: EcosystemConfig, seed: int, sink: Callable[[CrawlEvent], object], *, run_label: str = "") -> None:
    """Hand the crawl log of one run to ``sink``, one event at a time, in log order; deterministic in (config, seed).

    No event is kept once ``sink`` has it, so a log written through
    ``crawllog.log_writer`` takes memory per visit, not per crawl.
    ``run_label`` prefixes every visit id so logs from several runs can be
    merged without visit-id collisions.
    """
    run = _Run(config, seed, sink)
    prefix = f"{run_label}-" if run_label else ""
    for position, site_name in enumerate(config.schedule.phase1):
        run.accept_phase_visit(config.site(site_name), f"{prefix}p1-{position:05d}")
    for position, site_name in enumerate(config.schedule.phase2):
        site = config.site(site_name)
        run.reject_iteration(site, f"{prefix}p2r-{position:05d}")
        if site.banner.banner_type is not _NO_BANNER:
            run.accept_iteration(site, f"{prefix}p2a-{position:05d}")


class _Run:
    """One crawl being written: its config and seed, its sink, the events emitted so far and the browser's store.

    There is one method per visit kind.  A visit is written one event at a
    time: each event goes to the sink as it is made, numbered by a counter,
    and no event list is kept.  The run keeps the open visit's id, its site
    and its stage, which is the stage the last click moved it to; every
    request and cookie write of the visit carries that stage.  Each tracker's
    hosts, URLs and Set-Cookie attributes are worked out once per run
    (``_Tracker``).
    """

    def __init__(self, config: EcosystemConfig, seed: int, sink: Callable[[CrawlEvent], object]):
        self.config = config
        self.seed = seed
        self.sink = sink
        self.gpc = config.schedule.gpc_enabled
        self.trackers = {tracker.domain: _Tracker(tracker) for tracker in config.trackers}
        self.emitted = 0  # the events handed to the sink, so the next one's event_index
        self.store = _CookieStore()
        self.visit_id = ""
        self.site: SiteSpec | None = None
        self.stage = _BEFORE_INTERACTION

    def accept_phase_visit(self, site: SiteSpec, visit_id: str) -> None:
        """Accept the banner, then load every embed; each tracker's cookie writes reach the store."""
        self._start(site, visit_id, *_ACCEPT_PHASE)
        if site.banner.banner_type is _NO_BANNER:
            self._end(_ENDED_NO_BANNER)
            return
        if not can_accept(site.banner):
            self._end(_INTERACTION_FAILED)
            return
        self._click(*_ACCEPT_CLICK)
        for embed in site.embeds:
            tracker = self.trackers[embed.tracker]
            self._request(tracker.target, f"https://{tracker.target}/collect?site={site.site}", embed.channel)
            self._write_cookies(tracker, stored=True)
        self._end(_ACCEPTED)

    def reject_iteration(self, site: SiteSpec, visit_id: str) -> None:
        """Load the page, reject the banner and reload it, which drops some embeds, seeded per (site, tracker)."""
        self._start(site, visit_id, *_REJECT_ITERATION)
        embeds = self._measured_embeds(_POST_ACCEPT_ONLY)
        self._embed_requests(embeds)
        if site.banner.banner_type is _NO_BANNER:
            self._end(_ENDED_NO_BANNER)
            return
        if not can_reject(site.banner):
            self._end(_INTERACTION_FAILED)
            return
        self._click(*_REJECT_CLICK)
        # Rejection triggers no additional sends; the reload re-issues the
        # pre-consent embeds minus the seeded per-(site, tracker) drops.
        self._click(*_RELOAD)
        self._embed_requests(
            [(channel, tracker) for channel, tracker in embeds
             if not _reload_dropped(self.seed, site.site, tracker.spec)]
        )
        self._end(_REJECTED)

    def accept_iteration(self, site: SiteSpec, visit_id: str) -> None:
        """Load the page and accept its banner; the consented trackers' cookie writes never reach the store."""
        self._start(site, visit_id, *_ACCEPT_ITERATION)
        self._embed_requests(self._measured_embeds(_POST_ACCEPT_ONLY))
        if not can_accept(site.banner):
            self._end(_INTERACTION_FAILED)
            return
        self._click(*_ACCEPT_CLICK)
        consented = self._measured_embeds(_PRE_CONSENT_ONLY)
        self._embed_requests(consented)
        # Accepting triggers fresh cookie writes from every consented tracker;
        # these happen outside the accept phase and never reach the jar.
        for _, tracker in consented:
            self._write_cookies(tracker, stored=False)
        self._end(_ACCEPTED)

    # --- the steps the visits share ---------------------------------------------

    def _emit(self, cls, *fields) -> None:
        """Hand the sink a ``cls`` record of the open visit; ``fields`` are those between its visit id and index."""
        self.sink(_new(cls, (self.visit_id, *fields, self.emitted)))
        self.emitted += 1

    def _start(self, site: SiteSpec, visit_id: str, phase: Phase, iteration: Iteration) -> None:
        """Open a visit: VISIT_START, then BANNER_OBSERVED unless the site has no banner."""
        self.visit_id, self.site, self.stage = visit_id, site, _BEFORE_INTERACTION
        self._emit(VisitStart, site.site, site.rank, phase, iteration, self.gpc)
        if site.banner.banner_type is not _NO_BANNER:
            self._emit(BannerObserved, site.banner)

    def _click(self, action: InteractionAction, stage: InteractionStage) -> None:
        self.stage = stage
        self._emit(Interaction, action, stage)

    def _end(self, outcome: VisitOutcome) -> None:
        self._emit(VisitEnd, outcome)

    def _measured_embeds(self, skipped: EmbedLoadPolicy) -> list[tuple[Channel, _Tracker]]:
        """The channel and tracker of each measure-phase embed that loads: all but ``skipped`` and GPC-honoring ones."""
        embeds = []
        for embed in self.site.embeds:
            tracker = self.trackers[embed.tracker]
            if embed.policy is not skipped and not (self.gpc and tracker.honors_gpc):
                embeds.append((embed.channel, tracker))
        return embeds

    def _request(
        self, target: str, url: str, channel: Channel, parent_url: str | None = None
    ) -> list[tuple[CookieKey, str]]:
        """Write a request to ``target`` with the stored cookies it carries, and return those pairs."""
        attached = self.store.attached(target, self.site.site)
        self._emit(HttpRequest, self.stage, target, url, channel, _attach_header(attached), parent_url)
        return attached

    def _embed_requests(self, embeds: list[tuple[Channel, _Tracker]]) -> None:
        """One measure-phase request per embed, each followed by its tracker's resets and sync redirects."""
        for channel, tracker in embeds:
            origin_url = f"https://{tracker.target}/px?site={self.site.site}"
            attached = self._request(tracker.target, origin_url, channel)
            if not attached:
                continue
            if tracker.resets_on_send:
                for key, value in sorted(attached, key=_name_host):
                    attributes = tracker.reset_attributes.get(key.name)
                    if attributes is not None and key.host == tracker.domain:
                        self._emit(CookieSet, self.stage, f"{key.name}={value}{attributes}", tracker.target)
            if tracker.syncs:
                # Redirect chains carry the most identifier-like (longest) value.
                carried = max(attached, key=_carried_order)[1]
                for host, url in tracker.syncs:
                    self._request(host, url + carried, _RESOURCE_FETCH, origin_url)

    def _write_cookies(self, tracker: _Tracker, *, stored: bool) -> None:
        """The tracker's cookie writes on the visited site after an accept; ``stored`` applies them to the store."""
        site = self.site.site
        partition = site if tracker.partitioned else None
        for name, generator, attributes, deletes in tracker.writes:
            value = generator.generate(self.seed, tracker.domain, name, site)
            self._emit(CookieSet, self.stage, f"{name}={value}{attributes}", tracker.target)
            if not stored:
                continue
            key = _new(CookieKey, (name, tracker.domain, partition))
            if deletes:
                self.store.delete(key)
            else:
                self.store.set(key, value)
