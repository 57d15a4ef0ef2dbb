"""Shared builders for tests: banner shapes, ecosystem configs, pipeline runs."""

from __future__ import annotations

import json
import random

from cookietrail import crawllog, reports, simulator as sim
from cookietrail.cli import _staged_outputs
from cookietrail.crawllog import BannerObserved, CookieSet, HttpRequest, RunIndex, VisitEnd, VisitStart, VisitSummary
from cookietrail.detector import DetectionResult, Detector
from cookietrail.jar import CookieJar, build_jar
from cookietrail.model import (
    BannerButton,
    BannerDescriptor,
    BannerLayer,
    BannerToggle,
    BannerType,
    ButtonAction,
)
from cookietrail.psl import load_psl

SIM_PSL = load_psl("com\nnet\norg\nexample\nio\n")


def object_path(path: tuple) -> str:
    """The object path that an ecosystem config's error gives the field at ``path``: ``sites[0]: ``, ``schedule: ``."""
    names = []
    for key in path[:-1]:
        if type(key) is int:
            names[-1] += f"[{key}]"
        else:
            names.append(key)
    return "".join(f"{name}: " for name in names)


def set_path(obj, path, value) -> None:
    """Set the item of ``obj`` at ``path``, a sequence of keys and list indices, to ``value``."""
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def _field_paths(value, prefix=()):
    """The path of every value that a JSON object or list holds, at any depth: object keys and list indices."""
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, item in items:
        yield prefix + (key,)
        yield from _field_paths(item, prefix + (key,))


# How each mutation replaces a value: by one of another JSON type, by null, by nothing, or by a huge string.
_MUTATIONS = {
    "wrong type": lambda value: 0 if type(value) in (str, bool, list, dict) else "0",
    "null": lambda value: None,
    "missing": None,
    "huge": lambda value: "X" * 100_000,
}


def mutants(obj):
    """(mutation, dotted path, mutated copy of ``obj``) for each of ``_MUTATIONS`` of each value that the JSON
    object ``obj`` holds, at any depth, path by path."""
    for path in _field_paths(obj):
        dotted = ".".join(map(str, path))
        for how, mutate in _MUTATIONS.items():
            mutated = json.loads(json.dumps(obj))
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if mutate is None:
                del parent[path[-1]]
            else:
                parent[path[-1]] = mutate(parent[path[-1]])
            yield how, dotted, mutated


def banner_decodes(monkeypatch) -> list:
    """The banner objects that ``crawllog.decode_banner`` decodes from here on, in order; a memo hit decodes none."""
    decoded, nested = [], crawllog._BANNER_FIELDS.nested
    monkeypatch.setattr(crawllog._BANNER_FIELDS, "nested", lambda obj, name: decoded.append(obj) or nested(obj, name))
    return decoded


def save_jar(jar: CookieJar, path) -> None:
    """Write ``jar``'s snapshot to the file at ``path``."""
    with open(path, "w", encoding="utf-8") as out:
        jar.save(out)


def write_report(directory, inputs: reports.ReportInputs) -> dict:
    """Write the report suite into ``directory`` through the CLI's staged outputs; returns the manifest."""
    with _staged_outputs() as open_output:
        return reports.write_report_suite(directory, inputs, open_output)


def native_banner(*, reject: bool = True) -> BannerDescriptor:
    buttons = [BannerButton("Accept All", ButtonAction.ACCEPT)]
    if reject:
        buttons.append(BannerButton("Reject All", ButtonAction.REJECT))
    return BannerDescriptor(BannerType.NATIVE, (BannerLayer(buttons=tuple(buttons)),))


def cmp_banner(
    *,
    settings_reject: bool = False,
    settings_save: bool = True,
    preselected_on: bool = False,
    save_label: str = "Save & Exit",
) -> BannerDescriptor:
    """Two-layer banner whose reject path (if any) sits behind Settings."""
    main = BannerLayer(
        buttons=(
            BannerButton("Accept All", ButtonAction.ACCEPT),
            BannerButton("Settings", ButtonAction.SETTINGS),
        )
    )
    settings_buttons = []
    if settings_reject:
        settings_buttons.append(BannerButton("Reject All", ButtonAction.REJECT))
    if settings_save:
        settings_buttons.append(BannerButton(save_label, ButtonAction.SAVE))
    settings = BannerLayer(
        buttons=tuple(settings_buttons),
        toggles=(
            BannerToggle("essential", True, True),
            BannerToggle("analytics", preselected_on, False),
        ),
    )
    return BannerDescriptor(BannerType.CMP, (main, settings))


def paywall_banner() -> BannerDescriptor:
    return BannerDescriptor(
        BannerType.PAYWALL,
        (BannerLayer(buttons=(BannerButton("Accept & Continue", ButtonAction.ACCEPT),
                              BannerButton("Subscribe", ButtonAction.OTHER))),),
    )


def simple_config(
    *,
    phase1_sites: int = 2,
    phase2_sites: int = 2,
    trackers: int = 1,
    gpc_enabled: bool = False,
) -> sim.EcosystemConfig:
    tracker_specs = tuple(
        sim.TrackerSpec(f"tracker{i}.net", (sim.CookieSpec(f"id{i}"),)) for i in range(trackers)
    )
    embeds = tuple(sim.EmbedSpec(t.domain) for t in tracker_specs)
    sites = tuple(
        sim.SiteSpec(f"site{i}.com", i + 1, native_banner(), embeds)
        for i in range(phase1_sites + phase2_sites)
    )
    return sim.EcosystemConfig(
        sites=sites,
        trackers=tracker_specs,
        schedule=sim.Schedule(
            phase1=tuple(s.site for s in sites[:phase1_sites]),
            phase2=tuple(s.site for s in sites[phase1_sites:]),
            gpc_enabled=gpc_enabled,
        ),
    )


def random_banner(rng: random.Random) -> BannerDescriptor:
    roll = rng.random()
    if roll < 0.10:
        return BannerDescriptor(BannerType.NONE)
    if roll < 0.45:
        return native_banner(reject=rng.random() < 0.9)
    if roll < 0.55:
        return paywall_banner()
    # CMP shapes: direct settings reject, save-as-reject, risky preselection,
    # or no reject path at all.
    shape = rng.random()
    if shape < 0.4:
        return cmp_banner(settings_reject=True)
    if shape < 0.7:
        return cmp_banner(settings_save=True, save_label=rng.choice(["Save & Exit", "Confirm", "Accept Selected"]))
    if shape < 0.85:
        return cmp_banner(settings_save=True, preselected_on=True)
    return cmp_banner(settings_reject=False, settings_save=False)


def random_config(rng: random.Random, *, n_sites: int | None = None, gpc: bool | None = None) -> sim.EcosystemConfig:
    """A randomized ecosystem covering every feature the oracle must handle."""
    n_trackers = rng.randint(2, 6)
    trackers = []
    for i in range(n_trackers):
        domain = f"t{i}.net"
        nested = i >= 1 and rng.random() < 0.15
        # Nested-domain tracker pairs exercise the suffix-matching paths.
        if nested:
            domain = f"x{i}.t{i - 1}.net"
        cookies = []
        for j in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.7:
                value = sim.ValueGenerator("hex", length=rng.choice([12, 16, 24]))
            elif kind < 0.85:
                value = sim.ValueGenerator("digits", length=rng.choice([6, 14]))
            else:
                value = sim.ValueGenerator("const", const=rng.choice(["true", "YES", "1"]))
            lifetime = rng.choice([None, 3600, 86400, 30 * 86400, 365 * 86400, 2 * 365 * 86400, -1])
            # A nested tracker reusing its parent's cookie name forces the
            # detector's ambiguity tie-break on shared-value sends.
            name = f"c{i - 1}_0" if nested and j == 0 and rng.random() < 0.5 else f"c{i}_{j}"
            cookies.append(sim.CookieSpec(name, value, lifetime))
        trackers.append(
            sim.TrackerSpec(
                domain=domain,
                cookies=tuple(cookies),
                honors_gpc=rng.random() < 0.3,
                sets_partitioned=rng.random() < 0.2,
                sync_partners=(f"t{rng.randrange(n_trackers)}.net",) if rng.random() < 0.2 and i > 0 else (),
                drop_after_reject_prob=rng.choice([0.0, 0.25, 0.5]),
                resets_on_send=rng.random() < 0.2,
                listed=rng.random() < 0.9,
            )
        )
    tracker_domains = [t.domain for t in trackers]
    # Sync partners must reference defined trackers.
    trackers = [
        sim.TrackerSpec(
            domain=t.domain,
            cookies=t.cookies,
            honors_gpc=t.honors_gpc,
            sets_partitioned=t.sets_partitioned,
            sync_partners=tuple(p for p in t.sync_partners if p in tracker_domains and p != t.domain),
            drop_after_reject_prob=t.drop_after_reject_prob,
            resets_on_send=t.resets_on_send,
            listed=t.listed,
        )
        for t in trackers
    ]
    total_sites = n_sites if n_sites is not None else rng.randint(6, 24)
    phase1_count = max(1, total_sites // 2)
    sites = []
    for i in range(total_sites):
        n_embeds = rng.randint(0, min(4, n_trackers))
        embed_domains = rng.sample(tracker_domains, n_embeds)
        embeds = tuple(
            sim.EmbedSpec(
                tracker=d,
                policy=rng.choices(
                    [sim.EmbedLoadPolicy.ALWAYS, sim.EmbedLoadPolicy.PRE_CONSENT_ONLY, sim.EmbedLoadPolicy.POST_ACCEPT_ONLY],
                    weights=[0.7, 0.15, 0.15],
                )[0],
                channel=rng.choices([sim.Channel.RESOURCE_FETCH, sim.Channel.API_CALL], weights=[0.73, 0.27])[0],
            )
            for d in embed_domains
        )
        banner = random_banner(rng)
        sites.append(
            sim.SiteSpec(
                site=f"site{i}.com",
                rank=i + 1,
                banner=banner,
                embeds=embeds,
                paywall=banner.banner_type is BannerType.PAYWALL,
            )
        )
    return sim.EcosystemConfig(
        sites=tuple(sites),
        trackers=tuple(trackers),
        schedule=sim.Schedule(
            phase1=tuple(s.site for s in sites[:phase1_count]),
            phase2=tuple(s.site for s in sites[phase1_count:]),
            gpc_enabled=gpc if gpc is not None else rng.random() < 0.3,
        ),
    )


def index_run(events) -> RunIndex:
    """The run index of whole visits' events, built by a walk over an event list.

    The reference ``crawllog.parse_log_text`` must agree with: it builds the
    index as it parses, with no event list.  Events keep the ``event_index``
    they carry, so number them first to compare with a parse.
    """
    starts: dict[str, VisitStart] = {}
    banners: dict[str, BannerType] = {}
    visits: dict = {}
    ended: list[VisitSummary] = []
    requests: list[HttpRequest] = []
    cookie_sets: list[CookieSet] = []
    count = 0
    for event in events:
        count += 1
        kind = type(event)
        if kind is HttpRequest:
            requests.append(event)
        elif kind is CookieSet:
            cookie_sets.append(event)
        elif kind is VisitStart:
            starts[event.visit_id] = event
            visits[event.visit_id] = None  # holds the visit's VISIT_START place until its row is built
        elif kind is BannerObserved:
            banners[event.visit_id] = event.banner.banner_type
        elif kind is VisitEnd:
            visit_id = event.visit_id
            start = starts.pop(visit_id)
            visits[visit_id] = summary = VisitSummary(
                visit_id=visit_id,
                site=start.site,
                rank=start.rank,
                phase=start.phase,
                iteration=start.iteration,
                gpc_enabled=start.gpc_enabled,
                banner_type=banners.pop(visit_id, BannerType.NONE),
                outcome=event.outcome,
            )
            ended.append(summary)
    return RunIndex(visits, ended, requests, cookie_sets, count)


def numbered(events, first_index: int = 0) -> list:
    """The events with their ``event_index`` set to their position, counted from ``first_index``."""
    return [event._replace(event_index=first_index + n) for n, event in enumerate(events)]


def run_pipeline(config: sim.EcosystemConfig, seed: int) -> tuple[RunIndex, CookieJar, DetectionResult]:
    """simulate -> serialize -> parse -> build jar -> detect, all in process.

    Going through the wire format means every pipeline run also validates
    the generated log's sequencing invariants.
    """
    index = crawllog.parse_log_text(crawllog.serialize(sim.generate(config, seed)))
    jar = build_jar(index)
    result = Detector(SIM_PSL, frozenset(config.listed_tracker_domains())).detect(jar, index)
    return index, jar, result
