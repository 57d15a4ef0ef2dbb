from __future__ import annotations

import collections
import dataclasses
import hashlib
import importlib.util
import json
import random
import re
import sys
from pathlib import Path

import pytest

from cookietrail import _rand, model
from cookietrail import simulator as sim
from cookietrail.crawllog import HttpRequest, parse_cookie_header, parse_log_text, serialize
from cookietrail.errors import InputError, quoted
from cookietrail.jar import build_jar
from cookietrail.model import (
    BannerButton,
    BannerDescriptor,
    BannerLayer,
    BannerType,
    ButtonAction,
    Channel,
    CookieKey,
    InteractionStage,
    canonicalize_host,
    domain_match,
)

from helpers import (
    banner_decodes,
    cmp_banner,
    index_run,
    mutants,
    native_banner,
    object_path,
    paywall_banner,
    random_config,
    run_pipeline,
    simple_config,
)

DEMO = Path(__file__).resolve().parent.parent / "demo"


def _settings_banner(label: str, action: ButtonAction = ButtonAction.OTHER) -> BannerDescriptor:
    """A CMP banner whose second layer, behind Settings, holds one button."""
    return BannerDescriptor(BannerType.CMP, (BannerLayer(buttons=(BannerButton("Options", ButtonAction.SETTINGS),)),
                                             BannerLayer(buttons=(BannerButton(label, action),))))


@pytest.mark.parametrize("banner, rejectable", [
    pytest.param(native_banner(), True, id="main-layer reject"),
    pytest.param(cmp_banner(settings_reject=True, settings_save=False), True, id="settings reject by action"),
    pytest.param(_settings_banner("Alle ablehnen"), True, id="settings reject by label"),
    pytest.param(cmp_banner(settings_reject=True, preselected_on=True), True, id="settings reject, a toggle on"),
    pytest.param(_settings_banner("Done", ButtonAction.SAVE), True, id="save by action"),
    pytest.param(_settings_banner("SAVE & EXIT"), True, id="save by label SAVE & EXIT"),
    pytest.param(_settings_banner("Accept Selected"), True, id="save by label Accept Selected"),
    pytest.param(cmp_banner(settings_save=True, preselected_on=True), False, id="save with a preselected toggle"),
    pytest.param(cmp_banner(settings_reject=False, settings_save=False), False, id="no reject path"),
    pytest.param(native_banner(reject=False), False, id="accept only"),
    pytest.param(paywall_banner(), False, id="paywall"),
    pytest.param(BannerDescriptor(BannerType.NONE), False, id="NONE"),
    pytest.param(BannerDescriptor(BannerType.CMP), False, id="no layers"),
])
def test_can_reject(banner, rejectable):
    assert sim.can_reject(banner) is rejectable


class TestGenerate:
    def test_deterministic_byte_identical(self):
        config = random_config(random.Random(11))
        first = serialize(sim.generate(config, 99))
        second = serialize(sim.generate(config, 99))
        assert first == second

    def test_different_seeds_differ(self):
        config = simple_config()
        assert serialize(sim.generate(config, 1)) != serialize(sim.generate(config, 2))

    def test_generated_logs_always_parse(self):
        for seed in range(5):
            config = random_config(random.Random(seed))
            text = serialize(sim.generate(config, seed))
            assert parse_log_text(text)

    def test_crawl_hands_each_event_to_the_sink_as_it_is_made(self, monkeypatch):
        """``crawl`` keeps no event list: the sink gets each event once, in order, as ``generate`` lists them."""
        runs = []

        class RecordedRun(sim._Run):
            def __init__(self, *args):
                super().__init__(*args)
                runs.append(self)

        monkeypatch.setattr(sim, "_Run", RecordedRun)
        config = random_config(random.Random(3))
        seen = []

        def sink(event):
            assert event.event_index == len(seen)
            # The run holds no list, nor any event: only the sink has them.
            assert not any(isinstance(value, (list, *sim.CrawlEvent.__args__)) for value in vars(runs[0]).values())
            seen.append(event)

        sim.crawl(config, 3, sink, run_label="r")
        assert len(runs) == 1 and len(seen) > 100
        assert seen == sim.generate(config, 3, run_label="r")


    def test_definitional_scenario(self):
        config = sim.EcosystemConfig(
            sites=(
                sim.SiteSpec("basic.com", 1, native_banner(), (sim.EmbedSpec("tracker.net"),)),
                sim.SiteSpec("new.com", 2, native_banner(), (sim.EmbedSpec("tracker.net"),)),
            ),
            trackers=(
                sim.TrackerSpec(
                    "tracker.net",
                    (sim.CookieSpec("id", sim.ValueGenerator("const", const="123")),),
                ),
            ),
            schedule=sim.Schedule(phase1=("basic.com",), phase2=("new.com",)),
        )
        events = sim.generate(config, 7)
        before_requests = [
            e
            for e in events
            if isinstance(e, HttpRequest)
            and e.stage is InteractionStage.BEFORE_INTERACTION
            and e.visit_id.startswith("p2r")
        ]
        assert any(
            ("id", "123") in parse_cookie_header(e.cookie_header) for e in before_requests
        ), "stored cookie must ride the pre-interaction request to the tracker"

    def test_partitioned_cookie_never_sent_cross_site(self):
        config = sim.EcosystemConfig(
            sites=(
                sim.SiteSpec("basic.com", 1, native_banner(), (sim.EmbedSpec("part.net"),)),
                sim.SiteSpec("new.com", 2, native_banner(), (sim.EmbedSpec("part.net"),)),
            ),
            trackers=(
                sim.TrackerSpec("part.net", (sim.CookieSpec("pid"),), sets_partitioned=True),
            ),
            schedule=sim.Schedule(phase1=("basic.com",), phase2=("new.com",)),
        )
        events = sim.generate(config, 7)
        jar = build_jar(index_run(events))
        assert any(k.partition == "basic.com" for k in jar.entries)
        phase2_headers = [
            e.cookie_header
            for e in events
            if isinstance(e, HttpRequest) and not e.visit_id.startswith("p1")
        ]
        assert all(header == "" for header in phase2_headers)
        truth = sim.ground_truth(config, 7)
        assert truth.expected_findings == frozenset()

    def test_gpc_all_honoring_no_findings(self):
        config = simple_config(trackers=2, gpc_enabled=True)
        config = sim.EcosystemConfig(
            sites=config.sites,
            trackers=tuple(
                sim.TrackerSpec(t.domain, t.cookies, honors_gpc=True) for t in config.trackers
            ),
            schedule=config.schedule,
        )
        _, _, result = run_pipeline(config, 3)
        assert result.canonical_findings == []
        assert sim.ground_truth(config, 3).expected_findings == frozenset()

    def test_config_json_round_trip(self):
        for seed in range(200):
            config = random_config(random.Random(seed))
            again = sim.EcosystemConfig.from_obj(json.loads(json.dumps(config.to_obj())))
            assert again == config and type(again.sites[0]) is sim.SiteSpec, seed

    def test_invalid_config_overlapping_phases(self):
        config = simple_config()
        with pytest.raises(InputError) as exc:
            sim.EcosystemConfig(
                config.sites,
                config.trackers,
                sim.Schedule(phase1=("site0.com",), phase2=("site0.com",)),
            ).validate()
        assert exc.value.code == "INVALID_CONFIG"

    def test_invalid_config_unknown_tracker(self):
        with pytest.raises(InputError):
            sim.EcosystemConfig(
                sites=(sim.SiteSpec("a.com", 1, native_banner(), (sim.EmbedSpec("ghost.net"),)),),
                trackers=(),
                schedule=sim.Schedule(phase1=("a.com",), phase2=()),
            ).validate()


# The outcome of each mutation of each demo config path, as loading gave it before the config was read by
# declared fields: a (mutation, regular expression) that the dotted path matches in full, else INVALID_CONFIG.
_PINNED_OUTCOMES = {
    ("huge", r"schedule\.phase[12]\.\d+|sites\.\d+\.(site|embeds\.\d+\.tracker)"
             r"|trackers\.\d+\.(domain|sync_partners\.\d+)"): "INVALID_LABEL",
    ("huge", r"sites\.\d+\.banner\.layers\.\d+\.(buttons|toggles)\.\d+\.0"
             r"|trackers\.\d+\.cookies\.\d+\.(name|value\.const)"): "accepted",
    ("missing", r"schedule\.(gpc_enabled|phase[12]\.\d+)"
                r"|sites\.\d+\.(embeds(\.\d+(\.(channel|policy))?)?"
                r"|banner\.layers(\.\d+(\.(buttons|toggles)(\.\d+)?)?)?)"
                r"|trackers\.\d+\.(cookies\.\d+\.(lifetime|value(\.(const|kind|length))?)|drop_after_reject_prob"
                r"|honors_gpc|resets_on_send|sets_partitioned|sync_partners(\.\d+)?)"
                r"|trackers\.0\.cookies\.\d+"): "accepted",  # the only tracker with two cookies
    ("null", r"trackers\.\d+\.cookies\.\d+\.lifetime"): "accepted",  # a session cookie
    ("wrong type", r"trackers\.\d+\.cookies\.\d+\.lifetime"): "accepted",  # "0": a lifetime of 0 s
}


def test_each_field_mutation_of_the_demo_config_has_its_pinned_outcome():
    """Every field of the demo config, of the wrong JSON type, null, missing or huge: accepted, or refused with
    the code that loading gave before the config was read by declared fields."""
    demo = json.loads((DEMO / "ecosystem.json").read_text(encoding="utf-8"))
    outcomes = collections.Counter()
    for how, dotted, obj in mutants(demo):
        try:
            sim.EcosystemConfig.from_obj(obj)
            got = "accepted"
        except InputError as exc:
            got = exc.code
            assert len(exc.message) < 200 and "Error(" not in exc.message, (how, dotted, exc.message)
        expected = next((outcome for (mutation, pattern), outcome in _PINNED_OUTCOMES.items()
                         if mutation == how and re.fullmatch(pattern, dotted)), "INVALID_CONFIG")
        assert got == expected, (how, dotted)
        outcomes[got] += 1
    assert outcomes == {"INVALID_CONFIG": 704, "accepted": 145, "INVALID_LABEL": 31}


@pytest.mark.parametrize("field", [("sites",), ("trackers",), ("schedule", "phase2"), ("sites", 0, "embeds"),
                                   ("trackers", 0, "sync_partners")])
@pytest.mark.parametrize("value", [{}, ""])
def test_a_list_field_must_be_a_json_list(field, value):
    """An object or a string where a list is due is refused, even an empty one that iterates as no items."""
    obj = simple_config().to_obj()
    obj["schedule"]["phase2"] = []
    parent = obj
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    with pytest.raises(InputError) as exc:
        sim.EcosystemConfig.from_obj(obj)
    assert (exc.value.code, exc.value.message) == ("INVALID_CONFIG", f"{object_path(field)}bad {field[-1]} {value!r}")


class TestConfigLoad:
    def test_each_distinct_host_and_banner_is_decoded_once(self, monkeypatch):
        """Equal banners share one descriptor; hosts and banners decode once per load, not once per use."""
        obj = json.loads(json.dumps(random_config(random.Random(8), n_sites=40).to_obj()))
        hosts, banners = [], banner_decodes(monkeypatch)
        monkeypatch.setattr(model, "canonicalize_host", lambda raw: hosts.append(raw) or canonicalize_host(raw))
        config = sim.EcosystemConfig.from_obj(obj)
        assert config.to_obj() == obj
        assert sorted(hosts) == sorted([s.site for s in config.sites] + [t.domain for t in config.trackers])
        distinct = {json.dumps(s["banner"]) for s in obj["sites"]}
        assert sorted(map(json.dumps, banners)) == sorted(distinct) and len(distinct) < len(config.sites) // 2
        first_of_value = {}
        for site in config.sites:
            assert first_of_value.setdefault(site.banner, site.banner) is site.banner

    @pytest.mark.parametrize("where, field", [
        (lambda obj: obj["sites"][0], "site"), (lambda obj: obj["trackers"][0], "domain"),
        (lambda obj: obj["schedule"]["phase1"], 0), (lambda obj: obj["sites"][0]["embeds"][0], "tracker"),
    ])
    def test_a_bad_config_host_names_its_field_and_value(self, where, field):
        """A config host is canonicalized as a log's is, and its error quotes the object, the field and the raw host."""
        obj = simple_config().to_obj()
        where(obj)[field] = "a..b"
        with pytest.raises(InputError) as exc:
            sim.EcosystemConfig.from_obj(obj)
        name = {"site": "sites[0]: bad site", "domain": "trackers[0]: bad domain", 0: "schedule: bad phase1[0]",
                "tracker": "sites[0]: embeds[0]: bad tracker"}[field]
        assert (exc.value.code, exc.value.message) == ("INVALID_LABEL", f"{name} 'a..b' (empty label in 'a..b')")

    def test_an_embed_reads_its_policy_and_channel_by_name(self):
        """Sites with equal embeds get equal specs; a bad policy or channel names the embed and its site."""
        obj = simple_config().to_obj()
        embed = {"tracker": obj["trackers"][0]["domain"], "policy": "PRE_CONSENT_ONLY", "channel": "API_CALL"}
        for site in obj["sites"][:2]:
            site["embeds"] = [dict(embed)]
        obj["sites"][1]["embeds"][0]["tracker"] = embed["tracker"].upper()
        first, second = (site.embeds[0] for site in sim.EcosystemConfig.from_obj(obj).sites[:2])
        assert first == second == (embed["tracker"], sim.EmbedLoadPolicy.PRE_CONSENT_ONLY, Channel.API_CALL)
        for key, value in (("policy", "NEVER"), ("channel", "SCRIPT"), ("policy", ["ALWAYS"]), ("channel", 1)):
            obj["sites"][2]["embeds"] = [{**embed, key: value}]
            with pytest.raises(InputError) as exc:
                sim.EcosystemConfig.from_obj(obj)
            assert (exc.value.code, exc.value.message) == (
                "INVALID_CONFIG", f"sites[2]: embeds[0]: bad {key} {quoted(value)}"), (key, value)

    def test_loads_a_host_to_its_canonical_form(self):
        obj = simple_config().to_obj()
        obj["trackers"][0]["domain"] = "." + obj["trackers"][0]["domain"].upper()
        for site in obj["sites"]:
            for embed in site["embeds"]:
                embed["tracker"] = embed["tracker"].upper() + "."
        assert sim.EcosystemConfig.from_obj(obj) == simple_config()

    @pytest.mark.parametrize("embedded", [True, False])
    def test_unknown_value_kind_fails_the_load(self, embedded):
        obj = simple_config().to_obj()
        tracker = {"domain": "unused.net", "cookies": [{"name": "u"}]}
        if embedded:
            tracker = obj["trackers"][0]
        else:
            obj["trackers"].append(tracker)
        tracker["cookies"][0]["value"] = {"kind": "Hex"}
        with pytest.raises(InputError) as exc:
            sim.EcosystemConfig.from_obj(obj)
        where = f"trackers[{obj['trackers'].index(tracker)}]: cookies[0]: value"
        assert (exc.value.code, exc.value.message) == ("INVALID_CONFIG", f"{where}: bad kind 'Hex'")

    def test_validated_once_per_construction(self, monkeypatch):
        """A load checks the config once; crawling it and its ground truth check nothing again."""
        obj = random_config(random.Random(3)).to_obj()
        calls = []
        check = sim.EcosystemConfig.validate
        monkeypatch.setattr(sim.EcosystemConfig, "validate", lambda self: calls.append(1) or check(self))
        config = sim.EcosystemConfig.from_obj(obj)
        sim.crawl(config, 3, lambda event: None)
        sim.ground_truth(config, 3)
        assert len(calls) == 1
        overlapping = sim.Schedule(phase1=config.schedule.phase1, phase2=config.schedule.phase1)
        with pytest.raises(InputError) as exc:
            dataclasses.replace(config, schedule=overlapping)
        assert exc.value.code == "INVALID_CONFIG" and len(calls) == 2


# SHA-256 of ``serialize(generate(config, seed, run_label=label))`` by (config, gpc_enabled, seed,
# label), where the config is the demo ecosystem or ``random_config`` of that seed.  Seeds 0, 5
# and 9 each have resets, syncs, partitioned and GPC-honoring trackers, reload drops, deletions
# and both one-sided load policies.  A change to the generator that keeps its output keeps these.
_LOG_DIGESTS = {
    ("demo", False, 7, ""): "03501f4f4b77d98d5a46150f9d184b2abcae3058acb95f976516a221aec13ab2",
    ("demo", False, 7, "run-b"): "d9ae7c80efc415d71972032e4c494528949b518c164e24378d2289a8bc9ffd36",
    ("demo", True, 7, ""): "4f074c33757d467b4dc97e6bbff78313dd831d48624cc4910a0601a9a3e517d8",
    ("demo", True, 7, "run-b"): "fda4a410e9ea4327e4c9e1cc7de4358af0d73c0ad110f8df8efb0ee8fdcc5089",
    ("0", False, 0, ""): "65b1a017aa844a715211d710a5387ee044003a4ee722d365f57a8745740111ce",
    ("0", False, 0, "run-b"): "ba0a46dd58a8fa32f20195e355ce57794e477c95d9b24e187371eddd5566c475",
    ("0", True, 0, ""): "9e1e268164f86b6bb59479e6609a368c29f5677728fbf3a2d2c539ddd84ea96d",
    ("0", True, 0, "run-b"): "89b1667f88e5d23a96658b610d3df9760a05b029cd40847e31378dfbacacafe2",
    ("5", False, 5, ""): "445509d991c66990fd42418918037f9beab54b8f95ab54571483a57f97e0cfdf",
    ("5", False, 5, "run-b"): "e796ecaa445e1f43ad55edb2ae11167bae3e672f25a1ab443cafb3aabfa2e1b9",
    ("5", True, 5, ""): "8fa2b0eafa92a715c5d393a1c95e1a9d32b5c4012d91c9481ce250827e71588b",
    ("5", True, 5, "run-b"): "002df6d1914f1b4db98ff951c0c5380e11b824fb9913f98bd3100cd3c24fe694",
    ("9", False, 9, ""): "d1eb93e6f16a8010d27e3f2a4f9fe49fce9d4b96fe3af18f9977c3c5f33bc628",
    ("9", False, 9, "run-b"): "14b5a4820099001a684385fb2230a02633841a2056384ca2840ebc85e2b084a8",
    ("9", True, 9, ""): "6fdac7490473e35087658a2f08d2552df9eb2b581468240001d79e8be996bb75",
    ("9", True, 9, "run-b"): "526627ff2a62b19bfbffcb2f3c4e4a403a6544d4ac2b847d9ad659d3698fbd40",
}


def _pinned_config(name: str, gpc: bool) -> sim.EcosystemConfig:
    if name != "demo":
        return random_config(random.Random(int(name)), gpc=gpc)
    config = sim.EcosystemConfig.from_json((DEMO / "ecosystem.json").read_text(encoding="utf-8"))
    return dataclasses.replace(config, schedule=config.schedule._replace(gpc_enabled=gpc))


@pytest.mark.parametrize("name, gpc, seed, label", sorted(_LOG_DIGESTS))
def test_generated_log_bytes_are_pinned(name, gpc, seed, label):
    text = serialize(sim.generate(_pinned_config(name, gpc), seed, run_label=label))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _LOG_DIGESTS[name, gpc, seed, label]


class TestGroundTruth:
    def test_minimal_scenario_expected_finding(self):
        config = sim.EcosystemConfig(
            sites=(
                sim.SiteSpec("basic.com", 1, native_banner(), (sim.EmbedSpec("tracker.net"),)),
                sim.SiteSpec("new.com", 2, native_banner(), (sim.EmbedSpec("tracker.net"),)),
            ),
            trackers=(sim.TrackerSpec("tracker.net", (sim.CookieSpec("id"),)),),
            schedule=sim.Schedule(phase1=("basic.com",), phase2=("new.com",)),
        )
        truth = sim.ground_truth(config, 1)
        from cookietrail.model import CookieKey

        assert truth.expected_findings == {
            (CookieKey("id", "tracker.net"), "new.com", InteractionStage.BEFORE_INTERACTION)
        }

    def test_site_without_embeds_contributes_nothing(self):
        config = sim.EcosystemConfig(
            sites=(
                sim.SiteSpec("basic.com", 1, native_banner(), (sim.EmbedSpec("tracker.net"),)),
                sim.SiteSpec("plain.com", 2, native_banner(), ()),
            ),
            trackers=(sim.TrackerSpec("tracker.net", (sim.CookieSpec("id"),)),),
            schedule=sim.Schedule(phase1=("basic.com",), phase2=("plain.com",)),
        )
        assert sim.ground_truth(config, 1).expected_findings == frozenset()

    def test_deleted_cookie_not_in_jar(self):
        config = sim.EcosystemConfig(
            sites=(
                sim.SiteSpec("a.com", 1, native_banner(), (sim.EmbedSpec("t.net"),)),
                sim.SiteSpec("b.com", 2, native_banner(), (sim.EmbedSpec("t.net"),)),
            ),
            trackers=(sim.TrackerSpec("t.net", (sim.CookieSpec("gone", lifetime=-1),)),),
            schedule=sim.Schedule(phase1=("a.com", "b.com"), phase2=()),
        )
        truth = sim.ground_truth(config, 1)
        assert truth.expected_jar_keys == frozenset()
        events = sim.generate(config, 1)
        assert build_jar(index_run(events)).entries == {}

    def test_matches_detector_on_simple_configs(self):
        for seed in range(10):
            config = random_config(random.Random(1000 + seed))
            _, jar, result = run_pipeline(config, seed)
            truth = sim.ground_truth(config, seed)
            got = {(f.key, f.sender_site, f.stage) for f in result.canonical_findings}
            assert got == truth.expected_findings, f"seed {seed}"
            assert set(jar.entries) == set(truth.expected_jar_keys), f"seed {seed}"


# --- the grouped oracle against the scans it replaced ---------------------------------------
#
# A copy of ``ground_truth`` as it was when every phase-2 send scanned the
# whole phase-1 jar, partitioned entries included, for attachable cookies,
# and resolved each attached cookie by scanning every cookie the send attached.


def _ref_resolve_like_detector(name, value, candidates, jar_values):
    best = None
    for key in candidates:
        if key.name != name:
            continue
        rank = (0 if jar_values[key] == value else 1, -len(key.host), key.host)
        if best is None or rank < best[0]:
            best = (rank, key)
    assert best is not None
    return best[1]


def _ref_ground_truth(config: sim.EcosystemConfig, seed: int) -> sim.GroundTruth:
    config.validate()
    jar_values: dict[CookieKey, str] = {}
    for site_name in config.schedule.phase1:
        site = config.site(site_name)
        if not sim.can_accept(site.banner):
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

    def attachable(target):
        return [
            (key, value)
            for key, value in jar_values.items()
            if key.partition is None and domain_match(target, key.host)
        ]

    findings = set()

    def record_sends(target, sender):
        attached = attachable(target)
        candidates = [key for key, _ in attached]
        for key, value in attached:
            resolved = _ref_resolve_like_detector(key.name, value, candidates, jar_values)
            if any(domain_match(resolved.host, entry) for entry in listed):
                findings.add((resolved, sender, InteractionStage.BEFORE_INTERACTION))

    for site_name in config.schedule.phase2:
        site = config.site(site_name)
        if not sim.can_reject(site.banner):
            continue
        for embed in site.embeds:
            tracker = config.tracker(embed.tracker)
            if embed.policy is sim.EmbedLoadPolicy.POST_ACCEPT_ONLY:
                continue
            if config.schedule.gpc_enabled and tracker.honors_gpc:
                continue
            target = f"cdn.{tracker.domain}"
            record_sends(target, site.site)
            if tracker.sync_partners and attachable(target):
                for partner in tracker.sync_partners:
                    record_sends(f"sync.{partner}", site.site)
    return sim.GroundTruth(frozenset(findings), frozenset(jar_values))


def _benchmark_workloads():
    """The benchmark's frozen ecosystem generators (``perfbench/workloads.py``)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_grouped_oracle_matches_full_scan():
    """200 random ecosystems and the crawl-scale and oracle-sweep configs of two seeds: same truth."""
    workloads = _benchmark_workloads()
    cases = [(random_config(random.Random(seed)), seed) for seed in range(200)]
    for seed in (1, 2):
        cases += [(config, seed) for config in workloads.crawl_scale(seed) + workloads.oracle_sweep(seed)]
    with_findings = 0
    for n, (config, seed) in enumerate(cases):
        truth = sim.ground_truth(config, seed).to_obj()
        assert truth == _ref_ground_truth(config, seed).to_obj(), n
        with_findings += bool(truth["expected_findings"])
    assert len(cases) >= 400 and with_findings >= 200, (len(cases), with_findings)


class TestScenarioShapes:
    def test_reload_drop_reduces_sends(self):
        """A 0.25 drop probability removes roughly a quarter of reload sends."""
        trackers = tuple(
            sim.TrackerSpec(f"t{i}.net", (sim.CookieSpec(f"c{i}"),), drop_after_reject_prob=0.25)
            for i in range(8)
        )
        embeds = tuple(sim.EmbedSpec(t.domain) for t in trackers)
        sites = tuple(
            sim.SiteSpec(f"s{i}.com", i + 1, native_banner(), embeds) for i in range(12)
        )
        config = sim.EcosystemConfig(
            sites=sites,
            trackers=trackers,
            schedule=sim.Schedule(
                phase1=tuple(s.site for s in sites[:4]),
                phase2=tuple(s.site for s in sites[4:]),
            ),
        )
        reductions = []
        for seed in range(30):
            _, _, result = run_pipeline(config, seed)
            before = [f for f in result.canonical_findings]
            after = [
                f for f in result.findings if not f.canonical and f.stage is InteractionStage.AFTER_RELOADED_REJECT
            ]
            assert before
            reductions.append(1 - len(after) / len(before))
        mean = sum(reductions) / len(reductions)
        assert 0.20 <= mean <= 0.30, mean

    def test_cmp_sites_can_send_more(self):
        heavy = tuple(sim.EmbedSpec(f"t{i}.net") for i in range(6))
        light = (sim.EmbedSpec("t0.net"),)
        sites = (
            sim.SiteSpec("setter.com", 1, native_banner(), heavy),
            sim.SiteSpec("cmpsite.com", 2, cmp_banner(settings_reject=True), heavy),
            sim.SiteSpec("natsite.com", 3, native_banner(), light),
        )
        config = sim.EcosystemConfig(
            sites=sites,
            trackers=tuple(sim.TrackerSpec(f"t{i}.net", (sim.CookieSpec(f"c{i}"),)) for i in range(6)),
            schedule=sim.Schedule(phase1=("setter.com",), phase2=("cmpsite.com", "natsite.com")),
        )
        _, _, result = run_pipeline(config, 5)
        per_site = {}
        for f in result.canonical_findings:
            per_site[f.sender_site] = per_site.get(f.sender_site, 0) + 1
        assert per_site["cmpsite.com"] == 6
        assert per_site["natsite.com"] == 1


# --- the indexed cookie store against a full scan --------------------------------


def _full_scan(flat: dict, target: str, visited_site: str) -> list:
    """The store lookup before indexing: every entry, in insertion order."""
    return [
        (key, value)
        for key, value in flat.items()
        if domain_match(target, key.host) and key.partition in (None, visited_site)
    ]


def _header_order(pairs: list) -> list:
    return sorted(pairs, key=lambda kv: (-len(kv[0].host), kv[0].host, kv[0].name, kv[0].partition or ""))


def _own_order(pairs: list) -> list:
    return sorted(pairs, key=lambda kv: (kv[0].name, kv[0].host))


class _CheckedStore(sim._CookieStore):
    """Mirrors every write into a flat dict and checks each lookup against a full scan."""

    def __init__(self):
        super().__init__()
        self.flat: dict = {}
        self.deleted: set = set()
        self.lookups = self.partitioned_hits = self.resets_after_delete = 0

    def set(self, key, value):
        super().set(key, value)
        self.resets_after_delete += key in self.deleted
        self.flat[key] = value

    def delete(self, key):
        super().delete(key)
        if key in self.flat:
            self.deleted.add(key)
            del self.flat[key]

    def attached(self, target, visited_site):
        got = super().attached(target, visited_site)
        want = _full_scan(self.flat, target, visited_site)
        assert _header_order(got) == _header_order(want), (target, visited_site)
        assert _own_order(got) == _own_order(want), (target, visited_site)
        self.lookups += 1
        self.partitioned_hits += any(key.partition is not None for key, _ in got)
        return got


class TestIndexedStore:
    def test_generate_lookups_match_full_scan(self, monkeypatch):
        stores: list[_CheckedStore] = []

        def checked_store():
            stores.append(_CheckedStore())
            return stores[-1]

        monkeypatch.setattr(sim, "_CookieStore", checked_store)
        configs = [random_config(random.Random(2000 + i)) for i in range(200)]
        # One tracker deletes and re-sets the same cookie on every accepted
        # site, under a nested tracker that reads it by suffix.
        configs.append(
            sim.EcosystemConfig(
                sites=tuple(
                    sim.SiteSpec(f"s{i}.com", i + 1, native_banner(),
                                 (sim.EmbedSpec("t.net"), sim.EmbedSpec("x.t.net")))
                    for i in range(12)
                ),
                trackers=(
                    sim.TrackerSpec("t.net", (sim.CookieSpec("id", lifetime=-1), sim.CookieSpec("id"))),
                    sim.TrackerSpec("x.t.net", (sim.CookieSpec("id"),), sets_partitioned=True,
                                    resets_on_send=True, sync_partners=("t.net",)),
                ),
                schedule=sim.Schedule(
                    phase1=tuple(f"s{i}.com" for i in range(6)),
                    phase2=tuple(f"s{i}.com" for i in range(6, 12)),
                ),
            )
        )
        for seed, config in enumerate(configs):
            sim.generate(config, seed)
        trackers = [t for config in configs for t in config.trackers]

        def count(predicate) -> int:
            return sum(1 for t in trackers if predicate(t))

        assert count(lambda t: t.domain.count(".") > 1) >= 20  # nested, e.g. x1.t0.net
        assert count(lambda t: t.sets_partitioned) >= 20
        assert count(lambda t: t.sync_partners) >= 20
        assert count(lambda t: t.resets_on_send) >= 20
        assert count(lambda t: any(c.lifetime == -1 for c in t.cookies)) >= 20
        assert sum(s.lookups for s in stores) >= 5_000
        assert sum(s.partitioned_hits for s in stores) >= 10
        assert sum(s.resets_after_delete for s in stores) >= 5

    def test_degenerate_hosts_match_full_scan(self):
        hosts = ["a..b", ".b", "b", "", "b.", "a.b.", "x.a..b", "a.b", "..", "c.a.b"]
        # Names differ per partition, so no two keys tie on (name, host).
        keys = [
            CookieKey(name, host, partition)
            for host in hosts
            for name, partition in (("id", None), ("pid", "s.com"), ("oid", "o.com"))
        ]
        targets = [*hosts, "x.b", "cdn.a..b", ".", "a.b..", "zzz"]
        rng = random.Random(5)
        store = _CheckedStore()
        for step in range(400):
            key = rng.choice(keys)
            if rng.random() < 0.3:
                store.delete(key)
            else:
                store.set(key, f"v{step}")
            if step % 20 == 0:
                for target in targets:
                    for site in ("s.com", "o.com", "n.com"):
                        store.attached(target, site)
        assert store.partitioned_hits and store.resets_after_delete


def _quadratic_digit_token(seed: int, *labels: str, length: int = 16) -> str:
    """``_rand.digit_token`` as it was when it re-summed its parts on every block."""
    out = []
    block = 0
    while sum(len(part) for part in out) < length:
        raw = _rand.digest(seed, *labels, f"digits{block}")
        out.append("".join(str(byte % 10) for byte in raw))
        block += 1
    return "".join(out)[:length]


class TestDigitToken:
    def test_matches_the_quadratic_version(self):
        for length in range(-1, 301):
            assert _rand.digit_token(4, "site.com", "id", length=length) == _quadratic_digit_token(
                4, "site.com", "id", length=length
            ), length

    def test_one_digest_per_32_digits(self, monkeypatch):
        calls = []
        digest = _rand.digest
        monkeypatch.setattr(_rand, "digest", lambda *args: calls.append(1) or digest(*args))
        length = 1_000_000
        token = _rand.digit_token(1, "long", length=length)
        assert len(token) == length and token.isdigit()
        assert len(calls) == -(-length // 32)


def _block_loop_hex_token(seed: int, *labels: str, length: int = 16) -> str:
    """``_rand.hex_token`` as it was when it appended one digest per loop turn."""
    out = ""
    block = 0
    while len(out) < length:
        out += _rand.digest(seed, *labels, f"block{block}").hex()
        block += 1
    return out[:length]


class TestHexToken:
    @pytest.mark.parametrize("length", [-1, 0, 1, 16, 63, 64, 65, 128, 129])
    def test_matches_the_block_loop(self, length):
        token = _rand.hex_token(4, "cookie-value", "t.net", "id", "site.com", length=length)
        assert token == _block_loop_hex_token(4, "cookie-value", "t.net", "id", "site.com", length=length)
        assert len(token) == max(length, 0) and set(token) <= set("0123456789abcdef")

