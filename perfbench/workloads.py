"""Frozen ecosystem generators for the benchmark workloads.

These generators belong to the benchmark and import nothing from the test
suite, so editing a test helper can never change what a workload measures.
Each one derives everything from ``(seed, scale)``: equal arguments give
equal configs.  The shape each workload promises is asserted on the config it
returns.

Shares that set the amount of work are fixed per workload: tracker roles
and cookie counts, the banner mix and embed counts of each phase, and the
embed policies and channels are dealt from fixed decks.  The seed decides
which site or tracker gets which card, plus names, values and which
trackers a site embeds, so different seeds cost about the same.

Site and ecosystem counts are half of those first proposed for these
workloads (2,000 crawl sites, 100 dense sites, 200 sweep ecosystems): on a
shared two-core machine whose speed drifts by tens of percent within a
minute, a run's median needs several repetitions, so one repetition has to
take seconds, not tens of seconds.  The regimes are unchanged: the
quadratic scans already dominate at these sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from cookietrail import simulator as sim
from cookietrail.model import (
    BannerButton,
    BannerDescriptor,
    BannerLayer,
    BannerToggle,
    BannerType,
    ButtonAction,
    Channel,
)

LIFETIMES = (None, 3600, 86400, 30 * 86400, 365 * 86400, 2 * 365 * 86400, -1)

# The suffix list every detect and report command loads.  It covers every
# registrable domain the generators use, plus wildcard and exception rules so
# that both PSL branches run.
PSL_TEXT = """// Suffix list for the benchmark ecosystems.
com
net
org
io
example
co.uk
uk
*.ck
!www.ck
// ===BEGIN PRIVATE DOMAINS===
blogspot.com
// ===END PRIVATE DOMAINS===
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ecosystems: Callable[[int, float], list[sim.EcosystemConfig]]  # (seed, scale)


# --- shared building blocks ---------------------------------------------------


def _native(reject: bool) -> BannerDescriptor:
    buttons = [BannerButton("Accept All", ButtonAction.ACCEPT)]
    if reject:
        buttons.append(BannerButton("Reject All", ButtonAction.REJECT))
    return BannerDescriptor(BannerType.NATIVE, (BannerLayer(buttons=tuple(buttons)),))


def _cmp(*, settings_reject=False, settings_save=True, preselected_on=False, save_label="Save & Exit"):
    main = BannerLayer(
        buttons=(BannerButton("Accept All", ButtonAction.ACCEPT), BannerButton("Settings", ButtonAction.SETTINGS))
    )
    buttons = []
    if settings_reject:
        buttons.append(BannerButton("Reject All", ButtonAction.REJECT))
    if settings_save:
        buttons.append(BannerButton(save_label, ButtonAction.SAVE))
    settings = BannerLayer(
        buttons=tuple(buttons),
        toggles=(BannerToggle("essential", True, True), BannerToggle("analytics", preselected_on, False)),
    )
    return BannerDescriptor(BannerType.CMP, (main, settings))


def _paywall() -> BannerDescriptor:
    return BannerDescriptor(
        BannerType.PAYWALL,
        (BannerLayer(buttons=(BannerButton("Accept & Continue", ButtonAction.ACCEPT),
                              BannerButton("Subscribe", ButtonAction.OTHER))),),
    )


def _banner_deck(rng: random.Random) -> list[BannerDescriptor]:
    """Twenty banners in the paper's mix: none 10%, native 35% (one in seven
    without a reject button), paywall 10%, CMP 45% in four reject shapes."""
    labels = ["Save & Exit", "Confirm", "Accept Selected"]
    return (
        [BannerDescriptor(BannerType.NONE)] * 2
        + [_native(reject=True)] * 6
        + [_native(reject=False), _paywall(), _paywall()]
        + [_cmp(settings_reject=True)] * 4
        + [_cmp(save_label=rng.choice(labels)) for _ in range(3)]
        + [_cmp(preselected_on=True), _cmp(settings_save=False)]
    )


def _deal(rng: random.Random, cards, n: int) -> list:
    """``n`` cards cycling through ``cards``, in seeded order: each card's share is fixed."""
    cards = list(cards)
    hand = [cards[i % len(cards)] for i in range(n)]
    rng.shuffle(hand)
    return hand


def _value(rng: random.Random) -> sim.ValueGenerator:
    kind = rng.random()
    if kind < 0.7:
        return sim.ValueGenerator("hex", length=rng.choice([12, 16, 24]))
    if kind < 0.85:
        return sim.ValueGenerator("digits", length=rng.choice([6, 14]))
    return sim.ValueGenerator("const", const=rng.choice(["true", "YES", "1"]))


def _cookies(rng, prefix: str, count: int, *, deletions: bool, reuse: str | None = None):
    cookies = []
    for j in range(count):
        lifetime = rng.choice(LIFETIMES if deletions else LIFETIMES[:-1])
        name = reuse if reuse is not None and j == 0 else f"{prefix}_{j}"
        cookies.append(sim.CookieSpec(name, _value(rng), lifetime))
    return tuple(cookies)


# Embed policies and channels in the C1 mix: 70/15/15 and about 73/27.
POLICY_DECK = [sim.EmbedLoadPolicy.ALWAYS] * 14 + [sim.EmbedLoadPolicy.PRE_CONSENT_ONLY] * 3 \
    + [sim.EmbedLoadPolicy.POST_ACCEPT_ONLY] * 3
CHANNEL_DECK = [Channel.RESOURCE_FETCH] * 8 + [Channel.API_CALL] * 3


def _sampled_embeds(domains, counts):
    """Embed sets of dealt sizes, each a seeded sample of the trackers."""
    return lambda rng, n: [tuple(rng.sample(domains, c)) for c in _deal(rng, counts, n)]


def _ecosystem(rng, trackers, n_sites: int, embed_sets, *, gpc: bool) -> sim.EcosystemConfig:
    """Sites ``site<i>.com`` ranked by index; the first half form the accept phase.

    ``embed_sets(rng, n)`` gives the tracker domains each of ``n`` sites
    embeds.  Banners and embed sets are dealt per phase, and policies and
    channels over all embeds, so outcomes and request volume do not vary by
    seed.
    """
    phase1 = max(1, n_sites // 2)
    banners, embedded = [], []
    for n in (phase1, n_sites - phase1):
        banners += _deal(rng, _banner_deck(rng), n)
        embedded += embed_sets(rng, n)
    total = sum(len(e) for e in embedded)
    policies = iter(_deal(rng, POLICY_DECK, total))
    channels = iter(_deal(rng, CHANNEL_DECK, total))
    sites = []
    for i, (banner, domains) in enumerate(zip(banners, embedded)):
        sites.append(
            sim.SiteSpec(
                site=f"site{i}.com",
                rank=i + 1,
                banner=banner,
                embeds=tuple(sim.EmbedSpec(d, next(policies), next(channels)) for d in domains),
                paywall=banner.banner_type is BannerType.PAYWALL,
            )
        )
    config = sim.EcosystemConfig(
        sites=tuple(sites),
        trackers=tuple(trackers),
        schedule=sim.Schedule(
            phase1=tuple(s.site for s in sites[:phase1]),
            phase2=tuple(s.site for s in sites[phase1:]),
            gpc_enabled=gpc,
        ),
    )
    config.validate()
    return config


# --- crawl-scale -------------------------------------------------------------------

CRAWL_SITES = 1000


def crawl_scale(seed: int, scale: float = 1.0) -> list[sim.EcosystemConfig]:
    """One crawl of 1,000 sites (half accept, half measure), three trackers, 0-3 embeds a site.

    The roster follows the paper's regime of few trackers a site: ``t0``
    sets three partitioned cookies that outlive the crawl, so the
    partitioned store grows with every accepting site; ``t1`` (one cookie)
    syncs to ``t2`` (one cookie), which resets on send.  GPC is off.
    """
    rng = random.Random(f"crawl-scale:{seed}")

    def cookie(name: str, lifetime: int) -> sim.CookieSpec:
        # Identifier-like values, so every seed feeds sync detection alike.
        return sim.CookieSpec(name, sim.ValueGenerator("hex", length=16), lifetime)

    year = 365 * 86400
    trackers = [
        sim.TrackerSpec("t0.net", (cookie("c0_0", year), cookie("c0_1", 30 * 86400), cookie("c0_2", 2 * year)),
                        sets_partitioned=True),
        sim.TrackerSpec("t1.net", (cookie("c1_0", year),), sync_partners=("t2.net",),
                        drop_after_reject_prob=0.25),
        sim.TrackerSpec("t2.net", (cookie("c2_0", 30 * 86400),), resets_on_send=True,
                        drop_after_reject_prob=0.5),
    ]
    # Every subset of the three trackers once: each tracker sits on exactly
    # half the sites of each phase, with 0-3 embeds a site.
    subsets = [tuple(t.domain for j, t in enumerate(trackers) if mask >> j & 1) for mask in range(8)]
    config = _ecosystem(rng, trackers, round(CRAWL_SITES * scale), lambda r, n: _deal(r, subsets, n), gpc=False)
    assert any(t.sets_partitioned for t in config.trackers), "crawl-scale needs a partitioned tracker"
    assert all(len(s.embeds) <= 3 for s in config.sites)
    return [config]


# --- tracker-dense -------------------------------------------------------------------

DENSE_SITES = 50
DENSE_TRACKERS = 300
DENSE_NESTED = 45  # 15% nest under an earlier tracker, as in the C1 generator
DENSE_PARTITIONED = 15  # 5%
DENSE_SYNCING = 60  # 20%
DENSE_RESETTING = 60  # 20%
DENSE_UNLISTED = 30  # 10% missing from the tracker list
DENSE_MIN_PAIRS_PER_SITE = 20


def _attachable_pairs(config: sim.EcosystemConfig) -> list[int]:
    """Per site, the cookie pairs its embed requests carry once every tracker has set its cookies.

    A request to ``cdn.<tracker>`` carries the unpartitioned cookies of every
    tracker whose domain is a suffix of that host.
    """
    stored = {
        t.domain: sum(1 for c in t.cookies if c.lifetime is None or c.lifetime > 0)
        for t in config.trackers
        if not t.sets_partitioned
    }
    per_site = []
    for site in config.sites:
        pairs = 0
        for embed in site.embeds:
            labels = f"cdn.{embed.tracker}".split(".")
            pairs += sum(stored.get(".".join(labels[i:]), 0) for i in range(len(labels)))
        per_site.append(pairs)
    return per_site


def tracker_dense(seed: int, scale: float = 1.0) -> list[sim.EcosystemConfig]:
    """50 sites and 300 trackers, 20-40 embeds a site, 1-3 cookies a tracker.

    Exactly 5% of trackers set partitioned cookies, 20% sync to a partner,
    20% reset on send and 10% are not on the tracker list, chosen by the
    seed; a third of the trackers set each of 1, 2 and 3 cookies.  GPC is off.
    """
    rng = random.Random(f"tracker-dense:{seed}")
    indices = list(range(DENSE_TRACKERS))
    nested = set(rng.sample(indices[1:], DENSE_NESTED))
    partitioned = set(rng.sample(indices, DENSE_PARTITIONED))
    syncing = set(rng.sample(indices, DENSE_SYNCING))
    resetting = set(rng.sample(indices, DENSE_RESETTING))
    unlisted = set(rng.sample(indices, DENSE_UNLISTED))
    cookie_counts = _deal(rng, (1, 2, 3), DENSE_TRACKERS)
    domains = []
    for i in indices:
        parent = rng.randrange(i) if i in nested else None
        domains.append(f"x{i}.{domains[parent]}" if parent is not None else f"t{i}.net")
    trackers = []
    for i, domain in enumerate(domains):
        trackers.append(
            sim.TrackerSpec(
                domain=domain,
                cookies=_cookies(rng, f"c{i}", cookie_counts[i], deletions=True),
                honors_gpc=rng.random() < 0.3,
                sets_partitioned=i in partitioned,
                sync_partners=(domains[rng.choice([j for j in indices if j != i])],) if i in syncing else (),
                drop_after_reject_prob=rng.choice([0.0, 0.25, 0.5]),
                resets_on_send=i in resetting,
                listed=i not in unlisted,
            )
        )
    config = _ecosystem(rng, trackers, round(DENSE_SITES * scale), _sampled_embeds(domains, range(20, 41)), gpc=False)
    pairs = _attachable_pairs(config)
    assert sum(pairs) / len(pairs) >= DENSE_MIN_PAIRS_PER_SITE, "tracker-dense needs dense Cookie headers"
    assert sum(t.sets_partitioned for t in config.trackers) == DENSE_PARTITIONED
    return [config]


# --- oracle-sweep -------------------------------------------------------------------

SWEEP_ECOSYSTEMS = 100


def _random_ecosystem(rng: random.Random, n_sites: int, n_trackers: int) -> sim.EcosystemConfig:
    """A small ecosystem covering every feature the oracle handles."""
    trackers = []
    for i in range(n_trackers):
        nested = i >= 1 and rng.random() < 0.15
        domain = f"x{i}.t{i - 1}.net" if nested else f"t{i}.net"
        reuse = f"c{i - 1}_0" if nested and rng.random() < 0.5 else None
        partner = f"t{rng.randrange(n_trackers)}.net" if rng.random() < 0.2 and i > 0 else None
        trackers.append(
            sim.TrackerSpec(
                domain=domain,
                cookies=_cookies(rng, f"c{i}", rng.randint(1, 3), deletions=True, reuse=reuse),
                honors_gpc=rng.random() < 0.3,
                sets_partitioned=rng.random() < 0.2,
                sync_partners=(partner,) if partner is not None else (),
                drop_after_reject_prob=rng.choice([0.0, 0.25, 0.5]),
                resets_on_send=rng.random() < 0.2,
                listed=rng.random() < 0.9,
            )
        )
    domains = {t.domain for t in trackers}
    trackers = [
        sim.TrackerSpec(
            domain=t.domain,
            cookies=t.cookies,
            honors_gpc=t.honors_gpc,
            sets_partitioned=t.sets_partitioned,
            sync_partners=tuple(p for p in t.sync_partners if p in domains and p != t.domain),
            drop_after_reject_prob=t.drop_after_reject_prob,
            resets_on_send=t.resets_on_send,
            listed=t.listed,
        )
        for t in trackers
    ]
    embeds = _sampled_embeds([t.domain for t in trackers], range(0, min(4, n_trackers) + 1))
    return _ecosystem(rng, trackers, n_sites, embeds, gpc=rng.random() < 0.3)


def oracle_sweep(seed: int, scale: float = 1.0) -> list[sim.EcosystemConfig]:
    """100 small random ecosystems of 6-24 sites and 2-6 trackers, each run through the whole chain."""
    rng = random.Random(f"oracle-sweep:{seed}")
    count = round(SWEEP_ECOSYSTEMS * scale)
    sizes = zip(_deal(rng, range(6, 25), count), _deal(rng, range(2, 7), count))
    configs = [_random_ecosystem(rng, n_sites, n_trackers) for n_sites, n_trackers in sizes]
    assert all(6 <= len(c.sites) <= 24 and 2 <= len(c.trackers) <= 6 for c in configs)
    return configs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "crawl-scale",
            "Many sites, few trackers each, as in the paper's crawl: per-site state grows, so scans over the store, jar or history go quadratic.",
            crawl_scale,
        ),
        Workload(
            "tracker-dense",
            "Cookie-dense pages: work scales with cookies, not sites; jar matching, setter lookups, syncs and resets dominate.",
            tracker_dense,
        ),
        Workload(
            "oracle-sweep",
            "100 tiny ecosystems: per-command fixed costs (config, PSL and list load, log parse, snapshot, CSV writes) dominate.",
            oracle_sweep,
        ),
    )
}
