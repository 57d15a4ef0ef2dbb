from __future__ import annotations

import enum
import json
import random
import re
from datetime import datetime

import pytest
from hypothesis import given, strategies as st

from cookietrail import cli, crawllog, model
from cookietrail import simulator as sim
from cookietrail.crawllog import BannerObserved, CookieSet, HttpRequest, Interaction, VisitEnd, VisitStart
from cookietrail.detector import IntractableFinding, ResetFinding, SyncFinding
from cookietrail.errors import InputError
from cookietrail.jar import _ENTRY_FIELDS, _HISTORY_FIELDS, _PAYLOAD_FIELDS, CookieJar, HistoryEntry, _Payload
from cookietrail.model import (
    FIXED_EXPIRY,
    BannerButton,
    BannerDescriptor,
    BannerLayer,
    BannerToggle,
    BannerType,
    ButtonAction,
    Channel,
    ConsentState,
    CookieKey,
    CookieRecord,
    InteractionAction,
    InteractionStage,
    Iteration,
    Phase,
    VisitOutcome,
    canonicalize_host,
    domain_match,
    label_suffixes,
)
from helpers import random_config, run_pipeline, save_jar


class TestCanonicalizeHost:
    def test_case_and_dot_normalization(self):
        assert canonicalize_host(".Tracker.NET") == "tracker.net"

    def test_identity(self):
        assert canonicalize_host("example.com") == "example.com"

    def test_idna_punycode(self):
        # Frozen from the standard IDNA conversion of this label.
        assert canonicalize_host("bücher.example") == "xn--bcher-kva.example"

    def test_trailing_dot_removed(self):
        assert canonicalize_host("example.com.") == "example.com"

    def test_empty_host(self):
        with pytest.raises(InputError) as exc:
            canonicalize_host("")
        assert exc.value.code == "EMPTY_HOST"

    def test_only_dots(self):
        with pytest.raises(InputError) as exc:
            canonicalize_host("...")
        assert exc.value.code == "EMPTY_HOST"

    def test_empty_interior_label(self):
        with pytest.raises(InputError) as exc:
            canonicalize_host("a..b")
        assert exc.value.code == "INVALID_LABEL"

    def test_overlong_label(self):
        with pytest.raises(InputError) as exc:
            canonicalize_host("a" * 64 + ".com")
        assert exc.value.code == "INVALID_LABEL"

    def test_illegal_character(self):
        with pytest.raises(InputError) as exc:
            canonicalize_host("bad host.com")
        assert exc.value.code == "INVALID_LABEL"

    @given(
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=20),
            min_size=1,
            max_size=5,
        )
    )
    def test_idempotent(self, labels):
        host = ".".join(labels)
        once = canonicalize_host(host)
        assert canonicalize_host(once) == once

    # Labels that reach every branch: canonical, upper case, IDNA (good and failing), too long,
    # illegal characters and empty.
    LABELS = ("a", "z9", "ab-c_d", "x" * 63, "x" * 64, "Shop", "ABC", "bücher", "ÄÖ", "☃", "á",
              "ß", "�", "a b", "a/b", "", "ü" * 60, "é" * 70)
    EDGES = ("", ".", "..", " ", "\t", "\n", " \n", ". ")

    def _result(self, raw):
        try:
            return canonicalize_host(raw)
        except InputError as exc:
            return exc.code, exc.message

    def test_fast_path_matches_full_path(self, monkeypatch):
        """Seeded hosts: the fast path changes no result, error code or message."""
        rng = random.Random(17)
        hosts = ["", " ", "\n", "a.b\n", "a.b ", " a.b", ".a.b", "a.b.", "a..b", "A.b", "x" * 63 + ".com",
                 "x" * 64 + ".com", "a." * 200 + "b"]
        for _ in range(3000):
            labels = [rng.choice(self.LABELS) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:  # mostly canonical labels, so both paths are hit often
                labels = [rng.choice(self.LABELS[:4]) for _ in labels]
            edges = [rng.choice(self.EDGES) if rng.random() < 0.3 else "" for _ in range(2)]
            hosts.append(edges[0] + ".".join(labels) + edges[1])
        fast = [self._result(raw) for raw in hosts]
        monkeypatch.setattr(model, "_CANONICAL_HOST_RE", re.compile(r"(?!)"))  # never matches: the full path
        assert [self._result(raw) for raw in hosts] == fast
        monkeypatch.undo()
        taken = sum(model._CANONICAL_HOST_RE.fullmatch(raw) is not None for raw in hosts)
        failed = sum(isinstance(result, tuple) for result in fast)
        assert taken >= 500 and len(hosts) - taken - failed >= 500 and failed >= 500, (taken, failed)
        # Every fast-path input is already canonical: returned as the same object.
        assert all(canonicalize_host(raw) is raw for raw in hosts if model._CANONICAL_HOST_RE.fullmatch(raw))


class TestCookieKey:
    def test_partition_participates_in_identity(self):
        plain = CookieKey("id", "tracker.net")
        partitioned = CookieKey("id", "tracker.net", "shop.com")
        assert plain != partitioned
        assert len({plain, partitioned}) == 2

    def test_equality_is_field_wise(self):
        assert CookieKey("id", "t.net", "a.com") == CookieKey("id", "t.net", "a.com")

    def test_stable_under_canonicalization(self):
        key = CookieKey("id", canonicalize_host(".Tracker.NET"))
        assert key == CookieKey("id", canonicalize_host("tracker.net"))


def test_cookie_records_are_immutable_and_hash_as_their_fields(tmp_path):
    """Keys, jar records, history rows and findings of a run, and of its reloaded jar, refuse assignment
    and hash as the tuple of their fields (the hash a frozen dataclass had), so dict and set order hold."""
    _, jar, result = run_pipeline(random_config(random.Random(34)), 34)
    save_jar(jar, tmp_path / "jar.json")
    loaded = CookieJar.load(tmp_path / "jar.json")
    records = [*jar.entries, *jar.entries.values(), *jar.history, *loaded.entries.values(), *loaded.history,
               *result.findings, *result.resets, *result.syncs]
    assert {type(r) for r in records} == {
        CookieKey, CookieRecord, HistoryEntry, IntractableFinding, ResetFinding, SyncFinding,
    }
    assert {row.deleted for row in loaded.history} == {True, False}
    assert all(r.effective_expiry is FIXED_EXPIRY for r in jar.entries.values())
    for record in records:
        assert hash(record) == hash(tuple(record))
        for name in (record._fields[0], record._fields[-1], "unknown_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, "x")


# Each kind's declared wire names, the tag (``kind``) included: one reads "TAG" in ``_declare``.
_DECLARED = {
    ResetFinding: ["name", "host", "partition", "sender_site", "event_index"],
    VisitStart: ["kind", "visit_id", "site", "rank", "phase", "iteration", "gpc_enabled"],
}


def _declare(kind, names, wire_only=()):
    return model.RecordFields(kind, wire_only=wire_only, **{name: "TAG" if name == "kind" else {str} for name in names})


@pytest.mark.parametrize(
    "kind, fields, wire_only",
    [
        (ResetFinding, ["name", "host", "partition", "event_index", "sender_site"], ()),  # out of record order
        (ResetFinding, ["name", "host", "partition", "sender", "event_index"], ()),  # a field renamed on one side
        (ResetFinding, ["name", "host", "sender_site", "event_index"], ()),  # the key not flattened in full
        (ResetFinding, ["name", "host", "partition", "sender_site", "event_index", "extra"], ()),  # an undeclared extra
        # a held field dropped
        (ResetFinding, ["name", "host", "partition", "sender_site", "event_index"], ("sender_site",)),
        (VisitStart, ["kind", "visit_id", "rank", "site", "phase", "iteration", "gpc_enabled"], ()),  # out of order
        (VisitStart, [*_DECLARED[VisitStart], "event_index"], ()),  # event_index, which the reader numbers, on the wire
        (VisitStart, ["kind", "visit_id", "host", "rank", "phase", "iteration", "gpc_enabled"], ()),  # a field renamed
    ],
)
def test_a_declaration_must_name_the_key_then_the_record_fields(kind, fields, wire_only):
    """A record kind's wire declaration that drifts from its ``NamedTuple`` fails when it is made."""
    _declare(kind, _DECLARED[kind])
    with pytest.raises(TypeError, match=rf"^{kind.__name__} is declared as "):
        _declare(kind, fields, wire_only)


# --- every compiled codec against json.dumps ----------------------------------------------------

_CODECS = {
    **crawllog._EVENT_FIELDS,
    IntractableFinding: cli._FINDING_FIELDS,
    ResetFinding: cli._RESET_FIELDS,
    SyncFinding: cli._SYNC_FIELDS,
    CookieRecord: _ENTRY_FIELDS,
    HistoryEntry: _HISTORY_FIELDS,
    _Payload: _PAYLOAD_FIELDS,
    sim.ValueGenerator: sim._GENERATOR_FIELDS,
    sim.CookieSpec: sim._COOKIE_FIELDS,
    sim.TrackerSpec: sim._TRACKER_FIELDS,
    sim.EmbedSpec: sim._EMBED_FIELDS,
    sim.SiteSpec: sim._SITE_FIELDS,
    sim.Schedule: sim._SCHEDULE_FIELDS,
    sim._Sections: sim._SECTIONS_FIELDS,
    BannerButton: crawllog._BUTTON_FIELDS,
    BannerToggle: crawllog._TOGGLE_FIELDS,
    BannerLayer: crawllog._LAYER_FIELDS,
    BannerDescriptor: crawllog._BANNER_FIELDS,
}


def _awkward_records() -> list:
    """(record, its wire-only fields) of every declared kind: awkward strings, None, "" and awkward partitions,
    bools, ints past 64 bits, session and deleting lifetimes, float probabilities and default values.  Hosts, and a
    jar snapshot's partitions and sites, are canonical and visit ids not empty, as a decoded record's are."""
    from test_crawllog import _AWKWARD

    def pick(values, n):
        values = list(values)
        return values[n % len(values)]

    records = []
    for n, text in enumerate(_AWKWARD):
        visit_id, host, big = text or "v", pick(["a.com", "x-1.b_c.example"], n), pick([1, 7, 2**31, 2**70], n)
        flag = n % 2 == 0
        button, toggle = BannerButton(text, pick(ButtonAction, n)), BannerToggle(text, flag, not flag)
        layers = (BannerLayer(buttons=(button, BannerButton("", ButtonAction.ACCEPT))), BannerLayer(toggles=(toggle,)))
        banner = BannerDescriptor(pick([BannerType.CMP, BannerType.NATIVE, BannerType.PAYWALL], n), layers[:1 + n % 2])
        records += [(event, {}) for event in [
            VisitStart(visit_id, host, big, pick(Phase, n), pick(Iteration, n), flag, n),
            BannerObserved(visit_id, banner, big),
            BannerObserved(visit_id, BannerDescriptor(BannerType.NONE), n),
            Interaction(visit_id, pick(InteractionAction, n), pick(InteractionStage, n), n),
            HttpRequest(visit_id, pick(InteractionStage, n), host, text, pick(Channel, n), text, pick([None, text], n),
                        n),
            CookieSet(visit_id, pick(InteractionStage, n), text, host, n),
            VisitEnd(visit_id, pick(VisitOutcome, n), n),
        ]]
        records += [(record, {}) for record in [
            button, toggle, *layers, BannerLayer(), banner, BannerDescriptor(BannerType.NONE),
        ]]
        rows = []
        for partition in (None, "", text):
            key = CookieKey(text, text, partition)
            jar_key = CookieKey(text, host, None if partition is None else "a.com")
            rows += [
                (CookieRecord(jar_key, text, pick([None, 3600.5, -1, 0.0, 2**70, 1e300], n), host, big,
                              pick(ConsentState, n), pick(Phase, n), pick([FIXED_EXPIRY, datetime(2026, 1, 1, 5)], n)),
                 {}),
                (HistoryEntry(jar_key, host, big, flag), {}),
            ]
            records += [
                (IntractableFinding(key, text, text, text, pick(InteractionStage, n), pick(Channel, n), text, big,
                                    flag), {"setter_sites": pick([[], [text], _AWKWARD], n)}),
                (ResetFinding(key, text, big), {}),
                (SyncFinding(key, text, text, text, text), {}),
            ]
        records += rows
        entries = tuple(row for row, _ in rows if type(row) is CookieRecord)
        history = tuple(row for row, _ in rows if type(row) is HistoryEntry)
        records.append((_Payload(pick([[], [host], ["a.com", host]], n), entries[:n % 4], history[n % 2:]), {}))

        generator = sim.ValueGenerator(pick(sim.VALUE_KINDS, n), big, text)
        cookies = (sim.CookieSpec(text, generator, pick([None, 0, -1, 365 * 86400, 2**70], n)), sim.CookieSpec(text))
        tracker = sim.TrackerSpec(host, cookies[:1 + n % 2], flag, not flag, pick([(), (host,), ("a.com", host)], n),
                                  pick([0.0, 0.25, 1, 1e-300], n), flag, not flag)
        embeds = (sim.EmbedSpec(host, pick(sim.EmbedLoadPolicy, n), pick(Channel, n)), sim.EmbedSpec("a.com"))
        site = sim.SiteSpec(host, big, pick([banner, BannerDescriptor(BannerType.NONE)], n), embeds[:n % 3], flag)
        schedule = sim.Schedule(pick([(), (host,)], n), (host, "a.com"), flag)
        records += [(record, {}) for record in [
            sim.ValueGenerator(), generator, *cookies, tracker, sim.TrackerSpec("a.com", cookies[1:]), *embeds, site,
            schedule, sim._Sections((site,) * (n % 3), (tracker,), schedule),
        ]]
    return records


def _ref_value(value):
    """A field's value on the wire: enums by name, dates in ISO format, banners as objects of lists, a button or
    toggle as the list of its values, another record as its object, and a tuple as a list."""
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, datetime):
        return value.isoformat()
    if isinstance(value, BannerDescriptor):
        from test_crawllog import _ref_banner_obj

        return _ref_banner_obj(value)
    if type(value) in (BannerButton, BannerToggle):
        return list(map(_ref_value, value))
    if hasattr(value, "_fields"):
        return _ref_object(value, {})
    if type(value) in (tuple, list):
        return list(map(_ref_value, value))
    return value


def _ref_object(record, wire_only: dict):
    """The JSON value that writes ``record``: a key flattened, a log event's tag in place of its event_index."""
    from test_crawllog import _REF_KIND_NAMES

    if type(record) in (BannerButton, BannerToggle):
        return _ref_value(record)
    obj = dict(wire_only)
    for name, value in zip(record._fields, record):
        if type(value) is CookieKey:
            obj.update(value._asdict())
        else:
            obj[name] = _ref_value(value)
    if type(record) in _REF_KIND_NAMES:
        obj["kind"] = _REF_KIND_NAMES[type(record)]
        del obj["event_index"]
    return obj


@pytest.mark.parametrize("kind", list(_CODECS), ids=lambda kind: kind.__name__)
def test_every_codec_writes_json_dumps_bytes_and_reads_them_back(kind):
    """Each declared kind's ``encode`` writes the bytes of ``json.dumps`` of its object, which ``decode`` reads
    back into the record, of its kind and with a first field of its own kind."""
    codec = _CODECS[kind]
    cases = [(record, wire_only) for record, wire_only in _awkward_records() if type(record) is kind]
    assert len(_CODECS) == 23 and len(cases) >= 8
    for record, wire_only in cases:
        memos = [{}] if codec.memos else []
        texts = [json.dumps(value, separators=(",", ":")) for value in wire_only.values()]
        line = codec.encode(record, *memos, *texts)
        assert line == json.dumps(_ref_object(record, wire_only), sort_keys=True, separators=(",", ":")), record
        obj = json.loads(line)
        index = [record.event_index] if codec.tag else []
        decoded = codec.decode(obj, *index, *memos * 2)
        assert decoded == record and type(decoded) is kind and type(decoded[0]) is type(record[0]), record


def test_a_config_writes_what_it_reads():
    """The declared encoder of a config's sections writes the object of ``EcosystemConfig.to_obj``."""
    for seed in range(200):
        config = random_config(random.Random(seed))
        text = sim._SECTIONS_FIELDS.encode(sim._Sections(config.sites, config.trackers, config.schedule), {})
        assert json.loads(text) == config.to_obj(), seed
        assert sim.EcosystemConfig.from_json(text) == config, seed


class TestDomainMatch:
    def test_exact(self):
        assert domain_match("tracker.net", "tracker.net")

    def test_subdomain(self):
        assert domain_match("a.tracker.net", "tracker.net")

    def test_requires_label_boundary(self):
        assert not domain_match("nottracker.net", "tracker.net")

    def test_no_reverse_match(self):
        assert not domain_match("tracker.net", "a.tracker.net")


def test_label_suffixes_are_the_domain_matched_hosts_longest_first():
    """``label_suffixes(h)`` holds exactly the hosts ``e`` with ``domain_match(h, e)``, each once, longest first."""
    hosts = ["net", "localhost", "t.net", "a.t.net", "sync.t0.net", "at.net", "x.y.z.w.v.u.example", "a.a.a.a"]
    universe = {".".join(host.split(".")[i:]) for host in hosts for i in range(len(host.split(".")))}
    universe |= {"a.net", "t.ne", "b.t.net", "y.z.w.v.u.example.com"}
    for host in hosts:
        suffixes = label_suffixes(host)
        assert sorted(suffixes) == sorted(e for e in universe if domain_match(host, e)), host
        assert [len(s) for s in suffixes] == sorted((len(s) for s in suffixes), reverse=True), host
        assert suffixes[0] == host and len(set(suffixes)) == len(suffixes), host


def test_banner_none_must_have_no_layers():
    """A NONE banner with layers is refused by the banner's decode, in a log or a config, and by a config's
    ``validate``, for a config built in code."""
    with pytest.raises(ValueError, match=r"^banner: banner_type NONE must have no layers$"):
        crawllog.decode_banner({"banner_type": "NONE", "layers": [{}]}, "banner", {})
    site = sim.SiteSpec("a.com", 1, BannerDescriptor(BannerType.NONE, (BannerLayer(),)))
    with pytest.raises(InputError) as exc:
        sim.EcosystemConfig((site,), (), sim.Schedule((), ()))
    assert (exc.value.code, exc.value.message) == (
        "INVALID_CONFIG", "sites[0]: banner: banner_type NONE must have no layers"
    )
