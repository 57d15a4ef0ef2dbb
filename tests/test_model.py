from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, strategies as st

from cookietrail import model
from cookietrail.detector import IntractableFinding, ResetFinding, SyncFinding
from cookietrail.errors import InputError
from cookietrail.jar import CookieJar, HistoryEntry
from cookietrail.model import (
    FIXED_EXPIRY,
    BannerDescriptor,
    BannerLayer,
    BannerType,
    CookieKey,
    CookieRecord,
    canonicalize_host,
    domain_match,
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


@pytest.mark.parametrize(
    "fields, wire_only",
    [
        (["name", "host", "partition", "event_index", "sender_site"], ()),  # out of record order
        (["name", "host", "partition", "sender", "event_index"], ()),  # a field renamed on one side
        (["name", "host", "sender_site", "event_index"], ()),  # the key not flattened in full
        (["name", "host", "partition", "sender_site", "event_index", "extra"], ()),  # an undeclared extra
        (["name", "host", "partition", "sender_site", "event_index"], ("sender_site",)),  # a held field dropped
    ],
)
def test_a_declaration_must_name_the_key_then_the_record_fields(fields, wire_only):
    """A record kind's wire declaration that drifts from its ``NamedTuple`` fails when it is made."""
    model.RecordFields(ResetFinding, **dict.fromkeys(["name", "host", "partition", "sender_site", "event_index"],
                                                     {str}))
    with pytest.raises(TypeError, match=r"^ResetFinding is declared as "):
        model.RecordFields(ResetFinding, wire_only=wire_only, **dict.fromkeys(fields, {str}))


class TestDomainMatch:
    def test_exact(self):
        assert domain_match("tracker.net", "tracker.net")

    def test_subdomain(self):
        assert domain_match("a.tracker.net", "tracker.net")

    def test_requires_label_boundary(self):
        assert not domain_match("nottracker.net", "tracker.net")

    def test_no_reverse_match(self):
        assert not domain_match("tracker.net", "a.tracker.net")


def test_banner_none_must_have_no_layers():
    with pytest.raises(InputError):
        BannerDescriptor(BannerType.NONE, (BannerLayer(),))
