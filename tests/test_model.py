from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

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
from helpers import random_config, run_pipeline


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
    jar.save(tmp_path / "jar.json")
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
