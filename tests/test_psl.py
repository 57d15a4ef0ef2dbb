from __future__ import annotations

import re
from pathlib import Path

import pytest

from cookietrail.errors import InputError
from cookietrail.model import canonicalize_host
from cookietrail.psl import etld_plus_one, load_psl

DATA_DIR = Path(__file__).parent / "data"


class TestLoadPsl:
    def test_buckets_by_rule_kind(self):
        rules = load_psl("com\n// comment\n*.ck\n!www.ck\n")
        assert rules.normal_rules == {"com"}
        assert rules.wildcard_rules == {"ck"}
        assert rules.exception_rules == {"www.ck"}

    def test_empty_input(self):
        rules = load_psl("")
        assert len(rules) == 0

    def test_two_plain_rules(self):
        rules = load_psl("co.uk\ncom\n")
        assert rules.normal_rules == {"co.uk", "com"}
        assert not rules.wildcard_rules and not rules.exception_rules

    def test_malformed_rule(self):
        with pytest.raises(InputError) as exc:
            load_psl("co..uk\n")
        assert exc.value.code == "MALFORMED_RULE"

    def test_private_section_flag(self):
        # An ICANN rule after the private section, which ends the fixture, is kept either way.
        text = (DATA_DIR / "psl_fixture.dat").read_text(encoding="utf-8") + "after.test\n"
        with_private = load_psl(text)
        without = load_psl(text, include_private=False)
        assert "uk.com" in with_private.normal_rules
        assert "uk.com" not in without.normal_rules
        assert "after.test" in with_private.normal_rules and "after.test" in without.normal_rules
        assert with_private.normal_rules - without.normal_rules == {"uk.com"}

    def test_unicode_rules_are_punycoded(self):
        rules = load_psl("公司.cn\n")
        assert rules.normal_rules == {"xn--55qx5d.cn"}


class TestEtldPlusOne:
    def test_basic_two_level_rule(self):
        rules = load_psl("co.uk\n")
        assert etld_plus_one("www.example.co.uk", rules) == "example.co.uk"

    def test_already_registrable(self):
        rules = load_psl("com\n")
        assert etld_plus_one("example.com", rules) == "example.com"

    def test_suffix_only_input(self):
        rules = load_psl("co.uk\n")
        with pytest.raises(InputError) as exc:
            etld_plus_one("co.uk", rules)
        assert exc.value.code == "HOST_IS_PUBLIC_SUFFIX"

    def test_unknown_tld_single_label_suffix(self):
        rules = load_psl("com\n")
        assert etld_plus_one("deep.sub.example.zz", rules) == "example.zz"

    def test_longest_rule_wins(self):
        rules = load_psl("uk\nco.uk\n")
        assert etld_plus_one("a.b.co.uk", rules) == "b.co.uk"


_VECTOR_RE = re.compile(r"checkPublicSuffix\((null|'[^']*'), (null|'[^']*')\);")


def _suite_vectors():
    text = (DATA_DIR / "psl_suite.txt").read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("//"):
            continue
        match = _VECTOR_RE.fullmatch(line)
        assert match, f"unparseable vector line: {line!r}"
        args = [None if g == "null" else g[1:-1] for g in match.groups()]
        yield args[0], args[1]


def test_published_suite_vectors_parse():
    vectors = list(_suite_vectors())
    assert len(vectors) == 78


def test_published_suite_conformance(psl_rules):
    """Every vector of the published registrable-domain test suite must pass."""
    failures = []
    for raw_input, expected in _suite_vectors():
        if raw_input is None or raw_input.startswith("."):
            # Input-validity vectors: the suite expects null for these.
            if expected is not None:
                failures.append((raw_input, expected, "expected non-null for invalid input"))
            continue
        host = canonicalize_host(raw_input)
        try:
            got = etld_plus_one(host, psl_rules)
        except InputError as exc:
            got = None if exc.code == "HOST_IS_PUBLIC_SUFFIX" else f"error:{exc.code}"
        want = canonicalize_host(expected) if expected is not None else None
        if got != want:
            failures.append((raw_input, want, got))
    assert not failures, f"{len(failures)} suite failures: {failures[:10]}"
