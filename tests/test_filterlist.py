from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from cookietrail.errors import InputError, ParseIssue
from cookietrail.filterlist import extract_domains_from_adblock, is_tracker, parse_domain_list
from cookietrail.psl import load_psl


def reference_is_tracker(host: str, entries) -> bool:
    """Character-level restatement of the matching predicate; the test oracle."""
    for entry in entries:
        if host == entry or host.endswith("." + entry):
            return True
    return False


class TestParseDomainList:
    def test_comments_and_blanks(self):
        result = parse_domain_list("tracker.net\n# c\nads.example\n")
        assert result == {"tracker.net", "ads.example"}

    def test_empty(self):
        assert parse_domain_list("") == frozenset()

    def test_dedup_after_canonicalization(self):
        result = parse_domain_list("Tracker.NET\ntracker.net\n")
        assert result == {"tracker.net"}

    def test_malformed_lines_collected_with_line_numbers(self):
        issues: list[ParseIssue] = []
        result = parse_domain_list("good.net\nbad domain\nalso.good\n", issues=issues)
        assert result == {"good.net", "also.good"}
        assert [i.line for i in issues] == [2]
        assert issues[0].code == "MALFORMED_DOMAIN"


class TestAdblockExtraction:
    def test_whole_domain_rule(self):
        assert extract_domains_from_adblock("||tracker.net^").domains == {"tracker.net"}

    def test_exception_rules_ignored(self):
        extraction = extract_domains_from_adblock("@@||good.example^")
        assert len(extraction.domains) == 0
        assert extraction.ignored_rules == 1

    def test_path_rules_ignored(self):
        extraction = extract_domains_from_adblock("||tracker.net/path^")
        assert len(extraction.domains) == 0
        assert extraction.ignored_rules == 1

    def test_third_party_option_kept(self):
        assert extract_domains_from_adblock("||t.net^$third-party").domains == {"t.net"}

    def test_other_options_ignored(self):
        assert len(extract_domains_from_adblock("||t.net^$script").domains) == 0

    def test_comments_not_counted_as_ignored(self):
        extraction = extract_domains_from_adblock("! comment\n[Adblock Plus 2.0]\n||a.net^\n")
        assert extraction.ignored_rules == 0
        assert extraction.domains == {"a.net"}

    def test_reference_comparison_on_small_list(self):
        # Oracle: a justdomains-style conversion keeps exactly the whole-domain
        # blocking rules.  Expected set derived by hand from the rule shapes.
        text = "\n".join(
            [
                "! heading",
                "||ads.example^",
                "||tracker.net^$third-party",
                "@@||allow.example^",
                "||path.example/x^",
                "##.ad-banner",
                "|http://exact.example/",
                "||Upper.Example^",
            ]
        )
        extraction = extract_domains_from_adblock(text)
        assert extraction.domains == {"ads.example", "tracker.net", "upper.example"}
        assert extraction.ignored_rules == 4


class TestIsTracker:
    def test_exact_match(self):
        assert is_tracker("tracker.net", frozenset({"tracker.net"}))

    def test_subdomain_match(self):
        assert is_tracker("sub.tracker.net", frozenset({"tracker.net"}))

    def test_label_boundary_required(self):
        assert not is_tracker("nottracker.net", frozenset({"tracker.net"}))

    def test_monotone_under_union(self):
        small = frozenset({"a.net"})
        large = small | frozenset({"b.org", "c.io"})
        for host in ["a.net", "x.a.net", "b.org", "zzz.example"]:
            if is_tracker(host, small):
                assert is_tracker(host, large)

    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "ab", "t1", "net", "com"]), min_size=1, max_size=4),
            min_size=0,
            max_size=6,
        ),
        st.lists(st.sampled_from(["a", "b", "ab", "t1", "net", "com"]), min_size=1, max_size=5),
    )
    def test_is_tracker_agrees_with_reference(self, entry_labels, host_labels):
        entries = frozenset(".".join(labels) for labels in entry_labels)
        host = ".".join(host_labels)
        assert is_tracker(host, entries) == reference_is_tracker(host, entries)


def test_is_tracker_agrees_with_reference_bulk():
    rng = random.Random(20240131)
    labels = ["a", "b", "c", "ad", "ads", "t", "tr", "net", "com", "io"]
    for _ in range(2000):
        entries = frozenset(
            ".".join(rng.choices(labels, k=rng.randint(1, 3))) for _ in range(rng.randint(0, 5))
        )
        host = ".".join(rng.choices(labels, k=rng.randint(1, 5)))
        assert is_tracker(host, entries) == reference_is_tracker(host, entries)


def _psl_error_line(first: str) -> int:
    with pytest.raises(InputError) as caught:
        load_psl(f"{first}\n*.bad..x\n")
    assert "'*.bad..x'" in caught.value.message
    return int(caught.value.message.split(":")[0].removeprefix("line "))


def _domain_list_error_line(first: str) -> int:
    issues: list[ParseIssue] = []
    parse_domain_list(f"{first}\nbad domain\n", issues=issues)
    [line] = [i.line for i in issues if "'bad domain'" in i.detail]
    return line


def _adblock_error_line(first: str) -> int:
    [issue] = [i for i in extract_domains_from_adblock(f"{first}\n||bad..x^\n").issues if "bad..x" in i.detail]
    return issue.line


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
@pytest.mark.parametrize("error_line, first", [
    (_psl_error_line, "com{}net"),
    (_domain_list_error_line, "a.net{}b.net"),
    (_adblock_error_line, "||a.net^{}||b.net^"),
], ids=["psl", "domain-list", "adblock"])
def test_list_lines_end_at_newline_only(error_line, first, separator):
    """A separator that ``str.splitlines`` breaks at stays inside its line, so the next line is still line 2."""
    assert error_line(first.format(separator)) == 2
