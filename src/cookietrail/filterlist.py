"""Tracker blocklists: plain domain lists, Adblock-rule extraction, host matching.

Matching operates on raw cookie hostnames, not registrable domains: a host
matches when it equals a list entry or ends with ``"." + entry``.  Lookups go
through a reversed-label trie whose observable behavior is identical to a
linear scan of that predicate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from .errors import InputError, ParseIssue, quoted
from .model import canonicalize_host

_TRIE_END = ""  # terminal marker inside trie nodes; "" can never be a label


def _build_trie(domains: Iterable[str]) -> dict:
    root: dict = {}
    for domain in domains:
        node = root
        for label in reversed(domain.split(".")):
            node = node.setdefault(label, {})
        node[_TRIE_END] = True
    return root


@dataclass(frozen=True)
class TrackerDomainSet:
    """Deduplicated set of canonical tracker domains from one or more lists."""

    domains: frozenset[str]
    _trie: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_trie", _build_trie(self.domains))

    def __len__(self) -> int:
        return len(self.domains)

    def __contains__(self, domain: str) -> bool:
        return domain in self.domains


EMPTY_TRACKER_SET = TrackerDomainSet(frozenset())


def is_tracker(host: str, tracker_set: TrackerDomainSet) -> bool:
    """True iff some entry equals ``host`` or ``host`` ends with ``"." + entry``."""
    node = tracker_set._trie
    for label in reversed(host.split(".")):
        node = node.get(label)
        if node is None:
            return False
        if _TRIE_END in node:
            return True
    return False


def merge(sets: Iterable[TrackerDomainSet]) -> TrackerDomainSet:
    domains: set[str] = set()
    for tracker_set in sets:
        domains |= tracker_set.domains
    return TrackerDomainSet(frozenset(domains))


def parse_domain_list(text: str, *, issues: list[ParseIssue] | None = None) -> TrackerDomainSet:
    """Parse a one-domain-per-line list; ``#`` comments and blank lines allowed.

    Malformed lines are collected into ``issues`` as ``MALFORMED_DOMAIN`` with
    their line number and parsing continues.
    """
    domains: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if " " in line or "\t" in line:
                raise InputError("MALFORMED_DOMAIN", "whitespace inside entry")
            domains.add(canonicalize_host(line))
        except InputError as exc:
            if issues is not None:
                issues.append(ParseIssue("MALFORMED_DOMAIN", f"{quoted(line)}: {exc.message}", lineno))
    return TrackerDomainSet(frozenset(domains))


# Whole-domain blocking rules only: ||domain^ with an optional $third-party
# option.  Anything else (paths, exceptions, element hiding, other options)
# carries no bare-domain meaning here.
_ADBLOCK_DOMAIN_RULE = re.compile(r"\|\|([^/^$*|]+)\^(\$third-party)?\Z")


@dataclass(frozen=True)
class AdblockExtraction:
    domains: TrackerDomainSet
    ignored_rules: int
    issues: tuple[ParseIssue, ...] = ()


def extract_domains_from_adblock(text: str) -> AdblockExtraction:
    """Extract whole-domain blocking rules from an Adblock-syntax list.

    Only ``||domain^`` and ``||domain^$third-party`` produce domains;
    exception rules (``@@``), path rules, and every other rule shape are
    ignored and counted.
    """
    domains: set[str] = set()
    ignored = 0
    issues: list[ParseIssue] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("!") or line.startswith("["):
            continue
        match = _ADBLOCK_DOMAIN_RULE.fullmatch(line)
        if match is None:
            ignored += 1
            continue
        try:
            domains.add(canonicalize_host(match.group(1)))
        except InputError as exc:
            issues.append(ParseIssue("MALFORMED_DOMAIN", f"{quoted(line)}: {exc.message}", lineno))
    return AdblockExtraction(TrackerDomainSet(frozenset(domains)), ignored, tuple(issues))
