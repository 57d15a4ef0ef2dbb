"""Tracker blocklists: plain domain lists, Adblock-rule extraction, host matching.

A tracker list is a ``frozenset`` of canonical domains; several lists are
their union.  Matching operates on raw cookie hostnames, not registrable
domains: a host matches when it equals a list entry or ends with
``"." + entry``.

List files end each line at ``\\n`` only: ``str.splitlines`` would also end one
at a form feed, U+2028 and the like, and number every later line wrong.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputError, ParseIssue, quoted
from .model import canonicalize_host, label_suffixes


def is_tracker(host: str, domains: frozenset[str]) -> bool:
    """True iff some entry equals ``host`` or ``host`` ends with ``"." + entry``: iff a label suffix is listed."""
    return not domains.isdisjoint(label_suffixes(host))


def parse_domain_list(text: str, *, issues: list[ParseIssue] | None = None) -> frozenset[str]:
    """Parse a one-domain-per-line list; ``#`` comments and blank lines allowed.

    Malformed lines are collected into ``issues`` as ``MALFORMED_DOMAIN`` with
    their line number and parsing continues.
    """
    domains: set[str] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
    return frozenset(domains)


# Whole-domain blocking rules only: ||domain^ with an optional $third-party
# option.  Anything else (paths, exceptions, element hiding, other options)
# carries no bare-domain meaning here.
_ADBLOCK_DOMAIN_RULE = re.compile(r"\|\|([^/^$*|]+)\^(\$third-party)?\Z")


@dataclass(frozen=True)
class AdblockExtraction:
    domains: frozenset[str]
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
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
    return AdblockExtraction(frozenset(domains), ignored, tuple(issues))
