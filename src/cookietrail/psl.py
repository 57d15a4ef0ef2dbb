"""Public Suffix List parsing and registrable-domain (eTLD+1) resolution."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, quoted
from .model import SiteId, canonicalize_host, label_suffixes

_PRIVATE_BEGIN = "===BEGIN PRIVATE DOMAINS==="
_PRIVATE_END = "===END PRIVATE DOMAINS==="


@dataclass(frozen=True)
class PslRuleSet:
    """Parsed suffix rules, bucketed by kind.

    ``wildcard_rules`` holds the part after ``*.`` and ``exception_rules``
    the part after ``!``.  All rules are canonical lowercase punycode.
    """

    normal_rules: frozenset[str]
    wildcard_rules: frozenset[str]
    exception_rules: frozenset[str]

    def __len__(self) -> int:
        return len(self.normal_rules) + len(self.wildcard_rules) + len(self.exception_rules)


EMPTY_RULESET = PslRuleSet(frozenset(), frozenset(), frozenset())


def load_psl(text: str, *, include_private: bool = True) -> PslRuleSet:
    """Parse a suffix list in its canonical text format.

    Lines end at ``\\n`` only, and a rule is read up to the first whitespace.
    Lines starting with ``//`` are comments; ``!`` marks exception rules and
    ``*.`` wildcard rules.  ``include_private`` keeps the private-domains
    section (the default); input order is irrelevant.

    Raises:
        InputError: ``MALFORMED_RULE`` when a rule has an empty or illegal label.
    """
    normal: set[str] = set()
    wildcard: set[str] = set()
    exception: set[str] = set()
    in_private = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("//"):
            if _PRIVATE_BEGIN in line:
                in_private = True
            elif _PRIVATE_END in line:
                in_private = False
            continue
        if in_private and not include_private:
            continue
        rule = line.split()[0]
        if rule.startswith("!"):
            bucket, body = exception, rule[1:]
        elif rule.startswith("*."):
            bucket, body = wildcard, rule[2:]
        else:
            bucket, body = normal, rule
        try:
            bucket.add(canonicalize_host(body))
        except InputError as exc:
            raise InputError("MALFORMED_RULE", f"line {lineno}: bad rule {quoted(rule)} ({exc.message})") from None
    return PslRuleSet(frozenset(normal), frozenset(wildcard), frozenset(exception))


def _public_suffix_labels(suffixes: tuple[str, ...], rules: PslRuleSet) -> int:
    """Number of labels in the public suffix of the host with these label suffixes, per the standard algorithm."""
    n = len(suffixes)
    # Exception rules defeat everything else; the winning suffix is the
    # exception rule minus its leftmost label.
    for i, suffix in enumerate(suffixes):
        if suffix in rules.exception_rules:
            return (n - i) - 1
    best = 1  # the prevailing rule "*": unknown TLDs are single-label suffixes
    for i, suffix in enumerate(suffixes):
        if suffix in rules.normal_rules:
            best = max(best, n - i)
        if i >= 1 and suffix in rules.wildcard_rules:
            best = max(best, n - i + 1)
    return best


def etld_plus_one(host: str, rules: PslRuleSet) -> SiteId:
    """Resolve the registrable domain (public suffix plus one label).

    ``host`` must already be canonical (see ``canonicalize_host``).

    Raises:
        InputError: ``HOST_IS_PUBLIC_SUFFIX`` when the host has no
            registrable part, ``EMPTY_HOST`` for empty input.
    """
    if not host:
        raise InputError("EMPTY_HOST", "empty hostname")
    suffixes = label_suffixes(host)
    suffix_len = _public_suffix_labels(suffixes, rules)
    if len(suffixes) <= suffix_len:
        raise InputError("HOST_IS_PUBLIC_SUFFIX", f"{host!r} has no registrable part")
    return suffixes[len(suffixes) - suffix_len - 1]
