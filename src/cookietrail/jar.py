"""The cookie jar: cookies accumulated during the stateful accept phase.

Every stored entry has its expiry overwritten to the fixed far-future
instant; a write whose own lifetime is already in the past deletes the entry
instead (deletions are honored, never extended).  The jar also keeps an
append-only history of writes for renewal analytics and the set of sites
whose banners were successfully accepted.

A snapshot is a header line and a payload line, which one declaration,
``_PAYLOAD_FIELDS``, writes and reads: its codec's ``encode`` writes what its
``decode`` reads.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import NamedTuple, Sequence, TextIO

from . import crawllog
from .errors import InputError, ParseIssue, json_object, quoted, reading
from .model import (
    CANONICAL,
    CANONICAL_LIST,
    FIXED_EXPIRY,
    OPTIONAL_CANONICAL,
    ConsentState,
    CookieKey,
    CookieRecord,
    Field,
    Phase,
    RecordFields,
    SiteId,
    canonical_json,
)

SNAPSHOT_FORMAT = "cookietrail-jar"
SNAPSHOT_VERSION = 1


class HistoryEntry(NamedTuple):
    key: CookieKey
    setter_site: SiteId
    event_index: int
    deleted: bool = False


# A snapshot's entry and history rows.  Their hosts and sites are canonical, as ``build_jar`` wrote them.
_ENTRY_FIELDS = RecordFields(
    CookieRecord, name={str}, host=CANONICAL, partition=OPTIONAL_CANONICAL, value={str},
    original_expiry={float, int, type(None)}, setter_site=CANONICAL, set_at={int}, consent_state_at_set=ConsentState,
    phase=Phase, effective_expiry=datetime,
)
_HISTORY_FIELDS = RecordFields(
    HistoryEntry, name={str}, host=CANONICAL, partition=OPTIONAL_CANONICAL, setter_site=CANONICAL,
    event_index={int}, deleted={bool},
)


class _Payload(NamedTuple):  # a snapshot's second line
    accepted_sites: list[SiteId]
    entries: Sequence[CookieRecord]  # in key order
    history: Sequence[HistoryEntry]


_PAYLOAD_FIELDS = RecordFields(
    _Payload, accepted_sites=CANONICAL_LIST, entries=Field({list}, read=_ENTRY_FIELDS.rows, memo="hosts, banners"),
    history=Field({list}, read=_HISTORY_FIELDS.rows, memo="hosts, banners"),
)


@dataclass
class CookieJar:
    """Jar entries, their write history and the accepted sites.

    The setter index behind ``setters_of`` is built from ``history`` at
    construction and extended by ``upsert``, the only way ``history`` grows.
    """

    entries: dict[CookieKey, CookieRecord] = field(default_factory=dict)
    history: list[HistoryEntry] = field(default_factory=list)
    accepted_sites: set[SiteId] = field(default_factory=set)
    # key -> distinct non-deleting setter sites in first-write order (dict as ordered set)
    _setters: dict[CookieKey, dict[SiteId, None]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._setters = {}
        for row in self.history:
            self._index(row)

    def _index(self, row: HistoryEntry) -> None:
        if not row.deleted:
            self._setters.setdefault(row.key, {}).setdefault(row.setter_site, None)

    def upsert(self, record: CookieRecord) -> None:
        """Apply one phase-1 cookie write: latest write wins per key.

        A record whose original expiry is in the past removes the key; any
        other record is stored with the fixed expiry override.  Both kinds are
        appended to the history, deletions flagged.

        Raises:
            InputError: ``WRONG_PHASE`` for records outside the accept phase.
        """
        if record.phase is not Phase.STATEFUL_ACCEPT:
            raise InputError("WRONG_PHASE", f"jar writes require phase STATEFUL_ACCEPT, got {record.phase.value}")
        if record.is_deletion:
            self.entries.pop(record.key, None)
            self.history.append(HistoryEntry(record.key, record.setter_site, record.set_at, deleted=True))
            return
        if record.effective_expiry is not FIXED_EXPIRY:  # the default, so most records are stored as given
            record = record._replace(effective_expiry=FIXED_EXPIRY)
        self.entries[record.key] = record
        row = HistoryEntry(record.key, record.setter_site, record.set_at)
        self.history.append(row)
        self._index(row)

    def mark_accepted(self, site: SiteId) -> None:
        self.accepted_sites.add(site)

    def setters_of(self, key: CookieKey) -> tuple[SiteId, ...]:
        """Distinct setter sites for a key, in first-write order (deletions excluded)."""
        return tuple(self._setters.get(key, ()))

    def normalize_sample(self, n: int, seed: int) -> "CookieJar":
        """Restrict the jar to a uniform size-``n`` sample of accepted sites.

        The sample is reproducible across implementations: sites are ranked
        by ``sha256("<seed>\\x1f<site>")`` (hex, ties broken by site name) and
        the ``n`` smallest keep their cookies and history rows.

        Raises:
            InputError: ``INVALID_SAMPLE`` when ``n`` is negative,
                ``SAMPLE_TOO_LARGE`` when it exceeds the number of accepted
                sites.
        """
        if n < 0:
            raise InputError("INVALID_SAMPLE", f"sample size must not be negative, got {n}")
        if n > len(self.accepted_sites):
            raise InputError(
                "SAMPLE_TOO_LARGE",
                f"requested {n} of {len(self.accepted_sites)} accepted sites",
            )
        ranked = sorted(
            self.accepted_sites,
            key=lambda site: (hashlib.sha256(f"{seed}\x1f{site}".encode()).hexdigest(), site),
        )
        keep = set(ranked[:n])
        return CookieJar(
            entries={k: r for k, r in self.entries.items() if r.setter_site in keep},
            history=[row for row in self.history if row.setter_site in keep],
            accepted_sites=keep,
        )

    # --- persistence --------------------------------------------------------

    def save(self, out: TextIO) -> None:
        """Write a checksummed snapshot to the text file ``out``; byte-identical for equal jars."""
        keys = sorted(self.entries, key=lambda k: (k.name, k.host, k.partition or ""))
        payload = _PAYLOAD_FIELDS.encode(
            _Payload(sorted(self.accepted_sites), tuple(map(self.entries.__getitem__, keys)), self.history),
            None,  # the banners memo: a snapshot holds none
        )
        header = canonical_json({
            "format": SNAPSHOT_FORMAT,
            "format_version": SNAPSHOT_VERSION,
            "payload_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        })
        out.write(header + "\n" + payload + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CookieJar":
        """Load a snapshot, verifying format and checksum; every error names ``path``.

        Raises:
            InputError: ``CORRUPT_SNAPSHOT`` on any structural or checksum
                mismatch, for a host or site that is not canonical, or for an
                entry whose cookie an earlier entry holds.
                I/O failures propagate as ``OSError``.
        """
        with reading(path, "CORRUPT_SNAPSHOT"):
            # Lines end at "\n" only (``read_text`` turns "\r\n" and "\r" into it):
            # JSON allows U+2028, U+2029 and U+0085 raw inside a string, and
            # ``str.splitlines`` would split the payload at them.
            lines = Path(path).read_text(encoding="utf-8").removesuffix("\n").split("\n")
            if len(lines) < 2:
                raise InputError("CORRUPT_SNAPSHOT", "truncated snapshot")
            header = json_object(lines[0], "CORRUPT_SNAPSHOT", "line 1: ")  # the payload is line 2
            version = header.get("format_version")  # true and 1.0 are not 1
            if header.get("format") != SNAPSHOT_FORMAT or type(version) is not int or version != SNAPSHOT_VERSION:
                raise InputError("CORRUPT_SNAPSHOT", "unrecognized snapshot header")
            if hashlib.sha256(lines[1].encode()).hexdigest() != header.get("payload_sha256"):
                raise InputError("CORRUPT_SNAPSHOT", "checksum mismatch")
            try:
                # Memos: the hosts and sites checked so far, and no banners.
                payload = _PAYLOAD_FIELDS.decode(json_object(lines[1], "CORRUPT_SNAPSHOT", "line 2: "), {}, None)
                entries = {}
                for index, record in enumerate(payload.entries):
                    expiry = record.original_expiry
                    # Readers divide it as a float; a NaN fails this comparison too.
                    if expiry is not None and not abs(expiry) <= sys.float_info.max:
                        raise ValueError(f"entries[{index}]: original_expiry is not a finite number a float holds")
                    if record.key in entries:  # ``save`` writes each key once
                        raise ValueError(f"entries[{index}]: duplicate cookie {quoted(tuple(record.key))}")
                    entries[record.key] = record
            except ValueError as exc:
                raise InputError("CORRUPT_SNAPSHOT", str(exc)) from None
        return cls(entries=entries, history=list(payload.history), accepted_sites=set(payload.accepted_sites))


def build_jar(index: crawllog.RunIndex, *, issues: list[ParseIssue] | None = None) -> CookieJar:
    """Replay a crawl's accept phase into a jar.

    Only accept-phase visits that ended with outcome ACCEPTED contribute:
    each one's site joins the accepted set and its cookie writes are applied,
    in event order, at its VISIT_END, so visits apply in VISIT_END order.

    Each issue collected in ``issues`` names its visit.

    Raises:
        InputError: a cookie header's error (``MISSING_NAME``, a host's
            ``EMPTY_HOST`` or ``INVALID_LABEL``), its message naming the visit.
    """
    writes: dict[str, list[crawllog.CookieSet]] = {}
    for cookie_set in index.cookie_sets:
        writes.setdefault(cookie_set.visit_id, []).append(cookie_set)
    jar = CookieJar()
    issues = [] if issues is None else issues
    for visit in index.ended:
        if visit.accepted_setter:
            jar.mark_accepted(visit.site)
            start = len(issues)
            try:
                for cookie_set in writes.get(visit.visit_id, ()):
                    jar.upsert(crawllog.record_from_cookie_set(cookie_set, visit, issues=issues))
            except InputError as exc:
                raise InputError(exc.code, f"visit {visit.visit_id!r}: {exc.message}") from None
            crawllog.in_visit(issues, start, visit.visit_id)
    return jar
