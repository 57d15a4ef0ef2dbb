"""Write the full report suite as CSV files plus a machine-readable manifest.

Each table or figure dataset becomes one CSV.  Its columns are its row
type's fields in order (the ``NamedTuple``s of ``analytics``), or, for the
few tables built here, one header tuple in ``write_report_suite``'s table
list.  The manifest lists every file with its row count and SHA-256 so
reruns can be compared byte-for-byte.  Files are opened by the caller's
``open_output``.  Plotting is downstream of these files.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import io
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence, TextIO

from . import analytics
from .crawllog import VisitSummary
from .detector import IntractableFinding, ResetFinding, SyncFinding
from .jar import CookieJar
from .model import BannerType, Channel, CookieKey, InteractionStage, SiteId, canonical_json
from .psl import PslRuleSet


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, enum.Enum):
        return value.value
    return str(value)


@dataclass
class ReportInputs:
    findings: list[IntractableFinding]
    jar: CookieJar
    rules: PslRuleSet
    trackers: frozenset[str]
    visits: Mapping[str, VisitSummary]  # in VISIT_START order, as ``crawllog.parse_log_text`` builds them
    tier_cutoffs: Sequence[int]
    gpc_findings: list[IntractableFinding] | None = None
    # Only counted in the totals table; None means "not supplied" (blank
    # cell) rather than zero.
    resets: list[ResetFinding] | None = None
    syncs: list[SyncFinding] | None = None


def _site_views(visits: Mapping[str, VisitSummary]):
    """Every per-site view of the visits, derived in one pass.

    They are: the sorted sites of the visits findings are counted on, each
    site's rank, the banner type of each site's reject iteration, and the
    accepted sites whose banner was a paywall.  Of one site's visits, the
    last to start wins.
    """
    rejected: set[SiteId] = set()
    ranks: dict[SiteId, int] = {}
    banner_types: dict[SiteId, BannerType] = {}
    paywall: set[SiteId] = set()
    for visit in visits.values():
        ranks[visit.site] = visit.rank
        if visit.in_reject_iteration:
            banner_types[visit.site] = visit.banner_type
            if visit.rejected_measurement:
                rejected.add(visit.site)
        elif visit.accepted_setter and visit.banner_type is BannerType.PAYWALL:
            paywall.add(visit.site)
    return sorted(rejected), ranks, banner_types, paywall


def write_report_suite(out_dir: str | Path, inputs: ReportInputs, open_output: Callable[[Path], TextIO]) -> dict:
    """Write every report CSV, then the manifest, into ``out_dir`` through ``open_output``; returns the manifest."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    rejected_sites, site_ranks, sender_banner_types, paywall_setters = _site_views(inputs.visits)

    # The views every table reads, each built once: the canonical findings;
    # per rejected sender site (zero-send sites included), its canonical
    # findings and the distinct trackers they went to; the unique cookies.
    canonical = [f for f in inputs.findings if f.canonical]
    per_sender = dict.fromkeys(rejected_sites, 0)
    trackers_per_sender: dict[SiteId, set[SiteId]] = {site: set() for site in rejected_sites}
    keys: set[CookieKey] = set()
    for f in canonical:
        keys.add(f.key)
        if f.sender_site in per_sender:
            per_sender[f.sender_site] += 1
            trackers_per_sender[f.sender_site].add(f.tracker_domain)
    trackers_per_site = [len(v) for v in trackers_per_sender.values()]

    # Lifetime distribution of unique intractable cookies, in days.
    lifetimes = []
    session_count = 0
    for key in keys:
        expiry = inputs.jar.entries[key].original_expiry
        if expiry is None:
            session_count += 1
        else:
            lifetimes.append(expiry / analytics.DAY)

    # Stage and iteration breakdown of every matched send.
    stage_counts = Counter((f.stage, "canonical" if f.canonical else "staged") for f in inputs.findings)

    # Fraction of canonical findings sent while fetching resources vs. by script API calls.
    resource = sum(f.channel is Channel.RESOURCE_FETCH for f in canonical)
    total = len(canonical)

    # Mean plus five-number summaries for the per-site distributions.
    summaries = []
    for metric, values in (
        ("findings_per_rejected_site", list(per_sender.values())),
        ("trackers_per_rejected_site", trackers_per_site),
    ):
        summary = analytics.five_number_summary(values)
        if summary is not None:
            summaries.append((metric, *summary))

    averages, paywall_shares = analytics.banner_type_report(
        per_sender, canonical, keys, inputs.jar,
        sender_banner_types=sender_banner_types, paywall_setters=paywall_setters,
    )

    # (file name, header, rows), one entry per CSV.
    tables: list[tuple[str, Sequence[str], list]] = [
        ("banner_type_averages.csv", analytics.BannerTypeAverages._fields, [averages]),
        (
            "channel_split.csv",
            ("resource_fraction", "api_fraction", "empty"),
            [(resource / total, (total - resource) / total, False) if total else (0.0, 0.0, True)],
        ),
        ("ecdf_expiry_days.csv", ("days", "cumulative_fraction"), analytics.ecdf(lifetimes)),
        ("ecdf_findings_per_sender.csv", ("findings", "cumulative_fraction"), analytics.ecdf(per_sender.values())),
        ("ecdf_trackers_per_sender.csv", ("trackers", "cumulative_fraction"), analytics.ecdf(trackers_per_site)),
        ("expiry_renewal_heatmap.csv", analytics.HeatmapCell._fields, analytics.renewal_heatmap(inputs.jar, keys)),
        (
            "partitioned_summary.csv",
            analytics.PartitionedRow._fields,
            analytics.partitioned_summary(inputs.jar, inputs.trackers, inputs.rules),
        ),
        ("paywall_share.csv", analytics.PaywallShareRow._fields, paywall_shares),
        (
            "rank_tiers.csv",
            analytics.RankTierRow._fields,
            analytics.rank_tier_averages(per_sender, keys, inputs.jar, inputs.tier_cutoffs, site_ranks=site_ranks),
        ),
        (
            "stage_counts.csv",
            ("stage", "classification", "count"),
            [(stage.name, label, count) for (stage, label), count in sorted(stage_counts.items())],
        ),
        ("summary_stats.csv", ("metric", *analytics.FiveNumberSummary._fields), summaries),
        (
            "totals.csv",
            ("matched_sends", "canonical_findings", "unique_canonical", "resets", "syncs", "session_cookies"),
            [(
                len(inputs.findings),
                len(canonical),
                len({(key.name, key.host) for key in keys}),
                len(inputs.resets) if inputs.resets is not None else None,
                len(inputs.syncs) if inputs.syncs is not None else None,
                session_count,
            )],
        ),
        ("tracker_table.csv", analytics.TrackerRow._fields, analytics.tracker_table(canonical)),
    ]
    if inputs.gpc_findings is not None:
        reloaded = [f for f in inputs.findings if f.stage is InteractionStage.AFTER_RELOADED_REJECT]
        gpc_canonical = [f for f in inputs.gpc_findings if f.canonical]
        gpc = analytics.gpc_report(canonical, gpc_canonical, reloaded)
        tables.append(("gpc_report.csv", analytics.GpcReport._fields, [gpc]))

    entries = []
    for name, header, rows in sorted(tables, key=lambda table: table[0]):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(cell) for cell in row] for row in rows)
        text = buffer.getvalue()
        with open_output(directory / name) as handle:
            handle.write(text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        entries.append({"name": name, "rows": len(rows), "sha256": digest})

    manifest = {"format_version": 1, "files": entries}
    with open_output(directory / "manifest.json") as handle:
        handle.write(canonical_json(manifest) + "\n")
    return manifest
