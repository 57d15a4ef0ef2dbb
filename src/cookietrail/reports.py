"""Write the full report suite as CSV files plus a machine-readable manifest.

Each table or figure dataset becomes one CSV with a fixed column order; the
manifest lists every file with its row count and SHA-256 so reruns can be
compared byte-for-byte.  Plotting is downstream of these files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import analytics
from .crawllog import VisitSummary
from .detector import IntractableFinding, ResetFinding, SyncFinding
from .filterlist import TrackerDomainSet
from .jar import CookieJar
from .model import BannerType, Channel, CookieKey, InteractionStage, SiteId
from .psl import PslRuleSet

DAY = analytics.DAY


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(directory: Path, name: str, header: Sequence[str], rows: Iterable[Sequence]) -> tuple[str, int, str]:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    count = 0
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
        count += 1
    data = buffer.getvalue().encode("utf-8")
    (directory / name).write_bytes(data)
    return name, count, hashlib.sha256(data).hexdigest()


@dataclass
class ReportInputs:
    findings: list[IntractableFinding]
    jar: CookieJar
    rules: PslRuleSet
    trackers: TrackerDomainSet
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


def write_report_suite(out_dir: str | Path, inputs: ReportInputs) -> dict:
    """Write every report CSV and the manifest; returns the manifest object."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    rejected_sites, site_ranks, sender_banner_types, paywall_setters = _site_views(inputs.visits)
    files: list[tuple[str, int, str]] = []

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

    files.append(
        _write_csv(
            directory,
            "ecdf_findings_per_sender.csv",
            ["findings", "cumulative_fraction"],
            analytics.ecdf(per_sender.values()),
        )
    )
    files.append(
        _write_csv(
            directory,
            "ecdf_trackers_per_sender.csv",
            ["trackers", "cumulative_fraction"],
            analytics.ecdf([len(v) for v in trackers_per_sender.values()]),
        )
    )

    # Lifetime distribution of unique intractable cookies, in days.
    lifetimes = []
    session_count = 0
    for key in keys:
        expiry = inputs.jar.entries[key].original_expiry
        if expiry is None:
            session_count += 1
        else:
            lifetimes.append(expiry / DAY)
    files.append(
        _write_csv(
            directory,
            "ecdf_expiry_days.csv",
            ["days", "cumulative_fraction"],
            analytics.ecdf(lifetimes),
        )
    )

    # Stage and iteration breakdown of every matched send.
    stage_counts = Counter((f.stage, "canonical" if f.canonical else "staged") for f in inputs.findings)
    files.append(
        _write_csv(
            directory,
            "stage_counts.csv",
            ["stage", "classification", "count"],
            [(stage.name, label, count) for (stage, label), count in sorted(stage_counts.items())],
        )
    )

    # Fraction of canonical findings sent while fetching resources vs. by script API calls.
    resource = sum(f.channel is Channel.RESOURCE_FETCH for f in canonical)
    total = len(canonical)
    files.append(
        _write_csv(
            directory,
            "channel_split.csv",
            ["resource_fraction", "api_fraction", "empty"],
            [(resource / total, (total - resource) / total, False) if total else (0.0, 0.0, True)],
        )
    )

    heatmap = analytics.renewal_heatmap(inputs.jar, keys)
    files.append(
        _write_csv(
            directory,
            "expiry_renewal_heatmap.csv",
            ["expiry_bucket", "setter_bucket", "count"],
            [(cell.expiry_bucket.value, cell.setter_bucket.value, cell.count) for cell in heatmap],
        )
    )

    files.append(
        _write_csv(
            directory,
            "tracker_table.csv",
            ["tracker_domain", "total_cookies", "unique_cookies", "senders"],
            [
                (row.tracker_domain, row.total_cookies, row.unique_cookies, row.senders)
                for row in analytics.tracker_table(canonical)
            ],
        )
    )

    tier_rows = analytics.rank_tier_averages(
        per_sender, keys, inputs.jar, inputs.tier_cutoffs, site_ranks=site_ranks
    )
    files.append(
        _write_csv(
            directory,
            "rank_tiers.csv",
            ["cutoff", "avg_sent", "avg_set", "sent_sites", "set_sites", "empty_tier"],
            [(r.cutoff, r.avg_sent, r.avg_set, r.sent_sites, r.set_sites, r.empty_tier) for r in tier_rows],
        )
    )

    banner = analytics.banner_type_report(
        per_sender,
        canonical,
        keys,
        inputs.jar,
        sender_banner_types=sender_banner_types,
        paywall_setters=paywall_setters,
    )
    files.append(
        _write_csv(
            directory,
            "banner_type_averages.csv",
            ["cmp_avg", "native_avg", "ratio", "cmp_sites", "native_sites"],
            [(banner.cmp_avg, banner.native_avg, banner.ratio, banner.cmp_sites, banner.native_sites)],
        )
    )
    files.append(
        _write_csv(
            directory,
            "paywall_share.csv",
            ["threshold", "site_fraction", "paywall_share"],
            [(row.threshold, row.site_fraction, row.paywall_share) for row in banner.paywall_shares],
        )
    )

    if inputs.gpc_findings is not None:
        reloaded = [
            f for f in inputs.findings if f.stage is InteractionStage.AFTER_RELOADED_REJECT
        ]
        gpc_canonical = [f for f in inputs.gpc_findings if f.canonical]
        gpc = analytics.gpc_report(canonical, gpc_canonical, reloaded)
        files.append(
            _write_csv(
                directory,
                "gpc_report.csv",
                ["reduction_fraction", "overlap_with_reloaded_reject", "empty_baseline"],
                [(gpc.reduction_fraction, gpc.overlap_with_reloaded_reject, gpc.empty_baseline)],
            )
        )

    part = analytics.partitioned_summary(inputs.jar, inputs.trackers, inputs.rules)
    files.append(
        _write_csv(
            directory,
            "partitioned_summary.csv",
            ["cookie_type", "total_unique", "partitioned", "along_with_np"],
            [
                ("all", part.total_unique, part.partitioned, None),
                ("tracking", part.tracking_unique, part.tracking_partitioned, part.along_with_np),
            ],
        )
    )

    # Mean plus five-number summaries for the per-site distributions.
    summary_rows = []
    for metric, values in (
        ("findings_per_rejected_site", list(per_sender.values())),
        ("trackers_per_rejected_site", [len(v) for v in trackers_per_sender.values()]),
    ):
        summary = analytics.five_number_summary(values)
        if summary is not None:
            summary_rows.append(
                (metric, summary.count, summary.mean, summary.minimum, summary.q1,
                 summary.median, summary.q3, summary.maximum)
            )
    files.append(
        _write_csv(
            directory,
            "summary_stats.csv",
            ["metric", "count", "mean", "min", "q1", "median", "q3", "max"],
            summary_rows,
        )
    )

    counts_row = [
        len(inputs.findings),
        len(canonical),
        len({(key.name, key.host) for key in keys}),
        len(inputs.resets) if inputs.resets is not None else None,
        len(inputs.syncs) if inputs.syncs is not None else None,
        session_count,
    ]
    files.append(
        _write_csv(
            directory,
            "totals.csv",
            ["matched_sends", "canonical_findings", "unique_canonical", "resets", "syncs", "session_cookies"],
            [counts_row],
        )
    )

    manifest = {
        "format_version": 1,
        "files": [
            {"name": name, "rows": rows, "sha256": digest}
            for name, rows, digest in sorted(files)
        ],
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )
    return manifest
