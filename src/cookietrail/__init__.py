"""Measurement pipeline for consent-scoped cookies that travel across sites.

The package detects tracking cookies that were stored under an accepted
consent banner on one site and later transmitted to their tracker from
another site before any banner interaction there, and ships a deterministic
ecosystem simulator that generates crawl logs with known ground truth so the
whole pipeline is oracle-testable.
"""

from .analytics import (
    ExpiryBucket,
    HeatmapCell,
    SetterBucket,
    TrackerRow,
    banner_type_report,
    ecdf,
    expiry_bucket,
    gpc_report,
    partitioned_summary,
    rank_tier_averages,
    renewal_heatmap,
    tracker_table,
)
from .crawllog import (
    CrawlEvent,
    RunIndex,
    SentCookieObservation,
    extract_sent,
    parse_cookie_header,
    parse_log_text,
    parse_set_cookie,
    serialize,
)
from .detector import (
    Detector,
    DetectionResult,
    IntractableFinding,
    ResetFinding,
    SyncFinding,
    detect_intractable,
    detect_reset,
    detect_sync,
    match_sent_to_jar,
)
from .errors import InputError, InvariantError, ParseIssue, PipelineError
from .filterlist import (
    TrackerDomainSet,
    extract_domains_from_adblock,
    is_tracker,
    parse_domain_list,
)
from .jar import CookieJar, build_jar
from .model import (
    CRAWL_EPOCH,
    FIXED_EXPIRY,
    BannerDescriptor,
    BannerType,
    Channel,
    ConsentState,
    CookieKey,
    CookieRecord,
    InteractionStage,
    Iteration,
    Phase,
    SiteId,
    VisitOutcome,
    canonicalize_host,
)
from .psl import PslRuleSet, etld_plus_one, load_psl
from .simulator import (
    EcosystemConfig,
    GroundTruth,
    RejectionOutcome,
    generate,
    ground_truth,
    plan_rejection,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
