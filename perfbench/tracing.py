"""Spans and counters around the program's layers, installed from outside.

Each hook replaces a public name where its caller looks it up (for example
``cookietrail.cli.build_jar``, which the CLI imported into its own
namespace), so the program itself carries no tracing code.  Spans record
name, start, end, parent and chain; counters record calls at the same
boundaries.  Hot predicates (``domain_match``) are counted, not spanned, and
their count is keyed by the innermost open span, so the simulator's and the
detector's calls are told apart.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

from cookietrail.crawllog import HttpRequest

# (module, attribute path, span name): each call becomes one span.
SPAN_HOOKS = (
    ("cookietrail.simulator", "EcosystemConfig.from_json", "simulator.config_load"),
    ("cookietrail.simulator", "generate", "simulator.generate"),
    ("cookietrail.simulator", "ground_truth", "simulator.ground_truth"),
    ("cookietrail.crawllog", "serialize", "crawllog.serialize"),
    ("cookietrail.crawllog", "parse_log_text", "crawllog.parse"),
    ("cookietrail.crawllog", "merge_logs", "crawllog.merge"),
    ("cookietrail.crawllog", "visit_starts", "crawllog.visit_starts"),
    ("cookietrail.crawllog", "summarize_visits", "crawllog.summarize_visits"),
    ("cookietrail.crawllog", "strict_issues", "crawllog.strict_issues"),
    ("cookietrail.detector", "summarize_visits", "crawllog.summarize_visits"),
    ("cookietrail.detector", "extract_sent", "crawllog.extract_sent"),
    ("cookietrail.cli", "build_jar", "jar.build"),
    ("cookietrail.jar", "CookieJar.save", "jar.save"),
    ("cookietrail.jar", "CookieJar.load", "jar.load"),
    ("cookietrail.jar", "CookieJar.setters_of", "jar.setters_of"),
    ("cookietrail.detector", "Detector.detect", "detector.detect"),
    ("cookietrail.detector", "match_sent_to_jar", "detector.match"),
    ("cookietrail.detector", "detect_reset", "detector.reset"),
    ("cookietrail.detector", "detect_sync", "detector.sync"),
    ("cookietrail.cli", "load_psl", "psl.load"),
    ("cookietrail.filterlist", "parse_domain_list", "filterlist.load"),
    ("cookietrail.filterlist", "extract_domains_from_adblock", "filterlist.load"),
    ("cookietrail.filterlist", "merge", "filterlist.load"),
    ("cookietrail.reports", "write_report_suite", "reports.write"),
    ("cookietrail.analytics", "renewal_heatmap", "analytics.renewal_heatmap"),
    ("cookietrail.analytics", "banner_type_report", "analytics.banner_type_report"),
)

# (module, attribute path, counter name): each call increments the counter.
COUNT_HOOKS = (
    ("cookietrail.simulator", "domain_match", "domain_match"),
    ("cookietrail.detector", "domain_match", "domain_match"),
    ("cookietrail.detector", "etld_plus_one", "psl.etld_plus_one"),
    ("cookietrail.analytics", "etld_plus_one", "psl.etld_plus_one"),
    ("cookietrail.detector", "is_tracker", "filterlist.is_tracker"),
    ("cookietrail.analytics", "is_tracker", "filterlist.is_tracker"),
)


def _observe(name: str, result, counts: Counter) -> None:
    """Counters read off a layer's return value."""
    if name == "simulator.generate":
        counts["simulator.events"] += len(result)
        counts["simulator.requests"] += sum(isinstance(e, HttpRequest) for e in result)
    elif name == "crawllog.parse":
        counts["crawllog.parsed_events"] += len(result)
    elif name == "jar.build":
        counts["jar.entries"] += len(result.entries)
        counts["jar.history_rows"] += len(result.history)
    elif name == "detector.match":
        counts["detector.matched"] += result is not None
    elif name == "detector.detect":
        counts["detector.findings"] += len(result.findings)
    elif name == "reports.write":
        counts["reports.files"] += len(result["files"]) + 1  # CSVs plus the manifest


class Tracer:
    """In-memory spans of one repetition: [id, parent, chain, name, start, end].

    A span's id is its index in ``spans``.  ``counts`` holds values read off
    return values; ``hook_calls`` counts counter-hook calls by (counter,
    innermost open span).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.hook_calls: Counter = Counter()
        self.top = ""  # name of the innermost open span
        self._stack: list[int] = []
        self._chain = -1

    def begin_chain(self) -> None:
        self._chain += 1

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([len(self.spans), parent, self._chain, name, time.perf_counter(), None])
        self.top = name

    def exit(self) -> None:
        self.spans[self._stack.pop()][5] = time.perf_counter()
        self.top = self.spans[self._stack[-1]][3] if self._stack else ""

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _span_wrapper(fn, name: str, tracer: Tracer):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        _observe(name, result, tracer.counts)
        return result

    return wrapper


def _count_wrapper(fn, name: str, tracer: Tracer):
    counts = tracer.hook_calls

    @wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name, tracer.top] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def hooks_installed(tracer: Tracer):
    """Install every hook, recording into ``tracer``, for the duration.

    A hook whose target no longer exists is skipped with a warning, and the
    metrics it feeds read zero.
    """
    saved = []
    try:
        for hooks, make in ((SPAN_HOOKS, _span_wrapper), (COUNT_HOOKS, _count_wrapper)):
            for module_name, path, name in hooks:
                try:
                    owner, attr = _resolve(module_name, path)
                    raw = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    print(f"perfbench: no hook target {module_name}.{path}", file=sys.stderr)
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(make(raw.__func__, name, tracer))
                else:
                    patched = make(raw, name, tracer)
                saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# --- per-layer metrics ----------------------------------------------------------------

# Layer time metrics: the span names they add up.  Where names of one group
# nest (extract_sent calls visit_starts), only the outermost span counts.
TIMED = {
    "simulator.generate_s": ("simulator.generate",),
    "simulator.ground_truth_s": ("simulator.ground_truth",),
    "simulator.config_load_s": ("simulator.config_load",),
    "crawllog.serialize_s": ("crawllog.serialize",),
    "crawllog.parse_s": ("crawllog.parse", "crawllog.merge"),
    "crawllog.derive_s": ("crawllog.visit_starts", "crawllog.summarize_visits",
                          "crawllog.extract_sent", "crawllog.strict_issues"),
    "jar.build_s": ("jar.build",),
    "jar.save_s": ("jar.save",),
    "jar.load_s": ("jar.load",),
    "jar.setters_of_s": ("jar.setters_of",),
    "detector.detect_s": ("detector.detect",),
    "detector.match_s": ("detector.match",),
    "detector.reset_s": ("detector.reset",),
    "detector.sync_s": ("detector.sync",),
    "psl.load_s": ("psl.load",),
    "filterlist.load_s": ("filterlist.load",),
    "reports.write_s": ("reports.write",),
    "analytics.renewal_heatmap_s": ("analytics.renewal_heatmap",),
    "analytics.banner_type_report_s": ("analytics.banner_type_report",),
    "cli.simulate_s": ("cli.simulate",),
    "cli.build_jar_s": ("cli.build-jar",),
    "cli.detect_s": ("cli.detect",),
    "cli.report_s": ("cli.report",),
}
SLOPES = {
    "simulator.generate_slope": "simulator.generate_s",
    "detector.detect_slope": "detector.detect_s",
    "crawllog.parse_slope": "crawllog.parse_s",
}

# name -> (unit, better)
PER_LAYER = {
    **{name: ("s", "lower") for name in TIMED},
    "cli.self_s": ("s", "lower"),
    "simulator.events": ("count", "higher"),
    "simulator.domain_match_calls": ("count", "lower"),
    "simulator.domain_match_per_request": ("ratio", "lower"),
    "crawllog.parse_calls": ("count", "lower"),
    "crawllog.parse_events_per_s": ("1/s", "higher"),
    "crawllog.event_walks": ("count", "lower"),
    "jar.entries": ("count", "higher"),
    "jar.history_rows": ("count", "higher"),
    "jar.setters_of_calls": ("count", "lower"),
    "detector.match_calls": ("count", "lower"),
    "detector.match_rate": ("ratio", "higher"),
    "detector.domain_match_per_obs": ("ratio", "lower"),
    "detector.findings": ("count", "higher"),
    "psl.etld_plus_one_calls": ("count", "lower"),
    "filterlist.is_tracker_calls": ("count", "lower"),
    "reports.files": ("count", "higher"),
    **{name: ("ratio", "lower") for name in SLOPES},
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced repetition."""
    totals: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _chain, name, start, end in tracer.spans:
        calls[name] += 1
        if parent is not None:
            child_time[parent] += end - start
    group_of = {name: metric for metric, names in TIMED.items() for name in names}
    for sid, parent, _chain, name, start, end in tracer.spans:
        metric = group_of.get(name)
        if metric is None or (parent is not None and group_of.get(tracer.spans[parent][3]) == metric):
            continue
        totals[metric] += end - start
    cli_self = sum(
        (end - start) - child_time[sid]
        for sid, _parent, _chain, name, start, end in tracer.spans
        if name.startswith("cli.")
    )
    parse_only = sum(e - s for _i, _p, _c, n, s, e in tracer.spans if n == "crawllog.parse")
    counts, hooks = tracer.counts, tracer.hook_calls
    match_calls = calls["detector.match"]
    values = {metric: totals.get(metric, 0.0) for metric in TIMED}
    values.update({
        "cli.self_s": cli_self,
        "simulator.events": counts["simulator.events"],
        "simulator.domain_match_calls": hooks["domain_match", "simulator.generate"],
        "simulator.domain_match_per_request": _ratio(
            hooks["domain_match", "simulator.generate"], counts["simulator.requests"]
        ),
        "crawllog.parse_calls": calls["crawllog.parse"],
        "crawllog.parse_events_per_s": _ratio(counts["crawllog.parsed_events"], parse_only),
        "crawllog.event_walks": sum(calls[n] for n in TIMED["crawllog.derive_s"]),
        "jar.entries": counts["jar.entries"],
        "jar.history_rows": counts["jar.history_rows"],
        "jar.setters_of_calls": calls["jar.setters_of"],
        "detector.match_calls": match_calls,
        "detector.match_rate": _ratio(counts["detector.matched"], match_calls),
        "detector.domain_match_per_obs": _ratio(hooks["domain_match", "detector.match"], match_calls),
        "detector.findings": counts["detector.findings"],
        "psl.etld_plus_one_calls": sum(v for (hook, _), v in hooks.items() if hook == "psl.etld_plus_one"),
        "filterlist.is_tracker_calls": sum(v for (hook, _), v in hooks.items() if hook == "filterlist.is_tracker"),
        "reports.files": counts["reports.files"],
    })
    return values


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def slopes(full: dict[str, float], half: dict[str, float], full_sites: int, half_sites: int) -> dict[str, float]:
    """Log-log slope of each layer's time against sites, from a full-size and a half-size run."""
    size = math.log(full_sites / half_sites)
    return {
        name: math.log(full[layer] / half[layer]) / size if full[layer] > 0 and half[layer] > 0 else 0.0
        for name, layer in SLOPES.items()
    }


def write_spans(path, runs: list[tuple[str, Tracer]]) -> None:
    """Write every span as one NDJSON record, labelled with its repetition."""
    with open(path, "w", encoding="utf-8") as out:
        for label, tracer in runs:
            for sid, parent, chain, name, start, end in tracer.spans:
                out.write(json.dumps({"rep": label, "id": sid, "parent": parent, "chain": chain,
                                      "name": name, "start": start, "end": end}) + "\n")
