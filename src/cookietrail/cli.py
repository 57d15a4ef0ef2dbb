"""Command-line entry point tying the pipeline together.

Subcommands: ``simulate``, ``build-jar``, ``detect``, ``report``,
``filter-convert``, ``validate-log``.  Diagnostics go to stderr (as JSON
records with ``--errors json``); data goes to files or stdout.

Exit codes:

  0  success (also ``--help``)
  1  input error: malformed or unusable input, bad config, I/O, or a
     command-line usage error (``USAGE_ERROR``)
  2  invariant violation by otherwise well-formed input (event sequencing)

A failure exits with one error record on stderr, never a Python traceback.
A usage error is reported as text when ``--errors`` itself is the problem.

``main`` is safe to call repeatedly in one process: the argument parser is
built on the first call and shared by the later ones, and each call parses
into a fresh namespace.

Findings, resets and syncs are NDJSON: a ``format_version`` header, then one
record per line.  Each kind's wire record is declared once, as a
``model.RecordFields`` (``_FINDING_FIELDS``, ``_RESET_FIELDS``,
``_SYNC_FIELDS``), whose compiled ``encode`` writes each line, byte for byte
``json.dumps`` of the record's object, and whose compiled ``decode`` checks
and builds every record read back.  A finding's ``setter_sites`` is
wire-only: the finding does not hold it.  ``detect`` hands the finding's
``encode`` the jar's setter list of its cookie (``CookieJar.setters_of``),
encoded once per cookie, so the file still repeats every list.  ``report``
reads the file as a stream and checks every record; with ``--jar``, each
record's list must equal the jar's, and is then dropped.  It checks a list
with one string comparison against the text ``detect`` writes for the jar's
list, decoding only the rest of the line; a line where that comparison does
not settle it (other spacing, other escapes, a list other than the jar's, a
cookie not in the jar, extra keys) is decoded in full and checked as before.

``simulate``, ``build-jar``, ``detect``, ``report`` and ``filter-convert
--out`` write their files through ``_staged_outputs``: all of a command's
outputs appear together, or none does and each keeps its old bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import re
import secrets
import sys
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, TextIO

from . import crawllog, filterlist, reports, simulator
from .detector import Detector, IntractableFinding, ResetFinding, SyncFinding
from .errors import InputError, InvariantError, PipelineError, json_object, quoted, reading
from .jar import CookieJar, build_jar
from .model import OPTIONAL_STR, STRINGS, Channel, CookieKey, InteractionStage, RecordFields, canonical_json
from .psl import EMPTY_RULESET, PslRuleSet, load_psl

DEFAULT_TIERS = (50, 500, 1000, 5000, 10000)


class _ConfigField(NamedTuple):
    """One ``--config`` field: its exact JSON type and the option it fills."""

    kind: type
    item: type | None  # a list's item type
    option: str | None  # the option it fills, if the command has it
    is_input: bool  # names a file the command reads, which must exist
    out_for: str | None = None  # the command whose ``--out`` it fills instead of ``option``
    default: object = None  # the option's value when neither a flag nor the file sets it


# The --config pipeline file's fields by dotted key (a dot nests a key in an
# object): the file's only schema.  Any other key is INVALID_CONFIG.
PIPELINE_FIELDS = {
    "psl_path": _ConfigField(str, None, "psl", True),
    "filter_lists.plain": _ConfigField(list, str, "trackers", True),
    "filter_lists.adblock": _ConfigField(list, str, "adblock", True),
    "jar_path": _ConfigField(str, None, "jar", True, out_for="build-jar"),
    "log_paths": _ConfigField(list, str, "log", True),
    "report_dir": _ConfigField(str, None, None, False, out_for="report"),
    "sample.n": _ConfigField(int, None, "sample_n", False),
    "sample.seed": _ConfigField(int, None, "sample_seed", False, default=0),
    "tier_cutoffs": _ConfigField(list, int, "tiers", False, default=DEFAULT_TIERS),
}


def _config_field(key: str, value, kind: type, item: type | None = None):
    """``value`` of the config field ``key``, checked to be null or a ``kind`` (a list: of ``item``)."""
    if value is None or (type(value) is kind and (item is None or all(type(v) is item for v in value))):
        return value
    expected = f"a list of {item.__name__}" if item else kind.__name__
    raise InputError("INVALID_CONFIG", f"field {key!r} must be {expected}, got {quoted(value)}")


def _apply_config(args) -> None:
    """Fill each option the command line left unset from the ``--config`` file, else from its default.

    The whole file is checked whichever command reads it: a key that is not
    in ``PIPELINE_FIELDS``, a value of the wrong JSON type, or an input file
    that does not exist is ``INVALID_CONFIG``.  A null, absent or empty-list
    value leaves its option unset; so does an empty list on the command line.
    """
    path = args.config
    with reading(path, "INVALID_CONFIG"):  # without a file, nothing in the block raises
        obj = json_object(Path(path).read_text(encoding="utf-8"), "INVALID_CONFIG") if path else {}
        unread = {"": obj}  # each object's keys not yet read, by its dotted key
        for key, spec in PIPELINE_FIELDS.items():
            section, _, name = key.rpartition(".")
            if section not in unread:
                unread[section] = dict(_config_field(section, unread[""].pop(section, None), dict) or {})
            value = _config_field(key, unread[section].pop(name, None), spec.kind, spec.item)
            option = "out" if args.command == spec.out_for else spec.option
            if value is not None and spec.is_input and option != "out":
                for referenced in value if spec.item else [value]:
                    if not os.path.exists(referenced):  # False, not an error, for a name too long to exist
                        raise InputError("INVALID_CONFIG", f"referenced path does not exist: {quoted(referenced)}")
            if value in (None, []):
                value = spec.default
            if value is not None and option and hasattr(args, option) and getattr(args, option) in (None, []):
                setattr(args, option, value)
        unknown = [f"{section}.{name}" if section else name for section, rest in unread.items() for name in rest]
        if unknown:
            raise InputError("INVALID_CONFIG", f"unknown field {quoted(unknown[0])}")


def _emit_error(exc: PipelineError, error_format: str) -> None:
    if error_format == "json":
        print(json.dumps(exc.as_record(), sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def _emit_issues(issues, error_format: str) -> None:
    for issue in issues:
        if error_format == "json":
            print(json.dumps(issue.as_record(), sort_keys=True), file=sys.stderr)
        else:
            line = f" (line {issue.line})" if issue.line is not None else ""
            print(f"warning: {issue.code}: {issue.detail}{line}", file=sys.stderr)


def _require_option(args, name: str, flag: str):
    value = getattr(args, name, None)
    if value in (None, []):
        raise InputError("INVALID_CONFIG", f"{flag} is required (set it on the command line or in --config)")
    return value


def _load_logs(paths) -> crawllog.RunIndex:
    """Parse the logs in turn into one run index, its events numbered 0..n-1 across all of them.

    Each parse continues the index of the files before it, so visit ids must
    be disjoint across the files: a visit id that a later file starts again
    is that file's duplicate VISIT_START.  An error names its file.
    """
    index = None
    for path in paths:
        with reading(path, "MALFORMED_RECORD"):
            index = crawllog.parse_log_text(Path(path).read_text(encoding="utf-8"), index)
    return index


def _load_rules(args) -> PslRuleSet:
    if args.psl:
        with reading(args.psl, "MALFORMED_RULE"):
            return load_psl(Path(args.psl).read_text(encoding="utf-8"), include_private=not args.no_private_psl)
    return EMPTY_RULESET


def _adblock_domains(paths, error_format: str) -> tuple[list[frozenset[str]], int]:
    """Each ``--adblock`` list's domains, its issues emitted as it is read, and the rules they all ignored."""
    sets, ignored = [], 0
    for path in paths:
        with reading(path, "MALFORMED_DOMAIN") as named:
            extraction = filterlist.extract_domains_from_adblock(Path(path).read_text(encoding="utf-8"))
        _emit_issues(named(extraction.issues), error_format)
        sets.append(extraction.domains)
        ignored += extraction.ignored_rules
    return sets, ignored


def _load_trackers(args, error_format: str) -> frozenset[str]:
    sets = []
    for path in args.trackers or []:
        issues: list = []
        with reading(path, "MALFORMED_DOMAIN") as named:
            sets.append(filterlist.parse_domain_list(Path(path).read_text(encoding="utf-8"), issues=issues))
        _emit_issues(named(issues), error_format)
    sets += _adblock_domains(args.adblock or [], error_format)[0]
    return frozenset().union(*sets)


# --- findings NDJSON ---------------------------------------------------------


def _setters_json(jar: CookieJar, key: CookieKey, memo: dict) -> str:
    """The jar's setter list of ``key`` as a findings record holds it, memoised per cookie in ``memo``.

    The one encoding of the list: ``detect`` writes it with each finding and
    ``_read_findings`` compares records with it.
    """
    text = memo.get(key)
    if text is None:
        text = memo[key] = f"[{','.join(map(_string, jar.setters_of(key)))}]"
    return text


# The wire records of findings, resets and syncs.  A finding's ``setter_sites``
# is wire-only: its setter sites are its jar's (``_read_findings``).
_FINDING_FIELDS = RecordFields(
    IntractableFinding, name={str}, host={str}, partition=OPTIONAL_STR, value_at_send={str}, sender_site={str},
    tracker_domain={str}, setter_sites=STRINGS, stage=InteractionStage, channel=Channel,
    visit_id={str}, event_index={int}, canonical={bool}, wire_only=("setter_sites",),
)
_RESET_FIELDS = RecordFields(ResetFinding, name={str}, host={str}, partition=OPTIONAL_STR, sender_site={str},
                             event_index={int})
_SYNC_FIELDS = RecordFields(
    SyncFinding, name={str}, host={str}, partition=OPTIONAL_STR, carrying_url={str}, origin_tracker={str},
    destination_tracker={str}, parameter_name={str},
)


@contextlib.contextmanager
def _staged_outputs() -> Iterator[Callable[[str | os.PathLike], TextIO]]:
    """Stage a command's output files, so that they appear together or not at all.

    ``open_output(path)`` opens a new temporary file in ``path``'s directory
    for writing.  When the block ends normally, each temporary file replaces
    its target, in the order opened.  On any other exit every temporary file
    is removed, and each target keeps its old bytes, or stays absent.  A
    target that is a directory is refused when it is opened.  An ``OSError``
    names the target, not the temporary file.
    """
    staged: list[tuple[str, str]] = []  # (temporary file, target), not yet moved into place

    def open_output(path: str | os.PathLike) -> TextIO:
        path = os.fspath(path)
        if os.path.isdir(path):  # replacing it would fail after the earlier outputs had moved
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        directory, name = os.path.split(path)
        while True:
            temporary = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
            try:
                handle = open(temporary, "x", encoding="utf-8")
            except FileExistsError:
                continue
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            staged.append((temporary, path))
            return handle

    try:
        yield open_output
        while staged:
            temporary, target = staged[0]
            try:
                os.replace(temporary, target)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, target) from None
            del staged[0]
    finally:
        for temporary, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temporary)


def _read_records(path: str, from_record, from_line=None) -> list:
    """Stream a line-record file of one kind through ``crawllog.read_records``, building records with ``from_record``.

    ``from_line``, if given, is tried on each record line first.  It returns
    the record built straight from the line's text, or None to have the line
    decoded and built by ``from_record``; it may return a record only for a
    line that is JSON which ``from_record`` builds into an equal record.  The
    first bad line is the error.  A record that ``from_record`` refuses, with
    ``ValueError`` (``MALFORMED_RECORD``) or an ``InputError`` of its own, is
    named ``record <i>``, counting records from 0.
    """
    built = []
    with reading(path, "MALFORMED_RECORD"), open(path, encoding="utf-8") as handle:
        for number, (_lineno, value) in enumerate(crawllog.read_records(handle, from_line)):
            if type(value) is dict:  # not built by ``from_line``
                try:
                    value = from_record(value)
                except ValueError as exc:
                    raise InputError("MALFORMED_RECORD", f"record {number}: {exc}") from None
                except InputError as exc:
                    raise InputError(exc.code, f"record {number}: {exc.message}") from None
            built.append(value)
    return built


_SETTER_SITES_KEY = ',"setter_sites":'
_STAGE_KEY = ',"stage":'


def _read_findings(path: str, jar: CookieJar | None = None) -> list[IntractableFinding]:
    """Read a findings file as a stream; with ``jar``, each record must agree with it.

    A record's cookie must be one of the jar's entries, and its
    ``setter_sites`` the jar's setter list of that cookie.  Without a jar
    (``--gpc-findings``, written from another run's jar) the lists are only
    type-checked.  A disagreement is ``FINDING_NOT_IN_JAR``; like any other
    bad line, the first in the file is the error.

    With a jar, each line is first checked without decoding its list
    (``without_list``); a line that check does not accept is decoded in full.
    """
    if jar is None:
        return _read_records(path, _FINDING_FIELDS.decode)
    setters: dict = {}  # each cookie's setter list as a record holds it (_setters_json)
    jar_sites: dict[CookieKey, list[str]] = {}  # each cookie's setter list, read from the jar once

    def without_list(line: str) -> IntractableFinding | None:
        """The line's finding if it is JSON that ``checked`` accepts with the jar's list, else None.

        Let ``i`` be the first ``,"setter_sites":`` and ``j`` the last
        ``,"stage":``.  Only ``line[:i] + line[j:]`` is decoded.  If that is an
        object of exactly the 11 other fields and ``_FINDING_FIELDS.decode``
        accepts it, every value is a scalar, and ``i`` falls between two of
        its members: inside a string the ``"`` after the comma would close it,
        and ``s`` cannot follow a closed string.  So when ``line[i+16:j]`` is
        the text the jar's list is written as, the line is that object plus
        the jar's list.
        """
        i = line.find(_SETTER_SITES_KEY)
        j = line.rfind(_STAGE_KEY)
        if i < 0 or j < i:
            return None
        short = line[:i] + line[j:]
        try:
            obj, end = crawllog._scan_json(short, 0)
        except (StopIteration, ValueError, RecursionError):
            return None
        if end != len(short) or type(obj) is not dict or len(obj) != 11 or "setter_sites" in obj:
            return None
        obj["setter_sites"] = []  # stands in for the jar's list, a list of strings
        try:
            finding = _FINDING_FIELDS.decode(obj)
        except ValueError:
            return None
        key = finding.key
        if key not in jar.entries:
            return None
        text = _setters_json(jar, key, setters)
        start = i + len(_SETTER_SITES_KEY)
        return finding if j - start == len(text) and line.startswith(text, start) else None

    def checked(obj) -> IntractableFinding:
        finding = _FINDING_FIELDS.decode(obj)
        key = finding.key
        sites = jar_sites.get(key)
        if sites is None and key in jar.entries:
            sites = jar_sites[key] = list(jar.setters_of(key))
        if sites != obj["setter_sites"]:
            problem = "is not in the jar" if sites is None else "has setter_sites other than the jar's"
            cookie = f"cookie {quoted(key.name)} of {quoted(key.host)} (partition {quoted(key.partition)})"
            raise InputError("FINDING_NOT_IN_JAR", f"{cookie} {problem}")
        return finding

    return _read_records(path, checked, without_list)


# --- subcommands ----------------------------------------------------------------


def _cmd_simulate(args, error_format: str) -> int:
    """Stream the log to ``--out`` as the crawl runs; all outputs appear together, or none does."""
    with reading(args.config, "INVALID_CONFIG"):
        config = simulator.EcosystemConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    with _staged_outputs() as open_output:
        with open_output(args.out) as handle:
            simulator.crawl(config, args.seed, crawllog.log_writer(handle.write), run_label=args.run_id or "")
        if args.trackers_out:
            with open_output(args.trackers_out) as handle:
                handle.write("".join(f"{d}\n" for d in config.listed_tracker_domains()))
        if args.truth_out:
            truth = simulator.ground_truth(config, args.seed)
            with open_output(args.truth_out) as handle:
                handle.write(canonical_json(truth.to_obj()) + "\n")
    return 0


def _cmd_build_jar(args, error_format: str) -> int:
    _apply_config(args)
    index = _load_logs(_require_option(args, "log", "--log"))
    issues: list = []
    jar = build_jar(index, issues=issues)
    _emit_issues(issues, error_format)
    if args.sample_n is not None:
        jar = jar.normalize_sample(args.sample_n, args.sample_seed)
    with _staged_outputs() as open_output, open_output(_require_option(args, "out", "--out")) as handle:
        jar.save(handle)
    print(
        f"jar: {len(jar.entries)} entries, {len(jar.history)} history rows, "
        f"{len(jar.accepted_sites)} accepted sites",
        file=sys.stderr,
    )
    return 0


def _cmd_detect(args, error_format: str) -> int:
    _apply_config(args)
    jar = CookieJar.load(_require_option(args, "jar", "--jar"))
    index = _load_logs(_require_option(args, "log", "--log"))
    detector = Detector(_load_rules(args), _load_trackers(args, error_format))
    result = detector.detect(jar, index)
    _emit_issues(result.issues, error_format)
    setters: dict = {}
    outputs = [
        (args.out, (_FINDING_FIELDS.encode(f, _setters_json(jar, f.key, setters)) for f in result.findings)),
        (args.resets_out, map(_RESET_FIELDS.encode, result.resets)),
        (args.syncs_out, map(_SYNC_FIELDS.encode, result.syncs)),
    ]
    with _staged_outputs() as open_output:
        for path, lines in outputs:
            if path:
                with open_output(path) as handle:
                    handle.write(crawllog.HEADER_LINE)
                    handle.writelines(f"{line}\n" for line in lines)
    stats = result.stats
    print(
        f"detect: {len(result.canonical_findings)} canonical findings over "
        f"{stats.rejected_visits} rejected visits ({stats.observations} observations, "
        f"{len(result.resets)} resets, {len(result.syncs)} syncs)",
        file=sys.stderr,
    )
    return 0


def _cmd_report(args, error_format: str) -> int:
    _apply_config(args)
    jar = CookieJar.load(_require_option(args, "jar", "--jar"))
    findings = _read_findings(args.findings, jar)
    index = _load_logs(_require_option(args, "log", "--log"))
    gpc_findings = _read_findings(args.gpc_findings) if args.gpc_findings else None
    inputs = reports.ReportInputs(
        findings=findings,
        jar=jar,
        rules=_load_rules(args),
        trackers=_load_trackers(args, error_format),
        visits=index.visits,
        tier_cutoffs=args.tiers,
        gpc_findings=gpc_findings,
        resets=_read_records(args.resets, _RESET_FIELDS.decode) if args.resets else None,
        syncs=_read_records(args.syncs, _SYNC_FIELDS.decode) if args.syncs else None,
    )
    out_dir = _require_option(args, "out", "--out")
    with _staged_outputs() as open_output:
        manifest = reports.write_report_suite(out_dir, inputs, open_output)
    print(f"report: wrote {len(manifest['files'])} files to {out_dir}", file=sys.stderr)
    return 0


def _cmd_filter_convert(args, error_format: str) -> int:
    sets, ignored = _adblock_domains(args.adblock, error_format)
    merged = frozenset().union(*sets)
    text = "".join(f"{d}\n" for d in sorted(merged))
    if args.out:
        with _staged_outputs() as open_output, open_output(args.out) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    print(f"filter-convert: {len(merged)} domains, {ignored} rules ignored", file=sys.stderr)
    return 0


def _cmd_validate_log(args, error_format: str) -> int:
    index = _load_logs([args.log])
    issues = crawllog.strict_issues(index)
    if issues:
        _emit_issues(issues, error_format)
        return 1
    print(f"validate-log: {len(index)} events OK", file=sys.stderr)
    return 0


def _tier_list(text: str) -> tuple[int, ...]:
    """The value of ``--tiers``: comma-separated integer rank cutoffs."""
    try:
        return tuple(int(cutoff) for cutoff in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {quoted(text)}") from None


# A string that argparse quotes whole, as ``repr`` writes it: its quote, its first 60 characters, and the rest.
_ECHOED = re.compile(r"""(['"])((?:\\.|(?!\1)[^\\]){60})(?:\\.|(?!\1)[^\\])+\1""")
# What argparse echoes bare: the words it did not use, which end the message, or an ambiguous option, which the
# parser's own option names follow.  Each is its first 60 characters and the rest.
_ECHOED_BARE = re.compile(r"^(unrecognized arguments: .{60}).+|^(ambiguous option: .{60}).+(?= could match )", re.S)


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ``InputError`` instead of exiting 2."""

    def error(self, message: str):
        # argparse echoes a refused value whole (``invalid int value: 'xxx'``): cut each as ``quoted`` does.
        message = _ECHOED_BARE.sub(lambda m: f"{m[1] or m[2]}...", _ECHOED.sub(r"\1\2\1", message))
        raise InputError("USAGE_ERROR", f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the CLI's argument parser, built on the first call.

    The one parser is shared by every later call, and so by every ``main``
    call in the process: do not mutate it.  Parsing leaves it unchanged.
    """
    parser = _ArgumentParser(
        prog="cookietrail", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--errors", choices=["text", "json"], default="text",
                        help="diagnostic format on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a crawl log from an ecosystem config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--run-id", help="visit-id prefix, for merging logs from several runs")
    p.add_argument("--trackers-out", help="also write the listed tracker domains")
    p.add_argument("--truth-out", help="also write the ground-truth JSON")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("build-jar", help="replay the accept phase of a log into a jar snapshot")
    p.add_argument("--config", help="pipeline config file supplying path defaults")
    p.add_argument("--log", action="append", help="crawl log (repeatable)")
    p.add_argument("--out", help="jar snapshot path")
    p.add_argument("--sample-n", type=int, help="normalize to a random sample of accepted sites")
    p.add_argument("--sample-seed", type=int)
    p.set_defaults(func=_cmd_build_jar)

    def add_rule_args(p):
        p.add_argument("--psl", help="public suffix list file")
        p.add_argument("--no-private-psl", action="store_true",
                       help="ignore the private-domains section of the suffix list")
        p.add_argument("--trackers", action="append", help="plain tracker domain list (repeatable)")
        p.add_argument("--adblock", action="append", help="adblock-syntax list (repeatable)")

    p = sub.add_parser("detect", help="match measure-phase sends against a jar")
    p.add_argument("--config", help="pipeline config file supplying path defaults")
    p.add_argument("--jar", help="jar snapshot from build-jar")
    p.add_argument("--log", action="append", help="crawl log (repeatable)")
    p.add_argument("--out", required=True, help="findings output (NDJSON)")
    p.add_argument("--resets-out")
    p.add_argument("--syncs-out")
    add_rule_args(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("report", help="write the CSV report suite from findings")
    p.add_argument("--config", help="pipeline config file supplying path defaults")
    p.add_argument("--findings", required=True)
    p.add_argument("--jar", help="jar snapshot from build-jar")
    p.add_argument("--log", action="append", help="crawl log (repeatable)")
    p.add_argument("--out", help="report directory")
    p.add_argument("--tiers", type=_tier_list, help="comma-separated rank cutoffs")
    p.add_argument("--gpc-findings", help="findings file from a signal-enabled run")
    p.add_argument("--resets", help="resets file from detect, for the totals table")
    p.add_argument("--syncs", help="syncs file from detect, for the totals table")
    add_rule_args(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("filter-convert", help="extract plain domains from adblock lists")
    p.add_argument("--adblock", action="append", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_filter_convert)

    p = sub.add_parser("validate-log", help="check log structure and cookie headers")
    p.add_argument("--log", required=True)
    p.set_defaults(func=_cmd_validate_log)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (see the module docstring)."""
    # Errors raised before ``--errors`` is parsed are reported as text.
    args = argparse.Namespace(errors="text")
    try:
        build_parser().parse_args(argv, args)
        return args.func(args, args.errors)
    except InvariantError as exc:
        _emit_error(exc, args.errors)
        return 2
    except InputError as exc:
        _emit_error(exc, args.errors)
        return 1
    except OSError as exc:  # worded as ``str(exc)``, but with the file name cut like every echoed value
        message = str(exc) if exc.filename is None else f"[Errno {exc.errno}] {exc.strerror}: {quoted(exc.filename)}"
        _emit_error(InputError("IO_ERROR", message), args.errors)
        return 1


if __name__ == "__main__":
    sys.exit(main())
