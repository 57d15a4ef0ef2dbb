from __future__ import annotations

import collections
import enum
import json
import random
import re
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from cookietrail import simulator as sim
from cookietrail.cli import _load_logs
from cookietrail.crawllog import (
    BannerObserved,
    CookieSet,
    HttpRequest,
    Interaction,
    SetCookieFragment,
    VisitEnd,
    VisitStart,
    VisitSummary,
    log_writer,
    parse_cookie_header,
    parse_log_text,
    parse_set_cookie,
    record_from_cookie_set,
    serialize,
    strict_issues,
)
from cookietrail.errors import InputError, InvariantError, ParseIssue, PipelineError, quoted
from cookietrail.model import (
    BannerButton,
    BannerDescriptor,
    BannerLayer,
    BannerToggle,
    BannerType,
    ButtonAction,
    Channel,
    ConsentState,
    InteractionAction,
    InteractionStage,
    Iteration,
    Phase,
    VisitOutcome,
)

from helpers import banner_decodes, index_run, mutants, native_banner, numbered, random_config, set_path

DEMO = Path(__file__).parent.parent / "demo"


def _single_visit_events(visit_id="v1", site="new.com", phase=Phase.STATELESS_MEASURE):
    return [
        VisitStart(visit_id, site, 5, phase, Iteration.REJECT_ITER, False),
        BannerObserved(visit_id, native_banner()),
        HttpRequest(
            visit_id,
            InteractionStage.BEFORE_INTERACTION,
            "cdn.tracker.net",
            "https://cdn.tracker.net/px",
            Channel.RESOURCE_FETCH,
            "id=123",
        ),
        Interaction(visit_id, InteractionAction.REJECT_CLICKED, InteractionStage.AFTER_REJECT),
        Interaction(visit_id, InteractionAction.RELOAD, InteractionStage.AFTER_RELOADED_REJECT),
        VisitEnd(visit_id, VisitOutcome.REJECTED),
    ]


class TestParseLog:
    def test_well_formed_single_visit(self):
        text = serialize(_single_visit_events())
        index = parse_log_text(text)
        assert len(index) == 6
        assert [e.event_index for e in index.requests] == [2]

    def test_round_trip_identity(self):
        """Parsing a serialized log gives the index of the events that were serialized."""
        events = numbered(_single_visit_events())
        index = parse_log_text(serialize(events))
        assert index == index_run(events)
        assert [type(e) for e in index.requests] == [HttpRequest]

    def test_end_before_start(self):
        text = serialize([VisitEnd("v9", VisitOutcome.REJECTED)])
        with pytest.raises(InvariantError) as exc:
            parse_log_text(text)
        assert exc.value.code == "SEQUENCE_VIOLATION"
        assert "v9" in exc.value.message

    def test_stage_regression_rejected(self):
        events = _single_visit_events()
        # Request labeled BEFORE_INTERACTION after the reject interaction.
        events.insert(
            4,
            HttpRequest(
                "v1",
                InteractionStage.BEFORE_INTERACTION,
                "cdn.tracker.net",
                "https://cdn.tracker.net/px2",
                Channel.RESOURCE_FETCH,
                "",
            ),
        )
        with pytest.raises(InvariantError) as exc:
            parse_log_text(serialize(events))
        assert exc.value.code == "SEQUENCE_VIOLATION"

    def test_missing_header(self):
        body = serialize(_single_visit_events()).splitlines()[1:]
        with pytest.raises(InputError) as exc:
            parse_log_text("\n".join(body))
        assert exc.value.code == "MALFORMED_RECORD"

    def test_invalid_json_reports_line(self):
        text = serialize(_single_visit_events())
        lines = text.splitlines()
        lines[3] = lines[3][:-5]
        with pytest.raises(InputError) as exc:
            parse_log_text("\n".join(lines))
        assert exc.value.code == "MALFORMED_RECORD"
        assert "line 4" in exc.value.message

    def test_unterminated_visit(self):
        events = _single_visit_events()[:-1]
        with pytest.raises(InvariantError) as exc:
            parse_log_text(serialize(events))
        assert "no VISIT_END" in exc.value.message

    def test_event_after_end(self):
        events = _single_visit_events()
        events.append(
            CookieSet("v1", InteractionStage.AFTER_RELOADED_REJECT, "a=1", "cdn.tracker.net")
        )
        with pytest.raises(InvariantError):
            parse_log_text(serialize(events))

    def test_duplicate_visit_start(self):
        events = _single_visit_events() + _single_visit_events()
        with pytest.raises(InvariantError):
            parse_log_text(serialize(events))

    def test_banner_must_follow_start(self):
        events = _single_visit_events()
        events.insert(3, BannerObserved("v1", native_banner()))
        with pytest.raises(InvariantError):
            parse_log_text(serialize(events))

    def test_unknown_fields_ignored(self):
        text = serialize(_single_visit_events())
        lines = text.splitlines()
        record = json.loads(lines[1])
        record["future_field"] = {"x": 1}
        lines[1] = json.dumps(record)
        assert len(parse_log_text("\n".join(lines))) == 6

    def test_bad_enum_value(self):
        text = serialize(_single_visit_events())
        lines = text.splitlines()
        record = json.loads(lines[1])
        record["iteration"] = "SIDEWAYS_ITER"
        lines[1] = json.dumps(record)
        with pytest.raises(InputError) as exc:
            parse_log_text("\n".join(lines))
        assert exc.value.code == "MALFORMED_RECORD"

    def test_unhashable_kind_or_enum_value_is_malformed(self):
        lines = serialize(_single_visit_events()).splitlines()
        for field in ("kind", "stage"):
            record = json.loads(lines[3])
            record[field] = ["HTTP_REQUEST"]
            with pytest.raises(InputError) as exc:
                parse_log_text("\n".join(lines[:3] + [json.dumps(record)] + lines[4:]))
            assert exc.value.code == "MALFORMED_RECORD"
            assert exc.value.message.startswith("line 4: "), exc.value.message

    @pytest.mark.parametrize("banner, message", [(None, "bad banner None"), ("drop", "missing field 'banner'")])
    def test_missing_banner_names_the_field_once(self, banner, message):
        lines = serialize(_single_visit_events()).splitlines()
        record = json.loads(lines[2])
        if banner == "drop":
            del record["banner"]
        else:
            record["banner"] = banner
        with pytest.raises(InputError) as exc:
            parse_log_text("\n".join(lines[:2] + [json.dumps(record)] + lines[3:]))
        assert exc.value.message == f"line 3: {message}"

    def test_equal_banners_share_one_descriptor(self, monkeypatch):
        """Each distinct banner is decoded once per parse; banners that decode differently stay apart."""
        decoded = banner_decodes(monkeypatch)  # the banner objects the parser decoded, in order
        events = []
        banners = [native_banner(reject=True), native_banner(reject=False), native_banner(reject=True)]
        for n, banner in enumerate(banners):
            visit = _single_visit_events(f"v{n}")
            visit[1] = BannerObserved(f"v{n}", banner)
            events += visit
        text = serialize(events)
        index = parse_log_text(text)
        assert [row.banner_type for row in index.visits.values()] == [BannerType.NATIVE] * 3
        assert [_ref_banner(obj) for obj in decoded] == banners[:2]
        # A layer with its keys in two orders: different records, each decoded, to equal descriptors.
        lines = text.splitlines()
        for lineno, keys in ((2, ("toggles", "buttons")), (14, ("buttons", "toggles"))):
            record = json.loads(lines[lineno])
            layer = {**record["banner"]["layers"][0], "toggles": [["ads", True, False]]}
            record["banner"]["layers"][0] = {key: layer[key] for key in keys}
            lines[lineno] = json.dumps(record)
        decoded.clear()
        parse_log_text("\n".join(lines))
        assert decoded == [json.loads(lines[n])["banner"] for n in (2, 8, 14)]
        parsed = [_ref_banner(obj) for obj in decoded]
        assert parsed[0] == parsed[2] != banners[0]
        # Absent layers decode as none; null layers are a bad banner, even after an absent one.
        records = [json.loads(lines[n]) for n in (2, 8)]
        del records[0]["banner"]["layers"]
        records[1]["banner"]["layers"] = None
        lines[2], lines[8] = map(json.dumps, records)
        with pytest.raises(InputError) as exc:
            parse_log_text("\n".join(lines))
        assert exc.value.message == "line 9: banner: bad layers None"

    def test_banner_key_is_the_fields_the_decoder_reads(self, monkeypatch):
        """A key the decoder ignores, however large, does not split a banner."""
        decoded = banner_decodes(monkeypatch)
        lines = serialize(_single_visit_events("v0") + _single_visit_events("v1")).splitlines()
        record = json.loads(lines[8])
        record["banner"]["ignored"] = [list(range(1000))] * 100
        lines[8] = json.dumps(record)
        parse_log_text("\n".join(lines))
        assert len(decoded) == 1

    @pytest.mark.parametrize("template", [
        '{"banner_type":"NONE","ignored":%s}',
        '{"banner_type":"CMP","layers":[{"ignored":%s}]}',
        '{"banner_type":"CMP","layers":[{"buttons":[[%s,"ACCEPT"]]}]}',
    ])
    def test_banner_as_deep_as_the_json_decoder_takes_still_loads(self, template):
        """Keying a banner never fails on nesting that the JSON decoder accepted."""
        head = serialize(_single_visit_events()).splitlines()[:2]

        def parse(depth):
            banner = template % ("[" * depth + "]" * depth)
            line = f'{{"banner":{banner},"kind":"BANNER_OBSERVED","visit_id":"v1"}}'
            try:
                parse_log_text("\n".join([head[0], head[1], line]))
            except PipelineError as exc:
                return exc.message
            return "parsed"

        low, high = 1, 200_000  # the deepest nesting the decoder takes, by bisection
        while low < high:
            mid = (low + high + 1) // 2
            if "invalid JSON" in parse(mid):
                high = mid - 1
            else:
                low = mid
        assert parse(low + 1) == "line 3: invalid JSON (nested too deeply)"
        # The banner was keyed: the visit has no VISIT_END, or else the nested label is not a string.
        if '"buttons"' in template:
            outcome = "line 3: banner: layers[0]: buttons[0]: bad label [[["
            assert parse(low).startswith(outcome) and parse(low - 1).startswith(outcome)
        else:
            assert parse(low) == parse(low - 1) == "visit 'v1' has no VISIT_END"

    def test_a_none_banner_with_layers_is_refused(self):
        """A NONE banner with layers is reported on its line, like any bad banner."""
        lines = serialize(_single_visit_events()).splitlines()
        record = json.loads(lines[2])
        record["banner"] = {"banner_type": "NONE", "layers": [{}]}
        with pytest.raises(InputError) as exc:
            parse_log_text("\n".join(lines[:2] + [json.dumps(record)] + lines[3:]))
        assert (exc.value.code, exc.value.message) == (
            "MALFORMED_RECORD", "line 3: banner: banner_type NONE must have no layers"
        )

    @pytest.mark.parametrize("field", ["action", "banner_type"])
    @pytest.mark.parametrize("source", ["log", "config"])
    def test_a_banner_enum_value_is_read_by_name_and_quoted_cut(self, source, field):
        """A button action or banner type that names no member is ``bad <field> <value>``, the value cut short and
        the field named by its path, in a log's BANNER_OBSERVED and in a config's site alike: both decode banners
        through ``decode_banner``."""
        huge = "X" * 100_000

        def spoil(banner: dict) -> None:
            if field == "banner_type":
                banner["banner_type"] = huge
            else:
                banner["layers"][0]["buttons"][0][1] = huge

        where = "banner: " if field == "banner_type" else "banner: layers[0]: buttons[0]: "
        problem = f"{where}bad {field} {quoted(huge)}"
        if source == "log":
            lines = serialize(sim.generate(sim.EcosystemConfig.from_json(
                (DEMO / "ecosystem.json").read_text(encoding="utf-8")), 7)).splitlines()
            record = json.loads(lines[2])
            assert record["kind"] == "BANNER_OBSERVED"
            spoil(record["banner"])
            with pytest.raises(InputError) as exc:
                parse_log_text("\n".join(lines[:2] + [json.dumps(record)] + lines[3:]))
            expected = ("MALFORMED_RECORD", f"line 3: {problem}")
        else:
            obj = json.loads((DEMO / "ecosystem.json").read_text(encoding="utf-8"))
            spoil(obj["sites"][0]["banner"])
            with pytest.raises(InputError) as exc:
                sim.EcosystemConfig.from_obj(obj)
            expected = ("INVALID_CONFIG", f"sites[0]: {problem}")
        assert (exc.value.code, exc.value.message) == expected and len(exc.value.message) < 150

    def test_a_continued_parse_numbers_events_after_the_run_it_continues(self):
        first, second = _single_visit_events("v1"), _single_visit_events("v2")
        index = parse_log_text(serialize(second), parse_log_text(serialize(first)))
        assert index == index_run(numbered(first + second))
        assert len(index) == 12 and [e.event_index for e in index.requests] == [2, 8]
        with pytest.raises(InvariantError) as exc:
            parse_log_text(serialize(first), index)
        assert exc.value.message == "visit 'v1': duplicate VISIT_START"

    def test_interaction_action_stage_consistency(self):
        events = _single_visit_events()
        events[3] = Interaction("v1", InteractionAction.REJECT_CLICKED, InteractionStage.AFTER_ACCEPT)
        with pytest.raises(InvariantError):
            parse_log_text(serialize(events))


def test_parse_builds_the_reference_index():
    """One pass over the text gives the index the reference builds from the event list: demo and 50 random runs."""
    demo = sim.EcosystemConfig.from_json((DEMO / "ecosystem.json").read_text(encoding="utf-8"))
    runs = [sim.generate(demo, 7)] + [sim.generate(random_config(random.Random(seed)), seed) for seed in range(50)]
    for n, events in enumerate(runs):
        index = parse_log_text(serialize(events))
        assert index == index_run(numbered(events)), n
        assert len(index) == len(events) and list(index.visits) == [e.visit_id for e in events if type(e) is VisitStart]
        assert [row.visit_id for row in index.ended] == [e.visit_id for e in events if type(e) is VisitEnd]


def test_merged_logs_number_events_across_files_and_keep_visits_in_file_order(tmp_path):
    """Two logs load as the reference index of their concatenated events."""
    config = random_config(random.Random(3))
    runs = [sim.generate(config, seed, run_label=label) for seed, label in ((3, "a"), (4, "b"))]
    paths = []
    for label, events in zip("ab", runs):
        paths.append(tmp_path / f"{label}.log")
        paths[-1].write_text(serialize(events), encoding="utf-8")
    index = _load_logs(paths)
    assert index == index_run(numbered(runs[0] + runs[1]))
    indexes = sorted(e.event_index for e in index.requests + index.cookie_sets)
    assert indexes[0] < len(runs[0]) <= indexes[-1] < len(index) == len(runs[0]) + len(runs[1])
    assert [visit_id[0] for visit_id in index.visits] == sorted(visit_id[0] for visit_id in index.visits)


# --- line splitting, decode errors, the URL check and the records themselves ---------------------


def _with_request_field(key: str, value, *, ensure_ascii: bool = True) -> list[str]:
    """The single visit's log lines with its HTTP_REQUEST record's ``key`` (line 4) set to ``value``."""
    lines = serialize(_single_visit_events()).splitlines()
    record = json.loads(lines[3])
    record[key] = value
    lines[3] = json.dumps(record, ensure_ascii=ensure_ascii)
    return lines


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
def test_records_split_only_at_newline(separator, tmp_path):
    """JSON allows U+2028, U+2029 and U+0085 raw in a string: they neither end a record nor shift line numbers."""
    header = f"id=1{separator}2"
    lines = _with_request_field("cookie_header", header, ensure_ascii=False)
    assert separator in lines[3]
    path = tmp_path / "run.log"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for index in (parse_log_text(path.read_text(encoding="utf-8")), _load_logs([path])):
        assert len(index) == len(_single_visit_events())
        assert [e.cookie_header for e in index.requests] == [header]
    lines[5] = lines[5][:-1]
    with pytest.raises(InputError) as exc:
        parse_log_text("\n".join(lines))
    assert exc.value.message == "line 6: invalid JSON (Expecting ',' delimiter)"


_DEEP = 100_000  # deeper than any JSON decoder's recursion limit


@pytest.mark.parametrize("line, problem", [
    pytest.param('{"kind":"VISIT_END"} x', "invalid JSON (Extra data)", id="trailing-junk"),
    pytest.param('{"kind":"VISIT_END"}{"kind":"VISIT_END"}', "invalid JSON (Extra data)", id="two-objects"),
    pytest.param('x{"kind":"VISIT_END"}', "invalid JSON (Expecting value)", id="leading-junk"),
    pytest.param("[", "invalid JSON (Expecting value)", id="open-bracket"),
    pytest.param("nul", "invalid JSON (Expecting value)", id="nul"),
    pytest.param('{"kind":"VISIT_END', "invalid JSON (Unterminated string starting at)", id="unterminated"),
    pytest.param('"VISIT_END"', "not a JSON object", id="bare-string"),
    pytest.param('[{"kind":"VISIT_END"}]', "not a JSON object", id="array"),
    pytest.param("[" * _DEEP, "invalid JSON (nested too deeply)", id="deep-array"),
    pytest.param('{"a":' * _DEEP, "invalid JSON (nested too deeply)", id="deep-object"),
])
@pytest.mark.parametrize("lineno", [1, 2])
def test_decode_errors_keep_their_wording(line, problem, lineno):
    """Each line that is not one JSON object fails with the code and message pinned here."""
    header = ['{"format_version":1}'] if lineno == 2 else []
    with pytest.raises(InputError) as exc:
        parse_log_text("\n".join([*header, line, '{"format_version":1}']) + "\n")
    assert (exc.value.code, exc.value.message) == ("MALFORMED_RECORD", f"line {lineno}: {problem}")


def test_a_quoted_value_is_cut():
    """An error quotes at most about 60 characters of a value, however large; a short value reads as its repr."""
    short = (0, "BOGUS", None, [1, 2], "x" * 60)
    assert [quoted(v) for v in short] == [repr(v) for v in short] == ["0", "'BOGUS'", "None", "[1, 2]", repr("x" * 60)]
    assert quoted("x" * 61) == repr("x" * 60)
    assert quoted([1] * 30) == repr([1] * 30)[:60] + "..."
    record = {"kind": "VISIT_START", "visit_id": "v1", "site": "a.com", "rank": [1] * 100_000,
              "phase": "STATEFUL_ACCEPT", "iteration": "REJECT_ITER", "gpc_enabled": False}
    with pytest.raises(InputError) as exc:
        parse_log_text(f'{{"format_version":1}}\n{json.dumps(record)}\n')
    assert (exc.value.code, exc.value.message) == ("MALFORMED_RECORD", f"line 2: bad rank {quoted([1] * 100_000)}")
    assert len(exc.value.message) < 100


def _url_outcome(key: str, url: str):
    """The parser's verdict on a request whose ``key`` is ``url``: None, or the error's code and message."""
    try:
        parse_log_text("\n".join(_with_request_field(key, url)))
    except PipelineError as exc:
        return exc.code, exc.message
    return None


def _urlsplit_outcome(key: str, url: str):
    """The verdict ``urlsplit`` implies: UNPARSABLE_URL, with its message, exactly when it raises."""
    try:
        urlsplit(url)
    except ValueError as exc:
        return "UNPARSABLE_URL", f"line 4: bad {key} {quoted(url)} ({exc})"
    return None


_URL_KEYS = ("target_url", "redirect_parent_url")
_URL_CORPUS = [
    "https://[::1/x", "https://a]b/", "https://[zz]/", "https://[::1]/", "https://[v1.x]/", "https://[1.2.3.4]/",
    "https://a℀b.example/", "https://℀/", "https://ｅｘａｍｐｌｅ.com/",
    "https://a／b.example/", "https://café.example/", "https://example.com/café?q=[1]",
    "https://cdn.tracker.net/px", "http://a.example:8080/p?q=1#f", "//sync.example/match?uid=1", "", "not a url",
]
# Characters that steer urlsplit: delimiters, brackets, and non-ASCII letters and symbols, some of
# which NFKC-normalize to delimiters.
_URL_ALPHABET = st.sampled_from(list("ab1.-:@[]/?#% ") + ["℀", "／", "？", "ａ", "é", "ª"])
_URL_SHAPED = st.builds(
    "{}{}{}".format,
    st.sampled_from(["https://", "http://", "//", "x:", ""]),
    st.text(_URL_ALPHABET, max_size=12),
    st.text(_URL_ALPHABET, max_size=6),
)


@pytest.mark.parametrize("key", _URL_KEYS)
@pytest.mark.parametrize("url", _URL_CORPUS)
def test_url_check_matches_urlsplit_on_corpus(url, key):
    assert _url_outcome(key, url) == _urlsplit_outcome(key, url)


@pytest.mark.parametrize("key", _URL_KEYS)
@settings(max_examples=400)
@given(url=st.one_of(st.text(), _URL_SHAPED))
def test_url_check_matches_urlsplit(key, url):
    """A URL is rejected exactly when ``urlsplit`` raises, so skipping the call where it cannot raise is safe."""
    assert _url_outcome(key, url) == _urlsplit_outcome(key, url)


def test_records_are_immutable_hashable_and_round_trip():
    """Every record type refuses assignment, hashes, and comes back from serialize + parse as it went in."""
    events = _single_visit_events()
    events[5:5] = [
        HttpRequest("v1", InteractionStage.AFTER_RELOADED_REJECT, "sync.example", "https://sync.example/m",
                    Channel.RESOURCE_FETCH, "", "https://cdn.tracker.net/px"),
        CookieSet("v1", InteractionStage.AFTER_RELOADED_REJECT, "id=1; Partitioned", "cdn.tracker.net"),
    ]
    events = numbered(events)
    index = parse_log_text(serialize(events))
    assert index == index_run(events)
    assert [type(e) for e in index.requests + index.cookie_sets] == [HttpRequest, HttpRequest, CookieSet]
    fragment = parse_set_cookie(index.cookie_sets[0].set_cookie_header, index.cookie_sets[0].setter_context_host)
    records = [*events, *index.visits.values(), fragment]
    assert {type(r) for r in records} == {
        VisitStart, BannerObserved, Interaction, HttpRequest, CookieSet, VisitEnd, VisitSummary, SetCookieFragment,
    }
    for record in records:
        hash(record)
        for name in (record._fields[0], "event_index", "unknown_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, "x")


class TestParseCookieHeader:
    def test_two_pairs(self):
        assert parse_cookie_header("id=123; s=abc") == [("id", "123"), ("s", "abc")]

    def test_empty(self):
        assert parse_cookie_header("") == []

    def test_split_at_first_equals_only(self):
        assert parse_cookie_header("a=b=c") == [("a", "b=c")]

    def test_tolerates_missing_space(self):
        assert parse_cookie_header("a=1;b=2") == [("a", "1"), ("b", "2")]

    def test_malformed_pair_collected_rest_returned(self):
        issues: list[ParseIssue] = []
        pairs = parse_cookie_header("a=1; junk; b=2", issues=issues)
        assert pairs == [("a", "1"), ("b", "2")]
        assert [i.code for i in issues] == ["MALFORMED_PAIR"]

    def test_empty_value_allowed(self):
        assert parse_cookie_header("a=") == [("a", "")]

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
                st.text(alphabet="0123456789abcdef", max_size=12),
            ),
            max_size=6,
        )
    )
    def test_round_trip_of_well_formed_headers(self, pairs):
        header = "; ".join(f"{n}={v}" for n, v in pairs)
        assert parse_cookie_header(header) == pairs


class TestParseSetCookie:
    def test_domain_and_max_age(self):
        fragment = parse_set_cookie("id=123; Domain=.tracker.net; Max-Age=86400", "a.tracker.net")
        assert fragment.name == "id"
        assert fragment.value == "123"
        assert fragment.host == "tracker.net"
        assert fragment.original_expiry == 86400.0
        assert fragment.partitioned is False

    def test_partitioned_session_cookie(self):
        fragment = parse_set_cookie("id=1; Partitioned; Secure", "t.net")
        assert fragment.partitioned is True
        assert fragment.host == "t.net"
        assert fragment.original_expiry is None

    def test_negative_max_age_is_deletion(self):
        fragment = parse_set_cookie("id=1; Max-Age=-1", "t.net")
        assert fragment.original_expiry == -1.0

    def test_max_age_takes_precedence_over_expires(self):
        fragment = parse_set_cookie(
            "id=1; Expires=Sat, 01 Jan 2028 12:12:12 GMT; Max-Age=60", "t.net"
        )
        assert fragment.original_expiry == 60.0

    def test_expires_relative_to_epoch(self):
        fragment = parse_set_cookie("id=1; Expires=Fri, 02 Jan 2026 00:00:00 GMT", "t.net")
        assert fragment.original_expiry == 86400.0

    def test_malformed_expires_falls_back_to_session(self):
        issues: list[ParseIssue] = []
        fragment = parse_set_cookie("id=1; Expires=whenever", "t.net", issues=issues)
        assert fragment.original_expiry is None
        assert issues and issues[0].code == "MALFORMED_EXPIRES"

    @pytest.mark.parametrize("attribute", [
        "Max-Age=1" + "0" * 400,  # an int past the largest float
        "Expires=Wed, 21 Oct 2026 99999999999999999999:00:00 GMT",  # an hour past a C long
        "Expires=Wed, 99999999999999999999 Oct 2026 00:00:00 GMT",
    ], ids=["max-age", "expires-hour", "expires-day"])
    def test_oversized_expiry_falls_back_to_session(self, attribute):
        issues: list[ParseIssue] = []
        fragment = parse_set_cookie(f"id=1; {attribute}", "t.net", issues=issues)
        assert fragment.original_expiry is None
        assert [issue.code for issue in issues] == ["MALFORMED_EXPIRES"]

    @pytest.mark.parametrize("attribute, detail", [
        ("Max-Age=" + "9" * 400, "bad Max-Age " + repr("9" * 60)),
        ("Expires=" + "x" * 400, "bad Expires " + repr("x" * 60)),
    ], ids=["max-age", "expires"])
    def test_malformed_expiry_detail_quotes_at_most_60_characters(self, attribute, detail):
        issues: list[ParseIssue] = []
        parse_set_cookie(f"id=1; {attribute}", "t.net", issues=issues)
        assert issues == [ParseIssue("MALFORMED_EXPIRES", detail)]

    def test_missing_name(self):
        with pytest.raises(InputError) as exc:
            parse_set_cookie("=1; Max-Age=5", "t.net")
        assert exc.value.code == "MISSING_NAME"

    def test_attribute_names_case_insensitive(self):
        fragment = parse_set_cookie("id=1; dOmAiN=T.NET; mAx-AgE=5; pArTiTiOnEd", "other.net")
        assert fragment.host == "t.net"
        assert fragment.original_expiry == 5.0
        assert fragment.partitioned


class TestRecordFromCookieSet:
    def test_consent_state_derived_from_stage(self):
        visit = VisitStart("v1", "shop.com", 1, Phase.STATEFUL_ACCEPT, Iteration.ACCEPT_ITER, False)
        event = CookieSet("v1", InteractionStage.AFTER_ACCEPT, "id=1; Max-Age=60", "cdn.t.net", event_index=4)
        record = record_from_cookie_set(event, visit)
        assert record.consent_state_at_set is ConsentState.POST_ACCEPT
        assert record.setter_site == "shop.com"
        assert record.set_at == 4
        assert record.phase is Phase.STATEFUL_ACCEPT

    def test_partitioned_key_carries_visit_site(self):
        visit = VisitStart("v1", "shop.com", 1, Phase.STATEFUL_ACCEPT, Iteration.ACCEPT_ITER, False)
        event = CookieSet("v1", InteractionStage.AFTER_ACCEPT, "id=1; Partitioned", "t.net", event_index=0)
        record = record_from_cookie_set(event, visit)
        assert record.key.partition == "shop.com"


class TestSummaries:
    def test_summary_fields(self):
        summary = parse_log_text(serialize(_single_visit_events())).visits["v1"]
        assert summary.site == "new.com"
        assert summary.banner_type is BannerType.NATIVE
        assert summary.outcome is VisitOutcome.REJECTED

    def test_banner_defaults_to_none(self):
        events = [
            VisitStart("v1", "a.com", 1, Phase.STATELESS_MEASURE, Iteration.REJECT_ITER, False),
            VisitEnd("v1", VisitOutcome.NO_BANNER),
        ]
        summary = parse_log_text(serialize(events)).visits["v1"]
        assert summary.banner_type is BannerType.NONE

    def test_strict_issues_flags_bad_cookie_headers(self):
        events = _single_visit_events()
        events[2] = HttpRequest(
            "v1",
            InteractionStage.BEFORE_INTERACTION,
            "t.net",
            "https://t.net/",
            Channel.RESOURCE_FETCH,
            "id=1; broken",
        )
        issues = strict_issues(parse_log_text(serialize(events)))
        assert [i.code for i in issues] == ["MALFORMED_PAIR"]


# --- the single-pass loader against the loader it replaced ------------------------------------
#
# A copy of the two-pass loader as it was before decoding and sequencing were
# fused (record_to_event, _check_sequence, merge_logs): the reference the
# single-pass loader must agree with, event for event and error for error.


def _ref_require(obj, keys, lineno):
    """The values of ``keys``, every one of which must be present: the first absent one is missing."""
    for key in keys:
        if key not in obj:
            raise InputError("MALFORMED_RECORD", f"line {lineno}: missing field {key!r}")
    return [obj[key] for key in keys]


def _ref_check(ok, key, value, lineno):
    if not ok:
        raise InputError("MALFORMED_RECORD", f"line {lineno}: bad {key} {quoted(value)}")


def _ref_enum(enum_cls, key, raw, lineno):
    try:
        return enum_cls[raw]
    except KeyError:
        raise InputError("MALFORMED_RECORD", f"line {lineno}: bad {key} {quoted(raw)}") from None


def _ref_url_field(value, key, lineno):
    try:
        urlsplit(value)
    except ValueError as exc:
        raise InputError("UNPARSABLE_URL", f"line {lineno}: bad {key} {quoted(value)} ({exc})") from None
    return value


def _ref_items(raw, where, name, arity=None):
    """The items of a banner's list field: each a list of ``arity`` values, or else an object."""
    for index, item in enumerate(raw):
        at = f"{where}{name}[{index}]: "
        if arity is None and type(item) is not dict:
            raise ValueError(f"{at}not an object")
        if arity is not None and (type(item) is not list or len(item) != arity):
            raise ValueError(f"{at}not a list of {arity} values")
        yield at, item


def _ref_banner(obj):
    """The banner an object holds.  Each record's fields are checked in its order: all present, then typed, then
    valued; an error is ``ValueError("<path>: <problem>")``, as ``layers[0]: buttons[1]: bad action 'X'``."""

    def typed(where, values, types):
        for name, kind in types.items():
            if type(values[name]) is not kind:
                raise ValueError(f"{where}bad {name} {quoted(values[name])}")

    if "banner_type" not in obj:
        raise ValueError("missing field 'banner_type'")
    banner = {"banner_type": obj["banner_type"], "layers": obj.get("layers", [])}
    typed("", banner, {"banner_type": str, "layers": list})
    banner_type = _ref_enum_value(BannerType, "", "banner_type", banner["banner_type"])
    layers = []
    for where, raw in _ref_items(banner["layers"], "", "layers"):
        layer = {"buttons": raw.get("buttons", []), "toggles": raw.get("toggles", [])}
        typed(where, layer, {"buttons": list, "toggles": list})
        buttons, toggles = [], []
        for at, (label, action) in _ref_items(layer["buttons"], where, "buttons", 2):
            typed(at, {"label": label, "action": action}, {"label": str, "action": str})
            buttons.append(BannerButton(label, _ref_enum_value(ButtonAction, at, "action", action)))
        for at, (category, preselected, essential) in _ref_items(layer["toggles"], where, "toggles", 3):
            typed(at, {"category": category, "preselected": preselected, "essential": essential},
                  {"category": str, "preselected": bool, "essential": bool})
            toggles.append(BannerToggle(category, preselected, essential))
        layers.append(BannerLayer(tuple(buttons), tuple(toggles)))
    if banner_type is BannerType.NONE and layers:
        raise ValueError("banner_type NONE must have no layers")
    return BannerDescriptor(banner_type, tuple(layers))


def _ref_enum_value(enum_cls, where, name, raw):
    if raw not in enum_cls.__members__:
        raise ValueError(f"{where}bad {name} {quoted(raw)}")
    return enum_cls[raw]


_REF_KINDS = {
    "VISIT_START": VisitStart,
    "BANNER_OBSERVED": BannerObserved,
    "INTERACTION": Interaction,
    "HTTP_REQUEST": HttpRequest,
    "COOKIE_SET": CookieSet,
    "VISIT_END": VisitEnd,
}


def _ref_record_to_event(obj, lineno, event_index):
    """The event a record holds.  Its fields are checked in their event's order: all present, then typed, then
    valued."""
    kind = _ref_require(obj, ["kind"], lineno)[0]
    cls = _REF_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InputError("MALFORMED_RECORD", f"line {lineno}: unknown kind {kind!r}")
    try:
        if cls is VisitStart:
            visit_id, site, rank, phase, iteration, gpc = _ref_require(
                obj, ["visit_id", "site", "rank", "phase", "iteration", "gpc_enabled"], lineno
            )
            _ref_check(isinstance(visit_id, str) and visit_id, "visit_id", visit_id, lineno)
            _ref_check(isinstance(site, str), "site", site, lineno)
            _ref_check(isinstance(rank, int) and not isinstance(rank, bool) and rank >= 1, "rank", rank, lineno)
            _ref_check(isinstance(phase, str), "phase", phase, lineno)
            _ref_check(isinstance(iteration, str), "iteration", iteration, lineno)
            _ref_check(isinstance(gpc, bool), "gpc_enabled", gpc, lineno)
            return VisitStart(
                visit_id=visit_id,
                site=site,
                rank=rank,
                phase=_ref_enum(Phase, "phase", phase, lineno),
                iteration=_ref_enum(Iteration, "iteration", iteration, lineno),
                gpc_enabled=gpc,
                event_index=event_index,
            )
        if cls is BannerObserved:
            visit_id, raw_banner = _ref_require(obj, ["visit_id", "banner"], lineno)
            _ref_check(isinstance(visit_id, str) and visit_id, "visit_id", visit_id, lineno)
            _ref_check(isinstance(raw_banner, dict), "banner", raw_banner, lineno)
            try:
                banner = _ref_banner(raw_banner)
            except ValueError as exc:
                raise InputError("MALFORMED_RECORD", f"line {lineno}: banner: {exc}") from None
            return BannerObserved(visit_id=visit_id, banner=banner, event_index=event_index)
        if cls is Interaction:
            visit_id, action, resulting_stage = _ref_require(obj, ["visit_id", "action", "resulting_stage"], lineno)
            _ref_check(isinstance(visit_id, str) and visit_id, "visit_id", visit_id, lineno)
            _ref_check(isinstance(action, str), "action", action, lineno)
            _ref_check(isinstance(resulting_stage, str), "resulting_stage", resulting_stage, lineno)
            return Interaction(
                visit_id=visit_id,
                action=_ref_enum(InteractionAction, "action", action, lineno),
                resulting_stage=_ref_enum(InteractionStage, "resulting_stage", resulting_stage, lineno),
                event_index=event_index,
            )
        if cls is HttpRequest:
            visit_id, stage, target_host, target_url, channel = _ref_require(
                obj, ["visit_id", "stage", "target_host", "target_url", "channel"], lineno
            )
            cookie_header = obj.get("cookie_header", "")
            redirect_parent_url = obj.get("redirect_parent_url")
            _ref_check(isinstance(visit_id, str) and visit_id, "visit_id", visit_id, lineno)
            _ref_check(isinstance(stage, str), "stage", stage, lineno)
            _ref_check(isinstance(target_host, str), "target_host", target_host, lineno)
            _ref_check(isinstance(target_url, str), "target_url", target_url, lineno)
            _ref_check(isinstance(channel, str), "channel", channel, lineno)
            _ref_check(isinstance(cookie_header, str), "cookie_header", cookie_header, lineno)
            _ref_check(redirect_parent_url is None or isinstance(redirect_parent_url, str), "redirect_parent_url",
                       redirect_parent_url, lineno)
            return HttpRequest(
                visit_id=visit_id,
                stage=_ref_enum(InteractionStage, "stage", stage, lineno),
                target_host=target_host,
                target_url=_ref_url_field(target_url, "target_url", lineno),
                channel=_ref_enum(Channel, "channel", channel, lineno),
                cookie_header=cookie_header,
                redirect_parent_url=redirect_parent_url and _ref_url_field(
                    redirect_parent_url, "redirect_parent_url", lineno
                ),
                event_index=event_index,
            )
        if cls is CookieSet:
            visit_id, stage, header, context_host = _ref_require(
                obj, ["visit_id", "stage", "set_cookie_header", "setter_context_host"], lineno
            )
            _ref_check(isinstance(visit_id, str) and visit_id, "visit_id", visit_id, lineno)
            _ref_check(isinstance(stage, str), "stage", stage, lineno)
            _ref_check(isinstance(header, str), "set_cookie_header", header, lineno)
            _ref_check(isinstance(context_host, str), "setter_context_host", context_host, lineno)
            return CookieSet(
                visit_id=visit_id,
                stage=_ref_enum(InteractionStage, "stage", stage, lineno),
                set_cookie_header=header,
                setter_context_host=context_host,
                event_index=event_index,
            )
        visit_id, outcome = _ref_require(obj, ["visit_id", "outcome"], lineno)
        _ref_check(isinstance(visit_id, str) and visit_id, "visit_id", visit_id, lineno)
        _ref_check(isinstance(outcome, str), "outcome", outcome, lineno)
        return VisitEnd(
            visit_id=visit_id,
            outcome=_ref_enum(VisitOutcome, "outcome", outcome, lineno),
            event_index=event_index,
        )
    except (TypeError, AttributeError) as exc:
        raise InputError("MALFORMED_RECORD", f"line {lineno}: malformed record ({exc})") from None


_REF_ACTION_STAGE = {
    InteractionAction.ACCEPT_CLICKED: InteractionStage.AFTER_ACCEPT,
    InteractionAction.REJECT_CLICKED: InteractionStage.AFTER_REJECT,
    InteractionAction.RELOAD: InteractionStage.AFTER_RELOADED_REJECT,
}


class _RefVisitState:
    def __init__(self):
        self.stage = InteractionStage.BEFORE_INTERACTION
        self.saw_body = False
        self.banner_count = 0


def _ref_violation(visit_id, detail):
    raise InvariantError("SEQUENCE_VIOLATION", f"visit {visit_id!r}: {detail}")


def _ref_check_sequence(event, open_visits, closed):
    visit_id = event.visit_id
    if isinstance(event, VisitStart):
        if visit_id in open_visits or visit_id in closed:
            _ref_violation(visit_id, "duplicate VISIT_START")
        open_visits[visit_id] = _RefVisitState()
        return
    state = open_visits.get(visit_id)
    if state is None:
        detail = "event after VISIT_END" if visit_id in closed else "event before VISIT_START"
        _ref_violation(visit_id, f"{detail} ({type(event).__name__})")
    if isinstance(event, BannerObserved):
        if state.saw_body or state.banner_count:
            _ref_violation(visit_id, "BANNER_OBSERVED not immediately after VISIT_START")
        state.banner_count += 1
        return
    if isinstance(event, VisitEnd):
        del open_visits[visit_id]
        closed.add(visit_id)
        return
    state.saw_body = True
    if isinstance(event, Interaction):
        if event.resulting_stage is not _REF_ACTION_STAGE[event.action]:
            _ref_violation(visit_id, f"{event.action.value} cannot result in stage {event.resulting_stage.name}")
        if event.resulting_stage <= state.stage:
            _ref_violation(visit_id, f"stage {event.resulting_stage.name} does not advance past {state.stage.name}")
        state.stage = event.resulting_stage
        return
    if event.stage is not state.stage:
        _ref_violation(
            visit_id, f"{type(event).__name__} at stage {event.stage.name} while visit is at {state.stage.name}"
        )


def _ref_parse_log_text(text, ended=()):
    """The events of one log; ``ended`` holds the visit ids of the logs read before it, as ended visits."""
    events = []
    open_visits, closed = {}, set(ended)
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError("MALFORMED_RECORD", f"line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise InputError("MALFORMED_RECORD", f"line {lineno}: not a JSON object")
        if not header_seen:
            if obj.get("format_version") != 1:
                expected = "expected header record {'format_version': 1}"
                raise InputError("MALFORMED_RECORD", f"line {lineno}: {expected}, got {quoted(obj)}")
            header_seen = True
            continue
        event = _ref_record_to_event(obj, lineno, len(events))
        _ref_check_sequence(event, open_visits, closed)
        events.append(event)
    if not header_seen:
        raise InputError("MALFORMED_RECORD", "missing format_version header record")
    if open_visits:
        raise InvariantError("SEQUENCE_VIOLATION", f"visit {next(iter(open_visits))!r} has no VISIT_END")
    return events


def _ref_outcome(text, ended=()):
    """The reference parser's events of one log, or the ``PipelineError`` it raises."""
    try:
        return _ref_parse_log_text(text, ended)
    except PipelineError as exc:
        return exc


@pytest.fixture(scope="module")
def c8_reference():
    """Every C8 mutant with the reference parser's outcome: the corpus is built and parsed once for this module."""
    from test_acceptance import c8_corpus

    return [(text, _ref_outcome(text)) for text, _code, _exit in c8_corpus()]


def _ref_load(paths, texts, first):
    """The reference's events of one run's logs read in turn, numbered across them; the first error is raised.

    ``first`` is the reference's outcome of the first log, which no other log
    affects.  Each later log is parsed with the visit ids of the logs before
    it as ended visits, so an id it starts again is its duplicate VISIT_START.
    An error names its file, as the loader's do.
    """
    merged = []
    for n, (path, text) in enumerate(zip(paths, texts)):
        events = first if n == 0 else _ref_outcome(text, {e.visit_id for e in merged})
        if isinstance(events, PipelineError):
            raise type(events)(events.code, f"{path}: {events.message}")
        merged += [e._replace(event_index=len(merged) + i) for i, e in enumerate(events)]
    return merged


_HOST_FIELDS = {VisitStart: "site", HttpRequest: "target_host", CookieSet: "setter_context_host"}


def _fold_hosts(events):
    """The events with every host field case-folded, as the parser canonicalizes them."""
    for i, event in enumerate(events):
        field = _HOST_FIELDS.get(type(event))
        if field and not getattr(event, field).islower():
            events[i] = event._replace(**{field: getattr(event, field).lower()})
    return events


def _load_outcome(load):
    """("ok", run index) or ("error", (type, code, message)).

    The index's request and cookie-set lists each hold one record kind, so
    equal lists hold equal records of equal kinds.
    """
    try:
        index = load()
    except PipelineError as exc:
        return "error", (type(exc), exc.code, exc.message)
    assert {type(e) for e in index.requests} <= {HttpRequest} and {type(e) for e in index.cookie_sets} <= {CookieSet}
    return "ok", index


def _upper_case_hosts(text):
    """The log with every host field upper-cased: the one input the two loaders read differently."""
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        record = json.loads(line)
        for field in ("site", "target_host", "setter_context_host"):
            if field in record:
                record[field] = record[field].upper()
        lines[i] = json.dumps(record)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def random_runs():
    """200 random ecosystems, each with its seed, its first run's events (labelled ``r0``) and their log text.

    Built once for this module: the loader and encoder tests share them.
    """
    runs = []
    for seed in range(200):
        config = random_config(random.Random(seed))
        events = sim.generate(config, seed, run_label="r0")
        runs.append((seed, config, events, serialize(events)))
    return runs


def test_single_pass_loader_matches_two_pass_reference(tmp_path, c8_reference, random_runs):
    """Random ecosystems merged from 1-3 logs, and every C8 mutant: the reference's index or its error."""
    cases = []  # (what the case covers, the texts of its logs, the reference's outcome of the first)
    for seed, config, _events, first in random_runs:
        labels = [f"r{j}" for j in range(1 + seed % 3)]
        what = "merged" if len(labels) > 1 else "single"
        if seed % 25 == 1:
            labels, what = ["r0"] * len(labels), "collision"
        later = enumerate(labels[1:], start=1)
        texts = [first, *(serialize(sim.generate(config, seed + j, run_label=label)) for j, label in later)]
        if seed % 20 == 0:
            texts[-1], what = _upper_case_hosts(texts[-1]), "upper-case"
        cases.append((what, texts, _ref_outcome(first)))
    cases += [("mutant", [text], outcome) for text, outcome in c8_reference]

    seen = {}
    for n, (what, texts, first_outcome) in enumerate(cases):
        paths = []
        for j, text in enumerate(texts):
            paths.append(tmp_path / f"{n}-{j}.log")
            paths[-1].write_text(text, encoding="utf-8")
        expected = _load_outcome(lambda: index_run(_fold_hosts(_ref_load(paths, texts, first_outcome))))
        got = _load_outcome(lambda: _load_logs(paths))
        assert got[0] == expected[0], (n, what, expected[1] if expected[0] == "error" else got[1])
        assert got == expected, (n, what)
        seen[what, got[0]] = seen.get((what, got[0]), 0) + 1
    assert seen[("merged", "ok")] >= 100 and seen[("upper-case", "ok")] == 10, seen
    assert seen[("collision", "error")] >= 5 and seen[("mutant", "error")] >= 500, seen


# --- the accepted set of banners, pinned ---------------------------------------------------------

# The outcome of each mutation of each field of the demo config's second banner, in a log's BANNER_OBSERVED and
# in the config, as loading gave it before banners were read by declared fields: a (mutation, regular
# expression) that the dotted path in the banner matches in full is accepted, else the source's error code.
_BANNER_ACCEPTED = {
    ("missing", r"layers(\.\d+(\.(buttons|toggles)(\.\d+)?)?)?"),  # an omitted list, or one item fewer
    ("huge", r"layers\.\d+\.(buttons|toggles)\.\d+\.0"),  # a label or category
}


def _banner_sources():
    """(the demo config, its log's lines, the index of the BANNER_OBSERVED line with the config's second banner,
    which has two layers and two toggles)."""
    config = json.loads((DEMO / "ecosystem.json").read_text(encoding="utf-8"))
    lines = serialize(sim.generate(sim.EcosystemConfig.from_obj(config), 7)).splitlines()
    line = next(i for i, text in enumerate(lines) if json.loads(text).get("banner") == config["sites"][1]["banner"])
    return config, lines, line


def _banner_outcome(source: str, banner: dict) -> tuple[str, str]:
    """("accepted", "") or (code, message) of the demo config or log with ``banner`` as its second banner."""
    config, lines, line = _banner_sources()
    try:
        if source == "log":
            record = {**json.loads(lines[line]), "banner": banner}
            parse_log_text("\n".join(lines[:line] + [json.dumps(record)] + lines[line + 1:]))
        else:
            config["sites"][1]["banner"] = banner
            sim.EcosystemConfig.from_obj(config)
    except PipelineError as exc:
        return exc.code, exc.message
    return "accepted", ""


@pytest.mark.parametrize("source, code", [("log", "MALFORMED_RECORD"), ("config", "INVALID_CONFIG")])
def test_each_banner_field_mutation_has_its_pinned_outcome(source, code):
    """Every field of a banner, of the wrong JSON type, null, missing or huge: accepted, or refused with the code
    and in the bounded wording of its source, naming the field's path."""
    config, lines, line = _banner_sources()
    banner = config["sites"][1]["banner"]
    where = f"line {line + 1}: banner: " if source == "log" else "sites[1]: banner: "
    outcomes = collections.Counter()
    for how, dotted, mutated in mutants(banner):
        got, message = _banner_outcome(source, mutated)
        accepted = any(how == mutation and re.fullmatch(pattern, dotted) for mutation, pattern in _BANNER_ACCEPTED)
        assert got == ("accepted" if accepted else code), (how, dotted, message)
        assert got == "accepted" or (message.startswith(where) and len(message) < 200), (how, dotted, message)
        outcomes[got] += 1
    assert outcomes == {code: 83, "accepted": 17}


# The declared tightening: what loading accepted, or refused with another wording, before banners were read by
# declared fields.  (path in the second banner, value, the problem after its source's ``banner: ``).
_BANNER_TIGHTENED = [
    (("layers", 0, "buttons", 0), {"Accept": 1, "ACCEPT": 2}, "layers[0]: buttons[0]: not a list of 2 values"),
    (("layers", 0, "buttons"), {"ab": 1}, "layers[0]: bad buttons {'ab': 1}"),
    (("layers", 1, "toggles"), {}, "layers[1]: bad toggles {}"),
    (("layers", 1, "buttons"), "", "layers[1]: bad buttons ''"),
    (("layers",), {}, "bad layers {}"),
    (("layers",), "", "bad layers ''"),
]


@pytest.mark.parametrize("path, value, problem", _BANNER_TIGHTENED)
@pytest.mark.parametrize("source, code", [("log", "MALFORMED_RECORD"), ("config", "INVALID_CONFIG")])
def test_a_banner_list_or_record_of_another_json_type_is_refused(source, code, path, value, problem):
    """A button given as an object, and an object or a string where a banner's list is due, are refused with an
    error that names the field, even where the object's keys or a string's characters iterate as the items."""
    config, lines, line = _banner_sources()
    banner = config["sites"][1]["banner"]
    set_path(banner, path, value)
    where = f"line {line + 1}: " if source == "log" else "sites[1]: "
    assert _banner_outcome(source, banner) == (code, f"{where}banner: {problem}")


# --- the per-kind encoders against the generic encoder they replaced --------------------------
#
# A copy of the path ``serialize`` took before each record kind had its own
# encoder: every dataclass field, enums by name, through ``json.dumps``.  The
# encoders must write the same bytes.


def _ref_banner_obj(banner):
    return {
        "banner_type": banner.banner_type.value,
        "layers": [
            {
                "buttons": [[b.label, b.action.value] for b in layer.buttons],
                "toggles": [[t.category, t.preselected, t.essential] for t in layer.toggles],
            }
            for layer in banner.layers
        ],
    }


_REF_KIND_NAMES = {cls: kind for kind, cls in _REF_KINDS.items()}


def _ref_event_to_record(event):
    record = {"kind": _REF_KIND_NAMES[type(event)]}
    for name in event._fields:
        if name == "event_index":
            continue
        value = getattr(event, name)
        if name == "banner":
            value = _ref_banner_obj(value)
        elif isinstance(value, enum.Enum):
            value = value.name
        record[name] = value
    return record


def _ref_serialize(events):
    lines = [json.dumps({"format_version": 1}, sort_keys=True, separators=(",", ":"))]
    for event in events:
        lines.append(json.dumps(_ref_event_to_record(event), sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


# Strings the escaper must treat as json.dumps does: quote, backslash, control
# characters, a JSON-legal but JavaScript-hostile separator, non-ASCII,
# non-BMP (written as a surrogate pair) and a lone surrogate.
_AWKWARD = ['q"uote', "back\\slash", "ctl\x00\x01\x1f\x7f\n\r\t\b\f", "sep \u2028 \u2029", "caf\u00e9 \u4e2d",
            "emoji \U0001F36A", "lone \ud800 \udfff", ""]


def _hand_built_events():
    events = []
    for n, text in enumerate(_AWKWARD):
        banner = BannerDescriptor(
            BannerType.CMP,
            (
                BannerLayer(buttons=(BannerButton(text, ButtonAction.ACCEPT),
                                     BannerButton("Settings", ButtonAction.SETTINGS))),
                BannerLayer(buttons=(BannerButton("Save", ButtonAction.SAVE),),
                            toggles=(BannerToggle(text, n % 2 == 0, n % 3 == 0),)),
            ),
        )
        events += [
            VisitStart(text, text, n + 1, Phase.STATELESS_MEASURE, Iteration.REJECT_ITER, n % 2 == 0),
            BannerObserved(text, banner),
            HttpRequest(text, InteractionStage.BEFORE_INTERACTION, text, text, Channel.API_CALL, text, text),
            HttpRequest(text, InteractionStage.AFTER_REJECT, text, text, Channel.RESOURCE_FETCH, text, None),
            CookieSet(text, InteractionStage.AFTER_RELOADED_REJECT, text, text),
            Interaction(text, InteractionAction.RELOAD, InteractionStage.AFTER_RELOADED_REJECT),
            VisitEnd(text, VisitOutcome.INTERACTION_FAILED),
        ]
    # Banners that share a type but not their layers, and equal banners built twice.
    for reject in (True, False, True):
        events.append(BannerObserved("b", native_banner(reject=reject)))
    events.append(BannerObserved("b", BannerDescriptor(BannerType.NATIVE)))
    events.append(BannerObserved("b", BannerDescriptor(BannerType.NONE)))
    # An int field is written as json writes an int, including a bool or a huge one.
    for rank, gpc in ((True, False), (False, True), (2**70, True), (1, False)):
        events.append(VisitStart("r", "r.com", rank, Phase.STATEFUL_ACCEPT, Iteration.ACCEPT_ITER, gpc))
    return events


def test_log_writer_streams_the_lines_serialize_joins():
    """Each event's line is written as the sink gets it.  Banners made and dropped one by one
    never share a memo entry, though a freed banner's id may be reused by the next."""
    events = _hand_built_events()
    lines = []
    write_event = log_writer(lines.append)
    assert lines == ['{"format_version":1}\n']
    for n, event in enumerate(events):
        write_event(event)
        assert len(lines) == n + 2 and lines[-1].endswith("\n")
    assert "".join(lines) == serialize(events) == _ref_serialize(events)
    lines.clear()
    write_event = log_writer(lines.append)
    expected = []
    for n in range(200):
        event = BannerObserved(f"v{n}", native_banner(reject=n % 3 == 0))
        write_event(event)
        expected.append(_ref_serialize([event]).splitlines()[1] + "\n")
        del event  # the writer alone may still hold its banner
    assert lines[1:] == expected


def test_encoders_match_generic_encoder(c8_reference, random_runs):
    """C8 logs that parse, 200 random ecosystems and hand-built awkward events: identical bytes."""
    logs = [_hand_built_events()]
    logs += [events for _seed, _config, events, _text in random_runs]
    # The C8 logs the reference parses, which are the ones ``parse_log_text`` parses
    # (test_single_pass_loader_matches_two_pass_reference).
    logs += [events for _text, events in c8_reference if not isinstance(events, PipelineError)]
    for n, events in enumerate(logs):
        assert serialize(events) == _ref_serialize(events), n
    assert serialize([]) == _ref_serialize([])
    assert len(logs) >= 250, len(logs)

    kinds = {type(e) for events in logs for e in events}
    assert kinds == set(_REF_KIND_NAMES)
    requests = [e for events in logs for e in events if isinstance(e, HttpRequest)]
    assert {e.redirect_parent_url is None for e in requests} == {True, False}
    starts = [e for events in logs for e in events if isinstance(e, VisitStart)]
    assert {e.gpc_enabled for e in starts} == {True, False}
