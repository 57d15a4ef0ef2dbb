from __future__ import annotations

import hashlib
import json
import random
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest

from cookietrail import simulator
from cookietrail.crawllog import parse_log_text, serialize
from cookietrail.errors import InputError
from cookietrail.jar import SNAPSHOT_FORMAT, SNAPSHOT_VERSION, CookieJar, build_jar
from cookietrail.model import (
    FIXED_EXPIRY,
    ConsentState,
    CookieKey,
    CookieRecord,
    Phase,
)

from helpers import mutants, save_jar

DEMO = Path(__file__).resolve().parent.parent / "demo"


def make_record(
    name="id",
    host="tracker.net",
    partition=None,
    value="123",
    expiry: float | None = 365 * 86400.0,
    setter="shop.com",
    set_at=0,
    phase=Phase.STATEFUL_ACCEPT,
) -> CookieRecord:
    return CookieRecord(
        key=CookieKey(name, host, partition),
        value=value,
        original_expiry=expiry,
        setter_site=setter,
        set_at=set_at,
        consent_state_at_set=ConsentState.POST_ACCEPT,
        phase=phase,
    )


class TestUpsert:
    def test_store_overrides_expiry(self):
        jar = CookieJar()
        jar.upsert(make_record())
        record = jar.entries[CookieKey("id", "tracker.net")]
        assert record.effective_expiry == FIXED_EXPIRY
        assert record.original_expiry == 365 * 86400.0

    def test_record_with_the_fixed_expiry_is_stored_as_given(self):
        """Only a record whose effective expiry is not the fixed one is copied with it."""
        jar = CookieJar()
        given = make_record()
        jar.upsert(given)
        assert jar.entries[given.key] is given
        # The same instant in another zone compares equal but writes another isoformat: it is replaced.
        for other in (datetime(2030, 1, 1, tzinfo=timezone.utc), FIXED_EXPIRY.astimezone(timezone.max)):
            jar.upsert(given._replace(effective_expiry=other))
            assert jar.entries[given.key].effective_expiry is FIXED_EXPIRY

    def test_latest_write_wins_history_grows(self):
        jar = CookieJar()
        jar.upsert(make_record(setter="a.com", value="1", set_at=0))
        jar.upsert(make_record(setter="b.com", value="2", set_at=5))
        assert len(jar.entries) == 1
        assert jar.entries[CookieKey("id", "tracker.net")].value == "2"
        assert jar.entries[CookieKey("id", "tracker.net")].setter_site == "b.com"
        assert len(jar.history) == 2

    def test_past_expiry_deletes(self):
        jar = CookieJar()
        jar.upsert(make_record())
        jar.upsert(make_record(expiry=-1.0, set_at=1))
        assert jar.entries == {}
        deleted_rows = [row for row in jar.history if row.deleted]
        assert len(deleted_rows) == 1

    def test_zero_max_age_deletes(self):
        jar = CookieJar()
        jar.upsert(make_record(expiry=0.0))
        assert jar.entries == {}

    def test_session_cookie_is_stored(self):
        jar = CookieJar()
        jar.upsert(make_record(expiry=None))
        assert jar.entries[CookieKey("id", "tracker.net")].original_expiry is None

    def test_wrong_phase(self):
        jar = CookieJar()
        with pytest.raises(InputError) as exc:
            jar.upsert(make_record(phase=Phase.STATELESS_MEASURE))
        assert exc.value.code == "WRONG_PHASE"

    def test_partitioned_and_plain_coexist(self):
        jar = CookieJar()
        jar.upsert(make_record(partition="a.com"))
        jar.upsert(make_record(partition=None, set_at=1))
        assert len(jar.entries) == 2

    def test_same_partitioned_key_single_entry(self):
        jar = CookieJar()
        jar.upsert(make_record(partition="a.com"))
        jar.upsert(make_record(partition="a.com", value="9", set_at=1))
        assert len(jar.entries) == 1

    def test_two_partitions_two_entries(self):
        jar = CookieJar()
        jar.upsert(make_record(partition="a.com"))
        jar.upsert(make_record(partition="b.com", set_at=1))
        assert len(jar.entries) == 2

    def test_setters_of_orders_and_dedupes(self):
        jar = CookieJar()
        jar.upsert(make_record(setter="a.com", set_at=0))
        jar.upsert(make_record(setter="b.com", set_at=1))
        jar.upsert(make_record(setter="a.com", set_at=2))
        assert jar.setters_of(CookieKey("id", "tracker.net")) == ("a.com", "b.com")


class TestJarProperties:
    def test_random_sequences_maintain_invariants(self):
        """Expiry override, deletion honoring, and history conservation."""
        rng = random.Random(7)
        names = ["a", "b", "c"]
        hosts = ["t1.net", "t2.net"]
        partitions = [None, "p.com"]
        for _ in range(300):
            jar = CookieJar()
            live: set[CookieKey] = set()
            non_deleting = 0
            for step in range(rng.randint(1, 25)):
                key = CookieKey(rng.choice(names), rng.choice(hosts), rng.choice(partitions))
                expiry = rng.choice([None, 60.0, 86400.0, -5.0, 0.0])
                record = make_record(
                    key.name, key.host, key.partition, expiry=expiry, set_at=step
                )
                jar.upsert(record)
                if record.is_deletion:
                    live.discard(key)
                else:
                    live.add(key)
                    non_deleting += 1
            assert set(jar.entries) == live
            assert all(r.effective_expiry == FIXED_EXPIRY for r in jar.entries.values())
            assert sum(1 for row in jar.history if not row.deleted) == non_deleting


    def test_setters_of_matches_history_rescan(self, tmp_path):
        """The setter index agrees with a rescan of history after upserts, load and sampling."""

        def rescan(jar: CookieJar, key: CookieKey) -> tuple[str, ...]:
            seen: dict[str, None] = {}
            for row in jar.history:
                if row.key == key and not row.deleted:
                    seen.setdefault(row.setter_site, None)
            return tuple(seen)

        rng = random.Random(11)
        keys = [CookieKey(n, h, p) for n in ("a", "b") for h in ("t1.net", "x.t1.net") for p in (None, "p.com")]
        setters = [f"s{i}.com" for i in range(6)]
        probe_keys = keys + [CookieKey("never", "t1.net")]
        for trial in range(150):
            jar = CookieJar()
            for step in range(rng.randint(0, 30)):
                key = rng.choice(keys)
                setter = rng.choice(setters)
                jar.mark_accepted(setter)
                expiry = rng.choice([None, 60.0, -5.0, 0.0])
                jar.upsert(make_record(key.name, key.host, key.partition, expiry=expiry, setter=setter, set_at=step))
                for probe in probe_keys:
                    assert jar.setters_of(probe) == rescan(jar, probe)
            path = tmp_path / f"{trial}.jar"
            save_jar(jar, path)
            loaded = CookieJar.load(path)
            sampled = jar.normalize_sample(rng.randint(0, len(jar.accepted_sites)), seed=trial)
            for probe in probe_keys:
                assert loaded.setters_of(probe) == rescan(loaded, probe) == jar.setters_of(probe)
                assert sampled.setters_of(probe) == rescan(sampled, probe)


class TestNormalizeSample:
    def _jar_with_sites(self, n=10):
        jar = CookieJar()
        for i in range(n):
            site = f"s{i}.com"
            jar.mark_accepted(site)
            jar.upsert(make_record(name=f"c{i}", setter=site, set_at=i))
        return jar

    def test_full_sample_is_identity(self):
        jar = self._jar_with_sites()
        sampled = jar.normalize_sample(len(jar.accepted_sites), seed=1)
        assert sampled.entries == jar.entries
        assert sampled.accepted_sites == jar.accepted_sites
        assert sampled.history == jar.history

    def test_zero_sample_empties_entries(self):
        sampled = self._jar_with_sites().normalize_sample(0, seed=1)
        assert sampled.entries == {}
        assert sampled.history == []
        assert sampled.accepted_sites == set()

    def test_deterministic_for_seed(self):
        jar = self._jar_with_sites()
        assert jar.normalize_sample(4, seed=9).accepted_sites == jar.normalize_sample(4, seed=9).accepted_sites

    def test_different_seeds_differ_somewhere(self):
        jar = self._jar_with_sites(30)
        samples = {frozenset(jar.normalize_sample(10, seed=s).accepted_sites) for s in range(8)}
        assert len(samples) > 1

    def test_idempotent(self):
        jar = self._jar_with_sites()
        once = jar.normalize_sample(5, seed=3)
        twice = once.normalize_sample(5, seed=3)
        assert once.entries == twice.entries
        assert once.accepted_sites == twice.accepted_sites

    def test_sample_too_large(self):
        with pytest.raises(InputError) as exc:
            self._jar_with_sites(3).normalize_sample(4, seed=0)
        assert exc.value.code == "SAMPLE_TOO_LARGE"

    def test_negative_sample_is_invalid(self):
        with pytest.raises(InputError) as exc:
            self._jar_with_sites(3).normalize_sample(-1, seed=0)
        assert exc.value.code == "INVALID_SAMPLE"

    def test_filters_by_setter_site(self):
        jar = self._jar_with_sites(6)
        sampled = jar.normalize_sample(2, seed=11)
        assert all(r.setter_site in sampled.accepted_sites for r in sampled.entries.values())
        assert all(row.setter_site in sampled.accepted_sites for row in sampled.history)


class TestSnapshot:
    def test_round_trip_empty(self, tmp_path):
        jar = CookieJar()
        path = tmp_path / "empty.jar"
        save_jar(jar, path)
        loaded = CookieJar.load(path)
        assert loaded.entries == {} and loaded.history == [] and loaded.accepted_sites == set()

    def test_round_trip_large_and_byte_identical(self, tmp_path):
        rng = random.Random(5)
        jar = CookieJar()
        for i in range(10_000):
            site = f"s{i % 97}.com"
            jar.mark_accepted(site)
            jar.upsert(
                make_record(
                    name=f"n{i % 53}",
                    host=f"t{i % 13}.net",
                    partition=None if i % 7 else "p.com",
                    value=f"v{rng.randrange(1000)}",
                    expiry=rng.choice([None, 60.0, 365 * 86400.0]),
                    setter=site,
                    set_at=i,
                )
            )
        first = tmp_path / "a.jar"
        second = tmp_path / "b.jar"
        save_jar(jar, first)
        loaded = CookieJar.load(first)
        save_jar(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.entries == jar.entries
        assert loaded.history == jar.history

    def test_truncated_snapshot(self, tmp_path):
        jar = self_jar = CookieJar()
        self_jar.upsert(make_record())
        path = tmp_path / "t.jar"
        save_jar(jar, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])
        with pytest.raises(InputError) as exc:
            CookieJar.load(path)
        assert exc.value.code == "CORRUPT_SNAPSHOT"

    @pytest.mark.parametrize("text", ["", "\n", "{}", "{}\n", "{}\r\n", "{}\u2028{}\n"])
    def test_one_line_is_a_truncated_snapshot(self, tmp_path, text):
        path = tmp_path / "t.jar"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(InputError) as exc:
            CookieJar.load(path)
        assert exc.value.message == f"{path}: truncated snapshot"

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_a_raw_line_separator_in_the_payload_loads(self, tmp_path, separator):
        """JSON allows U+2028, U+2029 and U+0085 raw inside a string: such a snapshot loads as its escaped twin.

        Hosts and sites are canonical, so the separators go into a cookie's name and value."""
        jar = CookieJar()
        jar.mark_accepted("shop.com")
        jar.upsert(make_record(f"id{separator}", value=f"a{separator}b", setter="shop.com"))
        escaped = tmp_path / "escaped.jar"
        save_jar(jar, escaped)
        header, payload = escaped.read_text(encoding="utf-8").split("\n")[:2]
        assert separator not in payload  # save escapes it, and its bytes stay as they were
        payload = json.dumps(json.loads(payload), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert separator in payload
        header = json.dumps({"format": SNAPSHOT_FORMAT, "format_version": SNAPSHOT_VERSION,
                             "payload_sha256": hashlib.sha256(payload.encode()).hexdigest()})
        for newline in ("\n", "\r\n"):
            raw = tmp_path / "raw.jar"
            raw.write_text(f"{header}{newline}{payload}{newline}", encoding="utf-8", newline="")
            assert CookieJar.load(raw) == CookieJar.load(escaped) == jar

    def test_bit_flip_detected(self, tmp_path):
        jar = CookieJar()
        jar.upsert(make_record())
        path = tmp_path / "t.jar"
        save_jar(jar, path)
        data = path.read_text(encoding="utf-8").replace('"value":"123"', '"value":"124"')
        path.write_text(data, encoding="utf-8")
        with pytest.raises(InputError) as exc:
            CookieJar.load(path)
        assert exc.value.code == "CORRUPT_SNAPSHOT"

    @pytest.mark.parametrize("literal, loads", [
        ("1" + "0" * 400, False), ("-1" + "0" * 400, False), ("1e400", False), ("NaN", False), ("-Infinity", False),
        ("1" + "0" * 300, True), ("-1e300", True), ("-1", True),
    ])
    def test_original_expiry_must_be_a_finite_float(self, tmp_path, literal, loads):
        """A lifetime that no finite float holds is rejected on load, as every reader divides it as a float."""
        jar = CookieJar()
        jar.upsert(make_record())
        path = tmp_path / "t.jar"
        save_jar(jar, path)
        header, payload = path.read_text(encoding="utf-8").splitlines()
        assert payload.count('"original_expiry":31536000.0') == 1
        payload = payload.replace('"original_expiry":31536000.0', f'"original_expiry":{literal}')
        header = json.dumps({**json.loads(header), "payload_sha256": hashlib.sha256(payload.encode()).hexdigest()})
        path.write_text(f"{header}\n{payload}\n", encoding="utf-8")
        if loads:
            assert CookieJar.load(path).entries[CookieKey("id", "tracker.net")].original_expiry == json.loads(literal)
            return
        with pytest.raises(InputError) as exc:
            CookieJar.load(path)
        assert (exc.value.code, exc.value.message) == (
            "CORRUPT_SNAPSHOT", f"{path}: entries[0]: original_expiry is not a finite number a float holds"
        )

    def test_an_entry_that_repeats_a_cookie_is_corrupt(self, tmp_path):
        """``save`` writes each cookie once, so a snapshot that lists one twice is refused though its checksum holds."""
        config = simulator.EcosystemConfig.from_json((DEMO / "ecosystem.json").read_text(encoding="utf-8"))
        path = tmp_path / "t.jar"
        save_jar(build_jar(parse_log_text(serialize(simulator.generate(config, 7)))), path)
        payload = json.loads(path.read_text(encoding="utf-8").split("\n")[1])
        assert len(payload["entries"]) == 5
        first = payload["entries"][0]
        payload["entries"].insert(1, {**first, "value": "tampered"})
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        header = json.dumps({"format": SNAPSHOT_FORMAT, "format_version": SNAPSHOT_VERSION,
                             "payload_sha256": hashlib.sha256(line.encode()).hexdigest()})
        path.write_text(f"{header}\n{line}\n", encoding="utf-8")
        with pytest.raises(InputError) as exc:
            CookieJar.load(path)
        key = (first["name"], first["host"], first["partition"])
        assert (exc.value.code, exc.value.message) == (
            "CORRUPT_SNAPSHOT", f"{path}: entries[1]: duplicate cookie {key!r}")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            CookieJar.load(tmp_path / "nope.jar")


# The outcome of each mutation of each payload field of the demo's jar snapshot (its first entry and history row),
# as loading gave it before the payload was read by its declaration, except that a host or site must be canonical,
# which a huge one is not: a (mutation, regular expression) that the dotted path matches in full is accepted, else
# CORRUPT_SNAPSHOT.
_PAYLOAD_ACCEPTED = {
    ("missing", r"(accepted_sites|entries|history)\.0"),
    ("huge", r"(entries|history)\.0\.name|entries\.0\.value"),
    ("null", r"entries\.0\.original_expiry|(entries|history)\.0\.partition"),
    ("wrong type", r"(entries|history)\.0\.partition"),  # "0", where the demo's partitions are null
}


def test_each_payload_field_mutation_has_its_pinned_outcome(tmp_path):
    """Every payload field, of the wrong JSON type, null, missing or huge, checksummed again: accepted, or refused
    as CORRUPT_SNAPSHOT in a bounded message that names the field's path."""
    config = simulator.EcosystemConfig.from_json((DEMO / "ecosystem.json").read_text(encoding="utf-8"))
    save_jar(build_jar(parse_log_text(serialize(simulator.generate(config, 7)))), tmp_path / "demo.snap")
    payload = json.loads((tmp_path / "demo.snap").read_text(encoding="utf-8").splitlines()[1])
    bad = tmp_path / "bad.snap"
    outcomes = {}
    for how, dotted, mutated in mutants(payload):
        if any(part.isdigit() and part != "0" for part in dotted.split(".")):  # the first entry and row only
            continue
        text = json.dumps(mutated, sort_keys=True, separators=(",", ":"))
        header = json.dumps({"format": SNAPSHOT_FORMAT, "format_version": SNAPSHOT_VERSION,
                             "payload_sha256": hashlib.sha256(text.encode()).hexdigest()})
        bad.write_text(f"{header}\n{text}\n", encoding="utf-8")
        try:
            CookieJar.load(bad)
            got = "accepted"
        except InputError as exc:
            got = exc.code
            problem = exc.message.removeprefix(f"{bad}: ")
            assert dotted.split(".")[0] in problem and len(problem) < 150, (how, dotted, problem)
        accepted = any(how == mutation and re.fullmatch(pattern, dotted) for mutation, pattern in _PAYLOAD_ACCEPTED)
        assert got == ("accepted" if accepted else "CORRUPT_SNAPSHOT"), (how, dotted)
        outcomes[got] = outcomes.get(got, 0) + 1
    assert outcomes == {"CORRUPT_SNAPSHOT": 77, "accepted": 11}


class TestBuildJar:
    def test_only_accepted_visits_contribute(self):
        from cookietrail import simulator as sim
        from cookietrail.crawllog import parse_log_text, serialize
        from cookietrail.model import BannerButton, BannerDescriptor, BannerLayer, BannerType, ButtonAction
        from helpers import simple_config

        config = simple_config(phase1_sites=2, phase2_sites=1)
        # Second phase-1 site gets a banner with no accept path, so its
        # acceptance fails and its cookies stay out of the jar.
        reject_only = BannerDescriptor(
            BannerType.NATIVE,
            (BannerLayer(buttons=(BannerButton("Reject All", ButtonAction.REJECT),)),),
        )
        sites = list(config.sites)
        sites[1] = sim.SiteSpec(sites[1].site, sites[1].rank, reject_only, sites[1].embeds)
        config = sim.EcosystemConfig(tuple(sites), config.trackers, config.schedule)
        jar = build_jar(parse_log_text(serialize(sim.generate(config, 1))))
        assert jar.accepted_sites == {"site0.com"}
        assert all(r.setter_site == "site0.com" for r in jar.entries.values())
