"""Registry: registration gating, mode decisions, scheduling, stats,
and log replay."""

from datetime import datetime, timedelta, timezone

import pytest

from mdpipe.errors import (
    DuplicateBaseUrlSet,
    FailureCategory,
    UnknownCollection,
    ValidationRequired,
)
from mdpipe.model import DcElement
from mdpipe.registry import (
    HARVEST_INTERVAL,
    CollectionConfig,
    CollectionState,
    HarvestAttempt,
    Registry,
    apply_attempt,
    decide_mode,
)
from mdpipe.repository import Repository

UTC = timezone.utc
T0 = datetime(2006, 5, 1, 8, 0, 0, tzinfo=UTC)


class PassingReport:
    passed = True


class FailingReport:
    passed = False


def _config(cid="coll-1", base_url="http://prov.invalid/oai", **kw):
    return CollectionConfig(collection_id=cid, base_url=base_url, **kw)


def _attempt(cid="coll-1", at=T0, mode="incremental", success=True,
             category=None, through=None, **kw):
    return HarvestAttempt(collection_id=cid, started_at=at, mode=mode,
                         success=success, category=category,
                         completed_through=through, **kw)


@pytest.fixture
def registry(tmp_path):
    return Registry(log_path=tmp_path / "events.jsonl")


@pytest.fixture
def repo():
    return Repository()


# ---------------------------------------------------------------------------
# Registration


def test_register_requires_passing_validation(registry, repo):
    with pytest.raises(ValidationRequired):
        registry.register_collection(_config(), FailingReport(), repo, T0)
    with pytest.raises(ValidationRequired):
        registry.register_collection(_config(), None, repo, T0)


def test_register_injects_collection_record(registry, repo):
    repo_id = registry.register_collection(_config(), PassingReport(),
                                           repo, T0)
    rec = repo.get(repo_id)
    assert rec is not None
    assert "collections/coll-1" in rec.repo_identifier


def test_register_rejects_duplicate_source(registry, repo):
    registry.register_collection(_config(), PassingReport(), repo, T0)
    with pytest.raises(DuplicateBaseUrlSet):
        registry.register_collection(_config(cid="coll-2"),
                                     PassingReport(), repo, T0)


def test_same_base_url_different_set_allowed(registry, repo):
    registry.register_collection(_config(), PassingReport(), repo, T0)
    registry.register_collection(_config(cid="coll-2", set_spec="physics"),
                                 PassingReport(), repo, T0)
    assert registry.collection_ids() == ["coll-1", "coll-2"]


def test_unknown_collection_raises(registry):
    with pytest.raises(UnknownCollection):
        registry.state("nope")


# ---------------------------------------------------------------------------
# Mode decisions (pure)


def test_first_harvest_is_full():
    state = CollectionState(config=_config())
    assert decide_mode(state) == "full"


def test_with_watermark_incremental():
    state = CollectionState(config=_config(deleted_policy="persistent"),
                            watermark=T0)
    assert decide_mode(state) == "incremental"


def test_three_consecutive_failures_force_full():
    state = CollectionState(config=_config(deleted_policy="persistent"),
                            watermark=T0)
    for i in range(3):
        assert decide_mode(state) == ("incremental" if i < 3 else "full")
        state = apply_attempt(state, _attempt(
            at=T0 + timedelta(hours=i), success=False,
            category=FailureCategory.TRANSIENT))
    assert state.consecutive_failures == 3
    assert decide_mode(state) == "full"


def test_success_resets_failure_streak():
    state = CollectionState(config=_config(deleted_policy="persistent"),
                            watermark=T0)
    for i in range(2):
        state = apply_attempt(state, _attempt(
            at=T0 + timedelta(hours=i), success=False,
            category=FailureCategory.TRANSIENT))
    state = apply_attempt(state, _attempt(at=T0 + timedelta(hours=3),
                                          through=T0 + timedelta(hours=3)))
    assert state.consecutive_failures == 0
    assert decide_mode(state) == "incremental"


def test_periodic_resync_for_non_persistent_deletes():
    state = CollectionState(config=_config(deleted_policy="no"))
    modes = []
    for i in range(8):
        mode = decide_mode(state)
        modes.append(mode)
        state = apply_attempt(state, _attempt(
            at=T0 + timedelta(days=i), mode=mode,
            through=T0 + timedelta(days=i)))
    # first is full (no watermark); every 4th thereafter is a re-sync
    assert modes == ["full", "incremental", "incremental", "incremental",
                     "full", "incremental", "incremental", "incremental"]


def test_persistent_deletes_never_periodic_resync():
    state = CollectionState(config=_config(deleted_policy="persistent"),
                            watermark=T0)
    for i in range(10):
        assert decide_mode(state) == "incremental"
        state = apply_attempt(state, _attempt(
            at=T0 + timedelta(days=i), through=T0 + timedelta(days=i)))


def test_failed_attempt_never_advances_watermark():
    state = CollectionState(config=_config(), watermark=T0)
    after = apply_attempt(state, _attempt(
        at=T0 + timedelta(days=1), success=False,
        category=FailureCategory.DATA_FORMAT))
    assert after.watermark == T0
    with pytest.raises(ValueError):
        _attempt(success=False, category=FailureCategory.TRANSIENT,
                 through=T0)


# ---------------------------------------------------------------------------
# Scheduling


def test_schedule_due_excludes_running_and_recent(registry, repo):
    registry.register_collection(_config(), PassingReport(), repo, T0)
    registry.register_collection(
        _config(cid="coll-2", base_url="http://other.invalid/oai"),
        PassingReport(), repo, T0)
    assert set(registry.schedule_due(T0)) == {"coll-1", "coll-2"}

    registry.record_attempt(_attempt(at=T0, mode="full", through=T0))
    assert registry.schedule_due(T0 + timedelta(hours=1)) == ["coll-2"]
    assert set(registry.schedule_due(T0 + timedelta(days=1))) == \
        {"coll-1", "coll-2"}


def test_schedule_oldest_first(registry, repo):
    registry.register_collection(_config(), PassingReport(), repo, T0)
    registry.register_collection(
        _config(cid="coll-2", base_url="http://other.invalid/oai"),
        PassingReport(), repo, T0)
    registry.record_attempt(_attempt(cid="coll-2", at=T0, mode="full",
                                     through=T0))
    registry.record_attempt(_attempt(cid="coll-1", at=T0 + timedelta(hours=2),
                                     mode="full",
                                     through=T0 + timedelta(hours=2)))
    assert registry.schedule_due(T0 + timedelta(days=2)) == \
        ["coll-2", "coll-1"]


# ---------------------------------------------------------------------------
# Stats


def test_stats_breakdown_partitions_failures(registry, repo):
    registry.register_collection(_config(), PassingReport(), repo, T0)
    cat = [FailureCategory.TRANSIENT, FailureCategory.TRANSIENT,
           FailureCategory.PROTOCOL_VIOLATION, FailureCategory.DATA_FORMAT]
    for i, c in enumerate(cat):
        registry.record_attempt(_attempt(
            at=T0 + timedelta(hours=i), success=False, category=c))
    registry.record_attempt(_attempt(at=T0 + timedelta(hours=9),
                                     through=T0 + timedelta(hours=9)))
    stats = registry.stats()
    assert stats["attempts"] == 5
    assert stats["failures"] == 4
    assert stats["breakdown"] == {"Transient": 2, "ProtocolViolation": 1,
                                  "DataFormat": 1}
    assert sum(stats["breakdown"].values()) == stats["failures"]


def test_stats_window_filters_by_time(registry, repo):
    registry.register_collection(_config(), PassingReport(), repo, T0)
    registry.record_attempt(_attempt(at=T0, through=T0))
    registry.record_attempt(_attempt(at=T0 + timedelta(days=5),
                                     through=T0 + timedelta(days=5)))
    stats = registry.stats(since=T0 + timedelta(days=1))
    assert stats["attempts"] == 1


# ---------------------------------------------------------------------------
# Event log replay


def test_replay_rebuilds_identical_state(tmp_path, repo):
    path = tmp_path / "events.jsonl"
    registry = Registry(log_path=path)
    registry.register_collection(_config(deleted_policy="persistent"),
                                 PassingReport(), repo, T0)
    registry.record_attempt(_attempt(at=T0, mode="full", through=T0))
    registry.record_attempt(_attempt(
        at=T0 + timedelta(days=1), success=False,
        category=FailureCategory.TRANSIENT, detail="timeout"))

    replayed = Registry.replay(path)
    assert replayed.collection_ids() == ["coll-1"]
    assert replayed.state("coll-1") == registry.state("coll-1")
    assert replayed.stats() == registry.stats()


# a register event as older logs wrote it, with the interval that was once
# a per-collection setting; replay ignores the key
_OLD_REGISTER_LINE = (
    '{"type": "register", "at": "2006-05-01T08:00:00Z", '
    '"collection_id": "coll-1", "base_url": "http://prov.invalid/oai", '
    '"format_prefix": "oai_dc", "set_spec": null, "deleted_policy": "no", '
    '"title": "coll-1", "native_public": false, '
    '"harvest_interval_seconds": 3600.0}\n')


def test_replay_ignores_harvest_interval_of_older_logs(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(_OLD_REGISTER_LINE)
    replayed = Registry.replay(path)
    assert replayed.state("coll-1").config == _config(title="coll-1",
                                                      native_public=False)
    replayed.record_attempt(_attempt(at=T0, mode="full", through=T0))
    assert replayed.schedule_due(T0 + timedelta(hours=2)) == []
    assert replayed.schedule_due(T0 + HARVEST_INTERVAL) == ["coll-1"]
    assert "harvest_interval" not in path.read_text().splitlines()[-1]


def test_replay_of_missing_log_is_empty(tmp_path):
    replayed = Registry.replay(tmp_path / "absent.jsonl")
    assert replayed.collection_ids() == []


def test_replay_cuts_torn_final_line_and_appends_cleanly(tmp_path, repo,
                                                         caplog):
    path = tmp_path / "events.jsonl"
    registry = Registry(log_path=path)
    registry.register_collection(_config(), PassingReport(), repo, T0)
    registry.record_attempt(_attempt(at=T0, mode="full", through=T0))
    intact = path.read_bytes()
    # a crash in the middle of appending the next event
    path.write_bytes(intact + b'{"type": "attempt", "collection_id": "co')

    replayed = Registry.replay(path)
    assert "torn final line" in caplog.text
    assert path.read_bytes() == intact
    assert replayed.state("coll-1") == registry.state("coll-1")

    replayed.record_attempt(_attempt(at=T0 + timedelta(days=1),
                                     through=T0 + timedelta(days=1)))
    again = Registry.replay(path)
    assert again.state("coll-1") == replayed.state("coll-1")
    assert again.stats() == replayed.stats()


def test_replay_still_rejects_a_bad_line_before_the_last(tmp_path, repo):
    path = tmp_path / "events.jsonl"
    registry = Registry(log_path=path)
    registry.register_collection(_config(), PassingReport(), repo, T0)
    path.write_bytes(b'{"type": "reg\n' + path.read_bytes())
    with pytest.raises(ValueError):
        Registry.replay(path)
