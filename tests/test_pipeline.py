"""Harvest orchestration against the simulated provider."""

from datetime import datetime, timedelta, timezone

import pytest

from mdpipe.client import OaiClient
from mdpipe.errors import FailureCategory
from mdpipe.pipeline import run_due_harvests, run_harvest
from mdpipe.registry import CollectionConfig, Registry
from mdpipe.repository import Repository
from mdpipe.sim import (
    FaultSpec,
    SimClock,
    SimProvider,
    SimRecordScript,
    SimScenario,
    SimTransport,
    TimelineEvent,
    make_scenario,
)

UTC = timezone.utc
BASE = "http://sim.invalid/oai"
START = datetime(2005, 1, 1, tzinfo=UTC)
NOW = datetime(2005, 2, 1, tzinfo=UTC)


class PassingReport:
    passed = True


def _setup(scenario, policy="persistent", now=NOW):
    provider = SimProvider(scenario, SimClock(now))
    client = OaiClient(transport=SimTransport(provider),
                       sleep=lambda s: None)
    registry = Registry()
    repository = Repository()
    registry.register_collection(
        CollectionConfig(collection_id="coll-1", base_url=BASE,
                         deleted_policy=policy),
        PassingReport(), repository, now)
    return provider, client, registry, repository


def test_full_harvest_populates_repository():
    provider, client, registry, repo = _setup(make_scenario(25))
    outcome = run_harvest(registry, repo, client, "coll-1", NOW)
    assert outcome.attempt.success and outcome.attempt.mode == "full"
    assert outcome.inserted == 25
    assert repo.live_source_identifiers("coll-1") == \
        provider.live_identifiers()
    assert registry.state("coll-1").watermark == NOW


def test_incremental_harvest_picks_up_updates():
    scripts = list(make_scenario(25).records)
    target = scripts[5]
    scripts[5] = SimRecordScript(target.identifier, target.events + (
        TimelineEvent(NOW + timedelta(days=1), "update",
                      target.events[0].elements),))
    scenario = SimScenario(records=tuple(scripts))
    provider, client, registry, repo = _setup(scenario)

    run_harvest(registry, repo, client, "coll-1", NOW)
    provider.advance(NOW + timedelta(days=2))
    outcome = run_harvest(registry, repo, client, "coll-1",
                          NOW + timedelta(days=2))
    assert outcome.attempt.mode == "incremental"
    assert outcome.inserted == 1


def test_tombstones_applied_incrementally():
    scripts = list(make_scenario(10).records)
    victim = scripts[3]
    scripts[3] = SimRecordScript(victim.identifier, victim.events + (
        TimelineEvent(NOW + timedelta(days=1), "delete"),))
    provider, client, registry, repo = _setup(
        SimScenario(records=tuple(scripts)))
    run_harvest(registry, repo, client, "coll-1", NOW)
    assert len(repo.live_source_identifiers("coll-1")) == 10

    provider.advance(NOW + timedelta(days=2))
    outcome = run_harvest(registry, repo, client, "coll-1",
                          NOW + timedelta(days=2))
    assert outcome.tombstoned == 1
    assert victim.identifier not in repo.live_source_identifiers("coll-1")


def test_full_harvest_reconciles_silent_removals():
    """A provider with no delete support simply stops listing a record;
    the periodic full harvest notices and tombstones it."""
    scripts = list(make_scenario(10, deleted_policy="no").records)
    victim = scripts[3]
    scripts[3] = SimRecordScript(victim.identifier, victim.events + (
        TimelineEvent(NOW + timedelta(days=1), "delete"),))
    provider, client, registry, repo = _setup(
        SimScenario(records=tuple(scripts), deleted_policy="no"),
        policy="no")
    run_harvest(registry, repo, client, "coll-1", NOW)

    provider.advance(NOW + timedelta(days=2))
    # force a second full harvest by leaving no watermark trust: mode for
    # policy "no" is full again only every 4th; first harvest left a
    # watermark, so run three incrementals then the re-sync
    for day in (2, 3, 4):
        run_harvest(registry, repo, client, "coll-1",
                    NOW + timedelta(days=day))
    outcome = run_harvest(registry, repo, client, "coll-1",
                          NOW + timedelta(days=5))
    assert outcome.attempt.mode == "full"
    assert outcome.reconciled_deletes == 1
    assert victim.identifier not in repo.live_source_identifiers("coll-1")


def test_failed_harvest_leaves_repository_and_watermark_untouched():
    provider, client, registry, repo = _setup(make_scenario(
        25, faults=(FaultSpec("InvalidUtf8", verb="ListRecords", page=2),)))
    before = repo.count()
    outcome = run_harvest(registry, repo, client, "coll-1", NOW)
    assert not outcome.attempt.success
    assert outcome.attempt.category is FailureCategory.DATA_FORMAT
    assert repo.count() == before
    assert registry.state("coll-1").watermark is None
    assert registry.state("coll-1").consecutive_failures == 1


def test_run_due_harvests_publishes_snapshot():
    provider, client, registry, repo = _setup(make_scenario(12))
    outcomes = run_due_harvests(registry, repo, client, NOW)
    assert len(outcomes) == 1 and outcomes[0].attempt.success
    # collection record + 12 items in the published snapshot
    snapshot = repo.publish(NOW)
    assert snapshot.manifest.record_count == 13
    assert registry.schedule_due(NOW + timedelta(hours=1)) == []


def test_raising_insert_clears_in_flight_mark(monkeypatch):
    scripts = list(make_scenario(12).records)
    target = scripts[4]
    scripts[4] = SimRecordScript(target.identifier, target.events + (
        TimelineEvent(NOW + timedelta(days=1), "update",
                      target.events[0].elements),))
    provider, client, registry, repo = _setup(
        SimScenario(records=tuple(scripts)))
    run_harvest(registry, repo, client, "coll-1", NOW)
    later = NOW + timedelta(days=2)
    provider.advance(later)

    def broken_insert(*args, **kwargs):
        raise RuntimeError("disk gone")

    monkeypatch.setattr(repo, "insert", broken_insert)
    with pytest.raises(RuntimeError):
        run_harvest(registry, repo, client, "coll-1", later)
    state = registry.state("coll-1")
    assert state.watermark == NOW
    assert state.last_attempt_at == NOW
    assert registry.schedule_due(later) == ["coll-1"]
    monkeypatch.undo()
    outcomes = run_due_harvests(registry, repo, client, later)
    assert [(o.attempt.success, o.inserted) for o in outcomes] == [(True, 1)]
    assert registry.state("coll-1").watermark == later
