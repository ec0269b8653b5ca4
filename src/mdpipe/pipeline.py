"""End-to-end harvest orchestration.

One run_harvest call takes a collection from "due" to "attempt recorded":
decide the mode from the collection's folded state, pull records from the
provider, push them through the safe transforms, batch them into an insert
document, apply inserts and tombstones to the repository, reconcile on full
harvests, and fold the attempt into the registry. Failed harvests leave the
repository untouched. A harvest that raises records no attempt, so the
registry is as it was before the call and the collection is still due.
Harvests run one after another: nothing schedules while one is running.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import datetime

from . import ingest
from .client import OaiClient
from .errors import UnknownIdentifier
from .registry import HarvestAttempt, Registry, decide_mode
from .repository import Repository
from .model import format_datestamp

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class HarvestOutcome:
    attempt: HarvestAttempt
    inserted: int = 0
    tombstoned: int = 0
    reconciled_deletes: int = 0


def run_harvest(registry: Registry, repository: Repository,
                client: OaiClient, collection_id: str,
                now: datetime) -> HarvestOutcome:
    """Harvest one collection and commit the result atomically with
    respect to the attempt log: nothing is stored unless the harvest
    stream completed. If a step raises, no attempt is recorded, so the
    watermark stays and the collection stays due."""
    state = registry.state(collection_id)
    config = state.config
    mode = decide_mode(state)

    result = client.harvest(
        config.base_url, config.format_prefix, set_spec=config.set_spec,
        mode=mode, since=state.watermark if mode == "incremental" else None)

    if not result.success:
        attempt = HarvestAttempt(
            collection_id=collection_id, started_at=now, mode=mode,
            success=False, category=result.category,
            detail=result.failure_detail,
            record_count=len(result.records))
        registry.record_attempt(attempt)
        logger.warning("harvest of %s failed (%s): %s", collection_id,
                       result.category.value, result.failure_detail)
        return HarvestOutcome(attempt=attempt)

    attempt_id = f"{collection_id}@{format_datestamp(now)}"
    pairs = []
    tombstones = []
    for record in result.records:
        if record.header.deleted:
            tombstones.append(record.header.identifier)
        else:
            pairs.append((record, ingest.safe_transform(record)))

    inserted = 0
    if pairs:
        doc = ingest.build_db_insert(pairs, collection_id, attempt_id)
        inserted = len(repository.insert(doc, now,
                                         native_public=config.native_public))

    tombstoned = 0
    for source_id in tombstones:
        try:
            repository.delete_by_source(collection_id, source_id, now)
            tombstoned += 1
        except UnknownIdentifier:
            # a delete for a record we never stored carries no information
            logger.debug("ignoring tombstone for unknown %s", source_id)

    reconciled = 0
    if mode == "full":
        # anything we hold that the complete list no longer mentions was
        # deleted upstream without a tombstone
        mentioned = {r.header.identifier for r in result.records}
        for source_id in sorted(
                repository.live_source_identifiers(collection_id)
                - mentioned):
            repository.delete_by_source(collection_id, source_id, now)
            reconciled += 1

    attempt = HarvestAttempt(
        collection_id=collection_id, started_at=now, mode=mode,
        success=True, record_count=len(result.records),
        completed_through=result.completed_through)
    registry.record_attempt(attempt)
    logger.info("harvested %s (%s): %d inserted, %d tombstoned, "
                "%d reconciled", collection_id, mode, inserted, tombstoned,
                reconciled)
    return HarvestOutcome(attempt=attempt, inserted=inserted,
                          tombstoned=tombstoned,
                          reconciled_deletes=reconciled)


def run_due_harvests(registry: Registry, repository: Repository,
                     client: OaiClient, now: datetime
                     ) -> list[HarvestOutcome]:
    """Harvest every due collection, then publish one serving snapshot."""
    outcomes = [
        run_harvest(registry, repository, client, collection_id, now)
        for collection_id in registry.schedule_due(now)]
    if any(o.attempt.success for o in outcomes):
        repository.publish(now)
    return outcomes
