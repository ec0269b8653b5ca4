"""Collection registry: registration gating, harvest scheduling, and the
append-only attempt log.

All state is a pure fold over an event log (registrations and harvest
attempts), and nothing is held beside it, so a registry can be rebuilt
exactly by replaying its JSONL log. Scheduling decisions (which collections
are due, full vs incremental, periodic re-sync) are pure functions of the
folded state.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path

from .errors import (
    DuplicateBaseUrlSet,
    FailureCategory,
    UnknownCollection,
    ValidationRequired,
)
from .model import DcElement, format_datestamp, parse_datestamp

logger = logging.getLogger(__name__)

#: consecutive failures after which the next harvest falls back to full
FAILURE_RESYNC_THRESHOLD = 3
#: for providers without persistent deletes, every Nth harvest is full
PERIODIC_RESYNC_EVERY = 4
#: how long after an attempt a collection is due again
HARVEST_INTERVAL = timedelta(days=1)


@dataclass(frozen=True)
class CollectionConfig:
    collection_id: str
    base_url: str
    format_prefix: str = "oai_dc"
    set_spec: str | None = None
    deleted_policy: str = "no"            # no | transient | persistent
    title: str = ""
    native_public: bool = True

    @property
    def source_key(self) -> tuple:
        return (self.base_url, self.set_spec, self.format_prefix)


@dataclass(frozen=True)
class HarvestAttempt:
    collection_id: str
    started_at: datetime
    mode: str                             # full | incremental
    success: bool
    category: FailureCategory | None = None
    detail: str = ""
    record_count: int = 0
    completed_through: datetime | None = None

    def __post_init__(self):
        if self.success and self.category is not None:
            raise ValueError("successful attempts carry no failure category")
        if not self.success and self.completed_through is not None:
            raise ValueError("failed attempts must not advance the watermark")


@dataclass(frozen=True)
class CollectionState:
    config: CollectionConfig
    watermark: datetime | None = None
    consecutive_failures: int = 0
    harvests_since_full: int = 0
    last_attempt_at: datetime | None = None


def apply_attempt(state: CollectionState,
                  attempt: HarvestAttempt) -> CollectionState:
    """Pure fold step: one attempt's effect on a collection's state."""
    if attempt.success:
        return replace(
            state,
            watermark=attempt.completed_through or state.watermark,
            consecutive_failures=0,
            harvests_since_full=(0 if attempt.mode == "full"
                                 else state.harvests_since_full + 1),
            last_attempt_at=attempt.started_at,
        )
    return replace(
        state,
        consecutive_failures=state.consecutive_failures + 1,
        last_attempt_at=attempt.started_at,
    )


def decide_mode(state: CollectionState) -> str:
    """Full when there is no watermark to resume from, when repeated
    failures make the incremental chain untrustworthy, or on the periodic
    re-sync cadence for providers that cannot promise persistent deletes."""
    if state.watermark is None:
        return "full"
    if state.consecutive_failures >= FAILURE_RESYNC_THRESHOLD:
        return "full"
    if (state.config.deleted_policy != "persistent"
            and state.harvests_since_full + 1 >= PERIODIC_RESYNC_EVERY):
        return "full"
    return "incremental"


class Registry:
    def __init__(self, log_path: str | Path | None = None):
        self.log_path = Path(log_path) if log_path else None
        self._states: dict[str, CollectionState] = {}
        self._attempts: list[HarvestAttempt] = []

    # ------------------------------------------------------------------
    # Registration

    def register_collection(self, config: CollectionConfig, report,
                            repository, now: datetime) -> str:
        """Admit a collection; requires a passing validation report.

        Injects the collection-description record into the repository so
        item-level membership links have a target.
        """
        if report is None or not getattr(report, "passed", False):
            raise ValidationRequired(
                f"collection {config.collection_id!r} needs a passing "
                "validation report")
        if config.collection_id in self._states:
            raise DuplicateBaseUrlSet(
                f"collection id {config.collection_id!r} already registered")
        for state in self._states.values():
            if state.config.source_key == config.source_key:
                raise DuplicateBaseUrlSet(
                    f"{config.source_key} already registered as "
                    f"{state.config.collection_id!r}")
        elements = (DcElement("title", config.title or config.collection_id),
                    DcElement("identifier", config.base_url, scheme="URI"))
        repo_id = repository.register_collection_record(
            config.collection_id, elements, now)
        self._states[config.collection_id] = CollectionState(config=config)
        self._append_event(_register_event(config, now))
        logger.info("registered collection %s -> %s",
                    config.collection_id, repo_id)
        return repo_id

    # ------------------------------------------------------------------
    # State access

    def state(self, collection_id: str) -> CollectionState:
        try:
            return self._states[collection_id]
        except KeyError:
            raise UnknownCollection(collection_id)

    def collection_ids(self) -> list[str]:
        return sorted(self._states)

    # ------------------------------------------------------------------
    # Scheduling

    def schedule_due(self, now: datetime) -> list[str]:
        """Collections whose interval has elapsed, oldest first."""
        due = []
        for cid, state in self._states.items():
            if (state.last_attempt_at is None
                    or now - state.last_attempt_at >= HARVEST_INTERVAL):
                due.append((state.last_attempt_at or datetime.min.replace(
                    tzinfo=now.tzinfo), cid))
        due.sort()
        return [cid for _, cid in due]

    def record_attempt(self, attempt: HarvestAttempt) -> CollectionState:
        state = self.state(attempt.collection_id)
        new_state = apply_attempt(state, attempt)
        self._states[attempt.collection_id] = new_state
        self._attempts.append(attempt)
        self._append_event(_attempt_event(attempt))
        return new_state

    # ------------------------------------------------------------------
    # Stats

    def stats(self, since: datetime | None = None,
              until: datetime | None = None) -> dict:
        """Attempt counts and failure breakdown over a time window; the
        category buckets partition the failures exactly."""
        window = [
            a for a in self._attempts
            if (since is None or a.started_at >= since)
            and (until is None or a.started_at <= until)]
        failures = [a for a in window if not a.success]
        breakdown = {c.value: 0 for c in FailureCategory}
        for a in failures:
            breakdown[a.category.value] += 1
        assert sum(breakdown.values()) == len(failures)
        per_collection = {}
        for a in window:
            entry = per_collection.setdefault(
                a.collection_id, {"attempts": 0, "failures": 0})
            entry["attempts"] += 1
            entry["failures"] += 0 if a.success else 1
        return {
            "attempts": len(window),
            "successes": len(window) - len(failures),
            "failures": len(failures),
            "breakdown": breakdown,
            "per_collection": per_collection,
        }

    # ------------------------------------------------------------------
    # Event log

    def _append_event(self, event: dict) -> None:
        if self.log_path is None:
            return
        with self.log_path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(event, sort_keys=True) + "\n")

    @classmethod
    def replay(cls, log_path: str | Path) -> "Registry":
        """Rebuild a registry by folding its event log.

        An event is committed by its closing newline. Bytes after the last
        newline are a write torn by a crash: they are cut from the log, so
        the next append starts on a fresh line. Any other unreadable line
        raises."""
        registry = cls(log_path=None)
        path = Path(log_path)
        if path.exists():
            data = path.read_bytes()
            end = data.rfind(b"\n") + 1
            if end < len(data):
                logger.warning("%s: dropping a torn final line of %d bytes",
                               path, len(data) - end)
                with path.open("r+b") as fh:
                    fh.truncate(end)
            for line in data[:end].split(b"\n"):
                if line.strip():
                    registry._apply_event(json.loads(line))
        registry.log_path = path
        return registry

    def _apply_event(self, event: dict) -> None:
        if event["type"] == "register":
            config = _config_from_event(event)
            self._states[config.collection_id] = CollectionState(config=config)
        elif event["type"] == "attempt":
            attempt = _attempt_from_event(event)
            state = self._states.get(attempt.collection_id)
            if state is None:
                logger.warning("attempt for unknown collection %r skipped",
                               attempt.collection_id)
                return
            self._states[attempt.collection_id] = apply_attempt(state, attempt)
            self._attempts.append(attempt)
        else:
            logger.warning("unknown event type %r skipped", event.get("type"))


def _register_event(config: CollectionConfig, now: datetime) -> dict:
    return {
        "type": "register",
        "at": format_datestamp(now),
        "collection_id": config.collection_id,
        "base_url": config.base_url,
        "format_prefix": config.format_prefix,
        "set_spec": config.set_spec,
        "deleted_policy": config.deleted_policy,
        "title": config.title,
        "native_public": config.native_public,
    }


def _config_from_event(event: dict) -> CollectionConfig:
    return CollectionConfig(
        collection_id=event["collection_id"],
        base_url=event["base_url"],
        format_prefix=event.get("format_prefix", "oai_dc"),
        set_spec=event.get("set_spec"),
        deleted_policy=event.get("deleted_policy", "no"),
        title=event.get("title", ""),
        native_public=event.get("native_public", True),
    )


def _attempt_event(attempt: HarvestAttempt) -> dict:
    return {
        "type": "attempt",
        "collection_id": attempt.collection_id,
        "started_at": format_datestamp(attempt.started_at),
        "mode": attempt.mode,
        "success": attempt.success,
        "category": attempt.category.value if attempt.category else None,
        "detail": attempt.detail,
        "record_count": attempt.record_count,
        "completed_through": (format_datestamp(attempt.completed_through)
                              if attempt.completed_through else None),
    }


def _attempt_from_event(event: dict) -> HarvestAttempt:
    return HarvestAttempt(
        collection_id=event["collection_id"],
        started_at=parse_datestamp(event["started_at"]),
        mode=event["mode"],
        success=event["success"],
        category=(FailureCategory(event["category"])
                  if event.get("category") else None),
        detail=event.get("detail", ""),
        record_count=event.get("record_count", 0),
        completed_through=(parse_datestamp(event["completed_through"])
                           if event.get("completed_through") else None),
    )
