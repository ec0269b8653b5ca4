"""Command-line interface.

State persists between invocations in a state directory (repository JSON
plus the registry's append-only event log), so the aggregation workflow —
validate, register, harvest, serve, index, search — composes across
separate commands. Commands exit 0 on success, 1 when the requested
operation ran but failed (validation verdict, harvest failure), and 2 on
usage or configuration errors.

Each state directory has one writer: a writing command holds an exclusive
``flock`` on it until ``main`` returns, and a second writer exits 2. Readers
take no lock, as ``repository.json`` is replaced atomically. POSIX-only.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import logging
import math
import os
import sys
from contextlib import closing
from datetime import datetime, timedelta, timezone
from pathlib import Path

from . import ingest, model, pipeline, resource_index, sim
from .client import HttpTransport, OaiClient
from .errors import (
    DuplicateBaseUrlSet,
    UnknownCollection,
    ValidationRequired,
)
from .registry import CollectionConfig, Registry
from .repository import Repository
from .server import OaiServer, ServerConfig, serve_http
from .validator import validate_provider

DEFAULT_CONFIG = {
    "state_dir": "./mdpipe-state",
    "domain": "mdpipe.example.org",
    "postdate_offset_hours": 3.0,
    "page_size": 10,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: each known config key: the check its value must pass, and what it must be
_CONFIG_CHECKS = {
    "state_dir": (lambda v: isinstance(v, str), "a string"),
    "domain": (lambda v: isinstance(v, str), "a string"),
    "postdate_offset_hours": (
        lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v),
        "a finite number"),
    "page_size": (lambda v: _is_int(v) and v >= 1, "an integer of at least 1"),
}


def load_config(path: str | None) -> dict:
    config = dict(DEFAULT_CONFIG)
    candidate = path or os.environ.get("MDPIPE_CONFIG")
    if candidate:
        try:
            loaded = json.loads(Path(candidate).read_bytes())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read config {candidate}: {exc}")
        if not isinstance(loaded, dict):
            raise SystemExit(f"config {candidate} is not a JSON object")
        config.update(loaded)
        for key, (check, kind) in _CONFIG_CHECKS.items():
            if not check(config[key]):
                raise SystemExit(f"config {candidate}: {key} must be {kind},"
                                 f" not {config[key]!r}")
    return config


WRITING_COMMANDS = frozenset({"register", "harvest", "pipeline", "ingest"})


class State:
    """Lazy-loaded persistent state for one invocation. A writing state
    holds the state directory's exclusive lock until ``close``."""

    def __init__(self, config: dict, writes: bool):
        self.config = config
        self.state_dir = Path(config["state_dir"])
        self.repository_path = self.state_dir / "repository.json"
        self._repository = None
        self._registry = None
        self._lock_fd = None
        if writes:
            try:
                self.state_dir.mkdir(parents=True, exist_ok=True)
                self._lock_fd = os.open(self.state_dir, os.O_RDONLY)
                fcntl.flock(self._lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                self.close()
                raise SystemExit(f"state directory {self.state_dir} is in "
                                 "use by another writing command")
            except OSError as exc:
                self.close()
                raise SystemExit(f"cannot lock state directory: {exc}")

    def close(self) -> None:
        """Release the state directory's lock, if this state holds it."""
        if self._lock_fd is not None:
            os.close(self._lock_fd)

    @property
    def repository(self) -> Repository:
        if self._repository is None:
            offset = timedelta(hours=self.config["postdate_offset_hours"])
            if self.repository_path.exists():
                self._repository = Repository.load(self.repository_path)
            else:
                self._repository = Repository(
                    domain=self.config["domain"], postdate_offset=offset)
        return self._repository

    @property
    def registry(self) -> Registry:
        if self._registry is None:
            self._registry = Registry.replay(self.state_dir / "registry.jsonl")
        return self._registry

    def save(self) -> None:
        self.repository.save(self.repository_path)


def _parse_datestamp(value: str, option: str) -> datetime:
    try:
        return model.parse_datestamp(value)
    except ValueError as exc:
        raise SystemExit(f"bad {option} value: {exc}")


def _parse_at(value: str | None) -> datetime:
    if value is None:
        return datetime.now(timezone.utc).replace(microsecond=0)
    return _parse_datestamp(value, "--at")


def _positive_int(value: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, not {value!r}")
    return number


def _transport(args):
    """A live HTTP transport, or an in-process simulator when --scenario
    points at a scenario file."""
    if getattr(args, "scenario", None):
        scenario = sim.SimScenario.load(args.scenario)
        clock = sim.SimClock(_parse_at(getattr(args, "at", None)))
        return sim.SimTransport(sim.SimProvider(scenario, clock))
    return HttpTransport()


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args, state: State) -> int:
    report = validate_provider(args.base_url, _transport(args),
                               format_prefix=args.format)
    lines = [f"{args.base_url}: {report.verdict}"]
    if report.transport_error:
        lines.append(f"  unreachable: {report.transport_error}")
    for check in report.checks:
        mark = "ok" if check.passed else "FAIL"
        lines.append(f"  {check.check_id}: {mark}"
                     + (f" - {check.detail}" if check.detail
                        and not check.passed else ""))
    _emit(args, report.to_dict(), lines)
    return 0 if report.passed else 1


def cmd_register(args, state: State) -> int:
    now = _parse_at(args.at)
    report = validate_provider(args.base_url, _transport(args),
                               format_prefix=args.format)
    config = CollectionConfig(
        collection_id=args.collection_id, base_url=args.base_url,
        format_prefix=args.format, set_spec=args.set,
        deleted_policy=args.policy, title=args.title or args.collection_id,
        native_public=not args.native_private)
    try:
        repo_id = state.registry.register_collection(
            config, report, state.repository, now)
    except ValidationRequired as exc:
        _emit(args, {"error": str(exc), "report": report.to_dict()},
              [f"validation failed: {exc}"])
        return 1
    except DuplicateBaseUrlSet as exc:
        _emit(args, {"error": str(exc)}, [f"duplicate source: {exc}"])
        return 2
    state.save()
    _emit(args, {"collection_id": args.collection_id,
                 "collection_record": repo_id},
          [f"registered {args.collection_id} -> {repo_id}"])
    return 0


def cmd_harvest(args, state: State) -> int:
    now = _parse_at(args.at)
    client = OaiClient(transport=_transport(args))
    try:
        outcome = pipeline.run_harvest(state.registry, state.repository,
                                       client, args.collection_id, now)
    except UnknownCollection as exc:
        _emit(args, {"error": str(exc)}, [f"unknown collection: {exc}"])
        return 2
    if outcome.attempt.success:
        state.save()
    attempt = outcome.attempt
    payload = {
        "collection_id": attempt.collection_id,
        "mode": attempt.mode,
        "success": attempt.success,
        "category": attempt.category.value if attempt.category else None,
        "detail": attempt.detail,
        "records": attempt.record_count,
        "inserted": outcome.inserted,
        "tombstoned": outcome.tombstoned,
        "reconciled_deletes": outcome.reconciled_deletes,
    }
    if attempt.success:
        lines = [f"{attempt.collection_id}: {attempt.mode} harvest ok, "
                 f"{outcome.inserted} inserted, {outcome.tombstoned} "
                 f"tombstoned, {outcome.reconciled_deletes} reconciled"]
    else:
        lines = [f"{attempt.collection_id}: {attempt.mode} harvest FAILED "
                 f"[{attempt.category.value}] {attempt.detail}"]
    _emit(args, payload, lines)
    return 0 if attempt.success else 1


def cmd_pipeline(args, state: State) -> int:
    now = _parse_at(args.at)
    client = OaiClient(transport=_transport(args))
    outcomes = pipeline.run_due_harvests(state.registry, state.repository,
                                         client, now)
    state.save()
    payload = {"harvests": [
        {"collection_id": o.attempt.collection_id,
         "mode": o.attempt.mode, "success": o.attempt.success,
         "inserted": o.inserted} for o in outcomes]}
    lines = [f"{o.attempt.collection_id}: "
             f"{'ok' if o.attempt.success else 'FAILED'} "
             f"({o.attempt.mode}, {o.inserted} inserted)"
             for o in outcomes] or ["nothing due"]
    _emit(args, payload, lines)
    return 0 if all(o.attempt.success for o in outcomes) else 1


def cmd_stats(args, state: State) -> int:
    since = _parse_datestamp(args.since, "--since") if args.since else None
    until = _parse_datestamp(args.until, "--until") if args.until else None
    stats = state.registry.stats(since=since, until=until)
    lines = [f"attempts: {stats['attempts']} "
             f"(ok {stats['successes']}, failed {stats['failures']})"]
    for category, count in stats["breakdown"].items():
        lines.append(f"  {category}: {count}")
    for cid, entry in sorted(stats["per_collection"].items()):
        lines.append(f"  {cid}: {entry['attempts']} attempts, "
                     f"{entry['failures']} failures")
    _emit(args, stats, lines)
    return 0


def cmd_ingest(args, state: State) -> int:
    try:
        doc = ingest.parse_db_insert(Path(args.file).read_bytes())
    except (OSError, ValueError) as exc:
        _emit(args, {"error": str(exc)}, [f"cannot ingest: {exc}"])
        return 2
    now = _parse_at(args.at)
    try:
        config = state.registry.state(doc.collection_id).config
        minted = state.repository.insert(doc, now, config.native_public)
    except UnknownCollection as exc:
        _emit(args, {"error": str(exc)}, [f"unknown collection: {exc}"])
        return 2
    state.save()
    _emit(args, {"inserted": minted},
          [f"inserted {len(minted)} records from {args.file}"])
    return 0


def cmd_serve_oai(args, state: State) -> int:
    now = _parse_at(args.at)
    snapshot = state.repository.publish(now)
    server = OaiServer(
        ServerConfig(page_size=state.config["page_size"],
                     base_url=f"http://127.0.0.1:{args.port}/oai"),
        snapshot)
    return _serve(lambda path: (200, server.handle_url(path)), args.port,
                  f"serving {snapshot.manifest.record_count} records")


def _serve(answer, port: int, what: str) -> int:
    """Serve ``answer`` over HTTP until interrupted."""
    with serve_http(answer, port) as httpd:
        print(f"{what} on http://127.0.0.1:{port}/oai")
        try:
            httpd.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0


def _build_index(args, state: State):
    snapshot = state.repository.publish(_parse_at(getattr(args, "at", None)))
    sources = resource_index.sources_from_snapshot(snapshot)
    if args.mode == "metadata":
        return sources, resource_index.build_metadata_centric(sources)
    if args.mode == "identifier":
        return sources, resource_index.naive_identifier_index(sources)
    return sources, resource_index.build_resource_centric(sources)


def cmd_index(args, state: State) -> int:
    sources, index = _build_index(args, state)
    payload = {"mode": index.mode, "documents": len(index.documents),
               "records": len(sources)}
    _emit(args, payload,
          [f"{index.mode} index: {len(index.documents)} documents "
           f"from {len(sources)} records"])
    return 0


def cmd_search(args, state: State) -> int:
    _, index = _build_index(args, state)
    hits = index.search(args.query, limit=args.limit)
    payload = {"query": args.query, "mode": index.mode,
               "hits": [{"doc_id": d, "score": s} for d, s in hits]}
    _emit(args, payload,
          [f"{d}  ({s:g})" for d, s in hits] or ["no results"])
    return 0


def cmd_dedup_report(args, state: State) -> int:
    snapshot = state.repository.publish(_parse_at(args.at))
    sources = resource_index.sources_from_snapshot(snapshot)
    report = resource_index.dedup_report(sources)
    _emit(args, report, [
        f"identifier occurrences: {report['identifier_occurrences']}",
        f"metadata records:       {report['metadata_records']}",
        f"resource entities:      {report['resource_entities']}",
        f"largest entity:         {report['largest_entity']} records",
    ])
    return 0


def cmd_simulate(args, state: State) -> int:
    if args.make is not None:
        scenario = sim.make_scenario(args.make)
        scenario.save(args.out or "scenario.json")
        _emit(args, {"records": args.make,
                     "path": args.out or "scenario.json"},
              [f"wrote {args.make}-record scenario to "
               f"{args.out or 'scenario.json'}"])
        return 0
    if not args.scenario:
        print("simulate needs either --make N or --scenario FILE",
              file=sys.stderr)
        return 2
    scenario = sim.SimScenario.load(args.scenario)
    clock = sim.SimClock(_parse_at(args.at))
    provider = sim.SimProvider(
        scenario, clock, base_url=f"http://127.0.0.1:{args.port}/oai")
    return _serve(provider.handle_url, args.port,
                  f"simulating {len(scenario.records)} records")


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdpipe",
        description="Metadata aggregation pipeline: validate, harvest, "
                    "normalize, re-expose, and dedup-index OAI providers.")
    parser.add_argument("--config", help="path to a JSON config file "
                        "(default: $MDPIPE_CONFIG)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, "run conformance checks on a provider")
    p.add_argument("base_url")
    p.add_argument("--format", default="oai_dc")
    p.add_argument("--scenario", help="validate a simulated provider")
    p.add_argument("--at")

    p = add("register", cmd_register, "validate and admit a collection")
    p.add_argument("--collection-id", required=True)
    p.add_argument("--base-url", required=True)
    p.add_argument("--set", default=None)
    p.add_argument("--format", default="oai_dc")
    p.add_argument("--policy", default="no",
                   choices=["no", "transient", "persistent"])
    p.add_argument("--title", default="")
    p.add_argument("--native-private", action="store_true",
                   help="exclude native records from the full-dump format")
    p.add_argument("--scenario")
    p.add_argument("--at")

    p = add("harvest", cmd_harvest, "harvest one collection")
    p.add_argument("--collection-id", required=True)
    p.add_argument("--scenario")
    p.add_argument("--at")

    p = add("pipeline", cmd_pipeline, "harvest every due collection")
    p.add_argument("--scenario")
    p.add_argument("--at")

    p = add("stats", cmd_stats, "harvest attempt statistics")
    p.add_argument("--since")
    p.add_argument("--until")

    p = add("ingest", cmd_ingest, "load a batch insert document")
    p.add_argument("file")
    p.add_argument("--at")

    p = add("serve-oai", cmd_serve_oai, "expose the repository over OAI-PMH")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--at")

    p = add("index", cmd_index, "build a search index from the repository")
    p.add_argument("--mode", default="resource",
                   choices=["metadata", "resource", "identifier"])
    p.add_argument("--at")

    p = add("search", cmd_search, "query the search index")
    p.add_argument("query")
    p.add_argument("--mode", default="resource",
                   choices=["metadata", "resource", "identifier"])
    p.add_argument("--limit", type=_positive_int, default=10)
    p.add_argument("--at")

    p = add("dedup-report", cmd_dedup_report,
            "identifier / record / entity collapse counts")
    p.add_argument("--at")

    p = add("simulate", cmd_simulate, "create or serve a provider scenario")
    p.add_argument("--make", type=int, default=None,
                   help="write a clean scenario with N records")
    p.add_argument("--out")
    p.add_argument("--scenario")
    p.add_argument("--port", type=int, default=8081)
    p.add_argument("--at")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        with closing(State(load_config(args.config),
                           args.command in WRITING_COMMANDS)) as state:
            return args.func(args, state)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
