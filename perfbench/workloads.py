"""The three workloads: their set-up, timed loops and output checks.

Each workload runs in one process and one thread, as a closed loop: the next
request or step starts when the previous one has returned. Set-up renders
the simulator's traffic and builds the program state the loop starts from;
it runs ``SETUP_REPEATS`` times and the median is reported, so work moved
into set-up shows. Input generation from the seed happens once per run,
before set-up, and is not timed.

A run measures for ``seconds``: the loop stops starting new work once the
time is spent. Before it, ``warmup_steps`` steps run untimed, so the first
iterations' allocator and cache warm-up is not measured. With tracing on,
the first half of the time runs untraced and the second half traced, and
the difference is the tracing overhead.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

from mdpipe import ingest, resource_index
from mdpipe.cli import DEFAULT_CONFIG
from mdpipe.client import OaiClient
from mdpipe.model import (DcElement, MetadataRecord, RecordHeader,
                          format_datestamp, parse_datestamp,
                          serialize_dc_payload)
from mdpipe.pipeline import run_due_harvests, run_harvest
from mdpipe.registry import (CollectionConfig, CollectionState,
                             HarvestAttempt, Registry, apply_attempt,
                             decide_mode)
from mdpipe.repository import Repository
from mdpipe.server import OaiServer, ServerConfig
from mdpipe.sim import SimClock, SimScenario
from mdpipe.validator import validate_provider

import corpus
import oracles
from corpus import T0
from tracing import Traced, Tracer, Untraced
from traffic import FoldOnceProvider, Recorder, Replay

SETUP_REPEATS = 3

# bulk_harvest: one new provider, onboarded from scratch each iteration
BULK_RECORDS = 3000
BULK_PAGE_SIZE = 50            # the validator's 30-page walk sees half
BULK_FAIL_EVERY = 7            # every 7th page answers 503 once

# oai_serving: a published snapshot served at the CLI's default page size
SERVE_RECORDS = 12000
SERVE_SETS = 4
SERVE_BATCHES = 240
SERVE_WARMUP_TURNS = 100

# aggregate_refresh: four providers sharing resources, refreshed daily
AGG_PAGE_SIZE = 100
AGG_PROVIDERS = 4
AGG_RECORDS = 4000
AGG_RESOURCES = 2000
AGG_CYCLES = 24
AGG_QUERIES = 10
AGG_TRANSIENT = 3              # the provider without persistent deletes


def _noop_sleep(seconds: float) -> None:
    """Stands in for the client's back-off sleep, so a retry costs no wall
    time."""


@dataclass
class Ledger:
    """Operations attempted and failed, including every output check."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def ops(self, count: int, failures: int = 0, what: str = "") -> None:
        self.attempted += count
        self.failed += failures
        if failures and len(self.notes) < 20:
            self.notes.append(what)


@dataclass
class Phase:
    """The samples one stretch of the timed loop took, by name."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    iterations: int = 0

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


@dataclass
class Layers:
    """Counts taken at layer boundaries during the traced phase."""

    counts: Counter = field(default_factory=Counter)
    last: dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ledger = Ledger()
        self.layers = Layers()
        self.tracer = Untraced()

    # -- hooks each workload fills in

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, phase: Phase) -> bool:
        """One iteration of the loop; False when there is no more work."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks and measurements after the loop, untimed."""

    def summary(self, phase: Phase) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    # -- shared set-up and loop

    def wrap(self, target, layer: str):
        if isinstance(self.tracer, Tracer):
            return Traced(target, layer, self.tracer)
        return target

    setup_repeats = SETUP_REPEATS
    warmup_steps = 0

    def run_setup(self) -> float:
        times = []
        for _ in range(self.setup_repeats):
            self.release()
            gc.collect()
            started = time.perf_counter()
            self.setup()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    def warm_up(self) -> None:
        """Untimed steps before the timed loop; their checks still count."""
        discard = Phase()
        for _ in range(self.warmup_steps):
            if not self.step(discard):
                break

    def release(self) -> None:
        """Drop the state a previous set-up built."""

    def run_loop(self, seconds: float) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        while True:
            try:
                more = self.step(phase)
            except Exception:
                self.ledger.check(False, traceback.format_exc(limit=3))
                break
            phase.iterations += 1
            if not more or time.perf_counter() >= deadline:
                break
        return phase


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _file_size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


# ---------------------------------------------------------------------------
# bulk_harvest


class BulkHarvest(Workload):
    """Onboard one new provider: validate, register, full harvest, publish,
    save; then restart from disk: replay the registry log, load the
    repository, publish again."""

    name = "bulk_harvest"
    base_url = "http://bulk.provider.invalid/oai"
    warmup_steps = 1

    def generate(self) -> None:
        rng = random.Random(self.seed)
        vocab = corpus.Vocabulary(4000)
        pool = corpus.ResourcePool(rng, int(BULK_RECORDS * 0.7), vocab)
        scripts = corpus.provider_scripts(
            rng, vocab, pool, "bulk", BULK_RECORDS,
            start=T0 - timedelta(days=400), end=T0 - timedelta(hours=1),
            deleted_share=0.005)
        self.scenario = SimScenario(records=scripts,
                                    deleted_policy="persistent",
                                    page_size=BULK_PAGE_SIZE)
        self.live = sum(1 for s in scripts if s.events[-1].action != "delete")
        self.responses = None
        self.state_path = self.workdir / "repository.json"
        self.log_path = self.workdir / "registry.jsonl"

    def release(self) -> None:
        self.responses = None

    def setup(self) -> None:
        provider = FoldOnceProvider(self.scenario, SimClock(T0),
                                    base_url=self.base_url)
        recorder = Recorder(provider)
        # the validator's probes are whatever it asks for; let it ask once
        validate_provider(self.base_url, recorder)
        recorder.render_list(self.base_url, {"verb": "ListRecords",
                                             "metadataPrefix": "oai_dc"})
        self.responses = recorder.responses
        self.layers.last["sim.render_s"] = recorder.seconds
        self.layers.last["sim.pages"] = recorder.pages

    def step(self, phase: Phase) -> bool:
        tr = self.tracer
        for path in (self.state_path, self.log_path):
            path.unlink(missing_ok=True)
        gc.collect()      # the previous iteration's repositories
        backoffs: list[float] = []   # the client's sleeps, not waited out
        fetch = Replay(self.responses, fail_every=BULK_FAIL_EVERY)
        validation = Replay(self.responses)
        registry = self.wrap(Registry(self.log_path), "registry")
        repo = self.wrap(Repository(), "repository")
        client = self.wrap(OaiClient(transport=fetch, sleep=backoffs.append),
                           "client")
        config = CollectionConfig(collection_id="bulk",
                                  base_url=self.base_url,
                                  deleted_policy="persistent")
        started = time.perf_counter()
        report = tr.call("validator.validate", validate_provider,
                         self.base_url, validation)
        registry.register_collection(config, report, repo, T0)
        outcome = tr.call("pipeline.run_harvest", run_harvest,
                          registry, repo, client, "bulk", T0)
        snapshot = repo.publish(T0)
        repo.save(self.state_path)
        ingest_s = time.perf_counter() - started
        manifest = snapshot.manifest
        watermark = registry.state("bulk").watermark
        # a restart starts from an empty process: drop what ingest built
        del registry, repo, client, snapshot
        gc.collect()
        started = time.perf_counter()
        registry = tr.call("registry.replay", Registry.replay, self.log_path)
        repo = tr.call("repository.load", Repository.load, self.state_path)
        snapshot = tr.call("repository.publish", repo.publish, T0)
        restart_s = time.perf_counter() - started

        phase.add("ingest_records_per_s", outcome.inserted / ingest_s)
        phase.add("restart_s", restart_s)
        state_bytes = (_file_size(self.state_path)
                       + _file_size(self.log_path))
        phase.add("state_bytes_per_record",
                  state_bytes / manifest.record_count)

        led = self.ledger
        led.ops(8)
        led.ops(fetch.requests + validation.requests,
                fetch.misses + validation.misses,
                "replay served unrecorded URLs")
        led.check(report.passed,
                  f"validation failed: {report.failed_checks()}")
        led.check(outcome.attempt.success,
                  f"harvest failed: {outcome.attempt.detail}")
        led.check(outcome.inserted == self.live,
                  f"inserted {outcome.inserted} of {self.live} records")
        led.check(manifest.record_count == self.live + 1,
                  f"snapshot holds {manifest.record_count} records")
        led.check(snapshot.manifest.checksum == manifest.checksum,
                  "reloaded repository publishes another checksum")
        led.check(registry.state("bulk").watermark == watermark,
                  "replayed registry has another watermark")
        led.check(len(backoffs) == fetch.injected,
                  f"{fetch.injected} injected 503s, {len(backoffs)} retries")
        dedup = resource_index.dedup_report(
            resource_index.sources_from_snapshot(snapshot))
        led.check(dedup["identifier_occurrences"]
                  >= dedup["metadata_records"]
                  >= dedup["resource_entities"],
                  f"dedup dominance broken: {dedup}")
        self.layers.last["resource_index.entities_per_record"] = (
            dedup["resource_entities"] / max(1, dedup["metadata_records"]))

        counts = self.layers.counts
        counts["validator.pages_walked"] += report.pages_walked
        counts["client.pages"] += fetch.requests - fetch.injected
        counts["client.bytes_in"] += fetch.bytes_in
        counts["client.retries"] += len(backoffs)
        self.layers.last["repository.state_bytes"] = _file_size(
            self.state_path)
        self.layers.last["registry.log_bytes"] = _file_size(self.log_path)
        return True

    def summary(self, phase):
        s = phase.samples
        return {
            "records_per_s": (_median(s["ingest_records_per_s"]), "1/s"),
            "latency_p50_ms": (_median(s["restart_s"]) * 1000, "ms"),
            "state_bytes_per_record": (_median(s["state_bytes_per_record"]),
                                       "B"),
            "ingest_records_per_s": (_median(s["ingest_records_per_s"]),
                                     "1/s"),
            "restart_s": (_median(s["restart_s"]), "s"),
        }


# ---------------------------------------------------------------------------
# oai_serving


class OaiServing(Workload):
    """Read-only harvesters against one published snapshot.

    Five harvesters take turns, one request each per turn, so the request
    mix is the same however fast the server is: a full-list walker
    (oai_dc, then nsdl_all), a set walker, a walker over a few recent date
    windows (repeated, so they have locality), a ListIdentifiers walker,
    and a GetRecord client with uniformly drawn keys (no locality) that
    sends an Identify every 50th request.
    """

    name = "oai_serving"
    now = T0 + timedelta(days=30)
    warmup_steps = SERVE_WARMUP_TURNS

    def generate(self) -> None:
        rng = random.Random(self.seed)
        vocab = corpus.Vocabulary(4000)
        pool = corpus.ResourcePool(rng, SERVE_RECORDS // 2, vocab)
        cfg = ingest.TransformConfig.default()
        self.sets = [f"set{i}" for i in range(SERVE_SETS)]
        per_batch = SERVE_RECORDS // SERVE_BATCHES
        self.batches = []
        earlier: dict[str, list[str]] = {coll: [] for coll in self.sets}
        for b in range(SERVE_BATCHES):
            at = T0 - timedelta(hours=SERVE_BATCHES - b)
            coll = self.sets[b % SERVE_SETS]
            sources = [f"oai:serve:{coll}:{b:04d}-{n:03d}"
                       for n in range(per_batch)]
            # later batches also revise and delete a few earlier records
            revised, deleted = [], []
            if len(earlier[coll]) > per_batch:
                revised = rng.sample(earlier[coll], per_batch // 10)
                deleted = rng.sample(earlier[coll], per_batch // 50)
            pairs = [self._pair(rng, vocab, pool, cfg, source, at)
                     for source in sources + revised]
            earlier[coll].extend(sources)
            self.batches.append((at, coll, pairs, deleted))
        self.rng = rng
        self.server = None
        self.repo = None

    @staticmethod
    def _pair(rng, vocab, pool, cfg, source, at):
        elements = corpus.record_elements(rng, vocab, pool)
        record = MetadataRecord(
            header=RecordHeader(identifier=source, datestamp=at),
            format_prefix="oai_dc", elements=elements,
            raw_xml=serialize_dc_payload("oai_dc", elements))
        return record, ingest.safe_transform(record, cfg)

    def release(self) -> None:
        self.server = self.repo = self.snapshot = None

    def setup(self) -> None:
        repo = Repository()
        for coll in self.sets:
            repo.register_collection_record(
                coll, (DcElement("title", coll),), self.batches[0][0])
        for at, coll, pairs, deleted in self.batches:
            repo.insert(ingest.build_db_insert(pairs, coll, f"{coll}@{at}"),
                        at)
            for source in deleted:
                repo.delete_by_source(coll, source, at)
        self.snapshot = repo.publish(self.now)
        self.repo = repo
        self.server = OaiServer(
            ServerConfig(page_size=DEFAULT_CONFIG["page_size"]), self.snapshot,
            clock=lambda: self.now, secret=b"perfbench-serving-secret")
        self.filter = None

    def _plan(self):
        """Seeded session streams, one per harvester."""
        rng = random.Random(self.seed + 1)
        records = [r for r in self.snapshot.records
                   if r.served_datestamp <= self.now]
        stamps = sorted({r.served_datestamp for r in records})
        recent = stamps[-12:]
        windows = [(recent[i], recent[i] + timedelta(hours=rng.choice((1, 2))))
                   for i in range(0, len(recent) - 2, 2)]

        def full():
            while True:
                for prefix in ("oai_dc", "nsdl_all"):
                    yield "ListRecords", {"metadataPrefix": prefix}

        def by_set():
            while True:
                yield "ListRecords", {
                    "metadataPrefix": rng.choice(("oai_dc", "nsdl_dc")),
                    "set": rng.choice(self.sets)}

        def windowed():
            while True:
                start, end = rng.choice(windows)
                yield "ListRecords", {"metadataPrefix": "oai_dc",
                                      "from": format_datestamp(start),
                                      "until": format_datestamp(end)}

        def identifiers():
            while True:
                lo = rng.randrange(len(stamps) // 2)
                hi = min(len(stamps) - 1, lo + rng.randrange(len(stamps) // 4))
                yield "ListIdentifiers", {
                    "metadataPrefix": "oai_dc",
                    "from": format_datestamp(stamps[lo]),
                    "until": format_datestamp(stamps[hi])}

        def lookups():
            n = 0
            while True:
                n += 1
                if n % 50 == 0:
                    yield "Identify", {}
                else:
                    rec = rng.choice(records)
                    yield "GetRecord", {
                        "identifier": rec.repo_identifier,
                        "metadataPrefix": rng.choice(
                            ("oai_dc", "nsdl_dc", "nsdl_all"))}

        return [full(), by_set(), windowed(), identifiers(), lookups()]

    def step(self, phase: Phase) -> bool:
        """One turn: each harvester sends its next request."""
        if self.filter is None:
            self.filter = oracles.SnapshotFilter(self.snapshot, self.now)
            self.by_id = {r.repo_identifier: r for r in self.snapshot.records}
            self.sessions = self._plan()
            self.walks = [None] * len(self.sessions)
        turn_ms = 0.0
        for h, session in enumerate(self.sessions):
            walk = self.walks[h]
            if walk is None:
                verb, args = next(session)
                walk = self.walks[h] = Walk(verb, args)
            started = time.perf_counter()
            body = self.tracer.call(_span_for(walk.verb),
                                    self.server.handle_request,
                                    walk.verb, walk.request, self.now)
            elapsed = time.perf_counter() - started
            phase.add("latency_ms", elapsed * 1000)
            turn_ms += elapsed * 1000
            self.ledger.ops(1)
            self.layers.counts["server.bytes_out"] += len(body)
            if walk.verb in ("ListRecords", "ListIdentifiers"):
                got = oracles.headers(body)
                phase.add("list_s", elapsed)
                phase.add("list_records", len(got))
                self.layers.counts["server.records_out"] += len(got)
                if self._page(walk, body, got):
                    self.walks[h] = None
            else:
                self._single(walk, body)
                self.walks[h] = None
        # one request of each harvester: the turn's mean does not depend on
        # where in the multi-modal per-verb mix a percentile falls
        phase.add("turn_mean_ms", turn_ms / len(self.sessions))
        return True

    def _page(self, walk, body, got) -> bool:
        """Check one list page; True when the walk is over."""
        led = self.ledger
        code = oracles.error_code(body)
        if code is not None:
            led.check(False, f"{walk.verb} {walk.args}: error {code}")
            return True
        walk.seen.update((ident, stamp) for ident, stamp, _ in got)
        size, next_token = oracles.token(body)
        expected = self.filter.expected(*walk.window())
        if size is not None:
            led.check(size == sum(expected.values()),
                      f"{walk.args}: completeListSize {size}")
        if next_token is None:
            led.check(walk.seen == expected,
                      f"{walk.verb} {walk.args}: walk differs from the "
                      "snapshot")
            return True
        walk.request = {"resumptionToken": next_token}
        return False

    def _single(self, walk, body) -> None:
        led = self.ledger
        if walk.verb == "Identify":
            earliest = min(self.filter.rows, key=lambda row: row[2])[1]
            led.check(f"<earliestDatestamp>{earliest}<" in body.decode(),
                      "Identify reports another earliestDatestamp")
            return
        rec = self.by_id[walk.args["identifier"]]
        got = oracles.headers(body)
        led.check(got == [(rec.repo_identifier,
                           format_datestamp(rec.served_datestamp),
                           rec.deleted)]
                  and (rec.deleted or b"<metadata>" in body),
                  f"GetRecord {rec.repo_identifier} answered wrongly")

    def finish(self) -> None:
        # walks cut off by the deadline: what they got must belong to the
        # list and must not repeat
        for walk in self.walks:
            if walk is not None and walk.verb in ("ListRecords",
                                                  "ListIdentifiers"):
                expected = self.filter.expected(*walk.window())
                self.ledger.check(not (walk.seen - expected),
                                  f"{walk.args}: partial walk strays")
        path = self.workdir / "repository.json"
        self.repo.save(path)
        self.state_bytes = _file_size(path)
        path.unlink()
        self.layers.last["repository.state_bytes"] = self.state_bytes

    def summary(self, phase):
        s = phase.samples
        list_s = sum(s.get("list_s", []))
        per_s = sum(s.get("list_records", [])) / list_s if list_s else 0.0
        return {
            "records_per_s": (per_s, "1/s"),
            "latency_p50_ms": (_median(s["turn_mean_ms"]), "ms"),
            "state_bytes_per_record": (
                self.state_bytes / self.snapshot.manifest.record_count, "B"),
            "oai_p50_ms": (_median(s["latency_ms"]), "ms"),
            "oai_p99_ms": (_percentile(s["latency_ms"], 99), "ms"),
            "oai_records_per_s": (per_s, "1/s"),
            "oai_requests": (len(s["latency_ms"]), "count"),
        }


def _span_for(verb: str) -> str:
    if verb in ("ListRecords", "ListIdentifiers"):
        return "server.list"
    if verb == "GetRecord":
        return "server.get_record"
    return "server.other"


class Walk:
    """One harvester's current request chain and what it has received."""

    def __init__(self, verb: str, args: dict[str, str]):
        self.verb = verb
        self.args = args
        self.request = dict(args)
        self.seen: Counter = Counter()

    def window(self):
        a = self.args
        return (a.get("set"),
                parse_datestamp(a["from"]) if "from" in a else None,
                parse_datestamp(a["until"]) if "until" in a else None)


# ---------------------------------------------------------------------------
# aggregate_refresh


class KeepSnapshot(Repository):
    """A repository that keeps the snapshot it published last, so the index
    can be built from the one ``run_due_harvests`` published."""

    published = None

    def publish(self, now):
        self.published = super().publish(now)
        return self.published


class AggregateRefresh(Workload):
    """A steady-state aggregator over four providers whose records share
    resources. Each cycle a day passes, the providers revise and delete a
    few records, and the aggregator harvests what is due, saves, rebuilds
    the resource-centric index from the new snapshot and answers a batch
    of queries."""

    name = "aggregate_refresh"

    def generate(self) -> None:
        rng = random.Random(self.seed)
        vocab = corpus.Vocabulary(4000)
        pool = corpus.ResourcePool(rng, AGG_RESOURCES, vocab)
        self.providers = []
        for p in range(AGG_PROVIDERS):
            scripts = corpus.provider_scripts(
                rng, vocab, pool, f"agg{p}", AGG_RECORDS // AGG_PROVIDERS,
                start=T0 - timedelta(days=300), end=T0,
                deleted_share=0.005, cycles=AGG_CYCLES,
                update_share=0.01, cycle_delete_share=0.002)
            policy = "transient" if p == AGG_TRANSIENT else "persistent"
            self.providers.append((
                f"agg{p}", f"http://agg{p}.provider.invalid/oai", policy,
                SimScenario(records=scripts, deleted_policy=policy,
                            page_size=AGG_PAGE_SIZE)))
        # one batch, asked again after every refresh
        self.queries = corpus.queries(rng, vocab, AGG_QUERIES)
        self.state_path = self.workdir / "repository.json"
        self.log_path = self.workdir / "registry.jsonl"
        self.registry = self.repo = None

    def release(self) -> None:
        self.registry = self.repo = self.cycle_responses = None

    def setup(self) -> None:
        for path in (self.state_path, self.log_path):
            path.unlink(missing_ok=True)
        cycle_responses = [dict() for _ in range(AGG_CYCLES + 1)]
        self.expected = [dict() for _ in range(AGG_CYCLES + 1)]
        self.modes = [dict() for _ in range(AGG_CYCLES + 1)]
        reports = {}
        render_s = pages = 0
        for cid, base, policy, scenario in self.providers:
            clock = SimClock(T0)
            provider = FoldOnceProvider(scenario, clock, base_url=base)
            recorder = Recorder(provider)
            # registration needs a passing report, not a long walk
            reports[cid] = validate_provider(base, recorder, max_pages=2)
            recorder.take()
            # follow the registry's own scheduling rules to know which list
            # each cycle asks for
            state = CollectionState(config=CollectionConfig(
                collection_id=cid, base_url=base, deleted_policy=policy))
            live: set[str] = set()
            for cycle in range(AGG_CYCLES + 1):
                at = T0 + timedelta(days=cycle)
                clock.advance_to(at)
                mode = decide_mode(state)
                params = {"verb": "ListRecords", "metadataPrefix": "oai_dc"}
                if mode == "incremental":
                    params["from"] = format_datestamp(state.watermark)
                recorder.render_list(base, params)
                cycle_responses[cycle].update(recorder.take())
                live = self._expected_live(provider, policy, mode, state,
                                           live, at)
                self.expected[cycle][cid] = live
                self.modes[cycle][cid] = mode
                state = apply_attempt(state, HarvestAttempt(
                    collection_id=cid, started_at=at, mode=mode,
                    success=True, completed_through=at))
            render_s += recorder.seconds
            pages += recorder.pages
        self.layers.last["sim.render_s"] = render_s
        self.layers.last["sim.pages"] = pages
        self.cycle_responses = cycle_responses

        self.registry = Registry(self.log_path)
        self.repo = KeepSnapshot()
        for cid, base, policy, _ in self.providers:
            self.registry.register_collection(
                CollectionConfig(collection_id=cid, base_url=base,
                                 deleted_policy=policy),
                reports[cid], self.repo, T0)
        client = OaiClient(transport=Replay(cycle_responses[0]),
                           sleep=_noop_sleep)
        outcomes = run_due_harvests(self.registry, self.repo, client, T0)
        self.setup_ok = all(o.attempt.success for o in outcomes)
        self.cycle = 0

    @staticmethod
    def _expected_live(provider, policy, mode, state, live, at) -> set[str]:
        """Source ids the repository should hold after this cycle: the
        provider's live records, except that a provider without persistent
        deletes hides them, so between full re-syncs the stale ones stay."""
        if policy == "persistent" or mode == "full":
            return provider.live_identifiers(at)
        changed = {i for i, r in provider.state(at).items()
                   if not r.deleted and r.datestamp >= state.watermark}
        return live | changed

    def step(self, phase: Phase) -> bool:
        if self.cycle == 0:
            self.ledger.check(self.setup_ok, "initial harvest failed")
        if self.cycle >= AGG_CYCLES:
            return False
        self.cycle += 1
        cycle, tr = self.cycle, self.tracer
        gc.collect()      # the previous cycle's snapshot and index
        at = T0 + timedelta(days=cycle)
        fetch = Replay(self.cycle_responses[cycle])
        registry = self.wrap(self.registry, "registry")
        repo = self.wrap(self.repo, "repository")
        client = self.wrap(OaiClient(transport=fetch, sleep=_noop_sleep),
                           "client")

        started = time.perf_counter()
        outcomes = tr.call("pipeline.run_due_harvests", run_due_harvests,
                           registry, repo, client, at)
        repo.save(self.state_path)
        snapshot = self.repo.published
        sources = tr.call("resource_index.sources",
                          resource_index.sources_from_snapshot, snapshot)
        index = tr.call("resource_index.build",
                        resource_index.build_resource_centric, sources)
        refreshed = time.perf_counter()
        phase.add("refresh_s", refreshed - started)
        phase.add("indexed_per_s", len(sources) / (refreshed - started))

        hits = []
        batch_ms = 0.0
        for query in self.queries:
            began = time.perf_counter()
            hits.append(tr.call("resource_index.search", index.search, query))
            took = (time.perf_counter() - began) * 1000
            phase.add("search_ms", took)
            batch_ms += took
        # the batch is the same every cycle, so its mean is comparable
        # across cycles where a percentile over ten fixed queries is not
        phase.add("batch_mean_ms", batch_ms / len(self.queries))

        led = self.ledger
        led.ops(4 + len(hits))
        led.ops(fetch.requests, fetch.misses, "replay served unrecorded URLs")
        modes = {o.attempt.collection_id: o.attempt.mode for o in outcomes}
        led.check(all(o.attempt.success for o in outcomes),
                  f"cycle {cycle}: a harvest failed")
        led.check(modes == self.modes[cycle],
                  f"cycle {cycle}: modes {modes}")
        for cid, _, _, _ in self.providers:
            led.check(self.repo.live_source_identifiers(cid)
                      == self.expected[cycle][cid],
                      f"cycle {cycle}: {cid} diverges from the provider")
        led.check(len(index.documents) <= len(sources),
                  f"cycle {cycle}: more entities than records")
        reference = oracles.ReferenceSearch(index.documents)
        for query, got in zip(self.queries, hits):
            led.check(got == reference.search(query),
                      f"cycle {cycle}: search {query!r} differs")

        self.layers.counts["client.pages"] += fetch.requests
        self.layers.counts["client.bytes_in"] += fetch.bytes_in
        self.layers.last["resource_index.entities_per_record"] = (
            len(index.documents) / max(1, len(sources)))
        self.layers.last["repository.state_bytes"] = _file_size(
            self.state_path)
        self.layers.last["registry.log_bytes"] = _file_size(self.log_path)
        self.records = snapshot.manifest.record_count
        return cycle < AGG_CYCLES

    def summary(self, phase):
        s = phase.samples
        state_bytes = _file_size(self.state_path) + _file_size(self.log_path)
        return {
            "records_per_s": (_median(s["indexed_per_s"]), "1/s"),
            "latency_p50_ms": (_median(s["batch_mean_ms"]), "ms"),
            "state_bytes_per_record": (state_bytes / self.records, "B"),
            "refresh_p50_s": (_median(s["refresh_s"]), "s"),
            "search_p50_ms": (_median(s["search_ms"]), "ms"),
            "search_p90_ms": (_percentile(s["search_ms"], 90), "ms"),
            "cycles": (len(s["refresh_s"]), "count"),
        }


WORKLOADS = {w.name: w for w in (BulkHarvest, OaiServing, AggregateRefresh)}
