"""mdpipe benchmark: three seeded workloads through the package's public API.

Run from the repository root:

    python3 perfbench/run.py --workload bulk_harvest --seed 1 \
        --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run instead. The lines before it name each workload's own
measures (``ingest_records_per_s``, ``oai_p99_ms``, ...) with their units.
The program is imported from ``src/`` next to this directory; without it
the run exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

from tracing import Traced, Tracer, Untraced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: end-to-end metrics every workload reports, and what each means there
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "records_per_s": "1/s",
    "latency_p50_ms": "ms",
    "state_bytes_per_record": "B",
}

#: span name -> per-layer metric of its inclusive time
SPAN_METRICS = {
    "validator.validate": "validator.validate_s",
    "client.harvest": "client.harvest_s",
    "ingest.safe_transform": "ingest.safe_transform_s",
    "repository.insert": "repository.insert_s",
    "repository.delete_by_source": "repository.delete_s",
    "repository.publish": "repository.publish_s",
    "repository.save": "repository.save_s",
    "repository.load": "repository.load_s",
    "registry.replay": "registry.replay_s",
    "registry.schedule_due": "registry.schedule_due_s",
    "registry.record_attempt": "registry.record_attempt_s",
    "server.list": "server.list_s",
    "server.get_record": "server.get_record_s",
    "resource_index.sources": "resource_index.sources_s",
    "resource_index.build": "resource_index.build_s",
    "resource_index.search": "resource_index.search_s",
}
#: layers whose self time is reported as ``<layer>.self_s``
SELF_LAYERS = ("validator", "registry", "client", "ingest", "repository",
               "server", "resource_index")
#: counts summed over the traced iterations, with their units
COUNT_METRICS = {"validator.pages_walked": "count", "client.pages": "count",
                 "client.bytes_in": "B", "client.retries": "count",
                 "ingest.rule_fires": "count", "server.bytes_out": "B",
                 "server.records_out": "count"}
#: values that describe the state reached, not work per iteration
LAST_METRICS = {"sim.render_s": "s", "sim.pages": "count",
                "repository.state_bytes": "B", "registry.log_bytes": "B",
                "resource_index.entities_per_record": "ratio"}
TRACE_METRICS = {"trace.overhead_records_per_s": "1/s",
                 "trace.overhead_latency_p50_ms": "ms",
                 "trace.spans": "count", "trace.iterations": "count"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = dict(LAST_METRICS)
    units.update((metric, "s") for metric in SPAN_METRICS.values())
    units["pipeline.run_harvest_self_s"] = "s"
    units.update((f"{layer}.self_s", "s") for layer in SELF_LAYERS)
    units.update(COUNT_METRICS)
    units.update(TRACE_METRICS)
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True,
                   choices=("bulk_harvest", "oai_serving",
                            "aggregate_refresh"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import mdpipe from this checkout's sources, never from elsewhere."""
    if not (SRC / "mdpipe" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import mdpipe
    if Path(mdpipe.__file__).resolve().parent != SRC / "mdpipe":
        sys.exit(f"perfbench: imported mdpipe from {mdpipe.__file__}")


@contextmanager
def traced(workload, tracer):
    """Route the workload's calls through ``tracer``; the pipeline's
    reference to the ingest module is swapped for a traced proxy so the
    per-record transforms show as their own spans."""
    import mdpipe.pipeline

    def count_rules(normalized):
        workload.layers.counts["ingest.rule_fires"] += len(
            normalized.transform_log)

    original = mdpipe.pipeline.ingest
    mdpipe.pipeline.ingest = Traced(original, "ingest", tracer,
                                    {"safe_transform": count_rules})
    workload.tracer = tracer
    workload.layers.counts.clear()
    try:
        yield
    finally:
        mdpipe.pipeline.ingest = original
        workload.tracer = Untraced()


def layer_metrics(workload, tracer, iterations: int) -> dict[str, float]:
    inclusive, layer_self = tracer.totals()
    n = max(1, iterations)
    out = {name: float(workload.layers.last.get(name, 0.0))
           for name in LAST_METRICS}
    for span, metric in SPAN_METRICS.items():
        out[metric] = inclusive.get(span, 0.0) / n
    out["pipeline.run_harvest_self_s"] = layer_self.get("pipeline", 0.0) / n
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / n
    for name in COUNT_METRICS:
        out[name] = workload.layers.counts.get(name, 0) / n
    out["trace.spans"] = float(tracer.span_count())
    out["trace.iterations"] = float(iterations)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.generate()
        # the generated inputs live all run; keep them out of the
        # collector's way so they do not add to the program's GC pauses
        gc.collect()
        gc.freeze()
        if args.trace:
            workload.setup_repeats = 1
        setup_s = workload.run_setup()
        workload.warm_up()
        if not args.trace:
            phase = workload.run_loop(args.seconds)
            workload.finish()
            measured = workload.summary(phase)
        else:
            plain = workload.run_loop(args.seconds / 2)
            tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
            with traced(workload, tracer):
                phase = workload.run_loop(args.seconds / 2)
            workload.finish()
            before = workload.summary(plain)
            measured = workload.summary(phase)
            tracer.write(ROOT / ".perfbench" / "traces"
                         / f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = workload.ledger
    for name, (value, unit) in list(measured.items()):
        if not math.isfinite(value):
            # only when the loop took no sample at all
            ledger.check(False, f"{name}: nothing measured")
            measured[name] = (0.0, unit)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured["setup_s"] = (setup_s, "s")
    measured["peak_rss_mb"] = (peak_rss_mb, "MB")
    measured["failed_ops_ratio"] = (ledger.failed / max(1, ledger.attempted),
                                    "ratio")
    for name, (value, unit) in measured.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for note in ledger.notes:
        print(f"perfbench: FAILED {note}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(workload, tracer, phase.iterations)
        for name in ("records_per_s", "latency_p50_ms"):
            delta = measured[name][0] - before[name][0]
            metrics[f"trace.overhead_{name}"] = (
                delta if math.isfinite(delta) else 0.0)
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in per_layer_units().items()}
    else:
        result = {name: {"value": measured[name][0], "unit": unit}
                  for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
