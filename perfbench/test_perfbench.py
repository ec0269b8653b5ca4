"""Self-tests of the benchmark: its inputs are reproducible and its output
checks catch broken traffic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_program()
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "BULK_RECORDS", 300)
    monkeypatch.setattr(workloads, "BULK_PAGE_SIZE", 20)


def _bulk(seed: int, workdir: Path) -> workloads.BulkHarvest:
    bench = workloads.BulkHarvest(seed, workdir)
    bench.generate()
    bench.setup()
    return bench


def _ratio(bench) -> float:
    return bench.ledger.failed / bench.ledger.attempted


def test_same_seed_renders_identical_traffic(small, tmp_path):
    first = _bulk(7, tmp_path).responses
    again = _bulk(7, tmp_path).responses
    other = _bulk(8, tmp_path).responses
    assert len(first) > 10
    assert first == again
    assert first != other


def test_clean_replay_passes_every_check(small, tmp_path):
    bench = _bulk(7, tmp_path)
    bench.run_loop(0)
    assert bench.ledger.attempted > 0
    assert _ratio(bench) == 0, bench.ledger.notes


def _list_pages(bench):
    return [key for key, body in bench.responses.items()
            if ("verb", "ListRecords") in key[1] and b"<record>" in body]


def test_dropped_record_is_a_failure(small, tmp_path):
    bench = _bulk(7, tmp_path)
    key = next(k for k in _list_pages(bench)
               if any(name == "resumptionToken" for name, _ in k[1]))
    bench.responses[key] = re.sub(rb"<record><header><identifier>.*?</record>",
                                  b"", bench.responses[key], count=1)
    bench.run_loop(0)
    assert _ratio(bench) > 0


def test_truncated_token_is_a_failure(small, tmp_path):
    bench = _bulk(7, tmp_path)
    key = next(k for k in _list_pages(bench)
               if b"<resumptionToken" in bench.responses[k]
               and b"></resumptionToken>" not in bench.responses[k])
    bench.responses[key] = re.sub(
        rb"(<resumptionToken[^>]*>[^<]*?)[^<]{3}</resumptionToken>",
        rb"\1</resumptionToken>", bench.responses[key])
    bench.run_loop(0)
    assert _ratio(bench) > 0
