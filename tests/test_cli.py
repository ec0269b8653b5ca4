"""Command-line workflow: validate -> register -> harvest -> search,
state persisted between invocations, exit codes, and --json output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdpipe
from mdpipe import ingest, model, pipeline, sim
from mdpipe.cli import State, load_config, main
from mdpipe.client import OaiClient
from mdpipe.model import DcElement, MetadataRecord, RecordHeader
from mdpipe.repository import Repository
from mdpipe.sim import FaultSpec, make_scenario

AT = "2005-02-01T00:00:00Z"


@pytest.fixture
def env(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    make_scenario(25).save(scenario_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"state_dir": str(tmp_path / "state")}))
    return {"scenario": str(scenario_path), "config": str(config_path)}


def _run(env, *argv):
    return main(["--config", env["config"], *argv])


def _register(env):
    return _run(env, "register", "--collection-id", "coll-1",
                "--base-url", "http://sim.invalid/oai",
                "--policy", "persistent",
                "--scenario", env["scenario"], "--at", AT)


def test_validate_pass_exit_zero(env, capsys):
    code = _run(env, "validate", "http://sim.invalid/oai",
                "--scenario", env["scenario"], "--at", AT)
    assert code == 0
    assert "Pass" in capsys.readouterr().out


def test_validate_fail_exit_one(env, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    make_scenario(25, faults=(FaultSpec("WrongDatestamp",
                                        verb="ListRecords"),)).save(bad)
    code = _run(env, "validate", "http://sim.invalid/oai",
                "--scenario", str(bad), "--at", AT)
    assert code == 1
    out = capsys.readouterr().out
    assert "Fail" in out and "datestamp-format: FAIL - " in out


def test_validate_json_output(env, capsys):
    code = _run(env, "--json", "validate", "http://sim.invalid/oai",
                "--scenario", env["scenario"], "--at", AT)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Pass"
    assert len(payload["checks"]) == 8


def test_register_then_harvest_persists_state(env, capsys):
    assert _register(env) == 0
    code = _run(env, "harvest", "--collection-id", "coll-1",
                "--scenario", env["scenario"], "--at", AT)
    assert code == 0
    assert "25 inserted" in capsys.readouterr().out

    code = _run(env, "--json", "stats")
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["attempts"] == 1 and stats["successes"] == 1


def test_register_against_failing_provider_refused(env, tmp_path):
    bad = tmp_path / "bad.json"
    make_scenario(25, faults=(FaultSpec("BrokenToken",
                                        verb="ListRecords"),)).save(bad)
    code = main(["--config", env["config"], "register",
                 "--collection-id", "coll-x",
                 "--base-url", "http://sim.invalid/oai",
                 "--scenario", str(bad), "--at", AT])
    assert code == 1


def test_register_and_harvest_an_empty_provider(env, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    make_scenario(0).save(empty)
    assert _run(env, "register", "--collection-id", "coll-0",
                "--base-url", "http://sim.invalid/oai",
                "--scenario", str(empty), "--at", AT) == 0
    assert _run(env, "harvest", "--collection-id", "coll-0",
                "--scenario", str(empty), "--at", AT) == 0
    assert "0 inserted" in capsys.readouterr().out


def test_duplicate_registration_exit_two(env):
    assert _register(env) == 0
    code = main(["--config", env["config"], "register",
                 "--collection-id", "coll-2",
                 "--base-url", "http://sim.invalid/oai",
                 "--scenario", env["scenario"], "--at", AT])
    assert code == 2


def test_harvest_unknown_collection_exit_two(env):
    code = _run(env, "harvest", "--collection-id", "ghost",
                "--scenario", env["scenario"], "--at", AT)
    assert code == 2


def test_search_and_dedup_after_harvest(env, capsys):
    _register(env)
    _run(env, "harvest", "--collection-id", "coll-1",
         "--scenario", env["scenario"], "--at", AT)
    capsys.readouterr()

    code = _run(env, "--json", "search", "simulated", "--at", AT)
    assert code == 0
    hits = json.loads(capsys.readouterr().out)["hits"]
    assert len(hits) == 10  # default limit

    code = _run(env, "--json", "dedup-report", "--at", AT)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metadata_records"] == 25
    assert report["resource_entities"] == 25  # distinct URLs: no collapse


@pytest.mark.parametrize("limit", ["0", "-1", "two"])
def test_search_limit_not_a_positive_integer_exit_two(env, capsys, limit):
    with pytest.raises(SystemExit) as exc:
        _run(env, "search", "simulated", "--limit", limit, "--at", AT)
    assert exc.value.code == 2
    assert "--limit" in capsys.readouterr().err


def test_index_modes(env, capsys):
    _register(env)
    _run(env, "harvest", "--collection-id", "coll-1",
         "--scenario", env["scenario"], "--at", AT)
    capsys.readouterr()
    for mode, expected in [("metadata", 25), ("resource", 25),
                           ("identifier", 25)]:
        code = _run(env, "--json", "index", "--mode", mode, "--at", AT)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["documents"] == expected


def test_simulate_make_writes_scenario(env, tmp_path, capsys):
    out = tmp_path / "fresh.json"
    code = _run(env, "simulate", "--make", "5", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["version"] == 1


def test_simulate_without_inputs_exit_two(env):
    assert _run(env, "simulate") == 2


def test_pipeline_command_harvests_due(env, capsys):
    _register(env)
    code = _run(env, "pipeline", "--scenario", env["scenario"], "--at", AT)
    assert code == 0
    assert "coll-1: ok" in capsys.readouterr().out


def test_bad_config_path_exit_two(tmp_path):
    code = main(["--config", str(tmp_path / "missing.json"), "stats"])
    assert code == 2


def test_config_read_as_utf8_under_an_ascii_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259), whatever codec the locale would pick
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps(
        {"state_dir": str(tmp_path / "state"),
         "domain": "biblioth\u00e8que.example.org"},
        ensure_ascii=False).encode())
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(mdpipe.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "mdpipe.cli", "--config", str(config),
         "stats"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("attempts: 0 ")


@pytest.mark.parametrize("content", ["[1, 2]", "3", '"state"', "null"])
def test_config_not_a_json_object_exit_two(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_text(content)
    assert main(["--config", str(path), "stats"]) == 2
    assert "not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("state_dir", 3), ("domain", ["x"]), ("postdate_offset_hours", "three"),
    ("postdate_offset_hours", True), ("postdate_offset_hours", float("nan")),
    ("page_size", 0), ("page_size", 2.5), ("page_size", True)])
def test_config_value_of_wrong_type_exit_two(env, tmp_path, capsys, key,
                                            value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"state_dir": str(tmp_path / "state"),
                                key: value}))
    code = main(["--config", str(path), "register", "--collection-id", "c",
                 "--base-url", "http://sim.invalid/oai",
                 "--scenario", env["scenario"], "--at", AT])
    assert code == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "state").exists()


@pytest.mark.parametrize("option", ["--since", "--until"])
def test_stats_bad_window_datestamp_exit_two(env, capsys, option):
    assert _run(env, "stats", option, "2006-13-01T00:00:00Z") == 2
    assert f"bad {option} value" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ingest


def _insert_document(tmp_path, collection_id):
    header = RecordHeader(identifier="oai:manual:1",
                          datestamp=model.parse_datestamp(AT))
    elements = (DcElement("title", "Manual"),
                DcElement("identifier", "http://example.org/manual",
                          scheme="URI"))
    rec = MetadataRecord(
        header=header, format_prefix="oai_dc", elements=elements,
        raw_xml=model.serialize_dc_payload("oai_dc", elements))
    pair = (rec, ingest.safe_transform(rec))
    path = tmp_path / f"{collection_id}.xml"
    path.write_bytes(ingest.serialize_db_insert(
        ingest.build_db_insert([pair], collection_id, "manual-1")))
    return str(path)


def _state_file(tmp_path):
    return tmp_path / "state" / "repository.json"


def test_ingest_publishes_and_saves(env, tmp_path, capsys):
    assert _register(env) == 0
    capsys.readouterr()
    code = _run(env, "--json", "ingest", _insert_document(tmp_path, "coll-1"),
                "--at", AT)
    assert code == 0
    minted = json.loads(capsys.readouterr().out)["inserted"]
    assert len(minted) == 1
    saved = Repository.load(_state_file(tmp_path))
    assert saved.get(minted[0]).source_identifier == "oai:manual:1"
    snapshot = saved.publish(model.parse_datestamp(AT))
    assert minted[0] in {r.repo_identifier for r in snapshot.records}


def test_ingest_keeps_natives_of_a_private_collection_private(env, tmp_path):
    assert _run(env, "register", "--collection-id", "coll-1",
                "--base-url", "http://sim.invalid/oai", "--native-private",
                "--scenario", env["scenario"], "--at", AT) == 0
    assert _run(env, "ingest", _insert_document(tmp_path, "coll-1"),
                "--at", AT) == 0
    saved = Repository.load(_state_file(tmp_path))
    record = next(r for r in saved.publish(model.parse_datestamp(AT)).records
                  if r.source_identifier == "oai:manual:1")
    assert not record.native_public
    assert b"<native" not in record.exports["nsdl_all"]
    assert b"<native" in record.exports["nsdl_search"]


@pytest.mark.parametrize("document", ["unknown-collection", "truncated"])
def test_ingest_failure_exit_two_keeps_state(env, tmp_path, document):
    assert _register(env) == 0
    before = _state_file(tmp_path).read_bytes()
    if document == "truncated":
        path = tmp_path / "truncated.xml"
        path.write_bytes(b"<dbInsert")
        path = str(path)
    else:
        path = _insert_document(tmp_path, "ghost")
    assert _run(env, "ingest", path, "--at", AT) == 2
    assert _state_file(tmp_path).read_bytes() == before


# ---------------------------------------------------------------------------
# one writer per state directory


def _harvest(env, collection_id):
    return _run(env, "harvest", "--collection-id", collection_id,
                "--scenario", env["scenario"], "--at", AT)


def _writer(env):
    return State(load_config(env["config"]), writes=True)


def test_second_writer_exits_two_and_touches_no_file(env, tmp_path, capsys):
    assert _register(env) == 0
    state_dir = tmp_path / "state"
    before = {p.name: p.read_bytes() for p in state_dir.iterdir()}
    assert set(before) == {"repository.json", "registry.jsonl"}
    capsys.readouterr()
    writer = _writer(env)
    try:
        assert _harvest(env, "coll-1") == 2
        assert str(state_dir) in capsys.readouterr().err
        with pytest.raises(SystemExit):
            _writer(env)
        assert _run(env, "stats") == 0     # a reader takes no lock
    finally:
        writer.close()
    assert {p.name: p.read_bytes() for p in state_dir.iterdir()} == before


def test_overlapping_writers_lose_no_harvest(env):
    for collection_id, host in (("c1", "one"), ("c2", "two")):
        assert _run(env, "register", "--collection-id", collection_id,
                    "--base-url", f"http://{host}.invalid/oai",
                    "--scenario", env["scenario"], "--at", AT) == 0
    now = model.parse_datestamp(AT)
    provider = sim.SimProvider(sim.SimScenario.load(env["scenario"]),
                               sim.SimClock(now))
    first = _writer(env)
    try:
        outcome = pipeline.run_harvest(
            first.registry, first.repository,
            OaiClient(transport=sim.SimTransport(provider)), "c1", now)
        assert outcome.attempt.success
        assert _harvest(env, "c2") == 2
        first.save()
    finally:
        first.close()
    assert _harvest(env, "c2") == 0
    reader = State(load_config(env["config"]), writes=False)
    for collection_id in ("c1", "c2"):
        live = reader.repository.live_source_identifiers(collection_id)
        assert len(live) == 25
        assert reader.registry.state(collection_id).watermark \
            == outcome.attempt.completed_through


def test_writer_that_exits_two_releases_the_lock(env):
    assert _harvest(env, "ghost") == 2
    _writer(env).close()
    assert _register(env) == 0


def test_writer_over_a_state_dir_that_is_a_file_exit_two(env, tmp_path,
                                                         capsys):
    (tmp_path / "state").write_text("")
    assert _register(env) == 2
    assert "cannot lock state directory" in capsys.readouterr().err
