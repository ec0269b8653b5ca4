"""Command-line workflow: validate -> register -> harvest -> search,
state persisted between invocations, exit codes, and --json output."""

import json

import pytest

from mdpipe.cli import main
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
    assert "Fail" in out and "datestamp-format" in out


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
