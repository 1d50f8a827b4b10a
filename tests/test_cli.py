import hashlib
import json
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest

from churnskip import cli
from churnskip.cli import (
    eval_rate_expr,
    load_dump,
    main,
    parse_config,
    params_from_config,
    run_fixture,
)
from churnskip.errors import ConfigError, RateTooHigh
from churnskip.params import SimParams
from churnskip.skiplist import oracle_build

CFG = """
# comments allowed
n = 256
seed_adv = 3
seed_alg = 4
churn_rate_expr = n/(10*log2(n)^2)
strategy = uniform_random
horizon_cycles = 3
query_density = 0.002
"""


def test_rate_expression_arithmetic():
    assert eval_rate_expr("n/(10*log2(n)^2)", 1024) == 1
    assert eval_rate_expr("n/(10*log2(n))", 1024) == 10
    assert eval_rate_expr("0", 64) == 0
    assert eval_rate_expr("floor(n/100)", 250) == 2
    with pytest.raises(ConfigError):
        eval_rate_expr("__import__('os')", 10)
    with pytest.raises(ConfigError):
        eval_rate_expr("m + 1", 10)
    # no function of the grammar takes keyword arguments
    for expr in ("log(n, base=2)", "floor(n, x=1/0)"):
        with pytest.raises(ConfigError):
            eval_rate_expr(expr, 1024)


def test_rate_expression_with_keywords_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("n = 64\nchurn_rate_expr = log(n, base=2)\nhorizon_cycles = 1\n")
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "churn_rate_expr: disallowed syntax" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["n/0", "log2(0)", "sqrt(-n)", "10.0**1000",
                                  "floor()", "2^2^20"])
def test_rate_expression_that_cannot_be_evaluated_is_config_error(
        expr, tmp_path, capsys):
    # a division by zero, a math domain error, an overflow, a bad call and
    # a power too large for a rate: each is the config's fault, so exit 2
    with pytest.raises(ConfigError) as exc:
        eval_rate_expr(expr, 64)
    assert exc.value.field == "churn_rate_expr"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"n = 64\nchurn_rate_expr = {expr}\nhorizon_cycles = 1\n")
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "churn_rate_expr: cannot evaluate" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["-" * 2000 + "n", "+" * 5000 + "n", "-" * 100_000 + "n"],
                         ids=["unary-minus-2000", "unary-plus-5000", "unary-minus-100000"])
def test_rate_expression_nested_too_deeply_is_config_error(expr, tmp_path, capsys):
    # the evaluator (2,000 levels) or the parser (5,000 and 100,000) runs
    # out of depth: the config's fault, so exit 2 and not a traceback
    with pytest.raises(ConfigError) as exc:
        eval_rate_expr(expr, 64)
    assert exc.value.field == "churn_rate_expr"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"n = 64\nchurn_rate_expr = {expr}\nhorizon_cycles = 1\n")
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "churn_rate_expr: nested too deeply" in capsys.readouterr().err


def test_parse_config_and_field_errors():
    cfg = parse_config(CFG)
    assert cfg["n"] == 256 and cfg["strategy"] == "uniform_random"
    assert cfg["churn_rate_expr"] == "n/(10*log2(n)^2)"
    # every SimParams field but churn_rate is a key, read as its declared type
    sample = {int: ("7", 7), float: ("0.25", 0.25), str: ("burst", "burst")}
    declared = get_type_hints(SimParams)
    names = [f.name for f in fields(SimParams) if f.name != "churn_rate"]
    cfg = parse_config("\n".join(f"{name} = {sample[declared[name]][0]}"
                                 for name in names))
    assert list(cfg) == names
    for name in names:
        assert type(cfg[name]) is declared[name], name
        assert cfg[name] == sample[declared[name]][1], name
    with pytest.raises(ConfigError) as err:
        parse_config("n = twelve")
    assert err.value.field == "n"
    assert str(err.value) == "n: expected integer, got 'twelve'"
    with pytest.raises(ConfigError) as err:
        parse_config("n = 16\nhorizon_cycles = 2.5")
    assert err.value.field == "horizon_cycles"
    with pytest.raises(ConfigError) as err:
        parse_config("n = 16\nquery_density = wide")
    assert str(err.value) == "query_density: expected number, got 'wide'"
    for unknown in ("bogus_field", "alpha_reshape", "churn_rate"):
        with pytest.raises(ConfigError) as err:
            parse_config(f"{unknown} = 1.5\nn = 16")
        assert str(err.value) == f"{unknown}: unknown config field"
    with pytest.raises(ConfigError):
        parse_config("seed_adv = 1")   # n required


@pytest.mark.parametrize("key", ["p", "c_msg", "c_comm", "c_lo", "c_hi_mean",
                                 "beta_bootstrap", "c_churn", "c_cycle"])
def test_pinned_constant_is_not_a_config_key(tmp_path, capsys, key):
    # the paper's polylog factors are constants of params.py, not settings
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"n = 64\n{key} = 1.0\n")
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: {key}: unknown config field" in capsys.readouterr().err


def test_rate_too_high_rejected_before_simulation():
    cfg = parse_config("n = 64\nchurn_rate_expr = n/2")
    with pytest.raises(RateTooHigh):
        params_from_config(cfg)


# A small run that churns: every cycle deletes, builds a buffer and merges.
CHURNING_CFG = """
n = 128
seed_adv = 3
seed_alg = 4
churn_rate_expr = 3
strategy = uniform_random
horizon_cycles = 3
query_density = 0.01
"""

OUTPUTS = ("trace.jsonl", "schedule.txt", "cycles.jsonl", "dump.jsonl",
           "competitiveness.jsonl", "summary.csv", "metrics.txt",
           "merge_events.jsonl", "phases.jsonl", "census.jsonl")


def _simulate_twice(tmp_path, cfg):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert sorted(p.name for p in out1.iterdir()) == sorted(OUTPUTS)
    for name in OUTPUTS:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    return out1


def test_simulate_writes_outputs_and_is_deterministic(tmp_path):
    out = _simulate_twice(tmp_path, CFG)
    first = json.loads((out / "trace.jsonl").read_text().splitlines()[0])
    assert set(first) == {"round", "churn_in", "churn_out", "messages_sent",
                          "edges_formed", "edges_deleted", "phase_tag",
                          "cycle_phase"}


def test_simulate_churning_run_is_deterministic_and_pinned(tmp_path):
    out = _simulate_twice(tmp_path, CHURNING_CFG)
    trace = (out / "trace.jsonl").read_bytes()
    events = (out / "merge_events.jsonl").read_bytes()
    assert len(trace.splitlines()) == 413
    assert len(events.splitlines()) == 1156
    assert hashlib.sha256(trace).hexdigest() == \
        "700c5a82ed877ce2ea8d77de73a4bd425288fd93729aeae9bc8b04b25d16cfe4"
    assert hashlib.sha256(events).hexdigest() == \
        "05aa0af627e7d32f30d39f2573ae86a06f0d189f788903d4aafb1b1997487069"
    # the per-phase and per-cycle rounds, messages and edges
    assert hashlib.sha256((out / "phases.jsonl").read_bytes()).hexdigest() == \
        "584f2995b548fb3d183cf8ed9c5166f06c5e0fc9c547d0409213759b9c069c3c"
    assert hashlib.sha256((out / "cycles.jsonl").read_bytes()).hexdigest() == \
        "846f35d486212a0187ce1d0b862d361aeedbe8f415924fd2072685dad3d61f65"
    # the overlay censuses, the competitiveness windows and the final structure
    assert hashlib.sha256((out / "census.jsonl").read_bytes()).hexdigest() == \
        "16520efb15061a80bc0e246e458a2b22e5b453eedfea2e49d5dd21ac3ae231d3"
    assert hashlib.sha256((out / "competitiveness.jsonl").read_bytes()).hexdigest() == \
        "c1140ef44df01a0c54fd05cd611a4d2644bd1425bcfa034961dc596253b11a0d"
    assert hashlib.sha256((out / "dump.jsonl").read_bytes()).hexdigest() == \
        "cc483bbd160a3b21611ab59db037afad879586ba681927b50b6a659d695cb509"
    # the churn schedule as drawn, one line per round
    schedule = (out / "schedule.txt").read_bytes()
    assert len(schedule.splitlines()) == 709
    assert hashlib.sha256(schedule).hexdigest() == \
        "0ff91cb5165af20cc89ec8fb0816d58d5dd440a206f8e9bc1bfc5c70ece0a130"


def _shipped_config_sums(tmp_path, name, outputs):
    """Simulate configs/<name> and hash each of the named outputs."""
    config = Path(__file__).resolve().parents[1] / "configs" / name
    out = tmp_path / name
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return {output: hashlib.sha256((out / output).read_bytes()).hexdigest()
            for output in outputs}


# The shipped small config draws no churn (rate 0), so its cycles have no
# reds and no joiners: its trace, merge events, cycles, schedule, phase
# records and final structure, as written by Python 3.11. CI's same-bytes
# job checks the same sums on newer Pythons.
SMALL_SHA256 = {
    "trace.jsonl": "6066887e2da65887d6df174425bde00b5d14329ab4a0b8da1f1b7b9a9937966f",
    "merge_events.jsonl": "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "cycles.jsonl": "242eea34423bac36c1176a1e539cd326d1bffe733562d0d4cabd97efe0e92db5",
    "schedule.txt": "0113ea8e79bc0a63c154cab32ba18b89d4a666acf76ec1ba383509885e22abd3",
    "phases.jsonl": "e28431a29dffabcf7ec474997b96c86ca9ce3251723cebce8820cc119d91541e",
    "dump.jsonl": "02cf936a36e00130ce5c30614708b241fc0a32413c92e0201de7a177e260635b",
}


def test_small_config_outputs_are_pinned(tmp_path):
    assert _shipped_config_sums(tmp_path, "small.cfg", SMALL_SHA256) == SMALL_SHA256


# The shipped acceptance-scale config: every output of its run, as written
# by Python 3.11. CI's same-bytes job checks the same sums on newer Pythons.
CHURNY_SHA256 = {
    "trace.jsonl": "a3947ad64efd9007d079b596f2d6d02fd673bb7a8e67ad0b25b8595046e3cf44",
    "cycles.jsonl": "855b7c1cc18e8d773b0274e60dccc1e7a2e0e5aa4908bd928b8b383a89f26cb1",
    "phases.jsonl": "e9560e00928d9b2a10d84ae0a6058ef7db76108b75f79bfab64695a399d4fb2e",
    "merge_events.jsonl": "ff71e9d292e4a965b77a33d29c79c7b069cc1483fa568cd0eeb544fbf9a0bf3a",
    "schedule.txt": "26546ef2e8ff0455d5bcc4638e360c19ff480d642c502b54590785f652283b63",
    "census.jsonl": "bbaeeb2962bb72da8b4924430e8dcd8fa47f73eb4b6fb28e289801a624c90f60",
    "competitiveness.jsonl":
        "4747199b86b9a78c084e6599dd679f10d3087bb065322e188ae47d4e4d44684e",
    "summary.csv": "19c7b3a35cea7fd1cb400edb1323275d3220ee71b481c11d97573ad956e06a55",
    "metrics.txt": "c4ffa97167af5e6db8a74e8836de6e9ce2cb873d0970f18d3714777b232f04ee",
    "dump.jsonl": "3e92a282fb3f577e1f4a0fa4028ea28b4beb954940e29fd36c632e0218b3b98d",
}


def test_churny_config_outputs_are_pinned(tmp_path):
    assert sorted(CHURNY_SHA256) == sorted(OUTPUTS)
    assert _shipped_config_sums(tmp_path, "churny.cfg", OUTPUTS) == CHURNY_SHA256


def test_unknown_strategy_is_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError) as exc:
        SimParams(n=64, strategy="nope")
    assert exc.value.field == "strategy"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("n = 64\nstrategy = nope\nhorizon_cycles = 1\n")
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "strategy: unknown strategy 'nope'" in capsys.readouterr().err


def test_negative_horizon_is_config_error_before_any_round(tmp_path, capsys, monkeypatch):
    # a negative horizon would run no cycle and pass vacuously; 0 runs
    # the bootstrap only
    assert SimParams(n=64, horizon_cycles=0).horizon_cycles == 0
    with pytest.raises(ConfigError) as exc:
        SimParams(n=64, horizon_cycles=-2)
    assert exc.value.field == "horizon_cycles"

    def forbidden(params):
        raise AssertionError("a rejected config must not be simulated")

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG.replace("horizon_cycles = 3", "horizon_cycles = -2"))
    monkeypatch.setattr(cli, "Simulation", forbidden)
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "error: horizon_cycles: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_dump_roundtrip_and_fault(tmp_path):
    net = oracle_build([5, 9, 14], [1, 0, 2])
    path = tmp_path / "dump.jsonl"
    path.write_text("\n".join(net.dump_lines()) + "\n")
    assert main(["validate", str(path)]) == 0
    loaded = load_dump(path.read_text().splitlines())
    assert loaded.same_structure(net)
    # inject a reversed link and expect the exact (key, level) in the report
    bad = load_dump(path.read_text().splitlines())
    bad.links[9][0][0] = 14
    report = bad.validate()
    assert not report.ok and (report.key, report.level) == (9, 0)


@pytest.mark.parametrize("text", ["", '{"key":"5","height":0,"levels":[],"live":true}\n'],
                         ids=["empty", "no-header"])
def test_validate_dump_without_header_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "dump.jsonl"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_dump(path.read_text().splitlines())
    assert exc.value.field == "dump"
    assert main(["validate", str(path)]) == 2
    assert 'error: dump: ' in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["simulate", "--config", str(missing),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: {missing}: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "under-a-file"])
def test_out_path_on_a_regular_file_exits_2_before_simulating(
        tmp_path, capsys, monkeypatch, out):
    def forbidden(params):
        raise AssertionError("simulate must check --out before it simulates")

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG)
    (tmp_path / "taken").touch()
    monkeypatch.setattr(cli, "Simulation", forbidden)
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / out)]) == 2
    assert f"error: {tmp_path / out}: cannot create output directory" \
        in capsys.readouterr().err
    assert (tmp_path / "taken").is_file()


_HEAD = '{"net":"C","height":0}\n'


@pytest.mark.parametrize("text, why", [
    (_HEAD + '{"key":"5","levels":[],"live":true}\n',
     "dump line 2: unreadable record: KeyError('height')"),
    (_HEAD + "not json\n", "dump line 2: unreadable record: JSONDecodeError"),
], ids=["no-height", "not-json"])
def test_unreadable_dump_line_exits_2(tmp_path, capsys, text, why):
    path = tmp_path / "dump.jsonl"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert f"error: {why}" in capsys.readouterr().err


def _key(name, height, rights):
    levels = [{"left": "-inf", "right": r, "label": "11"} for r in rights]
    return json.dumps({"key": name, "height": height, "levels": levels, "live": True})


@pytest.mark.parametrize("text, verdict", [
    # the port names key 999, which the net does not hold
    (_HEAD + _key("5", 0, ["999"]), "missing-link key=5 level=0"),
    # key 5 stands at level 1, above every level the sentinels have
    (_HEAD + _key("5", 1, ["+inf", "+inf"]), "height-violation key=5 level=1"),
], ids=["port-to-absent-key", "key-above-net-height"])
def test_validate_fails_a_dump_it_cannot_walk(tmp_path, capsys, text, verdict):
    path = tmp_path / "dump.jsonl"
    path.write_text(text + "\n")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.strip() == verdict


def test_fixture_subcommands():
    for name in ("delete", "create", "merge"):
        assert run_fixture(name) == "OK"
    assert main(["validate", "--fixture", "merge"]) == 0


def test_validate_without_target_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2
    assert "give a dump path or --fixture" in capsys.readouterr().err


def test_validate_with_path_and_fixture_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "/nonexistent/dump.jsonl", "--fixture", "merge"])
    assert exc.value.code == 2
    assert "not both" in capsys.readouterr().err

