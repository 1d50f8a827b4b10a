"""Experiment harness: simulate and validate.

Configs are plain key = value text; churn_rate_expr accepts arithmetic over
n (e.g. "n/(10*log2(n)^2)"). Exit code of `simulate` is 0 exactly when the
run finished with zero protocol failures and zero query violations.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from . import fixtures, metrics
from .errors import ChurnSkipError, ConfigError, RateTooHigh
from .maintenance import Simulation
from .params import SimParams
from .phase_buffer import create_buffer
from .phase_delete import delete_phase
from .phase_merge import event_record, wave_merge
from .skiplist import BUF_LS, BUF_RS, LS, RS, SkipNet, key_name, oracle_build

_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
    # a float power overflows at once where an integer one would grow
    # without bound: 2^2^40 has 2^40 bits
    ast.Pow: math.pow, ast.USub: operator.neg,
}
_FUNCS = {"log2": math.log2, "log": math.log, "floor": math.floor,
          "ceil": math.ceil, "sqrt": math.sqrt, "min": min, "max": max}


def eval_rate_expr(expr: str, n: int) -> int:
    """Arithmetic over n with log2/log/floor/ceil/sqrt; ^ means power."""
    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ConfigError("churn_rate_expr", f"parse error: {exc}") from exc

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.Name):
            if node.id == "n":
                return n
            raise ConfigError("churn_rate_expr", f"unknown name {node.id!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return _OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _OPS:
            return _OPS[type(node.op)](ev(node.operand))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _FUNCS:
            return _FUNCS[node.func.id](*(ev(a) for a in node.args))
        raise ConfigError("churn_rate_expr", f"disallowed syntax: {ast.dump(node)}")

    try:
        return int(math.floor(ev(tree)))
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise ConfigError("churn_rate_expr", f"cannot evaluate {expr!r}: {exc}") from exc


# The config keys are the SimParams fields, each read as its declared type,
# except that the churn rate is given as an expression over n.
_TYPES = get_type_hints(SimParams)
_FIELDS = {f.name: _TYPES[f.name] for f in fields(SimParams)
           if f.name != "churn_rate"}
_FIELDS["churn_rate_expr"] = str
_EXPECTED = {int: "integer", float: "number"}


def parse_config(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(key, "unknown config field")
        kind = _FIELDS[key]
        try:
            out[key] = kind(value)
        except ValueError:
            raise ConfigError(key, f"expected {_EXPECTED[kind]}, got {value!r}")
    if "n" not in out:
        raise ConfigError("n", "required")
    return out


def params_from_config(cfg: dict, seed_adv=None, seed_alg=None) -> SimParams:
    cfg = dict(cfg)
    expr = cfg.pop("churn_rate_expr", "0")
    if seed_adv is not None:
        cfg["seed_adv"] = seed_adv
    if seed_alg is not None:
        cfg["seed_alg"] = seed_alg
    rate = eval_rate_expr(expr, cfg["n"])
    probe = SimParams(n=cfg["n"])
    if rate > probe.churn_cap:
        raise RateTooHigh(
            f"churn_rate_expr gives {rate}/round, cap {probe.churn_cap}")
    return SimParams(churn_rate=rate, **cfg)


# -- dump load/validate -------------------------------------------------------


_NAME_TO_KEY = {key_name(key): key for key in (LS, BUF_LS, BUF_RS, RS)}


def _parse_key(name: str) -> int:
    return _NAME_TO_KEY[name] if name in _NAME_TO_KEY else int(name)


def load_dump(lines) -> SkipNet:
    net = None
    for lineno, line in enumerate(lines, 1):
        try:
            rec = json.loads(line)
            if "net" in rec:
                net = SkipNet(rec["net"])
                net.ensure_height(rec["height"])
                continue
            if net is None:
                raise ConfigError("dump", 'a key comes before the {"net": ...} line')
            key = _parse_key(rec["key"])
            net.add_key(key, rec["height"])
            for lvl, ports in enumerate(rec["levels"]):
                net.links[key][lvl][0] = _parse_key(ports["left"])
                net.links[key][lvl][1] = _parse_key(ports["right"])
                if ports["label"] == "10":
                    a, b = sorted((key, net.links[key][lvl][1]))
                    net.pending.add((lvl, a, b))
            if rec.get("live"):
                net.live.add(key)
        except (LookupError, TypeError, ValueError) as exc:
            raise ConfigError(f"dump line {lineno}", f"unreadable record: {exc!r}") from exc
    if net is None:
        raise ConfigError("dump", 'no {"net": ...} line')
    # sentinel ports are not dumped per key; rebuild them from the edges
    for lvl in range(net.height + 1):
        firsts = [k for k in net.heights
                  if net.heights[k] >= lvl and net.links[k][lvl][0] == LS]
        lasts = [k for k in net.heights
                 if net.heights[k] >= lvl and net.links[k][lvl][1] == RS]
        if firsts:
            net.links[LS][lvl][1] = min(firsts)
        if lasts:
            net.links[RS][lvl][0] = max(lasts)
    return net


# -- fixtures -----------------------------------------------------------------


def run_fixture(name: str) -> str:
    if name == "delete":
        net, reds = fixtures.delete_instance()
        keys = sorted(k for k in net.heights if k not in reds)
        reference = oracle_build(keys, [net.heights[k] for k in keys])
        delete_phase(net, reds)
        if not net.same_structure(reference):
            return "delete fixture: post-deletion structure mismatch"
        return "OK"
    if name == "create":
        heights = fixtures.create_instance()
        buf, summary, _ = create_buffer(sorted(heights), heights)
        keys = sorted(heights)
        top = max(heights.values())
        ref = oracle_build([BUF_LS, *keys, BUF_RS],
                           [top, *(heights[k] for k in keys), top])
        if not buf.same_structure(ref):
            return "create fixture: buffer creation mismatch"
        return "OK"
    if name == "merge":
        clean, heights = fixtures.merge_instance()
        buf, _, _ = create_buffer(sorted(heights), heights)
        summary, _, events = wave_merge(clean, buf)
        got = [e[1:5] for e in events]    # round, group_leader, event, level
        if got != fixtures.MERGE_GOLDEN_TRACE:
            return "merge fixture: fresh run diverges from the golden event trace"
        if not clean.validate().ok:
            return "merge fixture: merged structure invalid"
        return "OK"
    return f"unknown fixture {name!r}"


# -- subcommands ----------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(path, f"cannot read: {exc}") from exc


def cmd_simulate(args) -> int:
    cfg = parse_config(_read(args.config))
    params = params_from_config(cfg, args.seed_adv, args.seed_alg)
    out = Path(args.out)
    # before the run, which an unusable output path would otherwise waste
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(args.out, f"cannot create output directory: {exc}") from exc
    sim = Simulation(params)
    sim.run()
    (out / "trace.jsonl").write_text("\n".join(sim.world.trace_lines()) + "\n")
    (out / "schedule.txt").write_text(sim.schedule.serialize())
    (out / "cycles.jsonl").write_text(
        "\n".join(json.dumps(c.as_record()) for c in sim.cycles) + "\n")
    (out / "phases.jsonl").write_text(
        "\n".join(json.dumps(r) for r in sim.phase_records) + "\n")
    (out / "census.jsonl").write_text(
        "\n".join(json.dumps(c.as_record())
                   for c in sim.overlay.census_log) + "\n")
    (out / "merge_events.jsonl").write_text(
        "\n".join(json.dumps(event_record(e)) for e in sim.merge_events) + "\n")
    (out / "dump.jsonl").write_text("\n".join(sim.clean.dump_lines()) + "\n")
    windows = metrics.cycle_windows(sim)
    (out / "competitiveness.jsonl").write_text(
        "\n".join(json.dumps(w.as_record()) for w in windows) + "\n")
    (out / "summary.csv").write_text("\n".join(metrics.csv_rows([sim])) + "\n")
    report = metrics.whp_report([sim])
    (out / "metrics.txt").write_text("\n".join(report.lines()) + "\n")
    print(f"rounds={sim.world.round} cycles={len(sim.cycles)} "
          f"failures={len(sim.world.failures)} "
          f"queries={len(sim.query_log)} q_violations={report.q_violations} "
          f"ledger_complete={metrics.ledger_complete(sim)}")
    ok = not sim.world.failures and not report.q_violations
    return 0 if ok else 1


def cmd_validate(args) -> int:
    if args.fixture:
        verdict = run_fixture(args.fixture)
        print(verdict)
        return 0 if verdict == "OK" else 1
    net = load_dump(_read(args.path).splitlines())
    report = net.validate()
    print(report)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="churnskip")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="run a configured simulation")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default="out")
    sim.add_argument("--seed-adv", type=int, default=None)
    sim.add_argument("--seed-alg", type=int, default=None)
    sim.set_defaults(fn=cmd_simulate)

    val = sub.add_parser("validate", help="validate a dump or built-in fixture")
    val.add_argument("path", nargs="?")
    val.add_argument("--fixture", choices=("delete", "create", "merge"))
    val.set_defaults(fn=cmd_validate)

    args = parser.parse_args(argv)
    if args.cmd == "validate" and bool(args.path) == bool(args.fixture):
        val.error("give a dump path or --fixture, not both")
    try:
        return args.fn(args)
    except ChurnSkipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
