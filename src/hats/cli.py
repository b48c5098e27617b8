"""Command-line front end.

Subcommands:

    build <expr-file> [--out game.json] [--dot graph.dot]
    verify <expr-file> [--sample N --seed S] [--jobs J] [--limit L]
    solve <game.json> [--budget N]
    embed-check <game.json>
    info <expr-file>

Exit codes: 0 success / winning confirmed, 1 counterexample / losing /
failed certificate, 2 unknown (sampled evidence, exhausted budget,
missing certificate), 64 usage, file or expression errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from . import dsl, embedding
from .constructors import ComposedGame
from .core import (
    CapacityError,
    Game,
    HatsError,
    LOSING,
    WINNING,
    dump_game,
    load_game,
    value_list,
)
from .solver import SearchBudget, solve_exact
from .verifier import verify_exhaustive, verify_sampled

EX_OK = 0
EX_FAIL = 1
EX_UNKNOWN = 2
EX_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def export_dot(game: Game) -> str:
    """DOT text with vertices labeled ``name:hatness``."""
    lines = ["graph hats {"]
    for v in game.graph.vertices:
        lines.append(f'  "{v}" [label="{v}:{game.h(v)}"];')
    for a, b in game.graph.edges:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser() -> _Parser:
    """The one parser every `main` call shares; parsing leaves it unchanged."""
    parser = _Parser(prog="hats", description="Hat-guessing games on graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="elaborate an expression to a game document")
    p.add_argument("expr_file")
    p.add_argument("--out", help="write the game JSON here instead of stdout")
    p.add_argument("--dot", help="also write a DOT rendering here")

    p = sub.add_parser("verify", help="sweep a built game's strategy")
    p.add_argument("expr_file")
    p.add_argument("--sample", type=int, help="sample this many assignments instead of sweeping")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--jobs", type=int,
                   help="at most this many worker threads (default: CPUs this process may use, HATS_JOBS overrides)")
    p.add_argument("--limit", type=int, default=2 ** 64, help="exhaustive capacity limit, at least 1 (clamped to 2**64)")

    p = sub.add_parser("solve", help="decide a tiny game exactly")
    p.add_argument("game_file")
    p.add_argument("--budget", type=int, default=1_000_000, help="max branch nodes")

    p = sub.add_parser("embed-check", help="check a game document's rotation system")
    p.add_argument("game_file")

    p = sub.add_parser("info", help="describe a built game")
    p.add_argument("expr_file")
    return parser


def _elaborate_file(path: str) -> ComposedGame:
    text = Path(path).read_text()
    return dsl.elaborate(dsl.parse(text))


def _verdict_exit(status: str) -> int:
    return {WINNING: EX_OK, LOSING: EX_FAIL}.get(status, EX_UNKNOWN)


def _cmd_build(args) -> int:
    composed = _elaborate_file(args.expr_file)
    text = dump_game(composed.game, composed.rotation)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if args.dot:
        Path(args.dot).write_text(export_dot(composed.game))
    return EX_OK


def _cmd_verify(args) -> int:
    composed = _elaborate_file(args.expr_file)
    if composed.strategy is None:
        verdict = composed.verdict.status
        print(json.dumps({"verdict": verdict, "report": None}))
        return _verdict_exit(verdict)
    if args.sample is not None:
        report = verify_sampled(composed.game, composed.strategy, args.sample,
                                args.seed, jobs=args.jobs)
        print(report.dumps())
        return EX_FAIL if report.counterexample is not None else EX_UNKNOWN
    report = verify_exhaustive(composed.game, composed.strategy,
                               limit=args.limit, jobs=args.jobs)
    print(report.dumps())
    return EX_FAIL if report.counterexample is not None else EX_OK


def _cmd_solve(args) -> int:
    game, _ = load_game(Path(args.game_file).read_text())
    result = solve_exact(game, SearchBudget(args.budget))
    print(json.dumps(result.to_json(), indent=2))
    return _verdict_exit(result.status)


def _cmd_embed_check(args) -> int:
    game, rotation = load_game(Path(args.game_file).read_text())
    if rotation is None:
        print(json.dumps({"rotation": False}))
        return EX_UNKNOWN
    planar = embedding.is_planar_embedding(game.graph, rotation)
    doc = {
        "rotation": True,
        "faces": embedding.face_trace(game.graph, rotation),
        "planar": planar,
        "outerplanar": planar and embedding.is_outerplanar_embedding(game.graph, rotation),
    }
    print(json.dumps(doc, indent=2))
    return EX_OK if planar else EX_FAIL


def _cmd_info(args) -> int:
    composed = _elaborate_file(args.expr_file)
    game = composed.game
    doc = {
        "vertices": len(game.graph.vertices),
        "edges": len(game.graph.edges),
        "value_list": list(value_list(game)),
        "min_hatness": min(game.hat_tuple),
        "verdict": composed.verdict.status,
        "has_rotation": composed.rotation is not None,
        "provenance": composed.verdict.provenance.render(),
    }
    print(json.dumps(doc, indent=2))
    return _verdict_exit(composed.verdict.status)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    handlers = {
        "build": _cmd_build,
        "verify": _cmd_verify,
        "solve": _cmd_solve,
        "embed-check": _cmd_embed_check,
        "info": _cmd_info,
    }
    try:
        return handlers[args.command](args)
    except (OSError, UnicodeDecodeError) as exc:
        # A missing, unreadable or non-UTF-8 file, or a directory.
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_UNKNOWN
    except HatsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
