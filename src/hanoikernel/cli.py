"""Command-line front end.

Machine-readable JSON goes to stdout (or --out); a one-line-per-check human
summary goes to stderr. Exit codes: 0 all checks pass, 1 a verification
failed, 2 usage error, 3 resource cap exceeded. Each subcommand's runner
returns its report, or None when it wrote its own output, and raises
ShapeError for a usage error; main alone maps the outcome to an exit code.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from . import analysis, automorphism, words
from .errors import DepthError, ResourceLimitError, ShapeError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

SLOW_HELP = "no effect: every depth up to 6 runs without it (kept for old command lines)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hanoikernel",
        description="Finite-depth verification for the Hanoi towers group",
    )
    parser.add_argument("--out", help="write the JSON report to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run structural checks by id")
    verify.add_argument("ids", nargs="*", help="lemma ids, or 'all'")
    verify.add_argument("--depth", type=int, default=4)
    verify.add_argument("--slow", action="store_true", help=SLOW_HELP)
    verify.add_argument("--list", action="store_true", help="list known ids")
    verify.set_defaults(run=_run_verify)

    qtable = sub.add_parser("qtable", help="indices of rigid inside level stabilizers")
    qtable.add_argument("--n-max", type=int, default=2)
    qtable.add_argument("--depth", type=int, default=4)
    qtable.add_argument("--slow", action="store_true", help=SLOW_HELP)
    qtable.set_defaults(run=_run_qtable)

    kernel = sub.add_parser("kernel-report", help="the full rigid-kernel bookkeeping")
    kernel.add_argument("--n-max", type=int, default=2)
    kernel.add_argument("--depth", type=int, default=4)
    kernel.add_argument("--slow", action="store_true", help=SLOW_HELP)
    kernel.set_defaults(run=_run_kernel_report)

    relators = sub.add_parser("relators", help="check the defining relators")
    relators.add_argument("--max-tau", type=int, default=4)
    relators.add_argument("--depth", type=int, default=4)
    relators.set_defaults(run=_run_relators)

    game_cmd = sub.add_parser("game", help="the disk-moving game")
    game_cmd.set_defaults(run=_run_game)
    game_sub = game_cmd.add_subparsers(dest="game_command", required=True)
    act = game_sub.add_parser("act", help="apply a move to a state")
    act.add_argument("--state", required=True, help="comma-separated pegs, e.g. 2,1,3,2,2,1")
    act.add_argument("--move", required=True, choices=["a", "b", "c"])
    solve = game_sub.add_parser("solve", help="shortest solution word")
    solve.add_argument("--disks", type=int, required=True)

    export = sub.add_parser("export", help="export a word's portrait")
    export_sub = export.add_subparsers(dest="export_command", required=True)
    portrait = export_sub.add_parser("portrait")
    portrait.add_argument("word")
    portrait.add_argument("--depth", type=int, default=4)
    portrait.add_argument("--format", choices=["dot", "json"], default="json")
    portrait.set_defaults(run=_run_export)

    return parser


def _write(text: str, out_path: str | None) -> None:
    """Write text and a newline to the --out file, or else to stdout; raise
    ShapeError when that fails, unless the reader of stdout has gone."""
    try:
        if not out_path:
            print(text, flush=True)
            return
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    except OSError as err:
        if not out_path:
            # Point stdout at the null device, so that the flush at exit
            # does not fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(err, BrokenPipeError):
                return  # the reader has gone: finish the run
        raise ShapeError(f"cannot write {out_path or 'stdout'}: {err.strerror}") from None


def _out_error(out_path: str) -> str | None:
    """Why the --out file cannot be written, or None; checked before a run
    without creating or truncating the file."""
    if os.path.isdir(out_path):
        return os.strerror(errno.EISDIR)
    if os.path.exists(out_path):
        return None if os.access(out_path, os.W_OK) else os.strerror(errno.EACCES)
    folder = os.path.dirname(out_path) or "."
    if not os.path.isdir(folder):
        return os.strerror(errno.ENOENT)
    return None if os.access(folder, os.W_OK | os.X_OK) else os.strerror(errno.EACCES)


def _emit(report: dict, out_path: str | None) -> None:
    _write(json.dumps(report, indent=2, sort_keys=True), out_path)


def _summary(results: list[dict]) -> None:
    for row in results:
        status = "pass" if row["pass"] else "FAIL"
        print(f"{status}  {row['id']}", file=sys.stderr)


def _report(command: str, params: dict, results: list[analysis.Result]) -> dict:
    return {
        "command": command,
        "params": params,
        "results": [r.to_json_dict() for r in results],
        "pass": all(r.passed for r in results),
    }


def _run_verify(args) -> dict | None:
    ids = list(args.ids)
    unknown = [i for i in ids if i != "all" and i not in analysis.LEMMA_IDS]
    if unknown:
        raise ShapeError(f"unknown lemma ids: {', '.join(unknown)}")
    if args.list:
        lines = [f"{i:11s} {analysis.LEMMA_STATEMENTS[i]}" for i in analysis.LEMMA_IDS]
        _write("\n".join(lines), None)
        return None
    if not ids:
        raise ShapeError("give lemma ids or 'all' (see verify --list)")
    if "all" in ids:
        ids = [i for i in ids if i != "all"] + list(analysis.LEMMA_IDS)
    # output order fixed by id
    results = [analysis.verify_lemma(lemma, depth=args.depth) for lemma in sorted(set(ids))]
    params = {"depth": args.depth, "slow": args.slow}
    return _report("verify", params, results)


def _run_qtable(args) -> dict:
    results = analysis.q_table(args.n_max, args.depth)
    params = {"n_max": args.n_max, "depth": args.depth, "slow": args.slow}
    return _report("qtable", params, results)


def _run_kernel_report(args) -> dict:
    report = analysis.kernel_report(args.n_max, args.depth)
    out = _report("kernel-report", {"n_max": args.n_max, "depth": args.depth}, report.results())
    out["table"] = report.to_json_dict()
    return out


def _run_relators(args) -> dict:
    results = analysis.check_relators(args.max_tau, args.depth)
    params = {"max_tau": args.max_tau, "depth": args.depth}
    return _report("relators", params, results)


def _run_game(args) -> dict:
    from . import game

    if args.game_command == "solve":
        return _report("game", {"disks": args.disks}, [game.solve_result(args.disks)])
    try:
        state = game.check_state(tuple(int(s) for s in args.state.split(",")))
    except ValueError:
        raise ShapeError(f"--state {args.state!r}: expected comma-separated pegs 1-3") from None
    return _report("game", {"move": args.move}, [game.act_result(state, args.move)])


def _run_export(args) -> None:
    try:
        words.check_word(args.word)
    except ValueError as err:
        raise ShapeError(str(err)) from None
    if args.format == "dot" and args.depth > analysis.DEPTH_CAP:
        # dot output grows about 3x per level: 0.7 MB at depth 8
        raise ResourceLimitError(
            f"dot export at depth {args.depth} exceeds the depth cap {analysis.DEPTH_CAP}"
        )
    portrait = words.evaluate(args.word, args.depth)
    if args.format == "dot":
        _write(automorphism.to_dot(portrait), args.out)
    else:
        _emit(automorphism.to_json_dict(portrait), args.out)


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place that maps its outcome to an exit code."""
    # every package log line is INFO, so at the default ERROR level no
    # line is shown and logging need not be loaded (log.py)
    name = os.environ.get("LOGLEVEL", "error").upper()
    if name != "ERROR":
        import logging

        # getLevelName maps a level's name to its number, and any other
        # string to a string
        level = logging.getLevelName(name)
        logging.basicConfig(level=level if isinstance(level, int) else logging.ERROR)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_PASS

    try:
        if args.out and (reason := _out_error(args.out)):
            raise ShapeError(f"cannot write {args.out}: {reason}")
        report = args.run(args)
        if report is None:
            return EXIT_PASS
        _emit(report, args.out)
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DepthError, ShapeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    _summary(report["results"])
    return EXIT_PASS if report["pass"] else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
