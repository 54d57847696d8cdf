"""Command-line front end.

Machine-readable JSON goes to stdout (or --out); a one-line-per-check human
summary goes to stderr. Exit codes: 0 all checks pass, 1 a verification
failed, 2 usage error, 3 resource cap exceeded.
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

    qtable = sub.add_parser("qtable", help="indices of rigid inside level stabilizers")
    qtable.add_argument("--n-max", type=int, default=2)
    qtable.add_argument("--depth", type=int, default=4)
    qtable.add_argument("--slow", action="store_true", help=SLOW_HELP)

    kernel = sub.add_parser("kernel-report", help="the full rigid-kernel bookkeeping")
    kernel.add_argument("--n-max", type=int, default=2)
    kernel.add_argument("--depth", type=int, default=4)
    kernel.add_argument("--slow", action="store_true", help=SLOW_HELP)

    relators = sub.add_parser("relators", help="check the defining relators")
    relators.add_argument("--max-tau", type=int, default=4)
    relators.add_argument("--depth", type=int, default=4)

    game_cmd = sub.add_parser("game", help="the disk-moving game")
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

    return parser


def _write(text: str, out_path: str | None) -> bool:
    """Write text and a newline to the --out file, or else to stdout.

    Returns False, after one error line, when the file cannot be opened.
    """
    if not out_path:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader has gone. Point stdout at the null device, so that
            # the flush at exit does not fail again, and finish the run.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return True
    try:
        handle = open(out_path, "w")
    except OSError as err:
        print(f"error: cannot write {out_path}: {err.strerror}", file=sys.stderr)
        return False
    with handle:
        handle.write(text + "\n")
    return True


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


def _emit(report: dict, out_path: str | None) -> bool:
    return _write(json.dumps(report, indent=2, sort_keys=True), out_path)


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


def _run_verify(args) -> tuple[dict | None, int]:
    ids = list(args.ids)
    unknown = [i for i in ids if i != "all" and i not in analysis.LEMMA_IDS]
    if unknown:
        print(f"error: unknown lemma ids: {', '.join(unknown)}", file=sys.stderr)
        return None, EXIT_USAGE
    if args.list:
        lines = [f"{i:11s} {analysis.LEMMA_STATEMENTS[i]}" for i in analysis.LEMMA_IDS]
        _write("\n".join(lines), None)
        return None, EXIT_PASS
    if not ids:
        print("error: give lemma ids or 'all' (see verify --list)", file=sys.stderr)
        return None, EXIT_USAGE
    if "all" in ids:
        ids = [i for i in ids if i != "all"] + list(analysis.LEMMA_IDS)
    # output order fixed by id
    results = [analysis.verify_lemma(lemma, depth=args.depth) for lemma in sorted(set(ids))]
    params = {"depth": args.depth, "slow": args.slow}
    return _report("verify", params, results), None


def _run_qtable(args) -> tuple[dict | None, int]:
    results = analysis.q_table(args.n_max, args.depth)
    params = {"n_max": args.n_max, "depth": args.depth, "slow": args.slow}
    return _report("qtable", params, results), None


def _run_kernel_report(args) -> tuple[dict | None, int]:
    report = analysis.kernel_report(args.n_max, args.depth)
    out = _report("kernel-report", {"n_max": args.n_max, "depth": args.depth}, report.results())
    out["table"] = report.to_json_dict()
    return out, None


def _run_relators(args) -> tuple[dict | None, int]:
    results = analysis.check_relators(args.max_tau, args.depth)
    params = {"max_tau": args.max_tau, "depth": args.depth}
    return _report("relators", params, results), None


def _run_game(args) -> tuple[dict | None, int]:
    from . import game

    if args.game_command == "act":
        try:
            state = tuple(int(s) for s in args.state.split(","))
            game.check_state(state)
        except ValueError:
            print(
                f"error: --state {args.state!r}: expected comma-separated pegs 1-3",
                file=sys.stderr,
            )
            return None, EXIT_USAGE
        results = [game.act_result(state, args.move)]
        return _report("game", {"move": args.move}, results), None
    return _report("game", {"disks": args.disks}, [game.solve_result(args.disks)]), None


def _run_export(args) -> tuple[dict | None, int]:
    try:
        words.check_word(args.word)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return None, EXIT_USAGE
    if args.format == "dot" and args.depth > analysis.DEPTH_CAP:
        # dot output grows about 3x per level: 0.7 MB at depth 8
        raise ResourceLimitError(
            f"dot export at depth {args.depth} exceeds the depth cap {analysis.DEPTH_CAP}"
        )
    portrait = words.evaluate(args.word, args.depth)
    if args.format == "dot":
        written = _write(automorphism.to_dot(portrait), args.out)
    else:
        written = _emit(automorphism.to_json_dict(portrait), args.out)
    return None, EXIT_PASS if written else EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
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

    if args.out and (reason := _out_error(args.out)):
        print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
        return EXIT_USAGE

    runners = {
        "verify": _run_verify,
        "qtable": _run_qtable,
        "kernel-report": _run_kernel_report,
        "relators": _run_relators,
        "game": _run_game,
        "export": _run_export,
    }
    try:
        report, code = runners[args.command](args)
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DepthError, ShapeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if report is None:
        return code
    if not _emit(report, args.out):
        return EXIT_USAGE
    _summary(report["results"])
    return EXIT_PASS if report["pass"] else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
