"""One benchmark pass in its own process; run by run.py, not by hand.

    child.py sift [--speed | --trace SPANS_FILE] QUERIES_JSON
    child.py cli (--speed | --trace SPANS_FILE) ARGS...

``sift`` times set-up (interpreter, package import, build_quotient at depth 5
and the first chain build) and then one PermGroup.contains call per query.
``cli`` runs hanoikernel's CLI in-process and captures its output. With
``--speed`` the pass samples machine speed (see speed.py) from its first
line; with ``--trace`` it records spans. Each prints one JSON object on
stdout.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import sys  # noqa: E402

import speed  # noqa: E402

SAMPLER = None
if sys.argv[2:3] == ["--speed"]:
    SAMPLER = speed.Sampler()
    SAMPLER.start()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

SIFT_DEPTH = 5


def _tracer(spans_file):
    if spans_file is None:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _finish(tracer, spans_file, out: dict) -> None:
    if SAMPLER is not None:
        SAMPLER.stop()
        out["speed"] = SAMPLER.report()
    if tracer is not None:
        tracer.write(spans_file)
        out["trace"] = tracer.summary()
    print(json.dumps(out))


def sift(queries_file: str, spans_file: str | None) -> None:
    from hanoikernel import analysis
    from hanoikernel.perm import Perm

    tracer = _tracer(spans_file)
    group = analysis.build_quotient(SIFT_DEPTH, slow=True).group
    order = group.order()
    # The main thread's CPU time counts from process start, so it includes
    # the interpreter. Sifts are not sampled, so no slice lands in a latency.
    if SAMPLER is not None:
        SAMPLER.stop()
    setup_cpu_s, setup_wall_s = time.thread_time(), time.perf_counter() - START
    with open(queries_file) as handle:
        perms = [Perm(images) for images in json.load(handle)]
    clock = time.perf_counter_ns
    answers, latencies = [], []
    for p in perms:
        t0 = clock()
        answer = group.contains(p)
        latencies.append(clock() - t0)
        answers.append(answer)
    out = {
        "setup_cpu_s": setup_cpu_s,
        "setup_wall_s": setup_wall_s,
        "order": order,
        "answers": answers,
        "latency_ns": latencies,
    }
    _finish(tracer, spans_file, out)


def cli(argv: list[str], spans_file: str) -> None:
    from hanoikernel import cli as hanoikernel_cli

    tracer = _tracer(spans_file)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = hanoikernel_cli.main(argv)
    _finish(tracer, spans_file, {"exit": code, "stdout": stdout.getvalue()})


def main() -> None:
    mode, rest = sys.argv[1], sys.argv[2:]
    spans_file = None
    if rest[:1] == ["--speed"]:
        rest = rest[1:]
    elif rest[:1] == ["--trace"]:
        spans_file, rest = rest[1], rest[2:]
    if mode == "sift":
        sift(rest[0], spans_file)
    else:
        cli(rest, spans_file)


if __name__ == "__main__":
    main()
