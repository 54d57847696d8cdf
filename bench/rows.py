"""Isolated per-layer rows: direct calls into hanoikernel's public functions
with fixed inputs. Run by run.py in its traced run, not by hand.

    rows.py warm          every warm row, in one process, caches filled first
    rows.py cold NAME     one cold row, alone in a fresh process

Each prints one JSON object: {"rows": {name: value}, "checks": {name: bool}}.
A check is False when a row's result disagrees with a value known from
theory, independently of the code under test.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
import tracemalloc

from hanoikernel import analysis, automorphism, f2, game, words
from hanoikernel.perm import Perm
from hanoikernel.permgroup import PermGroup

# |G_N| = 6 * prod_{n<N} 2^(2*3^(n-1)) * 3^(3^n)
G_ORDER = {4: 2**27 * 3**40, 5: 2**81 * 3**121}

COLD_LEMMA_DEPTH = 4


def _median_s(func, repeat: int, number: int = 1) -> float:
    """Median over `repeat` batches of the time of one call, in seconds."""
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            func()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def _random_perm(rng: random.Random, degree: int) -> Perm:
    images = list(range(degree))
    rng.shuffle(images)
    return Perm(images)


def _members(generators: list[Perm], count: int, rng: random.Random) -> list[Perm]:
    out = []
    for _ in range(count):
        p = generators[0] * generators[0]
        for _ in range(32):
            p = p * rng.choice(generators)
        out.append(p)
    return out


def warm_rows() -> tuple[dict, dict]:
    rows, checks = {}, {}
    rng = random.Random(0)

    for degree, number in ((3, 20000), (243, 2000), (729, 500)):
        p, q = _random_perm(rng, degree), _random_perm(rng, degree)
        rows[f"perm.mul_us.d{degree}"] = _median_s(lambda: p * q, 9, number) * 1e6
    p = _random_perm(rng, 243)
    rows["perm.inverse_us.d243"] = _median_s(p.inverse, 9, 2000) * 1e6

    for depth, repeat in ((4, 5), (5, 1)):
        generators = list(analysis.build_quotient(depth, slow=True).generator_map.values())
        built = []

        def build():
            group = PermGroup(3**depth, generators)
            group.order()
            built.append(group)

        rows[f"permgroup.chain_build_s.d{depth}"] = _median_s(build, repeat)
        checks[f"permgroup.chain_build_s.d{depth}"] = all(
            g.order() == G_ORDER[depth] for g in built
        )
        group = built[-1]
        members = _members(generators, 200, rng)
        answers = []
        samples = []
        for m in members:
            t0 = time.perf_counter()
            answers.append(group.contains(m))
            samples.append(time.perf_counter() - t0)
        rows[f"permgroup.sift_us.d{depth}"] = statistics.median(samples) * 1e6
        checks[f"permgroup.sift_us.d{depth}"] = all(answers)

    w4_tau8 = words.tau_power(words.RELATORS["w4"], 8)
    states = []
    rows["words.word_states_ms.tau8"] = (
        _median_s(lambda: states.append(words.word_states(w4_tau8)), 3) * 1e3
    )
    checks["words.word_states_ms.tau8"] = all(root.is_identity() for _, root in states)

    for depth in (5, 6):
        portrait = words.evaluate("acab", depth)
        rows[f"automorphism.leaf_permutation_ms.d{depth}"] = (
            _median_s(lambda: automorphism.leaf_permutation(portrait, depth), 5) * 1e3
        )
    portrait = words.evaluate("acab", 8)
    dot = []
    rows["automorphism.to_dot_ms.d8"] = (
        _median_s(lambda: dot.append(automorphism.to_dot(portrait)), 3) * 1e3
    )
    # one node line per vertex and one edge line per non-root vertex
    vertices = sum(3**k for k in range(9))
    checks["automorphism.to_dot_ms.d8"] = all(
        text.count("\n") == 2 * vertices for text in dot
    )

    dims = []
    rows["f2.level1_stabilizer_space_ms"] = (
        _median_s(lambda: dims.append(f2.level1_stabilizer_space().dim()), 9, 20) * 1e3
    )
    checks["f2.level1_stabilizer_space_ms"] = set(dims) == {4}
    dims = []
    rows["analysis.h_subspace_ms"] = (
        _median_s(lambda: dims.append(analysis.h_subspace().dim()), 5) * 1e3
    )
    checks["analysis.h_subspace_ms"] = set(dims) == {2}

    solutions = []
    rows["game.solve_s.n10"] = _median_s(lambda: solutions.append(game.solve(10)), 3)
    checks["game.solve_s.n10"] = {len(s) for s in solutions} == {2**10 - 1}
    tracemalloc.start()
    game.solve(10)
    rows["game.solve_peak_mb.n10"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    consistent = []
    rows["game.consistency_check_s.n8"] = _median_s(
        lambda: consistent.append(game.consistency_check(8)), 3
    )
    checks["game.consistency_check_s.n8"] = all(consistent)
    return rows, checks


def cold_row(name: str) -> tuple[dict, dict]:
    """One row whose caches start empty: this process has run nothing else."""
    if name == "words.evaluate_ms.tau8-d8":
        word = words.tau_power(words.RELATORS["w4"], 8)
        t0 = time.perf_counter()
        portrait = words.evaluate(word, 8)
        elapsed = time.perf_counter() - t0
        return {name: elapsed * 1e3}, {name: portrait.is_identity()}
    lemma = name.removeprefix("analysis.lemma.").removesuffix("_s")
    t0 = time.perf_counter()
    report = analysis.verify_lemma(lemma, depth=COLD_LEMMA_DEPTH)
    elapsed = time.perf_counter() - t0
    return {name: elapsed}, {name: report.passed}


def main() -> None:
    if sys.argv[1] == "warm":
        rows, checks = warm_rows()
    else:
        rows, checks = cold_row(sys.argv[2])
    print(json.dumps({"rows": rows, "checks": checks}))


if __name__ == "__main__":
    main()
