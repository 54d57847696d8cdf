"""Word algebra over the involutive alphabet {a, b, c}.

The three letters follow the wreath recursion

    a = (a, 1, 1) (2 3)    b = (1, b, 1) (1 3)    c = (1, 1, c) (1 2)

so each letter keeps a single nontrivial first-level state (itself) and
permutes the other two subtrees. Every letter is an involution, hence words
never need formal inverses: the inverse of a word is its reversal, and the
only rewriting ever applied is free cancellation xx -> empty.

Evaluation splits each distinct word once: a private memo of word_states,
keyed by the word alone, serves every depth _evaluate_reduced asks for.
word_states itself walks a short word letter by letter. A word longer than
four 64-letter chunks is read chunk by chunk through a per-call cache keyed
by the root label and the chunk, which holds the chunk's three unreduced
state pieces and the label after it; the tau-iterates of the relators are
morphic words whose chunks repeat. If the first chunks mostly miss, the
word goes back to the letter loop. The concatenated pieces are reduced by
splicing: cut between equal adjacent letters, each piece is reduced, and a
stack cancels each piece against the one before along their longest common
reversed prefix, found by binary search on slices. tau is three
str.replace calls, and relator_family applies it once per step.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Hashable, Iterable, Sequence

from . import automorphism
from .automorphism import Portrait
from .errors import ResourceLimitError, ShapeError
from .perm import Perm

ALPHABET = "abc"

# Root permutations of the generators; the cycle (1 2 3) maps 1->2->3->1.
ROOT_PERMS = {
    "a": Perm.from_cycles(3, [(2, 3)]),
    "b": Perm.from_cycles(3, [(1, 3)]),
    "c": Perm.from_cycles(3, [(1, 2)]),
}

# Coordinate (1-based) of the letter's single nontrivial state.
_HOME = {"a": 1, "b": 2, "c": 3}


def _s3_tables() -> tuple[tuple[Perm, ...], tuple[dict[str, tuple[int, int]], ...]]:
    """The root labels a word can reach, and one letter's step from each.

    Index 0 is the identity; the rest follow in breadth-first order over the
    alphabet, which reaches all six elements of S_3. ``step[s][letter]`` is
    the 0-based coordinate that receives the letter when the running root
    label is ``labels[s]``, and the index of the label after the letter.
    """
    labels = [Perm.identity(3)]
    step = []
    for root in labels:  # grows while it is walked
        row = {}
        for ch in ALPHABET:
            after = root * ROOT_PERMS[ch]
            if after not in labels:
                labels.append(after)
            row[ch] = (root.inverse().apply(_HOME[ch]) - 1, labels.index(after))
        step.append(row)
    return tuple(labels), tuple(step)


_S3, _STEP = _s3_tables()

# Words generating the first-level stabilizer.
LEVEL1_STABILIZER_WORDS = ("acab", "abac", "bcba", "babc")

# Each tau step about triples a relator's length, and the cost of checking it.
MAX_TAU = 12

# Evaluation recurses once per level, and each level of _evaluate_reduced
# takes three of the 1000 frames Python allows by default: the function, its
# generator expression and the lru_cache call. Depth 330 exceeds them.
MAX_DEPTH = 250

_OUTSIDE_ALPHABET = re.compile(f"[^{ALPHABET}]").search
_DOUBLED = tuple(ch + ch for ch in ALPHABET)


def check_word(word: str) -> str:
    bad = _OUTSIDE_ALPHABET(word)
    if bad:
        raise ValueError(f"letter {bad.group()!r} outside alphabet {ALPHABET!r}")
    return word


def free_reduce(word: str) -> str:
    """Cancel adjacent equal letters until none remain."""
    check_word(word)
    if not any(pair in word for pair in _DOUBLED):
        return word
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def inverse_word(word: str) -> str:
    """Inverse by reversal; every letter is an involution."""
    return check_word(word)[::-1]


def conjugate(x: str, y: str) -> str:
    """x conjugated by y: y^-1 x y."""
    return free_reduce(inverse_word(y) + x + y)


def commutator(x: str, y: str) -> str:
    """[x, y] = x^-1 y^-1 x y."""
    return free_reduce(inverse_word(x) + inverse_word(y) + x + y)


def tau(word: str) -> str:
    """The substitution endomorphism a -> a, b -> cbc, c -> bcb."""
    # b is parked on a letter outside the alphabet while c is substituted
    substituted = check_word(word).replace("b", "_").replace("c", "bcb")
    return free_reduce(substituted.replace("_", "cbc"))


def tau_power(word: str, n: int) -> str:
    for _ in range(n):
        word = tau(word)
    return word


def parity_vector(word: str) -> tuple[int, int, int]:
    """Letter counts mod 2; zero exactly on words of the derived subgroup."""
    check_word(word)
    return tuple(word.count(ch) % 2 for ch in ALPHABET)  # type: ignore[return-value]


def word_states(word: str) -> tuple[tuple[str, str, str], Perm]:
    """First-level decomposition of a word.

    Returns the three state words (freely reduced) and the root permutation.
    Each letter lands in the single state whose current image is the letter's
    home coordinate, then multiplies the running root permutation; both come
    from one lookup in the step table of the six root labels. A word longer
    than _CHUNKED_MIN letters is split by chunks instead (_chunked_states).
    """
    check_word(word)
    if len(word) > _CHUNKED_MIN:
        split = _chunked_states(word)
        if split is not None:
            return split
    states: tuple[list[str], ...] = ([], [], [])
    s = 0
    for ch in word:
        coordinate, s = _STEP[s][ch]
        bucket = states[coordinate]
        if bucket and bucket[-1] == ch:
            bucket.pop()
        else:
            bucket.append(ch)
    return tuple("".join(b) for b in states), _S3[s]  # type: ignore[return-value]


# A long word is split in chunks of _CHUNK letters. The tau-iterates of the
# relators are morphic words, so their chunks repeat: the 20 words of
# `relators --max-tau 8` split by chunks have 11,001 chunks, of which 240
# miss the per-word cache. Words of at most four chunks keep the letter
# loop: on slices of tau^8(w4) the chunks win only from about four chunks
# on (256 letters: 17 against 25 us), and on random words, which miss every
# chunk, they cost up to twice the loop.
_CHUNK = 64
_CHUNKED_MIN = 4 * _CHUNK
# The chunks are given up for the letter loop once more than _CHUNK_MISSES
# of them, and more than half of those read so far, missed. On 20 random
# words of 20,000 letters word_states then costs the same as the letter
# loop alone, on 2,000 letters 1.1 times as much, and on 300 to 1,000
# letters, which give up late or never, 1.3 to 1.8 times.
_CHUNK_MISSES = 8
# Above one doubled letter per _SPLICE_SPAN letters, a raw state is reduced
# by free_reduce's letter stack instead of splicing. On 30,000-letter
# reduced words with a doubled letter every 32 letters splicing took 1.5
# times as long as free_reduce, every 64 the same, every 128 less. The
# relators' raw states have 176 doubled letters in 703,334.
_SPLICE_SPAN = 64


def _chunked_states(word: str) -> tuple[tuple[str, str, str], Perm] | None:
    """word_states of a long word, by chunks; None once too many miss.

    A chunk read from root label s always sends the same letters to the same
    coordinates and ends at the same label, so the pair (s, chunk) keys its
    three raw state pieces and the label after it. Each state is the
    concatenation of its pieces, reduced once at the end.
    """
    seen: dict[tuple[int, str], tuple[str, str, str, int]] = {}
    first: list[str] = []
    second: list[str] = []
    third: list[str] = []
    s = misses = 0
    for count, start in enumerate(range(0, len(word), _CHUNK), 1):
        key = (s, word[start : start + _CHUNK])
        entry = seen.get(key)
        if entry is None:
            misses += 1
            if misses > _CHUNK_MISSES and 2 * misses > count:
                return None
            entry = seen[key] = _raw_pieces(*key)
        first.append(entry[0])
        second.append(entry[1])
        third.append(entry[2])
        s = entry[3]
    states = tuple(_splice_reduce("".join(p)) for p in (first, second, third))
    return states, _S3[s]  # type: ignore[return-value]


def _raw_pieces(s: int, chunk: str) -> tuple[str, str, str, int]:
    """The letters of the chunk in each coordinate, read from root label s,
    with no cancellation, and the label after the chunk."""
    buckets: tuple[list[str], ...] = ([], [], [])
    for ch in chunk:
        coordinate, s = _STEP[s][ch]
        buckets[coordinate].append(ch)
    return "".join(buckets[0]), "".join(buckets[1]), "".join(buckets[2]), s


def _splice_reduce(raw: str) -> str:
    """free_reduce of a word, by splicing where it has few doubled letters.

    Cut between every two equal adjacent letters, the word falls into pieces
    that are each reduced. A stack holds reduced pieces whose concatenation
    is reduced; the next piece cancels against the top along the longest
    common prefix of the reversed top and itself, and goes on to the piece
    below only if the whole top cancelled.
    """
    doubled = sum(raw.count(pair) for pair in _DOUBLED)
    if not doubled:
        return raw
    if doubled * _SPLICE_SPAN > len(raw):
        return free_reduce(raw)
    # str.replace does not overlap its matches, so one pass leaves a doubled
    # letter in each run of three or more equal letters; a second cuts it
    for _ in range(2):
        for pair in _DOUBLED:
            raw = raw.replace(pair, f"{pair[0]}|{pair[0]}")
    stack: list[str] = []
    for piece in raw.split("|"):
        while stack and piece:
            top = stack[-1]
            k = _cancel_length(top, piece)
            piece = piece[k:]
            if k < len(top):
                stack[-1] = top[: len(top) - k]
                break
            stack.pop()
        if piece:
            stack.append(piece)
    return "".join(stack)


def _cancel_length(top: str, piece: str) -> int:
    """Length of the longest common prefix of reversed top and the piece."""
    lo, hi = 0, min(len(top), len(piece))
    end = len(top)
    # a prefix of a common prefix is common, so binary search finds the longest
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if top[end - mid :][::-1] == piece[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


# The distinct words _evaluate_reduced splits, each once: `relators
# --max-tau 8 --depth 8` asks for 176 splits of 36 words. Every state word
# it holds is a key of _evaluate_reduced's cache too. word_states itself
# stays uncached, so that timing it times work.
_memo_word_states = functools.lru_cache(maxsize=None)(word_states)


@functools.lru_cache(maxsize=None)
def _evaluate_reduced(word: str, depth: int) -> Portrait:
    if depth == 0:
        return automorphism.identity(0)
    if not word:
        return automorphism.identity(depth)
    states, root = _memo_word_states(word)
    children = tuple(_evaluate_reduced(s, depth - 1) for s in states)
    return Portrait(root, children)


def evaluate(word: str, depth: int) -> Portrait:
    """The depth-N portrait of the group element spelled by the word."""
    if depth < 0:
        raise ShapeError("depth must be >= 0")
    if depth > MAX_DEPTH:
        raise ResourceLimitError(f"depth {depth} exceeds the cap {MAX_DEPTH}")
    return _evaluate_reduced(free_reduce(word), depth)


def check_relator(word: str, depth: int) -> bool:
    """True iff the word evaluates to the identity at the given depth."""
    return evaluate(word, depth).is_identity()


# -- relators ----------------------------------------------------------------


def _cj(x: str, y: str) -> str:
    return conjugate(x, y)


_AB = commutator("a", "b")
_BA = commutator("b", "a")
_AC = commutator("a", "c")
_CA = commutator("c", "a")
_BC = commutator("b", "c")
_CB = commutator("c", "b")

RELATORS: dict[str, str] = {
    "w1": free_reduce(_BA + _BC + _CA + _cj(_AC, "b") + _cj(_AB, "c") + _CB),
    "w2": free_reduce(_cj(_BC, "a") + _CB + _BA + _CA + _AB + _cj(_AC, "b")),
    "w3": free_reduce(
        _CB + _AB + _cj(_BC, "a") + _CB + _CB + _BA + _cj(_BC, "a") + _cj(_BC, "a")
    ),
    "w4": free_reduce(
        _cj(_BC, "a") + _cj(_AB, "c") + _BA + _BA + _AC + _cj(_AB, "c") + _CA + _CB
    ),
}

INVOLUTION_RELATORS = ("aa", "bb", "cc")


def relator_family(max_tau: int) -> dict[str, str]:
    """The involution relators plus tau-iterates of w1..w4 up to max_tau."""
    if max_tau < 0:
        raise ShapeError("max_tau must be >= 0")
    if max_tau > MAX_TAU:
        raise ResourceLimitError(f"max_tau {max_tau} exceeds the cap {MAX_TAU}")
    out = {f"{w[0]}^2": w for w in INVOLUTION_RELATORS}
    for name, word in RELATORS.items():
        out[name] = word
        for n in range(1, max_tau + 1):
            word = tau(word)
            out[f"tau^{n}({name})"] = word
    return out


# -- Reidemeister-Schreier ---------------------------------------------------


def schreier_generators(
    generator_words: Sequence[str],
    act: Callable[[Hashable, str], Hashable],
    points: Iterable[Hashable],
    base_point: Hashable,
    transversal: dict[Hashable, str] | None = None,
) -> tuple[list[str], dict[Hashable, str]]:
    """Schreier generators of the stabilizer of a point in a word action.

    ``act(point, word)`` must give the image of a point under a word. When no
    transversal is supplied, one is grown breadth-first from the base point
    in the given generator order. Generators are freely reduced (xx -> empty
    only); trivial ones are dropped, duplicates kept out, order deterministic.
    """
    points = list(points)
    if transversal is None:
        transversal = {base_point: ""}
        frontier = [base_point]
        while frontier:
            nxt = []
            for p in frontier:
                for gen in generator_words:
                    q = act(p, gen)
                    if q not in transversal:
                        transversal[q] = free_reduce(transversal[p] + gen)
                        nxt.append(q)
            frontier = nxt
    reachable = set(transversal)
    if set(points) - reachable:
        raise ValueError("transversal does not cover the orbit")

    out: list[str] = []
    seen: set[str] = set()
    for p in sorted(transversal):
        rep = transversal[p]
        for gen in generator_words:
            q = act(p, gen)
            word = free_reduce(rep + gen + inverse_word(transversal[q]))
            if word and word not in seen:
                seen.add(word)
                out.append(word)
    return out, transversal


def vertex_image(vertex: automorphism.Vertex, word: str) -> automorphism.Vertex:
    """Image of a vertex, a tuple of digits 1..3, under a word."""
    return automorphism.apply(evaluate(word, len(vertex)), vertex)


def schreier_stab1_generators() -> tuple[str, ...]:
    """Words generating the first-level stabilizer.

    Two Reidemeister-Schreier stages: first the stabilizer of vertex 1 with
    transversal {empty, c, b}, then within it the stabilizer of vertex 2 with
    transversal {empty, a}. Fixing two of the three first-level vertices
    fixes the third, so the result stabilizes the whole level.
    """
    stage1, _ = schreier_generators(
        list(ALPHABET),
        vertex_image,
        points=[(1,), (2,), (3,)],
        base_point=(1,),
        transversal={(1,): "", (2,): "c", (3,): "b"},
    )
    stage2, _ = schreier_generators(
        stage1,
        vertex_image,
        points=[(2,), (3,)],
        base_point=(2,),
        transversal={(2,): "", (3,): "a"},
    )
    return tuple(stage2)
