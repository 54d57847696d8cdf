"""Word algebra over the involutive alphabet {a, b, c}.

The three letters follow the wreath recursion

    a = (a, 1, 1) (2 3)    b = (1, b, 1) (1 3)    c = (1, 1, c) (1 2)

so each letter keeps a single nontrivial first-level state (itself) and
permutes the other two subtrees. Every letter is an involution, hence words
never need formal inverses: the inverse of a word is its reversal, and the
only rewriting ever applied is free cancellation xx -> empty.

word_states splits a word into its first-level states letter by letter, and
evaluation caches each portrait by word and depth. The tau-iterates of the
relators are never spelled out to be checked: tau(u) has root (2 3)^|u| and
states (u, beta(u), beta(u)), where beta deletes a and swaps b with c, and
beta commutes with tau. So evaluation recurses on the pair (w, n), and
only ever splits w, beta(w) and beta(beta(w)). tau is three str.replace
calls.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Hashable, Sequence

from . import automorphism
from .automorphism import MAX_DEPTH, Portrait
from .errors import DepthError, ResourceLimitError, ShapeError
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

# Each tau step about triples the length of a relator's iterate. `relators`
# checks it from (w, n) (evaluate) and reports its length by a formula
# (tau_power_length), so neither costs more as n grows; spelling it out
# (tau_power) still triples.
MAX_TAU = 12

_OUTSIDE_ALPHABET = re.compile(f"[^{ALPHABET}]").search
_DOUBLED = tuple(ch + ch for ch in ALPHABET)
_SWAP_BC = str.maketrans("bc", "cb")


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


def tau_power_length(word: str, n: int) -> int:
    """len(tau_power(word, n)) without spelling it out: the tau images of a,
    b and c start and end with a, c and b, so tau maps a reduced word to a
    reduced one, a to one letter and b and c to three."""
    if n == 0:
        return len(check_word(word))
    reduced = free_reduce(word)
    return reduced.count("a") + 3**n * (len(reduced) - reduced.count("a"))


def parity_vector(word: str) -> tuple[int, int, int]:
    """Letter counts mod 2; zero exactly on words of the derived subgroup."""
    check_word(word)
    return tuple(word.count(ch) % 2 for ch in ALPHABET)  # type: ignore[return-value]


def word_states(word: str) -> tuple[tuple[str, str, str], Perm]:
    """First-level decomposition of a word.

    Returns the three state words (freely reduced) and the root permutation.
    Each letter lands in the single state whose current image is the letter's
    home coordinate, then multiplies the running root permutation; both come
    from one lookup in the step table of the six root labels.
    """
    check_word(word)
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


def state_word(word: str, vertex: automorphism.Vertex) -> str:
    """The state of a word at a vertex, freely reduced: word_states along
    the vertex's digits, so no portrait is evaluated."""
    word = free_reduce(word)
    for digit in vertex:
        automorphism._check_digit(digit)
        word = word_states(word)[0][digit - 1]
    return word


@functools.lru_cache(maxsize=None)
def _evaluate_reduced(word: str, depth: int, n: int) -> Portrait:
    if depth == 0:
        return automorphism.identity(0)
    if not word:
        return automorphism.identity(depth)
    if n:
        # the states of tau(u) are (u, beta(u), beta(u)); tau keeps the
        # parity of a length, since each letter's image has odd length
        root = ROOT_PERMS["a"] if len(word) % 2 else _S3[0]
        twisted = beta(word)
        states = (word, twisted, twisted)
    else:
        states, root = word_states(word)
    children = tuple(_evaluate_reduced(s, depth - 1, n and n - 1) for s in states)
    return Portrait(root, children)


def evaluate(word: str, depth: int, n: int = 0) -> Portrait:
    """The depth-N portrait of the group element tau^n(word).

    tau^n(word) is never spelled out: by beta's identities, tau^n(w) has
    root (2 3)^|w| and states tau^(n-1)(w), tau^(n-1)(beta(w)) twice.
    """
    if depth < 0:
        raise ShapeError("depth must be >= 0")
    if depth > MAX_DEPTH:
        raise ResourceLimitError(f"depth {depth} exceeds the cap {MAX_DEPTH}")
    if n < 0:
        raise ShapeError("n must be >= 0")
    return _evaluate_reduced(free_reduce(word), depth, n)


def beta(word: str) -> str:
    """The substitution a -> empty, b -> c, c -> b, freely reduced.

    For every word u, tau(u) has root (2 3)^|u| and states (u, beta(u),
    beta(u)): each letter's image under tau does, and (2 3) swaps the two
    equal states. beta(tau(u)) reduces to tau(beta(u)).
    """
    return free_reduce(check_word(word).replace("a", "").translate(_SWAP_BC))


def check_relator(word: str, depth: int, n: int = 0) -> bool:
    """True iff tau^n(word) evaluates to the identity at the given depth.

    Evaluation reduces freely, which takes each letter to be an involution,
    so it would read a letter's square as the identity whatever the letter
    is. An involution relator xx is checked by composing x's portrait with
    itself instead.

    Every depth-0 portrait is the identity, so depth 0 would pass any word
    and raises DepthError; evaluate refuses a negative depth."""
    if depth == 0:
        raise DepthError("depth must be >= 1")
    if word in INVOLUTION_RELATORS:
        letter = evaluate(word[0], depth, n)
        return automorphism.compose(letter, letter).is_identity()
    return evaluate(word, depth, n).is_identity()


# -- relators ----------------------------------------------------------------


_AB = commutator("a", "b")
_BA = commutator("b", "a")
_AC = commutator("a", "c")
_CA = commutator("c", "a")
_BC = commutator("b", "c")
_CB = commutator("c", "b")

RELATORS: dict[str, str] = {
    "w1": free_reduce(_BA + _BC + _CA + conjugate(_AC, "b") + conjugate(_AB, "c") + _CB),
    "w2": free_reduce(conjugate(_BC, "a") + _CB + _BA + _CA + _AB + conjugate(_AC, "b")),
    "w3": free_reduce(
        _CB + _AB + conjugate(_BC, "a") + _CB + _CB + _BA
        + conjugate(_BC, "a") + conjugate(_BC, "a")
    ),
    "w4": free_reduce(
        conjugate(_BC, "a") + conjugate(_AB, "c") + _BA + _BA + _AC
        + conjugate(_AB, "c") + _CA + _CB
    ),
}

INVOLUTION_RELATORS = ("aa", "bb", "cc")


def relator_family(max_tau: int) -> dict[str, tuple[str, int]]:
    """The involution relators plus tau-iterates of w1..w4 up to max_tau,
    each as the pair (w, n) that stands for tau^n(w)."""
    if max_tau < 0:
        raise ShapeError("max_tau must be >= 0")
    if max_tau > MAX_TAU:
        raise ResourceLimitError(f"max_tau {max_tau} exceeds the cap {MAX_TAU}")
    out = {f"{w[0]}^2": (w, 0) for w in INVOLUTION_RELATORS}
    for name, word in RELATORS.items():
        out[name] = (word, 0)
        for n in range(1, max_tau + 1):
            out[f"tau^{n}({name})"] = (word, n)
    return out


# -- Reidemeister-Schreier ---------------------------------------------------


def schreier_generators(
    generator_words: Sequence[str],
    act: Callable[[Hashable, str], Hashable],
    base_point: Hashable,
) -> tuple[list[str], dict[Hashable, str]]:
    """Schreier generators of the stabilizer of a point in a word action,
    and the transversal, whose keys are the base point's orbit.

    ``act(point, word)`` must give the image of a point under a word. The
    transversal is grown breadth-first from the base point in the given
    generator order. Generators are freely reduced (xx -> empty only);
    trivial ones are dropped, duplicates kept out, order deterministic.
    """
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


def parity_kernel_words() -> tuple[str, ...]:
    """Words generating the derived subgroup Gamma'.

    Reidemeister-Schreier for the kernel of the letter-parity map onto
    F_2^3, whose cosets are the 8 parity vectors. That kernel is the derived
    subgroup of C2*C2*C2, the free product on a, b and c, since its
    abelianization is F_2^3; so the words generate the derived subgroup of
    every quotient of it, Gamma and each G_N included.
    """
    def act(point: tuple[int, ...], word: str) -> tuple[int, ...]:
        return tuple(x ^ y for x, y in zip(point, parity_vector(word)))

    generators, _ = schreier_generators(list(ALPHABET), act, (0, 0, 0))
    return tuple(generators)
