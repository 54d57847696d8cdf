"""Finite-depth verification pipeline for the Hanoi towers group.

Checks every structural statement the rigid-kernel computation rests on,
about the truncated quotients G_N acting on 3^N leaves and the level and
rigid stabilizer images inside them. The kernel report assembles the
inverse-system bookkeeping: Q orders as |G_N| / (|G_n| |Rist(n)|) in the
truncations, K and the seed order from the exact GF(2)^9 data, and the
Gamma orders from the exact-sequence recurrence, never from truncated
indices (the truncated index is exactly the Q order; the kernel itself is
the part truncations cannot see). Every command's verdicts are Results
built here or in game; the CLI only serializes them.

|G_N| and |G'_N| come from the branch recursion and membership in G_N from
the depth-2 patterns (branch), with no chain of G_N and no chain of a level
stabilizer. G_N acts on level n as G_n, so |Stab(n)| is |G_N|/|G_n|, and
|Stab(n)/Stab(n+1)| is |G_(n+1)|/|G_n|, or |G'_(n+1)|/|G'_n| inside the
derived subgroup. Rist(n) in G_N is (G'_k)^(3^n), k = N - n, so what is
said of it depends on k alone: its order |G'_k|^(3^n) off the chain of G'_k
(_derived_subgroup); its containment in Stab(n), which holds exactly when
the three level-1 copies of each G'_k generator lie in G_(k+1)
(_rist_in_stab has the proof, from branch's criterion); and the order check
behind the elementary-abelian flag (_rist_is_kernel). The chain of G'_k and
the containment are cached per k, with no lock: threads that miss together
each build, and get equal results, so a race wastes work but gives no
wrong answer (build_quotient is the one locked build). G'_k is the only
Rist(n) object built, and nothing at Rist(n)'s degree 3^N is. G'_k is
generated by the leaf permutations of fixed words for Gamma'
(words.parity_kernel_words), so no normal closure and no chain of G_k is
needed. transrec reads each vertex's section off the states of its
stabilizer's Reidemeister-Schreier words: they are words in a, b and c,
and once they include all three the section is G_k, with no group built.
No command builds G_N: transitive takes the orbit of leaf 1 under the leaf
permutations of a, b and c, with no group, and build_quotient, which makes
G_N and its chain on the leaves, serves the tests and the benchmark. Every
chain the package builds is on leaves alone; the chains with tree vertices
as points are test oracles. Every entry point checks one depth cap, 3^6
leaves, where its depth enters; only build_quotient also wants slow, for
the chain of G_6.
"""

from __future__ import annotations

import functools
import json
import threading
from importlib import resources
from typing import NamedTuple

from . import branch, f2, log, permgroup, words
from .automorphism import embed, leaf_permutation
from .errors import DepthError, NotASubgroupError, ResourceLimitError, ShapeError
from .f2 import F2Subspace
from .perm import Perm
from .permgroup import PermGroup

DEPTH_CAP = 6  # degree 729


def _require_depth(depth: int) -> None:
    if depth < 1:
        raise DepthError("depth must be >= 1")
    if depth > DEPTH_CAP:
        raise ResourceLimitError(f"depth {depth} exceeds the degree cap 3^{DEPTH_CAP}")


# -- expected values ---------------------------------------------------------


@functools.cache
def _table() -> dict:
    """The table file, read and parsed once per process; never handed out."""
    text = resources.files(__package__).joinpath("expected_values.json").read_text()
    return json.loads(text)


def _copy(value):
    """A deep copy of JSON data: its dicts and lists are new."""
    if isinstance(value, dict):
        return {key: _copy(item) for key, item in value.items()}
    return [_copy(item) for item in value] if isinstance(value, list) else value


def load_expected_table() -> dict:
    """A copy of the table of expected constants shipped with the package."""
    return _copy(_table())


def _table_entry(name: str) -> dict:
    """A copy of a table entry with the human-readable annotation stripped."""
    entry = _copy(_table()[name])
    entry.pop("statement", None)
    return entry


def quotient_order(depth: int) -> int:
    """|G_depth| = 6 * prod of the level-stabilizer quotient orders; |G_0| = 1."""
    if depth < 0:
        raise DepthError("depth must be >= 0")
    if depth == 0:
        return 1
    order = 6
    for n in range(1, depth):
        order *= stab_quotient_order(n)
    return order


def stab_quotient_order(n: int) -> int:
    """|Stab(n)/Stab(n+1)| = 2^(2*3^(n-1)) * 3^(3^n)."""
    return 2 ** (2 * 3 ** (n - 1)) * 3 ** (3**n)


def q_expected(n: int) -> int:
    """|Q_{n,n+k}| = 2^(2*3^(n-1)), independent of k >= 1."""
    return 2 ** (2 * 3 ** (n - 1))


def gamma_expected(n: int) -> int:
    """|Stab(n)/Rist(n)| = 2^(2*(3^(n-1)+1))."""
    return 2 ** (2 * (3 ** (n - 1) + 1))


def k_expected(n: int) -> int:
    """|K_{n,n+1}| = 2^(2*3^n)."""
    return 2 ** (2 * 3**n)


def ristquot_expected(n: int) -> int:
    """|Rist(n)| in G_(n+1), of (A_3)^(3^n): 3^(3^n)."""
    return 3 ** (3**n)


# -- results -----------------------------------------------------------------


class Result(NamedTuple):
    """One verdict of a command: what it computed, what the theorem expects,
    and whether the two agree. Lemma results carry their depth."""

    id: str
    computed: object
    expected: object
    passed: bool
    depth: int | None = None

    def to_json_dict(self) -> dict:
        out = {
            "id": self.id, "computed": self.computed, "expected": self.expected,
            "pass": self.passed,
        }
        if self.depth is not None:
            out["depth"] = self.depth
        return out


# -- truncated quotients -----------------------------------------------------


class TruncatedQuotient(NamedTuple):
    """The depth-N truncation acting faithfully on the 3^N leaves."""

    depth: int
    group: PermGroup
    generator_map: dict[str, Perm]


_BUILDING = threading.Lock()


def build_quotient(depth: int, slow: bool = False) -> TruncatedQuotient:
    """The group generated by the leaf permutations of a, b, c at depth N,
    with its leaf-only chain. No command builds it. Its one slow build,
    G_6's chain (seconds), needs slow; a refused depth caches nothing.
    functools.cache would let racing misses each build and keep their own
    quotient, so racing callers wait for one build and all get it."""
    _require_depth(depth)
    if depth == DEPTH_CAP and not slow:
        raise ResourceLimitError(f"the chain of G_{depth} needs the slow flag")
    with _BUILDING:
        return _quotient(depth)


@functools.cache
def _quotient(depth: int) -> TruncatedQuotient:
    gen_map = {
        letter: leaf_permutation(words.evaluate(letter, depth), depth)
        for letter in words.ALPHABET
    }
    for letter, perm in gen_map.items():
        if not (perm * perm).is_identity():
            raise AssertionError(f"generator {letter} is not an involution")
    return TruncatedQuotient(depth, PermGroup(3**depth, gen_map.values()), gen_map)


@functools.cache
def _derived_subgroup(k: int) -> PermGroup:
    """G'_k, generated by the leaf permutations of the Gamma' words
    (words.parity_kernel_words): those words generate the derived subgroup
    of the free product C2*C2*C2, which maps onto G_k, so their images
    generate G'_k. Its chain is leaf-only, built from the words alone; its
    order is never read from branch. No chain of G_k is built.

    Rist(n) in G_N, k = N - n, is a copy of G'_k on each level-n block. The
    3^n copies act on disjoint blocks of leaves, so they commute and meet
    trivially, the group they generate is their direct product, and
    |Rist(n)| = |G'_k|^(3^n)."""
    perms = [
        leaf_permutation(words.evaluate(w, k), k)
        for w in words.parity_kernel_words()
    ]
    return PermGroup(3**k, perms)


@functools.cache
def _rist_in_stab(k: int) -> bool:
    """Whether Rist(n) = (G'_k)^(3^n) lies in Stab(n) in G_(n+k), for every
    n >= 1, decided on the three level-1 copies of each G'_k generator in
    G_(k+1): each must fix level 1 (a vertex's first leaf shows where it
    goes) and lie in G_(k+1).

    By branch's criterion, an automorphism lies in G_M exactly when it is a
    tree automorphism whose depth-2 pattern at every vertex of level <=
    M - 2 lies in G_2. The copy of a generator g on a level-n vertex v,
    which fixes level n, is a tree automorphism exactly when g is, with g's
    own patterns at v's descendants, g's root permutation in slot v mod 3 at
    v's parent, and the identity at every other vertex. The copy of g on
    level-1 vertex v mod 3 at depth k + 1 has the same patterns, so the two
    lie in G_N and G_(k+1) together, and for n >= 1 the three copies decide
    all 3^n (tests/_chain_oracles.py keeps the per-copy check).
    """
    size = 3**k
    identity = tuple(range(3 * size))
    copies = [
        identity[: v * size] + tuple(v * size + x for x in g.data) + identity[(v + 1) * size :]
        for v in range(3)
        for g in _derived_subgroup(k).generators
    ]
    inside = all(
        all(g[v * size] // size == v for v in range(3))
        and branch.contains(g, k + 1)
        for g in copies
    )
    log.info(
        __name__,
        "Rist(n) <= Stab(n) in G_(n+%d) for every n: %s, %d level-1 copies of"
        " G'_%d's generators in G_%d at degree %d",
        k, "pass" if inside else "FAIL", len(copies), k, k + 1, 3 * size,
    )
    return inside


# bound here, so that clear_caches reaches the caches while a name is patched
_CACHED = (_quotient, _derived_subgroup, _rist_in_stab)


def clear_caches() -> None:
    """Forget the quotients, the G'_k chains and the containment verdicts;
    the expected-values table is read once and kept."""
    for function in _CACHED:
        function.cache_clear()


def q_order(depth: int, n: int) -> int:
    """|Q_{n,N}|: index of the rigid-stabilizer image inside the
    level-stabilizer image of the depth-N truncation."""
    if not 1 <= n < depth:
        raise DepthError(f"level {n} outside 1..{depth - 1}")
    _require_depth(depth)
    if not _rist_in_stab(depth - n):
        raise NotASubgroupError(f"Rist({n}) of G_{depth} is not inside Stab({n})")
    return _q_order(depth, n)


def _exact_quotient(order: int, sub_order: int) -> int:
    quotient, remainder = divmod(order, sub_order)
    if remainder:
        raise AssertionError(f"order {sub_order} does not divide order {order}")
    return quotient


def _q_order(depth: int, n: int) -> int:
    """|Stab(n)| / |Rist(n)| in G_N, with |Stab(n)| = |G_N| / |G_n|: G_N
    acts on level n as G_n, and Stab(n) is the kernel of that action. It is
    |Q(n,N)| once _rist_in_stab(N - n) holds, which every caller reads
    first."""
    k = depth - n
    orders = branch.orders(depth)[0], branch.orders(n)[0], _derived_subgroup(k).order() ** 3**n
    q = _exact_quotient(_exact_quotient(orders[0], orders[1]), orders[2])
    log.info(
        __name__,
        "Q(%d,%d) = |G_N| / (|G_n| |Rist(n)|) = %d / (%d * %d),"
        " |G_N| and |G_n| from the branch recursion,"
        " |Rist(n)| = |G'_k|^(3^n) from the chain of G'_k,"
        " Rist(n) <= Stab(n) from the level-1 copies of G'_k in G_(k+1): %s",
        n, depth, *orders, "pass" if _rist_in_stab(k) else "FAIL",
    )
    return q


def q_table(n_max: int, depth: int) -> list[Result]:
    """|Q_{n,N}| against q_expected(n) for every 1 <= n <= n_max and
    n < N <= depth, in (n, N) order; a Q whose Rist(n) is not inside
    Stab(n) is no quotient, and its row computes None and fails."""
    if n_max < 1:
        raise ShapeError("n_max must be >= 1")
    if depth <= n_max:
        raise ShapeError(f"depth {depth} must exceed n_max {n_max}")
    _require_depth(depth)
    results = []
    for n in range(1, n_max + 1):
        for big_n in range(n + 1, depth + 1):
            q = _q_order(big_n, n) if _rist_in_stab(big_n - n) else None
            expected = q_expected(n)
            results.append(Result(f"q({n},{big_n})", q, expected, q == expected))
    return results


# -- relators ----------------------------------------------------------------


def check_relators(max_tau: int, depth: int) -> list[Result]:
    """Whether each relator of words.relator_family is trivial at the depth,
    with the length of its spelled-out tau-iterate."""
    results = []
    for name, (base, n) in words.relator_family(max_tau).items():
        trivial = words.check_relator(base, depth, n)
        computed = {"trivial": trivial, "length": words.tau_power_length(base, n)}
        results.append(Result(name, computed, {"trivial": True}, trivial))
    return results


# -- exact GF(2)^9 data ------------------------------------------------------


def gamma1_order() -> int:
    """|Stab(1)/Rist(1)| = 2^dim of the stabilizer-vector span."""
    return 2 ** f2.level1_stabilizer_space().dim()


def kernel_seed_order() -> int:
    """|Stab_{D}(1)/Rist_{D}(1)| for the derived subgroup D: the order of the
    even-letter-sum part of the stabilizer-vector span."""
    space = f2.intersect(f2.level1_stabilizer_space(), f2.even_letter_sum_space())
    return 2 ** space.dim()


def h_subspace() -> F2Subspace:
    """Image of the level-2 stabilizer in GF(2)^9: the explicit witness for
    the order-4 image of Gamma_2 in Gamma_1.

    Generators of the level-2 stabilizer are produced by Reidemeister-
    Schreier over the right-multiplication action of the four level-1
    stabilizer generators on their depth-2 image (108 cosets); each
    generator word is then mapped by its per-subtree letter parities. The
    coset space of the level-2 stabilizer only sees depth-2 data, so the
    action is evaluated there.
    """
    gen_perms = {
        w: leaf_permutation(words.evaluate(w, 2), 2)
        for w in words.LEVEL1_STABILIZER_WORDS
    }

    def act(point: tuple, word: str) -> tuple:
        return tuple(map(gen_perms[word].data.__getitem__, point))

    identity = tuple(range(9))
    generator_words, _ = words.schreier_generators(
        list(words.LEVEL1_STABILIZER_WORDS), act, identity
    )
    vectors = []
    for word in generator_words:
        if not words.evaluate(word, 2).is_identity():
            raise AssertionError(f"schreier word {word!r} moves level 2")
        vectors.append(f2.stab1_vector(word))
    return f2.span(vectors, 9)


# -- kernel report -----------------------------------------------------------


class KernelRow(NamedTuple):
    n: int
    q_next: int
    q_next2: int
    q_stable: bool
    k_order: int
    gamma_order: int  # |Gamma_{n+1}|
    h_order: int
    elementary_abelian_2: dict[str, bool]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "q(n,n+1)": self.q_next,
            "q(n,n+2)": self.q_next2,
            "q_stable": self.q_stable,
            "k(n,n+1)": self.k_order,
            "gamma(n+1)": self.gamma_order,
            "h(n,n+1)": self.h_order,
            "elementary_abelian_2": self.elementary_abelian_2,
            "pass": self.passed,
        }


class KernelReport(NamedTuple):
    n_max: int
    depth_budget: int
    gamma1: int
    seed_order: int
    rows: list[KernelRow]
    kernel_order: int | None
    kernel_type: str | None
    passed: bool
    failed_at: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "depth_budget": self.depth_budget,
            "gamma(1)": self.gamma1,
            "seed_order": self.seed_order,
            "rows": [r.to_json_dict() for r in self.rows],
            "kernel_order": self.kernel_order,
            "kernel_type": self.kernel_type,
            "pass": self.passed,
            "failed_at": self.failed_at,
        }

    def results(self) -> list[Result]:
        """The checks against the expected table, one result each: gamma(1),
        every row's H order and Q stability, and the kernel."""
        gamma1 = _table_entry("gamma_order")["values"]["1"]
        h_order = _table_entry("h_order")["value"]
        rows = [
            Result(
                f"row n={row.n}", row.to_json_dict(),
                {"h(n,n+1)": h_order, "q_stable": True}, row.passed,
            )
            for row in self.rows
        ]
        kernel = Result(
            "kernel", {"order": self.kernel_order, "type": self.kernel_type},
            _table_entry("rigid_kernel"), self.passed,
        )
        return [Result("gamma(1)", self.gamma1, gamma1, self.gamma1 == gamma1), *rows, kernel]


def _rist_is_kernel(k: int) -> bool:
    """Whether the chain of G'_k has the order |G'_k| of the branch
    recursion. Where _rist_in_stab(k) holds too, Q(n,N) = Stab(n)/Rist(n)
    in G_N, N = n + k, is elementary abelian 2, for every n >= 1; no chain
    of Stab(n) is built.

    Taking the states at the level-n vertices maps Stab(n) homomorphically
    into (G_k)^(3^n): the states of a, b and c are a, b, c or trivial
    (selfsim), so the states of an element of G_N lie in G_k. Follow it
    with G_k -> G_k/G'_k on each factor. G_k is generated by involutions: a
    letter x is (x, 1, 1) sigma up to coordinate order, with sigma a
    transposition fixing x's coordinate, so x^2 = (x^2, 1, 1) up to that
    order, and by induction x is an involution at every depth (the relators
    a^2, b^2 and c^2 square the letters' portraits to check it,
    words.check_relator). So G_k/G'_k is elementary abelian 2, and the image
    of Stab(n) is too. The kernel is the intersection of Stab(n) with
    (G'_k)^(3^n), so its order is at most |G'_k|^(3^n). Rist(n) is
    (G'_k)^(3^n) on the level-n blocks, of order |G'_k|^(3^n) with |G'_k|
    off the chain of G'_k (_derived_subgroup). Once the three level-1
    copies of its generators lie in G_(k+1), their copies on level n lie in
    G_N and fix level n (_rist_in_stab), so Rist(n) lies in that kernel, and
    when that chain's order is |G'_k| from the branch recursion, it is the
    kernel. Then Q(n,N) embeds in an elementary abelian 2-group. The check
    stays independent of branch: reading |Rist(n)| from the branch
    recursion instead would make the order check a tautology.
    """
    return _derived_subgroup(k).order() == branch.orders(k)[1]


def kernel_report(n_max: int = 2, depth_budget: int = 4) -> KernelReport:
    """Assemble the inverse-system table and the final kernel verdict.

    Gamma orders are never read off a truncation; they follow from the
    GF(2)^9 seed values and the exact sequence
    1 -> K(n,n+1) -> Gamma(n+1) -> Gamma(n) -> Q(n,n+1) -> 1,
    with the Q orders those of the truncations (legitimate because they
    stabilize, which is itself checked here): |G_N| and |G_n| from the
    branch recursion, |Rist(n)| as |G'_(N-n)|^(3^n) from the chain of
    G'_(N-n). Each Rist(n) containment is tested once per k = N - n, for Q
    and the flag together, and the report reads G'_1 and G'_2 alone at every
    depth budget.
    """
    if n_max < 1:
        raise ShapeError("n_max must be >= 1")
    if depth_budget < n_max + 2:
        raise ShapeError("depth budget must be at least n_max + 2")
    _require_depth(depth_budget)

    gamma1 = gamma1_order()
    seed = kernel_seed_order()
    h_expected = _table_entry("h_order")["value"]

    rows: list[KernelRow] = []
    failed_at: str | None = None
    gamma = gamma1
    for n in range(1, n_max + 1):
        # Q(n,n+step) and its flag, which reads, as elab does, the
        # containment that makes Q a quotient and the order check
        flags, q_orders = {}, []
        for step in (1, 2):
            flags[f"Q({n},{n + step})"] = _rist_in_stab(step) and _rist_is_kernel(step)
            q_orders.append(_q_order(n + step, n))
        q1, q2 = q_orders
        stable = q1 == q2
        k = seed ** (3**n)
        # the exact sequence: |Gamma_{n+1}| * |Q| == |Gamma_n| * |K|
        gamma_next = _exact_quotient(gamma * k, q1)
        h = gamma_next // k
        row_pass = (
            stable
            and h == h_expected
            and all(flags.values())
            and q1 == q_expected(n)
            and k == k_expected(n)
            and gamma_next == gamma_expected(n + 1)
        )
        rows.append(KernelRow(n, q1, q2, stable, k, gamma_next, h, flags, row_pass))
        if not row_pass and failed_at is None:
            failed_at = f"row n={n}"
        gamma = gamma_next

    base_ok = (
        gamma1 == _table_entry("gamma_order")["values"]["1"]
        and seed == _table_entry("seed_order")["value"]
    )
    if not base_ok and failed_at is None:
        failed_at = "GF(2)^9 seed values"
    passed = base_ok and all(r.passed for r in rows)
    # a passing report has the same computed H order on every row, and the
    # kernel is that stable H
    kernel_order = rows[-1].h_order if passed else None
    kernel_type = _table_entry("rigid_kernel")["type"] if passed else None
    return KernelReport(
        n_max, depth_budget, gamma1, seed, rows, kernel_order, kernel_type,
        passed, failed_at,
    )


# -- lemma verification ------------------------------------------------------


def _check_selfsim(depth: int) -> Result:
    computed = {}
    ok = True
    for letter in words.ALPHABET:
        states, root = words.word_states(letter)
        computed[letter] = {"states": list(states), "root": root.cycle_string()}
        ok = ok and all(s in ("", letter) for s in states)
    expected = {
        letter: "states are the letter itself or empty" for letter in words.ALPHABET
    }
    return Result("selfsim", computed, expected, ok, depth)


def _check_transitive(depth: int) -> Result:
    """The orbit of leaf 1 under the leaf permutations of a, b and c at
    depth N; an orbit needs no group, so none is built."""
    letters = [
        leaf_permutation(words.evaluate(letter, depth), depth)
        for letter in words.ALPHABET
    ]
    orbit = permgroup.orbit(3**depth, letters, 1)
    computed = {"orbit_size": len(orbit)}
    expected = {"orbit_size": 3**depth}
    return Result("transitive", computed, expected, len(orbit) == 3**depth, depth)


def _check_branching(depth: int) -> Result:
    computed, expected = {}, {}
    for name, (word, (x, y)) in branch.BRANCHING_WORDS.items():
        inner = words.commutator(x, y)
        left = words.evaluate(word, depth)
        right = embed((1,), words.evaluate(inner, depth - 1))
        computed[name] = {"first_state": inner, "match": left == right}
        expected[name] = {"first_state": inner, "match": True}
    return Result("branching", computed, expected, computed == expected, depth)


def _check_stab12(depth: int) -> Result:
    g1 = branch.orders(1)[0]
    # G_2 acts on level 1 as G_1, so |Stab(1)/Stab(2)| = |G_2| / |G_1|
    order = _exact_quotient(branch.orders(2)[0], g1)

    # The four generator images in the level-1-to-2 labels generate all of
    # Stab(1)/Stab(2), the sign-sum kernel: each fixes level 1 (a trivial
    # root) and the signs of its three labels multiply to 1, so they lie in
    # the kernel, which is inside Stab(1), and their group has the order of
    # Stab(1)/Stab(2).
    triples, four, in_kernel = {}, [], []
    for word in words.LEVEL1_STABILIZER_WORDS:
        portrait = words.evaluate(word, 2)
        labels = [portrait.label((i,)) for i in (1, 2, 3)]
        triples[word] = [label.cycle_string() for label in labels]
        four.append(leaf_permutation(portrait, 2))
        signs = labels[0].sign() * labels[1].sign() * labels[2].sign()
        in_kernel.append(portrait.label(()).is_identity() and signs == 1)

    computed = {
        "quotient_order_level1": g1,
        "stab1_mod_stab2_order": order,
        "label_triples": triples,
        "generated_by_four_words": PermGroup(9, four).order(),
        "sign_sum_kernel": all(in_kernel),
    }
    stab12_order = _table_entry("stabilizer_quotient_order")["values"]["1"]
    expected = {
        "quotient_order_level1": _table_entry("quotient_order")["values"]["1"],
        "stab1_mod_stab2_order": stab12_order,
        "label_triples": _table_entry("stab12_label_triples"),
        "generated_by_four_words": stab12_order,
        "sign_sum_kernel": True,
    }
    return Result("stab12", computed, expected, computed == expected, depth)


def _check_index(depth: int) -> Result:
    """The stabilizer vectors read a word's letter parities as its image in
    Gamma/Gamma' = F_2^3; branch._structure's docstring proves that premise
    from a step-table condition that branch's certificate checks."""
    branch.orders(1)  # checks the certificate, unless it already ran
    vectors = {w: list(f2.stab1_vector(w)) for w in words.LEVEL1_STABILIZER_WORDS}
    u = f2.level1_stabilizer_space()
    uz = f2.intersect(u, f2.even_letter_sum_space())
    alpha, beta, delta, gamma = vectors.values()
    ab = tuple(x ^ y for x, y in zip(alpha, beta))
    dg = tuple(x ^ y for x, y in zip(delta, gamma))
    computed = {
        "vectors": vectors,
        "dim_u": u.dim(),
        "gamma1_order": gamma1_order(),
        "uz_basis_matches_pair_sums": uz == f2.span([ab, dg], 9),
        "seed_order": kernel_seed_order(),
    }
    expected = {
        "vectors": _table_entry("stab1_vectors"),
        "dim_u": _table_entry("level1_stabilizer_space_dim")["value"],
        "gamma1_order": _table_entry("gamma_order")["values"]["1"],
        "uz_basis_matches_pair_sums": True,
        "seed_order": _table_entry("seed_order")["value"],
    }
    return Result("index", computed, expected, computed == expected, depth)


def _check_rist(depth: int) -> Result:
    u = f2.level1_stabilizer_space()
    w = f2.first_subtree_space()
    containments = {}
    for n in range(1, depth):
        containments[f"rist({n}) <= stab({n})"] = _rist_in_stab(depth - n)
    computed = {
        "vectors": {x: list(f2.stab1_vector(x)) for x in words.LEVEL1_STABILIZER_WORDS},
        "dim_u": u.dim(),
        "dim_u_meet_first_subtree": f2.intersect(u, w).dim(),
        "containments": containments,
    }
    expected = {
        "vectors": _table_entry("stab1_vectors"),
        "dim_u": _table_entry("level1_stabilizer_space_dim")["value"],
        "dim_u_meet_first_subtree": 0,
        "containments": {key: True for key in containments},
    }
    return Result("rist", computed, expected, computed == expected, depth)


def _check_ristquot(depth: int) -> Result:
    """Rist(n) in G_(n+1) is (G'_1)^(3^n), one copy of G'_1 on each level-n
    block. Copies on disjoint blocks commute, so the power is elementary
    abelian 3 exactly when G'_1 is, and the check reads the generators of
    G'_1 alone."""
    computed = {}
    expected = {}
    for n in range(1, depth):
        computed[f"n={n}"] = {
            "order": _derived_subgroup(1).order() ** 3**n,
            "elementary_abelian_3": permgroup.is_elementary_abelian(_derived_subgroup(1), 3),
        }
        expected[f"n={n}"] = {"order": ristquot_expected(n), "elementary_abelian_3": True}
    return Result("ristquot", computed, expected, computed == expected, depth)


def _check_stabquot(depth: int) -> Result:
    computed = {}
    expected = {}
    for n in range(1, depth):
        # Stab(n)/Stab(n+1) is the kernel of G_(n+1) -> G_n
        (lower, lower_derived), (upper, upper_derived) = branch.orders(n), branch.orders(n + 1)
        computed[f"n={n}"] = {
            "stab_quotient": upper // lower,
            "derived_stab_quotient": upper_derived // lower_derived,
        }
        expected[f"n={n}"] = {
            "stab_quotient": stab_quotient_order(n),
            "derived_stab_quotient": stab_quotient_order(n),
        }
    return Result("stabquot", computed, expected, computed == expected, depth)


def _check_elab(depth: int) -> Result:
    computed = {}
    for n in range(1, depth):
        for big_n in (n + 1, n + 2):
            if big_n > depth:
                continue
            k = big_n - n
            computed[f"Q({n},{big_n})"] = _rist_in_stab(k) and _rist_is_kernel(k)
    expected = {key: True for key in computed}
    return Result("elab", computed, expected, computed == expected, depth)


def _section_order(vertex: tuple[int, ...], depth: int) -> int | None:
    """|G_k|, k = depth - |vertex|, when the states at the vertex of its
    stabilizer's Reidemeister-Schreier words include a, b and c; None when
    they do not."""
    stabilizer_words, _ = words.schreier_generators(
        list(words.ALPHABET), words.vertex_image, vertex
    )
    states = {words.state_word(w, vertex) for w in stabilizer_words}
    if set(words.ALPHABET) <= states:
        return branch.orders(depth - len(vertex))[0]
    return None


def _check_transrec(depth: int) -> Result:
    """Self-replication: at each vertex v of levels 1..min(2, N-1), the
    elements of G_N that fix v act on v's subtree as all of G_k, k = N - |v|.

    Reidemeister-Schreier over the action of a, b and c on v's level gives
    words that generate the stabilizer of v. Taking the state at v is a
    homomorphism on that stabilizer, so the states at v of those words
    generate the section at v. Each state is a word in a, b and c, since
    the states of a, b and c are a, b, c or trivial (selfsim), so the
    section lies in G_k. When the states include the one-letter words a, b
    and c, the section contains G_k's generators and equals G_k, and its
    order is |G_k| from the branch recursion, as level_0's is. The states
    are read off the words (words.state_word); no group, chain or leaf
    permutation is built. A vertex whose states miss a letter reports None,
    and the check fails.
    """
    computed = {}
    expected = {}
    computed["level_0"] = {"vertices": 1, "orders": [branch.orders(depth)[0]]}
    expected["level_0"] = {
        "vertices": 1,
        "orders": [quotient_order(depth)],
    }
    for level in range(1, min(3, depth)):
        _, orbit = words.schreier_generators(
            list(words.ALPHABET), words.vertex_image, (1,) * level
        )
        orders = [_section_order(vertex, depth) for vertex in sorted(orbit)]
        computed[f"level_{level}"] = {"vertices": len(orders), "orders": orders}
        expected[f"level_{level}"] = {
            "vertices": 3**level,
            "orders": [quotient_order(depth - level)] * 3**level,
        }
    return Result("transrec", computed, expected, computed == expected, depth)


_LEMMAS = {  # id -> (check, least depth, statement)
    "branching": (_check_branching, 2, "the squared four-letter words place commutators in the first subtree"),
    "elab": (_check_elab, 2, "stabilizer-over-rigid-stabilizer quotients are elementary abelian 2-groups"),
    "index": (_check_index, 1, "GF(2)^9 data: |Stab(1)/Rist(1)| = 16 and the derived-subgroup seed order is 4"),
    "rist": (_check_rist, 2, "stabilizer vectors, trivial meet with the first-subtree space, rist inside stab"),
    "ristquot": (_check_ristquot, 2, "rigid-stabilizer image at depth n+1 is (A_3)^(3^n)"),
    "selfsim": (_check_selfsim, 1, "each generator's first-level states are the generator itself or trivial"),
    "stab12": (_check_stab12, 2, "level-1 quotient is S_3; level-1-over-level-2 is the 108-element sign-sum kernel"),
    "stabquot": (_check_stabquot, 2, "|Stab(n)/Stab(n+1)| = 2^(2*3^(n-1)) * 3^(3^n), also inside the derived subgroup"),
    "transitive": (_check_transitive, 1, "the quotient is transitive on the leaves"),
    "transrec": (_check_transrec, 2, "vertex-stabilizer states generate the full lower-depth quotient"),
}

LEMMA_IDS = tuple(_LEMMAS)
LEMMA_STATEMENTS = {lemma: statement for lemma, (*_, statement) in _LEMMAS.items()}


def verify_lemma(lemma: str, depth: int = 4) -> Result:
    """Run one structural check; see LEMMA_STATEMENTS for the catalogue."""
    if lemma not in _LEMMAS:
        raise KeyError(f"unknown lemma id {lemma!r}; known: {', '.join(LEMMA_IDS)}")
    _require_depth(depth)
    check, least, _ = _LEMMAS[lemma]
    if depth < least:
        raise DepthError(f"{lemma} needs depth >= {least}")
    report = check(depth)
    log.info(
        __name__, "lemma %s at depth %d: %s", lemma, depth, "pass" if report.passed else "FAIL"
    )
    return report
