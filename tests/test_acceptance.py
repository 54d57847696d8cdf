"""Acceptance criteria, one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict each criterion prints. Quotients are cached module-wide, so the
suite warms up progressively and finishes within minutes.
"""

import random

import pytest

from hanoikernel import analysis, automorphism, f2, game, permgroup, words
from hanoikernel.perm import Perm

import _brute
import _chain_oracles as oracles


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_quotient_orders():
    g1 = analysis.build_quotient(1).group.order()
    g2_group = analysis.build_quotient(2).group
    g2 = g2_group.order()
    brute = len(_brute.closure([g.images for g in g2_group.generators]))
    g3 = analysis.build_quotient(3).group.order()
    quotient_12 = (
        oracles.stab(analysis.build_quotient(2), 1).order()
        // oracles.stab(analysis.build_quotient(2), 2).order()
    )
    ok = (
        g1 == 6
        and g2 == 648
        and brute == 648
        and g3 == 816_293_376
        and quotient_12 == 108
    )
    verdict(
        1,
        ok,
        f"orders 6, 648 (brute-force {brute}), 816293376; level-1/2 quotient {quotient_12}",
    )


def test_criterion_2_gf2_suite():
    vectors = {w: f2.stab1_vector(w) for w in words.LEVEL1_STABILIZER_WORDS}
    expected = {
        "acab": (1, 0, 0, 0, 1, 1, 1, 0, 0),
        "abac": (1, 0, 0, 1, 0, 0, 0, 1, 1),
        "bcba": (1, 0, 1, 0, 1, 0, 0, 1, 0),
        "babc": (0, 1, 0, 0, 1, 0, 1, 0, 1),
    }
    u = f2.level1_stabilizer_space()
    w_space = f2.first_subtree_space()
    meet = f2.intersect(u, f2.even_letter_sum_space())
    alpha, beta, delta, gamma = (vectors[x] for x in words.LEVEL1_STABILIZER_WORDS)
    pair_sums = f2.span(
        [
            tuple(p ^ q for p, q in zip(alpha, beta)),
            tuple(p ^ q for p, q in zip(delta, gamma)),
        ],
        9,
    )
    ok = (
        vectors == expected
        and u.dim() == 4
        and f2.intersect(u, w_space).dim() == 0
        and meet == pair_sums
        and meet.dim() == 2
        and analysis.gamma1_order() == 16
        and analysis.kernel_seed_order() == 4
    )
    verdict(2, ok, "four vectors verbatim; dim U=4; U/\\W=0; seed spaces 16 and 4")


def test_criterion_3_rigid_stabilizer_structure():
    r21 = oracles.rist_image(2, 1)
    r32 = oracles.rist_image(3, 2)
    ok = (
        r21.order() == 27
        and permgroup.is_elementary_abelian(r21, 3)
        and r32.order() == 19_683
        and permgroup.is_elementary_abelian(r32, 3)
    )
    verdict(3, ok, "rigid images 27 and 19683, both elementary abelian 3")


def test_criterion_4_q_table():
    values = {
        (2, 1): analysis.q_order(2, 1),
        (3, 1): analysis.q_order(3, 1),
        (4, 1): analysis.q_order(4, 1),
        (3, 2): analysis.q_order(3, 2),
        (4, 2): analysis.q_order(4, 2),
    }
    expected = {(2, 1): 4, (3, 1): 4, (4, 1): 4, (3, 2): 64, (4, 2): 64}
    ok = values == expected
    verdict(4, ok, f"q table {sorted(values.items())}")


def test_criterion_5_kernel_report():
    report = analysis.kernel_report(n_max=2, depth_budget=4)
    gammas = [report.gamma1] + [row.gamma_order for row in report.rows]
    ks = [row.k_order for row in report.rows]
    hs = [row.h_order for row in report.rows]
    flags = [flag for row in report.rows for flag in row.elementary_abelian_2.values()]
    ok = (
        gammas == [16, 256, 1_048_576]
        and ks == [64, 2**18]
        and hs == [4, 4]
        and all(flags)
        and report.passed
        and report.kernel_order == 4
        and report.kernel_type == "Klein four-group"
    )
    verdict(
        5,
        ok,
        f"gamma {gammas}, K {ks}, H {hs}; verdict order 4, Klein four-group",
    )


def test_criterion_6_presentation():
    ok = True
    for letter in "abc":
        ok = ok and words.check_relator(letter + letter, 8)
    for base in words.RELATORS.values():
        word = base
        for n in range(5):
            ok = ok and words.check_relator(word, 8)
            word = words.tau(word)
    nontrivial = not words.check_relator("ab", 8)
    ok = ok and nontrivial
    verdict(6, ok, "squares and tau^n(w1..w4) trivial at depth 8, ab nontrivial")


def test_criterion_7_self_replication_and_transitivity():
    report = analysis.verify_lemma("transrec", depth=4)
    orbit = permgroup.orbit(81, analysis.build_quotient(4).group.generators, 1)
    ok = report.passed and len(orbit) == 81
    verdict(
        7,
        ok,
        "vertex-stabilizer states generate full lower quotients; leaf orbit 81",
    )


def test_criterion_8_game_correspondence():
    exhaustive = all(game.consistency_check(n) for n in range(1, 8))
    example = game.apply_move((2, 1, 3, 2, 2, 1), "b") == (2, 3, 3, 2, 2, 1)
    lengths = all(len(game.solve(n)) == 2**n - 1 for n in range(1, 11))
    ok = exhaustive and example and lengths
    verdict(8, ok, "moves match the tree action up to 7 disks; optimal lengths 2^n-1")


def test_criterion_9_property_suites():
    rng = random.Random(2026)
    cases = 0

    def random_word(max_len=8):
        return "".join(rng.choice("abc") for _ in range(rng.randint(0, max_len)))

    # cocycle identity for states of a product
    for _ in range(350):
        g = words.evaluate(random_word(), 5)
        h = words.evaluate(random_word(), 5)
        u = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 5)))
        lhs = automorphism.state_at(automorphism.compose(g, h), u)
        rhs = automorphism.compose(
            automorphism.state_at(g, u),
            automorphism.state_at(h, automorphism.apply(g, u)),
        )
        assert lhs == rhs
        cases += 1

    # evaluation and leaf permutations are homomorphisms
    for _ in range(250):
        u, v = random_word(), random_word()
        left = words.evaluate(u + v, 4)
        assert left == automorphism.compose(
            words.evaluate(u, 4), words.evaluate(v, 4)
        )
        assert automorphism.leaf_permutation(left, 3) == automorphism.leaf_permutation(
            words.evaluate(u, 4), 3
        ) * automorphism.leaf_permutation(words.evaluate(v, 4), 3)
        cases += 1

    # orbit-stabilizer factorization on random point stabilizers
    g2 = analysis.build_quotient(2).group
    g3 = analysis.build_quotient(3).group
    for _ in range(150):
        group = rng.choice([g2, g3])
        point = rng.randint(1, group.degree)
        stabilizer = oracles.pointwise_stabilizer(group, [point])
        orbit = permgroup.orbit(group.degree, group.generators, point)
        assert stabilizer.order() * len(orbit) == group.order()
        cases += 1

    # chain membership against brute-force enumeration, order <= 5000
    import math

    groups = []
    while len(groups) < 12:
        degree = rng.randint(4, 7)
        gens = []
        for _ in range(2):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(tuple(images))
        try:
            elements = _brute.closure(gens, cap=5000)
        except RuntimeError:
            continue
        # keep proper subgroups so non-members exist to sample
        if len(elements) == math.factorial(degree):
            continue
        groups.append((degree, gens, elements))
    for degree, gens, elements in groups:
        perms = [Perm(g) for g in gens]
        group = permgroup.PermGroup(degree, perms)
        assert group.order() == len(elements)
        # the orbit of each point, with no chain, against the closure's images
        for point in range(1, degree + 1):
            expected = sorted({e[point - 1] + 1 for e in elements})
            assert permgroup.orbit(degree, perms, point) == expected
            cases += 1
        element_list = sorted(elements)
        for _ in range(15):
            member = element_list[rng.randrange(len(element_list))]
            assert group.contains(Perm(member))
            cases += 1
        misses = 0
        while misses < 10:
            images = list(range(degree))
            rng.shuffle(images)
            if tuple(images) not in elements:
                assert not group.contains(Perm(images))
                misses += 1
                cases += 1

    assert cases >= 1000
    verdict(9, True, f"{cases} randomized property cases, fixed seed, all pass")


def test_optional_q_table_level_3():
    values = {
        (4, 3): analysis.q_order(4, 3),
        (5, 3): analysis.q_order(5, 3),
    }
    ok = values == {(4, 3): 262_144, (5, 3): 262_144}
    verdict(4, ok, f"slow q rows {sorted(values.items())}")


def test_optional_kernel_report_three_rows():
    report = analysis.kernel_report(n_max=3, depth_budget=5)
    row = report.rows[-1]
    ok = (
        report.passed
        and row.gamma_order == 2**56
        and row.k_order == 2**54
        and row.h_order == 4
    )
    verdict(5, ok, "slow kernel row n=3: gamma 2^56, K 2^54, H 4")


@pytest.mark.slow
def test_optional_depth6_quotient():
    """G_6 acts on 729 leaves, past the degree where stabilizer chains switch
    from bytes to tuples. A non-member is certified at depth 2: a portrait
    whose level-2 action lies outside G_2 cannot lie in G_6."""
    quotient = analysis.build_quotient(6, slow=True)
    group = quotient.group
    gens = list(quotient.generator_map.values())
    a, b, c = gens
    products = [g * h for g in gens for h in gens] + [a * b * c, b * c * a, c * a * b]
    labels = {(1,): Perm.from_cycles(3, [(1, 2)])}
    g2 = analysis.build_quotient(2).group.generators
    assert automorphism.leaf_permutation(
        automorphism.from_labels(2, labels), 2
    ).images not in _brute.closure([g.images for g in g2])
    outside = automorphism.leaf_permutation(automorphism.from_labels(6, labels), 6)
    ok = (
        group.order() == analysis.quotient_order(6)
        and all(group.contains(p) for p in gens + products)
        and not group.contains(outside)
        and not group.contains(products[1] * outside)
    )
    verdict(1, ok, "|G_6| = 2^243 * 3^364 with degree-729 stabilizer chains")


def test_optional_depth6_self_replication():
    report = analysis.verify_lemma("transrec", 6)
    ok = (
        report.passed
        and report.computed["level_1"]["vertices"] == 3
        and report.computed["level_2"]["vertices"] == 9
    )
    verdict(7, ok, "depth-6 vertex-stabilizer states generate G_5 and G_4")
