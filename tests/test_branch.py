"""The branch recursion's orders and the depth-2-pattern membership test,
against the Schreier-Sims chains of G_N and G'_N and, at depth 2, against
brute-force enumeration; and each certificate check against a broken
certificate."""

import itertools
import random

import pytest

from hanoikernel import analysis, branch, cli, words
from hanoikernel import automorphism as am
from hanoikernel.errors import DepthError, ShapeError
from hanoikernel.perm import Perm

import _brute
import _chain_oracles as oracles


@pytest.fixture
def fresh_certificate():
    """Check the certificate anew in the test, and again after it."""
    branch._structure.cache_clear()
    yield
    branch._structure.cache_clear()


def chain_orders(depth: int) -> tuple[int, int]:
    """|G_N| and |G'_N| from chains; G'_N as the normal closure of the
    commutators of the generators, which rests on no words for Gamma'."""
    group = analysis.build_quotient(depth, slow=True).group
    return group.order(), oracles.derived_subgroup(group).order()


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_orders_match_chains(depth):
    assert branch.orders(depth) == chain_orders(depth)


def test_orders_match_the_table_formula():
    for depth in range(1, 13):
        order, derived = branch.orders(depth)
        assert order == analysis.quotient_order(depth) == 2 * derived


def test_orders_and_contains_reject_bad_input():
    with pytest.raises(DepthError):
        branch.orders(0)
    with pytest.raises(DepthError):
        branch.contains((0,), 0)
    with pytest.raises(ShapeError):
        branch.contains(tuple(range(9)), 3)


def random_member(gens: list[Perm], rng: random.Random) -> Perm:
    p = Perm.identity(gens[0].degree)
    for _ in range(rng.randint(1, 30)):
        p = p * rng.choice(gens)
    return p


def swaps(depth: int, vertices: list[tuple[int, ...]], rng: random.Random) -> Perm:
    """The tree automorphism swapping two random children of each vertex."""
    labels = {v: Perm.from_cycles(3, [rng.sample((1, 2, 3), 2)]) for v in vertices}
    return am.leaf_permutation(am.from_labels(depth, labels), depth)


def sibling_swap(depth: int, rng: random.Random) -> Perm:
    """Swap two child subtrees of a random vertex. The sign of a member's
    label at a vertex of level <= N - 2 is the product of its children's,
    and one swap breaks that at the vertex or its parent."""
    vertex = tuple(rng.randint(1, 3) for _ in range(rng.randrange(depth)))
    return swaps(depth, [vertex], rng)


def twin_swap(depth: int, rng: random.Random) -> Perm:
    """Swap two child subtrees of two sibling vertices of level N - 1: their
    parent keeps its product of signs, so this lies in G_N."""
    parent = tuple(rng.randint(1, 3) for _ in range(depth - 2))
    i, j = rng.sample((1, 2, 3), 2)
    return swaps(depth, [parent + (i,), parent + (j,)], rng)


def leaf_swap(p: Perm, rng: random.Random) -> Perm:
    """Swap the images of two random leaves."""
    images = list(p.images)
    i, j = rng.sample(range(len(images)), 2)
    images[i], images[j] = images[j], images[i]
    return Perm(images)


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_contains_matches_chain_sifting(depth):
    quotient = analysis.build_quotient(depth, slow=True)
    rng = random.Random(depth)
    gens = list(quotient.group.generators)
    members = [random_member(gens, rng) for _ in range(40)]
    members += [m * twin_swap(depth, rng) for m in members[:20]]
    near = [m * sibling_swap(depth, rng) for m in members[:40]]
    near += [leaf_swap(m, rng) for m in members[:40]]
    for _ in range(20):
        images = list(range(3**depth))
        rng.shuffle(images)
        near.append(Perm(images))
    for p in members + near:
        assert branch.contains(p.images, depth) == quotient.group.contains(p) == (p in members)


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_contains_rejects_leaf_swaps_that_keep_every_pattern(depth):
    """Swapping the images of two leaves that are not the first of their
    siblings and whose images sit at the same place below their level-(N-2)
    vertices changes no depth-2 pattern; only the sibling check sees it."""
    quotient = analysis.build_quotient(depth, slow=True)
    rng = random.Random(depth)
    member = random_member(list(quotient.group.generators), rng)
    assert branch.contains(member.images, depth)
    pairs = [
        (i, j)
        for i in range(1, 27, 3)
        for j in range(i + 1, 3**depth)
        if j % 3 and member.data[i] % 9 == member.data[j] % 9
    ]
    assert pairs
    for i, j in pairs[:20]:
        images = list(member.images)
        images[i], images[j] = images[j], images[i]
        assert not branch.contains(images, depth)
        assert not quotient.group.contains(Perm(images))


def test_contains_matches_enumeration_at_depths_1_and_2():
    g1 = [g.images for g in analysis.build_quotient(1).group.generators]
    for images in itertools.permutations(range(3)):
        assert branch.contains(images, 1) == (images in _brute.closure(g1))
    g2 = _brute.closure([g.images for g in analysis.build_quotient(2).group.generators])
    # every tree automorphism of depth 2: a root permutation and one label
    # per level-1 vertex
    s3 = list(itertools.permutations(range(3)))
    automorphisms = {
        tuple(3 * root[i] + labels[i][j] for i in range(3) for j in range(3))
        for root in s3
        for labels in itertools.product(s3, repeat=3)
    }
    assert len(automorphisms) == 6**4 and g2 <= automorphisms
    rng = random.Random(2)
    shuffled = {tuple(rng.sample(range(9), 9)) for _ in range(500)}
    for images in automorphisms | shuffled:
        assert branch.contains(images, 2) == (images in g2)


@pytest.mark.slow
def test_depth6_orders_and_contains_match_chains():
    assert branch.orders(6) == chain_orders(6)
    quotient = analysis.build_quotient(6, slow=True)
    rng = random.Random(6)
    members = [random_member(list(quotient.group.generators), rng) for _ in range(10)]
    members += [m * twin_swap(6, rng) for m in members]
    near = [m * sibling_swap(6, rng) for m in members]
    near += [leaf_swap(m, rng) for m in members]
    for p in members + near:
        assert branch.contains(p.images, 6) == quotient.group.contains(p) == (p in members)


def test_certificate_is_checked_once_on_first_use(fresh_certificate, capsys):
    # the package import and `verify --list` compute nothing here
    assert cli.main(["verify", "--list"]) == 0
    assert branch._structure.cache_info().misses == 0
    branch.orders(3)
    branch.contains(tuple(range(27)), 3)
    assert branch._structure.cache_info().misses == 1


def test_certificate_logs_its_orders(fresh_certificate, caplog):
    with caplog.at_level("INFO", logger="hanoikernel.branch"):
        branch.orders(2)
    assert "|P| = 24, |P'| = 12, |G_2| = 648" in caplog.text


@pytest.mark.parametrize(
    "word, pair",
    [
        ("acbcacbca", "ab"),  # an odd letter count
        ("acbcacbc", "ac"),  # the states of another commutator
        ("abab", "ab"),  # [a, b] at the root, not in the first state
    ],
)
def test_certificate_rejects_a_bad_branching_word(fresh_certificate, monkeypatch, word, pair):
    """A bad word for a pair fails the certificate and, since verify reads
    the same table, that pair's row of the branching lemma."""
    certificate = dict(branch.BRANCHING_WORDS)
    name = next(n for n, (_, p) in certificate.items() if p == pair)
    certificate[name] = (word, pair)
    monkeypatch.setattr(branch, "BRANCHING_WORDS", certificate)
    with pytest.raises(AssertionError, match="no branching word"):
        branch.orders(2)
    result = analysis.verify_lemma("branching", 3)
    assert not result.passed
    assert [n for n, row in result.computed.items() if not row["match"]] == [name]


@pytest.mark.parametrize(
    "word",
    [
        "abac",  # fixes level 1, but its first state is a
        "cb",  # first state b, but it moves level 1
    ],
)
def test_certificate_rejects_a_bad_self_replication_word(fresh_certificate, monkeypatch, word):
    monkeypatch.setitem(branch.SELF_REPLICATION_WORDS, "b", word)
    with pytest.raises(AssertionError, match="does not replicate"):
        branch.contains(tuple(range(9)), 2)


def flipped(images: tuple, vertex: int) -> tuple:
    """The C_2 wr S_3 element times a sign flip at a level-1 vertex."""
    return tuple(x ^ 1 if k // 2 == vertex else x for k, x in enumerate(images))


def test_certificate_rejects_a_p_whose_derived_subgroup_is_not_the_sign_kernel(
    fresh_certificate, monkeypatch
):
    # an extra flip in a's image makes P all of C_2 wr S_3 (order 48), whose
    # derived subgroup has order 12, not 24
    real = branch._sign_image
    monkeypatch.setattr(
        branch, "_sign_image", lambda x: flipped(real(x), 1) if x == "a" else real(x)
    )
    with pytest.raises(AssertionError, match="kernel of the root sign"):
        branch.orders(3)


def test_certificate_rejects_a_g1_whose_derived_subgroup_is_not_the_sign_kernel(
    fresh_certificate, monkeypatch
):
    # roots that are 3-cycles make G_1 = A_3, an abelian group of even
    # permutations
    cycle = Perm.from_cycles(3, [(1, 2, 3)])
    for letter in words.ALPHABET:
        monkeypatch.setitem(words.ROOT_PERMS, letter, cycle)
    with pytest.raises(AssertionError, match="kernel of the root sign"):
        branch.orders(3)


def test_certificate_rejects_a_p_that_breaks_the_recursion_at_depth_2(
    fresh_certificate, monkeypatch
):
    # with c's image replaced by b's, P has order 6 and P' is its even part,
    # but |G_2| = 648 is not 6 * 27
    real = branch._sign_image
    monkeypatch.setattr(branch, "_sign_image", lambda x: real("b" if x == "c" else x))
    with pytest.raises(AssertionError, match="breaks the branch recursion"):
        branch.orders(3)


def reduced_words(length: int):
    """Every word of the given length with no two equal adjacent letters."""
    for letters in itertools.product(words.ALPHABET, repeat=length):
        if all(x != y for x, y in zip(letters, letters[1:])):
            yield "".join(letters)


def test_no_reduced_word_has_a_state_of_full_length():
    """The step-table condition _structure checks, read off the brute
    action instead: no first-level state of a reduced word of length >= 2
    receives all its letters."""
    for length in range(2, 11):
        for word in reduced_words(length):
            states, _ = _brute.word_states(word)
            assert max(map(len, states)) < length, word


def step_table_read_off_root():
    """words._STEP with each letter's coordinate read off the running root
    label instead of its inverse."""
    return tuple(
        {x: (words._S3[s].apply(words._HOME[x]) - 1, after) for x, (_, after) in row.items()}
        for s, row in enumerate(words._STEP)
    )


def test_certificate_rejects_a_step_table_that_lands_two_letters_in_one_state(
    fresh_certificate, monkeypatch
):
    monkeypatch.setattr(words, "_STEP", step_table_read_off_root())
    with pytest.raises(AssertionError, match="lands in one state"):
        branch.orders(2)
