import json

import pytest

from hanoikernel import analysis, automorphism, branch, cli, f2, permgroup, words
from hanoikernel.perm import Perm
from hanoikernel.errors import (
    DepthError,
    NotASubgroupError,
    ResourceLimitError,
    ShapeError,
)

import _chain_oracles as oracles


def elab_flag(depth, n):
    """elab's flag for Q(n,N): the containment and the order check of
    k = N - n."""
    k = depth - n
    return analysis._rist_in_stab(k) and analysis._rist_is_kernel(k)


@pytest.fixture
def fresh_caches():
    """Caches cleared before the test and again after it, so that neither
    a verdict cached before a patch hides a mutant nor one cached under it
    outlives the patch."""
    analysis.clear_caches()
    yield
    analysis.clear_caches()


def test_quotient_orders():
    assert analysis.build_quotient(1).group.order() == 6
    assert analysis.build_quotient(2).group.order() == 648
    assert analysis.build_quotient(3).group.order() == 816_293_376


def test_quotient_order_formula_matches_table():
    table = analysis.load_expected_table()
    for key, value in table["quotient_order"]["values"].items():
        assert analysis.quotient_order(int(key)) == value


def test_quotient_order_below_depth_one():
    # G_0 acts on the root alone, so it is trivial
    assert analysis.quotient_order(0) == 1
    assert analysis.quotient_order(1) == 6
    with pytest.raises(DepthError, match="depth must be >= 0"):
        analysis.quotient_order(-1)


def test_quotient_generators_are_involutions():
    q = analysis.build_quotient(3)
    for perm in q.generator_map.values():
        assert (perm * perm).is_identity()


def test_depth_guard():
    # slow gates G_6's chain alone: depth 5 builds without it
    assert analysis.build_quotient(5).group.order() == analysis.quotient_order(5)
    with pytest.raises(ResourceLimitError, match="needs the slow flag"):
        analysis.build_quotient(6)
    with pytest.raises(ResourceLimitError, match=r"exceeds the degree cap 3\^6"):
        analysis.build_quotient(7, slow=True)
    with pytest.raises(DepthError):
        analysis.build_quotient(0)


def test_a_refused_quotient_caches_nothing(fresh_caches):
    """The depth and slow checks come before the cache."""
    for depth, slow, error in (
        (6, False, ResourceLimitError), (7, True, ResourceLimitError), (0, False, DepthError)
    ):
        with pytest.raises(error):
            analysis.build_quotient(depth, slow)
    assert analysis._quotient.cache_info().currsize == 0
    assert analysis.build_quotient(2) is analysis.build_quotient(2)


def test_block_action_compatibility_across_depths():
    # the level-n block action of G_N has the generator images of G_n
    for big_n in (2, 3):
        big = analysis.build_quotient(big_n)
        for n in range(1, big_n):
            size = 3 ** (big_n - n)
            small = analysis.build_quotient(n)
            pairs = zip(
                big.generator_map.values(), small.generator_map.values(), strict=True
            )
            for g, h in pairs:
                # every leaf of block v lands in block h(v)
                for v in range(3**n):
                    leaves = range(v * size, (v + 1) * size)
                    assert {g.data[leaf] // size for leaf in leaves} == {h.data[v]}


def test_stab_examples():
    g2 = analysis.build_quotient(2)
    s = oracles.stab(g2, 1)
    assert oracles.subgroup_index(g2.group, s) == 6
    assert oracles.stab(g2, 0) is g2.group
    assert oracles.stab(g2, 2).order() == 1
    g3 = analysis.build_quotient(3)
    assert oracles.stab(g3, 1).order() == 816_293_376 // 6


def test_stab_depth_error():
    with pytest.raises(DepthError):
        oracles.stab(analysis.build_quotient(2), 3)
    # Q(n,N) is defined for 1 <= n < N only
    for n in (0, 2):
        with pytest.raises(DepthError):
            analysis.q_order(2, n)


def test_rist_image_examples():
    r = oracles.rist_image(2, 1)
    assert r.order() == 27
    assert permgroup.is_elementary_abelian(r, 3)
    assert oracles.rist_image(3, 2).order() == 19_683
    # rigid stabilizer sits inside the level stabilizer
    s = oracles.stab(analysis.build_quotient(3), 2)
    assert all(s.contains(g) for g in oracles.rist_image(3, 2).generators)


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_rist_generators_match_oracle_blocks(depth):
    """The per-copy oracle's Rist(n) generators are rist_image's copies of
    G'_k on the level-n blocks, none dropped, moved or added."""
    for n in range(1, depth):
        images = oracles.rist_copies(depth, n)
        oracle = {g.images for g in oracles.rist_image(depth, n).generators}
        factor = analysis._derived_subgroup(depth - n).generators
        assert len(images) == len(oracle) == 3**n * len(factor)
        assert set(images) == oracle


def test_q_orders_small():
    assert analysis.q_order(2, 1) == 4
    assert analysis.q_order(3, 1) == 4
    assert analysis.q_order(3, 2) == 64


def test_level_stabilizer_quotient_orders():
    g3 = analysis.build_quotient(3)
    s1 = oracles.stab(g3, 1).order()
    s2 = oracles.stab(g3, 2).order()
    assert s1 // s2 == analysis.stab_quotient_order(1) == 108
    assert s2 == analysis.stab_quotient_order(2) == 1_259_712


def test_derived_quotient_orders():
    # index 2 at every depth: letter parities die in the truncations
    for depth in (1, 2, 3):
        q = analysis.build_quotient(depth)
        assert q.group.order() == 2 * analysis._derived_subgroup(depth).order()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_derived_of_quotient_matches_normal_closure(k):
    """G'_k from the Gamma' words is the normal closure of the commutators
    of G_k's generators, and has the order of the branch recursion."""
    quotient = analysis.build_quotient(k, slow=True)
    derived = analysis._derived_subgroup(k)
    assert oracles.same_subgroup_as(derived, oracles.derived_subgroup(quotient.group))
    assert derived.order() == branch.orders(k)[1]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_derived_generators_each_enlarge_the_group(k):
    gens = analysis._derived_subgroup(k).generators
    assert gens
    for i, g in enumerate(gens):
        assert not permgroup.PermGroup(3**k, gens[:i]).contains(g)


def test_no_command_builds_a_chain_of_g_k(monkeypatch):
    """The kernel report and every lemma read G_N through branch, G'_k
    through the Gamma' words and the leaf orbit through the letters' leaf
    permutations, so no quotient G_k is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("a command built a truncated quotient")

    monkeypatch.setattr(analysis, "build_quotient", refuse)
    analysis.clear_caches()
    analysis.kernel_report(3, 5)
    for depth in (4, 6):
        for lemma in analysis.LEMMA_IDS:
            assert analysis.verify_lemma(lemma, depth).passed
    assert analysis._quotient.cache_info().currsize == 0


@pytest.mark.parametrize("letters, passed", [
    ("a", False), ("b", False), ("c", False), ("ab", True), ("ac", True), ("bc", True),
])
def test_transitive_reads_every_letter(monkeypatch, letters, passed):
    """Any two of a, b and c are transitive on the leaves at depths 2-4, so
    only a letter alone shows that the orbit reads the letters it is given:
    a fixes leaf 1, and b and c each move it to one other leaf."""
    monkeypatch.setattr(words, "ALPHABET", letters)
    for depth in (2, 3, 4):
        report = analysis.verify_lemma("transitive", depth=depth)
        assert report.passed is passed
        if len(letters) == 1:
            assert report.computed["orbit_size"] == (1 if letters == "a" else 2)


def test_transitive_fails_on_the_leaves_of_the_level_above(monkeypatch):
    """Letters that act as at depth N - 1, on the first 3^(N-1) leaves, and
    fix the others reach only those leaves, and transitive fails."""
    real = analysis.leaf_permutation

    def fake(portrait, depth):
        images = real(portrait, depth).images
        size = 3 ** (depth - 1)
        return Perm([images[3 * v] // 3 for v in range(size)] + list(range(size, 3**depth)))

    monkeypatch.setattr(analysis, "leaf_permutation", fake)
    for depth in (2, 3, 4):
        report = analysis.verify_lemma("transitive", depth=depth)
        assert not report.passed
        assert report.computed["orbit_size"] == 3 ** (depth - 1)


def test_transitive_fails_on_identity_letters(monkeypatch):
    """Letters that all act as the identity leave leaf 1 alone: the orbit
    reads its generators, not just the degree."""
    def identity(portrait, depth):
        return Perm.identity(3**depth)

    monkeypatch.setattr(analysis, "leaf_permutation", identity)
    report = analysis.verify_lemma("transitive", depth=3)
    assert report.computed["orbit_size"] == 1
    assert not report.passed


def test_level_identity_inside_rigid_product():
    # the level-(n+m) stabilizer inside the level-n rigid image equals the
    # product over level-n subtrees of embedded level-m stabilizers
    cases = [(2, 1, 1), (3, 1, 1), (3, 2, 1)]
    for big_n, n, m in cases:
        rist = oracles.rist_image(big_n, n)
        inside = oracles.kernel_of_level_action(rist, n + m)
        inner = oracles.kernel_of_level_action(analysis._derived_subgroup(big_n - n), m)
        product = oracles.direct_power(inner, 3**n)
        assert oracles.same_subgroup_as(inside, product)


@pytest.mark.parametrize("extra", ["leaf transposition", "generator a"])
def test_rist_check_fails_when_rist_leaves_stab(monkeypatch, fresh_caches, extra):
    # a factor with one more generator: a transposition of two sibling
    # leaves, outside G_k for k >= 2 (G_1 is S_3), or a, inside G_k but
    # outside G'_k; the copies of either on the level-n blocks fix level n
    # and lie outside G_N
    real = analysis._derived_subgroup

    def extra_perm(k):
        if extra == "generator a":
            return analysis.build_quotient(k).generator_map["a"]
        return Perm([1, 0, *range(2, 3**k)])

    monkeypatch.setattr(
        analysis,
        "_derived_subgroup",
        lambda k: permgroup.PermGroup(3**k, [*real(k).generators, extra_perm(k)]),
    )
    analysis.clear_caches()
    for k in (2, 3):
        member = extra == "generator a"
        assert analysis.build_quotient(k).group.contains(extra_perm(k)) == member
        assert branch.contains(extra_perm(k).images, k) == member
    for depth in (2, 3, 4):
        report = analysis.verify_lemma("rist", depth=depth)
        assert not report.passed
        assert not any(report.computed["containments"].values())
        # Q(n,N) and its flag rest on the same containment
        for n in range(1, depth):
            with pytest.raises(NotASubgroupError):
                analysis.q_order(depth, n)
            assert not elab_flag(depth, n)
        assert not any(analysis.verify_lemma("elab", depth=depth).computed.values())


@pytest.mark.parametrize("depth", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_rist_check_matches_the_per_copy_oracle(monkeypatch, fresh_caches, depth):
    """The three level-1 copies in G_(k+1) give the verdict of every copy on
    level n in G_N, for G'_k's generators, which pass, and for factors whose
    copies leave G_N: a letter, a transposition of sibling leaves, and a
    G'_k generator times that transposition."""
    real = analysis._derived_subgroup

    def transposition(k):
        return Perm([1, 0, *range(2, 3**k)])

    factors = {
        "G'_k": lambda k: real(k).generators,
        "sibling transposition": lambda k: [transposition(k)],
        "G'_k generator times it": lambda k: [real(k).generators[0] * transposition(k)],
    }
    for letter in words.ALPHABET:
        factors[letter] = lambda k, x=letter: [
            automorphism.leaf_permutation(words.evaluate(x, k), k)
        ]
    for name, gens in factors.items():
        monkeypatch.setattr(
            analysis, "_derived_subgroup", lambda k: permgroup.PermGroup(3**k, gens(k))
        )
        analysis.clear_caches()
        for n in range(1, depth):
            verdict = analysis._rist_in_stab(depth - n)
            assert verdict == oracles.rist_copies_in_stab(depth, n), (name, n)
            assert verdict is (name == "G'_k"), (name, n)


def count_containments(monkeypatch):
    """Wrap branch.contains; returns the list of the degrees it is called
    at, which grows with every call."""
    real = branch.contains
    degrees = []

    def contains(images, depth):
        degrees.append(len(images))
        return real(images, depth)

    monkeypatch.setattr(branch, "contains", contains)
    return degrees


def test_rist_check_reads_three_copies_per_generator_in_g_k_plus_1(monkeypatch, fresh_caches):
    """Each containment makes 3 |gens(G'_k)| branch.contains calls, each on
    the 3^(k+1) leaves of G_(k+1); a per-copy check would make 3^n times as
    many for each n, each at degree 3^N."""
    degrees = count_containments(monkeypatch)
    analysis.clear_caches()
    assert analysis.kernel_report(3, 5).passed
    assert analysis.verify_lemma("rist", 6).passed
    for k in range(1, 6):
        copies = 3 * len(analysis._derived_subgroup(k).generators)
        assert degrees.count(3 ** (k + 1)) == copies
    assert len(degrees) == sum(
        3 * len(analysis._derived_subgroup(k).generators) for k in range(1, 6)
    )


def test_each_k_is_decided_once(monkeypatch, fresh_caches):
    """With fresh caches, the kernel report and every lemma at depth 4
    decide each k = N - n once: all the copies of k at degree 3^(k+1), in
    one run of calls. A second report decides none, after clear_caches each
    k is decided once again, and each lemma alone decides the k it reads."""
    degrees = count_containments(monkeypatch)

    def runs():
        """Each degree's runs of consecutive calls, as [degree, calls]."""
        out = []
        for degree in degrees:
            if out and out[-1][0] == degree:
                out[-1][1] += 1
            else:
                out.append([degree, 1])
        return out

    def decided_once(ks):
        return [
            [3 ** (k + 1), 3 * len(analysis._derived_subgroup(k).generators)] for k in ks
        ]

    analysis.clear_caches()
    assert analysis.kernel_report(3, 5).passed
    assert runs() == decided_once([1, 2])
    for lemma in analysis.LEMMA_IDS:
        assert analysis.verify_lemma(lemma, 4).passed
    assert runs() == decided_once([1, 2, 3])
    degrees.clear()
    assert analysis.kernel_report(3, 5).passed
    assert degrees == []
    analysis.clear_caches()
    assert analysis.kernel_report(3, 5).passed
    assert runs() == decided_once([1, 2])
    # alone, each lemma decides the k it reads: rist k = N - n for every n,
    # elab those of Q(n,n+1) and Q(n,n+2)
    reads = {"rist": [1, 2, 3], "elab": [1, 2]}
    for lemma in analysis.LEMMA_IDS:
        analysis.clear_caches()
        degrees.clear()
        assert analysis.verify_lemma(lemma, 4).passed
        assert sorted(runs()) == decided_once(reads.get(lemma, [])), lemma


def test_kernel_report_logs_one_containment_per_k(caplog, fresh_caches):
    """The depth-5 kernel report of the benchmark logs the two containments
    it decides, for k = 1 and k = 2."""
    with caplog.at_level("INFO", logger="hanoikernel.analysis"):
        assert analysis.kernel_report(3, 5).passed
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("Rist(")]
    assert lines == [
        "Rist(n) <= Stab(n) in G_(n+1) for every n: pass,"
        " 3 level-1 copies of G'_1's generators in G_2 at degree 9",
        "Rist(n) <= Stab(n) in G_(n+2) for every n: pass,"
        " 6 level-1 copies of G'_2's generators in G_3 at degree 27",
    ]


@pytest.mark.parametrize(
    "cycles, flag",
    [
        ([(1, 2, 3), (4, 5, 6)], True),
        # two 3-cycles sharing a point: each has order 3, and they do not commute
        ([(1, 2, 3), (3, 4, 5)], False),
        ([(1, 2, 3), (4, 5)], False),
    ],
)
def test_ristquot_flag_reads_the_factor(monkeypatch, fresh_caches, cycles, flag):
    """ristquot's flag is the factor's: every generator of order 3 and every
    pair commuting."""
    def fake(k):
        return permgroup.PermGroup(9, [Perm.from_cycles(9, [c]) for c in cycles])

    monkeypatch.setattr(analysis, "_derived_subgroup", fake)
    analysis.clear_caches()
    report = analysis.verify_lemma("ristquot", depth=2)
    assert report.computed["n=1"]["elementary_abelian_3"] is flag
    assert not report.passed


@pytest.mark.parametrize(
    "depth, vertex, letter", [(2, (1,), "c"), (3, (2,), "b"), (4, (3, 1), "a")]
)
def test_transrec_fails_when_a_vertex_state_lacks_a_letter(monkeypatch, depth, vertex, letter):
    """A vertex whose stabilizer words' states miss a generator reports null
    for its order, and transrec fails; every other vertex keeps |G_k|."""
    real = words.state_word

    def fake(word, v):
        state = real(word, v)
        return "" if v == vertex and state == letter else state

    monkeypatch.setattr(words, "state_word", fake)
    report = analysis.verify_lemma("transrec", depth=depth)
    assert not report.passed
    key = f"level_{len(vertex)}"
    index = list(automorphism.level_vertices(len(vertex))).index(vertex)
    orders = json.loads(json.dumps(report.to_json_dict()))["computed"][key]["orders"]
    assert orders[index] is None
    expected = report.expected[key]["orders"]
    assert orders[:index] + orders[index + 1 :] == expected[:index] + expected[index + 1 :]


@pytest.mark.parametrize("depth", [2, 3, 4, 5, 6])
def test_transrec_builds_no_group(monkeypatch, depth):
    """transrec reads each section off word states: with the chain class,
    the group class and leaf permutations all raising, it still passes, and
    analysis has no portrait state to take."""
    def refuse(*args, **kwargs):
        raise AssertionError("transrec built a group, a chain or a leaf permutation")

    monkeypatch.setattr(permgroup, "_Chain", refuse)
    monkeypatch.setattr(permgroup.PermGroup, "__init__", refuse)
    monkeypatch.setattr(analysis, "leaf_permutation", refuse)
    monkeypatch.setattr(automorphism, "leaf_permutation", refuse)
    assert analysis.verify_lemma("transrec", depth).passed
    assert not hasattr(analysis, "state_at")


def test_gamma1_and_seed_orders():
    assert analysis.gamma1_order() == 16
    assert analysis.kernel_seed_order() == 4


def test_h_subspace():
    h = analysis.h_subspace()
    assert h.dim() == 2
    u = f2.level1_stabilizer_space()
    for vector in h.basis():
        assert u.contains(vector)
    # the recorded answer: a complement of the even-letter part of U, not
    # that part itself; its vectors repeat one parity triple per subtree
    table = analysis.load_expected_table()
    expected = f2.span(table["level2_stabilizer_space"]["basis"], 9)
    assert h == expected
    uz = f2.intersect(u, f2.even_letter_sum_space())
    assert f2.intersect(h, uz).dim() == 0
    assert h != uz


def test_kernel_report_small():
    report = analysis.kernel_report(n_max=1, depth_budget=3)
    assert report.passed
    assert report.gamma1 == 16
    assert report.seed_order == 4
    row = report.rows[0]
    assert (row.q_next, row.q_next2) == (4, 4)
    assert row.k_order == 64
    assert row.gamma_order == 256
    assert row.h_order == 4
    assert report.kernel_order == 4
    assert report.kernel_type == "Klein four-group"


def test_kernel_report_validation():
    with pytest.raises(ShapeError):
        analysis.kernel_report(n_max=0, depth_budget=3)
    with pytest.raises(ShapeError):
        analysis.kernel_report(n_max=2, depth_budget=3)


def test_exact_sequence_consistency():
    report = analysis.kernel_report(n_max=2, depth_budget=4)
    gamma = report.gamma1
    for row in report.rows:
        assert row.gamma_order * row.q_next == gamma * row.k_order
        gamma = row.gamma_order


def test_verify_lemma_dispatch_is_exhaustive():
    """One table gives every id its check, its least depth and its
    statement."""
    assert analysis.LEMMA_IDS == tuple(analysis._LEMMAS) == tuple(analysis.LEMMA_STATEMENTS)
    for lemma, (check, least, statement) in analysis._LEMMAS.items():
        assert check.__name__ == f"_check_{lemma}"
        assert least in (1, 2)
        assert analysis.LEMMA_STATEMENTS[lemma] == statement


def test_verify_lemma_unknown_id():
    with pytest.raises(KeyError):
        analysis.verify_lemma("nonsense")


@pytest.mark.parametrize(
    "lemma,depth",
    [
        ("selfsim", 1),
        ("transitive", 3),
        ("branching", 4),
        ("stab12", 2),
        ("index", 2),
        ("rist", 3),
        ("ristquot", 3),
        ("stabquot", 3),
        ("elab", 3),
        ("transrec", 3),
    ],
)
def test_verify_lemma_passes(lemma, depth):
    report = analysis.verify_lemma(lemma, depth=depth)
    assert report.passed, (report.computed, report.expected)


def test_verify_lemma_specific_values():
    stab12 = analysis.verify_lemma("stab12", depth=2)
    assert stab12.computed["stab1_mod_stab2_order"] == 108
    assert stab12.computed["label_triples"]["acab"] == ["(2 3)", "(1 2 3)", "(2 3)"]
    transitive = analysis.verify_lemma("transitive", depth=4)
    assert transitive.computed["orbit_size"] == 81
    stabquot = analysis.verify_lemma("stabquot", depth=3)
    assert stabquot.computed["n=1"]["stab_quotient"] == 108
    assert stabquot.computed["n=2"]["stab_quotient"] == 1_259_712


def test_expected_table_is_consistent_with_formulas():
    table = analysis.load_expected_table()
    for n, value in table["stabilizer_quotient_order"]["values"].items():
        assert analysis.stab_quotient_order(int(n)) == value
    for n, value in table["q_order"]["values"].items():
        assert analysis.q_expected(int(n)) == value
    for n, value in table["gamma_order"]["values"].items():
        assert analysis.gamma_expected(int(n)) == value
    for n, value in table["kernel_step_order"]["values"].items():
        assert analysis.k_expected(int(n)) == value
    for n, value in table["rist_level_quotient_order"]["values"].items():
        assert analysis.ristquot_expected(int(n)) == value
    for n, value in table["quotient_order"]["values"].items():
        assert analysis.quotient_order(int(n)) == value
    dim_u = table["level1_stabilizer_space_dim"]["value"]
    assert dim_u == f2.level1_stabilizer_space().dim()
    assert 2**dim_u == table["gamma_order"]["values"]["1"] == analysis.gamma1_order()
    assert table["rigid_kernel"]["order"] == 4
    assert table["seed_order"]["value"] == analysis.kernel_seed_order()


def test_derived_subgroup_index_is_two():
    """|G_N| / |G'_N| = 2 at every depth: the letter parities the table's
    entry says truncations cannot see."""
    index = analysis.load_expected_table()["derived_subgroup_index"]["value"]
    for depth in range(1, 7):
        order, derived = branch.orders(depth)
        assert order == index * derived


def test_expected_table_readers_get_copies():
    """What a caller gets from the table, or from a report's expected
    values, can be changed without changing what the next caller gets."""
    table = analysis.load_expected_table()
    table["h_order"]["value"] = 5
    table["stab1_vectors"]["abac"].clear()
    analysis.verify_lemma("rist", 2).expected["vectors"]["abac"].clear()
    report = analysis.kernel_report(1, 3)
    report.results()[-1].expected["type"] = "cyclic"
    assert analysis.load_expected_table()["stab1_vectors"]["abac"] == [1, 0, 0, 1, 0, 0, 0, 1, 1]
    for lemma in ("index", "rist"):
        assert analysis.verify_lemma(lemma, 2).passed
    _, row, kernel = report.results()
    assert row.expected == {"h(n,n+1)": 4, "q_stable": True}
    assert kernel.expected == {"order": 4, "type": "Klein four-group"}


def test_kernel_report_decides_the_gamma1_verdict(monkeypatch):
    monkeypatch.setattr(analysis, "gamma1_order", lambda: 32)
    report = analysis.kernel_report(1, 3)
    gamma1 = report.results()[0]
    assert gamma1.to_json_dict() == {"id": "gamma(1)", "computed": 32, "expected": 16, "pass": False}
    assert not report.passed
    assert report.failed_at == "row n=1"


def test_kernel_report_decides_the_seed_verdict(monkeypatch, capsys):
    """The seed order has no result of its own: the report's verdict alone
    carries it, and the command exits 1 on it."""
    table = analysis._table()
    seed = dict(table["seed_order"], value=8)
    monkeypatch.setattr(analysis, "_table", lambda: dict(table, seed_order=seed))
    report = analysis.kernel_report(1, 3)
    assert not report.passed
    assert report.failed_at == "GF(2)^9 seed values"
    assert cli.main(["kernel-report", "--n-max", "1", "--depth", "3"]) == 1


def test_concurrent_lemma_checks():
    # quotient caches are shared; parallel verification must be safe
    from concurrent.futures import ThreadPoolExecutor

    analysis.clear_caches()
    lemmas = ["transitive", "branching", "ristquot", "selfsim", "stab12", "elab"]
    with ThreadPoolExecutor(max_workers=6) as pool:
        reports = list(pool.map(lambda l: analysis.verify_lemma(l, depth=3), lemmas))
    assert all(r.passed for r in reports)


def race(work):
    """work's results from eight threads started together, with fresh
    caches and a short switch interval, so that cache misses overlap."""
    import sys
    import threading

    analysis.clear_caches()
    results = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(work())) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert len(results) == 8
    return results


def test_unlocked_caches_keep_one_value_per_key():
    # racing callers wait for build_quotient's one build, and every thread
    # gets that one back; the oracle's Rist images are not cached, so each
    # thread builds its own
    def work():
        quotient = analysis.build_quotient(3)
        return quotient, oracles.rist_image(3, 1), quotient.group.order()

    results = race(work)
    assert len({id(q) for q, _, _ in results}) == 1
    assert {order for _, _, order in results} == {analysis.quotient_order(3)}
    # |G'_2|^3, half of |G_2| in each of the three level-1 subtrees
    assert results[0][1].order() == (analysis.quotient_order(2) // 2) ** 3


def test_racing_derived_subgroup_callers_get_equal_groups():
    # the G'_k cache takes no lock, so racing misses may each build; what
    # each caller gets must still be the same group, with the same
    # generators in the same order
    groups = race(lambda: analysis._derived_subgroup(3))
    assert {group.order() for group in groups} == {branch.orders(3)[1]}
    assert len({tuple(group.generators) for group in groups}) == 1


def unpruned_elementary_abelian_quotient(quotient, n, rist):
    """The flag's check over every Stab(n) generator, none dropped."""
    gens = oracles.stab(quotient, n).generators
    for i, g in enumerate(gens):
        if not rist.contains(g * g):
            return False
        for h in gens[i + 1 :]:
            if not rist.contains(branch.perm_commutator(g, h)):
                return False
    return True


def test_elementary_abelian_flags_match_unpruned_check():
    # the flag from orders against the flag from chain orders and the sift
    # checks over Stab(n) generators
    for big_n in range(2, 6):
        quotient = analysis.build_quotient(big_n, slow=True)
        for n in range(1, big_n):
            flag = elab_flag(big_n, n)
            rist = oracles.rist_image(big_n, n)
            assert flag == oracles.chain_elementary_abelian_quotient(quotient, n, rist)
            assert flag == oracles.elementary_abelian_quotient(quotient, n, rist)
            assert flag == unpruned_elementary_abelian_quotient(quotient, n, rist)
            assert flag, (n, big_n)


def test_elementary_abelian_flags_fail_over_too_small_subgroups(monkeypatch, fresh_caches):
    # Each fake factor is a subgroup of G'_k, k = N - n, smaller than G'_k,
    # so its copies lie in Stab(n) and generate less than (G'_k)^(3^n): the
    # flag's order check fails them, and so do the three oracles. The flag
    # compares the order of the factor's chain with |G'_k| from the branch
    # recursion, so it fails only while it reads the patched factor. In the
    # sift oracles, the trivial group contains no generator, so none is
    # dropped; the level-1 kernel of G'_2 makes a normal subgroup that
    # contains one Stab(2) generator of G_4, which is dropped.
    real = analysis._derived_subgroup

    def trivial(k):
        return permgroup.PermGroup(3**k)

    def level1_kernel(k):
        return oracles.kernel_of_level_action(real(k), 1)

    quotients = [analysis.build_quotient(big_n) for big_n in (2, 3, 4)]
    for k in (1, 2, 3):
        # G'_k acts on level 1 as A_3
        assert 3 * level1_kernel(k).order() == real(k).order()
    for fake in (trivial, level1_kernel):
        monkeypatch.setattr(analysis, "_derived_subgroup", fake)
        analysis.clear_caches()
        for quotient in quotients:
            for n in range(1, quotient.depth):
                rist = oracles.rist_image(quotient.depth, n)
                assert not elab_flag(quotient.depth, n)
                assert not oracles.chain_elementary_abelian_quotient(quotient, n, rist)
                assert not oracles.elementary_abelian_quotient(quotient, n, rist)
                assert not unpruned_elementary_abelian_quotient(quotient, n, rist)
    rist = oracles.rist_image(4, 2)
    inside = [g for g in oracles.stab(quotients[2], 2).generators if rist.contains(g)]
    assert len(inside) == 1


def test_q_order_logs_its_orders_and_their_source(caplog, fresh_caches):
    with caplog.at_level("INFO", logger="hanoikernel.analysis"):
        assert analysis.q_order(3, 1) == 4
    assert (
        "Q(1,3) = |G_N| / (|G_n| |Rist(n)|) = 816293376 / (6 * 34012224),"
        " |G_N| and |G_n| from the branch recursion,"
        " |Rist(n)| = |G'_k|^(3^n) from the chain of G'_k,"
        " Rist(n) <= Stab(n) from the level-1 copies of G'_k in G_(k+1)"
    ) in caplog.text
    assert (
        "Rist(n) <= Stab(n) in G_(n+2) for every n: pass,"
        " 6 level-1 copies of G'_2's generators in G_3 at degree 27"
    ) in caplog.text
