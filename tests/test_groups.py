"""Cayley-table validation and the named group constructors."""

import pytest

from lcpcodes.errors import ValidationError
from lcpcodes.groups import (
    MAX_ORDER,
    AssociativityError,
    FiniteGroup,
    IdentityError,
    LatinSquareError,
    cyclic,
    dihedral,
    direct_product,
    group_from_table,
    parse_cayley_table,
    symmetric,
)

from oracles import full_associativity_scan, reduced_latin_squares, subgroup_closure

# identity-bearing Latin square of order 5 that is not associative
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_tiny_tables():
    c2 = group_from_table([[0, 1], [1, 0]])
    assert c2.n == 2 and c2.inv == (0, 1)
    c3 = group_from_table([[(i + j) % 3 for j in range(3)] for i in range(3)])
    assert c3.inv == (0, 2, 1)


def test_identity_relocation():
    # cyclic group of order 3 written with the identity at index 2
    relabel = [2, 0, 1]  # old index -> meaning: element old_i is g^(relabel[i])
    table = [
        [(relabel[i] + relabel[j]) % 3 for j in range(3)] for i in range(3)
    ]
    # re-express entries in the same labeling
    pos = {v: k for k, v in enumerate(relabel)}
    table = [[pos[(relabel[i] + relabel[j]) % 3] for j in range(3)] for i in range(3)]
    G = group_from_table(table)
    assert all(G.table[0][j] == j for j in range(3))
    assert G == cyclic(3) or G.table == cyclic(3).table


def test_identity_relocation_moves_the_labels():
    """C3 written as a * b = (a + b + 1) mod 3 has its identity at index 2;
    the relabeled group puts it at 0, and every label names the same element
    as before."""
    table = [[(a + b + 1) % 3 for b in range(3)] for a in range(3)]
    exponent = {"x": 1, "y": 2, "e": 0}  # label -> k with the element g^k
    G = group_from_table(table, ["x", "y", "e"])
    assert G.labels == ("e", "y", "x")
    for a in range(3):
        assert G.table[0][a] == G.table[a][0] == a
        for b in range(3):
            got = exponent[G.labels[G.table[a][b]]]
            assert got == (exponent[G.labels[a]] + exponent[G.labels[b]]) % 3


def test_validation_errors_are_distinct():
    with pytest.raises(LatinSquareError):
        group_from_table([[0, 1], [1, 1]])
    with pytest.raises(IdentityError):
        group_from_table([[1, 1], [1, 1]])
    with pytest.raises(AssociativityError):
        group_from_table(NONASSOC_LOOP)
    with pytest.raises(LatinSquareError):
        group_from_table([[0, 1], [1, 0], [1, 0]])


@pytest.mark.parametrize("build", [FiniteGroup, group_from_table], ids=["FiniteGroup", "group_from_table"])
def test_row_check_names_the_first_bad_entry(build):
    """Rows are checked in order, each for its length and then its entries;
    bools count as the ints 0 and 1."""
    assert build([[False, True], [1, 0]]).table == cyclic(2).table
    cases = [
        ([[0, 1], [1]], "Cayley table is not square"),
        ([[0, 1.0], [1, 0]], "table entry 1.0 outside 0..1"),
        ([[0, 1], [2, "x"]], "table entry 2 outside 0..1"),
        ([[0, 1], ["x", 2]], "table entry 'x' outside 0..1"),
        ([[0, -1], [1, 0]], "table entry -1 outside 0..1"),
        ([[0, 1, 2], [1, 3], [2, 0, 1]], "Cayley table is not square"),
        ([[0, 1, 2], [1, 2, 3], [2]], "table entry 3 outside 0..2"),
        ([[0, 1], 5], "table row 5 is not a sequence"),
        ([[0, 1], None], "table row None is not a sequence"),
        ([[0, 1], 2], "table row 2 is not a sequence"),  # bytes(2) would be a row of zeros
        (None, "Cayley table None is not a sequence of rows"),
        (5, "Cayley table 5 is not a sequence of rows"),
    ]
    for table, message in cases:
        with pytest.raises(LatinSquareError, match=f"^{message}$".replace(".", r"\.")):
            build(table)
    with pytest.raises(ValidationError, match="empty Cayley table"):
        build([])


def test_associativity_of_a_large_loop():
    """C66 with the intercalate in rows and columns 1 and 34 swapped is a
    Latin square with identity that is not a group: (1*1)*2 = 35*2 = 37,
    but 1*(1*2) = 1*3 = 4."""
    n = 66
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    for i in (1, 34):
        for j in (1, 34):
            table[i][j] = 35 if table[i][j] == 2 else 2
    assert not full_associativity_scan(table)
    with pytest.raises(AssociativityError):
        FiniteGroup(table)


def test_light_test_matches_full_scan_on_small_latin_squares():
    """Every reduced Latin square of order <= 5: rejected for associativity
    exactly when some triple fails."""
    verdicts = []
    for n in range(1, 6):
        for table in reduced_latin_squares(n):
            try:
                FiniteGroup(table)
                accepted = True
            except AssociativityError:
                accepted = False
            assert accepted == full_associativity_scan(table)
            verdicts.append(accepted)
    assert len(verdicts) == 1 + 1 + 1 + 4 + 56
    assert True in verdicts and False in verdicts


def test_cyclic_examples():
    c3 = cyclic(3)
    assert c3.table[1][2] == 0  # g * g^2 = e
    assert cyclic(1).n == 1
    with pytest.raises(ValidationError):
        cyclic(0)


def test_tiny_constructors():
    assert dihedral(1).n == 2
    k4 = dihedral(2)
    assert k4.n == 4 and k4.is_abelian()
    assert symmetric(1).n == 1
    assert symmetric(2).table == cyclic(2).table
    with pytest.raises(ValidationError, match="dihedral parameter must be >= 1"):
        dihedral(0)


def _dihedral_oracle(n):
    """D_n as symmetries of the regular n-gon acting on vertex indices."""
    rots = [tuple((i + a) % n for i in range(n)) for a in range(n)]
    refs = [tuple((a - i) % n for i in range(n)) for a in range(n)]
    perms = rots + refs
    index = {p: k for k, p in enumerate(perms)}

    def op(i, j):
        s, t = perms[i], perms[j]
        return index[tuple(s[t[x]] for x in range(n))]

    return op


def test_dihedral_matches_symmetry_composition():
    for n in (3, 4, 5):
        G = dihedral(n)
        oracle = _dihedral_oracle(n)
        for i in range(2 * n):
            for j in range(2 * n):
                assert G.table[i][j] == oracle(i, j)
    assert dihedral(4).table[4][1] == 7  # s * r = r^3 s


def test_symmetric_group():
    s3 = symmetric(3)
    assert s3.n == 6
    assert sum(1 for i in range(1, 6) if s3.inv[i] == i) == 3
    # a 3-cycle's inverse is the other 3-cycle
    three_cycles = [i for i in range(1, 6) if s3.inv[i] != i]
    assert len(three_cycles) == 2
    assert s3.inv[three_cycles[0]] == three_cycles[1]
    with pytest.raises(ValidationError):
        symmetric(6)


def test_direct_product_isomorphic_to_cyclic_six():
    P = direct_product(cyclic(2), cyclic(3))
    C6 = cyclic(6)
    # explicit isomorphism k -> (k mod 2, k mod 3), pairs indexed as a*3 + b
    phi = [(k % 2) * 3 + (k % 3) for k in range(6)]
    assert sorted(phi) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert phi[C6.table[a][b]] == P.table[phi[a]][phi[b]]


def test_direct_product_size_limit():
    with pytest.raises(ValidationError):
        direct_product(symmetric(5), symmetric(3))


def test_named_families_stop_at_the_order_limit():
    assert MAX_ORDER == 256
    assert cyclic(256).n == dihedral(128).n == 256
    for build, arg in ((cyclic, 257), (dihedral, 129), (cyclic, 100000)):
        with pytest.raises(ValidationError, match="exceeds the 256 limit"):
            build(arg)


@pytest.mark.parametrize("build", [FiniteGroup, group_from_table], ids=["FiniteGroup", "group_from_table"])
def test_table_constructors_stop_at_the_order_limit(build):
    """Rows are held as bytes, so no table may pass order 256."""
    def table(n):
        return [[(i + j) % n for j in range(n)] for i in range(n)]

    assert build(table(256)).n == 256
    for n in (257, 300):
        with pytest.raises(ValidationError, match=f"^Cayley table order {n} exceeds the 256 limit$"):
            build(table(n))


def test_table_files_stop_at_the_order_limit():
    """The order line is checked before any row is read."""
    def text(n):
        return "\n".join([str(n)] + [" ".join(str((i + j) % n) for j in range(n)) for i in range(n)])

    assert parse_cayley_table(text(256)).n == 256
    for source in (text(257), "100000\n"):
        with pytest.raises(ValidationError, match="order .* exceeds the 256 limit"):
            parse_cayley_table(source)


@pytest.mark.parametrize(
    "G",
    [cyclic(5), cyclic(12), dihedral(3), dihedral(6), symmetric(3), symmetric(4),
     direct_product(cyclic(2), cyclic(3)), direct_product(dihedral(3), cyclic(2))],
    ids=lambda g: f"order{g.n}",
)
def test_constructed_group_invariants(G):
    n, t = G.n, G.table
    assert all(t[0][j] == j for j in range(n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert t[t[a][b]][c] == t[a][t[b][c]]
    for i in range(n):
        assert G.inv[G.inv[i]] == i
        assert t[i][G.inv[i]] == 0 and t[G.inv[i]][i] == 0


@pytest.mark.parametrize(
    "G",
    [cyclic(1), cyclic(2), cyclic(6), dihedral(3), dihedral(4), symmetric(3),
     direct_product(dihedral(3), cyclic(2))],
    ids=lambda g: f"order{g.n}",
)
def test_translation_and_conjugation_getters(G):
    """left_translations[g] reads g a off a, and conjugations reads h^-1 a h
    off a for every h, once per distinct result; both are kept on the group."""
    n, t, inv = G.n, G.table, G.inv
    a = tuple(f"a{m}" for m in range(n))  # a = sum of a_m g_m
    for g in range(n):
        want = [None] * n
        for m in range(n):
            want[t[g][m]] = a[m]  # g (a_m g_m) = a_m (g g_m)
        assert G.left_translations[g](a) == tuple(want)
    conjugates = set()
    for h in range(n):
        want = [None] * n
        for m in range(n):
            want[t[t[inv[h]][m]][h]] = a[m]
        conjugates.add(tuple(want))
    got = [conj(a) for conj in G.conjugations]
    assert len(got) == len(set(got)) and set(got) == conjugates
    assert G.left_translations is G.left_translations
    assert G.conjugations is G.conjugations


def test_abelian_flag():
    assert cyclic(6).is_abelian()
    assert not symmetric(3).is_abelian()
    assert not dihedral(3).is_abelian()


def test_cayley_file_roundtrip(tmp_path):
    G = dihedral(3)
    path = tmp_path / "d3.tbl"
    lines = [str(G.n)] + [" ".join(map(str, row)) for row in G.table]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    H = parse_cayley_table(path.read_text(encoding="utf-8"))
    assert H.table == G.table


def test_cayley_file_errors():
    with pytest.raises(ValidationError):
        parse_cayley_table("")
    with pytest.raises(ValidationError):
        parse_cayley_table("2\n0 1\n")
    with pytest.raises(ValidationError):
        parse_cayley_table("2\n0 1\n1 x\n")


def test_label_count_must_match_the_order():
    table = cyclic(3).table
    assert FiniteGroup(table, labels=["1", "a", "b"]).labels == ("1", "a", "b")
    with pytest.raises(ValidationError, match="label count"):
        FiniteGroup(table, labels=["1", "a"])


def test_direct_table_constructor_rejects_misplaced_identity():
    # FiniteGroup itself (unlike group_from_table) insists on identity at 0
    with pytest.raises(IdentityError):
        FiniteGroup([[1, 0], [0, 1]])


@pytest.mark.parametrize(
    "G",
    [cyclic(1), cyclic(12), dihedral(4), dihedral(5), symmetric(3), symmetric(4),
     direct_product(cyclic(2), symmetric(3)), direct_product(cyclic(2), cyclic(2))],
    ids=["C1", "C12", "D4", "D5", "S3", "S4", "C2xS3", "C2xC2"],
)
def test_generators_generate(G):
    gens = G.generators
    assert subgroup_closure(G, gens) == set(range(G.n))
    # greedy in index order: each generator lies outside what the earlier ones reach
    for k, g in enumerate(gens):
        assert g not in subgroup_closure(G, gens[:k])
    assert list(gens) == sorted(gens) and 0 not in gens


def test_generators_examples():
    assert cyclic(1).generators == ()
    assert cyclic(7).generators == (1,)
    assert dihedral(5).generators == (1, 5)
    assert direct_product(cyclic(2), cyclic(2)).generators == (1, 2)
