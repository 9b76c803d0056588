"""The byte-row checks of ``lcpcodes.groups`` against the entry-by-entry
checks on tuple rows in ``oracles``: the same error class and message on
malformed tables, and the same table, columns, generators, inverses,
translations and conjugations on groups."""

import itertools

import pytest

from lcpcodes import groups
from lcpcodes.groups import (
    AssociativityError,
    FiniteGroup,
    cyclic,
    dihedral,
    direct_product,
    group_from_table,
    symmetric,
)

from oracles import (
    full_associativity_scan,
    reduced_latin_squares,
    tuple_group,
    tuple_group_from_table,
    tuple_named_table,
    tuple_product_table,
)


def _derived(G):
    """What the oracle returns, read off a group; the maps as index maps."""
    assert all(type(row) is bytes for row in G.table + G.columns)
    ident = tuple(range(G.n))
    return {
        "table": tuple(map(tuple, G.table)),
        "columns": tuple(map(tuple, G.columns)),
        "generators": G.generators,
        "inv": G.inv,
        "translations": tuple(get(ident) for get in G.left_translations),
        "conjugations": tuple(get(ident) for get in G.conjugations),
    }


def _outcome(build, table):
    try:
        result = build(table)
    except Exception as exc:  # the class and the message are compared
        return type(exc), str(exc)
    return _derived(result) if isinstance(result, FiniteGroup) else result


def _one_sided_inverse(table):
    n = len(table)
    return any(table[table[i].index(0)][i] != 0 for i in range(n))


def _loops():
    """Reduced Latin squares that are not groups: all of order 5, the first
    few the backtracking finds of orders 6-8."""
    out = [t for t in reduced_latin_squares(5) if not full_associativity_scan(t)]
    for n in (6, 7, 8):
        out += [t for t in itertools.islice(reduced_latin_squares(n), 12)
                if not full_associativity_scan(t)]
    return out


LOOPS = _loops()

MALFORMED = {
    "empty": [],
    "short row": [[0, 1], [1]],
    "short row after a good one": [[0, 1, 2], [1, 3], [2, 0, 1]],
    "long row": [[0, 1], [1, 0, 1]],
    "extra row": [[0, 1], [1, 0], [1, 0]],
    "bools that repeat": [[False, True], [True, True]],
    "float": [[0, 1.0], [1, 0]],
    "str": [[0, 1], ["x", 2]],
    "int out of range before a str": [[0, 1], [2, "x"]],
    "negative": [[0, -1], [1, 0]],
    "entry n": [[0, 1, 2], [1, 2, 3], [2]],
    "entry n of a square table": [[0, 1], [1, 2]],
    "entry 255 of a square table": [[0, 1, 2], [1, 2, 0], [2, 0, 255]],
    "entry 256": [[0, 1], [1, 256]],
    "entry 300 of order 3": [[0, 1, 2], [1, 2, 300], [2, 0, 1]],
    "entry 2**70": [[0, 1], [1, 2**70]],
    "identity at index 1": [[1, 0], [0, 1]],
    "identity at index 2": [[2, 0, 1], [0, 1, 2], [1, 2, 0]],
    "no identity": [[1, 1], [1, 1]],
    "identity row without its column": [[0, 1], [0, 1]],
    "repeat in a row": [[0, 1, 2], [1, 1, 0], [2, 0, 1]],
    "repeat in a column": [[0, 1, 2], [1, 0, 2], [2, 0, 1]],
}


def test_the_loops_cover_orders_5_to_8_and_one_sided_inverses():
    assert {len(t) for t in LOOPS} == {5, 6, 7, 8}
    assert any(_one_sided_inverse(t) for t in LOOPS)


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize(
    "build, oracle",
    [(FiniteGroup, tuple_group), (group_from_table, tuple_group_from_table)],
    ids=["FiniteGroup", "group_from_table"],
)
def test_malformed_tables_fail_as_the_oracle_does(build, oracle, name):
    table = MALFORMED[name]
    assert _outcome(build, table) == _outcome(oracle, table)


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("build", [FiniteGroup, group_from_table], ids=["FiniteGroup", "group_from_table"])
def test_one_shot_rows_fail_as_listed_rows_do(build, name):
    """Rows given as iterators, in a table given as one too, are read once,
    so the fault they report is the one the same rows as lists report."""
    table = MALFORMED[name]
    assert _outcome(build, (iter(row) for row in table)) == _outcome(build, table)


def test_one_shot_rows_build_the_group():
    table = _relabeled(tuple_named_table("dihedral", 3), 2)
    want = _outcome(tuple_group_from_table, table)
    assert _outcome(group_from_table, map(iter, table)) == want
    assert _outcome(FiniteGroup, map(iter, tuple_named_table("dihedral", 3))) == _outcome(
        tuple_group, tuple_named_table("dihedral", 3)
    )


@pytest.mark.parametrize("k", [0, 3])
def test_group_from_table_converts_its_rows_once(k, monkeypatch):
    table = _relabeled(tuple_named_table("symmetric", 3), k)
    calls = []
    real = groups._byte_rows
    monkeypatch.setattr(groups, "_byte_rows", lambda t: calls.append(1) or real(t))
    assert _outcome(group_from_table, table) == _outcome(tuple_group_from_table, table)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "build, oracle",
    [(FiniteGroup, tuple_group), (group_from_table, tuple_group_from_table)],
    ids=["FiniteGroup", "group_from_table"],
)
def test_loops_fail_light_test_as_the_oracle_does(build, oracle):
    for table in LOOPS:
        got = _outcome(build, table)
        assert got == _outcome(oracle, table)
        assert got[0] is AssociativityError


def _relabeled(table, k):
    """The table with labels 0 and k swapped, so the identity sits at k."""
    n = len(table)
    sig = list(range(n))
    sig[0], sig[k] = k, 0
    return [[sig[table[sig[a]][sig[b]]] for b in range(n)] for a in range(n)]


def _cases():
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 44, 50, 64, 256):
        yield f"C{n}", cyclic(n), tuple_named_table("cyclic", n)
    for n in (22, 25, 128):
        yield f"D{2 * n}", dihedral(n), tuple_named_table("dihedral", n)
    for m in (3, 4, 5):
        yield f"S{m}", symmetric(m), tuple_named_table("symmetric", m)
    c2, c4 = tuple_named_table("cyclic", 2), tuple_named_table("cyclic", 4)
    s3, d6 = tuple_named_table("symmetric", 3), tuple_named_table("dihedral", 3)
    yield "C2xS3", direct_product(cyclic(2), symmetric(3)), tuple_product_table(c2, s3)
    yield "D6xC4", direct_product(dihedral(3), cyclic(4)), tuple_product_table(d6, c4)


CASES = {name: (G, table) for name, G, table in _cases()}


@pytest.mark.parametrize("name", list(CASES))
def test_groups_match_the_oracle(name):
    G, table = CASES[name]
    want = tuple_group(table)
    assert _derived(G) == want
    assert _outcome(FiniteGroup, table) == want
    assert _outcome(group_from_table, table) == want
    k = G.n // 2
    moved = _relabeled(table, k)
    assert _outcome(group_from_table, moved) == _outcome(tuple_group_from_table, moved) == want
