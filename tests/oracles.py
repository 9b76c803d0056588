"""Brute-force reference implementations used to pin expected test values.

Everything here enumerates: spans by trying every coefficient combination,
kernels by scanning the whole ambient module, ideals by closing sets under
the defining operations, products by the forward convolution formula.  None
of it shares code paths with the library's pivot/kernel machinery.
"""

import itertools


def vec_add(ring, u, v):
    return tuple(ring.add(a, b) for a, b in zip(u, v))


def vec_scale(ring, c, v):
    return tuple(ring.mul(c, x) for x in v)


def zero_vec(ring, n):
    return (ring.zero,) * n


def brute_span(ring, rows, n):
    """Every linear combination of the rows, as a set of tuples."""
    span = {zero_vec(ring, n)}
    for row in rows:
        span = {
            vec_add(ring, s, vec_scale(ring, c, row))
            for s in span
            for c in ring.elements()
        }
    return span


def brute_kernel(ring, rows, n):
    """All vectors orthogonal to every row, by scanning the whole module."""
    out = set()
    zero = ring.zero
    for v in itertools.product(ring.elements(), repeat=n):
        ok = True
        for row in rows:
            acc = zero
            for a, b in zip(row, v):
                acc = ring.add(acc, ring.mul(a, b))
            if acc != zero:
                ok = False
                break
        if ok:
            out.add(v)
    return out


def naive_product(ring, group, a, b):
    """Forward convolution: coefficient at g_i*g_j collects a_i * b_j."""
    n = group.n
    out = [ring.zero] * n
    for i in range(n):
        ai = a[i]
        if ai == ring.zero:
            continue
        for j in range(n):
            k = group.op(i, j)
            out[k] = ring.add(out[k], ring.mul(ai, b[j]))
    return tuple(out)


def subgroup_closure(group, elements):
    """Indices of the subgroup generated by the elements, by breadth-first
    right multiplication from the identity."""
    reached, frontier = {0}, [0]
    while frontier:
        frontier = {group.op(i, g) for i in frontier for g in elements} - reached
        reached |= frontier
    return reached


def basis_element(ring, n, i):
    return tuple(ring.one if k == i else ring.zero for k in range(n))


def brute_ideal(algebra, gens):
    """Two-sided ideal as a set: span of all g * a * h translates."""
    ring, group = algebra.ring, algebra.group
    n = group.n
    translates = []
    for a in gens:
        for g in range(n):
            ga = naive_product(ring, group, basis_element(ring, n, g), a)
            for h in range(n):
                translates.append(
                    naive_product(ring, group, ga, basis_element(ring, n, h))
                )
    span = {zero_vec(ring, n)}
    for t in translates:
        span = {
            vec_add(ring, s, vec_scale(ring, c, t))
            for s in span
            for c in ring.elements()
        }
    return span


def is_ideal_subset(algebra, subset):
    """Whether a set of elements is a two-sided ideal (closure checks only)."""
    ring, group = algebra.ring, algebra.group
    n = group.n
    if zero_vec(ring, n) not in subset:
        return False
    for a in subset:
        for b in subset:
            if vec_add(ring, a, b) not in subset:
                return False
        for c in ring.elements():
            if vec_scale(ring, c, a) not in subset:
                return False
        for g in range(n):
            e_g = basis_element(ring, n, g)
            if naive_product(ring, group, e_g, a) not in subset:
                return False
            if naive_product(ring, group, a, e_g) not in subset:
                return False
    return True


def all_ideal_subsets(algebra):
    """Every subset of R[G] that is an ideal; only viable for tiny algebras."""
    elems = [e for e in algebra.elements()]
    zero = zero_vec(algebra.ring, algebra.group.n)
    rest = [e for e in elems if e != zero]
    found = []
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            subset = frozenset(combo) | {zero}
            if is_ideal_subset(algebra, subset):
                found.append(subset)
    return found


def brute_dual(algebra, words):
    """All elements orthogonal to every word under the coordinatewise form."""
    ring = algebra.ring
    zero = ring.zero
    out = set()
    for x in algebra.elements():
        ok = True
        for w in words:
            acc = zero
            for a, b in zip(x, w):
                acc = ring.add(acc, ring.mul(a, b))
            if acc != zero:
                ok = False
                break
        if ok:
            out.add(x)
    return out


def code_word_set(code, cap=1 << 20):
    return set(code.codewords(cap))


# ---------------------------------------------------------------------------
# replaced constructions, kept as references for the fast paths
#
# Unlike the brute force above, these reduce through the library's canonical
# pivot form, so their results compare with the library's by ``key``; what
# they keep is the old amount of work, not independence from the engine.


def translate_closure_forms(algebra, gens):
    """Per-component pivot forms of the span of every g * a * h, g, h in G:
    the n^2-translate ideal closure."""
    from lcpcodes.linalg import RingMatrix, pivot_reduce

    group = algebra.group
    n, t, inv = group.n, group.table, group.inv
    forms = []
    for j, cr in enumerate(algebra.ring.components):
        rows = []
        for a in gens:
            aj = tuple(a[i][j] for i in range(n))
            for g in range(n):
                tg = t[inv[g]]
                for h in range(n):
                    ih = inv[h]
                    rows.append(tuple(aj[tg[t[m][ih]]] for m in range(n)))
        forms.append(pivot_reduce(RingMatrix(cr, tuple(dict.fromkeys(rows)), n)))
    return tuple(forms)


def translate_closure_key(algebra, gens):
    return tuple(P.key() for P in translate_closure_forms(algebra, gens))


def all_elements_two_sided(code):
    """Closure of every component span under left and right translation by
    every non-identity group element."""
    from lcpcodes.linalg import membership

    group = code.algebra.group
    n, t, inv = group.n, group.table, group.inv
    for P in code.components:
        for row in P.rows:
            for g in range(1, n):
                ig = inv[g]
                left = tuple(row[t[ig][m]] for m in range(n))
                right = tuple(row[t[m][ig]] for m in range(n))
                if not membership(left, P) or not membership(right, P):
                    return False
    return True


def principal_closure_ideals(algebra):
    """Every two-sided ideal: the principal ideal of each algebra element,
    then all pairwise sums repeated until no new ideal appears, sorted by
    cardinality then key."""
    from lcpcodes.codes import GroupCode, code_sum

    seen = {}
    for a in algebra.elements():
        code = GroupCode.from_generators(algebra, (a,))
        seen.setdefault(code.key, code)
    changed = True
    while changed:
        changed = False
        current = list(seen.values())
        for X in current:
            for Y in current:
                S = code_sum(X, Y)
                if S.key not in seen:
                    seen[S.key] = S
                    changed = True
    return sorted(seen.values(), key=lambda c: (c.cardinality(), c.key))


def full_scan_lcp_pairs(ideals):
    """Indices (i, j) of every LCP pair, by testing all ordered pairs."""
    from lcpcodes.codes import lcp_check

    return [
        (i, j)
        for i, C in enumerate(ideals)
        for j, D in enumerate(ideals)
        if lcp_check(C, D, fill_security=False).is_lcp
    ]


def dual_equivalence_reference(C, D, max_enum=1 << 20):
    """The dual-equivalence report built the long way: both distances by
    their own enumeration, every component searched on its own, then the
    common search."""
    from lcpcodes.codes import code_dual, lcp_check, min_distance
    from lcpcodes.equivalence import STATUS_FOUND, EquivalenceResult, find_permutation

    if not lcp_check(C, D, fill_security=False).is_lcp:
        raise ValueError("not an LCP pair")
    Dd = code_dual(D)
    d_c = min_distance(C, max_enum)
    d_dd = min_distance(Dd, max_enum)
    notes = []
    for j, (Cj, Ddj) in enumerate(zip(C.crt_project(), Dd.crt_project())):
        res = find_permutation(Ddj, Cj, max_enum)
        if res.status == STATUS_FOUND:
            notes.append(f"component {j}: found {list(res.permutation)}")
        else:
            notes.append(f"component {j}: {res.status}")
    full = find_permutation(Dd, C, max_enum)
    if full.status == STATUS_FOUND:
        notes.append(f"common permutation: found {list(full.permutation)}")
    else:
        notes.append(f"common permutation: {full.status}")
    return EquivalenceResult(full.status, full.permutation, d_c, d_dd, "; ".join(notes))


def recursive_codewords(P, cap=1 << 20):
    """The span of a pivot form by recursion over its rows, with ring
    arithmetic per coordinate: row 0 varies slowest, each coefficient
    through its transversal.  The order ``enumerate_codewords`` keeps."""
    from lcpcodes.errors import CapExceededError

    if P.cardinality() > cap:
        raise CapExceededError(
            f"span of size {P.cardinality()} exceeds the enumeration cap {cap}"
        )
    ring = P.ring

    def rec(j, acc):
        if j == len(P.rows):
            yield tuple(acc)
            return
        row = P.rows[j]
        for c in ring.transversal(ring.e - P.pivot_vals[j]):
            if c == ring.zero:
                yield from rec(j + 1, acc)
            else:
                nxt = [ring.add(a, ring.mul(c, x)) for a, x in zip(acc, row)]
                yield from rec(j + 1, nxt)

    yield from rec(0, [ring.zero] * P.ncols)


def recursive_code_words(C):
    """A group code's words as algebra elements, from ``recursive_codewords``
    per component."""
    n = C.algebra.group.n
    streams = [list(recursive_codewords(P)) for P in C.components]
    return [
        tuple(tuple(part[i] for part in combo) for i in range(n))
        for combo in itertools.product(*streams)
    ]


def tallied_weights(C, max_enum=1 << 20):
    """Codeword counts by Hamming weight, from the materialized product of
    the component streams of ``recursive_codewords``."""
    from lcpcodes.errors import CapExceededError

    card = C.cardinality()
    if card > max_enum:
        raise CapExceededError(f"code of size {card} exceeds the enumeration cap {max_enum}")
    n = C.algebra.group.n
    zeros = [cr.zero for cr in C.algebra.ring.components]
    counts = [0] * (n + 1)
    streams = [list(recursive_codewords(P, max_enum)) for P in C.components]
    for combo in itertools.product(*streams):
        w = sum(1 for i in range(n) if any(part[i] != z for part, z in zip(combo, zeros)))
        counts[w] += 1
    return tuple(counts)


def listed_permutation_search(C1, C2, max_enum=1 << 20):
    """``find_permutation`` the long way: both codes' word lists from the
    recursion, weights counted word by word, then the lex-least search."""
    from lcpcodes.equivalence import (
        STATUS_EXHAUSTED,
        STATUS_FOUND,
        STATUS_NOT_EQUIVALENT,
        EquivalenceResult,
        _search_lex_least,
    )
    from lcpcodes.errors import CapExceededError

    n = C1.algebra.group.n
    lists = []
    for C in (C1, C2):
        if C.cardinality() > max_enum:
            exc = CapExceededError(
                f"code of size {C.cardinality()} exceeds the enumeration cap {max_enum}"
            )
            return EquivalenceResult(STATUS_EXHAUSTED, None, None, None, f"enumeration cap hit: {exc}")
        lists.append(recursive_code_words(C))
    words1, words2 = lists
    zero = C1.algebra.ring.zero
    weights1 = sorted(sum(1 for x in w if x != zero) for w in words1)
    weights2 = sorted(sum(1 for x in w if x != zero) for w in words2)
    d1 = next((w for w in weights1 if w), n + 1)
    d2 = next((w for w in weights2 if w), n + 1)
    if weights1 != weights2:
        return EquivalenceResult(STATUS_NOT_EQUIVALENT, None, d1, d2, "weight enumerators differ")
    perm = _search_lex_least(words1, words2, n)
    if perm is None:
        return EquivalenceResult(
            STATUS_NOT_EQUIVALENT, None, d1, d2, "backtracking exhausted all assignments"
        )
    return EquivalenceResult(STATUS_FOUND, perm, d1, d2, "")


def trial_division_irreducible(f, p):
    """Whether the monic f over F_p is irreducible, by dividing it by every
    monic polynomial of degree 1..deg(f)/2."""
    import itertools

    from lcpcodes.rings import _fp_divmod, _fp_trim

    r = len(_fp_trim(list(f))) - 1
    if r < 1:
        return False
    for d in range(1, r // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            _, rem = _fp_divmod(list(f), list(tail) + [1], p)
            if not rem:
                return False
    return True
