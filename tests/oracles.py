"""Brute-force reference implementations used to pin expected test values.

Everything here enumerates: spans by trying every coefficient combination,
kernels by scanning the whole ambient module, ideals by closing sets under
the defining operations, products by the forward convolution formula.  None
of it shares code paths with the library's pivot/kernel machinery, except
``code_words`` and ``code_generators``: views of a code, read off its forms,
that tests need and no command does.
"""

import itertools
from collections import Counter


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
            k = group.table[i][j]
            out[k] = ring.add(out[k], ring.mul(ai, b[j]))
    return tuple(out)


def subgroup_closure(group, elements):
    """Indices of the subgroup generated by the elements, by breadth-first
    right multiplication from the identity."""
    reached, frontier = {0}, [0]
    while frontier:
        frontier = {group.table[i][g] for i in frontier for g in elements} - reached
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


def code_words(code, cap=1 << 20):
    """The code's words as algebra elements, in the library's walk order:
    the product of the component spans, each walked by
    ``enumerate_codewords``."""
    from lcpcodes.algebra import from_component_rows
    from lcpcodes.linalg import _check_enum_cap, enumerate_codewords

    _check_enum_cap("code", code.cardinality(), cap)
    for combo in itertools.product(*(enumerate_codewords(P, cap) for P in code.components)):
        yield from_component_rows(combo)


def code_word_set(code, cap=1 << 20):
    return set(code_words(code, cap))


def code_generators(code):
    """The code's component pivot rows, each embedded with zeros in the
    other components: generators that ``GroupCode.from_generators`` closes
    to the code again."""
    from lcpcodes.algebra import from_component_rows

    zeros = [(P.ring.zero,) * P.ncols for P in code.components]
    return tuple(
        from_component_rows(zeros[:j] + [row] + zeros[j + 1 :])
        for j, P in enumerate(code.components)
        for row in P.rows
    )


def conjugacy_classes(group):
    """The conjugacy classes as frozensets: each element conjugated by every
    element, with inverses found by searching the table for the identity."""
    n = group.n
    inv = [next(j for j in range(n) if group.table[h][j] == 0) for h in range(n)]
    return {frozenset(group.table[group.table[h][g]][inv[h]] for h in range(n)) for g in range(n)}


def power_map(group, k):
    """{g: g^k} for k >= 1, g^k as k - 1 products."""
    power = {}
    for g in range(group.n):
        x = g
        for _ in range(k - 1):
            x = group.table[x][g]
        power[g] = x
    return power


def class_power_orbit_count(group, q):
    """The number of orbits of the conjugacy classes under g -> g^q; for p
    not dividing |G| it is the number of blocks of F_q[G] (Witt-Berman)."""
    classes = conjugacy_classes(group)
    power = power_map(group, q)
    image = {C: next(D for D in classes if power[min(C)] in D) for C in classes}
    orbits = set()
    for C in classes:
        orbit, D = {C}, image[C]
        while D != C:
            orbit.add(D)
            D = image[D]
        orbits.add(frozenset(orbit))
    return len(orbits)


def primitive_central_idempotents(algebra):
    """Every primitive central idempotent of a chain-ring algebra, by
    squaring every element and commuting each idempotent with every group
    element (``naive_product``): the central idempotents e != 0 with no
    central idempotent f outside {0, e} and f e = f."""
    ring, group = algebra.ring, algebra.group
    n = group.n
    basis = [basis_element(ring, n, g) for g in range(n)]
    central = [
        a
        for a in algebra.elements()
        if naive_product(ring, group, a, a) == a
        and all(naive_product(ring, group, g, a) == naive_product(ring, group, a, g) for g in basis)
    ]
    nonzero = [e for e in central if e != zero_vec(ring, n)]
    return {e for e in nonzero if not any(f != e and naive_product(ring, group, f, e) == f for f in nonzero)}


# ---------------------------------------------------------------------------
# replaced constructions, kept as references for the fast paths
#
# Unlike the brute force above, these reduce through the library's canonical
# pivot form, so their results compare with the library's by ``key``; what
# they keep is the old amount of work, not independence from the engine.


def frobenius_fixed_space(algebra):
    """The fixed space of z -> z^q on the center of F_q[G], F_q the residue
    field of a chain-ring algebra GR(p^e, r)[G], as the library once found
    it for a nonabelian group: the kernel of z -> z^q - z on the class sums,
    with z^q as q - 1 products.  Returns F_q and the pivot form of the
    space in F_q^n, each kernel vector x written out as sum_K x_K (sum K)."""
    from lcpcodes.algebra import GroupAlgebra
    from lcpcodes.linalg import RingMatrix, kernel, pivot_reduce
    from lcpcodes.rings import ChainRing, ProductRing

    (cr,) = algebra.ring.components
    field = ChainRing(cr.p, 1, cr.r, [c % cr.p for c in cr.modulus])
    F = GroupAlgebra(ProductRing([field]), algebra.group)
    n, classes = algebra.group.n, algebra.group.classes
    images = []
    for cls in classes:
        z = tuple(F.ring.one if g in cls else F.ring.zero for g in range(n))
        x = z
        for _ in range(field.q - 1):
            x = F.mul(x, z)
        images.append(F.sub(x, z))
    rows = tuple(tuple(z[cls[0]][0] for z in images) for cls in classes)
    fixed = kernel(RingMatrix(field, rows, len(classes)))
    where = {g: k for k, cls in enumerate(classes) for g in cls}
    vectors = tuple(tuple(x[where[g]] for g in range(n)) for x in fixed.rows)
    return field, pivot_reduce(RingMatrix(field, vectors, n))


def newton_lifted_idempotents(algebra):
    """The block idempotents of a separable chain-ring algebra
    GR(p^e, r)[G] as the library once lifted them: those of the residue
    field's algebra F_q[G] (``codes._block_idempotents`` there, where no
    lift runs), their digits read in GR(p^e, r), each taken by Newton steps
    x <- 3x^2 - 2x^3 (``naive_product``) until x^2 = x.  Each step doubles
    the p-adic precision, so about log2 e steps are taken."""
    from lcpcodes.algebra import GroupAlgebra
    from lcpcodes.codes import _block_idempotents
    from lcpcodes.rings import ChainRing, ProductRing

    ring, group = algebra.ring, algebra.group
    (cr,) = ring.components
    field = ChainRing(cr.p, 1, cr.r, [c % cr.p for c in cr.modulus])
    lifted = []
    for x in _block_idempotents(GroupAlgebra(ProductRing([field]), group)):
        while (x2 := naive_product(ring, group, x, x)) != x:
            t = tuple(map(ring.sub, x2, naive_product(ring, group, x2, x)))  # x^2 - x^3
            x = tuple(ring.add(a, ring.add(b, b)) for a, b in zip(x2, t))
        lifted.append(x)
    return lifted


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


def conjugate_closure_forms(algebra, gens):
    """Per-component pivot forms of the span of the left translates of every
    distinct conjugate h^-1 a h of every generator, in one reduction: the
    closure that ``GroupCode.from_generators`` made before it took the
    conjugates one at a time."""
    from lcpcodes.linalg import RingMatrix, pivot_reduce

    group = algebra.group
    n = group.n
    forms = []
    for j, cr in enumerate(algebra.ring.components):
        conjugates = {}
        for a in gens:
            aj = tuple(a[i][j] for i in range(n))
            for conj in group.conjugations:
                conjugates[conj(aj)] = None
        rows = {shift(c): None for c in conjugates for shift in group.left_translations}
        forms.append(pivot_reduce(RingMatrix(cr, tuple(rows), n)))
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


def summed_worklist_ideals(algebra):
    """Every two-sided ideal of a chain-ring algebra in the order the sum
    worklist finds them when it sums every pair: the principal ideals in
    order of their first generator in ``algebra.elements()``, then each
    ideal summed with every ideal found before it, new sums joining the
    walk."""
    from lcpcodes.codes import GroupCode, code_sum

    found = {}
    for a in algebra.elements():
        code = GroupCode.from_generators(algebra, (a,))
        found.setdefault(code.key, code)
    ideals = list(found.values())
    for i, X in enumerate(ideals):
        for Y in ideals[:i]:
            S = code_sum(X, Y)
            if S.key not in found:
                found[S.key] = S
                ideals.append(S)
    return ideals


def full_scan_lcp_pairs(ideals):
    """Indices (i, j) of every LCP pair, by testing all ordered pairs."""
    from lcpcodes.codes import lcp_check

    return [
        (i, j)
        for i, C in enumerate(ideals)
        for j, D in enumerate(ideals)
        if lcp_check(C, D).is_lcp
    ]


def dual_equivalence_reference(C, D, max_enum=1 << 20):
    """The dual-equivalence report built the long way: both distances from
    ``tallied_weights``, then every component and the whole ring searched on
    their own by ``listed_permutation_search``, over word lists from the
    recursion; no listing or search of the library takes part.  The errors
    come in the library's order: first the cap on the side a distance
    walks, C or, when |C|^2 > |R[G]|, D; no side the library's search
    walks is larger, so the lists here take no cap.  Past the search's
    length limit the report is the witness g -> g^-1, checked on the two
    word lists."""
    from lcpcodes.codes import code_dual, lcp_check
    from lcpcodes.equivalence import SEARCH_LENGTH_LIMIT, STATUS_FOUND, EquivalenceResult
    from lcpcodes.errors import CapExceededError

    if not lcp_check(C, D).is_lcp:
        raise ValueError("not an LCP pair")
    side, size = ("dual side", D.cardinality()) if C.cardinality() ** 2 > C.algebra.size else ("code", C.cardinality())
    if size > max_enum:
        raise CapExceededError(f"{side} of size {size} exceeds the enumeration cap {max_enum} (--max-enum)")
    Dd = code_dual(D)
    group = C.algebra.group
    n = group.n
    weights = [tallied_weights(X) for X in (C, Dd)]
    d_c, d_dd = (next((w for w in range(1, n + 1) if counts[w]), n + 1) for counts in weights)
    if n > SEARCH_LENGTH_LIMIT:
        iota = group.inv
        moved = {tuple(w[iota[i]] for i in range(n)) for w in recursive_code_words(Dd)}
        if moved != set(recursive_code_words(C)):
            raise AssertionError("g -> g^-1 does not carry D^perp onto C")
        note = f"witness g -> g^-1; no search run, n > {SEARCH_LENGTH_LIMIT}"
        return EquivalenceResult(STATUS_FOUND, iota, d_c, d_dd, note)
    notes = []
    for j, (Cj, Ddj) in enumerate(zip(C.crt_project(), Dd.crt_project())):
        res = listed_permutation_search(Ddj, Cj)
        if res.status == STATUS_FOUND:
            notes.append(f"component {j}: found {list(res.permutation)}")
        else:
            notes.append(f"component {j}: {res.status}")
    full = listed_permutation_search(Dd, C)
    if full.status == STATUS_FOUND:
        notes.append(f"common permutation: found {list(full.permutation)}")
    else:
        notes.append(f"common permutation: {full.status}")
    return EquivalenceResult(full.status, full.permutation, d_c, d_dd, "; ".join(notes))


_TRANSVERSALS = {}


def transversal(ring, k):
    """Canonical representatives of the quotient of a chain ring mod
    <gamma^k>, k in [0, e]: the tuples with every coefficient in [0, p^k),
    q^k of them, each residue mod gamma^k exactly once (cached per ring)."""
    cache = _TRANSVERSALS.setdefault(ring, {})
    if k not in cache:
        cache[k] = list(itertools.product(range(ring.p**k), repeat=ring.r))
    return cache[k]


def recursive_codewords(P, cap=1 << 20):
    """The span of a pivot form by recursion over its rows, with ring
    arithmetic per coordinate: row 0 varies slowest, each coefficient
    through its transversal.  The order ``enumerate_codewords`` keeps."""
    from lcpcodes.errors import CapExceededError

    if P.cardinality() > cap:
        raise CapExceededError(
            f"span of size {P.cardinality()} exceeds the enumeration cap {cap} (--max-enum)"
        )
    ring = P.ring

    def rec(j, acc):
        if j == len(P.rows):
            yield tuple(acc)
            return
        row = P.rows[j]
        for c in transversal(ring, ring.e - P.pivot_vals[j]):
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
        raise CapExceededError(f"code of size {card} exceeds the enumeration cap {max_enum} (--max-enum)")
    n = C.algebra.group.n
    zeros = [cr.zero for cr in C.algebra.ring.components]
    counts = [0] * (n + 1)
    streams = [list(recursive_codewords(P, max_enum)) for P in C.components]
    for combo in itertools.product(*streams):
        w = sum(1 for i in range(n) if any(part[i] != z for part, z in zip(combo, zeros)))
        counts[w] += 1
    return tuple(counts)


def _column_signature(words, c):
    return tuple(sorted(Counter(w[c] for w in words).items()))


def _apply_permutation(perm, v):
    out = [None] * len(v)
    for i, x in enumerate(v):
        out[perm[i]] = x
    return tuple(out)


def scanned_lex_least_search(words1, words2, n):
    """Lexicographically least coordinate permutation mapping set1 to set2,
    by a backtracking search that projects every word of set2 onto the
    assigned columns at each node and counts the projections."""
    if len(words1) != len(words2):
        return None
    sig1 = [_column_signature(words1, c) for c in range(n)]
    sig2 = [_column_signature(words2, c) for c in range(n)]
    if sorted(sig1) != sorted(sig2):
        return None
    candidates = [[c2 for c2 in range(n) if sig2[c2] == sig1[c]] for c in range(n)]
    proj1 = [Counter(w[: k + 1] for w in words1) for k in range(n)]
    set2 = set(words2)
    perm = [0] * n
    used = [False] * n

    def partial_ok(k):
        cols = perm[: k + 1]
        return Counter(tuple(w[c] for c in cols) for w in words2) == proj1[k]

    def dfs(k):
        if k == n:
            return all(_apply_permutation(perm, w) in set2 for w in words1)
        for c2 in candidates[k]:
            if used[c2]:
                continue
            perm[k] = c2
            used[c2] = True
            if partial_ok(k) and dfs(k + 1):
                return True
            used[c2] = False
        return False

    if dfs(0):
        return tuple(perm)
    return None


def tuple_keyed_lex_least_search(words1, words2, n):
    """The lex-least search as the library ran it with prefix ids keyed by
    (id, coordinate value) tuples: words1's prefixes numbered level by level,
    each DFS level mapping words2's ids one step further through those keys
    and comparing counts of ids."""
    from operator import itemgetter

    if len(words1) != len(words2):
        return None
    sig1 = [_column_signature(words1, c) for c in range(n)]
    sig2 = [_column_signature(words2, c) for c in range(n)]
    if sorted(sig1) != sorted(sig2):
        return None
    candidates = [[c2 for c2 in range(n) if sig2[c2] == sig1[c]] for c in range(n)]
    steps, proj1 = [], []
    ids = [0] * len(words1)
    for k in range(n):
        step = {}
        ids = [step.setdefault((i, w[k]), len(step)) for i, w in zip(ids, words1)]
        steps.append(step)
        proj1.append(dict(Counter(ids)))
    perm = [0] * n
    used = [False] * n
    ids2 = [[0] * len(words2)] + [None] * n
    pos = [0] * (n + 1)
    k = 0
    while k >= 0:
        if k == n:
            return tuple(perm)
        cands = candidates[k]
        while pos[k] < len(cands):
            c2 = cands[pos[k]]
            pos[k] += 1
            if used[c2]:
                continue
            perm[k] = c2
            ids2[k + 1] = list(map(steps[k].get, zip(ids2[k], map(itemgetter(c2), words2))))
            if dict.__eq__(proj1[k], Counter(ids2[k + 1])):
                used[c2] = True
                k += 1
                pos[k] = 0
                break
        else:
            k -= 1
            if k >= 0:
                used[perm[k]] = False
    return None


def listed_permutation_search(C1, C2, max_enum=1 << 20):
    """``find_permutation`` the long way: both codes' word lists from the
    recursion, weights counted word by word, then the lex-least search by
    ``scanned_lex_least_search``."""
    from lcpcodes.equivalence import (
        STATUS_EXHAUSTED,
        STATUS_FOUND,
        STATUS_NOT_EQUIVALENT,
        EquivalenceResult,
    )
    from lcpcodes.errors import CapExceededError

    n = C1.algebra.group.n
    lists = []
    for C in (C1, C2):
        if C.cardinality() > max_enum:
            exc = CapExceededError(
                f"code of size {C.cardinality()} exceeds the enumeration cap {max_enum} (--max-enum)"
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
    perm = scanned_lex_least_search(words1, words2, n)
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


def full_associativity_scan(table):
    """Whether (a*b)*c = a*(b*c) for every triple of the table."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1, by
    backtracking row by row, cell by cell."""
    rows = [list(range(n))]

    def extend(i):
        if i == n:
            yield [list(r) for r in rows]
            return
        row = [i] + [None] * (n - 1)
        used = {i}

        def fill(j):
            if j == n:
                rows.append(row[:])
                yield from extend(i + 1)
                rows.pop()
                return
            for x in range(n):
                if x not in used and all(r[j] != x for r in rows):
                    row[j] = x
                    used.add(x)
                    yield from fill(j + 1)
                    used.discard(x)

        yield from fill(1)

    yield from extend(1)


def trial_division_is_prime(n):
    """Primality by trial division by 3, 5, 7, ... up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def trial_division_factorize(m):
    """Sorted (prime, exponent) pairs of m >= 2, by trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


# ---------------------------------------------------------------------------
# The Howell engine with every scalar a ring tuple, through ChainRing's
# methods, as it stood before the plain-int engine; the wrappers below give
# pivot_reduce, kernel, intersect, membership and SpanSolver.solve on it.


def _support(ring, piv, start):
    """The (column, entry) pairs of piv's nonzero entries from start on."""
    zero = ring.zero
    return [(k, piv[k]) for k in range(start, len(piv)) if piv[k] != zero]


def _vec_submul(ring, row, w, support):
    """row -= w * piv, for piv given by its support."""
    mul, sub = ring.mul, ring.sub
    for k, pk in support:
        row[k] = sub(row[k], mul(w, pk))


def tuple_howell(ring, rows, width, pivot_cols_limit):
    """Shared reduction engine.

    Scans columns 0..pivot_cols_limit-1 for pivots while carrying rows of
    ``width`` entries, so the same code serves plain reduction, the
    augmented kernel and intersection, and the augmented solver.  Returns
    (rows, pivot_cols, pivot_vals).
    """
    e = ring.e
    zero = ring.zero
    work = [list(row) for row in rows if any(x != zero for x in row)]
    res_rows, res_cols, res_vals = [], [], []
    for col in range(pivot_cols_limit):
        best, best_v = None, e
        for idx, row in enumerate(work):
            v = ring.valuation(row[col])
            if v < best_v:
                best, best_v = idx, v
                if v == 0:
                    break
        if best is None:
            continue
        piv = work.pop(best)
        t = best_v
        unit = ring.div_gamma(piv[col], t)
        if unit != ring.one:
            ui = ring.inverse(unit)
            piv = [ring.mul(ui, x) for x in piv]
        supp = _support(ring, piv, col)
        # clear the column in the remaining rows (their valuation is >= t by
        # pivot minimality) and canonicalize it in the finished rows; every
        # work row is zero left of col, so a row this step did not touch is
        # still nonzero and a touched one need only be tested right of col
        kept = []
        for row in work:
            x = row[col]
            if x != zero:
                _vec_submul(ring, row, ring.div_gamma(x, t), supp)
                if not any(y != zero for y in row[col + 1 :]):
                    continue
            kept.append(row)
        work = kept
        for row in res_rows:
            x = row[col]
            if x == zero:
                continue
            if ring.valuation(x) >= t:
                w = ring.div_gamma(x, t)
            else:
                rem = tuple(c % ring.p**t for c in x)  # x mod <gamma^t>
                w = ring.div_gamma(ring.sub(x, rem), t)
            _vec_submul(ring, row, w, supp)
        res_rows.append(piv)
        res_cols.append(col)
        res_vals.append(t)
        if t > 0:
            g = ring.gamma_power(e - t)
            sat = [ring.mul(g, x) for x in piv]
            if any(x != zero for x in sat):
                work.append(sat)
    return res_rows, res_cols, res_vals


def _tuple_reduce_against(ring, v, rows, cols, vals) -> bool:
    """Reduce the list v in place by the pivot rows; False on a pivot it
    cannot clear."""
    zero = ring.zero
    for row, col, t in zip(rows, cols, vals):
        x = v[col]
        if x == zero:
            continue
        if ring.valuation(x) < t:
            return False
        _vec_submul(ring, v, ring.div_gamma(x, t), _support(ring, row, col))
    return True


def _tuple_form(ring, rows, ncols, split=0):
    from lcpcodes.linalg import PivotForm, _scalars

    red, cols, vals = tuple_howell(ring, rows, ncols, ncols)
    low = next((k for k, c in enumerate(cols) if c >= split), len(cols))
    load = _scalars(ring).load  # a form keeps its rows in the engine's form
    return PivotForm(
        ring,
        ncols - split,
        tuple(tuple(load(r[split:])) for r in red[low:]),
        tuple(c - split for c in cols[low:]),
        tuple(vals[low:]),
    )


def tuple_pivot_reduce(M):
    return _tuple_form(M.ring, M.rows, M.ncols)


def tuple_kernel(M):
    ring, n, m = M.ring, M.ncols, len(M.rows)
    aug = [
        tuple(row[k] for row in M.rows) + tuple(ring.one if i == k else ring.zero for i in range(n))
        for k in range(n)
    ]
    return _tuple_form(ring, aug, m + n, m)


def tuple_intersect(P, Q):
    n, zero = P.ncols, P.ring.zero
    rows = [row + row for row in P.rows] + [row + (zero,) * n for row in Q.rows]
    return _tuple_form(P.ring, rows, 2 * n, n)


def tuple_membership(v, P):
    v = list(v)
    return _tuple_reduce_against(P.ring, v, P.rows, P.pivot_cols, P.pivot_vals) and all(
        x == P.ring.zero for x in v
    )


def tuple_solve(M, target):
    """Coefficients c with sum_i c_i * row_i = target, or None."""
    ring, ncols, nrows = M.ring, M.ncols, len(M.rows)
    zero, one = ring.zero, ring.one
    aug = [tuple(row) + tuple(one if i == j else zero for j in range(nrows)) for i, row in enumerate(M.rows)]
    rows, cols, vals = tuple_howell(ring, aug, ncols + nrows, ncols)
    v = list(target) + [zero] * nrows
    if not _tuple_reduce_against(ring, v, rows, cols, vals) or any(x != zero for x in v[:ncols]):
        return None
    return tuple(ring.neg(x) for x in v[ncols:])


# ---------------------------------------------------------------------------
# The direct-sum split as it stood before the image solve: coefficients of
# z's component rows on the stacked rows of C and D, then C's part summed
# by hand, entry by entry.


def identity_images(ring, m):
    """The m x m identity as a ``RingMatrix``: images that make
    ``SpanSolver.solve`` return the coefficients themselves."""
    from lcpcodes.linalg import RingMatrix

    rows = tuple(tuple(ring.one if i == j else ring.zero for j in range(m)) for i in range(m))
    return RingMatrix(ring, rows, m)


def coefficient_split(C, D, z):
    """(c, d) with z = c + d, c in C, d in D: per component, coefficients
    on C's rows followed by D's from an identity-image solve, and c the
    sum of the coefficients times C's rows."""
    from lcpcodes.algebra import component_rows, from_component_rows
    from lcpcodes.linalg import RingMatrix, SpanSolver

    A = C.algebra
    n = A.group.n
    parts = []
    for P, Q, zj in zip(C.components, D.components, component_rows(z)):
        ring, rows = P.ring, P.rows + Q.rows
        coeffs = SpanSolver(RingMatrix(ring, rows, n), identity_images(ring, len(rows))).solve(zj)
        cj = zero_vec(ring, n)
        for coef, row in zip(coeffs, P.rows):
            cj = vec_add(ring, cj, vec_scale(ring, coef, row))
        parts.append(cj)
    c = from_component_rows(parts)
    return c, A.sub(z, c)


# ---------------------------------------------------------------------------
# Cayley tables as tuples of int tuples, checked entry by entry


def _tuple_check_rows(table):
    """The order n of a square table of ints in 0..n-1 (bools count as ints),
    rows in order, each for its length and then its entries; no order limit."""
    from lcpcodes.errors import ValidationError
    from lcpcodes.groups import LatinSquareError

    n = len(table)
    if n == 0:
        raise ValidationError("empty Cayley table")
    for row in table:
        if len(row) != n:
            raise LatinSquareError("Cayley table is not square")
        for x in row:
            if not isinstance(x, int) or not 0 <= x < n:
                raise LatinSquareError(f"table entry {x!r} outside 0..{n - 1}")
    return n


def _tuple_generators(t):
    """Greedy generators in index order: each element outside the subgroup
    the earlier ones generate joins, by breadth-first closure of e."""
    n = len(t)
    gens, reached = [], [True] + [False] * (n - 1)
    for g in range(1, n):
        if reached[g]:
            continue
        gens.append(g)
        frontier = [i for i in range(n) if reached[i]]
        while frontier:
            nxt = []
            for i in frontier:
                for h in gens:
                    if not reached[t[i][h]]:
                        reached[t[i][h]] = True
                        nxt.append(t[i][h])
            frontier = nxt
    return tuple(gens)


def tuple_group(table):
    """A Cayley table checked as ``FiniteGroup`` checks it (identity at index
    0, rows then columns Latin, Light's test on the generators, two-sided
    inverses), with the same errors and messages, entry by entry on tuple
    rows.  Returns the table, its columns, generators and inverses, and the
    left translations and distinct conjugations as index maps: translation g
    reads (g a)_m off a_(map[m]), conjugation h reads (h^-1 a h)_m."""
    from lcpcodes.groups import AssociativityError, IdentityError, InverseError, LatinSquareError

    t = tuple(tuple(row) for row in table)
    n = _tuple_check_rows(t)
    cols = tuple(zip(*t))
    ident = tuple(range(n))
    if t[0] != ident or cols[0] != ident:
        raise IdentityError("index 0 is not a two-sided identity")
    for what, lines in (("row", t), ("column", cols)):
        for k, line in enumerate(lines):
            if set(line) != set(ident):
                raise LatinSquareError(f"{what} {k} is not a permutation")
    gens = _tuple_generators(t)
    for b in gens:
        for a in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise AssociativityError(f"({a}*{b})*{c} != {a}*({b}*{c})")
    inv = []
    for i in range(n):
        j = t[i].index(0)
        if t[j][i] != 0:
            raise InverseError(f"element {i} has no two-sided inverse")
        inv.append(j)
    conjugations = {ident: None} if t == cols else {
        tuple(t[h][t[m][inv[h]]] for m in range(n)): None for h in range(n)
    }
    return {
        "table": t,
        "columns": cols,
        "generators": gens,
        "inv": tuple(inv),
        "translations": tuple(t[i] for i in inv),
        "conjugations": tuple(conjugations),
    }


def tuple_group_from_table(table):
    """``tuple_group`` after moving the first two-sided identity to index 0
    by swapping its label with label 0, as ``group_from_table`` does."""
    from lcpcodes.groups import IdentityError

    table = [list(row) for row in table]
    n = _tuple_check_rows(table)
    e = next(
        (i for i in range(n)
         if all(table[i][j] == j for j in range(n)) and all(table[k][i] == k for k in range(n))),
        None,
    )
    if e is None:
        raise IdentityError("no two-sided identity element found")
    sig = list(range(n))
    sig[0], sig[e] = e, 0
    return tuple_group([[sig[table[sig[a]][sig[b]]] for b in range(n)] for a in range(n)])


def tuple_named_table(family, n):
    """The Cayley table of a named family, entry by entry: cyclic C_n,
    dihedral D_n of order 2n (rotations, then reflections r^i s, with
    s r s^-1 = r^-1) and symmetric S_n (one-line order, (s t)(x) = s(t(x)))."""
    if family == "cyclic":
        return [[(i + j) % n for j in range(n)] for i in range(n)]
    if family == "dihedral":
        table = [[0] * (2 * n) for _ in range(2 * n)]
        for a in range(n):
            for b in range(n):
                table[a][b] = (a + b) % n
                table[a][n + b] = n + (a + b) % n
                table[n + a][b] = n + (a - b) % n
                table[n + a][n + b] = (a - b) % n
        return table
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(s[t[x]] for x in range(n))] for t in perms] for s in perms]


def tuple_product_table(tg, th):
    """G x H on pairs (a, b) -> a |H| + b, entry by entry."""
    ng, nh = len(tg), len(th)
    return [
        [tg[a][c] * nh + th[b][d] for c in range(ng) for d in range(nh)]
        for a in range(ng)
        for b in range(nh)
    ]


def partitions(m, largest=None):
    """Every partition of m as a non-increasing tuple of parts."""
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def is_p_core(shape, p):
    """Whether no hook of the Young diagram has length divisible by p
    (arm + leg + 1, read off the shape and its conjugate)."""
    conjugate = [sum(part > j for part in shape) for j in range(shape[0])] if shape else []
    return all(
        ((shape[i] - j - 1) + (conjugate[j] - i - 1) + 1) % p
        for i in range(len(shape))
        for j in range(shape[i])
    )


def symmetric_group_block_count(n, p):
    """The number of p-blocks of S_n: by the Nakayama conjecture (Brauer and
    Robinson, 1947) two irreducible characters lie in one block exactly
    when their partitions have the same p-core, and every p-core of size
    n - p w, w >= 0, is the core of some partition of n.  So it is the
    number of p-cores of those sizes."""
    return sum(is_p_core(shape, p) for w in range(n // p + 1) for shape in partitions(n - p * w))
