"""Permutation equivalence of codes: verification and backtracking search.

A permutation p acts on coordinates by w[p[i]] = v[i].  The search first
compares weight enumerators, then partitions coordinates by their column
frequency signatures, and finally backtracks over signature-respecting
assignments in increasing order, so a found permutation is always the
lexicographically least valid one.  For an LCP pair (C, D) the dual-distance
report gives d(C) = d(D^perp), since D^perp = iota(C), and looks for both
per-component and whole-ring permutations carrying D^perp onto C: at most
s walks, no kernel, and iota: g -> g^-1 itself, unsearched, above n = 16.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter

from .codes import GroupCode, _same_algebra, code_dual, code_involute, lcp_check, min_distance, weight_enumerator
from .errors import CapExceededError, NotLcpError, ValidationError
from .groups import _permuter
from .linalg import DEFAULT_ENUM_CAP, enumerate_codewords, membership

__all__ = [
    "EquivalenceResult",
    "STATUS_FOUND",
    "STATUS_NOT_EQUIVALENT",
    "STATUS_EXHAUSTED",
    "identity_permutation",
    "apply_permutation",
    "verify_permutation",
    "find_permutation",
    "check_dual_equivalence",
]

STATUS_FOUND = "found"
STATUS_NOT_EQUIVALENT = "not-equivalent"
STATUS_EXHAUSTED = "search-exhausted"

SEARCH_LENGTH_LIMIT = 16


@dataclass(frozen=True)
class EquivalenceResult:
    status: str
    permutation: tuple | None
    d_c: int | None
    d_d_dual: int | None
    block_note: str


def identity_permutation(n: int) -> tuple:
    return tuple(range(n))


def apply_permutation(perm, v):
    out = [None] * len(v)
    for i, x in enumerate(v):
        out[perm[i]] = x
    return tuple(out)


def _check_permutation(perm, n):
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ValidationError(f"{perm!r} is not a permutation of 0..{n - 1}")


def verify_permutation(C1: GroupCode, C2: GroupCode, perm) -> bool:
    """Whether permuting the coordinates of C1 yields exactly C2
    (``_carries``, on every component)."""
    _same_algebra(C1, C2)
    _check_permutation(perm, C1.algebra.group.n)
    return _carries(zip(C1.components, C2.components), perm)


def _carries(pairs, perm) -> bool:
    """Whether perm carries each pivot form P onto its partner Q, checked on
    P's pivot rows plus a cardinality comparison: the permuted generators
    landing inside Q with equal sizes forces equality."""
    return all(
        P.cardinality() == Q.cardinality()
        and all(membership(apply_permutation(perm, row), Q, _engine_rows=True) for row in P.engine_rows)
        for P, Q in pairs
    )


def _column_signature(words, c):
    return tuple(sorted(Counter(w[c] for w in words).items()))


def _search_lex_least(words1, words2, n):
    """Lexicographically least coordinate permutation mapping set1 to set2.

    A partial assignment perm[:k+1] survives when words2 projected onto those
    columns gives the same multiset as words1 cut to its first k+1
    coordinates.  words1's prefixes are numbered level by level, (id of
    w[:k], w[k]) -> id of w[:k+1], so each DFS level maps words2's ids one
    step further and compares counts of ids; a prefix words1 never has maps
    to None, and the counts then differ.  The counts are compared as plain
    dicts, whose equality runs in C.  At the last column the prefixes are
    whole words, so a full assignment maps words1 onto words2 as multisets.
    """
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
    ids2 = [[0] * len(words2)] + [None] * n  # ids2[k]: words2's prefix ids under perm[:k]
    # depth-first with an explicit stack, pos[k] being the index of the next
    # candidate for column k: no function refers to itself, so the search
    # leaves no reference cycle and its tables go as soon as it returns
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
        else:  # no candidate left for column k: back up one level
            k -= 1
            if k >= 0:
                used[perm[k]] = False
    return None


def _smaller_sides(C: GroupCode) -> list:
    """Each component form of C, or that of C^perp where it is the smaller
    (``PivotForm.dual_is_smaller``).  A permutation preserves the inner
    product, and over a Frobenius ring (X^perp)^perp = X, so it carries
    C1_j onto C2_j exactly when it carries C1_j^perp onto C2_j^perp: codes
    with equal component sizes may be searched on these sides."""
    duals = [P.dual_is_smaller() for P in C.components]
    sides = code_dual(C).components if any(duals) else C.components
    return [Pd if dual else P for P, Pd, dual in zip(C.components, sides, duals)]


def _tagged_words(j: int, P, cap: int) -> list:
    """The words of the span of P, each coordinate x tagged as (j, x)."""
    return [tuple(zip(repeat(j), w)) for w in enumerate_codewords(P, cap)]


def _search(pairs, words):
    """The lex-least permutation carrying P onto Q for every pair (P, Q) of
    component forms, or None when there is none.

    Equal pairs take the identity, the least permutation, and read no
    words.  Otherwise ``words`` holds, pair by pair, the tagged words of
    P's side and of Q's: P and Q, or P^perp and Q^perp.  A column or prefix
    has the same multiset in both lists exactly when it has in each
    component, so the search over all the pairs' words returns the
    lex-least permutation for all of them.  Whatever is returned is checked
    by ``_carries``."""
    n = pairs[0][0].ncols
    if all(P == Q for P, Q in pairs):
        perm = identity_permutation(n)
    else:
        perm = _search_lex_least(*(list(chain.from_iterable(side)) for side in zip(*words)), n)
        if perm is None:
            return None
    if not _carries(pairs, perm):
        raise AssertionError("backtracking returned a permutation that does not verify")
    return perm


def find_permutation(C1: GroupCode, C2: GroupCode, max_enum: int = DEFAULT_ENUM_CAP) -> EquivalenceResult:
    """Search for a coordinate permutation with C2 = C1 * P.

    The weight enumerators are compared first; for C1 == C2 the answer is
    the identity, and no codeword is built.  Otherwise ``_search`` reads the
    tagged words of the smaller side of each component of C1, then of C2,
    each walked once: sum_j |C_j| words, not the prod_j |C_j| of a code.
    Components of different sizes have no permutation between them.
    """
    _same_algebra(C1, C2)
    n = C1.algebra.group.n
    if n > SEARCH_LENGTH_LIMIT:
        raise ValidationError(f"permutation search supports n <= {SEARCH_LENGTH_LIMIT}")
    try:
        enumerators = weight_enumerator(C1, max_enum), weight_enumerator(C2, max_enum)
    except CapExceededError as exc:
        return EquivalenceResult(
            STATUS_EXHAUSTED, None, None, None, f"enumeration cap hit: {exc}"
        )
    d1, d2 = min_distance(C1, max_enum), min_distance(C2, max_enum)
    if enumerators[0] != enumerators[1]:
        return EquivalenceResult(
            STATUS_NOT_EQUIVALENT, None, d1, d2, "weight enumerators differ"
        )
    pairs = list(zip(C1.components, C2.components))
    perm = None
    if all(P.cardinality() == Q.cardinality() for P, Q in pairs):
        words = []
        if C1 != C2:
            w1, w2 = ([_tagged_words(j, P, max_enum) for j, P in enumerate(_smaller_sides(X))] for X in (C1, C2))
            words = list(zip(w1, w2))
        perm = _search(pairs, words)
    if perm is None:
        return EquivalenceResult(
            STATUS_NOT_EQUIVALENT, None, d1, d2, "backtracking exhausted all assignments"
        )
    return EquivalenceResult(STATUS_FOUND, perm, d1, d2, "")


def check_dual_equivalence(
    C: GroupCode,
    D: GroupCode,
    max_enum: int = DEFAULT_ENUM_CAP,
    _assume_lcp: bool = False,
) -> EquivalenceResult:
    """For an LCP pair: compare d(C) with d(D^perp) and search permutations.

    The only possible complement of C is D = iota(C)^perp, iota: g -> g^-1:
    if R[G] = C + D with C meet D = 0, then 1 = e + f with e in C, f in D
    central idempotents; <x, y> is the coefficient of 1 in x iota(y), so
    x in D^perp <=> x iota(D) = 0 <=> x in R[G] iota(e) = iota(C), and over
    a Frobenius ring (X^perp)^perp = X.  That is checked, not assumed; iota
    permutes coordinates, so the one walk of C gives d(D^perp) = d(C), and
    a search that finds no permutation of D^perp onto C is a fault.
    Permutations are searched per CRT component and once over the whole
    ring, and the block note records both.  When iota(C) != C, each
    component walks C_j, or D_j when that is smaller, and the other side is
    the same words moved by iota: iota(C_j), or iota(D_j) = C_j^perp, onto
    which D_j = iota(C_j)^perp is carried (``PivotForm.dual_is_smaller``
    picks the side).  So a check walks at most s spans and takes no
    kernel.  Past SEARCH_LENGTH_LIMIT iota itself is reported, checked by
    ``_carries``, and no search runs.
    A caller that has already checked the pair passes ``_assume_lcp=True``.
    """
    if not _assume_lcp and not lcp_check(C, D).is_lcp:
        raise NotLcpError("dual-equivalence comparison needs an LCP pair")
    Dd = code_involute(C)
    if code_dual(Dd) != D:
        raise AssertionError("LCP pair with iota(C)^perp != D; D^perp must be iota(C)")
    d = min_distance(C, max_enum)
    group = C.algebra.group
    n = group.n
    pairs = list(zip(Dd.components, C.components))
    if n > SEARCH_LENGTH_LIMIT:
        if not _carries(pairs, group.inv):
            raise AssertionError("g -> g^-1 does not carry D^perp onto C")
        note = f"witness g -> g^-1; no search run, n > {SEARCH_LENGTH_LIMIT}"
        return EquivalenceResult(STATUS_FOUND, group.inv, d, d, note)
    words = []  # per component, the tagged words of the sides of Dd_j and C_j
    if Dd != C:
        move = _permuter(group.inv)
        for j, (P, Q) in enumerate(zip(C.components, D.components)):
            dual = P.dual_is_smaller()
            walked = _tagged_words(j, Q if dual else P, max_enum)
            moved = list(map(move, walked))
            words.append((walked, moved) if dual else (moved, walked))
    parts = [_search(pairs[j : j + 1], words[j : j + 1]) for j in range(len(pairs))]
    full = parts[0] if len(pairs) == 1 else _search(pairs, words)
    if full is None or None in parts:
        raise AssertionError("no permutation carries D^perp = iota(C) onto C")
    notes = [f"component {j}: found {list(perm)}" for j, perm in enumerate(parts)]
    notes.append(f"common permutation: found {list(full)}")
    return EquivalenceResult(STATUS_FOUND, full, d, d, "; ".join(notes))
