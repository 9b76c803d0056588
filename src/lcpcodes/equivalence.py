"""Permutation equivalence of codes: verification and backtracking search.

A permutation p acts on coordinates by w[p[i]] = v[i].  The search first
compares weight enumerators, then partitions coordinates by their column
frequency signatures, and finally backtracks over signature-respecting
assignments in increasing order, so a found permutation is always the
lexicographically least valid one.  For an LCP pair (C, D) the dual-distance
report gives d(C) = d(D^perp), since D^perp = iota(C), and looks for both
per-component and whole-ring permutations carrying D^perp onto C.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from .codes import GroupCode, _lcp_distances, _same_algebra, code_dual, lcp_check, min_distance, weight_enumerator
from .errors import CapExceededError, NotLcpError, ValidationError
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
    """Whether permuting the coordinates of C1 yields exactly C2.

    Checked on the component pivot rows plus a cardinality comparison: the
    permuted generators landing inside C2 with equal sizes forces equality.
    """
    _same_algebra(C1, C2)
    n = C1.algebra.group.n
    _check_permutation(perm, n)
    if C1.cardinality() != C2.cardinality():
        return False
    for P, Q in zip(C1.components, C2.components):
        for row in P.engine_rows:
            if not membership(apply_permutation(perm, row), Q, _engine_rows=True):
                return False
    return True


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
    dicts, whose equality runs in C.
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
    set2 = set(words2)
    perm = [0] * n
    used = [False] * n
    ids2 = [[0] * len(words2)] + [None] * n  # ids2[k]: words2's prefix ids under perm[:k]
    # depth-first with an explicit stack, pos[k] being the index of the next
    # candidate for column k: no function refers to itself, so the search
    # leaves no reference cycle and its tables go as soon as it returns
    pos = [0] * (n + 1)
    k = 0
    while k >= 0:
        if k == n and all(apply_permutation(perm, w) in set2 for w in words1):
            return tuple(perm)
        cands = candidates[k] if k < n else ()
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


def _component_words(C: GroupCode, duals, cap: int) -> list:
    """The words of C's CRT components, each coordinate x of component j
    tagged as (j, x): sum_j |C_j| words, not the prod_j |C_j| of C.
    Component j is read from C^perp where ``duals[j]`` is true."""
    sides = code_dual(C).components if any(duals) else C.components
    return [
        tuple(zip(repeat(j), w))
        for j, (P, Pd, dual) in enumerate(zip(C.components, sides, duals))
        for w in enumerate_codewords(Pd if dual else P, cap)
    ]


def find_permutation(C1: GroupCode, C2: GroupCode, max_enum: int = DEFAULT_ENUM_CAP) -> EquivalenceResult:
    """Search for a coordinate permutation with C2 = C1 * P.

    The weight enumerators are compared first; for C1 == C2 the answer is
    the identity, which is the least permutation and maps C1 onto itself,
    so no codeword is built.  Otherwise the search reads the component
    words of both codes (``_component_words``), each component walked once.
    A permutation maps C1 onto C2 exactly when it maps each component onto
    its partner, and a column or prefix has the same multiset in both codes
    exactly when it has in each component, so the search over the tagged
    component words returns the lex-least permutation of the whole codes.
    A permutation preserves the inner product, and over a Frobenius ring
    (X^perp)^perp = X, so it maps C1_j onto C2_j exactly when it maps
    C1_j^perp onto C2_j^perp: each component is read from the smaller of
    C1_j and C1_j^perp, and from the same side of C2_j.  Components of
    different sizes have no permutation between them.
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
    if C1 == C2:
        perm = identity_permutation(n)
    else:
        pairs = list(zip(C1.components, C2.components))
        perm = None
        if all(P.cardinality() == Q.cardinality() for P, Q in pairs):
            duals = [P.cardinality() ** 2 > P.ring.size**n for P, _ in pairs]
            words1, words2 = (_component_words(X, duals, max_enum) for X in (C1, C2))
            perm = _search_lex_least(words1, words2, n)
        if perm is None:
            return EquivalenceResult(
                STATUS_NOT_EQUIVALENT, None, d1, d2, "backtracking exhausted all assignments"
            )
    if not verify_permutation(C1, C2, perm):
        raise AssertionError("backtracking returned a permutation that does not verify")
    return EquivalenceResult(STATUS_FOUND, perm, d1, d2, "")


def check_dual_equivalence(
    C: GroupCode,
    D: GroupCode,
    max_enum: int = DEFAULT_ENUM_CAP,
    _assume_lcp: bool = False,
) -> EquivalenceResult:
    """For an LCP pair: compare d(C) with d(D^perp) and search permutations.

    Permutations are searched per CRT component and once over the whole
    product ring; the block note records both outcomes, since component
    permutations need not assemble into a single common one.  Each search
    walks one side of each component of each code at most once, so a check
    walks at most 4s spans; over a chain ring the one component search is
    the common search.  D^perp is iota(C), checked by ``_lcp_distances``,
    so d(D^perp) = d(C).  A caller that has already checked the pair passes
    ``_assume_lcp=True``.
    """
    if not _assume_lcp and not lcp_check(C, D).is_lcp:
        raise NotLcpError("dual-equivalence comparison needs an LCP pair")
    # the weights are cached on C and Dd, so the searches reuse them
    Dd, d = _lcp_distances(C, D, max_enum)
    # a chain-ring code is its own part, and keeps its cached weights
    parts = [find_permutation(Ddj, Cj, max_enum) for Cj, Ddj in zip(C.crt_project(), Dd.crt_project())]
    full = parts[0] if C.algebra.ring.s == 1 else find_permutation(Dd, C, max_enum)

    def note(label, res):
        if res.status == STATUS_FOUND:
            return f"{label}: found {list(res.permutation)}"
        return f"{label}: {res.status}"

    notes = [note(f"component {j}", res) for j, res in enumerate(parts)]
    notes.append(note("common permutation", full))
    return EquivalenceResult(
        status=full.status,
        permutation=full.permutation,
        d_c=d,
        d_d_dual=d,
        block_note="; ".join(notes),
    )
