"""Permutation equivalence of codes: verification and backtracking search.

A permutation p acts on coordinates by w[p[i]] = v[i].  The search first
compares weight enumerators, then partitions coordinates by their column
frequency signatures, and finally backtracks over signature-respecting
assignments in increasing order, so a found permutation is always the
lexicographically least valid one.  For an LCP pair (C, D) the dual-distance
report compares d(C) with d(D^perp) and looks for both per-component and
whole-ring permutations carrying D^perp onto C.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .codes import GroupCode, code_dual, lcp_check, min_distance, weight_enumerator
from .errors import CapExceededError, NotLcpError, ValidationError
from .linalg import DEFAULT_ENUM_CAP, membership

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
    if C1.algebra != C2.algebra:
        raise ValidationError("codes live in different group algebras")
    n = C1.algebra.group.n
    _check_permutation(perm, n)
    if C1.cardinality() != C2.cardinality():
        return False
    for P, Q in zip(C1.components, C2.components):
        for row in P.rows:
            if not membership(apply_permutation(perm, row), Q):
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
    to None, and the counts then differ.
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
        proj1.append(Counter(ids))
    set2 = set(words2)
    perm = [0] * n
    used = [False] * n
    ids2 = [[0] * len(words2)] + [None] * n  # ids2[k]: words2's prefix ids under perm[:k]

    def partial_ok(k):
        ids2[k + 1] = list(map(steps[k].get, zip(ids2[k], map(itemgetter(perm[k]), words2))))
        return Counter(ids2[k + 1]) == proj1[k]

    def dfs(k):
        if k == n:
            return all(apply_permutation(perm, w) in set2 for w in words1)
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


def find_permutation(
    C1: GroupCode, C2: GroupCode, max_enum: int = DEFAULT_ENUM_CAP
) -> EquivalenceResult:
    """Search for a coordinate permutation with C2 = C1 * P.

    The weight enumerators are compared first; for C1 == C2 the answer is
    the identity, which is the least permutation and maps C1 onto itself,
    so no codeword is built.
    """
    if C1.algebra != C2.algebra:
        raise ValidationError("codes live in different group algebras")
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
        words1 = list(C1.codewords(max_enum))
        words2 = list(C2.codewords(max_enum))
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
    _d_dual: GroupCode | None = None,
) -> EquivalenceResult:
    """For an LCP pair: compare d(C) with d(D^perp) and search permutations.

    Permutations are searched per CRT component and once over the whole
    product ring; the block note records both outcomes, since component
    permutations need not assemble into a single common one.  Over a chain
    ring the one component search is the common search.  A caller that has
    already checked the pair passes ``_assume_lcp=True``, and one that also
    holds D^perp passes it as ``_d_dual``.
    """
    if not _assume_lcp and not lcp_check(C, D, fill_security=False).is_lcp:
        raise NotLcpError("dual-equivalence comparison needs an LCP pair")
    Dd = code_dual(D) if _d_dual is None else _d_dual
    # the weights are cached on C and Dd, so the searches reuse them
    d_c, d_dd = min_distance(C, max_enum), min_distance(Dd, max_enum)
    full = find_permutation(Dd, C, max_enum)
    if C.algebra.ring.s == 1:
        parts = [full]
    else:
        parts = [
            find_permutation(Ddj, Cj, max_enum)
            for Cj, Ddj in zip(C.crt_project(), Dd.crt_project())
        ]

    def note(label, res):
        if res.status == STATUS_FOUND:
            return f"{label}: found {list(res.permutation)}"
        return f"{label}: {res.status}"

    notes = [note(f"component {j}", res) for j, res in enumerate(parts)]
    notes.append(note("common permutation", full))
    return EquivalenceResult(
        status=full.status,
        permutation=full.permutation,
        d_c=d_c,
        d_d_dual=d_dd,
        block_note="; ".join(notes),
    )
