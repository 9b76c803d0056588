"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Every
check is exact (integer equality); brute-force oracles are enumeration-based
and independent of the library's pivot machinery.
"""

import itertools
import json
import random
import time
from collections import Counter

import pytest

from lcpcodes import cli
from lcpcodes.algebra import GroupAlgebra, component_rows, from_component_rows
from lcpcodes.codes import (
    DsmSplitter,
    code_dual,
    code_intersect,
    code_sum,
    enumerate_ideals,
    lcp_check,
    min_distance,
)
from lcpcodes.equivalence import (
    STATUS_FOUND,
    check_dual_equivalence,
    verify_permutation,
)
from lcpcodes.groups import cyclic
from lcpcodes.linalg import (
    RingMatrix,
    enumerate_codewords,
    kernel,
    membership,
    pivot_reduce,
)
from lcpcodes.rings import ChainRing, ProductRing

from oracles import brute_dual, brute_kernel, brute_span, code_word_set


def report_line(num, name, ok, elapsed=None, extra=""):
    stamp = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    tail = f"  {extra}" if extra else ""
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{stamp}{tail}")


def random_element(algebra, rng):
    return tuple(
        tuple(
            tuple(rng.randrange(cr.pe) for _ in range(cr.r))
            for cr in algebra.ring.components
        )
        for _ in range(algebra.group.n)
    )


@pytest.fixture(scope="module")
def corpora():
    """The five exhaustively-checkable instances with their full ideal lists."""
    instances = [
        ("F2[C3]", ProductRing([ChainRing(2, 1, 1)]), cyclic(3)),
        ("F3[C2]", ProductRing([ChainRing(3, 1, 1)]), cyclic(2)),
        ("Z4[C2]", ProductRing([ChainRing(2, 2, 1)]), cyclic(2)),
        ("Z6[C2]", ProductRing.from_modulus(6), cyclic(2)),
        ("Z6[C3]", ProductRing.from_modulus(6), cyclic(3)),
    ]
    out = []
    for name, ring, group in instances:
        algebra = GroupAlgebra(ring, group)
        out.append((name, algebra, enumerate_ideals(algebra)))
    return out


@pytest.fixture(scope="module")
def lcp_pairs(corpora):
    pairs = {}
    for name, algebra, ideals in corpora:
        found = []
        for C in ideals:
            for D in ideals:
                if lcp_check(C, D).is_lcp:
                    found.append((C, D))
        pairs[name] = found
    return pairs


def split(a):
    """a as its elements of the component algebras R_j[G], one per row."""
    return tuple(from_component_rows((row,)) for row in component_rows(a))


def test_criterion_1_crt_ring_isomorphism():
    """Splitting is a ring isomorphism on random pairs; lift inverts it."""
    start = time.monotonic()
    instances = [
        GroupAlgebra(ProductRing.from_modulus(6), cyclic(3)),
        GroupAlgebra(ProductRing.from_modulus(12), cyclic(2)),
        GroupAlgebra(
            ProductRing([ChainRing(2, 1, 1), ChainRing(2, 1, 2)]), cyclic(2)
        ),
    ]
    rng = random.Random(1)
    failures = []
    for algebra in instances:
        comps = algebra.components
        for _ in range(200):
            a = random_element(algebra, rng)
            b = random_element(algebra, rng)
            pa, pb = split(a), split(b)
            sum_ok = split(algebra.add(a, b)) == tuple(
                comp.add(x, y) for comp, x, y in zip(comps, pa, pb)
            )
            mul_ok = split(algebra.mul(a, b)) == tuple(
                comp.mul(x, y) for comp, x, y in zip(comps, pa, pb)
            )
            lift_ok = from_component_rows([row for part in pa for row in component_rows(part)]) == a
            if not (sum_ok and mul_ok and lift_ok):
                failures.append((algebra, a, b))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    report_line(1, "crt-splitting-is-ring-isomorphism", ok, elapsed)
    assert not failures, failures[:3]
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f} s (budget 5 s)"


def test_criterion_2_crt_lattice_and_duality_identities(corpora):
    """Intersections, sums, cardinalities and duals decompose componentwise."""
    start = time.monotonic()
    failures = []
    for name, algebra, ideals in corpora:
        n = algebra.group.n
        small = algebra.size <= 64
        projections = {id(C): C.crt_project() for C in ideals}
        words = {id(C): code_word_set(C) for C in ideals}
        for C in ideals:
            # cardinality product and dual identities
            if C.cardinality() != __import__("math").prod(
                P.cardinality() for P in C.components
            ):
                failures.append((name, "cardinality-product", C))
            Cd = code_dual(C)
            for j, Cj in enumerate(projections[id(C)]):
                if Cd.components[j].key() != code_dual(Cj).components[0].key():
                    failures.append((name, "dual-projection", C, j))
            if C.cardinality() * Cd.cardinality() != algebra.size:
                failures.append((name, "dual-size", C))
            if code_dual(Cd) != C:
                failures.append((name, "double-dual", C))
            if code_word_set(Cd) != brute_dual(algebra, words[id(C)]):
                failures.append((name, "dual-brute-force", C))
        for C in ideals:
            for D in ideals:
                inter = code_intersect(C, D)
                total = code_sum(C, D)
                for j in range(algebra.ring.s):
                    Cj = projections[id(C)][j]
                    Dj = projections[id(D)][j]
                    if inter.components[j].key() != code_intersect(Cj, Dj).components[0].key():
                        failures.append((name, "crt-intersection", C, D, j))
                    if total.components[j].key() != code_sum(Cj, Dj).components[0].key():
                        failures.append((name, "crt-sum", C, D, j))
                if code_word_set(inter) != words[id(C)] & words[id(D)]:
                    failures.append((name, "intersection-brute-force", C, D))
                if small:
                    if not inter.is_two_sided() or not total.is_two_sided():
                        failures.append((name, "two-sidedness-lost", C, D))
                if small or C.cardinality() * D.cardinality() <= 2000:
                    sums = {
                        algebra.add(c, d)
                        for c in words[id(C)]
                        for d in words[id(D)]
                    }
                    if code_word_set(total) != sums:
                        failures.append((name, "sum-brute-force", C, D))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    report_line(2, "crt-lattice-and-duality-identities", ok, elapsed)
    assert not failures, failures[:3]
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.2f} s (budget 120 s)"


def test_criterion_3_lcp_verdict_agreement(corpora):
    """Direct and componentwise LCP verdicts agree on every ordered pair."""
    start = time.monotonic()
    checked = 0
    failures = []
    for name, algebra, ideals in corpora:
        for C in ideals:
            for D in ideals:
                rep = lcp_check(C, D)
                checked += 1
                direct = rep.intersection_size == 1 and rep.sum_is_full
                if rep.is_lcp != direct or rep.is_lcp != all(rep.component_verdicts):
                    failures.append((name, C, D, rep))
    elapsed = time.monotonic() - start
    ok = not failures
    report_line(3, "lcp-direct-vs-componentwise-agreement", ok, elapsed,
                f"{checked} ordered pairs")
    assert not failures, failures[:3]


def test_criterion_4_dual_distance_and_permutation(corpora, lcp_pairs):
    """d(C) = d(D^perp) for every LCP pair; a common permutation is found."""
    start = time.monotonic()
    failures = []
    componentwise_only = []
    total = 0
    for name, algebra, ideals in corpora:
        for C, D in lcp_pairs[name]:
            total += 1
            res = check_dual_equivalence(C, D)
            if res.d_c != res.d_d_dual:
                failures.append((name, "distance-mismatch", res))
                continue
            if algebra.group.n <= 6:
                if res.status == STATUS_FOUND:
                    if not verify_permutation(code_dual(D), C, res.permutation):
                        failures.append((name, "unverified-permutation", res))
                elif "found" in res.block_note.split("common permutation")[0]:
                    componentwise_only.append((name, res.block_note))
                else:
                    failures.append((name, "no-permutation", res))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    extra = f"{total} LCP pairs"
    if componentwise_only:
        extra += f"; componentwise-only instances: {len(componentwise_only)}"
        for name, note in componentwise_only:
            extra += f" [{name}: {note}]"
    report_line(4, "dual-distance-equality-and-equivalence", ok, elapsed, extra)
    assert not failures, failures[:3]
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.2f} s (budget 120 s)"


def test_criterion_5_linear_algebra_matches_brute_force():
    """Pivot span, membership, kernel and cardinality against enumeration."""
    start = time.monotonic()
    rng = random.Random(5)
    rings = [ChainRing(2, 2, 1), ChainRing(2, 1, 2), ChainRing(3, 2, 1)]
    failures = []
    for k in range(100):
        ring = rings[k % 3]
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        rows = tuple(
            tuple(
                tuple(rng.randrange(ring.pe) for _ in range(ring.r))
                for _ in range(n)
            )
            for _ in range(m)
        )
        mat = RingMatrix(ring, rows, n)
        span = brute_span(ring, rows, n)
        P = pivot_reduce(mat)
        if set(enumerate_codewords(P)) != span:
            failures.append(("span", k))
        if P.cardinality() != len(span):
            failures.append(("cardinality", k))
        member_ok = all(membership(v, P) for v in span)
        for _ in range(20):
            v = tuple(
                tuple(rng.randrange(ring.pe) for _ in range(ring.r))
                for _ in range(n)
            )
            member_ok = member_ok and membership(v, P) == (v in span)
        if not member_ok:
            failures.append(("membership", k))
        K = kernel(mat)
        if set(enumerate_codewords(K)) != brute_kernel(ring, rows, n):
            failures.append(("kernel", k))
    elapsed = time.monotonic() - start
    ok = not failures
    report_line(5, "linear-algebra-brute-force-equivalence", ok, elapsed,
                "100 random matrices over Z4, F4, Z9")
    assert not failures, failures[:5]


def test_criterion_6_dsm_roundtrip_and_reproducibility(
    corpora, lcp_pairs, tmp_path, capsys
):
    """Splitting along C + D is total and unique; the CLI demo is replayable."""
    start = time.monotonic()
    failures = []
    pair_count = 0
    for name, algebra, ideals in corpora:
        if algebra.size > 256:
            continue
        for C, D in lcp_pairs[name]:
            pair_count += 1
            splitter = DsmSplitter(C, D)
            reps = Counter()
            table = {}
            for c in code_word_set(C):
                for d in code_word_set(D):
                    z = algebra.add(c, d)
                    reps[z] += 1
                    table[z] = (c, d)
            for z in algebra.elements():
                if reps[z] != 1:
                    failures.append((name, "non-unique", z))
                    continue
                got = splitter.split(z)
                if got != table[z]:
                    failures.append((name, "split-disagrees", z))
    # CLI determinism, seed 0
    cfg = {
        "ring": [{"p": 2, "e": 1, "r": 1}],
        "group": {"family": "cyclic", "n": 3},
        "codes": {"C": [[[0, 1], [1, 1]]], "D": [[[0, 1], [1, 1], [2, 1]]]},
        "seed": 0,
    }
    path = tmp_path / "dsm.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    outs = []
    for _ in range(2):
        code = cli.main(
            ["--config", str(path), "--json", "dsm", "C", "D", "[[1,1],[2,1]]"]
        )
        outs.append(capsys.readouterr().out)
        if code != 0:
            failures.append(("cli", "exit", code))
    if outs[0] != outs[1]:
        failures.append(("cli", "not-reproducible"))
    elapsed = time.monotonic() - start
    ok = not failures
    report_line(6, "dsm-unique-roundtrip-and-replay", ok, elapsed,
                f"{pair_count} LCP pairs, every codeword of each algebra")
    assert not failures, failures[:3]


def test_criterion_7_lcd_special_case(corpora):
    """lcp_check(C, C^perp) agrees with the brute-force intersection test."""
    start = time.monotonic()
    failures = []
    lcd_count = 0
    for name, algebra, ideals in corpora:
        zero = algebra.zero()
        for C in ideals:
            Cd = code_dual(C)
            rep = lcp_check(C, Cd)
            trivial = code_word_set(C) & code_word_set(Cd) == {zero}
            if rep.is_lcp != trivial:
                failures.append((name, "verdict", C))
            if rep.is_lcp:
                lcd_count += 1
                if check_dual_equivalence(C, Cd).d_c != min_distance(C):
                    failures.append((name, "security-parameter", C))
    elapsed = time.monotonic() - start
    ok = not failures
    report_line(7, "lcd-as-special-case", ok, elapsed, f"{lcd_count} LCD codes found")
    assert not failures, failures[:3]
