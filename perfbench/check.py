"""Output checker: a job counts as completed only if its report passes here.

Every check compares the program's ``--json`` report with facts the
generator knew when it made the config (closed-form sizes, the message it
masked) or with identities that hold for every correct report (Frobenius
duality, MacWilliams, CRT recombination).  None of it calls into
``lcpcodes``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, prod

from gen import RINGS

EXIT_OK, EXIT_NOT_LCP = 0, 1


class CheckError(Exception):
    pass


def _require(cond: bool, reason: str):
    if not cond:
        raise CheckError(reason)


def _component_cardinality(comp, pivot) -> int:
    p, e, r = comp
    return (p**r) ** sum(e - t for t in pivot["pivot_vals"])


def _check_code_shape(ring, report):
    comps = report["components"]
    _require(len(comps) == len(ring.comps), f"{len(comps)} components, ring has {len(ring.comps)}")
    cards = [_component_cardinality(c, P) for c, P in zip(ring.comps, comps)]
    _require(cards == report["component_cardinalities"],
             f"component cardinalities {report['component_cardinalities']} disagree with pivot forms {cards}")
    _require(report["cardinality"] == prod(cards), "cardinality is not the product of the components")


def macwilliams(weights, q: int, n: int):
    """Weight distribution of C^perp from that of C (Krawtchouk transform)."""
    size = sum(weights)
    out = []
    for j in range(n + 1):
        total = 0
        for i, a in enumerate(weights):
            if a:
                total += a * sum(
                    (-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
                    for s in range(j + 1)
                )
        out.append(Fraction(total, size))
    return out


class Checker:
    """Checks reports in job order; keeps mindist reports for the C / C^perp pairing."""

    def __init__(self):
        self._weights = {}

    def check(self, job, code, stdout: str) -> str | None:
        """None if the job's report is correct, else the reason it is not."""
        spec = job["check"]
        expect = EXIT_NOT_LCP if spec.get("is_lcp") is False else EXIT_OK
        if code != expect:
            return f"exit code {code}, expected {expect}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"report is not JSON: {exc}"
        try:
            getattr(self, "_" + spec["kind"].replace("-", "_"))(job, spec, report)
        except CheckError as exc:
            return str(exc)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return f"malformed report: {type(exc).__name__}: {exc}"
        return None

    def _code(self, job, spec, report):
        ring = RINGS[spec["ring"]]
        _check_code_shape(ring, report)
        _require(report["two_sided"] is True, "code is not reported two-sided")
        card = report["cardinality"]
        _require(1 < card < spec["full"], f"cardinality {card} of a proper nonzero ideal out of range")
        if "cardinality" in spec:
            _require(card == spec["cardinality"], f"cardinality {card}, gcd formula gives {spec['cardinality']}")

    def _dual(self, job, spec, report):
        ring = RINGS[spec["ring"]]
        _check_code_shape(ring, report)
        primal = report["primal_cardinality"]
        _require(primal * report["cardinality"] == spec["full"],
                 f"|C| * |C^perp| = {primal} * {report['cardinality']} is not |R|^n")
        if "cardinality" in spec:
            _require(primal == spec["cardinality"], f"primal cardinality {primal}, gcd formula gives {spec['cardinality']}")

    def _crt(self, job, spec, report):
        ring = RINGS[spec["ring"]]
        _require(report["recombine_identity"] is True, "combine(project(C)) != C")
        comps = report["components"]
        _require(len(comps) == len(ring.comps), "wrong number of CRT components")
        cards = [_component_cardinality(c, part["pivot"]) for c, part in zip(ring.comps, comps)]
        _require(cards == [part["cardinality"] for part in comps], "component cardinality disagrees with its pivot form")
        _require(report["cardinality"] == prod(cards), "cardinality is not the product of the components")
        if "cardinality" in spec:
            _require(report["cardinality"] == spec["cardinality"], "cardinality disagrees with the gcd formula")

    def _lcp(self, job, spec, report):
        verdicts = report["component_verdicts"]
        if spec["is_lcp"]:
            _require(report["is_lcp"] is True, "LCP pair reported as not LCP")
            _require(report["intersection_size"] == 1 and report["sum_is_full"] is True, "LCP pair with C + D != R[G] or C & D != 0")
            _require(all(v is True for v in verdicts), "a component verdict is not LCP")
            d = report["d_c"]
            _require(d == report["d_d_dual"] == report["security_parameter"],
                     f"d(C) = {d}, d(D^perp) = {report['d_d_dual']}, security parameter {report['security_parameter']}")
            _require(1 <= d <= spec["order"], f"distance {d} out of range")
        else:
            _require(report["is_lcp"] is False, "pair inside the augmentation ideal reported as LCP")
            _require(report["sum_is_full"] is False, "C + D reported full inside the augmentation ideal")
            _require(not any(verdicts), "a component verdict is LCP inside the augmentation ideal")
            _require(report["security_parameter"] is None, "security parameter set for a non-LCP pair")
            if "intersection_size" in spec:
                _require(report["intersection_size"] == spec["intersection_size"],
                         f"|C & D| = {report['intersection_size']}, lcm formula gives {spec['intersection_size']}")

    def _dsm(self, job, spec, report):
        ring = RINGS[spec["ring"]]
        msg, mask = report["message"], report["mask"]
        _require(report["exact_roundtrip"] is True, "round trip not exact")
        _require(msg == spec["message"], "reported message differs from the one sent")
        _require(report["recovered_message"] == msg, "recovered message differs")
        _require(report["recovered_mask"] == mask, "recovered mask differs")
        moduli = [p**e for p, e, _ in ring.comps]
        expect = [
            [[(x + y) % m for x, y in zip(a, b)] for a, b, m in zip(ca, cb, moduli)]
            for ca, cb in zip(msg, mask)
        ]
        _require(report["masked"] == expect, "masked word is not message + mask")

    def _mindist(self, job, spec, report):
        n, q = spec["order"], spec["q"]
        w = report["weight_enumerator"]
        card = report["cardinality"]
        _require(card == spec["cardinality"], f"|C| = {card}, expected {spec['cardinality']}")
        _require(len(w) == n + 1 and w[0] == 1, "weight enumerator has the wrong shape")
        _require(sum(w) == card, f"weight enumerator sums to {sum(w)}, |C| = {card}")
        d = next((i for i in range(1, n + 1) if w[i]), n + 1)
        _require(report["min_distance"] == d, f"min distance {report['min_distance']}, enumerator gives {d}")
        dual = macwilliams(w, q, n)
        _require(all(x.denominator == 1 and x >= 0 for x in dual), "MacWilliams transform is not a weight distribution")
        _require(dual[0] == 1 and sum(dual) * card == spec["full"], "MacWilliams transform has the wrong size")
        key = (job["config"], job["argv"][1])
        self._weights[key] = w
        other = self._weights.get((job["config"], spec["dual_of"]))
        if other is not None:
            _require([int(x) for x in dual] == other, "MacWilliams disagrees with the named C^perp")

    def _search_lcp(self, job, spec, report):
        full = spec["full"]
        ideals, pairs = report["ideals"], report["lcp_pairs"]
        _require(report["distance_equality_all_pairs"] is True, "d(C) != d(D^perp) for some LCP pair")
        _require(report["ideal_count"] == len(ideals), "ideal_count disagrees with the list")
        _require(report["lcp_pair_count"] == len(pairs), "lcp_pair_count disagrees with the list")
        cards = [item["cardinality"] for item in ideals]
        _require(cards == sorted(cards) and cards[0] == 1 and cards[-1] == full, "ideal list is not sorted from 0 to R[G]")
        for pair in pairs:
            _require(pair["c_cardinality"] * pair["d_cardinality"] == full, "LCP pair with |C| |D| != |R[G]|")
            _require(pair["d_c"] == pair["d_d_dual"] == pair["security_parameter"], "LCP pair distances disagree")
        if "ideal_count" in spec:
            _require(report["ideal_count"] == spec["ideal_count"],
                     f"{report['ideal_count']} ideals, cyclotomic-coset formula gives {spec['ideal_count']}")
            _require(report["lcp_pair_count"] == spec["lcp_pair_count"],
                     f"{report['lcp_pair_count']} LCP pairs, formula gives {spec['lcp_pair_count']}")
