"""Command-line front end.

Reads a JSON instance description (ring, group, named codes), runs the
requested computation and prints a human-readable or ``--json`` report.
Exit codes: 0 success (and "is LCP" for ``lcp``), 1 "not LCP", 2 validation
problem, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

from .algebra import GroupAlgebra
from .codes import (
    DEFAULT_IDEAL_CAP,
    DsmSplitter,
    GroupCode,
    code_crt_combine,
    code_dual,
    code_involute,
    enumerate_ideals,
    lcp_check,
    min_distance,
    security_parameter,
    weight_enumerator,
)
from .equivalence import check_dual_equivalence
from .errors import CapExceededError, ValidationError
from .groups import (
    FiniteGroup,
    cyclic,
    dihedral,
    direct_product,
    load_cayley_table,
    symmetric,
)
from .linalg import DEFAULT_ENUM_CAP
from .rings import ChainRing, ProductRing

EXIT_OK = 0
EXIT_NOT_LCP = 1
EXIT_VALIDATION = 2
EXIT_CAP = 3


class Lcg:
    """64-bit linear congruential generator; fixed constants for replay."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int = 0):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state * self.MULTIPLIER + self.INCREMENT) & self.MASK
        return self.state

    def randrange(self, n: int) -> int:
        return self.next_u64() % n


# ---------------------------------------------------------------------------
# config parsing


@dataclass
class InstanceConfig:
    ring: ProductRing
    group: FiniteGroup
    algebra: GroupAlgebra
    codes: dict
    seed: int


def parse_ring(obj) -> ProductRing:
    if isinstance(obj, int):
        return ProductRing.from_modulus(obj)
    if isinstance(obj, list):
        comps = []
        for item in obj:
            if not isinstance(item, dict) or "p" not in item:
                raise ValidationError(f"bad ring component {item!r}")
            modulus = item.get("modulus")
            if modulus is not None and not (
                isinstance(modulus, list) and all(_is_int(c) for c in modulus)
            ):
                raise ValidationError(f"modulus {modulus!r} must be a list of integers")
            comps.append(
                ChainRing(
                    _int_field(item, "p"),
                    _int_field(item, "e", 1),
                    _int_field(item, "r", 1),
                    modulus=modulus,
                )
            )
        return ProductRing(comps)
    raise ValidationError(f"unusable ring literal {obj!r}")


def parse_group(obj, base_dir: str) -> FiniteGroup:
    if not isinstance(obj, dict):
        raise ValidationError(f"unusable group literal {obj!r}")
    if "table" in obj:
        path = obj["table"]
        if not isinstance(path, str):
            raise ValidationError(f"group table path {path!r} must be a string")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            return load_cayley_table(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read group table {path}: {exc}") from exc
    family = obj.get("family")
    if family == "cyclic":
        return cyclic(_int_field(obj, "n"))
    if family == "dihedral":
        return dihedral(_int_field(obj, "n"))
    if family == "symmetric":
        return symmetric(_int_field(obj, "m" if "m" in obj else "n"))
    if family == "product":
        factors = obj.get("factors", [])
        if not isinstance(factors, list) or len(factors) < 2:
            raise ValidationError("product group needs at least two factors")
        G = parse_group(factors[0], base_dir)
        for factor in factors[1:]:
            G = direct_product(G, parse_group(factor, base_dir))
        return G
    raise ValidationError(f"unknown group family {family!r}")


def _is_int(x) -> bool:
    """A JSON integer; ``true`` and ``false`` are not numbers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_field(obj: dict, key: str, default=None) -> int:
    """The integer at obj[key], or ``default`` when the key is absent."""
    value = obj.get(key, default)
    if value is None:
        raise ValidationError(f"{obj!r} needs an integer {key!r}")
    if not _is_int(value):
        raise ValidationError(f"{key!r} must be an integer, got {value!r}")
    return value


def parse_coefficient(ring: ProductRing, lit):
    if _is_int(lit):
        return ring.project(lit)
    if isinstance(lit, list):
        if len(lit) != ring.s:
            raise ValidationError(
                f"coefficient {lit!r} has {len(lit)} parts, ring has {ring.s}"
            )
        parts = []
        for cr, item in zip(ring.components, lit):
            if _is_int(item):
                parts.append(cr.from_int(item))
            elif isinstance(item, list):
                if len(item) > cr.r:
                    raise ValidationError(f"coefficient part {item!r} too long for {cr!r}")
                if not all(_is_int(c) for c in item):
                    raise ValidationError(
                        f"coefficient part {item!r} must list integers"
                    )
                coeffs = [c % cr.pe for c in item] + [0] * (cr.r - len(item))
                parts.append(tuple(coeffs))
            else:
                raise ValidationError(f"bad coefficient part {item!r}")
        return tuple(parts)
    raise ValidationError(f"bad coefficient literal {lit!r}")


def parse_element(algebra: GroupAlgebra, lit):
    """Element literal: list of [group-index, coefficient] pairs."""
    if not isinstance(lit, list):
        raise ValidationError(f"bad element literal {lit!r}")
    out = list(algebra.zero())
    for pair in lit:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"bad [index, coefficient] pair {pair!r}")
        idx, coeff = pair
        if not _is_int(idx) or not 0 <= idx < algebra.group.n:
            raise ValidationError(f"group index {idx!r} out of range")
        out[idx] = algebra.ring.add(out[idx], parse_coefficient(algebra.ring, coeff))
    return tuple(out)


def load_config(path: str) -> InstanceConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "ring" not in doc or "group" not in doc:
        raise ValidationError("config must be an object with 'ring' and 'group'")
    base_dir = os.path.dirname(os.path.abspath(path))
    ring = parse_ring(doc["ring"])
    group = parse_group(doc["group"], base_dir)
    algebra = GroupAlgebra(ring, group)
    codes_doc = doc.get("codes", {})
    if not isinstance(codes_doc, dict):
        raise ValidationError(f"'codes' must map code names to generator lists, got {codes_doc!r}")
    codes = {}
    for name, gens in codes_doc.items():
        if not isinstance(gens, list):
            raise ValidationError(f"code {name!r} must map to a list of generators")
        elements = [parse_element(algebra, g) for g in gens]
        codes[name] = GroupCode.from_generators(algebra, elements)
    seed = doc.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ValidationError(f"seed {seed!r} must be a non-negative integer")
    return InstanceConfig(ring=ring, group=group, algebra=algebra, codes=codes, seed=seed)


def _get_code(cfg: InstanceConfig, name: str) -> GroupCode:
    if name not in cfg.codes:
        known = ", ".join(sorted(cfg.codes)) or "(none)"
        raise ValidationError(f"unknown code {name!r}; config defines: {known}")
    return cfg.codes[name]


# ---------------------------------------------------------------------------
# JSON shapes


def element_json(a):
    return [[list(part) for part in coeff] for coeff in a]


def pivot_json(P):
    return {
        "pivot_cols": list(P.pivot_cols),
        "pivot_vals": list(P.pivot_vals),
        "rows": [[list(x) for x in row] for row in P.rows],
    }


def code_json(C: GroupCode):
    return {
        "cardinality": C.cardinality(),
        "component_cardinalities": [P.cardinality() for P in C.components],
        "components": [pivot_json(P) for P in C.components],
    }


# ---------------------------------------------------------------------------
# commands: each returns (report dict, exit code)


def cmd_info(cfg: InstanceConfig, args) -> tuple[dict, int]:
    report = {
        "command": "info",
        "ring": {
            "size": cfg.ring.size,
            "s": cfg.ring.s,
            "components": [c.describe() for c in cfg.ring.components],
        },
        "group": {"order": cfg.group.n, "abelian": cfg.group.is_abelian()},
        "algebra_size": cfg.algebra.size,
        "codes": sorted(cfg.codes),
    }
    return report, EXIT_OK


def cmd_code(cfg: InstanceConfig, args) -> tuple[dict, int]:
    C = _get_code(cfg, args.name)
    report = {"command": "code", "name": args.name}
    report.update(code_json(C))
    report["two_sided"] = C.is_two_sided()
    return report, EXIT_OK


def cmd_dual(cfg: InstanceConfig, args) -> tuple[dict, int]:
    C = _get_code(cfg, args.name)
    D = code_dual(C)
    report = {"command": "dual", "name": args.name}
    report.update(code_json(D))
    report["primal_cardinality"] = C.cardinality()
    return report, EXIT_OK


def cmd_mindist(cfg: InstanceConfig, args) -> tuple[dict, int]:
    C = _get_code(cfg, args.name)
    d = min_distance(C, max_enum=args.max_enum)
    report = {
        "command": "mindist",
        "name": args.name,
        "cardinality": C.cardinality(),
        "min_distance": d,
        "weight_enumerator": list(weight_enumerator(C, max_enum=args.max_enum)),
        "zero_code": C.is_zero,
    }
    return report, EXIT_OK


def cmd_lcp(cfg: InstanceConfig, args) -> tuple[dict, int]:
    C = _get_code(cfg, args.name_c)
    D = _get_code(cfg, args.name_d)
    rep = lcp_check(C, D, fill_security=False)
    report = {
        "command": "lcp",
        "c": args.name_c,
        "d": args.name_d,
        "is_lcp": rep.is_lcp,
        "intersection_size": rep.intersection_size,
        "sum_is_full": rep.sum_is_full,
        "component_verdicts": list(rep.component_verdicts),
        "security_parameter": None,
    }
    if not rep.is_lcp:
        return report, EXIT_NOT_LCP
    # D^perp is built once; its weights, cached on it, serve both reports
    Dd = code_dual(D)
    report["security_parameter"] = security_parameter(
        C, D, max_enum=args.max_enum, _assume_lcp=True, _d_dual=Dd
    )
    eq = check_dual_equivalence(C, D, max_enum=args.max_enum, _assume_lcp=True, _d_dual=Dd)
    report["d_c"] = eq.d_c
    report["d_d_dual"] = eq.d_d_dual
    report["equivalence"] = {
        "status": eq.status,
        "permutation": list(eq.permutation) if eq.permutation else None,
        "block_note": eq.block_note,
    }
    return report, EXIT_OK


def _sample_mask(D: GroupCode, rng: Lcg):
    """Deterministic uniform mask: one transversal draw per pivot row.

    Components are visited in ring order and rows top to bottom; each draw
    indexes the same lexicographic transversal used by codeword enumeration.
    """
    A = D.algebra
    n = A.group.n
    parts = []
    for P in D.components:
        cr = P.ring
        acc = [cr.zero] * n
        for row, t in zip(P.rows, P.pivot_vals):
            reps = cr.transversal(cr.e - t)
            c = reps[rng.randrange(len(reps))]
            if c != cr.zero:
                for i in range(n):
                    acc[i] = cr.add(acc[i], cr.mul(c, row[i]))
        parts.append(acc)
    return tuple(tuple(parts[j][i] for j in range(A.ring.s)) for i in range(n))


def cmd_dsm(cfg: InstanceConfig, args) -> tuple[dict, int]:
    C = _get_code(cfg, args.name_c)
    D = _get_code(cfg, args.name_d)
    try:
        literal = json.loads(args.message)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"message is not a JSON element literal: {exc}") from exc
    msg = parse_element(cfg.algebra, literal)
    if not C.contains(msg):
        raise ValidationError(f"message {cfg.algebra.format_element(msg)} is not in code {args.name_c}")
    splitter = DsmSplitter(C, D)
    rng = Lcg(args.seed)
    mask = _sample_mask(D, rng)
    masked = cfg.algebra.add(msg, mask)
    rec_c, rec_d = splitter.split(masked)
    if rec_c != msg or rec_d != mask:
        raise AssertionError("mask recovery failed to round-trip")
    report = {
        "command": "dsm",
        "c": args.name_c,
        "d": args.name_d,
        "seed": args.seed,
        "message": element_json(msg),
        "mask": element_json(mask),
        "masked": element_json(masked),
        "recovered_message": element_json(rec_c),
        "recovered_mask": element_json(rec_d),
        "exact_roundtrip": True,
        "pretty": {
            "message": cfg.algebra.format_element(msg),
            "mask": cfg.algebra.format_element(mask),
            "masked": cfg.algebra.format_element(masked),
        },
    }
    return report, EXIT_OK


def cmd_search_lcp(cfg: InstanceConfig, args) -> tuple[dict, int]:
    ideals = enumerate_ideals(cfg.algebra, max_size=args.max_ideals)
    index = {C.key: i for i, C in enumerate(ideals)}
    pairs = []
    all_equal = True
    # The only possible complement of C is D = iota(C)^perp, iota: g -> g^-1.
    # If R[G] = C + D with C meet D = 0, then 1 = e + f with e in C, f in D
    # central idempotents.  <x, y> is the coefficient of 1 in x iota(y), so
    # x in D^perp <=> x iota(D) = 0 <=> x in R[G] iota(e) = iota(C); double
    # duality then gives D = iota(C)^perp, so one lcp_check per ideal decides,
    # and D^perp = iota(C) whether or not the pair is LCP.
    for i, C in enumerate(ideals):
        iC = code_involute(C)
        D = code_dual(iC)
        if not lcp_check(C, D, max_enum=args.max_enum, fill_security=False).is_lcp:
            continue
        eq = check_dual_equivalence(C, D, max_enum=args.max_enum, _assume_lcp=True, _d_dual=iC)
        if eq.d_c != eq.d_d_dual:
            all_equal = False
        pairs.append(
            {
                "c": i,
                "d": index[D.key],
                "c_cardinality": C.cardinality(),
                "d_cardinality": D.cardinality(),
                "d_c": eq.d_c,
                "d_d_dual": eq.d_d_dual,
                "security_parameter": min(eq.d_c, eq.d_d_dual),
                "equivalence_status": eq.status,
                "permutation": list(eq.permutation) if eq.permutation else None,
            }
        )
    report = {
        "command": "search-lcp",
        "ideal_count": len(ideals),
        "ideals": [
            {"index": i, "cardinality": C.cardinality()} for i, C in enumerate(ideals)
        ],
        "lcp_pairs": pairs,
        "lcp_pair_count": len(pairs),
        "distance_equality_all_pairs": all_equal,
    }
    return report, EXIT_OK


def cmd_crt(cfg: InstanceConfig, args) -> tuple[dict, int]:
    C = _get_code(cfg, args.name)
    parts = C.crt_project()
    recombined = code_crt_combine(parts, algebra=cfg.algebra)
    report = {
        "command": "crt",
        "name": args.name,
        "cardinality": C.cardinality(),
        "components": [
            {
                "index": j,
                "ring": repr(cfg.ring.components[j]),
                "cardinality": part.cardinality(),
                "pivot": pivot_json(part.components[0]),
            }
            for j, part in enumerate(parts)
        ],
        "recombine_identity": recombined == C,
    }
    if not report["recombine_identity"]:
        raise AssertionError("combine after project failed to reproduce the code")
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# rendering


def _render_pivot(P, indent="  "):
    lines = [
        f"{indent}pivot cols {list(P['pivot_cols'])}, gamma-valuations {list(P['pivot_vals'])}"
    ]
    for row in P["rows"]:
        cells = []
        for x in row:
            cells.append(str(x[0]) if len(x) == 1 else str(tuple(x)))
        lines.append(f"{indent}[ " + "  ".join(cells) + " ]")
    if not P["rows"]:
        lines.append(f"{indent}(zero span)")
    return lines


def render_report(report: dict, cfg: InstanceConfig) -> str:
    cmd = report["command"]
    lines = []
    if cmd == "info":
        r = report["ring"]
        lines.append(f"ring: {cfg.ring!r}  (s = {r['s']}, |R| = {r['size']})")
        for k, c in enumerate(r["components"]):
            lines.append(
                f"  component {k}: p={c['p']} e={c['e']} r={c['r']} size={c['size']}"
            )
        lines.append(
            f"group: order {report['group']['order']}"
            + (" (abelian)" if report["group"]["abelian"] else " (non-abelian)")
        )
        lines.append(f"|R[G]| = {report['algebra_size']}")
        lines.append("codes: " + (", ".join(report["codes"]) or "(none)"))
    elif cmd in ("code", "dual"):
        what = "code" if cmd == "code" else "dual of"
        lines.append(f"{what} {report['name']}: cardinality {report['cardinality']}")
        lines.append(
            "component cardinalities: "
            + " * ".join(str(c) for c in report["component_cardinalities"])
        )
        for j, P in enumerate(report["components"]):
            lines.append(f"component {j} pivot form:")
            lines.extend(_render_pivot(P))
        if cmd == "code":
            lines.append(f"two-sided ideal: {report['two_sided']}")
    elif cmd == "mindist":
        lines.append(
            f"code {report['name']}: cardinality {report['cardinality']}, "
            f"min distance {report['min_distance']}"
            + ("  [zero code: distance is n+1 by convention]" if report["zero_code"] else "")
        )
        lines.append(f"weight enumerator: {report['weight_enumerator']}")
    elif cmd == "lcp":
        lines.append(
            f"({report['c']}, {report['d']}): "
            + ("LCP" if report["is_lcp"] else "not an LCP")
        )
        lines.append(
            f"intersection size {report['intersection_size']}, sum full: {report['sum_is_full']}"
        )
        lines.append(
            "component verdicts: "
            + ", ".join(str(v) for v in report["component_verdicts"])
        )
        if report["is_lcp"]:
            lines.append(
                f"d(C) = {report['d_c']}, d(D-dual) = {report['d_d_dual']}, "
                f"security parameter = {report['security_parameter']}"
            )
            eq = report["equivalence"]
            lines.append(f"equivalence: {eq['status']}  permutation {eq['permutation']}")
            lines.append(f"  {eq['block_note']}")
    elif cmd == "dsm":
        p = report["pretty"]
        lines.append(f"message (in {report['c']}): {p['message']}")
        lines.append(f"mask (from {report['d']}, seed {report['seed']}): {p['mask']}")
        lines.append(f"masked word: {p['masked']}")
        lines.append("recovery: exact")
    elif cmd == "search-lcp":
        lines.append(f"ideals: {report['ideal_count']}")
        for item in report["ideals"]:
            lines.append(f"  I{item['index']}: cardinality {item['cardinality']}")
        lines.append(f"LCP pairs: {report['lcp_pair_count']}")
        for pair in report["lcp_pairs"]:
            lines.append(
                f"  (I{pair['c']}, I{pair['d']}): d(C)={pair['d_c']} "
                f"d(D-dual)={pair['d_d_dual']} d_LCP={pair['security_parameter']} "
                f"equivalence={pair['equivalence_status']} P={pair['permutation']}"
            )
        lines.append(
            "distance equality d(C) = d(D-dual) held for all pairs: "
            + str(report["distance_equality_all_pairs"])
        )
    elif cmd == "crt":
        lines.append(f"code {report['name']}: cardinality {report['cardinality']}")
        for comp in report["components"]:
            lines.append(
                f"component {comp['index']} over {comp['ring']}: cardinality {comp['cardinality']}"
            )
            lines.extend(_render_pivot(comp["pivot"]))
        lines.append(f"combine(project(C)) == C: {report['recombine_identity']}")
    else:  # pragma: no cover
        lines.append(json.dumps(report, sort_keys=True))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    def add_common(p, suppress):
        d = argparse.SUPPRESS if suppress else None
        p.add_argument("--config", default=d, help="path to the JSON instance config")
        p.add_argument("--json", action="store_true", default=(argparse.SUPPRESS if suppress else False), help="emit a JSON report")
        p.add_argument("--seed", type=int, default=d, help="override the config seed")
        p.add_argument(
            "--max-enum", type=int, default=(argparse.SUPPRESS if suppress else DEFAULT_ENUM_CAP),
            help="codeword enumeration cap",
        )
        p.add_argument(
            "--max-ideals", type=int, default=(argparse.SUPPRESS if suppress else DEFAULT_IDEAL_CAP),
            help="|R[G]| cap for ideal enumeration",
        )

    parser = argparse.ArgumentParser(
        prog="lcpcodes",
        description="Group codes over finite principal ideal rings: CRT decomposition, "
        "LCP checking, distances and direct-sum-masking demos.",
    )
    add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def mk(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        add_common(p, suppress=True)
        # by name: the parser outlives a call, and the command that runs is
        # whatever the module binds to that name at the time
        p.set_defaults(fn=fn.__name__)
        return p

    mk("info", cmd_info, "ring decomposition, group order, |R[G]|")
    p = mk("code", cmd_code, "cardinality and pivot forms of a named code")
    p.add_argument("name")
    p = mk("dual", cmd_dual, "the dual code")
    p.add_argument("name")
    p = mk("mindist", cmd_mindist, "minimum distance and weight enumerator")
    p.add_argument("name")
    p = mk("lcp", cmd_lcp, "linear-complementary-pair check plus dual-distance report")
    p.add_argument("name_c")
    p.add_argument("name_d")
    p = mk("dsm", cmd_dsm, "mask a message with a random codeword and recover it")
    p.add_argument("name_c")
    p.add_argument("name_d")
    p.add_argument("message", help="element literal, e.g. '[[0,1],[1,1]]'")
    mk("search-lcp", cmd_search_lcp, "enumerate all ideals and list every LCP pair")
    p = mk("crt", cmd_crt, "component codes and the combine/project identity")
    p.add_argument("name")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.config is None:
            raise ValidationError("--config is required")
        cfg = load_config(args.config)
        if args.seed is None:
            args.seed = cfg.seed
        report, code = globals()[args.fn](cfg, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(render_report(report, cfg))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
