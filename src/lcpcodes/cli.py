"""Command-line front end.

Reads a JSON instance description (ring, group, named codes), runs the
requested computation and prints a human-readable or ``--json`` report.
Exit codes: 0 success (and "is LCP" for ``lcp``), 1 "not LCP", 2 validation
problem, 3 resource cap exceeded, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from dataclasses import dataclass, field

from .algebra import GroupAlgebra, from_component_rows
from .codes import (
    DEFAULT_IDEAL_CAP,
    DsmSplitter,
    GroupCode,
    code_crt_combine,
    code_dual,
    enumerate_ideals,
    lcp_check,
    min_distance,
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
EXIT_INTERNAL = 4


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
        """Uniform in [0, n).  A draw reads k = ceil(bitlen(n - 1) / 64)
        words, the first most significant, as a value v below 2^(64 k), and
        is redrawn while v is at or above the largest multiple of n there;
        it gives v mod n.  For n <= 2^64 that is the first word mod n, unless
        it is redrawn (probability below n / 2^64)."""
        k = (max(n - 1, 1).bit_length() + 63) // 64
        limit = (1 << 64 * k) // n * n
        while True:
            v = 0
            for _ in range(k):
                v = v << 64 | self.next_u64()
            if v < limit:
                return v % n


# ---------------------------------------------------------------------------
# config parsing


@dataclass
class InstanceConfig:
    algebra: GroupAlgebra
    generators: dict  # code name -> its parsed, canonical generators
    seed: int
    codes: dict = field(default_factory=dict)  # code name -> GroupCode, closed on first use


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
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise ValidationError(f"config {path} is nested too deeply") from exc
    if not isinstance(doc, dict) or "ring" not in doc or "group" not in doc:
        raise ValidationError("config must be an object with 'ring' and 'group'")
    base_dir = os.path.dirname(os.path.abspath(path))
    algebra = GroupAlgebra(parse_ring(doc["ring"]), parse_group(doc["group"], base_dir))
    codes_doc = doc.get("codes", {})
    if not isinstance(codes_doc, dict):
        raise ValidationError(f"'codes' must map code names to generator lists, got {codes_doc!r}")
    generators = {}
    for name, gens in codes_doc.items():
        if not isinstance(gens, list):
            raise ValidationError(f"code {name!r} must map to a list of generators")
        generators[name] = tuple(parse_element(algebra, g) for g in gens)
    seed = _check_seed(doc.get("seed", 0))
    return InstanceConfig(algebra=algebra, generators=generators, seed=seed)


def _check_seed(seed):
    """A seed the 64-bit ``Lcg`` takes as it is, not reduced mod 2^64."""
    if not _is_int(seed) or not 0 <= seed <= Lcg.MASK:
        raise ValidationError(f"seed {seed!r} must be an integer in [0, 2^64)")
    return seed


def _get_code(cfg: InstanceConfig, name: str) -> GroupCode:
    """The named code, closed the first time a command asks for it; its
    generators were parsed and checked with the config."""
    if name not in cfg.generators:
        known = ", ".join(sorted(cfg.generators)) or "(none)"
        raise ValidationError(f"unknown code {name!r}; config defines: {known}")
    if name not in cfg.codes:
        gens = cfg.generators[name]
        cfg.codes[name] = GroupCode.from_generators(cfg.algebra, gens, _canonical=True)
    return cfg.codes[name]


# ---------------------------------------------------------------------------
# JSON shapes


def pivot_json(P):
    """The form's own tuples, which encode as JSON arrays: no copy per entry."""
    return {"pivot_cols": P.pivot_cols, "pivot_vals": P.pivot_vals, "rows": P.rows}


def code_json(C: GroupCode):
    return {
        "cardinality": C.cardinality(),
        "component_cardinalities": [P.cardinality() for P in C.components],
        "components": [pivot_json(P) for P in C.components],
    }


# ---------------------------------------------------------------------------
# commands: each returns (report dict, exit code)


def cmd_info(cfg: InstanceConfig, args) -> tuple[dict, int]:
    ring, group = cfg.algebra.ring, cfg.algebra.group
    report = {
        "command": "info",
        "ring": {
            "size": ring.size,
            "s": ring.s,
            "components": [c.describe() for c in ring.components],
        },
        "group": {"order": group.n, "abelian": group.is_abelian()},
        "algebra_size": cfg.algebra.size,
        "codes": sorted(cfg.generators),
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
    dual = code_dual(C) if C.dual_is_smaller() else None  # walked in C's place
    d = min_distance(C, args.max_enum, dual)
    report = {
        "command": "mindist",
        "name": args.name,
        "cardinality": C.cardinality(),
        "min_distance": d,
        "weight_enumerator": list(weight_enumerator(C, args.max_enum, dual)),
        "zero_code": C.is_zero,
    }
    return report, EXIT_OK


def cmd_lcp(cfg: InstanceConfig, args) -> tuple[dict, int]:
    C = _get_code(cfg, args.name_c)
    D = _get_code(cfg, args.name_d)
    rep = lcp_check(C, D)
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
    # the check raises unless D^perp = iota(C), so d(C) = d(D^perp) is the security parameter
    eq = check_dual_equivalence(C, D, max_enum=args.max_enum, _assume_lcp=True)
    report["security_parameter"] = eq.d_c
    report["d_c"] = eq.d_c
    report["d_d_dual"] = eq.d_d_dual
    report["equivalence"] = {
        "status": eq.status,
        "permutation": list(eq.permutation),
        "block_note": eq.block_note,
    }
    return report, EXIT_OK


def _sample_mask(D: GroupCode, rng: Lcg):
    """Deterministic uniform mask: one draw per pivot row.

    Components are visited in ring order and rows top to bottom.  A row
    with pivot gamma^t takes a coefficient c = sum_k c_k x^k, every c_k in
    [0, p^(e-t)): the draw is an index below q^(e-t), whose base-p^(e-t)
    digits are c_0 (most significant) to c_(r-1), the order in which
    codeword enumeration walks the coefficients.  No list of coefficients
    is built.
    """
    n = D.algebra.group.n
    parts = []
    for P in D.components:
        cr = P.ring
        acc = [cr.zero] * n
        for row, t in zip(P.rows, P.pivot_vals):
            base = cr.p ** (cr.e - t)
            index = rng.randrange(base**cr.r)
            c = tuple(index // base**k % base for k in reversed(range(cr.r)))
            if c != cr.zero:
                for i in range(n):
                    acc[i] = cr.add(acc[i], cr.mul(c, row[i]))
        parts.append(acc)
    return from_component_rows(parts)


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
        # the elements' own tuples, which encode as JSON arrays: no copy per entry
        "message": msg,
        "mask": mask,
        "masked": masked,
        "recovered_message": rec_c,
        "recovered_mask": rec_d,
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
    index = {C.components: i for i, C in enumerate(ideals)}
    pairs = []
    # enumerate_ideals read each complement off the listing, so an ideal with
    # none takes no dual and no sum; check_dual_equivalence checks that D is
    # iota(C)^perp, the only complement of C (the proof is on it), and the
    # pair (D, C) reuses the weights walked here.
    for i, C in enumerate(ideals):
        if C._complement is None:
            continue
        D = ideals[index[C._complement]]
        eq = check_dual_equivalence(C, D, max_enum=args.max_enum, _assume_lcp=True)
        pairs.append(
            {
                "c": i,
                "d": index[D.components],
                "c_cardinality": C.cardinality(),
                "d_cardinality": D.cardinality(),
                "d_c": eq.d_c,
                "d_d_dual": eq.d_d_dual,
                "security_parameter": min(eq.d_c, eq.d_d_dual),
                "equivalence_status": eq.status,
                "permutation": list(eq.permutation),
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
        "distance_equality_all_pairs": all(p["d_c"] == p["d_d_dual"] for p in pairs),
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
                "ring": repr(cfg.algebra.ring.components[j]),
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


def _render_pivot(P):
    lines = [f"  pivot cols {list(P['pivot_cols'])}, gamma-valuations {list(P['pivot_vals'])}"]
    for row in P["rows"]:
        cells = []
        for x in row:
            cells.append(str(x[0]) if len(x) == 1 else str(x))
        lines.append("  [ " + "  ".join(cells) + " ]")
    if not P["rows"]:
        lines.append("  (zero span)")
    return lines


def render_report(report: dict, cfg: InstanceConfig) -> str:
    cmd = report["command"]
    lines = []
    if cmd == "info":
        r = report["ring"]
        lines.append(f"ring: {cfg.algebra.ring!r}  (s = {r['s']}, |R| = {r['size']})")
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
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """A usage error (unknown flag or subcommand, bad or missing argument)
    exits 2 with one line, as every other malformed input does; subparsers
    take this class too."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    def add_common(p, suppress):
        d = argparse.SUPPRESS if suppress else None
        p.add_argument("--config", default=d, help="path to the JSON instance config")
        p.add_argument("--json", action="store_true", default=(argparse.SUPPRESS if suppress else False), help="emit a JSON report")
        p.add_argument("--seed", type=int, default=d, help="override the config seed")
        p.add_argument(
            "--max-enum", type=int, default=(argparse.SUPPRESS if suppress else DEFAULT_ENUM_CAP),
            help="codeword enumeration cap, on the side walked: C, or C^perp or D where smaller",
        )
        p.add_argument(
            "--max-ideals", type=int, default=(argparse.SUPPRESS if suppress else DEFAULT_IDEAL_CAP),
            help="|R[G]| cap for ideal enumeration",
        )

    parser = _Parser(
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
    """The parser, built once per process; parsing leaves it unchanged.

    Each ``add_argument`` leaves a reference cycle behind (an argparse help
    formatter and its root section).  ``main`` builds the parser with the
    collector paused, so one young-generation pass frees those cycles here
    instead of keeping them to the end of the command."""
    parser = build_parser()
    gc.collect(0)
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The cyclic collector is paused for the command, whose passes would find
    nothing to free, and the caller's setting comes back on every way out.
    Reference counting frees the command's data as it goes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.config is None:
            raise ValidationError("--config is required")
        for flag, cap in (("--max-enum", args.max_enum), ("--max-ideals", args.max_ideals)):
            if cap < 0:
                raise ValidationError(f"{flag} {cap} must be non-negative")
        cfg = load_config(args.config)
        args.seed = _check_seed(cfg.seed if args.seed is None else args.seed)
        report, code = globals()[args.fn](cfg, args)
        # reports are trees built here, so the encoder need not look for cycles
        text = (json.dumps(report, sort_keys=True, check_circular=False) if args.json
                else render_report(report, cfg))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:  # a fault of the program, not a verdict: never exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
