"""Command-line interface: ingest group definitions, run the decision
procedures and verification suites, emit deterministic reports.  Every
query pays for the modules it imports and the groups it builds, so
`verify` is imported by `selftest`, `maltsev` by the odd-order `iso` path
and `ingest` by `semidirect(...)` and `oracle { ... }` definitions, when
they run; a built-in group is built when a query names it, and group files
are read by a small list reader, not by `ast`.

Exit status: 0 all pass / verdict yes, 1 verdict no (not an error for
iso and q-split queries), 2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import abelian as ab
from . import classify, nil2
from .errors import AlgebraError, InternalInvariant, Unsupported

SUITE_ORDER = ["lemmas", "coproduct", "qmaps", "enum", "classify", "linext",
               "maltsev", "negative"]


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# Group file parsing.

_GROUP_RE = re.compile(r"group\s+(\w+)\s*(\{|=)")


def parse_definitions(text: str, defs: dict, max_order: int) -> dict:
    """Parse `group NAME { ... }` and `group NAME = builder(...)` blocks.

    Builder arguments may reference names from `defs` (extended in place)
    or defined earlier in the same text.  Duplicate names are rejected;
    `max_order` guards `semidirect` as in `build_expression`.
    """
    pos = 0
    while True:
        m = _GROUP_RE.search(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if rest and not rest.startswith("#"):
                raise InputError(f"unparsed trailing input: {rest[:40]!r}")
            break
        lead = text[pos:m.start()].strip()
        if lead and not all(ln.strip().startswith("#") or not ln.strip()
                            for ln in lead.splitlines()):
            raise InputError(f"unparsed input before definition: {lead[:40]!r}")
        name = m.group(1)
        if name in defs:
            raise InputError(f"duplicate group name {name!r}")
        if m.group(2) == "{":
            close = text.find("}", m.end())
            if close < 0:
                raise InputError(f"missing closing brace for group {name!r}")
            defs[name] = _build_from_block(text[m.end():close])
            pos = close + 1
        else:
            brace = re.match(r"\s*(\w+)\s*\(", text[m.end():])
            word = re.match(r"\s*(\w+)\s*\{", text[m.end():])
            if word and word.group(1) == "oracle":
                start = m.end() + word.end()
                close = text.find("}", start)
                if close < 0:
                    raise InputError(f"missing closing brace for oracle {name!r}")
                from .ingest import GroupOracle, canonicalize_finite
                oracle = GroupOracle.from_text(text[start:close])
                defs[name] = canonicalize_finite(oracle).group
                pos = close + 1
            elif brace:
                close = text.find(")", m.end())
                if close < 0:
                    raise InputError(f"missing closing parenthesis for {name!r}")
                expr = text[m.end():close + 1].strip()
                defs[name] = build_expression(expr, defs, max_order)
                pos = close + 1
            else:
                raise InputError(f"malformed definition of group {name!r}")
    return defs


# Python's list syntax restricted to decimal integers: brackets, commas with
# one optional trailing comma, and whitespace between tokens; an item is
# `-?[0-9]+` with leading zeros only in zero, and a minus may stand apart
# from its digits.  The patterns are compiled on first use, by `re`'s cache.
_WS = r"[ \t\n\r\f]*"


def _seq(item: str) -> str:
    return rf"\[{_WS}(?:{item}{_WS}(?:,{_WS}{item}{_WS})*(?:,{_WS})?)?\]"


_LIST = _seq(rf"(?:-{_WS})?(?:0+|[1-9][0-9]*)")
_NESTED = _seq(_LIST)
_ITEM = rf"(-?){_WS}([0-9]+)"


def _parse_int_list(value: str, nested=False):
    """A list of integers, or with `nested` a list of integer lists: what
    `ast.literal_eval` reads from such a list written in decimal."""
    text = value.strip()
    if not re.fullmatch(_NESTED if nested else _LIST, text):
        kind = "a list of integer lists" if nested else "a list of integers"
        raise InputError(f"expected {kind}, got {text!r}")
    rows = re.findall(_LIST, text[1:-1]) if nested else [text]
    parsed = [[_int(sign + digits) for sign, digits in re.findall(_ITEM, row)]
              for row in rows]
    return parsed if nested else parsed[0]


def _int(token: str) -> int:
    """int(token) for a token of ASCII digits, which the caller has matched."""
    try:
        return int(token)
    except ValueError:      # more digits than the interpreter converts
        raise InputError(f"integer {token[:20]}... has too many digits") from None


_INT_RE = re.compile(r"-?[0-9]+")
_BIL_RE = re.compile(r"bil\[([0-9]+)\]\[([0-9]+)\]$")
_FIELDS = ("abelianization", "commutator", "carry")


def _build_from_block(body: str) -> nil2.Nil2Group:
    fields = {}             # a field name, or (i, j) for bil[i][j] -> its value
    for raw in body.split(";"):
        stmt = raw.strip()
        if not stmt or stmt.startswith("#"):
            continue
        key, eq, value = stmt.partition("=")
        if not eq:
            raise InputError(f"malformed statement {stmt!r}")
        key = key.strip()
        m = _BIL_RE.match(key)
        if m:
            key = tuple(map(_int, m.groups()))
        elif key not in _FIELDS:
            raise InputError(f"unknown field {key!r}")
        if key in fields:
            item = f"bil[{key[0]}][{key[1]}]" if m else key
            raise InputError(f"{item} is defined twice")
        fields[key] = _parse_int_list(value, nested=key == "carry")
    orders = fields.get("abelianization")
    if orders is None:
        raise InputError("missing `abelianization = [...]`")
    a = ab.FGAbelian(orders)
    b = ab.FGAbelian(fields.get("commutator", []))
    r = a.rank
    z = b.zero()
    bil = [[z] * r for _ in range(r)]
    for key, coords in fields.items():
        if key in _FIELDS:
            continue
        i, j = key
        if not (1 <= i <= r and 1 <= j <= r):
            raise InputError(f"bil[{i}][{j}] out of range for rank {r}")
        bil[i - 1][j - 1] = b.element(coords)
    carries = [z] * r
    carry = fields.get("carry")
    if carry is not None:
        if len(carry) != r:
            raise InputError(f"carry must list {r} vectors")
        carries = [b.element(c) for c in carry]
    return nil2.make(a, b, bil, carries)


_BUILDER_RE = re.compile(r"(\w+)\s*\(([^()]*)\)$")


def build_expression(expr: str, defs: dict, max_order: int) -> nil2.Nil2Group:
    """A builder expression: semidirect(n,m,k), free(n), product(X,Y),
    coproduct(X,Y); arguments are integers or previously defined names.
    A semidirect product of order above `max_order` squared is rejected
    before its table is built."""
    m = _BUILDER_RE.match(expr.strip())
    if not m:
        raise InputError(f"malformed builder expression {expr!r}")
    op = m.group(1)
    args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
    if op == "semidirect":
        if len(args) != 3 or not all(_INT_RE.fullmatch(a) for a in args):
            raise InputError("semidirect takes three integers")
        n, m, k = map(_int, args)
        if n > 0 and m > 0 and n * m > max_order ** 2:
            raise InputError(f"semidirect({n},{m},{k}) has order {n * m}, above "
                             f"{max_order ** 2} (--max-order {max_order} squared); "
                             f"raise the guard")
        from .ingest import canonicalize_finite, semidirect
        return canonicalize_finite(semidirect(n, m, k)).group
    if op == "free":
        if len(args) != 1 or not (args[0].isascii() and args[0].isdigit()):
            raise InputError("free takes one nonnegative integer")
        return nil2.free(_int(args[0]))
    if op in ("product", "coproduct"):
        if len(args) != 2:
            raise InputError(f"{op} takes two group names")
        parts = []
        for a in args:
            if a not in defs:
                raise InputError(f"unknown group name {a!r}")
            parts.append(defs[a])
        return (nil2.product if op == "product" else nil2.coproduct)(*parts)
    raise InputError(f"unknown builder {op!r}")


def resolve(token: str, defs: dict, max_order: int) -> nil2.Nil2Group:
    if token in defs:
        return defs[token]
    if "(" in token:
        return build_expression(token, defs, max_order)
    raise InputError(f"unknown group {token!r}")


# ---------------------------------------------------------------------------
# Commands.

def _fmt_invariants(group: ab.FGAbelian) -> str:
    inv = group.invariant_factors()
    return "[" + ", ".join(str(d) for d in inv) + "]"


def cmd_info(args, defs, out) -> int:
    g = resolve(args.name, defs, args.max_order)
    out.write(f"group {args.name}\n")
    out.write(f"order: {g.order() if g.is_finite() else 'infinite'}\n")
    out.write(f"abelianization: {_fmt_invariants(g.A)}\n")
    out.write(f"commutator: {_fmt_invariants(g.B)}\n")
    if g.is_finite():
        out.write(f"exponent: {g.exponent()}\n")
        out.write(f"center: order {nil2.center(g).order()}\n")
    else:
        c = nil2.center(g)
        out.write(f"center: kernel {_fmt_invariants(c.a_kernel)} over "
                  f"commutator {_fmt_invariants(g.B)}\n")
    if g.is_finite() and g.order() > args.max_order:
        out.write(f"q-split: skipped (order {g.order()} exceeds "
                  f"--max-order {args.max_order})\n")
    else:
        try:
            res = classify.is_qsplit(g)
            verdict = "yes" if res.verdict else "no"
            out.write(f"q-split: {verdict} ({res.mode})\n")
        except Unsupported:
            out.write("q-split: unknown (infinite, no structural guarantee)\n")
    return 0


def _dump_qmap(q, label, out):
    out.write(f"{label} fab = {[list(r) for r in q.fab.matrix]}\n")
    out.write(f"{label} fcomm = {[list(r) for r in q.fcomm.matrix]}\n")
    out.write(f"{label} gamma = {[list(g.coords) for g in q.gamma]}\n")
    for i, row in enumerate(q.delta):
        for j, e in enumerate(row):
            if not e.is_zero():
                out.write(f"{label} delta[{i+1}][{j+1}] = {list(e.coords)}\n")


def cmd_iso(args, defs, out) -> int:
    g = resolve(args.g, defs, args.max_order)
    h = resolve(args.h, defs, args.max_order)
    if not (g.is_finite() and h.is_finite()):
        raise InputError("isomorphism decisions need finite groups")
    if args.category == "nil":
        if max(g.order(), h.order()) > args.max_order:
            raise InputError(
                f"order exceeds --max-order {args.max_order}; raise the guard")
        witness = classify.find_group_iso_witness(g, h)
        verdict, paths = witness is not None, {}
    else:
        dec = classify.niq_iso_decide(g, h, search_guard=args.max_order)
        witness, verdict, paths = dec.witness, dec.verdict, dec.paths
    out.write(f"iso {args.g} {args.h} category={args.category}: "
              f"{'YES' if verdict else 'NO'}\n")
    for name in sorted(paths):
        out.write(f"path {name}: {'yes' if paths[name] else 'no'}\n")
    if args.witness and witness is not None:
        q, qinv = witness
        _dump_qmap(q, "witness", out)
        _dump_qmap(qinv, "inverse", out)
    elif args.witness and verdict:
        # another path decided YES and the guard skipped the search
        out.write(f"witness: skipped (order {max(g.order(), h.order())} "
                  f"exceeds --max-order {args.max_order})\n")
    return 0 if verdict else 1


def cmd_selftest(args, out) -> int:
    from . import verify
    tags = SUITE_ORDER if args.suite == "all" else [args.suite]
    results = verify.run_suites(tags, max_order=args.max_order)
    for r in results:
        out.write(r.line() + "\n")
    failed = sum(1 for r in results if not r.ok)
    out.write(f"selftest: {len(results) - failed}/{len(results)} checks passed\n")
    return 0 if failed == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nil2q",
        description="class-two nilpotent groups: cocycle data, q-maps, "
                    "classification")
    p.add_argument("--file", help="group definition file")
    p.add_argument("--max-order", type=int, default=64,
                   help="guard on search spaces (default 64)")
    sub = p.add_subparsers(dest="command", required=True)
    pi = sub.add_parser("info", help="report order, invariants and q-splitness")
    pi.add_argument("name", help="group name or builder expression")
    po = sub.add_parser("iso", help="decide isomorphism")
    po.add_argument("g")
    po.add_argument("h")
    po.add_argument("--category", choices=["nil", "niq"], default="niq")
    po.add_argument("--witness", action="store_true",
                    help="print the q-map witness when found")
    ps = sub.add_parser("selftest", help="run the verification suites")
    ps.add_argument("--suite", default="all",
                    choices=SUITE_ORDER + ["all"])
    return p


# The built-in groups: the body of each `group NAME { ... }` block.
BUILTIN_DEFS = {
    "Z2": "abelianization = [2];",
    "Z4": "abelianization = [4];",
    "V4": "abelianization = [2,2];",
    "Q8": "abelianization = [2,2]; commutator = [2]; carry = [[1],[1]]; bil[1][2] = [1];",
    "D4": "abelianization = [2,2]; commutator = [2]; carry = [[1],[0]]; bil[1][2] = [1];",
    "Heis3": "abelianization = [3,3]; commutator = [3]; bil[1][2] = [1];",
    "Heis5": "abelianization = [5,5]; commutator = [5]; bil[1][2] = [1];",
}


class _Definitions(dict):
    """Groups by name.  The built-in names are defined from the start, so a
    group file cannot reuse them, but each built-in group is built only
    when a query looks it up."""

    def __contains__(self, name):
        return name in BUILTIN_DEFS or super().__contains__(name)

    def __missing__(self, name):
        self[name] = group = _build_from_block(BUILTIN_DEFS[name])
        return group


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_order < 1:
            raise InputError(f"--max-order must be a positive integer, not {args.max_order}")
        defs = _Definitions()
        if args.file:
            try:
                with open(args.file, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise InputError(f"cannot read {args.file!r}: {exc}")
            parse_definitions(text, defs, args.max_order)
        if args.command == "info":
            return cmd_info(args, defs, out)
        if args.command == "iso":
            return cmd_iso(args, defs, out)
        return cmd_selftest(args, out)
    except InternalInvariant as exc:
        out.write(f"internal error: {exc}\n")
        return 3
    except (InputError, AlgebraError) as exc:
        out.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
