"""Command-line interface, text formats, and worked demonstrations.

Poset files are UTF-8 text: ``#`` starts a comment, ``elem a b c``
declares elements, and each ``a < b`` line is one cover relation; the
transitive closure is taken on load. Ordinals are written ``w2``,
``w1+10``, ``w0*2+5`` or plain integers; cardinals ``aleph0`` or plain
integers. A pinboard is ``pin (w2,5) (w1,2) (6,aleph0) (3,1)`` and a
co-pinboard the same with ``copin``.

Exit codes: 0 on success (a negative verdict is still success), 1 for
malformed input text, 2 for semantic errors such as exceeded size guards.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Sequence

from .classify import classify_finite
from .construct import build_g, verify_subrep
from .embed import find_embedding, pattern_poset, PatternKind, all_embeddings
from .errors import ParseError, SubrepError
from .oracle import oracle_subrep, survey
from .ordinal import Card, OrdinalExpr, fin, omega, ord_sum
from .pinboard import (
    Pinboard,
    PinSubset,
    SimplePinboard,
    ThetaSegments,
    normalize_subset,
    pin_embeds,
    pinboard,
    run_positions,
    theta,
    theta_subset,
)
from .poset import Poset, bit_indices, mask_of, names_of, poset_from_cover


# ---------------------------------------------------------------------------
# text formats

_COVER_RE = re.compile(r"(\S+)\s*<\s*(\S+)")
_ORDINAL_RE = re.compile(r"w(\d+)(?:\*(\d+))?|(\d+)")
_CARDINAL_RE = re.compile(r"aleph(\d+)|(\d+)")
_BOARD_RE = re.compile(r"(pin|copin)\b")
_PAIR_RE = re.compile(r"\s*\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)")


def parse_poset_text(text: str) -> Poset:
    elements: list[str] = []
    covers: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elem "):
            elements.extend(line.split()[1:])
            continue
        m = _COVER_RE.fullmatch(line)
        if not m:
            raise ParseError(f"line {lineno}: expected 'elem ...' or 'a < b'")
        covers.append((m.group(1), m.group(2)))
    if not elements:
        raise ParseError("no 'elem' line declares any elements")
    if len(set(elements)) != len(elements):
        raise ParseError("duplicate element identifiers")
    return poset_from_cover(elements, covers)


def load_poset(path: str) -> Poset:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_poset_text(text)


def parse_ordinal(text: str) -> OrdinalExpr:
    total: OrdinalExpr | None = None
    for token in text.strip().split("+"):
        token = token.strip()
        m = _ORDINAL_RE.fullmatch(token)
        if not m:
            raise ParseError(f"bad ordinal token {token!r}")
        try:
            term = fin(int(m[3])) if m[3] else omega(int(m[1]), int(m[2] or 1))
        except ValueError as exc:  # zero multiplicity, or too many digits
            raise ParseError(f"bad ordinal token {token!r}: {exc}") from None
        total = term if total is None else ord_sum(total, term)
    return total


def parse_cardinal(text: str) -> Card:
    text = text.strip()
    m = _CARDINAL_RE.fullmatch(text)
    if not m:
        raise ParseError(f"bad cardinal token {text!r}")
    try:
        return Card.fin(int(m[2])) if m[2] else Card.aleph(int(m[1]))
    except ValueError as exc:  # too many digits
        raise ParseError(f"bad cardinal token {text!r}: {exc}") from None


def parse_pair_list(text: str) -> tuple[list[tuple[OrdinalExpr, Card]], bool]:
    """Parse ``pin (h,f) ...`` or ``copin (h,f) ...`` into raw pairs plus
    the starred flag."""
    text = text.strip()
    m = _BOARD_RE.match(text)
    if not m:
        raise ParseError("pinboard text must start with 'pin' or 'copin'")
    starred = m.group(1) == "copin"
    body = text[m.end():].strip()
    pairs = []
    # Each pair follows the one before after whitespace only; a stretch
    # that no pair starts fails once the pairs before it are parsed.
    consumed = 0
    while pm := _PAIR_RE.match(body, consumed):
        pairs.append((parse_ordinal(pm[1]), parse_cardinal(pm[2])))
        consumed = pm.end()
    if body[consumed:].strip() or not pairs:
        raise ParseError("pinboard pairs must look like (height,freq)")
    return pairs, starred


def parse_pinboard(text: str) -> Pinboard:
    pairs, starred = parse_pair_list(text)
    return pinboard(pairs, starred)


def parse_simple_pinboard(text: str) -> SimplePinboard:
    """A host: exactly one (infinite height, finite count) pair and one
    (finite height, infinite count) pair."""
    pairs, starred = parse_pair_list(text)
    if len(pairs) != 2:
        raise ParseError("a simple pinboard has exactly two pairs")
    tall = [(h, f) for h, f in pairs if not h.is_finite]
    short = [(h, f) for h, f in pairs if h.is_finite]
    if len(tall) != 1 or len(short) != 1:
        raise ParseError(
            "a simple pinboard pairs one infinite height with one finite height"
        )
    (beta_ord, n_card), (m_ord, gamma) = tall[0], short[0]
    if len(beta_ord.terms) != 1 or beta_ord.terms[0][1] != 1 or beta_ord.tail:
        raise ParseError("the tall height must be a single initial ordinal like w2")
    if n_card.is_infinite or gamma.kind != "aleph":
        raise ParseError("tall count must be finite and short count infinite")
    return SimplePinboard(
        Card.aleph(beta_ord.terms[0][0]),
        n_card.value,
        m_ord.as_finite(),
        gamma,
        starred,
    )


def parse_pin_subset(text: str, host: SimplePinboard) -> PinSubset:
    pairs, starred = parse_pair_list(text)
    if starred != host.starred:
        raise ParseError("subset and host must both be 'pin' or both 'copin'")
    return normalize_subset(pairs, host)


def _dot_id(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def poset_to_dot(p: Poset) -> str:
    """Hasse diagram (cover relations only) in DOT text form."""
    ids = [_dot_id(name) for name in p.elements]
    lines = ["digraph poset {", "  rankdir=BT;"]
    lines += [f"  {ident};" for ident in ids]
    for i in range(p.n):
        for j in bit_indices(p.lt[i]):
            if not (p.lt[i] & p.gt[j]):
                lines.append(f"  {ids[i]} -> {ids[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_classify(args: argparse.Namespace) -> int:
    p = load_poset(args.file)
    if args.dot:
        sys.stdout.write(poset_to_dot(p))
        return 0
    _emit(classify_finite(p).as_dict())
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    p1 = load_poset(args.file1)
    p2 = load_poset(args.file2)
    mapping = find_embedding(p1, p2)
    _emit({"embeds": mapping is not None, "map": mapping})
    return 0


def _g_rows(g) -> list[list[list[str]]]:
    return [[list(sub), list(img)] for sub, img in g.rows()]


def _cmd_subrep(args: argparse.Namespace) -> int:
    p = load_poset(args.file)
    verdict = classify_finite(p)
    if not verdict.sub_representable:
        _emit(verdict.as_dict() | {"g": None})
        return 0
    g = build_g(p)
    _emit(verdict.as_dict() | {"g": _g_rows(g)})
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    p = load_poset(args.file)
    witness = oracle_subrep(p)
    payload = {"subRepresentable": witness is not None}
    payload["g"] = None if witness is None else _g_rows(witness)
    _emit(payload)
    return 0


def _survey_payload(n: int) -> dict:
    rows = survey(n)
    return {
        "n": n,
        "classes": len(rows),
        "subRepresentable": sum(r.verdict.sub_representable for r in rows),
        "notSubRepresentable": sum(not r.verdict.sub_representable for r in rows),
        "disagreements": sum(not r.agree for r in rows),
        "rows": [
            {
                "code": r.code.hex(),
                "kind": r.verdict.kind.value,
                "classifier": r.verdict.sub_representable,
                "oracle": r.oracle_positive,
                "agree": r.agree,
            }
            for r in rows
        ],
    }


def _cmd_survey(args: argparse.Namespace) -> int:
    payload = _survey_payload(args.n)
    if args.json:
        _emit(payload)
        return 0
    print(f"posets on {args.n} elements: {payload['classes']} classes, "
          f"{payload['subRepresentable']} sub-representable, "
          f"{payload['notSubRepresentable']} not, "
          f"{payload['disagreements']} disagreements")
    print(f"{'code':<{2 + 2 * (1 + args.n)}}  {'kind':<22}{'classifier':<12}"
          f"{'oracle':<8}agree")
    for row in payload["rows"]:
        print(f"{row['code']:<{2 + 2 * (1 + args.n)}}  {row['kind']:<22}"
              f"{str(row['classifier']):<12}{str(row['oracle']):<8}{row['agree']}")
    return 0


def _format_runs(segs: ThetaSegments) -> list[str]:
    star = "*" if segs.host.starred else ""
    lines = []
    for start, end, count, height in run_positions(segs):
        cols = "column" if (not count.is_infinite and count.value == 1) else "columns"
        lines.append(f"  [{start}, {end})  height {height}{star}  ({count} {cols})")
    lines.append("  elsewhere  height 0")
    return lines


def _cmd_pinboard(args: argparse.Namespace) -> int:
    host = parse_simple_pinboard(args.spec)
    if args.action == "theta":
        y = parse_pin_subset(args.subsets[0], host)
        for line in _format_runs(theta(host, y)):
            print(line)
        return 0
    y1 = parse_pin_subset(args.subsets[0], host)
    y2 = parse_pin_subset(args.subsets[1], host)
    _emit(
        {
            "embeds": pin_embeds(y1, y2),
            "thetaSubset": theta_subset(theta(host, y1), theta(host, y2)),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# demos


FIG1_TEXT = """\
elem 1 2 3 4
1 < 2
2 < 3
2 < 4
"""

FIG3_TEXT = """\
elem 1 2 3 4
1 < 2
2 < 3
4 < 3
"""


def demo_fig1() -> None:
    p = parse_poset_text(FIG1_TEXT)
    g = build_g(p)
    print("witnessing map for the four-point flower (1 < 2, 2 < 3, 2 < 4):")
    for sub, img in g.rows():
        print(f"  {{{','.join(sub)}}} -> {{{','.join(img)}}}")
    print(f"violations: {len(verify_subrep(p, g))}")


def demo_fig3() -> None:
    p = parse_poset_text(FIG3_TEXT)
    print("poset: 1 < 2, 2 < 3, 4 < 3")
    wedge_images = sorted(
        {tuple(sorted(m.values())) for m in all_embeddings(pattern_poset(PatternKind.WEDGE), p)}
    )
    print("wedge embeds at: " + "; ".join("{" + ",".join(img) + "}" for img in wedge_images))
    two_chains = sorted(
        {
            tuple(sorted((a, b)))
            for img in wedge_images
            for a in img
            for b in img
            if p.less(p.index(a), p.index(b))
        }
    )
    print(
        "two-point chains inside those images: "
        + "; ".join("{" + ",".join(c) + "}" for c in two_chains)
    )
    for a, b in two_chains:
        ia, ib = p.index(a), p.index(b)
        loose = [
            e
            for k, e in enumerate(p.elements)
            if k not in (ia, ib)
            and not (p.comparable_mask(k) >> ia) & 1
            and not (p.comparable_mask(k) >> ib) & 1
        ]
        print(f"points incomparable to {{{a},{b}}}: {','.join(loose) or 'none'}")
    chain_plus_point = names_of(p, mask_of(p, ["1", "2", "4"]))
    print(
        f"{{{','.join(chain_plus_point)}}} is a two-point chain plus an "
        "incomparable point, so it has no candidate image"
    )
    print(json.dumps(classify_finite(p).as_dict(), indent=2))
    print(f"oracle: {'found a map' if oracle_subrep(p) else 'exhausted, no map exists'}")


SECTION2_HOST = "pin (w2,12) (7,aleph3)"
SECTION2_Y = "pin (w1+1,1) (w1,1) (w0+5,2) (w0,1) (30,2) (20,1) (5,aleph0) (3,aleph0)"
SECTION2_Y2 = "pin (w2,2) (w1+10,1) (w1,1) (w0,1) (60,1) (40,1) (30,1) (20,1) (6,aleph1)"


def demo_section2() -> None:
    host = parse_simple_pinboard(SECTION2_HOST)
    y = parse_pin_subset(SECTION2_Y, host)
    y2 = parse_pin_subset(SECTION2_Y2, host)
    ty, ty2 = theta(host, y), theta(host, y2)
    print(f"host: {SECTION2_HOST}")
    print("theta(Y):")
    for line in _format_runs(ty):
        print(line)
    print("theta(Y'):")
    for line in _format_runs(ty2):
        print(line)
    print(f"subset: {str(theta_subset(ty, ty2)).lower()}")
    print(f"reverse: {str(theta_subset(ty2, ty)).lower()}")
    print(f"embeds: {str(pin_embeds(y, y2)).lower()}")


def _cmd_demo(args: argparse.Namespace) -> int:
    {"fig1": demo_fig1, "fig3": demo_fig3, "section2": demo_section2}[args.name]()
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subrep",
        description="Decide sub-representability of posets and reproduce "
        "the worked constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a poset file")
    c.add_argument("file")
    c.add_argument("--dot", action="store_true", help="emit DOT text instead")
    c.set_defaults(func=_cmd_classify)

    e = sub.add_parser("embed", help="search for an embedding of FILE1 into FILE2")
    e.add_argument("file1")
    e.add_argument("file2")
    e.set_defaults(func=_cmd_embed)

    s = sub.add_parser("subrep", help="construct the witnessing map of a poset file")
    s.add_argument("file")
    s.set_defaults(func=_cmd_subrep)

    o = sub.add_parser("oracle", help="decide by exhaustive search")
    o.add_argument("file")
    o.set_defaults(func=_cmd_oracle)

    v = sub.add_parser("survey", help="compare classifier and oracle on all classes")
    v.add_argument("n", type=int)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_survey)

    pb = sub.add_parser("pinboard", help="theta tables and embeddability checks")
    pb.add_argument("action", choices=["theta", "embed"])
    pb.add_argument("spec", help="simple pinboard host, e.g. 'pin (w2,12) (7,aleph3)'")
    pb.add_argument("subsets", nargs="+", help="one subset for theta, two for embed")
    pb.set_defaults(func=_cmd_pinboard)

    d = sub.add_parser("demo", help="reproduce the worked examples")
    d.add_argument("name", choices=["fig1", "fig3", "section2"])
    d.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command == "pinboard":
        want = 1 if args.action == "theta" else 2
        if len(args.subsets) != want:
            noun = "argument" if want == 1 else "arguments"
            print(f"error: pinboard {args.action} takes {want} subset {noun}, "
                  f"got {len(args.subsets)}", file=sys.stderr)
            return 1
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``subrep survey 5 | head -1``).
        # Python flushes stdout again at exit, so point it at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SubrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
