"""Command-line front end.

Subcommands: ``pat``, ``comp``, ``classify``, ``verify``, ``levels``.
JSON output (``--format json``) is the stable machine interface: sets are
sorted and field order is fixed, so identical invocations are byte-identical.
Exit codes: 0 success (including skips, with a warning count on stderr),
1 verification failure, 2 parse/usage error, 3 enumeration cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .classify import Classification, Prediction, predict_level
from .galois import comp_set, iter_levels, pat_set
from .groups import DEFAULT_ELEMENT_CAP, PermGroup, PermSet, parse_group, symmetric_group
from .perms import CapExceeded, Perm, _check_depth, format_perm, parse_perm
from .verify import verify_catalog, verify_group, verify_laws

PRINT_CAP = 120

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpat",
        description="pattern/compatibility operators, partition calculus, "
        "level classifier, and brute-force verifier for permutation groups",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP)
    sub = parser.add_subparsers(dest="command", required=True)

    pat = sub.add_parser("pat", help="patterns of a group, set, or permutation")
    _add_source_args(pat)
    pat.add_argument("--level", type=int, required=True)

    comp = sub.add_parser("comp", help="compatible permutations at a higher degree")
    _add_source_args(comp)
    comp.add_argument("--to", dest="target", type=int, required=True)

    classify = sub.add_parser("classify", help="closed-form level predictions")
    classify.add_argument("--group", required=True)
    classify.add_argument("--depth", type=int, default=1)

    verify = sub.add_parser("verify", help="reconcile predictions with brute force")
    mode = verify.add_mutually_exclusive_group(required=True)
    mode.add_argument("--catalog", type=int)
    mode.add_argument("--group")
    mode.add_argument("--laws", action="store_true")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--depth", type=int, default=2)

    levels = sub.add_parser("levels", help="sizes of successive brute-force levels")
    levels.add_argument("--group", required=True)
    levels.add_argument("--depth", type=int, required=True)
    return parser


def _add_source_args(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--group", help="group descriptor, e.g. C:6 or gens:6:...")
    source.add_argument("--perm", help="a single one-line word")
    source.add_argument("--set", dest="permset", help="semicolon-separated words")


def _load_source(args: argparse.Namespace) -> PermSet:
    if args.group is not None:
        return parse_group(args.group, args.element_cap)
    if args.perm is not None:
        texts = [args.perm]
    else:
        texts = [t for t in args.permset.split(";") if t.strip()]
    perms = [parse_perm(t) for t in texts]
    if not perms:
        raise ValueError("cannot infer degree from an empty collection")
    return PermSet(perms[0].degree, (p.word for p in perms))


def _set_payload(degree: int, words) -> dict:
    payload: dict = {"degree": degree, "size": len(words)}
    if len(words) <= PRINT_CAP:
        payload["elements"] = [format_perm(Perm(w)) for w in sorted(words)]
    return payload


def _emit(args: argparse.Namespace, obj: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(obj, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _format_set_text(name: str, payload: dict) -> str:
    if "elements" in payload:
        return f"{name}: degree {payload['degree']}, size {payload['size']}: " + " ".join(
            payload["elements"]
        )
    return f"{name}: degree {payload['degree']}, size {payload['size']}"


def _cmd_pat(args: argparse.Namespace) -> int:
    source = _load_source(args)
    pats = pat_set(source, args.level)
    generated = PermGroup.closure(sorted(pats.word_set), args.level, args.element_cap)
    obj = {
        "command": "pat",
        "level": args.level,
        "source": _set_payload(source.degree, source.word_set),
        "pat": _set_payload(pats.degree, pats.word_set),
        "generated": _set_payload(generated.degree, generated.word_set),
    }
    _emit(args, obj, [
        _format_set_text("pat", obj["pat"]),
        _format_set_text("generated", obj["generated"]),
    ])
    return EXIT_OK


def _cmd_comp(args: argparse.Namespace) -> int:
    source = _load_source(args)
    result = comp_set(source, args.target, element_cap=args.element_cap)
    try:
        # a closure larger than the level cannot equal it
        PermGroup.from_words(result.word_set, result.degree, len(result))
        is_group = True
    except (ValueError, CapExceeded):
        is_group = False
    obj = {
        "command": "comp",
        "target": args.target,
        "source": _set_payload(source.degree, source.word_set),
        "comp": _set_payload(result.degree, result.word_set),
        "is_group": is_group,
    }
    _emit(args, obj, [
        _format_set_text("comp", obj["comp"]),
        f"group: {'yes' if is_group else 'no'}",
    ])
    return EXIT_OK


def _prediction_payload(pred: Prediction) -> dict:
    level: dict = {"degree": pred.degree}
    if pred.exact is pred.lower is pred.upper is None:
        # S_m, named by its degree: built only when its elements are printed
        m = pred.degree
        size = math.factorial(m)
        level["exact"] = (
            _set_payload(m, symmetric_group(m).word_set)
            if size <= PRINT_CAP
            else {"degree": m, "size": size}
        )
    elif pred.exact is not None:
        level["exact"] = _set_payload(pred.exact.degree, pred.exact.word_set)
    else:
        level["lower"] = _set_payload(pred.lower.degree, pred.lower.word_set)
        level["upper"] = _set_payload(pred.upper.degree, pred.upper.word_set)
    return level


def _cmd_classify(args: argparse.Namespace) -> int:
    _check_depth(args.depth)
    g = parse_group(args.group, args.element_cap)
    c = Classification(g, element_cap=args.element_cap)
    levels = []
    citations: list[str] = []
    for i in range(1, args.depth + 1):
        pred = c.level(i)
        levels.append(_prediction_payload(pred))
        if pred.citation not in citations:
            citations.append(pred.citation)
    obj = {
        "command": "classify",
        "group": args.group,
        "degree": g.degree,
        "order": g.order,
        "kind": c.kind.value,
        "levels": levels,
        "eventual": c.eventual.to_json(),
        "onset_bound": c.onset_bound,
        "citations": citations,
    }
    text = [f"kind: {c.kind.value} (degree {g.degree}, order {g.order})"]
    for lv in levels:
        if "exact" in lv:
            text.append(_format_set_text(f"level {lv['degree']}", lv["exact"]))
        else:
            text.append(
                f"level {lv['degree']}: between "
                f"{lv['lower']['size']} and {lv['upper']['size']} elements"
            )
    fam = obj["eventual"]
    desc = "+reversal" if fam["with_descending"] else ""
    text.append(
        f"eventual: {fam['family']}{desc} (a={fam['a']}, b={fam['b']}), "
        f"onset bound {c.onset_bound}"
    )
    text.append("citations: " + ", ".join(citations))
    _emit(args, obj, text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.laws:
        reports = verify_laws(args.seed)
    elif args.catalog is not None:
        reports = verify_catalog(args.catalog, args.depth, element_cap=args.element_cap)
    else:
        g = parse_group(args.group, args.element_cap)
        reports = verify_group(g, args.depth, element_cap=args.element_cap)
    fails = skips = 0
    for r in reports:
        if r.status == "fail":
            fails += 1
        elif r.status == "skipped":
            skips += 1
        if args.format == "json":
            print(json.dumps(r.to_json(), separators=(",", ":")))
        else:
            print(f"{r.status.upper():7s} {r.check_id} [{r.scope}]")
            if r.counterexample is not None:
                print(f"        {json.dumps(r.counterexample, separators=(',', ':'))}")
    print(
        f"checks: {len(reports)}, failed: {fails}, skipped: {skips}",
        file=sys.stderr,
    )
    if fails:
        return EXIT_FAIL
    if skips:
        print("warning: some checks were skipped", file=sys.stderr)
    return EXIT_OK


def _cmd_levels(args: argparse.Namespace) -> int:
    _check_depth(args.depth)
    g = parse_group(args.group, args.element_cap)
    family = predict_level(g, 1, element_cap=args.element_cap).eventual
    rows = []
    for degree, words in iter_levels(g, args.depth, element_cap=args.element_cap):
        level = PermGroup.from_words(words, degree, args.element_cap)
        rows.append(
            {
                "degree": degree,
                "size": len(words),
                "family_match": family.matches(level),
            }
        )
    obj = {
        "command": "levels",
        "group": args.group,
        "eventual": family.to_json(),
        "levels": rows,
    }
    text = [
        f"level {r['degree']}: size {r['size']}"
        + (" [eventual family]" if r["family_match"] else "")
        for r in rows
    ]
    _emit(args, obj, text)
    return EXIT_OK


_COMMANDS = {
    "pat": _cmd_pat,
    "comp": _cmd_comp,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "levels": _cmd_levels,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.element_cap < 1:  # no group has fewer than one element
        parser.error(f"--element-cap must be >= 1, got {args.element_cap}")
    try:
        return _COMMANDS[args.command](args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
