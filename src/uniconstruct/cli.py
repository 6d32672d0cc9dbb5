"""Command-line front end: JSON in, reports out.

Exit codes: 0 success with all embedded verifications passing, 1 malformed
input (the message names the offending path), 2 a mathematical verification
failed (so CI can assert the re-checked facts).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from . import __version__
from .errors import UniconstructError, VerificationError
from .groups import (
    FiniteGroup,
    GroupHom,
    alternating,
    catalog,
    catalog_search_weak_not_strong,
    classify_sections,
    cyclic,
    dicyclic,
    dihedral,
    find_isomorphism,
    group_from_json,
    group_to_json,
    hom_from_json,
    center,
    symmetric,
)
from .encode import GroupTriple, attach_skew, encode_three_sorted, verify_theta_iso
from .skew import (
    build_cyclic_skew,
    center_witness,
    hom_violations,
    phi23 as skew_phi23,
    phi23_hom_witness,
    psi0,
    random_skew_element,
    shift_generator,
    skew_from_json,
    skew_from_support,
    skew_inv,
    skew_mul,
    skew_pow,
    skew_to_json,
)
from .structures import (
    automorphisms,
    isomorphisms,
    structure_from_json,
    structure_to_json,
    validate,
)
from .ucp import assemble_ucp, derive_triple
from .uniform import build_family, uniform_F, verify_claims


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UniconstructError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UniconstructError(f"{path}: invalid JSON at line {exc.lineno}") from exc


def _load_structure(path: str):
    doc = _read_json(path)
    try:
        s = structure_from_json(doc)
    except UniconstructError as exc:
        raise UniconstructError(f"{path}: {exc}") from exc
    violations = validate(s)
    if violations:
        raise UniconstructError(f"{path}: invalid structure: " + "; ".join(violations))
    return s


def _load_group(spec: str) -> FiniteGroup:
    """Accept a builtin family name (c4, s3, d4, q8, a4) or a JSON path."""
    name = spec.strip().lower()
    builders = {"c": cyclic, "s": symmetric, "a": alternating, "d": dihedral}
    if len(name) >= 2 and name[0] in builders and name[1:].isdigit():
        return builders[name[0]](int(name[1:]))
    if name.startswith("q") and name[1:].isdigit():
        order = int(name[1:])
        if order % 4 != 0:
            raise UniconstructError(f"{spec}: quaternion order must be a multiple of 4")
        return dicyclic(order // 4)
    try:
        return group_from_json(_read_json(spec))
    except UniconstructError as exc:
        raise UniconstructError(f"{spec}: {exc}") from exc


def _load_skew_arg(base: FiniteGroup, raw: str):
    if raw.lstrip().startswith("{"):
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise UniconstructError(f"inline skew element: invalid JSON: {exc}") from exc
    else:
        doc = _read_json(raw)
    return skew_from_json(base, doc)


class _IntText(dict):
    """The decimal text of each int, made once per distinct value."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


def _write_json(write, obj, int_text, indent: str = "\n") -> None:
    """Write ``obj`` as ``json.dumps(obj, indent=2)`` writes it, byte for byte.

    Keys and scalars go through ``json.dumps``.  A list of plain ints (bools
    excluded) is one join over ``int_text`` lookups, so a Cayley table is
    written one row per call and never exists as one string.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                # json writes such a key as its scalar text, quoted
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                key = json.dumps(key)
            write(sep + json.dumps(key) + ": ")
            _write_json(write, value, int_text, inner)
            sep = "," + inner
        write(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
        elif set(map(type, obj)) == {int}:
            write("[" + inner + ("," + inner).join(map(int_text, obj)) + indent + "]")
        else:
            sep = "[" + inner
            for item in obj:
                write(sep)
                _write_json(write, item, int_text, inner)
                sep = "," + inner
            write(indent + "]")
    else:
        write(json.dumps(obj))


def _emit(args, doc: dict, lines: list[str]) -> None:
    """Write the report to ``--out`` or stdout; JSON is the bytes of
    ``json.dumps(doc, indent=2)`` plus a newline, written piece by piece."""
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        if args.format == "json":
            _write_json(fh.write, doc, _IntText().__getitem__)
            fh.write("\n")
        else:
            fh.write("\n".join(lines) + "\n")


def _report_lines(title: str, entries) -> list[str]:
    lines = [title]
    for name, ok, detail in entries:
        status = "pass" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        lines.append(f"  [{status}] {name}{suffix}")
    return lines


# ---------------------------------------------------------------------------
# command handlers: return (exit_code, doc, lines)

def _cmd_aut(args):
    s = _load_structure(args.structure)
    maps = automorphisms(s, max_elements=args.max_elements)
    doc = {
        "command": "aut",
        "count": len(maps),
        "automorphisms": [[list(m) for m in a.maps] for a in maps],
    }
    lines = [f"{len(maps)} automorphisms"]
    lines += [f"  {list(list(m) for m in a.maps)}" for a in maps]
    return 0, doc, lines


def _cmd_iso(args):
    s1 = _load_structure(args.left)
    s2 = _load_structure(args.right)
    maps = isomorphisms(s1, s2, max_elements=args.max_elements)
    doc = {
        "command": "iso",
        "count": len(maps),
        "isomorphisms": [[list(m) for m in a.maps] for a in maps],
    }
    return 0, doc, [f"{len(maps)} isomorphisms"]


def _cmd_split(args):
    hom = hom_from_json(_read_json(args.hom))
    search = classify_sections(hom, max_candidates=args.max_candidates)
    doc = {
        "command": args.command,
        "candidates": search.n_candidates,
        "nodes": search.nodes,
        "has_splitting": search.has_splitting,
        "has_weak_splitting": search.has_weak_splitting,
        "n_splittings": len(search.splittings),
        "n_weak_splittings": len(search.weak_splittings) + len(search.splittings),
        "first_splitting": list(search.splittings[0].map) if search.splittings else None,
        "first_weak_splitting": (
            list((search.splittings + search.weak_splittings)[0].map)
            if search.has_weak_splitting
            else None
        ),
    }
    return 0, doc, [search.summary()]


def _cmd_ucp_check(args):
    b = _load_structure(args.structure)
    psi = None
    if args.psi:
        psi = _read_json(args.psi).get("map")
        if psi is None:
            raise UniconstructError(f"{args.psi}: missing field 'map'")
    ucp = assemble_ucp(b, psi, max_elements=args.max_elements)
    doc = {
        "command": "ucp-check",
        "is_weak_ucp": ucp.is_weak_ucp,
        "is_ucp": ucp.is_ucp,
        "weak_only": ucp.weak_only,
        "H_order": ucp.H.order,
        "G_order": ucp.G.order,
        "center_size": len(ucp.K),
        "clauses": ucp.report.to_json(),
    }
    lines = _report_lines("uni-construction clause report", ucp.report.entries)
    lines.append(f"weak ucp: {'yes' if ucp.is_weak_ucp else 'no'}")
    code = 0 if ucp.report.all_pass else 2
    return code, doc, lines


def _cmd_derive_triple(args):
    c = _load_structure(args.structure)
    derivation = derive_triple(c, max_elements=args.max_elements)
    doc = {
        "command": "derive-triple",
        "all_weak": derivation.all_weak,
        "composition_ok": derivation.composition_ok,
        "c12": derivation.c12.report.to_json(),
        "c23": derivation.c23.report.to_json(),
        "c13": derivation.c13.report.to_json(),
    }
    lines = []
    for label, ucp in (
        ("c12", derivation.c12),
        ("c23", derivation.c23),
        ("c13", derivation.c13),
    ):
        lines += _report_lines(f"{label} clause report", ucp.report.entries)
    lines.append(f"composition phi13 = phi12 . phi23: {'ok' if derivation.composition_ok else 'FAIL'}")
    code = 0 if derivation.all_weak and derivation.composition_ok else 2
    return code, doc, lines


def _cmd_skew(args):
    base = _load_group(args.base)
    op = args.op
    doc = {"command": "skew", "base": base.label(), "op": op}
    lines = [f"base group {base.label()}, op {op}"]
    if op in ("mul",):
        lhs = _load_skew_arg(base, args.lhs)
        rhs = _load_skew_arg(base, args.rhs)
        result = skew_mul(lhs, rhs)
        doc["result"] = skew_to_json(result)
        lines.append(f"{lhs} * {rhs} = {result}")
    elif op == "inv":
        el = _load_skew_arg(base, args.element)
        result = skew_inv(el)
        doc["result"] = skew_to_json(result)
        lines.append(f"inv({el}) = {result}")
    elif op == "pow":
        el = _load_skew_arg(base, args.element)
        result = skew_pow(el, args.exp)
        doc["result"] = skew_to_json(result)
        lines.append(f"{el} ** {args.exp} = {result}")
    elif op == "phi23":
        el = _load_skew_arg(base, args.element)
        value = skew_phi23(el)
        doc["result"] = value
        lines.append(f"phi23({el}) = {base.element_name(value)}")
    elif op == "psi0":
        result = psi0(base, args.exp)
        doc["result"] = skew_to_json(result)
        lines.append(f"psi0({args.exp}) = {result}")
    elif op == "witness":
        el = _load_skew_arg(base, args.element)
        w = center_witness(el)
        doc["result"] = skew_to_json(w)
        ok = skew_mul(el, w) != skew_mul(w, el)
        doc["non_commuting_verified"] = ok
        lines.append(f"witness({el}) = {w}  non-commutation verified: {ok}")
        return (0 if ok else 2), doc, lines
    elif op == "laws":
        code, sub, sub_lines = _skew_laws(base, args.samples, args.seed)
        doc.update(sub)
        return code, doc, lines + sub_lines
    else:
        raise UniconstructError(f"unknown skew op {op!r}")
    return 0, doc, lines


def _skew_laws(base, samples, seed):
    import random as _random

    rng = _random.Random(seed)
    y = shift_generator(base)
    assoc = inverse = conj = True
    for _ in range(samples):
        a = random_skew_element(base, rng, allow_identity=True)
        b = random_skew_element(base, rng, allow_identity=True)
        c = random_skew_element(base, rng, allow_identity=True)
        if skew_mul(skew_mul(a, b), c) != skew_mul(a, skew_mul(b, c)):
            assoc = False
        if not skew_mul(a, skew_inv(a)).is_identity():
            inverse = False
        x = skew_from_support(base, 0, dict(a.support))
        conjugated = skew_mul(skew_mul(skew_inv(y), x), y)
        if conjugated != skew_from_support(base, 0, {p + 1: v for p, v in x.support}):
            conj = False
    lift = all(skew_phi23(psi0(base, g)) == g for g in base.elements())
    witness = phi23_hom_witness(base)
    violations = hom_violations(base, samples, seed)
    # a sampled violation of a law decided to hold would be a contradiction
    consistent = witness is not None or not violations
    ok = assoc and inverse and conj and lift and consistent
    doc = {
        "seed": seed,
        "samples": samples,
        "associativity": assoc,
        "inverses": inverse,
        "conjugation_shift": conj,
        "phi23_section": lift,
        "phi23_is_hom": witness is None,
        "phi23_hom_witness": None if witness is None else [skew_to_json(w) for w in witness],
        "hom_violations_found": len(violations),
    }
    exact = "holds (abelian base)" if witness is None else "fails at x={}, y={}".format(*witness)
    lines = [
        f"seed {seed}, {samples} samples",
        f"associativity: {'pass' if assoc else 'FAIL'}",
        f"inverses: {'pass' if inverse else 'FAIL'}",
        f"conjugation shift law: {'pass' if conj else 'FAIL'}",
        f"phi23 . psi0 = id: {'pass' if lift else 'FAIL'}",
        f"phi23 hom law, decided exactly: {exact}",
        f"hom-law violations sampled: {len(violations)}"
        + ("" if consistent else "  FAIL: the law was decided to hold"),
    ]
    return (0 if ok else 2), doc, lines


def _cmd_cyclic_skew(args):
    base = _load_group(args.base)
    cs = build_cyclic_skew(args.k, base, max_order=args.max_order)
    g = cs.group
    z = center(g)
    identified = None
    if g.order <= 32:
        for candidate in catalog(g.order):
            if candidate.order == g.order and find_isomorphism(g, candidate) is not None:
                identified = candidate.label()
                break
    doc = {
        "command": "cyclic-skew",
        "k": args.k,
        "base": base.label(),
        "order": g.order,
        "center_size": len(z),
        "abelian": g.is_abelian(),
        "catalog_match": identified,
        "group": group_to_json(g),
    }
    lines = [
        f"cyclic skew k={args.k} over {base.label()}: order {g.order}",
        f"center size {len(z)}, abelian: {g.is_abelian()}",
        f"catalog match: {identified or 'none found'}",
    ]
    return 0, doc, lines


def _cmd_encode3(args):
    doc_in = _read_json(args.triple)
    try:
        g1 = group_from_json(doc_in["g1"])
        g2 = group_from_json(doc_in["g2"])
        g3 = group_from_json(doc_in["g3"])
        phi12 = GroupHom(g2, g1, doc_in["phi12"])
        phi23 = GroupHom(g3, g2, doc_in["phi23"])
    except KeyError as exc:
        raise UniconstructError(f"{args.triple}: missing field {exc}") from exc
    triple = GroupTriple(g1, g2, g3, phi12, phi23)
    structure = encode_three_sorted(triple)
    report = verify_theta_iso(triple, max_elements=args.max_elements)
    doc = {
        "command": "encode3",
        "ok": report.all_pass,
        "structure": structure_to_json(structure),
        "checks": report.to_json(),
    }
    lines = _report_lines("translation-structure verification", report.entries)
    return (0 if report.all_pass else 2), doc, lines


def _cmd_attach(args):
    b = _load_structure(args.structure)
    g3 = _load_group(args.g3)
    phi23_doc = _read_json(args.phi23)
    if "map" not in phi23_doc:
        raise UniconstructError(f"{args.phi23}: missing field 'map'")
    from .groups import aut_group

    autb = aut_group(b, max_elements=args.max_elements)
    phi23 = GroupHom(g3, autb.group, phi23_doc["map"])
    phi13 = None
    if args.phi13:
        phi13_doc = _read_json(args.phi13)
        if "map" not in phi13_doc:
            raise UniconstructError(f"{args.phi13}: missing field 'map'")
        from .structures import reduct

        auta = aut_group(reduct(b, (0,)), max_elements=args.max_elements)
        phi13 = GroupHom(g3, auta.group, phi13_doc["map"])
    attachment = attach_skew(b, g3, phi23, phi13, max_elements=args.max_elements)
    derivation = derive_triple(attachment.structure, max_elements=args.max_elements)
    c23_sections = classify_sections(derivation.c23.phi)
    c13_sections = classify_sections(derivation.c13.phi)
    doc = {
        "command": "attach",
        "structure": structure_to_json(attachment.structure),
        "derived_all_weak": derivation.all_weak,
        "c23_has_splitting": c23_sections.has_splitting,
        "c23_has_weak_splitting": c23_sections.has_weak_splitting,
        "c13_has_splitting": c13_sections.has_splitting,
        "c13_has_weak_splitting": c13_sections.has_weak_splitting,
    }
    lines = [
        f"attached structure: sorts {list(attachment.structure.sort_sizes)}",
        f"derived weak problems: {'ok' if derivation.all_weak else 'FAIL'}",
        f"c23 splitting: {'yes' if c23_sections.has_splitting else 'no'}",
        f"c13 splitting: {'yes' if c13_sections.has_splitting else 'no'}; "
        f"weak: {'yes' if c13_sections.has_weak_splitting else 'no'}",
    ]
    return (0 if derivation.all_weak else 2), doc, lines


def _resolve_psi(ucp, psi_path):
    """The section map from ``psi_path``, else the problem's first weak splitting."""
    if psi_path:
        doc = _read_json(psi_path)
        if "map" not in doc:
            raise UniconstructError(f"{psi_path}: missing field 'map'")
        return doc["map"]
    search = classify_sections(ucp.phi)
    for sec in search.splittings + search.weak_splittings:
        return list(sec.map)
    raise VerificationError("no weak splitting exists for the structure's restriction map")


def _cmd_uniformize(args, verify_only: bool):
    b = _load_structure(args.structure)
    target = _load_structure(args.target)
    ucp = assemble_ucp(b, max_elements=args.max_elements)
    psi = _resolve_psi(ucp, args.psi)
    fam = build_family(b, psi, args.copies, max_elements=args.max_elements, problem=ucp)
    claims = verify_claims(target, fam, max_elements=args.max_elements)
    doc = {
        "command": "verify" if verify_only else "uniformize",
        "copies": args.copies,
        "claims": claims.to_json(),
        "claims_all_pass": claims.all_pass,
    }
    lines = _report_lines("claims report", claims.entries)
    if not verify_only and not claims.all_pass:
        # never run the construction past claims that reject it
        lines.append("no structure emitted: the claims fail")
    elif not verify_only:
        result = uniform_F(target, fam, max_elements=args.max_elements)
        doc["structure"] = structure_to_json(result.structure)
        lines.append(f"emitted structure with sorts {list(result.structure.sort_sizes)}")
    return (0 if claims.all_pass else 2), doc, lines


def _cmd_catalog_search(args):
    witnesses = catalog_search_weak_not_strong(args.max_order)
    doc = {
        "command": "catalog-search",
        "max_order": args.max_order,
        "witness_count": len(witnesses),
        "witnesses": [
            {
                "group": w.group.label(),
                "order": w.group.order,
                "normal_subgroup": list(w.normal),
                "quotient_order": w.phi.codomain.order,
            }
            for w in witnesses
        ],
    }
    lines = [f"catalog search up to order {args.max_order}: {len(witnesses)} witnesses"]
    for w in witnesses:
        lines.append(
            f"  {w.group.label()} / N{list(w.normal)} -> order {w.phi.codomain.order}"
        )
    if not witnesses:
        lines.append("  (empty witness list is a valid outcome)")
    return 0, doc, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniconstruct",
        description="finite multi-sorted structures, splittings, and uniform constructions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--max-elements",
            type=int,
            default=None,
            help="override the exhaustive-search element bound",
        )

    p = sub.add_parser("aut", help="automorphisms of a structure")
    p.add_argument("--structure", required=True)
    common(p)

    p = sub.add_parser("iso", help="isomorphisms between two structures")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    common(p)

    for name in ("split", "weak-split"):
        p = sub.add_parser(name, help="classify sections of a surjective homomorphism")
        p.add_argument("--hom", required=True)
        p.add_argument(
            "--max-candidates", type=int, default=None, help="cap on section-search nodes"
        )
        common(p)

    p = sub.add_parser("ucp-check", help="assemble and check a uni-construction problem")
    p.add_argument("--structure", required=True)
    p.add_argument("--psi", help="JSON file with a section map over Aut indices")
    common(p)

    p = sub.add_parser("derive-triple", help="derive the three problems of a 3-sorted model")
    p.add_argument("--structure", required=True)
    common(p)

    p = sub.add_parser("skew", help="skew-product arithmetic and law checks")
    p.add_argument("--base", required=True, help="builtin group name (c2, s3, ...) or JSON path")
    p.add_argument("--op", required=True,
                   choices=("mul", "inv", "pow", "phi23", "psi0", "witness", "laws"))
    p.add_argument("--lhs", help="skew element (path or inline JSON)")
    p.add_argument("--rhs", help="skew element (path or inline JSON)")
    p.add_argument("--element", help="skew element (path or inline JSON)")
    p.add_argument("--exp", type=int, default=0, help="exponent or base-group element")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("cyclic-skew", help="build the finite cyclic skew analogue")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--max-order", type=int, default=None)
    common(p)

    p = sub.add_parser("encode3", help="encode a group tower as a 3-sorted structure")
    p.add_argument("--triple", required=True, help="JSON with g1, g2, g3, phi12, phi23")
    common(p)

    p = sub.add_parser("attach", help="attach a top group to a 2-sorted structure")
    p.add_argument("--structure", required=True)
    p.add_argument("--g3", required=True)
    p.add_argument("--phi23", required=True, help="JSON map into Aut(B) indices")
    p.add_argument("--phi13", help="optional JSON map into Aut(sort1 B) indices")
    common(p)

    p = sub.add_parser("uniformize", help="run the uniform construction over a target")
    p.add_argument("--structure", required=True)
    p.add_argument("--psi", help="section map file; first weak splitting found if omitted")
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--target", required=True)
    p.add_argument(
        "--mode", choices=("full",), default="full",
        help="the only construction; accepted for compatibility",
    )
    common(p)

    p = sub.add_parser("verify", help="run the claims verification standalone")
    p.add_argument("--structure", required=True)
    p.add_argument("--psi")
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--target", required=True)
    common(p)

    p = sub.add_parser("catalog-search", help="search for weak-but-not-strong splittings")
    p.add_argument("--max-order", type=int, default=16)
    common(p)

    return parser


_HANDLERS = {
    "aut": _cmd_aut,
    "iso": _cmd_iso,
    "split": _cmd_split,
    "weak-split": _cmd_split,
    "ucp-check": _cmd_ucp_check,
    "derive-triple": _cmd_derive_triple,
    "skew": _cmd_skew,
    "cyclic-skew": _cmd_cyclic_skew,
    "encode3": _cmd_encode3,
    "attach": _cmd_attach,
    "uniformize": lambda args: _cmd_uniformize(args, verify_only=False),
    "verify": lambda args: _cmd_uniformize(args, verify_only=True),
    "catalog-search": _cmd_catalog_search,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, doc, lines = _HANDLERS[args.command](args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except UniconstructError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc["exit_code"] = code
    _emit(args, doc, lines)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
