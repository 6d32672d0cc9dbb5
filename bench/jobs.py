"""Workload job lists and the answer checks behind ``fail_ratio``.

A job is one ``uniconstruct`` CLI invocation on generated input files.  Its
answer is the verdict-bearing part of the JSON report (never formatting,
detail strings or timings), reduced to a digest and compared with the value
frozen in ``expected.json``.  Relabeling inputs does not change a verdict, so
one frozen digest per job holds for every seed.  Facts known independently
of the library are checked on top.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from math import factorial


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    args: tuple  # CLI arguments; "@name" stands for the generated input "name"
    expect_exit: int = 0
    facts: dict = field(default_factory=dict)

    def argv(self, inputs: dict[str, str]) -> list[str]:
        return [inputs[a[1:]] if a.startswith("@") else a for a in (self.command, *self.args)]


def _uniformize(struct, copies, verify=False, expect_exit=0):
    command = "verify" if verify else "uniformize"
    mode = () if verify else ("--mode", "full")
    return Job(
        f"{command}-{struct}-s{copies}",
        command,
        ("--structure", f"@B_{struct}", "--target", f"@A_{struct}", "--copies", str(copies), *mode),
        expect_exit,
        {"target": f"A_{struct}"},
    )


WORKLOADS = {
    # the uniform pipeline: uniform does nearly all the work, aut_group runs
    # only as many tiny calls
    "reconstruct": (
        _uniformize("cycle3", 5),
        _uniformize("rich", 4),
        _uniformize("matching", 3),
        _uniformize("rich", 5, verify=True),
        _uniformize("cycle3", 4, verify=True),
        # negative control: the kernel structure's claims fail honestly
        _uniformize("kernel", 2, expect_exit=2),
    ),
    # automorphism groups and what hangs off them: one |Aut|=720 table and
    # isomorphism search dominate; uniform does nothing
    "symmetry": (
        Job("ucp-check-free6", "ucp-check", ("--structure", "@B_free6"), facts={"free": 6}),
        Job("ucp-check-free5", "ucp-check", ("--structure", "@B_free5"), facts={"free": 5}),
        Job("aut-free6", "aut", ("--structure", "@free6_plain"), facts={"count": 720}),
        Job("encode3-s4-s3-c2", "encode3", ("--triple", "@triple_s4-s3-c2"), facts={"g3": 24}),
        Job("encode3-d4-d4-c2", "encode3", ("--triple", "@triple_d4-d4-c2"), facts={"g3": 8}),
        Job("encode3-q8-v4-c2", "encode3", ("--triple", "@triple_q8-v4-c2"), facts={"g3": 8}),
        Job("encode3-s3-s3-c2", "encode3", ("--triple", "@triple_s3-s3-c2"), facts={"g3": 6}),
        Job("attach-cycle3-c6", "attach",
            ("--structure", "@B_cycle3", "--g3", "@G3_c6", "--phi23", "@phi23_cycle3_c6")),
        Job("weak-split-c2xd8", "weak-split", ("--hom", "@hom_c2xd8_d8",)),
    ),
    # group-level search with no structures: exhaustive classify_sections,
    # the catalog and build_cyclic_skew dominate
    "algebra": (
        Job("catalog-search-16", "catalog-search", ("--max-order", "16")),
        Job("split-d16-center", "split", ("--hom", "@hom_d16_center"),
            facts={"candidates": 65536}),
        Job("cyclic-skew-k5-c3", "cyclic-skew", ("--k", "5", "--base", "@base_c3"),
            facts={"k": 5, "base_order": 3}),
        Job("cyclic-skew-k3-c2", "cyclic-skew", ("--k", "3", "--base", "@base_c2"),
            facts={"k": 3, "base_order": 2}),
        Job("skew-laws-s3", "skew",
            ("--base", "@base_s3", "--op", "laws", "--samples", "5000", "--seed", "@laws_seed")),
    ),
}


# ---------------------------------------------------------------------------
# Answers


def _failed(entries) -> list[str]:
    """Names of the failing entries of a pass/fail report, whichever key names it."""
    out = []
    for entry in entries:
        name = next(entry[k] for k in ("name", "claim", "check", "clause") if k in entry)
        if not entry["ok"]:
            out.append(name)
    return sorted(out)


def _shape(structure) -> dict:
    return {
        "sizes": [s["size"] for s in structure["sorts"]],
        "relations": {r["name"]: len(r["tuples"]) for r in structure["relations"]},
    }


def _pick(doc, *keys) -> dict:
    return {k: doc[k] for k in keys}


def answer(command: str, doc: dict) -> dict:
    """The verdict-bearing fields of one command's JSON report."""
    if command == "aut":
        return _pick(doc, "count")
    if command in ("split", "weak-split"):
        return _pick(doc, "candidates", "has_splitting", "has_weak_splitting",
                     "n_splittings", "n_weak_splittings")
    if command == "ucp-check":
        out = _pick(doc, "is_weak_ucp", "is_ucp", "weak_only", "H_order", "G_order", "center_size")
        return {**out, "failed": _failed(doc["clauses"])}
    if command == "encode3":
        return {"ok": doc["ok"], "failed": _failed(doc["checks"]), "shape": _shape(doc["structure"])}
    if command == "attach":
        out = _pick(doc, "derived_all_weak", "c23_has_splitting", "c23_has_weak_splitting",
                    "c13_has_splitting", "c13_has_weak_splitting")
        return {**out, "shape": _shape(doc["structure"])}
    if command in ("uniformize", "verify"):
        out = {**_pick(doc, "copies", "claims_all_pass"), "failed": _failed(doc["claims"])}
        if "structure" in doc:
            out["shape"] = _shape(doc["structure"])
        return out
    if command == "catalog-search":
        return _pick(doc, "max_order", "witness_count", "witnesses")
    if command == "cyclic-skew":
        return _pick(doc, "k", "order", "center_size", "abelian", "catalog_match")
    if command == "skew":
        # hom_violations_found depends on which elements the sampler drew
        return _pick(doc, "op", "samples", "associativity", "inverses",
                     "conjugation_shift", "phi23_section")
    raise KeyError(f"no answer extraction for command {command!r}")


def digest(exit_code: int, ans: dict | None) -> str:
    text = json.dumps({"exit": exit_code, "answer": ans}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Independent facts


def _reduct_is_target(structure: dict, target: dict) -> bool:
    first = structure["sorts"][0]["name"]
    rels = {
        r["name"]: sorted(map(tuple, r["tuples"]))
        for r in structure["relations"]
        if all(s == first for s in r["signature"])
    }
    want = {r["name"]: sorted(map(tuple, r["tuples"])) for r in target["relations"]}
    return structure["sorts"][0]["size"] == target["sorts"][0]["size"] and rels == want


def _table_looks_like_group(table: list, order: int, samples: int = 2000) -> bool:
    if len(table) != order or any(len(row) != order for row in table):
        return False
    if table[0] != list(range(order)) or [row[0] for row in table] != list(range(order)):
        return False
    rng = random.Random(0)
    for _ in range(samples):
        a, b, c = (rng.randrange(order) for _ in range(3))
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return False
    return True


def check_facts(job: Job, doc: dict | None, inputs: dict[str, dict]) -> list[str]:
    """Facts the library must reproduce, known without it; returns violations."""
    bad = []
    f = job.facts
    if doc is None:
        return bad
    if job.command == "uniformize" and "structure" in doc:
        if not _reduct_is_target(doc["structure"], inputs[f["target"]]):
            bad.append("first-sort reduct of the emitted structure is not the target")
    if job.command == "ucp-check":
        if not doc["H_order"] == doc["G_order"] == factorial(f["free"]):
            bad.append(f"H and G orders are not {f['free']}!")
    if job.command == "aut" and doc["count"] != f["count"]:
        bad.append(f"expected {f['count']} automorphisms")
    if job.command == "encode3":
        if not doc["ok"] or _failed(doc["checks"]):
            bad.append("an encode3 check failed")
        aut = next((c for c in doc["checks"] if c.get("check", c.get("name")) == "aut_order"), None)
        m = re.search(r"\|Aut\|=(\d+)", aut["detail"]) if aut else None
        if m is None or int(m.group(1)) != f["g3"]:
            bad.append(f"|Aut| is not |G3|={f['g3']}")
    if job.command == "split":
        if doc["candidates"] != f["candidates"]:
            bad.append(f"expected {f['candidates']} candidates")
        if doc["has_splitting"] or doc["has_weak_splitting"]:
            bad.append("D16 -> D16/Z must have no splitting of either kind")
    if job.command == "cyclic-skew":
        order = f["k"] * f["base_order"] ** f["k"]
        if doc["order"] != order:
            bad.append(f"order is not k*|base|^k = {order}")
        if not _table_looks_like_group(doc["group"]["table"], order):
            bad.append("emitted table is not a group table")
    if job.command == "skew" and not doc["hom_violations_found"] > 0:
        bad.append("phi23 over the non-abelian base S3 must violate the hom law")
    return bad
