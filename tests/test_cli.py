from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
import textwrap
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniconstruct import cli, encode, groups, skew, ucp, uniform
from uniconstruct.cli import main
from uniconstruct.errors import BoundExceededError
from uniconstruct.groups import (
    FiniteGroup,
    GroupHom,
    aut_group,
    classify_sections,
    cyclic,
    dihedral,
    direct_product,
    group_to_json,
    hom_to_json,
    quotient_by_center,
)
from uniconstruct.structures import (
    SortedMap,
    automorphisms,
    dumps,
    reduct,
    structure_from_json,
    structure_to_json,
)
from uniconstruct.ucp import assemble_ucp
from uniconstruct.uniform import build_family

from .conftest import directed_cycle, two_sorted
from .oracles import naive_representative_structure
from .test_uniform import weak_only_lifting


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_json(tmp_path, argv, expect):
    """Run one command with a JSON report; check its exit code, return the report."""
    out_path = tmp_path / "report.json"
    assert main([*argv, "--format", "json", "--out", str(out_path)]) == expect
    return json.loads(out_path.read_text())


def free_over_apex(n):
    """n free first-sort points over one apex; Aut = S_n at both levels."""
    return two_sorted((n, 1), [("R", (0, 1), [(p, 0) for p in range(n)])])



@pytest.fixture
def cycle3_path(tmp_path):
    return write(tmp_path, "cyc3.json", dumps(directed_cycle(3)))


@pytest.fixture
def c4toc2_path(tmp_path):
    hom = GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1])
    return write(tmp_path, "c4toc2.json", json.dumps(hom_to_json(hom)))


class TestAutCommand:
    def test_reports_three_automorphisms(self, cycle3_path, capsys):
        assert main(["aut", "--structure", cycle3_path]) == 0
        out = capsys.readouterr().out
        assert "3 automorphisms" in out

    def test_json_output_round_trips(self, cycle3_path, tmp_path):
        out_path = tmp_path / "report.json"
        assert main([
            "aut", "--structure", cycle3_path, "--format", "json", "--out", str(out_path)
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["count"] == 3
        assert doc["automorphisms"][0] == [[0, 1, 2]]

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["aut", "--structure", str(tmp_path / "nope.json")]) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_structure_is_input_error(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "bad.json",
            json.dumps(
                {
                    "sorts": [{"name": "p", "size": 2}],
                    "relations": [
                        {"name": "R", "signature": ["p"], "tuples": [[7]]}
                    ],
                    "functions": [],
                    "constants": [],
                }
            ),
        )
        assert main(["aut", "--structure", path]) == 1
        assert "out of range" in capsys.readouterr().err


class TestIsoCommand:
    def test_identical_structures(self, cycle3_path, capsys):
        assert main(["iso", "--left", cycle3_path, "--right", cycle3_path]) == 0
        assert "3 isomorphisms" in capsys.readouterr().out


def test_aut_and_iso_write_rows_as_per_sort_maps(tmp_path, capsys, monkeypatch):
    # two sorts, so each row is split at the second sort's start; the lists
    # are the maps of the same search, and no SortedMap is built for them
    b = two_sorted((3, 2), [("R", (0, 1), [(0, 0), (1, 0), (2, 1)])])
    path = write(tmp_path, "b.json", dumps(b))
    want = [[list(m) for m in a.maps] for a in automorphisms(b)]
    assert len(want) == 2

    def refuse(*args, **kwargs):
        raise AssertionError("a SortedMap was built")

    monkeypatch.setattr(SortedMap, "__init__", refuse)
    for argv, key in ((["aut", "--structure", path], "automorphisms"),
                      (["iso", "--left", path, "--right", path], "isomorphisms")):
        out = tmp_path / "report.json"
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())[key] == want
    assert main(["aut", "--structure", path]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [f"  {m}" for m in want]


class TestSplitCommands:
    def test_c4_to_c2_reports_neither(self, c4toc2_path, capsys):
        assert main(["split", "--hom", c4toc2_path]) == 0
        out = capsys.readouterr().out
        assert "splitting: no" in out and "weak splitting: no" in out

    @pytest.mark.parametrize("command", ["split", "weak-split"])
    def test_text_prints_each_verdict_once(self, c4toc2_path, capsys, command):
        assert main([command, "--hom", c4toc2_path]) == 0
        out = capsys.readouterr().out
        assert out.count("weak splitting: no") == 1
        # "splitting: no" also occurs inside "weak splitting: no"
        assert out.count("splitting: no") == 2

    def test_weak_split_verdict_fields(self, c4toc2_path, tmp_path):
        out_path = tmp_path / "r.json"
        assert main([
            "weak-split", "--hom", c4toc2_path, "--format", "json", "--out", str(out_path)
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert "mode" not in doc
        assert doc["command"] == "weak-split"
        assert doc["candidates"] == 4
        assert doc["has_splitting"] is False
        assert doc["has_weak_splitting"] is False
        assert doc["n_splittings"] == doc["n_weak_splittings"] == 0
        assert doc["first_splitting"] is None and doc["first_weak_splitting"] is None

    def test_split_node_bound_exits_1(self, tmp_path, capsys):
        _, phi = quotient_by_center(dihedral(16))
        path = write(tmp_path, "d16.json", json.dumps(hom_to_json(phi)))
        assert main(["split", "--hom", path, "--max-candidates", "3"]) == 1
        assert "exceeds node bound 3" in capsys.readouterr().err
        with pytest.raises(BoundExceededError):
            classify_sections(phi, max_candidates=3)

    def test_weak_split_c2xd8_counts(self, tmp_path):
        """C2 x D8 -> D8: 4 splittings, 4,096 weak splittings in all."""
        d8 = dihedral(8)
        phi = GroupHom(direct_product(cyclic(2), d8), d8, [a % 16 for a in range(32)])
        path = write(tmp_path, "c2xd8.json", json.dumps(hom_to_json(phi)))
        out_path = tmp_path / "r.json"
        assert main([
            "weak-split", "--hom", path, "--format", "json", "--out", str(out_path)
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["candidates"] == 2**16
        assert doc["n_splittings"] == 4
        assert doc["n_weak_splittings"] == 4096


class TestUcpCommands:
    def test_ucp_check_passes(self, tmp_path):
        b = two_sorted((2, 1), [("R", (0, 1), [(0, 0), (1, 0)])])
        path = write(tmp_path, "b.json", dumps(b))
        assert main(["ucp-check", "--structure", path]) == 0

    def test_ucp_check_clause_failure_exit_2(self, tmp_path):
        b = two_sorted((2, 1), [("R", (0, 1), [(0, 0)])])
        path = write(tmp_path, "b.json", dumps(b))
        assert main(["ucp-check", "--structure", path]) == 2

    def test_ucp_check_builds_no_table(self, tmp_path, monkeypatch):
        orders = []
        init = FiniteGroup.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            orders.append(self.order)

        monkeypatch.setattr(FiniteGroup, "__init__", counted)
        path = write(tmp_path, "b.json", dumps(free_over_apex(6)))
        doc = run_json(tmp_path, ["ucp-check", "--structure", path], expect=0)
        assert doc["H_order"] == doc["G_order"] == 720 and doc["center_size"] == 1
        assert 720 not in orders

    def test_ucp_check_seven_free_points(self, tmp_path):
        path = write(tmp_path, "b.json", dumps(free_over_apex(7)))
        doc = run_json(tmp_path, ["ucp-check", "--structure", path], expect=0)
        assert doc["H_order"] == doc["G_order"] == 5040 and doc["center_size"] == 1
        assert [c["ok"] for c in doc["clauses"]] == [True] * 6
        assert doc["clauses"][2]["detail"] == "|H|=5040, |K|=1, |G|=5040"

    def test_ucp_check_psi_weak_splitting(self, tmp_path):
        b, search = weak_only_lifting()
        path = write(tmp_path, "b.json", dumps(b))
        psi = search.weak_splittings[0].map
        psi_path = write(tmp_path, "psi.json", json.dumps({"map": list(psi)}))
        doc = run_json(tmp_path, ["ucp-check", "--structure", path, "--psi", psi_path], expect=0)
        assert doc["is_ucp"] is True and doc["weak_only"] is False
        assert doc["clauses"][-1] == {
            "clause": "f", "ok": True, "detail": "section classification: weak-splitting"
        }

    def test_ucp_check_psi_not_a_section_exit_2(self, tmp_path):
        b, _ = weak_only_lifting()
        path = write(tmp_path, "b.json", dumps(b))
        psi_path = write(tmp_path, "psi.json", json.dumps({"map": [0, 0, 0]}))
        doc = run_json(tmp_path, ["ucp-check", "--structure", path, "--psi", psi_path], expect=2)
        assert doc["is_weak_ucp"] is True and doc["is_ucp"] is False
        assert doc["clauses"][-1] == {
            "clause": "f", "ok": False,
            "detail": "supplied map is not a section of the restriction map",
        }

    def test_ucp_check_psi_past_the_table_bound_answers(self, tmp_path):
        # |Aut| = 5040, whose table would have 25401600 cells: the section
        # is labelled from the columns of H's generator images alone
        path = write(tmp_path, "b.json", dumps(free_over_apex(7)))
        psi_path = write(tmp_path, "psi.json", json.dumps({"map": list(range(5040))}))
        out_path = tmp_path / "report.json"
        tracemalloc.start()
        try:
            code = main([
                "ucp-check", "--structure", path, "--psi", psi_path,
                "--format", "json", "--out", str(out_path),
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["clauses"][-1] == {
            "clause": "f", "ok": True, "detail": "section classification: splitting",
        }
        assert peak < 5040 * 5040  # less than one byte per cell of the table

    def test_verify_past_the_table_bound_answers(self, tmp_path):
        # without --psi the section is the first splitting, found on the
        # generators of Aut(A) alone: no column search, no table
        b = free_over_apex(7)
        path = write(tmp_path, "b.json", dumps(b))
        a_path = write(tmp_path, "a.json", dumps(reduct(b, (0,))))
        doc = run_json(tmp_path, [
            "verify", "--structure", path, "--target", a_path, "--copies", "1",
        ], expect=0)
        assert doc["claims_all_pass"] is True

    def test_verify_size_mismatch_fails_the_claim(self, tmp_path):
        # a 3-cycle over 3 free points: the free sort is the kernel, so at 3
        # copies the quotient outgrows the member.  Structures of different
        # sizes are not isomorphic whatever the element bound, so the claim
        # fails (exit 2) instead of the search refusing 30 elements (exit 1)
        b = two_sorted((3, 3), [("E", (0, 0), [(0, 1), (1, 2), (2, 0)])])
        path = write(tmp_path, "b.json", dumps(b))
        a_path = write(tmp_path, "a.json", dumps(reduct(b, (0,))))
        doc = run_json(tmp_path, [
            "verify", "--structure", path, "--target", a_path, "--copies", "3",
        ], expect=2)
        assert {"claim": "cla6_quotient_isomorphic_to_member", "ok": False,
                "detail": "quotient sorts (3, 27) vs member (3, 3)"} in doc["claims"]

    def test_derive_triple(self, tmp_path):
        from uniconstruct.encode import GroupTriple, encode_three_sorted

        c2 = cyclic(2)
        ident = GroupHom(c2, c2, [0, 1])
        s = encode_three_sorted(GroupTriple(c2, c2, c2, ident, ident))
        path = write(tmp_path, "c.json", dumps(s))
        assert main(["derive-triple", "--structure", path]) == 0


class TestSkewCommands:
    def test_mul_inline(self, capsys):
        assert main([
            "skew", "--base", "c2", "--op", "mul",
            "--lhs", '{"shift": 2, "support": [[0, 1]]}',
            "--rhs", '{"shift": -2, "support": [[1, 1]]}',
        ]) == 0

    def test_mul_json_result(self, tmp_path):
        out_path = tmp_path / "r.json"
        assert main([
            "skew", "--base", "c2", "--op", "mul",
            "--lhs", '{"shift": 2, "support": [[0, 1]]}',
            "--rhs", '{"shift": -2, "support": [[1, 1]]}',
            "--format", "json", "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["result"] == {"shift": 0, "support": [[-2, 1], [1, 1]]}

    def test_witness_verified(self):
        assert main([
            "skew", "--base", "s3", "--op", "witness",
            "--element", '{"shift": 1, "support": []}',
        ]) == 0

    def test_pow_and_projections(self, tmp_path):
        out_path = tmp_path / "r.json"
        assert main([
            "skew", "--base", "c3", "--op", "pow",
            "--element", '{"shift": 1, "support": [[0, 1]]}', "--exp", "3",
            "--format", "json", "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["result"]["shift"] == 3
        assert main([
            "skew", "--base", "c3", "--op", "phi23",
            "--element", '{"shift": 5, "support": [[2, 2]]}',
        ]) == 0
        assert main(["skew", "--base", "c3", "--op", "psi0", "--exp", "2"]) == 0

    def test_laws_exit_zero(self, tmp_path):
        out_path = tmp_path / "laws.json"
        assert main([
            "skew", "--base", "s3", "--op", "laws", "--samples", "200",
            "--seed", "3", "--format", "json", "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["seed"] == 3 and doc["associativity"] is True
        assert doc["hom_violations_found"] > 0

    def test_laws_decide_phi23_hom_exactly(self, tmp_path):
        docs = {}
        for base in ("s3", "c4"):
            out_path = tmp_path / f"{base}.json"
            assert main([
                "skew", "--base", base, "--op", "laws", "--samples", "100",
                "--format", "json", "--out", str(out_path),
            ]) == 0
            docs[base] = json.loads(out_path.read_text())
        assert docs["s3"]["phi23_is_hom"] is False
        assert docs["s3"]["phi23_hom_witness"] == [
            {"shift": 0, "support": [[0, 1]]},
            {"shift": 0, "support": [[-1, 2]]},
        ]
        assert docs["c4"]["phi23_is_hom"] is True
        assert docs["c4"]["phi23_hom_witness"] is None
        assert docs["c4"]["hom_violations_found"] == 0

    # hom_violations_found of `skew --op laws --samples 200` before the laws
    # and the hom cross-check shared one sample stream
    LAWS_200_VIOLATIONS = {("s3", 0): 43, ("s3", 1): 46, ("c4", 0): 0, ("c4", 1): 0}
    S3_WITNESS = [{"shift": 0, "support": [[0, 1]]}, {"shift": 0, "support": [[-1, 2]]}]

    @pytest.mark.parametrize("base, seed", sorted(LAWS_200_VIOLATIONS))
    def test_laws_report_bytes_unchanged(self, tmp_path, base, seed):
        out_path = tmp_path / "laws.json"
        assert main([
            "skew", "--base", base, "--op", "laws", "--samples", "200",
            "--seed", str(seed), "--format", "json", "--out", str(out_path),
        ]) == 0
        abelian = base == "c4"
        frozen = {
            "command": "skew", "base": base.upper(), "op": "laws", "seed": seed,
            "samples": 200, "associativity": True, "inverses": True,
            "conjugation_shift": True, "phi23_section": True, "phi23_is_hom": abelian,
            "phi23_hom_witness": None if abelian else self.S3_WITNESS,
            "hom_violations_found": self.LAWS_200_VIOLATIONS[base, seed], "exit_code": 0,
        }
        assert out_path.read_bytes() == (json.dumps(frozen, indent=2) + "\n").encode()

    def test_laws_draw_one_stream(self, monkeypatch):
        # triples need 3 draws per sample and hom pairs the first 2 per
        # sample of the same stream: one Random, 3·samples draws in all
        made, drawn = [], []
        real_random, real_draw = cli.random.Random, skew.random_skew_element

        def counting_random(seed):
            made.append(seed)
            return real_random(seed)

        def counting_draw(*args, **kwargs):
            drawn.append(1)
            return real_draw(*args, **kwargs)

        monkeypatch.setattr(cli.random, "Random", counting_random)
        monkeypatch.setattr(skew, "random_skew_element", counting_draw)
        assert main(["skew", "--base", "s3", "--op", "laws", "--samples", "50"]) == 0
        assert made == [0] and len(drawn) == 150

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_laws_refuse_non_positive_samples(self, capsys, samples):
        assert main(["skew", "--base", "s3", "--op", "laws", "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --samples must be at least 1, not {samples}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "element",
        [
            '{"shift": 0, "support": [[0, 1], [0, 2]]}',  # duplicate position
            '{"shift": true, "support": [[0.7, 1]]}',  # bool shift, float position
            '{"shift": 1, "support": [[0.7, 1]]}',
            '{"shift": 1, "support": [[0, 1.0]]}',
            '{"shift": 1, "support": [[false, 1]]}',
            '{"shift": 1.0}',
            '{"shift": 1, "support": [[0, 1, 2]]}',
            '{"shift": 1, "support": {"0": 1}}',
            '{"support": []}',
        ],
    )
    def test_malformed_element_exits_1(self, capsys, element):
        assert main(["skew", "--base", "c3", "--op", "inv", "--element", element]) == 1
        assert capsys.readouterr().err.startswith("error: malformed skew element document: ")

    @pytest.mark.parametrize("op,given,flag", [
        ("mul", [], "lhs"),
        ("mul", ["--lhs", '{"shift": 1, "support": []}'], "rhs"),
        ("inv", [], "element"),
        ("pow", ["--exp", "2"], "element"),
        ("phi23", [], "element"),
        ("witness", [], "element"),
    ], ids=["mul-lhs", "mul-rhs", "inv", "pow", "phi23", "witness"])
    def test_missing_element_flag_exits_1(self, capsys, op, given, flag):
        assert main(["skew", "--base", "s3", "--op", op, *given]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: skew --op {op} needs --{flag}\n"
        assert captured.out == ""

    def test_cyclic_skew_over_table_bound_exits_1(self, capsys):
        # order 6 * 3**6 = 4374: its table is over the table_cells bound
        tracemalloc.start()
        try:
            code = main(["cyclic-skew", "--k", "6", "--base", "c3"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "order 4374 has 19131876 cells, over the bound" in capsys.readouterr().err
        assert peak < 4374 * 4374  # refused before one byte per cell was allocated

    def test_cyclic_skew_order_is_bounded_by_table_cells(self, capsys):
        # order 7 * 3**7 = 15309: refused by the table_cells bound alone
        assert main(["cyclic-skew", "--k", "7", "--base", "c3"]) == 1
        err = capsys.readouterr().err
        assert "a Cayley table of order 15309 has 234365481 cells, over the bound" in err
        # 5000 * 3**5000 is named by its bit length: its square has too many digits to print
        assert main(["cyclic-skew", "--k", "5000", "--base", "c3"]) == 1
        assert "a Cayley table of order over 2**7937 is over the bound" in capsys.readouterr().err

    @pytest.mark.parametrize("args, power", [
        (["--k", "100000000", "--base", "c3"], 158496276),
        (["--k", "2", "--base", "s3000000"], 60221520),
    ], ids=["k-huge", "base-huge"])
    def test_huge_parameters_refused_before_the_order_is_formed(self, args, power):
        # 3**100000000 or 3000000! alone takes seconds to form; the refusal
        # comes from an estimate of its logarithm
        env = {k: v for k, v in os.environ.items() if not k.startswith("UNICONSTRUCT_")}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
        proc = subprocess.run(
            [sys.executable, "-m", "uniconstruct.cli", "cyclic-skew", *args],
            capture_output=True, text=True, env=env, timeout=5,
        )
        assert proc.returncode == 1
        assert f"a Cayley table of order over 2**{power} is over the bound" in proc.stderr

    def test_cyclic_skew_identifies_catalog_match(self, tmp_path):
        out_path = tmp_path / "cs.json"
        assert main([
            "cyclic-skew", "--k", "2", "--base", "c2",
            "--format", "json", "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["order"] == 8 and doc["catalog_match"] == "D4"


class TestJsonOutput:
    ARGV = ["cyclic-skew", "--k", "3", "--base", "c2", "--format", "json"]

    def expected(self):
        args = cli.build_parser().parse_args(self.ARGV)
        code, doc, _ = cli._cmd_cyclic_skew(args)
        doc["exit_code"] = code
        # the report hands the writer the group's table of int tuples itself
        table = doc["group"]["table"]
        assert type(table) is tuple and all(type(row) is tuple for row in table)
        return (json.dumps(doc, indent=2) + "\n").encode()

    def test_out_file_bytes_equal_dumps(self, tmp_path):
        out_path = tmp_path / "cs.json"
        assert main([*self.ARGV, "--out", str(out_path)]) == 0
        assert out_path.read_bytes() == self.expected()

    def test_stdout_bytes_equal_dumps(self, capsysbinary):
        assert main(self.ARGV) == 0
        assert capsysbinary.readouterr().out == self.expected()


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),  # non-ASCII, quotes, backslashes and control characters
)
_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats())
_DOCS = st.recursive(
    st.one_of(_SCALARS, st.lists(st.integers()), st.lists(st.one_of(st.integers(), st.booleans()))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.tuples(inner, inner),
        st.dictionaries(_KEYS, inner, max_size=5),
    ),
    max_leaves=25,
)


def _written(doc) -> list[str]:
    pieces: list[str] = []
    cli._write_json(pieces.append, doc, {})
    return pieces


class TestGoldenReports:
    # sha256 of whole reports, taken from the list-row builder, the checked
    # writer and the randrange sampler: the bench digests leave out the
    # table and hom_violations_found, which these cover
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["cyclic-skew", "--k", "5", "--base", "c3", "--format", "json"],
             "d836d5cfdcea892e56404756ceb0fc9adab3705a4ea949e0b517beae0356c23f"),
            (["skew", "--base", "s3", "--op", "laws", "--samples", "5000", "--seed", "7",
              "--format", "json"],
             "88213ef622e7dddb8cd8c5ce20284fd4db2a0e3e0277fe866b802aece4d54b78"),
            (["skew", "--base", "s3", "--op", "laws", "--samples", "5000", "--seed", "7"],
             "7cf0f9ce87d09a73e850e75ebbcc56a3387f29b69862618a30dc3b8a6ae3b31e"),
        ],
        ids=["cyclic-skew-k5-c3-json", "skew-laws-s3-json", "skew-laws-s3-text"],
    )
    def test_report_sha256(self, tmp_path, argv, digest):
        out_path = tmp_path / "report"
        assert main([*argv, "--out", str(out_path)]) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(_DOCS)
    def test_equals_dumps_indent_2(self, doc):
        assert "".join(_written(doc)) == json.dumps(doc, indent=2)

    def test_mixed_document(self):
        doc = {
            "ints": [3, -1, 10**20],
            "flags": [1, True, 0, False],
            "nested": [[], {}, [[]], {"é\n\"": [None, float("nan"), float("-inf"), 0.5]}],
            7: {True: None, None: [], 1.5: "\u2028"},
        }
        assert "".join(_written(doc)) == json.dumps(doc, indent=2)

    def test_group_table_skips_the_check_only_while_it_is_the_groups(self):
        g = groups.symmetric(3)
        doc = groups.group_document(g, g.table)
        assert "".join(_written({"group": doc})) == json.dumps({"group": doc}, indent=2)
        doc["table"] = [[True, 1.5], [0, "1"]]  # no longer the group's table
        assert "".join(_written(doc)) == json.dumps(doc, indent=2)

    def test_unsupported_key_rejected_like_json(self):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            _written({(1, 2): 0})
        with pytest.raises(TypeError):
            json.dumps({(1, 2): 0}, indent=2)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (24, 24), (0, 3), (3, 0)])
    @pytest.mark.parametrize(
        "low, high, dtype",
        [
            (0, 24, "int64"),  # a Cayley table's range
            (-7, 7, "int64"),
            (-(2**62), 2**62, "int64"),
            (-128, 128, "int8"),
            (2**63, 2**64, "uint64"),  # past the signed 64-bit top
        ],
    )
    def test_int_array_equals_dumps_of_tolist(self, shape, low, high, dtype):
        # a table of int tuples, as FiniteGroup.table holds, over each range
        arr = np.random.default_rng(sum(shape)).integers(low, high, shape, dtype=dtype)
        rows = tuple(map(tuple, arr.tolist()))
        for doc in (rows, {"group": {"order": 3, "table": rows}}, [rows, [1, rows]]):
            assert "".join(_written(doc)) == json.dumps(doc, indent=2)

    def test_int_array_is_written_one_row_at_a_time(self):
        table = cyclic(200).table
        pieces = _written({"table": table})
        assert "".join(pieces) == json.dumps({"table": table}, indent=2)
        # each row is one piece, and no piece holds cells of two rows
        rows = [piece for piece in pieces if any(c.isdigit() for c in piece)]
        assert len(rows) == 200 and all(piece.count("[") == 1 for piece in rows)

    @pytest.mark.parametrize(
        "arr", [np.zeros((2, 2)), np.zeros(3, dtype=np.int64), np.zeros((2, 2), dtype=bool)]
    )
    def test_other_arrays_rejected_like_json(self, arr):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _written({"a": arr})

    def test_table_is_written_one_row_at_a_time(self):
        table = [list(row) for row in cyclic(200).table]
        pieces = _written({"group": {"order": 200, "table": table}})
        # one piece per row: none near the size of the whole table
        assert len(pieces) > 200
        assert 100 * max(map(len, pieces)) < sum(map(len, pieces))


class TestDispatch:
    def test_every_subcommand_has_a_handler(self):
        sub = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == set(cli._HANDLERS)

    def test_every_bench_job_parses(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "bench" / "jobs.py"
        spec = importlib.util.spec_from_file_location("bench_jobs", path)
        jobs = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "bench_jobs", jobs)
        spec.loader.exec_module(jobs)
        parser = cli.build_parser()
        # every "@name" input is a file path, except the integer laws seed
        inputs = defaultdict(lambda: "input.json", laws_seed="0")
        argvs = [job.argv(inputs) for workload in jobs.WORKLOADS.values() for job in workload]
        assert any("--mode" in argv for argv in argvs)
        for argv in argvs:
            assert parser.parse_args(argv).command == argv[0]

    def test_out_of_memory_is_one_line(self, monkeypatch, capsys):
        # a command that runs out of memory (10 free points over an apex
        # under an address-space cap) ends in one stderr line and exit 1,
        # not a traceback
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "verify", exhausted)
        assert main(["verify", "--structure", "b.json", "--target", "a.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: out of memory in verify\n"


class TestEncodeAttach:
    def test_encode3(self, tmp_path):
        c2 = cyclic(2)
        doc = {
            "g1": group_to_json(c2),
            "g2": group_to_json(c2),
            "g3": group_to_json(cyclic(4)),
            "phi12": [0, 1],
            "phi23": [0, 1, 0, 1],
        }
        path = write(tmp_path, "triple.json", json.dumps(doc))
        out_path = tmp_path / "enc.json"
        assert main([
            "encode3", "--triple", path, "--format", "json", "--out", str(out_path)
        ]) == 0
        report = json.loads(out_path.read_text())
        assert report["ok"] is True
        s = structure_from_json(report["structure"])
        assert s.sort_sizes == (2, 2, 4)

    def test_attach(self, tmp_path):
        b = two_sorted((2, 1), [("R", (0, 1), [(0, 0), (1, 0)])])
        b_path = write(tmp_path, "b.json", dumps(b))
        g3_path = write(tmp_path, "g3.json", json.dumps(group_to_json(cyclic(2))))
        phi_path = write(tmp_path, "phi.json", json.dumps({"map": [0, 1]}))
        out_path = tmp_path / "att.json"
        assert main([
            "attach", "--structure", b_path, "--g3", g3_path,
            "--phi23", phi_path, "--format", "json", "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["c23_has_splitting"] is True

    @pytest.mark.parametrize(
        "n, g3, phi23", [(2, "c2", [0, 0]), (7, "c1", [0])], ids=["free2-c2", "free7-c1"]
    )
    def test_attach_not_onto_fails_verification(self, tmp_path, capsys, n, g3, phi23):
        # a trivial phi23 leaves the derived maps short of Aut(B) = S_n:
        # valid input whose derived problems fail clause (e), so exit 2
        b_path = write(tmp_path, "b.json", dumps(free_over_apex(n)))
        phi_path = write(tmp_path, "phi.json", json.dumps({"map": phi23}))
        argv = ["attach", "--structure", b_path, "--g3", g3, "--phi23", phi_path]
        doc = run_json(tmp_path, argv, 2)
        assert doc["derived_all_weak"] is False
        for key in ("c23_has_splitting", "c23_has_weak_splitting",
                    "c13_has_splitting", "c13_has_weak_splitting"):
            assert doc[key] is None
        capsys.readouterr()
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "c23 splitting: undecided (not onto)" in out
        assert "c13 splitting: undecided (not onto); weak: undecided (not onto)" in out

    def test_attach_with_explicit_phi13(self, tmp_path):
        b = two_sorted((2, 1), [("R", (0, 1), [(0, 0), (1, 0)])])
        b_path = write(tmp_path, "b.json", dumps(b))
        g3_path = write(tmp_path, "g3.json", json.dumps(group_to_json(cyclic(2))))
        phi23_path = write(tmp_path, "phi23.json", json.dumps({"map": [0, 1]}))
        phi13_path = write(tmp_path, "phi13.json", json.dumps({"map": [0, 1]}))
        assert main([
            "attach", "--structure", b_path, "--g3", g3_path,
            "--phi23", phi23_path, "--phi13", phi13_path,
        ]) == 0

    def test_attach_search_count(self, tmp_path, monkeypatch):
        # Aut(B) in the command, then one search per level of the attached
        # structure C in derive_triple; attach_skew reads the restrictions
        # off Aut(B), phi23's codomain, and searches nothing
        searched = []

        def counted(s, **kwargs):
            searched.append(s)
            return aut_group(s, **kwargs)

        for mod in (groups, ucp):
            monkeypatch.setattr(mod, "aut_group", counted)
        b = two_sorted((2, 1), [("R", (0, 1), [(0, 0), (1, 0)])])
        b_path = write(tmp_path, "b.json", dumps(b))
        g3_path = write(tmp_path, "g3.json", json.dumps(group_to_json(cyclic(2))))
        phi_path = write(tmp_path, "phi.json", json.dumps({"map": [0, 1]}))
        assert main(["attach", "--structure", b_path, "--g3", g3_path, "--phi23", phi_path]) == 0
        a = reduct(b, (0,))
        assert searched[:3] == [b, b, a]
        assert len(searched) == 4 and searched[3].sort_sizes == (2, 1, 2)

    def test_attach_decides_without_listing_sections(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("attach listed the sections")

        monkeypatch.setattr(groups, "classify_sections", refuse)
        b = two_sorted((2, 1), [("R", (0, 1), [(0, 0), (1, 0)])])
        b_path = write(tmp_path, "b.json", dumps(b))
        g3_path = write(tmp_path, "g3.json", json.dumps(group_to_json(cyclic(2))))
        phi_path = write(tmp_path, "phi.json", json.dumps({"map": [0, 1]}))
        out_path = tmp_path / "att.json"
        assert main([
            "attach", "--structure", b_path, "--g3", g3_path, "--phi23", phi_path,
            "--phi13", phi_path, "--format", "json", "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["c23_has_splitting"] is True and doc["c13_has_weak_splitting"] is True


class TestUniformize:
    def test_uniformize_emits_structure(self, tmp_path):
        b = two_sorted((2, 1), [("R", (0, 1), [(0, 0), (1, 0)])])
        b_path = write(tmp_path, "b.json", dumps(b))
        a_doc = {
            "sorts": [{"name": "p", "size": 2}],
            "relations": [],
            "functions": [],
            "constants": [],
        }
        a_path = write(tmp_path, "a.json", json.dumps(a_doc))
        out_path = tmp_path / "f.json"
        code = main([
            "uniformize", "--structure", b_path, "--target", a_path,
            "--copies", "2", "--format", "json", "--out", str(out_path),
        ])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["claims_all_pass"] is True
        f = structure_from_json(doc["structure"])
        assert f.sort_sizes == (2, 1)

    def test_verify_standalone(self, tmp_path):
        b = two_sorted((2, 1), [("R", (0, 1), [(0, 0), (1, 0)])])
        b_path = write(tmp_path, "b.json", dumps(b))
        a_path = write(
            tmp_path,
            "a.json",
            json.dumps(
                {
                    "sorts": [{"name": "p", "size": 2}],
                    "relations": [],
                    "functions": [],
                    "constants": [],
                }
            ),
        )
        assert main([
            "verify", "--structure", b_path, "--target", a_path, "--copies", "2"
        ]) == 0

    def test_verify_searches_each_group_once(self, tmp_path, monkeypatch):
        searched = []

        def counted(s, **kwargs):
            searched.append(s)
            return aut_group(s, **kwargs)

        for mod in (cli, ucp, uniform):
            if hasattr(mod, "aut_group"):
                monkeypatch.setattr(mod, "aut_group", counted)
        b = two_sorted(
            (3, 1),
            [("E", (0, 0), [(0, 1), (1, 2), (2, 0)]), ("R", (0, 1), [(0, 0), (1, 0), (2, 0)])],
        )
        b_path = write(tmp_path, "b.json", dumps(b))
        a_path = write(tmp_path, "a.json", dumps(reduct(b, (0,))))
        assert main([
            "verify", "--structure", b_path, "--target", a_path, "--copies", "3"
        ]) == 0
        assert searched == [b, reduct(b, (0,))]

    def test_structure_equals_representative_oracle(self, tmp_path):
        b = two_sorted((2, 1), [("R", (0, 1), [(0, 0), (1, 0)])])
        b_path = write(tmp_path, "b.json", dumps(b))
        a_path = write(
            tmp_path,
            "a.json",
            json.dumps(
                {
                    "sorts": [{"name": "p", "size": 2}],
                    "relations": [],
                    "functions": [],
                    "constants": [],
                }
            ),
        )
        fam = build_family(assemble_ucp(b), [0, 1], 2)
        want = structure_to_json(naive_representative_structure(fam.members[0].A, fam))
        for mode in ((), ("--mode", "full")):
            out_path = tmp_path / "f.json"
            assert main([
                "uniformize", "--structure", b_path, "--target", a_path,
                "--copies", "2", *mode,
                "--format", "json", "--out", str(out_path),
            ]) == 0
            doc = json.loads(out_path.read_text())
            assert "mode" not in doc
            assert doc["structure"] == want

    def test_determinism_byte_identical(self, tmp_path):
        b = two_sorted((2, 1), [("R", (0, 1), [(0, 0), (1, 0)])])
        b_path = write(tmp_path, "b.json", dumps(b))
        a_path = write(
            tmp_path,
            "a.json",
            json.dumps(
                {
                    "sorts": [{"name": "p", "size": 2}],
                    "relations": [],
                    "functions": [],
                    "constants": [],
                }
            ),
        )
        outs = []
        for name in ("one.json", "two.json"):
            out_path = tmp_path / name
            assert main([
                "uniformize", "--structure", b_path, "--target", a_path,
                "--copies", "2", "--format", "json", "--out", str(out_path),
            ]) == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]


def test_relabelings_are_made_lazily(tmp_path):
    # 11 ordered points over an apex: 12 elements, inside the default bound,
    # but 11! relabelings; listing them all before taking the identity ran
    # out of memory under this cap, and enumerating them to count the copy
    # set went over the relabeling bound
    n = 11
    b = two_sorted((n, 1), [
        ("L", (0, 0), [(i, j) for i in range(n) for j in range(i + 1, n)]),
        ("R", (0, 1), [(i, 0) for i in range(n)]),
    ])
    b_path = write(tmp_path, "b.json", dumps(b))
    a_path = write(tmp_path, "a.json", dumps(reduct(b, (0,))))
    cap = 1 << 30

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = {k: v for k, v in os.environ.items() if not k.startswith("UNICONSTRUCT_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-m", "uniconstruct.cli", "verify", "--structure", b_path,
         "--target", a_path, "--copies", "1", "--format", "json"],
        env=env, cwd=REPO, capture_output=True, text=True, preexec_fn=limit_address_space,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["claims_all_pass"] is True
    claim = next(c for c in doc["claims"] if c["claim"] == "copy_set_definable_from_family")
    assert claim["detail"] == "39916800 canonical copies shared by all members"


class TestVerificationExitCode:
    def test_uniformize_kernel_family_exits_2(self, tmp_path):
        # two copies over a kernel-nontrivial structure: claims fail honestly
        b = two_sorted((1, 2), [("Eq", (1, 1), [(0, 0), (1, 1)])])
        b_path = write(tmp_path, "b.json", dumps(b))
        a_path = write(
            tmp_path,
            "a.json",
            json.dumps(
                {
                    "sorts": [{"name": "p", "size": 1}],
                    "relations": [],
                    "functions": [],
                    "constants": [],
                }
            ),
        )
        assert main([
            "verify", "--structure", b_path, "--target", a_path, "--copies", "2"
        ]) == 2

    def test_uniformize_kernel_family_keeps_claims_report(self, tmp_path, capsys):
        b = two_sorted((1, 2), [("Eq", (1, 1), [(0, 0), (1, 1)])])
        b_path = write(tmp_path, "b.json", dumps(b))
        a_path = write(tmp_path, "a.json", json.dumps({
            "sorts": [{"name": "p", "size": 1}],
            "relations": [],
            "functions": [],
            "constants": [],
        }))
        out_path = tmp_path / "f.json"
        assert main([
            "uniformize", "--structure", b_path, "--target", a_path, "--copies", "2",
            "--mode", "full", "--format", "json", "--out", str(out_path),
        ]) == 2
        doc = json.loads(out_path.read_text())
        assert doc["claims_all_pass"] is False and doc["exit_code"] == 2
        assert "structure" not in doc
        assert any(not c["ok"] for c in doc["claims"])
        assert main([
            "uniformize", "--structure", b_path, "--target", a_path, "--copies", "2",
        ]) == 2
        assert "no structure emitted" in capsys.readouterr().out


class TestOneSpacePerCall:
    @pytest.mark.parametrize("command,name,copies,expect", [
        ("uniformize", "cycle3", 3, 0),
        ("verify", "cycle3", 2, 0),
        ("uniformize", "kernel", 2, 2),
        ("verify", "kernel", 2, 2),
    ])
    def test_one_triple_space_per_call(self, tmp_path, monkeypatch, command, name, copies, expect):
        built = []
        init = uniform.TripleSpace.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(uniform.TripleSpace, "__init__", counted)
        b = {
            "cycle3": two_sorted((3, 1), [
                ("E", (0, 0), [(0, 1), (1, 2), (2, 0)]), ("R", (0, 1), [(0, 0), (1, 0), (2, 0)]),
            ]),
            "kernel": two_sorted((1, 2), [("Eq", (1, 1), [(0, 0), (1, 1)])]),
        }[name]
        b_path = write(tmp_path, "b.json", dumps(b))
        a_path = write(tmp_path, "a.json", dumps(reduct(b, (0,))))
        doc = run_json(tmp_path, [
            command, "--structure", b_path, "--target", a_path, "--copies", str(copies),
        ], expect=expect)
        assert doc["claims_all_pass"] is (expect == 0)
        assert ("structure" in doc) is (command == "uniformize" and expect == 0)
        assert len(built) == 1


def _bad_docs(good: dict, field: str):
    """(id, document, message fragment) for ``good`` made malformed as a
    whole or at ``field``, which must hold a list of JSON integers."""
    return [
        ("list", [good], "expected a JSON object, not list"),
        ("int", 3, "expected a JSON object, not int"),
        ("missing", {k: v for k, v in good.items() if k != field}, f"missing field {field!r}"),
    ] + [
        (name, {**good, field: value}, f"field {field!r} must be a list of integers")
        for name, value in (
            ("not-a-list", 0), ("mixed", ["a", {}]), ("fraction", [0, 1.5]), ("bool", [0, True]),
        )
    ]


BAD_MAPS = _bad_docs({"map": [0, 1]}, "map")
C2 = group_to_json(cyclic(2))
TRIPLE = {"g1": C2, "g2": C2, "g3": group_to_json(cyclic(4)), "phi12": [0, 1], "phi23": [0, 1, 0, 1]}
BAD_TRIPLES = _bad_docs(TRIPLE, "phi12") + [
    (f"{name}-phi23", doc, fragment) for name, doc, fragment in _bad_docs(TRIPLE, "phi23")[2:]
]


class TestMapFiles:
    @pytest.mark.parametrize("doc,fragment", [d[1:] for d in BAD_MAPS], ids=[d[0] for d in BAD_MAPS])
    @pytest.mark.parametrize("flag", [
        "ucp-check --psi", "verify --psi", "uniformize --psi", "attach --phi23", "attach --phi13",
    ])
    def test_bad_map_file_exits_1_naming_it(self, tmp_path, capsys, flag, doc, fragment):
        b = two_sorted((2, 1), [("R", (0, 1), [(0, 0), (1, 0)])])
        b_path = write(tmp_path, "b.json", dumps(b))
        a_path = write(tmp_path, "a.json", dumps(reduct(b, (0,))))
        g3_path = write(tmp_path, "g3.json", json.dumps(C2))
        good = write(tmp_path, "good.json", json.dumps({"map": [0, 1]}))
        bad = write(tmp_path, "bad.json", json.dumps(doc))
        command, option = flag.split()
        argv = {
            "ucp-check": ["--structure", b_path],
            "verify": ["--structure", b_path, "--target", a_path],
            "uniformize": ["--structure", b_path, "--target", a_path],
            "attach": ["--structure", b_path, "--g3", g3_path, "--phi23", good],
        }[command]
        if option in argv:  # the flag under test replaces its good file
            argv = argv[:-2]
        assert main([command, *argv, option, bad]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {fragment}\n"

    @pytest.mark.parametrize("doc,fragment", [d[1:] for d in BAD_TRIPLES],
                             ids=[d[0] for d in BAD_TRIPLES])
    def test_bad_encode3_triple_exits_1_naming_it(self, tmp_path, capsys, doc, fragment):
        path = write(tmp_path, "triple.json", json.dumps(doc))
        assert main(["encode3", "--triple", path]) == 1
        assert capsys.readouterr().err == f"error: {path}: {fragment}\n"


class TestGroupDocuments:
    C3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

    @pytest.mark.parametrize("doc, fragment", [
        # crashed build_cyclic_skew's name join with a TypeError
        ({"order": 3, "table": C3_TABLE, "names": [1, 2]}, "names must be a list of 3 strings"),
        ({"order": 3, "table": C3_TABLE, "names": ["a", "b"]}, "names must be a list of 3 strings"),
        # was read as C2, and cyclic-skew reported D4 with exit 0
        ({"order": 2, "table": [[0, 1.0], [True, False]]},
         "table must be a list of lists of integers"),
        ({"order": 2.0, "table": [[0, 1], [1, 0]]}, "order must be an integer, not 2.0"),
        ({"order": True, "table": [[0]]}, "order must be an integer, not True"),
        ({"order": 2, "table": [0, 1]}, "table must be a list of lists of integers"),
        ({"order": 1, "table": [[0, 1], [1, 0]]}, "declared order does not match table size"),
        ({"table": [[0]]}, "missing field 'order'"),
        ([[0]], "expected a JSON object, not list"),
    ], ids=["int-names", "short-names", "float-bool-cells", "float-order", "bool-order",
            "flat-table", "wrong-order", "no-order", "list"])
    def test_malformed_group_exits_1(self, tmp_path, capsys, doc, fragment):
        path = write(tmp_path, "g.json", json.dumps(doc))
        assert main(["cyclic-skew", "--k", "2", "--base", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: malformed group document: {fragment}\n"
        assert captured.out == ""

    def test_element_names_are_read(self, tmp_path, capsys):
        doc = {"order": 3, "table": self.C3_TABLE, "names": ["e", "a", "b"]}
        path = write(tmp_path, "g.json", json.dumps(doc))
        element = '{"shift": 0, "support": [[0, 2]]}'
        assert main(["skew", "--base", path, "--op", "phi23", "--element", element]) == 0
        assert capsys.readouterr().out.endswith(" = b\n")


class TestStructureAndHomDocuments:
    C2 = {"order": 2, "table": [[0, 1], [1, 0]]}

    @staticmethod
    def points(size=3, tuples=((0,), (2,))):
        return {"sorts": [{"name": "p", "size": size}],
                "relations": [{"name": "U", "signature": ["p"], "tuples": [list(t) for t in tuples]}]}

    # each was coerced with int() or str() and answered with exit 0
    @pytest.mark.parametrize("doc, fragment", [
        (points(size=3.0), "sort size must be an integer, not 3.0"),
        (points(tuples=((0,), (True,))), "relation tuple must be a list of integers, not [True]"),
        (points(tuples=((2.0,),)), "relation tuple must be a list of integers, not [2.0]"),
        (points(tuples=(("1",),)), "relation tuple must be a list of integers, not ['1']"),
        ({"sorts": [{"name": 3, "size": 2}],
          "relations": [{"name": "E", "signature": ["3", "3"], "tuples": [[0, 1]]}]},
         "sort name must be a string, not 3"),
        ({"sorts": [{"name": "p", "size": 2}],
          "relations": [{"name": 7, "signature": ["p", "p"], "tuples": [[0, 1]]}]},
         "relation name must be a string, not 7"),
    ], ids=["float-size", "bool-entry", "float-entry", "string-entry", "int-sort-name",
            "int-relation-name"])
    def test_malformed_structure_exits_1(self, tmp_path, capsys, doc, fragment):
        path = write(tmp_path, "s.json", json.dumps(doc))
        assert main(["aut", "--structure", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: malformed structure document: {fragment}\n"
        assert captured.out == ""

    def test_integer_structure_is_read(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", json.dumps(self.points()))
        assert main(["aut", "--structure", path]) == 0
        assert "2 automorphisms" in capsys.readouterr().out

    @pytest.mark.parametrize("mapping, fragment", [
        ([0, True], "map must be a list of integers, not [0, True]"),
        ([0.0, 1], "map must be a list of integers, not [0.0, 1]"),
    ], ids=["bool-entry", "float-entry"])
    def test_malformed_hom_exits_1(self, tmp_path, capsys, mapping, fragment):
        doc = {"domain": self.C2, "codomain": self.C2, "map": mapping}
        path = write(tmp_path, "h.json", json.dumps(doc))
        assert main(["split", "--hom", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: malformed hom document: {fragment}\n"
        assert captured.out == ""


class TestCatalogSearch:
    def test_small_search_runs(self, tmp_path):
        out_path = tmp_path / "cs.json"
        assert main([
            "catalog-search", "--max-order", "8",
            "--format", "json", "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert "witness_count" in doc

    @pytest.mark.parametrize("max_order", ["0", "-3"])
    def test_non_positive_max_order_exits_1(self, capsys, max_order):
        assert main(["catalog-search", "--max-order", max_order]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --max-order must be at least 1, not {max_order}\n"
        assert captured.out == ""


# the package's re-exports while `__init__` imported every submodule eagerly
REEXPORTS = {
    "errors": (
        "BoundExceededError", "GroupError", "SignatureMismatchError", "StructureError",
        "UniconstructError", "VerificationError",
    ),
    "structures": (
        "SortedMap", "SortedSignature", "SortedStructure", "automorphisms", "identity_map",
        "isomorphisms", "reduct", "relabel", "relabel_map", "validate",
    ),
    "groups": (
        "AutomorphismGroup", "FiniteGroup", "GroupHom", "Section", "alternating", "aut_group",
        "catalog", "catalog_search_weak_not_strong", "center", "classify_section",
        "classify_sections", "cyclic", "dicyclic", "dihedral", "direct_product",
        "find_isomorphism", "is_hom", "is_surjective", "quotient_by_center",
        "quotient_by_subgroup", "surjective_homs", "symmetric",
    ),
    "skew": (
        "CyclicSkewGroup", "SkewElement", "build_cyclic_skew", "center_witness",
        "phi13", "phi23", "phi23_hom_witness", "psi0", "shift_generator", "skew_from_support",
        "skew_identity", "skew_inv", "skew_mul", "skew_pow",
    ),
    "ucp": ("UniConstructionProblem", "assemble_ucp", "derive_triple"),
    "encode": ("GroupTriple", "attach_skew", "encode_three_sorted", "theta", "verify_theta_iso"),
    "uniform": (
        "Family", "LiftedCopy", "MatchedTriple", "TripleSpace", "build_family",
        "build_quotient", "uniform_F", "verify_claims",
    ),
}
REPO = Path(__file__).resolve().parents[1]
SRC = Path(cli.__file__).resolve().parents[1]
THREADS = "len(os.listdir('/proc/self/task'))"
needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads"
)


def fresh_python(code):
    """Run ``code`` in a new interpreter that imports this tree's package;
    return its stripped stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, cwd=REPO,
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


class TestProcessStart:
    @needs_proc_tasks
    def test_module_entry_point_runs_one_thread(self):
        # `python -m uniconstruct.cli` (through runpy, as -m does) on a
        # command that builds, checks and writes a Cayley table loads no
        # numpy and starts no thread of its own
        out = fresh_python(f"""
            import os, runpy, sys
            sys.argv = ["uniconstruct", "cyclic-skew", "--k", "3", "--base", "c2", "--out", os.devnull]
            try:
                runpy.run_module("uniconstruct.cli", run_name="__main__", alter_sys=True)
            except SystemExit:
                pass
            print("numpy" in sys.modules, {THREADS})
        """)
        assert out.splitlines()[-1] == "False 1"

    def test_commands_import_no_dataclasses(self, tmp_path):
        # the record classes are plain __slots__ classes, so no command
        # imports dataclasses, nor inspect (and ast, dis, tokenize) through it
        b = two_sorted((3, 1), [
            ("E", (0, 0), [(0, 1), (1, 2), (2, 0)]),
            ("R", (0, 1), [(0, 0), (1, 0), (2, 0)]),
        ])
        b_path = write(tmp_path, "b.json", dumps(b))
        a_path = write(tmp_path, "a.json", dumps(reduct(b, (0,))))
        triple_path = write(tmp_path, "triple.json", json.dumps({
            "g1": group_to_json(cyclic(2)), "g2": group_to_json(cyclic(2)),
            "g3": group_to_json(cyclic(4)), "phi12": [0, 1], "phi23": [0, 1, 0, 1],
        }))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
        for argv in (
            ["verify", "--structure", b_path, "--target", a_path, "--copies", "2"],
            ["ucp-check", "--structure", b_path],
            ["encode3", "--triple", triple_path],
            ["cyclic-skew", "--k", "3", "--base", "c2"],
            ["catalog-search", "--max-order", "8"],
            ["skew", "--base", "s3", "--op", "laws", "--samples", "200"],
        ):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "uniconstruct.cli", *argv, "--out", os.devnull],
                env=env, cwd=tmp_path, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr[-500:]
            imported = {
                line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")
            }
            assert "uniconstruct.errors" in imported
            assert not imported & {"dataclasses", "inspect"}, argv[0]

    # argv with "@name" for an input file -> the layers the command loads
    # and whether it loads numpy, which no command does
    LOAD_SETS = [
        (["aut", "--structure", "@cycle3"], "structures", False),
        (["iso", "--left", "@cycle3", "--right", "@cycle3"], "structures", False),
        (["ucp-check", "--structure", "@b_cycle3"], "groups structures ucp", False),
        (["derive-triple", "--structure", "@tower"], "groups structures ucp", False),
        (["uniformize", "--structure", "@b_cycle3", "--target", "@cycle3", "--copies", "2",
          "--mode", "full"], "groups structures ucp uniform", False),
        (["verify", "--structure", "@b_cycle3", "--target", "@cycle3", "--copies", "2"],
         "groups structures ucp uniform", False),
        (["split", "--hom", "@c4toc2"], "groups", False),
        (["weak-split", "--hom", "@c4toc2"], "groups", False),
        (["catalog-search", "--max-order", "8"], "groups", False),
        (["skew", "--base", "s3", "--op", "pow", "--element", '{"shift": 1, "support": []}',
          "--exp", "2"], "groups skew", False),
        (["cyclic-skew", "--k", "2", "--base", "c2"], "groups skew", False),
        (["--version"], "", False),
        (["--help"], "", False),
        (["aut"], "", False),  # usage error: --structure is required
        (["no-such-command"], "", False),
    ]

    @pytest.mark.parametrize("argv, layers, numpy", LOAD_SETS, ids=[
        "aut", "iso", "ucp-check", "derive-triple", "uniformize", "verify", "split", "weak-split", "catalog-search", "skew", "cyclic-skew",
        "version", "help", "usage-error", "unknown-command",
    ])
    def test_each_command_loads_only_its_layers(self, tmp_path, argv, layers, numpy):
        c2 = cyclic(2)
        ident = GroupHom(c2, c2, [0, 1])
        tower = encode.encode_three_sorted(encode.GroupTriple(c2, c2, c2, ident, ident))
        inputs = {
            "cycle3": write(tmp_path, "cyc3.json", dumps(directed_cycle(3))),
            "b_cycle3": write(tmp_path, "b_cyc3.json", dumps(two_sorted((3, 1), [
                ("E", (0, 0), [(0, 1), (1, 2), (2, 0)]),
                ("R", (0, 1), [(0, 0), (1, 0), (2, 0)]),
            ]))),
            "tower": write(tmp_path, "tower.json", dumps(tower)),
            "c4toc2": write(tmp_path, "c4toc2.json", json.dumps(
                hom_to_json(GroupHom(cyclic(4), cyclic(2), [0, 1, 0, 1]))
            )),
        }
        argv = [inputs[a[1:]] if a.startswith("@") else a for a in argv]
        out = fresh_python(f"""
            import sys
            from uniconstruct.cli import main
            try:
                main({argv!r})
            except SystemExit:
                pass
            layers = {{"structures", "groups", "skew", "ucp", "encode", "uniform"}}
            loaded = {{m.split(".")[1] for m in sys.modules if m.startswith("uniconstruct.")}}
            print(repr(" ".join(sorted(loaded & layers))), "numpy" in sys.modules)
        """)
        assert out.splitlines()[-1] == f"{layers!r} {numpy}"

    def test_structure_layers_import_no_numpy(self):
        # every layer runs on Python rows: automorphism groups, restriction
        # maps and section labels, and Cayley-table groups, their catalog,
        # skew tables and JSON documents
        out = fresh_python("""
            import sys
            from uniconstruct import encode, groups, skew, structures, ucp, uniform
            before = "numpy" in sys.modules
            groups.group_to_json(skew.build_cyclic_skew(3, groups.cyclic(2)).group)
            groups.catalog(8)
            print(before, "numpy" in sys.modules)
        """)
        assert out == "False False"

    def test_package_import_is_lazy_and_leaves_environment_alone(self):
        out = fresh_python("""
            import os, sys
            before = dict(os.environ)
            import uniconstruct
            print("numpy" in sys.modules, dict(os.environ) == before)
        """)
        assert out == "False True"

    def test_every_reexport_resolves(self):
        out = fresh_python("""
            ns = {}
            exec("from uniconstruct import *", ns)
            print(" ".join(sorted(ns)))
        """)
        star = set(out.split())
        import uniconstruct

        for module, names in REEXPORTS.items():
            mod = importlib.import_module(f"uniconstruct.{module}")
            for name in names:
                assert getattr(uniconstruct, name) is getattr(mod, name)
                assert name in star
                assert name in dir(uniconstruct)
            assert getattr(uniconstruct, module) is mod
        with pytest.raises(AttributeError):
            uniconstruct.no_such_name

    def test_readme_worked_example(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        section = readme.split("## A worked example", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        assert fresh_python(code).splitlines()[-1] == "True False"
