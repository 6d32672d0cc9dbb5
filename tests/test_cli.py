from __future__ import annotations

import argparse
import importlib.util
import io
import json
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniconstruct import cli, ucp, uniform
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
from uniconstruct.structures import dumps, reduct, structure_from_json, structure_to_json
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

    def test_ucp_check_psi_over_table_bound_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "b.json", dumps(free_over_apex(7)))
        psi_path = write(tmp_path, "psi.json", json.dumps({"map": list(range(5040))}))
        tracemalloc.start()
        try:
            code = main(["ucp-check", "--structure", path, "--psi", psi_path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "order 5040 has 25401600 cells, over the bound" in capsys.readouterr().err
        assert peak < 5040 * 5040  # refused before one byte per cell was allocated

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

    def test_cyclic_skew_over_table_bound_exits_1(self, capsys):
        # order 6 * 3**6 = 4374 is within cyclic_skew_order, its table is not
        tracemalloc.start()
        try:
            code = main(["cyclic-skew", "--k", "6", "--base", "c3"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "order 4374 has 19131876 cells, over the bound" in capsys.readouterr().err
        assert peak < 4374 * 4374  # refused before one byte per cell was allocated

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
    cli._write_json(pieces.append, doc, cli._IntText().__getitem__)
    return pieces


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

    def test_unsupported_key_rejected_like_json(self):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            _written({(1, 2): 0})
        with pytest.raises(TypeError):
            json.dumps({(1, 2): 0}, indent=2)

    def test_table_is_written_one_row_at_a_time(self):
        table = cyclic(200).table.tolist()
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
        fam = build_family(b, [0, 1], 2)
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


class TestCatalogSearch:
    def test_small_search_runs(self, tmp_path):
        out_path = tmp_path / "cs.json"
        assert main([
            "catalog-search", "--max-order", "8",
            "--format", "json", "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert "witness_count" in doc
