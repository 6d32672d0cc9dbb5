"""Tests of the benchmark's own arithmetic, answer extraction and inputs.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import filecmp

import gen
import jobs
import pytest
import tracer


def span(parent, start, end, name=0):
    return (name, start, end, parent)


class TestSelfTimes:
    def test_nested_children_are_subtracted_once(self):
        spans = [span(-1, 0.0, 10.0), span(0, 1.0, 5.0), span(1, 2.0, 4.0)]
        assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 2.0])

    def test_back_to_back_children(self):
        spans = [span(-1, 0.0, 10.0), span(0, 1.0, 3.0), span(0, 3.0, 6.0)]
        assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 3.0])

    def test_overlap_is_counted_once_and_clipped_to_the_parent(self):
        assert tracer.covered([(1.0, 4.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
        spans = [span(-1, 0.0, 4.0), span(0, 3.0, 6.0)]
        assert tracer.self_times(spans)[0] == pytest.approx(3.0)

    def test_summarize_adds_per_name_and_per_layer(self):
        doc = {
            "names": ["groups.center", "structures.isomorphisms"],
            "spans": [span(-1, 0.0, 4.0, 1), span(0, 1.0, 2.0, 0), span(0, 2.0, 3.0, 0)],
            "totals": {"groups.center.calls": 2},
        }
        out = tracer.summarize(doc)
        assert out["structures.isomorphisms.self_s"] == pytest.approx(2.0)
        assert out["groups.center.self_s"] == pytest.approx(2.0)
        assert out["groups.self_s"] == pytest.approx(2.0)
        assert out["groups.center.calls"] == 2


class TestRecorder:
    def test_spans_counts_and_deltas(self):
        rec = tracer.Recorder("job")
        inner = rec.wrap(lambda x: x + 1, "groups.classify_section")  # count only

        def outer_fn(n):
            return [inner(i) for i in range(n)]

        outer = rec.wrap(outer_fn, "groups.classify_sections")
        assert outer(3) == [1, 2, 3]
        doc = rec.document()
        assert doc["names"] == ["groups.classify_sections"]
        assert len(doc["spans"]) == 1 and doc["spans"][0][3] == -1
        assert doc["totals"]["groups.classify_section.calls"] == 3
        assert doc["totals"]["groups.classify_sections.checked"] == 3


def claims_doc(key, ok_second=True, detail="x", **extra):
    entries = [{key: "first", "ok": True, "detail": detail},
               {key: "second", "ok": ok_second, "detail": detail, **extra}]
    return {"command": "verify", "copies": 2, "claims_all_pass": ok_second, "claims": entries}


class TestAnswers:
    def test_report_key_names_details_and_timings_do_not_change_the_digest(self):
        base = jobs.digest(0, jobs.answer("verify", claims_doc("claim")))
        merged = claims_doc("name", detail="other words", elapsed_s=1.5)
        assert jobs.digest(0, jobs.answer("verify", merged)) == base

    def test_a_failing_claim_changes_the_digest(self):
        good = jobs.answer("verify", claims_doc("claim"))
        bad = jobs.answer("verify", claims_doc("claim", ok_second=False))
        assert bad["failed"] == ["second"]
        assert jobs.digest(2, bad) != jobs.digest(0, good)

    def test_sampled_counts_are_left_out(self):
        doc = {"command": "skew", "op": "laws", "samples": 10, "associativity": True,
               "inverses": True, "conjugation_shift": True, "phi23_section": True,
               "hom_violations_found": 3, "seed": 1}
        other = dict(doc, hom_violations_found=4, seed=2)
        assert jobs.answer("skew", doc) == jobs.answer("skew", other)

    def test_uniformize_output_must_restrict_to_the_target(self):
        job = next(j for j in jobs.WORKLOADS["reconstruct"] if j.command == "uniformize")
        target = {"sorts": [{"name": "p", "size": 3}],
                  "relations": [{"name": "E", "signature": ["p", "p"],
                                 "tuples": [[0, 2], [2, 1], [1, 0]]}]}
        emitted = {"sorts": [{"name": "p", "size": 3}, {"name": "q", "size": 1}],
                   "relations": [{"name": "E", "signature": ["p", "p"],
                                  "tuples": [[1, 0], [0, 2], [2, 1]]},
                                 {"name": "R", "signature": ["p", "q"],
                                  "tuples": [[0, 0], [1, 0], [2, 0]]}]}
        inputs = {job.facts["target"]: target}
        assert jobs.check_facts(job, {"structure": emitted}, inputs) == []
        emitted["relations"][0]["tuples"] = [[0, 1], [1, 2], [2, 0]]
        assert jobs.check_facts(job, {"structure": emitted}, inputs) != []

    def test_split_facts(self):
        job = next(j for j in jobs.WORKLOADS["algebra"] if j.command == "split")
        doc = {"candidates": 65536, "has_splitting": False, "has_weak_splitting": True}
        assert jobs.check_facts(job, doc, {}) == ["D16 -> D16/Z must have no splitting of either kind"]


class TestGenerator:
    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        one = gen.generate(11, tmp_path / "one")
        two = gen.generate(11, tmp_path / "two")
        assert one.keys() == two.keys()
        files = [k for k, v in one.items() if v.endswith(".json")]
        for name in files:
            assert filecmp.cmp(one[name], two[name], shallow=False), name

    def test_seed_relabels_the_inputs(self, tmp_path):
        one = gen.generate(1, tmp_path / "one")
        two = gen.generate(2, tmp_path / "two")
        differ = [k for k, v in one.items() if v.endswith(".json")
                  and not filecmp.cmp(v, two[k], shallow=False)]
        assert "hom_d16_center" in differ and "triple_s4-s3-c2" in differ

    def test_every_job_input_is_generated(self, tmp_path):
        inputs = gen.generate(0, tmp_path)
        for job_list in jobs.WORKLOADS.values():
            for job in job_list:
                job.argv(inputs)
