from fractions import Fraction as F
from pathlib import Path

import pytest

from crdyn import gallery
from crdyn.io import parse_instance, serialize_instance


GOLDEN_RUN_ALL = Path(__file__).resolve().parent / "golden" / "gallery_run_all.txt"


def rows_for(name):
    return {r.label: r for r in gallery.build(name).run()}


class TestRegistry:
    def test_names_cover_the_corpus(self):
        expected = {
            "illegal-pair", "pair-sink", "fse1", "dens", "ex1", "ex2", "ex3",
            "ex4", "fse2", "fse3", "ff", "tistile0", "tistile", "exxi",
            "exhura", "ex31", "ex32",
        }
        assert expected <= set(gallery.names())

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            gallery.build("nope")

    def test_default_builds_are_cached(self):
        assert gallery.build("fse1") is gallery.build("fse1")


class TestFiniteInstances:
    def test_illegal_pair_rows(self):
        rows = rows_for("illegal-pair")
        assert rows["illegal set is {2}"].status == "pass"
        assert rows["classify(2) = illegal"].status == "pass"

    def test_fse1_rows(self):
        rows = rows_for("fse1")
        assert all(r.status == "pass" for r in rows.values())

    def test_pair_sink_rows(self):
        rows = rows_for("pair-sink")
        assert rows["type-2 points are exactly {1}"].status == "pass"
        assert rows["system is not transitive"].status == "pass"

    def test_ex32_depth_parameter(self):
        rows = {r.label: r for r in gallery._ex32(3).run()}
        assert rows["branch cover size is 5 at depth 3"].status == "pass"


class TestSymbolicInstances:
    def test_ff_reach_rows(self):
        rows = rows_for("ff")
        assert rows["stabilized reach of 2 is {2, y, 1}"].status == "pass"
        assert rows["one-step reach of 0 is the whole space (grade 1)"].status == "pass"

    def test_ex1_separation(self):
        rows = rows_for("ex1")
        assert rows["1/2 has an eps-dense walk (type-2 witness)"].status == "pass"
        assert rows["the constant walk at 1/2 is not dense for eps < 1/4"].status == "pass"

    def test_fse2_unknowns_are_expected(self):
        rows = rows_for("fse2")
        assert rows["2 has an eps-dense walk"].status == "pass"
        assert rows["no eps-dense walk from 3"].status == "unknown-expected"

    def test_surrogates_are_interior_dyadics(self):
        x = gallery.tent_surrogate()
        assert 0 < x < 1
        assert x.denominator & (x.denominator - 1) == 0  # a power of two
        x1, x2 = gallery.exhura_surrogates()
        assert 0 < x1 < F(1, 2) < x2 < 1


class TestRunAll:
    def test_everything_green(self):
        results = gallery.run_all()
        bad = [r for r in results if not r.ok]
        assert not bad, bad
        # the corpus records some claims as horizon-limited on purpose
        assert any(r.status == "unknown-expected" for r in results)
        # the report, node counts included, is byte-identical to the checked-in one
        assert gallery.gallery_report_lines(results) == GOLDEN_RUN_ALL.read_text().splitlines()


class TestExport:
    def test_documents_roundtrip(self):
        for name in gallery.names():
            inst = gallery.build(name)
            text = inst.document()
            rel = parse_instance(text)
            assert serialize_instance(rel) == text
