import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

from crdyn import cli, gallery
from crdyn.cli import main
from crdyn.io import parse_instance, serialize_instance
from crdyn.region import format_fraction
from crdyn.symbolic import SymbolicRelation, classify_interval_point

GOLDEN_INTERVAL_CLASSIFY = Path(__file__).resolve().parent / "golden" / "interval_classify.txt"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    paths = {}
    for name in ("dens", "pair-sink", "ex1", "fse1", "ex32"):
        p = root / f"{name}.json"
        p.write_text(gallery.build(name).document())
        paths[name] = str(p)
    bad = root / "bad.json"
    bad.write_text('{"space": {"kind": "finite", "points": ["a"]}, "relation": {"kind": "pairs", "pairs": []}}')
    paths["bad"] = str(bad)
    paths["root"] = str(root)
    return paths


class TestClassify:
    def test_dens_table(self, docs):
        code, out, _ = run_cli("classify", docs["dens"])
        assert code == 0
        lines = out.splitlines()
        assert any("0" in l and "trans1" in l and "certified" in l for l in lines)
        assert any("intransitive" in l for l in lines)

    def test_single_point(self, docs):
        code, out, _ = run_cli("classify", docs["dens"], "--point", "1")
        assert code == 0
        assert "intransitive" in out
        assert "trans1" not in out

    def test_symbolic_requires_point(self, docs):
        code, _, err = run_cli("classify", docs["ex1"])
        assert code == 2
        assert "--point" in err

    def test_symbolic_point_report(self, docs):
        # the claims themselves are asserted on the tag, in test_interval_tagger.py
        code, out, _ = run_cli(
            "classify", docs["ex1"], "--point", "1/2", "--eps", "1/16", "--horizon", "60"
        )
        assert code == 0
        tag = classify_interval_point(gallery.build("ex1").relation, F(1, 2), F(1, 16), 60)
        steps = len(tag.walk.witness) - 1
        assert f"trans2-at-eps          certified            witness of {steps} steps\n" in out
        assert "trans1-at-eps          refuted              a non-dense looping walk exists\n" in out

    def test_dead_end_report_withholds_certificates(self, tmp_path):
        # 2 -> 2 and 2 -> [0, 1], where no point has a successor: the only
        # infinite walk from 2 is the constant one, which proves 2 legal, but
        # neither the dense reach nor the dense walk 2 -> 1/2 certifies anything
        path = tmp_path / "dead.json"
        path.write_text(
            '{"space": {"kind": "interval_union", "intervals": [["0","1"]], "isolated": ["2"]},'
            ' "relation": {"kind": "primitives", "primitives": ['
            '{"type": "point", "at": ["2","2"]}, {"type": "segment", "from": ["2","0"], "to": ["2","1"]}]}}'
        )
        code, out, err = run_cli("classify", str(path), "--point", "2", "--eps", "1/2")
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == [
            "legal                  certified            a loop from the point is an infinite walk",
            "trans3-at-eps          unknown-at-horizon   reach dense at step 1, legal set unknown",
            "trans2-at-eps          unknown-at-horizon   witness of 1 steps, legal set unknown",
            "trans1-at-eps          refuted              a non-dense looping walk exists",
        ]

    def test_unknown_point_is_usage_error(self, docs):
        code, _, err = run_cli("classify", docs["dens"], "--point", "zzz")
        assert code == 2


class TestCachedParser:
    """The parser is built once per process; parsing keeps no state between calls."""

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_usage_errors_between_good_runs_change_nothing(self, docs):
        first = run_cli("classify", docs["ex32"])
        assert first[0] == 0 and first[2] == ""
        for argv in (("classify", docs["ex32"], "--eps", "0"), ("reach", docs["ex32"])):
            code, out, err = run_cli(*argv)
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert run_cli("classify", docs["ex32"]) == first

    @pytest.mark.parametrize("argv", [
        ("classify", "ex32"),
        ("classify", "ex1", "--point", "1/2", "--eps", "1/4", "--horizon", "20"),
    ])
    def test_in_process_matches_a_fresh_process(self, docs, argv):
        argv = [docs.get(a, a) for a in argv]
        code, out, err = run_cli(*argv)
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        fresh = subprocess.run([sys.executable, "-m", "crdyn.cli", *argv], capture_output=True, text=True,
                               env=env, timeout=120)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err) and code == 0


class TestParseErrors:
    def test_empty_relation_rejected(self, docs):
        code, _, err = run_cli("classify", docs["bad"])
        assert code == 2
        assert "non-empty" in err

    def test_missing_file(self):
        code, _, err = run_cli("classify", "/nonexistent/x.json")
        assert code == 2


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("tree", "fse1", "--point", "1", "--depth", "-1"),
        ("mahavier", "fse1", "--depth", "0"),
        ("mahavier", "fse1", "--depth", "2", "--list", "-1"),
        ("classify", "ex1", "--point", "1/2", "--eps", "0.5"),
        ("classify", "ex1", "--point", "1/2", "--eps", "0"),
        ("classify", "ex1", "--point", "1/2", "--horizon", "-5"),
        ("transitive", "ex1", "--eps", "1e-3"),
        ("reach", "dens", "--point", "0", "--steps", "x"),
        ("discretize", "ex1", "--delta", "-1/4", "-o", "unused.json"),
        ("tree", "fse1"),
        (),
        ("mahavier", "fse1", "--depth", "2", "--count", "--list", "3"),
    ])
    def test_exit_two_with_one_error_line(self, docs, argv):
        argv = tuple(docs.get(a, a) for a in argv)
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_point_flag_uses_the_strict_grammar(self, docs):
        code, out, err = run_cli("classify", docs["ex1"], "--point", " 1/2 ")
        assert code == 2
        assert out == ""
        assert err == "error: malformed rational ' 1/2 '; expected an integer or 'p/q'\n"

    @pytest.mark.parametrize("argv", [
        ("classify", "dens", "--point", "zzz"),
        ("classify", "ex1"),
        ("classify", "ex1", "--point", "5"),
    ])
    def test_classify_checks_the_point_before_the_report_header(self, docs, argv):
        code, out, err = run_cli(*(docs.get(a, a) for a in argv))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_reach_refuses_a_point_outside_the_space(self, docs):
        code, out, err = run_cli("reach", docs["ex1"], "--point", "5")
        assert code == 2
        assert out == ""
        assert err == "error: 5 is not a point of the space\n"

    def test_range_errors_below_the_argument_layer_exit_two(self, docs, monkeypatch):
        from crdyn import cli

        def too_deep(*args):
            raise ValueError("depth out of range")

        monkeypatch.setattr(cli, "build_tree", too_deep)
        code, _, err = run_cli("tree", docs["fse1"], "--point", "1", "--depth", "1")
        assert code == 2
        assert err == "error: depth out of range\n"

    def test_long_walk_listing_needs_no_recursion(self, docs):
        code, out, _ = run_cli("mahavier", docs["fse1"], "--depth", "2000", "--list", "1")
        assert code == 0
        assert len(out.splitlines()[-1].split()) == 2001


class TestTransitive:
    def test_pair_sink_vector(self, docs):
        code, out, _ = run_cli("transitive", docs["pair-sink"])
        assert code == 0
        assert "transitive: false" in out
        assert "false false false false false false false false" in out

    def test_fse1_plus(self, docs):
        code, out, _ = run_cli("transitive", docs["fse1"], "--plus")
        assert code == 0
        assert "+transitive: true" in out

    def test_symbolic_grid(self, docs):
        code, out, _ = run_cli("transitive", docs["ex1"], "--eps", "1/4", "--horizon", "8")
        assert code == 0
        assert "certified" in out

    def test_oversized_grid_is_refused_before_the_report(self, docs):
        code, out, err = run_cli("transitive", docs["ex1"], "--eps", "1/100000")
        assert code == 1
        assert out == ""
        assert err == "error: 100000 grid boxes exceed the cap of 4096\n"

    def test_plus_grid_at_horizon_zero_reaches_nothing(self, docs):
        # the +chase starts at n = 1, so horizon 0 leaves all 4 x 4 cell pairs unreached
        code, out, _ = run_cli("transitive", docs["ex1"], "--plus", "--eps", "1/4", "--horizon", "0")
        assert code == 0
        assert "+transitive-at-grid: not certified; 16 cell pairs unreached" in out
        code, out, _ = run_cli("transitive", docs["ex1"], "--plus", "--eps", "1/4", "--horizon", "1")
        assert "not certified; 8 cell pairs unreached" in out


class TestTreeReachMahavier:
    def test_tree_levels_and_dot_stability(self, docs, tmp_path):
        dot1 = tmp_path / "a.dot"
        dot2 = tmp_path / "b.dot"
        code, out, _ = run_cli("tree", docs["fse1"], "--point", "1", "--depth", "4",
                               "--dot", str(dot1))
        assert code == 0
        assert "level 4: 2" in out
        run_cli("tree", docs["fse1"], "--point", "1", "--depth", "4", "--dot", str(dot2))
        assert dot1.read_bytes() == dot2.read_bytes()

    def test_reach_chain(self, docs):
        code, out, _ = run_cli("reach", docs["dens"], "--point", "0")
        assert code == 0
        assert "stabilized: true" in out

    def test_mahavier(self, docs):
        code, out, _ = run_cli("mahavier", docs["fse1"], "--depth", "2", "--count")
        assert code == 0
        assert "count: 3" in out
        code, out, _ = run_cli("mahavier", docs["fse1"], "--depth", "2", "--list", "2")
        assert out.splitlines()[-2:] == ["1 2 3", "2 3 1"]


class TestDiscretize:
    def test_writes_loadable_document(self, docs, tmp_path):
        out_path = tmp_path / "disc.json"
        code, out, _ = run_cli("discretize", docs["ex1"], "--delta", "1/4",
                               "-o", str(out_path))
        assert code == 0
        text = out_path.read_text()
        data = json.loads(text)
        assert data["density"]["eps"] == "1/4"
        code, out, _ = run_cli("classify", str(out_path))
        assert code == 0

    def test_rejects_finite_input(self, docs, tmp_path):
        code, _, err = run_cli("discretize", docs["dens"], "--delta", "1/4",
                               "-o", str(tmp_path / "x.json"))
        assert code == 2


class TestOutputFiles:
    """An output file that cannot be written ends the run before any report."""

    @pytest.mark.parametrize("argv", [
        ("tree", "fse1", "--point", "1", "--depth", "2", "--dot"),
        ("discretize", "ex1", "--delta", "1/4", "-o"),
    ])
    def test_unwritable_output_exits_two_with_one_line(self, docs, tmp_path, argv):
        cmd, name, *rest = argv
        for target in (tmp_path / "missing" / "out.txt", tmp_path):
            code, out, err = run_cli(cmd, docs[name], *rest, str(target))
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: cannot write {target}")
            assert len(err.splitlines()) == 1

    def test_report_follows_the_written_file(self, docs, tmp_path):
        dot = tmp_path / "t.dot"
        code, out, _ = run_cli("tree", docs["fse1"], "--point", "1", "--depth", "1", "--dot", str(dot))
        assert code == 0
        assert out.splitlines()[-1] == f"dot written to {dot}"
        assert dot.read_text(encoding="utf-8").startswith("digraph transitivity_tree {")
        disc = tmp_path / "d.json"
        code, out, _ = run_cli("discretize", docs["ex1"], "--delta", "1/4", "-o", str(disc))
        assert code == 0
        assert out.splitlines()[-1].endswith(f"-> {disc}")
        assert json.loads(disc.read_text(encoding="utf-8"))["density"]["eps"] == "1/4"


class TestGallery:
    def test_list(self, monkeypatch):
        # each instance's own description, one line per name; listing builds none of them
        want = "".join(f"{name:14s} {gallery.build(name).description}\n" for name in gallery.names())

        def no_build(name):
            raise AssertionError(f"gallery list built {name}")

        monkeypatch.setattr(gallery, "build", no_build)
        assert run_cli("gallery", "list") == (0, want, "")

    def test_run_single(self):
        code, out, _ = run_cli("gallery", "run", "fse1")
        assert code == 0
        assert "0 fail" in out

    def test_run_unknown_name(self):
        code, out, err = run_cli("gallery", "run", "zzz")
        assert (code, out) == (2, "")
        assert err == "error: unknown gallery instance 'zzz'; see crdyn gallery list\n"

    @pytest.mark.parametrize("action", ["list", "run-all"])
    def test_a_name_is_refused_outside_run(self, action):
        code, out, err = run_cli("gallery", action, "fse1")
        assert (code, out) == (2, "")
        assert err == f"error: gallery {action} takes no instance name\n"


class TestRoundTripAllGallery:
    def test_serialize_parse_identity(self):
        for name in gallery.names():
            text = gallery.build(name).document()
            assert serialize_instance(parse_instance(text)) == text


def interval_classify_report() -> str:
    """`crdyn classify` stdout on every gallery interval instance, each run under its command line.

    Each instance is written to `<name>.json` in the working directory, so
    the header's file= is the bare name.  The points are the first interval
    end, 1/2 and each isolated point (1/3 when there is none), each at eps
    1/8 and 1/32 and the default horizon.
    """
    chunks = []
    for name in gallery.names():
        inst = gallery.build(name)
        if not isinstance(inst.relation, SymbolicRelation):
            continue
        space = inst.relation.space
        Path(f"{name}.json").write_text(inst.document())
        for x in [space.intervals[0][0], F(1, 2), *(space.isolated or [F(1, 3)])]:
            for eps in ("1/8", "1/32"):
                argv = ("classify", f"{name}.json", "--point", format_fraction(x), "--eps", eps)
                code, out, err = run_cli(*argv)
                assert (code, err) == (0, ""), argv
                chunks.append(f"$ crdyn {' '.join(argv)}\n{out}")
    return "".join(chunks)


def test_interval_classify_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert interval_classify_report() == GOLDEN_INTERVAL_CLASSIFY.read_text()
