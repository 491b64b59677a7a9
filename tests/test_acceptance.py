"""Acceptance gate: thirteen criteria, each printing one pass/fail line.

Every tolerance and budget is pinned here; nothing is deferred to later
calibration.  Runtime bounds are asserted with the wall clock.
"""

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction as F

from conftest import make_random_relation
from crdyn import gallery
from crdyn.classify import (
    Certainty,
    Verdict,
    characterization_suite,
    classify_all,
    classify_point,
    do_transitive,
    oracle_classify,
    projection_check,
    reach,
    system_transitive,
    trans_set,
)
from crdyn.cli import main as cli_main
from crdyn.finite import (
    FiniteRelation,
    FiniteSpace,
    illegal_set,
    inverse_relation,
    legal_set,
    mahavier_count,
    mahavier_enumerate,
)
from crdyn.io import parse_instance, serialize_instance
from crdyn.region import Region1D, Space1D, eps_dense
from crdyn.symbolic import (
    bounded_walk_search,
    forward_union,
    grid_transitivity_check,
    point_successors,
    projections,
    sym_branch_cover,
    sym_reach,
)
from crdyn.tree import branch_summary, build_tree, dot_export, tree_height


def _report(number: int, title: str, started: float, budget: float, failures: list):
    elapsed = time.time() - started
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"criterion {number:2d} [{status}] {title} ({elapsed:.2f}s / budget {budget:g}s)")
    assert not failures, failures[:5]
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def rel(labels, edges) -> FiniteRelation:
    return FiniteRelation(FiniteSpace(labels), edges)


def test_criterion_01_finite_worked_examples():
    t0 = time.time()
    failures = []
    pair = rel(["1", "2"], [(0, 0)])
    if illegal_set(pair) != frozenset({1}):
        failures.append("illegal set of the self-loop pair")
    fse1 = rel(["1", "2", "3"], [(0, 1), (1, 2), (2, 0)])
    if trans_set(fse1, 2) != frozenset({0, 1, 2}):
        failures.append("fse1 type-2 set")
    dens = rel(["0", "1"], [(0, 1), (1, 1)])
    if classify_point(dens, 0).verdict is not Verdict.TRANS1:
        failures.append("dens source verdict")
    if classify_point(dens, 1).verdict is not Verdict.INTRANSITIVE:
        failures.append("dens sink verdict")
    sink = rel(["1", "2"], [(0, 1), (1, 1)])
    if trans_set(sink, 2) != frozenset({0}):
        failures.append("final pair type-2 set")
    if system_transitive(sink):
        failures.append("final pair should not be transitive")
    for G in (pair, fse1, dens, sink):
        for x in range(G.space.size):
            if classify_point(G, x).certainty is not Certainty.CERTIFIED:
                failures.append("uncertified finite verdict")
    _report(1, "finite worked examples, exact and certified", t0, 1.0, failures)


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    failures = []
    rng = random.Random(101)
    for i in range(500):
        G = make_random_relation(rng)
        for x in range(G.space.size):
            fast = classify_point(G, x)
            slow = oracle_classify(G, x)
            if fast != slow:
                failures.append((i, G, x, fast, slow))
    _report(2, "classify == brute-force oracle on 500 random relations", t0, 5.0, failures)


def test_criterion_03_invariant_suites():
    t0 = time.time()
    failures = []
    rng = random.Random(202)
    for i in range(500):
        G = make_random_relation(rng)
        n = G.space.size
        tags = {x: classify_point(G, x) for x in range(n)}
        legal = legal_set(G)
        ill = illegal_set(G)
        # triple equivalence of illegality
        from crdyn.finite import image, omega_preimage

        omega_back = omega_preimage(G)
        for x in range(n):
            empty_at = any(image(G, frozenset({x}), k) == frozenset() for k in range(1, n + 1))
            if not ((x in ill) == empty_at == (x not in omega_back)):
                failures.append((i, "main1", x))
        t1, t2, t3 = (trans_set(G, k) for k in (1, 2, 3))
        if not (t1 <= t2 <= t3):
            failures.append((i, "chain"))
        intrans = {x for x in range(n) if tags[x].verdict is Verdict.INTRANSITIVE}
        if t3 | intrans != legal or t3 & intrans:
            failures.append((i, "partition"))
        for x in intrans:
            for y in G.successors(x):
                if y in t3:
                    failures.append((i, "successor of intransitive in trans3", x, y))
            for z in reach(G, x):
                if z in t3:
                    failures.append((i, "walk point of intransitive in trans3", x, z))
        p1, _ = projection_check(G)
        for k in (1, 2, 3):
            if do_transitive(G, k) and p1 != G.space.all_points():
                failures.append((i, "first projection not onto under DO-transitivity"))
        report = characterization_suite(G)
        if not (report.group1_consistent and report.group2_consistent):
            failures.append((i, "characterization groups"))
        if report.statements[:2] != (system_transitive(G),) * 2:
            failures.append((i, "characterization vs system transitivity"))
        if system_transitive(G) != system_transitive(inverse_relation(G)):
            failures.append((i, "inverse invariance"))
        if report.statements[1] and not report.statements[0]:
            failures.append((i, "plus implies plain"))
        for x, tag in tags.items():
            if tag.verdict is Verdict.TRANS3 and tag.reach_grade is None:
                failures.append((i, "an omega grade appeared on a finite instance", x))
    _report(3, "invariant suites on 500 random relations, zero violations", t0, 5.0, failures)


def test_criterion_04_symbolic_exactness():
    t0 = time.time()
    failures = []
    ex3 = gallery.build("ex3").relation
    got, stab = sym_reach(ex3, Region1D.point(0), 1)
    if got != Region1D.interval(0, 1) or not stab:
        failures.append("one-step reach of 0")
    ff = gallery.build("ff")
    y = ff.params["y"]
    got = sym_reach(ff.relation, Region1D.point(2), 8)
    if got != (Region1D.from_points([F(2), y, F(1)]), True):
        failures.append("satellite reach")
    ex1 = gallery.build("ex1").relation
    if projections(ex1) != (Region1D.interval(0, 1), Region1D.interval(0, 1)):
        failures.append("ex1 projections")
    tist = gallery.build("tistile").relation
    p2 = projections(tist)[1]
    if p2 != Region1D.interval(0, 1) or p2 == tist.space.region():
        failures.append("tistile second projection")
    _report(4, "symbolic reach and projection facts, exact region equality", t0, 10.0, failures)


def test_criterion_05_ex1_separation():
    t0 = time.time()
    failures = []
    ex1 = gallery.build("ex1").relation
    res = bounded_walk_search(ex1, F(1, 2), F(1, 64), 200)
    if not res.found:
        failures.append(f"no dense walk found ({res.status})")
    else:
        walk = res.witness
        if len(walk) - 1 > 200:
            failures.append("witness exceeds horizon")
        unit = Space1D(intervals=[(0, 1)])
        if not eps_dense(unit, Region1D.from_points(walk), F(1, 64)):
            failures.append("witness orbit is not 1/64-dense")
        for a, b in zip(walk, walk[1:]):
            singles, ranges = point_successors(ex1, a)
            if b not in singles and not any(lo <= b <= hi for lo, hi in ranges):
                failures.append("witness is not a walk of the relation")
                break
    if eps_dense(Space1D(intervals=[(0, 1)]), Region1D.point(F(1, 2)), F(1, 4)):
        failures.append("constant orbit wrongly dense at 1/4")
    _report(5, "dense witness at 1/64 vs certified non-dense constant walk", t0, 30.0, failures)


def test_criterion_06_ex2_separation():
    t0 = time.time()
    failures = []
    ex2 = gallery.build("ex2").relation
    unit = Space1D(intervals=[(0, 1)])
    for k in range(1, 33):
        yk = F(k, 32)
        got, stab = sym_reach(ex2, Region1D.point(yk), 8)
        if not stab or got != Region1D.from_points([yk, F(1)]):
            failures.append(f"reach of {yk}")
        if eps_dense(unit, got, F(1, 8)):
            failures.append(f"reach of {yk} wrongly 1/8-dense")
    got, _ = sym_reach(ex2, Region1D.point(0), 1)
    if got != Region1D.interval(0, 1):
        failures.append("reach of 0")
    _report(6, "32 sampled two-point reaches vs full reach of the hub", t0, 10.0, failures)


def test_criterion_07_ex31_grade_growth_and_cover():
    t0 = time.time()
    failures = []
    inst = gallery.build("ex31")
    R = inst.relation
    eps_list = list(inst.params["eps_list"])
    from crdyn.gallery import _ex31_grade_list

    grades = _ex31_grade_list(inst.params["x1"], inst.params["x2"], eps_list, 1400)
    if any(g is None for g in grades):
        failures.append(f"a grade threshold was never reached: {grades}")
    elif not all(a < b for a, b in zip(grades, grades[1:])):
        failures.append(f"thresholds not strictly increasing: {grades}")
    res = sym_branch_cover(R, 0, F(1, 32), 300, budget=20000)
    if res.size != 2:
        failures.append(f"cover size {res.size} != 2")
    elif res.certainty is not Certainty.CERTIFIED:
        failures.append("cover not certified")
    else:
        seconds = sorted(w[1] for w in res.witnesses)
        if not (seconds[0] < F(1, 2) < seconds[1]):
            failures.append("witnesses do not split into the two halves")
        for walk in res.witnesses:
            for a, b in zip(walk, walk[1:]):
                singles, ranges = point_successors(R, a)
                if b not in singles and not any(lo <= b <= hi for lo, hi in ranges):
                    failures.append("cover witness is not a walk")
                    break
    _report(7, "strictly growing density thresholds and a certified 2-walk cover", t0, 10.0, failures)


def test_criterion_08_exhura_certificate_and_search():
    t0 = time.time()
    failures = []
    R = gallery.build("exhura").relation
    report = grid_transitivity_check(R, F(1, 32), 64)
    if not report.transitive:
        failures.append(f"{len(report.misses)} unreached cell pairs")
    if report.max_steps_needed > 64:
        failures.append(f"needed {report.max_steps_needed} steps > 64")
    # exact emptiness of the dense-walk set is NOT asserted anywhere:
    # absence of a witness at this horizon is all this criterion certifies
    for k in range(0, 33):
        res = bounded_walk_search(R, F(k, 32), F(1, 32), 300, budget=30000)
        if res.found:
            failures.append(f"unexpected dense walk from {F(k, 32)}")
        elif res.certainty is not Certainty.UNKNOWN_AT_HORIZON:
            failures.append("non-find must be reported unknown-at-horizon")
    _report(8, "transitivity certified on the grid; no dense walk from 33 starts", t0, 2.0, failures)


def test_criterion_09_exxi_statement_separation():
    t0 = time.time()
    failures = []
    inst = gallery.build("exxi")
    R = inst.relation
    space = R.space
    delta = F(1, 32)
    union1 = forward_union(R, Region1D.point(2), 300, include_start=False)
    if union1.contains_point(2):
        failures.append("positive union returned to the isolated point")
    if not Region1D.interval(0, 1).contains_region(union1):
        failures.append("positive union left [0,1]")
    if eps_dense(space, union1, delta):
        failures.append("positive union wrongly covers the isolated point")
    from crdyn.region import grid_cells

    for lo, hi in grid_cells(space, delta):
        cell = Region1D.interval(lo, hi)
        union0 = forward_union(R, cell, 64, include_start=True)
        if not eps_dense(space, union0, delta):
            failures.append(f"zero-step union from [{lo},{hi}] not dense")
    _report(9, "zero-step unions dense everywhere; positive union fails at {2}", t0, 2.0, failures)


def test_criterion_10_tree_module():
    t0 = time.time()
    failures = []
    rng = random.Random(303)
    from crdyn.finite import image

    for i in range(200):
        G = make_random_relation(rng)
        x = rng.randrange(G.space.size)
        depth = rng.randint(0, 5)
        tree = build_tree(G, x, depth)
        for n in range(depth + 1):
            if tree.cumulative_level(n) != reach(G, x, n):
                failures.append((i, "cumulative level vs reach"))
            if tree.level(n) != image(G, frozenset({x}), n):
                failures.append((i, "level vs image"))
    for i in range(500):
        G = make_random_relation(rng)
        x = rng.randrange(G.space.size)
        s = branch_summary(G, x)
        tag = classify_point(G, x)
        checks = [
            s.is_legal == (tag.verdict is not Verdict.ILLEGAL),
            s.exists_infinite_dense_branch == (tag.verdict in (Verdict.TRANS1, Verdict.TRANS2)),
            s.all_infinite_branches_dense == (tag.verdict is Verdict.TRANS1),
            s.cover_dense == (tag.verdict in (Verdict.TRANS1, Verdict.TRANS2, Verdict.TRANS3)),
            s.intransitive == (tag.verdict is Verdict.INTRANSITIVE),
            (tree_height(G, x) is not None) == (tag.verdict is Verdict.ILLEGAL),
        ]
        if not all(checks):
            failures.append((i, G, x, checks))
    _report(10, "levels equal reach; branch booleans equal verdicts; heights", t0, 5.0, failures)


def test_criterion_11_mahavier_counting():
    t0 = time.time()
    failures = []
    rng = random.Random(404)
    for i in range(100):
        G = make_random_relation(rng, max_points=4)
        m = rng.randint(1, 5)
        if mahavier_count(G, m) != len(mahavier_enumerate(G, m)):
            failures.append((i, "count vs enumeration"))
    full = rel(["1", "2"], [(0, 0), (0, 1), (1, 0), (1, 1)])
    for m in range(1, 6):
        if mahavier_count(full, m) != 2 ** (m + 1):
            failures.append(("full shift", m))
    _report(11, "walk counting matches enumeration; full shift is 2^(m+1)", t0, 30.0, failures)


def test_criterion_12_cli_and_gallery(tmp_path):
    t0 = time.time()
    failures = []
    for name in gallery.names():
        text = gallery.build(name).document()
        if serialize_instance(parse_instance(text)) != text:
            failures.append(f"round trip broke on {name}")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["gallery", "run-all"])
    if code != 0:
        failures.append(f"gallery run-all exited {code}")
    if " fail" not in buf.getvalue().splitlines()[-1]:
        failures.append("run-all summary missing")
    fse1 = gallery.build("fse1")
    doc = tmp_path / "fse1.json"
    doc.write_text(fse1.document())
    dots = []
    for run in range(2):
        out = tmp_path / f"t{run}.dot"
        with redirect_stdout(io.StringIO()):
            code = cli_main(["tree", str(doc), "--point", "1", "--depth", "3",
                             "--dot", str(out)])
        if code != 0:
            failures.append("tree export failed")
        dots.append(out.read_bytes())
    if dots[0] != dots[1]:
        failures.append("DOT output not byte-stable")
    tree = build_tree(fse1.relation, 0, 3)
    if dot_export(tree) != dot_export(build_tree(fse1.relation, 0, 3)):
        failures.append("in-process DOT not stable")
    _report(12, "gallery round-trips, run-all green, DOT byte-stable", t0, 30.0, failures)


def test_criterion_13_linear_classification_of_paths_and_cycles():
    n = 5000
    failures = []
    path = rel([str(i) for i in range(n)], [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 1)])
    cycle = rel([str(i) for i in range(n)], [(i, (i + 1) % n) for i in range(n)])
    t0 = time.time()
    tags = classify_all(path)
    path_s = time.time() - t0
    if tags[0].verdict is not Verdict.TRANS1 or tags[0].certainty is not Certainty.CERTIFIED:
        failures.append(f"path head tagged {tags[0]}")
    failures += [f"path point {x} tagged {t}" for x, t in enumerate(tags[1:], 1)
                 if t.verdict is not Verdict.INTRANSITIVE]
    t1 = time.time()
    tags = classify_all(cycle)
    cycle_s = time.time() - t1
    failures += [f"cycle point {x} tagged {t}" for x, t in enumerate(tags)
                 if t.verdict is not Verdict.TRANS1 or t.certainty is not Certainty.CERTIFIED]
    if max(path_s, cycle_s) >= 0.5:
        failures.append(f"path {path_s:.2f}s, cycle {cycle_s:.2f}s: each must stay under 0.5s")
    _report(13, "classify_all on 5,000-point paths and cycles", t0, 1.0, failures)
