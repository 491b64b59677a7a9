"""Worked instances with frozen expected classifications.

Each instance is one fixed configuration: its builder takes no arguments,
`build(name)` builds it once per process, and its `params` record the values
(eps, horizons, surrogate points) its rows use; only ex32's builder keeps
its truncation depth, for the row that compares depths.

Each instance couples a relation with expectation rows.  A row states a
checkable claim, runs it, and reports pass / fail / unknown-expected; the
last status marks claims that are horizon- or surrogate-limited by design
(recorded as such, never silently upgraded to exact statements).

Instances whose construction calls for a dense-orbit map point use dyadic
surrogates from builders.dense_prefix_point; every claim about them is a
statement about the verified finite prefix, not about true transitive
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from .builders import (
    cantor_stage_intervals,
    cantor_staircase,
    dense_prefix_point,
    density_threshold_steps,
    forward_orbit,
    left_half_tent_graph,
    right_half_tent_graph,
    tent_map_graph,
)
from .classify import (
    ClassificationTag,
    Verdict,
    characterization_suite,
    classify_point,
    membership,
    minimal_dense_branch_cover,
    oracle_classify,
    projection_check,
    system_transitive,
    trans_set,
)
from .finite import FiniteRelation, FiniteSpace, illegal_set, legal_set, omega_image
from .io import serialize_instance
from .region import Region1D, Space1D, eps_dense, format_fraction
from .symbolic import (
    Segment,
    SinglePoint,
    SymbolicRelation,
    bounded_walk_search,
    forward_union,
    grid_transitivity_check,
    nondense_loop_search,
    projections,
    sym_branch_cover,
    sym_reach,
    sym_reach_chain,
)

F = Fraction


@dataclass(frozen=True)
class ExpectationResult:
    instance: str
    label: str
    status: str  # "pass" | "fail" | "unknown-expected"
    detail: str

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "unknown-expected")


class GalleryInstance:
    """A named relation plus its expectation rows."""

    def __init__(self, name: str, relation, params: dict, note: str = ""):
        self.name = name
        self.description = describe(name)
        self.relation = relation
        self.params = params
        self.note = note
        self._rows: list[tuple[str, Callable[[], tuple[bool | str, str]]]] = []

    def expect(self, label: str, check: Callable[[], tuple[bool | str, str]]):
        self._rows.append((label, check))

    def run(self) -> list[ExpectationResult]:
        out = []
        for label, check in self._rows:
            try:
                verdict, detail = check()
            except Exception as exc:  # a crash is a failing expectation
                out.append(ExpectationResult(self.name, label, "fail", f"error: {exc!r}"))
                continue
            if verdict is True:
                status = "pass"
            elif verdict == "unknown":
                status = "unknown-expected"
            else:
                status = "fail"
            out.append(ExpectationResult(self.name, label, status, detail))
        return out

    def document(self) -> str:
        return serialize_instance(self.relation)


_BUILDERS: dict[str, Callable[[], GalleryInstance]] = {}
_DESCRIPTIONS: dict[str, str] = {}


def register(name: str, description: str):
    """Register a builder; its description is kept here, so listing builds nothing."""
    def inner(fn):
        _BUILDERS[name] = fn
        _DESCRIPTIONS[name] = description
        return fn

    return inner


def names() -> list[str]:
    return sorted(_BUILDERS)


def describe(name: str) -> str:
    """The registered description of an instance; nothing is built."""
    return _DESCRIPTIONS[name]


@lru_cache(maxsize=None)  # each instance is built once per process
def build(name: str) -> GalleryInstance:
    if name not in _BUILDERS:
        raise KeyError(f"unknown gallery instance {name!r}; see gallery.names()")
    return _BUILDERS[name]()


def run_all() -> list[ExpectationResult]:
    return [result for name in names() for result in build(name).run()]


def gallery_report_lines(results: list[ExpectationResult]) -> list[str]:
    lines = []
    for r in results:
        suffix = f" ({r.detail})" if r.detail else ""
        lines.append(f"[{r.status:>16}] {r.instance}: {r.label}{suffix}")
    return lines


# ---------------------------------------------------------------------------
# shared surrogate points (deterministic, cached)

UNIT = Space1D(intervals=[(0, 1)])


@lru_cache(maxsize=None)
def tent_surrogate() -> Fraction:
    """Dyadic point whose 63-step tent orbit hits every 1/32 cell of [0,1]."""
    return dense_prefix_point(tent_map_graph(), (0, 1), F(1, 32), 63,
                              min_denominator_bits=360, seed=3)


@lru_cache(maxsize=None)
def exhura_surrogates() -> tuple[Fraction, Fraction]:
    """Half-tent points with 50-step 1/32-dense prefixes inside their halves."""
    x1 = dense_prefix_point(left_half_tent_graph(), (0, F(1, 2)), F(1, 32), 50,
                            min_denominator_bits=360, seed=5)
    x2 = dense_prefix_point(right_half_tent_graph(), (F(1, 2), 1), F(1, 32), 50,
                            min_denominator_bits=360, seed=7)
    return x1, x2


@lru_cache(maxsize=None)
def ex31_surrogates() -> tuple[Fraction, Fraction]:
    """Half-tent points dense to 1/256 over 900 steps and to 1/32 within 298.

    Each half's point is the seed-1 dense_prefix_point; the coarse prefix
    condition is checked here, and makes the two-walk cover at horizon 300
    hold; the fine condition drives the reach-grade growth analysis.
    """

    def half_point(segments, half, cells: range) -> Fraction:
        x = dense_prefix_point(segments, half, F(1, 256), 900, min_denominator_bits=1300, seed=1)
        orbit = forward_orbit(segments, x, 298)
        if not all(any(F(k, 32) < v < F(k + 1, 32) for v in orbit) for k in cells):
            raise RuntimeError("the half-tent surrogate misses a 1/32 cell within 298 steps")
        return x

    return (half_point(left_half_tent_graph(), (0, F(1, 2)), range(16)),
            half_point(right_half_tent_graph(), (F(1, 2), 1), range(16, 32)))


def _found_row(result) -> tuple[bool | str, str]:
    if result.found:
        return True, f"witness of {len(result.witness) - 1} steps ({result.nodes} nodes)"
    return False, f"status {result.status} after {result.nodes} nodes"


def _notfound_row(result) -> tuple[bool | str, str]:
    if result.found:
        return False, f"unexpected witness of {len(result.witness) - 1} steps"
    return "unknown", f"no witness in searched family ({result.status}, {result.nodes} nodes)"


# ---------------------------------------------------------------------------
# finite instances


@register("illegal-pair", "two points, a single self-loop: the loopless point has no infinite walk")
def _illegal_pair() -> GalleryInstance:
    space = FiniteSpace(["1", "2"])
    G = FiniteRelation(space, [(0, 0)])
    inst = GalleryInstance("illegal-pair", G, {})
    inst.expect("illegal set is {2}", lambda: (
        illegal_set(G) == frozenset({1}), f"illegal={sorted(illegal_set(G))}"))
    inst.expect("legal set is {1}", lambda: (
        legal_set(G) == frozenset({0}), f"legal={sorted(legal_set(G))}"))
    inst.expect("classify(2) = illegal", lambda: (
        classify_point(G, 1).verdict is Verdict.ILLEGAL, "strongest verdict"))
    inst.expect("oracle agrees on both points", lambda: (
        all(oracle_classify(G, x) == classify_point(G, x) for x in (0, 1)), "tags equal"))
    inst.expect("forward omega set is {1}", lambda: (
        omega_image(G) == frozenset({0}), f"{sorted(omega_image(G))}"))
    return inst


@register("fse1", "three-cycle: every point isolated and 2-transitive")
def _fse1() -> GalleryInstance:
    space = FiniteSpace(["1", "2", "3"])
    G = FiniteRelation(space, [(0, 1), (1, 2), (2, 0)])
    inst = GalleryInstance("fse1", G, {})
    inst.expect("type-2 points are all three", lambda: (
        trans_set(G, 2) == frozenset({0, 1, 2}), f"{sorted(trans_set(G, 2))}"))
    inst.expect("every point is type-1", lambda: (
        all(classify_point(G, x).verdict is Verdict.TRANS1 for x in range(3)),
        "the unique walk visits all points"))
    inst.expect("system transitive and +transitive", lambda: (
        system_transitive(G) and characterization_suite(G).statements[1], ""))
    inst.expect("all eight open-set statements hold", lambda: (
        all(characterization_suite(G).statements), f"{characterization_suite(G).statements}"))
    inst.expect("single walk covers the space", lambda: (
        minimal_dense_branch_cover(G, 0).size == 1, ""))
    inst.expect("both projections are onto", lambda: (
        projection_check(G) == (frozenset({0, 1, 2}),) * 2, ""))
    return inst


@register("dens", "isolated source feeding a sink loop: source type-1, sink intransitive")
def _dens() -> GalleryInstance:
    space = FiniteSpace(["0", "1"])
    G = FiniteRelation(space, [(0, 1), (1, 1)])
    inst = GalleryInstance("dens", G, {})
    inst.expect("classify(0) = type-1", lambda: (
        classify_point(G, 0).verdict is Verdict.TRANS1, ""))
    inst.expect("classify(1) = intransitive", lambda: (
        classify_point(G, 1).verdict is Verdict.INTRANSITIVE, "reach(1) = {1} only"))
    inst.expect("oracle agrees", lambda: (
        all(oracle_classify(G, x) == classify_point(G, x) for x in (0, 1)), ""))
    return inst


@register("pair-sink",
          "source into an absorbing loop: a 2-transitive point in a non-transitive system")
def _pair_sink() -> GalleryInstance:
    space = FiniteSpace(["1", "2"])
    G = FiniteRelation(space, [(0, 1), (1, 1)])
    inst = GalleryInstance("pair-sink", G, {})
    inst.expect("type-2 points are exactly {1}", lambda: (
        trans_set(G, 2) == frozenset({0}), f"{sorted(trans_set(G, 2))}"))
    inst.expect("point 1 is in fact type-1", lambda: (
        classify_point(G, 0).verdict is Verdict.TRANS1,
        "its unique walk visits both points"))
    inst.expect("system is not transitive", lambda: (
        not system_transitive(G), "pair (2,1) is unreachable"))
    inst.expect("all eight statements are false", lambda: (
        not any(characterization_suite(G).statements),
        f"{characterization_suite(G).statements}"))
    return inst


@lru_cache(maxsize=None)
def _ex32_cover_size(depth: int) -> int:
    G = _ex32(depth).relation
    size = minimal_dense_branch_cover(G, G.space.index["0"]).size
    assert size is not None
    return size


_EX32_DEPTH = 6
_EX32_ABOUT = ("self-loops everywhere, a hub fanning into stages, each stage fanning into "
               "its private cluster (truncation depth {})")


@register("ex32", _EX32_ABOUT.format(_EX32_DEPTH))
def _ex32(depth: int = _EX32_DEPTH) -> GalleryInstance:
    if depth < 2:
        raise ValueError("depth must be at least 2")
    # stage values (2^k - 1) / 2^k, k = 0..depth+1; members of the space are
    # the stages up to k = depth, the limit point 1, and the clusters
    stage = [F(2**k - 1, 2**k) for k in range(depth + 2)]
    points: set[Fraction] = set(stage[: depth + 1]) | {F(1)}
    clusters: dict[int, list[Fraction]] = {}
    for n in range(1, depth):
        left, right = stage[n + 1], stage[n + 2]
        clusters[n] = [left + F(k, n + 1) * (right - left) for k in range(1, n + 1)]
        points.update(clusters[n])
    ordered = sorted(points)
    labels = [format_fraction(p) for p in ordered]
    index = {p: i for i, p in enumerate(ordered)}
    edges = [(i, i) for i in range(len(ordered))]  # identity part
    zero = index[F(0)]
    for s in stage[1: depth + 1]:
        edges.append((zero, index[s]))
    edges.append((zero, index[F(1)]))  # closure of the stage edges
    for n, pts in clusters.items():
        src = index[stage[n + 1]]
        for a in pts:
            edges.append((src, index[a]))
    G = FiniteRelation(FiniteSpace(labels), set(edges))
    inst = GalleryInstance(
        "ex32",
        G,
        {"depth": depth},
        note="finite truncation: the untruncated construction needs unboundedly "
        "many walks for a dense union, shadowed here by depth growth",
    )
    inst.description = _EX32_ABOUT.format(depth)  # the registry holds the default depth's
    expected_cover = (depth - 1) * depth // 2 + 2
    inst.expect("hub is type-3 with reach grade 2", lambda: (
        classify_point(G, zero) == ClassificationTag(Verdict.TRANS3, reach_grade=2),
        f"{classify_point(G, zero)}"))
    inst.expect("hub is not type-2 (certified)", lambda: (
        membership(G, zero, 2)[0] is False, ""))
    inst.expect(f"branch cover size is {expected_cover} at depth {depth}", lambda: (
        _ex32_cover_size(depth) == expected_cover, f"size={_ex32_cover_size(depth)}"))
    inst.expect("cover size grows strictly with depth", lambda: (
        all(
            _ex32_cover_size(d) < _ex32_cover_size(d + 1)
            for d in range(2, depth)
        ),
        f"sizes={[_ex32_cover_size(d) for d in range(2, depth + 1)]}"))
    return inst


# ---------------------------------------------------------------------------
# symbolic instances


@register("ex1", "horizontal line at 1/2 plus the vertical column above 1/2")
def _ex1() -> GalleryInstance:
    eps, horizon = F(1, 64), 200
    R = SymbolicRelation(UNIT, [Segment(0, F(1, 2), 1, F(1, 2)), Segment(F(1, 2), 0, F(1, 2), 1)])
    inst = GalleryInstance("ex1", R, {"eps": eps, "horizon": horizon})
    inst.expect("both projections equal [0,1]", lambda: (
        projections(R) == (Region1D.interval(0, 1), Region1D.interval(0, 1)),
        "exact region equality"))
    inst.expect("1/2 has an eps-dense walk (type-2 witness)", lambda: _found_row(
        bounded_walk_search(R, F(1, 2), eps, horizon)))
    inst.expect("the constant walk at 1/2 is not dense for eps < 1/4", lambda: (
        not eps_dense(UNIT, Region1D.point(F(1, 2)), F(1, 4)), "distance to 0 is 1/2"))
    return inst


def _ex2_impl(name: str) -> GalleryInstance:
    eps, samples = F(1, 8), 32
    R = SymbolicRelation(UNIT, [Segment(0, 1, 1, 1), Segment(0, 0, 0, 1)])
    inst = GalleryInstance(name, R, {"eps": eps, "samples": samples})
    inst.expect("one-step reach of 0 is all of [0,1] (grade 1)", lambda: (
        sym_reach(R, Region1D.point(0), 1)[0] == Region1D.interval(0, 1), "exact"))
    inst.expect("sampled points have two-point stabilized reach {y,1}", lambda: (
        all(
            sym_reach(R, Region1D.point(F(k, samples)), 8)
            == (Region1D.from_points([F(k, samples), F(1)]), True)
            for k in range(1, samples + 1)
        ),
        f"{samples} samples"))
    inst.expect("sampled reaches are not eps-dense", lambda: (
        all(
            not eps_dense(UNIT, Region1D.from_points([F(k, samples), F(1)]), eps)
            for k in range(1, samples + 1)
        ),
        f"eps={eps}"))
    inst.expect("no eps-dense single walk from 0 found", lambda: _notfound_row(
        bounded_walk_search(R, 0, eps, 60, budget=20000)))
    return inst


_EX2_ABOUT = "everything maps to 1; the column above 0 maps 0 to everything"
register("ex2", _EX2_ABOUT)(partial(_ex2_impl, "ex2"))
# the same relation appears twice in the corpus under different studies
register("ex3", _EX2_ABOUT)(partial(_ex2_impl, "ex3"))


@register("ex4", "column above 1/2 onto the level-5 middle-thirds stage, plus the matching "
          "staircase approximation (no vertical line in the graph part)")
def _ex4() -> GalleryInstance:
    level, eps, horizon = 5, F(1, 64), 60
    stages = cantor_stage_intervals(level)
    prims: list = [Segment(F(1, 2), a, F(1, 2), b) for a, b in stages]
    prims += cantor_staircase(level)
    R = SymbolicRelation(UNIT, prims)
    inst = GalleryInstance(
        "ex4",
        R,
        {"level": level, "eps": eps, "horizon": horizon},
        note="the true middle-thirds set and staircase are approximated at a "
        "recorded level; claims are about this approximation",
    )
    inst.expect("one-step reach of 1/2 is not eps-dense", lambda: (
        not eps_dense(UNIT, sym_reach(R, Region1D.point(F(1, 2)), 1)[0], eps),
        "stage gaps exceed eps"))
    inst.expect("two-step reach covers [0,1] exactly (grade 2)", lambda: (
        sym_reach(R, Region1D.point(F(1, 2)), 2)[0].contains_region(Region1D.interval(0, 1)),
        "ramps jointly map the stage onto [0,1]"))
    inst.expect("no eps-dense single walk found from 1/2", lambda: _notfound_row(
        bounded_walk_search(R, F(1, 2), eps, horizon, budget=8000)))
    return inst


def _tent_with_points(extra_points: list[tuple], isolated: list) -> SymbolicRelation:
    space = Space1D(intervals=[(0, 1)], isolated=isolated)
    prims: list = list(tent_map_graph())
    prims += [SinglePoint(a, b) for a, b in extra_points]
    return SymbolicRelation(space, prims)


@register("fse2", "tent map plus a feeder chain 2 -> 3 -> (dense-prefix point)")
def _fse2() -> GalleryInstance:
    eps, horizon = F(1, 32), 300
    x = tent_surrogate()
    R = _tent_with_points([(2, 3), (3, x)], [2, 3])
    inst = GalleryInstance(
        "fse2",
        R,
        {"eps": eps, "horizon": horizon, "surrogate": x},
        note="surrogate-relative: the feeder head 2 has an eps-dense walk at "
        "this horizon and no other tested point does; exact statements about "
        "true transitive points are not claimed",
    )
    inst.expect("isolated points are {2,3}", lambda: (
        R.space.isolated == (F(2), F(3)), f"{R.space.isolated}"))
    inst.expect("2 has an eps-dense walk", lambda: _found_row(
        bounded_walk_search(R, 2, eps, horizon)))
    for label, start in [("3", F(3)), ("the surrogate", x), ("1/2", F(1, 2))]:
        inst.expect(
            f"no eps-dense walk from {label}",
            lambda s=start: _notfound_row(bounded_walk_search(R, s, eps, horizon)),
        )
    return inst


@register("fse3", "tent map plus a 2 <-> 3 shuttle that can exit to a dense-prefix point")
def _fse3() -> GalleryInstance:
    eps, horizon = F(1, 32), 300
    x = tent_surrogate()
    R = _tent_with_points([(2, 3), (3, 2), (3, x)], [2, 3])
    inst = GalleryInstance(
        "fse3",
        R,
        {"eps": eps, "horizon": horizon, "surrogate": x},
        note="surrogate-relative as in fse2; the shuttle makes both isolated "
        "points eps-dense starters while refuting the all-walks property",
    )
    inst.expect("2 has an eps-dense walk", lambda: _found_row(
        bounded_walk_search(R, 2, eps, horizon)))
    inst.expect("3 has an eps-dense walk", lambda: _found_row(
        bounded_walk_search(R, 3, eps, horizon)))
    inst.expect("a non-dense looping walk from 2 (not type-1)", lambda: (
        nondense_loop_search(R, 2, eps, horizon).found, "the 2,3 shuttle loops"))
    inst.expect("a non-dense looping walk from 3 (not type-1)", lambda: (
        nondense_loop_search(R, 3, eps, horizon).found, ""))
    return inst


@register("ff", "column relation with an isolated satellite: 0 -> 2 -> y")
def _ff() -> GalleryInstance:
    y, eps, samples = F(2, 3), F(1, 8), 16
    space = Space1D(intervals=[(0, 1)], isolated=[2])
    R = SymbolicRelation(
        space,
        [Segment(0, 1, 1, 1), Segment(0, 0, 0, 1), SinglePoint(0, 2), SinglePoint(2, y)],
    )
    inst = GalleryInstance("ff", R, {"y": y, "eps": eps, "samples": samples})
    inst.expect("stabilized reach of 2 is {2, y, 1}", lambda: (
        sym_reach(R, Region1D.point(2), 8) == (Region1D.from_points([F(2), y, F(1)]), True),
        "exact"))
    inst.expect("2 is not type-3 (reach not dense)", lambda: (
        not eps_dense(space, Region1D.from_points([F(2), y, F(1)]), eps), ""))
    inst.expect("one-step reach of 0 is the whole space (grade 1)", lambda: (
        sym_reach(R, Region1D.point(0), 1)[0].contains_region(space.region()), ""))
    inst.expect("sampled interior points are not type-3", lambda: (
        all(
            not eps_dense(space, sym_reach(R, Region1D.point(F(k, samples)), 8)[0], eps)
            for k in range(1, samples + 1)
        ),
        f"{samples} samples"))
    return inst


@register("tistile0", "tent map with a two-way bridge between the isolated point 2 and a "
          "dense-prefix point")
def _tistile0() -> GalleryInstance:
    eps, horizon = F(1, 32), 300
    t0 = tent_surrogate()
    R = _tent_with_points([(2, t0), (t0, 2)], [2])
    inst = GalleryInstance("tistile0", R, {"eps": eps, "horizon": horizon, "surrogate": t0})
    inst.expect("the bridge target has an eps-dense walk", lambda: _found_row(
        bounded_walk_search(R, t0, eps, horizon)))
    inst.expect("2 has an eps-dense walk", lambda: _found_row(
        bounded_walk_search(R, 2, eps, horizon)))
    return inst


@register("tistile", "tent map plus a one-way feeder from the isolated point 2")
def _tistile() -> GalleryInstance:
    eps, horizon = F(1, 32), 300
    x = tent_surrogate()
    R = _tent_with_points([(2, x)], [2])
    inst = GalleryInstance("tistile", R, {"eps": eps, "horizon": horizon, "surrogate": x})
    inst.expect("second projection misses the isolated point", lambda: (
        projections(R)[1] == Region1D.interval(0, 1)
        and projections(R)[1] != R.space.region(),
        "nothing maps onto 2"))
    inst.expect("2 has an eps-dense walk", lambda: _found_row(
        bounded_walk_search(R, 2, eps, horizon)))
    inst.expect("no eps-dense walk from 1/4", lambda: _notfound_row(
        bounded_walk_search(R, F(1, 4), eps, horizon)))
    return inst


@register("exxi", "tent map with a loop through the isolated point: 0 -> 2 -> (dense-prefix point)")
def _exxi() -> GalleryInstance:
    delta, grid_horizon, union_horizon = F(1, 32), 64, 300
    x = tent_surrogate()
    R = _tent_with_points([(2, x), (0, 2)], [2])
    inst = GalleryInstance(
        "exxi",
        R,
        {"delta": delta, "grid_horizon": grid_horizon, "union_horizon": union_horizon},
        note="transitive in the n >= 0 sense but not in the n >= 1 sense: the "
        "cell at 2 never returns to itself",
    )

    def _grid_row():
        report = grid_transitivity_check(R, delta, grid_horizon)
        return report.transitive, f"max steps {report.max_steps_needed}"

    inst.expect("grid transitivity holds (n from 0)", _grid_row)

    def _positive_row():
        report = grid_transitivity_check(R, delta, grid_horizon, positive_only=True)
        two_cell = next(i for i, c in enumerate(report.cells) if c == (F(2), F(2)))
        ok = set(report.misses) == {(two_cell, two_cell)}
        return ok, f"misses={report.misses[:4]}"

    inst.expect("positive-step transitivity fails exactly at the cell {2}", _positive_row)

    def _union_rows():
        union = forward_union(R, Region1D.point(2), union_horizon, include_start=False)
        inside = not union.contains_point(2)
        sparse = not eps_dense(R.space, union, delta)
        return inside and sparse, "orbit never returns to 2, so the union misses it"

    inst.expect("forward union from {2} (n>=1) misses 2 and is not dense", _union_rows)
    inst.expect("forward union from {2} (n>=0) is delta-dense", lambda: (
        eps_dense(R.space, forward_union(R, Region1D.point(2), grid_horizon, True), delta),
        "the start point itself plus a dense prefix"))
    return inst


@register("exhura", "two half-interval tents coupled only through their endpoints: 0 jumps right, "
          "1 jumps left")
def _exhura() -> GalleryInstance:
    eps = delta = F(1, 32)
    grid_horizon, walk_horizon, walk_samples = 64, 300, 5
    x1, x2 = exhura_surrogates()
    prims = list(left_half_tent_graph()) + list(right_half_tent_graph())
    prims += [SinglePoint(0, x2), SinglePoint(1, x1)]
    R = SymbolicRelation(UNIT, prims)
    inst = GalleryInstance(
        "exhura",
        R,
        {
            "eps": eps,
            "delta": delta,
            "grid_horizon": grid_horizon,
            "walk_horizon": walk_horizon,
            "x1": x1,
            "x2": x2,
        },
        note="the open-set transitivity certificate is exact; the absence of a "
        "single dense walk is horizon-limited evidence, and exact emptiness of "
        "the dense-walk set is deliberately NOT claimed",
    )

    def _grid_row():
        report = grid_transitivity_check(R, delta, grid_horizon)
        ok = report.transitive and report.max_steps_needed <= grid_horizon
        return ok, f"max steps {report.max_steps_needed}"

    inst.expect("grid transitivity certified within the step budget", _grid_row)

    def _no_dense_walks():
        starts = [F(k, 8) for k in range(1, walk_samples + 1)]
        results = [bounded_walk_search(R, s, eps, walk_horizon, budget=30000) for s in starts]
        if any(r.found for r in results):
            return False, "unexpected dense walk"
        return "unknown", f"{len(starts)} starts searched, none dense at this horizon"

    inst.expect("no single eps-dense walk from sampled starts", _no_dense_walks)
    return inst


@register("ex31", "two half-interval tents fed from 0: the hub reaches everything but any single "
          "walk stays in one half")
def _ex31() -> GalleryInstance:
    cover_eps, cover_horizon, max_iter = F(1, 32), 300, 1400
    x1, x2 = ex31_surrogates()
    prims = list(left_half_tent_graph()) + list(right_half_tent_graph())
    prims += [SinglePoint(0, x1), SinglePoint(0, x2)]
    R = SymbolicRelation(UNIT, prims)
    eps_list = tuple(F(1, 2**k) for k in range(3, 9))
    inst = GalleryInstance(
        "ex31",
        R,
        {"cover_eps": cover_eps, "cover_horizon": cover_horizon, "x1": x1, "x2": x2,
         "eps_list": eps_list},
        note="reach-grade growth as eps shrinks is evidence of an unbounded "
        "grade sequence, not a proof about the limit",
    )
    inst.expect("reach from 0 keeps growing for 10 steps", lambda: (
        _strictly_growing(sym_reach_chain(R, Region1D.point(0), 10)), ""))

    def _grade_row():
        grades = _ex31_grade_list(x1, x2, eps_list, max_iter)
        ok = all(g is not None for g in grades) and all(
            a < b for a, b in zip(grades, grades[1:])
        )
        return ok, f"thresholds {grades}"

    inst.expect("minimal dense-reach step grows strictly as eps halves", _grade_row)

    def _cover_row():
        res = sym_branch_cover(R, 0, cover_eps, cover_horizon, budget=20000)
        if res.size != 2 or len(res.witnesses) != 2:
            return False, f"size={res.size}"
        seconds = sorted(w[1] for w in res.witnesses)
        ok = seconds[0] < F(1, 2) < seconds[1]
        return ok, "one walk per half"

    inst.expect("two walks cover, one cannot (cover size 2)", _cover_row)
    return inst


def _strictly_growing(chain: list[Region1D]) -> bool:
    return all(a != b and b.contains_region(a) for a, b in zip(chain, chain[1:]))


@lru_cache(maxsize=None)
def _ex31_grade_thresholds(x1, x2, eps_key: tuple, max_iter: int) -> dict:
    orbit1 = forward_orbit(left_half_tent_graph(), x1, max_iter)
    orbit2 = forward_orbit(right_half_tent_graph(), x2, max_iter)
    batches = [[F(0)]] + [[orbit1[n], orbit2[n]] for n in range(max_iter)]
    return density_threshold_steps(0, 1, batches, list(eps_key))


def _ex31_grade_list(x1, x2, eps_list, max_iter) -> list:
    thresholds = _ex31_grade_thresholds(x1, x2, tuple(eps_list), max_iter)
    return [thresholds[e] for e in eps_list]
