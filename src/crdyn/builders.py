"""Piecewise-linear map graphs and surrogate dense-orbit points.

The tent family and the staircase approximations cover every figure-style
relation this library ships.  True transitive points of these maps are
irrational and not finitely representable, so gallery instances use dyadic
surrogates: points whose finite orbit prefix provably hits every eps-cell of
the target interval.  A surrogate certifies exactly that prefix fact and
nothing more.
"""

from __future__ import annotations

from fractions import Fraction

from .classify import BudgetExceededError
from .region import OrbitCover, Region1D, Space1D, _as_fraction, eps_dense, grid_cells
from .symbolic import Segment, _meeting, _window_image

F = Fraction

_PREFIX_ATTEMPTS = 64  # seeded candidates dense_prefix_point tries before giving up


def tent_map_graph() -> list[Segment]:
    """Graph of the full tent map on [0,1]."""
    return [Segment(0, 0, F(1, 2), 1), Segment(F(1, 2), 1, 1, 0)]


def left_half_tent_graph() -> list[Segment]:
    """Tent-like map of [0,1/2] onto itself (2t, then 1-2t)."""
    return [Segment(0, 0, F(1, 4), F(1, 2)), Segment(F(1, 4), F(1, 2), F(1, 2), 0)]


def right_half_tent_graph() -> list[Segment]:
    """Tent-like map of [1/2,1] onto itself (2t-1/2, then 5/2-2t)."""
    return [Segment(F(1, 2), F(1, 2), F(3, 4), 1), Segment(F(3, 4), 1, 1, F(1, 2))]


def cantor_stage_intervals(level: int) -> list[tuple[Fraction, Fraction]]:
    """The 2^level closed intervals of the level-th Cantor construction stage."""
    if level < 0:
        raise ValueError("level must be non-negative")
    intervals = [(F(0), F(1))]
    for _ in range(level):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        intervals = nxt
    return intervals


def cantor_staircase(level: int) -> list[Segment]:
    """Level-n piecewise-linear approximation of the devil's staircase.

    Ramps rise over the 2^n stage intervals; flats join them over the removed
    gaps.  This approximates the true Cantor function (which is not a finite
    union of segments) and converges to it as the level grows.
    """
    stages = cantor_stage_intervals(level)
    n = len(stages)
    segments: list[Segment] = []
    for k, (a, b) in enumerate(stages):
        y0 = F(k, n)
        y1 = F(k + 1, n)
        segments.append(Segment(a, y0, b, y1))
        if k + 1 < n:
            na, _ = stages[k + 1]
            segments.append(Segment(b, y1, na, y1))
    return segments


def map_value(segments: list[Segment], t) -> Fraction:
    """Evaluate a single-valued piecewise-linear graph at t."""
    t = _as_fraction(t)
    values = set()
    for ylo, yhi in filter(None, (_window_image(seg._row, t, t) for seg in segments)):
        if ylo != yhi:
            raise ValueError("vertical segment: not a function graph")
        values.add(ylo)
    if len(values) != 1:
        raise ValueError(f"map is not single-valued at {t}: {sorted(values)}")
    return values.pop()


def forward_orbit(segments: list[Segment], start, steps: int) -> list[Fraction]:
    """[start, f(start), ..., f^steps(start)] for a single-valued graph."""
    orbit = [_as_fraction(start)]
    for _ in range(steps):
        orbit.append(map_value(segments, orbit[-1]))
    return orbit


def map_preimages(segments: list[Segment], y) -> list[Fraction]:
    """All exact t with f(t) = y: the image of y under each mirrored piece.

    A flat piece at y mirrors to a vertical one, whose image is a range.
    """
    y = _as_fraction(y)
    out = set()
    for tlo, thi in filter(None, (_window_image(seg.mirrored()._row, y, y) for seg in segments)):
        if tlo != thi:
            raise ValueError("map has a flat piece at this value; preimages are not finite")
        out.add(tlo)
    return sorted(out)


def density_threshold_steps(
    lo,
    hi,
    step_batches: list[list[Fraction]],
    eps_values: list[Fraction],
) -> dict[Fraction, int | None]:
    """First step index at which the accumulated points are eps-dense in [lo, hi].

    step_batches[n] lists the points added at step n; points outside [lo, hi]
    are ignored.  Returns, per eps, the least n whose cumulative point set has
    covering radius <= eps (None when never reached).  One OrbitCover per eps,
    largest eps first, takes each point in O(log n) comparisons plus a tuple
    copy.  lo == hi is the one-point space; lo > hi and eps <= 0 raise
    ValueError.
    """
    space = Space1D(intervals=[(lo, hi)])
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    eps_values = sorted({_as_fraction(e) for e in eps_values}, reverse=True)
    if eps_values and eps_values[-1] <= 0:
        raise ValueError("eps must be positive")
    out: dict[Fraction, int | None] = {e: None for e in eps_values}
    steps = enumerate(step_batches)
    points: tuple[Fraction, ...] = ()
    for eps in eps_values:
        cover = OrbitCover(space, eps, points)
        while not cover.dense():  # an empty cover is never dense, so n gets bound
            step = next(steps, None)
            if step is None:
                return out
            n, batch = step
            for v in map(_as_fraction, batch):
                if lo <= v <= hi:
                    cover = cover.insert(v)
        out[eps] = n
        points = cover.points
    return out


def _backward_path_into(
    segments: list[Segment],
    w: Fraction,
    lo: Fraction,
    hi: Fraction,
    cell: tuple[Fraction, Fraction],
    max_depth: int,
) -> list[Fraction] | None:
    """Shortest preimage chain from w landing inside `cell`, or None.

    Chains [p1, p2, ..., pk] satisfy f(p1) = w and f(p_{i+1}) = p_i, so
    appending one to a backward chain keeps it a valid backward orbit.
    """
    a, b = cell
    frontier: list[tuple[Fraction, list[Fraction]]] = [(w, [])]
    for _ in range(max_depth):
        nxt: list[tuple[Fraction, list[Fraction]]] = []
        for v, path in frontier:
            for p in map_preimages(segments, v):
                if not lo <= p <= hi:
                    continue
                new_path = path + [p]
                if a <= p <= b:
                    return new_path
                nxt.append((p, new_path))
        frontier = nxt
        if not frontier:
            return None
    return None


def dense_prefix_point(
    segments: list[Segment],
    target: tuple,
    eps,
    horizon: int,
    min_denominator_bits: int = 360,
    seed: int = 1,
) -> Fraction:
    """A dyadic point whose first `horizon` iterates hit every eps-cell of target.

    Built backward from a fine dyadic seed: at each step the exact preimage
    hitting a still-unhit cell is preferred; when neither branch is fresh, a
    short targeted preimage chain jumps into the farthest unhit cell.  The
    candidate's forward orbit is then re-verified cell by cell, so the return
    value carries a checked guarantee: its length-`horizon` orbit prefix is
    eps-dense in the target interval.  Denominators start huge so the forward
    orbit stays clear of finitely representable fold points well past the
    prefix.

    Raises BudgetExceededError when no candidate works within the budget;
    this generator does NOT claim to produce a true transitive point.
    """
    import random as _random

    eps = _as_fraction(eps)
    lo, hi = _as_fraction(target[0]), _as_fraction(target[1])
    if lo >= hi:
        raise ValueError("target must be a proper interval")
    space = Space1D(intervals=[(lo, hi)])
    cells = grid_cells(space, eps)
    if len(cells) > horizon + 1:
        raise BudgetExceededError(
            f"{len(cells)} cells cannot be hit by {horizon + 1} orbit points"
        )
    jump_depth = max(2, len(cells).bit_length() + 3)

    def cell_hits(v: Fraction, unhit: set[int]) -> list[int]:
        return [j for j in _meeting(cells, v, v) if j in unhit]

    bits = min_denominator_bits + horizon

    for attempt in range(_PREFIX_ATTEMPTS):
        rng = _random.Random((seed << 16) + attempt)
        numerator = rng.getrandbits(bits) | 1
        z = lo + (hi - lo) * F(numerator, 2**bits)
        if not lo < z < hi:
            continue
        chain = [z]
        unhit = set(range(len(cells)))
        for i in cell_hits(z, unhit):
            unhit.discard(i)
        failed = False
        while unhit and len(chain) - 1 < horizon:
            try:
                pres = [p for p in map_preimages(segments, chain[-1]) if lo <= p <= hi]
            except ValueError:
                failed = True
                break
            if not pres:
                failed = True
                break
            scored = sorted(
                ((-len(cell_hits(p, unhit)), p) for p in pres),
            )
            gain, best = scored[0]
            if gain < 0:
                chain.append(best)
                for i in cell_hits(best, unhit):
                    unhit.discard(i)
                continue
            # no fresh cell in reach: jump into the unhit cell farthest from here
            here = _meeting(cells, chain[-1], chain[-1])[-1]
            far = max(unhit, key=lambda i: (abs(i - here), -i))
            path = _backward_path_into(segments, chain[-1], lo, hi, cells[far], jump_depth)
            if path is None or len(chain) - 1 + len(path) > horizon:
                failed = True
                break
            for p in path:
                chain.append(p)
                for i in cell_hits(p, unhit):
                    unhit.discard(i)
        if failed or unhit:
            continue
        candidate = chain[-1]
        # verify the forward prefix independently of the construction
        orbit = forward_orbit(segments, candidate, horizon)
        region = Region1D.from_points(orbit)
        hit = set()
        for v in orbit:
            hit.update(_meeting(cells, v, v))
        if len(hit) == len(cells) and eps_dense(space, region, eps):
            return candidate
    raise BudgetExceededError(
        f"no eps-dense prefix point found in {_PREFIX_ATTEMPTS} attempts"
    )
