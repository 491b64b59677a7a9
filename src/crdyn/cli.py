"""Command-line surface.

Subcommands: classify, tree, transitive, reach, mahavier, discretize,
gallery.  Exit codes: 0 success (unknown-at-horizon results are marked in
the output but still exit 0), 1 expectation or assertion failure, 2 usage
or parse errors, reported on one line without a traceback.  All reports
are deterministic and record the parameters they were produced with.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from . import gallery
from .classify import (
    BudgetExceededError,
    Certainty,
    IllegalPointError,
    _SEARCH_BUDGET,
    characterization_suite,
    classify_all,
    classify_point,
    reach_chain,
)
from .finite import FiniteRelation, InvalidInstanceError, mahavier_count, mahavier_enumerate
from .io import parse_document, serialize_instance
from .region import Region1D, format_fraction, parse_fraction
from .symbolic import (
    IntervalPointTag,
    SymbolicRelation,
    classify_interval_point,
    grid_transitivity_check,
    sym_reach_chain,
)
from .tree import build_tree, dot_export

DEFAULT_EPS = Fraction(1, 64)
DEFAULT_HORIZON = 200
DEFAULT_DELTA = Fraction(1, 64)


class _UsageError(Exception):
    pass


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    return parse_document(text)


def _write(path: str, text: str) -> None:
    """Write an output file; call before printing, so a failure leaves stdout empty."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _count(least: int):
    """argparse type: a decimal integer no smaller than `least`."""

    def parse(text: str) -> int:
        if not re.fullmatch(r"[0-9]+", text) or int(text) < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return int(text)

    return parse


def _positive_fraction(text: str) -> Fraction:
    """argparse type: a strict rational (see parse_fraction) above zero."""
    try:
        value = parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive rational, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Argument errors become usage errors: one line, exit code 2."""

    def error(self, message):
        raise _UsageError(message)


def _finite_point(relation: FiniteRelation, name: str) -> int:
    if name not in relation.space.index:
        raise _UsageError(f"unknown point {name!r}; points: {list(relation.space.labels)}")
    return relation.space.index[name]


def _space_point(relation: SymbolicRelation, text: str) -> Fraction:
    x = _fraction_arg(text)
    if not relation.space.contains_point(x):
        raise _UsageError(f"{text} is not a point of the space")
    return x


def _header(cmd: str, **params) -> str:
    shown = {k: format_fraction(v) if isinstance(v, Fraction) else v for k, v in params.items()}
    return " ".join([f"# crdyn {cmd}", *(f"{k}={v}" for k, v in shown.items())])


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(args) -> int:
    relation, density = _load(args.file)
    eps, horizon = args.eps or DEFAULT_EPS, args.horizon
    header = _header("classify", file=args.file, eps=eps, horizon=horizon)
    if isinstance(relation, FiniteRelation):
        predicate = density.with_eps(eps) if density is not None and args.eps else density
        budget = max(horizon * 100, _SEARCH_BUDGET)
        if args.point is not None:
            x = _finite_point(relation, args.point)
            rows = [(x, classify_point(relation, x, predicate, budget))]
        else:
            rows = enumerate(classify_all(relation, predicate, budget))
        print(header)
        print(f"{'point':>10}  {'verdict':<13} {'grade':<6} certainty")
        for x, tag in rows:
            grade = tag.reach_grade if tag.reach_grade is not None else "-"
            print(
                f"{relation.space.labels[x]:>10}  {tag.verdict.value:<13} "
                f"{grade!s:<6} {tag.certainty.value}"
            )
        return 0
    if args.point is None:
        raise _UsageError("interval instances need --point")
    tag = classify_interval_point(relation, _space_point(relation, args.point), eps, horizon)
    print(header)
    print(f"{'claim':<22} {'status':<20} detail")
    for claim, status, detail in _interval_rows(tag):
        print(f"{claim:<22} {status:<20} {detail}")
    return 0


def _interval_rows(tag: IntervalPointTag) -> list[tuple[str, str, str]]:
    """The (claim, status, detail) rows of an interval point's tag."""
    if tag.legal is Certainty.REFUTED:
        return [("legal", "refuted", f"images die out at step {tag.dies_at}"), ("verdict", "illegal", "")]
    legal = tag.legal is Certainty.CERTIFIED
    if tag.total:
        unsure, why = "", "every point has a successor"
    elif legal:
        unsure, why = ", legal set unknown", "a loop from the point is an infinite walk"
    else:
        unsure, why = ", legality unknown", "images stay non-empty"
    rows = [("legal", tag.legal.value, why)]
    if tag.trans3 is Certainty.REFUTED:
        rows.append(("trans3-at-eps", "refuted", "reach stabilized below density"))
        rows.append(("verdict", "intransitive-at-eps" if legal else "unknown", ""))
        return rows
    grade = tag.reach_grade
    reach = "reach still growing" if grade is None else f"reach dense at step {grade}{unsure}"
    rows.append(("trans3-at-eps", tag.trans3.value, reach))
    if tag.trans3 is Certainty.CERTIFIED:
        rows.append(("reach-grade", str(grade), "least step with an eps-dense reach"))
    walk, loop = tag.walk, tag.loop
    found = f"witness of {len(walk.witness) - 1} steps{unsure}" if walk.found else f"search {walk.status}"
    rows.append(("trans2-at-eps", tag.trans2.value, found))
    looped = "a non-dense looping walk exists" if loop.found else f"search {loop.status}"
    rows.append(("trans1-at-eps", tag.trans1.value, looped))
    return rows


# ---------------------------------------------------------------------------
# tree


def _cmd_tree(args) -> int:
    relation, _ = _load(args.file)
    if not isinstance(relation, FiniteRelation):
        raise _UsageError("tree unfolding is defined for finite instances")
    x = _finite_point(relation, args.point)
    tree = build_tree(relation, x, args.depth)
    if args.dot:
        _write(args.dot, dot_export(tree))
    print(_header("tree", file=args.file, point=args.point, depth=args.depth))
    for level, members in enumerate(tree.levels):
        names = " ".join(relation.space.labels[p] for p in sorted(members))
        print(f"level {level}: {names}")
    if args.dot:
        print(f"dot written to {args.dot}")
    return 0


# ---------------------------------------------------------------------------
# transitive


def _cmd_transitive(args) -> int:
    relation, _ = _load(args.file)
    eps, horizon = args.eps or DEFAULT_DELTA, args.horizon
    label = "+transitive" if args.plus else "transitive"
    if isinstance(relation, FiniteRelation):
        print(_header("transitive", file=args.file))
        report = characterization_suite(relation)
        # statements 1 and 2 are transitivity and +transitivity
        print(f"{label}: {str(report.statements[1 if args.plus else 0]).lower()}")
        print("statements 1-8:", " ".join(str(s).lower() for s in report.statements))
        if not (report.group1_consistent and report.group2_consistent and report.inverse_invariant):
            print("internal inconsistency in the characterization suite", file=sys.stderr)
            return 1
        return 0
    report = grid_transitivity_check(relation, eps, horizon, positive_only=args.plus)
    print(_header("transitive", file=args.file, delta=eps, horizon=horizon))
    if report.transitive:
        print(f"{label}-at-grid: certified (max steps {report.max_steps_needed})")
    else:
        print(f"{label}-at-grid: not certified; {len(report.misses)} cell pairs unreached")
        for ui, vi in report.misses[:8]:
            u, v = report.cells[ui], report.cells[vi]
            print(f"  miss: [{format_fraction(u[0])},{format_fraction(u[1])}] -> "
                  f"[{format_fraction(v[0])},{format_fraction(v[1])}]")
    return 0


# ---------------------------------------------------------------------------
# reach


def _cmd_reach(args) -> int:
    relation, _ = _load(args.file)
    if isinstance(relation, FiniteRelation):
        chain = reach_chain(relation, _finite_point(relation, args.point), args.steps)
        header = _header("reach", file=args.file, point=args.point)
        rows = [" ".join(relation.space.labels[p] for p in sorted(members)) for members in chain]
    else:
        steps = args.steps if args.steps is not None else DEFAULT_HORIZON
        chain = sym_reach_chain(relation, Region1D.point(_space_point(relation, args.point)), steps)
        header = _header("reach", file=args.file, point=args.point, steps=steps)
        rows = [repr(region) for region in chain]
    print(header)
    stabilized = len(chain) >= 2 and chain[-1] == chain[-2]
    for n, row in enumerate(rows[:-1] if stabilized else rows):
        print(f"step {n}: {row}")
    print(f"stabilized: {str(stabilized).lower()}")
    return 0


# ---------------------------------------------------------------------------
# mahavier


def _cmd_mahavier(args) -> int:
    relation, _ = _load(args.file)
    if not isinstance(relation, FiniteRelation):
        raise _UsageError("walk enumeration is defined for finite instances")
    print(_header("mahavier", file=args.file, depth=args.depth))
    if args.list is not None:
        for walk in mahavier_enumerate(relation, args.depth, args.list):
            print(" ".join(walk.labels()))
        return 0
    print(f"count: {mahavier_count(relation, args.depth)}")
    return 0


# ---------------------------------------------------------------------------
# discretize


def _cmd_discretize(args) -> int:
    relation, _ = _load(args.file)
    if not isinstance(relation, SymbolicRelation):
        raise _UsageError("discretize applies to interval instances")
    from .symbolic import discretize

    finite, predicate = discretize(relation, args.delta)
    _write(args.output, serialize_instance(finite, predicate))
    print(_header("discretize", file=args.file, delta=args.delta))
    print(f"boxes: {finite.space.size}  edges: {len(finite.edges)}  -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# gallery


def _cmd_gallery(args) -> int:
    if args.action != "run" and args.name is not None:
        raise _UsageError(f"gallery {args.action} takes no instance name")
    if args.action == "list":
        for name in gallery.names():
            print(f"{name:14s} {gallery.describe(name)}")
        return 0
    if args.action == "run":
        if not args.name:
            raise _UsageError("gallery run needs an instance name")
        if args.name not in gallery.names():
            raise _UsageError(f"unknown gallery instance {args.name!r}; see crdyn gallery list")
        results = gallery.build(args.name).run()
    else:
        results = gallery.run_all()
    for line in gallery.gallery_report_lines(results):
        print(line)
    failures = [r for r in results if not r.ok]
    unknowns = [r for r in results if r.status == "unknown-expected"]
    print(
        f"total {len(results)}: {len(results) - len(failures) - len(unknowns)} pass, "
        f"{len(unknowns)} unknown-as-expected, {len(failures)} fail"
    )
    return 1 if failures else 0


# ---------------------------------------------------------------------------


@functools.cache  # built once per process
def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="crdyn",
        description="transitivity taxonomy for dynamical systems given by closed relations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="per-point classification table")
    c.add_argument("file")
    c.add_argument("--point", default=None)
    c.add_argument("--eps", type=_positive_fraction, default=None)
    c.add_argument("--horizon", type=_count(0), default=DEFAULT_HORIZON)
    c.set_defaults(fn=_cmd_classify)

    t = sub.add_parser("tree", help="level listing of the walk tree, optional DOT export")
    t.add_argument("file")
    t.add_argument("--point", required=True)
    t.add_argument("--depth", type=_count(0), required=True)
    t.add_argument("--dot", default=None)
    t.set_defaults(fn=_cmd_tree)

    tr = sub.add_parser("transitive", help="system transitivity and the eight-statement vector")
    tr.add_argument("file")
    tr.add_argument("--plus", action="store_true")
    tr.add_argument("--eps", type=_positive_fraction, default=None)
    tr.add_argument("--horizon", type=_count(0), default=DEFAULT_HORIZON)
    tr.set_defaults(fn=_cmd_transitive)

    r = sub.add_parser("reach", help="reach chain with stabilization report")
    r.add_argument("file")
    r.add_argument("--point", required=True)
    r.add_argument("--steps", type=_count(0), default=None)
    r.set_defaults(fn=_cmd_reach)

    m = sub.add_parser("mahavier", help="count or list fixed-length walks")
    m.add_argument("file")
    m.add_argument("--depth", type=_count(1), required=True)
    mode = m.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--list", type=_count(0), default=None, metavar="K")
    m.set_defaults(fn=_cmd_mahavier)

    d = sub.add_parser("discretize", help="sound grid outer approximation")
    d.add_argument("file")
    d.add_argument("--delta", type=_positive_fraction, required=True)
    d.add_argument("-o", "--output", required=True)
    d.set_defaults(fn=_cmd_discretize)

    g = sub.add_parser("gallery", help="list or run the worked instances")
    g.add_argument("action", choices=["list", "run", "run-all"])
    g.add_argument("name", nargs="?", default=None)
    g.set_defaults(fn=_cmd_gallery)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidInstanceError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (IllegalPointError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # a range check below the argument layer: still a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
