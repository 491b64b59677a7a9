"""Region and eps-net helpers that only the tests use."""

from crdyn.region import Region1D, _as_fraction


def intersects_open_interval(region: Region1D, lo, hi) -> bool:
    """True when the region meets the OPEN interval (lo, hi)."""
    lo = _as_fraction(lo)
    hi = _as_fraction(hi)
    if lo >= hi:
        return False
    return any(phi > lo and plo < hi for plo, phi in region.pieces)


def isolated_points(region: Region1D) -> tuple:
    """The degenerate pieces of the region, as points."""
    return tuple(lo for lo, hi in region.pieces if lo == hi)


def covered_region(net, points) -> Region1D:
    """The union of the eps-net's extents at the given indices."""
    return Region1D(net.extents[i] for i in points)
