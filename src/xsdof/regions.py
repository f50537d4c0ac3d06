"""Exact-rational evaluation of the closed-form (S)DoF results.

Every quantity here is a :class:`fractions.Fraction`; floating point never
enters.  Figure corner labels such as 3/4, 12/7, 8/3 or 4/7 are therefore
reproduced bit-exactly, and polygon containment is decided without
tolerance.  Every region is cut by one line x/d + y/mx <= 1 and its mirror,
so a :class:`RegionPolygon` holds the two intercepts: its vertices are
written from them in closed form and membership is decided from the two
inequalities.

The two per-receiver sum rates are abbreviated throughout as ``x`` (sum of
degrees of freedom delivered to receiver 1) and ``y`` (receiver 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput, RegimeError

Point = tuple[Fraction, Fraction]

#: model keys accepted by the region calculators
ASYM_FB_DCSIT = "asym-fb-dcsit"
SYM_FB = "sym-fb"
ASYM_FB = "asym-fb"
ASYM_FB_DCSIT_TX1 = "asym-fb-dcsit-tx1"

_SDOF_MODELS = (ASYM_FB_DCSIT, SYM_FB, ASYM_FB, ASYM_FB_DCSIT_TX1)


def _model_key(model) -> str:
    key = getattr(model, "value", model)
    if key not in _SDOF_MODELS:
        raise InvalidInput(f"unknown feedback model {model!r}")
    return key


def ds(n: int, m_prime: int) -> Fraction:
    """Secure-DoF building block for an effective ``m_prime``-antenna sender.

    Piecewise in ``m_prime`` relative to the receive antenna count ``n``:
    zero up to ``n``, then ``n*m'*(m'-n) / (n^2 + m'*(m'-n))`` up to ``2n``,
    then saturating at ``2n/3``.  The branches agree at both boundaries.
    """
    if n < 1 or m_prime < 0:
        raise InvalidInput(f"need n >= 1 and m_prime >= 0, got ({n}, {m_prime})")
    if m_prime <= n:
        return Fraction(0)
    if m_prime <= 2 * n:
        return Fraction(n * m_prime * (m_prime - n), n * n + m_prime * (m_prime - n))
    return Fraction(2 * n, 3)


def ds_local(n: int, m_prime: int) -> Fraction:
    """Feedback-only counterpart of :func:`ds` (no transmitter CSI).

    Middle branch ``m'^2*(m'-n) / (2n^2 + (m'-n)*(3m'-n))`` on the open
    interval between ``n`` and ``2n``; zero below, ``2n/3`` at and above
    ``2n``.  Unlike :func:`ds`, the middle branch does *not* meet ``2n/3``
    at the upper boundary (it gives ``4n/7`` there), so the saturation
    branch takes precedence at ``m' = 2n``, the only resolution consistent
    with the bound being tight for ``m' >= 2n``.
    """
    if n < 1 or m_prime < 0:
        raise InvalidInput(f"need n >= 1 and m_prime >= 0, got ({n}, {m_prime})")
    if m_prime <= n:
        return Fraction(0)
    if m_prime >= 2 * n:
        return Fraction(2 * n, 3)
    d = m_prime - n
    return Fraction(m_prime * m_prime * d, 2 * n * n + d * (3 * m_prime - n))


@dataclass(frozen=True)
class RegionPolygon:
    """Convex region of achievable per-receiver sum-DoF pairs: x/d + y/mx
    <= 1 and its mirror in the first quadrant, or the origin alone when
    ``d <= 0``.

    The intercepts ``d`` and ``mx`` are the region; ``vertices`` and
    ``labels`` are written from them in closed form and are what the JSON
    and CSV output show.  ``discrepancy`` is the symmetric corner of a
    feedback-only region whose scheme point and inequality intersection
    differ, flagged in the JSON output; None for every other region.
    """

    d: Fraction
    mx: Fraction
    model: str
    discrepancy: SymmetricCorner | None = None

    @property
    def labels(self) -> dict[str, Point]:
        """Every named corner: the two axis points and the symmetric point,
        even where it lies on the edge between them; the origin alone for
        an origin-only region."""
        zero = Fraction(0)
        if self.d <= 0:
            return {"origin": (zero, zero)}
        axis = min(self.d, self.mx)
        return {
            "axis_rx1": (axis, zero),
            "symmetric": _symmetric_intersection(self.d, self.mx),
            "axis_rx2": (zero, axis),
        }

    @property
    def vertices(self) -> tuple[Point, ...]:
        """Counterclockwise from (0, 0) through the axis point (a, 0), the
        symmetric point unless it lies on the edge to (0, a), and (0, a);
        an origin-only region has one vertex."""
        labels = self.labels
        if self.d <= 0:
            return (labels["origin"],)
        # sym = d*mx/(d+mx) > axis/2 unless d == mx, where it is an edge midpoint
        corner = () if self.d == self.mx else (labels["symmetric"],)
        zero = Fraction(0)
        return ((zero, zero), labels["axis_rx1"]) + corner + (labels["axis_rx2"],)

    def contains_point(self, point: Point) -> bool:
        """Exact membership test: both line inequalities, cleared of
        denominators."""
        x, y = Fraction(point[0]), Fraction(point[1])
        if x < 0 or y < 0:
            return False
        if self.d <= 0:
            return x == y == 0
        bound = self.d * self.mx
        return x * self.mx + y * self.d <= bound and y * self.mx + x * self.d <= bound

    def contains_polygon(self, other: "RegionPolygon") -> bool:
        """True iff every vertex of ``other`` lies in this (convex) region."""
        return all(self.contains_point(v) for v in other.vertices)

    def to_jsonable(self) -> dict:
        out = {
            "model": self.model,
            "vertices": [_point_json(v) for v in self.vertices],
            "labels": {k: _point_json(v) for k, v in sorted(self.labels.items())},
        }
        if self.discrepancy is not None:
            corner = self.discrepancy
            out["flags"] = {"inner_bound_discrepancy": {
                "intersection_point": [frac_json(v) for v in corner.intersection_point],
                "scheme_point": [frac_json(v) for v in corner.point],
            }}
        return out


def frac_json(f: Fraction) -> dict:
    """Render a Fraction as the canonical ``{"num", "den"}`` JSON object."""
    return {"num": f.numerator, "den": f.denominator}


def _point_json(p: Point) -> dict:
    return {"x": frac_json(p[0]), "y": frac_json(p[1])}


def _symmetric_intersection(d: Fraction, mx: Fraction) -> Point:
    """Intersection of x/d + y/mx = 1 with its mirror (d, mx > 0)."""
    p = d * mx / (d + mx)
    return (p, p)


def sdof_region(m: int, n: int, model) -> RegionPolygon:
    """Secure sum-DoF region for transmitters with ``m`` antennas, receivers with ``n``.

    For the delayed-CSIT and symmetric-feedback models the region is cut by
    ``x/ds(n, 2m) + y/min(2m, 2n) <= 1`` and its mirror; the feedback-only
    models replace :func:`ds` with :func:`ds_local` (an inner bound).  When
    ``2m <= n`` the region collapses to the origin.
    """
    key = _model_key(model)
    if m < 1 or n < 1:
        raise InvalidInput(f"need m, n >= 1, got ({m}, {n})")
    if 2 * m <= n:
        return RegionPolygon(Fraction(0), Fraction(0), key)
    mx = Fraction(min(2 * m, 2 * n))
    if key in (ASYM_FB_DCSIT, SYM_FB):
        return RegionPolygon(ds(n, 2 * m), mx, key)
    # feedback-only inner bound; flag the known formula-vs-scheme mismatch
    corner = symmetric_corner(m, n, key)
    return RegionPolygon(ds_local(n, 2 * m), mx, key, corner if corner.discrepancy else None)


def dof_region(m: int, n: int) -> RegionPolygon:
    """Sum-DoF region without secrecy constraints (delayed CSIT + feedback)."""
    if m < 1 or n < 1:
        raise InvalidInput(f"need m, n >= 1, got ({m}, {n})")
    return RegionPolygon(Fraction(min(2 * m, n)), Fraction(min(2 * m, 2 * n)), "dof")


@dataclass(frozen=True)
class SymmetricCorner:
    """The symmetric corner of a region.

    ``point`` is the achievability ground truth (what the matching
    transmission scheme delivers); ``intersection_point`` is where the two
    region inequalities cross.  For the delayed-CSIT and symmetric-feedback
    models these provably coincide.  For the feedback-only inner bound they
    disagree on mid-regime configurations; ``discrepancy`` is then set and
    both values are surfaced rather than silently picking one.
    """

    point: Point
    intersection_point: Point
    discrepancy: bool


def symmetric_corner(m: int, n: int, model) -> SymmetricCorner:
    """Symmetric corner point of the (S)DoF region for a feedback model."""
    key = _model_key(model)
    if 2 * m <= n:
        raise RegimeError(f"(m={m}, n={n}): secure transmission impossible when 2m <= n")
    mx = Fraction(min(2 * m, 2 * n))
    if key in (ASYM_FB_DCSIT, SYM_FB):
        if 2 * m <= 2 * n:
            p = Fraction(n * (2 * m - n), 2 * m)
        else:
            p = Fraction(n, 2)
        inter = _symmetric_intersection(ds(n, 2 * m), mx)
        return SymmetricCorner((p, p), inter, (p, p) != inter)
    # feedback-only: the scheme's achieved point vs the inequality intersection
    if 2 * m <= 2 * n:
        p = Fraction(m * m * (2 * m - n), 4 * m * m - 3 * m * n + n * n)
    else:
        p = Fraction(n, 2)
    inter = _symmetric_intersection(ds_local(n, 2 * m), mx)
    return SymmetricCorner((p, p), inter, (p, p) != inter)


def dof_symmetric_corner(m: int, n: int) -> Point:
    """Symmetric corner of the no-secrecy region (min-form line intersection)."""
    a = Fraction(min(2 * m, 2 * n))
    b = Fraction(min(2 * m, n))
    return _symmetric_intersection(a, b)


def total_sdof(m: int, n: int) -> Fraction:
    """Total secure degrees of freedom over all four messages."""
    if m < 1 or n < 1:
        raise InvalidInput(f"need m, n >= 1, got ({m}, {n})")
    if 2 * m <= n:
        return Fraction(0)
    if 2 * m <= 2 * n:
        return Fraction(n * (2 * m - n), m)
    return Fraction(n)


def total_dof_fb_dcsit(m: int, n: int) -> Fraction:
    """Total DoF with output feedback and delayed CSIT, no secrecy."""
    if 2 * m <= n:
        return Fraction(2 * m)
    if 2 * m <= 2 * n:
        return Fraction(4 * m * n, 2 * m + n)
    return Fraction(4 * n, 3)


def total_dof_no_csit(m: int, n: int) -> Fraction:
    """Total DoF with no feedback and no transmitter CSI."""
    if 2 * m <= n:
        return Fraction(2 * m)
    return Fraction(n)


@dataclass(frozen=True)
class TableRow:
    """One antenna count's worth of the total-(S)DoF comparison table."""

    m: int
    n: int
    total_sdof: Fraction
    total_dof_fb_dcsit: Fraction
    total_dof_no_csit: Fraction

    def to_jsonable(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "total_sdof": frac_json(self.total_sdof),
            "total_dof_fb_dcsit": frac_json(self.total_dof_fb_dcsit),
            "total_dof_no_fb_no_csit": frac_json(self.total_dof_no_csit),
        }


def table1(n: int, m_values) -> list[TableRow]:
    """Total-(S)DoF table for fixed ``n`` across a range of ``m``."""
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")
    rows = []
    for m in m_values:
        if m < 1:
            raise InvalidInput(f"need m >= 1, got {m}")
        rows.append(
            TableRow(m, n, total_sdof(m, n), total_dof_fb_dcsit(m, n), total_dof_no_csit(m, n))
        )
    return rows
