"""Parameter sweeps: a base scenario varied along one or two exact axes.

:class:`SweepGrid` checks a sweep whole, then evaluates its rows lazily in
integer arithmetic through the overlap kernel of :mod:`goldbug.analysis`;
the CLI streams them.  :func:`sweep` materialises the same rows as a
:class:`SweepTable` of :class:`SweepRow` objects for library callers.
Of the commands, only ``goldbug sweep`` imports this module.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any

from .analysis import SWEEP_PARAMS, OverlapReport, _verdicts
from .scenario import PARAMS, Convention, Scenario
from .units import INCHES_PER_FOOT, DomainError, Length

SWEEP_ROW_LIMIT = 10**6

# Longest inner sweep axis whose labels are kept for reuse (a few MB).
_KEPT_LABELS = 10_000

# Called as label(axis, value) to tag each grid value in SweepGrid.rows.
Label = Callable[["SweepAxis", Length], Any]


@dataclass(frozen=True)
class SweepAxis:
    param: str
    start: Length
    stop: Length
    step: Length

    def count(self) -> int:
        """How many of start, start+step, start+2*step, ... are <= stop."""
        return (self.stop.inches - self.start.inches) // self.step.inches + 1


@dataclass(frozen=True)
class SweepRow:
    values: tuple[tuple[str, Length], ...]
    report: OverlapReport | None
    invalid_reason: str | None = None


@dataclass(frozen=True)
class SweepTable:
    axes: tuple[SweepAxis, ...]
    rows: tuple[SweepRow, ...]


class SweepGrid:
    """A checked sweep whose rows are computed in integer arithmetic.

    Every base and axis length is an integer count of 1/scale inch, scale
    being the least common denominator of the six base lengths and of the
    axis starts and steps, so a grid point is six ints and its verdict is an
    int comparison.  The constructor raises DomainError for anything that
    rejects the whole sweep, the row count included, before it builds a
    single grid value.
    """

    def __init__(self, base: Scenario, axes: Sequence[SweepAxis]) -> None:
        if not 1 <= len(axes) <= 2:
            raise DomainError(f"sweep takes 1 or 2 axes, got {len(axes)}")
        seen = set()
        for axis in axes:
            if axis.param not in SWEEP_PARAMS:
                raise DomainError(
                    f'unknown sweep parameter "{axis.param}" '
                    f"(expected one of {', '.join(SWEEP_PARAMS)})"
                )
            if axis.param in seen:
                raise DomainError(f'duplicate sweep parameter "{axis.param}"')
            seen.add(axis.param)
            if axis.step.inches <= 0:
                raise DomainError(f"sweep step for {axis.param} must be > 0")
            if axis.start.inches > axis.stop.inches:
                raise DomainError(f"sweep start > stop for {axis.param}")
        total = math.prod(axis.count() for axis in axes)
        if total > SWEEP_ROW_LIMIT:
            raise DomainError(f"sweep would produce {total} rows (limit {SWEEP_ROW_LIMIT})")
        self.base = base
        self.axes = tuple(axes)
        self.scale = math.lcm(
            base.scale, *(x.denominator for axis in axes for x in (axis.start, axis.step))
        )
        self._fields = [n * (self.scale // base.scale) for n in base.counts]

    def _count(self, x: Length) -> int:
        return x.numerator * (self.scale // x.denominator)

    def _labelled(self, axis: SweepAxis, label: Label) -> Iterator[tuple[int, Any]]:
        start, step = self._count(axis.start), self._count(axis.step)
        for value in range(start, start + axis.count() * step, step):
            yield value, label(axis, Length(Fraction(value, self.scale)))

    def _points(self, label: Label) -> Iterator[tuple[tuple, tuple[int, ...]]]:
        """(labels, (r, L, d, E, rA, rB)) per grid point, in lexicographic
        axis order.  Each outer value is labelled when the loop reaches it.
        Inner labels are made once and reused when the inner axis is at most
        _KEPT_LABELS long, and remade per row beyond that, so memory stays
        bounded whatever the grid."""
        fields = self._fields.copy()
        outer = self.axes[0]
        s0 = list(PARAMS).index(outer.param)
        if len(self.axes) == 1:
            for fields[s0], l0 in self._labelled(outer, label):
                yield (l0,), tuple(fields)
            return
        inner = self.axes[1]
        s1 = list(PARAMS).index(inner.param)
        kept = list(self._labelled(inner, label)) if inner.count() <= _KEPT_LABELS else None
        for fields[s0], l0 in self._labelled(outer, label):
            for fields[s1], l1 in kept or self._labelled(inner, label):
                yield (l0, l1), tuple(fields)

    def rows(self, label: Label) -> Iterator[tuple]:
        """Evaluate the grid lazily, one _verdicts tuple per point, whose
        ``labels`` holds ``label(axis, value)`` for each axis value of the
        point (see _points for how often label runs)."""
        from_trunk = self.base.convention is Convention.FROM_TRUNK
        return _verdicts(self._points(label), from_trunk, INCHES_PER_FOOT * self.scale)


def sweep(base: Scenario, axes: list[SweepAxis]) -> SweepTable:
    """Evaluate overlap reports on an exact rational grid.

    Rows come out in lexicographic axis order; a grid point that violates
    scenario invariants yields an invalid row with the reason rather than
    aborting the sweep.
    """
    grid = SweepGrid(base, axes)
    rows = []
    for values, reason, ab, radii, margin, den, overlaps, lens in grid.rows(
        lambda axis, x: (axis.param, x)
    ):
        if reason is not None:
            rows.append(SweepRow(values, None, reason))
            continue
        report = OverlapReport(
            ab_ft=Fraction(ab, den),
            radii_sum_ft=Fraction(radii, den),
            overlaps=overlaps,
            margin_ft=Fraction(margin, den),
            lens_area_sqft=lens,
            scenario=replace(base, **{SWEEP_PARAMS[p]: x for p, x in values}),
        )
        rows.append(SweepRow(values, report))
    return SweepTable(grid.axes, tuple(rows))
