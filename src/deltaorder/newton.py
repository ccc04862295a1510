"""Admissible sub-1 growth orders from coefficient degrees alone.

Given the degrees d_0..d_m of the coefficient polynomials, a strictly
decreasing vertex chain of indices is built.  The first vertex s_0 is the
least index attaining the global maximum degree.  The chain is the
positive-slope prefix of the upper convex hull of the points (-k, d_k - k),
k <= s_0 with d_k finite: from a vertex s the hull goes to the index k < s
of maximal slope ((d_k - k) - (d_s - s)) / (s - k) = 1/mu(k), the smallest
such k on ties (so collinear runs are swallowed whole).  Every slope is
below one, since d_k < d_{s_0} for k < s_0, so the chain slopes mu > 1
strictly increase, the admissible orders 1/mu lie in (0, 1) and strictly
decrease, and the chain coincides exactly with the steep part of the convex
broken line of the derived coefficient recurrence.

Two plausible simpler rules fail: maximizing d_k over all k < s can select
a candidate that violates the d_k - k condition, and maximizing d_k over
only the valid candidates can produce a non-convex chain whose order list
is not decreasing.  The hull reproduces every worked case of both.

A chain of length one means no transcendental entire solution of order
below one exists at all, and order exactly zero can never occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .equations import DifferenceEquation
from .polynomials import NEG_INF


@dataclass(frozen=True)
class OrderEntry:
    """One admissible order with its solution-count upper bound."""

    rho: Fraction
    max_count: int


@dataclass(frozen=True)
class NewtonAnalysis:
    """Degree data, vertex chain, and the admissible order list."""

    degrees: tuple
    s_seq: tuple[int, ...]
    p: int
    orders: tuple[OrderEntry, ...]
    total_bound: int
    exists_sub1: bool

    def __post_init__(self):
        d = self.degrees
        s = self.s_seq
        for a, b in zip(s, s[1:]):
            if not (d[a] > d[b] and d[b] - b > d[a] - a):
                raise ValueError(f"vertex chain invariants violated: {s}")
        rhos = [entry.rho for entry in self.orders]
        if any(not (0 < r < 1) for r in rhos):
            raise ValueError(f"order outside (0, 1): {rhos}")
        if any(x <= y for x, y in zip(rhos, rhos[1:])):
            raise ValueError(f"orders not strictly decreasing: {rhos}")
        if any(entry.max_count < 1 for entry in self.orders):
            raise ValueError("order multiplicity bound below 1")
        if sum(e.max_count for e in self.orders) != self.total_bound:
            raise ValueError("multiplicity bounds do not sum to the total bound")
        if self.p >= 2 and self.total_bound >= len(self.degrees) - 1:
            raise ValueError("total bound must stay below the equation order")


def s_sequence(degrees) -> tuple[int, ...]:
    """Vertex chain over the coefficient degrees (top coefficient finite)."""
    d = list(degrees)
    if not d or all(x == NEG_INF for x in d):
        raise ValueError("all coefficients vanish")
    if d[-1] == NEG_INF:
        raise ValueError("the top coefficient must be nonzero")
    first = d.index(max(x for x in d if x != NEG_INF))
    # the upper hull of (-k, d_k - k) is the lower hull of (-k, k - d_k), whose
    # slopes increase: its falling edges are a prefix
    hull = lower_hull([(-k, k - d[k]) for k in range(first, -1, -1) if d[k] != NEG_INF])
    return (first, *(-x for (_, y0), (x, y) in zip(hull, hull[1:]) if y < y0))


def lower_hull(points) -> list[tuple[int, int]]:
    """Lower convex hull of points sorted by x (monotone chain), collinear points dropped."""
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox) > 0:
                break
            hull.pop()
        hull.append(pt)
    return hull


def order_list(degrees, s_seq: tuple[int, ...]) -> tuple[OrderEntry, ...]:
    """Admissible orders 1 + (d_next - d_cur)/(cur - next) with count bounds."""
    d = list(degrees)
    entries = []
    for cur, nxt in zip(s_seq, s_seq[1:]):
        rho = 1 + Fraction(d[nxt] - d[cur], cur - nxt)
        count = (d[nxt] - nxt) - (d[cur] - cur)
        entries.append(OrderEntry(rho=rho, max_count=count))
    return tuple(entries)


def analyze(eq: DifferenceEquation) -> NewtonAnalysis:
    """Full degree analysis of a canonical equation."""
    degrees = tuple(eq.degrees())
    s = s_sequence(degrees)
    orders = order_list(degrees, s)
    first, last = s[0], s[-1]
    total = (first - last) - (degrees[first] - degrees[last])
    return NewtonAnalysis(
        degrees=degrees,
        s_seq=s,
        p=len(s),
        orders=orders,
        total_bound=total,
        exists_sub1=len(s) >= 2,
    )


def verdict(analysis: NewtonAnalysis) -> dict:
    """Human-facing summary of an analysis, its keys in the order the CLI prints them.

    ``exists_below_one`` mirrors p >= 2; the total bound caps the number of
    independent sub-1 entire solutions; order zero is impossible, which the
    emitted order list satisfies by construction.
    """
    if analysis.exists_sub1:
        orders = ", ".join(
            f"{e.rho} (at most {e.max_count})" for e in analysis.orders
        )
        message = (
            f"transcendental entire solutions of order below 1 exist; "
            f"admissible orders: {orders}; "
            f"at most {analysis.total_bound} such independent solutions"
        )
    else:
        message = "no transcendental entire solution of order below 1 exists"
    return {
        "orders": [
            {"rho": entry.rho, "max_count": entry.max_count}
            for entry in analysis.orders
        ],
        "total_bound": analysis.total_bound,
        "exists_below_one": analysis.exists_sub1,
        "zero_order_possible": False,
        "message": message,
    }
