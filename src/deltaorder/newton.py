"""Admissible sub-1 growth orders from coefficient degrees alone.

Given the degrees d_0..d_m of the coefficient polynomials, a strictly
decreasing vertex chain of indices is built.  The first vertex is the least
index attaining the global maximum degree.  From a vertex s, the candidates
are the indices k < s with d_k strictly below d_s and d_k - k strictly above
d_s - s; each candidate determines a slope

    mu(k) = (s - k) / ((d_k - k) - (d_s - s))  > 1,

and the next vertex is the candidate of minimal slope, ties broken toward
the smallest index (so collinear runs are swallowed whole).  This is a
convex-hull wrapping step: the chain slopes strictly increase, hence the
admissible orders 1/mu lie in (0, 1) and strictly decrease, and the chain
coincides exactly with the steep part of the convex broken line of the
derived coefficient recurrence.

Two plausible simpler rules fail: maximizing d_k over all k < s can select
a candidate that violates the d_k - k condition, and maximizing d_k over
only the valid candidates can produce a non-convex chain whose order list
is not decreasing.  The wrapping rule reproduces every worked case of both.

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
    top = max(x for x in d if x != NEG_INF)
    s = [min(k for k, x in enumerate(d) if x == top)]
    while True:
        cur = s[-1]
        base = d[cur] - cur
        candidates = [
            k
            for k in range(cur)
            if d[k] != NEG_INF and d[k] < d[cur] and d[k] - k > base
        ]
        if not candidates:
            return tuple(s)
        s.append(
            min(candidates, key=lambda k: (Fraction(cur - k, (d[k] - k) - base), k))
        )


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
