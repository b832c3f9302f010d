"""Exact algebra of finitely generated abelian groups.

Groups are recorded as (free rank, torsion order).  Torsion of groups
assembled from short exact sequences is kept as an order only: the
extension class is in general not determined, but the order is, and
orders are all the downstream formulas need.

Also provides the two Euler characteristics of bounded graded tables
that drive the rank side and the torsion side of the special-value
predictions, and Smith normal form over Z (arbitrary precision, no
modular shortcuts), which no prediction reads: only the benchmark calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, entries row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entries length does not match rows*cols")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def to_rows(self):
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _eliminator(p, b):
    """Unimodular [x y; z w] that maps (p, b) to (g, 0), g = gcd or p."""
    if b % p == 0:
        return 1, 0, -(b // p), 1
    g, x, y = _xgcd(p, b)
    return x, y, -b // g, p // g


def smith_normal_form(M: IntMatrix):
    """Return (U, D, V) with U*M*V = D, U and V unimodular, D diagonal
    with d_1 | d_2 | ... and nonnegative diagonal entries.

    Each entry is cleared against the pivot by one 2x2 Bezout transform,
    so the pivot only ever shrinks to a gcd and entries stay small."""
    r, c = M.rows, M.cols
    a = M.to_rows()
    u = IntMatrix.identity(r).to_rows()
    v = IntMatrix.identity(c).to_rows()

    def rows(i, j, x, y, z, w):
        # (row_i, row_j) <- (x row_i + y row_j, z row_i + w row_j)
        for m in (a, u):
            m[i], m[j] = ([x * e + y * f for e, f in zip(m[i], m[j])],
                          [z * e + w * f for e, f in zip(m[i], m[j])])

    def cols(i, j, x, y, z, w):
        # (col_i, col_j) <- (x col_i + y col_j, z col_i + w col_j)
        for m in (a, v):
            for row in m:
                row[i], row[j] = x * row[i] + y * row[j], z * row[i] + w * row[j]

    for t in range(min(r, c)):
        # smallest nonzero pivot in the trailing submatrix
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, r) for j in range(t, c) if a[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        if i != t:
            rows(t, i, 0, 1, 1, 0)
        if j != t:
            cols(t, j, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, r):
                if a[i][t]:
                    rows(t, i, *_eliminator(a[t][t], a[i][t]))
            for j in range(t + 1, c):
                if a[t][j]:
                    cols(t, j, *_eliminator(a[t][t], a[t][j]))
            if any(a[i][t] for i in range(t + 1, r)):
                continue  # a column transform refilled column t
            # enforce divisibility of the remaining block by the pivot
            offender = next((i for i in range(t + 1, r) for j in range(t + 1, c)
                             if a[i][j] % a[t][t]), None)
            if offender is None:
                break
            rows(t, offender, 1, 1, 0, 1)  # add offending row to pivot row
        if a[t][t] < 0:
            for m in (a, u):
                m[t] = [-e for e in m[t]]

    return (
        IntMatrix.from_rows(u) if r else IntMatrix(0, 0, ()),
        IntMatrix.from_rows(a) if r else IntMatrix(0, c, ()),
        IntMatrix.from_rows(v) if c else IntMatrix(0, 0, ()),
    )


@dataclass(frozen=True)
class FgAb:
    """Finitely generated abelian group: Z^rank + torsion of given order.

    ``torsion_known`` is False for entries whose torsion order the
    caller could not supply (reported as order 1 with a caveat).
    """

    rank: int
    torsion_order: int = 1
    torsion_known: bool = True

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        if self.torsion_order < 1:
            raise ValueError("torsion order must be >= 1")

    @property
    def is_trivial(self):
        # an entry with unknown torsion is not known to be zero
        return self.rank == 0 and self.torsion_order == 1 and self.torsion_known


ZERO = FgAb(0, 1)
Z = FgAb(1, 1)


@dataclass
class GradedTable:
    """Sparse degree -> FgAb table for a cohomology complex of a scheme of
    dimension ``dim``.  Absent degrees are the zero group."""

    entries: dict
    dim: int
    caveats: tuple = ()

    def __post_init__(self):
        self.entries = {int(i): g for i, g in self.entries.items() if not g.is_trivial}

    @property
    def delta(self):
        return 2 * self.dim + 2

    def __getitem__(self, i):
        return self.entries.get(i, ZERO)

    def degrees(self):
        return sorted(self.entries)

    def has_unknown_torsion(self):
        return any(not g.torsion_known for g in self.entries.values())


def rank_weighted_euler(table: GradedTable) -> int:
    """Sum of (-1)^i * i * rank over all degrees."""
    return sum((-1) ** i * i * g.rank for i, g in table.entries.items())


def torsion_euler(table: GradedTable) -> Fraction:
    """Alternating product of torsion orders, prod tors_i^((-1)^i)."""
    out = Fraction(1)
    for i, g in table.entries.items():
        out *= Fraction(g.torsion_order) ** ((-1) ** i)
    return out
