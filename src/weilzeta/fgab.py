"""Smith normal form over Z (arbitrary precision, no modular shortcuts).

No prediction reads it and no verifier module imports it: only the
benchmark calls it.  The groups and tables of the predictions live in
``weil_tables``.
"""

from __future__ import annotations

from dataclasses import dataclass


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
