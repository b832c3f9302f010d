import importlib.util
import json
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from weilzeta.fgab import (
    FgAb,
    GradedTable,
    IntMatrix,
    Z,
    rank_weighted_euler,
    smith_normal_form,
    torsion_euler,
)

# the benchmark's own checker of a Smith normal form: U M V = D by its own
# matrix product, |det U| = |det V| = 1 by Fraction elimination, D diagonal
# with a divisibility chain
_spec = importlib.util.spec_from_file_location(
    "bench_checks", Path(__file__).resolve().parents[1] / "bench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def quotient_structure(diag_relations):
    """Brute-force oracle: structure of Z^n / <d_i e_i> by enumerating
    residues and measuring the largest element order."""
    n = len(diag_relations)
    residues = [()]
    for d in diag_relations:
        residues = [r + (x,) for r in residues for x in range(d)]
    order = len(residues)
    exponent = lcm(*diag_relations)
    return order, exponent


def test_snf_diag_2_3_is_z6():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    u, d, v = smith_normal_form(m)
    assert_snf(m, u, d, v)
    assert d.to_rows() == [[1, 0], [0, 6]]
    # oracle: Z^2/(2e1, 3e2) has 6 elements and an element of order 6
    order, exponent = quotient_structure([2, 3])
    assert (order, exponent) == (6, 6)


def test_snf_identity():
    m = IntMatrix.identity(2)
    _, d, _ = smith_normal_form(m)
    assert d.to_rows() == [[1, 0], [0, 1]]


def test_snf_gcd_row():
    m = IntMatrix.from_rows([[4, 6]])
    u, d, v = smith_normal_form(m)
    assert d.to_rows() == [[2, 0]]
    assert_snf(m, u, d, v)


def assert_snf(m, u, d, v):
    failure = checks.check_snf((m.rows, m.cols, m.entries), u.to_rows(), d.to_rows(), v.to_rows())
    assert failure is None, failure


@pytest.mark.parametrize("seed", range(5))
def test_snf_random_properties(seed):
    rng = random.Random(seed)
    for trial in range(120):
        size = 6 if trial < 100 else 7
        rows, cols = rng.randint(0, size), rng.randint(0, size)
        m = IntMatrix(rows, cols, tuple(rng.randint(-10, 10) for _ in range(rows * cols)))
        assert_snf(m, *smith_normal_form(m))


BLOWUP_ROWS = [
    [-3, -5, -9, 6, 10, -4],
    [7, -7, -10, 9, -9, 3],
    [-10, -10, 7, -10, -2, 3],
    [-9, -9, 6, 7, 9, 8],
    [-3, 5, 7, 6, 5, -4],
]


def test_snf_finishes_without_coefficient_blowup():
    # remainder swaps once grew this matrix to 3,500-bit entries and never
    # finished; run it apart so that a hang ends in a timeout
    code = (
        "import json\nfrom weilzeta.fgab import IntMatrix, smith_normal_form\n"
        f"out = smith_normal_form(IntMatrix.from_rows({BLOWUP_ROWS!r}))\n"
        "print(json.dumps([x.to_rows() for x in out]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    u, d, v = (IntMatrix.from_rows(rows) for rows in json.loads(proc.stdout))
    assert_snf(IntMatrix.from_rows(BLOWUP_ROWS), u, d, v)
    assert [row[i] for i, row in enumerate(d.to_rows())] == [1, 1, 1, 1, 87]


def test_cokernel_factors_divisibility():
    # the invariant factors of the cokernel are the SNF diagonal
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    u, d, v = smith_normal_form(m)
    assert_snf(m, u, d, v)
    assert d.to_rows() == [[2, 0, 0], [0, 2, 0], [0, 0, 156]]
    assert abs(checks._det(m.to_rows())) == 2 * 2 * 156


def test_intmatrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_fgab_invariant_checks():
    with pytest.raises(ValueError):
        FgAb(-1)
    with pytest.raises(ValueError):
        FgAb(0, 0)


def test_euler_characteristics_small_table():
    table = GradedTable({0: Z, 2: FgAb(1, 3), 3: FgAb(0, 2)}, dim=1)
    assert rank_weighted_euler(table) == 2
    assert torsion_euler(table) == Fraction(3, 2)
    assert rank_weighted_euler(GradedTable({}, dim=1)) == 0
    assert torsion_euler(GradedTable({}, dim=1)) == 1


def test_euler_additive_over_direct_sums():
    rng = random.Random(11)
    for _ in range(30):
        degrees = range(0, 5)
        ta = {i: FgAb(rng.randint(0, 2), rng.randint(1, 9)) for i in degrees}
        tb = {i: FgAb(rng.randint(0, 2), rng.randint(1, 9)) for i in degrees}
        tsum = {
            i: FgAb(ta[i].rank + tb[i].rank, ta[i].torsion_order * tb[i].torsion_order)
            for i in degrees
        }
        a, b, s = (GradedTable(t, dim=1) for t in (ta, tb, tsum))
        assert rank_weighted_euler(s) == rank_weighted_euler(a) + rank_weighted_euler(b)
        assert torsion_euler(s) == torsion_euler(a) * torsion_euler(b)


def test_graded_table_drops_zero_entries_keeps_unknown():
    table = GradedTable({0: Z, 1: FgAb(0, 1), 2: FgAb(0, 1, False)}, dim=1)
    assert table.degrees() == [0, 2]
    assert table.has_unknown_torsion()
    assert table.delta == 4
    assert table[1].is_trivial
