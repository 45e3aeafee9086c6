"""Report entries: identity checks decided by stored form, then by residual."""

from fractions import Fraction

from hopfcyclic.linalg import LinearMap, VectorSpace
from hopfcyclic.reporting import Report


def entries(report):
    return [(e.name, e.passed, e.detail) for e in report.entries]


def test_check_equal_passes_maps_stored_differently():
    """A stored zero and an unreduced denominator make the stored forms
    differ; the matrices are still equal, and the check still passes."""
    x, y = VectorSpace.make(2, "x"), VectorSpace.make(2, "y")
    canonical = LinearMap.from_rows(x, y, [[1, 0], [0, Fraction(3, 2)]])
    stored = LinearMap(x, y, ({0: 4, 1: 0}, {1: 6}), 4)
    assert canonical != stored
    assert canonical.fractions() == stored.fractions()
    rep = Report("equal")
    rep.check_equal("canonical = stored", canonical, stored)
    rep.check_equal("stored = canonical", stored, canonical)
    assert entries(rep) == [("canonical = stored", True, ""), ("stored = canonical", True, "")]


def test_check_equal_reports_the_residual_of_a_failure():
    x, y = VectorSpace.make(2, "x"), VectorSpace.make(3, "y")
    lhs = LinearMap.from_rows(x, y, [[1, 0], [0, 2], [5, 0]])
    rhs = LinearMap.from_rows(x, y, [[1, 0], [Fraction(1, 3), 2], [0, 0]])
    rep = Report("unequal")
    rep.check_equal("lhs = rhs", lhs, rhs)
    rep.check_zero("lhs - rhs = 0", lhs - rhs)
    rep.check_equal("shapes", lhs, LinearMap.identity(x))
    assert entries(rep) == [
        ("lhs = rhs", False, "first residual -1/3 at row 'y1', column 'x0'"),
        ("lhs - rhs = 0", False, "first residual -1/3 at row 'y1', column 'x0'"),
        ("shapes", False, "shape mismatch (3, 2) vs (2, 2)"),
    ]
