"""Exact linear algebra core, cross-checked against sympy."""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
import sympy

from hopfcyclic.linalg import (
    LinAlgError,
    LinearMap,
    MembershipError,
    VectorSpace,
    basis_vector,
    cokernel,
    direct_sum_space,
    dual_space,
    fixed_subspace,
    from_blocks,
    hom_postcompose,
    hom_precompose,
    hom_space,
    hom_vector_to_map,
    insert_vector,
    kernel_basis,
    map_to_hom_vector,
    partial_transpose,
    relabel,
    row_echelon,
    rref,
    signed_sum,
    slot_map,
    solve,
    solve_constrained_subspace,
    stack_vertical,
    subspace_from_kernel,
    tensor_map,
    tensor_maps,
    tensor_permutation,
    tensor_space,
    tensor_spaces,
    tensor_subspace,
    vector_from,
    vectors_equal,
)
from hopfcyclic import linalg
from hopfcyclic.linalg import _canonical, _eliminate


def rand_fraction(rng, span=9, den=5):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_map(rng, src, tgt, span=9, den=5):
    rows = [[rand_fraction(rng, span, den) for _ in range(src.dim)] for _ in range(tgt.dim)]
    return LinearMap.from_rows(src, tgt, rows)


def rand_huge_fraction(rng):
    """Numerator and denominator both above 2**64."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(2**64, 2**80), rng.randint(2**64, 2**80))


def rand_sparse_map(rng, src, tgt, huge=False):
    """At most 10% of the entries nonzero; row 0 and the last column stay zero."""
    cells = [(i, j) for i in range(1, tgt.dim) for j in range(src.dim - 1)]
    picks = rng.sample(cells, min(len(cells), tgt.dim * src.dim // 10))
    value = (lambda: rand_huge_fraction(rng)) if huge else (lambda: rand_fraction(rng) or Fraction(1))
    return LinearMap.from_entries(src, tgt, [(i, j, value()) for i, j in picks])


# dimensions of the sparse cases: empty, a line, and sizes with room for 10% density
SPARSE_DIMS = (0, 1, 12, 17)


def sparse_cases(rng, count):
    """(source, target, map) triples over every pair of SPARSE_DIMS, small and huge entries."""
    for huge in (False, True):
        for m, n in itertools.product(SPARSE_DIMS, repeat=2):
            for _ in range(count):
                src, tgt = VectorSpace.make(n), VectorSpace.make(m)
                yield src, tgt, rand_sparse_map(rng, src, tgt, huge)


def rand_sparse_vector(rng, n, huge=False):
    """A vector with every third entry or so nonzero."""
    value = (lambda: rand_huge_fraction(rng)) if huge else (lambda: rand_fraction(rng))
    return vector_from([value() if rng.random() < 0.3 else 0 for _ in range(n)])


def sympy_vector(vec) -> sympy.Matrix:
    return sympy.Matrix(len(vec), 1, lambda i, _: sympy.Rational(vec[i].numerator, vec[i].denominator))


def sympy_kron(a: sympy.Matrix, b: sympy.Matrix) -> sympy.Matrix:
    return sympy.Matrix(a.rows * b.rows, a.cols * b.cols,
                        lambda r, c: a[r // b.rows, c // b.cols] * b[r % b.rows, c % b.cols])


def to_sympy(m: LinearMap) -> sympy.Matrix:
    fr = m.fractions()
    return sympy.Matrix(
        m.target.dim, m.source.dim, lambda i, j: sympy.Rational(fr[i][j].numerator, fr[i][j].denominator)
    )


def from_sympy(sm: sympy.Matrix, src, tgt) -> LinearMap:
    rows = [[Fraction(int(sm[i, j].p), int(sm[i, j].q)) for j in range(sm.cols)] for i in range(sm.rows)]
    return LinearMap.from_rows(src, tgt, rows)


def check_elimination_against_sympy(f: LinearMap):
    """Every elimination-based result on f equals the one read off sympy's RREF:
    rref, kernel_basis, a free-variables-zero solution, an inconsistent system,
    rank, inverse and cokernel; f itself is left as it was."""
    before = f.fractions()
    m, n = f.target.dim, f.source.dim
    sm = to_sympy(f)
    sr, spiv = sm.rref()
    ours, piv = rref(f)
    assert piv == list(spiv)
    assert [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in ours] == sr.tolist()
    expected = []
    for v in sm.nullspace():
        first = next(x for x in v if x != 0)
        expected.append([Fraction(int(x.p), int(x.q)) * (1 if first > 0 else -1) for x in v])
    assert kernel_basis(f) == expected
    assert f.rank() == sm.rank() == len(piv)
    rhs = f.apply([Fraction(j % 3 - 1, j % 4 + 1) * (2**70 + j) for j in range(n)])
    aug_r, aug_piv = sm.row_join(sympy_vector(rhs)).rref()
    x = [Fraction(0)] * n
    for k, c in enumerate(aug_piv):
        x[c] = Fraction(int(aug_r[k, n].p), int(aug_r[k, n].q))
    assert solve(f, rhs) == x
    # a nonzero y with y^T f = 0 is orthogonal to the image, so not in it
    for y in sm.T.nullspace()[:2]:
        assert solve(f, [Fraction(int(t.p), int(t.q)) for t in y]) is None
    if m == n:
        if sm.rank() == n:
            inv = f.inverse()
            assert inv @ f == LinearMap.identity(f.source)
            assert n == 0 or to_sympy(inv) == sm.inv()
        else:
            with pytest.raises(LinAlgError):
                f.inverse()
    q = cokernel(f)
    image_piv = set(sm.T.rref()[1])
    non_piv = [j for j in range(m) if j not in image_piv]
    assert q.section == LinearMap.from_entries(q.space, f.target, [(j, k, 1) for k, j in enumerate(non_piv)])
    assert (q.projection @ f).is_zero()
    assert q.projection @ q.section == LinearMap.identity(q.space)
    assert f.fractions() == before


# entries of single-entry columns: units, a negative fraction, and both sides of 2**64
MONOMIAL_VALUES = (Fraction(1), Fraction(-1), Fraction(-7, 3), Fraction(2**64 + 13),
                   Fraction(-(2**70), 2**65 + 1))


def rand_mixed_map(rng, src, tgt):
    """Columns that are empty, hold one entry or hold several, at random."""
    entries = []
    for j in range(src.dim):
        rows = rng.sample(range(tgt.dim), min(tgt.dim, rng.choice((0, 1, 1, 3))))
        entries += [(i, j, rng.choice(MONOMIAL_VALUES)) for i in rows]
    return LinearMap.from_entries(src, tgt, entries)


def compose_factors(rng, src, tgt):
    """Maps src -> tgt of every column shape the compose kernel tells apart."""
    rows = [rng.randrange(tgt.dim) for _ in range(src.dim)] if tgt.dim else []
    out = [LinearMap.from_entries(src, tgt, [(i, j, rng.choice(MONOMIAL_VALUES))
                                             for j, i in enumerate(rows)]),
           rand_mixed_map(rng, src, tgt), rand_map(rng, src, tgt)]
    if src.dim == tgt.dim:
        perm = rng.sample(range(src.dim), src.dim)
        out.append(LinearMap.from_entries(src, tgt, [(i, j, 1) for j, i in enumerate(perm)]))
    return out


class TestArithmetic:
    def test_signed_sum_is_the_pairwise_sum(self):
        """One pass over the terms gives what adding and subtracting them in
        turn gives: mixed denominators, a sum that cancels to zero, and a
        column empty in every term."""
        rng = random.Random(4)
        a, b = VectorSpace.make(4), VectorSpace.make(3)
        for _ in range(30):
            terms = [(rng.choice([1, -1]), rand_map(rng, a, b, den=rng.randint(1, 7)))
                     for _ in range(rng.randint(1, 5))]
            expected = terms[0][1] if terms[0][0] == 1 else -terms[0][1]
            for sign, m in terms[1:]:
                expected = expected + m if sign == 1 else expected - m
            assert signed_sum(terms) == expected
        f = LinearMap.from_rows(a, b, [[Fraction(1, 2), 0, 3, 0], [0, 0, Fraction(2, 3), 1],
                                       [1, 0, 0, 0]])
        g = LinearMap.from_rows(a, b, [[Fraction(1, 3), 0, 0, 0], [0, 0, 0, 0],
                                       [Fraction(5, 6), 0, 1, 0]])
        total = signed_sum([(1, f), (-1, g), (-1, f), (1, g)])
        assert total == LinearMap.zero(a, b) and total.is_zero()
        mixed = signed_sum([(1, f), (-1, g)])
        assert mixed == f - g and mixed.column(1) == [0, 0, 0]
        assert to_sympy(mixed) == to_sympy(f) - to_sympy(g)
        assert signed_sum([(-1, f)]) == -f
        with pytest.raises(LinAlgError, match="different shapes"):
            signed_sum([(1, f), (1, LinearMap.identity(a))])
        with pytest.raises(LinAlgError, match="signs 1 and -1"):
            signed_sum([(2, f)])
        with pytest.raises(LinAlgError, match="nothing to sum"):
            signed_sum([])

    def test_matmul_matches_sympy(self):
        rng = random.Random(101)
        for _ in range(10):
            a, b, c = (VectorSpace.make(rng.randint(1, 6)) for _ in range(3))
            f = rand_map(rng, a, b)
            g = rand_map(rng, b, c)
            assert to_sympy(g @ f) == to_sympy(g) * to_sympy(f)
        for a, b, f in sparse_cases(rng, 1):
            for c in (VectorSpace.make(0), VectorSpace.make(9)):
                g = rand_sparse_map(rng, b, c, huge=rng.random() < 0.5)
                assert to_sympy(g @ f) == to_sympy(g) * to_sympy(f)
        # permutation, monomial and mixed factors; no product shares a column
        # dict with a factor
        for a, b, c in itertools.product((0, 1, 6), repeat=3):
            a, b, c = VectorSpace.make(a), VectorSpace.make(b), VectorSpace.make(c)
            for f, g in itertools.product(compose_factors(rng, a, b), compose_factors(rng, b, c)):
                product = g @ f
                assert to_sympy(product) == to_sympy(g) * to_sympy(f)
                before = f.fractions(), g.fractions()
                for col in product._cols:
                    col.clear()
                    col[0] = 99
                assert (f.fractions(), g.fractions()) == before

    def test_add_sub_scale_match_sympy(self):
        rng = random.Random(102)
        a, b = VectorSpace.make(4), VectorSpace.make(3)
        f, g = rand_map(rng, a, b), rand_map(rng, a, b)
        c = Fraction(-7, 3)
        assert to_sympy(f + g) == to_sympy(f) + to_sympy(g)
        assert to_sympy(f - g) == to_sympy(f) - to_sympy(g)
        assert to_sympy(f.scale(c)) == sympy.Rational(-7, 3) * to_sympy(f)
        assert to_sympy(-f) == -to_sympy(f)

    def test_huge_entries_stay_exact(self):
        # products and sums far past 64 bits stay exact
        big = 2**45
        a = VectorSpace.make(3)
        f = LinearMap.from_rows(
            a, a, [[big, 1, 0], [0, big, 1], [1, 0, big]]
        )
        sq = f @ f
        assert to_sympy(sq) == to_sympy(f) * to_sympy(f)
        assert sq.entry(0, 0) == Fraction(big) ** 2
        s = f + f.scale(big)
        assert s.entry(0, 0) == big + big * big

    def test_canonical_form_equality(self):
        a = VectorSpace.make(2)
        f = LinearMap.from_rows(a, a, [[Fraction(2, 4), 0], [0, Fraction(3, 6)]])
        g = LinearMap.from_rows(a, a, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
        assert f == g
        assert f.scale(2) == LinearMap.identity(a)

    def test_shape_errors(self):
        a, b = VectorSpace.make(2), VectorSpace.make(3)
        f = rand_map(random.Random(0), a, b)
        with pytest.raises(LinAlgError):
            f @ f
        with pytest.raises(LinAlgError):
            f + f.transpose()

    def test_apply_and_columns(self):
        a, b = VectorSpace.make(3), VectorSpace.make(2)
        f = LinearMap.from_rows(a, b, [[1, 2, 3], [Fraction(1, 2), 0, -1]])
        v = vector_from([1, -1, 2])
        assert vectors_equal(f.apply(v), [5, Fraction(-3, 2)])
        assert vectors_equal(f.column(2), [3, -1])
        rng = random.Random(112)
        for src, _, f in sparse_cases(rng, 2):
            v = rand_sparse_vector(rng, src.dim, huge=rng.random() < 0.5)
            assert sympy_vector(f.apply(v)) == to_sympy(f) * sympy_vector(v)
            for j in range(src.dim):
                assert sympy_vector(f.column(j)) == to_sympy(f)[:, j]

    def test_sparse_constructor_accumulates(self):
        a = VectorSpace.make(2)
        f = LinearMap.from_entries(a, a, [(0, 0, Fraction(1)), (0, 0, Fraction(2)), (1, 0, Fraction(-1))])
        assert f.entry(0, 0) == 3 and f.entry(1, 0) == -1

    def test_sparse_constructor_rejects_out_of_range_indices(self):
        a, b = VectorSpace.make(3), VectorSpace.make(2)
        for i, j in [(-1, 0), (0, -1), (2, 0), (0, 3)]:
            with pytest.raises(LinAlgError):
                LinearMap.from_entries(a, b, [(i, j, Fraction(1))])

    @pytest.mark.parametrize("access,refusal", [
        (lambda f: f.entry(-1, 0), r"^row -1 is outside range\(3\)$"),
        (lambda f: f.entry(3, 0), r"^row 3 is outside range\(3\)$"),
        (lambda f: f.entry(0, -1), r"^column -1 is outside range\(2\)$"),
        (lambda f: f.column(-1), r"^column -1 is outside range\(2\)$"),
        (lambda f: f.column(2), r"^column 2 is outside range\(2\)$"),
        (lambda f: basis_vector(f.target, -1), r"^basis index -1 is outside range\(3\)$"),
        (lambda f: basis_vector(f.target, 3), r"^basis index 3 is outside range\(3\)$"),
        (lambda f: hom_vector_to_map([1] * 7, f.source, f.target),
         r"^Hom vector has length 7, expected 6$"),
        (lambda f: hom_vector_to_map([1], f.source, f.target),
         r"^Hom vector has length 1, expected 6$"),
    ], ids=["entry(-1, 0)", "entry(3, 0)", "entry(0, -1)", "column(-1)", "column(2)",
            "basis_vector(-1)", "basis_vector(3)", "hom_vector_to_map(7)",
            "hom_vector_to_map(1)"])
    def test_accessors_refuse_out_of_range_indices(self, access, refusal):
        """No index wraps around from the end, and no entry is dropped."""
        f = LinearMap.from_rows(VectorSpace.make(2), VectorSpace.make(3),
                                [[1, 2], [3, 4], [5, 6]])
        with pytest.raises(LinAlgError, match=refusal):
            access(f)

    @pytest.mark.parametrize("call,refusal", [
        (lambda f: LinearMap.from_rows(f.source, f.target, [[1, 2], [3, 4]]),
         r"^matrix with 2 rows does not match \(3, 2\)$"),
        (lambda f: LinearMap.from_rows(f.source, f.target, [[1, 2], [3, 4], [5]]),
         r"^matrix with 3 rows does not match \(3, 2\)$"),
        (lambda f: f.apply([1, 2, 3]), r"^vector length mismatch$"),
        (lambda f: f.inverse(), r"^only square maps can be inverted$"),
        (lambda f: stack_vertical([]), r"^nothing to stack$"),
        (lambda f: stack_vertical([f, f.transpose()]), r"^stacked maps must share their source$"),
        (lambda f: from_blocks([f.source], [f.source], {(0, 0): f}), r"^block shape mismatch$"),
        (lambda f: relabel(f, f.target),
         r"^relabel dimension mismatch: map is 3x2, requested 3x3$"),
        (lambda f: subspace_from_kernel(f.transpose()).support_rows(f.transpose()),
         r"^cannot compose: inner dims 3 != 2$"),
    ], ids=["from_rows(rows)", "from_rows(row length)", "apply", "inverse",
            "stack_vertical(nothing)", "stack_vertical(sources)", "from_blocks", "relabel",
            "support_rows"])
    def test_shape_mismatches_are_refused(self, call, refusal):
        """Every shape mismatch is refused with its message, never broadcast
        or truncated."""
        f = LinearMap.from_rows(VectorSpace.make(2), VectorSpace.make(3),
                                [[1, 2], [3, 4], [5, 6]])
        with pytest.raises(LinAlgError, match=refusal):
            call(f)


class TestElimination:
    def test_row_echelon_is_the_nonzero_rref_rows(self):
        rng = random.Random(104)
        for _, _, f in sparse_cases(rng, 6):
            rows, pivots = row_echelon(f)
            dense, dense_pivots = rref(f)
            assert pivots == dense_pivots and rows.source == f.source
            assert rows.fractions() == dense[:len(pivots)]

    def test_rref_matches_sympy(self):
        rng = random.Random(103)
        for _ in range(8):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 6)
            m = [[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)]
            ours, piv = rref(LinearMap.from_rows(VectorSpace.make(cols), VectorSpace.make(rows), m))
            sm = sympy.Matrix(rows, cols, lambda i, j: sympy.Rational(m[i][j].numerator, m[i][j].denominator))
            sr, spiv = sm.rref()
            assert piv == list(spiv)
            assert all(
                sympy.Rational(ours[i][j].numerator, ours[i][j].denominator) == sr[i, j]
                for i in range(rows)
                for j in range(cols)
            )
        for _, _, f in sparse_cases(rng, 2):
            ours, piv = rref(f)
            sr, spiv = to_sympy(f).rref()
            assert piv == list(spiv)
            assert len(ours) == f.target.dim and all(len(row) == f.source.dim for row in ours)
            assert all(
                sympy.Rational(ours[i][j].numerator, ours[i][j].denominator) == sr[i, j]
                for i in range(f.target.dim)
                for j in range(f.source.dim)
            )

    def test_kernel_of_rank_one_square(self):
        a = VectorSpace.make(2)
        f = LinearMap.from_rows(a, a, [[1, 1], [1, 1]])
        ker = f.kernel()
        assert len(ker) == 1
        assert vectors_equal(ker[0], [1, -1])

    def test_kernel_spans_sympy_nullspace(self):
        rng = random.Random(104)
        dense = []
        for _ in range(6):
            src = VectorSpace.make(rng.randint(1, 6))
            tgt = VectorSpace.make(rng.randint(1, 5))
            dense.append((src, tgt, rand_map(rng, src, tgt)))
        for src, tgt, f in dense + list(sparse_cases(rng, 1)):
            ours = f.kernel()
            basis = kernel_basis(f)
            assert len(basis) == len(ours) and all(map(vectors_equal, ours, basis))
            theirs = to_sympy(f).nullspace()
            assert len(ours) == len(theirs)
            for v in ours:
                assert all(x == 0 for x in f.apply(v))
            if ours:
                span = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v] for v in ours])
                sspan = sympy.Matrix([list(t) for t in theirs])
                assert span.rref()[0] == sspan.rref()[0]

    def test_rank(self):
        a = VectorSpace.make(3)
        f = LinearMap.from_rows(a, a, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        assert f.rank() == 2

    def test_solve_consistent_and_inconsistent(self):
        m = LinearMap.from_rows(VectorSpace.make(2), VectorSpace.make(2), [[1, 2], [2, 4]])
        x = solve(m, vector_from([3, 6]))
        assert x is not None and vectors_equal(x, [3, 0])
        assert solve(m, vector_from([3, 7])) is None
        with pytest.raises(LinAlgError):
            solve(m, vector_from([3]))
        rng = random.Random(113)
        for src, tgt, f in sparse_cases(rng, 2):
            sm = to_sympy(f)
            free = [j for j in range(src.dim) if j not in sm.rref()[1]]
            rhs = f.apply(rand_sparse_vector(rng, src.dim, huge=True))
            x = solve(f, rhs)
            assert sm * sympy_vector(x) == sympy_vector(rhs)
            assert all(x[j] == 0 for j in free)
            if tgt.dim:
                # row 0 of a sparse case is zero, so a nonzero first entry is unreachable
                rhs[0] = rand_huge_fraction(rng)
                assert solve(f, rhs) is None

    def test_inverse(self):
        a = VectorSpace.make(3)
        f = LinearMap.from_rows(a, a, [[2, 1, 0], [0, 1, 1], [1, 0, 3]])
        assert f @ f.inverse() == LinearMap.identity(a)
        assert f.inverse() @ f == LinearMap.identity(a)
        sing = LinearMap.from_rows(a, a, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        with pytest.raises(LinAlgError):
            sing.inverse()
        rng = random.Random(114)
        for n, huge in itertools.product(SPARSE_DIMS, (False, True)):
            v = VectorSpace.make(n)
            # a scaled permutation times a sparse unit lower triangle is sparse and invertible
            order = rng.sample(range(n), n)
            perm = LinearMap.from_entries(v, v, [(order[j], j, rand_huge_fraction(rng) if huge
                                                  else rng.choice([-3, -1, 2, 5])) for j in range(n)])
            lower = rand_sparse_map(rng, v, v, huge)
            lower = LinearMap.from_entries(v, v, [(i, j, lower.entry(i, j)) for i in range(n)
                                                  for j in range(i) if lower.entry(i, j)])
            f = (LinearMap.identity(v) + lower) @ perm
            assert to_sympy(f.inverse()) == to_sympy(f).inv()
            if n:
                with pytest.raises(LinAlgError):
                    rand_sparse_map(rng, v, v, huge).inverse()  # row 0 is zero

    def test_dense_first_row_with_sparse_later_rows(self):
        """Column 0 is held by a dense first row and by sparser later rows."""
        a, b = VectorSpace.make(5), VectorSpace.make(4)
        rows = [[3, 1, 4, 1, 5], [2, 0, 0, 0, 0], [0, 7, 0, 0, 0], [5, 0, 0, -2, 0]]
        check_elimination_against_sympy(LinearMap.from_rows(a, b, rows))
        check_elimination_against_sympy(LinearMap.from_rows(b, a, [list(r) for r in zip(*rows)]))
        square = [[3, 1, 4, 1], [2, 0, 0, 0], [0, 7, 0, 0], [5, 0, 0, -2]]
        check_elimination_against_sympy(LinearMap.from_rows(b, b, square))

    def test_earlier_pivot_row_picks_up_a_later_pivot_column(self):
        """Reducing the column-0 pivot row by the column-1 pivot row fills in
        column 3, whose pivot comes last and must clear it again."""
        a = VectorSpace.make(4)
        rows = [[1, 1, 0, 0], [0, 1, 0, 1], [1, 1, 1, 1], [0, 0, 0, 5]]
        check_elimination_against_sympy(LinearMap.from_rows(a, a, rows))
        check_elimination_against_sympy(LinearMap.from_rows(a, VectorSpace.make(3), rows[:3]))
        check_elimination_against_sympy(LinearMap.from_rows(a, a, rows[::-1]))

    def test_row_that_loses_a_column_and_regains_it(self):
        """Row 2 loses column 2 when column 0 is cleared and gains it back
        when column 1 is; column 2 must reduce it exactly once, also when
        another row pivots there."""
        a = VectorSpace.make(4)
        rows = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 1, 1]]
        check_elimination_against_sympy(LinearMap.from_rows(a, VectorSpace.make(3), rows))
        check_elimination_against_sympy(LinearMap.from_rows(a, a, rows + [[0, 0, 5, 0]]))

    def test_duplicate_and_zero_rows(self):
        a = VectorSpace.make(3)
        rows = [[0, 0, 0], [1, 2, 3], [1, 2, 3], [0, 0, 0], [2, 4, 6], [0, 1, 1], [0, 1, 1]]
        check_elimination_against_sympy(LinearMap.from_rows(a, VectorSpace.make(7), rows))
        check_elimination_against_sympy(LinearMap.from_rows(a, a, [[0, 0, 0]] * 3))
        check_elimination_against_sympy(LinearMap.from_rows(a, a, [[1, 0, 2]] * 3))
        rng = random.Random(119)
        for _ in range(10):
            pool = [[rng.choice((0, 0, 1, -2, Fraction(3, 4))) for _ in range(4)] for _ in range(3)]
            rows = [rng.choice(pool + [[0] * 4]) for _ in range(rng.randint(1, 6))]
            check_elimination_against_sympy(
                LinearMap.from_rows(VectorSpace.make(4), VectorSpace.make(len(rows)), rows))

    def test_no_rows_and_no_columns(self):
        empty, three = VectorSpace.make(0), VectorSpace.make(3)
        for src, tgt in [(three, empty), (empty, three), (empty, empty)]:
            check_elimination_against_sympy(LinearMap.zero(src, tgt))
        assert _eliminate([], 3) == ([], [])
        assert _eliminate([{}, {}], 0) == ([], [])

    def test_entries_above_2_64(self):
        rng = random.Random(117)
        a = VectorSpace.make(5)
        for _ in range(3):
            big = [[rand_huge_fraction(rng) for _ in range(5)]]
            sparse = [[rand_huge_fraction(rng) if j in (0, i) else 0 for j in range(5)] for i in range(1, 5)]
            check_elimination_against_sympy(LinearMap.from_rows(a, a, big + sparse))
            check_elimination_against_sympy(LinearMap.from_rows(a, a, sparse + big))
            check_elimination_against_sympy(LinearMap.from_rows(a, VectorSpace.make(6), big + sparse + big))

    def test_inputs_are_not_modified(self):
        rng = random.Random(118)
        cases = [[{0: 3, 1: 1, 2: 4}, {0: 2}, {1: 7, 2: 1}, {0: 5, 2: -2}],
                 [{0: 1, 1: 1}, {1: 1, 3: 1}, {0: 1, 1: 1, 2: 1, 3: 1}, {3: 5}],
                 [{}, {0: 2**70, 2: -(2**65)}, {0: 2**70, 2: -(2**65)}, {}]]
        cases += [[{j: rng.randint(-5, 5) or 1 for j in rng.sample(range(6), rng.randint(0, 4))}
                   for _ in range(7)] for _ in range(20)]
        for rows in cases:
            snapshot = copy.deepcopy(rows)
            _eliminate(rows, 6)
            assert rows == snapshot


class TestTensor:
    def test_tensor_map_is_kron(self):
        rng = random.Random(105)
        a, b, c, d = (VectorSpace.make(rng.randint(1, 4)) for _ in range(4))
        f, g = rand_map(rng, a, b), rand_map(rng, c, d)
        t = tensor_map(f, g)
        assert to_sympy(t) == sympy_kron(to_sympy(f), to_sympy(g))
        small = [VectorSpace.make(n) for n in (0, 1, 3)]
        for _, _, f in sparse_cases(rng, 1):
            c, d = rng.choice(small), rng.choice(small)
            g = rand_sparse_map(rng, c, d, huge=True) if rng.random() < 0.5 else rand_map(rng, c, d)
            assert to_sympy(tensor_map(f, g)) == sympy_kron(to_sympy(f), to_sympy(g))

    def test_slot_map_is_a_permuted_kronecker_product(self):
        """slot_map(k, L, M, tail=(ls, lt)) is id_L (x) k (x) id_M with the
        last ls- and lt-wide factors of k moved past the middle."""
        rng = random.Random(117)

        def shapes():
            for _ in range(60):
                yield tuple(rng.choice((0, 1, 2, 3)) if rng.random() < 0.15
                            else rng.choice((1, 2, 3)) for _ in range(6))
            # each kind of zero-width tail, which the draws may miss
            yield from ((2, 3, 2, 0, 3, 0), (2, 3, 2, 0, 3, 2), (2, 3, 2, 2, 3, 0))

        for left, middle, fs, ls, ft, lt in shapes():
            ks, kt = VectorSpace.make(fs * ls), VectorSpace.make(ft * lt)
            k = rand_sparse_map(rng, ks, kt, huge=True) if rng.random() < 0.5 \
                else rand_map(rng, ks, kt)
            spaces = {d: VectorSpace.make(d) for d in {left, middle, fs, ls, ft, lt}}
            into = tensor_permutation([spaces[d] for d in (left, fs, middle, ls)], [0, 1, 3, 2])
            out = tensor_permutation([spaces[d] for d in (left, ft, lt, middle)], [0, 1, 3, 2])
            expected = out @ tensor_maps([LinearMap.identity(spaces[left]), k,
                                          LinearMap.identity(spaces[middle])]) @ into
            source = VectorSpace.make(expected.source.dim, "s")
            got = slot_map(k, left, middle, source, expected.target, (ls, lt))
            assert got == expected and got.source is source
        with pytest.raises(LinAlgError, match="does not fit"):
            slot_map(LinearMap.identity(VectorSpace.make(2)), 2, 1, VectorSpace.make(4),
                     VectorSpace.make(3))

    def test_tensor_respects_composition(self):
        rng = random.Random(106)
        a, b, c = (VectorSpace.make(rng.randint(2, 4)) for _ in range(3))
        f1, f2 = rand_map(rng, a, b), rand_map(rng, b, c)
        g1, g2 = rand_map(rng, c, a), rand_map(rng, a, b)
        lhs = tensor_map(f2 @ f1, g2 @ g1)
        rhs = tensor_map(f2, g2) @ tensor_map(f1, g1)
        assert lhs == rhs
        # the interchange law (f (x) 1)(1 (x) g) = f (x) g = (1 (x) g)(f (x) 1),
        # on which the cross entries of a bicocyclic report rest
        for src, tgt, f in sparse_cases(rng, 1):
            c, d = (VectorSpace.make(rng.choice(SPARSE_DIMS)) for _ in range(2))
            g = rand_sparse_map(rng, c, d, huge=True)
            both = tensor_map(f, g)
            assert tensor_map(f, LinearMap.identity(d)) @ tensor_map(LinearMap.identity(src), g) \
                == both
            assert tensor_map(LinearMap.identity(tgt), g) @ tensor_map(f, LinearMap.identity(c)) \
                == both

    def test_row_major_flattening(self):
        a, b = VectorSpace.make(2, "a"), VectorSpace.make(3, "b")
        t = tensor_space(a, b)
        assert t.dim == 6
        assert t.labels[1 * 3 + 2] == "a1⊗b2"

    def test_permutation_moves_factors(self):
        a, b, c = VectorSpace.make(2, "a"), VectorSpace.make(3, "b"), VectorSpace.make(2, "c")
        p = tensor_permutation([a, b, c], [2, 0, 1])  # output = (c, a, b)
        v = [Fraction(0)] * 12
        # basis vector a1 (x) b2 (x) c0 at flat 1*6 + 2*2 + 0 = 10
        v[10] = Fraction(1)
        out = p.apply(v)
        # expected c0 (x) a1 (x) b2 at flat 0*6 + 1*3 + 2 = 5
        expect = [Fraction(0)] * 12
        expect[5] = Fraction(1)
        assert vectors_equal(out, expect)
        # on pure tensors: the permutation reorders the factors of a Kronecker product
        rng = random.Random(115)
        for k in range(5):
            for _ in range(4):
                dims = [rng.choice((0, 1, 2, 3)) if rng.random() < 0.2 else rng.choice((2, 3))
                        for _ in range(k)]
                spaces = [VectorSpace.make(d) for d in dims]
                perm = rng.sample(range(k), k)
                vecs = [sympy_vector(rand_sparse_vector(rng, d, huge=True)) for d in dims]
                pure = sympy.Matrix([[1]])
                for vec in vecs:
                    pure = sympy_kron(pure, vec)
                moved = sympy.Matrix([[1]])
                for p in perm:
                    moved = sympy_kron(moved, vecs[p])
                assert to_sympy(tensor_permutation(spaces, perm)) * pure == moved

    def test_permutation_composition(self):
        spaces = [VectorSpace.make(2), VectorSpace.make(3), VectorSpace.make(2)]
        p1 = tensor_permutation(spaces, [1, 2, 0])
        spaces2 = [spaces[1], spaces[2], spaces[0]]
        p2 = tensor_permutation(spaces2, [1, 2, 0])
        p3 = tensor_permutation(spaces, [2, 0, 1])
        assert p2 @ p1 == p3

    def test_permutation_conjugates_tensor_maps(self):
        rng = random.Random(107)
        a, b = VectorSpace.make(2), VectorSpace.make(3)
        f, g = rand_map(rng, a, a), rand_map(rng, b, b)
        swap_ab = tensor_permutation([a, b], [1, 0])
        swap_ba = tensor_permutation([b, a], [1, 0])
        assert swap_ba @ tensor_map(g, f) @ swap_ab == tensor_map(f, g)

    def test_nested_tensor_assoc(self):
        dims = [2, 3, 2]
        spaces = [VectorSpace.make(d) for d in dims]
        left = tensor_space(tensor_space(spaces[0], spaces[1]), spaces[2])
        flat = tensor_spaces(spaces)
        assert left.dim == flat.dim
        rng = random.Random(108)
        ms = [rand_map(rng, s, s) for s in spaces]
        assert tensor_map(tensor_map(ms[0], ms[1]), ms[2]) == tensor_maps(ms)


class TestQuotientsAndSubspaces:
    def test_cokernel_of_diagonal_embedding(self):
        line = VectorSpace.make(1)
        plane = VectorSpace.make(2)
        f = LinearMap.from_rows(line, plane, [[1], [1]])
        q = cokernel(f)
        assert q.space.dim == 1
        assert (q.projection @ f).is_zero()
        assert q.projection @ q.section == LinearMap.identity(q.space)

    def test_cokernel_random_properties(self):
        rng = random.Random(109)
        dense = []
        for _ in range(6):
            src = VectorSpace.make(rng.randint(1, 4))
            tgt = VectorSpace.make(rng.randint(1, 5))
            dense.append((src, tgt, rand_map(rng, src, tgt)))
        for src, tgt, f in dense + list(sparse_cases(rng, 1)):
            q = cokernel(f)
            assert f.rank() == to_sympy(f).rank()
            assert q.space.dim == tgt.dim - f.rank()
            assert (q.projection @ f).is_zero()
            assert q.projection @ q.section == LinearMap.identity(q.space)

    def test_subspace_coords_roundtrip_and_membership(self):
        a = VectorSpace.make(3)
        f = LinearMap.from_rows(VectorSpace.make(3), VectorSpace.make(1), [[1, 1, 1]])
        sub = subspace_from_kernel(f)
        assert sub.dim == 2
        v = sub.basis.apply(vector_from([2, -3]))
        assert vectors_equal(sub.coords(v), [2, -3])
        with pytest.raises(MembershipError):
            sub.coords(vector_from([1, 0, 0]))

    def test_restrict_operator_to_invariant_subspace(self):
        a = VectorSpace.make(2)
        f = LinearMap.from_rows(a, a, [[1, 1], [1, 1]])  # kernel spanned by (1,-1)
        sub = subspace_from_kernel(f)
        swap = LinearMap.from_rows(a, a, [[0, 1], [1, 0]])
        r = sub.restrict_from(swap, sub)
        assert r == LinearMap.scalar(sub.space, -1)
        shift = LinearMap.from_rows(a, a, [[1, 0], [0, 2]])
        with pytest.raises(MembershipError):
            sub.restrict_from(shift, sub)

    def test_joint_kernel(self):
        a = VectorSpace.make(3)
        c1 = LinearMap.from_rows(a, VectorSpace.make(1), [[1, -1, 0]])
        c2 = LinearMap.from_rows(a, VectorSpace.make(1), [[0, 1, -1]])
        sub = solve_constrained_subspace(a, [c1, c2])
        assert sub.dim == 1
        v = sub.basis.column(0)
        assert v[0] == v[1] == v[2] != 0

    def test_joint_kernel_no_constraints_is_everything(self):
        a = VectorSpace.make(3)
        sub = solve_constrained_subspace(a, [])
        assert sub.dim == 3

    def test_one_nonzero_per_row_joint_kernel_is_read_off(self, monkeypatch):
        """Constraints whose rows hold at most one nonzero each: their joint
        kernel is read off the untouched columns with no elimination, and it
        is the one elimination finds, basis, supports and labels alike; one
        row with two nonzeros is eliminated."""
        rng = random.Random(8)
        cases = []
        for _ in range(40):
            space = VectorSpace.make(rng.randint(0, 6), "x")
            constraints = []
            for _ in range(rng.randint(1, 3)):
                target = VectorSpace.make(rng.randint(0, 4))
                entries = [(i, rng.randrange(space.dim), rng.choice([1, -1, 2, Fraction(1, 3)]))
                           for i in range(target.dim) if space.dim and rng.random() < 0.7]
                constraints.append(LinearMap.from_entries(space, target, entries))
            expected = subspace_from_kernel(stack_vertical(constraints), prefix="n")
            cases.append((space, constraints, expected))
        a = VectorSpace.make(3)
        two = LinearMap.from_rows(a, VectorSpace.make(2), [[1, 0, 0], [0, 1, -1]])
        eliminations = []

        def counted(*args):
            eliminations.append(1)
            return _eliminate(*args)

        monkeypatch.setattr(linalg, "_eliminate", counted)
        for space, constraints, expected in cases:
            got = solve_constrained_subspace(space, constraints, prefix="n")
            assert got == expected
            assert got.space.labels == expected.space.labels
        assert not eliminations
        assert solve_constrained_subspace(a, [two]).dim == 1
        assert eliminations

    def test_fixed_subspace_of_a_monomial_map_is_read_off_its_cycles(self, monkeypatch):
        """On signed permutations with rational scalars, the fixed space read
        off the cycles, with no elimination, is ker(1 - op) as elimination
        finds it, basis, supports and labels alike; cycles whose scalars
        multiply to something other than 1, and fixed points scaled by
        something other than 1, give no vector."""
        rng = random.Random(12)
        scalars = [1, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(4, 3)]
        cases = []
        for _ in range(60):
            space = VectorSpace.make(rng.randint(0, 9), "x")
            n = space.dim
            perm = list(range(n))
            rng.shuffle(perm)
            entries = [(perm[j], j, rng.choice(scalars)) for j in range(n)]
            op = LinearMap.from_entries(space, space, entries)
            cases.append((op, subspace_from_kernel(LinearMap.identity(space) - op, prefix="l")))
        # a 3-cycle with product 1, a 2-cycle with product -1, a fixed point
        # scaled by 2 and one fixed outright
        space = VectorSpace.make(7)
        op = LinearMap.from_entries(space, space, [
            (1, 0, Fraction(2, 3)), (2, 1, -3), (0, 2, Fraction(-1, 2)),
            (4, 3, 1), (3, 4, -1), (5, 5, 2), (6, 6, 1)])
        expected = subspace_from_kernel(LinearMap.identity(space) - op)

        def refuse(*args):
            raise AssertionError("fixed_subspace eliminated")

        monkeypatch.setattr(linalg, "_eliminate", refuse)
        for cycles, kernel in cases:
            got = fixed_subspace(cycles, prefix="l")
            assert got == kernel
            assert got.space.labels == kernel.space.labels
        got = fixed_subspace(op)
        assert got.dim == 2 and got.supports == (2, 6)
        assert got.basis.column(0)[:3] == [Fraction(-1, 2), Fraction(-1, 3), 1]
        assert got == expected

    def test_fixed_subspace_of_other_maps_is_eliminated(self):
        space = VectorSpace.make(3)
        two_entries = LinearMap.from_rows(space, space, [[1, 1, 0], [0, 0, 1], [0, 0, 0]])
        repeated_row = LinearMap.from_rows(space, space, [[1, 1, 0], [0, 0, 0], [0, 0, 1]])
        empty_column = LinearMap.from_rows(space, space, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        zero = LinearMap.zero(space, space)
        for op in (two_entries, repeated_row, empty_column, zero):
            assert fixed_subspace(op) == subspace_from_kernel(LinearMap.identity(space) - op)
        with pytest.raises(LinAlgError):
            fixed_subspace(LinearMap.zero(space, VectorSpace.make(2)))

    def test_tensor_subspace_is_the_eliminated_joint_kernel(self):
        """ker A (x) ker B, built as a Kronecker product, is the joint kernel
        of A (x) id and id (x) B exactly as elimination finds it: the same
        basis, supports and labels, including when one side is unconstrained."""
        rng = random.Random(6)
        for _ in range(40):
            x = VectorSpace.make(rng.randint(1, 5), "x")
            y = VectorSpace.make(rng.randint(1, 5), "y")
            constraints = []
            for space in (x, y):
                rows = rng.randint(0, space.dim)
                constraints.append([LinearMap.from_rows(
                    space, VectorSpace.make(1),
                    [[rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(space.dim)]])
                    for _ in range(rows)])
            cx, cy = constraints
            kx = solve_constrained_subspace(x, cx, prefix="n")
            ky = solve_constrained_subspace(y, cy, prefix="n")
            both = tensor_space(x, y)
            lifted = ([tensor_map(c, LinearMap.identity(y)) for c in cx]
                      + [tensor_map(LinearMap.identity(x), c) for c in cy])
            expected = solve_constrained_subspace(both, lifted, prefix="n")
            got = tensor_subspace(kx, ky, prefix="n")
            assert got.basis == expected.basis
            assert got.supports == expected.supports
            assert got.space == expected.space and got.ambient == expected.ambient


class TestBlocksAndHom:
    def test_stack_vertical(self):
        a = VectorSpace.make(2)
        f = LinearMap.from_rows(a, VectorSpace.make(1), [[1, 2]])
        g = LinearMap.from_rows(a, VectorSpace.make(2), [[3, 4], [5, 6]])
        s = stack_vertical([f, g])
        assert s.shape == (3, 2)
        assert s.entry(0, 1) == 2 and s.entry(2, 0) == 5

    def test_from_blocks(self):
        a, b = VectorSpace.make(1), VectorSpace.make(2)
        blocks = {
            (0, 0): LinearMap.from_rows(a, a, [[7]]),
            (1, 1): LinearMap.identity(b),
        }
        m = from_blocks([a, b], [a, b], blocks)
        assert m.shape == (3, 3)
        assert m.entry(0, 0) == 7 and m.entry(1, 1) == 1 and m.entry(2, 2) == 1
        assert m.entry(0, 1) == 0

    def test_hom_vector_roundtrip(self):
        x, y = VectorSpace.make(2, "x"), VectorSpace.make(3, "y")
        rng = random.Random(110)
        f = rand_map(rng, x, y)
        v = map_to_hom_vector(f)
        assert len(v) == hom_space(x, y).dim
        assert hom_vector_to_map(v, x, y) == f

    def test_hom_precompose_postcompose(self):
        rng = random.Random(111)
        x, x2, y, y2 = (VectorSpace.make(rng.randint(2, 3)) for _ in range(4))
        phi = rand_map(rng, x, y)
        p = rand_map(rng, x2, x)
        q = rand_map(rng, y, y2)
        pre = hom_precompose(p, y)
        assert hom_vector_to_map(pre.apply(map_to_hom_vector(phi)), x2, y) == phi @ p
        post = hom_postcompose(x, q)
        assert hom_vector_to_map(post.apply(map_to_hom_vector(phi)), x, y2) == q @ phi

    def test_partial_transpose_is_currying(self):
        """The transpose of partial_transpose(f, X, Y) sends y to the Hom vector
        of x -> f(x (x) y); moving the factor back across gives f again."""
        rng = random.Random(118)
        for dx, dy, dz in itertools.product((0, 1, 2, 3), repeat=3):
            x, y, z = VectorSpace.make(dx, "x"), VectorSpace.make(dy, "y"), VectorSpace.make(dz, "z")
            src = tensor_space(x, y)
            huge = LinearMap.from_entries(src, z, [
                (i, j, rand_huge_fraction(rng))
                for i in range(dz) for j in range(src.dim) if rng.random() < 0.5])
            for f in (rand_map(rng, src, z), huge):
                p = partial_transpose(f, x, y)
                assert p.source.labels == tensor_space(x, dual_space(z)).labels
                assert p.target.labels == dual_space(y).labels
                curried = p.transpose()
                for j in range(dy):
                    at_y = f @ tensor_map(LinearMap.identity(x), insert_vector(y, basis_vector(y, j)))
                    assert curried.column(j) == map_to_hom_vector(at_y)
                    assert hom_vector_to_map(curried.column(j), x, z) == at_y
                assert relabel(partial_transpose(p, x, dual_space(z)), src, z) == f

    def test_partial_transpose_refuses_a_non_dividing_factor(self):
        f = LinearMap.identity(VectorSpace.make(6))
        with pytest.raises(LinAlgError, match="does not fit factors of dims 2 and 4"):
            partial_transpose(f, VectorSpace.make(2), VectorSpace.make(4))

    def test_nonzero_columns(self):
        f = LinearMap.from_entries(VectorSpace.make(4), VectorSpace.make(2),
                                   [(1, 3, 2), (0, 1, Fraction(-1, 2**70))])
        assert f.nonzero_columns() == [1, 3]
        assert LinearMap.zero(VectorSpace.make(3), VectorSpace.make(0)).nonzero_columns() == []

    def test_transpose_is_dual(self):
        x, y = VectorSpace.make(2, "x"), VectorSpace.make(3, "y")
        f = LinearMap.from_rows(x, y, [[1, 2], [3, 4], [5, 6]])
        ft = f.transpose()
        assert ft.source.dim == y.dim and ft.target.dim == x.dim
        assert ft.entry(1, 2) == f.entry(2, 1)
        assert dual_space(x).labels == ("x0*", "x1*")


class TestDeterminism:
    def test_kernel_representatives_are_stable(self):
        a = VectorSpace.make(4)
        f = LinearMap.from_rows(a, VectorSpace.make(2), [[1, 1, 0, 0], [0, 0, 1, 1]])
        k1 = f.kernel()
        k2 = f.kernel()
        assert all(vectors_equal(u, v) for u, v in zip(k1, k2))
        assert vectors_equal(k1[0], [1, -1, 0, 0])
        assert vectors_equal(k1[1], [0, 0, 1, -1])

    def test_first_nonzero_reads_row_major(self):
        a = VectorSpace.make(2)
        f = LinearMap.from_rows(a, a, [[0, 0], [Fraction(5, 3), 1]])
        i, j, v = f.first_nonzero()
        assert (i, j, v) == (1, 0, Fraction(5, 3))
        for _, _, f in sparse_cases(random.Random(116), 2):
            fr = f.fractions()
            first = next(((i, j, fr[i][j]) for i in range(f.target.dim)
                          for j in range(f.source.dim) if fr[i][j]), None)
            assert f.first_nonzero() == first


class TestLabels:
    """Derived spaces spell their labels from their factors, and spaces are
    equal when their dimensions and labels are."""

    ab, xy = VectorSpace(2, ("a", "b")), VectorSpace(2, ("x", "y"))

    def test_tensor_labels(self):
        assert tensor_space(self.ab, self.xy).labels == ("a⊗x", "a⊗y", "b⊗x", "b⊗y")
        assert tensor_spaces([self.ab, VectorSpace.ground(), self.xy]).labels == (
            "a⊗1⊗x", "a⊗1⊗y", "b⊗1⊗x", "b⊗1⊗y")
        assert tensor_spaces([self.ab]).labels == ("a", "b")
        assert tensor_spaces([]).labels == ("1",)

    def test_dual_and_hom_labels(self):
        assert dual_space(self.ab).labels == ("a*", "b*")
        assert hom_space(self.ab, VectorSpace(1, ("n",))).labels == ("a*", "b*")
        assert hom_space(self.ab, self.xy).labels == ("a↦x", "a↦y", "b↦x", "b↦y")

    def test_made_and_summed_labels(self):
        assert VectorSpace.make(3, "p").labels == ("p0", "p1", "p2")
        assert VectorSpace.make(0).labels == ()
        with pytest.raises(LinAlgError, match="dim does not match"):
            VectorSpace.make(-1)
        assert direct_sum_space([self.ab, VectorSpace.make(0), self.xy]).labels == (
            "c0:a", "c0:b", "c2:x", "c2:y")

    def test_transpose_labels(self):
        xyz = VectorSpace(3, ("x", "y", "z"))
        ft = LinearMap.zero(self.ab, xyz).transpose()
        assert ft.source.labels == ("x*", "y*", "z*")
        assert ft.target.labels == ("a*", "b*")

    def test_cokernel_labels(self):
        pqr = VectorSpace(3, ("p", "q", "r"))
        f = LinearMap.from_rows(VectorSpace(1, ("u",)), pqr, [[1], [1], [0]])
        assert cokernel(f).space.labels == ("[q]", "[r]")

    def test_equality_reads_dimension_and_labels(self):
        given = VectorSpace(4, ("a⊗x", "a⊗y", "b⊗x", "b⊗y"))
        derived = tensor_space(self.ab, self.xy)
        assert derived == given and given == derived
        assert hash(derived) == hash(given)
        assert derived != VectorSpace(4, ("a⊗x", "a⊗y", "b⊗x", "b⊗z"))
        assert derived != VectorSpace.make(4)

    def test_carrier_labels_must_be_unique(self):
        with pytest.raises(LinAlgError, match="basis labels must be unique"):
            VectorSpace(2, ("a", "a"))
        with pytest.raises(LinAlgError, match="dim does not match"):
            VectorSpace(3, ("a", "b"))

    def test_spaces_stay_immutable_and_copyable(self):
        derived = tensor_space(self.ab, self.xy)
        for space in (self.ab, derived):
            with pytest.raises(AttributeError):
                space.dim = 5
        assert derived.dim == 4
        for copied in (copy.copy(derived), copy.deepcopy(derived),
                       pickle.loads(pickle.dumps(derived))):
            assert copied == derived and copied.labels == derived.labels

    def test_labels_are_spelled_only_when_read(self):
        """A space of 10**8 basis vectors is built at once; its labels are
        only spelled on a read."""
        ten = VectorSpace.make(10, "t")
        big = tensor_spaces([ten] * 8)
        assert big.dim == 10 ** 8
        assert tensor_space(big, big).dim == 10 ** 16
        assert hom_space(big, ten).dim == dual_space(big).dim * 10


# ------------------------------------------------------------ product kernel references
#
# Verbatim copies of the five exact product kernels as they stood before their
# per-column fast paths (`self` and `other` kept as parameter names).  Every
# kernel must give what its reference gives: the same denominator, the same
# column dicts in the same insertion order, and the value sympy gives.


def reference_matmul(self, other):
    if self.source.dim != other.target.dim:
        raise LinAlgError(
            f"cannot compose: inner dims {self.source.dim} != {other.target.dim}"
        )
    a = self._cols
    cols = []
    for col in other._cols:
        if len(col) == 1:
            # one entry b in row k: column k of self times b, never zero
            (k, b), = col.items()
            cols.append(dict(a[k]) if b == 1 else {i: v * b for i, v in a[k].items()})
            continue
        acc = {}
        for k, b in col.items():
            for i, v in a[k].items():
                acc[i] = acc.get(i, 0) + v * b
        cols.append({i: v for i, v in acc.items() if v})
    return _canonical(other.source, self.target, cols, self._den * other._den)


def reference_add_sub(self, other, sign):
    if self.shape != other.shape:
        raise LinAlgError("cannot add maps of different shapes")
    den = math.lcm(self._den, other._den)
    fa, fb = den // self._den, sign * (den // other._den)
    cols = []
    for ca, cb in zip(self._cols, other._cols):
        acc = {i: v * fa for i, v in ca.items()}
        for i, v in cb.items():
            acc[i] = acc.get(i, 0) + v * fb
        cols.append({i: v for i, v in acc.items() if v})
    return _canonical(self.source, self.target, cols, den)


def reference_signed_sum(terms):
    if not terms:
        raise LinAlgError("nothing to sum")
    first = terms[0][1]
    if any(m.shape != first.shape for _, m in terms):
        raise LinAlgError("cannot add maps of different shapes")
    if any(sign not in (1, -1) for sign, _ in terms):
        raise LinAlgError("a signed sum takes the signs 1 and -1")
    den = math.lcm(*(m._den for _, m in terms))
    factors = [sign * (den // m._den) for sign, m in terms]
    cols = []
    for group in zip(*(m._cols for _, m in terms)):
        acc = {}
        for f, col in zip(factors, group):
            for i, v in col.items():
                acc[i] = acc.get(i, 0) + v * f
        cols.append({i: v for i, v in acc.items() if v})
    return _canonical(first.source, first.target, cols, den)


def reference_tensor_map(f, g):
    m = g.target.dim
    cols = [{i * m + k: a * b for i, a in fc.items() for k, b in gc.items()}
            for fc in f._cols for gc in g._cols]
    return _canonical(tensor_space(f.source, g.source), tensor_space(f.target, g.target),
                      cols, f._den * g._den)


def reference_slot_map(k, left, middle, source, target, tail=(1, 1)):
    ls, lt = tail
    # a zero-width tail fits only a zero-dimensional side of k
    fs, ft = k.source.dim // (ls or 1), k.target.dim // (lt or 1)
    if (fs * ls, ft * lt) != (k.source.dim, k.target.dim) or \
            source.dim != left * fs * middle * ls or target.dim != left * ft * middle * lt:
        raise LinAlgError(
            f"slot map of a {k.target.dim}x{k.source.dim} map does not fit "
            f"{target.dim}x{source.dim}")
    if not lt:  # a zero-dimensional target, where the row stride below would be 0
        return LinearMap.zero(source, target)
    stride = middle * lt
    offsets = [[(i // lt * stride + i % lt, v) for i, v in col.items()] for col in k._cols]
    cols = [{base + o: v for o, v in offsets[f * ls + e]}
            for l in range(left) for f in range(fs)
            for base in range(l * ft * stride, l * ft * stride + stride, lt)
            for e in range(ls)]
    # every column of k appears once left * middle > 0, so the map stays reduced
    return LinearMap(source, target, tuple(cols), k._den if cols else 1)


def reference_tensor_permutation(spaces, perm):
    if sorted(perm) != list(range(len(spaces))):
        raise LinAlgError("perm must be a permutation of the factor indices")
    dims = [s.dim for s in spaces]
    # weight[p]: stride in the output of the slot that input factor p moves to
    weight = [0] * len(perm)
    stride = 1
    for i in reversed(range(len(perm))):
        weight[perm[i]] = stride
        stride *= dims[perm[i]]
    cols = tuple({sum(x * w for x, w in zip(multi, weight)): 1}
                 for multi in itertools.product(*(range(d) for d in dims)))
    return LinearMap(tensor_spaces(spaces), tensor_spaces([spaces[p] for p in perm]), cols, 1)


# dimensions of every space the kernel comparisons draw: empty, a line, and
# room for permutations, several entries per column and wide tails
KERNEL_DIMS = (0, 1, 6)


def kernel_factors(rng, src, tgt):
    """Maps src -> tgt, by name, of every column shape the product kernels
    tell apart: (signed) monomial, with empty columns, mixed, dense, entries
    above 2**64, even integers and halves (whose products reduce by a gcd),
    zero, and a permutation when the dimensions agree."""
    def monomial(values, empty=0.0):
        return LinearMap.from_entries(src, tgt, [
            (rng.randrange(tgt.dim), j, rng.choice(values)) for j in range(src.dim)
            if tgt.dim and rng.random() >= empty])

    out = {
        "signed monomial": monomial((1, -1)),
        "monomial": monomial(MONOMIAL_VALUES),
        "empty columns": monomial(MONOMIAL_VALUES, empty=0.5),
        "mixed": rand_mixed_map(rng, src, tgt),
        "dense": rand_map(rng, src, tgt),
        "huge": LinearMap.from_rows(src, tgt, [
            [rand_huge_fraction(rng) if rng.random() < 0.6 else 0 for _ in range(src.dim)]
            for _ in range(tgt.dim)]),
        "evens": rand_map(rng, src, tgt, den=1).scale(2),
        "halves": monomial((Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2)), empty=0.2),
        "zero": LinearMap.zero(src, tgt),
    }
    if src.dim == tgt.dim:
        perm = rng.sample(range(src.dim), src.dim)
        out["permutation"] = LinearMap.from_entries(src, tgt, [(i, j, 1) for j, i in enumerate(perm)])
    return out


def cancelling_cases():
    """(f, g, g2, f2) on spaces of dims 3 -> 3 -> 2: g kills columns 0 and 2
    of f, the second in rows above 2**64, and keeps one row of column 1;
    g2 kills every column of f; f - f2 cancels column 0 exactly and columns
    1 and 2 in all but one row."""
    h = 2**70 + 3
    a, b, c = VectorSpace.make(3), VectorSpace.make(3), VectorSpace.make(2)
    f = LinearMap.from_rows(a, b, [[1, 1, h], [-1, 0, -h], [0, -1, 0]])
    g = LinearMap.from_rows(b, c, [[1, 1, 1], [2, 2, 3]])
    g2 = LinearMap.from_rows(b, c, [[h, h, h], [Fraction(1, 3)] * 3])
    f2 = LinearMap.from_rows(a, b, [[1, 1, h], [-1, 5, Fraction(1, 2)], [0, -1, 0]])
    return a, b, c, f, g, g2, f2


def assert_same_result(got, ref):
    """The same spaces, denominator, column dicts and column insertion order."""
    assert (got.source, got.target) == (ref.source, ref.target)
    assert got._den == ref._den
    assert [list(col.items()) for col in got._cols] == [list(col.items()) for col in ref._cols]


def assert_shares_no_column(result, *inputs):
    """Mutating every column of the result leaves every input as it was."""
    before = [m.fractions() for m in inputs]
    for col in result._cols:
        col.clear()
        col[0] = 99
    assert [m.fractions() for m in inputs] == before


def sympy_slot_map(k, left, middle, tail):
    """sympy's id_left (x) k (x) id_middle with k's tail factors moved behind
    the middle, read entry by entry off the index rule."""
    (ls, lt), sk = tail, to_sympy(k)
    fs, ft = k.source.dim // (ls or 1), k.target.dim // (lt or 1)

    def entry(r, c):
        (l, fp, m, ep), (l2, f, m2, e) = (
            (x // (n * middle * w), x // (middle * w) % n, x // w % middle, x % w)
            for x, n, w in ((r, ft, lt), (c, fs, ls)))
        return sk[fp * lt + ep, f * ls + e] if (l, m) == (l2, m2) else 0

    return sympy.Matrix(left * ft * middle * lt, left * fs * middle * ls, entry)


class TestProductKernelReferences:
    def test_matmul_matches_the_reference(self):
        rng = random.Random(2301)
        for a, b, c in itertools.product(KERNEL_DIMS, repeat=3):
            a, b, c = VectorSpace.make(a), VectorSpace.make(b), VectorSpace.make(c)
            fs, gs = kernel_factors(rng, a, b), kernel_factors(rng, b, c)
            for f, g in itertools.product(fs.values(), gs.values()):
                product = g @ f
                assert_same_result(product, reference_matmul(g, f))
                assert to_sympy(product) == to_sympy(g) * to_sympy(f)
        a, b, c, f, g, g2, f2 = cancelling_cases()
        for right, left in ((f, g), (f, g2), (f2, g), (f2, g2)):
            product = left @ right
            assert_same_result(product, reference_matmul(left, right))
            assert to_sympy(product) == to_sympy(left) * to_sympy(right)
        assert (g @ f).column(0) == [0, 0] and (g @ f).column(1) == [0, -1]
        assert (g @ f).column(2) == [0, 0] and (g2 @ f).is_zero()
        assert (g2 @ f)._den == 1
        halves = LinearMap.identity(a).scale(Fraction(1, 2))
        assert (LinearMap.identity(a).scale(2) @ halves)._den == 1

    def test_add_sub_and_signed_sum_match_the_reference(self):
        rng = random.Random(2302)
        for a, b in itertools.product(KERNEL_DIMS, repeat=2):
            a, b = VectorSpace.make(a), VectorSpace.make(b)
            maps = list(kernel_factors(rng, a, b).values())
            for f, g in itertools.product(maps, repeat=2):
                for sign, got in ((1, f + g), (-1, f - g)):
                    assert_same_result(got, reference_add_sub(f, g, sign))
                    assert to_sympy(got) == to_sympy(f) + sign * to_sympy(g)
            for _ in range(20):
                terms = [(rng.choice((1, -1)), rng.choice(maps))
                         for _ in range(rng.randint(1, 5))]
                got = signed_sum(terms)
                assert_same_result(got, reference_signed_sum(terms))
                assert to_sympy(got) == sum((sign * to_sympy(m) for sign, m in terms),
                                            sympy.zeros(b.dim, a.dim))
        _, _, _, f, _, _, f2 = cancelling_cases()
        h = 2**70 + 3
        cases = [(f, f, -1), (f, -f, 1), (f, f2, -1), (f2, f.scale(Fraction(-1, 2)), 1)]
        for x, y, sign in cases:
            got = x + y if sign == 1 else x - y
            assert_same_result(got, reference_add_sub(x, y, sign))
            assert to_sympy(got) == to_sympy(x) + sign * to_sympy(y)
            terms = [(1, x), (sign, y), (1, f2), (-1, f2)]
            assert_same_result(signed_sum(terms), reference_signed_sum(terms))
            assert signed_sum(terms) == got
        assert (f - f).is_zero() and (f - f)._den == 1
        assert (f - f2).column(0) == [0, 0, 0] and (f - f2).column(1) == [0, -5, 0]
        assert (f - f2).column(2) == [0, -h - Fraction(1, 2), 0]
        twice = f2.scale(Fraction(1, 2)) + f2.scale(Fraction(1, 2))
        assert twice == f2 and twice._den == 2

    def test_tensor_map_matches_the_reference(self):
        rng = random.Random(2303)
        for a, b, c, d in itertools.product(KERNEL_DIMS, repeat=4):
            a, b, c, d = (VectorSpace.make(n) for n in (a, b, c, d))
            fs, gs = kernel_factors(rng, a, b), kernel_factors(rng, c, d)
            # every pair of shapes once all four spaces are six-dimensional,
            # ten of them against sympy
            pairs = list(itertools.product(fs.values(), gs.values()))
            sampled = rng.sample(pairs, 6 if min(a.dim, b.dim, c.dim, d.dim) < 6 else 10)
            if min(a.dim, b.dim, c.dim, d.dim) < 6:
                pairs = sampled
            for f, g in pairs:
                assert_same_result(tensor_map(f, g), reference_tensor_map(f, g))
            for f, g in sampled:
                assert to_sympy(tensor_map(f, g)) == sympy_kron(to_sympy(f), to_sympy(g))
        a = VectorSpace.make(6)
        evens, halves = kernel_factors(rng, a, a)["evens"], kernel_factors(rng, a, a)["halves"]
        assert halves._den == 2 and not evens.is_zero()
        assert tensor_map(halves, evens)._den == 1

    def test_slot_map_matches_the_reference(self):
        """Every split of a 0-, 1- and 6-dimensional side of k into a factor
        and a tail, the wide tails among them, between 0, 1 and 2 identity
        factors on each side."""
        rng = random.Random(2304)
        splits = {0: [(0, 3), (3, 0)], 1: [(1, 1)], 6: [(6, 1), (3, 2), (2, 3), (1, 6)]}
        for ks, kt in itertools.product(KERNEL_DIMS, repeat=2):
            maps = kernel_factors(rng, VectorSpace.make(ks), VectorSpace.make(kt))
            for (fs, ls), (ft, lt) in itertools.product(splits[ks], splits[kt]):
                for name, k in maps.items():
                    left, middle = rng.choice((0, 1, 1, 2, 2)), rng.choice((0, 1, 1, 2, 2))
                    source = VectorSpace.make(left * fs * middle * ls, "s")
                    target = VectorSpace.make(left * ft * middle * lt, "t")
                    got = slot_map(k, left, middle, source, target, (ls, lt))
                    ref = reference_slot_map(k, left, middle, source, target, (ls, lt))
                    assert_same_result(got, ref)
                    assert to_sympy(got) == sympy_slot_map(k, left, middle, (ls, lt)), \
                        (name, left, middle, (fs, ls), (ft, lt))

    def test_tensor_permutation_matches_the_reference(self):
        """Seeded permutations of up to four factors of dims 0-3, the identity
        permutation, no factor, one factor, and factors of dims 0 and 1 among
        others."""
        rng = random.Random(2306)
        cases = [([], [])] + [([d], [0]) for d in (0, 1, 3)]
        cases += [(dims, list(range(len(dims)))) for dims in ([2, 3], [3, 1, 2], [2, 0, 3])]
        cases += [([1, 1, 1], [2, 0, 1]), ([0, 2], [1, 0]), ([2, 1, 3], [1, 2, 0]),
                  ([3, 2, 0, 2], [3, 2, 1, 0])]
        for _ in range(40):
            dims = [rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(1, 4))]
            cases.append((dims, rng.sample(range(len(dims)), len(dims))))
        for dims, perm in cases:
            spaces = [VectorSpace.make(d, f"x{i}_") for i, d in enumerate(dims)]
            assert_same_result(tensor_permutation(spaces, perm),
                               reference_tensor_permutation(spaces, perm))

    def test_no_kernel_result_shares_a_column_with_an_input(self):
        """The pattern of `test_matmul_matches_sympy`, for sums, signed sums,
        slot maps and tensor products."""
        rng = random.Random(2305)
        for a, b in itertools.product(KERNEL_DIMS, repeat=2):
            a, b = VectorSpace.make(a), VectorSpace.make(b)
            fs, gs = kernel_factors(rng, a, b), kernel_factors(rng, a, b)
            for f, g in zip(fs.values(), gs.values()):
                for make in (lambda: f + g, lambda: f - g, lambda: signed_sum([(1, f)]),
                             lambda: signed_sum([(1, f), (-1, g), (1, f)]),
                             lambda: slot_map(f, 2, 1, tensor_space(VectorSpace.make(2), a),
                                              tensor_space(VectorSpace.make(2), b)),
                             lambda: slot_map(f, 1, 2, tensor_space(a, VectorSpace.make(2)),
                                              tensor_space(b, VectorSpace.make(2))),
                             lambda: tensor_map(f, g), lambda: tensor_map(g, f),
                             lambda: tensor_map(f, LinearMap.identity(VectorSpace.make(2)))):
                    assert_shares_no_column(make(), f, g)
