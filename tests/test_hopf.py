"""Hopf algebra builders, axiom checkers, and derived algebras."""

import dataclasses
import hashlib
import re
from fractions import Fraction

import pytest

from hopfcyclic.hopf import (
    Algebra,
    CoalgebraAction,
    ComoduleAlgebra,
    GroupTableError,
    HopfAlgebra,
    ModuleAlgebra,
    ModuleCoalgebra,
    adjoint_action,
    check_algebra,
    check_coalgebra_action,
    check_comodule_algebra,
    check_hopf_axioms,
    check_module_algebra,
    check_module_coalgebra,
    convolution_algebra,
    crossed_product,
    equivariant_map_space,
    cyclic_group_table,
    group_algebra,
    iota,
    iterated_comultiplication,
    left_regular_action,
    regular_coaction,
    sweedler_h4,
    symmetric_group_table,
    trivial_action,
    trivial_coaction,
    trivial_hopf,
)
from hopfcyclic.linalg import (
    LinAlgError,
    LinearMap,
    VectorSpace,
    basis_vector,
    hom_postcompose,
    hom_precompose,
    hom_space,
    hom_vector_to_map,
    insert_vector,
    map_to_hom_vector,
    solve_constrained_subspace,
    tensor_map,
    tensor_permutation,
    tensor_space,
    vector_from,
    vectors_equal,
)


def z2():
    return group_algebra(cyclic_group_table(2), labels=("1", "g"))


def sign_action_z2(h):
    """The generator acts by the algebra automorphism fixing 1 and negating g."""
    hs = h.space
    return LinearMap.from_rows(
        tensor_space(hs, hs), hs,
        [[1, 0, 1, 0], [0, 1, 0, -1]],
    )


def failures(report):
    return [e.name for e in report.entries if not e.passed]


class TestHopfAxioms:
    def test_trivial_hopf_passes(self):
        rep = check_hopf_axioms(trivial_hopf())
        assert rep.passed
        assert len(rep.entries) == 14

    def test_group_algebras_pass(self):
        for table in (cyclic_group_table(2), cyclic_group_table(3), symmetric_group_table(3)):
            assert check_hopf_axioms(group_algebra(table)).passed

    def test_z2_antipode_is_identity(self):
        h = z2()
        assert h.antipode == LinearMap.identity(h.space)

    def test_s3_noncommutative_cocommutative(self):
        h = group_algebra(symmetric_group_table(3))
        assert h.dim == 6
        swap = tensor_permutation([h.space, h.space], [1, 0])
        assert h.mul @ swap != h.mul
        assert swap @ h.comul == h.comul

    def test_corrupted_comultiplication_caught(self):
        h = z2()
        bad_comul = LinearMap.from_entries(
            h.space, tensor_space(h.space, h.space),
            [(0, 0, Fraction(1)), (1 * 2 + 0, 1, Fraction(1))],  # g -> g(x)1
        )
        bad = HopfAlgebra(h.space, h.mul, h.unit, bad_comul, h.counit, h.antipode, h.antipode_inv)
        rep = check_hopf_axioms(bad)
        assert not rep.passed
        bad_names = failures(rep)
        assert "antipode left axiom" in bad_names
        assert "antipode right axiom" in bad_names
        assert "left counit law" in bad_names
        entry = rep.first_failure()
        assert "residual" in entry.detail

    def test_perturbed_antipode_report_is_pinned(self):
        """The full report, witnesses included, on sweedler4 with one antipode
        entry perturbed."""
        h = sweedler_h4()
        bump = LinearMap.from_entries(h.space, h.space, [(1, 2, Fraction(1))])
        rep = check_hopf_axioms(dataclasses.replace(h, antipode=h.antipode + bump))
        details = {e.name: e.detail for e in rep.entries if not e.passed}
        assert sorted(details) == ["antipode inverse left", "antipode inverse right",
                                   "antipode left axiom", "antipode right axiom"]
        assert all(re.fullmatch(r"first residual -?\d+ at row '[^']+', column '[^']+'", d)
                   for d in details.values())
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == \
            "89c966b4c406fb2804839b74594f1279b6340cd6d617c7625a4d0a75ccf0f0d4"

    def test_iterated_comultiplication(self):
        h = z2()
        d2 = iterated_comultiplication(h, 2)
        assert d2.shape == (8, 2)
        out = d2.apply(basis_vector(h.space, 1))
        expect = [Fraction(0)] * 8
        expect[1 * 4 + 1 * 2 + 1] = Fraction(1)
        assert vectors_equal(out, expect)


class TestGroupValidation:
    def test_closure_violation(self):
        with pytest.raises(GroupTableError, match="closure"):
            group_algebra([[0, 5], [1, 0]])

    def test_missing_identity(self):
        with pytest.raises(GroupTableError, match="identity"):
            group_algebra([[1, 1], [1, 1]])

    def test_nonassociative_loop(self):
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(GroupTableError, match="associativity"):
            group_algebra(table)

    def test_missing_inverse(self):
        with pytest.raises(GroupTableError, match="inverses"):
            group_algebra([[0, 1], [1, 1]])


class TestSweedler:
    def test_axioms_pass(self):
        assert check_hopf_axioms(sweedler_h4()).passed

    def test_antipode_order_four(self):
        h = sweedler_h4()
        s2 = h.antipode @ h.antipode
        assert s2 != LinearMap.identity(h.space)
        # the square negates x
        assert vectors_equal(s2.apply(basis_vector(h.space, 2)), vector_from([0, 0, -1, 0]))
        assert h.antipode_inv == s2 @ h.antipode

    def test_counit_values(self):
        h = sweedler_h4()
        assert h.counit.entry(0, 0) == 1 and h.counit.entry(0, 1) == 1
        assert h.counit.entry(0, 2) == 0 and h.counit.entry(0, 3) == 0

    def test_not_cocommutative(self):
        h = sweedler_h4()
        swap = tensor_permutation([h.space, h.space], [1, 0])
        assert swap @ h.comul != h.comul


class TestModuleStructures:
    def test_left_regular_multiplication_is_not_a_module_algebra(self):
        h = z2()
        a = ModuleAlgebra(h, h.space, h.mul, h.unit, left_regular_action(h))
        rep = check_module_algebra(a)
        assert "action distributes over products" in failures(rep)

    def test_adjoint_action_module_algebra(self):
        for hopf in (z2(), group_algebra(symmetric_group_table(3))):
            a = ModuleAlgebra(hopf, hopf.space, hopf.mul, hopf.unit, adjoint_action(hopf))
            assert check_module_algebra(a).passed

    def test_trivial_action_module_algebra(self):
        h = sweedler_h4()
        a = ModuleAlgebra(h, h.space, h.mul, h.unit, trivial_action(h, h.space))
        assert check_module_algebra(a).passed

    def test_sign_action_module_algebra(self):
        h = z2()
        a = ModuleAlgebra(h, h.space, h.mul, h.unit, sign_action_z2(h))
        assert check_module_algebra(a).passed

    def test_regular_module_coalgebra(self):
        for hopf in (z2(), sweedler_h4()):
            c = ModuleCoalgebra(hopf, hopf.space, hopf.comul, hopf.counit, left_regular_action(hopf))
            assert check_module_coalgebra(c).passed

    def test_regular_comodule_algebra(self):
        for hopf in (z2(), sweedler_h4()):
            b = ComoduleAlgebra(hopf, hopf.space, hopf.mul, hopf.unit, regular_coaction(hopf))
            assert check_comodule_algebra(b).passed

    def test_trivial_comodule_algebra(self):
        h = sweedler_h4()
        b = ComoduleAlgebra(h, h.space, h.mul, h.unit, trivial_coaction(h, h.space))
        assert check_comodule_algebra(b).passed


def counit_coalgebra(h):
    """The ground field as a module coalgebra over h."""
    space = VectorSpace(1, ("c",))
    one = LinearMap.from_rows(space, tensor_space(space, space), [[1]])
    counit = LinearMap.from_rows(space, VectorSpace.ground(), [[1]])
    return ModuleCoalgebra(h, space, one, counit, trivial_action(h, space))


def sign_configuration():
    """Regular module coalgebra acting on the sign-twisted group algebra."""
    h = z2()
    a = ModuleAlgebra(h, h.space, h.mul, h.unit, sign_action_z2(h))
    c = ModuleCoalgebra(h, h.space, h.comul, h.counit, left_regular_action(h))
    act = sign_action_z2(h)  # as a map C (x) A -> A it is the same matrix
    return CoalgebraAction(c, a, act)


class TestCoalgebraAction:
    def test_point_coalgebra_on_invariant_algebra(self):
        h = z2()
        a = ModuleAlgebra(h, h.space, h.mul, h.unit, trivial_action(h, h.space))
        c = counit_coalgebra(h)
        act = LinearMap.identity(a.space)
        ca = CoalgebraAction(c, a, act)
        assert check_coalgebra_action(ca).passed

    def test_sign_configuration_passes(self):
        assert check_coalgebra_action(sign_configuration()).passed

    def test_equivariance_failure_detected(self):
        # regular coalgebra acting on the sign-twisted algebra through the
        # counit is not equivariant: (g.c).a picks up no sign but g.(c.a) does
        h = z2()
        a = ModuleAlgebra(h, h.space, h.mul, h.unit, sign_action_z2(h))
        c = ModuleCoalgebra(h, h.space, h.comul, h.counit, left_regular_action(h))
        act = trivial_action(h, a.space)  # counit (x) id with C = H
        ca = CoalgebraAction(c, a, act)
        rep = check_coalgebra_action(ca)
        assert "action is equivariant" in failures(rep)


class TestConvolutionAlgebra:
    def test_point_coalgebra_gives_back_the_algebra(self):
        h = z2()
        a = ModuleAlgebra(h, h.space, h.mul, h.unit, trivial_action(h, h.space))
        ca = CoalgebraAction(counit_coalgebra(h), a, LinearMap.identity(a.space))
        conv = convolution_algebra(ca)
        assert conv.dim == 2
        assert conv.algebra.mul == a.mul
        emb = iota(ca, conv)
        assert emb == LinearMap.identity(a.space)

    def test_scalar_valued_maps_cut_to_dimension_one(self):
        h = z2()
        q = VectorSpace.ground()
        a = ModuleAlgebra(
            h, q, LinearMap.from_rows(tensor_space(q, q), q, [[1]]),
            LinearMap.identity(q), trivial_action(h, q),
        )
        c = ModuleCoalgebra(h, h.space, h.comul, h.counit, left_regular_action(h))
        ca = CoalgebraAction(c, a, h.counit)
        conv = convolution_algebra(ca)
        assert conv.dim == 1
        # the surviving map is a multiple of the counit
        f = hom_vector_to_map(conv.subspace.basis.column(0), c.space, a.space)
        assert f.entry(0, 0) == f.entry(0, 1) != 0

    def test_sign_configuration_convolution(self):
        ca = sign_configuration()
        conv = convolution_algebra(ca)
        # maps are determined by the value at the group identity
        assert conv.dim == 2
        assert check_algebra(conv.algebra).passed
        emb = iota(ca, conv)
        a = ca.algebra
        # embedding is multiplicative on every basis pair
        for i in range(a.space.dim):
            for j in range(a.space.dim):
                prod_a = a.mul @ tensor_map(
                    insert_vector(a.space, basis_vector(a.space, i)),
                    insert_vector(a.space, basis_vector(a.space, j)),
                )
                lhs = emb @ prod_a
                rhs = conv.algebra.mul @ tensor_map(emb @ insert_vector(a.space, basis_vector(a.space, i)),
                                                    emb @ insert_vector(a.space, basis_vector(a.space, j)))
                assert lhs == rhs

    def test_iota_refuses_an_action_that_is_not_h_linear(self):
        # the counit action of the regular coalgebra on the sign-twisted
        # algebra: c -> counit(c) g is not H-linear, as g.g = -g
        h = z2()
        a = ModuleAlgebra(h, h.space, h.mul, h.unit, sign_action_z2(h))
        c = ModuleCoalgebra(h, h.space, h.comul, h.counit, left_regular_action(h))
        ca = CoalgebraAction(c, a, trivial_action(h, a.space))
        conv = convolution_algebra(ca)
        with pytest.raises(ValueError, match=r"^image of basis element 'g' is not H-linear; "
                                             r"the coalgebra action violates equivariance$"):
            iota(ca, conv)

    def test_unit_law_on_basis_maps(self):
        ca = sign_configuration()
        conv = convolution_algebra(ca)
        b = conv.algebra
        for j in range(b.space.dim):
            e = insert_vector(b.space, basis_vector(b.space, j))
            assert b.mul @ tensor_map(b.unit, e) == e
            assert b.mul @ tensor_map(e, b.unit) == e


class TestCrossedProduct:
    def test_trivial_coaction_gives_componentwise_product(self):
        h = z2()
        a = ModuleAlgebra(h, h.space, h.mul, h.unit, adjoint_action(h))
        b = ComoduleAlgebra(h, h.space, h.mul, h.unit, trivial_coaction(h, h.space))
        alg = crossed_product(a, b)
        componentwise = tensor_map(a.mul, h.mul) @ tensor_permutation(
            [a.space, h.space, a.space, h.space], [0, 2, 1, 3]
        )
        assert alg.mul == componentwise

    def test_scalar_left_factor_collapses(self):
        h = z2()
        q = VectorSpace.ground()
        a = ModuleAlgebra(
            h, q, LinearMap.from_rows(tensor_space(q, q), q, [[1]]),
            LinearMap.identity(q), trivial_action(h, q),
        )
        b = ComoduleAlgebra(h, h.space, h.mul, h.unit, regular_coaction(h))
        alg = crossed_product(a, b)
        assert alg.space.dim == h.dim
        assert alg.mul == h.mul

    def test_regular_coaction_with_adjoint_action(self):
        h = z2()
        a = ModuleAlgebra(h, h.space, h.mul, h.unit, adjoint_action(h))
        b = ComoduleAlgebra(h, h.space, h.mul, h.unit, regular_coaction(h))
        alg = crossed_product(a, b)
        assert alg.space.dim == 4
        assert check_algebra(alg).passed
        # (1 >< g)(g >< 1) = (g.g) >< g = g >< g for the adjoint action
        x = tensor_map(
            insert_vector(alg.space, vector_from([0, 1, 0, 0])),  # 1 (x) g
            insert_vector(alg.space, vector_from([0, 0, 1, 0])),  # g (x) 1
        )
        out = (alg.mul @ x).column(0)
        assert vectors_equal(out, [0, 0, 0, 1])

    def test_sign_action_crossed_product_with_regular_coaction(self):
        h = z2()
        a = ModuleAlgebra(h, h.space, h.mul, h.unit, sign_action_z2(h))
        b = ComoduleAlgebra(h, h.space, h.mul, h.unit, regular_coaction(h))
        alg = crossed_product(a, b)
        assert check_algebra(alg).passed
        # (g >< g)(g >< 1) = g(g.g) >< g = -g g >< g = -1 >< g
        x = tensor_map(
            insert_vector(alg.space, vector_from([0, 0, 0, 1])),
            insert_vector(alg.space, vector_from([0, 0, 1, 0])),
        )
        out = (alg.mul @ x).column(0)
        assert vectors_equal(out, [0, -1, 0, 0])

    def test_refuses_a_product_that_is_not_associative(self):
        # g . g = 2g does not respect the multiplication of A
        h = z2()
        doubling = LinearMap.from_rows(tensor_space(h.space, h.space), h.space,
                                       [[1, 0, 1, 0], [0, 1, 0, 2]])
        a = ModuleAlgebra(h, h.space, h.mul, h.unit, doubling)
        b = ComoduleAlgebra(h, h.space, h.mul, h.unit, regular_coaction(h))
        with pytest.raises(LinAlgError) as info:
            crossed_product(a, b)
        assert str(info.value) == ("crossed product: check 'multiplication associative' failed "
                                   "(first residual 3 at row '1⊗1', column '1⊗g⊗g⊗1⊗g⊗g')")

    def test_refuses_a_relabelled_hopf_algebra(self):
        """Equal multiplication tables are not enough: the two sides must live
        over one Hopf algebra, labels included, as for every other refusal."""
        h, relabelled = z2(), group_algebra(cyclic_group_table(2), labels=("a", "b"))
        a = ModuleAlgebra(h, h.space, h.mul, h.unit, adjoint_action(h))
        b = ComoduleAlgebra(relabelled, relabelled.space, relabelled.mul, relabelled.unit,
                            regular_coaction(relabelled))
        with pytest.raises(LinAlgError, match=r"^crossed product requires one common Hopf "
                                              r"algebra$"):
            crossed_product(a, b)


# -- the per-basis-element formulation, kept as a reference -----------------


def hopf_ladder():
    return [trivial_hopf(), z2(), group_algebra(cyclic_group_table(3)),
            group_algebra(symmetric_group_table(3)), sweedler_h4()]


def element(space, i):
    return insert_vector(space, basis_vector(space, i))


def reference_equivariant_map_space(h, c_space, c_action, a_space, a_action):
    """H-linear maps C -> A: one constraint per basis element of H, stacked."""
    i_c, i_a = LinearMap.identity(c_space), LinearMap.identity(a_space)
    constraints = []
    for i in range(h.dim):
        act_c = c_action @ tensor_map(element(h.space, i), i_c)
        act_a = a_action @ tensor_map(element(h.space, i), i_a)
        constraints.append(hom_precompose(act_c, a_space) - hom_postcompose(c_space, act_a))
    return solve_constrained_subspace(hom_space(c_space, a_space), constraints, prefix="f")


def reference_convolution_product(ca, sub):
    """The convolution product, one pair of basis maps at a time."""
    c, a = ca.coalgebra, ca.algebra
    maps = [hom_vector_to_map(sub.basis.column(j), c.space, a.space) for j in range(sub.dim)]
    entries = []
    for i, f in enumerate(maps):
        for j, g in enumerate(maps):
            coords = sub.coords(map_to_hom_vector(a.mul @ tensor_map(f, g) @ c.comul))
            entries += [(k, i * sub.dim + j, x) for k, x in enumerate(coords) if x]
    return LinearMap.from_entries(tensor_space(sub.space, sub.space), sub.space, entries)


def reference_iota(ca, sub):
    """a -> (c -> c.a), one basis element of A at a time."""
    c, a = ca.coalgebra, ca.algebra
    cols = [sub.coords(map_to_hom_vector(
        ca.act @ tensor_map(LinearMap.identity(c.space), element(a.space, j))))
        for j in range(a.space.dim)]
    return LinearMap.from_rows(a.space, sub.space,
                               [[col[i] for col in cols] for i in range(sub.dim)])


def same_subspace(got, ref):
    """Equal bases, supports and carriers; the ambient labels may differ."""
    return (got.basis, got.supports, got.space, got.ambient.dim) \
        == (ref.basis, ref.supports, ref.space, ref.ambient.dim)


def actions(h):
    return {"trivial": trivial_action(h, h.space), "left-regular": left_regular_action(h),
            "adjoint": adjoint_action(h)}


class TestPerElementReference:
    """Equivariant map spaces, convolution products and iota agree with their
    per-basis-element forms over trivial, Z/2, Z/3, S3 and sweedler4."""

    def test_equivariant_map_space_matches_the_reference(self):
        for h in hopf_ladder():
            for c_action in actions(h).values():
                for a_action in actions(h).values():
                    got = equivariant_map_space(h, h.space, c_action, h.space, a_action)
                    ref = reference_equivariant_map_space(h, h.space, c_action,
                                                          h.space, a_action)
                    assert same_subspace(got, ref)

    def test_convolution_and_iota_match_the_reference(self):
        for h in hopf_ladder():
            c = ModuleCoalgebra(h, h.space, h.comul, h.counit, left_regular_action(h))
            for kind in ("trivial", "adjoint"):
                action = actions(h)[kind]
                a = ModuleAlgebra(h, h.space, h.mul, h.unit, action)
                ca = CoalgebraAction(c, a, action)
                assert check_coalgebra_action(ca).passed
                conv = convolution_algebra(ca)
                sub = conv.subspace
                assert same_subspace(sub, reference_equivariant_map_space(
                    h, c.space, c.action, a.space, a.action))
                assert conv.algebra.mul == reference_convolution_product(ca, sub)
                assert conv.algebra.mul.source.labels == \
                    tensor_space(sub.space, sub.space).labels
                assert iota(ca, conv) == reference_iota(ca, sub)
