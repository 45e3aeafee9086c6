"""Structural checks for the cocyclic constructions and their cohomology."""

from fractions import Fraction

import pytest

from hopfcyclic.coefficients import dualize, grouplike_coefficients, trivial_coefficients
from hopfcyclic.cocyclic import (
    CocyclicModule,
    check_dualization,
    check_mixed_complex,
    coalgebra_cocyclic,
    algebra_contra_cocyclic,
    algebra_module_cocyclic,
    comodule_algebra_cocyclic,
    cyclic_cohomology,
    dualization_isomorphism,
    full_B,
    full_b,
    hochschild_cohomology,
    lambda_operator,
    mixed_complex,
    normalization_projector,
    plain_algebra_cocyclic,
    verify_cocyclic,
)
from hopfcyclic.hopf import (
    ComoduleAlgebra,
    ModuleAlgebra,
    ModuleCoalgebra,
    adjoint_action,
    cyclic_group_table,
    group_algebra,
    left_regular_action,
    regular_coaction,
    trivial_action,
    trivial_coaction,
    trivial_hopf,
)
from hopfcyclic.linalg import (
    LinAlgError,
    LinearMap,
    subspace_from_kernel,
    tensor_map,
    tensor_permutation,
    tensor_space,
    tensor_spaces,
)

CAP = 4


def failures(report):
    return [e.name for e in report.entries if not e.passed]


@pytest.fixture(scope="module")
def triv():
    return trivial_hopf()


@pytest.fixture(scope="module")
def z2():
    return group_algebra(cyclic_group_table(2), labels=["1", "g"])


@pytest.fixture(scope="module")
def z2_sign_algebra(z2):
    """The group algebra of Z/2 acting on itself through the sign character."""
    action = LinearMap.from_rows(
        tensor_space(z2.space, z2.space), z2.space,
        [[1, 0, 1, 0], [0, 1, 0, -1]])
    return ModuleAlgebra(z2, z2.space, z2.mul, z2.unit, action)


def _constructions(triv, z2):
    """The full identity-suite test set: trivial data over Q and the
    regular/adjoint structures over Q[Z/2] with the trivial coefficient pair."""
    tp_q = trivial_coefficients(triv)
    tp_z = trivial_coefficients(z2)
    c_q = ModuleCoalgebra(triv, triv.space, triv.comul, triv.counit,
                          trivial_action(triv, triv.space))
    a_q = ModuleAlgebra(triv, triv.space, triv.mul, triv.unit,
                        trivial_action(triv, triv.space))
    b_q = ComoduleAlgebra(triv, triv.space, triv.mul, triv.unit, regular_coaction(triv))
    c_z = ModuleCoalgebra(z2, z2.space, z2.comul, z2.counit, left_regular_action(z2))
    a_z = ModuleAlgebra(z2, z2.space, z2.mul, z2.unit, adjoint_action(z2))
    b_z = ComoduleAlgebra(z2, z2.space, z2.mul, z2.unit, regular_coaction(z2))
    return {
        "coalgebra over Q": coalgebra_cocyclic(c_q, tp_q.module, CAP).module,
        "module functionals over Q": algebra_module_cocyclic(a_q, tp_q.module, CAP).module,
        "comodule maps over Q": comodule_algebra_cocyclic(b_q, tp_q.module, CAP).module,
        "contramodule maps over Q": algebra_contra_cocyclic(a_q, tp_q.contramodule, CAP).module,
        "coalgebra over Z/2": coalgebra_cocyclic(c_z, tp_z.module, CAP).module,
        "module functionals over Z/2": algebra_module_cocyclic(a_z, tp_z.module, CAP).module,
        "comodule maps over Z/2": comodule_algebra_cocyclic(b_z, tp_z.module, CAP).module,
        "contramodule maps over Z/2": algebra_contra_cocyclic(a_z, tp_z.contramodule, CAP).module,
    }


@pytest.fixture(scope="module")
def construction_suite(triv, z2):
    return _constructions(triv, z2)


# ----------------------------------------------------------------- identities


def test_plain_q_all_identities(triv):
    module = plain_algebra_cocyclic(triv.algebra, degree_cap=CAP)
    report = verify_cocyclic(module, "plain cochains of Q")
    assert report.passed, failures(report)
    assert [s.dim for s in module.spaces] == [1] * (CAP + 1)


def test_plain_z2_all_identities(z2):
    module = plain_algebra_cocyclic(z2.algebra, degree_cap=CAP)
    report = verify_cocyclic(module, "plain cochains of Q[Z/2]")
    assert report.passed, failures(report)
    assert [s.dim for s in module.spaces] == [2 ** (n + 1) for n in range(CAP + 1)]


def test_equivariant_constructions_all_identities(construction_suite):
    for name, module in construction_suite.items():
        report = verify_cocyclic(module, name)
        assert report.passed, (name, failures(report))


def test_sign_action_constructions_all_identities(z2, z2_sign_algebra):
    """Configurations with a nontrivial Hopf action / coaction flowing through
    the twisted operators."""
    tp = trivial_coefficients(z2)
    gp = grouplike_coefficients(z2, sigma=1)
    b_reg = ComoduleAlgebra(z2, z2.space, z2.mul, z2.unit, regular_coaction(z2))
    cases = {
        "sign-action module functionals": algebra_module_cocyclic(
            z2_sign_algebra, tp.module, 3).module,
        "sign-action contramodule maps": algebra_contra_cocyclic(
            z2_sign_algebra, dualize(tp.module), 3).module,
        "grouplike comodule maps": comodule_algebra_cocyclic(b_reg, gp.module, 3).module,
    }
    for name, module in cases.items():
        report = verify_cocyclic(module, name)
        assert report.passed, (name, failures(report))


def test_coalgebra_quotient_dimensions(z2):
    complex_ = coalgebra_cocyclic(
        ModuleCoalgebra(z2, z2.space, z2.comul, z2.counit, left_regular_action(z2)),
        trivial_coefficients(z2).module, CAP)
    assert [s.dim for s in complex_.module.spaces] == [2 ** n for n in range(CAP + 1)]


# ----------------------------------------------- reduction to plain cochains


def test_module_functionals_reduce_to_plain_over_trivial_hopf(triv, z2):
    algebra = ModuleAlgebra(triv, z2.space, z2.mul, z2.unit,
                            trivial_action(triv, z2.space))
    reduced = algebra_module_cocyclic(algebra, trivial_coefficients(triv).module, 3)
    plain = plain_algebra_cocyclic(z2.algebra, degree_cap=3)
    for n in range(3):
        for i in range(n + 2):
            assert reduced.module.face(n, i) == plain.face(n, i)
    for n in range(1, 4):
        for j in range(n):
            assert reduced.module.degeneracy(n, j) == plain.degeneracy(n, j)
    for n in range(4):
        assert reduced.module.tau(n) == plain.tau(n)


def test_comodule_maps_reduce_to_plain_over_trivial_hopf(triv, z2):
    algebra = ComoduleAlgebra(triv, z2.space, z2.mul, z2.unit,
                              trivial_coaction(triv, z2.space))
    reduced = comodule_algebra_cocyclic(algebra, trivial_coefficients(triv).module, 3)
    plain = plain_algebra_cocyclic(z2.algebra, degree_cap=3)
    for n in range(3):
        for i in range(n + 2):
            assert reduced.module.face(n, i) == plain.face(n, i)
    for n in range(4):
        assert reduced.module.tau(n) == plain.tau(n)


def test_contramodule_maps_reduce_to_plain_over_trivial_hopf(triv, z2):
    algebra = ModuleAlgebra(triv, z2.space, z2.mul, z2.unit,
                            trivial_action(triv, z2.space))
    reduced = algebra_contra_cocyclic(algebra, trivial_coefficients(triv).contramodule, 3)
    plain = plain_algebra_cocyclic(z2.algebra, degree_cap=3)
    for n in range(3):
        for i in range(n + 2):
            assert reduced.module.face(n, i) == plain.face(n, i)
    for n in range(4):
        assert reduced.module.tau(n) == plain.tau(n)


def test_coalgebra_reduces_to_bare_coalgebra_cochains_over_trivial_hopf(triv, z2):
    """Over H = Q the quotient is trivial and the operators are the bare
    comultiplication-insertion / counit-collapse / rotation maps."""
    coalgebra = ModuleCoalgebra(triv, z2.space, z2.comul, z2.counit,
                                trivial_action(triv, z2.space))
    complex_ = coalgebra_cocyclic(coalgebra, trivial_coefficients(triv).module, 2)
    c = z2.space
    ident = LinearMap.identity(c)

    def comul_slot(k, i):
        pieces = [ident] * i + [z2.comul] + [ident] * (k - 1 - i)
        out = pieces[0]
        for p in pieces[1:]:
            out = tensor_map(out, p)
        return out

    for n in range(2):
        for i in range(n + 1):
            assert complex_.module.face(n, i) == comul_slot(n + 1, i)
        # the wrap-around coface comultiplies slot 0 and carries the first leg
        # to the end: c0 ... cn -> c0_(2) (x) c1 ... cn (x) c0_(1)
        spaces = [c] * (n + 2)
        move_first_to_last = tensor_permutation(spaces, list(range(1, n + 2)) + [0])
        assert complex_.module.face(n, n + 1) == (
            move_first_to_last @ comul_slot(n + 1, 0))
    for n in range(3):
        rotate_first_to_last = tensor_permutation([c] * (n + 1), list(range(1, n + 1)) + [0])
        assert complex_.module.tau(n) == rotate_first_to_last


# ---------------------------------------------------------------- negatives


def test_corrupted_comultiplication_is_rejected(z2):
    rows = [[Fraction(x) for x in row] for row in z2.comul.fractions()]
    rows[0][1] += 1
    bad_comul = LinearMap.from_rows(z2.space, tensor_space(z2.space, z2.space), rows)
    coalgebra = ModuleCoalgebra(z2, z2.space, bad_comul, z2.counit, left_regular_action(z2))
    with pytest.raises(LinAlgError, match="not well defined on the quotient"):
        coalgebra_cocyclic(coalgebra, trivial_coefficients(z2).module, 3)


def test_mismatched_hopf_algebras_are_rejected(triv, z2):
    coalgebra = ModuleCoalgebra(z2, z2.space, z2.comul, z2.counit, left_regular_action(z2))
    with pytest.raises(LinAlgError, match="different Hopf algebras"):
        coalgebra_cocyclic(coalgebra, trivial_coefficients(triv).module, 2)


def test_perturbed_coface_fails_named_identities(z2):
    good = plain_algebra_cocyclic(z2.algebra, degree_cap=2)
    faces = [list(row) for row in good.faces]
    faces[1][1] = good.faces[1][2]
    bad = CocyclicModule(2, good.spaces, tuple(tuple(r) for r in faces),
                         good.degeneracies, good.cyclic)
    report = verify_cocyclic(bad, "perturbed")
    assert not report.passed
    names = failures(report)
    assert "s0 d1 = id (degree 1)" in names
    assert "t d1 = d0 t (degree 1)" in names


# ------------------------------------------------------------ mixed complex


def test_mixed_complex_laws_on_every_construction(construction_suite, z2):
    modules = dict(construction_suite)
    modules["plain Z/2"] = plain_algebra_cocyclic(z2.algebra, degree_cap=CAP)
    for name, module in modules.items():
        view = mixed_complex(module)
        report = check_mixed_complex(view, name)
        assert report.passed, (name, failures(report))


def test_normalization_projector_properties(z2):
    module = plain_algebra_cocyclic(z2.algebra, degree_cap=3)
    view = mixed_complex(module)
    for n in range(1, 4):
        p = normalization_projector(module, n)
        for j in range(n):
            assert (module.degeneracy(n, j) @ p).is_zero()
        assert p @ p == p
        fixed = p @ view.normalized[n].basis
        assert fixed == view.normalized[n].basis


def test_connes_boundary_squares_to_zero_only_after_normalization(z2):
    """On the full complex, B out of degree 2 into degree 1 need not square to
    zero; the normalized restriction always does."""
    module = plain_algebra_cocyclic(z2.algebra, degree_cap=2)
    view = mixed_complex(module)
    assert (view.B[1] @ view.B[2]).is_zero()


def test_lambda_eigenspaces_are_preserved_by_b(z2):
    module = plain_algebra_cocyclic(z2.algebra, degree_cap=3)
    for n in range(3):
        fixed = subspace_from_kernel(
            LinearMap.identity(module.spaces[n]) - lambda_operator(module, n))
        fixed_next = subspace_from_kernel(
            LinearMap.identity(module.spaces[n + 1]) - lambda_operator(module, n + 1))
        assert fixed_next.contains_map_image(full_b(module, n) @ fixed.basis)


# ----------------------------------------------------------------- duality


def test_dualization_isomorphism_commutes_with_everything(z2, z2_sign_algebra):
    iso = dualization_isomorphism(z2_sign_algebra,
                                  trivial_coefficients(z2).module, degree_cap=3)
    report = check_dualization(iso)
    assert report.passed, failures(report)


def test_dualization_round_trip_is_identity(z2, z2_sign_algebra):
    iso = dualization_isomorphism(z2_sign_algebra,
                                  trivial_coefficients(z2).module, degree_cap=2)
    for n in range(3):
        dim = iso.module_side.module.spaces[n].dim
        assert (iso.backward[n] @ iso.forward[n]) == (
            LinearMap.identity(iso.module_side.module.spaces[n]))
        assert dim == iso.contra_side.module.spaces[n].dim


# -------------------------------------------------------------- cohomology


def test_cyclic_cohomology_of_ground_field(triv):
    module = plain_algebra_cocyclic(triv.algebra, degree_cap=CAP)
    assert [cyclic_cohomology(module, n).dim for n in range(4)] == [1, 0, 1, 0]


def test_hochschild_cohomology_of_ground_field(triv):
    module = plain_algebra_cocyclic(triv.algebra, degree_cap=CAP)
    assert hochschild_cohomology(module, 0).dim == 1
    assert hochschild_cohomology(module, 1).dim == 0


def test_cohomology_of_group_algebra_degree_zero(z2):
    module = plain_algebra_cocyclic(z2.algebra, degree_cap=2)
    hc0 = cyclic_cohomology(module, 0)
    hh0 = hochschild_cohomology(module, 0)
    assert hc0.dim == 2 and hh0.dim == 2
    assert hc0.representatives == (
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_cohomology_is_deterministic(z2):
    module = plain_algebra_cocyclic(z2.algebra, degree_cap=3)
    first = cyclic_cohomology(module, 1)
    second = cyclic_cohomology(plain_algebra_cocyclic(z2.algebra, degree_cap=3), 1)
    assert first.dim == second.dim
    assert first.representatives == second.representatives


def test_cohomology_degree_guard(triv):
    module = plain_algebra_cocyclic(triv.algebra, degree_cap=2)
    with pytest.raises(ValueError, match="out of range"):
        hochschild_cohomology(module, 2)
    with pytest.raises(ValueError, match="out of range"):
        cyclic_cohomology(module, 5)


# ------------------------------------------------------------- realizations


def test_hom_complex_basis_roundtrip(z2, z2_sign_algebra):
    complex_ = algebra_module_cocyclic(z2_sign_algebra,
                                       trivial_coefficients(z2).module, 2)
    for n in range(3):
        for k in range(complex_.module.spaces[n].dim):
            m = complex_.basis_map(n, k)
            coords = complex_.coords_of_map(n, m)
            expected = [Fraction(1) if i == k else Fraction(0)
                        for i in range(complex_.module.spaces[n].dim)]
            assert list(coords) == expected


def test_quotient_complex_projection_section(z2):
    complex_ = coalgebra_cocyclic(
        ModuleCoalgebra(z2, z2.space, z2.comul, z2.counit, left_regular_action(z2)),
        trivial_coefficients(z2).module, 2)
    for n in range(3):
        q = complex_.quotients[n]
        assert (q.projection @ q.section) == (
            LinearMap.identity(complex_.module.spaces[n]))
        assert (q.projection @ complex_.relations[n]).is_zero()
