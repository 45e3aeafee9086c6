"""Structural checks for the cocyclic constructions and their cohomology."""

import hashlib
import json
import re
from fractions import Fraction

import pytest

from hopfcyclic import cocyclic, linalg
from hopfcyclic.coefficients import (
    check_sayd_contramodule,
    check_sayd_module,
    dualize,
    grouplike_coefficients,
    trivial_coefficients,
)
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
    normalized_cochains,
    plain_algebra_cocyclic,
    verify_cocyclic,
)
from hopfcyclic.hopf import (
    Algebra,
    ComoduleAlgebra,
    ModuleAlgebra,
    ModuleCoalgebra,
    adjoint_action,
    algebra_generators,
    check_algebra,
    cyclic_group_table,
    group_algebra,
    left_regular_action,
    regular_coaction,
    require_generators,
    sweedler_h4,
    trivial_action,
    trivial_coaction,
    trivial_hopf,
)
from hopfcyclic.linalg import (
    LinAlgError,
    LinearMap,
    VectorSpace,
    hom_vector_to_map,
    map_to_hom_vector,
    partial_transpose,
    rref,
    slot_map,
    stack_vertical,
    subspace_from_kernel,
    tensor_map,
    tensor_permutation,
    tensor_space,
    tensor_spaces,
)
from hopfcyclic.valueclass import replace
from test_coefficients import block_module, hopf_ladder

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


def test_carrier_labels_may_hold_a_tensor_sign():
    """Only a carrier's own labels must be unique: with "a" and "a⊗a", the
    derived label "a⊗a⊗a" names two basis tensors of the degree-1 domain."""
    h = group_algebra(cyclic_group_table(2), labels=["a", "a⊗a"])
    module = plain_algebra_cocyclic(h.algebra, degree_cap=2)
    report = verify_cocyclic(module, "plain cochains of Q[Z/2]")
    assert report.passed, failures(report)
    assert module.spaces[1].labels.count("a⊗a⊗a*") == 2


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


def _malformed_tower(z2, **change):
    """Plain cochains of Q[Z/2] at cap 2 (spaces of dimension 2, 4, 8) with
    the given fields rebuilt from the good ones."""
    good = plain_algebra_cocyclic(z2.algebra, degree_cap=2)
    return replace(good, **{k: f(getattr(good, k)) for k, f in change.items()})


POINT = LinearMap.zero(VectorSpace.make(1), VectorSpace.make(1))


def _adjoint_algebra(z2):
    return ModuleAlgebra(z2, z2.space, z2.mul, z2.unit, adjoint_action(z2))


REFUSED_TOWERS = {
    "one space short": (
        lambda triv, z2: _malformed_tower(z2, spaces=lambda s: s[:-1]),
        "cocyclic tower has the wrong length"),
    "one coface degree short": (
        lambda triv, z2: _malformed_tower(z2, faces=lambda f: f[:-1]),
        "cocyclic tower has the wrong length"),
    "one codegeneracy degree short": (
        lambda triv, z2: _malformed_tower(z2, degeneracies=lambda s: s[:-1]),
        "cocyclic tower has the wrong length"),
    "one cyclic operator short": (
        lambda triv, z2: _malformed_tower(z2, cyclic=lambda t: t[:-1]),
        "cocyclic tower has the wrong length"),
    "a coface missing": (
        lambda triv, z2: _malformed_tower(z2, faces=lambda f: (f[0], f[1][:-1])),
        "expected 3 cofaces at degree 1"),
    "a coface of the wrong shape": (
        lambda triv, z2: _malformed_tower(z2, faces=lambda f: ((f[0][0], POINT), f[1])),
        "coface shape mismatch at degree 0"),
    "a codegeneracy missing": (
        lambda triv, z2: _malformed_tower(z2, degeneracies=lambda s: (s[0], s[1], s[2][:1])),
        "expected 2 codegeneracies at degree 2"),
    "a codegeneracy of the wrong shape": (
        lambda triv, z2: _malformed_tower(z2, degeneracies=lambda s: (s[0], (POINT,), s[2])),
        "codegeneracy shape mismatch at degree 1"),
    "a cyclic operator of the wrong shape": (
        lambda triv, z2: _malformed_tower(z2, cyclic=lambda t: (t[0], t[1], POINT)),
        "cyclic operator shape mismatch at degree 2"),
    "module functionals over another Hopf algebra": (
        lambda triv, z2: algebra_module_cocyclic(
            _adjoint_algebra(z2), trivial_coefficients(triv).module, 2),
        "coefficients and algebra live over different Hopf algebras"),
    "comodule maps over another Hopf algebra": (
        lambda triv, z2: comodule_algebra_cocyclic(
            ComoduleAlgebra(z2, z2.space, z2.mul, z2.unit, regular_coaction(z2)),
            trivial_coefficients(triv).module, 2),
        "coefficients and algebra live over different Hopf algebras"),
    "contramodule maps over another Hopf algebra": (
        lambda triv, z2: algebra_contra_cocyclic(
            _adjoint_algebra(z2), trivial_coefficients(triv).contramodule, 2),
        "coefficients and algebra live over different Hopf algebras"),
}


@pytest.mark.parametrize("case", REFUSED_TOWERS)
def test_malformed_towers_and_mismatched_coefficients_are_refused(triv, z2, case):
    """Each length and shape refusal of `CocyclicModule`, and each equivariant
    construction given coefficients over the trivial Hopf algebra for an
    algebra over Q[Z/2]."""
    build, message = REFUSED_TOWERS[case]
    with pytest.raises(LinAlgError, match=f"^{message}$"):
        build(triv, z2)


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


OUT_OF_TOWER_CALLS = {
    "tau(-1)": lambda m: m.tau(-1),
    "tau(4)": lambda m: m.tau(4),
    "face(-1, 0)": lambda m: m.face(-1, 0),
    "face(3, 0)": lambda m: m.face(3, 0),
    "face(1, -1)": lambda m: m.face(1, -1),
    "face(1, 3)": lambda m: m.face(1, 3),
    "degeneracy(0, 0)": lambda m: m.degeneracy(0, 0),
    "degeneracy(4, 0)": lambda m: m.degeneracy(4, 0),
    "degeneracy(2, -1)": lambda m: m.degeneracy(2, -1),
    "degeneracy(2, 2)": lambda m: m.degeneracy(2, 2),
    "full_b(-1)": lambda m: full_b(m, -1),
    "full_b(3)": lambda m: full_b(m, 3),
    "full_B(-1)": lambda m: full_B(m, -1),
    "full_B(0)": lambda m: full_B(m, 0),
    "full_B(4)": lambda m: full_B(m, 4),
    "normalized_cochains(-1)": lambda m: normalized_cochains(m, -1),
    "normalized_cochains(4)": lambda m: normalized_cochains(m, 4),
    "lambda_operator(-1)": lambda m: lambda_operator(m, -1),
    "lambda_operator(4)": lambda m: lambda_operator(m, 4),
    "normalization_projector(-1)": lambda m: normalization_projector(m, -1),
    "normalization_projector(4)": lambda m: normalization_projector(m, 4),
}


@pytest.mark.parametrize("call", OUT_OF_TOWER_CALLS)
def test_operators_outside_the_tower_are_refused(call):
    """Negative degrees and indices used to wrap around to the top of the
    tower (tau(-1) was the degree-3 operator); every one is refused."""
    module = plain_algebra_cocyclic(sweedler_h4().algebra, degree_cap=3)
    with pytest.raises(LinAlgError, match="outside the tower, which is capped at degree 3"):
        OUT_OF_TOWER_CALLS[call](module)


# ------------------------------------------------------------ pinned failure reports
#
# sha256 of the full JSON report of a check run on a structure with one entry
# perturbed.  No golden report holds a failing entry, so these pin the names,
# verdicts and witnesses ("first residual ... at row ..., column ...") that a
# failing check must keep.

WITNESS = re.compile(r"first residual -?\d+ at row '[^']+', column '[^']+'")

PINNED_FAILURE_DIGESTS = {
    "coface": "9ca5cc4dc7af27bd0382fc60370f8de857b80343961e2f55c5b5c950256b4ec9",
    "mixed b": "e7ed41e20be1df3456e5d93761d167e8dbaee50052235b7b843306e6d94ea61c",
}


def perturbed(m, i, j):
    """m with 1 added to entry (i, j)."""
    return m + LinearMap.from_entries(m.source, m.target, [(i, j, 1)])


def report_digest(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def failure_details(report):
    return {e.name: e.detail for e in report.entries if not e.passed}


def test_perturbed_coface_report_is_pinned():
    good = plain_algebra_cocyclic(sweedler_h4().algebra, degree_cap=3)
    faces = [list(row) for row in good.faces]
    faces[1][1] = perturbed(faces[1][1], 21, 6)
    bad = replace(good, faces=tuple(tuple(row) for row in faces))
    report = verify_cocyclic(bad, "perturbed sweedler4")
    details = failure_details(report)
    assert len(details) == 9
    assert WITNESS.fullmatch(details["d2 d1 = d1 d1 (degree 1)"])
    assert report_digest(report) == PINNED_FAILURE_DIGESTS["coface"]


def test_perturbed_b_report_is_pinned():
    view = mixed_complex(plain_algebra_cocyclic(sweedler_h4().algebra, degree_cap=3))
    bad = replace(view, b=(view.b[0], perturbed(view.b[1], 3, 2), *view.b[2:]))
    report = check_mixed_complex(bad, "perturbed b")
    details = failure_details(report)
    assert sorted(details) == ["b B + B b = 0 (degree 1)", "b b = 0 (degree 1)"]
    assert all(WITNESS.fullmatch(d) for d in details.values())
    assert report_digest(report) == PINNED_FAILURE_DIGESTS["mixed b"]


def _z2_fault_towers(z2):
    """Plain Q[Z/2] at cap 4 with one fault put into an operator, by name:
    an entry in an empty codegeneracy column (s1 at degree 3, column 2), a
    single-entry column of tau emptied (degree 2, column 1), and one tau
    entry doubled (degree 3, column 2)."""
    good = plain_algebra_cocyclic(z2.algebra, degree_cap=4)

    def entry_changed(m, j, change):
        """m with `change` times its one nonzero entry in column j added."""
        (i, x), = ((i, x) for i, x in enumerate(m.column(j)) if x)
        return m + LinearMap.from_entries(m.source, m.target, [(i, j, change * x)])

    s = good.degeneracies[3][1]
    assert not any(s.column(2))
    degeneracies = [list(row) for row in good.degeneracies]
    degeneracies[3][1] = perturbed(s, 0, 2)
    emptied, doubled = list(good.cyclic), list(good.cyclic)
    emptied[2] = entry_changed(good.cyclic[2], 1, -1)
    doubled[3] = entry_changed(good.cyclic[3], 2, 1)
    return {
        "codegeneracy": replace(
            good, degeneracies=tuple(tuple(row) for row in degeneracies)),
        "emptied tau": replace(good, cyclic=tuple(emptied)),
        "doubled tau": replace(good, cyclic=tuple(doubled)),
    }


# fault -> (number of failing identities, first failing name and its witness,
# sha256 of the full report)
PINNED_FAULT_REPORTS = {
    "codegeneracy": (15, ("s0 s0 = s0 s1 (degree 3)",
                          "first residual -1 at row '1⊗1*', column '1⊗1⊗g⊗1*'"),
                     "34c2f760006166e2cfba942f52aba05081f08800fe93f0f49322f22c2391549b"),
    "doubled tau": (15, ("t d0 = d3 (degree 2)",
                         "first residual 1 at row '1⊗g⊗1⊗1*', column '1⊗g⊗1*'"),
                    "d85cea25acc8bc7a897977096fc8f92c60aa488375b2684120298f2f7ece01e9"),
    "emptied tau": (11, ("t d0 = d2 (degree 1)",
                         "first residual -1 at row '1⊗g⊗1*', column '1⊗g*'"),
                    "4527eade7fae2c2ec96c51eb2cd74f29fc1450b23b22c9a3b5053520aa4c8db5"),
}


@pytest.mark.parametrize("fault", sorted(PINNED_FAULT_REPORTS))
def test_fault_through_each_product_path_is_pinned(z2, fault):
    """Each fault moves a column between the compose kernel's paths: the
    codegeneracy column from empty to one entry, the tau column from one
    entry to empty, and the doubled entry off the unit copy.  The failing
    names, witnesses and verdicts of each report are pinned."""
    count, first, digest = PINNED_FAULT_REPORTS[fault]
    report = verify_cocyclic(_z2_fault_towers(z2)[fault], f"{fault} Z/2")
    details = failure_details(report)
    assert len(details) == count
    assert next(iter(details.items())) == first
    assert WITNESS.fullmatch(first[1])
    assert report_digest(report) == digest


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


def test_normalized_cochains_are_built_once_per_tower(z2):
    """`mixed_complex` reads the memoised N^n, the joint kernel of the
    codegeneracies, whose basis is the identity on its support rows."""
    module = plain_algebra_cocyclic(z2.algebra, degree_cap=3)
    view = mixed_complex(module)
    for n in range(4):
        sub = normalized_cochains(module, n)
        assert view.normalized[n] is sub is normalized_cochains(module, n)
        assert sub.dim == 2  # dual to A (x) (A/Q)^n, and dim A = 2
        for j in range(n):
            assert (module.degeneracy(n, j) @ sub.basis).is_zero()
        assert sub.support_rows(sub.basis) == LinearMap.identity(sub.space)
    assert mixed_complex(module).normalized == view.normalized


def test_normalization_projector_is_built_once_per_tower(z2, monkeypatch):
    """The projector and its two checks are built once per tower and degree."""
    module = plain_algebra_cocyclic(z2.algebra, degree_cap=3)
    products = []
    compose = LinearMap.__matmul__

    def counted(self, other):
        products.append(1)
        return compose(self, other)

    monkeypatch.setattr(LinearMap, "__matmul__", counted)
    first = normalization_projector(module, 2)
    built = len(products)
    assert built and normalization_projector(module, 2) is first
    assert len(products) == built


def reference_normalized(module, n):
    """N^n by eliminating the stacked codegeneracies out of degree n, all of
    C^0 when there are none."""
    stacked = (stack_vertical(module.degeneracies[n]) if n
               else LinearMap.zero(module.spaces[0], VectorSpace.make(0)))
    return subspace_from_kernel(stacked, prefix="n")


def one_entry_per_column(sub):
    """Whether each basis column of `sub` holds one entry: a coordinate subspace."""
    return all(sum(1 for x in sub.basis.column(k) if x) == 1 for k in range(sub.dim))


def reference_hochschild(module, n):
    """HH^n representatives solved on the full complex: the RREF rows of
    ker b_n whose pivots are not pivots of im b_{n-1}."""
    prev = full_b(module, n - 1) if n else LinearMap.zero(VectorSpace.make(0), module.spaces[n])
    image_pivots = set(rref(prev.transpose())[1])
    rows, pivots = rref(subspace_from_kernel(full_b(module, n)).basis.transpose())
    return tuple(tuple(row) for row, p in zip(rows, pivots) if p not in image_pivots)


class TestFullComplexReference:
    """N^n equals N^n eliminated from the stacked codegeneracies, and HH
    solved through the normalized complex has the representatives of the full
    complex, on every builtin plain tower and the four equivariant towers."""

    @staticmethod
    def assert_matches_reference(module):
        cap = module.degree_cap
        for n in range(cap + 1):
            assert normalized_cochains(module, n) == reference_normalized(module, n), n
        for n in range(cap):
            assert hochschild_cohomology(module, n).representatives == \
                reference_hochschild(module, n), n

    @pytest.mark.parametrize("name, cap", [(name, cap) for name, _ in hopf_ladder()
                                           for cap in (3, 4)] + [("sweedler4", 5)])
    def test_plain_towers(self, name, cap):
        module = plain_algebra_cocyclic(dict(hopf_ladder())[name].algebra, degree_cap=cap)
        assert all(one_entry_per_column(normalized_cochains(module, n)) for n in range(cap + 1))
        self.assert_matches_reference(module)

    @pytest.mark.parametrize("kind", ["coalgebra", "algebra_module", "comodule_algebra",
                                      "algebra_contra"])
    @pytest.mark.parametrize("hopf", ["Z/3", "sweedler4"])
    @pytest.mark.parametrize("cap", [3, 4])
    def test_equivariant_towers(self, kind, hopf, cap):
        h = _pin_hopf(hopf)
        for sigma in _passing_sigmas(h):
            module = _equivariant_tower(kind, h, sigma, cap).module
            coordinate = [one_entry_per_column(normalized_cochains(module, n))
                          for n in range(cap + 1)]
            # the coalgebra tower is a quotient: its codegeneracies mix coordinates
            assert coordinate == [True] + [kind != "coalgebra"] * cap
            self.assert_matches_reference(module)


def x_cubed_algebra(c):
    """Q[x]/(x^3) on the basis b0 = 1 + c x^2, b1 = x, b2 = x^2: b0 b0 =
    b0 + c b2, b0 b1 = b1 b0 = b1, b0 b2 = b2 b0 = b2, b1 b1 = b2, and the
    unit b0 - c b2 is no basis vector."""
    space = VectorSpace(3, ("b0", "b1", "b2"))
    products = {(0, 0): {0: 1, 2: c}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1},
                (2, 0): {2: 1}, (1, 1): {2: 1}}
    mul = LinearMap.from_entries(tensor_space(space, space), space,
                                 [(k, 3 * i + j, x) for (i, j), out in products.items()
                                  for k, x in out.items()])
    unit = LinearMap.from_entries(VectorSpace.ground(), space, [(0, 0, 1), (2, 0, -c)])
    return Algebra(space, mul, unit)


@pytest.mark.parametrize("c", [1, -1], ids=["1+x^2", "1-x^2"])
def test_hochschild_classes_lifted_off_n_are_not_yet_the_representatives(c):
    """Where the unit is no basis vector, N^n has one entry per basis column
    only in degree 0.  There the classes solved on N and lifted to C^n are
    not the full complex's representatives: the last elimination of
    `hochschild_cohomology`, of the RREF rows of im b_{n-1} with the lifted
    classes, reorders them for b0 = 1 + x^2 and changes the vectors for
    b0 = 1 - x^2."""
    algebra = x_cubed_algebra(c)
    assert check_algebra(algebra).passed
    module = plain_algebra_cocyclic(algebra, degree_cap=3)
    assert [one_entry_per_column(normalized_cochains(module, n)) for n in range(4)] == \
        [True, False, False, False]
    classes = [hochschild_cohomology(module, n) for n in range(3)]
    assert [h.dim for h in classes] == [3, 2, 2]
    for n, h in enumerate(classes):
        assert h.representatives == reference_hochschild(module, n), n
    for n in (1, 2):
        normalized = normalized_cochains(module, n)
        solved = cocyclic._quotient_representatives(full_b(module, n) @ normalized.basis,
                                                    cocyclic._normalized_b(module, n - 1))
        lifted = tuple(tuple(normalized.basis.apply(r)) for r in solved)
        assert len(lifted) == classes[n].dim and lifted != classes[n].representatives, n
        assert (set(lifted) != set(classes[n].representatives)) == (c == -1), n


def test_normalized_cochains_of_a_plain_tower_eliminate_nothing(monkeypatch):
    """Every row of every codegeneracy of a plain tower holds one nonzero at
    most, so N^n is read off them with no elimination."""
    def refuse(*args, **kwargs):
        raise AssertionError("normalized_cochains eliminated")

    module = plain_algebra_cocyclic(sweedler_h4().algebra, degree_cap=4)
    monkeypatch.setattr(linalg, "_eliminate", refuse)
    for n in range(5):
        assert normalized_cochains(module, n).dim == 4 * 3 ** n


def test_a_codegeneracy_row_with_two_nonzeros_is_eliminated(monkeypatch):
    """One extra nonzero in one row of one codegeneracy fails the coordinate
    check, so N^n is eliminated and still equals the elimination reference."""
    good = plain_algebra_cocyclic(sweedler_h4().algebra, degree_cap=3)
    degeneracies = [list(row) for row in good.degeneracies]
    # the extra nonzero sits in a column no codegeneracy touched, so N^2 changes
    i, _, _ = degeneracies[2][0].first_nonzero()
    free = normalized_cochains(good, 2).supports[0]
    degeneracies[2][0] = perturbed(degeneracies[2][0], i, free)
    bad = replace(good, degeneracies=tuple(tuple(row) for row in degeneracies))
    eliminations = []
    eliminate = linalg._eliminate

    def counted(*args):
        eliminations.append(1)
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    normalized_cochains(bad, 1)
    assert not eliminations
    got = normalized_cochains(bad, 2)
    assert eliminations
    assert got == reference_normalized(bad, 2)
    assert got != normalized_cochains(good, 2)


def test_the_s3_colinear_tower_reads_its_cochains_off_the_constraints(monkeypatch):
    """Every row of the colinearity constraints of the regular comodule
    algebra of Q[S3] with the trivial line holds one nonzero at most, so
    `solve_constrained_subspace` builds its cochains with no elimination."""
    solving = []
    solve, eliminate = linalg.solve_constrained_subspace, linalg._eliminate

    def watched(*args, **kwargs):
        solving.append(1)
        try:
            return solve(*args, **kwargs)
        finally:
            solving.pop()

    def refuse_inside(*args):
        assert not solving, "solve_constrained_subspace eliminated"
        return eliminate(*args)

    monkeypatch.setattr(cocyclic, "solve_constrained_subspace", watched)
    monkeypatch.setattr(linalg, "_eliminate", refuse_inside)
    s3 = dict(hopf_ladder())["s3"]
    tower = _equivariant_tower("comodule_algebra", s3, 0, 3)
    assert [sub.dim for sub in tower.subspaces] == [1, 6, 36, 216]


def test_hochschild_cohomology_checks_the_full_coboundary_square():
    """A plain tower with one coface entry perturbed is refused by the product
    b_1 b_0 on the full complex before any class is solved on N."""
    good = plain_algebra_cocyclic(sweedler_h4().algebra, degree_cap=3)
    faces = [list(row) for row in good.faces]
    faces[1][1] = perturbed(faces[1][1], 21, 6)
    bad = replace(good, faces=tuple(tuple(row) for row in faces))
    with pytest.raises(LinAlgError, match="^coboundary square is nonzero entering degree 1$"):
        hochschild_cohomology(bad, 1)


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
        fixed_next.restrict_from(full_b(module, n), fixed)  # raises if b leaves it


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


def test_a_perturbed_transposition_fails_where_it_is_read(z2, z2_sign_algebra):
    """One entry of the forward map perturbed in degree 1 fails both round
    trips of that degree and every commutation entry that reads it (the
    cofaces out of degrees 0 and 1, the codegeneracies into degrees 0 and
    1), each with its first residual; the cyclic operator fixes the
    perturbed entry, and every entry that reads only other degrees passes."""
    iso = dualization_isomorphism(z2_sign_algebra, trivial_coefficients(z2).module,
                                  degree_cap=3)
    forward = list(iso.forward)
    forward[1] = perturbed(forward[1], 0, 0)
    report = check_dualization(replace(iso, forward=tuple(forward)))
    failing = [e.name for e in report.entries if not e.passed]
    assert failing == [
        "backward forward = id (degree 1)", "forward backward = id (degree 1)",
        *(f"transposition commutes with d{i} (degree 0)" for i in range(2)),
        *(f"transposition commutes with d{i} (degree 1)" for i in range(3)),
        "transposition commutes with s0 (degree 1)",
        *(f"transposition commutes with s{j} (degree 2)" for j in range(2))]
    assert all(WITNESS.fullmatch(e.detail) for e in report.entries if not e.passed)


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
    with pytest.raises(LinAlgError, match=r"^Hochschild cohomology in degree 2 \(defined in "
                                          r"degrees 0..1\) is outside the tower, which is "
                                          r"capped at degree 2$"):
        hochschild_cohomology(module, 2)
    with pytest.raises(LinAlgError, match=r"^cyclic cohomology in degree 5 \(defined in "
                                          r"degrees 0..1\) is outside the tower"):
        cyclic_cohomology(module, 5)


def test_cohomology_refuses_a_nonzero_coboundary_square():
    """On lines with the cofaces d0 = 1 out of degrees 0 and 1, the other
    cofaces and the codegeneracies zero, b1 b0 = 1; the cyclic operators
    (-1)^n fix every cochain.  Both cohomologies refuse degree 1 by that
    product."""
    line = VectorSpace.ground()
    one, zero = LinearMap.identity(line), LinearMap.zero(line, line)
    module = CocyclicModule(2, (line,) * 3, ((one, zero), (one, zero, zero)),
                            ((), (zero,), (zero, zero)), (one, -one, one))
    for cohomology in (hochschild_cohomology, cyclic_cohomology):
        with pytest.raises(LinAlgError, match="^coboundary square is nonzero entering "
                                              "degree 1$"):
            cohomology(module, 1)


def test_cyclic_fixed_subspaces_are_built_once_per_tower(z2, monkeypatch):
    builds = []
    signed = cocyclic.lambda_operator

    def counted(module, n):
        builds.append((id(module), n))
        return signed(module, n)

    monkeypatch.setattr(cocyclic, "lambda_operator", counted)
    first = plain_algebra_cocyclic(z2.algebra, degree_cap=4)
    dims = [cyclic_cohomology(first, n).dim for n in range(4)]
    assert dims == [2, 0, 2, 0]
    assert sorted(n for _, n in builds) == [0, 1, 2, 3]
    assert [cyclic_cohomology(first, n).dim for n in range(4)] == dims
    assert len(builds) == 4
    second = plain_algebra_cocyclic(z2.algebra, degree_cap=4)
    assert cyclic_cohomology(second, 1).dim == 0
    assert builds[4:] == [(id(second), 1), (id(second), 0)]
    assert cocyclic._cyclic_fixed(first, 2) is cocyclic._cyclic_fixed(first, 2)


# ------------------------------------------------------------- realizations


def test_hom_complex_basis_roundtrip(z2, z2_sign_algebra):
    complex_ = algebra_module_cocyclic(z2_sign_algebra,
                                       trivial_coefficients(z2).module, 2)
    for n in range(3):
        sub = complex_.subspaces[n]
        for k in range(sub.dim):
            m = hom_vector_to_map(sub.basis.column(k), complex_.domains[n], complex_.values)
            coords = sub.coords(map_to_hom_vector(m))
            expected = [Fraction(1) if i == k else Fraction(0) for i in range(sub.dim)]
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


# ------------------------------------------------------------ pinned towers
#
# sha256 of every tower's space labels, realization data (subspace bases or
# quotient sections) and operators; an operator contributes its source
# labels, target labels and nonzero entries.  Recorded before operator
# assembly was rewritten, so any change of column order, label or
# denominator fails here.


def _map_record(m):
    entries = [[i, j, str(v)] for i, row in enumerate(m.fractions())
               for j, v in enumerate(row) if v]
    return [list(m.source.labels), list(m.target.labels), entries]


def tower_digest(complex_):
    module = getattr(complex_, "module", complex_)
    record = [[list(s.labels) for s in module.spaces],
              [[_map_record(f) for f in row] for row in module.faces],
              [[_map_record(s) for s in row] for row in module.degeneracies],
              [_map_record(t) for t in module.cyclic]]
    if hasattr(complex_, "subspaces"):
        record.append([[list(d.labels) for d in complex_.domains],
                       list(complex_.values.labels)])
        record.append([[list(sub.ambient.labels), list(sub.supports),
                        _map_record(sub.basis)] for sub in complex_.subspaces])
    if hasattr(complex_, "quotients"):
        record.append([[_map_record(r), _map_record(q.projection), _map_record(q.section)]
                       for r, q in zip(complex_.relations, complex_.quotients)])
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def _pin_hopf(name):
    if name == "Z/2":
        return group_algebra(cyclic_group_table(2), labels=["1", "g"])
    if name == "Z/3":
        return group_algebra(cyclic_group_table(3))
    return sweedler_h4()


def _passing_sigmas(h):
    """The grouplike coefficient pairs of h that pass the SAYD checks."""
    out = []
    for sigma in range(h.dim):
        pair = grouplike_coefficients(h, sigma)
        if check_sayd_module(pair.module).passed and \
                check_sayd_contramodule(pair.contramodule).passed:
            out.append(sigma)
    return out


def _equivariant_tower(kind, h, sigma, cap):
    pair = grouplike_coefficients(h, sigma)
    return _coefficient_tower(kind, h, pair.module, pair.contramodule, cap)


def _coefficient_tower(kind, h, module, contramodule, cap):
    """The `kind` tower over the regular structures of h: the module
    coefficients for the first three kinds, the contramodule for the last."""
    if kind == "coalgebra":
        c = ModuleCoalgebra(h, h.space, h.comul, h.counit, left_regular_action(h))
        return coalgebra_cocyclic(c, module, cap)
    if kind == "comodule_algebra":
        b = ComoduleAlgebra(h, h.space, h.mul, h.unit, regular_coaction(h))
        return comodule_algebra_cocyclic(b, module, cap)
    a = ModuleAlgebra(h, h.space, h.mul, h.unit, adjoint_action(h))
    if kind == "algebra_module":
        return algebra_module_cocyclic(a, module, cap)
    return algebra_contra_cocyclic(a, contramodule, cap)


PLAIN_PIN_CASES = [(hopf, v, cap) for hopf in ("Z/2", "Z/3", "sweedler4")
                   for v in (1, 2) for cap in (1, 2, 3)]
EQUIVARIANT_PIN_CASES = [(kind, hopf, sigma, cap)
                         for kind in ("coalgebra", "algebra_module",
                                      "comodule_algebra", "algebra_contra")
                         for hopf, sigmas in (("Z/3", (0, 1, 2)), ("sweedler4", (1,)))
                         for sigma in sigmas for cap in (1, 2)]

PINNED_TOWER_DIGESTS = {
    "plain Z/2 V1 cap 1":
        "ca78e2fa7def650e049c014316cff7572b3079f01475e22db0c4a1b165b5db1d",
    "plain Z/2 V1 cap 2":
        "6812bc06683270a7d7fe363b31050a237dbd5b244bdd70f242414afb48b21991",
    "plain Z/2 V1 cap 3":
        "6e67b3b49e0dc213889aee8f63c53c7cdec8f0d1c93f943ab6d5d54e7606f052",
    "plain Z/2 V2 cap 1":
        "13977ce87aaa4385d831911330ff3306d25b3d97b053a88be366da44078f3628",
    "plain Z/2 V2 cap 2":
        "62d7dd8bf35e6046812132c98cf65941c9933fbb6aab0e9b8d6bb6a605084a56",
    "plain Z/2 V2 cap 3":
        "d2125537a18ee2d547f2afb97e9b04bf753d9f9fe8fbfd572d4913abcfa4a5ac",
    "plain Z/3 V1 cap 1":
        "91146fe63a2a67bc826c04b54220f7e1ed693b573cfe233e02386b5b377994e9",
    "plain Z/3 V1 cap 2":
        "46c91d9d413c2d8c6c1aa1dd9d0e83bf0abe923cddcde0ec1d7a3519a053c948",
    "plain Z/3 V1 cap 3":
        "8818fd68ed62b9bf851fa540c7d4b886f882f712bc8a413756e2fc5df341402e",
    "plain Z/3 V2 cap 1":
        "f4f9600425ff9228f367997ee72de7cc1825834555906506330f3f653a75a0f3",
    "plain Z/3 V2 cap 2":
        "dae31b65a4e49c99898065e7d04ba8f2b14aab79d4ba0efec45e3bfa7a66cb75",
    "plain Z/3 V2 cap 3":
        "f804f94b78dc1955956a489e7b3cd48009d51f7890a93111d0dfee93d3e7ea47",
    "plain sweedler4 V1 cap 1":
        "50c5ecbdd1188bbda6931598a2cab9450ec46abd0012529ac08697a12092ad67",
    "plain sweedler4 V1 cap 2":
        "14357048fabc0cf78db646a24dcae67cb0177ea2dcd3a23dd5eb6d2d312f37bb",
    "plain sweedler4 V1 cap 3":
        "31b1f5b9c5c9491d3b6f86b938b509121e5096c832a9d8eba77655d3e4930c0e",
    "plain sweedler4 V2 cap 1":
        "f0a205001b11ecc31d59d60eda2858e63b6ecd847acecb99f9508233fe0578e5",
    "plain sweedler4 V2 cap 2":
        "19abfbad97e93992bc687e462e4242f8a40d4dc840935dcf6815992256e9aaba",
    "plain sweedler4 V2 cap 3":
        "a4926353bc9e5d2872ba7463ac43b7908870060d7fa645af26df97a4707ffd8c",
    "coalgebra Z/3 sigma 0 cap 1":
        "6d2628d2ae1ae6e4aad93d5aa227de18742623c1d44d6be73b0837259779e5f2",
    "coalgebra Z/3 sigma 0 cap 2":
        "ef08527ef0abb85568f16c0b525fb501bbb593b15006017aa4c3ed97cd2e897d",
    "coalgebra Z/3 sigma 1 cap 1":
        "c0566a3838857a2d64bbf74186013a3ee1bc121a7dbbb41c7c65c1549f8a0b5d",
    "coalgebra Z/3 sigma 1 cap 2":
        "a296695a395307b60dadf43e6892ebed50f318103e4f643e61630a56fcab855e",
    "coalgebra Z/3 sigma 2 cap 1":
        "fd4eddbfc3f55c833608d9fe50fae5c7a9b1aef1b9bd5251e482b3e33ea444ab",
    "coalgebra Z/3 sigma 2 cap 2":
        "dae1e8bd96b56999c4cd1ebe2da9ed6b8c47c282b164d3424d614ba6dfad07a9",
    "coalgebra sweedler4 sigma 1 cap 1":
        "cc81ac2a8ac10bbf6e5ad6643518135387ddd43e47a754d4c95068b453958c1a",
    "coalgebra sweedler4 sigma 1 cap 2":
        "15275274593269e40bdd7ef4761ee3ad682fe8689429cfe614e56ba9cb1a4bbd",
    "algebra_module Z/3 sigma 0 cap 1":
        "7a2883948f779d7248549526e91faee865e27d162754338c8d24f2c4282435d5",
    "algebra_module Z/3 sigma 0 cap 2":
        "2dea2dad542e5e73bb4a29f3f7620a3df445d1c8aed2d1cd8d323b6a323a1c86",
    "algebra_module Z/3 sigma 1 cap 1":
        "7a2883948f779d7248549526e91faee865e27d162754338c8d24f2c4282435d5",
    "algebra_module Z/3 sigma 1 cap 2":
        "2dea2dad542e5e73bb4a29f3f7620a3df445d1c8aed2d1cd8d323b6a323a1c86",
    "algebra_module Z/3 sigma 2 cap 1":
        "7a2883948f779d7248549526e91faee865e27d162754338c8d24f2c4282435d5",
    "algebra_module Z/3 sigma 2 cap 2":
        "2dea2dad542e5e73bb4a29f3f7620a3df445d1c8aed2d1cd8d323b6a323a1c86",
    "algebra_module sweedler4 sigma 1 cap 1":
        "fa0d8765e4b793238f325bbcafcea9a3e2ebace8247f83bc8bd63ffd0076bac9",
    "algebra_module sweedler4 sigma 1 cap 2":
        "fc27a92c41fb518ff8fcd36bfcd675f8db24d3f48a3a081a0e0552ad44457cbf",
    "comodule_algebra Z/3 sigma 0 cap 1":
        "e82b5ee69957fb1fc669fc4cfdac2fa4b7c0ce4c4d986fb03cda6910020a5726",
    "comodule_algebra Z/3 sigma 0 cap 2":
        "2976d100936cdbd9bb7f77f4ac41fed61a50f4f7df3528cdd36be39ed8889e63",
    "comodule_algebra Z/3 sigma 1 cap 1":
        "c86ef43abf73897501d6b40e169a13d9e3c75d5d5668713b9cf4dbe29835e5aa",
    "comodule_algebra Z/3 sigma 1 cap 2":
        "43d6ddf5ac78c717ee955f5af700cdf9f39e946c5909bca363358412b2eec25e",
    "comodule_algebra Z/3 sigma 2 cap 1":
        "bef3b8677ec18c8a056c5e0c3be27256bd797d4f84d2eea9fd2eed13b2ead702",
    "comodule_algebra Z/3 sigma 2 cap 2":
        "4a59159ce7cc99bc495b4d1e9108f80fc01b786d52d83b0bb9bfea5739d3ed8f",
    "comodule_algebra sweedler4 sigma 1 cap 1":
        "d36701ae22ffeb19c17f0d179862f683a6c92ffa6feb9aec39dd33c2062dadc0",
    "comodule_algebra sweedler4 sigma 1 cap 2":
        "d63e3022715834d9257e7a42e4a83e69c7dd7a26bd486c448ed01eb6b7c914e0",
    "algebra_contra Z/3 sigma 0 cap 1":
        "746e9b355f3a9892189f7fa4d5b61c013092c32e81a1ad888f0d9c9693526fde",
    "algebra_contra Z/3 sigma 0 cap 2":
        "ae8e2003afa5e91e6ae11d156605a3d6a69645a1dd3d5225604e6dbb6a4e0856",
    "algebra_contra Z/3 sigma 1 cap 1":
        "746e9b355f3a9892189f7fa4d5b61c013092c32e81a1ad888f0d9c9693526fde",
    "algebra_contra Z/3 sigma 1 cap 2":
        "ae8e2003afa5e91e6ae11d156605a3d6a69645a1dd3d5225604e6dbb6a4e0856",
    "algebra_contra Z/3 sigma 2 cap 1":
        "746e9b355f3a9892189f7fa4d5b61c013092c32e81a1ad888f0d9c9693526fde",
    "algebra_contra Z/3 sigma 2 cap 2":
        "ae8e2003afa5e91e6ae11d156605a3d6a69645a1dd3d5225604e6dbb6a4e0856",
    "algebra_contra sweedler4 sigma 1 cap 1":
        "7a7e1a335784d999676d67e981b9d9272cea736c2528bf94b5bd21468031d72d",
    "algebra_contra sweedler4 sigma 1 cap 2":
        "58814cd7bf57af42d76daed75b55ac5cacac4e3e2896b6d810cf6dca1e01503f",
}


def test_pinned_grouplike_pairs_are_the_passing_ones():
    assert _passing_sigmas(_pin_hopf("Z/3")) == [0, 1, 2]
    assert _passing_sigmas(_pin_hopf("sweedler4")) == [1]


@pytest.mark.parametrize("hopf,v,cap", PLAIN_PIN_CASES)
def test_plain_towers_are_pinned(hopf, v, cap):
    values = None if v == 1 else VectorSpace.make(v, "v")
    tower = plain_algebra_cocyclic(_pin_hopf(hopf).algebra, values, cap)
    assert tower_digest(tower) == PINNED_TOWER_DIGESTS[f"plain {hopf} V{v} cap {cap}"]


@pytest.mark.parametrize("kind,hopf,sigma,cap", EQUIVARIANT_PIN_CASES)
def test_equivariant_towers_are_pinned(kind, hopf, sigma, cap):
    tower = _equivariant_tower(kind, _pin_hopf(hopf), sigma, cap)
    assert tower_digest(tower) == \
        PINNED_TOWER_DIGESTS[f"{kind} {hopf} sigma {sigma} cap {cap}"]


# Two-dimensional coefficients: the equivariant towers above have
# one-dimensional coefficients, so they read the same when the lead and trail
# strides of the operators are swapped; these pins tell the two apart.
PINNED_BLOCK_TOWER_DIGESTS = {
    ("coalgebra", 1): "9f1e2736f547e36bfb27fb410d97eb8dffb1fafe30e5373d4bccc262b211515b",
    ("coalgebra", 2): "ce5d1462d45892b6be115c0853fdee1bee7119c4eebfc7264ff2d10152edeccb",
    ("algebra_module", 1): "b423c46271a3f374cd19410b6509ca6342af1e98ca21d8f6e92e07d8c4b0b8d1",
    ("algebra_module", 2): "68663181fec006963e307a839e759ece6cb235a4d1385a84152d8fbd7ff12d8d",
    ("comodule_algebra", 1): "3f88933687cf6e693588a9ac3082bf336080c8d82928cd170827c8c8635507dc",
    ("comodule_algebra", 2): "56394ffff619a3292859c09c15eb2af65979f5b79fcbce45b647150034ccd52f",
    ("algebra_contra", 1): "ce30907f04006a383321bc04abef649a75f3dad00f56411f7a2b9baf6d2e25fb",
    ("algebra_contra", 2): "bbfa6c26b64c3ea6e87e969e5092bc122d7e6ad9af20a4cfcab9624b6c89d0ef",
}


@pytest.mark.parametrize("kind,cap", sorted(PINNED_BLOCK_TOWER_DIGESTS))
def test_towers_with_block_coefficients_are_pinned(kind, cap):
    """The towers over Z/2 with the 2-dimensional `block_module` (its dual
    for the contramodule tower) are cocyclic and pinned."""
    h = _pin_hopf("Z/2")
    module = block_module(h)
    tower = _coefficient_tower(kind, h, module, dualize(module), cap)
    assert verify_cocyclic(tower.module).passed
    assert tower_digest(tower) == PINNED_BLOCK_TOWER_DIGESTS[kind, cap]


@pytest.mark.parametrize("kind,message", [
    ("coalgebra", "coface 1 at degree 0 is not well defined on the quotient"),
    ("algebra_module", "coface 2 at degree 1 does not preserve the cochain space"),
    ("comodule_algebra", "coface 1 at degree 0 does not preserve the cochain space"),
    ("algebra_contra", "coface 2 at degree 1 does not preserve the cochain space"),
])
def test_unstable_sweedler_coefficients_are_refused(kind, message):
    """The unit grouplike of sweedler4 is not a SAYD coefficient (S^2 is not
    the identity); every construction refuses it at its first bad operator."""
    with pytest.raises(LinAlgError) as info:
        _equivariant_tower(kind, sweedler_h4(), 0, 2)
    assert str(info.value) == message


@pytest.mark.parametrize("kind", ["coalgebra", "algebra_module", "comodule_algebra",
                                  "algebra_contra"])
def test_cyclic_fixed_spaces_are_read_off_the_cycles(kind, monkeypatch):
    """Over Z/3, lambda is monomial in every degree and its fixed space is read
    off the cycles with no elimination; over sweedler4 it is not monomial in
    degree 3, where 1 - lambda is eliminated.  Both give the eliminated
    kernel of 1 - lambda."""
    eliminations = []
    eliminate = linalg._eliminate

    def counted(*args):
        eliminations.append(1)
        return eliminate(*args)

    for hopf in ("Z/3", "sweedler4"):
        tower = _equivariant_tower(kind, _pin_hopf(hopf), 1, 3).module
        for n in range(4):
            signed = lambda_operator(tower, n)
            expected = subspace_from_kernel(LinearMap.identity(tower.spaces[n]) - signed,
                                            prefix="l")
            eliminations.clear()
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_eliminate", counted)
                fixed = cocyclic._cyclic_fixed(tower, n)
            if hopf == "Z/3":
                assert not eliminations, n
            elif n == 3:
                assert eliminations
            assert fixed == expected


# ----------------------------------------------- relations on algebra generators
#
# The balanced relations and the equivariance constraints are built on the
# algebra generators of H.  The references below are the per-basis-element
# forms they replaced, kept verbatim; the towers built on them must agree with
# the towers built on generators in everything but the stored relations.


def reference_diagonal_actions(hopf, action, powers):
    """H (x) X^{(m)} -> X^{(m)} for m = 1..k, given X^{(1)}, ..., X^{(k)}, each
    built from the one before: h splits into h_(1) (x) h_(2), h_(2) acts on the
    last m - 1 factors and h_(1) on the first."""
    h, x = hopf.space.dim, action.target.dim
    out = [action]
    for rest, power in zip(powers, powers[1:]):
        source = tensor_space(hopf.space, power)
        split = tensor_space(hopf.space, source)
        out.append(slot_map(action, 1, rest.dim, source, power)
                   @ slot_map(out[-1], h, x, split, source, (rest.dim, rest.dim))
                   @ slot_map(hopf.comul, 1, power.dim, source, split))
    return out


def reference_balanced_relations(coefficients, action, powers):
    """M (x) H (x) X^{(m)} -> M (x) X^{(m)} for each given power X^{(m)}, m = 1..k:
    the right action of the coefficients minus the diagonal action of `action`."""
    h, m = coefficients.hopf, coefficients.space
    m_h = tensor_space(m, h.space)
    out = []
    for power, diag in zip(powers, reference_diagonal_actions(h, action, powers)):
        source, target = tensor_space(m_h, power), tensor_space(m, power)
        out.append(slot_map(coefficients.action, 1, power.dim, source, target)
                   - slot_map(diag, m.dim, 1, source, target))
    return out


def reference_equivariance_constraint(h, x_action, y_action, maps):
    """Hom(X, Y) -> Hom(H (x) X, Y), phi -> phi o act_X - act_Y o (id (x) phi), for
    left actions H (x) X -> X and H (x) Y -> Y, on `maps` = Hom(X, Y)."""
    x, y = x_action.target, y_action.target
    legs = VectorSpace.make(h.dim * maps.dim, "c")
    curried = partial_transpose(y_action, h.space, y).transpose()
    return (slot_map(x_action.transpose(), 1, y.dim, maps, legs)
            - slot_map(curried, 1, x.dim, maps, legs, (y.dim, y.dim)))


def reference_tower(kind, h, module, contramodule, cap, monkeypatch):
    """The `kind` tower built on every basis element of H."""
    with monkeypatch.context() as patch:
        patch.setattr(cocyclic, "_balanced_relations", reference_balanced_relations)
        patch.setattr(cocyclic, "_diagonal_actions", reference_diagonal_actions)
        patch.setattr(cocyclic, "generator_action", lambda hopf, action: action)
        patch.setattr(cocyclic, "equivariance_constraint", reference_equivariance_constraint)
        return _coefficient_tower(kind, h, module, contramodule, cap)


def restricted_to_generators(h, relation, m_dim):
    """The columns (m, g, p) of a relation on M (x) H (x) P, g a generator."""
    gens = algebra_generators(h)
    p_dim = relation.source.dim // (m_dim * h.dim)
    keep = [(mi * h.dim + g) * p_dim + pi for mi in range(m_dim) for g in gens
            for pi in range(p_dim)]
    pick = LinearMap.from_entries(VectorSpace.make(len(keep)), relation.source,
                                  [(j, k, 1) for k, j in enumerate(keep)])
    return relation @ pick


def first_sayd_sigma(h):
    return next(sigma for sigma in range(h.dim)
                if check_sayd_module(grouplike_coefficients(h, sigma).module).passed
                and check_sayd_contramodule(grouplike_coefficients(h, sigma).contramodule).passed)


GENERATOR_CASES = [(name, kind, cap) for name, _ in hopf_ladder()
                   for kind in ("coalgebra", "algebra_module", "comodule_algebra",
                                "algebra_contra")
                   for cap in (1, 2, 3)]


@pytest.mark.parametrize("name,kind,cap", GENERATOR_CASES)
def test_towers_on_generators_equal_the_towers_on_all_of_h(name, kind, cap, monkeypatch):
    """Relations on generators span the relations on all of H, so their
    cokernels (space, projection, section) are equal, as are the kernels of
    the constraints; the operators follow.  The stored relations are the
    generators' column blocks of the full ones."""
    h = dict(hopf_ladder())[name]
    pair = grouplike_coefficients(h, first_sayd_sigma(h))
    got = _coefficient_tower(kind, h, pair.module, pair.contramodule, cap)
    ref = reference_tower(kind, h, pair.module, pair.contramodule, cap, monkeypatch)
    assert got.module == ref.module  # spaces compare by their labels too
    if kind == "coalgebra":
        assert got.ambients == ref.ambients
        for q, r in zip(got.quotients, ref.quotients):
            assert (q.space.labels, q.projection, q.section) == \
                (r.space.labels, r.projection, r.section)
        for new, full in zip(got.relations, ref.relations):
            assert new == restricted_to_generators(h, full, pair.module.dim)
    else:
        assert got.subspaces == ref.subspaces


def test_block_coefficient_towers_on_generators_equal_the_towers_on_all_of_h(monkeypatch):
    h = _pin_hopf("Z/2")
    module = block_module(h)
    for kind in ("coalgebra", "algebra_module", "algebra_contra"):
        got = _coefficient_tower(kind, h, module, dualize(module), 3)
        ref = reference_tower(kind, h, module, dualize(module), 3, monkeypatch)
        assert got.module == ref.module


# The coalgebra pins before the relations were cut to the generators' columns:
# the digests of the towers with the relations on all of H.
FULL_RELATION_DIGESTS = {
    "coalgebra Z/3 sigma 0 cap 1":
        "800108ccf5bd1c33e515ed9452d43b79122da0f5d97ee67fe5637aacee1fb56a",
    "coalgebra Z/3 sigma 0 cap 2":
        "e39ca5e4be93b94063887be6c5082b294c75a5522aaf06b634cfe15da41db071",
    "coalgebra Z/3 sigma 1 cap 1":
        "dfad94d0c07b1e50784227d54e3ba5b45ea77b2afe67c447c19db50ced96c36f",
    "coalgebra Z/3 sigma 1 cap 2":
        "0fa0ba59e7ab3bbe1239bbe93fe4611fde207413cca3ea0b559a14cfa133e554",
    "coalgebra Z/3 sigma 2 cap 1":
        "5b53017f3a233ea7082ea21e193e795f548e1758771f8b291388371a8e7292d6",
    "coalgebra Z/3 sigma 2 cap 2":
        "cab764486c183552b95ecec62486e4644bacdd961f7362822e5f41eed06ef9c7",
    "coalgebra sweedler4 sigma 1 cap 1":
        "9a75c8ba3202dfa841f90a49c2c1cb91d44717700ed742b8577ba82825b565d8",
    "coalgebra sweedler4 sigma 1 cap 2":
        "eecc2e586ae23e68f950c8ec1d0e6fcfeffc28b64d6de3d6f9c2147f2e99dd4f",
    "coalgebra Z/2 block cap 1":
        "2dfbc843b1d92a26ff3912d039ca0519a0e88426da39c57ec27c5163187ba290",
    "coalgebra Z/2 block cap 2":
        "4633506968036f083bcf4f2827fd59fd4e2c73c0185a2e1574bd50aec3317834",
}


@pytest.mark.parametrize("case", sorted(FULL_RELATION_DIGESTS))
def test_coalgebra_pins_change_only_by_the_stored_relations(case, monkeypatch):
    """The full relations swapped back into a coalgebra tower built on
    generators give the digest it had when built on all of H, so every other
    digested field (spaces, operators, projections, sections) is unchanged."""
    words = case.split()
    cap = int(words[-1])
    if words[2] == "block":
        h = _pin_hopf("Z/2")
        module = block_module(h)
        contramodule = dualize(module)
    else:
        h = _pin_hopf(words[1])
        pair = grouplike_coefficients(h, int(words[3]))
        module, contramodule = pair.module, pair.contramodule
    tower = _coefficient_tower("coalgebra", h, module, contramodule, cap)
    full = reference_tower("coalgebra", h, module, contramodule, cap, monkeypatch)
    assert tower_digest(tower) != FULL_RELATION_DIGESTS[case]
    swapped = replace(tower, relations=full.relations)
    assert tower_digest(swapped) == FULL_RELATION_DIGESTS[case]


@pytest.mark.parametrize("name", ["z2", "z3", "s3", "sweedler4"])
def test_a_generating_set_missing_a_generator_is_refused(name):
    h = dict(hopf_ladder())[name]
    generators = algebra_generators(h)
    require_generators(h, generators)
    for dropped in range(len(generators)):
        with pytest.raises(LinAlgError, match="generate a subalgebra of dimension"):
            require_generators(h, generators[:dropped] + generators[dropped + 1:])
