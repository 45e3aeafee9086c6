"""Tests for bicocyclic towers, total complexes, comparison maps and cups."""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hopfcyclic import cup, linalg
from hopfcyclic.coefficients import (
    SaydModule,
    check_sayd_contramodule,
    check_sayd_module,
    dualize,
    grouplike_coefficients,
    trivial_coefficients,
)
from hopfcyclic.cocyclic import (
    CocyclicModule,
    cyclic_cohomology,
    full_B,
    _require_degree,
    full_b,
    mixed_complex,
    normalization_projector,
    normalized_cochains,
    plain_algebra_cocyclic,
    verify_cocyclic,
)
from hopfcyclic.cup import (
    BBcocycle,
    _as_vector,
    _bb_rows,
    _solve_blocks,
    _vector_is_zero,
    CompletionObstruction,
    aa_cup_setup,
    ac_cup_setup,
    assembled_aw,
    aw_map,
    bb_cohomologous,
    check_aw_chain_map,
    check_bb_cocycle,
    check_bicocyclic,
    check_collapse_factorization,
    check_phi,
    check_psi,
    check_total_mixed_complex,
    collapse_bb,
    cup_aa,
    cup_aa_general,
    cup_ac,
    cup_ac_general,
    cyclic_cocycle_subspace,
    cyclic_complete,
    diagonal,
    phi_matrix,
    psi_matrix,
    tensor_bicocyclic,
    total_complex,
)
from hopfcyclic.hopf import (
    CoalgebraAction,
    ComoduleAlgebra,
    ModuleAlgebra,
    ModuleCoalgebra,
    adjoint_action,
    check_coalgebra_action,
    cyclic_group_table,
    group_algebra,
    left_regular_action,
    regular_coaction,
    sweedler_h4,
    symmetric_group_table,
    trivial_action,
    trivial_hopf,
)
from hopfcyclic.linalg import (
    LinAlgError,
    LinearMap,
    VectorSpace,
    solve_constrained_subspace,
    subspace_from_kernel,
    tensor_map,
    tensor_space,
)
from hopfcyclic.reporting import Report
from hopfcyclic.specfile import parse_spec
from hopfcyclic.valueclass import replace
from test_cocyclic import perturbed
from test_coefficients import block_module

Z2CUP = str(Path(__file__).resolve().parent.parent / "demo" / "z2_cup.json")


def failures(report):
    return [e.name for e in report.entries if not e.passed]


def basis_cocycle(module, degree):
    """First basis vector of the normalized cyclic cocycles, or zero."""
    sub = cyclic_cocycle_subspace(module, degree)
    if sub.dim:
        return sub.basis.column(0)
    return [0] * module.spaces[degree].dim


@pytest.fixture(scope="module")
def triv():
    return trivial_hopf()


@pytest.fixture(scope="module")
def z2():
    return group_algebra(cyclic_group_table(2), labels=["1", "g"])


@pytest.fixture(scope="module")
def sign_action(z2):
    return LinearMap.from_rows(
        tensor_space(z2.space, z2.space), z2.space,
        [[1, 0, 1, 0], [0, 1, 0, -1]])


@pytest.fixture(scope="module")
def z2_convolution_data(z2, sign_action):
    """Module algebra (sign action), module coalgebra (regular action) and
    the intertwining coalgebra action used by the convolution-side cups."""
    algebra = ModuleAlgebra(z2, z2.space, z2.mul, z2.unit, sign_action)
    coalgebra = ModuleCoalgebra(z2, z2.space, z2.comul, z2.counit,
                                left_regular_action(z2))
    action = CoalgebraAction(coalgebra, algebra, sign_action)
    return algebra, coalgebra, action


@pytest.fixture(scope="module")
def setup_ac_trivial(z2, z2_convolution_data):
    algebra, coalgebra, action = z2_convolution_data
    return ac_cup_setup(algebra, coalgebra, action, trivial_coefficients(z2),
                        degree_cap=3)


@pytest.fixture(scope="module")
def setup_ac_grouplike(z2, z2_convolution_data):
    algebra, coalgebra, action = z2_convolution_data
    return ac_cup_setup(algebra, coalgebra, action,
                        grouplike_coefficients(z2, 1), degree_cap=3)


@pytest.fixture(scope="module")
def setup_aa_trivial(z2, sign_action):
    algebra = ModuleAlgebra(z2, z2.space, z2.mul, z2.unit, sign_action)
    comodule = ComoduleAlgebra(z2, z2.space, z2.mul, z2.unit,
                               regular_coaction(z2))
    return aa_cup_setup(algebra, comodule, trivial_coefficients(z2),
                        degree_cap=3)


@pytest.fixture(scope="module")
def setup_aa_grouplike(z2, sign_action):
    algebra = ModuleAlgebra(z2, z2.space, z2.mul, z2.unit, sign_action)
    comodule = ComoduleAlgebra(z2, z2.space, z2.mul, z2.unit,
                               regular_coaction(z2))
    return aa_cup_setup(algebra, comodule, grouplike_coefficients(z2, 1),
                        degree_cap=3)


@pytest.fixture(scope="module")
def setup_ac_unpaired(z2, z2_convolution_data):
    """Coefficients given as a separate module and contramodule with no
    pairing: the two-dimensional carrier with the counit right action and
    the comultiplication coaction, against the grouplike contramodule."""
    algebra, coalgebra, action = z2_convolution_data
    eps_action = LinearMap.from_rows(
        tensor_space(z2.space, z2.space), z2.space,
        [[1, 1, 0, 0], [0, 0, 1, 1]])
    module = SaydModule(z2, z2.space, eps_action, z2.comul)
    contramodule = grouplike_coefficients(z2, 1).contramodule
    return ac_cup_setup(algebra, coalgebra, action, (module, contramodule),
                        degree_cap=3)


@pytest.fixture(scope="module")
def setup_ac_zero_values(z2):
    """The sign character N (coaction n -> 1 (x) n) against the trivial
    contramodule M: both pass their checks, but their contratensor product
    L is zero, so the contratensor-valued target cochains are too."""
    n = VectorSpace(1, ("n",))
    module = SaydModule(z2, n, LinearMap.from_rows(tensor_space(n, z2.space), n, [[1, -1]]),
                        LinearMap.from_rows(n, tensor_space(z2.space, n), [[1], [0]]))
    algebra = ModuleAlgebra(z2, z2.space, z2.mul, z2.unit, adjoint_action(z2))
    coalgebra = ModuleCoalgebra(z2, z2.space, z2.comul, z2.counit, left_regular_action(z2))
    action = CoalgebraAction(coalgebra, algebra, adjoint_action(z2))
    return ac_cup_setup(algebra, coalgebra, action,
                        (module, trivial_coefficients(z2).contramodule), degree_cap=3)


@pytest.fixture(scope="module")
def setup_ac_block(z2, z2_convolution_data):
    """The two-dimensional block module against its dual contramodule, with
    no pairing: the contratensor product L is two-dimensional, so the
    contratensor-valued target cochains are wider than the scalar ones."""
    algebra, coalgebra, action = z2_convolution_data
    module = block_module(z2)
    return ac_cup_setup(algebra, coalgebra, action, (module, dualize(module)), degree_cap=3)


@pytest.fixture(scope="module")
def s3_setups(triv):
    """Cup setups over the trivial Hopf algebra with the group algebra of S3
    as the only interesting factor; used for unit-class transport tests."""
    s3 = group_algebra(symmetric_group_table(3))
    algebra = ModuleAlgebra(triv, s3.space, s3.mul, s3.unit,
                            trivial_action(triv, s3.space))
    coalgebra = ModuleCoalgebra(triv, triv.space, triv.comul, triv.counit,
                                trivial_action(triv, triv.space))
    action = CoalgebraAction(coalgebra, algebra,
                             trivial_action(triv, s3.space))
    comodule = ComoduleAlgebra(triv, triv.space, triv.mul, triv.unit,
                               regular_coaction(triv))
    ac = ac_cup_setup(algebra, coalgebra, action, trivial_coefficients(triv),
                      degree_cap=2)
    aa = aa_cup_setup(algebra, comodule, trivial_coefficients(triv),
                      degree_cap=2)
    return ac, aa


@pytest.fixture(scope="module")
def point_bicomplex(triv):
    tower = plain_algebra_cocyclic(triv.algebra, degree_cap=3)
    return tensor_bicocyclic(tower, tower)


# ------------------------------------------------------- bicocyclic structure


def test_point_bicomplex_structure(point_bicomplex):
    report = check_bicocyclic(point_bicomplex, "point bicomplex")
    assert report.passed, failures(report)
    diag = diagonal(point_bicomplex)
    report = verify_cocyclic(diag, "point diagonal")
    assert report.passed, failures(report)


def test_point_total_complex(point_bicomplex):
    total = total_complex(point_bicomplex)
    assert [s.dim for s in total.spaces] == [1, 0, 0, 0]
    report = check_total_mixed_complex(total, "point total")
    assert report.passed, failures(report)
    report = check_aw_chain_map(total, diagonal(point_bicomplex), "point")
    assert report.passed, failures(report)


def test_point_comparison_map_is_identity(point_bicomplex):
    aw = aw_map(point_bicomplex, 0, 0)
    assert aw.fractions() == [[Fraction(1)]]


def test_comparison_map_degree_guard(point_bicomplex):
    with pytest.raises(LinAlgError):
        aw_map(point_bicomplex, 2, 2)


def test_degrees_outside_the_tower_are_refused(demo_setups):
    """No degree wraps around to the end of a tower."""
    ac, aa = demo_setups
    for p, q, side, degree in ((0, -1, "horizontal", -1), (-1, 2, "vertical", -1),
                               (5, -2, "vertical", 5)):
        with pytest.raises(LinAlgError, match=(
                rf"^the {side} part of bidegree \({p},{q}\) in degree {degree} \(defined "
                r"in degrees 0..3\) is outside the tower, which is capped at degree 3$")):
            aw_map(ac.bicomplex, p, q)
    with pytest.raises(LinAlgError, match=r"^the vertical part of bidegree \(4,0\) in degree 4 "
                                          r"\(defined in degrees 0..3\) is outside the tower"):
        aw_map(ac.bicomplex, 4, 0)
    for comparison, setup in ((psi_matrix, ac), (phi_matrix, aa)):
        for tensor_valued, n in itertools.product((False, True), (-1, 4)):
            with pytest.raises(LinAlgError, match=(
                    rf"^the comparison map in degree {n} \(defined in degrees 0..3\) is "
                    r"outside the tower, which is capped at degree 3$")):
                comparison(setup, n, tensor_valued)
    with pytest.raises(LinAlgError, match=r"in degree -1 \(defined in degrees 0..2\) is "
                                          r"outside the tower"):
        cyclic_cocycle_subspace(ac.scalar_target, -1)
    total = total_complex(ac.bicomplex)
    normalized = normalized_cochains(ac.diagonal_module, 0)
    for n in (-1, 4):
        with pytest.raises(LinAlgError, match=(
                rf"^the assembled comparison map in degree {n} \(defined in degrees 0..3\) "
                r"is outside the tower, which is capped at degree 3$")):
            assembled_aw(total, normalized, n)
    for p, q, side, degree in ((-1, 0, "vertical", -1), (4, 0, "vertical", 4),
                               (0, -1, "horizontal", -1), (0, 4, "horizontal", 4)):
        with pytest.raises(LinAlgError, match=(
                rf"^the {side} part of bidegree \({p},{q}\) in degree {degree} \(defined "
                r"in degrees 0..3\) is outside the tower, which is capped at degree 3$")):
            ac.bicomplex.space(p, q)


def test_tensor_bicocyclic_cap_mismatch(triv):
    three = plain_algebra_cocyclic(triv.algebra, degree_cap=3)
    two = plain_algebra_cocyclic(triv.algebra, degree_cap=2)
    with pytest.raises(LinAlgError, match="share one degree cap"):
        tensor_bicocyclic(three, two)


def lifted_bicocyclic_checks(module):
    """The (name, passed) list of `check_bicocyclic` computed on the
    bicomplex itself: `verify_cocyclic` on every column and row tower lifted
    from the factors, and every cross commutation compared as matrices."""
    rep = Report("lifted")
    x, y = module.vertical_factor, module.horizontal_factor
    cap = module.degree_cap

    def lifted(tower, lift, spaces):
        return CocyclicModule(
            cap, tuple(spaces), tuple(tuple(map(lift, row)) for row in tower.faces),
            tuple(tuple(map(lift, row)) for row in tower.degeneracies),
            tuple(map(lift, tower.cyclic)))

    def operators(tower, n):
        ops = {}
        if n < cap:
            ops.update((f"d{i}", (1, f)) for i, f in enumerate(tower.faces[n]))
        ops.update((f"s{j}", (-1, s)) for j, s in enumerate(tower.degeneracies[n]))
        ops["t"] = (0, tower.cyclic[n])
        return ops

    columns, rows = [], []
    for q in range(cap + 1):
        id_y = LinearMap.identity(y.spaces[q])
        columns.append(lifted(x, lambda f: tensor_map(f, id_y),
                              (module.space(p, q) for p in range(cap + 1))))
        rep.extend(verify_cocyclic(columns[q]), f"vertical tower q={q}: ")
    for p in range(cap + 1):
        id_x = LinearMap.identity(x.spaces[p])
        rows.append(lifted(y, lambda g: tensor_map(id_x, g),
                           (module.space(p, q) for q in range(cap + 1))))
        rep.extend(verify_cocyclic(rows[p]), f"horizontal tower p={p}: ")
    vertical = [[operators(c, p) for p in range(cap + 1)] for c in columns]
    horizontal = [[operators(r, q) for q in range(cap + 1)] for r in rows]
    for p in range(cap + 1):
        for q in range(cap + 1):
            for vname, (dp, v) in vertical[q][p].items():
                for hname, (dq, h) in horizontal[p][q].items():
                    rep.check_equal(
                        f"vertical {vname} commutes with horizontal {hname} "
                        f"(bidegree ({p},{q}))",
                        vertical[q + dq][p][vname][1] @ h,
                        horizontal[p + dp][q][hname][1] @ v)
    return [(e.name, e.passed) for e in rep.entries]


def with_perturbed_coface(tower):
    """The tower with entry (0, 0) of its coface d0 out of degree 1 raised by one."""
    faces = [list(row) for row in tower.faces]
    f = faces[1][0]
    faces[1][0] = f + LinearMap.from_entries(f.source, f.target, [(0, 0, 1)])
    return replace(tower, faces=tuple(map(tuple, faces)))


def test_bicocyclic_report_is_read_off_the_factors(demo_setups, monkeypatch):
    """Each factor is verified once and no map is built on the bicomplex,
    yet every verdict is the one the lifted towers give: on the demo
    setups, with a perturbed vertical factor, and against a zero tower."""
    ac, aa = demo_setups
    broken = with_perturbed_coface(ac.bicomplex.vertical_factor)
    zero = plain_algebra_cocyclic(ac.algebra.algebra, VectorSpace.make(0), ac.degree_cap)
    modules = [ac.bicomplex, aa.bicomplex,
               tensor_bicocyclic(broken, ac.bicomplex.horizontal_factor),
               tensor_bicocyclic(broken, zero)]
    expected = [lifted_bicocyclic_checks(m) for m in modules]

    verified = []
    verify = cup.verify_cocyclic

    def counted(tower, *args):
        verified.append(tower)
        return verify(tower, *args)

    def refuse(*args):
        raise AssertionError("check_bicocyclic built a map on the bicomplex")

    monkeypatch.setattr(cup, "verify_cocyclic", counted)
    monkeypatch.setattr(cup, "tensor_map", refuse)
    reports = []
    for module, reference in zip(modules, expected):
        verified.clear()
        reports.append(check_bicocyclic(module))
        assert [(e.name, e.passed) for e in reports[-1].entries] == reference
        assert verified == [module.vertical_factor, module.horizontal_factor]

    assert len(reports[0].entries) == 777
    assert reports[0].passed and reports[1].passed and reports[3].passed
    # a failing entry carries the witness of the vertical factor's own check
    own = {e.name: e.detail for e in verify_cocyclic(broken).entries if not e.passed}
    failed = [e for e in reports[2].entries if not e.passed]
    assert failed and all(e.name.startswith("vertical tower q=") for e in failed)
    assert {e.name.split(": ", 1)[1]: e.detail for e in failed} == own


@pytest.mark.parametrize("which", ["ac", "aa"])
def test_bicocyclic_invariants(which, setup_ac_trivial, setup_aa_trivial):
    setup = setup_ac_trivial if which == "ac" else setup_aa_trivial
    report = check_bicocyclic(setup.bicomplex, f"{which} bicomplex")
    assert report.passed, failures(report)
    report = verify_cocyclic(setup.diagonal_module, f"{which} diagonal")
    assert report.passed, failures(report)


@pytest.mark.parametrize("which", ["ac trivial", "ac grouplike",
                                   "aa trivial", "aa grouplike"])
def test_total_and_comparison(which, setup_ac_trivial, setup_ac_grouplike,
                              setup_aa_trivial, setup_aa_grouplike):
    setup = {"ac trivial": setup_ac_trivial,
             "ac grouplike": setup_ac_grouplike,
             "aa trivial": setup_aa_trivial,
             "aa grouplike": setup_aa_grouplike}[which]
    total = total_complex(setup.bicomplex)
    report = check_total_mixed_complex(total, which)
    assert report.passed, failures(report)
    report = check_aw_chain_map(total, setup.diagonal_module, which)
    assert report.passed, failures(report)


# --------------------------------------------------------- cyclic comparison


def test_convolution_comparison_scalar(setup_ac_grouplike):
    report = check_psi(setup_ac_grouplike)
    assert report.passed, failures(report)


def test_convolution_comparison_tensor(setup_ac_grouplike):
    report = check_psi(setup_ac_grouplike, tensor_valued=True)
    assert report.passed, failures(report)


def test_convolution_comparison_unpaired(setup_ac_unpaired):
    report = check_psi(setup_ac_unpaired, tensor_valued=True)
    assert report.passed, failures(report)


def test_crossed_comparison_scalar(setup_aa_grouplike):
    report = check_phi(setup_aa_grouplike)
    assert report.passed, failures(report)


def test_crossed_comparison_tensor(setup_aa_grouplike):
    report = check_phi(setup_aa_grouplike, tensor_valued=True)
    assert report.passed, failures(report)


def test_collapse_factorization(setup_ac_grouplike, setup_aa_grouplike):
    for setup in (setup_ac_grouplike, setup_aa_grouplike):
        report = check_collapse_factorization(setup)
        assert report.passed, failures(report)


# family -> the failing entries of its comparison-map check on the cap-3
# setups of demo/z2_cup.json when entry (0, 0) of the degree-2 map is
# perturbed: each reads that map (s2 of degree 3 on the left, d0 of degree 1
# on the right), and every entry that reads only other degrees passes.
PINNED_COMPARISON_FAULTS = {
    "psi": [("commutes with d0 (degree 2)",
             "first residual -1 at row 'f0⊗f0⊗f0⊗f0*', column 'p0⊗[n⊗g⊗1⊗1]'"),
            ("commutes with s1 (degree 2)",
             "first residual -1 at row 'f0⊗f0*', column 'p0⊗[n⊗g⊗1⊗1]'"),
            ("commutes with s2 (degree 3)",
             "first residual 1 at row 'f0⊗f0⊗f0*', column 'p0⊗[n⊗g⊗1⊗1⊗1]'"),
            ("commutes with t (degree 2)",
             "first residual -1 at row 'f0⊗f0⊗f0*', column 'p0⊗[n⊗g⊗1⊗1]'")],
    "phi": [("commutes with d0 (degree 1)",
             "first residual 1 at row '1⊗1⊗1⊗1⊗1⊗1*', column 'p0⊗p0'"),
            ("commutes with d0 (degree 2)",
             "first residual -1 at row '1⊗1⊗1⊗1⊗1⊗1⊗1⊗1*', column 'p0⊗p0'"),
            ("commutes with s1 (degree 2)", "first residual -1 at row '1⊗1⊗1⊗1*', column 'p0⊗p0'"),
            ("commutes with s2 (degree 3)",
             "first residual 1 at row '1⊗1⊗1⊗1⊗1⊗1*', column 'p1⊗p0'"),
            ("commutes with t (degree 2)",
             "first residual -1 at row '1⊗1⊗1⊗1⊗1⊗1*', column 'p0⊗p0'")],
}


@pytest.mark.parametrize("tensor_valued", [False, True], ids=["scalar", "tensor"])
@pytest.mark.parametrize("family", ["psi", "phi"])
def test_a_perturbed_comparison_map_fails_where_it_is_read(demo_setups, monkeypatch,
                                                          family, tensor_valued):
    """One entry of psi or phi perturbed in degree 2 fails the commutation
    entries that read it, each with its first residual, and no other."""
    if family == "psi":
        setup, check, build = demo_setups[0], check_psi, cup._psi

        def faulty(setup, q, tensor_valued):
            out, bad = build(setup, q, tensor_valued)
            return (perturbed(out, 0, 0) if q == 2 else out), bad

        monkeypatch.setattr(cup, "_psi", faulty)
    else:
        setup, check, build = demo_setups[1], check_phi, cup.phi_matrix

        def faulty(setup, n, tensor_valued):
            out = build(setup, n, tensor_valued)
            return perturbed(out, 0, 0) if n == 2 else out

        monkeypatch.setattr(cup, "phi_matrix", faulty)
    report = check(setup, tensor_valued)
    assert [(e.name, e.detail) for e in report.entries if not e.passed] == \
        PINNED_COMPARISON_FAULTS[family]


@pytest.mark.parametrize("tensor_valued", [False, True], ids=["scalar", "tensor"])
def test_a_perturbed_convolution_tower_fails_its_cyclic_commutation(monkeypatch,
                                                                    tensor_valued):
    """A convolution tower whose cyclic operator has one entry perturbed in
    degree 2, handed to `check_psi` by `_plain_tower`, fails the one entry
    that reads that operator, with its first residual."""
    setup = parse_spec(Z2CUP).build_cup_setup("ac", 3)
    build = cup.plain_algebra_cocyclic

    def faulty(algebra, values=None, degree_cap=None):
        tower = build(algebra, values, degree_cap)
        if algebra != setup.convolution.algebra:
            return tower
        cyclic = list(tower.cyclic)
        cyclic[2] = perturbed(cyclic[2], 0, 0)
        return replace(tower, cyclic=tuple(cyclic))

    monkeypatch.setattr(cup, "plain_algebra_cocyclic", faulty)
    report = check_psi(setup, tensor_valued)
    assert [(e.name, e.detail) for e in report.entries if not e.passed] == [
        ("commutes with t (degree 2)",
         "first residual -1 at row 'f0⊗f0⊗f0*', column 'p0⊗[n⊗g⊗1⊗1]'")]


# sha256 of (source labels, target labels, nonzero entries) of the comparison
# maps of the cap-3 setups of demo/z2_cup.json in degrees 0..3, recorded before
# their parts were memoized.  The grouplike coefficients are one-dimensional,
# so the scalar and the contratensor-valued maps coincide.
PINNED_COMPARISON_DIGESTS = {
    "psi": ["d5c270a315bed56ead34945aa170f885f1d5233260cf20e94d54935395acd1a9",
            "e9caa8e1cbfb11b199c7fae6bbe9fa9562eceb0bdf6a011ea4742d35aa2a0cdf",
            "a998ce8b5920fa9a29819d310ee114737722a474d52ab1254061205274cea8f5",
            "1d6c99889e6bd6c883b1d9d742605901425c783abe5ae8921db8938a13f11680"],
    "phi": ["0e21d6b604df8b95f3e3b4c127390f8c65d6b9a073e6b293595d56c0c84d3665",
            "a4303a381e3e27137bcce5eea8ec5ca23712ea3e886b47cb003fbf31dccaa1bc",
            "27bb806c372e358623fd94ba5511c54023c419b39562ea026677eb27e87744c6",
            "46bc3b1a3aae8e7fcc3022e830c93b6d0be07d503548101ec38e8567007f9d74"],
}


def map_digest(m):
    entries = [[i, j, str(v)] for i, row in enumerate(m.fractions())
               for j, v in enumerate(row) if v]
    blob = json.dumps([list(m.source.labels), list(m.target.labels), entries])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def demo_setups():
    spec = parse_spec(Z2CUP)
    return spec.build_cup_setup("ac", 3), spec.build_cup_setup("aa", 3)


@pytest.mark.parametrize("family,tensor_valued",
                         [("psi", False), ("psi", True), ("phi", False), ("phi", True)],
                         ids=["psi-psi_scalar", "psi-psi_tensor", "phi-phi_scalar",
                              "phi-phi_tensor"])
def test_comparison_maps_are_pinned(demo_setups, family, tensor_valued):
    setup, comparison = ((demo_setups[0], psi_matrix) if family == "psi"
                         else (demo_setups[1], phi_matrix))
    assert [map_digest(comparison(setup, n, tensor_valued)) for n in range(4)] == \
        PINNED_COMPARISON_DIGESTS[family]


# sha256, as above, of psi where the coefficients are not those of the demo:
# the contratensor-valued map of the `setup_ac_unpaired` fixture (a
# two-dimensional module) in degrees 0..3, and both maps of the sweedler4
# `ac` setup below in degrees 0..2 (its grouplike coefficients are
# one-dimensional, so there the two maps coincide).  Recorded while psi was
# assembled from one block per algebra-cochain basis map.
PINNED_PSI_DIGESTS = {
    "unpaired": ["3ae5f8928511cfe8a9be9c63f93ecb7d7e92b3c6c166b380a32f41721a49aadc",
                 "3fcbfcaa813f8e04941eb5d42eb13f99cbc97af906ee42411b25c2bffd17fbcc",
                 "f892b15cbebc01bee384a55e64282187595f13e9b3395aff2d4c56b314e2a875",
                 "e725edfb70de640304bbef05599a9fbfd3a130b6f8b5fbc4d8403473f670e77d"],
    "sweedler4": ["03542325c6b37fd46839f234fa89fac33f834681762585990aabe3a3d79ccfdc",
                  "8a9c4cc0aaa7c34c2d16e713cac5350e84305a22695ec3273e73d8d0ed28f457",
                  "d6601d2737e7c89ce96caeacbfd91fe2f7608cceb8d70b7e15e1c3bb58cb4203"],
}


@pytest.fixture(scope="module")
def setup_ac_sweedler4():
    """H acting on itself by the adjoint action as a module algebra, on
    itself by left multiplication as a module coalgebra, with the adjoint
    action of the coalgebra on the algebra and grouplike coefficients."""
    h = sweedler_h4()
    algebra = ModuleAlgebra(h, h.space, h.mul, h.unit, adjoint_action(h))
    coalgebra = ModuleCoalgebra(h, h.space, h.comul, h.counit, left_regular_action(h))
    action = CoalgebraAction(coalgebra, algebra, adjoint_action(h))
    report = check_coalgebra_action(action)
    assert report.passed, failures(report)
    return ac_cup_setup(algebra, coalgebra, action, grouplike_coefficients(h, 1),
                        degree_cap=3)


def test_psi_on_wider_coefficients_is_pinned(setup_ac_unpaired):
    assert [map_digest(psi_matrix(setup_ac_unpaired, n, True)) for n in range(4)] == \
        PINNED_PSI_DIGESTS["unpaired"]


@pytest.mark.parametrize("tensor_valued", [False, True], ids=["psi_scalar", "psi_tensor"])
def test_psi_over_sweedler4_is_pinned(setup_ac_sweedler4, tensor_valued):
    assert [map_digest(psi_matrix(setup_ac_sweedler4, n, tensor_valued))
            for n in range(3)] == \
        PINNED_PSI_DIGESTS["sweedler4"]


# sha256, as above, of phi on the cap-2 sweedler4 `aa` setup in degrees 0..2,
# where the order of the coaction legs and S^{-1} against S show (on the
# demo's Z/2 they do not).  The coefficients are one-dimensional, so the
# scalar and the contratensor-valued maps coincide.  Recorded while the
# transformer was assembled column by column.
PINNED_PHI_DIGESTS = [
    "81d304fb1b30514726776d2acc8199d965f9ef57767d7f3d19e1b26a1b9d25a7",
    "00d9b5b1f3a16e69a01bfb25add7cb9f12a6e9406d0dc0af8b24d1e5492bb82d",
    "4c4c6930d97f0b21a07269e4cbdf6b219687a77a870f8cfad6fa4b05e7b7c947"]


def sweedler4_aa_setup():
    """sweedler4 acting on itself by the adjoint action and coacting on
    itself by the regular coaction, with grouplike coefficients, at cap 2:
    S^{-1} is not S and the crossed product is not commutative."""
    h = sweedler_h4()
    return aa_cup_setup(ModuleAlgebra(h, h.space, h.mul, h.unit, adjoint_action(h)),
                        ComoduleAlgebra(h, h.space, h.mul, h.unit, regular_coaction(h)),
                        grouplike_coefficients(h, 1), degree_cap=2)


@pytest.fixture(scope="module")
def setup_aa_sweedler4():
    return sweedler4_aa_setup()


@pytest.mark.parametrize("tensor_valued", [False, True], ids=["phi_scalar", "phi_tensor"])
def test_phi_over_sweedler4_is_pinned(setup_aa_sweedler4, tensor_valued):
    assert [map_digest(phi_matrix(setup_aa_sweedler4, n, tensor_valued))
            for n in range(3)] == \
        PINNED_PHI_DIGESTS


def test_phi_takes_no_dense_view(monkeypatch):
    """The transformer is a product of slot maps over the diagonal
    coactions, so no dense matrix of structure constants is read."""
    setup = sweedler4_aa_setup()

    def refuse(self):
        raise AssertionError("phi took a dense view")

    monkeypatch.setattr(LinearMap, "fractions", refuse)
    for n in range(3):
        phi_matrix(setup, n, False)


def test_psi_refuses_a_map_that_sees_the_relations(demo_setups):
    """With every degree-2 coalgebra cochain declared a relation, each
    algebra-cochain basis map gives a block that does not vanish on them."""
    setup = demo_setups[0]
    y = setup.coalgebra_cochains
    relations = list(y.relations)
    relations[2] = LinearMap.identity(y.ambients[2])
    bad = replace(setup, coalgebra_cochains=replace(
        y, relations=tuple(relations)))
    refusal = "the comparison map is not well defined on the quotient at degree 2 (basis map 0)"
    with pytest.raises(LinAlgError) as info:
        psi_matrix(bad, 2, False)
    assert str(info.value) == refusal
    report = check_psi(bad)
    assert [(e.name, e.detail) for e in report.entries if not e.passed] == [
        ("well defined on the relation subspace (degree 2)",
         "basis maps [0, 1, 2, 3] see the relations")]
    with pytest.raises(LinAlgError) as info:
        psi_matrix(bad, 2, False)
    assert str(info.value) == refusal


def test_psi_decides_well_definedness_once_per_degree_and_variant(monkeypatch):
    """The relation product, psi's widest map, is built once per setup,
    degree and variant, and shared by `check_psi` and `psi_matrix`."""
    setup = parse_spec(Z2CUP).build_cup_setup("ac", 3)
    degree_of = {id(r): q for q, r in enumerate(setup.coalgebra_cochains.relations)}
    built = []
    kron = cup.tensor_map

    def counted(f, g):
        if id(g) in degree_of:
            built.append(degree_of[id(g)])
        return kron(f, g)

    monkeypatch.setattr(cup, "tensor_map", counted)
    assert check_psi(setup).passed
    assert built == [0, 1, 2, 3]
    for q in range(4):
        psi_matrix(setup, q, False)
    assert check_psi(setup).passed
    assert built == [0, 1, 2, 3]
    # the contratensor-valued map is the other variant, so its own products
    psi_matrix(setup, 2, True)
    psi_matrix(setup, 2, True)
    assert built == [0, 1, 2, 3, 2]


# sha256 of the bicomplex layer of the same cap-3 setups, recorded while the
# diagonal, total complex and comparison map were still assembled from
# bicomplex operator methods and each normalized block was found by
# elimination: the diagonal tower's spaces and operators, each normalized
# block N^{p,q} (space labels, ambient labels, supports, basis), the total
# complex's b and B, aw_map for every p + q <= 3, and the names and verdicts
# of check_bicocyclic's checks.
PINNED_BICOMPLEX_DIGESTS = {
    "ac": {"diagonal": "88276aeba5e2a699c5ffb8630fd21670d9f6ad6689807ad8b0b806fb862ab84c",
           "blocks": "bccfd6e42237c46313a673bb59f6059f758d9ed5a93aee65dc604dd1b9e18a87",
           "b": "236e9eac3d5983d3d7e9186953e81b8b1348bed2ed4417e5b0e863fe450332f5",
           "B": "25b98971b0369bf483a0d8a58e276168b2bc987116c78d4c8a86df1ce3be7617",
           "aw": "2d5fe8b8961fa049144c58f0bc34a385dc987af1d69ae4624303cad0061d222c",
           "check": "36ab5f404e19f65f76bab3da1076c76fa6573faa79a30e97113bc121e6210036"},
    "aa": {"diagonal": "2d8307dc468f56d6ddaa3b093d00b170ae7f518f69fed6f6e0aedec7e058ca30",
           "blocks": "3e2f4f83463064cd42b8f8f6c164edbe5da85fd3083cc08b4f46760965b96ac1",
           "b": "709a496e20f2e004c368b153744f990c680d7e1263282cc14868333eb9492454",
           "B": "a596e53725fd1666c3789e8bdb33c71a4c5e2fa2276c7affb4bb1622e1bfb9f0",
           "aw": "682acafe39d40eb16b4d5d580529352d90848c059e655856388cf9f9f6103b78",
           "check": "36ab5f404e19f65f76bab3da1076c76fa6573faa79a30e97113bc121e6210036"},
}


def _record_digest(record):
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def bicomplex_part(setup, part):
    cap = setup.degree_cap
    if part == "diagonal":
        diag = diagonal(setup.bicomplex)
        return _record_digest([[list(s.labels) for s in diag.spaces],
                               [[map_digest(f) for f in row] for row in diag.faces],
                               [[map_digest(s) for s in row] for row in diag.degeneracies],
                               [map_digest(t) for t in diag.cyclic]])
    if part == "check":
        return _record_digest(check_bicocyclic(setup.bicomplex).as_dict())
    if part == "aw":
        return _record_digest([map_digest(aw_map(setup.bicomplex, p, q))
                               for p in range(cap + 1) for q in range(cap + 1 - p)])
    total = total_complex(setup.bicomplex)
    if part == "blocks":
        return _record_digest([[list(sub.space.labels), list(sub.ambient.labels),
                                list(sub.supports), map_digest(sub.basis)]
                               for row in total.block_subspaces for sub in row])
    return _record_digest([map_digest(m) for m in getattr(total, part) if m is not None])


def test_zero_dimensional_values(z2, setup_ac_zero_values):
    """Checked coefficients whose contratensor product is zero give a zero
    target tower, which passes its checks and receives the zero product."""
    setup = setup_ac_zero_values
    assert check_sayd_module(setup.module).passed
    assert check_sayd_contramodule(setup.contramodule).passed
    assert setup.tensor_values.space.dim == 0
    zero = plain_algebra_cocyclic(z2.algebra, VectorSpace.make(0), 3)
    for tower in (zero, setup.tensor_target):
        assert [s.dim for s in tower.spaces] == [0, 0, 0, 0]
        report = verify_cocyclic(tower)
        assert report.passed, failures(report)
    report = check_psi(setup, tensor_valued=True)
    assert report.passed, failures(report)
    for p, q in ((0, 2), (2, 0)):
        phi = basis_cocycle(setup.algebra_cochains.module, p)
        omega = basis_cocycle(setup.coalgebra_cochains.module, q)
        assert any(phi) and any(omega)
        assert cup_ac_general(setup, p, q, phi, omega) == BBcocycle(2, ((), ()))


# sha256 of psi (as `map_digest`) in degrees 0..3 and of the cups (as
# `bb_digest`) at (0, 0), (1, 1), (0, 2) and (2, 0) of the `setup_ac_block`
# fixture, whose values L are two-dimensional; recorded while every setup
# built its own contratensor-valued target tower.
PINNED_BLOCK_PSI_DIGESTS = [
    "b2aed26e5d8e7f619ca618aaf3884c7c3adb5a505f77fb74b7d06c5591b0ae36",
    "476da633555c9b58e69e7b3f3001f862b32fca46f09fabac5b559cca333f973e",
    "dde8737bd3e5168094acbcd0a07e965ce7eb3e6169d58b3c88eb6995e134c3f4",
    "95bd07dd8004eb8f67a5c16fa50979c909f0092585f5bdf8a329c165e7a3a16f"]
PINNED_BLOCK_CUP_DIGESTS = {
    (0, 0): "6c948f6352d9095c7e33bb0e5beba065c21ef2f29349432832731603d7be7655",
    (1, 1): "743b133c8e563832ae7efeaeae843964ddacabd96dcd5630e5f0b4c828a282fd",
    (0, 2): "722b47b202d8fea866bc322f379b412c20c05659a8b60277962db69e21747e9e",
    (2, 0): "56ede7c0366b3922565ff23e2c716888d075237cd9cb1bc362d93fb7e2448c96",
}


def test_two_dimensional_values(setup_ac_block):
    """A contratensor product of dimension 2 gives a target tower of its own,
    into which psi passes its checks and every cup is a nonzero cocycle."""
    setup = setup_ac_block
    assert setup.tensor_values.space.dim == 2
    assert [s.dim for s in setup.tensor_target.spaces] == [4, 8, 16, 32]
    report = check_psi(setup, tensor_valued=True)
    assert report.passed, failures(report)
    assert [map_digest(psi_matrix(setup, n, True)) for n in range(4)] == \
        PINNED_BLOCK_PSI_DIGESTS
    for (p, q), digest in PINNED_BLOCK_CUP_DIGESTS.items():
        left = basis_cocycle(setup.algebra_cochains.module, p)
        right = basis_cocycle(setup.coalgebra_cochains.module, q)
        out = cup_ac_general(setup, p, q, left, right)
        assert any(any(c) for c in out.components), (p, q)
        report = check_bb_cocycle(setup.tensor_target, out)
        assert report.passed, failures(report)
        assert bb_digest(out) == digest, (p, q)


def test_one_dimensional_values_share_the_scalar_target(demo_setups, setup_ac_grouplike,
                                                       setup_ac_block):
    """Cochains with values in a one-dimensional L have the labels and
    operators of scalar cochains, so both variants read one target tower
    (and one set of b, B and N); a two-dimensional L gets a tower of its own."""
    for setup in (*demo_setups, setup_ac_grouplike):
        assert setup.tensor_values.space.dim == 1
        assert setup.tensor_target is setup.scalar_target
        fresh = plain_algebra_cocyclic(setup._base, setup.tensor_values.space, 3)
        assert setup.tensor_target == fresh
    assert setup_ac_block.tensor_target is not setup_ac_block.scalar_target
    for tensor_valued in (False, True):
        assert check_psi(setup_ac_grouplike, tensor_valued).passed
    convolution = setup_ac_grouplike.convolution.algebra
    towers = [tower for key, tower in setup_ac_grouplike._memo.items()
              if key[:2] == ("_plain_tower", convolution)]
    assert towers and all(tower is towers[0] for tower in towers)


def counted_plain_towers(monkeypatch):
    """The (algebra, values dimension or None) of each plain tower `cup`
    builds from now on."""
    built = []

    def counted(algebra, values=None, degree_cap=None):
        built.append((algebra, None if values is None else values.dim))
        return plain_algebra_cocyclic(algebra, values, degree_cap)

    monkeypatch.setattr(cup, "plain_algebra_cocyclic", counted)
    return built


def test_an_unpaired_setup_builds_no_scalar_target(z2, z2_convolution_data, setup_ac_block,
                                                   monkeypatch):
    """With no pairing and a two-dimensional L no scalar product can be taken,
    so the setup builds one plain target tower, the contratensor-valued one;
    the scalar product and checks keep their refusal and build nothing."""
    built = counted_plain_towers(monkeypatch)
    algebra, coalgebra, action = z2_convolution_data
    module = block_module(z2)
    setup = ac_cup_setup(algebra, coalgebra, action, (module, dualize(module)), degree_cap=3)
    assert built == []
    assert setup.tensor_target == setup_ac_block.tensor_target
    assert built == [(setup._base, 2)]
    left = basis_cocycle(setup.algebra_cochains.module, 1)
    right = basis_cocycle(setup.coalgebra_cochains.module, 1)
    for scalar in (lambda: cup_ac(setup, 1, 1, left, right), lambda: check_psi(setup),
                   lambda: check_collapse_factorization(setup)):
        with pytest.raises(LinAlgError, match="^no compatible pairing was provided"):
            scalar()
    assert built == [(setup._base, 2)]
    assert not [key for key in setup._memo if key[0] == "_plain_tower" and key[2] is None]


def test_target_towers_are_built_on_first_read(monkeypatch):
    """Building a setup of either family builds no plain tower.  The first
    read of a target builds one, and later reads build none; with a
    one-dimensional L the scalar target is that same tower, and both
    variants of `check_psi` read one convolution tower."""
    built = counted_plain_towers(monkeypatch)
    spec = parse_spec(Z2CUP)
    setups = spec.build_cup_setup("ac", 3), spec.build_cup_setup("aa", 3)
    assert built == []
    for setup in setups:
        built.clear()
        target = setup.tensor_target
        assert built == [(setup._base, None)]
        assert setup.scalar_target is target and setup.tensor_target is target
        assert len(built) == 1
    built.clear()
    for tensor_valued in (False, True):
        assert check_psi(setups[0], tensor_valued).passed
    assert built == [(setups[0].convolution.algebra, None)]


def test_comparison_maps_are_built_once_per_variant(demo_setups, setup_ac_unpaired):
    """Repeated calls return the map built by the first, one per variant, and
    a variant that is refused stays refused."""
    for setup, comparison in zip(demo_setups, (psi_matrix, phi_matrix)):
        for n in range(4):
            scalar, general = comparison(setup, n, False), comparison(setup, n, True)
            assert comparison(setup, n, False) is scalar
            assert comparison(setup, n, True) is general
            assert general is not scalar and general == scalar
    assert psi_matrix(setup_ac_unpaired, 1, True) is psi_matrix(setup_ac_unpaired, 1, True)
    for _ in range(2):
        with pytest.raises(LinAlgError, match="no compatible pairing"):
            psi_matrix(setup_ac_unpaired, 1, False)


@pytest.mark.parametrize("which", ["ac", "aa"])
@pytest.mark.parametrize("part", ["diagonal", "blocks", "b", "B", "aw", "check"])
def test_bicomplex_layer_is_pinned(demo_setups, which, part):
    setup = demo_setups[0] if which == "ac" else demo_setups[1]
    assert bicomplex_part(setup, part) == PINNED_BICOMPLEX_DIGESTS[which][part]


@pytest.mark.parametrize("which", ["ac", "aa"])
def test_total_complex_eliminates_nothing_on_the_bicomplex(demo_setups, monkeypatch,
                                                           which):
    """The normalized blocks are tensor products of the factors' normalized
    spaces, so once those are known no kernel is eliminated at all."""
    def refuse(*args, **kwargs):
        raise AssertionError("total_complex eliminated a kernel")

    setup = demo_setups[0] if which == "ac" else demo_setups[1]
    for factor in (setup.bicomplex.vertical_factor, setup.bicomplex.horizontal_factor):
        mixed_complex(factor)
    monkeypatch.setattr(linalg, "_kernel_vectors", refuse)
    total = total_complex(setup.bicomplex)
    assert check_total_mixed_complex(total).passed


def test_comparison_parts_are_built_once_per_setup(monkeypatch):
    """Each family's transformer is built once per setup and degree, and
    shared by both collapses and every later call."""
    builds = []

    def counted(build):
        def count(setup, n):
            builds.append((id(setup), n))
            return build(setup, n)
        return count

    for builder in ("_phi_transformer", "_psi_transformer"):
        monkeypatch.setattr(cup, builder, counted(getattr(cup, builder)))
    spec = parse_spec(Z2CUP)
    for family, check, comparison in (("aa", check_phi, phi_matrix),
                                      ("ac", check_psi, psi_matrix)):
        builds.clear()
        first = spec.build_cup_setup(family, 3)
        for report in (check(first), check(first, tensor_valued=True),
                       check_collapse_factorization(first)):
            assert report.passed, failures(report)
        assert sorted(n for _, n in builds) == [0, 1, 2, 3]
        comparison(first, 3, False)
        assert len(builds) == 4
        second = spec.build_cup_setup(family, 3)
        assert check(second).passed
        assert len(builds) == 8
        assert set(builds[4:]) == {(id(second), n) for n in range(4)}
    module = first.scalar_target
    assert full_b(module, 1) is full_b(module, 1)
    assert full_B(module, 2) is full_B(module, 2)


def test_oversized_comparison_map_is_refused_up_front():
    """The crossed product of sweedler4 with itself is 16-dimensional, so the
    degree-3 transformer would have 16^8 cells; phi refuses it at once."""
    h = sweedler_h4()
    setup = aa_cup_setup(ModuleAlgebra(h, h.space, h.mul, h.unit, adjoint_action(h)),
                         ComoduleAlgebra(h, h.space, h.mul, h.unit, regular_coaction(h)),
                         grouplike_coefficients(h, 1), degree_cap=3)
    start = time.perf_counter()
    with pytest.raises(LinAlgError) as info:
        phi_matrix(setup, 3, False)
    assert time.perf_counter() - start < 1
    assert str(info.value) == (
        "the comparison map at degree 3 needs a transformer of 4294967296 cells, "
        f"more than the limit of {cup.PHI_MAX_CELLS}")


# ------------------------------------------------------------- cup pipelines


def test_cup_convolution_grouplike(setup_ac_grouplike):
    phi = basis_cocycle(setup_ac_grouplike.algebra_cochains.module, 1)
    omega = basis_cocycle(setup_ac_grouplike.coalgebra_cochains.module, 1)
    assert phi == [0, 1]
    assert omega == [-1, 1]
    out = cup_ac(setup_ac_grouplike, 1, 1, phi, omega)
    assert out.degree == 2
    assert list(out.components[0]) == [0, 0, 0, -2, 0, 0, 0, 0]
    assert list(out.components[1]) == [0, 0]
    report = check_bb_cocycle(setup_ac_grouplike.scalar_target, out)
    assert report.passed, failures(report)


def test_cup_convolution_coboundary_stability(setup_ac_grouplike):
    """Shifting either input by a coboundary moves the output by one."""
    target = setup_ac_grouplike.scalar_target
    phi = [0, 1]
    omega = [-1, 1]
    out = cup_ac(setup_ac_grouplike, 1, 1, phi, omega)
    shifted = cup_ac(setup_ac_grouplike, 1, 1, [0, 3], [-2, 2])
    assert bb_cohomologous(target, shifted, out)


def test_cup_crossed_grouplike(setup_aa_grouplike):
    psi = basis_cocycle(setup_aa_grouplike.comodule_cochains.module, 0)
    phi = basis_cocycle(setup_aa_grouplike.algebra_cochains.module, 1)
    assert psi == [1]
    assert phi == [0, 1]
    out = cup_aa(setup_aa_grouplike, 0, 1, psi, phi)
    assert out.degree == 1
    expected = [0] * 16
    expected[11] = 1
    expected[14] = -1
    assert list(out.components[0]) == expected
    report = check_bb_cocycle(setup_aa_grouplike.scalar_target, out)
    assert report.passed, failures(report)


def test_cup_crossed_zero_input(setup_aa_grouplike):
    phi = basis_cocycle(setup_aa_grouplike.algebra_cochains.module, 1)
    zero = [0] * setup_aa_grouplike.comodule_cochains.module.spaces[1].dim
    out = cup_aa(setup_aa_grouplike, 1, 1, zero, phi)
    assert all(all(v == 0 for v in comp) for comp in out.components)


def test_cup_unpaired_general(setup_ac_unpaired):
    assert setup_ac_unpaired.tensor_values.space.dim == 1
    left = basis_cocycle(setup_ac_unpaired.algebra_cochains.module, 1)
    right = basis_cocycle(setup_ac_unpaired.coalgebra_cochains.module, 1)
    assert left == [0, 1]
    assert right == [0, 0, -1, 1]
    out = cup_ac_general(setup_ac_unpaired, 1, 1, left, right)
    assert list(out.components[0]) == [0, 0, 0, -2, 0, 0, 0, 0]
    assert list(out.components[1]) == [0, 0]


def test_cup_unpaired_scalar_refused(setup_ac_unpaired):
    setup = setup_ac_unpaired
    for scalar in (lambda: cup_ac(setup, 1, 1, [0, 1], [0, 0, -1, 1]),
                   lambda: psi_matrix(setup, 1, False), lambda: check_psi(setup)):
        with pytest.raises(LinAlgError, match="no compatible pairing"):
            scalar()


def test_unit_class_transport_convolution(s3_setups):
    """Over the trivial Hopf algebra the convolution cup against the unit
    class returns the input cochain on the nose."""
    ac, _ = s3_setups
    unit = [Fraction(1)]
    phi1 = basis_cocycle(ac.algebra_cochains.module, 1)
    assert any(v != 0 for v in phi1)
    out = cup_ac(ac, 1, 0, phi1, unit)
    assert list(out.components[0]) == list(phi1)
    assert len(out.components) == 1
    phi0 = basis_cocycle(ac.algebra_cochains.module, 0)
    out0 = cup_ac(ac, 0, 0, phi0, unit)
    assert list(out0.components[0]) == list(phi0)


def test_unit_class_transport_crossed(s3_setups):
    """Over the trivial Hopf algebra the crossed-product cup is the plain
    product of the two functionals."""
    _, aa = s3_setups
    psi0 = basis_cocycle(aa.comodule_cochains.module, 0)
    phi1 = basis_cocycle(aa.algebra_cochains.module, 1)
    assert any(v != 0 for v in phi1)
    out = cup_aa(aa, 0, 1, psi0, phi1)
    da = 6
    db = 1
    expected = []
    for i0 in range(da):
        for _ in range(db):
            for i1 in range(da):
                for _ in range(db):
                    expected.append(psi0[0] * Fraction(phi1[i0 * da + i1]))
    assert list(out.components[0]) == expected


def test_collapse_matches_scalar_pipeline(setup_ac_trivial, setup_aa_trivial):
    """With a compatible pairing, collapsing the contratensor-valued output
    reproduces the scalar pipeline in every component."""
    cases = [
        (setup_ac_trivial, cup_ac, cup_ac_general,
         setup_ac_trivial.algebra_cochains.module,
         setup_ac_trivial.coalgebra_cochains.module,
         setup_ac_trivial.algebra.space),
        (setup_aa_trivial, cup_aa, cup_aa_general,
         setup_aa_trivial.comodule_cochains.module,
         setup_aa_trivial.algebra_cochains.module,
         setup_aa_trivial.crossed.space),
    ]
    saw_nonzero = False
    for setup, scalar_cup, general_cup, xmod, ymod, base in cases:
        for p in (0, 1):
            for q in (0, 1):
                left = basis_cocycle(xmod, p)
                right = basis_cocycle(ymod, q)
                s_out = scalar_cup(setup, p, q, left, right)
                g_out = general_cup(setup, p, q, left, right)
                collapsed = collapse_bb(g_out, base, setup.pair_collapse)
                assert collapsed.components == s_out.components, (p, q)
                if any(any(v != 0 for v in c) for c in s_out.components):
                    saw_nonzero = True
    assert saw_nonzero


# ------------------------------------------------- completion and coboundaries


def _rigged_module(cap, degeneracy_values, tau_values):
    """All spaces are one-dimensional with zero cofaces; the codegeneracy and
    cyclic scalars are prescribed so completion obstructions can be forced."""
    line = VectorSpace.ground()
    spaces = tuple(line for _ in range(cap + 1))
    faces = tuple(tuple(LinearMap.zero(line, line) for _ in range(n + 2))
                  for n in range(cap))
    degeneracies = tuple(
        tuple(LinearMap.scalar(line, degeneracy_values[n][j])
              for j in range(n))
        for n in range(cap + 1))
    cyclic = tuple(LinearMap.scalar(line, tau_values[n])
                   for n in range(cap + 1))
    return CocyclicModule(cap, spaces, faces, degeneracies, cyclic)


def test_completion_obstruction_without_tail():
    module = _rigged_module(1, [[], [1]], [1, 1])
    with pytest.raises(CompletionObstruction) as err:
        cyclic_complete(module, 1, [1])
    assert err.value.degree == 0
    assert err.value.residual == (Fraction(1),)


def test_completion_obstruction_in_tail():
    module = _rigged_module(2, [[], [0], [0, 1]], [1, -1, 1])
    with pytest.raises(CompletionObstruction) as err:
        cyclic_complete(module, 2, [1])
    assert err.value.degree == 0
    assert err.value.residual == (Fraction(2),)


def _rigged_matrices(dims, faces=(), degeneracies=(), cyclic=()):
    """A cocyclic module on spaces of the given dimensions (degree cap
    len(dims) - 1) whose maps are zero except the listed ones: faces and
    degeneracies as ((n, i), rows), cyclic operators as (n, rows)."""
    spaces = tuple(VectorSpace.make(d) for d in dims)
    cap = len(dims) - 1

    def built(source, target, rows):
        return LinearMap.from_rows(spaces[source], spaces[target], rows)
    face, degeneracy, tau = dict(faces), dict(degeneracies), dict(cyclic)
    return CocyclicModule(
        cap, spaces,
        tuple(tuple(built(n, n + 1, face[n, i]) if (n, i) in face
                    else LinearMap.zero(spaces[n], spaces[n + 1]) for i in range(n + 2))
              for n in range(cap)),
        tuple(tuple(built(n, n - 1, degeneracy[n, j]) if (n, j) in degeneracy
                    else LinearMap.zero(spaces[n], spaces[n - 1]) for j in range(n))
              for n in range(cap + 1)),
        tuple(built(n, n, tau[n]) if n in tau else LinearMap.zero(spaces[n], spaces[n])
              for n in range(cap + 1)))


SWAP = [[0, 1], [1, 0]]


def test_completion_obstruction_after_a_solved_prefix():
    """Degree 4: the degree-2 component u0 = (-1, 0) solves its rows, but
    B u0 = -1 meets b = 0 on the degree-0 component, so the second prefix is
    infeasible and its witness is B u0."""
    module = _rigged_matrices([1, 1, 2, 1, 1], faces=[((2, 0), [[1, 0]])],
                              degeneracies=[((2, 1), [[0, 1]]), ((4, 3), [[1]])],
                              cyclic=[(2, SWAP), (4, [[1]])])
    with pytest.raises(CompletionObstruction) as err:
        cyclic_complete(module, 4, [1])
    assert err.value.degree == 0
    assert err.value.residual == (Fraction(-1),)


def test_completion_obstruction_below_every_solved_prefix():
    """Degree 3: the degree-1 component u0 = (-1, 0) solves every prefix,
    and the bottom row B u0 = -1 into degree 0 is the obstruction."""
    module = _rigged_matrices([1, 2, 1, 1], faces=[((1, 0), [[1, 0]])],
                              degeneracies=[((1, 0), [[0, 1]]), ((3, 2), [[1]])],
                              cyclic=[(1, SWAP), (3, [[1]])])
    with pytest.raises(CompletionObstruction) as err:
        cyclic_complete(module, 3, [1])
    assert err.value.degree == 0
    assert err.value.residual == (Fraction(-1),)


def bb_digest(cocycle):
    blob = json.dumps([cocycle.degree, [[str(x) for x in comp] for comp in cocycle.components]])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_completion_with_a_two_component_tail():
    """A normalized Hochschild cocycle of sweedler4 in degree 4 whose
    completion has a nonzero degree-2 component; the components are pinned."""
    module = plain_algebra_cocyclic(sweedler_h4().algebra, degree_cap=5)
    cocycles = solve_constrained_subspace(
        module.spaces[4], [full_b(module, 4)] + list(module.degeneracies[4]))
    cocycle = cyclic_complete(module, 4, cocycles.basis.column(2))
    assert cocycle.component_degrees() == [4, 2, 0]
    assert any(cocycle.components[1])
    report = check_bb_cocycle(module, cocycle)
    assert report.passed, failures(report)
    assert bb_digest(cocycle) == \
        "9be08256cdf849dafad2e07d72b173c041abd103fc75108698f75c50e38ccaa5"


def test_completion_with_an_odd_bottom_row():
    """Degree 3 over sweedler4 at cap 4: the tail ends in degree 1, so the
    system carries the row B u = 0 into degree 0."""
    module = plain_algebra_cocyclic(sweedler_h4().algebra, degree_cap=4)
    cocycle = cyclic_complete(module, 3, cyclic_cocycle_subspace(module, 3).basis.column(0))
    assert cocycle.component_degrees() == [3, 1]
    report = check_bb_cocycle(module, cocycle)
    assert report.passed, failures(report)
    assert [e.name for e in report.entries][-1] == "B of the bottom component = 0"
    assert bb_digest(cocycle) == \
        "aaedcca73a83c6b96cf3de1db3b9cf45ee326974a729ee4da4420a8f63229659"


def test_cocycle_check_names_its_first_residual(demo_setups):
    """A failing entry names the first nonzero coordinate of its residual."""
    target = demo_setups[0].scalar_target
    report = check_bb_cocycle(target, BBcocycle(1, ((1, 0, 0, 0),)))
    assert [(e.name, e.passed, e.detail) for e in report.entries] == [
        ("components reach degree 0 or 1", True, ""),
        ("b y0 = 0", False, "first residual 1 at coordinate '1⊗1⊗1*'"),
        ("B of the bottom component = 0", False, "first residual 1 at coordinate '1*'")]
    report = check_bb_cocycle(target, BBcocycle(2, ((1,) + (0,) * 7, (0, 0))))
    assert [(e.name, e.passed, e.detail) for e in report.entries] == [
        ("components reach degree 0 or 1", True, ""),
        ("b y0 = 0", False, "first residual 1 at coordinate '1⊗1⊗g⊗g*'"),
        ("B y0 + b y1 = 0 (into degree 1)", True, "")]


def test_cup_normalizes_a_degenerate_cyclic_input():
    """The comodule-side cocycle (1, 1, 1, 0) of the demo's aa family is
    closed and cyclic in degree 2 but not normalized; the product is that of
    its normalization (0, 0, 0, -1)."""
    spec = parse_spec(Z2CUP)
    setup = aa_cup_setup(spec.algebras["signed-line"], spec.comodule_algebras["crossed-z2"],
                         spec.pairs["grouplike"], degree_cap=4)
    side = setup.bicomplex.vertical_factor
    degenerate, normalized = [1, 1, 1, 0], [0, 0, 0, -1]
    assert any(any(side.degeneracy(2, j).apply(degenerate)) for j in range(2))
    assert normalization_projector(side, 2).apply(degenerate) == normalized
    for product in (cup_aa, cup_aa_general):
        result = product(setup, 2, 1, degenerate, [0, 1])
        assert any(result.components[0])
        assert result == product(setup, 2, 1, normalized, [0, 1])


def test_completion_of_generator(triv):
    module = plain_algebra_cocyclic(triv.algebra, degree_cap=3)
    generator = cyclic_cohomology(module, 2).representatives[0]
    cocycle = cyclic_complete(module, 2, generator)
    assert cocycle.components == ((Fraction(1),), (Fraction(0),))
    report = check_bb_cocycle(module, cocycle)
    assert report.passed, failures(report)


def test_cohomologous_controls(triv):
    module = plain_algebra_cocyclic(triv.algebra, degree_cap=3)
    generator = cyclic_cohomology(module, 2).representatives[0]
    one = cyclic_complete(module, 2, generator)
    double = cyclic_complete(module, 2, [2 * x for x in generator])
    zero = BBcocycle(2, ((Fraction(0),), (Fraction(0),)))
    assert bb_cohomologous(module, one, one)
    assert not bb_cohomologous(module, one, zero)
    assert not bb_cohomologous(module, one, double)


def test_cohomologous_refuses_malformed_cocycles(demo_setups):
    """A short or missing component is refused, not padded with zeros."""
    target = demo_setups[0].scalar_target
    a = BBcocycle(2, ((0,) * 8, (0,) * 2))
    assert bb_cohomologous(target, a, a)
    for malformed in (BBcocycle(2, ((0,) * 8, (0,))), BBcocycle(2, ((0,) * 8,))):
        for first, second in ((a, malformed), (malformed, a)):
            with pytest.raises(LinAlgError):
                bb_cohomologous(target, first, second)


def test_cocycle_check_refuses_malformed_cocycles(demo_setups):
    """No components, components below degree 0 and a degree above the cap
    are refused; a cocycle that stops early fails its report entry."""
    target = demo_setups[0].scalar_target
    for malformed in (BBcocycle(2, ()), BBcocycle(2, ((0,) * 8, (0,) * 2, (0,))),
                      BBcocycle(5, ((0,) * 64, (0,) * 16, (0,) * 4))):
        with pytest.raises(LinAlgError):
            check_bb_cocycle(target, malformed)
    report = check_bb_cocycle(target, BBcocycle(2, ((0,) * 8,)))
    assert failures(report) == ["components reach degree 0 or 1"]
    assert check_bb_cocycle(target, BBcocycle(2, ((0,) * 8, (0,) * 2))).passed


def test_completion_refuses_a_degree_outside_the_tower(triv):
    module = plain_algebra_cocyclic(triv.algebra, degree_cap=3)
    for degree in (4, -1):
        with pytest.raises(LinAlgError, match=rf"^the top component in degree {degree} "
                                              r"\(defined in degrees 0..3\) is outside the "
                                              r"tower, which is capped at degree 3$"):
            cyclic_complete(module, degree, [0])


def test_cocycle_plus_coboundary_passes_the_check():
    # (b + B) of a normalized chain x0 in degree 1 shifts the components of a
    # degree-2 cocycle by b x0 and B x0; the check then sums two nonzero vectors
    module = plain_algebra_cocyclic(sweedler_h4().algebra, degree_cap=3)
    cocycle = cyclic_complete(module, 2, cyclic_cocycle_subspace(module, 2).basis.column(0))
    rng = random.Random(7)
    chain = normalization_projector(module, 1).apply(
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(module.spaces[1].dim)])
    shifts = (full_b(module, 1).apply(chain), full_B(module, 1).apply(chain))
    shifted = BBcocycle(2, tuple(tuple(a + b for a, b in zip(comp, shift))
                                 for comp, shift in zip(cocycle.components, shifts)))
    assert any(full_B(module, 2).apply(shifted.components[0]))
    assert any(full_b(module, 0).apply(shifted.components[1]))
    report = check_bb_cocycle(module, shifted)
    assert report.passed, failures(report)
    assert bb_cohomologous(module, shifted, cocycle)


def test_cocycle_subspace_dimensions(setup_ac_grouplike, setup_aa_grouplike):
    xmod = setup_ac_grouplike.algebra_cochains.module
    ymod = setup_ac_grouplike.coalgebra_cochains.module
    assert [cyclic_cocycle_subspace(xmod, d).dim
            for d in range(3)] == [0, 1, 0]
    assert [cyclic_cocycle_subspace(ymod, d).dim
            for d in range(3)] == [0, 1, 0]
    pmod = setup_aa_grouplike.comodule_cochains.module
    assert [cyclic_cocycle_subspace(pmod, d).dim
            for d in range(3)] == [1, 0, 1]
    with pytest.raises(LinAlgError):
        cyclic_cocycle_subspace(xmod, 3)



# ------------------------------------------- constraint-row completion reference


def reference_cyclic_complete(module: CocyclicModule, degree: int, top) -> BBcocycle:
    """Extend a b-closed top cochain to a full (b, B)-cocycle.

    All lower components are solved for in one exact linear system (they are
    constrained to the normalized subspaces, which pins the solution), so the
    result is deterministic.  An infeasible system raises
    `CompletionObstruction` carrying the first obstructed component degree and
    a residual witness.
    """
    _require_degree(module, degree, "the top component")
    y0 = _as_vector(top, module.spaces[degree].dim, "top component")
    degrees = list(range(degree, -1, -2))
    rows = _bb_rows(module, degrees)
    if degree < module.degree_cap:
        (_, closed), *rows = rows
        if not _vector_is_zero(closed[0].apply(y0)):
            raise LinAlgError(
                "the top component is not closed under the Hochschild coboundary")

    tail_degrees = degrees[1:]
    if not tail_degrees:
        for _, bottom in rows:  # B y0 into degree 0, when the degree is 1
            residual = bottom[0].apply(y0)
            if not _vector_is_zero(residual):
                raise CompletionObstruction(0, residual)
        return BBcocycle(degree, (tuple(y0),))

    # unknown k is component k + 1, of degree tail_degrees[k]; each b + B row
    # precedes the codegeneracy rows of its new unknown, so the equations on
    # unknowns 0..t-1 alone come first, as equations[:ends[t]]
    unknowns = [module.spaces[d] for d in tail_degrees]
    offsets = list(itertools.accumulate((u.dim for u in unknowns), initial=0))
    shifted = [(module.spaces[target], {k - 1: m for k, m in blocks.items() if k})
               for target, blocks in rows]
    equations, ends = [], [0]
    for k, d in enumerate(tail_degrees):
        equations.append(shifted[k])
        equations += [(module.spaces[d - 1], {k: module.degeneracy(d, j)}) for j in range(d)]
        ends.append(len(equations))
    equations += shifted[len(tail_degrees):]
    # the first equation, b u0 = -B y0, carries the only nonzero right-hand side
    top_boundary = rows[0][1][0].apply(y0)
    rhs = [-x for x in top_boundary]

    sol = _solve_blocks(unknowns, equations, rhs)
    if sol is None:
        for t in range(1, len(tail_degrees) + 1):
            if _solve_blocks(unknowns, equations[:ends[t]], rhs) is None:
                if t == 1:
                    witness = top_boundary
                else:
                    prev = _solve_blocks(unknowns, equations[:ends[t - 1]], rhs)
                    witness = full_B(module, tail_degrees[t - 2]).apply(
                        prev[offsets[t - 2]:offsets[t - 1]])
                raise CompletionObstruction(tail_degrees[t - 1], witness)
        last = _solve_blocks(unknowns, equations[:ends[-1]], rhs)
        raise CompletionObstruction(0, full_B(module, 1).apply(last[offsets[-2]:]))

    components = [tuple(y0)]
    components += [tuple(sol[offsets[k]:offsets[k + 1]]) for k in range(len(tail_degrees))]
    return BBcocycle(degree, tuple(components))


def completion_outcome(complete, module, degree, top):
    """What a completion function makes of one input: its components, its
    obstruction's degree and residual, or its refusal's type and message."""
    try:
        return ("cocycle", complete(module, degree, top).components)
    except CompletionObstruction as err:
        return ("obstruction", err.degree, err.residual, str(err))
    except LinAlgError as err:
        return (type(err).__name__, str(err))


def sparse_vector(rng, dim, density):
    return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else 0
            for _ in range(dim)]


def random_rigged_case(rng):
    """A `_rigged_matrices` module at cap 2 to 5 on spaces of dimension 1 or 2
    with random sparse cofaces (none at all out of about half the degrees),
    codegeneracies (mostly the last one) and cyclic operators, a degree from 1
    to the cap, and a top there: mostly a random b-closed vector, else a
    random one.  Seed 1602 reaches every obstruction path of the reference."""
    dims = [rng.randint(1, 2) for _ in range(rng.randint(3, 6))]
    cap = len(dims) - 1
    face_density = [rng.choice((0, 0.7)) for _ in range(cap)]

    def rows(source, target):
        return [[rng.choice((0, 0, 1, -1, 2)) for _ in range(dims[source])]
                for _ in range(dims[target])]
    module = _rigged_matrices(
        dims,
        faces=[((n, i), rows(n, n + 1)) for n in range(cap) for i in range(n + 2)
               if rng.random() < face_density[n]],
        degeneracies=[((n, j), rows(n, n - 1)) for n in range(1, cap + 1) for j in range(n)
                      if rng.random() < (0.9 if j == n - 1 else 0.3)],
        cyclic=[(n, rows(n, n)) for n in range(cap + 1) if rng.random() < 0.9])
    degree = rng.randint(1, cap)
    top = sparse_vector(rng, dims[degree], 0.7)
    if degree < cap and rng.random() < 0.8:
        closed = subspace_from_kernel(full_b(module, degree)).basis
        top = closed.apply([rng.choice((1, -1, 2)) for _ in range(closed.source.dim)])
    return module, degree, top


class TestConstraintRowReference:
    """`cyclic_complete` agrees exactly with the constraint-row system above:
    the same components, the same obstruction degree and residual, or the
    same refusal."""

    def test_plain_towers_match_the_reference(self):
        rng = random.Random(1601)
        seen = set()
        for algebra, cap in ((group_algebra(cyclic_group_table(2)).algebra, 5),
                             (group_algebra(cyclic_group_table(3)).algebra, 5),
                             (sweedler_h4().algebra, 5),
                             (group_algebra(symmetric_group_table(3)).algebra, 4)):
            module = plain_algebra_cocyclic(algebra, degree_cap=cap)
            for degree in range(cap + 1):
                dim = module.spaces[degree].dim
                tops = [sparse_vector(rng, dim, 3 / dim) for _ in range(3)]
                if degree < cap:
                    cocycles = cyclic_cocycle_subspace(module, degree).basis
                    classes = list(cyclic_cohomology(module, degree).representatives)
                    closed = [cocycles.column(j) for j in range(cocycles.source.dim)] + classes
                    tops += closed
                    tops += [[sum(rng.randint(-2, 2) * v[i] for v in closed) for i in range(dim)]
                             for _ in range(2)]
                for top in tops:
                    got = completion_outcome(cyclic_complete, module, degree, top)
                    assert got == completion_outcome(reference_cyclic_complete,
                                                     module, degree, top), (degree, top)
                    seen.add(got[0])
        assert seen == {"cocycle", "obstruction", "LinAlgError"}

    def test_rigged_modules_match_the_reference(self):
        rng = random.Random(1602)
        seen = set()
        for _ in range(1200):
            module, degree, top = random_rigged_case(rng)
            got = completion_outcome(cyclic_complete, module, degree, top)
            assert got == completion_outcome(reference_cyclic_complete, module, degree, top)
            seen.add(got[0] if got[0] != "cocycle" else
                     "cocycle with a tail" if any(map(any, got[1][1:])) else "cocycle")
        assert seen == {"cocycle", "cocycle with a tail", "obstruction", "LinAlgError"}


def reference_cyclic_cocycle_subspace(module: CocyclicModule, degree: int):
    """Normalized cochains killed by b with cyclic eigenvalue (-1)^degree,
    as one joint kernel of b, 1 - lambda and every codegeneracy."""
    _require_degree(module, degree, "the cocycle subspace", high=module.degree_cap - 1)
    lam = module.tau(degree).scale(Fraction((-1) ** degree))
    constraints = [full_b(module, degree),
                   LinearMap.identity(module.spaces[degree]) - lam]
    constraints += list(module.degeneracies[degree])
    return solve_constrained_subspace(module.spaces[degree], constraints, prefix="z")


def cocycle_subspace_towers():
    """Plain towers of Z/2, Z/3 and sweedler4 at cap 4 and of S3 at cap 3,
    the equivariant construction of demo/z2_cup.json, and the factor and
    both target towers of its two cup setups, at the spec's cap 3."""
    yield from (plain_algebra_cocyclic(algebra, degree_cap=cap) for algebra, cap in (
        (group_algebra(cyclic_group_table(2)).algebra, 4),
        (group_algebra(cyclic_group_table(3)).algebra, 4),
        (sweedler_h4().algebra, 4),
        (group_algebra(symmetric_group_table(3)).algebra, 3)))
    spec = parse_spec(Z2CUP)
    yield spec.build_construction("regular-cochains", 3)
    for family in ("ac", "aa"):
        setup = spec.build_cup_setup(family, 3)
        yield from (setup.bicomplex.vertical_factor, setup.bicomplex.horizontal_factor,
                    setup.scalar_target, setup.tensor_target)


def test_cyclic_cocycle_subspace_matches_the_constraint_stack():
    """Solving b and 1 - lambda on the normalized coordinates gives the same
    RREF basis, supports and labels as stacking the codegeneracies beside them."""
    cases = 0
    for module in cocycle_subspace_towers():
        for degree in range(module.degree_cap):
            got = cyclic_cocycle_subspace(module, degree)
            want = reference_cyclic_cocycle_subspace(module, degree)
            assert got.basis == want.basis, degree
            assert got.supports == want.supports, degree
            assert (got.space, got.ambient) == (want.space, want.ambient), degree
            cases += 1
    assert cases == 42


# ----------------------------------------------------------- input validation


def test_cup_rejects_non_cocycle(setup_ac_grouplike):
    with pytest.raises(LinAlgError, match="not closed under the Hochschild"):
        cup_ac(setup_ac_grouplike, 1, 1, [1, 0], [-1, 1])
    with pytest.raises(LinAlgError, match="not closed under the Hochschild"):
        cup_ac(setup_ac_grouplike, 1, 1, [0, 1], [1, 1])


def test_float_inputs_are_rejected(triv, setup_ac_grouplike):
    module = plain_algebra_cocyclic(triv.algebra, degree_cap=3)
    with pytest.raises(LinAlgError, match="not an exact rational"):
        cyclic_complete(module, 2, [0.1])
    with pytest.raises(LinAlgError, match="not an exact rational"):
        cup_ac(setup_ac_grouplike, 1, 1, [0.0, 1.0], [-1, 1])
    for exact in (1, Fraction(1, 3), "1/3"):
        assert cyclic_complete(module, 2, [exact]).degree == 2
    assert cup_ac(setup_ac_grouplike, 1, 1, ["0", "1"], [-1, Fraction(1)]).degree == 2


def test_cup_rejects_wrong_length(setup_ac_grouplike):
    with pytest.raises(LinAlgError, match="has length 3, expected 2"):
        cup_ac(setup_ac_grouplike, 1, 1, [1, 0, 0], [-1, 1])


def test_cup_rejects_excessive_degree(setup_ac_grouplike):
    top_dim = setup_ac_grouplike.algebra_cochains.module.spaces[2].dim
    with pytest.raises(LinAlgError, match=r"^the coalgebra-side cochain in degree 1 \(defined "
                                          r"in degrees 0..0\) is outside the tower, which is "
                                          r"capped at degree 3$"):
        cup_ac(setup_ac_grouplike, 2, 1, [0] * top_dim, [-1, 1])


def test_completion_refuses_a_top_that_is_not_closed(triv):
    """Over Q the degree-1 coboundary is d0 - d1 + d2 = 1, so no nonzero
    degree-1 top is closed."""
    module = plain_algebra_cocyclic(triv.algebra, degree_cap=3)
    with pytest.raises(LinAlgError, match="^the top component is not closed under the "
                                          "Hochschild coboundary$"):
        cyclic_complete(module, 1, [1])


def test_cohomologous_compares_equal_degrees_only(triv):
    module = plain_algebra_cocyclic(triv.algebra, degree_cap=3)
    one, two = BBcocycle(0, ((1,),)), BBcocycle(0, ((2,),))
    assert bb_cohomologous(module, one, one)
    assert bb_cohomologous(module, one, BBcocycle(0, ((Fraction(1),),)))
    assert not bb_cohomologous(module, one, two)
    with pytest.raises(LinAlgError, match="^cannot compare cocycles of different degrees$"):
        bb_cohomologous(module, BBcocycle(1, ((0,),)), BBcocycle(2, ((0,), (0,))))


def test_cup_rejects_a_closed_cochain_that_is_not_cyclic(setup_ac_grouplike):
    """(1, -1, -1, 1) is closed in degree 2 of the algebra-side tower, but
    the cyclic operator sends it to (1, 1, -1, -1)."""
    right = [0] * setup_ac_grouplike.bicomplex.horizontal_factor.spaces[0].dim
    with pytest.raises(LinAlgError, match="^the algebra-side cochain is not cyclic: the cyclic "
                                          "operator does not act on it by 1$"):
        cup_ac(setup_ac_grouplike, 2, 0, [1, -1, -1, 1], right)


def test_cup_rejects_negative_degrees(setup_ac_grouplike):
    for p, q, side, high in ((-1, 1, "algebra", 2), (1, -1, "coalgebra", 1)):
        with pytest.raises(LinAlgError, match=rf"^the {side}-side cochain in degree -1 \(defined "
                                              rf"in degrees 0..{high}\) is outside the tower, "
                                              r"which is capped at degree 3$"):
            cup_ac(setup_ac_grouplike, p, q, [0, 1], [-1, 1])


def test_unpaired_crossed_setup_refuses_the_scalar_product(z2, sign_action):
    algebra = ModuleAlgebra(z2, z2.space, z2.mul, z2.unit, sign_action)
    comodule = ComoduleAlgebra(z2, z2.space, z2.mul, z2.unit, regular_coaction(z2))
    pair = grouplike_coefficients(z2, 1)
    setup = aa_cup_setup(algebra, comodule, (pair.module, pair.contramodule), degree_cap=3)
    refusal = ("^no compatible pairing was provided; use the contratensor-valued product "
               "cup_ac_general or cup_aa_general$")
    with pytest.raises(LinAlgError, match=refusal):
        cup_aa(setup, 0, 1, [0] * setup.bicomplex.vertical_factor.spaces[0].dim, [0, 1])
    for scalar in (lambda: check_collapse_factorization(setup),
                   lambda: phi_matrix(setup, 1, False), lambda: check_phi(setup)):
        with pytest.raises(LinAlgError, match=refusal):
            scalar()


@pytest.mark.parametrize("other", ["algebra", "coalgebra"])
def test_ac_setup_refuses_an_action_on_other_structures(triv, z2, z2_convolution_data, other):
    """The coalgebra action must be one of the given coalgebra on the given
    algebra; the one-dimensional algebra or coalgebra in its place is refused."""
    algebra, coalgebra, action = z2_convolution_data
    point = trivial_action(z2, triv.space)
    if other == "algebra":
        algebra = ModuleAlgebra(z2, triv.space, triv.mul, triv.unit, point)
    else:
        coalgebra = ModuleCoalgebra(z2, triv.space, triv.comul, triv.counit, point)
    with pytest.raises(LinAlgError, match="^the coalgebra action does not match the given "
                                          "algebra and coalgebra$"):
        ac_cup_setup(algebra, coalgebra, action, trivial_coefficients(z2), degree_cap=2)


def test_aa_setup_refuses_algebras_over_two_hopf_algebras(z2, sign_action):
    h = sweedler_h4()
    algebra = ModuleAlgebra(z2, z2.space, z2.mul, z2.unit, sign_action)
    comodule = ComoduleAlgebra(h, h.space, h.mul, h.unit, regular_coaction(h))
    with pytest.raises(LinAlgError, match="^the two algebras live over different Hopf algebras$"):
        aa_cup_setup(algebra, comodule, trivial_coefficients(z2), degree_cap=2)
