"""Acceptance gate: one test and one printed summary line per criterion.

Each test records its verdict in the shared ``acceptance_results`` mapping
before asserting, so the terminal summary always shows one pass/fail line per
criterion, and then fails loudly if the criterion is not met.  Everything is
exact; the only tolerances are the wall-clock budgets the criteria themselves
impose.
"""

import functools
import json
import time
from fractions import Fraction
from pathlib import Path

import sympy

from hopfcyclic.cli import main as cli_main
from hopfcyclic.coefficients import (
    check_compatible_pair,
    check_sayd_contramodule,
    check_sayd_module,
    grouplike_coefficients,
    trivial_coefficients,
)
from hopfcyclic.cocyclic import (
    algebra_contra_cocyclic,
    algebra_module_cocyclic,
    check_dualization,
    check_mixed_complex,
    coalgebra_cocyclic,
    comodule_algebra_cocyclic,
    cyclic_cohomology,
    dualization_isomorphism,
    hochschild_cohomology,
    mixed_complex,
    plain_algebra_cocyclic,
    verify_cocyclic,
)
from hopfcyclic.cup import (
    aa_cup_setup,
    ac_cup_setup,
    bb_cohomologous,
    check_aw_chain_map,
    check_bb_cocycle,
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
    diagonal,
    tensor_bicocyclic,
    total_complex,
)
from hopfcyclic.hopf import (
    CoalgebraAction,
    ComoduleAlgebra,
    ModuleAlgebra,
    ModuleCoalgebra,
    adjoint_action,
    check_hopf_axioms,
    cyclic_group_table,
    group_algebra,
    left_regular_action,
    regular_coaction,
    sweedler_h4,
    symmetric_group_table,
    trivial_action,
    trivial_hopf,
)
from hopfcyclic.linalg import LinearMap, tensor_space

CAP = 4
DEMO = Path(__file__).resolve().parent.parent / "demo"
GOLDEN = Path(__file__).resolve().parent / "data" / "catalog_report.json"


def record(results, number, passed, text):
    results[number] = (passed, text)
    assert passed, f"criterion {number}: {text}"


def failures(report):
    return [e.name for e in report.entries if not e.passed]


def basis_cocycle(module, degree):
    sub = cyclic_cocycle_subspace(module, degree)
    if sub.dim:
        return sub.basis.column(0)
    return [0] * module.spaces[degree].dim


# ------------------------------------------------------------ shared builders


@functools.lru_cache(maxsize=None)
def _hopf():
    return (trivial_hopf(),
            group_algebra(cyclic_group_table(2), labels=["1", "g"]),
            group_algebra(symmetric_group_table(3)),
            sweedler_h4())


@functools.lru_cache(maxsize=None)
def _sign_algebra():
    _, z2, _, _ = _hopf()
    action = LinearMap.from_rows(
        tensor_space(z2.space, z2.space), z2.space,
        [[1, 0, 1, 0], [0, 1, 0, -1]])
    return ModuleAlgebra(z2, z2.space, z2.mul, z2.unit, action)


@functools.lru_cache(maxsize=None)
def _identity_suite():
    """All four equivariant constructions over the trivial data for the
    one-dimensional Hopf algebra and the regular/adjoint structures over the
    order-two group algebra with the trivial pair, plus the plain towers."""
    triv, z2, _, _ = _hopf()
    tp_q = trivial_coefficients(triv)
    tp_z = trivial_coefficients(z2)
    c_q = ModuleCoalgebra(triv, triv.space, triv.comul, triv.counit,
                          trivial_action(triv, triv.space))
    a_q = ModuleAlgebra(triv, triv.space, triv.mul, triv.unit,
                        trivial_action(triv, triv.space))
    b_q = ComoduleAlgebra(triv, triv.space, triv.mul, triv.unit,
                          regular_coaction(triv))
    c_z = ModuleCoalgebra(z2, z2.space, z2.comul, z2.counit,
                          left_regular_action(z2))
    a_z = ModuleAlgebra(z2, z2.space, z2.mul, z2.unit, adjoint_action(z2))
    b_z = ComoduleAlgebra(z2, z2.space, z2.mul, z2.unit, regular_coaction(z2))
    return {
        "coalgebra over Q": coalgebra_cocyclic(c_q, tp_q.module, CAP).module,
        "module functionals over Q":
            algebra_module_cocyclic(a_q, tp_q.module, CAP).module,
        "comodule maps over Q":
            comodule_algebra_cocyclic(b_q, tp_q.module, CAP).module,
        "contramodule maps over Q":
            algebra_contra_cocyclic(a_q, tp_q.contramodule, CAP).module,
        "coalgebra over Z/2": coalgebra_cocyclic(c_z, tp_z.module, CAP).module,
        "module functionals over Z/2":
            algebra_module_cocyclic(a_z, tp_z.module, CAP).module,
        "comodule maps over Z/2":
            comodule_algebra_cocyclic(b_z, tp_z.module, CAP).module,
        "contramodule maps over Z/2":
            algebra_contra_cocyclic(a_z, tp_z.contramodule, CAP).module,
        "plain Q": plain_algebra_cocyclic(triv.algebra, degree_cap=CAP),
        "plain Z/2": plain_algebra_cocyclic(z2.algebra, degree_cap=CAP),
    }


@functools.lru_cache(maxsize=None)
def _grouplike_setups():
    """Convolution and crossed-product cup setups over the order-two group
    algebra with the grouplike coefficient pair, at the full degree cap."""
    _, z2, _, _ = _hopf()
    algebra = _sign_algebra()
    coalgebra = ModuleCoalgebra(z2, z2.space, z2.comul, z2.counit,
                                left_regular_action(z2))
    action = CoalgebraAction(coalgebra, algebra, algebra.action)
    gp = grouplike_coefficients(z2, 1)
    ac = ac_cup_setup(algebra, coalgebra, action, gp, degree_cap=CAP)
    comodule = ComoduleAlgebra(z2, z2.space, z2.mul, z2.unit,
                               regular_coaction(z2))
    aa = aa_cup_setup(algebra, comodule, gp, degree_cap=CAP)
    return ac, aa


@functools.lru_cache(maxsize=None)
def _bicomplex_towers():
    """(name, total mixed complex, diagonal module) for every bicocyclic
    module the suite constructs."""
    triv, _, _, _ = _hopf()
    ac, aa = _grouplike_setups()
    line = plain_algebra_cocyclic(triv.algebra, degree_cap=CAP)
    point = tensor_bicocyclic(line, line)
    return (
        ("point", total_complex(point), diagonal(point)),
        ("convolution", total_complex(ac.bicomplex), ac.diagonal_module),
        ("crossed", total_complex(aa.bicomplex), aa.diagonal_module),
    )


@functools.lru_cache(maxsize=None)
def _trivial_setups():
    """The same convolution/crossed data with the trivial compatible pair."""
    _, z2, _, _ = _hopf()
    algebra = _sign_algebra()
    coalgebra = ModuleCoalgebra(z2, z2.space, z2.comul, z2.counit,
                                left_regular_action(z2))
    action = CoalgebraAction(coalgebra, algebra, algebra.action)
    tp = trivial_coefficients(z2)
    ac = ac_cup_setup(algebra, coalgebra, action, tp, degree_cap=3)
    comodule = ComoduleAlgebra(z2, z2.space, z2.mul, z2.unit,
                               regular_coaction(z2))
    aa = aa_cup_setup(algebra, comodule, tp, degree_cap=3)
    return ac, aa


@functools.lru_cache(maxsize=None)
def _s3_setups():
    """Cup setups over the one-dimensional Hopf algebra with the symmetric
    group algebra as the only interesting factor (unit-class transport)."""
    triv, _, s3, _ = _hopf()
    algebra = ModuleAlgebra(triv, s3.space, s3.mul, s3.unit,
                            trivial_action(triv, s3.space))
    coalgebra = ModuleCoalgebra(triv, triv.space, triv.comul, triv.counit,
                                trivial_action(triv, triv.space))
    action = CoalgebraAction(coalgebra, algebra, trivial_action(triv, s3.space))
    comodule = ComoduleAlgebra(triv, triv.space, triv.mul, triv.unit,
                               regular_coaction(triv))
    tp = trivial_coefficients(triv)
    return (ac_cup_setup(algebra, coalgebra, action, tp, degree_cap=2),
            aa_cup_setup(algebra, comodule, tp, degree_cap=2))


# ----------------------------------------------------------------- criteria


def test_criterion_01_axiom_suites(acceptance_results):
    start = time.perf_counter()
    triv, z2, s3, h4 = _hopf()
    ok = all(check_hopf_axioms(h).passed for h in (triv, z2, s3, h4))
    pairs = [trivial_coefficients(triv), trivial_coefficients(z2),
             trivial_coefficients(s3), grouplike_coefficients(z2, 1),
             grouplike_coefficients(h4, 1)]
    for pair in pairs:
        ok = ok and check_sayd_module(pair.module).passed
        ok = ok and check_sayd_contramodule(pair.contramodule).passed
        ok = ok and check_compatible_pair(pair).passed
    elapsed = time.perf_counter() - start
    record(acceptance_results, 1, ok and elapsed < 5.0,
           f"axiom suites: 4 Hopf algebras, 5 coefficient pairs, "
           f"{elapsed:.2f}s (budget 5s)")


def test_criterion_02_cocyclic_identities(acceptance_results):
    start = time.perf_counter()
    suite = _identity_suite()
    ok = True
    for name, module in suite.items():
        report = verify_cocyclic(module, name)
        ok = ok and report.passed
        ok = ok and any(e.name.startswith("t^") and "= id" in e.name
                        for e in report.entries)
    elapsed = time.perf_counter() - start
    record(acceptance_results, 2, ok and elapsed < 60.0,
           f"every cosimplicial/cyclic identity on {len(suite)} towers at "
           f"degree cap {CAP}, {elapsed:.2f}s (budget 60s)")


def test_criterion_03_functional_dualization(acceptance_results):
    _, z2, _, _ = _hopf()
    iso = dualization_isomorphism(_sign_algebra(),
                                  trivial_coefficients(z2).module,
                                  degree_cap=3)
    report = check_dualization(iso)
    record(acceptance_results, 3, report.passed,
           "functional/dual-valued towers isomorphic through degree 3 "
           "(round trips and all structure maps); "
           + ("no failures" if report.passed else f"failed: {failures(report)}"))


def test_criterion_04_mixed_complex_laws(acceptance_results):
    ok = True
    count = 0
    modules = dict(_identity_suite())
    for name, total, diag in _bicomplex_towers():
        modules[f"{name} diagonal"] = diag
    for name, module in modules.items():
        report = check_mixed_complex(mixed_complex(module), name)
        ok = ok and report.passed
        count += 1
    towers = 0
    for name, total, diag in _bicomplex_towers():
        report = check_total_mixed_complex(total, name)
        ok = ok and report.passed
        towers += 1
    record(acceptance_results, 4, ok,
           f"b/B laws on {count} cocyclic modules and total-complex laws on "
           f"{towers} bicocyclic modules at degree cap {CAP}")


def test_criterion_05_comparison_chain_map(acceptance_results):
    ok = True
    for name, total, diag in _bicomplex_towers():
        report = check_aw_chain_map(total, diag, name)
        ok = ok and report.passed
    record(acceptance_results, 5, ok,
           "comparison map intertwines the coboundaries on normalized "
           "complexes for all bidegrees with p+q <= 3")


def test_criterion_06_cyclic_comparison_maps(acceptance_results):
    ac, aa = _grouplike_setups()
    reports = [check_psi(ac), check_psi(ac, tensor_valued=True),
               check_phi(aa), check_phi(aa, tensor_valued=True),
               check_collapse_factorization(ac),
               check_collapse_factorization(aa)]
    ok = all(r.passed for r in reports)
    well_defined = any(
        e.name.startswith("well defined on the relation subspace")
        for r in reports[:2] for e in r.entries)
    record(acceptance_results, 6, ok and well_defined,
           "comparison maps (scalar and contratensor-valued) commute with "
           "d0, the last codegeneracy and t through degree 3; "
           "well-definedness on the relation subspace verified")


def test_criterion_07_cup_pipelines(acceptance_results):
    ac, aa = _grouplike_setups()
    ok = True
    # (b, B)-cocycle invariants for every scalar and general product with
    # cyclic-cocycle inputs of degrees p, q <= 1.
    cases = [(ac, cup_ac, cup_ac_general,
              ac.algebra_cochains.module, ac.coalgebra_cochains.module),
             (aa, cup_aa, cup_aa_general,
              aa.comodule_cochains.module, aa.algebra_cochains.module)]
    for setup, scalar_cup, general_cup, xmod, ymod in cases:
        for p in (0, 1):
            for q in (0, 1):
                left = basis_cocycle(xmod, p)
                right = basis_cocycle(ymod, q)
                out = scalar_cup(setup, p, q, left, right)
                ok = ok and check_bb_cocycle(setup.scalar_target, out).passed
                general = general_cup(setup, p, q, left, right)
                ok = ok and check_bb_cocycle(setup.tensor_target, general).passed
    # Unit-class cups over the one-dimensional Hopf algebra reproduce the
    # transported input exactly.
    s3_ac, s3_aa = _s3_setups()
    unit = [Fraction(1)]
    phi1 = basis_cocycle(s3_ac.algebra_cochains.module, 1)
    ok = ok and any(v != 0 for v in phi1)
    out = cup_ac(s3_ac, 1, 0, phi1, unit)
    ok = ok and list(out.components[0]) == list(phi1) and len(out.components) == 1
    phi0 = basis_cocycle(s3_ac.algebra_cochains.module, 0)
    out0 = cup_ac(s3_ac, 0, 0, phi0, unit)
    ok = ok and list(out0.components[0]) == list(phi0)
    psi0 = basis_cocycle(s3_aa.comodule_cochains.module, 0)
    s3_phi = basis_cocycle(s3_aa.algebra_cochains.module, 1)
    out_aa = cup_aa(s3_aa, 0, 1, psi0, s3_phi)
    dim = s3_aa.algebra.space.dim
    expected = [psi0[0] * Fraction(s3_phi[i0 * dim + i1])
                for i0 in range(dim) for i1 in range(dim)]
    ok = ok and list(out_aa.components[0]) == expected
    # Coboundary-perturbed inputs give cohomologous outputs.
    phi = basis_cocycle(ac.algebra_cochains.module, 1)
    omega = basis_cocycle(ac.coalgebra_cochains.module, 1)
    ok = ok and phi == [0, 1] and omega == [-1, 1]
    reference = cup_ac(ac, 1, 1, phi, omega)
    shifted = cup_ac(ac, 1, 1, [0, 3], [-2, 2])
    ok = ok and bb_cohomologous(ac.scalar_target, shifted, reference)
    record(acceptance_results, 7, ok,
           "cup outputs are (b, B)-cocycles for p, q <= 1; unit-class cups "
           "transport exactly; coboundary-perturbed inputs land in the same "
           "class")


def test_criterion_08_collapse_consistency(acceptance_results):
    ac, aa = _trivial_setups()
    ok = True
    saw_nonzero = False
    cases = [(ac, cup_ac, cup_ac_general, ac.algebra_cochains.module,
              ac.coalgebra_cochains.module, ac.algebra.space),
             (aa, cup_aa, cup_aa_general, aa.comodule_cochains.module,
              aa.algebra_cochains.module, aa.crossed.space)]
    for setup, scalar_cup, general_cup, xmod, ymod, base in cases:
        for p in (0, 1):
            for q in (0, 1):
                left = basis_cocycle(xmod, p)
                right = basis_cocycle(ymod, q)
                scalar = scalar_cup(setup, p, q, left, right)
                general = general_cup(setup, p, q, left, right)
                collapsed = collapse_bb(general, base, setup.pair_collapse)
                ok = ok and collapsed.components == scalar.components
                if any(any(v != 0 for v in c) for c in scalar.components):
                    saw_nonzero = True
    record(acceptance_results, 8, ok and saw_nonzero,
           "trivial compatible pair: collapsing the general pipeline equals "
           "the scalar pipeline componentwise for all p, q <= 1 "
           "(with nonzero witnesses)")


def _lambda_complex_oracle():
    """Independent cyclic-cohomology dimensions for plain cochains of the
    ground field: sympy ranks on the invariant subcomplex, built from first
    principles (all cofaces are the scalar 1, the cyclic operator is 1)."""
    invariants = []
    coboundaries = []
    for n in range(CAP + 1):
        lam = sympy.Matrix([[(-1) ** n]])
        basis = (sympy.eye(1) - lam).nullspace()
        invariants.append(sympy.Matrix.hstack(*basis)
                          if basis else sympy.zeros(1, 0))
        b_scalar = sum((-1) ** i for i in range(n + 2))
        coboundaries.append(sympy.Matrix([[b_scalar]]))
    dims = []
    for n in range(CAP):
        b_here = coboundaries[n] * invariants[n]
        closed = len(b_here.nullspace())
        exact = (coboundaries[n - 1] * invariants[n - 1]).rank() if n else 0
        dims.append(closed - exact)
    return dims


def _trace_space_oracle():
    """Independent dimension of the degree-zero cyclic cohomology of the
    order-two group algebra: the nullity of the commutator pairing built
    straight from the group multiplication table."""
    table = cyclic_group_table(2)
    n = len(table)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * n
            row[table[i][j]] += 1
            row[table[j][i]] -= 1
            rows.append(row)
    return n - sympy.Matrix(rows).rank()


def test_criterion_09_classical_sanity(acceptance_results):
    triv, z2, _, _ = _hopf()
    start = time.perf_counter()
    module = plain_algebra_cocyclic(triv.algebra, degree_cap=CAP)
    engine_dims = [cyclic_cohomology(module, n).dim for n in range(4)]
    first = time.perf_counter() - start
    oracle_dims = _lambda_complex_oracle()
    start = time.perf_counter()
    z2_module = plain_algebra_cocyclic(z2.algebra, degree_cap=1)
    engine_trace = cyclic_cohomology(z2_module, 0).dim
    second = time.perf_counter() - start
    oracle_trace = _trace_space_oracle()
    ok = (engine_dims == [1, 0, 1, 0] == oracle_dims
          and engine_trace == 2 == oracle_trace
          and hochschild_cohomology(module, 0).dim == 1
          and first < 1.0 and second < 1.0)
    record(acceptance_results, 9, ok,
           f"cyclic cohomology of the ground field is {engine_dims} "
           f"(oracle {oracle_dims}); degree-0 cyclic cohomology of the "
           f"order-2 group algebra has dim {engine_trace} (oracle "
           f"{oracle_trace}); {first:.2f}s + {second:.2f}s (budget 1s each)")


def test_criterion_10_determinism(acceptance_results, capsys):
    commands = [
        ["check", str(DEMO / "builtin_catalog.json"), "--format", "json"],
        ["cohomology", str(DEMO / "plain_rationals.json"), "point-algebra",
         "--max-degree", "3", "--format", "json"],
        ["cup", str(DEMO / "z2_cup.json"), "--variant", "ac", "--p", "1",
         "--q", "1", "--left", "phi", "--right", "omega", "--format", "json"],
    ]
    ok = True
    outputs = []
    for argv in commands:
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        ok = ok and first == second
        outputs.append(first)
    golden = GOLDEN.read_text(encoding="utf-8")
    ok = ok and outputs[0] == golden
    for out in outputs:
        json.loads(out)
    record(acceptance_results, 10, ok,
           "repeated runs produce byte-identical JSON reports, matching the "
           "committed reference report")
