"""Coefficient modules, contramodules, pairs, and the contratensor."""

from fractions import Fraction

import pytest
import sympy

from hopfcyclic.coefficients import (
    CompatiblePair,
    SaydContramodule,
    SaydModule,
    check_compatible_pair,
    check_sayd_contramodule,
    check_sayd_module,
    collapse_map,
    contramodule_stability_map,
    contratensor,
    dualize,
    evaluation_pair,
    grouplike_coefficients,
    trivial_coefficients,
)
from hopfcyclic.hopf import (
    cyclic_group_table,
    group_algebra,
    sweedler_h4,
    symmetric_group_table,
    trivial_hopf,
)
from hopfcyclic.linalg import (
    LinearMap,
    VectorSpace,
    dual_space,
    tensor_space,
    vector_from,
    vectors_equal,
)


def z2():
    return group_algebra(cyclic_group_table(2), labels=("1", "g"))


def scalar_module(h, action_signs, coaction_index):
    """One-dimensional module: basis element i of H acts by action_signs[i];
    the coaction sends n to (basis element coaction_index) (x) n."""
    space = VectorSpace(1, ("n",))
    action = LinearMap.from_rows(
        tensor_space(space, h.space), space, [list(action_signs)]
    )
    coaction = LinearMap.from_rows(
        space, tensor_space(h.space, space),
        [[1 if i == coaction_index else 0] for i in range(h.dim)],
    )
    return SaydModule(h, space, action, coaction)


def block_module(h):
    """Two-dimensional module over the order-two group algebra.

    Basis u (degree 1, the generator acts by -1) and v (degree g, the
    generator acts by +1); the direct sum of two one-dimensional coefficient
    modules, so every axiom holds.
    """
    space = VectorSpace(2, ("u", "v"))
    # source basis: u(x)1, u(x)g, v(x)1, v(x)g
    action = LinearMap.from_rows(
        tensor_space(space, h.space), space,
        [[1, -1, 0, 0], [0, 0, 1, 1]],
    )
    # u -> 1(x)u ; v -> g(x)v ; target basis 1u,1v,gu,gv
    coaction = LinearMap.from_rows(
        space, tensor_space(h.space, space),
        [[1, 0], [0, 0], [0, 0], [0, 1]],
    )
    return SaydModule(h, space, action, coaction)


def failures(report):
    return [e.name for e in report.entries if not e.passed]


class TestModuleChecker:
    def test_trivial_coefficients_pass_over_group_algebras(self):
        for h in (trivial_hopf(), z2(), group_algebra(symmetric_group_table(3))):
            pair = trivial_coefficients(h)
            assert check_sayd_module(pair.module).passed
            assert check_sayd_contramodule(pair.contramodule).passed
            assert check_compatible_pair(pair).passed

    def test_trivial_coefficients_fail_over_sweedler(self):
        # the identity requires sum S(h2)h1 = counit(h) 1, which fails at x
        pair = trivial_coefficients(sweedler_h4())
        rep = check_sayd_module(pair.module)
        assert failures(rep) == ["anti-Yetter-Drinfeld identity"]

    def test_grouplike_coefficients_pass_over_sweedler(self):
        h = sweedler_h4()
        pair = grouplike_coefficients(h, sigma=1)  # the grouplike g
        assert check_sayd_module(pair.module).passed
        assert check_sayd_contramodule(pair.contramodule).passed
        assert check_compatible_pair(pair).passed

    def test_one_dimensional_combinations_over_order_two(self):
        h = z2()
        trivial_sign, signed = (1, 1), (1, -1)
        # (action, coaction at 1) and (action, coaction at g): which are stable?
        outcomes = {}
        for name, signs, idx in (
            ("trivial/unit", trivial_sign, 0),
            ("trivial/grouplike", trivial_sign, 1),
            ("signed/unit", signed, 0),
            ("signed/grouplike", signed, 1),
        ):
            outcomes[name] = failures(check_sayd_module(scalar_module(h, signs, idx)))
        assert outcomes["trivial/unit"] == []
        assert outcomes["trivial/grouplike"] == []
        assert outcomes["signed/unit"] == []
        assert outcomes["signed/grouplike"] == ["stability"]

    def test_block_module_passes(self):
        assert check_sayd_module(block_module(z2())).passed


class TestContramoduleChecker:
    def test_dualize_passes_for_every_valid_module(self):
        h = z2()
        mods = [
            trivial_coefficients(h).module,
            grouplike_coefficients(h, 1).module,
            scalar_module(h, (1, -1), 0),
            block_module(h),
        ]
        for m in mods:
            assert check_sayd_module(m).passed
            assert check_sayd_contramodule(dualize(m)).passed

    def test_dualize_preserves_dimension(self):
        m = block_module(z2())
        assert dualize(m).dim == m.dim

    def test_dual_action_transposes_the_action(self):
        h = z2()
        m = block_module(h)
        d = dualize(m)
        for i in range(h.dim):
            assert d.act_by(i) == m.act_by(i).transpose()

    def test_alpha_of_dual_is_coaction_transpose(self):
        m = block_module(z2())
        d = dualize(m)
        assert d.alpha == m.coaction.transpose()

    def test_overcounting_alpha_fails_counit_diagram(self):
        h = z2()
        space = VectorSpace(1, ("m",))
        action = LinearMap.from_rows(tensor_space(h.space, space), space, [[1, 1]])
        # alpha(f) = f(1) + f(g) double-counts the counit embedding
        alpha = LinearMap.from_rows(tensor_space(dual_space(h.space), space), space, [[1, 1]])
        bad = SaydContramodule(h, space, action, alpha)
        assert "contra-counit" in failures(check_sayd_contramodule(bad))

    def test_evaluation_at_grouplike_is_valid(self):
        # moving the evaluation point from 1 to g still satisfies every axiom
        h = z2()
        space = VectorSpace(1, ("m",))
        action = LinearMap.from_rows(tensor_space(h.space, space), space, [[1, 1]])
        alpha = LinearMap.from_rows(tensor_space(dual_space(h.space), space), space, [[0, 1]])
        assert check_sayd_contramodule(SaydContramodule(h, space, action, alpha)).passed

    def test_stability_map_matches_actions(self):
        m = dualize(block_module(z2()))
        r = contramodule_stability_map(m)
        # column for basis vector t stacks the actions of each Hopf basis element
        col = r.column(0)
        a0 = m.act_by(0).column(0)
        a1 = m.act_by(1).column(0)
        assert vectors_equal(col, list(a0) + list(a1))


class TestCompatiblePairs:
    def test_evaluation_pair_always_compatible(self):
        h = z2()
        for m in (block_module(h), scalar_module(h, (1, -1), 0), trivial_coefficients(h).module):
            assert check_compatible_pair(evaluation_pair(m)).passed

    def test_sign_mismatch_breaks_action_compatibility(self):
        h = z2()
        n = trivial_coefficients(h).module
        space = VectorSpace(1, ("m",))
        signed_action = LinearMap.from_rows(tensor_space(h.space, space), space, [[1, -1]])
        alpha = LinearMap.from_rows(tensor_space(dual_space(h.space), space), space, [[1, 0]])
        m = SaydContramodule(h, space, signed_action, alpha)
        pairing = LinearMap.from_rows(tensor_space(n.space, space), VectorSpace.ground(), [[1]])
        rep = check_compatible_pair(CompatiblePair(n, m, pairing))
        assert "pairing intertwines the actions" in failures(rep)


class TestContratensor:
    def test_ground_hopf_gives_full_tensor_product(self):
        h = trivial_hopf()
        pair = trivial_coefficients(h)
        ct = contratensor(pair.module, pair.contramodule)
        assert ct.space.dim == 1
        assert ct.projection == LinearMap.identity(ct.space)

    def test_trivial_pair_over_order_two(self):
        pair = trivial_coefficients(z2())
        ct = contratensor(pair.module, pair.contramodule)
        assert ct.space.dim == 1
        assert ct.projection.entry(0, 0) == 1
        e = collapse_map(pair, ct)
        assert e.entry(0, 0) == 1

    def test_block_module_contratensor(self):
        h = z2()
        n = block_module(h)
        pair = evaluation_pair(n)
        ct = contratensor(pair.module, pair.contramodule)
        assert ct.space.dim == 2
        e = collapse_map(pair, ct)
        # representatives are the diagonal tensors u(x)u*, v(x)v*; both pair to 1
        assert [e.entry(0, j) for j in range(2)] == [1, 1]

    def test_dimension_agrees_with_independent_rank(self):
        h = z2()
        n = block_module(h)
        m = dualize(n)
        ct = contratensor(n, m)
        i_n = LinearMap.identity(n.space)
        i_m = LinearMap.identity(m.space)
        from hopfcyclic.linalg import tensor_map, tensor_maps, tensor_permutation
        from hopfcyclic.coefficients import hom_evaluation

        rho = tensor_map(n.action, i_m) - tensor_map(i_n, m.action)
        hd = dual_space(h.space)
        expand = tensor_maps([n.coaction, LinearMap.identity(hd), i_m])
        reorder = tensor_permutation([h.space, n.space, hd, m.space], [1, 0, 2, 3])
        delta = tensor_map(i_n, m.alpha) - tensor_map(i_n, hom_evaluation(h, m.space)) @ reorder @ expand
        stacked = sympy.Matrix.hstack(
            sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rho.fractions()]),
            sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in delta.fractions()]),
        )
        expected = n.space.dim * m.space.dim - stacked.rank()
        assert ct.space.dim == expected

    def test_incompatible_pair_faults_collapse(self):
        h = z2()
        n = trivial_coefficients(h).module
        space = VectorSpace(1, ("m",))
        signed_action = LinearMap.from_rows(tensor_space(h.space, space), space, [[1, -1]])
        alpha = LinearMap.from_rows(tensor_space(dual_space(h.space), space), space, [[1, 0]])
        m = SaydContramodule(h, space, signed_action, alpha)
        ct = contratensor(n, m)
        assert ct.space.dim == 0
        pairing = LinearMap.from_rows(tensor_space(n.space, space), VectorSpace.ground(), [[1]])
        with pytest.raises(ValueError, match="not vanish|not compatible"):
            collapse_map(CompatiblePair(n, m, pairing), ct)

    def test_projection_kills_both_relation_families(self):
        h = z2()
        n = block_module(h)
        m = dualize(n)
        ct = contratensor(n, m)
        # spot-check: u.g (x) u* - u (x) g.u* maps to zero
        vec = vector_from([0] * 16)
        # basis of N(x)H(x)M*: index (n_i * 2 + h_j) * 2 + m_k with dims 2,2,2
        # u (x) g (x) u*  ->  (u.g)(x)u* - u(x)(g.u*) = -u(x)u* + u(x)u* = 0
        rho = None  # recomputed inline for clarity
        from hopfcyclic.linalg import tensor_map as tm

        rho = tm(n.action, LinearMap.identity(m.space)) - tm(LinearMap.identity(n.space), m.action)
        assert (ct.projection @ rho).is_zero()
