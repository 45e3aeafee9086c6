"""Stable anti-Yetter-Drinfeld coefficients: modules, contramodules, pairs.

A coefficient module carries a right action and a left coaction tied together
by the anti-Yetter-Drinfeld identity and stability; a coefficient
contramodule replaces the coaction by a structure map alpha on the space of
maps H -> carrier, represented throughout by the finite-dimensional
identification Hom(H, V) = H* (x) V.  Dualizing a module yields a
contramodule; a module and a contramodule can be paired, and the pairing
descends to the contratensor coequalizer, yielding the collapse map used by
the general cup products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .hopf import HopfAlgebra, check_comodule, iterated_comultiplication
from .linalg import (
    LinearMap,
    VectorSpace,
    basis_vector,
    cokernel,
    dual_space,
    evaluation_pairing,
    insert_vector,
    relabel,
    stack_vertical,
    tensor_map,
    tensor_maps,
    tensor_permutation,
    tensor_space,
)
from .reporting import Report

_Q = VectorSpace.ground()


@dataclass(frozen=True)
class SaydModule:
    """A right module, left comodule coefficient object."""

    hopf: HopfAlgebra
    space: VectorSpace
    action: LinearMap  # M (x) H -> M, right action
    coaction: LinearMap  # M -> H (x) M, left coaction

    @property
    def dim(self) -> int:
        return self.space.dim

    def act_by(self, i: int) -> LinearMap:
        """Right action of the i-th basis element of H."""
        return self.action @ tensor_map(
            LinearMap.identity(self.space),
            insert_vector(self.hopf.space, basis_vector(self.hopf.space, i)),
        )


@dataclass(frozen=True)
class SaydContramodule:
    """A left module whose co-structure is a map on Hom(H, carrier)."""

    hopf: HopfAlgebra
    space: VectorSpace
    action: LinearMap  # H (x) M -> M, left action
    alpha: LinearMap  # H* (x) M -> M

    @property
    def dim(self) -> int:
        return self.space.dim

    def act_by(self, i: int) -> LinearMap:
        return self.action @ tensor_map(
            insert_vector(self.hopf.space, basis_vector(self.hopf.space, i)),
            LinearMap.identity(self.space),
        )


@dataclass(frozen=True)
class CompatiblePair:
    module: SaydModule
    contramodule: SaydContramodule
    pairing: LinearMap  # N (x) M -> Q


@dataclass(frozen=True)
class Contratensor:
    """The coequalizer L of the two lifts of N (x) Hom(H,M) into N (x)_H M."""

    module: SaydModule
    contramodule: SaydContramodule
    space: VectorSpace
    projection: LinearMap  # N (x) M -> L
    section: LinearMap  # L -> N (x) M, deterministic representatives


def hom_evaluation(h: HopfAlgebra, value_space: VectorSpace) -> LinearMap:
    """Evaluation H (x) (H* (x) V) -> V, (k, f) -> f(k)."""
    return tensor_map(evaluation_pairing(h.space), LinearMap.identity(value_space))


def _evaluated_lift(n_mod: SaydModule, m_con: SaydContramodule) -> LinearMap:
    """N (x) H* (x) M -> N (x) M, n (x) f (x) m -> n_(0) (x) f(n_(-1)) applied to m."""
    h = n_mod.hopf
    hd = dual_space(h.space)
    i_n = LinearMap.identity(n_mod.space)
    expand = tensor_maps([n_mod.coaction, LinearMap.identity(hd), LinearMap.identity(m_con.space)])
    reorder = tensor_permutation([h.space, n_mod.space, hd, m_con.space], [1, 0, 2, 3])
    return tensor_map(i_n, hom_evaluation(h, m_con.space)) @ reorder @ expand


def contramodule_stability_map(m: SaydContramodule) -> LinearMap:
    """The map V -> H* (x) V sending v to the function h -> h.v."""
    acts = stack_vertical([m.act_by(i) for i in range(m.hopf.dim)])
    return relabel(acts, m.space, tensor_space(dual_space(m.hopf.space), m.space))


def check_sayd_module(m: SaydModule) -> Report:
    rep = Report("coefficient module")
    h = m.hopf
    i_m = LinearMap.identity(m.space)
    i_h = LinearMap.identity(h.space)
    rep.check_equal(
        "right action associative",
        m.action @ tensor_map(m.action, i_h),
        m.action @ tensor_map(i_m, h.mul),
    )
    rep.check_equal("right action unital", m.action @ tensor_map(i_m, h.unit), i_m)
    rep.extend(check_comodule(h, m.space, m.coaction))
    # anti-Yetter-Drinfeld: coaction(m.h) = S(h3) m_(-1) h1 (x) m_(0).h2
    lhs = m.coaction @ m.action
    spread = tensor_map(m.coaction, iterated_comultiplication(h, 2))
    to_order = tensor_permutation(
        [h.space, m.space, h.space, h.space, h.space], [4, 0, 2, 1, 3]
    )
    triple_mul = h.mul @ tensor_map(h.mul, i_h) @ tensor_maps([h.antipode, i_h, i_h])
    rhs = tensor_map(triple_mul, m.action) @ to_order @ spread
    rep.check_equal("anti-Yetter-Drinfeld identity", lhs, rhs)
    swap = tensor_permutation([h.space, m.space], [1, 0])
    rep.check_equal("stability", m.action @ swap @ m.coaction, i_m)
    return rep


def check_sayd_contramodule(m: SaydContramodule) -> Report:
    rep = Report("coefficient contramodule")
    h = m.hopf
    n = h.dim
    i_m = LinearMap.identity(m.space)
    i_h = LinearMap.identity(h.space)
    i_hd = LinearMap.identity(dual_space(h.space))
    rep.check_equal(
        "left action associative",
        m.action @ tensor_map(i_h, m.action),
        m.action @ tensor_map(h.mul, i_m),
    )
    rep.check_equal("left action unital", m.action @ tensor_map(h.unit, i_m), i_m)
    rep.check_equal(
        "contra-associativity",
        m.alpha @ tensor_map(i_hd, m.alpha),
        m.alpha @ tensor_map(h.comul.transpose(), i_m),
    )
    rep.check_equal(
        "contra-counit",
        m.alpha @ tensor_map(h.counit.transpose(), i_m),
        i_m,
    )
    # AYD: h.alpha(f) = alpha( h2 . f( S(h3) (-) h1 ) ) for each basis h
    d2 = iterated_comultiplication(h, 2)
    left_s = [
        h.mul @ tensor_map(insert_vector(h.space, h.antipode.column(w)), i_h)
        for w in range(n)
    ]
    right_by = [
        h.mul @ tensor_map(i_h, insert_vector(h.space, basis_vector(h.space, w)))
        for w in range(n)
    ]
    acts = [m.act_by(i) for i in range(n)]
    src = tensor_space(dual_space(h.space), m.space)
    ok = True
    detail = ""
    for t in range(n):
        coeffs = d2.column(t)
        twist = LinearMap.zero(src, src)
        for flat in range(n * n * n):
            c = coeffs[flat]
            if not c:
                continue
            u, rest = divmod(flat, n * n)
            v, w = divmod(rest, n)
            inner = left_s[w] @ right_by[u]
            twist = twist + tensor_map(inner.transpose(), acts[v]).scale(c)
        diff = acts[t] @ m.alpha - m.alpha @ twist
        nz = diff.first_nonzero()
        if nz is not None:
            ok = False
            i, j, val = nz
            detail = (
                f"fails for Hopf basis element {h.space.labels[t]!r}: "
                f"first residual {val} at row {diff.target.labels[i]!r}, "
                f"column {diff.source.labels[j]!r}"
            )
            break
    rep.add("anti-Yetter-Drinfeld identity", ok, detail)
    rep.check_equal("stability", m.alpha @ contramodule_stability_map(m), i_m)
    return rep


def check_compatible_pair(p: CompatiblePair) -> Report:
    rep = Report("compatible pair")
    n_mod, m_con = p.module, p.contramodule
    i_n = LinearMap.identity(n_mod.space)
    i_m = LinearMap.identity(m_con.space)
    rep.check_equal(
        "pairing intertwines the actions",
        p.pairing @ tensor_map(n_mod.action, i_m),
        p.pairing @ tensor_map(i_n, m_con.action),
    )
    rep.check_equal(
        "pairing intertwines alpha with the coaction",
        p.pairing @ tensor_map(i_n, m_con.alpha),
        p.pairing @ _evaluated_lift(n_mod, m_con),
    )
    return rep


def dualize(m: SaydModule) -> SaydContramodule:
    """The contramodule on M*: (h.f)(x) = f(x.h); alpha(f)(x) = f(x_(-1))(x_(0))."""
    h = m.hopf
    dual = dual_space(m.space)
    # entry (v, (i, u)) of the action is entry (u, v) of the right action of basis element i
    acts = stack_vertical([m.act_by(i) for i in range(h.dim)])
    action = relabel(acts.transpose(), tensor_space(h.space, dual), dual)
    alpha_t = m.coaction.transpose()
    alpha = relabel(alpha_t, tensor_space(dual_space(h.space), dual), dual)
    return SaydContramodule(h, dual, action, alpha)


def evaluation_pair(m: SaydModule) -> CompatiblePair:
    """A module, its dual contramodule, and the evaluation pairing."""
    return CompatiblePair(m, dualize(m), evaluation_pairing(m.space))


def contratensor(n_mod: SaydModule, m_con: SaydContramodule) -> Contratensor:
    i_n = LinearMap.identity(n_mod.space)
    i_m = LinearMap.identity(m_con.space)
    rho = tensor_map(n_mod.action, i_m) - tensor_map(i_n, m_con.action)
    over_h = cokernel(rho)
    delta = tensor_map(i_n, m_con.alpha) - _evaluated_lift(n_mod, m_con)
    lifted = over_h.projection @ delta
    final = cokernel(lifted)
    projection = final.projection @ over_h.projection
    section = over_h.section @ final.section
    if not (projection @ delta).is_zero() or not (projection @ rho).is_zero():
        raise ValueError("contratensor projection fails to coequalize its relations")
    return Contratensor(n_mod, m_con, final.space, projection, section)


def collapse_map(p: CompatiblePair, ct: Contratensor) -> LinearMap:
    """The map L -> Q induced by the pairing; faults if it does not descend."""
    e = p.pairing @ ct.section
    if e @ ct.projection != p.pairing:
        raise ValueError(
            "pairing does not vanish on the coequalized relations; "
            "the pair is not compatible with this contratensor"
        )
    return e


# -- builtin coefficient pairs --------------------------------------


def _scalar_space(label: str) -> VectorSpace:
    return VectorSpace(1, (label,))


def grouplike_coefficients(h: HopfAlgebra, sigma: Optional[int] = None) -> CompatiblePair:
    """One-dimensional coefficients from a grouplike basis element.

    The module side has trivial right action and coaction n -> sigma (x) n;
    the contramodule side is its dual (alpha evaluates at sigma).  Whether
    the result passes the coefficient checkers depends on sigma (it does
    whenever sigma is appropriately central; run the checkers to find out).
    """
    if sigma is None:
        sigma = _identity_index(h)
    n_space = _scalar_space("n")
    counit_row = [h.counit.entry(0, j) for j in range(h.dim)]
    action = LinearMap.from_rows(tensor_space(n_space, h.space), n_space, [counit_row])
    coaction = LinearMap.from_rows(
        n_space, tensor_space(h.space, n_space),
        [[Fraction(1 if i == sigma else 0)] for i in range(h.dim)],
    )
    module = SaydModule(h, n_space, action, coaction)
    return CompatiblePair(module, dualize(module), _unit_pairing(n_space, dual_space(n_space)))


def trivial_coefficients(h: HopfAlgebra) -> CompatiblePair:
    """Counit action on both sides, unit coaction, alpha = evaluation at 1."""
    return grouplike_coefficients(h, _identity_index(h))


def _identity_index(h: HopfAlgebra) -> int:
    col = h.unit.column(0)
    for i in range(h.dim):
        if col[i] == 1 and all(col[j] == 0 for j in range(h.dim) if j != i):
            return i
    raise ValueError("the unit of this Hopf algebra is not a basis element")


def _unit_pairing(a: VectorSpace, b: VectorSpace) -> LinearMap:
    return LinearMap.from_rows(tensor_space(a, b), _Q, [[1]])
