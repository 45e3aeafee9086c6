"""Stable anti-Yetter-Drinfeld coefficients: modules, contramodules, pairs.

A coefficient module carries a right action and a left coaction tied together
by the anti-Yetter-Drinfeld identity and stability; a coefficient
contramodule replaces the coaction by a structure map alpha on the space of
maps H -> carrier, represented throughout by the finite-dimensional
identification Hom(H, V) = H* (x) V.  Dualizing a module yields a
contramodule; a module and a contramodule can be paired, and the pairing
descends to the contratensor coequalizer, yielding the collapse map used by
the general cup products.

Every structure map is read whole: the dual action, the stability map and
the anti-Yetter-Drinfeld twist are built from partial transposes
(curryings) of the actions and of the multiplication, so each axiom is one
matrix identity; the anti-Yetter-Drinfeld witness names the Hopf basis
element as the first factor of its column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hopf import HopfAlgebra, check_comodule, iterated_comultiplication
from .linalg import (
    LinAlgError,
    LinearMap,
    VectorSpace,
    cokernel,
    dual_space,
    evaluation_pairing,
    partial_transpose,
    relabel,
    tensor_map,
    tensor_maps,
    tensor_permutation,
    tensor_space,
)
from .reporting import Report


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
    """The map V -> H* (x) V sending v to the function h -> h.v: the action, curried."""
    curried = partial_transpose(m.action, m.hopf.space, m.space).transpose()
    return relabel(curried, m.space, tensor_space(dual_space(m.hopf.space), m.space))


def _sandwich(h: HopfAlgebra) -> LinearMap:
    """H (x) H (x) H -> H, a (x) b (x) c -> S(a) b c."""
    i_h = LinearMap.identity(h.space)
    return h.mul @ tensor_map(h.mul, i_h) @ tensor_maps([h.antipode, i_h, i_h])


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
    rhs = tensor_map(_sandwich(h), m.action) @ to_order @ spread
    rep.check_equal("anti-Yetter-Drinfeld identity", lhs, rhs)
    swap = tensor_permutation([h.space, m.space], [1, 0])
    rep.check_equal("stability", m.action @ swap @ m.coaction, i_m)
    return rep


def check_sayd_contramodule(m: SaydContramodule) -> Report:
    rep = Report("coefficient contramodule")
    h = m.hopf
    hd = dual_space(h.space)
    i_m = LinearMap.identity(m.space)
    i_h = LinearMap.identity(h.space)
    i_hd = LinearMap.identity(hd)
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
    # anti-Yetter-Drinfeld: h.alpha(f) = alpha(h2 . f(S(h3) (-) h1)); the twist
    # sends h (x) f (x) m through f (x) h3 (x) h1 (x) h2 (x) m to the function
    # k -> f(S(h3) k h1) h2.m, and `pull` sends f (x) a (x) c to k -> f(S(a) k c)
    pull = partial_transpose(_sandwich(h) @ tensor_permutation([h.space] * 3, [0, 2, 1]),
                             tensor_space(h.space, h.space), h.space)
    pull = pull @ tensor_permutation([hd, h.space, h.space], [1, 2, 0])
    spread = tensor_permutation([h.space] * 3, [2, 0, 1]) @ iterated_comultiplication(h, 2)
    twist = (tensor_map(pull, m.action) @ tensor_maps([i_hd, spread, i_m])
             @ tensor_permutation([h.space, hd, m.space], [1, 0, 2]))
    rep.check_equal("anti-Yetter-Drinfeld identity",
                    m.action @ tensor_map(i_h, m.alpha), m.alpha @ twist)
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
    # entry (v, (i, u)) of the action is entry (u, (v, i)) of the right action
    swap = tensor_permutation([h.space, m.space], [1, 0])
    action = relabel(partial_transpose(m.action @ swap, h.space, m.space),
                     tensor_space(h.space, dual), dual)
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
        raise LinAlgError("contratensor projection fails to coequalize its relations")
    return Contratensor(n_mod, m_con, final.space, projection, section)


def collapse_map(p: CompatiblePair, ct: Contratensor) -> LinearMap:
    """The map L -> Q induced by the pairing; faults if it does not descend."""
    e = p.pairing @ ct.section
    if e @ ct.projection != p.pairing:
        raise LinAlgError(
            "pairing does not vanish on the coequalized relations; "
            "the pair is not compatible with this contratensor"
        )
    return e


# -- builtin coefficient pairs --------------------------------------


def grouplike_coefficients(h: HopfAlgebra, sigma: int) -> CompatiblePair:
    """One-dimensional coefficients from the grouplike basis element of index
    `sigma`.

    The module side has trivial right action and coaction n -> sigma (x) n;
    the contramodule side is its dual (alpha evaluates at sigma).  Whether
    the result passes the coefficient checkers depends on sigma (it does
    whenever sigma is appropriately central; run the checkers to find out).
    """
    n_space = VectorSpace(1, ("n",))
    action = relabel(h.counit, tensor_space(n_space, h.space), n_space)
    coaction = LinearMap.from_entries(n_space, tensor_space(h.space, n_space), [(sigma, 0, 1)])
    return evaluation_pair(SaydModule(h, n_space, action, coaction))


def trivial_coefficients(h: HopfAlgebra) -> CompatiblePair:
    """Counit action on both sides, unit coaction, alpha = evaluation at 1."""
    return grouplike_coefficients(h, _identity_index(h))


def _identity_index(h: HopfAlgebra) -> int:
    col = h.unit.column(0)
    for i in range(h.dim):
        if col[i] == 1 and all(col[j] == 0 for j in range(h.dim) if j != i):
            return i
    raise LinAlgError("the unit of this Hopf algebra is not a basis element")
