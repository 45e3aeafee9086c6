"""Cocyclic modules realized as exact rational matrices.

A cocyclic module is a tower of based vector spaces C^0, ..., C^cap together
with coface, codegeneracy and cyclic operators.  This module provides

  * a generic carrier (`CocyclicModule`) plus `verify_cocyclic`, which checks
    every cosimplicial and cyclic identity by exact matrix equality;
  * five cochain constructions, four of them equivariant over a Hopf algebra H:
      - `plain_algebra_cocyclic`: cochains of an algebra with values in a
        fixed space (no equivariance);
      - `coalgebra_cocyclic`: M (x)_H C^{(n+1)} for an H-module coalgebra C
        and stable anti-Yetter-Drinfeld module M;
      - `algebra_module_cocyclic`: H-balanced functionals on M (x) A^{(n+1)}
        for an H-module algebra A;
      - `comodule_algebra_cocyclic`: H-colinear maps B^{(n+1)} -> N for an
        H-comodule algebra B;
      - `algebra_contra_cocyclic`: H-equivariant maps A^{(n+1)} -> Mc into a
        stable anti-Yetter-Drinfeld contramodule Mc;
  * the degreewise isomorphism between balanced functionals on
    M (x) A^{(n+1)} and equivariant maps into the dual contramodule;
  * mixed-complex structure (the normalized cochains `normalized_cochains`,
    b and B restricted to them) and the normalization projector;
  * Hochschild and cyclic cohomology in degrees below the tower cap, with
    deterministic representatives.

Every quantity outside its degree range is refused by one rule, `_require_degree`.

Operator assembly.  Each construction builds its tensor powers and Hom
spaces once, then writes every operator in one sparse pass (`slot_map`)
straight between the tower's own spaces.  A degree-n ambient space has
coordinates (lead, x_0, ..., x_n, trail): coface i and codegeneracy j are
id (x) f (x) id with f the (transposed, for Hom spaces) structure map on
their slots.  The cyclic operator is its degree-0 kernel with x_1..x_n
carried through and the first slot moved to the end, and the last coface is
t d_0, written the same way from its degree-0 kernel.  The equivariant
constructions restrict these ambient operators to their cochain spaces
(`_induced`, `_descend`), verifying membership and well-definedness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NoReturn, Optional

from .coefficients import SaydContramodule, SaydModule, dualize
from .hopf import (Algebra, ComoduleAlgebra, HopfAlgebra, ModuleAlgebra, ModuleCoalgebra,
                   equivariance_constraint)
from .linalg import (
    LinAlgError,
    LinearMap,
    MembershipError,
    Quotient,
    Subspace,
    VectorSpace,
    cokernel,
    dual_space,
    hom_space,
    partial_transpose,
    relabel,
    rref,
    slot_map,
    solve_constrained_subspace,
    subspace_from_kernel,
    tensor_map,
    tensor_permutation,
    tensor_space,
)
from .reporting import Report

DEFAULT_DEGREE_CAP = 4


# --------------------------------------------------------------------------
# generic carrier


@dataclass(frozen=True)
class CocyclicModule:
    """Spaces C^0..C^cap with cofaces, codegeneracies and cyclic operators.

    faces[n][i]        : C^n -> C^{n+1}   for 0 <= n < cap, 0 <= i <= n+1
    degeneracies[n][j] : C^n -> C^{n-1}   for 1 <= n <= cap, 0 <= j <= n-1
    cyclic[n]          : C^n -> C^n       for 0 <= n <= cap
    """

    degree_cap: int
    spaces: tuple[VectorSpace, ...]
    faces: tuple[tuple[LinearMap, ...], ...]
    degeneracies: tuple[tuple[LinearMap, ...], ...]
    cyclic: tuple[LinearMap, ...]
    # ("b", n) / ("B", n) / ("N", n) / ("fixed", n) -> full_b / full_B /
    # normalized_cochains / _cyclic_fixed of this tower, built on first use
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        cap = self.degree_cap
        if len(self.spaces) != cap + 1 or len(self.faces) != cap:
            raise LinAlgError("cocyclic tower has the wrong length")
        if len(self.degeneracies) != cap + 1 or len(self.cyclic) != cap + 1:
            raise LinAlgError("cocyclic tower has the wrong length")
        for n in range(cap):
            if len(self.faces[n]) != n + 2:
                raise LinAlgError(f"expected {n + 2} cofaces at degree {n}")
            for f in self.faces[n]:
                if f.source.dim != self.spaces[n].dim or f.target.dim != self.spaces[n + 1].dim:
                    raise LinAlgError(f"coface shape mismatch at degree {n}")
        for n in range(cap + 1):
            if len(self.degeneracies[n]) != n:
                raise LinAlgError(f"expected {n} codegeneracies at degree {n}")
            for s in self.degeneracies[n]:
                if s.source.dim != self.spaces[n].dim or s.target.dim != self.spaces[n - 1].dim:
                    raise LinAlgError(f"codegeneracy shape mismatch at degree {n}")
            t = self.cyclic[n]
            if t.source.dim != self.spaces[n].dim or t.target.dim != self.spaces[n].dim:
                raise LinAlgError(f"cyclic operator shape mismatch at degree {n}")

    def face(self, n: int, i: int) -> LinearMap:
        if not (0 <= n < self.degree_cap and 0 <= i <= n + 1):
            _refuse(self, f"coface d{i} out of degree {n}")
        return self.faces[n][i]

    def degeneracy(self, n: int, j: int) -> LinearMap:
        if not 0 <= j < n <= self.degree_cap:
            _refuse(self, f"codegeneracy s{j} out of degree {n}")
        return self.degeneracies[n][j]

    def tau(self, n: int) -> LinearMap:
        if not 0 <= n <= self.degree_cap:
            _refuse(self, f"cyclic operator at degree {n}")
        return self.cyclic[n]


def _refuse(module, what: str) -> NoReturn:
    raise LinAlgError(f"{what} is outside the tower, which is capped at degree "
                      f"{module.degree_cap}")


def _require_degree(module, n: int, what: str, low: int = 0,
                    high: Optional[int] = None) -> None:
    """Refuse degree n of `what` unless low <= n <= high (by default the
    cap), for a tower, bicomplex or cup setup `module` with a `degree_cap`."""
    high = module.degree_cap if high is None else high
    if not low <= n <= high:
        _refuse(module, f"{what} in degree {n} (defined in degrees {low}..{high})")


def verify_cocyclic(module: CocyclicModule, name: str = "cocyclic module") -> Report:
    """Check every cosimplicial and cyclic identity available under the cap."""
    rep = Report(name)
    cap = module.degree_cap
    d, s, t = module.face, module.degeneracy, module.tau

    for n in range(cap - 1):
        for j in range(n + 3):
            for i in range(j):
                rep.check_equal(
                    f"d{j} d{i} = d{i} d{j - 1} (degree {n})",
                    d(n + 1, j) @ d(n, i),
                    d(n + 1, i) @ d(n, j - 1),
                )

    for n in range(2, cap + 1):
        for j in range(n - 1):
            for i in range(j + 1):
                rep.check_equal(
                    f"s{j} s{i} = s{i} s{j + 1} (degree {n})",
                    s(n - 1, j) @ s(n, i),
                    s(n - 1, i) @ s(n, j + 1),
                )

    for n in range(cap):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = s(n + 1, j) @ d(n, i)
                if i in (j, j + 1):
                    rep.check_equal(f"s{j} d{i} = id (degree {n})",
                                    lhs, LinearMap.identity(module.spaces[n]))
                elif i < j:
                    rep.check_equal(f"s{j} d{i} = d{i} s{j - 1} (degree {n})",
                                    lhs, d(n - 1, i) @ s(n, j - 1))
                else:
                    rep.check_equal(f"s{j} d{i} = d{i - 1} s{j} (degree {n})",
                                    lhs, d(n - 1, i - 1) @ s(n, j))

    for n in range(cap):
        rep.check_equal(f"t d0 = d{n + 1} (degree {n})", t(n + 1) @ d(n, 0), d(n, n + 1))
        for i in range(1, n + 2):
            rep.check_equal(f"t d{i} = d{i - 1} t (degree {n})",
                            t(n + 1) @ d(n, i), d(n, i - 1) @ t(n))

    for n in range(1, cap + 1):
        rep.check_equal(f"t s0 = s{n - 1} t t (degree {n})",
                        t(n - 1) @ s(n, 0), s(n, n - 1) @ t(n) @ t(n))
        for j in range(1, n):
            rep.check_equal(f"t s{j} = s{j - 1} t (degree {n})",
                            t(n - 1) @ s(n, j), s(n, j - 1) @ t(n))

    for n in range(cap + 1):
        power = LinearMap.identity(module.spaces[n])
        for _ in range(n + 1):
            power = t(n) @ power
        rep.check_equal(f"t^{n + 1} = id (degree {n})",
                        power, LinearMap.identity(module.spaces[n]))

    return rep


# --------------------------------------------------------------------------
# operator assembly shared by the constructions


def _powers(space: VectorSpace, k: int) -> list[VectorSpace]:
    """X^{(0)}, ..., X^{(k)}, each the tensor product of the one before with X."""
    out = [VectorSpace.ground(), space]
    while len(out) <= k:
        out.append(tensor_space(out[-1], space))
    return out[:k + 1]


def _diagonal_actions(hopf: HopfAlgebra, action: LinearMap, powers) -> list[LinearMap]:
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


def _diagonal_coactions(hopf: HopfAlgebra, coaction: LinearMap, powers) -> list[LinearMap]:
    """X^{(m)} -> H (x) X^{(m)} for m = 1..k, given X^{(1)}, ..., X^{(k)}, each
    built from the one before: the coaction legs of the first factor and of
    the last m - 1 factors are multiplied in that order."""
    h, x = hopf.space.dim, coaction.source.dim
    out = [coaction]
    for rest, power in zip(powers, powers[1:]):
        target = tensor_space(hopf.space, power)
        legs = tensor_space(hopf.space, target)
        out.append(slot_map(hopf.mul, 1, power.dim, legs, target)
                   @ slot_map(out[-1], h, x, target, legs, (rest.dim, rest.dim))
                   @ slot_map(coaction, 1, rest.dim, power, target))
    return out


def _operators(ambients, width: int, lead: int, trail: int, coface: LinearMap,
               codegeneracy: LinearMap, tau0: LinearMap):
    """Ambient cofaces, codegeneracies and cyclic operators of a tower whose
    degree-n space has coordinates (lead, x_0, ..., x_n, trail), row-major,
    with every x_i of dimension `width`.

    Coface i <= n puts `coface` (one slot into two) on slot i, codegeneracy j
    puts `codegeneracy` (one slot into none) on slot j + 1.  The cyclic
    operator is the degree-0 one, `tau0`, with x_1 .. x_n carried through
    and the first slot moved to the end; the last coface is t d_0, built the
    same way from its degree-0 kernel.
    """
    cap = len(ambients) - 1
    dims = [width ** k for k in range(cap + 1)]
    tail = (trail, width * trail)
    cyclic = tuple(slot_map(tau0, 1, dims[n], ambients[n], ambients[n], tail)
                   for n in range(cap + 1))
    faces = []
    for n in range(cap):
        row = [slot_map(coface, lead * dims[i], dims[n - i] * trail, ambients[n], ambients[n + 1])
               for i in range(n + 1)]
        if n == 0:
            last0 = cyclic[1] @ row[0]  # t d_0 at degree 0
        row.append(slot_map(last0, 1, dims[n], ambients[n], ambients[n + 1], tail))
        faces.append(tuple(row))
    degeneracies = tuple(
        tuple(slot_map(codegeneracy, lead * dims[j + 1], dims[n - 1 - j] * trail,
                       ambients[n], ambients[n - 1])
              for j in range(n))
        for n in range(cap + 1))
    return tuple(faces), degeneracies, cyclic


def _realize(spaces, operators, induce) -> CocyclicModule:
    """The tower on `spaces` of the ambient operators, each passed through
    induce(op, source degree, target degree, name) in construction order."""
    faces, degeneracies, cyclic = operators
    return CocyclicModule(
        len(spaces) - 1, tuple(spaces),
        tuple(tuple(induce(f, n, n + 1, f"coface {i} at degree {n}") for i, f in enumerate(row))
              for n, row in enumerate(faces)),
        tuple(tuple(induce(s, n, n - 1, f"codegeneracy {j} at degree {n}")
                    for j, s in enumerate(row))
              for n, row in enumerate(degeneracies)),
        tuple(induce(t, n, n, f"cyclic operator at degree {n}") for n, t in enumerate(cyclic)))


def _balanced_relation(coefficients: SaydModule, diag: LinearMap, source: VectorSpace,
                       target: VectorSpace) -> LinearMap:
    """M (x) H (x) X^{(k)} -> M (x) X^{(k)}: right action minus the diagonal action `diag`."""
    return (slot_map(coefficients.action, 1, diag.target.dim, source, target)
            - slot_map(diag, coefficients.space.dim, 1, source, target))


# --------------------------------------------------------------------------
# realized cochain complexes


@dataclass(frozen=True)
class HomCochainComplex:
    """A cocyclic module whose degree-n space is a subspace of Hom(D_n, V)."""

    module: CocyclicModule
    subspaces: tuple[Subspace, ...]
    domains: tuple[VectorSpace, ...]
    values: VectorSpace


@dataclass(frozen=True)
class QuotientCochainComplex:
    """A cocyclic module whose degree-n space is a quotient of a tensor space."""

    module: CocyclicModule
    quotients: tuple[Quotient, ...]
    ambients: tuple[VectorSpace, ...]
    relations: tuple[LinearMap, ...]


def _induced(op: LinearMap, source: Subspace, target: Subspace, message: str) -> LinearMap:
    """The map source -> target induced by `op`, refused with `message`
    when `op` does not carry source into target."""
    try:
        return target.restrict_from(op, source)
    except MembershipError as exc:
        raise LinAlgError(message) from exc


def _descend(op: LinearMap, relation: LinearMap, source: Quotient, target: Quotient,
             what: str) -> LinearMap:
    projected = target.projection @ op
    if not (projected @ relation).is_zero():
        raise LinAlgError(f"{what} is not well defined on the quotient")
    return projected @ source.section


def _hom_tower(subspaces, domains, values, operators) -> HomCochainComplex:
    def induce(op, s, t, what):
        return _induced(op, subspaces[s], subspaces[t],
                        f"{what} does not preserve the cochain space")
    module = _realize([sub.space for sub in subspaces], operators, induce)
    return HomCochainComplex(module, tuple(subspaces), tuple(domains), values)


def _coact_then_act(coefficients: SaydModule, action: LinearMap,
                    x: VectorSpace) -> LinearMap:
    """M (x) X -> M (x) X, m (x) x -> m_(0) (x) m_(-1) . x, for the coaction of
    the coefficients and an action H (x) X -> X."""
    h, m = coefficients.hopf.space, coefficients.space
    return (tensor_map(LinearMap.identity(m), action)
            @ tensor_permutation([h, m, x], [1, 0, 2])
            @ tensor_map(coefficients.coaction, LinearMap.identity(x)))


# --------------------------------------------------------------------------
# construction 1: plain algebra cochains


def plain_algebra_cocyclic(algebra: Algebra, values: Optional[VectorSpace] = None,
                           degree_cap: int = DEFAULT_DEGREE_CAP) -> CocyclicModule:
    """Cochains Hom(A^{(n+1)}, V) with the standard cyclic structure."""
    v = VectorSpace.ground() if values is None else values
    powers = _powers(algebra.space, degree_cap + 1)
    spaces = [hom_space(powers[n + 1], v) for n in range(degree_cap + 1)]
    # phi -> phi o m_i, phi -> phi o u_j, and the rotation phi(a_n, a_0, ...)
    faces, degeneracies, cyclic = _operators(
        spaces, algebra.space.dim, 1, v.dim, algebra.mul.transpose(),
        algebra.unit.transpose(), LinearMap.identity(spaces[0]))
    return CocyclicModule(degree_cap, tuple(spaces), faces, degeneracies, cyclic)


# --------------------------------------------------------------------------
# construction 2: coalgebra cochains with module coefficients


def coalgebra_cocyclic(coalgebra: ModuleCoalgebra, coefficients: SaydModule,
                       degree_cap: int = DEFAULT_DEGREE_CAP) -> QuotientCochainComplex:
    """M (x)_H C^{(n+1)} for an H-module coalgebra C and SAYD module M."""
    h = coalgebra.hopf
    if coefficients.hopf != h:
        raise LinAlgError("coefficients and coalgebra live over different Hopf algebras")
    c = coalgebra.space
    m = coefficients.space
    cap = degree_cap

    powers = _powers(c, cap + 1)
    ambients = tuple(tensor_space(m, powers[n + 1]) for n in range(cap + 1))
    diagonals = _diagonal_actions(h, coalgebra.action, powers[1:])
    m_h = tensor_space(m, h.space)
    relations = tuple(
        _balanced_relation(coefficients, diagonals[n], tensor_space(m_h, powers[n + 1]),
                           ambients[n])
        for n in range(cap + 1))
    quotients = tuple(cokernel(r) for r in relations)

    # degree 0: m (x) c -> m_(0) (x) m_(-1) . c
    tau0 = _coact_then_act(coefficients, coalgebra.action, c)
    operators = _operators(ambients, c.dim, m.dim, 1, coalgebra.comul, coalgebra.counit, tau0)

    def induce(op, s, t, what):
        return _descend(op, relations[s], quotients[s], quotients[t], what)

    module = _realize([q.space for q in quotients], operators, induce)
    return QuotientCochainComplex(module, quotients, ambients, relations)


# --------------------------------------------------------------------------
# construction 3: balanced functionals on M (x) A^{(n+1)}


def algebra_module_cocyclic(algebra: ModuleAlgebra, coefficients: SaydModule,
                            degree_cap: int = DEFAULT_DEGREE_CAP) -> HomCochainComplex:
    """Functionals on M (x) A^{(n+1)} balanced over H, with the cyclic structure."""
    h = algebra.hopf
    if coefficients.hopf != h:
        raise LinAlgError("coefficients and algebra live over different Hopf algebras")
    a = algebra.space
    m = coefficients.space
    g = VectorSpace.ground()
    cap = degree_cap

    powers = _powers(a, cap + 1)
    domains = tuple(tensor_space(m, powers[n + 1]) for n in range(cap + 1))
    ambients = tuple(hom_space(domains[n], g) for n in range(cap + 1))
    diagonals = _diagonal_actions(h, algebra.action, powers[1:])
    m_h = tensor_space(m, h.space)
    subspaces = tuple(
        solve_constrained_subspace(ambients[n], [_balanced_relation(
            coefficients, diagonals[n], tensor_space(m_h, powers[n + 1]), domains[n]
        ).transpose()], prefix="p")
        for n in range(cap + 1))

    # degree 0: phi -> phi(m_(0) (x) S^{-1}(m_(-1)) . a)
    tau0 = relabel(_coact_then_act(coefficients, algebra.twisted_action(), a).transpose(),
                   ambients[0], ambients[0])
    operators = _operators(ambients, a.dim, m.dim, 1, algebra.mul.transpose(),
                           algebra.unit.transpose(), tau0)
    return _hom_tower(subspaces, domains, g, operators)


# --------------------------------------------------------------------------
# construction 4: colinear maps B^{(n+1)} -> N


def comodule_algebra_cocyclic(algebra: ComoduleAlgebra, coefficients: SaydModule,
                              degree_cap: int = DEFAULT_DEGREE_CAP) -> HomCochainComplex:
    """H-colinear maps B^{(n+1)} -> N with the cyclic structure twisted by N."""
    h = algebra.hopf
    if coefficients.hopf != h:
        raise LinAlgError("coefficients and algebra live over different Hopf algebras")
    b = algebra.space
    n_space = coefficients.space
    cap = degree_cap
    db, dn, dh = b.dim, n_space.dim, h.space.dim

    domains = _powers(b, cap + 1)[1:]
    ambients = tuple(hom_space(domains[n], n_space) for n in range(cap + 1))

    # psi is colinear when N's coaction after psi equals (id (x) psi) after the
    # diagonal coaction; both sides land in coordinates (t, x, u) for the leg
    # t.  The right side is a slot map of the diagonal coaction with its B
    # factors transposed, which is built by the same recursion from the
    # transposed coaction `flipped`: entry ((t, x), y) is entry ((t, y), x).
    flipped = relabel(partial_transpose(algebra.coaction.transpose(), dual_space(h.space),
                                        dual_space(b)).transpose(), b, tensor_space(h.space, b))
    subspaces = []
    for n, grad in enumerate(_diagonal_coactions(h, flipped, domains)):
        legs = VectorSpace.make(dh * ambients[n].dim, "c")
        constraint = (slot_map(coefficients.coaction, 1, domains[n].dim, ambients[n], legs,
                               (dn, dn))
                      - slot_map(grad, 1, dn, ambients[n], legs))
        subspaces.append(solve_constrained_subspace(ambients[n], [constraint], prefix="p"))

    # degree 0: psi -> psi(b_(0)) . b_(-1), on Hom(B, N) read as B (x) N
    tau0 = relabel(tensor_map(LinearMap.identity(b), coefficients.action)
                   @ tensor_permutation([h.space, b, n_space], [1, 2, 0])
                   @ tensor_map(flipped, LinearMap.identity(n_space)), ambients[0], ambients[0])
    operators = _operators(ambients, db, 1, dn, algebra.mul.transpose(),
                           algebra.unit.transpose(), tau0)
    return _hom_tower(subspaces, domains, n_space, operators)


# --------------------------------------------------------------------------
# construction 5: equivariant maps A^{(n+1)} -> Mc (contramodule values)


def algebra_contra_cocyclic(algebra: ModuleAlgebra, coefficients: SaydContramodule,
                            degree_cap: int = DEFAULT_DEGREE_CAP) -> HomCochainComplex:
    """H-equivariant maps A^{(n+1)} -> Mc with the contramodule cyclic structure."""
    h = algebra.hopf
    if coefficients.hopf != h:
        raise LinAlgError("coefficients and algebra live over different Hopf algebras")
    a = algebra.space
    m_space = coefficients.space
    cap = degree_cap
    da, dm = a.dim, m_space.dim

    domains = _powers(a, cap + 1)[1:]
    ambients = tuple(hom_space(domains[n], m_space) for n in range(cap + 1))

    # phi is equivariant when phi(t . x) = t . phi(x) for every basis element t of H
    subspaces = [
        solve_constrained_subspace(ambients[n], [equivariance_constraint(
            h, diag, coefficients.action, ambients[n])], prefix="p")
        for n, diag in enumerate(_diagonal_actions(h, algebra.action, domains))]

    # degree 0: phi -> alpha(t (x) phi(S^{-1}(t) . a)), summed over the basis t of
    # H; on Hom(A, Mc) read as A* (x) Mc, the twisted action's transpose makes
    # the t* (x) a* legs
    tau0 = relabel(tensor_map(LinearMap.identity(a), coefficients.alpha)
                   @ tensor_permutation([h.space, a, m_space], [1, 0, 2])
                   @ tensor_map(algebra.twisted_action().transpose(),
                                LinearMap.identity(m_space)), ambients[0], ambients[0])
    operators = _operators(ambients, da, 1, dm, algebra.mul.transpose(),
                           algebra.unit.transpose(), tau0)
    return _hom_tower(subspaces, domains, m_space, operators)


# --------------------------------------------------------------------------
# duality between balanced functionals and contramodule-valued cochains


@dataclass(frozen=True)
class DualizationIsomorphism:
    module_side: HomCochainComplex
    contra_side: HomCochainComplex
    forward: tuple[LinearMap, ...]
    backward: tuple[LinearMap, ...]


def dualization_isomorphism(algebra: ModuleAlgebra, coefficients: SaydModule,
                            degree_cap: int = DEFAULT_DEGREE_CAP) -> DualizationIsomorphism:
    """Transpose functionals on M (x) A^{(n+1)} into maps A^{(n+1)} -> M*.

    The degreewise transposition is restricted to the cut-out cochain spaces;
    both restrictions are verified to exist and to be mutually inverse.
    """
    module_side = algebra_module_cocyclic(algebra, coefficients, degree_cap)
    contra_side = algebra_contra_cocyclic(algebra, dualize(coefficients), degree_cap)
    m = coefficients.space

    forward = []
    backward = []
    for n in range(degree_cap + 1):
        p = module_side.domains[n]  # recorded as M (x) A^{(n+1)}
        power = contra_side.domains[n]
        amb_fwd = relabel(tensor_permutation([m, power], [1, 0]),
                          module_side.subspaces[n].ambient, contra_side.subspaces[n].ambient)
        amb_bwd = relabel(tensor_permutation([power, contra_side.values], [1, 0]),
                          contra_side.subspaces[n].ambient, module_side.subspaces[n].ambient)
        fwd = _induced(amb_fwd, module_side.subspaces[n], contra_side.subspaces[n],
                       f"transposition does not land in the equivariant cochains at degree {n}")
        bwd = _induced(
            amb_bwd, contra_side.subspaces[n], module_side.subspaces[n],
            f"inverse transposition does not land in the balanced functionals at degree {n}")
        if bwd @ fwd != LinearMap.identity(module_side.module.spaces[n]):
            raise LinAlgError(f"transposition round trip fails at degree {n}")
        if fwd @ bwd != LinearMap.identity(contra_side.module.spaces[n]):
            raise LinAlgError(f"transposition round trip fails at degree {n}")
        forward.append(fwd)
        backward.append(bwd)

    return DualizationIsomorphism(module_side, contra_side, tuple(forward), tuple(backward))


def check_dualization(iso: DualizationIsomorphism,
                      name: str = "dualization isomorphism") -> Report:
    """Inverse round trips and commutation with every structure operator."""
    rep = Report(name)
    x = iso.module_side.module
    y = iso.contra_side.module
    cap = x.degree_cap
    for n in range(cap + 1):
        rep.check_equal(f"backward forward = id (degree {n})",
                        iso.backward[n] @ iso.forward[n], LinearMap.identity(x.spaces[n]))
        rep.check_equal(f"forward backward = id (degree {n})",
                        iso.forward[n] @ iso.backward[n], LinearMap.identity(y.spaces[n]))
    for n in range(cap):
        for i in range(n + 2):
            rep.check_equal(f"transposition commutes with d{i} (degree {n})",
                            iso.forward[n + 1] @ x.face(n, i),
                            y.face(n, i) @ iso.forward[n])
    for n in range(1, cap + 1):
        for j in range(n):
            rep.check_equal(f"transposition commutes with s{j} (degree {n})",
                            iso.forward[n - 1] @ x.degeneracy(n, j),
                            y.degeneracy(n, j) @ iso.forward[n])
    for n in range(cap + 1):
        rep.check_equal(f"transposition commutes with t (degree {n})",
                        iso.forward[n] @ x.tau(n), y.tau(n) @ iso.forward[n])
    return rep


# --------------------------------------------------------------------------
# mixed complex: b, B, normalization


def full_b(module: CocyclicModule, n: int) -> LinearMap:
    """Alternating sum of the cofaces out of degree n, built once per tower."""
    _require_degree(module, n, "the Hochschild coboundary", high=module.degree_cap - 1)
    cache = module._memo
    if ("b", n) not in cache:
        out = module.faces[n][0]
        for i in range(1, n + 2):
            term = module.faces[n][i]
            out = out + term if i % 2 == 0 else out - term
        cache["b", n] = out
    return cache["b", n]


def full_B(module: CocyclicModule, n: int) -> LinearMap:
    """The Connes boundary C^n -> C^{n-1} (n >= 1), built once per tower."""
    _require_degree(module, n, "the Connes boundary", low=1)
    cache = module._memo
    if ("B", n) not in cache:
        base = module.degeneracies[n][n - 1] @ module.cyclic[n]
        acc = base
        power = base
        for i in range(1, n):
            power = module.cyclic[n - 1] @ power
            acc = acc + power if ((n - 1) * i) % 2 == 0 else acc - power
        cache["B", n] = acc
    return cache["B", n]


def lambda_operator(module: CocyclicModule, n: int) -> LinearMap:
    return module.tau(n).scale(Fraction((-1) ** n))


def normalized_cochains(module: CocyclicModule, n: int) -> Subspace:
    """The normalized cochains N^n, the joint kernel of the codegeneracies out
    of degree n, built once per tower; its basis is read off the RREF."""
    _require_degree(module, n, "the normalized cochains")
    memo = module._memo
    if ("N", n) not in memo:
        memo["N", n] = solve_constrained_subspace(module.spaces[n],
                                                  list(module.degeneracies[n]), prefix="n")
    return memo["N", n]


def normalization_projector(module: CocyclicModule, n: int) -> LinearMap:
    """Idempotent onto the joint kernel of the codegeneracies at degree n."""
    _require_degree(module, n, "the normalization projector")
    out = LinearMap.identity(module.spaces[n])
    for j in range(n):
        factor = LinearMap.identity(module.spaces[n]) - (
            module.faces[n - 1][j + 1] @ module.degeneracies[n][j])
        out = factor @ out
    for j in range(n):
        if not (module.degeneracies[n][j] @ out).is_zero():
            raise LinAlgError(f"normalization projector misses s{j} at degree {n}")
    if out @ out != out:
        raise LinAlgError(f"normalization projector is not idempotent at degree {n}")
    return out


@dataclass(frozen=True)
class MixedComplexView:
    """Normalized subcomplex with restricted b and B operators."""

    underlying: CocyclicModule
    normalized: tuple[Subspace, ...]
    b: tuple[LinearMap, ...]
    B: tuple[Optional[LinearMap], ...]


def mixed_complex(module: CocyclicModule) -> MixedComplexView:
    cap = module.degree_cap
    normalized = tuple(normalized_cochains(module, n) for n in range(cap + 1))
    b = tuple(
        _induced(full_b(module, n), normalized[n], normalized[n + 1],
                 f"the Hochschild coboundary leaves the normalized complex at degree {n}")
        for n in range(cap))
    big_b = (None, *(
        _induced(full_B(module, n), normalized[n], normalized[n - 1],
                 f"the Connes boundary leaves the normalized complex at degree {n}")
        for n in range(1, cap + 1)))
    return MixedComplexView(module, normalized, b, big_b)


def check_mixed_complex(view: MixedComplexView, name: str = "mixed complex") -> Report:
    rep = Report(name)
    cap = view.underlying.degree_cap
    for n in range(cap - 1):
        rep.check_zero(f"b b = 0 (degree {n})", view.b[n + 1] @ view.b[n])
    for n in range(2, cap + 1):
        rep.check_zero(f"B B = 0 (degree {n})", view.B[n - 1] @ view.B[n])
    for n in range(1, cap):
        rep.check_equal(f"b B + B b = 0 (degree {n})",
                        view.b[n - 1] @ view.B[n], -(view.B[n + 1] @ view.b[n]))
    return rep


# --------------------------------------------------------------------------
# cohomology in low degrees


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    dim: int
    representatives: tuple[tuple[Fraction, ...], ...]
    space: VectorSpace


def _quotient_representatives(b: LinearMap, b_prev: LinearMap, n: int):
    """Deterministic representatives of ker b / im b_prev at degree n.

    The image lies in the kernel exactly when b o b_prev = 0, one product.
    The representatives are the RREF rows of the kernel whose pivots are not
    pivots of the image.  Past the kernel of b, the image rows and the kernel
    rows are each eliminated once, apart.
    """
    if not (b @ b_prev).is_zero():
        raise LinAlgError(f"coboundary square is nonzero entering degree {n}")
    image_pivots = set(rref(b_prev.transpose())[1])
    rows, pivots = rref(subspace_from_kernel(b).basis.transpose())
    return [tuple(row) for row, p in zip(rows, pivots) if p not in image_pivots]


def hochschild_cohomology(module: CocyclicModule, n: int) -> CohomologyResult:
    """ker b / im b at degree n on the full (unnormalized) complex."""
    _require_degree(module, n, "Hochschild cohomology", high=module.degree_cap - 1)
    b_n = full_b(module, n)
    b_prev = LinearMap.zero(VectorSpace.make(0), module.spaces[n])
    if n >= 1:
        b_prev = full_b(module, n - 1)
    reps = _quotient_representatives(b_n, b_prev, n)
    return CohomologyResult(n, len(reps), tuple(reps), module.spaces[n])


def _cyclic_fixed(module: CocyclicModule, n: int) -> Subspace:
    """The fixed vectors of the signed cyclic operator at degree n, built once per tower."""
    memo = module._memo
    if ("fixed", n) not in memo:
        memo["fixed", n] = subspace_from_kernel(
            LinearMap.identity(module.spaces[n]) - lambda_operator(module, n), prefix="l")
    return memo["fixed", n]


def cyclic_cohomology(module: CocyclicModule, n: int) -> CohomologyResult:
    """Cohomology of the cyclic-eigenspace complex at degree n.

    The degree-n cochains are the fixed vectors of the signed cyclic operator;
    the coboundary is the restriction of b, which is verified to preserve the
    eigenspaces.
    """
    _require_degree(module, n, "cyclic cohomology", high=module.degree_cap - 1)
    fixed = _cyclic_fixed(module, n)
    image = LinearMap.zero(VectorSpace.make(0), fixed.space)
    if n >= 1:
        image = _induced(full_b(module, n - 1), _cyclic_fixed(module, n - 1), fixed,
                         f"the coboundary does not preserve the cyclic eigenspace at degree {n}")
    reps = _quotient_representatives(full_b(module, n) @ fixed.basis, image, n)
    ambient_reps = tuple(tuple(fixed.basis.apply(r)) for r in reps)
    return CohomologyResult(n, len(reps), ambient_reps, module.spaces[n])
