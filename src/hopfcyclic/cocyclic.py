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

Normalized cochains.  N^n is the joint kernel of the codegeneracies out of
degree n, and Hochschild cohomology is solved on N: by the normalization
theorem the classes R found there, lifted, span ker b_n together with
I = im b_{n-1}, and the RREF of I + span(R) is unique, so the representatives
are those of the full complex.

The cyclic cochains are ker(1 - lambda) (`_cyclic_fixed`), and b and B are
each one signed sum of their terms.  Every quantity outside its degree range
is refused by one rule, `_require_degree`.

Equivariance on generators.  The balanced relations of the coalgebra and
balanced-functional towers and the equivariance constraints of the
contramodule-valued tower are built on a set G of algebra generators of H
(`hopf.algebra_generators`), not on every basis element.  The relation of a
product splits into relations of its factors,

    m.(hk) (x) x - m (x) (hk).x = [(m.h).k (x) x - m.h (x) k.x] + [m.h (x) k.x - m (x) h.(k.x)],

and phi((hk).x) - (hk).phi(x) = [phi(h.(k.x)) - h.phi(k.x)] + h.[phi(k.x) - k.phi(x)],
so the relations on G span those on all of H and the constraints on G cut
out the same kernel.  The RREF is unique, so the quotients, kernels,
sections and labels are those built on all of H.  The colinear tower's
coaction constraint is built whole: the dual argument would need coalgebra
cogenerators.

Operator assembly.  Four constructions are cochains Hom([lead (x)] A^{(n+1)}, V)
of an algebra A, built by one recipe, `_algebra_cochains`: each supplies only
its degree-0 cyclic operator and the constraint whose kernels are its cochains
(none for plain cochains).  `_operators` writes every operator in one sparse
pass on coordinates (lead, x_0, ..., x_n, trail): coface i and codegeneracy j
are id (x) f (x) id with f the (transposed, for Hom spaces) structure map on
their slots; t and the last coface t d_0 carry their degree-0 kernels through
x_1..x_n.  The recipe restricts them to the kernels (`_induced`), the
coalgebra construction descends them to quotients by the balanced relations
it shares with the balanced functionals, and both verify every operator.
"""

from __future__ import annotations

from fractions import Fraction

from .coefficients import SaydContramodule, SaydModule, dualize
from .hopf import (Algebra, ComoduleAlgebra, HopfAlgebra, ModuleAlgebra, ModuleCoalgebra,
                   algebra_generators, comultiplication_closure, element_inclusion,
                   equivariance_constraint, generator_action, restricted_comultiplication)
from .linalg import (
    LinAlgError,
    LinearMap,
    MembershipError,
    Quotient,
    Subspace,
    VectorSpace,
    cokernel,
    dual_space,
    fixed_subspace,
    hom_space,
    partial_transpose,
    relabel,
    row_echelon,
    rref,
    signed_sum,
    slot_map,
    solve_constrained_subspace,
    stack_vertical,
    subspace_from_kernel,
    tensor_map,
    tensor_permutation,
    tensor_space,
)
from .reporting import Report
from .valueclass import memoised, valueclass

DEFAULT_DEGREE_CAP = 4


# --------------------------------------------------------------------------
# generic carrier


@valueclass
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


def _refuse(module, what: str):
    raise LinAlgError(f"{what} is outside the tower, which is capped at degree "
                      f"{module.degree_cap}")


def _require_degree(module, n: int, what: str, low: int = 0,
                    high: int | None = None) -> None:
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
    identities = [LinearMap.identity(space) for space in module.spaces]

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
                    rep.check_equal(f"s{j} d{i} = id (degree {n})", lhs, identities[n])
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
        power = t(n)
        for _ in range(n):
            power = t(n) @ power
        rep.check_equal(f"t^{n + 1} = id (degree {n})", power, identities[n])

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
    """G (x) X^{(m)} -> X^{(m)} for m = 1..k and the algebra generators G of H,
    given X^{(1)}, ..., X^{(k)}.  Each is built from the one before on the
    span E of the fewest basis elements that hold G and the legs of their
    comultiplication (for a group algebra E = G, for sweedler4 E = {1, g, x}):
    e splits into e_(1) (x) e_(2), e_(2) acts on the last m - 1 factors and
    e_(1) on the first.  The generators' blocks are kept."""
    generators = algebra_generators(hopf)
    elements = comultiplication_closure(hopf, generators)
    into = element_inclusion(hopf, elements)
    span, comul = into.source, restricted_comultiplication(hopf, elements)
    first = action @ tensor_map(into, LinearMap.identity(action.target))
    out = [first]
    for rest, power in zip(powers, powers[1:]):
        source = tensor_space(span, power)
        split = tensor_space(span, source)
        out.append(slot_map(first, 1, rest.dim, source, power)
                   @ slot_map(out[-1], span.dim, action.target.dim, split, source,
                              (rest.dim, rest.dim))
                   @ slot_map(comul, 1, power.dim, source, split))
    if elements == generators:
        return out
    pick = LinearMap.from_entries(VectorSpace.make(len(generators)), span,
                                  [(elements.index(g), k, 1) for k, g in enumerate(generators)])
    return [d @ slot_map(pick, 1, power.dim, VectorSpace.make(pick.source.dim * power.dim),
                         d.source)
            for d, power in zip(out, powers)]


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


# --------------------------------------------------------------------------
# realized cochain complexes


@valueclass
class HomCochainComplex:
    """A cocyclic module whose degree-n space is a subspace of Hom(D_n, V)."""

    module: CocyclicModule
    subspaces: tuple[Subspace, ...]
    domains: tuple[VectorSpace, ...]
    values: VectorSpace


@valueclass
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


def _coact_then_act(coefficients: SaydModule, action: LinearMap,
                    x: VectorSpace) -> LinearMap:
    """M (x) X -> M (x) X, m (x) x -> m_(0) (x) m_(-1) . x, for the coaction of
    the coefficients and an action H (x) X -> X."""
    h, m = coefficients.hopf.space, coefficients.space
    return (tensor_map(LinearMap.identity(m), action)
            @ tensor_permutation([h, m, x], [1, 0, 2])
            @ tensor_map(coefficients.coaction, LinearMap.identity(x)))


def _same_hopf(structure, coefficients, name: str) -> HopfAlgebra:
    """The Hopf algebra of `structure`, refused unless the coefficients live over it."""
    if coefficients.hopf != structure.hopf:
        raise LinAlgError(f"coefficients and {name} live over different Hopf algebras")
    return structure.hopf


def _balanced_relations(coefficients: SaydModule, action: LinearMap, powers) -> list[LinearMap]:
    """M (x) G (x) X^{(m)} -> M (x) X^{(m)} for each given power X^{(m)}, m = 1..k,
    and the algebra generators G of H: the right action of the coefficients
    minus the diagonal action of `action`, the generators' column blocks of
    the relations on all of H.  They have the same image, since the relation
    of a product splits into relations of its factors,
    m.(hk) (x) x - m (x) (hk).x = [(m.h).k (x) x - m.h (x) k.x] + [m.h (x) k.x - m (x) h.(k.x)],
    so the quotients and kernels read off the RREF of that image are unchanged."""
    h, m = coefficients.hopf, coefficients.space
    into = element_inclusion(h, algebra_generators(h))
    right = coefficients.action @ tensor_map(LinearMap.identity(m), into)
    m_g = tensor_space(m, into.source)
    out = []
    for power, diag in zip(powers, _diagonal_actions(h, action, powers)):
        source, target = tensor_space(m_g, power), tensor_space(m, power)
        out.append(slot_map(right, 1, power.dim, source, target)
                   - slot_map(diag, m.dim, 1, source, target))
    return out


def _algebra_cochains(algebra: Algebra, values: VectorSpace, tau0: LinearMap,
                      degree_cap: int, lead: VectorSpace | None = None,
                      constraints=None):
    """The cochains Hom([lead (x)] A^{(n+1)}, values), n = 0..cap, of an algebra A,
    with phi -> phi o m_i, phi -> phi o u_j and the degree-0 cyclic operator
    `tau0`; cut down, if given, to the kernels of constraints(powers, ambients),
    one per degree, for the powers A^{(1)}..A^{(cap+1)} and the Hom spaces."""
    powers = _powers(algebra.space, degree_cap + 1)[1:]
    domains = powers if lead is None else [tensor_space(lead, p) for p in powers]
    ambients = [hom_space(d, values) for d in domains]
    operators = _operators(ambients, algebra.space.dim, 1 if lead is None else lead.dim,
                           values.dim, algebra.mul.transpose(), algebra.unit.transpose(),
                           relabel(tau0, ambients[0], ambients[0]))
    if constraints is None:
        return CocyclicModule(degree_cap, tuple(ambients), *operators)
    subspaces = tuple(solve_constrained_subspace(ambient, [c], prefix="p")
                      for ambient, c in zip(ambients, constraints(powers, ambients)))
    module = _realize([sub.space for sub in subspaces], operators, lambda op, s, t, what: _induced(
        op, subspaces[s], subspaces[t], f"{what} does not preserve the cochain space"))
    return HomCochainComplex(module, subspaces, tuple(domains), values)


# --------------------------------------------------------------------------
# construction 1: plain algebra cochains


def plain_algebra_cocyclic(algebra: Algebra, values: VectorSpace | None = None,
                           degree_cap: int = DEFAULT_DEGREE_CAP) -> CocyclicModule:
    """Cochains Hom(A^{(n+1)}, V) with the standard cyclic structure."""
    v = VectorSpace.ground() if values is None else values
    # the rotation phi(a_n, a_0, ...) is trivial in degree 0
    return _algebra_cochains(algebra, v, LinearMap.identity(hom_space(algebra.space, v)),
                             degree_cap)


# --------------------------------------------------------------------------
# construction 2: coalgebra cochains with module coefficients


def coalgebra_cocyclic(coalgebra: ModuleCoalgebra, coefficients: SaydModule,
                       degree_cap: int = DEFAULT_DEGREE_CAP) -> QuotientCochainComplex:
    """M (x)_H C^{(n+1)} for an H-module coalgebra C and SAYD module M."""
    _same_hopf(coalgebra, coefficients, "coalgebra")
    c = coalgebra.space
    relations = tuple(_balanced_relations(coefficients, coalgebra.action,
                                          _powers(c, degree_cap + 1)[1:]))
    ambients = tuple(r.target for r in relations)
    quotients = tuple(cokernel(r) for r in relations)

    # degree 0: m (x) c -> m_(0) (x) m_(-1) . c
    tau0 = _coact_then_act(coefficients, coalgebra.action, c)
    operators = _operators(ambients, c.dim, coefficients.space.dim, 1, coalgebra.comul,
                           coalgebra.counit, tau0)

    def induce(op, s, t, what):
        projected = quotients[t].projection @ op
        if not (projected @ relations[s]).is_zero():
            raise LinAlgError(f"{what} is not well defined on the quotient")
        return projected @ quotients[s].section

    module = _realize([q.space for q in quotients], operators, induce)
    return QuotientCochainComplex(module, quotients, ambients, relations)


# --------------------------------------------------------------------------
# construction 3: balanced functionals on M (x) A^{(n+1)}


def algebra_module_cocyclic(algebra: ModuleAlgebra, coefficients: SaydModule,
                            degree_cap: int = DEFAULT_DEGREE_CAP) -> HomCochainComplex:
    """Functionals on M (x) A^{(n+1)} balanced over H, with the cyclic structure."""
    _same_hopf(algebra, coefficients, "algebra")

    def balanced(powers, _ambients):
        return [r.transpose() for r in _balanced_relations(coefficients, algebra.action, powers)]

    # degree 0: phi -> phi(m_(0) (x) S^{-1}(m_(-1)) . a)
    tau0 = _coact_then_act(coefficients, algebra.twisted_action(), algebra.space).transpose()
    return _algebra_cochains(algebra.algebra, VectorSpace.ground(), tau0, degree_cap,
                             coefficients.space, balanced)


# --------------------------------------------------------------------------
# construction 4: colinear maps B^{(n+1)} -> N


def comodule_algebra_cocyclic(algebra: ComoduleAlgebra, coefficients: SaydModule,
                              degree_cap: int = DEFAULT_DEGREE_CAP) -> HomCochainComplex:
    """H-colinear maps B^{(n+1)} -> N with the cyclic structure twisted by N."""
    h = _same_hopf(algebra, coefficients, "algebra")
    b, n_space = algebra.space, coefficients.space
    dn = n_space.dim

    # psi is colinear when N's coaction after psi equals (id (x) psi) after the
    # diagonal coaction; both sides land in coordinates (t, x, u) for the leg
    # t.  The right side is a slot map of the diagonal coaction with its B
    # factors transposed, which is built by the same recursion from the
    # transposed coaction `flipped`: entry ((t, x), y) is entry ((t, y), x).
    flipped = relabel(partial_transpose(algebra.coaction.transpose(), dual_space(h.space),
                                        dual_space(b)).transpose(), b, tensor_space(h.space, b))

    def colinear(powers, ambients):
        out = []
        for power, ambient, grad in zip(powers, ambients,
                                        _diagonal_coactions(h, flipped, powers)):
            legs = VectorSpace.make(h.space.dim * ambient.dim, "c")
            out.append(slot_map(coefficients.coaction, 1, power.dim, ambient, legs, (dn, dn))
                       - slot_map(grad, 1, dn, ambient, legs))
        return out

    # degree 0: psi -> psi(b_(0)) . b_(-1), on Hom(B, N) read as B (x) N
    tau0 = (tensor_map(LinearMap.identity(b), coefficients.action)
            @ tensor_permutation([h.space, b, n_space], [1, 2, 0])
            @ tensor_map(flipped, LinearMap.identity(n_space)))
    return _algebra_cochains(algebra.algebra, n_space, tau0, degree_cap, constraints=colinear)


# --------------------------------------------------------------------------
# construction 5: equivariant maps A^{(n+1)} -> Mc (contramodule values)


def algebra_contra_cocyclic(algebra: ModuleAlgebra, coefficients: SaydContramodule,
                            degree_cap: int = DEFAULT_DEGREE_CAP) -> HomCochainComplex:
    """H-equivariant maps A^{(n+1)} -> Mc with the contramodule cyclic structure."""
    h = _same_hopf(algebra, coefficients, "algebra")
    a, m_space = algebra.space, coefficients.space

    # phi is equivariant when phi(t . x) = t . phi(x) for every algebra generator t of H
    def equivariant(powers, ambients):
        values = generator_action(h, coefficients.action)
        return [equivariance_constraint(h, diag, values, ambient)
                for diag, ambient in zip(_diagonal_actions(h, algebra.action, powers), ambients)]

    # degree 0: phi -> alpha(t (x) phi(S^{-1}(t) . a)), summed over the basis t of
    # H; on Hom(A, Mc) read as A* (x) Mc, the twisted action's transpose makes
    # the t* (x) a* legs
    tau0 = (tensor_map(LinearMap.identity(a), coefficients.alpha)
            @ tensor_permutation([h.space, a, m_space], [1, 0, 2])
            @ tensor_map(algebra.twisted_action().transpose(), LinearMap.identity(m_space)))
    return _algebra_cochains(algebra.algebra, m_space, tau0, degree_cap,
                             constraints=equivariant)


# --------------------------------------------------------------------------
# duality between balanced functionals and contramodule-valued cochains


@valueclass
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


@memoised
def full_b(module: CocyclicModule, n: int) -> LinearMap:
    """Alternating sum of the cofaces out of degree n, built once per tower."""
    _require_degree(module, n, "the Hochschild coboundary", high=module.degree_cap - 1)
    return signed_sum([((-1) ** i, f) for i, f in enumerate(module.faces[n])])


@memoised
def full_B(module: CocyclicModule, n: int) -> LinearMap:
    """The Connes boundary C^n -> C^{n-1} (n >= 1), built once per tower."""
    _require_degree(module, n, "the Connes boundary", low=1)
    # the sum over i of (-1)^{(n-1) i} t^i s_{n-1} t, t^i taken in degree n - 1
    terms = [(1, module.degeneracies[n][n - 1] @ module.cyclic[n])]
    for i in range(1, n):
        terms.append(((-1) ** ((n - 1) * i), module.cyclic[n - 1] @ terms[-1][1]))
    return signed_sum(terms)


def lambda_operator(module: CocyclicModule, n: int) -> LinearMap:
    return module.tau(n).scale(Fraction((-1) ** n))


@memoised
def normalized_cochains(module: CocyclicModule, n: int) -> Subspace:
    """The normalized cochains N^n, the joint kernel of the codegeneracies out
    of degree n, built once per tower.  Its basis is the RREF kernel basis,
    the identity on its support rows."""
    _require_degree(module, n, "the normalized cochains")
    return solve_constrained_subspace(module.spaces[n], module.degeneracies[n], prefix="n")


@memoised
def _normalized_b(module: CocyclicModule, n: int) -> LinearMap:
    """The Hochschild coboundary N^n -> N^{n+1}, verified, built once per tower."""
    return _induced(
        full_b(module, n), normalized_cochains(module, n), normalized_cochains(module, n + 1),
        f"the Hochschild coboundary leaves the normalized complex at degree {n}")


@memoised
def normalization_projector(module: CocyclicModule, n: int) -> LinearMap:
    """Idempotent onto N^n, the joint kernel of the codegeneracies at degree n,
    along the images of the cofaces d_1, ..., d_n into degree n: the product
    of the factors id - d_{j+1} s_j, j = 0..n-1, each of which kills the image
    of d_{j+1}.  Built and checked (every s_j misses it, it is idempotent)
    once per tower."""
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


@valueclass
class MixedComplexView:
    """Normalized subcomplex with restricted b and B operators."""

    underlying: CocyclicModule
    normalized: tuple[Subspace, ...]
    b: tuple[LinearMap, ...]
    B: tuple[LinearMap | None, ...]


def mixed_complex(module: CocyclicModule) -> MixedComplexView:
    cap = module.degree_cap
    normalized = tuple(normalized_cochains(module, n) for n in range(cap + 1))
    b = tuple(_normalized_b(module, n) for n in range(cap))
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


@valueclass
class CohomologyResult:
    degree: int
    dim: int
    representatives: tuple[tuple[Fraction, ...], ...]
    space: VectorSpace


def _require_square_zero(b: LinearMap, b_prev: LinearMap, n: int) -> None:
    """The image of b_prev lies in the kernel of b exactly when b o b_prev = 0,
    one product."""
    if not (b @ b_prev).is_zero():
        raise LinAlgError(f"coboundary square is nonzero entering degree {n}")


def _quotient_representatives(b: LinearMap, b_prev: LinearMap) -> list[tuple[Fraction, ...]]:
    """Deterministic representatives of ker b / im b_prev, for b o b_prev = 0:
    the RREF rows of the kernel whose pivots are not pivots of the image.
    Past the kernel of b, the image rows and the kernel rows are each
    eliminated once, apart; a kernel no larger than the image is the image,
    and its rows are not eliminated."""
    image_pivots = set(row_echelon(b_prev.transpose())[1])
    kernel = subspace_from_kernel(b)
    if kernel.dim == len(image_pivots):
        return []
    rows, pivots = rref(kernel.basis.transpose())
    return [tuple(row) for row, p in zip(rows, pivots) if p not in image_pivots]


def hochschild_cohomology(module: CocyclicModule, n: int) -> CohomologyResult:
    """ker b / im b at degree n, with the representatives of the full complex:
    the RREF rows of K = ker b_n whose pivots are not pivots of I = im b_{n-1}.

    The check b_n o b_{n-1} = 0 runs on the full complex.  The classes are
    solved on the normalized complex, which has the same cohomology (the
    normalization theorem for cosimplicial modules): R, the representatives
    of ker(b|N^n) / im(b|N^{n-1}), lifted to C^n, gives K = I + span(R).  The
    RREF of K is unique, so eliminating the RREF rows of I together with R
    gives it, and its rows whose pivots are not pivots of I are the
    representatives.
    """
    _require_degree(module, n, "Hochschild cohomology", high=module.degree_cap - 1)
    b_n = full_b(module, n)
    b_prev = LinearMap.zero(VectorSpace.make(0), module.spaces[n])
    if n >= 1:
        b_prev = full_b(module, n - 1)
    _require_square_zero(b_n, b_prev, n)
    normalized = normalized_cochains(module, n)
    into = LinearMap.zero(VectorSpace.make(0), normalized.space)
    if n >= 1:
        into = _normalized_b(module, n - 1)
    classes = _quotient_representatives(b_n @ normalized.basis, into)
    reps = []
    if classes:
        image, image_pivots = row_echelon(b_prev.transpose())
        lifted = LinearMap.from_rows(module.spaces[n], VectorSpace.make(len(classes)),
                                     [normalized.basis.apply(c) for c in classes])
        rows, pivots = row_echelon(stack_vertical([image, lifted]))
        dense = rows.transpose()
        image_pivots = set(image_pivots)
        reps = [tuple(dense.column(k)) for k, p in enumerate(pivots) if p not in image_pivots]
    return CohomologyResult(n, len(reps), tuple(reps), module.spaces[n])


@memoised
def _cyclic_fixed(module: CocyclicModule, n: int) -> Subspace:
    """The fixed vectors of the signed cyclic operator lambda at degree n,
    ker(1 - lambda) as its RREF kernel basis, built once per tower."""
    return fixed_subspace(lambda_operator(module, n), prefix="l")


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
    b_n = full_b(module, n) @ fixed.basis
    _require_square_zero(b_n, image, n)
    reps = _quotient_representatives(b_n, image)
    ambient_reps = tuple(tuple(fixed.basis.apply(r)) for r in reps)
    return CohomologyResult(n, len(reps), ambient_reps, module.spaces[n])
