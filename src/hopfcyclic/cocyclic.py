"""Cocyclic modules realized as exact rational matrices.

A cocyclic module is a tower of based vector spaces C^0, ..., C^cap together
with coface, codegeneracy and cyclic operators.  This module provides

  * a generic carrier (`CocyclicModule`) plus `verify_cocyclic`, which checks
    every cosimplicial and cyclic identity by exact matrix equality;
  * four equivariant cochain constructions over a Hopf algebra H:
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
  * mixed-complex structure (normalized subcomplexes, b and B) and the
    normalization projector;
  * Hochschild and cyclic cohomology in degrees below the tower cap, with
    deterministic representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .coefficients import SaydContramodule, SaydModule, dualize
from .hopf import Algebra, ComoduleAlgebra, HopfAlgebra, ModuleAlgebra, ModuleCoalgebra
from .linalg import (
    LinAlgError,
    LinearMap,
    MembershipError,
    Quotient,
    Subspace,
    VectorSpace,
    basis_vector,
    cokernel,
    hom_postcompose,
    hom_precompose,
    hom_space,
    hom_tensor_left,
    hom_vector_to_map,
    insert_vector,
    map_to_hom_vector,
    relabel,
    rref,
    solve_constrained_subspace,
    stack_vertical,
    subspace_from_kernel,
    tensor_map,
    tensor_maps,
    tensor_permutation,
    tensor_space,
    tensor_spaces,
    vector_from,
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
    # ("b", n) / ("B", n) -> full_b / full_B of this tower, built on first use
    _coboundaries: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

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

    def space(self, n: int) -> VectorSpace:
        return self.spaces[n]

    def face(self, n: int, i: int) -> LinearMap:
        return self.faces[n][i]

    def degeneracy(self, n: int, j: int) -> LinearMap:
        return self.degeneracies[n][j]

    def tau(self, n: int) -> LinearMap:
        return self.cyclic[n]


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
# elementwise builders shared by the constructions


def _pow(space: VectorSpace, k: int) -> VectorSpace:
    return tensor_spaces([space] * k)


# (slots consumed, slots produced) of the structure maps placed by `_on_slots`
_MUL, _UNIT, _COMUL, _COUNIT = (2, 1), (0, 1), (1, 2), (1, 0)


def _on_slots(f: LinearMap, arity: tuple[int, int], k: int, i: int) -> LinearMap:
    """X^{(k)} -> X^{(k-p+q)}: f: X^{(p)} -> X^{(q)} on the slots from i on,
    the identity on the others.  X is the side of f that is one slot wide."""
    p, q = arity
    x = f.source if p == 1 else f.target
    ident = LinearMap.identity(x)
    out = tensor_maps([ident] * i + [f] + [ident] * (k - p - i))
    return relabel(out, _pow(x, k), _pow(x, k - p + q))


def _rotate_last_to_front(space: VectorSpace, k: int) -> LinearMap:
    perm = [k - 1] + list(range(k - 1))
    return relabel(tensor_permutation([space] * k, perm), _pow(space, k), _pow(space, k))


def diagonal_action(hopf: HopfAlgebra, action: LinearMap, k: int) -> LinearMap:
    """H (x) X^{(k)} -> X^{(k)}: act through the iterated comultiplication.

    `action` is a left action H (x) X -> X; factor i receives leg i of the
    comultiplication.
    """
    x = action.target
    out = relabel(action, tensor_space(hopf.space, _pow(x, 1)), _pow(x, 1))
    for m in range(1, k):
        prev = out
        perm = tensor_permutation([hopf.space, hopf.space, x, _pow(x, m)], [0, 2, 1, 3])
        step = tensor_map(action, prev) @ perm @ tensor_map(
            hopf.comul, LinearMap.identity(_pow(x, m + 1)))
        out = relabel(step, tensor_space(hopf.space, _pow(x, m + 1)), _pow(x, m + 1))
    return out


def diagonal_coaction(hopf: HopfAlgebra, coaction: LinearMap, k: int) -> LinearMap:
    """X^{(k)} -> H (x) X^{(k)}: multiply the coaction legs of all factors."""
    x = coaction.source
    out = relabel(coaction, _pow(x, 1), tensor_space(hopf.space, _pow(x, 1)))
    for m in range(1, k):
        prev = out
        perm = tensor_permutation([hopf.space, x, hopf.space, _pow(x, m)], [0, 2, 1, 3])
        step = tensor_map(hopf.mul, LinearMap.identity(_pow(x, m + 1))) @ perm @ tensor_map(
            coaction, prev)
        out = relabel(step, _pow(x, m + 1), tensor_space(hopf.space, _pow(x, m + 1)))
    return out


# --------------------------------------------------------------------------
# realized cochain complexes


@dataclass(frozen=True)
class HomCochainComplex:
    """A cocyclic module whose degree-n space is a subspace of Hom(D_n, V)."""

    module: CocyclicModule
    subspaces: tuple[Subspace, ...]
    domains: tuple[VectorSpace, ...]
    values: VectorSpace

    def basis_map(self, n: int, k: int) -> LinearMap:
        vec = self.subspaces[n].basis.column(k)
        return hom_vector_to_map(vec, self.domains[n], self.values)

    def cochain_map(self, n: int, vec) -> LinearMap:
        ambient = self.subspaces[n].basis.apply(vector_from(vec))
        return hom_vector_to_map(ambient, self.domains[n], self.values)

    def coords_of_map(self, n: int, m: LinearMap) -> list[Fraction]:
        return self.subspaces[n].coords(map_to_hom_vector(m))


@dataclass(frozen=True)
class QuotientCochainComplex:
    """A cocyclic module whose degree-n space is a quotient of a tensor space."""

    module: CocyclicModule
    quotients: tuple[Quotient, ...]
    ambients: tuple[VectorSpace, ...]
    relations: tuple[LinearMap, ...]


def _induced(op: LinearMap, source: Subspace, target: Subspace, what: str) -> LinearMap:
    try:
        return target.restrict_from(op, source)
    except MembershipError as exc:
        raise LinAlgError(f"{what} does not preserve the cochain space") from exc


def _descend(op: LinearMap, relation: LinearMap, source: Quotient, target: Quotient,
             what: str) -> LinearMap:
    if not (target.projection @ op @ relation).is_zero():
        raise LinAlgError(f"{what} is not well defined on the quotient")
    return target.projection @ op @ source.section


def _columns_map(source_space: VectorSpace, target_space: VectorSpace, cols) -> LinearMap:
    if source_space.dim == 0 or target_space.dim == 0:
        return LinearMap.zero(source_space, target_space)
    rows = [[cols[c][r] for c in range(len(cols))] for r in range(target_space.dim)]
    return LinearMap.from_rows(source_space, target_space, rows)


# --------------------------------------------------------------------------
# construction 1: plain algebra cochains


def plain_algebra_cocyclic(algebra: Algebra, values: Optional[VectorSpace] = None,
                           degree_cap: int = DEFAULT_DEGREE_CAP) -> CocyclicModule:
    """Cochains Hom(A^{(n+1)}, V) with the standard cyclic structure."""
    v = VectorSpace.ground() if values is None else values
    a = algebra.space
    cap = degree_cap
    spaces = tuple(hom_space(_pow(a, n + 1), v) for n in range(cap + 1))

    faces = []
    for n in range(cap):
        row = [
            relabel(hom_precompose(_on_slots(algebra.mul, _MUL, n + 2, i), v),
                    spaces[n], spaces[n + 1])
            for i in range(n + 1)
        ]
        wrap = _on_slots(algebra.mul, _MUL, n + 2, 0) @ _rotate_last_to_front(a, n + 2)
        row.append(relabel(hom_precompose(wrap, v), spaces[n], spaces[n + 1]))
        faces.append(tuple(row))

    degeneracies = [()]
    for n in range(1, cap + 1):
        degeneracies.append(tuple(
            relabel(hom_precompose(_on_slots(algebra.unit, _UNIT, n, j + 1), v),
                    spaces[n], spaces[n - 1])
            for j in range(n)))

    cyclic = tuple(
        relabel(hom_precompose(_rotate_last_to_front(a, n + 1), v), spaces[n], spaces[n])
        for n in range(cap + 1))

    return CocyclicModule(cap, spaces, tuple(faces), tuple(degeneracies), tuple(cyclic))


# --------------------------------------------------------------------------
# construction 2: coalgebra cochains with module coefficients


def _balanced_relation(coefficients: SaydModule, slot_action: LinearMap,
                       carrier: VectorSpace, k: int) -> LinearMap:
    """M (x) H (x) X^{(k)} -> M (x) X^{(k)}: right action minus diagonal action."""
    h = coefficients.hopf
    m = coefficients.space
    powk = _pow(slot_action.target, k)
    src = tensor_spaces([m, h.space, powk])
    tgt = tensor_space(m, powk)
    left = relabel(tensor_map(coefficients.action, LinearMap.identity(powk)), src, tgt)
    right = relabel(tensor_map(LinearMap.identity(m),
                               diagonal_action(h, slot_action, k)), src, tgt)
    out = left - right
    return relabel(out, src, carrier)


def coalgebra_cocyclic(coalgebra: ModuleCoalgebra, coefficients: SaydModule,
                       degree_cap: int = DEFAULT_DEGREE_CAP) -> QuotientCochainComplex:
    """M (x)_H C^{(n+1)} for an H-module coalgebra C and SAYD module M."""
    h = coalgebra.hopf
    if coefficients.hopf != h:
        raise LinAlgError("coefficients and coalgebra live over different Hopf algebras")
    c = coalgebra.space
    m = coefficients.space
    cap = degree_cap

    ambients = tuple(tensor_space(m, _pow(c, n + 1)) for n in range(cap + 1))
    relations = tuple(
        _balanced_relation(coefficients, coalgebra.action, ambients[n], n + 1)
        for n in range(cap + 1))
    quotients = tuple(cokernel(relations[n]) for n in range(cap + 1))
    spaces = tuple(q.space for q in quotients)

    id_m = LinearMap.identity(m)

    def face_ambient(n: int, i: int) -> LinearMap:
        if i <= n:
            return relabel(tensor_map(id_m, _on_slots(coalgebra.comul, _COMUL, n + 1, i)),
                           ambients[n], ambients[n + 1])
        step1 = tensor_map(coefficients.coaction, _on_slots(coalgebra.comul, _COMUL, n + 1, 0))
        perm = tensor_permutation([h.space, m, c, c, _pow(c, n)], [1, 3, 4, 0, 2])
        front = tensor_spaces([m, c, _pow(c, n)])
        act = tensor_map(LinearMap.identity(front), coalgebra.action)
        return relabel(act @ perm @ step1, ambients[n], ambients[n + 1])

    def tau_ambient(n: int) -> LinearMap:
        step1 = tensor_map(coefficients.coaction, LinearMap.identity(_pow(c, n + 1)))
        perm = tensor_permutation([h.space, m, c, _pow(c, n)], [1, 3, 0, 2])
        front = tensor_spaces([m, _pow(c, n)])
        act = tensor_map(LinearMap.identity(front), coalgebra.action)
        return relabel(act @ perm @ step1, ambients[n], ambients[n])

    faces = tuple(
        tuple(_descend(face_ambient(n, i), relations[n], quotients[n], quotients[n + 1],
                       f"coface {i} at degree {n}")
              for i in range(n + 2))
        for n in range(cap))
    degeneracies = tuple(
        tuple(_descend(relabel(tensor_map(id_m, _on_slots(coalgebra.counit, _COUNIT, n + 1, j + 1)),
                               ambients[n], ambients[n - 1]),
                       relations[n], quotients[n], quotients[n - 1],
                       f"codegeneracy {j} at degree {n}")
              for j in range(n))
        for n in range(cap + 1))
    cyclic = tuple(
        _descend(tau_ambient(n), relations[n], quotients[n], quotients[n],
                 f"cyclic operator at degree {n}")
        for n in range(cap + 1))

    module = CocyclicModule(cap, spaces, faces, degeneracies, cyclic)
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

    domains = tuple(tensor_space(m, _pow(a, n + 1)) for n in range(cap + 1))
    ambients = tuple(hom_space(domains[n], g) for n in range(cap + 1))
    relations = tuple(
        _balanced_relation(coefficients, algebra.action, domains[n], n + 1)
        for n in range(cap + 1))
    subspaces = tuple(
        solve_constrained_subspace(ambients[n], [hom_precompose(relations[n], g)], prefix="p")
        for n in range(cap + 1))

    id_m = LinearMap.identity(m)
    id_a = LinearMap.identity(a)
    act_sinv = algebra.action @ tensor_map(h.antipode_inv, id_a)

    def last_face_argument(n: int) -> LinearMap:
        # M (x) A^{(n+2)} -> M (x) A^{(n+1)}
        step1 = tensor_map(coefficients.coaction, LinearMap.identity(_pow(a, n + 2)))
        perm = tensor_permutation([h.space, m, a, _pow(a, n), a], [1, 0, 4, 2, 3])
        term = algebra.mul @ tensor_map(act_sinv, id_a)
        body = tensor_map(id_m, tensor_map(term, LinearMap.identity(_pow(a, n))))
        return relabel(body @ perm @ step1, domains[n + 1], domains[n])

    def tau_argument(n: int) -> LinearMap:
        step1 = tensor_map(coefficients.coaction, LinearMap.identity(_pow(a, n + 1)))
        perm = tensor_permutation([h.space, m, _pow(a, n), a], [1, 0, 3, 2])
        body = tensor_map(id_m, tensor_map(act_sinv, LinearMap.identity(_pow(a, n))))
        return relabel(body @ perm @ step1, domains[n], domains[n])

    faces = []
    for n in range(cap):
        row = []
        for i in range(n + 1):
            arg = relabel(tensor_map(id_m, _on_slots(algebra.mul, _MUL, n + 2, i)),
                          domains[n + 1], domains[n])
            row.append(_induced(relabel(hom_precompose(arg, g), ambients[n], ambients[n + 1]),
                                subspaces[n], subspaces[n + 1], f"coface {i} at degree {n}"))
        row.append(_induced(relabel(hom_precompose(last_face_argument(n), g),
                                    ambients[n], ambients[n + 1]),
                            subspaces[n], subspaces[n + 1], f"coface {n + 1} at degree {n}"))
        faces.append(tuple(row))

    degeneracies = [()]
    for n in range(1, cap + 1):
        row = []
        for j in range(n):
            arg = relabel(tensor_map(id_m, _on_slots(algebra.unit, _UNIT, n, j + 1)),
                          domains[n - 1], domains[n])
            row.append(_induced(relabel(hom_precompose(arg, g), ambients[n], ambients[n - 1]),
                                subspaces[n], subspaces[n - 1],
                                f"codegeneracy {j} at degree {n}"))
        degeneracies.append(tuple(row))

    cyclic = tuple(
        _induced(relabel(hom_precompose(tau_argument(n), g), ambients[n], ambients[n]),
                 subspaces[n], subspaces[n], f"cyclic operator at degree {n}")
        for n in range(cap + 1))

    spaces = tuple(sub.space for sub in subspaces)
    module = CocyclicModule(cap, spaces, tuple(faces), tuple(degeneracies), cyclic)
    return HomCochainComplex(module, subspaces, domains, g)


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

    domains = tuple(_pow(b, n + 1) for n in range(cap + 1))
    ambients = tuple(hom_space(domains[n], n_space) for n in range(cap + 1))

    subspaces = []
    for n in range(cap + 1):
        grad = diagonal_coaction(h, algebra.coaction, n + 1)
        post = hom_postcompose(domains[n], coefficients.coaction)
        pre = hom_precompose(grad, tensor_space(h.space, n_space)) @ hom_tensor_left(
            h.space, domains[n], n_space)
        constraint = relabel(post, ambients[n]) - relabel(pre, ambients[n])
        subspaces.append(solve_constrained_subspace(ambients[n], [constraint], prefix="p"))
    subspaces = tuple(subspaces)

    id_h = LinearMap.identity(h.space)
    swap_act = coefficients.action @ tensor_permutation([h.space, n_space], [1, 0])

    def basis_cochain(n: int, r: int) -> LinearMap:
        return hom_vector_to_map(subspaces[n].basis.column(r), domains[n], n_space)

    def twisted_column(n: int, r: int, with_product: bool):
        """The last coface (with_product) or cyclic operator applied to basis map r."""
        k = n + 2 if with_product else n + 1
        psi = basis_cochain(n, r)
        rot = _rotate_last_to_front(b, k)
        co = relabel(tensor_map(algebra.coaction, LinearMap.identity(_pow(b, k - 1))),
                     _pow(b, k), tensor_space(h.space, _pow(b, k)))
        inner = psi @ _on_slots(algebra.mul, _MUL, k, 0) if with_product else psi
        out = swap_act @ tensor_map(id_h, inner) @ co @ rot
        return map_to_hom_vector(out)

    def twisted_operator(n: int, with_product: bool, what: str) -> LinearMap:
        target = n + 1 if with_product else n
        cols = []
        for r in range(subspaces[n].dim):
            vec = twisted_column(n, r, with_product)
            try:
                cols.append(subspaces[target].coords(vec))
            except MembershipError as exc:
                raise LinAlgError(f"{what} does not preserve the cochain space") from exc
        return _columns_map(subspaces[n].space, subspaces[target].space, cols)

    faces = []
    for n in range(cap):
        row = [
            _induced(relabel(hom_precompose(_on_slots(algebra.mul, _MUL, n + 2, i), n_space),
                             ambients[n], ambients[n + 1]),
                     subspaces[n], subspaces[n + 1], f"coface {i} at degree {n}")
            for i in range(n + 1)
        ]
        row.append(twisted_operator(n, True, f"coface {n + 1} at degree {n}"))
        faces.append(tuple(row))

    degeneracies = [()]
    for n in range(1, cap + 1):
        degeneracies.append(tuple(
            _induced(relabel(hom_precompose(_on_slots(algebra.unit, _UNIT, n, j + 1), n_space),
                             ambients[n], ambients[n - 1]),
                     subspaces[n], subspaces[n - 1], f"codegeneracy {j} at degree {n}")
            for j in range(n)))

    cyclic = tuple(
        twisted_operator(n, False, f"cyclic operator at degree {n}")
        for n in range(cap + 1))

    spaces = tuple(sub.space for sub in subspaces)
    module = CocyclicModule(cap, spaces, tuple(faces), tuple(degeneracies), cyclic)
    return HomCochainComplex(module, subspaces, domains, n_space)


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

    domains = tuple(_pow(a, n + 1) for n in range(cap + 1))
    ambients = tuple(hom_space(domains[n], m_space) for n in range(cap + 1))

    id_a = LinearMap.identity(a)

    subspaces = []
    for n in range(cap + 1):
        diag = diagonal_action(h, algebra.action, n + 1)
        constraints = []
        for t in range(h.space.dim):
            ins = relabel(tensor_map(insert_vector(h.space, basis_vector(h.space, t)),
                                     LinearMap.identity(domains[n])),
                          domains[n], tensor_space(h.space, domains[n]))
            d_t = diag @ ins
            constraints.append(
                relabel(hom_precompose(d_t, m_space), ambients[n], ambients[n]) -
                relabel(hom_postcompose(domains[n], coefficients.act_by(t)),
                        ambients[n], ambients[n]))
        subspaces.append(solve_constrained_subspace(ambients[n], constraints, prefix="p"))
    subspaces = tuple(subspaces)

    s_inv_act = tuple(
        algebra.action @ relabel(
            tensor_map(insert_vector(h.space, h.antipode_inv.column(t)), id_a),
            a, tensor_space(h.space, a))
        for t in range(h.space.dim))

    def twisted_operator(n: int, with_product: bool, what: str) -> LinearMap:
        k = n + 2 if with_product else n + 1
        target = n + 1 if with_product else n
        rot = _rotate_last_to_front(a, k)
        pow_k = _pow(a, k)
        stacked = None
        for t in range(h.space.dim):
            acted = relabel(tensor_map(s_inv_act[t], LinearMap.identity(_pow(a, k - 1))),
                            pow_k, pow_k)
            arg = acted @ rot
            if with_product:
                arg = _on_slots(algebra.mul, _MUL, k, 0) @ arg
            slot = relabel(tensor_map(insert_vector(h.space, basis_vector(h.space, t)),
                                      LinearMap.identity(m_space)),
                           m_space, coefficients.alpha.source)
            term = hom_postcompose(pow_k, slot) @ relabel(
                hom_precompose(arg, m_space), ambients[n], None)
            stacked = term if stacked is None else stacked + term
        ambient_op = relabel(hom_postcompose(pow_k, coefficients.alpha) @ stacked,
                             ambients[n], ambients[target])
        return _induced(ambient_op, subspaces[n], subspaces[target], what)

    faces = []
    for n in range(cap):
        row = [
            _induced(relabel(hom_precompose(_on_slots(algebra.mul, _MUL, n + 2, i), m_space),
                             ambients[n], ambients[n + 1]),
                     subspaces[n], subspaces[n + 1], f"coface {i} at degree {n}")
            for i in range(n + 1)
        ]
        row.append(twisted_operator(n, True, f"coface {n + 1} at degree {n}"))
        faces.append(tuple(row))

    degeneracies = [()]
    for n in range(1, cap + 1):
        degeneracies.append(tuple(
            _induced(relabel(hom_precompose(_on_slots(algebra.unit, _UNIT, n, j + 1), m_space),
                             ambients[n], ambients[n - 1]),
                     subspaces[n], subspaces[n - 1], f"codegeneracy {j} at degree {n}")
            for j in range(n)))

    cyclic = tuple(
        twisted_operator(n, False, f"cyclic operator at degree {n}")
        for n in range(cap + 1))

    spaces = tuple(sub.space for sub in subspaces)
    module = CocyclicModule(cap, spaces, tuple(faces), tuple(degeneracies), cyclic)
    return HomCochainComplex(module, subspaces, domains, m_space)


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
        try:
            fwd = contra_side.subspaces[n].restrict_from(amb_fwd, module_side.subspaces[n])
        except MembershipError as exc:
            raise LinAlgError(
                f"transposition does not land in the equivariant cochains at degree {n}"
            ) from exc
        try:
            bwd = module_side.subspaces[n].restrict_from(amb_bwd, contra_side.subspaces[n])
        except MembershipError as exc:
            raise LinAlgError(
                f"inverse transposition does not land in the balanced functionals at degree {n}"
            ) from exc
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
    cache = module._coboundaries
    if ("b", n) not in cache:
        out = module.faces[n][0]
        for i in range(1, n + 2):
            term = module.faces[n][i]
            out = out + term if i % 2 == 0 else out - term
        cache["b", n] = out
    return cache["b", n]


def full_B(module: CocyclicModule, n: int) -> LinearMap:
    """The Connes boundary C^n -> C^{n-1} (n >= 1), built once per tower."""
    cache = module._coboundaries
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
    return module.cyclic[n].scale(Fraction((-1) ** n))


def normalization_projector(module: CocyclicModule, n: int) -> LinearMap:
    """Idempotent onto the joint kernel of the codegeneracies at degree n."""
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
    normalized = tuple(
        solve_constrained_subspace(module.spaces[n], list(module.degeneracies[n]), prefix="n")
        for n in range(cap + 1))
    b = []
    for n in range(cap):
        try:
            b.append(normalized[n + 1].restrict_from(full_b(module, n), normalized[n]))
        except MembershipError as exc:
            raise LinAlgError(
                f"the Hochschild coboundary leaves the normalized complex at degree {n}"
            ) from exc
    big_b: list[Optional[LinearMap]] = [None]
    for n in range(1, cap + 1):
        try:
            big_b.append(normalized[n - 1].restrict_from(full_B(module, n), normalized[n]))
        except MembershipError as exc:
            raise LinAlgError(
                f"the Connes boundary leaves the normalized complex at degree {n}"
            ) from exc
    return MixedComplexView(module, normalized, tuple(b), tuple(big_b))


def check_mixed_complex(view: MixedComplexView, name: str = "mixed complex") -> Report:
    rep = Report(name)
    cap = view.underlying.degree_cap
    for n in range(cap - 1):
        rep.check_zero(f"b b = 0 (degree {n})", view.b[n + 1] @ view.b[n])
    for n in range(2, cap + 1):
        rep.check_zero(f"B B = 0 (degree {n})", view.B[n - 1] @ view.B[n])
    for n in range(1, cap):
        rep.check_zero(f"b B + B b = 0 (degree {n})",
                       view.b[n - 1] @ view.B[n] + view.B[n + 1] @ view.b[n])
    return rep


# --------------------------------------------------------------------------
# cohomology in low degrees


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    dim: int
    representatives: tuple[tuple[Fraction, ...], ...]
    space: VectorSpace


def _quotient_representatives(b: LinearMap, b_prev: LinearMap):
    """Deterministic representatives of ker b / im b_prev.

    The image must lie in the kernel.  The representatives are the RREF rows
    of the kernel whose pivots are not pivots of the image.
    """
    kernel = subspace_from_kernel(b).basis.transpose()
    image = b_prev.transpose()
    image_pivots = set(rref(image)[1])
    rows, pivots = rref(stack_vertical([image, kernel]))
    if len(pivots) != kernel.target.dim:
        raise LinAlgError("image is not contained in the kernel")
    return [tuple(row) for row, p in zip(rows, pivots) if p not in image_pivots]


def _require_degree(module: CocyclicModule, n: int) -> None:
    if not 0 <= n <= module.degree_cap - 1:
        raise ValueError(
            f"degree {n} is out of range: the tower is capped at {module.degree_cap}, "
            f"so cohomology is available in degrees 0..{module.degree_cap - 1}")


def hochschild_cohomology(module: CocyclicModule, n: int) -> CohomologyResult:
    """ker b / im b at degree n on the full (unnormalized) complex."""
    _require_degree(module, n)
    b_n = full_b(module, n)
    b_prev = LinearMap.zero(VectorSpace.make(0), module.spaces[n])
    if n >= 1:
        b_prev = full_b(module, n - 1)
        if not (b_n @ b_prev).is_zero():
            raise LinAlgError(f"coboundary square is nonzero entering degree {n}")
    reps = _quotient_representatives(b_n, b_prev)
    return CohomologyResult(n, len(reps), tuple(reps), module.spaces[n])


def _cyclic_fixed(module: CocyclicModule, n: int) -> Subspace:
    """The fixed vectors of the signed cyclic operator at degree n."""
    return subspace_from_kernel(
        LinearMap.identity(module.spaces[n]) - lambda_operator(module, n), prefix="l")


def cyclic_cohomology(module: CocyclicModule, n: int) -> CohomologyResult:
    """Cohomology of the cyclic-eigenspace complex at degree n.

    The degree-n cochains are the fixed vectors of the signed cyclic operator;
    the coboundary is the restriction of b, which is verified to preserve the
    eigenspaces.
    """
    _require_degree(module, n)
    fixed = _cyclic_fixed(module, n)
    image = LinearMap.zero(VectorSpace.make(0), fixed.space)
    if n >= 1:
        try:
            image = fixed.restrict_from(full_b(module, n - 1), _cyclic_fixed(module, n - 1))
        except MembershipError as exc:
            raise LinAlgError(
                f"the coboundary does not preserve the cyclic eigenspace at degree {n}"
            ) from exc
    reps = _quotient_representatives(full_b(module, n) @ fixed.basis, image)
    ambient_reps = tuple(tuple(fixed.basis.apply(r)) for r in reps)
    return CohomologyResult(n, len(reps), ambient_reps, module.spaces[n])
