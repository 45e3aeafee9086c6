"""Hopf algebras and their (co)module structures as structure-constant data.

A Hopf algebra is a bundle of seven exact matrices (multiplication, unit,
comultiplication, counit, antipode and its inverse over a based space); every
axiom is checkable as an exact matrix identity and checkers return structured
reports rather than raising.  On top sit module algebras, module coalgebras,
comodule algebras, coalgebra actions, and the two derived algebras those
produce: the convolution algebra of equivariant maps and the crossed product.

H-linearity is one constraint on the map space (`equivariance_constraint`),
the convolution product one composite of Hom-space maps, and the embedding
of the algebra the coalgebra action curried.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import (
    LinearMap,
    Subspace,
    VectorSpace,
    dual_space,
    hom_postcompose,
    hom_precompose,
    hom_space,
    insert_vector,
    map_to_hom_vector,
    partial_transpose,
    relabel,
    slot_map,
    solve_constrained_subspace,
    tensor_map,
    tensor_maps,
    tensor_permutation,
    tensor_space,
    tensor_subspace,
)
from .reporting import Report

_Q = VectorSpace.ground()


@dataclass(frozen=True)
class Algebra:
    """An associative unital algebra: carrier, multiplication, unit."""

    space: VectorSpace
    mul: LinearMap
    unit: LinearMap


def check_algebra(a: Algebra, title: str = "algebra") -> Report:
    rep = Report(title)
    h = a.space
    i_h = LinearMap.identity(h)
    rep.check_equal(
        "multiplication associative",
        a.mul @ tensor_map(a.mul, i_h),
        a.mul @ tensor_map(i_h, a.mul),
    )
    rep.check_equal("left unit law", a.mul @ tensor_map(a.unit, i_h), i_h)
    rep.check_equal("right unit law", a.mul @ tensor_map(i_h, a.unit), i_h)
    return rep


@dataclass(frozen=True)
class Coalgebra:
    space: VectorSpace
    comul: LinearMap
    counit: LinearMap


def check_coalgebra(c: Coalgebra, title: str = "coalgebra") -> Report:
    rep = Report(title)
    i_c = LinearMap.identity(c.space)
    rep.check_equal(
        "comultiplication coassociative",
        tensor_map(c.comul, i_c) @ c.comul,
        tensor_map(i_c, c.comul) @ c.comul,
    )
    rep.check_equal("left counit law", tensor_map(c.counit, i_c) @ c.comul, i_c)
    rep.check_equal("right counit law", tensor_map(i_c, c.counit) @ c.comul, i_c)
    return rep


@dataclass(frozen=True)
class HopfAlgebra:
    space: VectorSpace
    mul: LinearMap
    unit: LinearMap
    comul: LinearMap
    counit: LinearMap
    antipode: LinearMap
    antipode_inv: LinearMap

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def algebra(self) -> Algebra:
        return Algebra(self.space, self.mul, self.unit)

    @property
    def coalgebra(self) -> Coalgebra:
        return Coalgebra(self.space, self.comul, self.counit)


def iterated_comultiplication(h: HopfAlgebra, k: int) -> LinearMap:
    """The k-fold comultiplication H -> H^(x)(k+1); k = 0 is the identity."""
    out = LinearMap.identity(h.space)
    for step in range(k):
        out = tensor_map(h.comul, tensor_maps([LinearMap.identity(h.space)] * step)) @ out
    return out


def check_hopf_axioms(h: HopfAlgebra) -> Report:
    """Every Hopf algebra axiom as a separate exact matrix identity."""
    rep = Report("hopf axioms")
    space = h.space
    i_h = LinearMap.identity(space)
    rep.extend(check_algebra(h.algebra))
    rep.extend(check_coalgebra(h.coalgebra))
    mid_swap = tensor_permutation([space] * 4, [0, 2, 1, 3])
    rep.check_equal(
        "comultiplication is an algebra map",
        h.comul @ h.mul,
        tensor_map(h.mul, h.mul) @ mid_swap @ tensor_map(h.comul, h.comul),
    )
    rep.check_equal("comultiplication preserves the unit", h.comul @ h.unit, tensor_map(h.unit, h.unit))
    rep.check_equal("counit is an algebra map", h.counit @ h.mul, tensor_map(h.counit, h.counit))
    rep.check_equal("counit preserves the unit", h.counit @ h.unit, LinearMap.identity(_Q))
    unit_counit = h.unit @ h.counit
    rep.check_equal("antipode left axiom", h.mul @ tensor_map(h.antipode, i_h) @ h.comul, unit_counit)
    rep.check_equal("antipode right axiom", h.mul @ tensor_map(i_h, h.antipode) @ h.comul, unit_counit)
    rep.check_equal("antipode inverse left", h.antipode_inv @ h.antipode, i_h)
    rep.check_equal("antipode inverse right", h.antipode @ h.antipode_inv, i_h)
    return rep


# -- builtin constructors -------------------------------------------


class GroupTableError(ValueError):
    """The offered multiplication table is not a group; names the axiom."""


def _validate_group(table: Sequence[Sequence[int]]) -> int:
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise GroupTableError("closure: table entries must index group elements")
    identity = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupTableError("identity: no two-sided identity element")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise GroupTableError(
                        f"associativity: fails at elements ({i}, {j}, {k})"
                    )
    for i in range(n):
        if not any(table[i][j] == identity and table[j][i] == identity for j in range(n)):
            raise GroupTableError(f"inverses: element {i} has no inverse")
    return identity


def group_algebra(table: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None) -> HopfAlgebra:
    """The group algebra of a finite group given by its multiplication table.

    Basis = group elements; every basis element is grouplike and the antipode
    inverts group elements (so it is an involution on the basis).
    """
    identity = _validate_group(table)
    n = len(table)
    if labels is None:
        labels = tuple(f"g{i}" for i in range(n))
    space = VectorSpace(n, tuple(labels))
    mul = LinearMap.from_entries(
        tensor_space(space, space), space,
        [(table[i][j], i * n + j, Fraction(1)) for i in range(n) for j in range(n)],
    )
    unit = LinearMap.from_entries(_Q, space, [(identity, 0, Fraction(1))])
    comul = LinearMap.from_entries(
        space, tensor_space(space, space), [(i * n + i, i, Fraction(1)) for i in range(n)]
    )
    counit = LinearMap.from_rows(space, _Q, [[Fraction(1)] * n])
    inv = [next(j for j in range(n) if table[i][j] == identity) for i in range(n)]
    antipode = LinearMap.from_entries(space, space, [(inv[i], i, Fraction(1)) for i in range(n)])
    return HopfAlgebra(space, mul, unit, comul, counit, antipode, antipode)


def cyclic_group_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_group_table(n: int) -> list[list[int]]:
    """Multiplication table of the symmetric group on n letters.

    Elements are permutation tuples in lexicographic order; the product p*q
    is the composite "apply q, then p" so the table matches function
    composition of the permutations.
    """
    from itertools import permutations

    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    return [
        [index[tuple(p[q[k]] for k in range(n))] for q in elems]
        for p in elems
    ]


def trivial_hopf() -> HopfAlgebra:
    """The ground field as a Hopf algebra."""
    return group_algebra([[0]], labels=("1",))


def sweedler_h4() -> HopfAlgebra:
    """The four-dimensional Hopf algebra with basis 1, g, x, gx.

    Relations g^2 = 1, x^2 = 0, xg = -gx; the comultiplication sends g to
    g(x)g and x to x(x)1 + g(x)x; the antipode has order four.
    """
    space = VectorSpace(4, ("1", "g", "x", "gx"))
    idx = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    powers = {v: k for k, v in idx.items()}
    entries = []
    for i in range(4):
        for j in range(4):
            a, b = powers[i]
            c, d = powers[j]
            if b + d >= 2:
                continue
            sign = Fraction(-1 if (b * c) % 2 else 1)
            entries.append((idx[((a + c) % 2, b + d)], i * 4 + j, sign))
    mul = LinearMap.from_entries(tensor_space(space, space), space, entries)
    unit = LinearMap.from_entries(_Q, space, [(0, 0, Fraction(1))])
    t = tensor_space(space, space)
    one = Fraction(1)
    comul = LinearMap.from_entries(
        space, t,
        [
            (0 * 4 + 0, 0, one),            # 1 -> 1(x)1
            (1 * 4 + 1, 1, one),            # g -> g(x)g
            (2 * 4 + 0, 2, one),            # x -> x(x)1 ...
            (1 * 4 + 2, 2, one),            #      ... + g(x)x
            (3 * 4 + 1, 3, one),            # gx -> gx(x)g ...
            (0 * 4 + 3, 3, one),            #       ... + 1(x)gx
        ],
    )
    counit = LinearMap.from_rows(space, _Q, [[1, 1, 0, 0]])
    antipode = LinearMap.from_entries(
        space, space, [(0, 0, one), (1, 1, one), (3, 2, -one), (2, 3, one)]
    )
    return HopfAlgebra(space, mul, unit, comul, counit, antipode, antipode.inverse())


# -- actions and coactions ------------------------------------------


def trivial_action(h: HopfAlgebra, v: VectorSpace) -> LinearMap:
    """h . v = counit(h) v."""
    return tensor_map(h.counit, LinearMap.identity(v))


def left_regular_action(h: HopfAlgebra) -> LinearMap:
    return h.mul


def adjoint_action(h: HopfAlgebra) -> LinearMap:
    """h . a = h_(1) a S(h_(2)) on the carrier of H itself."""
    space = h.space
    i_h = LinearMap.identity(space)
    spread = tensor_map(h.comul, i_h)  # h (x) a -> h1 (x) h2 (x) a
    to_order = tensor_permutation([space] * 3, [0, 2, 1])  # h1 (x) a (x) h2
    apply_s = tensor_maps([i_h, i_h, h.antipode])
    return h.mul @ tensor_map(h.mul, i_h) @ apply_s @ to_order @ spread


def trivial_coaction(h: HopfAlgebra, v: VectorSpace) -> LinearMap:
    """v -> 1 (x) v."""
    return tensor_map(h.unit, LinearMap.identity(v))


def regular_coaction(h: HopfAlgebra) -> LinearMap:
    return h.comul


def check_module(h: HopfAlgebra, space: VectorSpace, action: LinearMap, title: str = "module") -> Report:
    rep = Report(title)
    i_h = LinearMap.identity(h.space)
    i_v = LinearMap.identity(space)
    rep.check_equal(
        "action associative",
        action @ tensor_map(i_h, action),
        action @ tensor_map(h.mul, i_v),
    )
    rep.check_equal("action unital", action @ tensor_map(h.unit, i_v), i_v)
    return rep


def check_comodule(h: HopfAlgebra, space: VectorSpace, coaction: LinearMap, title: str = "comodule") -> Report:
    rep = Report(title)
    i_h = LinearMap.identity(h.space)
    i_v = LinearMap.identity(space)
    rep.check_equal(
        "coaction coassociative",
        tensor_map(h.comul, i_v) @ coaction,
        tensor_map(i_h, coaction) @ coaction,
    )
    rep.check_equal("coaction counital", tensor_map(h.counit, i_v) @ coaction, i_v)
    return rep


@dataclass(frozen=True)
class ModuleAlgebra:
    hopf: HopfAlgebra
    space: VectorSpace
    mul: LinearMap
    unit: LinearMap
    action: LinearMap

    @property
    def algebra(self) -> Algebra:
        return Algebra(self.space, self.mul, self.unit)

    def twisted_action(self) -> LinearMap:
        """H (x) A -> A, h (x) a -> S^{-1}(h) . a."""
        return self.action @ tensor_map(self.hopf.antipode_inv, LinearMap.identity(self.space))


def check_module_algebra(a: ModuleAlgebra) -> Report:
    rep = Report("module algebra")
    rep.extend(check_algebra(a.algebra))
    rep.extend(check_module(a.hopf, a.space, a.action))
    h, s = a.hopf, a.space
    i_a = LinearMap.identity(s)
    mid_swap = tensor_permutation([h.space, h.space, s, s], [0, 2, 1, 3])
    rep.check_equal(
        "action distributes over products",
        a.action @ tensor_map(LinearMap.identity(h.space), a.mul),
        a.mul @ tensor_map(a.action, a.action) @ mid_swap @ tensor_map(h.comul, tensor_map(i_a, i_a)),
    )
    rep.check_equal(
        "action fixes the unit",
        a.action @ tensor_map(LinearMap.identity(h.space), a.unit),
        a.unit @ h.counit,
    )
    return rep


@dataclass(frozen=True)
class ModuleCoalgebra:
    hopf: HopfAlgebra
    space: VectorSpace
    comul: LinearMap
    counit: LinearMap
    action: LinearMap

    @property
    def coalgebra(self) -> Coalgebra:
        return Coalgebra(self.space, self.comul, self.counit)


def check_module_coalgebra(c: ModuleCoalgebra) -> Report:
    rep = Report("module coalgebra")
    rep.extend(check_coalgebra(c.coalgebra))
    rep.extend(check_module(c.hopf, c.space, c.action))
    h, s = c.hopf, c.space
    mid_swap = tensor_permutation([h.space, h.space, s, s], [0, 2, 1, 3])
    rep.check_equal(
        "comultiplication is equivariant",
        c.comul @ c.action,
        tensor_map(c.action, c.action) @ mid_swap @ tensor_map(h.comul, c.comul),
    )
    rep.check_equal(
        "counit is equivariant",
        c.counit @ c.action,
        tensor_map(h.counit, c.counit),
    )
    return rep


@dataclass(frozen=True)
class ComoduleAlgebra:
    hopf: HopfAlgebra
    space: VectorSpace
    mul: LinearMap
    unit: LinearMap
    coaction: LinearMap

    @property
    def algebra(self) -> Algebra:
        return Algebra(self.space, self.mul, self.unit)


def check_comodule_algebra(b: ComoduleAlgebra) -> Report:
    rep = Report("comodule algebra")
    rep.extend(check_algebra(b.algebra))
    rep.extend(check_comodule(b.hopf, b.space, b.coaction))
    h, s = b.hopf, b.space
    mid_swap = tensor_permutation([h.space, s, h.space, s], [0, 2, 1, 3])
    rep.check_equal(
        "coaction is multiplicative",
        b.coaction @ b.mul,
        tensor_map(h.mul, b.mul) @ mid_swap @ tensor_map(b.coaction, b.coaction),
    )
    rep.check_equal("coaction fixes the unit", b.coaction @ b.unit, tensor_map(h.unit, b.unit))
    return rep


@dataclass(frozen=True)
class CoalgebraAction:
    """An action of a module coalgebra C on a module algebra A over one H."""

    coalgebra: ModuleCoalgebra
    algebra: ModuleAlgebra
    act: LinearMap


def check_coalgebra_action(ca: CoalgebraAction) -> Report:
    rep = Report("coalgebra action")
    c, a = ca.coalgebra, ca.algebra
    h = c.hopf
    i_h = LinearMap.identity(h.space)
    i_c = LinearMap.identity(c.space)
    i_a = LinearMap.identity(a.space)
    rep.check_equal(
        "action is equivariant",
        ca.act @ tensor_map(c.action, i_a),
        a.action @ tensor_map(i_h, ca.act),
    )
    mid_swap = tensor_permutation([c.space, c.space, a.space, a.space], [0, 2, 1, 3])
    rep.check_equal(
        "action distributes over products",
        ca.act @ tensor_map(i_c, a.mul),
        a.mul @ tensor_map(ca.act, ca.act) @ mid_swap @ tensor_map(c.comul, tensor_map(i_a, i_a)),
    )
    rep.check_equal(
        "action fixes the unit",
        ca.act @ tensor_map(i_c, a.unit),
        a.unit @ c.counit,
    )
    return rep


# -- derived algebras ------------------------------------------------


@dataclass(frozen=True)
class ConvolutionAlgebra:
    """The algebra of H-linear maps C -> A under convolution.

    The carrier is the joint kernel of the equivariance constraints inside
    the full map space; column j of `subspace.basis` is the j-th basis map.
    """

    algebra: Algebra
    subspace: Subspace
    source: CoalgebraAction

    @property
    def space(self) -> VectorSpace:
        return self.algebra.space

    @property
    def dim(self) -> int:
        return self.algebra.space.dim


def equivariance_constraint(h: HopfAlgebra, x_action: LinearMap, y_action: LinearMap,
                            maps: VectorSpace) -> LinearMap:
    """Hom(X, Y) -> Hom(H (x) X, Y), phi -> phi o act_X - act_Y o (id (x) phi), for
    left actions H (x) X -> X and H (x) Y -> Y, on `maps` = Hom(X, Y).

    Its kernel is the H-linear maps.  Row (t, x, y) is the constraint at the
    basis element t of H, so the matrix is the per-element constraints
    stacked.  The second term is the action of Y curried to Y -> H* (x) Y,
    its H* leg carried past X.
    """
    x, y = x_action.target, y_action.target
    legs = VectorSpace.make(h.dim * maps.dim, "c")
    curried = partial_transpose(y_action, h.space, y).transpose()
    return (slot_map(x_action.transpose(), 1, y.dim, maps, legs)
            - slot_map(curried, 1, x.dim, maps, legs, (y.dim, y.dim)))


def equivariant_map_space(
    h: HopfAlgebra,
    c_space: VectorSpace,
    c_action: LinearMap,
    a_space: VectorSpace,
    a_action: LinearMap,
) -> Subspace:
    """H-linear maps C -> A as a subspace of the full map space."""
    maps = hom_space(c_space, a_space)
    return solve_constrained_subspace(
        maps, [equivariance_constraint(h, c_action, a_action, maps)], prefix="f")


def convolution_algebra(ca: CoalgebraAction) -> ConvolutionAlgebra:
    c, a = ca.coalgebra, ca.algebra
    sub = equivariant_map_space(c.hopf, c.space, c.action, a.space, a.action)
    b_space = sub.space
    # f (x) g -> mul o (f (x) g) o comul, with Hom(C, A) (x) Hom(C, A) regrouped
    # as Hom(C (x) C, A (x) A)
    product = (hom_precompose(c.comul, a.space)
               @ hom_postcompose(tensor_space(c.space, c.space), a.mul)
               @ tensor_permutation([dual_space(c.space), a.space] * 2, [0, 2, 1, 3]))
    mul = relabel(sub.restrict_from(product, tensor_subspace(sub, sub)),
                  tensor_space(b_space, b_space))
    unit = insert_vector(b_space, sub.coords(map_to_hom_vector(a.unit @ c.counit)))
    alg = Algebra(b_space, mul, unit)
    rep = check_algebra(alg, "convolution algebra")
    if not rep.passed:
        bad = rep.first_failure()
        raise ValueError(f"convolution product is not an algebra: {bad.name} ({bad.detail})")
    return ConvolutionAlgebra(alg, sub, ca)


def iota(ca: CoalgebraAction, conv: ConvolutionAlgebra) -> LinearMap:
    """The algebra map A -> B sending a to the H-linear map c -> c.a."""
    c, a = ca.coalgebra, ca.algebra
    sub = conv.subspace
    curried = partial_transpose(ca.act, c.space, a.space).transpose()  # A -> Hom(C, A)
    coords = sub.coords_matrix() @ curried
    stray = (sub.basis @ coords - curried).nonzero_columns()
    if stray:
        raise ValueError(
            f"image of basis element {a.space.labels[stray[0]]!r} is not H-linear; "
            "the coalgebra action violates equivariance")
    m = relabel(coords, a.space, conv.space)
    if conv.algebra.mul @ tensor_map(m, m) != m @ a.mul:
        raise ValueError("embedding into the convolution algebra is not multiplicative")
    if m @ a.unit != conv.algebra.unit:
        raise ValueError("embedding into the convolution algebra is not unital")
    return m


def crossed_product(a: ModuleAlgebra, b: ComoduleAlgebra) -> Algebra:
    """The crossed product on A (x) B: (a >< b)(a' >< b') = a(b_(-1).a') >< b_(0)b'."""
    if a.hopf.space.dim != b.hopf.space.dim or a.hopf.mul != b.hopf.mul:
        raise ValueError("crossed product requires one common Hopf algebra")
    h = a.hopf
    sa, sb = a.space, b.space
    i_a = LinearMap.identity(sa)
    i_b = LinearMap.identity(sb)
    space = tensor_space(sa, sb)
    expand = tensor_maps([i_a, b.coaction, i_a, i_b])
    reorder = tensor_permutation([sa, h.space, sb, sa, sb], [0, 1, 3, 2, 4])
    act_then_mul = tensor_map(a.mul @ tensor_map(i_a, a.action), b.mul)
    mul = act_then_mul @ reorder @ expand
    unit = tensor_map(a.unit, b.unit)
    alg = Algebra(space, mul, unit)
    rep = check_algebra(alg, "crossed product")
    if not rep.passed:
        bad = rep.first_failure()
        raise ValueError(f"crossed product failed: {bad.name} ({bad.detail})")
    return alg
