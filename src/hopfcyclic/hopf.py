"""Hopf algebras and their (co)module structures as structure-constant data.

A Hopf algebra is a bundle of seven exact matrices (multiplication, unit,
comultiplication, counit, antipode and its inverse over a based space); every
axiom is checkable as an exact matrix identity and checkers return structured
reports rather than raising.  On top sit module algebras, module coalgebras,
comodule algebras, coalgebra actions, and the two derived algebras those
produce: the convolution algebra of equivariant maps and the crossed product.

H-linearity is one constraint on the map space (`equivariance_constraint`),
read on algebra generators of H (`algebra_generators`), the convolution
product one composite of Hom-space maps, and the embedding of the algebra
the coalgebra action curried.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .linalg import (
    LinAlgError,
    LinearMap,
    Subspace,
    VectorSpace,
    basis_vector,
    dual_space,
    hom_postcompose,
    hom_precompose,
    hom_space,
    insert_vector,
    map_to_hom_vector,
    partial_transpose,
    relabel,
    row_echelon,
    slot_map,
    solve_constrained_subspace,
    tensor_map,
    tensor_maps,
    tensor_permutation,
    tensor_space,
    tensor_subspace,
)
from .reporting import Report, require
from .valueclass import field, memoised, valueclass

_Q = VectorSpace.ground()


@valueclass
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


@valueclass
class Coalgebra:
    space: VectorSpace
    comul: LinearMap
    counit: LinearMap


def check_coalgebra(c: Coalgebra) -> Report:
    rep = Report("coalgebra")
    i_c = LinearMap.identity(c.space)
    rep.check_equal(
        "comultiplication coassociative",
        tensor_map(c.comul, i_c) @ c.comul,
        tensor_map(i_c, c.comul) @ c.comul,
    )
    rep.check_equal("left counit law", tensor_map(c.counit, i_c) @ c.comul, i_c)
    rep.check_equal("right counit law", tensor_map(i_c, c.counit) @ c.comul, i_c)
    return rep


@valueclass
class HopfAlgebra:
    space: VectorSpace
    mul: LinearMap
    unit: LinearMap
    comul: LinearMap
    counit: LinearMap
    antipode: LinearMap
    antipode_inv: LinearMap
    # the derived quantities of this Hopf algebra, built on first use (`memoised`)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


# -- algebra generators ----------------------------------------------
#
# Tower construction reads equivariance on algebra generators of H: the
# relation, or the equivariance constraint, of a product hk is a sum of those
# of h and k (see `equivariance_constraint`), so those of a generating set
# span those of all of H.  The structure checkers still test every basis
# element.


def _generated_span(h: HopfAlgebra, elements: Sequence[int]) -> int:
    """The dimension of the subalgebra generated by the basis elements
    `elements`: the span of the unit, multiplied on the left by them until it
    stops growing."""
    space = VectorSpace.make(h.dim)
    left = [h.mul @ tensor_map(insert_vector(h.space, basis_vector(h.space, g)),
                               LinearMap.identity(h.space)) for g in elements]
    rows, rank = [h.unit.column(0)], 0
    while True:
        echelon, pivots = row_echelon(LinearMap.from_rows(space, VectorSpace.make(len(rows)),
                                                          rows))
        if len(pivots) == rank:
            return rank
        rank = len(pivots)
        span = [echelon.transpose().column(k) for k in range(rank)]
        rows = span + [m.apply(v) for m in left for v in span]


def require_generators(h: HopfAlgebra, elements: Sequence[int]) -> None:
    """Refuse basis elements of H that do not generate it as an algebra."""
    reached = _generated_span(h, elements)
    if reached != h.dim:
        labels = [h.space.labels[g] for g in elements]
        raise LinAlgError(f"the elements {labels} generate a subalgebra of dimension "
                          f"{reached}, not all {h.dim} dimensions of the Hopf algebra")


@memoised
def algebra_generators(h: HopfAlgebra) -> tuple[int, ...]:
    """Basis indices of a set of algebra generators of H, built once per Hopf
    algebra: the basis is walked in order and an element is kept when it is
    not in the subalgebra generated by those kept so far, and the kept set is
    checked to generate H.  A group algebra gives a set of group generators
    and sweedler4 gives {g, x}."""
    kept: list[int] = []
    reached = _generated_span(h, kept)
    for i in range(h.dim):
        if reached == h.dim:
            break
        grown = _generated_span(h, kept + [i])
        if grown > reached:
            kept, reached = kept + [i], grown
    require_generators(h, kept)
    return tuple(kept)


def element_inclusion(h: HopfAlgebra, elements: Sequence[int]) -> LinearMap:
    """The coordinate inclusion into H of the span of the given basis
    elements, labelled as they are in H."""
    space = VectorSpace(len(elements), [h.space.labels[i] for i in elements])
    return LinearMap.from_entries(space, h.space, [(i, k, 1) for k, i in enumerate(elements)])


def generator_action(h: HopfAlgebra, action: LinearMap) -> LinearMap:
    """G (x) X -> X, the left action H (x) X -> X on the algebra generators G."""
    x = LinearMap.identity(action.target)
    return action @ tensor_map(element_inclusion(h, algebra_generators(h)), x)


def comultiplication_closure(h: HopfAlgebra, elements: Sequence[int]) -> tuple[int, ...]:
    """The smallest set of basis indices that holds `elements` and every leg
    of the comultiplication of its members, ascending."""
    d = h.dim
    closed, todo = set(elements), list(elements)
    while todo:
        column = h.comul.column(todo.pop())
        for index, value in enumerate(column):
            if value:
                for leg in divmod(index, d):
                    if leg not in closed:
                        closed.add(leg)
                        todo.append(leg)
    return tuple(sorted(closed))


def restricted_comultiplication(h: HopfAlgebra, elements: Sequence[int]) -> LinearMap:
    """The comultiplication of H on the span E of basis elements closed under
    its legs (`comultiplication_closure`), E -> E (x) E, checked exactly: it
    is Delta on E followed by the coordinate projection, and included back
    into H (x) H it must be Delta on E."""
    into = element_inclusion(h, elements)
    pair = tensor_map(into, into)
    out = pair.transpose() @ h.comul @ into  # coordinate projection onto E (x) E
    if pair @ out != h.comul @ into:
        raise LinAlgError("the comultiplication has a leg outside the given elements")
    return relabel(out, into.source, tensor_space(into.source, into.source))


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


def group_algebra(table: Sequence[Sequence[int]], labels: Sequence[str] | None = None) -> HopfAlgebra:
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


def check_module(h: HopfAlgebra, space: VectorSpace, action: LinearMap) -> Report:
    rep = Report("module")
    i_h = LinearMap.identity(h.space)
    i_v = LinearMap.identity(space)
    rep.check_equal(
        "action associative",
        action @ tensor_map(i_h, action),
        action @ tensor_map(h.mul, i_v),
    )
    rep.check_equal("action unital", action @ tensor_map(h.unit, i_v), i_v)
    return rep


def check_comodule(h: HopfAlgebra, space: VectorSpace, coaction: LinearMap) -> Report:
    rep = Report("comodule")
    i_h = LinearMap.identity(h.space)
    i_v = LinearMap.identity(space)
    rep.check_equal(
        "coaction coassociative",
        tensor_map(h.comul, i_v) @ coaction,
        tensor_map(i_h, coaction) @ coaction,
    )
    rep.check_equal("coaction counital", tensor_map(h.counit, i_v) @ coaction, i_v)
    return rep


@valueclass
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


@valueclass
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


@valueclass
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


@valueclass
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


@valueclass
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
    """Hom(X, Y) -> Hom(G (x) X, Y), phi -> phi o act_X - act_Y o (id (x) phi), for
    the left actions G (x) X -> X and G (x) Y -> Y of the algebra generators G
    of H (`generator_action`), on `maps` = Hom(X, Y).

    Its kernel is the H-linear maps: a map that commutes with the actions of
    h and k commutes with that of hk, since
    phi((hk).x) - (hk).phi(x) = [phi(h.(k.x)) - h.phi(k.x)] + h.[phi(k.x) - k.phi(x)].
    Row (t, x, y) is the constraint at the generator t, so the matrix is the
    per-generator constraints stacked, the generators' row blocks of the
    constraint on all of H.  The second term is the action of Y curried to
    Y -> G* (x) Y, its G* leg carried past X.
    """
    g = len(algebra_generators(h))
    x, y = x_action.target, y_action.target
    if x_action.source.dim != g * x.dim or y_action.source.dim != g * y.dim:
        raise LinAlgError("equivariance is constrained on the actions of the algebra generators")
    legs = VectorSpace.make(g * maps.dim, "c")
    curried = partial_transpose(y_action, VectorSpace.make(g), y).transpose()
    return (slot_map(x_action.transpose(), 1, y.dim, maps, legs)
            - slot_map(curried, 1, x.dim, maps, legs, (y.dim, y.dim)))


def equivariant_map_space(
    h: HopfAlgebra,
    c_space: VectorSpace,
    c_action: LinearMap,
    a_space: VectorSpace,
    a_action: LinearMap,
) -> Subspace:
    """H-linear maps C -> A as a subspace of the full map space, cut out on
    the algebra generators of H."""
    maps = hom_space(c_space, a_space)
    return solve_constrained_subspace(maps, [equivariance_constraint(
        h, generator_action(h, c_action), generator_action(h, a_action), maps)], prefix="f")


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
    require(check_algebra(alg, "convolution algebra"))
    return ConvolutionAlgebra(alg, sub, ca)


def iota(ca: CoalgebraAction, conv: ConvolutionAlgebra) -> LinearMap:
    """The algebra map A -> B sending a to the H-linear map c -> c.a."""
    c, a = ca.coalgebra, ca.algebra
    sub = conv.subspace
    curried = partial_transpose(ca.act, c.space, a.space).transpose()  # A -> Hom(C, A)
    coords = sub.support_rows(curried)
    stray = (sub.basis @ coords - curried).nonzero_columns()
    if stray:
        raise LinAlgError(
            f"image of basis element {a.space.labels[stray[0]]!r} is not H-linear; "
            "the coalgebra action violates equivariance")
    m = relabel(coords, a.space, conv.space)
    if conv.algebra.mul @ tensor_map(m, m) != m @ a.mul:
        raise LinAlgError("embedding into the convolution algebra is not multiplicative")
    if m @ a.unit != conv.algebra.unit:
        raise LinAlgError("embedding into the convolution algebra is not unital")
    return m


def crossed_product(a: ModuleAlgebra, b: ComoduleAlgebra) -> Algebra:
    """The crossed product on A (x) B: (a >< b)(a' >< b') = a(b_(-1).a') >< b_(0)b'."""
    if a.hopf != b.hopf:
        raise LinAlgError("crossed product requires one common Hopf algebra")
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
    require(check_algebra(alg, "crossed product"))
    return alg
