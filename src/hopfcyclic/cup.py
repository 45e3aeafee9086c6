"""Cup products on cyclic cochains via bicocyclic tensor products.

Ingredients, all realized as exact rational matrices:

  * `tensor_bicocyclic`: the bigraded tensor product of two cocyclic modules,
    with vertical operators acting on the first factor and horizontal
    operators on the second;
  * `diagonal` and `total_complex`: the diagonal cocyclic module and the
    normalized total mixed complex of a bicocyclic module;
  * `aw_map`: the comparison chain map from the total complex to the
    diagonal, assembled blockwise per total degree;
  * `psi_matrix` / `phi_matrix`, each in its scalar or contratensor-valued
    variant: the cyclic comparison maps from the diagonal into plain cochains
    of a convolution algebra respectively a crossed product algebra;
  * `cyclic_complete`: upgrade a closed top cochain to a full (b, B)-cocycle
    by one exact linear solve, with an explicit obstruction on failure;
  * `cup_ac`, `cup_aa`, `cup_ac_general`, `cup_aa_general`: the four
    products, through one pipeline: validate, AW image, the family's
    comparison map into the target cochains, cyclic completion and check.

Both families share one setup core.  A family supplies only the names of
its two cochain sides, its target algebra and its comparison map from the
diagonal into the target cochains: psi pulled back along the embedding of
the algebra into the convolution algebra, or phi on the crossed product.

Every operator of the diagonal, the total complex and the comparison map is
a Kronecker product of operators the two factor towers already hold, and the
normalized blocks with their b and B come from the factors' mixed complexes,
so nothing is rebuilt or eliminated on a bicomplex space.  Likewise psi and
phi are each one Kronecker product of the two factors' cochain bases, with
its factors reordered, collapsed into the values and precomposed with one
transformer out of the target algebra's tensor power.

Each fact is checked once: `check_bicocyclic` reads its row and column
entries off one `verify_cocyclic` of each factor, its cross entries hold by
the interchange law of the Kronecker product, and psi decides its
well-definedness once per setup, degree and variant.  Each comparison map is
built once per setup, degree and variant.

One rule gives every target tower: `_plain_tower` builds the plain cochains
of an algebra at the setup's cap, with scalar values or values in V, on first
read and once per setup.  Values of dimension 1 give the scalar tower, so the
contratensor-valued products share it when L is one-dimensional.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .coefficients import (
    CompatiblePair,
    Contratensor,
    SaydContramodule,
    SaydModule,
    check_compatible_pair,
    check_sayd_contramodule,
    check_sayd_module,
    collapse_map,
    contratensor,
)
from .cocyclic import (
    DEFAULT_DEGREE_CAP,
    CocyclicModule,
    HomCochainComplex,
    QuotientCochainComplex,
    _diagonal_coactions,
    _induced,
    _powers,
    _require_degree,
    algebra_contra_cocyclic,
    check_mixed_complex,
    coalgebra_cocyclic,
    comodule_algebra_cocyclic,
    full_B,
    full_b,
    lambda_operator,
    mixed_complex,
    normalization_projector,
    normalized_cochains,
    plain_algebra_cocyclic,
    verify_cocyclic,
)
from .hopf import (
    Algebra,
    CoalgebraAction,
    ComoduleAlgebra,
    ConvolutionAlgebra,
    ModuleAlgebra,
    ModuleCoalgebra,
    convolution_algebra,
    crossed_product,
    iota,
)
from .linalg import (
    LinAlgError,
    LinearMap,
    Subspace,
    VectorSpace,
    direct_sum_space,
    from_blocks,
    hom_postcompose,
    hom_precompose,
    relabel,
    slot_map,
    solve,
    tensor_map,
    tensor_maps,
    tensor_permutation,
    tensor_space,
    tensor_spaces,
    tensor_subspace,
    vector_from,
    vectors_equal,
)
from .reporting import Report, require
from .valueclass import field, memoised, valueclass


def _as_vector(vec, dim: int, label: str) -> list[Fraction]:
    out = vector_from(vec)
    if len(out) != dim:
        raise LinAlgError(f"{label} has length {len(out)}, expected {dim}")
    return out


def _vector_is_zero(vec) -> bool:
    return all(x == 0 for x in vec)


def _vector_entry(report: Report, name: str, vec, space: VectorSpace) -> None:
    for i, x in enumerate(vec):
        if x != 0:
            report.add(name, False,
                       f"first residual {x} at coordinate {space.labels[i]!r}")
            return
    report.add(name, True)


# --------------------------------------------------------------------------
# bicocyclic tensor products


@valueclass
class BicocyclicModule:
    """C^{p,q} = X^p (x) Y^q for cocyclic modules X (vertical) and Y (horizontal).

    It holds no operators of its own: a vertical operator is f (x) id for an
    operator f of X, a horizontal one id (x) g for an operator g of Y.
    """

    degree_cap: int
    vertical_factor: CocyclicModule
    horizontal_factor: CocyclicModule

    def space(self, p: int, q: int) -> VectorSpace:
        _require_degree(self, p, f"the vertical part of bidegree ({p},{q})")
        _require_degree(self, q, f"the horizontal part of bidegree ({p},{q})")
        return tensor_space(self.vertical_factor.spaces[p],
                            self.horizontal_factor.spaces[q])


def tensor_bicocyclic(x: CocyclicModule, y: CocyclicModule) -> BicocyclicModule:
    if x.degree_cap != y.degree_cap:
        raise LinAlgError("tensor factors must share one degree cap")
    return BicocyclicModule(x.degree_cap, x, y)


def _operator_names(cap: int, n: int) -> list[str]:
    """The names of the operators out of degree n of a tower capped at `cap`."""
    faces = [f"d{i}" for i in range(n + 2)] if n < cap else []
    return faces + [f"s{j}" for j in range(n)] + ["t"]


def check_bicocyclic(module: BicocyclicModule,
                     name: str = "bicocyclic module") -> Report:
    """Row and column cocyclic identities plus all cross-direction commutations.

    Every operator of X (x) Y is f (x) id or id (x) g for an operator of a
    factor.  Entry `vertical tower q=<q>: <name>` is X's identity <name>
    tensored with id on Y^q, which holds iff it holds in X or Y^q is zero: it
    takes the verdict and witness of one `verify_cocyclic` of X, and passes
    when Y^q is zero.  The `horizontal tower p=<p>` entries are read off Y
    the same way.  Each `vertical v commutes with horizontal h` entry is the
    interchange law (v (x) 1)(1 (x) h) = v (x) h = (1 (x) h)(v (x) 1), which
    holds by construction and is recorded as holding.  No map is built on a
    bicomplex space.
    """
    rep = Report(name)
    x, y = module.vertical_factor, module.horizontal_factor
    cap = module.degree_cap
    for factor, other, label in ((x, y, "vertical tower q"), (y, x, "horizontal tower p")):
        entries = verify_cocyclic(factor).entries
        for k, space in enumerate(other.spaces):
            for e in entries:
                held = e.passed or space.dim == 0
                rep.add(f"{label}={k}: {e.name}", held, "" if held else e.detail)
    for p in range(cap + 1):
        for q in range(cap + 1):
            for v in _operator_names(cap, p):
                for h in _operator_names(cap, q):
                    rep.add(f"vertical {v} commutes with horizontal {h} "
                            f"(bidegree ({p},{q}))", True)
    return rep


# --------------------------------------------------------------------------
# diagonal and total complexes


def diagonal(module: BicocyclicModule) -> CocyclicModule:
    """The cocyclic module of the C^{n,n}: each coface, codegeneracy and
    cyclic operator is the Kronecker product of the two factors' ones."""
    x, y = module.vertical_factor, module.horizontal_factor

    def paired(xs, ys):
        return tuple(tensor_map(f, g) for f, g in zip(xs, ys))

    return CocyclicModule(
        module.degree_cap,
        tuple(module.space(n, n) for n in range(module.degree_cap + 1)),
        tuple(map(paired, x.faces, y.faces)),
        tuple(map(paired, x.degeneracies, y.degeneracies)),
        paired(x.cyclic, y.cyclic))


@valueclass
class TotalMixedComplex:
    """Degreewise direct sum of the normalized bidegree blocks.

    The degree-n space is the sum of N^{p,q} over p+q = n with p ascending.
    N^{p,q} is the joint kernel of all codegeneracies in both directions,
    which is N_X^p (x) N_Y^q for the factors' normalized spaces.  The
    vertical summand of each differential is weighted by (-1)^q so that the
    two directions anticommute.
    """

    underlying: BicocyclicModule
    block_subspaces: tuple[tuple[Subspace, ...], ...]
    spaces: tuple[VectorSpace, ...]
    b: tuple[LinearMap, ...]
    B: tuple[LinearMap | None, ...]


def total_complex(module: BicocyclicModule) -> TotalMixedComplex:
    """The normalized total mixed complex, read off the factors' mixed complexes.

    By the Kuenneth identity ker(A (x) 1) n ker(1 (x) B) = ker A (x) ker B, each
    block N^{p,q} is the tensor product of the factors' normalized spaces, and
    the vertical and horizontal parts of b and B are the factors' normalized
    b and B tensored with an identity.  Nothing is eliminated on a bicomplex
    space.
    """
    cap = module.degree_cap
    mx = mixed_complex(module.vertical_factor)
    my = mixed_complex(module.horizontal_factor)
    subs = tuple(tuple(tensor_subspace(nx, ny, prefix="n") for ny in my.normalized)
                 for nx in mx.normalized)
    spaces = tuple(
        direct_sum_space([subs[p][n - p].space for p in range(n + 1)])
        for n in range(cap + 1))

    def vertical(f: LinearMap, q: int) -> LinearMap:
        return tensor_map(f, LinearMap.identity(my.normalized[q].space)).scale((-1) ** q)

    def horizontal(p: int, g: LinearMap) -> LinearMap:
        return tensor_map(LinearMap.identity(mx.normalized[p].space), g)

    def assemble(n: int, m: int, blocks: dict) -> LinearMap:
        return from_blocks([subs[p][n - p].space for p in range(n + 1)],
                           [subs[p][m - p].space for p in range(m + 1)], blocks,
                           source_space=spaces[n], target_space=spaces[m])

    b_ops = []
    for n in range(cap):
        blocks = {}
        for p in range(n + 1):
            q = n - p
            blocks[(p + 1, p)] = vertical(mx.b[p], q)
            blocks[(p, p)] = horizontal(p, my.b[q])
        b_ops.append(assemble(n, n + 1, blocks))

    big_b: list[LinearMap | None] = [None]
    for n in range(1, cap + 1):
        blocks = {}
        for p in range(n + 1):
            q = n - p
            if p >= 1:
                blocks[(p - 1, p)] = vertical(mx.B[p], q)
            if q >= 1:
                blocks[(p, p)] = horizontal(p, my.B[q])
        big_b.append(assemble(n, n - 1, blocks))

    return TotalMixedComplex(module, subs, spaces, tuple(b_ops), tuple(big_b))


def check_total_mixed_complex(total: TotalMixedComplex,
                              name: str = "total mixed complex") -> Report:
    """The mixed-complex laws of the total complex, as `check_mixed_complex`."""
    return check_mixed_complex(total, name)


# --------------------------------------------------------------------------
# the comparison map from the total complex to the diagonal


def aw_map(module: BicocyclicModule, p: int, q: int) -> LinearMap:
    """C^{p,q} -> C^{p+q,p+q}: q front cofaces d0 on X, tensored with p last
    cofaces on Y."""
    _require_degree(module, p, f"the vertical part of bidegree ({p},{q})")
    _require_degree(module, q, f"the horizontal part of bidegree ({p},{q})",
                    high=module.degree_cap - p)
    x, y = module.vertical_factor, module.horizontal_factor
    front = LinearMap.identity(x.spaces[p])
    for k in range(p, p + q):
        front = x.face(k, 0) @ front
    back = LinearMap.identity(y.spaces[q])
    for k in range(q, q + p):
        back = y.face(k, k + 1) @ back
    return tensor_map(front, back)


def assembled_aw(total: TotalMixedComplex, diagonal_normalized: Subspace,
                 n: int) -> LinearMap:
    """Tot^n -> normalized Diag^n, blockwise; verified to preserve normalization."""
    module = total.underlying
    _require_degree(module, n, "the assembled comparison map")
    sources = [total.block_subspaces[p][n - p].space for p in range(n + 1)]
    blocks = {}
    for p in range(n + 1):
        q = n - p
        blocks[(0, p)] = _induced(
            aw_map(module, p, q), total.block_subspaces[p][q], diagonal_normalized,
            f"the comparison map does not preserve normalization at bidegree ({p},{q})")
    return from_blocks(sources, [diagonal_normalized.space], blocks,
                       source_space=total.spaces[n],
                       target_space=diagonal_normalized.space)


def check_aw_chain_map(total: TotalMixedComplex, diagonal_module: CocyclicModule,
                       name: str = "comparison chain map") -> Report:
    """b_D o AW = AW o b_T per total degree, on the normalized complexes."""
    rep = Report(name)
    view = mixed_complex(diagonal_module)
    cap = total.underlying.degree_cap
    aw = [assembled_aw(total, view.normalized[n], n) for n in range(cap + 1)]
    for n in range(cap):
        rep.check_equal(f"diagonal b after comparison = comparison after total b (degree {n})",
                        view.b[n] @ aw[n], aw[n + 1] @ total.b[n])
    return rep


# --------------------------------------------------------------------------
# (b, B)-cocycles and cyclic completion


class CompletionObstruction(LinAlgError):
    """Raised when no (b, B)-completion of a closed cochain exists."""

    def __init__(self, degree: int, residual):
        self.degree = degree
        self.residual = tuple(residual)
        super().__init__(
            f"cyclic completion is infeasible: obstruction at component degree "
            f"{degree}, residual {[str(x) for x in residual]}")


@valueclass
class BBcocycle:
    """Components in degrees n, n-2, ... down to 1 or 0."""

    degree: int
    components: tuple[tuple[Fraction, ...], ...]

    def component_degrees(self) -> list[int]:
        return [self.degree - 2 * k for k in range(len(self.components))]


def _components(module: CocyclicModule, cocycle: BBcocycle, label: str,
                stop_early: bool = False) -> list[list[Fraction]]:
    """The components as exact vectors, refused unless they run from the
    cocycle's degree down to 0 or 1 (with `stop_early`, down to any degree
    of at least 0) and each fits its space of the tower."""
    degrees = cocycle.component_degrees()
    bottom = degrees[-1] if degrees else None
    if bottom is None or not 0 <= bottom <= (cocycle.degree if stop_early else 1):
        raise LinAlgError(f"{label} has components down to degree {bottom}, not to 0 or 1")
    _require_degree(module, cocycle.degree, label)
    return [_as_vector(comp, module.spaces[d].dim, f"the degree-{d} component of {label}")
            for d, comp in zip(degrees, cocycle.components)]


def _bb_rows(module: CocyclicModule, degrees: list[int]) -> list[tuple[int, dict]]:
    """The block rows (target degree, {component: block}) of b + B on
    components of degrees n, n-2, ...: b on component 0 while it stays in the
    tower, then B on component k-1 plus b on component k, and B into degree 0
    of a bottom component of degree 1."""
    rows = []
    if degrees[0] < module.degree_cap:
        rows.append((degrees[0] + 1, {0: full_b(module, degrees[0])}))
    for k in range(1, len(degrees)):
        rows.append((degrees[k] + 1, {k - 1: full_B(module, degrees[k - 1]),
                                      k: full_b(module, degrees[k])}))
    if degrees[-1] == 1:
        rows.append((0, {len(degrees) - 1: full_B(module, 1)}))
    return rows


def check_bb_cocycle(module: CocyclicModule, cocycle: BBcocycle,
                     name: str = "(b, B) cocycle") -> Report:
    """The (b, B)-cocycle equations, each as a report entry.  A cocycle that
    stops above degree 1 fails the first entry; one with no components,
    with components below degree 0 or that does not fit the tower is
    refused with LinAlgError."""
    rep = Report(name)
    comps = _components(module, cocycle, "the cocycle", stop_early=True)
    degrees = cocycle.component_degrees()
    rep.add("components reach degree 0 or 1", degrees[-1] in (0, 1),
            "" if degrees[-1] in (0, 1) else f"bottom degree is {degrees[-1]}")
    for target, blocks in _bb_rows(module, degrees):
        k = min(blocks)
        vec = blocks[k].apply(comps[k])
        if len(blocks) == 2:  # B on component k meets b on component k + 1
            vec = [x + y for x, y in zip(vec, blocks[k + 1].apply(comps[k + 1]))]
            entry = f"B y{k} + b y{k + 1} = 0 (into degree {target})"
        else:
            entry = "b y0 = 0" if target else "B of the bottom component = 0"
        _vector_entry(rep, entry, vec, module.spaces[target])
    return rep


def _solve_blocks(unknowns: list[VectorSpace],
                  equations: list[tuple[VectorSpace, dict[int, LinearMap]]],
                  rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of a block system, or None.  Unknown k is a vector in
    unknowns[k]; equation r is (space, {k: block}) and sums block @ unknown k
    into that space.  `rhs` gives the leading right-hand entries, the rest are 0."""
    blocks = {(r, k): m for r, (_, eq) in enumerate(equations) for k, m in eq.items()}
    mat = from_blocks(unknowns, [space for space, _ in equations], blocks)
    return solve(mat, rhs + [Fraction(0)] * (mat.target.dim - len(rhs)))


def cyclic_complete(module: CocyclicModule, degree: int, top) -> BBcocycle:
    """Extend a b-closed top cochain to a full (b, B)-cocycle.

    Each lower component is a coordinate vector on the normalized cochains of
    its degree, which pins the solution.  Row r of b + B is B on component r
    plus b on component r + 1, or B alone into degree 0; the rows are solved
    as growing prefixes, and the first infeasible row raises
    `CompletionObstruction` at its target degree less one (at least 0), with
    B of component r from the previous prefix as witness.  Only the tail is
    normalized, so a top with a nonzero codegeneracy image may be obstructed
    although its class lifts; `_validated_cocycle` normalizes cup inputs.
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

    # unknown k is the coordinate vector of component k + 1 on its N^d; only
    # the first row, b u0 = -B y0, meets y0 and carries a right-hand side
    normalized = [normalized_cochains(module, d) for d in degrees[1:]]
    unknowns = [sub.space for sub in normalized]
    offsets = list(itertools.accumulate((u.dim for u in unknowns), initial=0))
    equations = [(module.spaces[target],
                  {k - 1: m @ normalized[k - 1].basis for k, m in blocks.items() if k})
                 for target, blocks in rows]
    rhs = [-x for x in rows[0][1][0].apply(y0)] if rows else []
    components = [y0]
    for r, (target, blocks) in enumerate(rows):
        sol = _solve_blocks(unknowns, equations[:r + 1], rhs)
        if sol is None:
            raise CompletionObstruction(max(target - 1, 0), blocks[r].apply(components[r]))
        components = [y0] + [sub.basis.apply(sol[start:end])
                             for sub, start, end in zip(normalized, offsets, offsets[1:])]
    return BBcocycle(degree, tuple(map(tuple, components)))


def bb_cohomologous(module: CocyclicModule, first: BBcocycle,
                    second: BBcocycle) -> bool:
    """Whether two (b, B)-cocycles of equal degree differ by a (b+B)-coboundary."""
    if first.degree != second.degree:
        raise LinAlgError("cannot compare cocycles of different degrees")
    n = first.degree
    deltas = [b - a for c1, c2 in zip(_components(module, first, "the first cocycle"),
                                      _components(module, second, "the second cocycle"))
              for a, b in zip(c1, c2)]
    hom_degrees = list(range(n - 1, -1, -2))
    if not hom_degrees:
        return _vector_is_zero(deltas)
    # the rows of b + B on chains of degrees n-1, n-3, ... land in the
    # difference's degrees n, n-2, ..., in order
    equations = [(module.spaces[target], blocks)
                 for target, blocks in _bb_rows(module, hom_degrees)]
    unknowns = [module.spaces[d] for d in hom_degrees]
    return _solve_blocks(unknowns, equations, deltas) is not None


def cyclic_cocycle_subspace(module: CocyclicModule, degree: int) -> Subspace:
    """Normalized cochains killed by b with cyclic eigenvalue (-1)^degree."""
    _require_degree(module, degree, "the cocycle subspace", high=module.degree_cap - 1)
    one = LinearMap.identity(module.spaces[degree])
    return normalized_cochains(module, degree).constrained(
        [full_b(module, degree), one - lambda_operator(module, degree)], prefix="z")


# --------------------------------------------------------------------------
# cup-product setups


Coefficients = CompatiblePair | tuple[SaydModule, SaydContramodule]


def _checked_coefficients(coefficients: Coefficients):
    """Checked module and contramodule, and the pair or None."""
    if isinstance(coefficients, CompatiblePair):
        module, contra, pair = coefficients.module, coefficients.contramodule, coefficients
    else:
        (module, contra), pair = coefficients, None
    require(check_sayd_module(module), "module coefficients")
    require(check_sayd_contramodule(contra), "contramodule coefficients")
    return module, contra, pair


@valueclass
class _CupSetup:
    """The fields both families share.  The left cochains are the vertical
    factor of the bicomplex, the right ones the horizontal factor.  A family
    adds `_sides`, `_base` (the target algebra), `_comparison` and
    `_check_comparison`.  The products land in the plain cochains of `_base`:
    `scalar_target` with scalar values and `tensor_target` with values in L,
    each built on first read by `_plain_tower`."""

    algebra: ModuleAlgebra
    module: SaydModule
    contramodule: SaydContramodule
    pair: CompatiblePair | None
    degree_cap: int
    algebra_cochains: HomCochainComplex
    bicomplex: BicocyclicModule
    diagonal_module: CocyclicModule
    tensor_values: Contratensor
    pair_collapse: LinearMap | None
    # the derived quantities of this setup, built on first use (`memoised`)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def scalar_target(self) -> CocyclicModule:
        return _plain_tower(self, self._base, None)

    @property
    def tensor_target(self) -> CocyclicModule:
        return _plain_tower(self, self._base, self.tensor_values.space)


def _cup_setup(cls, algebra: ModuleAlgebra, coefficients, degree_cap: int,
               left, right, **parts):
    """A `cls` setup on the cochain complexes `left` and `right`."""
    module, contra, pair = coefficients
    bicomplex = tensor_bicocyclic(left.module, right.module)
    tensor_values = contratensor(module, contra)
    pair_collapse = None
    if pair is not None:
        require(check_compatible_pair(pair), "coefficient pair")
        pair_collapse = collapse_map(pair, tensor_values)
    return cls(
        algebra=algebra, module=module, contramodule=contra, pair=pair,
        degree_cap=degree_cap, bicomplex=bicomplex, diagonal_module=diagonal(bicomplex),
        tensor_values=tensor_values, pair_collapse=pair_collapse, **parts)


@memoised
def _plain_tower(setup, algebra: Algebra, values: VectorSpace | None) -> CocyclicModule:
    """The plain cochains of `algebra` at the setup's cap with values in
    `values`, None for scalars, built once per setup, algebra and values.
    Cochains with values in a one-dimensional space have the labels and
    operators of scalar cochains, so such values give the scalar tower."""
    if values is not None and values.dim == 1:
        return _plain_tower(setup, algebra, None)
    return plain_algebra_cocyclic(algebra, values, setup.degree_cap)


@valueclass
class ConvolutionCupSetup(_CupSetup):
    """Everything needed to cup contramodule-valued algebra cochains with
    module-coefficient coalgebra cochains through the convolution algebra."""

    coalgebra: ModuleCoalgebra
    action: CoalgebraAction
    convolution: ConvolutionAlgebra
    embedding: LinearMap
    coalgebra_cochains: QuotientCochainComplex

    _sides = ("algebra-side", "coalgebra-side")

    @property
    def _base(self) -> Algebra:
        return self.algebra.algebra

    def _comparison(self, n: int, tensor_valued: bool) -> LinearMap:
        """psi, pulled back along the embedding of the algebra."""
        _, values = _variant(self, tensor_valued)
        pullback = hom_precompose(tensor_maps([self.embedding] * (n + 1)), values)
        return pullback @ psi_matrix(self, n, tensor_valued)

    def _check_comparison(self, tensor_valued: bool) -> Report:
        return check_psi(self, tensor_valued)


def ac_cup_setup(algebra: ModuleAlgebra, coalgebra: ModuleCoalgebra,
                 action: CoalgebraAction, coefficients: Coefficients,
                 degree_cap: int = DEFAULT_DEGREE_CAP) -> ConvolutionCupSetup:
    module, contra, pair = _checked_coefficients(coefficients)
    if action.coalgebra.space != coalgebra.space or action.algebra.space != algebra.space:
        raise LinAlgError("the coalgebra action does not match the given algebra "
                          "and coalgebra")
    conv = convolution_algebra(action)
    x = algebra_contra_cocyclic(algebra, contra, degree_cap)
    y = coalgebra_cocyclic(coalgebra, module, degree_cap)
    return _cup_setup(ConvolutionCupSetup, algebra, (module, contra, pair), degree_cap,
                      x, y, algebra_cochains=x, coalgebra=coalgebra,
                      action=action, convolution=conv, embedding=iota(action, conv),
                      coalgebra_cochains=y)


@valueclass
class CrossedProductCupSetup(_CupSetup):
    """Everything needed to cup colinear comodule-algebra cochains with
    contramodule-valued algebra cochains on the crossed product algebra."""

    comodule_algebra: ComoduleAlgebra
    crossed: Algebra
    comodule_cochains: HomCochainComplex

    _sides = ("comodule-side", "algebra-side")

    @property
    def _base(self) -> Algebra:
        return self.crossed

    def _comparison(self, n: int, tensor_valued: bool) -> LinearMap:
        return phi_matrix(self, n, tensor_valued)

    def _check_comparison(self, tensor_valued: bool) -> Report:
        return check_phi(self, tensor_valued)


def aa_cup_setup(algebra: ModuleAlgebra, comodule_algebra: ComoduleAlgebra,
                 coefficients: Coefficients,
                 degree_cap: int = DEFAULT_DEGREE_CAP) -> CrossedProductCupSetup:
    module, contra, pair = _checked_coefficients(coefficients)
    if algebra.hopf != comodule_algebra.hopf:
        raise LinAlgError("the two algebras live over different Hopf algebras")
    crossed = crossed_product(algebra, comodule_algebra)
    x = comodule_algebra_cocyclic(comodule_algebra, module, degree_cap)
    y = algebra_contra_cocyclic(algebra, contra, degree_cap)
    return _cup_setup(CrossedProductCupSetup, algebra, (module, contra, pair), degree_cap,
                      x, y, algebra_cochains=y, comodule_algebra=comodule_algebra,
                      crossed=crossed, comodule_cochains=x)


# --------------------------------------------------------------------------
# the comparison maps: shared parts


def _variant(setup, tensor_valued: bool) -> tuple[LinearMap, VectorSpace]:
    """The collapse N (x) M -> V and the values V of a product variant: the
    contratensor projection onto L, or the pairing onto the ground field."""
    if tensor_valued:
        return setup.tensor_values.projection, setup.tensor_values.space
    if setup.pair_collapse is None:
        raise LinAlgError("no compatible pairing was provided; use the contratensor-valued "
                          "product cup_ac_general or cup_aa_general")
    return setup.pair.pairing, VectorSpace.ground()


@memoised
def _transformer(setup, n: int, build) -> LinearMap:
    """`build(setup, n)`, the comparison map's transformer at degree n.  It
    depends on neither the collapse nor the values, so it is built once per
    setup and degree and shared by both variants."""
    return build(setup, n)


def _comparison_end(setup, n: int, tensor_valued: bool, build, factors,
                    order) -> LinearMap:
    """Column j of the end applied to a cochain product is collapse o k_j o
    transformer as a Hom vector on the transformer's source, where
    k_j: D -> N (x) M is column j of the product once its tensor `factors`
    are put in `order` (D the transformer's target).  The collapse is the
    variant's, and the transformer is `_transformer(setup, n, build)`."""
    collapse, values = _variant(setup, tensor_valued)
    transformer = _transformer(setup, n, build)
    return (hom_precompose(transformer, values)
            @ hom_postcompose(transformer.target, collapse)
            @ tensor_permutation(factors, order))


# --------------------------------------------------------------------------
# the convolution-algebra comparison map


@memoised
def _psi(setup: ConvolutionCupSetup, q: int,
         tensor_valued: bool) -> tuple[LinearMap, list[int]]:
    """psi at degree q, and the algebra-cochain basis maps that see the
    coalgebra-side relations, built once per setup, degree and variant.

    Column (i, j) is collapse o (phi_i o f_u (x) id_N) on the representative
    of quotient basis vector j, for every product f_u = f_{u_0} (x) ... (x)
    f_{u_q} of convolution basis maps (`_psi_transformer`).  The same end
    applied to the product with the balancing relations gives the basis maps
    whose products with them do not vanish; psi is well defined on the
    quotient when there are none.  That relation product is the widest map
    psi needs.
    """
    x, y = setup.algebra_cochains, setup.coalgebra_cochains
    # Hom(A^{(q+1)}, M) (x) N (x) C^{(q+1)} -> Hom(C^{(q+1)} (x) A^{(q+1)}, N (x) M)
    factors = [x.domains[q], x.values, setup.module.space,
               tensor_spaces([setup.coalgebra.space] * (q + 1))]
    end = _comparison_end(setup, q, tensor_valued, _psi_transformer, factors, [3, 0, 2, 1])
    out = end @ tensor_map(x.subspaces[q].basis, y.quotients[q].section)
    seen = end @ tensor_map(x.subspaces[q].basis, y.relations[q])
    width = y.relations[q].source.dim
    return (relabel(out, setup.diagonal_module.spaces[q]),
            sorted({j // width for j in seen.nonzero_columns()}))


def _psi_transformer(setup: ConvolutionCupSetup, q: int) -> LinearMap:
    """u -> f_u as a vector of Hom(C^{(q+1)}, A^{(q+1)}): the convolution basis
    tensored q + 1 times, its (C, A) factors regrouped."""
    c, a = setup.coalgebra.space, setup.algebra.space
    regroup = tensor_permutation([c, a] * (q + 1),
                                 [*range(0, 2 * q + 2, 2), *range(1, 2 * q + 2, 2)])
    return regroup @ tensor_maps([setup.convolution.subspace.basis] * (q + 1))


def psi_matrix(setup: ConvolutionCupSetup, q: int, tensor_valued: bool) -> LinearMap:
    """Diagonal degree-q space -> Hom(B^{(q+1)}, V), B the convolution algebra.

    All columns come from one Kronecker product of the algebra-cochain basis
    with the quotient's representatives, as in `phi_matrix`.
    Well-definedness on the coalgebra-side quotient is verified by the same
    product against the balancing relations: every algebra-cochain basis map
    must annihilate them, else the map would depend on the chosen
    representatives.  Map and verdict are built once per setup, degree and
    variant (`_psi`); a map that sees the relations is refused on every call.
    """
    _require_degree(setup.diagonal_module, q, "the comparison map")
    out, bad = _psi(setup, q, tensor_valued)
    if bad:
        raise LinAlgError(
            f"the comparison map is not well defined on the quotient at "
            f"degree {q} (basis map {bad[0]})")
    return out


# --------------------------------------------------------------------------
# the crossed-product comparison map


def _phi_transformer(setup: CrossedProductCupSetup, n: int) -> LinearMap:
    """(A x B)^{(n+1)} -> B^{(n+1)} (x) A^{(n+1)}, as a product of slot maps.

    One permutation sorts the factors into (b_0, ..., b_n, a_0, ..., a_n).
    Then for j = n down to 0 two slot maps follow: the diagonal coaction of
    B^{(n+1-j)} on b_j, ..., b_n, which multiplies one coaction leg of each,
    in that order, into a Hopf element h; and the twisted action
    h (x) a_j -> S^{-1}(h) . a_j.  So b_k gives its coaction legs to the
    slots k, k - 1, ..., 0, outermost first, and the cost scales with the
    support of the coaction and of the action.  A transformer above
    `PHI_MAX_CELLS` is refused before anything is built.
    """
    cells = setup.crossed.space.dim ** (2 * (n + 1))
    if cells > PHI_MAX_CELLS:
        raise LinAlgError(
            f"the comparison map at degree {n} needs a transformer of {cells} cells, "
            f"more than the limit of {PHI_MAX_CELLS}")
    a, b = setup.algebra.space, setup.comodule_algebra.space
    h = setup.algebra.hopf
    a_powers, b_powers = _powers(a, n + 1), _powers(b, n + 1)
    coactions = _diagonal_coactions(h, setup.comodule_algebra.coaction, b_powers[1:])
    twisted = setup.algebra.twisted_action()
    out = tensor_permutation([a, b] * (n + 1),
                             [*range(1, 2 * n + 2, 2), *range(0, 2 * n + 2, 2)])
    ordered = out.target
    legs = VectorSpace.make(h.dim * ordered.dim, "c")
    for j in range(n, -1, -1):
        left, tail = b_powers[j].dim, a_powers[n + 1 - j].dim
        coact = slot_map(coactions[n - j], left, a_powers[n + 1].dim, ordered, legs)
        act = slot_map(tensor_map(twisted, LinearMap.identity(a_powers[n - j])), left,
                       b_powers[n + 1 - j].dim * a_powers[j].dim, legs, ordered, (tail, tail))
        out = act @ (coact @ out)
    return relabel(out, tensor_spaces([setup.crossed.space] * (n + 1)))


# The largest transformer `phi_matrix` builds, counted in dense cells
# (dim A x B)^{2(n+1)}.  That overstates the sparse build, whose slot maps
# hold dim H columns per basis tensor of (A x B)^{(n+1)}, but it refuses a
# large one before anything is allocated rather than running out of memory.
PHI_MAX_CELLS = 2 ** 24


@memoised
def phi_matrix(setup: CrossedProductCupSetup, n: int, tensor_valued: bool) -> LinearMap:
    """Diagonal degree-n space -> Hom((A x B)^{(n+1)}, V).

    Column (r, i) is collapse o (psi_r (x) phi_i) o transformer for the basis
    cochains psi_r and phi_i, read as a Hom vector.  All columns come from
    one Kronecker product of the two cochain bases (`_phi_transformer`).
    The map is built once per setup, degree and variant.
    """
    _require_degree(setup.diagonal_module, n, "the comparison map")
    x, y = setup.comodule_cochains, setup.algebra_cochains
    # Hom(D, N) (x) Hom(E, M) -> Hom(D (x) E, N (x) M) reorders the factors
    end = _comparison_end(setup, n, tensor_valued, _phi_transformer,
                          [x.domains[n], x.values, y.domains[n], y.values], [0, 2, 1, 3])
    return relabel(end @ tensor_map(x.subspaces[n].basis, y.subspaces[n].basis),
                   setup.diagonal_module.spaces[n])


# --------------------------------------------------------------------------
# structural checks for the comparison maps


def _check_cyclic_map(rep: Report, source: CocyclicModule, target: CocyclicModule,
                      maps: dict[int, LinearMap]) -> None:
    cap = source.degree_cap
    for q in range(cap):
        rep.check_equal(f"commutes with d0 (degree {q})",
                        maps[q + 1] @ source.face(q, 0),
                        target.face(q, 0) @ maps[q])
    for q in range(1, cap + 1):
        rep.check_equal(f"commutes with s{q - 1} (degree {q})",
                        maps[q - 1] @ source.degeneracy(q, q - 1),
                        target.degeneracy(q, q - 1) @ maps[q])
    for q in range(cap + 1):
        rep.check_equal(f"commutes with t (degree {q})",
                        maps[q] @ source.tau(q), target.tau(q) @ maps[q])


def check_psi(setup: ConvolutionCupSetup, tensor_valued: bool = False) -> Report:
    """Well-definedness and generator commutation of the convolution comparison map."""
    _, values = _variant(setup, tensor_valued)
    rep = Report("contratensor-valued convolution comparison map" if tensor_valued
                 else "convolution comparison map")
    maps = {}
    for q in range(setup.degree_cap + 1):
        maps[q], bad = _psi(setup, q, tensor_valued)
        rep.add(f"well defined on the relation subspace (degree {q})",
                not bad, "" if not bad else f"basis maps {bad} see the relations")
    target = _plain_tower(setup, setup.convolution.algebra, values)
    _check_cyclic_map(rep, setup.diagonal_module, target, maps)
    return rep


def check_phi(setup: CrossedProductCupSetup, tensor_valued: bool = False) -> Report:
    """Generator commutation of the crossed-product comparison map."""
    _, values = _variant(setup, tensor_valued)
    rep = Report("contratensor-valued crossed-product comparison map"
                 if tensor_valued else "crossed-product comparison map")
    maps = {n: phi_matrix(setup, n, tensor_valued) for n in range(setup.degree_cap + 1)}
    target = _plain_tower(setup, setup._base, values)
    _check_cyclic_map(rep, setup.diagonal_module, target, maps)
    return rep


def check_collapse_factorization(setup, name: str = "collapse factorization") -> Report:
    """Post-composing the contratensor-valued comparison map into the target
    cochains with the pairing collapse recovers the scalar one, degree by
    degree."""
    _variant(setup, False)  # refuses a setup without a pairing first
    rep = Report(name)
    for q in range(setup.degree_cap + 1):
        post = hom_postcompose(tensor_spaces([setup._base.space] * (q + 1)),
                               setup.pair_collapse)
        rep.check_equal(f"collapse of the tensor-valued map (degree {q})",
                        post @ setup._comparison(q, True), setup._comparison(q, False))
    return rep


# --------------------------------------------------------------------------
# the four pipelines


def _validated_cocycle(module: CocyclicModule, degree: int, vec,
                       label: str) -> list[Fraction]:
    v = _as_vector(vec, module.spaces[degree].dim, label)
    if not _vector_is_zero(full_b(module, degree).apply(v)):
        raise LinAlgError(f"{label} is not closed under the Hochschild coboundary")
    sign = Fraction((-1) ** degree)
    if not vectors_equal(module.tau(degree).apply(v), [sign * x for x in v]):
        raise LinAlgError(f"{label} is not cyclic: the cyclic operator does not "
                          f"act on it by {sign}")
    degenerate = any(not _vector_is_zero(module.degeneracy(degree, j).apply(v))
                     for j in range(degree))
    if degenerate:
        v = normalization_projector(module, degree).apply(v)
        if not _vector_is_zero(full_b(module, degree).apply(v)):
            raise LinAlgError(f"{label} cannot be normalized without losing closure")
        if not vectors_equal(module.tau(degree).apply(v), [sign * x for x in v]):
            raise LinAlgError(f"{label} cannot be normalized without losing cyclicity")
    return v


def _cup(setup, p: int, q: int, left, right, tensor_valued: bool) -> BBcocycle:
    """The one product pipeline: validate both cochains, take the AW image of
    their product, map it into the target cochains by the family's
    comparison map, complete it to a (b, B)-cocycle and check that."""
    _, values = _variant(setup, tensor_valued)
    first, second = setup._sides
    _require_degree(setup, p, f"the {first} cochain", high=setup.degree_cap - 1)
    _require_degree(setup, q, f"the {second} cochain", high=setup.degree_cap - 1 - p)
    u = _validated_cocycle(setup.bicomplex.vertical_factor, p, left, f"the {first} cochain")
    v = _validated_cocycle(setup.bicomplex.horizontal_factor, q, right,
                           f"the {second} cochain")
    n = p + q
    y_vec = aw_map(setup.bicomplex, p, q).apply([a * b for a in u for b in v])
    top = setup._comparison(n, tensor_valued).apply(y_vec)
    target = _plain_tower(setup, setup._base, values)
    cocycle = cyclic_complete(target, n, top)
    require(check_bb_cocycle(target, cocycle), "cup product output")
    return cocycle


def cup_ac(setup: ConvolutionCupSetup, p: int, q: int, left, right) -> BBcocycle:
    """Cup a degree-p algebra cochain with a degree-q coalgebra cochain into a
    (b, B)-cocycle on plain cochains of the algebra (scalar values)."""
    return _cup(setup, p, q, left, right, False)


def cup_ac_general(setup: ConvolutionCupSetup, p: int, q: int, left, right) -> BBcocycle:
    """The contratensor-valued variant: no pairing needed, values in L."""
    return _cup(setup, p, q, left, right, True)


def cup_aa(setup: CrossedProductCupSetup, psi_degree: int, phi_degree: int,
           left, right) -> BBcocycle:
    """Cup a comodule-algebra cochain with an algebra cochain into a
    (b, B)-cocycle on plain cochains of the crossed product (scalar values)."""
    return _cup(setup, psi_degree, phi_degree, left, right, False)


def cup_aa_general(setup: CrossedProductCupSetup, psi_degree: int, phi_degree: int,
                   left, right) -> BBcocycle:
    """The contratensor-valued variant on the crossed product."""
    return _cup(setup, psi_degree, phi_degree, left, right, True)


def collapse_bb(cocycle: BBcocycle, base_space: VectorSpace,
                pair_collapse: LinearMap) -> BBcocycle:
    """Push an L-valued (b, B)-cocycle to scalars along the pairing's collapse
    L -> Q, a setup's `pair_collapse`."""
    out = []
    for k, comp in enumerate(cocycle.components):
        d = cocycle.degree - 2 * k
        post = hom_postcompose(tensor_spaces([base_space] * (d + 1)), pair_collapse)
        out.append(tuple(post.apply(comp)))
    return BBcocycle(cocycle.degree, tuple(out))
