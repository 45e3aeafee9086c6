"""Exact linear algebra over the rationals on based vector spaces.

Everything is a matrix of exact rationals, stored column-sparse: for each
column a dict from row index to a nonzero Python-int numerator, plus one
positive common denominator, kept gcd-reduced.  Python ints never overflow,
so no result is ever rounded, and every kernel costs time proportional to the
nonzeros it touches.  Vectors are plain lists of Fractions, and the dense
`LinearMap.fractions()` view is a list of rows.

Conventions, used everywhere downstream:
  * a LinearMap stores a (target.dim x source.dim) matrix acting on column
    coordinate vectors;
  * the basis of V (x) W is row-major: index of (i, j) is i*dim(W) + j;
  * the RREF of a row space is unique, so kernels, cokernels and solutions
    read off it are deterministic, whatever rows an elimination pivots on;
  * `partial_transpose` moves the last source factor of a map across to the
    target, and its transpose is currying, so a structure map is read whole
    rather than one basis element at a time.

The product kernels (`@`, `+`, `-`, `signed_sum`, `tensor_map`, `slot_map`)
cost Python work per column, so each takes the cheapest path a column allows
and keeps one contract on every path:
  * no result shares a column dict with an input, so mutating one leaves
    the other as it was;
  * a column holds its entries in one fixed insertion order, whichever path
    wrote it;
  * zeros are filtered out of a column only after a sum in it cancelled;
  * a monomial factor (at most one entry per column) is written as one
    literal per output column, or {} for an empty one.

A joint kernel (`solve_constrained_subspace`) or a fixed space
(`fixed_subspace`) is read off the nonzeros when the input allows it and
eliminated otherwise, with the same basis, supports and labels either way;
this module alone makes that choice, so callers never branch on it.

Basis labels serve only failure witnesses and reports, so a derived space
spells its labels on their first read and keeps them; uniqueness is checked
on the label tuples that carriers are given, not on derived ones, where a
carrier label holding "⊗" may spell the same label twice.

Only this module reads the storage of a LinearMap or the label fields of a
VectorSpace; the others use their accessors.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .valueclass import FrozenInstanceError, field, slot_setters, valueclass

Rational = Fraction

_ZERO = Fraction(0)


class LinAlgError(ValueError):
    """Shape mismatch or an unsatisfiable exact-arithmetic request."""


class MembershipError(LinAlgError):
    """A vector claimed to lie in a subspace (or image) does not."""


class VectorSpace:
    """A finite-dimensional Q-vector space with a fixed ordered basis.

    A carrier is given its labels, which must be unique.  A derived space (a
    tensor product, dual, Hom space, direct sum, quotient or `make`) holds
    only the rule that spells its labels from its parts, and spells them on
    the first read of `labels`.  Spaces are equal when their dimensions and
    labels are; they are immutable.
    """

    __slots__ = ("dim", "_labels", "_spell")

    def __init__(self, dim: int, labels: Sequence[str]):
        labels = tuple(labels)
        if dim != len(labels):
            raise LinAlgError("dim does not match number of labels")
        if len(set(labels)) != dim:
            raise LinAlgError("basis labels must be unique")
        for name, value in (("dim", dim), ("_labels", labels), ("_spell", None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _derived(cls, dim: int, spell) -> "VectorSpace":
        """The space of dimension `dim` whose labels are spell()."""
        space = object.__new__(cls)
        for name, value in (("dim", dim), ("_labels", None), ("_spell", spell)):
            object.__setattr__(space, name, value)
        return space

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            object.__setattr__(self, "_labels", tuple(self._spell()))
            object.__setattr__(self, "_spell", None)
        return self._labels

    @staticmethod
    def make(dim: int, prefix: str = "e") -> "VectorSpace":
        if dim < 0:
            raise LinAlgError("dim does not match number of labels")
        return VectorSpace._derived(dim, lambda: (f"{prefix}{i}" for i in range(dim)))

    @staticmethod
    def ground() -> "VectorSpace":
        """The ground field Q as a one-dimensional based space."""
        return _GROUND

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, VectorSpace):
            return NotImplemented
        return self.dim == other.dim and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.dim, self.labels))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return VectorSpace._derived, (self.dim, functools.partial(tuple, self.labels))

    def __repr__(self):
        return f"VectorSpace(dim={self.dim})"


_GROUND = VectorSpace(1, ("1",))


def dual_space(v: VectorSpace) -> VectorSpace:
    return VectorSpace._derived(v.dim, lambda: (f"{l}*" for l in v.labels))


def tensor_space(v: VectorSpace, w: VectorSpace) -> VectorSpace:
    return VectorSpace._derived(v.dim * w.dim,
                                lambda: (f"{a}⊗{b}" for a in v.labels for b in w.labels))


def tensor_spaces(spaces: Sequence[VectorSpace]) -> VectorSpace:
    """The tensor product of the spaces in order, Q for none; its labels are
    those of the nested `tensor_space`s."""
    if len(spaces) <= 1:
        return spaces[0] if spaces else VectorSpace.ground()
    spaces = tuple(spaces)
    return VectorSpace._derived(
        math.prod(s.dim for s in spaces),
        lambda: map("⊗".join, itertools.product(*(s.labels for s in spaces))))


def _coerce_fraction(x) -> Fraction:
    """A Fraction, an int other than a bool, or the text of a rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and x.__class__ is not bool:
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise LinAlgError(f"not an exact rational: {x!r}")


def _canonical(source: VectorSpace, target: VectorSpace, cols, den: int) -> "LinearMap":
    """The map with column dicts `cols` (no zero entries) over `den` > 0, gcd-reduced."""
    if den != 1:
        g = math.gcd(den, *(v for col in cols for v in col.values()))
        if g > 1:
            cols = [{i: v // g for i, v in col.items()} for col in cols]
            den //= g
    return LinearMap(source, target, tuple(cols), den)


def _from_columns(source: VectorSpace, target: VectorSpace, cols) -> "LinearMap":
    """The map whose column j is the dict cols[j] of nonzero Fractions."""
    den = math.lcm(*(x.denominator for col in cols for x in col.values()))
    # den is the lcm of reduced denominators, so the numerators share no factor with it
    return LinearMap(source, target, tuple(
        {i: x.numerator * (den // x.denominator) for i, x in col.items()} for col in cols), den)


def _require_index(index: int, size: int, what: str) -> None:
    """Refuse an index outside 0..size-1 rather than wrap it from the end."""
    if not 0 <= index < size:
        raise LinAlgError(f"{what} {index} is outside range({size})")


def _dense(entries: dict, n: int) -> list[Fraction]:
    """A length-n Fraction vector with the given nonzero entries."""
    out = [_ZERO] * n
    for i, x in entries.items():
        out[i] = x
    return out


def _transposed(cols, nrows: int) -> list[dict[int, int]]:
    """Row dicts of the matrix with column dicts `cols`."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return rows


@valueclass
class LinearMap:
    """An exact linear map between based spaces, stored as sparse scaled integers.

    `_cols[j]` maps row index to the nonzero numerator of entry (i, j); every
    entry is that numerator over `_den`.  Composition is valid whenever the
    inner dimensions agree; labels are bookkeeping only.
    """

    source: VectorSpace
    target: VectorSpace
    _cols: tuple[dict[int, int], ...] = field(repr=False)
    _den: int = field(repr=False)

    def __init__(self, source, target, _cols, _den):
        set_source, set_target, set_cols, set_den = _LINEAR_MAP_SLOTS
        set_source(self, source)
        set_target(self, target)
        set_cols(self, _cols)
        set_den(self, _den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(source: VectorSpace, target: VectorSpace, rows) -> "LinearMap":
        rows = [[_coerce_fraction(x) for x in row] for row in rows]
        if len(rows) != target.dim or any(len(row) != source.dim for row in rows):
            raise LinAlgError(
                f"matrix with {len(rows)} rows does not match ({target.dim}, {source.dim})"
            )
        cols = [{} for _ in range(source.dim)]
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x:
                    cols[j][i] = x
        return _from_columns(source, target, cols)

    @staticmethod
    def from_entries(
        source: VectorSpace,
        target: VectorSpace,
        entries: Iterable[tuple[int, int, Fraction]],
    ) -> "LinearMap":
        """Sparse constructor from (target_index, source_index, value); repeats add up."""
        cols = [{} for _ in range(source.dim)]
        for i, j, v in entries:
            if not (0 <= i < target.dim and 0 <= j < source.dim):
                raise LinAlgError(
                    f"entry ({i}, {j}) is outside the ({target.dim}, {source.dim}) matrix"
                )
            col = cols[j]
            col[i] = col.get(i, 0) + _coerce_fraction(v)
        return _from_columns(source, target, [{i: x for i, x in col.items() if x} for col in cols])

    @staticmethod
    def zero(source: VectorSpace, target: VectorSpace) -> "LinearMap":
        return LinearMap(source, target, tuple({} for _ in range(source.dim)), 1)

    @staticmethod
    def identity(space: VectorSpace) -> "LinearMap":
        return LinearMap(space, space, tuple({j: 1} for j in range(space.dim)), 1)

    @staticmethod
    def scalar(space: VectorSpace, c) -> "LinearMap":
        return LinearMap.identity(space).scale(c)

    # -- views --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.target.dim, self.source.dim

    def fractions(self) -> list[list[Fraction]]:
        """Dense matrix of Fractions as a fresh list of rows."""
        out = [[_ZERO] * self.source.dim for _ in range(self.target.dim)]
        for j, col in enumerate(self._cols):
            for i, v in col.items():
                out[i][j] = Fraction(v, self._den)
        return out

    def entry(self, i: int, j: int) -> Fraction:
        _require_index(i, self.target.dim, "row")
        _require_index(j, self.source.dim, "column")
        return Fraction(self._cols[j].get(i, 0), self._den)

    def is_zero(self) -> bool:
        return not any(self._cols)

    def nonzero_columns(self) -> list[int]:
        """Ascending indices of the columns holding a nonzero entry."""
        return [j for j, col in enumerate(self._cols) if col]

    def first_nonzero(self) -> tuple[int, int, Fraction] | None:
        """Row-major first nonzero entry, for deterministic failure reports."""
        first = min(((i, j) for j, col in enumerate(self._cols) for i in col), default=None)
        if first is None:
            return None
        i, j = first
        return i, j, self.entry(i, j)

    # -- exact arithmetic ---------------------------------------------

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        """The composite self after other, column by column of other: an
        empty column gives {}, a one-entry column b in row k a copy of
        column k of self scaled by b, and a longer one the sum of the columns
        it picks, with zeros filtered only when a sum cancelled."""
        if self.source.dim != other.target.dim:
            raise LinAlgError(
                f"cannot compose: inner dims {self.source.dim} != {other.target.dim}"
            )
        a = self._cols
        cols = []
        append = cols.append
        for col in other._cols:
            if len(col) == 1:
                # one entry b in row k: column k of self times b, never zero
                (k, b), = col.items()
                append(a[k].copy() if b == 1 else {i: v * b for i, v in a[k].items()})
            elif not col:
                append({})
            else:
                acc = {}
                get = acc.get
                for k, b in col.items():
                    for i, v in a[k].items():
                        acc[i] = get(i, 0) + v * b
                append({i: v for i, v in acc.items() if v} if 0 in acc.values() else acc)
        return _canonical(other.source, self.target, cols, self._den * other._den)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return signed_sum(((1, self), (1, other)))

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return signed_sum(((1, self), (-1, other)))

    def __neg__(self) -> "LinearMap":
        cols = tuple({i: -v for i, v in col.items()} for col in self._cols)
        return LinearMap(self.source, self.target, cols, self._den)

    def scale(self, c) -> "LinearMap":
        c = _coerce_fraction(c)
        if not c:
            return LinearMap.zero(self.source, self.target)
        cols = [{i: v * c.numerator for i, v in col.items()} for col in self._cols]
        return _canonical(self.source, self.target, cols, self._den * c.denominator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.shape == other.shape and self._den == other._den
                and self._cols == other._cols)

    def __hash__(self) -> int:
        # __eq__ reads no labels, and the columns are dicts
        return hash((self.shape, self._den))

    # -- vectors ------------------------------------------------------

    def apply(self, vec: Sequence) -> list[Fraction]:
        """Apply to a column vector of Fractions; returns Fractions."""
        if len(vec) != self.source.dim:
            raise LinAlgError("vector length mismatch")
        xs = [_coerce_fraction(x) for x in vec]
        vden = math.lcm(*(x.denominator for x in xs))
        out = [0] * self.target.dim
        for col, x in zip(self._cols, xs):
            if x:
                c = x.numerator * (vden // x.denominator)
                for i, v in col.items():
                    out[i] += v * c
        d = self._den * vden
        return [Fraction(v, d) if v else _ZERO for v in out]

    def column(self, j: int) -> list[Fraction]:
        _require_index(j, self.source.dim, "column")
        return _dense({i: Fraction(v, self._den) for i, v in self._cols[j].items()},
                      self.target.dim)

    # -- structure ----------------------------------------------------

    def transpose(self) -> "LinearMap":
        """The dual map between dual spaces."""
        cols = _transposed(self._cols, self.target.dim)
        return LinearMap(dual_space(self.target), dual_space(self.source), tuple(cols), self._den)

    def rank(self) -> int:
        return len(_eliminate(self._cols, self.target.dim)[1])

    def kernel(self) -> list[list[Fraction]]:
        """Deterministic kernel basis; first nonzero entry of each vector positive."""
        return kernel_basis(self)

    def inverse(self) -> "LinearMap":
        if self.source.dim != self.target.dim:
            raise LinAlgError("only square maps can be inverted")
        n = self.source.dim
        # [N | den I] row-reduces to [I | (N / den)^-1]
        aug = _transposed(self._cols, n)
        for i, row in enumerate(aug):
            row[n + i] = self._den
        rows, piv = _eliminate(aug, 2 * n)
        if piv != list(range(n)):
            raise LinAlgError("map is not invertible")
        cols = [{} for _ in range(n)]
        for k, row in enumerate(rows):
            for j, x in row.items():
                if j >= n:
                    cols[j - n][k] = x
        return _from_columns(self.target, self.source, cols)


_LINEAR_MAP_SLOTS = slot_setters(LinearMap)


def signed_sum(terms: Sequence[tuple[int, LinearMap]]) -> LinearMap:
    """The sum of sign * map over (sign, map) terms of one shape, each sign
    1 or -1, in one pass over their nonzeros: the map that adding and
    subtracting them in turn gives, with no accumulator copied per term."""
    if not terms:
        raise LinAlgError("nothing to sum")
    first = terms[0][1]
    if any(m.shape != first.shape for _, m in terms):
        raise LinAlgError("cannot add maps of different shapes")
    if any(sign not in (1, -1) for sign, _ in terms):
        raise LinAlgError("a signed sum takes the signs 1 and -1")
    den = math.lcm(*(m._den for _, m in terms))
    f0, *factors = [sign * (den // m._den) for sign, m in terms]
    # term by term, so that a column costs no per-term tuple or iterator
    cols = ([c.copy() for c in first._cols] if f0 == 1
            else [{i: v * f0 for i, v in c.items()} for c in first._cols])
    for f, (_, m) in zip(factors, terms[1:]):
        for acc, col in zip(cols, m._cols):
            get = acc.get
            for i, v in col.items():
                acc[i] = get(i, 0) + v * f
    cols = [{i: v for i, v in acc.items() if v} if 0 in acc.values() else acc for acc in cols]
    return _canonical(first.source, first.target, cols, den)


def insert_vector(space: VectorSpace, vec) -> LinearMap:
    """The map Q -> space sending 1 to the given vector."""
    return LinearMap.from_rows(VectorSpace.ground(), space, [[x] for x in vec])


def evaluation_pairing(v: VectorSpace) -> LinearMap:
    """The canonical pairing V (x) V* -> Q."""
    src = tensor_space(v, dual_space(v))
    return LinearMap.from_entries(
        src, VectorSpace.ground(), [(0, i * v.dim + i, Fraction(1)) for i in range(v.dim)]
    )


def basis_vector(space: VectorSpace, i: int) -> list[Fraction]:
    _require_index(i, space.dim, "basis index")
    v = [_ZERO] * space.dim
    v[i] = Fraction(1)
    return v


def vector_from(entries) -> list[Fraction]:
    return [_coerce_fraction(x) for x in entries]


def vectors_equal(a: Sequence, b: Sequence) -> bool:
    return len(a) == len(b) and all(Fraction(x) == Fraction(y) for x, y in zip(a, b))


def _monomial_entries(f: LinearMap) -> list[tuple[int, int]] | None:
    """(row, entry) of each column of f, (0, 0) for an empty one; None, before
    anything is copied, when some column holds two entries or more."""
    if any(len(col) > 1 for col in f._cols):
        return None
    return [next(iter(col.items()), (0, 0)) for col in f._cols]


def tensor_map(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product matching the row-major tensor basis convention.

    Column (j, l) holds a * b at row i * dim(g.target) + k for each entry a
    of column j of f in row i and b of column l of g in row k.  When both
    factors are monomial (at most one entry per column), each column is
    written as one literal, or {} where a factor's column is empty.
    """
    m = g.target.dim
    fm = _monomial_entries(f)
    gm = None if fm is None else _monomial_entries(g)
    if gm is not None:
        fm = [(i * m, a) for i, a in fm]
        cols = [{i + k: a * b} if a and b else {} for i, a in fm for k, b in gm]
    else:
        cols = [{i * m + k: a * b for i, a in fc.items() for k, b in gc.items()}
                for fc in f._cols for gc in g._cols]
    return _canonical(tensor_space(f.source, g.source), tensor_space(f.target, g.target),
                      cols, f._den * g._den)


def tensor_maps(maps: Sequence[LinearMap]) -> LinearMap:
    if not maps:
        return LinearMap.identity(VectorSpace.ground())
    out = maps[0]
    for m in maps[1:]:
        out = tensor_map(out, m)
    return out


def slot_map(k: LinearMap, left: int, middle: int, source: VectorSpace, target: VectorSpace,
             tail: tuple[int, int] = (1, 1)) -> LinearMap:
    """id_left (x) k (x) id_middle between `source` and `target`, in one pass,
    with the last factor of k (tail[0] wide in, tail[1] wide out) moved
    behind the middle.

    Column (l, f, m, e) goes to rows (l, f', m, e') with entry
    k[(f', e'), (f, e)], all indices row-major.  With the default tail this
    is the Kronecker product id (x) k (x) id; a wider tail writes the
    rotations of cyclic operators.  When k is monomial (at most one entry
    per column: cyclic operators, codegeneracies, permutations), each column
    is written as one literal, or {} where k's column is empty; otherwise
    each is built from its column of k.
    """
    ls, lt = tail
    # a zero-width tail fits only a zero-dimensional side of k
    fs, ft = k.source.dim // (ls or 1), k.target.dim // (lt or 1)
    if (fs * ls, ft * lt) != (k.source.dim, k.target.dim) or \
            source.dim != left * fs * middle * ls or target.dim != left * ft * middle * lt:
        raise LinAlgError(
            f"slot map of a {k.target.dim}x{k.source.dim} map does not fit "
            f"{target.dim}x{source.dim}")
    if not lt:  # a zero-dimensional target, where the row stride below would be 0
        return LinearMap.zero(source, target)
    stride = middle * lt
    # the columns (f, e) of k, as (row offset, entry) lists, for each f
    offsets = [[(i // lt * stride + i % lt, v) for i, v in col.items()] for col in k._cols]
    blocks = [offsets[f * ls:f * ls + ls] for f in range(fs)]
    bases = [range(l * ft * stride, l * ft * stride + stride, lt) for l in range(left)]
    if all(len(col) < 2 for col in offsets):
        # k is monomial: one literal per column, entry 0 standing for an empty one
        blocks = [[col[0] if col else (0, 0) for col in block] for block in blocks]
        cols = [{base + o: v} if v else {}
                for rows in bases for block in blocks for base in rows for o, v in block]
    else:
        cols = [{base + o: v for o, v in col}
                for rows in bases for block in blocks for base in rows for col in block]
    # every column of k appears once left * middle > 0, so the map stays reduced
    return LinearMap(source, target, tuple(cols), k._den if cols else 1)


def partial_transpose(f: LinearMap, x: VectorSpace, y: VectorSpace) -> LinearMap:
    """f: X (x) Y -> Z with its last source factor moved across, X (x) Z* -> Y*.

    Entry (y, (x, z)) is entry (z, (x, y)) of f, in one pass over its
    nonzeros.  The transpose Y -> X* (x) Z = Hom(X, Z) is the currying
    y -> (x -> f(x (x) y)).
    """
    if x.dim * y.dim != f.source.dim:
        raise LinAlgError(
            f"partial transpose of a {f.target.dim}x{f.source.dim} map does not fit "
            f"factors of dims {x.dim} and {y.dim}")
    dz = f.target.dim
    cols = [{} for _ in range(x.dim * dz)]
    for k, col in enumerate(f._cols):
        i, j = divmod(k, y.dim)
        for z, v in col.items():
            cols[i * dz + z][j] = v
    # the same entries over the same denominator, so the map stays reduced
    return LinearMap(tensor_space(x, dual_space(f.target)), dual_space(y), tuple(cols), f._den)


def tensor_permutation(spaces: Sequence[VectorSpace], perm: Sequence[int]) -> LinearMap:
    """Permutation of tensor factors: output factor i is input factor perm[i]."""
    if sorted(perm) != list(range(len(spaces))):
        raise LinAlgError("perm must be a permutation of the factor indices")
    # weight[p]: stride in the output of the slot that input factor p moves to
    weight = [0] * len(perm)
    stride = 1
    for p in reversed(perm):
        weight[p] = stride
        stride *= spaces[p].dim
    # output rows of the columns in input order, one factor's strides at a
    # time; the last factor's are added as each column is written
    rows, steps = [0], [0]
    for s, w in zip(spaces, weight):
        rows = [r + o for r in rows for o in steps]
        steps = [x * w for x in range(s.dim)]
    return LinearMap(tensor_spaces(spaces), tensor_spaces([spaces[p] for p in perm]),
                     tuple({r + o: 1} for r in rows for o in steps), 1)


# -- elimination -----------------------------------------------------


def _eliminate(rows: Sequence[dict[int, int]], ncols: int) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form of sparse integer rows (the inputs are not modified).

    An index lists, for each column, the rows that may hold it, so a column
    is only ever looked up in its holders.  Reducing a row changes it only
    at the pivot row's columns, so a row is listed there when it gains one;
    a row that loses a column stays listed until the column is visited and
    is dropped then, because plain lists take a fraction of the memory of
    sets kept exact.  Columns are taken left to right.  The pivot of column
    c is the holder of c, not yet a pivot, with the fewest entries (lowest
    index on a tie: the Markowitz rule, against fill-in), and every other
    holder of c, pivot rows included, is reduced by it.  Rows stay in place
    and are never swapped.  Rows stay integral: eliminating column c from a
    row replaces it by p*row - a*pivot_row divided by its content.  Returns
    the nonzero RREF rows as {column: Fraction}, each 1 at its pivot, and
    the pivot columns.
    """
    rows = list(rows)
    holders: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, []).append(i)
    # fill-in at j comes from a pivot row holding j, so no column gains a first
    # holder and the columns can be listed once, here
    pivot_rows: list[int] = []
    pivots: list[int] = []
    taken: set[int] = set()
    for c in sorted(j for j in holders if j < ncols):
        held = {i for i in holders.pop(c) if c in rows[i]}
        pr = min((i for i in held if i not in taken), key=lambda i: (len(rows[i]), i), default=None)
        if pr is None:
            continue
        held.discard(pr)
        prow = rows[pr]
        p = prow[c]
        later = [j for j in prow if j != c]
        for i in held:
            old = rows[i]
            new = rows[i] = _reduce_row(old, old[c], prow, p)
            for j in later:
                if j in new and j not in old:
                    holders[j].append(i)
        taken.add(pr)
        pivot_rows.append(pr)
        pivots.append(c)
    return [{j: Fraction(v, rows[i][c]) for j, v in rows[i].items()}
            for i, c in zip(pivot_rows, pivots)], pivots


def _reduce_row(row: dict[int, int], a: int, prow: dict[int, int], p: int) -> dict[int, int]:
    """The primitive integer row proportional to row - (a/p) * prow."""
    g = math.gcd(a, p)
    a, p = a // g, p // g
    if p < 0:
        a, p = -a, -p
    new = dict(row) if p == 1 else {j: v * p for j, v in row.items()}
    for j, v in prow.items():
        w = new.get(j, 0) - a * v
        if w:
            new[j] = w
        else:
            del new[j]
    g = math.gcd(*new.values())
    if g > 1:
        new = {j: v // g for j, v in new.items()}
    return new


def _kernel_vectors(rows: Sequence[dict[int, int]], ncols: int) -> dict[int, dict[int, Fraction]]:
    """Kernel basis of sparse integer rows read off their RREF, one sparse
    vector per free column: 1 there, minus that RREF column at the pivots.
    The vectors are keyed by their free column, ascending."""
    rows, pivots = _eliminate(rows, ncols)
    pivot_set = set(pivots)
    vecs = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivot_set}
    for row, c in zip(rows, pivots):
        for j, x in row.items():
            if j != c:
                vecs[j][c] = -x
    return vecs


def _rows(mat: LinearMap) -> list[dict[int, int]]:
    """Sparse integer rows of `mat`: its numerators, which span the same rows."""
    return _transposed(mat._cols, mat.target.dim)


def row_echelon(mat: LinearMap) -> tuple[LinearMap, list[int]]:
    """The nonzero rows of the reduced row echelon form, as the rows of a map
    on mat.source in pivot order, and their pivot columns.  The RREF is
    unique, so it does not depend on the rows `_eliminate` pivots on."""
    rows, pivots = _eliminate(_rows(mat), mat.source.dim)
    return _from_columns(mat.source, VectorSpace.make(len(rows), "r"),
                         _transposed(rows, mat.source.dim)), pivots


def rref(mat: LinearMap) -> tuple[list[list[Fraction]], list[int]]:
    """The RREF of `row_echelon` as dense rows, zero rows last, and the pivot
    columns."""
    rows, pivots = _eliminate(_rows(mat), mat.source.dim)
    zero_rows = [{}] * (mat.target.dim - len(rows))
    return [_dense(row, mat.source.dim) for row in rows + zero_rows], pivots


def kernel_basis(mat: LinearMap) -> list[list[Fraction]]:
    """One kernel vector per non-pivot column, read off the RREF, negated
    when its first nonzero entry is negative."""
    n = mat.source.dim
    return [_dense(v if v[min(v)] > 0 else {i: -x for i, x in v.items()}, n)
            for v in _kernel_vectors(_rows(mat), n).values()]


def solve(mat: LinearMap, rhs: Sequence) -> list[Fraction] | None:
    """One deterministic solution of mat x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    if len(rhs) != mat.target.dim:
        raise LinAlgError("right-hand side length mismatch")
    ncols = mat.source.dim
    # row i holds numerators over den; times den * q it reads row * q = p * den
    # for rhs[i] = p / q, all integers
    aug = _rows(mat)
    for row, x in zip(aug, map(_coerce_fraction, rhs)):
        if x.denominator != 1:
            for j in row:
                row[j] *= x.denominator
        if x:
            row[ncols] = x.numerator * mat._den
    rows, piv = _eliminate(aug, ncols + 1)
    if piv and piv[-1] == ncols:
        return None
    return _dense({c: row[ncols] for row, c in zip(rows, piv) if ncols in row}, ncols)


# -- subspaces and quotients ----------------------------------------


@valueclass
class Subspace:
    """A subspace with a basis whose support rows form an identity block.

    `basis` maps the abstract subspace into the ambient space; coordinates of
    an ambient vector known to lie in the subspace are read off the support
    rows, and membership is always re-verified exactly.
    """

    ambient: VectorSpace
    space: VectorSpace
    basis: LinearMap
    supports: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.space.dim

    def support_rows(self, image: LinearMap) -> LinearMap:
        """The support rows of `image` as a map into this subspace: its
        coordinates when it lies in the subspace, which this does not check."""
        if image.target.dim != self.ambient.dim:
            raise LinAlgError(f"cannot compose: inner dims {self.ambient.dim} != {image.target.dim}")
        at = {s: k for k, s in enumerate(self.supports)}
        cols = [{at[i]: v for i, v in col.items() if i in at} for col in image._cols]
        return _canonical(image.source, self.space, cols, image._den)

    def coords(self, vec: Sequence) -> list[Fraction]:
        vec = vector_from(vec)
        c = [vec[s] for s in self.supports]
        if not vectors_equal(self.basis.apply(c), vec):
            raise MembershipError("vector does not lie in the subspace")
        return c

    def restrict_from(self, op: LinearMap, source: "Subspace") -> LinearMap:
        """The induced map source -> self of an ambient operator, verified."""
        image = op @ source.basis
        coords = self.support_rows(image)
        if self.basis @ coords != image:
            raise MembershipError("operator does not preserve the subspace")
        return coords

    def constrained(self, constraints: Sequence[LinearMap], prefix: str = "k") -> "Subspace":
        """The joint kernel of ambient operators on this subspace, solved on its
        coordinates.  On an RREF kernel basis this gives the RREF kernel basis
        of those operators stacked with the ones that cut out this subspace."""
        inner = solve_constrained_subspace(self.space, [c @ self.basis for c in constraints])
        return _with_supports(relabel(self.basis @ inner.basis,
                                      VectorSpace.make(inner.dim, prefix)))


def subspace_from_kernel(mat: LinearMap, prefix: str = "k") -> Subspace:
    vecs = _kernel_vectors(_rows(mat), mat.source.dim)
    return _subspace(mat.source, list(vecs.values()), prefix)


def _with_supports(basis: LinearMap) -> Subspace:
    """The Subspace of basis.target spanned by the columns of `basis`; the
    support of each column is its first entry equal to 1 where every other
    column vanishes."""
    used = Counter(i for col in basis._cols for i in col)
    supports = []
    for col in basis._cols:
        sup = next((i for i in sorted(col) if col[i] == basis._den and used[i] == 1), None)
        if sup is None:
            raise LinAlgError("basis lacks an identity support row")
        supports.append(sup)
    return Subspace(basis.target, basis.source, basis, tuple(supports))


def _subspace(ambient: VectorSpace, vecs: list[dict[int, Fraction]], prefix: str) -> Subspace:
    """Wrap sparse kernel-style vectors of Fractions as a Subspace."""
    space = VectorSpace.make(len(vecs), prefix)
    return _with_supports(_from_columns(space, ambient, vecs))


def tensor_subspace(x: Subspace, y: Subspace, prefix: str = "k") -> Subspace:
    """X (x) Y inside the tensor product of the ambients, spanned by the
    Kronecker product of the two bases.  When both bases are read off RREF
    kernels (as `solve_constrained_subspace` gives them), so is this one:
    it equals the joint kernel of A (x) id and id (x) B found by elimination."""
    basis = tensor_map(x.basis, y.basis)
    return _with_supports(relabel(basis, VectorSpace.make(basis.source.dim, prefix)))


def solve_constrained_subspace(
    space: VectorSpace, constraints: Sequence[LinearMap], prefix: str = "k"
) -> Subspace:
    """Joint kernel of a family of operators defined on one space, as its RREF
    kernel basis.  When every row of every operator holds at most one
    nonzero, it is the coordinate subspace of the columns none of them
    touches, read off before any elimination starts; otherwise the stacked
    operators are eliminated."""
    if any(c.source.dim != space.dim for c in constraints):
        raise LinAlgError("constraint source does not match the common space")
    free = _coordinate_kernel(constraints, space.dim)
    if free is None:
        return subspace_from_kernel(stack_vertical(constraints), prefix)
    sub = VectorSpace.make(len(free), prefix)
    return Subspace(space, sub, LinearMap(sub, space, tuple({j: 1} for j in free), 1),
                    tuple(free))


def _coordinate_kernel(constraints: Sequence[LinearMap], dim: int) -> list[int] | None:
    """The columns out of range(dim) that no constraint touches, when every
    row of every constraint holds at most one nonzero; None as soon as one
    row holds two.  A row a e_c vanishes on x exactly when x_c = 0, so the
    joint kernel is then spanned by the unit vectors at these columns, which
    are its free columns in the RREF."""
    touched = set()
    for c in constraints:
        rows = set()
        for j, col in enumerate(c._cols):
            if col:
                if not rows.isdisjoint(col):
                    return None
                rows.update(col)
                touched.add(j)
    return [j for j in range(dim) if j not in touched]


def fixed_subspace(op: LinearMap, prefix: str = "k") -> Subspace:
    """The fixed vectors of a square map, ker(1 - op) as its RREF kernel
    basis: read off the cycles of a map with one nonzero per column on
    distinct rows (`_cycle_vectors`), and eliminated for any other map."""
    if op.source.dim != op.target.dim:
        raise LinAlgError("only a square map has fixed vectors")
    vecs = _cycle_vectors(op)
    if vecs is None:
        return subspace_from_kernel(LinearMap.identity(op.source) - op, prefix)
    return _subspace(op.source, vecs, prefix)


def _cycle_vectors(op: LinearMap) -> list[dict[int, Fraction]] | None:
    """The fixed vectors of a square map with one nonzero per column, on
    distinct rows (checked on the nonzeros), in the order of their free
    columns; None, before any cycle is walked, for any other map.

    Such a map sends e_j to c_j e_p(j) for a permutation p, so a fixed vector
    is determined on each cycle of p by its value at one index: a cycle whose
    coefficients multiply to 1 gives one fixed vector, and any other cycle
    none.  The vector is 1 at the cycle's largest index, the free column of
    the cycle in the RREF of 1 - op, so these are the kernel vectors
    elimination finds.
    """
    n = op.source.dim
    image = []
    for col in op._cols:
        if len(col) != 1:
            return None
        image.extend(col.items())
    if len({i for i, _ in image}) != n:
        return None
    vecs = {}
    done = [False] * n
    for start in range(n):
        cycle, j = [], start
        while not done[j]:
            done[j] = True
            cycle.append(j)
            j = image[j][0]
        if not cycle or math.prod(image[k][1] for k in cycle) != op._den ** len(cycle):
            continue
        top = j = max(cycle)
        vec = {top: Fraction(1)}
        for _ in cycle[1:]:
            i, v = image[j]
            vec[i] = vec[j] * Fraction(v, op._den)
            j = i
        vecs[top] = vec
    return [vecs[f] for f in sorted(vecs)]


@valueclass
class Quotient:
    """ambient / im(relation), with deterministic representative section."""

    ambient: VectorSpace
    space: VectorSpace
    projection: LinearMap
    section: LinearMap


def cokernel(f: LinearMap) -> Quotient:
    """Quotient of f.target by im(f).

    The quotient basis is the complement of the image's pivot coordinates,
    ascending; representatives are those basis vectors themselves.
    """
    W = f.target
    # the columns of f are the rows of its transpose; row k of the projection
    # is their kernel vector at the k-th free column
    vecs = _kernel_vectors(f._cols, W.dim)
    free = tuple(vecs)
    q_space = VectorSpace._derived(len(free), lambda: (f"[{W.labels[j]}]" for j in free))
    projection = _from_columns(W, q_space, _transposed(vecs.values(), W.dim))
    section = LinearMap(q_space, W, tuple({j: 1} for j in vecs), 1)
    return Quotient(W, q_space, projection, section)


# -- block assembly --------------------------------------------------


def stack_vertical(maps: Sequence[LinearMap]) -> LinearMap:
    """Stack maps with a common source into one map to the direct sum."""
    if not maps:
        raise LinAlgError("nothing to stack")
    src = maps[0].source
    if any(m.source.dim != src.dim for m in maps):
        raise LinAlgError("stacked maps must share their source")
    return from_blocks([src], [m.target for m in maps], {(k, 0): m for k, m in enumerate(maps)},
                       src, VectorSpace.make(sum(m.target.dim for m in maps), "s"))


def direct_sum_space(spaces: Sequence[VectorSpace]) -> VectorSpace:
    spaces = tuple(spaces)
    return VectorSpace._derived(sum(s.dim for s in spaces), lambda: (
        f"c{k}:{l}" for k, s in enumerate(spaces) for l in s.labels))


def from_blocks(
    sources: Sequence[VectorSpace],
    targets: Sequence[VectorSpace],
    blocks: dict[tuple[int, int], LinearMap],
    source_space: VectorSpace | None = None,
    target_space: VectorSpace | None = None,
) -> LinearMap:
    """Assemble a map between direct sums from sparse blocks (ti, sj) -> map."""
    src = source_space or direct_sum_space(sources)
    tgt = target_space or direct_sum_space(targets)
    s_off = list(itertools.accumulate((s.dim for s in sources), initial=0))
    t_off = list(itertools.accumulate((t.dim for t in targets), initial=0))
    den = math.lcm(*(m._den for m in blocks.values()))
    cols = [{} for _ in range(src.dim)]
    for (ti, sj), m in blocks.items():
        if m.shape != (targets[ti].dim, sources[sj].dim):
            raise LinAlgError("block shape mismatch")
        scale, s0, t0 = den // m._den, s_off[sj], t_off[ti]
        for j, mc in enumerate(m._cols):
            col = cols[s0 + j]
            for i, v in mc.items():
                col[t0 + i] = v * scale
    return _canonical(src, tgt, cols, den)


# -- map-space (Hom) coordinates ------------------------------------
#
# Hom(X, Y) is coordinatized by flat index i*dim(Y) + u for the map sending
# x_i to y_u; this matches vec-by-columns of the (dim Y x dim X) matrix, so
# pre/post composition are Kronecker products.


def hom_space(x: VectorSpace, y: VectorSpace) -> VectorSpace:
    if y.dim == 1:
        return dual_space(x)
    return VectorSpace._derived(x.dim * y.dim,
                                lambda: (f"{lx}↦{ly}" for lx in x.labels for ly in y.labels))


def hom_precompose(p: LinearMap, y: VectorSpace) -> LinearMap:
    """Hom(X, Y) -> Hom(X', Y), phi -> phi o p, for p: X' -> X."""
    m = tensor_map(p.transpose(), LinearMap.identity(y))
    return relabel(m, hom_space(p.target, y), hom_space(p.source, y))


def hom_postcompose(x: VectorSpace, q: LinearMap) -> LinearMap:
    """Hom(X, Y) -> Hom(X, Y'), phi -> q o phi, for q: Y -> Y'."""
    m = tensor_map(LinearMap.identity(x), q)
    return relabel(m, hom_space(x, q.source), hom_space(x, q.target))


def map_to_hom_vector(m: LinearMap) -> list[Fraction]:
    """Coordinates of a concrete map inside hom_space(source, target)."""
    t = m.target.dim
    return _dense({j * t + i: Fraction(v, m._den)
                   for j, col in enumerate(m._cols) for i, v in col.items()},
                  m.source.dim * t)


def hom_vector_to_map(vec: Sequence, x: VectorSpace, y: VectorSpace) -> LinearMap:
    if len(vec) != x.dim * y.dim:
        raise LinAlgError(f"Hom vector has length {len(vec)}, expected {x.dim * y.dim}")
    cols = [{u: f for u in range(y.dim) if (f := Fraction(vec[i * y.dim + u]))}
            for i in range(x.dim)]
    return _from_columns(x, y, cols)


def relabel(m: LinearMap, source: VectorSpace | None = None,
            target: VectorSpace | None = None) -> LinearMap:
    """The same matrix viewed between differently labelled spaces of equal dims."""
    src = m.source if source is None else source
    tgt = m.target if target is None else target
    if src.dim != m.source.dim or tgt.dim != m.target.dim:
        raise LinAlgError(
            f"relabel dimension mismatch: map is {m.target.dim}x{m.source.dim}, "
            f"requested {tgt.dim}x{src.dim}"
        )
    return LinearMap(src, tgt, m._cols, m._den)
