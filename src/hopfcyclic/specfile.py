"""JSON descriptions of algebraic structures by sparse structure constants.

A spec file is a single JSON document with named objects grouped in sections.
Every linear map is a list of sparse triples ``[row, column, value]`` where a
row or column is a basis label, a list of labels for a tensor-product space
(the empty list means the scalar line), and the value is an integer or an
exact rational written as ``"p/q"``.  Decimal literals are rejected.  Vectors
(units, counits applied backwards, cochain coordinates) are dense lists of
rationals in basis order.

Structure carriers can be copied from a declared Hopf algebra with
``"carrier"``, and common actions and coactions are available as keywords
instead of triples.  Each decision of the format is stated once, in a table
that parsing and building both read, so a new section, construction type,
cup family or keyword is one more row:

- ``_PARSERS``: each section with its parser, in dependency order.
- ``_CONSTRUCTIONS`` and ``_CUP_FAMILIES``: each construction type or cup
  family with its builder and the (field, resolver) pairs of its arguments.
  Parsing resolves them, and builds a construction at cap 1; ``SpecFile``
  builds from the same rows.
- ``_LEFT_ACTIONS``, ``_RIGHT_ACTIONS``, ``_COACTIONS``,
  ``_MODULE_COACTIONS`` and ``_PAIRS``: the keywords accepted in place of
  triples, and the builtin compatible pairs.
- ``_STRUCTURE_MAPS``: the reader of each (co)algebra and Hopf structure
  map written out in a spec; a carrier copies the same maps by name.

Every required field is read through ``_field``, so a missing one is
refused as ``missing field '<key>'``; an undeclared name is refused by
``SpecFile._ref``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cocyclic import (
    DEFAULT_DEGREE_CAP,
    CocyclicModule,
    algebra_contra_cocyclic,
    algebra_module_cocyclic,
    coalgebra_cocyclic,
    comodule_algebra_cocyclic,
    plain_algebra_cocyclic,
)
from .coefficients import (
    CompatiblePair,
    SaydContramodule,
    SaydModule,
    grouplike_coefficients,
    trivial_coefficients,
)
from .hopf import (
    Algebra,
    CoalgebraAction,
    ComoduleAlgebra,
    HopfAlgebra,
    ModuleAlgebra,
    ModuleCoalgebra,
    adjoint_action,
    cyclic_group_table,
    group_algebra,
    left_regular_action,
    regular_coaction,
    sweedler_h4,
    symmetric_group_table,
    trivial_action,
    trivial_coaction,
    trivial_hopf,
)
from .linalg import (
    LinAlgError,
    LinearMap,
    VectorSpace,
    dual_space,
    relabel,
    tensor_map,
    tensor_space,
    tensor_spaces,
)
from .valueclass import field, valueclass


class SpecError(ValueError):
    """A malformed or inconsistent spec file; the message carries the
    position of the offending field."""

    def __init__(self, where: str, message: str):
        self.where = where
        super().__init__(f"{where}: {message}")


BUILTIN_HOPF = {
    "trivial": trivial_hopf,
    "group:Z2": lambda: group_algebra(cyclic_group_table(2), labels=["1", "g"]),
    "group:S3": lambda: group_algebra(symmetric_group_table(3)),
    "sweedler4": sweedler_h4,
}


# --------------------------------------------------------------------------
# scalars, labels, maps


def _rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise SpecError(where, f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise SpecError(where, f"decimal literals are not accepted: {value!r}")
    if isinstance(value, str):
        if "." in value or "e" in value.lower():
            raise SpecError(where, f"decimal literals are not accepted: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(where, f"not an exact rational: {value!r}") from exc
    raise SpecError(where, f"not an exact rational: {value!r}")


def _require_integer(value, least: int, where: str, message: str) -> int:
    """An integer of at least `least`; JSON booleans are not integers."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise SpecError(where, message)
    return value


def _require_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(where, "expected an object")
    return value


def _basis(fields: dict, where: str) -> VectorSpace:
    labels = _field(fields, "basis", where)
    if not isinstance(labels, list) or not labels or \
            not all(isinstance(x, str) for x in labels):
        raise SpecError(where, "'basis' must be a non-empty list of labels")
    if len(set(labels)) != len(labels):
        raise SpecError(where, "basis labels must be unique")
    return VectorSpace(len(labels), tuple(labels))


def _slot_index(spec, factors: list[VectorSpace], where: str) -> int:
    if isinstance(spec, str):
        spec = [spec]
    if not isinstance(spec, list):
        raise SpecError(where, f"expected a label or list of labels, got {spec!r}")
    if len(spec) != len(factors):
        raise SpecError(
            where, f"expected {len(factors)} tensor factor label(s), got {len(spec)}")
    index = 0
    for label, space in zip(spec, factors):
        if label not in space.labels:
            raise SpecError(where, f"unknown basis label {label!r}")
        index = index * space.dim + space.labels.index(label)
    return index


def _linear_map(triples, target_factors: list[VectorSpace],
                source_factors: list[VectorSpace], where: str) -> LinearMap:
    if not isinstance(triples, list):
        raise SpecError(where, "expected a list of [row, column, value] triples")
    source = tensor_spaces(source_factors)
    target = tensor_spaces(target_factors)
    entries = []
    for k, triple in enumerate(triples):
        spot = f"{where}[{k}]"
        if not isinstance(triple, list) or len(triple) != 3:
            raise SpecError(spot, "expected a [row, column, value] triple")
        row, col, value = triple
        entries.append((_slot_index(row, target_factors, spot),
                        _slot_index(col, source_factors, spot),
                        _rational(value, spot)))
    return LinearMap.from_entries(source, target, entries)


def _vector_map(values, space: VectorSpace, where: str) -> LinearMap:
    """A dense vector, wrapped as the map from the scalar line."""
    if not isinstance(values, list) or len(values) != space.dim:
        raise SpecError(where, f"expected a dense list of {space.dim} rationals")
    entries = [(i, 0, _rational(v, f"{where}[{i}]")) for i, v in enumerate(values)]
    return LinearMap.from_entries(VectorSpace.ground(), space, entries)


def _coords(values, where: str) -> tuple[Fraction, ...]:
    if not isinstance(values, list):
        raise SpecError(where, "expected a dense list of rationals")
    return tuple(_rational(v, f"{where}[{i}]") for i, v in enumerate(values))


# --------------------------------------------------------------------------
# the parsed spec


# The sections of checkable objects, in the order `hcc check` runs them.
_OBJECT_SECTIONS = ("hopf_algebras", "algebras", "coalgebras", "comodule_algebras",
                    "modules", "contramodules", "pairs", "coalgebra_actions")

Checkable = (HopfAlgebra | Algebra | ModuleAlgebra | ModuleCoalgebra
             | ComoduleAlgebra | SaydModule | SaydContramodule
             | CompatiblePair | CoalgebraAction)


@valueclass
class SpecFile:
    hopf_algebras: dict[str, HopfAlgebra] = field(default_factory=dict)
    algebras: dict[str, Algebra | ModuleAlgebra] = field(default_factory=dict)
    coalgebras: dict[str, ModuleCoalgebra] = field(default_factory=dict)
    comodule_algebras: dict[str, ComoduleAlgebra] = field(default_factory=dict)
    modules: dict[str, SaydModule] = field(default_factory=dict)
    contramodules: dict[str, SaydContramodule] = field(default_factory=dict)
    pairs: dict[str, CompatiblePair] = field(default_factory=dict)
    coalgebra_actions: dict[str, CoalgebraAction] = field(default_factory=dict)
    constructions: dict[str, dict] = field(default_factory=dict)
    cochains: dict[str, dict] = field(default_factory=dict)
    cup: dict[str, dict] = field(default_factory=dict)

    def objects(self) -> list[tuple[str, Checkable]]:
        """Every checkable object, in declaration order, as (name, object)."""
        return [(name, obj) for section in _OBJECT_SECTIONS
                for name, obj in getattr(self, section).items()]

    def checkable_names(self) -> list[str]:
        return ([name for name, _ in self.objects()]
                + list(self.constructions)
                + [f"cup:{family}" for family in self.cup])

    def build_construction(self, name: str, degree_cap: int,
                           exact: bool = False) -> CocyclicModule:
        """Build the named cocyclic module.  The spec's own ``degree_cap``
        field wins unless ``exact`` forces the requested cap."""
        where = f"constructions.{name}"
        if name not in self.constructions:
            raise SpecError(where, "no such construction")
        fields = self.constructions[name]
        if not exact:
            degree_cap = fields.get("degree_cap", degree_cap)
        return _construct(self, fields, where, degree_cap)

    def cup_coefficients(self, fields: dict, where: str):
        ref = _field(fields, "coefficients", where)
        if isinstance(ref, str):
            return self._ref(self.pairs, ref, where)
        if isinstance(ref, list) and len(ref) == 2:
            return (self._ref(self.modules, ref[0], where),
                    self._ref(self.contramodules, ref[1], where))
        raise SpecError(where, "'coefficients' must name a pair or be a "
                               "[module, contramodule] list")

    def build_cup_setup(self, family: str, degree_cap: int):
        from . import cup

        where = f"cup.{family}"
        if family not in self.cup:
            raise SpecError(where, "the spec declares no such cup family")
        fields = self.cup[family]
        cap = fields.get("degree_cap", degree_cap)
        coefficients = self.cup_coefficients(fields, where)
        setup, refs = _CUP_FAMILIES[family]
        return getattr(cup, setup)(*_resolved(self, refs, fields, where), coefficients,
                                   degree_cap=cap)

    # -- reference helpers -------------------------------------------------

    @staticmethod
    def _ref(section: dict, name, where: str):
        if not isinstance(name, str) or name not in section:
            raise SpecError(where, f"unresolved name {name!r}")
        return section[name]

    def _module_algebra(self, name, where: str) -> ModuleAlgebra:
        obj = self._ref(self.algebras, name, where)
        if not isinstance(obj, ModuleAlgebra):
            raise SpecError(where, f"algebra {name!r} carries no Hopf action")
        return obj

    def _plain_algebra(self, name, where: str) -> Algebra:
        if isinstance(name, str) and name in self.hopf_algebras:
            return self.hopf_algebras[name].algebra
        obj = self._ref(self.algebras, name, where)
        return obj.algebra if isinstance(obj, ModuleAlgebra) else obj


def _named(section: str):
    """The resolver of a name declared in `section`."""
    return lambda spec, name, where: SpecFile._ref(getattr(spec, section), name, where)


def _field(fields: dict, key: str, where: str):
    if key not in fields:
        raise SpecError(where, f"missing field {key!r}")
    return fields[key]


def _resolved(spec: SpecFile, refs, fields: dict, where: str) -> list:
    """The objects named by the (field, resolver) pairs `refs`, in order; a
    resolver takes the spec, the name and the position."""
    return [resolve(spec, _field(fields, key, where), where) for key, resolve in refs]


# construction type -> (builder, the (field, resolver) pairs of its arguments)
_CONSTRUCTIONS = {
    "plain": (plain_algebra_cocyclic, (("algebra", SpecFile._plain_algebra),)),
    "coalgebra": (coalgebra_cocyclic, (("coalgebra", _named("coalgebras")),
                                       ("module", _named("modules")))),
    "algebra_module": (algebra_module_cocyclic, (("algebra", SpecFile._module_algebra),
                                                 ("module", _named("modules")))),
    "comodule_algebra": (comodule_algebra_cocyclic,
                         (("comodule_algebra", _named("comodule_algebras")),
                          ("module", _named("modules")))),
    "algebra_contra": (algebra_contra_cocyclic, (("algebra", SpecFile._module_algebra),
                                                 ("contramodule", _named("contramodules")))),
}
CONSTRUCTION_TYPES = tuple(_CONSTRUCTIONS)

# cup family -> (setup function in `cup`, the pairs of its arguments before the
# coefficients); `cup` is imported only when a setup is built
_CUP_FAMILIES = {
    "ac": ("ac_cup_setup", (("algebra", SpecFile._module_algebra),
                            ("coalgebra", _named("coalgebras")),
                            ("action", _named("coalgebra_actions")))),
    "aa": ("aa_cup_setup", (("algebra", SpecFile._module_algebra),
                            ("comodule_algebra", _named("comodule_algebras")))),
}


def _construct(spec: SpecFile, fields: dict, where: str, degree_cap: int) -> CocyclicModule:
    build, refs = _CONSTRUCTIONS[fields["type"]]
    tower = build(*_resolved(spec, refs, fields, where), degree_cap=degree_cap)
    return tower if isinstance(tower, CocyclicModule) else tower.module


# --------------------------------------------------------------------------
# keywords in place of triples


# keyword -> (builder, whether the map needs the Hopf algebra itself as
# carrier); such a builder takes H alone, the others H and the carrier space
_LEFT_ACTIONS = {"trivial": (trivial_action, False),
                 "left-regular": (left_regular_action, True),
                 "adjoint": (adjoint_action, True)}
_RIGHT_ACTIONS = {"counit": (lambda h, v: relabel(  # v (x) t -> counit(t) v
    tensor_map(LinearMap.identity(v), h.counit), target=v), False)}
_COACTIONS = {"trivial": (trivial_coaction, False), "regular": (regular_coaction, True)}
_MODULE_COACTIONS = {**_COACTIONS, "comultiplication": (lambda h: h.comul, True)}


def _keyword_map(fields: dict, key: str, keywords: dict, h: HopfAlgebra, space: VectorSpace,
                 where: str, target: list, source: list) -> LinearMap:
    """The structure map `key` on `space` over `h`: one of the `keywords`, or
    triples between the tensor factors `source` and `target`."""
    value = _field(fields, key, where)
    where = f"{where}.{key}"
    if not isinstance(value, str):
        return _linear_map(value, target, source, where)
    if value not in keywords:
        raise SpecError(where, f"unknown {key} keyword {value!r}")
    build, on_carrier = keywords[value]
    if not on_carrier:
        return build(h, space)
    if space != h.space:
        raise SpecError(where, f"the {value} {key} needs the Hopf algebra itself as carrier")
    return build(h)


def _grouplike_pair(h: HopfAlgebra, fields: dict, where: str) -> CompatiblePair:
    label = _field(fields, "sigma", where)
    if label not in h.space.labels:
        raise SpecError(f"{where}.sigma", f"unknown basis label {label!r}")
    return grouplike_coefficients(h, h.space.labels.index(label))


# builtin pair -> its builder from the Hopf algebra and the pair's fields
_PAIRS = {"trivial": lambda h, fields, where: trivial_coefficients(h),
          "grouplike": _grouplike_pair}


# --------------------------------------------------------------------------
# section parsers


# structure field -> the reader of its value on a carrier space; a Hopf
# algebra holds each of these maps under the field's name
_STRUCTURE_MAPS = {
    "mul": lambda value, v, where: _linear_map(value, [v], [v, v], where),
    "unit": _vector_map,
    "comul": lambda value, v, where: _linear_map(value, [v, v], [v], where),
    "counit": lambda value, v, where: _linear_map(value, [], [v], where),
    "antipode": lambda value, v, where: _linear_map(value, [v], [v], where),
}


def _structure(fields: dict, space: VectorSpace, where: str, keys) -> list[LinearMap]:
    """The structure maps named by `keys`, read from the fields."""
    return [_STRUCTURE_MAPS[key](_field(fields, key, where), space, f"{where}.{key}")
            for key in keys]


def _parse_hopf(name: str, value, out: SpecFile, where: str) -> HopfAlgebra:
    if isinstance(value, str):
        if value not in BUILTIN_HOPF:
            raise SpecError(where, f"unknown builtin Hopf algebra {value!r}; "
                                   f"known: {', '.join(sorted(BUILTIN_HOPF))}")
        return BUILTIN_HOPF[value]()
    fields = _require_dict(value, where)
    space = _basis(fields, where)
    mul, unit, comul, counit, antipode = _structure(fields, space, where, _STRUCTURE_MAPS)
    try:
        antipode_inv = antipode.inverse()
    except LinAlgError as exc:
        raise SpecError(f"{where}.antipode", "the antipode is not invertible") from exc
    return HopfAlgebra(space, mul, unit, comul, counit, antipode, antipode_inv)


def _carrier(fields: dict, out: SpecFile, where: str,
             keys=()) -> tuple[VectorSpace, list[LinearMap]]:
    """A carrier space with the structure maps named by `keys`: those of the
    Hopf algebra named as "carrier", or a basis with maps read from the fields."""
    if "carrier" in fields:
        h = SpecFile._ref(out.hopf_algebras, fields["carrier"], where)
        return h.space, [getattr(h, key) for key in keys]
    space = _basis(fields, where)
    return space, _structure(fields, space, where, keys)


def _hopf_of(fields: dict, out: SpecFile, where: str) -> HopfAlgebra:
    return SpecFile._ref(out.hopf_algebras, _field(fields, "hopf", where), where)


def _triples(fields: dict, key: str, target: list, source: list, where: str) -> LinearMap:
    """The map in field `key`, as triples between the tensor factors."""
    return _linear_map(_field(fields, key, where), target, source, f"{where}.{key}")


def _parse_algebra(name: str, value, out: SpecFile, where: str):
    fields = _require_dict(value, where)
    space, (mul, unit) = _carrier(fields, out, where, ("mul", "unit"))
    if "hopf" not in fields:
        return Algebra(space, mul, unit)
    h = _hopf_of(fields, out, where)
    action = _keyword_map(fields, "action", _LEFT_ACTIONS, h, space, where,
                          [space], [h.space, space])
    return ModuleAlgebra(h, space, mul, unit, action)


def _parse_coalgebra(name: str, value, out: SpecFile, where: str) -> ModuleCoalgebra:
    fields = _require_dict(value, where)
    space, (comul, counit) = _carrier(fields, out, where, ("comul", "counit"))
    h = _hopf_of(fields, out, where)
    action = _keyword_map(fields, "action", _LEFT_ACTIONS, h, space, where,
                          [space], [h.space, space])
    return ModuleCoalgebra(h, space, comul, counit, action)


def _parse_comodule_algebra(name: str, value, out: SpecFile, where: str) -> ComoduleAlgebra:
    fields = _require_dict(value, where)
    space, (mul, unit) = _carrier(fields, out, where, ("mul", "unit"))
    h = _hopf_of(fields, out, where)
    coaction = _keyword_map(fields, "coaction", _COACTIONS, h, space, where,
                            [h.space, space], [space])
    return ComoduleAlgebra(h, space, mul, unit, coaction)


def _parse_module(name: str, value, out: SpecFile, where: str) -> SaydModule:
    fields = _require_dict(value, where)
    h = _hopf_of(fields, out, where)
    space = _carrier(fields, out, where)[0]
    action = _keyword_map(fields, "action", _RIGHT_ACTIONS, h, space, where,
                          [space], [space, h.space])
    coaction = _keyword_map(fields, "coaction", _MODULE_COACTIONS, h, space, where,
                            [h.space, space], [space])
    return SaydModule(h, space, action, coaction)


def _parse_contramodule(name: str, value, out: SpecFile, where: str) -> SaydContramodule:
    fields = _require_dict(value, where)
    h = _hopf_of(fields, out, where)
    space = _carrier(fields, out, where)[0]
    action = _keyword_map(fields, "action", _LEFT_ACTIONS, h, space, where,
                          [space], [h.space, space])
    alpha = relabel(_triples(fields, "alpha", [space], [h.space, space], where),
                    tensor_space(dual_space(h.space), space), space)
    return SaydContramodule(h, space, action, alpha)


def _parse_pair(name: str, value, out: SpecFile, where: str) -> CompatiblePair:
    fields = _require_dict(value, where)
    if "builtin" in fields:
        h = _hopf_of(fields, out, where)
        kind = fields["builtin"]
        if not isinstance(kind, str) or kind not in _PAIRS:
            raise SpecError(where, f"unknown builtin pair {kind!r}")
        return _PAIRS[kind](h, fields, where)
    module, contramodule = _resolved(out, (("module", _named("modules")),
                                           ("contramodule", _named("contramodules"))),
                                     fields, where)
    pairing = _triples(fields, "pairing", [], [module.space, contramodule.space], where)
    return CompatiblePair(module, contramodule, pairing)


def _parse_coalgebra_action(name: str, value, out: SpecFile, where: str) -> CoalgebraAction:
    fields = _require_dict(value, where)
    coalgebra, algebra = _resolved(out, (("coalgebra", _named("coalgebras")),
                                         ("algebra", SpecFile._module_algebra)), fields, where)
    act = _triples(fields, "map", [algebra.space], [coalgebra.space, algebra.space], where)
    return CoalgebraAction(coalgebra, algebra, act)


def _parse_construction(name: str, value, out: SpecFile, where: str) -> dict:
    fields = _require_dict(value, where)
    kind = _field(fields, "type", where)
    if kind not in CONSTRUCTION_TYPES:
        raise SpecError(where, f"unknown construction type {kind!r}; known: "
                               f"{', '.join(CONSTRUCTION_TYPES)}")
    _require_integer(fields.get("degree_cap", DEFAULT_DEGREE_CAP), 1, where,
                   "'degree_cap' must be a positive integer")
    try:
        _construct(out, fields, where, 1)
    except LinAlgError as exc:
        raise SpecError(where, str(exc)) from exc
    return fields


def _parse_cochain(name: str, value, out: SpecFile, where: str) -> dict:
    fields = _require_dict(value, where)
    degree = _require_integer(_field(fields, "degree", where), 0, where,
                            "'degree' must be a nonnegative integer")
    return {"degree": degree,
            "coords": _coords(_field(fields, "coords", where), f"{where}.coords")}


def _parse_cup(name: str, value, out: SpecFile, where: str) -> dict:
    if name not in _CUP_FAMILIES:
        raise SpecError(where, "cup families are " + " and ".join(map(repr, _CUP_FAMILIES)))
    fields = _require_dict(value, where)
    out.cup_coefficients(fields, where)
    _resolved(out, _CUP_FAMILIES[name][1], fields, where)
    _require_integer(fields.get("degree_cap", DEFAULT_DEGREE_CAP), 1, where,
                   "'degree_cap' must be a positive integer")
    return fields


_PARSERS = (("hopf_algebras", _parse_hopf), ("algebras", _parse_algebra),
            ("coalgebras", _parse_coalgebra), ("comodule_algebras", _parse_comodule_algebra),
            ("modules", _parse_module), ("contramodules", _parse_contramodule),
            ("pairs", _parse_pair), ("coalgebra_actions", _parse_coalgebra_action),
            ("constructions", _parse_construction), ("cochains", _parse_cochain),
            ("cup", _parse_cup))
_SECTIONS = tuple(section for section, _ in _PARSERS)


def _require_unique_names(spec: SpecFile) -> None:
    """`hcc check` finds objects, constructions and cup families by name."""
    seen = {}
    for section in _OBJECT_SECTIONS + ("constructions", "cup"):
        for name in getattr(spec, section):
            key = f"cup:{name}" if section == "cup" else name
            if key in seen:
                raise SpecError(f"{section}.{name}",
                                f"the name {key!r} is already declared in {seen[key]}")
            seen[key] = section


def parse_spec_data(data: dict) -> SpecFile:
    if not isinstance(data, dict):
        raise SpecError("top level", "the spec must be a JSON object")
    for key in data:
        if key not in _SECTIONS:
            raise SpecError(key, f"unknown section; known sections: "
                                 f"{', '.join(_SECTIONS)}")
    out = SpecFile()
    for section, parse in _PARSERS:
        parsed = getattr(out, section)
        for name, value in _require_dict(data.get(section, {}), section).items():
            parsed[name] = parse(name, value, out, f"{section}.{name}")
    _require_unique_names(out)
    return out


def parse_spec(path: str) -> SpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError(path, f"cannot read the spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    try:
        return parse_spec_data(data)
    except LinAlgError as exc:
        raise SpecError(path, str(exc)) from exc
