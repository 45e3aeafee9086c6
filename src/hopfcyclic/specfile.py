"""JSON descriptions of algebraic structures by sparse structure constants.

A spec file is a single JSON document with named objects grouped in sections.
Every linear map is a list of sparse triples ``[row, column, value]`` where a
row or column is a basis label, a list of labels for a tensor-product space
(the empty list means the scalar line), and the value is an integer or an
exact rational written as ``"p/q"``.  Decimal literals are rejected.  Vectors
(units, counits applied backwards, cochain coordinates) are dense lists of
rationals in basis order.

Sections: ``hopf_algebras`` (explicit or one of the reserved builtin names),
``algebras``, ``coalgebras``, ``comodule_algebras``, ``modules``,
``contramodules``, ``pairs``, ``coalgebra_actions``, ``constructions``,
``cochains`` and ``cup``.  Structure carriers can be copied from a declared
Hopf algebra with ``"carrier"``, and common actions and coactions are
available as keywords instead of triples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

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

CONSTRUCTION_TYPES = ("plain", "coalgebra", "algebra_module",
                      "comodule_algebra", "algebra_contra")


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
    labels = fields.get("basis")
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

Checkable = Union[HopfAlgebra, Algebra, ModuleAlgebra, ModuleCoalgebra,
                  ComoduleAlgebra, SaydModule, SaydContramodule,
                  CompatiblePair, CoalgebraAction]


@dataclass
class SpecFile:
    hopf_algebras: dict[str, HopfAlgebra] = field(default_factory=dict)
    algebras: dict[str, Union[Algebra, ModuleAlgebra]] = field(default_factory=dict)
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
        if name not in self.constructions:
            raise SpecError(f"constructions.{name}", "no such construction")
        fields = self.constructions[name]
        where = f"constructions.{name}"
        if not exact:
            degree_cap = fields.get("degree_cap", degree_cap)
        kind = fields["type"]
        if kind == "plain":
            algebra = self._plain_algebra(fields["algebra"], where)
            return plain_algebra_cocyclic(algebra, degree_cap=degree_cap)
        if kind == "coalgebra":
            return coalgebra_cocyclic(
                self._ref(self.coalgebras, fields["coalgebra"], where),
                self._ref(self.modules, fields["module"], where),
                degree_cap).module
        if kind == "algebra_module":
            return algebra_module_cocyclic(
                self._module_algebra(fields["algebra"], where),
                self._ref(self.modules, fields["module"], where),
                degree_cap).module
        if kind == "comodule_algebra":
            return comodule_algebra_cocyclic(
                self._ref(self.comodule_algebras, fields["comodule_algebra"], where),
                self._ref(self.modules, fields["module"], where),
                degree_cap).module
        if kind == "algebra_contra":
            return algebra_contra_cocyclic(
                self._module_algebra(fields["algebra"], where),
                self._ref(self.contramodules, fields["contramodule"], where),
                degree_cap).module
        raise SpecError(where, f"unknown construction type {kind!r}")

    def cup_coefficients(self, fields: dict, where: str):
        ref = fields.get("coefficients")
        if isinstance(ref, str):
            return self._ref(self.pairs, ref, where)
        if isinstance(ref, list) and len(ref) == 2:
            return (self._ref(self.modules, ref[0], where),
                    self._ref(self.contramodules, ref[1], where))
        raise SpecError(where, "'coefficients' must name a pair or be a "
                               "[module, contramodule] list")

    def build_cup_setup(self, family: str, degree_cap: int):
        from .cup import aa_cup_setup, ac_cup_setup
        if family not in self.cup:
            raise SpecError(f"cup.{family}", "the spec declares no such cup family")
        fields = self.cup[family]
        where = f"cup.{family}"
        cap = fields.get("degree_cap", degree_cap)
        coefficients = self.cup_coefficients(fields, where)
        if family == "ac":
            return ac_cup_setup(
                self._module_algebra(fields["algebra"], where),
                self._ref(self.coalgebras, fields["coalgebra"], where),
                self._ref(self.coalgebra_actions, fields["action"], where),
                coefficients, degree_cap=cap)
        return aa_cup_setup(
            self._module_algebra(fields["algebra"], where),
            self._ref(self.comodule_algebras, fields["comodule_algebra"], where),
            coefficients, degree_cap=cap)

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


# --------------------------------------------------------------------------
# section parsers


def _parse_hopf(name: str, value, out: SpecFile) -> HopfAlgebra:
    where = f"hopf_algebras.{name}"
    if isinstance(value, str):
        if value not in BUILTIN_HOPF:
            raise SpecError(where, f"unknown builtin Hopf algebra {value!r}; "
                                   f"known: {', '.join(sorted(BUILTIN_HOPF))}")
        return BUILTIN_HOPF[value]()
    fields = _require_dict(value, where)
    space = _basis(fields, where)
    def need(key):
        if key not in fields:
            raise SpecError(where, f"missing field {key!r}")
        return fields[key]
    mul = _linear_map(need("mul"), [space], [space, space], f"{where}.mul")
    unit = _vector_map(need("unit"), space, f"{where}.unit")
    comul = _linear_map(need("comul"), [space, space], [space], f"{where}.comul")
    counit = _linear_map(need("counit"), [], [space], f"{where}.counit")
    antipode = _linear_map(need("antipode"), [space], [space], f"{where}.antipode")
    try:
        antipode_inv = antipode.inverse()
    except LinAlgError as exc:
        raise SpecError(f"{where}.antipode", "the antipode is not invertible") from exc
    return HopfAlgebra(space, mul, unit, comul, counit, antipode, antipode_inv)


def _carrier_space(fields: dict, out: SpecFile, where: str) -> VectorSpace:
    if "carrier" in fields:
        return SpecFile._ref(out.hopf_algebras, fields["carrier"], where).space
    return _basis(fields, where)


def _algebra_structure(fields: dict, space: VectorSpace, out: SpecFile,
                       where: str) -> tuple[LinearMap, LinearMap]:
    if "carrier" in fields:
        h = SpecFile._ref(out.hopf_algebras, fields["carrier"], where)
        return h.mul, h.unit
    if "mul" not in fields or "unit" not in fields:
        raise SpecError(where, "an explicit algebra needs 'mul' and 'unit'")
    return (_linear_map(fields["mul"], [space], [space, space], f"{where}.mul"),
            _vector_map(fields["unit"], space, f"{where}.unit"))


def _coalgebra_structure(fields: dict, space: VectorSpace, out: SpecFile,
                         where: str) -> tuple[LinearMap, LinearMap]:
    if "carrier" in fields:
        h = SpecFile._ref(out.hopf_algebras, fields["carrier"], where)
        return h.comul, h.counit
    if "comul" not in fields or "counit" not in fields:
        raise SpecError(where, "an explicit coalgebra needs 'comul' and 'counit'")
    return (_linear_map(fields["comul"], [space, space], [space], f"{where}.comul"),
            _linear_map(fields["counit"], [], [space], f"{where}.counit"))


def _hopf_of(fields: dict, out: SpecFile, where: str) -> HopfAlgebra:
    if "hopf" not in fields:
        raise SpecError(where, "missing field 'hopf'")
    return SpecFile._ref(out.hopf_algebras, fields["hopf"], where)


def _left_action(value, h: HopfAlgebra, space: VectorSpace, where: str) -> LinearMap:
    """An action H (x) V -> V given as triples or a keyword."""
    if value == "trivial":
        return trivial_action(h, space)
    if value == "left-regular":
        if space.dim != h.dim:
            raise SpecError(where, "the left-regular action needs the Hopf "
                                   "algebra itself as carrier")
        return left_regular_action(h)
    if value == "adjoint":
        if space.dim != h.dim:
            raise SpecError(where, "the adjoint action needs the Hopf algebra "
                                   "itself as carrier")
        return adjoint_action(h)
    if isinstance(value, str):
        raise SpecError(where, f"unknown action keyword {value!r}")
    return _linear_map(value, [space], [h.space, space], where)


def _right_action(value, h: HopfAlgebra, space: VectorSpace, where: str) -> LinearMap:
    """An action V (x) H -> V given as triples or the 'counit' keyword."""
    if value == "counit":
        return relabel(tensor_map(LinearMap.identity(space), h.counit),
                       tensor_space(space, h.space), space)
    if isinstance(value, str):
        raise SpecError(where, f"unknown action keyword {value!r}")
    return _linear_map(value, [space], [space, h.space], where)


def _coaction(value, h: HopfAlgebra, space: VectorSpace, where: str) -> LinearMap:
    """A coaction V -> H (x) V given as triples or a keyword."""
    if value == "trivial":
        return trivial_coaction(h, space)
    if value == "regular":
        if space.dim != h.dim:
            raise SpecError(where, "the regular coaction needs the Hopf "
                                   "algebra itself as carrier")
        return regular_coaction(h)
    if isinstance(value, str):
        raise SpecError(where, f"unknown coaction keyword {value!r}")
    return _linear_map(value, [h.space, space], [space], where)


def _parse_algebra(name: str, value, out: SpecFile):
    where = f"algebras.{name}"
    fields = _require_dict(value, where)
    space = _carrier_space(fields, out, where)
    mul, unit = _algebra_structure(fields, space, out, where)
    if "hopf" not in fields:
        return Algebra(space, mul, unit)
    h = _hopf_of(fields, out, where)
    if "action" not in fields:
        raise SpecError(where, "a module algebra needs an 'action'")
    action = _left_action(fields["action"], h, space, f"{where}.action")
    return ModuleAlgebra(h, space, mul, unit, action)


def _parse_coalgebra(name: str, value, out: SpecFile) -> ModuleCoalgebra:
    where = f"coalgebras.{name}"
    fields = _require_dict(value, where)
    space = _carrier_space(fields, out, where)
    comul, counit = _coalgebra_structure(fields, space, out, where)
    h = _hopf_of(fields, out, where)
    if "action" not in fields:
        raise SpecError(where, "a module coalgebra needs an 'action'")
    action = _left_action(fields["action"], h, space, f"{where}.action")
    return ModuleCoalgebra(h, space, comul, counit, action)


def _parse_comodule_algebra(name: str, value, out: SpecFile) -> ComoduleAlgebra:
    where = f"comodule_algebras.{name}"
    fields = _require_dict(value, where)
    space = _carrier_space(fields, out, where)
    mul, unit = _algebra_structure(fields, space, out, where)
    h = _hopf_of(fields, out, where)
    if "coaction" not in fields:
        raise SpecError(where, "a comodule algebra needs a 'coaction'")
    coaction = _coaction(fields["coaction"], h, space, f"{where}.coaction")
    return ComoduleAlgebra(h, space, mul, unit, coaction)


def _parse_module(name: str, value, out: SpecFile) -> SaydModule:
    where = f"modules.{name}"
    fields = _require_dict(value, where)
    h = _hopf_of(fields, out, where)
    space = _carrier_space(fields, out, where)
    if "action" not in fields or "coaction" not in fields:
        raise SpecError(where, "a coefficient module needs 'action' and 'coaction'")
    action = _right_action(fields["action"], h, space, f"{where}.action")
    raw = fields["coaction"]
    if raw == "comultiplication":
        if space.dim != h.dim:
            raise SpecError(f"{where}.coaction",
                            "the comultiplication coaction needs the Hopf "
                            "algebra itself as carrier")
        coaction = h.comul
    else:
        coaction = _coaction(raw, h, space, f"{where}.coaction")
    return SaydModule(h, space, action, coaction)


def _parse_contramodule(name: str, value, out: SpecFile) -> SaydContramodule:
    where = f"contramodules.{name}"
    fields = _require_dict(value, where)
    h = _hopf_of(fields, out, where)
    space = _carrier_space(fields, out, where)
    if "action" not in fields or "alpha" not in fields:
        raise SpecError(where, "a coefficient contramodule needs 'action' and 'alpha'")
    action = _left_action(fields["action"], h, space, f"{where}.action")
    alpha = relabel(
        _linear_map(fields["alpha"], [space], [h.space, space], f"{where}.alpha"),
        tensor_space(dual_space(h.space), space), space)
    return SaydContramodule(h, space, action, alpha)


def _parse_pair(name: str, value, out: SpecFile) -> CompatiblePair:
    where = f"pairs.{name}"
    fields = _require_dict(value, where)
    if "builtin" in fields:
        h = _hopf_of(fields, out, where)
        kind = fields["builtin"]
        if kind == "trivial":
            return trivial_coefficients(h)
        if kind == "grouplike":
            label = fields.get("sigma")
            if label not in h.space.labels:
                raise SpecError(f"{where}.sigma",
                                f"unknown basis label {label!r}")
            return grouplike_coefficients(h, h.space.labels.index(label))
        raise SpecError(where, f"unknown builtin pair {kind!r}")
    module = SpecFile._ref(out.modules, fields.get("module"), where)
    contramodule = SpecFile._ref(out.contramodules, fields.get("contramodule"), where)
    if "pairing" not in fields:
        raise SpecError(where, "an explicit pair needs a 'pairing'")
    pairing = _linear_map(fields["pairing"], [],
                          [module.space, contramodule.space], f"{where}.pairing")
    return CompatiblePair(module, contramodule, pairing)


def _parse_coalgebra_action(name: str, value, out: SpecFile) -> CoalgebraAction:
    where = f"coalgebra_actions.{name}"
    fields = _require_dict(value, where)
    coalgebra = SpecFile._ref(out.coalgebras, fields.get("coalgebra"), where)
    algebra = out._module_algebra(fields.get("algebra"), where)
    if "map" not in fields:
        raise SpecError(where, "a coalgebra action needs a 'map'")
    act = _linear_map(fields["map"], [algebra.space],
                      [coalgebra.space, algebra.space], f"{where}.map")
    return CoalgebraAction(coalgebra, algebra, act)


def _parse_construction(name: str, value, out: SpecFile) -> dict:
    where = f"constructions.{name}"
    fields = _require_dict(value, where)
    kind = fields.get("type")
    if kind not in CONSTRUCTION_TYPES:
        raise SpecError(where, f"unknown construction type {kind!r}; known: "
                               f"{', '.join(CONSTRUCTION_TYPES)}")
    _require_integer(fields.get("degree_cap", DEFAULT_DEGREE_CAP), 1, where,
                   "'degree_cap' must be a positive integer")
    try:
        out.constructions[name] = fields
        out.build_construction(name, 1, exact=True)
    except KeyError as exc:
        raise SpecError(where, f"missing field {exc.args[0]!r}") from exc
    except LinAlgError as exc:
        raise SpecError(where, str(exc)) from exc
    finally:
        out.constructions.pop(name, None)
    return fields


def _parse_cochain(name: str, value, out: SpecFile) -> dict:
    where = f"cochains.{name}"
    fields = _require_dict(value, where)
    degree = _require_integer(fields.get("degree"), 0, where,
                            "'degree' must be a nonnegative integer")
    return {"degree": degree,
            "coords": _coords(fields.get("coords"), f"{where}.coords")}


def _parse_cup(family: str, value, out: SpecFile) -> dict:
    where = f"cup.{family}"
    if family not in ("ac", "aa"):
        raise SpecError(where, "cup families are 'ac' and 'aa'")
    fields = _require_dict(value, where)
    out.cup_coefficients(fields, where)
    if family == "ac":
        out._module_algebra(fields.get("algebra"), where)
        SpecFile._ref(out.coalgebras, fields.get("coalgebra"), where)
        SpecFile._ref(out.coalgebra_actions, fields.get("action"), where)
    else:
        out._module_algebra(fields.get("algebra"), where)
        SpecFile._ref(out.comodule_algebras, fields.get("comodule_algebra"), where)
    _require_integer(fields.get("degree_cap", DEFAULT_DEGREE_CAP), 1, where,
                   "'degree_cap' must be a positive integer")
    return fields


_SECTIONS = _OBJECT_SECTIONS + ("constructions", "cochains", "cup")


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
    for name, value in _require_dict(data.get("hopf_algebras", {}),
                                     "hopf_algebras").items():
        out.hopf_algebras[name] = _parse_hopf(name, value, out)
    for name, value in _require_dict(data.get("algebras", {}), "algebras").items():
        out.algebras[name] = _parse_algebra(name, value, out)
    for name, value in _require_dict(data.get("coalgebras", {}), "coalgebras").items():
        out.coalgebras[name] = _parse_coalgebra(name, value, out)
    for name, value in _require_dict(data.get("comodule_algebras", {}),
                                     "comodule_algebras").items():
        out.comodule_algebras[name] = _parse_comodule_algebra(name, value, out)
    for name, value in _require_dict(data.get("modules", {}), "modules").items():
        out.modules[name] = _parse_module(name, value, out)
    for name, value in _require_dict(data.get("contramodules", {}),
                                     "contramodules").items():
        out.contramodules[name] = _parse_contramodule(name, value, out)
    for name, value in _require_dict(data.get("pairs", {}), "pairs").items():
        out.pairs[name] = _parse_pair(name, value, out)
    for name, value in _require_dict(data.get("coalgebra_actions", {}),
                                     "coalgebra_actions").items():
        out.coalgebra_actions[name] = _parse_coalgebra_action(name, value, out)
    for name, value in _require_dict(data.get("constructions", {}),
                                     "constructions").items():
        out.constructions[name] = _parse_construction(name, value, out)
    for name, value in _require_dict(data.get("cochains", {}), "cochains").items():
        out.cochains[name] = _parse_cochain(name, value, out)
    for family, value in _require_dict(data.get("cup", {}), "cup").items():
        out.cup[family] = _parse_cup(family, value, out)
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
