"""The value classes: dataclass semantics from closures, with nothing compiled."""

import ast
import copy
import pickle
import types
from pathlib import Path

import pytest

from hopfcyclic import cocyclic, coefficients, cup, hopf, linalg, reporting, specfile
from hopfcyclic import valueclass as valueclass_module
from hopfcyclic.coefficients import trivial_coefficients
from hopfcyclic.cocyclic import (CocyclicModule, algebra_module_cocyclic, full_b,
                                 plain_algebra_cocyclic)
from hopfcyclic.cup import ConvolutionCupSetup, _CupSetup, phi_matrix
from hopfcyclic.hopf import (HopfAlgebra, ModuleAlgebra, adjoint_action, algebra_generators,
                             cyclic_group_table, group_algebra)
from hopfcyclic.linalg import LinAlgError, LinearMap, Subspace, VectorSpace
from hopfcyclic.reporting import Report, ReportEntry
from hopfcyclic.specfile import SpecFile, parse_spec
from hopfcyclic.valueclass import FrozenInstanceError, field, memoised, replace, valueclass

Z2CUP = str(Path(__file__).resolve().parent.parent / "demo" / "z2_cup.json")


@valueclass
class Point:
    x: int
    y: int = 0
    tags: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("negative x")


@valueclass
class LabelledPoint(Point):
    label: str = "p"


@valueclass
class Tally:
    name: str
    counts: list = field(default_factory=list)


def test_helper_module_generates_no_code():
    tree = ast.parse(Path(valueclass_module.__file__).read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"exec", "eval", "compile"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"dataclasses", "inspect"}


def test_construction_by_position_keyword_and_default():
    assert Point(1, 2) == Point(x=1, y=2) == Point(1, y=2)
    assert Point(1).y == 0 and Point(1).tags == ()
    a, b = Tally("a"), Tally("a")
    assert a.counts == [] and a.counts is not b.counts
    with pytest.raises(ValueError, match="negative x"):
        Point(-1)


@pytest.mark.parametrize("args, kwargs, text", [
    ((), {}, "missing required argument 'x'"),
    ((1, 2, (), 4), {}, "takes 3 positional arguments but 4 were given"),
    ((1,), {"x": 2}, "multiple values for argument 'x'"),
    ((1,), {"z": 2}, "unexpected keyword argument 'z'"),
    ((1,), {"_memo": {}}, "unexpected keyword argument '_memo'"),
])
def test_bad_arguments_are_refused(args, kwargs, text):
    with pytest.raises(TypeError, match=text):
        Point(*args, **kwargs)


def test_equality_hash_and_repr_follow_the_field_flags():
    a, b = Point(1, 2, ("a",)), Point(1, 2, ("a",))
    assert a == b and hash(a) == hash(b)
    assert a != Point(1, 2, ("b",)) and a != Point(1, 3) and a != LabelledPoint(1, 2)
    assert repr(a) == "Point(x=1, y=2)"


def test_frozen_fields_refuse_assignment_and_deletion():
    p = Point(1)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'x'"):
        p.x = 2
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'y'"):
        del p.y
    assert issubclass(FrozenInstanceError, AttributeError)


def test_a_subclass_adds_its_fields_after_the_base():
    p = LabelledPoint(1, 2, label="q")
    assert [f.name for f in LabelledPoint._value_fields] == ["x", "y", "tags", "label"]
    assert repr(p) == "LabelledPoint(x=1, y=2, label='q')"
    with pytest.raises(ValueError, match="negative x"):
        LabelledPoint(-1)


def test_replace_reruns_the_constructor():
    p = LabelledPoint(1, 2, label="q")
    moved = replace(p, y=5)
    assert moved == LabelledPoint(1, 5, label="q")
    with pytest.raises(ValueError, match="negative x"):
        replace(p, x=-1)
    with pytest.raises(TypeError, match="unexpected keyword argument '_memo'"):
        replace(p, _memo={})


def test_a_value_holding_a_list_fills_it_but_refuses_assignment():
    t = Tally("t")
    t.counts.append(1)
    assert t == Tally("t", [1]) and repr(t) == "Tally(name='t', counts=[1])"
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'counts'"):
        t.counts = []
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        hash(t)


def test_copy_and_pickle_rebuild_through_the_constructor():
    p = LabelledPoint(1, 2, ("a",), label="q")
    for other in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert other == p and type(other) is LabelledPoint


# -- the engine's classes --------------------------------------------


def z2_hopf():
    return group_algebra(cyclic_group_table(2))


def test_hopf_algebras_built_alike_are_equal_and_hash_alike():
    h, k = z2_hopf(), z2_hopf()
    assert h is not k and h == k and hash(h) == hash(k)
    assert h != group_algebra(cyclic_group_table(3))


def test_memo_is_left_out_of_equality_and_repr():
    h, k = z2_hopf(), z2_hopf()
    algebra_generators(h)
    assert h._memo and not hasattr(k, "_memo")
    assert h == k and hash(h) == hash(k)
    assert "_memo" not in repr(h) and repr(h) == repr(k)


def test_each_root_value_class_has_one_memo_slot_and_no_memo_field():
    modules = (linalg, hopf, coefficients, cocyclic, cup, reporting, specfile)
    classes = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and "_value_fields" in vars(cls)}
    assert {HopfAlgebra, CocyclicModule, _CupSetup, ConvolutionCupSetup, Report,
            SpecFile, LinearMap} <= classes
    for cls in classes | {Point, LabelledPoint, Tally, Holder}:
        assert "_memo" not in [f.name for f in cls._value_fields]
        root = not any(hasattr(base, "_value_fields") for base in cls.__bases__)
        assert vars(cls)["__slots__"].count("_memo") == root
        assert isinstance(cls._memo, types.MemberDescriptorType)


def test_assigning_an_engine_field_raises_frozen_instance_error():
    h = z2_hopf()
    m = LinearMap.identity(VectorSpace.make(2))
    rep = Report("r")
    spec = parse_spec(Z2CUP)
    for obj, name in ((h, "mul"), (m, "_den"), (ReportEntry("e", True), "passed"),
                      (rep, "entries"), (rep, "title"), (spec, "cup"),
                      (spec, "hopf_algebras")):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
    rep.add("a", True)
    rep.extend(Report("s", [ReportEntry("b", False, "why")]), "s.")
    assert [e.name for e in rep.entries] == ["a", "s.b"] and not rep.passed
    assert list(spec.cup) == ["ac", "aa"] and "z2" in spec.hopf_algebras


def test_linear_map_repr_text_is_unchanged():
    space = VectorSpace.make(2)
    assert repr(LinearMap.identity(space)) == (
        "LinearMap(source=VectorSpace(dim=2), target=VectorSpace(dim=2))")
    sub = Subspace(space, space, LinearMap.identity(space), (0, 1))
    assert repr(sub) == (
        "Subspace(ambient=VectorSpace(dim=2), space=VectorSpace(dim=2), "
        "basis=LinearMap(source=VectorSpace(dim=2), target=VectorSpace(dim=2)), "
        "supports=(0, 1))")
    assert repr(ReportEntry("e", False, "why")) == "ReportEntry(name='e', passed=False, detail='why')"
    assert repr(Report("r", [ReportEntry("e", True)])) == (
        "Report(title='r', entries=[ReportEntry(name='e', passed=True, detail='')])")


def test_hand_written_constructors_take_keywords():
    space = VectorSpace.make(1)
    m = LinearMap(source=space, target=space, _cols=({0: 1},), _den=1)
    assert m == LinearMap.identity(space) and hash(m) == hash(LinearMap.identity(space))
    assert ReportEntry(name="e", passed=True) == ReportEntry("e", True, "")
    assert replace(ReportEntry("e", True), detail="d") == ReportEntry("e", True, "d")


@pytest.mark.parametrize("change, text", [
    (lambda t: {"faces": t.faces[:-1]}, "cocyclic tower has the wrong length"),
    (lambda t: {"cyclic": t.cyclic[:-1]}, "cocyclic tower has the wrong length"),
    (lambda t: {"faces": (t.faces[1][:2], *t.faces[1:])}, "coface shape mismatch at degree 0"),
    (lambda t: {"degeneracies": (t.degeneracies[0], t.degeneracies[2][:1],
                                 *t.degeneracies[2:])},
     "codegeneracy shape mismatch at degree 1"),
    (lambda t: {"degeneracies": ((), (), *t.degeneracies[2:])},
     "expected 1 codegeneracies at degree 1"),
    (lambda t: {"cyclic": (t.cyclic[1], *t.cyclic[1:])},
     "cyclic operator shape mismatch at degree 0"),
])
def test_replace_keeps_the_malformed_tower_refusals(change, text):
    tower = plain_algebra_cocyclic(z2_hopf().algebra, degree_cap=2)
    with pytest.raises(LinAlgError, match=text):
        replace(tower, **change(tower))
    full_b(tower, 0)
    again = replace(tower)
    assert again == tower and not hasattr(again, "_memo") and isinstance(again, CocyclicModule)


def test_cup_setups_extend_the_shared_fields():
    shared = [f.name for f in _CupSetup._value_fields]
    names = [f.name for f in ConvolutionCupSetup._value_fields]
    assert names[:len(shared)] == shared and "_memo" not in names
    assert shared == ["algebra", "pair", "degree_cap", "algebra_cochains", "bicomplex",
                      "tensor_values", "pair_collapse"]
    assert names[len(shared):] == ["coalgebra", "convolution", "embedding",
                                   "coalgebra_cochains"]


@valueclass
class Holder:
    name: str


@memoised
def doubled(holder: Holder, n: int, tag=None) -> list:
    """A fresh list, so that a rebuilt value is told apart by identity."""
    if n < 0:
        raise ValueError("negative n")
    return [holder.name] * (2 * n)


def test_memoised_keys_a_result_by_name_and_positional_arguments():
    h = Holder("a")
    assert not hasattr(h, "_memo")
    out = doubled(h, 2)
    assert out == ["a"] * 4 and doubled(h, 2) is out
    assert doubled(h, 2, "t") is not out
    assert list(h._memo) == [("doubled", 2), ("doubled", 2, "t")]


def test_copies_pickles_and_replacements_start_without_a_memo():
    h = Holder("a")
    doubled(h, 1)
    for other in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h)), replace(h)):
        assert other == h and not hasattr(other, "_memo")
        assert doubled(other, 1) is not doubled(h, 1)


def test_memoised_keeps_the_name_qualname_and_doc():
    for fn, name in ((doubled, "doubled"), (full_b, "full_b"), (phi_matrix, "phi_matrix"),
                     (algebra_generators, "algebra_generators")):
        assert fn.__name__ == fn.__qualname__ == name
        assert fn.__doc__ and fn.__doc__ == fn.__wrapped__.__doc__
    assert doubled.__doc__.startswith("A fresh list")


def test_a_refused_call_leaves_no_entry():
    tower = plain_algebra_cocyclic(z2_hopf().algebra, degree_cap=2)
    full_b(tower, 0)
    before = dict(tower._memo)
    for _ in range(2):
        with pytest.raises(LinAlgError, match="Hochschild coboundary"):
            full_b(tower, tower.degree_cap)
    assert tower._memo == before and list(tower._memo) == [("full_b", 0)]
    h = Holder("a")
    for _ in range(2):
        with pytest.raises(ValueError, match="negative n"):
            doubled(h, -1)
    assert h._memo == {}


def test_a_second_call_returns_the_same_object_and_builds_nothing(monkeypatch):
    tower = plain_algebra_cocyclic(z2_hopf().algebra, degree_cap=2)
    sums = []
    signed_sum = cocyclic.signed_sum
    monkeypatch.setattr(cocyclic, "signed_sum", lambda terms: sums.append(terms) or
                        signed_sum(terms))
    first = full_b(tower, 1)
    assert len(sums) == 1
    assert full_b(tower, 1) is first and len(sums) == 1
    assert full_b(tower, 0) is not first and len(sums) == 2


def test_algebra_generators_are_found_once_per_hopf_algebra(monkeypatch):
    h = z2_hopf()
    algebra = ModuleAlgebra(h, h.space, h.mul, h.unit, adjoint_action(h))
    coefficients = trivial_coefficients(h).module
    spans = []
    generated_span = hopf._generated_span
    monkeypatch.setattr(hopf, "_generated_span", lambda *args: spans.append(args) or
                        generated_span(*args))
    first = algebra_module_cocyclic(algebra, coefficients, 2)
    found = len(spans)
    assert found > 0 and list(h._memo) == [("algebra_generators",)]
    second = algebra_module_cocyclic(algebra, coefficients, 2)
    assert second is not first and len(spans) == found
