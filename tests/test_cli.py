"""Tests for the JSON spec-file parser and the hcc command-line interface."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hopfcyclic.cli import main
from hopfcyclic.hopf import (
    adjoint_action,
    cyclic_group_table,
    group_algebra,
    left_regular_action,
    regular_coaction,
    sweedler_h4,
    trivial_action,
    trivial_coaction,
)
from hopfcyclic.linalg import LinearMap, tensor_map
from hopfcyclic.specfile import SpecError, parse_spec, parse_spec_data

DEMO = Path(__file__).resolve().parent.parent / "demo"
CATALOG = str(DEMO / "builtin_catalog.json")
PLAIN = str(DEMO / "plain_rationals.json")
Z2CUP = str(DEMO / "z2_cup.json")
DATA = Path(__file__).resolve().parent / "data"
# (golden report, the hcc arguments, from the repository root, that print it)
GOLDEN_RUNS = [tuple(line.split(maxsplit=1))
               for line in (DATA / "golden_runs.txt").read_text(encoding="utf-8").splitlines()]
# variant -> (p, q, left, right) of each pinned `hcc cup` demo run
Z2CUP_RUNS = {"ac": (1, 1, "phi", "omega"), "ac-general": (1, 1, "phi", "omega"),
              "aa": (0, 1, "psi0", "phi1"), "aa-general": (0, 1, "psi0", "phi1")}


def z2cup_data():
    with open(Z2CUP, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def unpaired_z2cup_data():
    """The cup demo with the sign character against the counit contramodule,
    which pass their checks but form no compatible pair, as the coefficients
    of both cup families; their contratensor product is zero."""
    data = z2cup_data()
    data["modules"]["sign"] = {
        "hopf": "z2", "basis": ["n"], "coaction": "trivial",
        "action": [[["n"], ["n", "1"], 1], [["n"], ["n", "g"], -1]]}
    data["contramodules"] = {"counit": {
        "hopf": "z2", "basis": ["m"], "action": "trivial",
        "alpha": [[["m"], ["1", "m"], 1]]}}
    for family in data["cup"].values():
        family["coefficients"] = ["sign", "counit"]
    return data


def report_of(capsys):
    return json.loads(capsys.readouterr().out)


def entry(report, name):
    matches = [c for c in report["checks"] if c["name"] == name]
    assert matches, f"no report entry named {name!r}"
    return matches[0]


class TestParsing:
    def test_explicit_z2_matches_builtin(self):
        spec = parse_spec(Z2CUP)
        built = spec.hopf_algebras["z2"]
        reference = group_algebra(cyclic_group_table(2), labels=["1", "g"])
        assert built.space == reference.space
        assert built.mul == reference.mul
        assert built.unit == reference.unit
        assert built.comul == reference.comul
        assert built.counit == reference.counit
        assert built.antipode == reference.antipode
        assert built.antipode_inv == reference.antipode_inv

    def test_builtin_names_resolve(self):
        spec = parse_spec(CATALOG)
        assert spec.hopf_algebras["z2"].space.dim == 2
        assert spec.hopf_algebras["s3"].space.dim == 6
        assert spec.hopf_algebras["sweedler"].space.dim == 4
        assert spec.hopf_algebras["point"].space.dim == 1

    def test_float_coordinate_rejected(self):
        data = z2cup_data()
        data["cochains"]["bad"] = {"degree": 1, "coords": [0, 0.5]}
        with pytest.raises(SpecError, match=r"cochains\.bad\.coords\[1\].*decimal"):
            parse_spec_data(data)

    def test_decimal_string_rejected(self):
        data = z2cup_data()
        data["hopf_algebras"]["z2"]["mul"][0][2] = "1.0"
        with pytest.raises(SpecError, match=r"hopf_algebras\.z2\.mul\[0\].*decimal"):
            parse_spec_data(data)

    def test_exponent_string_rejected(self):
        data = z2cup_data()
        data["cochains"]["bad"] = {"degree": 1, "coords": ["1e2", 0]}
        with pytest.raises(SpecError, match="decimal"):
            parse_spec_data(data)

    def test_rational_strings_accepted(self):
        data = z2cup_data()
        data["cochains"]["half"] = {"degree": 1, "coords": ["1/2", "-3/4"]}
        spec = parse_spec_data(data)
        assert spec.cochains["half"]["coords"] == (Fraction(1, 2), Fraction(-3, 4))

    def test_unresolved_reference(self):
        data = z2cup_data()
        data["cup"]["ac"]["coalgebra"] = "missing"
        with pytest.raises(SpecError, match=r"cup\.ac.*unresolved name 'missing'"):
            parse_spec_data(data)

    def test_unresolved_construction_module(self):
        data = z2cup_data()
        data["constructions"]["regular-cochains"]["module"] = "nope"
        with pytest.raises(SpecError, match="unresolved name 'nope'"):
            parse_spec_data(data)

    def test_wrong_vector_length(self):
        data = z2cup_data()
        data["hopf_algebras"]["z2"]["unit"] = [1, 0, 0]
        with pytest.raises(SpecError, match=r"unit.*dense list of 2"):
            parse_spec_data(data)

    def test_unknown_basis_label(self):
        data = z2cup_data()
        data["hopf_algebras"]["z2"]["mul"][0][0] = ["h"]
        with pytest.raises(SpecError, match="unknown basis label 'h'"):
            parse_spec_data(data)

    def test_wrong_tensor_rank(self):
        data = z2cup_data()
        data["hopf_algebras"]["z2"]["mul"][0][1] = ["1"]
        with pytest.raises(SpecError, match="expected 2 tensor factor"):
            parse_spec_data(data)

    def test_unknown_section(self):
        with pytest.raises(SpecError, match="unknown section"):
            parse_spec_data({"gadgets": {}})

    def test_unknown_builtin_hopf(self):
        with pytest.raises(SpecError, match="unknown builtin Hopf algebra"):
            parse_spec_data({"hopf_algebras": {"h": "group:Z5"}})

    def test_duplicate_basis_labels(self):
        data = z2cup_data()
        data["hopf_algebras"]["z2"]["basis"] = ["1", "1"]
        with pytest.raises(SpecError, match="unique"):
            parse_spec_data(data)

    def test_singular_antipode_rejected(self):
        data = z2cup_data()
        data["hopf_algebras"]["z2"]["antipode"] = [[["1"], ["1"], 1]]
        with pytest.raises(SpecError, match="antipode is not invertible"):
            parse_spec_data(data)

    def test_unknown_construction_type(self):
        data = z2cup_data()
        data["constructions"]["regular-cochains"]["type"] = "mystery"
        with pytest.raises(SpecError, match="unknown construction type"):
            parse_spec_data(data)

    def test_name_in_two_sections_rejected(self, tmp_path):
        """`hcc check` finds objects by name, so a module coalgebra named like
        the module algebra would hide the algebra from its checks, and a
        construction named like the Hopf algebra would never be verified."""
        data = z2cup_data()
        data["coalgebras"]["signed-line"] = data["coalgebras"].pop("regular-z2")
        for fields in (data["coalgebra_actions"]["signed-eval"], data["cup"]["ac"],
                       data["constructions"]["regular-cochains"]):
            fields["coalgebra"] = "signed-line"
        with pytest.raises(SpecError) as info:
            parse_spec_data(data)
        assert str(info.value) == ("coalgebras.signed-line: the name 'signed-line' "
                                   "is already declared in algebras")
        assert main(["check", write_spec(tmp_path, data)]) == 2
        data = z2cup_data()
        data["constructions"]["z2"] = data["constructions"].pop("regular-cochains")
        with pytest.raises(SpecError, match=r"^constructions\.z2: the name 'z2' is "
                                            r"already declared in hopf_algebras$"):
            parse_spec_data(data)

    @pytest.mark.parametrize("section, name, key, message", [
        ("constructions", "regular-cochains", "degree_cap", "'degree_cap' must be a positive"),
        ("cup", "ac", "degree_cap", "'degree_cap' must be a positive"),
        ("cochains", "phi", "degree", "'degree' must be a nonnegative")])
    def test_boolean_is_not_an_integer(self, section, name, key, message):
        data = z2cup_data()
        data[section][name][key] = True
        with pytest.raises(SpecError, match=message):
            parse_spec_data(data)

    def test_malformed_json_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"hopf_algebras": {', encoding="utf-8")
        with pytest.raises(SpecError, match=r"broken\.json:1:"):
            parse_spec(str(path))


# Objects over z2 on the one-dimensional carrier "x", for the keyword cases.
LINE_ALGEBRA = {"hopf": "z2", "basis": ["x"], "mul": [[["x"], ["x", "x"], 1]], "unit": [1]}
LINE_COALGEBRA = {"hopf": "z2", "basis": ["x"], "comul": [[["x", "x"], ["x"], 1]],
                  "counit": [[[], ["x"], 1]]}
LINE_MODULE = {"hopf": "z2", "basis": ["x"], "action": "counit"}
LINE_CONTRAMODULE = {"hopf": "z2", "basis": ["x"], "alpha": [[["x"], ["1", "x"], 1]]}


def declared(section, fields):
    """The cup demo with one more object, named "extra", in `section`."""
    def change(data):
        data.setdefault(section, {})["extra"] = fields
    return change


def cup_fields(**fields):
    def change(data):
        data["cup"]["ac"].update(fields)
    return change


def construction_fields(**fields):
    def change(data):
        target = data["constructions"]["regular-cochains"]
        target.update(fields)
        for key in [k for k, v in target.items() if v is None]:
            del target[key]
    return change


# The exact text of each refusal, at the position it names.
REFUSALS = [
    ("left-regular on a line", declared("algebras", dict(LINE_ALGEBRA, action="left-regular")),
     "algebras.extra.action: the left-regular action needs the Hopf algebra "
     "itself as carrier"),
    ("adjoint on a line", declared("coalgebras", dict(LINE_COALGEBRA, action="adjoint")),
     "coalgebras.extra.action: the adjoint action needs the Hopf algebra itself "
     "as carrier"),
    ("regular on a line", declared("comodule_algebras",
                                   dict(LINE_ALGEBRA, coaction="regular")),
     "comodule_algebras.extra.coaction: the regular coaction needs the Hopf algebra "
     "itself as carrier"),
    ("comultiplication on a line", declared("modules",
                                            dict(LINE_MODULE, coaction="comultiplication")),
     "modules.extra.coaction: the comultiplication coaction needs the Hopf algebra "
     "itself as carrier"),
    ("module regular on a line", declared("modules", dict(LINE_MODULE, coaction="regular")),
     "modules.extra.coaction: the regular coaction needs the Hopf algebra itself "
     "as carrier"),
    ("adjoint on a relabelled carrier", declared("algebras", {
        "hopf": "z2", "basis": ["a", "b"], "unit": [1, 0], "action": "adjoint",
        "mul": [[["a"], ["a", "a"], 1], [["b"], ["a", "b"], 1], [["b"], ["b", "a"], 1],
                [["a"], ["b", "b"], 1]]}),
     "algebras.extra.action: the adjoint action needs the Hopf algebra itself as carrier"),
    ("unknown left action", declared("contramodules", dict(LINE_CONTRAMODULE, action="spin")),
     "contramodules.extra.action: unknown action keyword 'spin'"),
    ("trivial as a right action", declared("modules", dict(LINE_MODULE, action="trivial",
                                                           coaction="trivial")),
     "modules.extra.action: unknown action keyword 'trivial'"),
    ("unknown coaction", declared("comodule_algebras",
                                  dict(LINE_ALGEBRA, coaction="left-regular")),
     "comodule_algebras.extra.coaction: unknown coaction keyword 'left-regular'"),
    ("unknown module coaction", declared("modules", dict(LINE_MODULE, coaction="adjoint")),
     "modules.extra.coaction: unknown coaction keyword 'adjoint'"),
    ("unknown builtin pair", declared("pairs", {"hopf": "z2", "builtin": "odd"}),
     "pairs.extra: unknown builtin pair 'odd'"),
    ("grouplike off the basis", declared("pairs", {"hopf": "z2", "builtin": "grouplike",
                                                   "sigma": "h"}),
     "pairs.extra.sigma: unknown basis label 'h'"),
    ("unknown cup family", declared("cup", {"algebra": "signed-line"}),
     "cup.extra: cup families are 'ac' and 'aa'"),
    ("cup coefficients before algebra", cup_fields(coefficients="no-pair", algebra="no-alg"),
     "cup.ac: unresolved name 'no-pair'"),
    ("cup algebra before action", cup_fields(algebra="no-alg", action="no-act"),
     "cup.ac: unresolved name 'no-alg'"),
    ("cup coefficients of another shape", cup_fields(coefficients=["counit-twist"]),
     "cup.ac: 'coefficients' must name a pair or be a [module, contramodule] list"),
    ("cup algebra without an action", lambda data: (
        declared("algebras", {"carrier": "z2"})(data), cup_fields(algebra="extra")(data)),
     "cup.ac: algebra 'extra' carries no Hopf action"),
    ("construction missing a field", construction_fields(module=None),
     "constructions.regular-cochains: missing field 'module'"),
    ("construction with an unresolved name", construction_fields(module="nope"),
     "constructions.regular-cochains: unresolved name 'nope'"),
    ("unknown construction type", construction_fields(type="mystery"),
     "constructions.regular-cochains: unknown construction type 'mystery'; known: "
     "plain, coalgebra, algebra_module, comodule_algebra, algebra_contra"),
    ("builtin pair given as a list", declared("pairs", {"hopf": "z2",
                                                        "builtin": ["trivial"]}),
     "pairs.extra: unknown builtin pair ['trivial']"),
    ("construction type given as a list", construction_fields(type=["plain"]),
     "constructions.regular-cochains: unknown construction type ['plain']; known: "
     "plain, coalgebra, algebra_module, comodule_algebra, algebra_contra"),
    ("cup missing a field", lambda data: data["cup"]["ac"].pop("coalgebra"),
     "cup.ac: missing field 'coalgebra'"),
    ("pair missing a field", declared("pairs", {"module": "counit-twist"}),
     "pairs.extra: missing field 'contramodule'"),
    ("coalgebra action missing a field",
     lambda data: data["coalgebra_actions"]["signed-eval"].pop("algebra"),
     "coalgebra_actions.signed-eval: missing field 'algebra'"),
    ("explicit algebra missing a field", declared("algebras", {"basis": ["x"], "unit": [1]}),
     "algebras.extra: missing field 'mul'"),
    ("carrier missing its basis", declared("algebras", {"mul": [], "unit": [1]}),
     "algebras.extra: missing field 'basis'"),
    ("explicit coalgebra missing a field",
     declared("coalgebras", {"hopf": "z2", "basis": ["x"], "counit": [[[], ["x"], 1]],
                             "action": "trivial"}),
     "coalgebras.extra: missing field 'comul'"),
    ("module algebra missing its action", declared("algebras", LINE_ALGEBRA),
     "algebras.extra: missing field 'action'"),
    ("module coalgebra missing its action", declared("coalgebras", LINE_COALGEBRA),
     "coalgebras.extra: missing field 'action'"),
    ("comodule algebra missing its coaction", declared("comodule_algebras", LINE_ALGEBRA),
     "comodule_algebras.extra: missing field 'coaction'"),
    ("module missing its coaction", declared("modules", LINE_MODULE),
     "modules.extra: missing field 'coaction'"),
    ("contramodule missing its action", declared("contramodules", LINE_CONTRAMODULE),
     "contramodules.extra: missing field 'action'"),
    ("explicit pair missing its pairing", lambda data: (
        declared("contramodules", dict(LINE_CONTRAMODULE, action="trivial"))(data),
        declared("pairs", {"module": "counit-twist", "contramodule": "extra"})(data)),
     "pairs.extra: missing field 'pairing'"),
    ("coalgebra action missing its map",
     lambda data: data["coalgebra_actions"]["signed-eval"].pop("map"),
     "coalgebra_actions.signed-eval: missing field 'map'"),
    ("grouplike pair missing sigma", declared("pairs", {"hopf": "z2", "builtin": "grouplike"}),
     "pairs.extra: missing field 'sigma'"),
    ("construction missing its type", construction_fields(type=None),
     "constructions.regular-cochains: missing field 'type'"),
    ("cochain missing its degree", declared("cochains", {"coords": [0]}),
     "cochains.extra: missing field 'degree'"),
    ("cochain missing its coords", declared("cochains", {"degree": 1}),
     "cochains.extra: missing field 'coords'"),
    ("cup missing its coefficients", lambda data: data["cup"]["ac"].pop("coefficients"),
     "cup.ac: missing field 'coefficients'"),
    ("unknown section", lambda data: data.update(gadgets={}),
     "gadgets: unknown section; known sections: hopf_algebras, algebras, coalgebras, "
     "comodule_algebras, modules, contramodules, pairs, coalgebra_actions, "
     "constructions, cochains, cup"),
]


@pytest.mark.parametrize("change, text", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_refusal_text(change, text):
    data = z2cup_data()
    change(data)
    with pytest.raises(SpecError) as info:
        parse_spec_data(data)
    assert str(info.value) == text


def test_keywords_build_their_library_maps():
    """Each action and coaction keyword gives the map of its library function,
    here over sweedler4 on its own carrier."""
    h = sweedler_h4()
    on_h = {"hopf": "h", "carrier": "h"}
    data = {"hopf_algebras": {"h": "sweedler4"},
            "algebras": {k: dict(on_h, action=k) for k in ("trivial", "left-regular",
                                                            "adjoint")},
            "comodule_algebras": {f"co-{k}": dict(on_h, coaction=k)
                                  for k in ("trivial", "regular")},
            "modules": {f"m-{k}": dict(on_h, action="counit", coaction=k)
                        for k in ("trivial", "regular", "comultiplication")}}
    spec = parse_spec_data(data)
    assert spec.algebras["trivial"].action == trivial_action(h, h.space)
    assert spec.algebras["left-regular"].action == left_regular_action(h)
    assert spec.algebras["adjoint"].action == adjoint_action(h)
    assert spec.comodule_algebras["co-trivial"].coaction == trivial_coaction(h, h.space)
    assert spec.comodule_algebras["co-regular"].coaction == regular_coaction(h)
    assert spec.modules["m-trivial"].coaction == trivial_coaction(h, h.space)
    assert spec.modules["m-regular"].coaction == regular_coaction(h)
    assert spec.modules["m-comultiplication"].coaction == h.comul
    counit = tensor_map(LinearMap.identity(h.space), h.counit)
    assert all(m.action == counit for m in spec.modules.values())


class TestCheckCommand:
    def test_catalog_passes(self):
        assert main(["check", CATALOG]) == 0

    def test_everything_checked_when_no_names_given(self, capsys):
        assert main(["check", CATALOG, "--format", "json"]) == 0
        report = report_of(capsys)
        prefixes = {c["name"].split("]")[0] + "]" for c in report["checks"]}
        assert {"[point]", "[z2]", "[s3]", "[sweedler]", "[z2-trivial]",
                "[z2-grouplike]", "[sweedler-grouplike]"} <= prefixes

    def test_named_subset(self, capsys):
        assert main(["check", CATALOG, "z2", "--format", "json"]) == 0
        report = report_of(capsys)
        assert report["checks"]
        assert all(c["name"].startswith("[z2]") for c in report["checks"])

    def test_unknown_object_exit_2(self, capsys):
        assert main(["check", CATALOG, "nonesuch"]) == 2

    def test_corrupted_antipode_named_failure(self, tmp_path, capsys):
        data = {"hopf_algebras": {"bad": z2cup_data()["hopf_algebras"]["z2"]}}
        data["hopf_algebras"]["bad"]["antipode"] = [
            [["1"], ["g"], 1], [["g"], ["1"], 1]]
        path = write_spec(tmp_path, data)
        assert main(["check", path, "--format", "json"]) == 1
        report = report_of(capsys)
        assert not report["passed"]
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert "[bad] antipode left axiom" in failed

    def test_decimal_spec_exit_2(self, tmp_path):
        data = z2cup_data()
        data["cochains"]["phi"]["coords"] = [0, 1.25]
        assert main(["check", write_spec(tmp_path, data)]) == 2

    def test_construction_and_cup_names_checkable(self, capsys):
        assert main(["check", Z2CUP, "regular-cochains", "cup:ac",
                     "--format", "json"]) == 0
        report = report_of(capsys)
        names = [c["name"] for c in report["checks"]]
        assert any(n.startswith("[regular-cochains]") for n in names)
        assert any(n.startswith("[cup:ac]") for n in names)

    def test_carrier_labels_holding_a_tensor_sign(self, tmp_path, capsys):
        """Z/2 on the basis ["a", "a⊗a"]: the labels are unique, although
        "a⊗a⊗a" spells two basis tensors of H (x) H, so the spec is checked."""
        data = json.loads(json.dumps(z2cup_data()["hopf_algebras"]["z2"])
                          .replace('"1"', '"a"').replace('"g"', '"a⊗a"'))
        assert data["basis"] == ["a", "a⊗a"]
        spec = {"hopf_algebras": {"z2": data},
                "constructions": {"z2-algebra": {"type": "plain", "algebra": "z2",
                                                 "degree_cap": 2}}}
        assert main(["check", write_spec(tmp_path, spec), "--format", "json"]) == 0
        report = report_of(capsys)
        assert report["passed"]
        assert any(c["name"].startswith("[z2-algebra]") for c in report["checks"])

    def test_coefficients_with_a_zero_contratensor_product(self, tmp_path, capsys):
        """The sign character against the counit contramodule: both pass
        their checks, their contratensor product is zero, and the
        contratensor-valued comparison maps pass into zero cochains."""
        assert main(["check", write_spec(tmp_path, unpaired_z2cup_data()), "sign", "counit", "cup:ac",
                     "cup:aa", "--format", "json"]) == 0
        report = report_of(capsys)
        assert report["passed"]
        names = [c["name"] for c in report["checks"]]
        for prefix in ("[sign] ", "[counit] ", "[cup:ac] contratensor: ",
                       "[cup:aa] contratensor: "):
            assert any(n.startswith(prefix) for n in names), prefix


def untwisted_signed_eval(data):
    """The cup demo's coalgebra action with g . g = g, which is not H-linear."""
    data["coalgebra_actions"]["signed-eval"]["map"][-1][2] = 1


def contramodule_failing_its_counit(data):
    """cup.ac against a contramodule whose alpha is zero, so alpha(counit) != id."""
    data["contramodules"] = {"zero": {"hopf": "z2", "basis": ["m"], "action": "trivial",
                                      "alpha": []}}
    data["cup"]["ac"]["coefficients"] = ["counit-twist", "zero"]


@pytest.mark.parametrize("change, text", [
    (untwisted_signed_eval, "image of basis element 'g' is not H-linear; the coalgebra "
                            "action violates equivariance"),
    (contramodule_failing_its_counit,
     "coefficient contramodule [contramodule coefficients]: check 'contra-counit' failed "
     "(first residual -1 at row 'm', column '1*⊗m')"),
], ids=["untwisted action", "contramodule counit"])
@pytest.mark.parametrize("command", [
    ["check", "cup:ac"],
    ["cup", "--variant", "ac-general", "--p", "1", "--q", "1", "--left", "phi",
     "--right", "omega"],
], ids=["check", "cup"])
def test_engine_refusal_exit_2(tmp_path, capsys, change, text, command):
    """A cup setup the engine refuses is an input error of `hcc cup`: exit 2
    with the refusal on stderr, not a traceback.  `hcc check` reports it as
    the family's one failed entry and exits 1."""
    data = z2cup_data()
    change(data)
    status = main([command[0], write_spec(tmp_path, data), *command[1:]])
    out, err = capsys.readouterr()
    if command[0] == "check":
        assert (status, err) == (1, "")
        assert out == f"check: FAIL\n  [FAIL] [cup:ac] setup refused -- {text}\n"
    else:
        assert (status, out, err) == (2, "", f"hcc: {text}\n")


def test_refused_cup_family_leaves_every_other_check_reported(tmp_path, capsys):
    """`hcc check SPEC` with a refused cup.ac setup still reports the failing
    contramodule's entries and every other object's checks, and exits 1."""
    data = z2cup_data()
    contramodule_failing_its_counit(data)
    path = write_spec(tmp_path, data)
    assert main(["check", path, "--format", "json"]) == 1
    checks = report_of(capsys)["checks"]
    failed = [c["name"] for c in checks if not c["passed"]]
    assert failed == ["[zero] contra-counit", "[zero] stability", "[cup:ac] setup refused"]
    assert main(["check", path, "zero", "--format", "json"]) == 1
    zero = report_of(capsys)["checks"]
    assert [c for c in checks if c["name"].startswith("[zero] ")] == zero
    names = {c["name"].split("] ")[0] + "]" for c in checks}
    assert {"[z2]", "[regular-cochains]", "[cup:aa]", "[grouplike]"} <= names


class TestSpecEntries:
    """Spec entries the README documents, each parsed and passing `hcc check`."""

    def test_explicit_pair_with_a_pairing(self, tmp_path, capsys):
        """The trivial pair over z2 written out: counit module, evaluation
        contramodule and the pairing n (x) m -> 1."""
        data = z2cup_data()
        data["modules"]["n-line"] = {"hopf": "z2", "basis": ["n"], "action": "counit",
                                     "coaction": "trivial"}
        data["contramodules"] = {"m-line": {"hopf": "z2", "basis": ["m"], "action": "trivial",
                                            "alpha": [[["m"], ["1", "m"], 1]]}}
        data["pairs"]["explicit"] = {"module": "n-line", "contramodule": "m-line",
                                     "pairing": [[[], ["n", "m"], 1]]}
        pair = parse_spec_data(data).pairs["explicit"]
        assert pair.pairing == LinearMap.from_entries(
            pair.pairing.source, pair.pairing.target, [(0, 0, 1)])
        assert main(["check", write_spec(tmp_path, data), "explicit", "--format", "json"]) == 0
        report = report_of(capsys)
        assert report["passed"] and report["checks"]

    def test_plain_construction_on_an_algebra_without_hopf(self, tmp_path, capsys):
        """Q x Q, a commutative separable algebra: HH = [2, 0, 0] and
        HC = [2, 0, 2]."""
        data = {"algebras": {"q-plus-q": {
                    "basis": ["e", "f"], "unit": [1, 1],
                    "mul": [[["e"], ["e", "e"], 1], [["f"], ["f", "f"], 1]]}},
                "constructions": {"split": {"type": "plain", "algebra": "q-plus-q",
                                            "degree_cap": 3}}}
        path = write_spec(tmp_path, data)
        assert main(["check", path, "--format", "json"]) == 0
        assert report_of(capsys)["passed"]
        assert main(["cohomology", path, "split", "--max-degree", "2", "--format", "json"]) == 0
        report = report_of(capsys)
        dims = {c["name"]: c["detail"].split(";")[0] for c in report["checks"]}
        assert dims == {"HH^0": "dim 2", "HH^1": "dim 0", "HH^2": "dim 0",
                        "HC^0": "dim 2", "HC^1": "dim 0", "HC^2": "dim 2"}


class TestCohomologyCommand:
    def test_plain_rationals_dimensions(self, capsys):
        assert main(["cohomology", PLAIN, "point-algebra",
                     "--max-degree", "3", "--format", "json"]) == 0
        report = report_of(capsys)
        hc = [entry(report, f"HC^{n}")["detail"] for n in range(4)]
        assert [d.split(";")[0] for d in hc] == ["dim 1", "dim 0", "dim 1", "dim 0"]
        hh = [entry(report, f"HH^{n}")["detail"] for n in range(4)]
        assert [d.split(";")[0] for d in hh] == ["dim 1", "dim 0", "dim 0", "dim 0"]

    def test_group_algebra_degree_zero(self, capsys):
        assert main(["cohomology", PLAIN, "z2-algebra",
                     "--max-degree", "0", "--format", "json"]) == 0
        report = report_of(capsys)
        assert entry(report, "HC^0")["detail"].startswith("dim 2")

    def test_beyond_cap_exit_2(self):
        assert main(["cohomology", PLAIN, "point-algebra",
                     "--max-degree", "5"]) == 2

    def test_env_override_raises_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("HCC_MAX_DEGREE", "5")
        assert main(["cohomology", PLAIN, "point-algebra",
                     "--max-degree", "5", "--format", "json"]) == 0
        report = report_of(capsys)
        assert entry(report, "HC^4")["detail"].startswith("dim 1")
        assert entry(report, "HC^5")["detail"].startswith("dim 0")

    def test_invalid_env_cap_exit_2(self, monkeypatch):
        monkeypatch.setenv("HCC_MAX_DEGREE", "many")
        assert main(["cohomology", PLAIN, "point-algebra",
                     "--max-degree", "1"]) == 2

    def test_unknown_construction_exit_2(self):
        assert main(["cohomology", PLAIN, "nonesuch", "--max-degree", "1"]) == 2


class TestCupCommand:
    def test_convolution_product_pinned_value(self, capsys):
        assert main(["cup", Z2CUP, "--variant", "ac", "--p", "1", "--q", "1",
                     "--left", "phi", "--right", "omega",
                     "--format", "json"]) == 0
        report = report_of(capsys)
        assert report["passed"]
        assert entry(report, "component degree 2")["detail"] == \
            "[0, 0, 0, -2, 0, 0, 0, 0]"
        assert entry(report, "component degree 0")["detail"] == "[0, 0]"

    def test_general_variant_reports_collapse_status(self, capsys):
        assert main(["cup", Z2CUP, "--variant", "ac-general", "--p", "1",
                     "--q", "1", "--left", "phi", "--right", "omega",
                     "--format", "json"]) == 0
        report = report_of(capsys)
        status = entry(report, "pairing collapse matches the scalar product")
        assert status["passed"]

    def test_crossed_product_pinned_value(self, capsys):
        assert main(["cup", Z2CUP, "--variant", "aa", "--p", "0", "--q", "1",
                     "--left", "psi0", "--right", "phi1",
                     "--format", "json"]) == 0
        report = report_of(capsys)
        top = entry(report, "component degree 1")["detail"]
        expected = ["0"] * 16
        expected[11], expected[14] = "1", "-1"
        assert top == "[" + ", ".join(expected) + "]"

    def test_non_cocycle_exit_1(self, capsys):
        assert main(["cup", Z2CUP, "--variant", "ac", "--p", "1", "--q", "1",
                     "--left", "phi", "--right", "phi1"]) == 1
        err = capsys.readouterr().err
        assert "coalgebra-side cochain is not closed" in err

    def test_unknown_cochain_exit_2(self):
        assert main(["cup", Z2CUP, "--variant", "ac", "--p", "1", "--q", "1",
                     "--left", "phi", "--right", "nonesuch"]) == 2

    def test_degree_mismatch_exit_2(self):
        assert main(["cup", Z2CUP, "--variant", "ac", "--p", "0", "--q", "1",
                     "--left", "phi", "--right", "omega"]) == 2

    @pytest.mark.parametrize("family", ["ac", "aa"])
    def test_scalar_variant_without_a_pair_exit_2(self, tmp_path, capsys, family):
        """A scalar product needs a compatible pair; without one the variant is
        a usage error, and the refusal names the contratensor-valued flag."""
        p, q, left, right = Z2CUP_RUNS[family]
        assert main(["cup", write_spec(tmp_path, unpaired_z2cup_data()), "--variant",
                     family, "--p", str(p), "--q", str(q), "--left", left,
                     "--right", right]) == 2
        assert capsys.readouterr().err == (
            f"hcc: --variant: the coefficients of cup.{family} are not a compatible "
            f"pair, so the scalar product is not defined; use --variant "
            f"{family}-general\n")

    def test_product_degree_beyond_tower_exit_2(self):
        assert main(["cup", Z2CUP, "--variant", "ac", "--p", "1", "--q", "2",
                     "--left", "phi", "--right", "omega"]) == 2


class TestDeterminism:
    def run_twice(self, capsys, argv):
        assert main(argv) in (0, 1)
        first = capsys.readouterr().out
        assert main(argv) in (0, 1)
        second = capsys.readouterr().out
        assert first == second
        return first

    @pytest.mark.parametrize("golden, args", GOLDEN_RUNS,
                             ids=[golden.removesuffix(".json") for golden, _ in GOLDEN_RUNS])
    def test_demo_run_matches_golden_report(self, capsys, monkeypatch, golden, args):
        """Each committed report is the output of its demo run, as listed in
        the table CI reads too: the catalog and demo checks, the HH and HC
        bases of plain, equivariant, non-group and S3 towers, and the four
        product families, scalar and contratensor-valued."""
        monkeypatch.chdir(DEMO.parent)
        out = self.run_twice(capsys, args.split())
        assert out == (DATA / golden).read_text(encoding="utf-8")

    def test_every_golden_report_is_named_by_one_run(self):
        """The goldens the table names are the committed `*_report.json`
        files, each named once, so CI's loop over the table checks them all."""
        assert sorted(golden for golden, _ in GOLDEN_RUNS) == \
            sorted(path.name for path in DATA.glob("*_report.json"))

    def test_cohomology_reports_byte_identical(self, capsys):
        self.run_twice(capsys, ["cohomology", PLAIN, "point-algebra",
                                "--max-degree", "3", "--format", "json"])


def test_start_up_imports_neither_dataclasses_nor_inspect():
    """A fresh interpreter that compiles every module from source builds the
    engine's classes without the code generation of `dataclasses`, and reads
    no annotation at run time, so it needs no `typing` either.  With -S, no
    site hook of the host imports any of these modules first."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hopfcyclic.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestStandardLibraryOnly:
    """The package and hcc run with numpy unimportable."""

    BLOCK = "import sys; sys.modules['numpy'] = None; "
    HCC = BLOCK + "from hopfcyclic.cli import main; sys.exit(main(sys.argv[1:]))"

    def run(self, code, *argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, (argv, result.stderr)

    def test_import_without_numpy(self):
        self.run(self.BLOCK + "import hopfcyclic")

    def test_check_without_numpy(self):
        self.run(self.HCC, "check", Z2CUP)

    def test_cup_without_numpy(self):
        self.run(self.HCC, "cup", Z2CUP, "--variant", "aa-general", "--p", "0", "--q", "1",
                 "--left", "psi0", "--right", "phi1")
