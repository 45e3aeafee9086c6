"""The package namespace resolves names on first use: importing `hopfcyclic`
loads no engine layer, each exported name is read from the layer that
defines it, and an `hcc` command compiles only the layers it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfcyclic

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"

# Prints the engine modules loaded once hcc has run on the arguments given.
HCC = ("import sys; from hopfcyclic.cli import main; code = main(sys.argv[1:]); "
       "print(sorted(m for m in sys.modules if m.startswith('hopfcyclic.')), "
       "file=sys.stderr); sys.exit(code)")


def fresh(code, *argv):
    """Run `code` in a fresh interpreter that compiles every module from
    source; with -S, no site hook of the host imports anything first."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def hcc(*argv):
    """(exit code, stdout, the engine modules loaded, the rest of stderr)."""
    result = fresh(HCC, *argv)
    *errors, loaded = result.stderr.splitlines()
    return result.returncode, result.stdout, ast.literal_eval(loaded), errors


def test_import_loads_no_engine_layer():
    result = fresh("import hopfcyclic, sys; "
                   "print(sorted(m for m in sys.modules if m.startswith('hopfcyclic')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['hopfcyclic']"


def test_every_exported_name_is_its_layers_object():
    for layer, names in hopfcyclic._LAYERS.items():
        module = getattr(hopfcyclic, layer)
        assert module.__name__ == f"hopfcyclic.{layer}"
        for name in names:
            assert getattr(hopfcyclic, name) is getattr(module, name), name
    assert sorted(hopfcyclic._LAYER_OF) == hopfcyclic.__all__
    assert len(set(hopfcyclic.__all__)) == len(hopfcyclic.__all__)


def test_no_copy_is_kept_so_a_patched_layer_shows_through(monkeypatch):
    from hopfcyclic import cup, linalg

    original = hopfcyclic.cup_aa
    monkeypatch.setattr(cup, "cup_aa", lambda *args: "patched")
    assert hopfcyclic.cup_aa() == "patched"
    monkeypatch.setattr(linalg, "tensor_permutation", len)
    assert hopfcyclic.tensor_permutation is len
    monkeypatch.undo()
    assert hopfcyclic.cup_aa is original
    assert "cup_aa" not in vars(hopfcyclic)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hopfcyclic import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(hopfcyclic.__all__)
    assert all(namespace[name] is getattr(hopfcyclic, name) for name in namespace)
    assert set(hopfcyclic.__all__) <= set(dir(hopfcyclic))
    assert {"__version__", "__getattr__"} <= set(dir(hopfcyclic))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as info:
        hopfcyclic.nonesuch
    assert str(info.value) == "module 'hopfcyclic' has no attribute 'nonesuch'"
    with pytest.raises(ImportError):
        exec("from hopfcyclic import nonesuch", {})


@pytest.mark.parametrize("argv", [
    ("cohomology", str(DEMO / "z2_cup.json"), "regular-cochains", "--max-degree", "2"),
    ("cohomology", str(DEMO / "plain_rationals.json"), "z2-algebra", "--max-degree", "2"),
    ("check", str(DEMO / "plain_rationals.json")),
], ids=["cohomology z2_cup", "cohomology plain", "check plain"])
def test_commands_without_a_cup_never_load_it(argv):
    code, out, loaded, errors = hcc(*argv, "--format", "json")
    assert code == 0, errors
    assert json.loads(out)["passed"]
    assert "hopfcyclic.cup" not in loaded
    assert "hopfcyclic.specfile" in loaded


@pytest.mark.parametrize("argv", [
    ("cup", str(DEMO / "z2_cup.json"), "--variant", "aa", "--p", "0", "--q", "1",
     "--left", "psi0", "--right", "phi1"),
    ("check", str(DEMO / "z2_cup.json")),
], ids=["cup", "check z2_cup"])
def test_commands_with_a_cup_load_it(argv):
    code, out, loaded, errors = hcc(*argv, "--format", "json")
    assert code == 0, errors
    assert json.loads(out)["passed"]
    assert "hopfcyclic.cup" in loaded


@pytest.mark.parametrize("change, text", [
    (lambda data: data["cup"]["ac"].pop("coalgebra"), "hcc: cup.ac: missing field 'coalgebra'"),
    (lambda data: data["cup"].update(extra={}), "hcc: cup.extra: cup families are 'ac' and 'aa'"),
    (lambda data: data["cup"]["aa"].update(comodule_algebra="nope"),
     "hcc: cup.aa: unresolved name 'nope'"),
], ids=["missing field", "unknown family", "unresolved name"])
def test_malformed_cup_field_is_refused_before_cup_loads(tmp_path, change, text):
    data = json.loads((DEMO / "z2_cup.json").read_text(encoding="utf-8"))
    change(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, loaded, errors = hcc("check", str(path))
    assert (code, out, errors) == (2, "", [text])
    assert "hopfcyclic.cup" not in loaded
