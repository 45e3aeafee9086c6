"""Command-line front end.

``hcc check`` runs the axiom and identity suites for structures declared in a
JSON spec file, ``hcc cohomology`` computes low-degree Hochschild and cyclic
cohomology of a declared cocyclic construction, and ``hcc cup`` evaluates a
cup product of two declared cochains and verifies the resulting cocycle.

Exit codes: 0 when every requested check passes, 1 when a check fails or an
input cochain violates a required identity, 2 for usage and input errors.
The environment variable ``HCC_MAX_DEGREE`` overrides the default degree cap
of 4.  Reports are deterministic: the same invocation always produces
byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .cocyclic import cyclic_cohomology, hochschild_cohomology, verify_cocyclic
from .coefficients import (
    CompatiblePair,
    SaydContramodule,
    SaydModule,
    check_compatible_pair,
    check_sayd_contramodule,
    check_sayd_module,
)
from .hopf import (
    Algebra,
    CoalgebraAction,
    ComoduleAlgebra,
    HopfAlgebra,
    ModuleAlgebra,
    ModuleCoalgebra,
    check_algebra,
    check_coalgebra_action,
    check_comodule_algebra,
    check_hopf_axioms,
    check_module_algebra,
    check_module_coalgebra,
)
from .linalg import LinAlgError
from .reporting import Report
from .specfile import DEFAULT_DEGREE_CAP, SpecError, SpecFile, parse_spec


def _check_pair(pair: CompatiblePair) -> Report:
    rep = Report("compatible pair")
    rep.extend(check_sayd_module(pair.module), prefix="module: ")
    rep.extend(check_sayd_contramodule(pair.contramodule), prefix="contramodule: ")
    rep.extend(check_compatible_pair(pair))
    return rep


_CHECKERS = (
    (HopfAlgebra, check_hopf_axioms),
    (ModuleAlgebra, check_module_algebra),
    (Algebra, check_algebra),
    (ModuleCoalgebra, check_module_coalgebra),
    (ComoduleAlgebra, check_comodule_algebra),
    (SaydModule, check_sayd_module),
    (SaydContramodule, check_sayd_contramodule),
    (CompatiblePair, _check_pair),
    (CoalgebraAction, check_coalgebra_action),
)


def _degree_cap() -> int:
    raw = os.environ.get("HCC_MAX_DEGREE")
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SpecError("HCC_MAX_DEGREE", f"not an integer: {raw!r}")
    if cap < 1:
        raise SpecError("HCC_MAX_DEGREE", "the degree cap must be positive")
    return cap


def _vector_text(coords) -> str:
    return "[" + ", ".join(str(x) for x in coords) + "]"


def _emit(report: Report, fmt: str) -> None:
    sys.stdout.write((report.to_json() if fmt == "json" else report.to_text()) + "\n")


def _check_object(obj) -> Report:
    for kind, checker in _CHECKERS:
        if isinstance(obj, kind):
            return checker(obj)
    raise LinAlgError(f"no checker for {type(obj).__name__}")


def _check_cup_family(spec: SpecFile, family: str, cap: int) -> Report:
    """The comparison-map checks of a cup family; a setup the engine refuses
    is one failed entry, so the other objects' checks are still reported."""
    from . import cup

    rep = Report(f"cup {family}")
    try:
        setup = spec.build_cup_setup(family, cap)
    except LinAlgError as exc:
        rep.add("setup refused", False, str(exc))
        return rep
    rep.extend(setup._check_comparison(tensor_valued=True), prefix="contratensor: ")
    if setup.pair_collapse is not None:
        rep.extend(setup._check_comparison(tensor_valued=False), prefix="scalar: ")
        rep.extend(cup.check_collapse_factorization(setup))
    return rep


def cmd_check(args) -> int:
    spec = parse_spec(args.spec)
    cap = _degree_cap()
    known = spec.checkable_names()
    names = args.names or known
    for name in names:
        if name not in known:
            raise SpecError(name, "the spec declares no such object; known: "
                                  + ", ".join(known))
    by_name = dict(spec.objects())
    master = Report("check")
    for name in names:
        if name in by_name:
            sub = _check_object(by_name[name])
        elif name in spec.constructions:
            sub = verify_cocyclic(spec.build_construction(name, cap), name)
        else:
            sub = _check_cup_family(spec, name.split(":", 1)[1], cap)
        master.extend(sub, prefix=f"[{name}] ")
    _emit(master, args.format)
    return 0 if master.passed else 1


def cmd_cohomology(args) -> int:
    spec = parse_spec(args.spec)
    cap = _degree_cap()
    top = args.max_degree
    if top < 0:
        raise SpecError("--max-degree", "the degree must be nonnegative")
    if top > cap:
        raise SpecError(
            "--max-degree",
            f"degree {top} exceeds the degree cap {cap}; "
            f"set HCC_MAX_DEGREE to raise the cap")
    module = spec.build_construction(args.construction, top + 1, exact=True)
    rep = Report(f"cohomology of {args.construction}")
    for kind, compute in (("HH", hochschild_cohomology), ("HC", cyclic_cohomology)):
        for n in range(top + 1):
            result = compute(module, n)
            detail = f"dim {result.dim}"
            if result.dim:
                detail += "; basis " + "; ".join(
                    _vector_text(v) for v in result.representatives)
            rep.add(f"{kind}^{n}", True, detail)
    _emit(rep, args.format)
    return 0


def _cochain(spec: SpecFile, name: str, degree: int, side: str):
    if name not in spec.cochains:
        known = (": " + ", ".join(spec.cochains)) if spec.cochains else ""
        raise SpecError(name, "the spec declares no such cochain" +
                              (f"; known{known}" if known else ""))
    entry = spec.cochains[name]
    if entry["degree"] != degree:
        raise SpecError(name, f"the {side} cochain has degree {entry['degree']}, "
                              f"but degree {degree} was requested")
    return entry["coords"]


# variant -> (cup family, product in `cup`); a family's scalar variant is
# named after it
_VARIANTS = {"ac": ("ac", "cup_ac"), "aa": ("aa", "cup_aa"),
             "ac-general": ("ac", "cup_ac_general"), "aa-general": ("aa", "cup_aa_general")}


def cmd_cup(args) -> int:
    from . import cup

    spec = parse_spec(args.spec)
    cap = _degree_cap()
    family, product = _VARIANTS[args.variant]
    general = args.variant != family
    if args.p < 0 or args.q < 0:
        raise SpecError("--p/--q", "cochain degrees must be nonnegative")
    setup = spec.build_cup_setup(family, cap)
    if not general and setup.pair_collapse is None:
        raise SpecError(
            "--variant",
            f"the coefficients of cup.{family} are not a compatible pair, so the "
            f"scalar product is not defined; use --variant {family}-general")
    if args.p + args.q >= setup.degree_cap:
        raise SpecError(
            "--p/--q",
            f"the product degree {args.p + args.q} must stay below the tower "
            f"cap {setup.degree_cap}; set HCC_MAX_DEGREE or the spec's "
            f"degree_cap to raise it")
    left = _cochain(spec, args.left, args.p, "left")
    right = _cochain(spec, args.right, args.q, "right")
    try:
        result = getattr(cup, product)(setup, args.p, args.q, left, right)
    except LinAlgError as exc:
        sys.stderr.write(f"hcc cup: {exc}\n")
        return 1
    rep = Report(f"cup {args.variant} (p={args.p}, q={args.q})")
    for k, component in enumerate(result.components):
        rep.add(f"component degree {result.degree - 2 * k}", True,
                _vector_text(component))
    target = setup.tensor_target if general else setup.scalar_target
    rep.extend(cup.check_bb_cocycle(target, result))
    if general and setup.pair_collapse is not None:
        scalar = getattr(cup, _VARIANTS[family][1])(setup, args.p, args.q, left, right)
        collapsed = cup.collapse_bb(result, setup._base.space, setup.pair_collapse)
        rep.add("pairing collapse matches the scalar product",
                collapsed.components == scalar.components,
                "componentwise equality" if collapsed.components == scalar.components
                else "the collapsed components differ from the scalar product")
    _emit(rep, args.format)
    return 0 if rep.passed else 1


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="text",
                        help="report format (default: text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcc",
        description="Verify Hopf-cyclic structures from a JSON spec file, "
                    "compute low-degree cohomology, and evaluate cup products.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="run axiom and identity suites for declared objects")
    check.add_argument("spec", help="path to the JSON spec file")
    check.add_argument("names", nargs="*",
                       help="objects to check (default: everything declared)")
    _add_format(check)
    check.set_defaults(handler=cmd_check)

    cohomology = sub.add_parser(
        "cohomology", help="Hochschild and cyclic cohomology of a construction")
    cohomology.add_argument("spec", help="path to the JSON spec file")
    cohomology.add_argument("construction", help="a declared construction name")
    cohomology.add_argument("--max-degree", type=int, required=True,
                            help="compute dimensions for degrees 0..N")
    _add_format(cohomology)
    cohomology.set_defaults(handler=cmd_cohomology)

    cup = sub.add_parser(
        "cup", help="evaluate a cup product of two declared cochains")
    cup.add_argument("spec", help="path to the JSON spec file")
    cup.add_argument("--variant", required=True,
                     choices=tuple(_VARIANTS),
                     help="product family, scalar or contratensor-valued")
    cup.add_argument("--p", type=int, required=True,
                     help="degree of the left cochain")
    cup.add_argument("--q", type=int, required=True,
                     help="degree of the right cochain")
    cup.add_argument("--left", required=True, help="left cochain name")
    cup.add_argument("--right", required=True, help="right cochain name")
    _add_format(cup)
    cup.set_defaults(handler=cmd_cup)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SpecError, LinAlgError) as exc:
        sys.stderr.write(f"hcc: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
