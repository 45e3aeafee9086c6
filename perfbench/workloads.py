"""The benchmark's four workloads: seeded inputs, job lists and oracles.

`WORKLOADS[name](seed, root)` is the set-up: it generates every input from
the seed (relabelled group tables, the grouplike sigma, rational multiples,
perturbation coordinates, the CLI spec file) and returns the job list.  Each
pass then runs the jobs in order; a job's `run` is timed, its `check`
compares the result with an oracle or a recorded reference and is not
timed.  The engine only ever sees the generated inputs.  Every seed gives
the same amount of work, so seeds add no spread.

Oracles.  Q[G] is semisimple (Maschke), so for a group algebra
HH^0 = Q^{#conjugacy classes}, HH^n = 0 for n > 0, HC^{2k} = Q^{#classes}
and HC^{odd} = 0 (Burghelea 1985; Loday, Cyclic Homology).  The classes are
counted here from the multiplication table.  Sweedler's algebra and the
equivariant towers have no closed form in this benchmark; their dimensions
are regression references recorded from the engine, labelled as such.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import hopfcyclic as hc
from hopfcyclic import cocyclic

from tracer import CLOCK

HERE = Path(__file__).resolve().parent

# Regression references: dimensions the engine gave when the benchmark was
# defined.  They are not oracles; a change here must be explained.
REFERENCES = {
    # plain cochains of sweedler4 at cap 3
    ("plain", "sweedler4"): ([2, 1, 1], [2, 1, 2]),
    # equivariant towers over Z/3 with a grouplike sigma of order 3, cap 3
    ("coalgebra", "Z/3"): ([0, 0, 0], [0, 0, 0]),
    ("algebra_module", "Z/3"): ([3, 0, 0], [3, 0, 3]),
    ("comodule_algebra", "Z/3"): ([1, 0, 0], [1, 0, 1]),
    ("algebra_contra", "Z/3"): ([3, 0, 0], [3, 0, 3]),
    # equivariant towers over sweedler4 with sigma = g, cap 2
    ("coalgebra", "sweedler4"): ([0, 1], [0, 1]),
    ("algebra_module", "sweedler4"): ([2, 0], [2, 0]),
    ("comodule_algebra", "sweedler4"): ([0, 1], [0, 1]),
    ("algebra_contra", "sweedler4"): ([2, 0], [2, 0]),
}


class CheckFailed(Exception):
    """A job's result differs from its oracle or reference."""


@dataclass
class Job:
    name: str
    layer: str                                   # module the job calls into
    run: Callable[["PassContext"], object]       # timed
    # untimed: (result, pass context) -> None, or what is wrong
    check: Optional[Callable[[object, "PassContext"], Optional[str]]] = None
    # jobs with the same operation repeat identical work; their times are
    # samples of one another
    operation: Optional[str] = None


class PassContext(dict):
    """Results of earlier jobs in the pass, by job name."""

    def __init__(self, traced: bool):
        super().__init__()
        self.traced = traced
        self.child_dumps = []    # tracer dumps written by traced CLI children


@dataclass
class Workload:
    name: str
    why: str
    jobs: list
    subprocess_rss: bool = False  # peak memory is that of the largest child
    calibration: str = "fraction"  # the worker.CALIBRATIONS loop jobs are timed against
    inputs: dict = field(default_factory=dict)  # seeded choices, for the record


# -- seeded inputs ------------------------------------------------------------


def relabel(table, rng: random.Random):
    """The same group with its elements renumbered by a seeded permutation."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out, perm


def klein_four_table():
    return [[i ^ j for j in range(4)] for i in range(4)]


def rational(rng: random.Random) -> Fraction:
    """A nonzero rational with numerator and denominator of about 12 digits."""
    num = rng.randrange(10 ** 11, 10 ** 12) * rng.choice((1, -1))
    return Fraction(num, rng.randrange(10 ** 11, 10 ** 12))


def conjugacy_classes(table) -> int:
    n = len(table)
    e = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
    inv = [next(j for j in range(n) if table[i][j] == e) for i in range(n)]
    seen, classes = set(), 0
    for x in range(n):
        if x not in seen:
            classes += 1
            seen.update(table[table[g][x]][inv[g]] for g in range(n))
    return classes


def group_dims(table, count: int):
    """Closed-form (HH, HC) dimensions of Q[G] in degrees 0..count-1."""
    k = conjugacy_classes(table)
    return ([k] + [0] * (count - 1),
            [k if n % 2 == 0 else 0 for n in range(count)])


def grouplike_sigma(h, rng: random.Random) -> int:
    """A seeded choice among the non-unit grouplike basis elements sigma whose
    coefficients pass the SAYD and compatibility checkers."""
    dim = h.dim
    unit = h.unit.column(0)
    candidates = []
    for b in range(dim):
        if unit[b] == 1:
            continue
        col = h.comul.column(b)
        grouplike = h.counit.entry(0, b) == 1 and all(
            col[k] == (1 if k == b * dim + b else 0) for k in range(dim * dim))
        if not grouplike:
            continue
        pair = hc.grouplike_coefficients(h, b)
        if (hc.check_sayd_module(pair.module).passed
                and hc.check_sayd_contramodule(pair.contramodule).passed
                and hc.check_compatible_pair(pair).passed):
            candidates.append(b)
    return rng.choice(candidates)


# -- checks -------------------------------------------------------------------


def report_passes(report, ctx=None) -> Optional[str]:
    if report.passed:
        return None
    bad = report.first_failure()
    return f"{report.title}: {bad.name} failed {bad.detail}".strip()


def expect_dim(expected: int, source: str):
    def check(result, ctx) -> Optional[str]:
        if result.dim != expected:
            return f"dim {result.dim}, {source} says {expected}"
        return None
    return check


def expect_true(what: str):
    def check(result, ctx) -> Optional[str]:
        return None if result is True else f"{what} does not hold"
    return check


def digest(value) -> str:
    """A printable summary of a job result, compared between passes and
    between traced and untraced runs."""
    if isinstance(value, hc.Report):
        return json.dumps(value.as_dict(), sort_keys=True)
    if isinstance(value, cocyclic.CohomologyResult):
        return f"{value.degree}:{value.dim}:{[list(map(str, r)) for r in value.representatives]}"
    if isinstance(value, hc.BBcocycle):
        return f"{value.degree}:{[list(map(str, c)) for c in value.components]}"
    if isinstance(value, hc.CocyclicModule):
        return f"tower cap {value.degree_cap}: {[s.dim for s in value.spaces]}"
    if isinstance(value, (bool, int, str, tuple, list)):
        return repr(value)
    return type(value).__name__  # cup setups and total complexes


# -- identities -----------------------------------------------------------------

IDENTITIES_WHY = (
    "plain towers whose identity checks are dense products with no elimination; "
    "the largest maps, so also the memory signal")


def identities(seed: int, root: Path) -> Workload:
    rng = random.Random(f"identities:{seed}")
    carriers = []
    tables = {}
    for label, table, cap in (("Z/2", hc.cyclic_group_table(2), 7),
                              ("Z/4", hc.cyclic_group_table(4), 3),
                              ("Z/3", hc.cyclic_group_table(3), 4)):
        table, _ = relabel(table, rng)
        tables[label] = table
        carriers.append((label, hc.group_algebra(table), cap))
    carriers.insert(2, ("sweedler4", hc.sweedler_h4(), 3))
    jobs = []
    for label, h, cap in carriers:
        tower = f"build {label} cap {cap}"
        jobs += [
            Job(f"axioms {label}", "hopf",
                lambda ctx, h=h: hc.check_hopf_axioms(h), report_passes),
            Job(tower, "cocyclic",
                lambda ctx, h=h, cap=cap: hc.plain_algebra_cocyclic(h.algebra, degree_cap=cap)),
            Job(f"verify {label} cap {cap}", "cocyclic",
                lambda ctx, tower=tower, label=label: hc.verify_cocyclic(ctx[tower], label),
                report_passes),
        ]
    return Workload("identities", IDENTITIES_WHY, jobs, calibration="int64",
                    inputs={"tables": tables})


# -- cohomology -----------------------------------------------------------------

COHOMOLOGY_WHY = (
    "HH/HC and mixed-complex laws on plain and all four equivariant towers: "
    "the same linear algebra used for elimination")


def _cohomology_jobs(label, build, cap, hh, hc_dims, source):
    tower = f"build {label} cap {cap}"
    jobs = [Job(tower, "cocyclic", build)]
    for n in range(cap):
        jobs.append(Job(f"HH^{n} {label}", "cocyclic",
                        lambda ctx, n=n: hc.hochschild_cohomology(ctx[tower], n),
                        expect_dim(hh[n], source)))
        jobs.append(Job(f"HC^{n} {label}", "cocyclic",
                        lambda ctx, n=n: hc.cyclic_cohomology(ctx[tower], n),
                        expect_dim(hc_dims[n], source)))
    jobs.append(Job(f"mixed complex {label}", "cocyclic",
                    lambda ctx: cocyclic.check_mixed_complex(
                        cocyclic.mixed_complex(ctx[tower]), label),
                    report_passes))
    return jobs


def _equivariant(h, sigma):
    pair = hc.grouplike_coefficients(h, sigma)
    coalgebra = hc.ModuleCoalgebra(h, h.space, h.comul, h.counit, hc.left_regular_action(h))
    adjoint = hc.ModuleAlgebra(h, h.space, h.mul, h.unit, hc.adjoint_action(h))
    comodule = hc.ComoduleAlgebra(h, h.space, h.mul, h.unit, hc.regular_coaction(h))
    return (("coalgebra", lambda cap: hc.coalgebra_cocyclic(coalgebra, pair.module, cap).module),
            ("algebra_module", lambda cap: hc.algebra_module_cocyclic(adjoint, pair.module, cap).module),
            ("comodule_algebra", lambda cap: hc.comodule_algebra_cocyclic(comodule, pair.module, cap).module),
            ("algebra_contra", lambda cap: hc.algebra_contra_cocyclic(adjoint, pair.contramodule, cap).module))


def cohomology(seed: int, root: Path) -> Workload:
    rng = random.Random(f"cohomology:{seed}")
    jobs, inputs = [], {}
    for label, table, cap in (("Z/2", hc.cyclic_group_table(2), 6),
                              ("Z/3", hc.cyclic_group_table(3), 4),
                              ("Z/4", hc.cyclic_group_table(4), 3),
                              ("S3", hc.symmetric_group_table(3), 2)):
        table, _ = relabel(table, rng)
        inputs[label] = table
        algebra = hc.group_algebra(table).algebra
        hh, hc_dims = group_dims(table, cap)
        jobs += _cohomology_jobs(
            f"plain {label}",
            lambda ctx, a=algebra, cap=cap: hc.plain_algebra_cocyclic(a, degree_cap=cap),
            cap, hh, hc_dims, "the closed form")
    sweedler = hc.sweedler_h4()
    hh, hc_dims = REFERENCES[("plain", "sweedler4")]
    jobs += _cohomology_jobs(
        "plain sweedler4",
        lambda ctx: hc.plain_algebra_cocyclic(sweedler.algebra, degree_cap=3),
        3, hh, hc_dims, "the regression reference")
    z3_table, _ = relabel(hc.cyclic_group_table(3), rng)
    z3 = hc.group_algebra(z3_table)
    for label, h, cap in (("Z/3", z3, 3), ("sweedler4", sweedler, 2)):
        sigma = grouplike_sigma(h, rng)
        inputs[f"sigma over {label}"] = h.space.labels[sigma]
        for kind, build in _equivariant(h, sigma):
            hh, hc_dims = REFERENCES[(kind, label)]
            jobs += _cohomology_jobs(
                f"{kind} {label}", lambda ctx, build=build, cap=cap: build(cap),
                cap, hh, hc_dims, "the regression reference")
    inputs["Z/3 for equivariant towers"] = z3_table
    return Workload("cohomology", COHOMOLOGY_WHY, jobs, inputs=inputs)


# -- cup ------------------------------------------------------------------------

CUP_WHY = (
    "the paper's cup products on the Z/2 sign algebra: matrix-vector products, "
    "cyclic completion and the comparison maps")

CUP_CAP = 4      # the (2, 1) product needs total degree 3 below the cap
CHECK_CAP = 3    # comparison-map and total-complex checks


def _sign_algebra(rng: random.Random):
    """Z/2 acting on its own group algebra by the sign of g, relabelled."""
    table, perm = relabel(hc.cyclic_group_table(2), rng)
    labels = [None, None]
    for canonical, name in enumerate(("1", "g")):
        labels[perm[canonical]] = name
    z2 = hc.group_algebra(table, labels=labels)
    entries = [(perm[a], perm[h] * 2 + perm[a], -1 if (h, a) == (1, 1) else 1)
               for h in range(2) for a in range(2)]
    action = hc.LinearMap.from_entries(hc.tensor_space(z2.space, z2.space), z2.space,
                                       entries)
    algebra = hc.ModuleAlgebra(z2, z2.space, z2.mul, z2.unit, action)
    coalgebra = hc.ModuleCoalgebra(z2, z2.space, z2.comul, z2.counit,
                                   hc.left_regular_action(z2))
    comodule = hc.ComoduleAlgebra(z2, z2.space, z2.mul, z2.unit, hc.regular_coaction(z2))
    return (z2, algebra, coalgebra, hc.CoalgebraAction(coalgebra, algebra, action),
            comodule, table)


def _cocycle(module, degree, scale):
    """`scale` times the first basis vector of the cyclic cocycles."""
    basis = hc.cyclic_cocycle_subspace(module, degree).basis
    if basis.source.dim == 0:
        raise CheckFailed(f"no cyclic cocycle in degree {degree}")
    return [scale * x for x in basis.column(0)]


def _perturbed(module, degree, vec, coords):
    """`vec` plus the coboundary of a seeded cyclic cochain of degree - 1."""
    lam = cocyclic.lambda_operator(module, degree - 1)
    fixed = cocyclic.subspace_from_kernel(
        hc.LinearMap.identity(module.spaces[degree - 1]) - lam)
    chain = fixed.basis.apply([coords[k % len(coords)] for k in range(fixed.dim)])
    shift = cocyclic.full_b(module, degree - 1).apply(chain)
    return [a + b for a, b in zip(vec, shift)]


def cup_workload(seed: int, root: Path) -> Workload:
    rng = random.Random(f"cup:{seed}")
    z2, algebra, coalgebra, action, comodule, table = _sign_algebra(rng)
    sigma = grouplike_sigma(z2, rng)
    pair = hc.grouplike_coefficients(z2, sigma)
    scales = [rational(rng) for _ in range(5)]
    shifts = [rational(rng) for _ in range(4)]
    inputs = {"table": table, "sigma": z2.space.labels[sigma],
              "scales": [str(x) for x in scales], "shifts": [str(x) for x in shifts]}

    ac = lambda ctx: ctx["ac setup"]
    aa = lambda ctx: ctx["aa setup"]
    jobs = [
        Job("ac setup", "cup", lambda ctx: hc.ac_cup_setup(
            algebra, coalgebra, action, pair, degree_cap=CUP_CAP)),
        Job("aa setup", "cup", lambda ctx: hc.aa_cup_setup(
            algebra, comodule, pair, degree_cap=CUP_CAP)),
        Job("ac inputs", "cup", lambda ctx: (
            _cocycle(ac(ctx).algebra_cochains.module, 1, scales[0]),
            _cocycle(ac(ctx).coalgebra_cochains.module, 1, scales[1]))),
        Job("aa inputs", "cup", lambda ctx: (
            _cocycle(aa(ctx).comodule_cochains.module, 0, scales[2]),
            _cocycle(aa(ctx).comodule_cochains.module, 2, scales[3]),
            _cocycle(aa(ctx).algebra_cochains.module, 1, scales[4]))),
        Job("cup_ac (1,1)", "cup", lambda ctx: hc.cup_ac(ac(ctx), 1, 1, *ctx["ac inputs"])),
        Job("cup_ac_general (1,1)", "cup",
            lambda ctx: hc.cup_ac_general(ac(ctx), 1, 1, *ctx["ac inputs"])),
        Job("cup_aa (0,1)", "cup", lambda ctx: hc.cup_aa(
            aa(ctx), 0, 1, ctx["aa inputs"][0], ctx["aa inputs"][2])),
        Job("cup_aa_general (0,1)", "cup", lambda ctx: hc.cup_aa_general(
            aa(ctx), 0, 1, ctx["aa inputs"][0], ctx["aa inputs"][2])),
        Job("cup_aa (2,1)", "cup", lambda ctx: hc.cup_aa(
            aa(ctx), 2, 1, ctx["aa inputs"][1], ctx["aa inputs"][2])),
        Job("cup_aa_general (2,1)", "cup", lambda ctx: hc.cup_aa_general(
            aa(ctx), 2, 1, ctx["aa inputs"][1], ctx["aa inputs"][2])),
    ]
    for key, target in (("cup_ac (1,1)", lambda ctx: ac(ctx).scalar_target),
                        ("cup_ac_general (1,1)", lambda ctx: ac(ctx).tensor_target),
                        ("cup_aa (0,1)", lambda ctx: aa(ctx).scalar_target),
                        ("cup_aa_general (0,1)", lambda ctx: aa(ctx).tensor_target),
                        ("cup_aa (2,1)", lambda ctx: aa(ctx).scalar_target),
                        ("cup_aa_general (2,1)", lambda ctx: aa(ctx).tensor_target)):
        jobs.append(Job(f"cocycle check {key}", "cup",
                        lambda ctx, key=key, target=target: hc.check_bb_cocycle(
                            target(ctx), ctx[key]),
                        report_passes))
    jobs += [
        Job("collapse ac (1,1)", "cup",
            lambda ctx: hc.collapse_bb(ctx["cup_ac_general (1,1)"],
                                       ac(ctx).algebra.space, ac(ctx).pair_collapse).components
            == ctx["cup_ac (1,1)"].components,
            expect_true("collapse of the general ac product equals the scalar one")),
        Job("collapse aa (0,1)", "cup",
            lambda ctx: hc.collapse_bb(ctx["cup_aa_general (0,1)"],
                                       aa(ctx).crossed.space, aa(ctx).pair_collapse).components
            == ctx["cup_aa (0,1)"].components,
            expect_true("collapse of the general aa product equals the scalar one")),
        Job("perturbed cup_ac (1,1)", "cup", lambda ctx: hc.cup_ac(
            ac(ctx), 1, 1,
            _perturbed(ac(ctx).algebra_cochains.module, 1, ctx["ac inputs"][0], shifts[:2]),
            _perturbed(ac(ctx).coalgebra_cochains.module, 1, ctx["ac inputs"][1], shifts[2:]))),
        Job("cohomologous ac (1,1)", "cup", lambda ctx: hc.bb_cohomologous(
            ac(ctx).scalar_target, ctx["perturbed cup_ac (1,1)"], ctx["cup_ac (1,1)"]),
            expect_true("perturbed inputs give a cohomologous ac product")),
        Job("perturbed cup_aa (0,1)", "cup", lambda ctx: hc.cup_aa(
            aa(ctx), 0, 1, ctx["aa inputs"][0],
            _perturbed(aa(ctx).algebra_cochains.module, 1, ctx["aa inputs"][2], shifts))),
        Job("cohomologous aa (0,1)", "cup", lambda ctx: hc.bb_cohomologous(
            aa(ctx).scalar_target, ctx["perturbed cup_aa (0,1)"], ctx["cup_aa (0,1)"]),
            expect_true("perturbed inputs give a cohomologous aa product")),
        # comparison maps, total complex and AW map at the smaller cap
        Job("ac setup cap 3", "cup", lambda ctx: hc.ac_cup_setup(
            algebra, coalgebra, action, pair, degree_cap=CHECK_CAP)),
        Job("aa setup cap 3", "cup", lambda ctx: hc.aa_cup_setup(
            algebra, comodule, pair, degree_cap=CHECK_CAP)),
        Job("check_psi", "cup", lambda ctx: hc.check_psi(ctx["ac setup cap 3"]),
            report_passes),
        Job("check_psi tensor", "cup",
            lambda ctx: hc.check_psi(ctx["ac setup cap 3"], tensor_valued=True),
            report_passes),
        Job("check_phi", "cup", lambda ctx: hc.check_phi(ctx["aa setup cap 3"]),
            report_passes),
        Job("check_phi tensor", "cup",
            lambda ctx: hc.check_phi(ctx["aa setup cap 3"], tensor_valued=True),
            report_passes),
        Job("collapse factorization ac", "cup",
            lambda ctx: hc.check_collapse_factorization(ctx["ac setup cap 3"]),
            report_passes),
        Job("collapse factorization aa", "cup",
            lambda ctx: hc.check_collapse_factorization(ctx["aa setup cap 3"]),
            report_passes),
        Job("total complex", "cup",
            lambda ctx: hc.total_complex(ctx["ac setup cap 3"].bicomplex)),
        Job("total complex laws", "cup",
            lambda ctx: hc.check_total_mixed_complex(ctx["total complex"]),
            report_passes),
        Job("AW chain map", "cup", lambda ctx: hc.check_aw_chain_map(
            ctx["total complex"], ctx["ac setup cap 3"].diagonal_module),
            report_passes),
    ]
    return Workload("cup", CUP_WHY, jobs, inputs=inputs)


# -- cli ------------------------------------------------------------------------

CLI_WHY = (
    "hcc commands as child processes: start-up, spec parsing, commands and "
    "report output; linear algebra is a small share")


def _seeded_spec(rng: random.Random):
    """An explicit, relabelled group-algebra table of order 4 with a plain
    construction; the seed picks the group and the relabelling."""
    name, table = rng.choice((("Z/4", hc.cyclic_group_table(4)),
                              ("Z/2xZ/2", klein_four_table())))
    table, _ = relabel(table, rng)
    n = len(table)
    labels = [f"u{i}" for i in range(n)]
    e = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
    inv = [next(j for j in range(n) if table[i][j] == e) for i in range(n)]
    hopf = {
        "basis": labels,
        "mul": [[[labels[table[i][j]]], [labels[i], labels[j]], 1]
                for i in range(n) for j in range(n)],
        "unit": [1 if i == e else 0 for i in range(n)],
        "comul": [[[labels[i], labels[i]], [labels[i]], 1] for i in range(n)],
        "counit": [[[], [labels[i]], 1] for i in range(n)],
        "antipode": [[[labels[inv[i]]], [labels[i]], 1] for i in range(n)],
    }
    spec = {"hopf_algebras": {"seeded": hopf},
            "constructions": {"seeded-plain": {"type": "plain", "algebra": "seeded",
                                               "degree_cap": 3}}}
    return name, table, spec


def _report(stdout: str):
    data = json.loads(stdout)
    return {entry["name"]: entry for entry in data["checks"]}, data["passed"]


def _passed_report(result, ctx=None) -> Optional[str]:
    code, stdout = result
    if code != 0:
        return f"exit code {code}"
    _, passed = _report(stdout)
    return None if passed else "the report does not pass"


def _dims_report(count: int, hh, hc_dims):
    def check(result, ctx) -> Optional[str]:
        problem = _passed_report(result)
        if problem:
            return problem
        entries, _ = _report(result[1])
        for kind, dims in (("HH", hh), ("HC", hc_dims)):
            for n in range(count):
                detail = entries[f"{kind}^{n}"]["detail"]
                if not detail.startswith(f"dim {dims[n]}") or \
                        detail[len(f"dim {dims[n]}"):][:1] not in ("", ";"):
                    return f"{kind}^{n}: {detail!r}, the closed form says dim {dims[n]}"
        return None
    return check


def _equals(expected: str):
    def check(result, ctx) -> Optional[str]:
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        return None if stdout == expected else "output differs from the reference report"
    return check


def run_hcc(root: Path, argv, ctx: PassContext):
    """Run one hcc command in a child process; (exit code, stdout)."""
    env = dict(os.environ)
    env.pop("HCC_MAX_DEGREE", None)
    env["PYTHONPATH"] = str(root / "src")
    if ctx.traced:
        spans = HERE / "runs" / f"child-{os.getpid()}.json"
        command = [sys.executable, str(HERE / "cli_entry.py"), str(spans), *argv]
        env["PERFBENCH_SPAWN"] = repr(CLOCK())
    else:
        command = [sys.executable, "-m", "hopfcyclic.cli", *argv]
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    if ctx.traced:
        ctx.child_dumps.append(json.loads(spans.read_text(encoding="utf-8")))
        spans.unlink()
    return done.returncode, done.stdout


def cli_workload(seed: int, root: Path) -> Workload:
    rng = random.Random(f"cli:{seed}")
    group, table, spec = _seeded_spec(rng)
    work = HERE / "runs"
    work.mkdir(exist_ok=True)
    spec_path = work / f"seeded-spec-{seed}.json"
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    golden = (root / "tests" / "data" / "catalog_report.json").read_text(encoding="utf-8")
    demo = root / "demo"
    point = group_dims([[0]], 4)
    z2 = group_dims(hc.cyclic_group_table(2), 3)
    seeded = group_dims(table, 3)
    commands = [
        ("check builtin_catalog", ["check", str(demo / "builtin_catalog.json")],
         _equals(golden)),
        ("check z2_cup", ["check", str(demo / "z2_cup.json")], _passed_report),
        ("cohomology point-algebra",
         ["cohomology", str(demo / "plain_rationals.json"), "point-algebra",
          "--max-degree", "3"], _dims_report(4, *point)),
        ("cohomology z2-algebra",
         ["cohomology", str(demo / "plain_rationals.json"), "z2-algebra",
          "--max-degree", "2"], _dims_report(3, *z2)),
        ("cup ac", ["cup", str(demo / "z2_cup.json"), "--variant", "ac", "--p", "1",
                    "--q", "1", "--left", "phi", "--right", "omega"], _passed_report),
        ("cup ac-general", ["cup", str(demo / "z2_cup.json"), "--variant", "ac-general",
                            "--p", "1", "--q", "1", "--left", "phi", "--right", "omega"],
         _passed_report),
        ("cup aa-general", ["cup", str(demo / "z2_cup.json"), "--variant", "aa-general",
                            "--p", "0", "--q", "1", "--left", "psi0", "--right", "phi1"],
         _passed_report),
        ("check seeded spec", ["check", str(spec_path)], _passed_report),
        ("cohomology seeded spec",
         ["cohomology", str(spec_path), "seeded-plain", "--max-degree", "2"],
         _dims_report(3, *seeded)),
    ]
    jobs = []
    for label, argv, check in commands:
        argv = argv + ["--format", "json"]
        first = f"{label} (run 1)"
        jobs.append(Job(first, "cli", lambda ctx, argv=argv: run_hcc(root, argv, ctx), check,
                        operation=label))
        jobs.append(Job(f"{label} (run 2)", "cli",
                        lambda ctx, argv=argv: run_hcc(root, argv, ctx),
                        lambda result, ctx, first=first, check=check:
                            _same_as(ctx[first], result) or check(result, ctx),
                        operation=label))
    return Workload("cli", CLI_WHY, jobs, subprocess_rss=True, calibration="process",
                    inputs={"group": group, "table": table, "spec": str(spec_path.name)})


def _same_as(first, result) -> Optional[str]:
    return None if first == result else "two runs of the same command differ"


WORKLOADS = {
    "identities": identities,
    "cohomology": cohomology,
    "cup": cup_workload,
    "cli": cli_workload,
}
