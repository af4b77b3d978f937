"""Command-line front end: one subcommand per verified claim family.

Every run builds a report dict with the same envelope (schema, command,
parameters, findings, pass) and renders it as JSON, DOT, or a short text
summary.  Reports are deterministic byte for byte; the only run-dependent
quantity, wall time, goes to stderr.  Exit status: 0 when the claims hold,
1 when a claim fails, 2 on usage errors.

Each command imports the layers it reads when it runs: a cold process compiles
only what it imports, so `lemma2` never loads the Sym_6 layers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from collections import Counter, namedtuple

from .errors import IntegrityError
from .perms import Permutation, enumerate_sym, involution_class_size

SCHEMA = "outersix/1"

# Parsed arguments that are not report parameters: the subcommand name and
# the output options.
_NOT_PARAMETERS = ("command", "json", "out", "render")


def _permutation_json(p: Permutation) -> dict:
    return {"images": list(p.images), "cycles": p.cycle_string()}


def _classes(n: int) -> tuple[dict, bool]:
    if not 2 <= n <= 8:
        raise ValueError(f"classes supported for 2 <= n <= 8, got {n}")
    points = list(range(1, n + 1))
    by_j = Counter(  # p(p(k)) == k: p is the identity (j = 0) or an involution
        sum(v != k for k, v in enumerate(p, start=1)) // 2  # half the moved points
        for p in itertools.permutations(points) if [p[v - 1] for v in p] == points
    )
    rows = []
    consistent = True
    for j in range(1, n // 2 + 1):
        size = involution_class_size(n, j)
        counted = by_j[j]
        consistent = consistent and size == counted
        rows.append(
            {"j": j, "fixed_points": n - 2 * j, "size": size, "enumerated": counted}
        )
    return {"rows": rows}, consistent


def _lemma1(n: int) -> tuple[dict, bool]:
    from . import involutions
    found = involutions.maximal_independent_sets(n)
    star_sets = frozenset(involutions.stars(n).values())
    rendered = sorted(sorted(p.cycle_string() for p in members) for members in found)
    findings = {
        "maximal_sets": rendered,
        "count": len(found),
        "sizes": sorted(len(s) for s in found),
        "all_point_stars": found == star_sets,
    }
    return findings, found == star_sets


def _lemma2(n_max: int) -> tuple[dict, bool]:
    from . import involutions
    rows = involutions.lemma2_survey(n_max)
    survivors = [[r["n"], r["j"]] for r in rows if r["status"] == "surviving"]
    expected = [[6, 3]] if n_max >= 6 else []
    return {"rows": rows, "survivors": survivors}, survivors == expected


def _aut(n: int) -> tuple[dict, bool]:
    if not 2 <= n <= 6:
        raise ValueError(f"aut supported for 2 <= n <= 6, got {n}")
    if n == 2:
        return {
            "aut_order": 1,
            "inner_order": 1,
            "out_order": 1,
            "note": "degree 2 is reported by convention; the group is abelian "
            "of order 2 and admits no nontrivial automorphism",
        }, True
    from . import autgroup
    aut = autgroup.enumerate_automorphisms(n)
    _, outer = autgroup.inner_and_outer(n)
    out = autgroup.out_order(n)
    findings = {
        "aut_order": len(aut),
        "inner_order": autgroup.inner_order(n),
        "out_order": out,
        "outer_count": len(outer),
    }
    passed = out == (2 if n == 6 else 1)
    if n == 6:
        involutive = autgroup.involutive_outer_count()
        x_image, y_image = outer[0].generator_images()
        findings["involutive_outer"] = involutive
        findings["sample_outer"] = {
            "image_of_(1,2)": _permutation_json(x_image),
            "image_of_(1,2,3,4,5,6)": _permutation_json(y_image),
        }
        passed = passed and len(aut) == 1440 and involutive == 36
    return findings, passed


def _icosa_labelings() -> dict:
    from . import icosahedron
    table = icosahedron.dual_pair_table()
    model = table.model
    return {
        "vertices": list(model.vertices),
        "antipode": {str(v): model.antipode[v] for v in model.vertices},
        "faces": sorted(sorted(t) for t in model.faces),
        "rotations": len(table.rotations),
        "labelings": len(table.labelings),
        "classes": [
            {
                "index": c,
                "representative": list(table.class_reps[c]),
                "orbit_size": 60,
                "face_triples": sorted(sorted(t) for t in table.class_triples[c]),
            }
            for c in range(12)
        ],
    }


def _icosa_pairs() -> dict:
    from . import icosahedron
    table = icosahedron.dual_pair_table()
    return {
        "antipodal_pairs": [list(p) for p in table.pairs],
        "dual_pairs": [
            {
                "letter": chr(ord("a") + index),
                "classes": list(pair),
                "representatives": [list(table.class_reps[c]) for c in pair],
            }
            for index, pair in enumerate(table.dual_pairs)
        ],
    }


def _icosa_phi() -> dict:
    from . import icosahedron
    table = icosahedron.dual_pair_table()
    return {
        "transposition_images": [
            {"transposition": f"({a},{b})", "image": _permutation_json(image)}
            for (a, b), image in sorted(table.transposition_images().items())
        ],
        "table": [
            {
                "input": _permutation_json(sigma),
                "image": _permutation_json(table.pair_permutation(sigma)),
            }
            for sigma in enumerate_sym(6)
        ],
    }


def _k6_doily() -> dict:
    from . import k6
    k6.check_gq_axioms(k6.doily())
    return {**k6.doily_document(), "axioms": "gq(2,2) verified"}


def _k6_factors() -> dict:
    from . import k6
    factorizations = k6.factorizations()
    return {
        "factors": [
            {
                "edges": [list(e) for e in factor],
                "involution": k6.factor_to_involution(factor).cycle_string(),
                "factorizations": [
                    k for k, fz in enumerate(factorizations) if factor in fz
                ],
            }
            for factor in k6.factors()
        ]
    }


def _k6_factorizations() -> dict:
    from . import k6
    return {
        "factorizations": [
            {
                "index": index,
                "factors": [k6.factor_to_involution(f).cycle_string() for f in fz],
            }
            for index, fz in enumerate(k6.factorizations())
        ]
    }


def _k6_tutte() -> dict:
    from . import k6
    from .graphs import girth, is_bipartite
    graph = k6.tutte_graph()
    return {
        "vertices": graph.n,
        "edges": graph.edge_count(),
        "regular": 3,
        "girth": girth(graph),
        "bipartite": is_bipartite(graph) is not None,
    }


def _doily_dot() -> str:
    from . import k6
    return k6.doily_dot()


def _tutte_dot() -> str:
    from . import k6
    return k6.tutte_dot()


def _verify_all() -> tuple[dict, bool]:
    # Compile the Sym_6 layers now, not on top of the Cayley table's peak RSS.
    from . import correspondence, graphs, icosahedron, k6, verify
    results = verify.run_checks()
    failed = sum(1 for r in results if not r["passed"])
    return {"checks": results, "total": len(results), "failed": failed}, failed == 0


def _classes_text(findings: dict, parameters: dict) -> list[str]:
    return [
        f"degree {parameters['n']}, j={row['j']}: {row['size']} involutions with "
        f"{row['fixed_points']} fixed points (enumerated {row['enumerated']})"
        for row in findings["rows"]
    ]


def _lemma1_text(findings: dict, parameters: dict) -> list[str]:
    return [
        f"{findings['count']} maximal independent sets, sizes "
        f"{findings['sizes']}, all point stars: {findings['all_point_stars']}"
    ]


def _lemma2_text(findings: dict, parameters: dict) -> list[str]:
    lines = [
        f"n={row['n']} j={row['j']}: spectrum {row['spectrum']} {row['status']}"
        for row in findings["rows"]
    ]
    return lines + [f"survivors with j > 1: {findings['survivors']}"]


def _aut_text(findings: dict, parameters: dict) -> list[str]:
    lines = [
        f"|Aut| = {findings['aut_order']}, |Inn| = {findings['inner_order']}, "
        f"|Out| = {findings['out_order']}"
    ]
    if "involutive_outer" in findings:
        lines.append(f"involutive outer automorphisms: {findings['involutive_outer']}")
    return lines


def _verify_all_text(findings: dict, parameters: dict) -> list[str]:
    lines = [
        f"PASS {r['check']}"
        if r["passed"]
        else f"FAIL {r['check']}  ({r['details'].get('error', 'failed')})"
        for r in findings["checks"]
    ]
    passed = findings["total"] - findings["failed"]
    return lines + [f"{passed}/{findings['total']} checks passed"]


# Emit tables: {emit: (build, summarise, DOT renderer or None)}.  Emit
# builders return findings only; their checks raise IntegrityError.
ICOSA_EMITS = {
    "labelings": (
        _icosa_labelings,
        lambda f: [
            f"{f['labelings']} labelings, {len(f['classes'])} rotation classes, "
            f"{f['rotations']} rotations"
        ],
        None,
    ),
    "pairs": (
        _icosa_pairs,
        lambda f: [
            f"pair {p['letter']}: classes {p['classes']}" for p in f["dual_pairs"]
        ],
        None,
    ),
    "phi": (_icosa_phi, lambda f: [f"{len(f['table'])} induced permutations"], None),
}
K6_EMITS = {
    "doily": (
        _k6_doily,
        lambda f: [
            f"{len(f['points'])} points, {len(f['lines'])} lines, {f['axioms']}"
        ],
        _doily_dot,
    ),
    "factors": (_k6_factors, lambda f: [f"{len(f['factors'])} one-factors"], None),
    "factorizations": (
        _k6_factorizations,
        lambda f: [f"{len(f['factorizations'])} one-factorizations"],
        None,
    ),
    "tutte": (
        _k6_tutte,
        lambda f: [f"{f['vertices']} vertices, {f['edges']} edges, girth {f['girth']}"],
        _tutte_dot,
    ),
}


def _dot_emits(emits: dict) -> str:
    return " and ".join(name for name, (_, _, dot) in emits.items() if dot)


# arguments: (flag, add_argument keywords) pairs; emits: the emit table, if any.
Command = namedtuple("Command", "help arguments build summarise emits", defaults=[None])


def _required_int(flag: str, help: str) -> tuple:
    return flag, {"type": int, "required": True, "help": help}


def _by_emit(help: str, emits: dict, *arguments, emit_help=None) -> Command:
    choice = {"choices": tuple(emits), "required": True, "help": emit_help}
    return Command(
        help,
        (("--emit", choice), *arguments),
        lambda emit: (emits[emit][0](), True),
        lambda findings, parameters: emits[parameters["emit"]][1](findings),
        emits,
    )


COMMANDS = {
    "classes": Command(
        "involution class sizes, formula against enumeration",
        [_required_int("--n", "degree, 2 to 8")], _classes, _classes_text,
    ),
    "lemma1": Command(
        "maximal independent transposition sets are point stars",
        [_required_int("--n", "degree, 3 to 7")], _lemma1, _lemma1_text,
    ),
    "lemma2": Command(
        "product-order spectra eliminate all classes but one",
        [_required_int("--n-max", "largest degree surveyed, 4 to 11")],
        _lemma2, _lemma2_text,
    ),
    "aut": Command(
        "enumerate the automorphism group of Sym_n",
        [_required_int("--n", "degree, 2 to 6")], _aut, _aut_text,
    ),
    "icosa": _by_emit(
        "labeled icosahedra and the induced letter permutations", ICOSA_EMITS,
        emit_help="which layer of the construction to report",
    ),
    "k6": _by_emit(
        "edge/factor geometry: doily, factors, factorizations, cage", K6_EMITS,
        ("--format", {"choices": ("json", "dot", "text"), "default": "text",
                      "dest": "render",
                      "help": f"dot is available for {_dot_emits(K6_EMITS)}"}),
    ),
    "verify-all": Command(
        "run every registered check", [], _verify_all, _verify_all_text
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outersix",
        description="verify the exceptional outer automorphism of the "
        "symmetric group on six points, and the absence of any other",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        for flag, options in command.arguments:
            sub.add_argument(flag, **options)
        sub.add_argument(
            "--json", action="store_true", help="emit the full JSON report"
        )
        sub.add_argument("--out", help="write output to this file instead of stdout")
    return parser


def _check_usage(args) -> None:
    """Raise ValueError for an invocation that cannot succeed, before
    anything is computed; judging --out creates no file."""
    if getattr(args, "render", None) == "dot":
        emits = COMMANDS[args.command].emits
        if emits[args.emit][2] is None:
            raise ValueError(
                f"dot output is available for {args.command} {_dot_emits(emits)}"
            )
    if args.out:
        exists = os.path.exists(args.out)
        target = args.out if exists else os.path.dirname(os.path.abspath(args.out))
        if os.path.isdir(args.out) or not os.access(target, os.W_OK):
            raise ValueError(f"cannot write --out file: {args.out}")


def _render(args, report: dict) -> str:
    render = getattr(args, "render", None)
    if render == "dot" and report["pass"]:  # a failed report is shown as text
        return COMMANDS[args.command].emits[args.emit][2]()
    if args.json or render == "json":
        return json.dumps(report, indent=2) + "\n"
    findings = report["findings"]
    if "error" in findings:
        lines = [f"error: {findings['error']}"]
    else:
        lines = COMMANDS[args.command].summarise(findings, report["parameters"])
    return "\n".join(lines + ["PASS" if report["pass"] else "FAIL"]) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    started = time.monotonic()
    try:
        _check_usage(args)
        findings, passed = COMMANDS[args.command].build(**parameters)
    except IntegrityError as error:
        findings, passed = {"error": str(error)}, False
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "parameters": parameters,
        "findings": findings,
        "pass": passed,
    }
    payload = _render(args, report)
    elapsed = time.monotonic() - started
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as error:
            print(f"error: cannot write --out file: {error}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    print(f"wall time: {elapsed:.3f}s", file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
