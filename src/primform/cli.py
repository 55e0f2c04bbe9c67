"""Command-line surface: catalog info, end-to-end prepotential computation,
record verification, and Berglund-Huebsch transposition.

All structured output is canonical JSON (sorted keys, exact rationals as
"p/q" strings), so repeated runs are byte-identical.  Exit code 0 means
every check that ran passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import (
    format_rational,
    mono_str,
    parse_basis,
    parse_polynomial,
    parse_rational,
)
from .catalog import EXCEPTIONAL_NAMES, load_catalog
from .frobenius import prepotential, prepotential_record, verify_record
from .milnor import WeightedPolynomial, central_charge, infer_weights, milnor_basis
from .mirror import InvertiblePolynomial, diagonal_symmetries, transpose
from .primitive import build_unfolding, defect_is_zero, solve_star


def _infer_variable_order(text: str) -> list[str]:
    """The names in text in order of first use.  A name is a run of letters,
    digits and "_" that does not start with a digit, such as x_1; a run
    that starts with a digit, such as 1e3, is a number."""
    runs = "".join(ch if ch.isalpha() or ch.isdigit() or ch == "_" else " " for ch in text)
    return list(dict.fromkeys(run for run in runs.split() if not run[0].isdigit()))


def _resolve_target(args, catalog):
    """The name, variables, polynomial and weights of the target: a catalog
    entry by --singularity, or --poly with --vars and --weights, whose
    weights are None when not given.  An option given as '' is read as
    given, and rejected where it is parsed, never as absent."""
    weights = getattr(args, "weights", None)  # mirror has no --weights
    if args.singularity is not None:
        if (args.poly, args.vars, weights) != (None, None, None):
            raise ValueError("--singularity excludes --poly, --vars and --weights")
        entry = catalog.get(args.singularity)
        if entry is None:
            raise ValueError(f"unknown singularity {args.singularity!r}")
        return entry.name, entry.variables, entry.poly, entry.weights
    if args.poly is None:
        raise ValueError("pass --singularity NAME or --poly EXPRESSION")
    variables = args.vars.split(",") if args.vars is not None else _infer_variable_order(args.poly)
    if not variables:
        raise ValueError("could not infer variables; pass --vars")
    poly = parse_polynomial(args.poly, variables)
    if weights is not None:
        return args.poly, variables, poly, [parse_rational(w) for w in weights.split(",")]
    return args.poly, variables, poly, None


def _emit(record: dict, args) -> None:
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.format == "json" and args.output is None:
        sys.stdout.write(text)


def _human_eta(eta) -> str:
    return "\n".join("  [" + ", ".join(row) + "]" for row in eta)


def cmd_info(args) -> int:
    name, variables, poly, weights = _resolve_target(args, load_catalog(args.catalog))
    f = WeightedPolynomial(variables, weights or infer_weights(poly), poly)
    data = milnor_basis(f)
    record = {
        "kind": "singularity-info",
        "name": name,
        "polynomial": f.render(),
        **data.record_fields(),
        "milnor_number": data.mu,
        "basis_degrees": [format_rational(d) for d in data.degrees],
        "socle": mono_str(data.socle, f.variables),
    }
    _emit(record, args)
    if args.format == "human":
        print(f"{name}: {record['polynomial']}")
        print(f"  weights: {', '.join(record['weights'])}")
        print(f"  central charge: {record['central_charge']}")
        print(f"  milnor number: {record['milnor_number']}")
        print(f"  basis: {', '.join(record['basis'])}")
        print(f"  socle: {record['socle']}")
        print("  residue pairing:")
        print(_human_eta(record["eta"]))
    return 0


def cmd_compute(args) -> int:
    name, variables, poly, weights = _resolve_target(args, load_catalog(args.catalog))
    f = WeightedPolynomial(variables, weights or infer_weights(poly), poly)
    basis = parse_basis(args.basis.split(","), f.variables) if args.basis is not None else None
    data = milnor_basis(f, basis=basis)
    result = solve_star(build_unfolding(f, data, args.order))

    checks = {}
    if args.check_defect:
        checks["defect"] = "pass" if defect_is_zero(result) else "fail"
    frob = prepotential(result, data)
    record = prepotential_record(data, frob, name, checks)
    # The verdicts are those of `primform verify` on the record written.
    for check_name, report in verify_record(record).items():
        if report is None:
            checks[check_name] = "vacuous"
        else:
            checks[check_name] = "pass" if report.passed else "fail"
    _emit(record, args)
    if args.format == "human":
        names = [f"t{i + 1}" for i in range(data.mu)]
        print(f"{name}: prepotential through total degree {args.order}")
        print(f"  flat coordinate degrees: {', '.join(record['flat_degrees'])}")
        for mono, coeff in frob.prepotential.sorted_terms():
            print(f"  {format_rational(coeff)} * {mono_str(mono, names)}")
        print(f"  checks: {checks}")
    failed = [k for k, v in checks.items() if v == "fail"]
    if failed:
        print(f"error: failing checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.record, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        print(f"error: cannot read record: {exc}", file=sys.stderr)
        return 1
    try:
        reports = verify_record(record)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed record: {exc!r}", file=sys.stderr)
        return 1
    ok = True
    for check_name, report in reports.items():
        if report is None:
            print(f"{check_name}: vacuous")
            continue
        state = "pass" if report.passed else "FAIL"
        print(f"{check_name}: {state} ({report.checked} checks)")
        for violation in report.violations[:10]:
            print(f"  violation: {violation}")
        ok = ok and report.passed
    return 0 if ok else 1


def _invertible_catalog_index(catalog) -> dict:
    """The name of the first invertible entry that holds each polynomial."""
    index = {}
    for entry in catalog.values():
        try:
            w = InvertiblePolynomial.from_poly(entry.poly, entry.variables)
        except ValueError:
            continue
        index.setdefault(w.atoms, entry.name)
    return index


def cmd_mirror(args) -> int:
    catalog = load_catalog(args.catalog)
    name, variables, poly, _ = _resolve_target(args, catalog)
    try:
        w = InvertiblePolynomial.from_poly(poly, variables)
    except ValueError as exc:
        print(f"error: not an invertible polynomial: {exc}", file=sys.stderr)
        return 1
    wt = transpose(w)
    weights = WeightedPolynomial(variables, infer_weights(poly), poly).weights
    group = diagonal_symmetries(w)
    record = {
        "kind": "mirror-info",
        "name": name,
        "polynomial": w.render(),
        "variables": list(w.variables),
        "exponent_matrix": [list(row) for row in w.exponent_matrix],
        "transpose_polynomial": wt.render(),
        "transpose_name": _invertible_catalog_index(catalog).get(wt.atoms),
        "weights": [format_rational(q) for q in weights],
        "central_charge": format_rational(central_charge(weights)),
        "aut_order": group.order,
        "aut_generator_orders": list(group.generator_orders),
        "aut_generators": [[format_rational(g) for g in gen] for gen in group.generators],
        # j_W = q mod 1 is the weights themselves, since 0 < q <= 1/2.
        "j_w": [format_rational(q) for q in weights],
    }
    _emit(record, args)
    if args.format == "human":
        print(f"{name}: {record['polynomial']}")
        print(f"  transpose: {record['transpose_polynomial']}"
              + (f" ({record['transpose_name']})" if record["transpose_name"] else ""))
        print(f"  weights: {', '.join(record['weights'])}")
        print(f"  central charge: {record['central_charge']}")
        print(f"  |Aut|: {record['aut_order']}")
        print(f"  j_W: ({', '.join(record['j_w'])})")
    return 0


def cmd_catalog_selftest(args) -> int:
    catalog = load_catalog(args.catalog)
    names = _invertible_catalog_index(catalog)
    failures = 0
    for entry in catalog.values():
        # An entry the engine rejects fails on its own; the rest still run.
        try:
            f = entry.weighted_polynomial()
            data = milnor_basis(f)
        except (ValueError, ArithmeticError) as exc:
            print(f"{entry.name}: FAIL: {exc}")
            failures += 1
            continue
        problems = []
        c_hat = central_charge(f.weights)
        if entry.expected_central_charge is not None and c_hat != entry.expected_central_charge:
            problems.append(
                f"central charge {format_rational(c_hat)} != "
                f"{format_rational(entry.expected_central_charge)}"
            )
        if entry.expected_milnor_number is not None and data.mu != entry.expected_milnor_number:
            problems.append(f"milnor number {data.mu} != {entry.expected_milnor_number}")
        if entry.name in EXCEPTIONAL_NAMES:
            subscript = int(entry.name[1:])
            if data.mu != subscript:
                problems.append(f"milnor number {data.mu} != type subscript {subscript}")
        try:
            w = InvertiblePolynomial.from_poly(entry.poly, entry.variables)
        except ValueError:
            w = None
        if w is not None:
            first = names[w.atoms]
            if first != entry.name:
                problems.append(f"same polynomial as {first}")
            partner = names.get(transpose(w).atoms)
            if entry.expected_transpose is not None and partner != entry.expected_transpose:
                problems.append(f"transpose {partner!r} != {entry.expected_transpose!r}")
        elif entry.expected_transpose is not None:
            problems.append(
                f"transpose {entry.expected_transpose!r} expected, "
                "but the polynomial is not invertible"
            )
        status = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print(f"{entry.name}: {status}")
        failures += bool(problems)
    print(f"{len(catalog) - failures}/{len(catalog)} entries ok")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and each build leaves cyclic garbage behind."""
    parser = argparse.ArgumentParser(
        prog="primform",
        description=(
            "Exact primitive forms, flat coordinates, and prepotentials for "
            "weighted homogeneous singularities"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target_flags(p, format_default="human", weights=True):
        p.add_argument("--singularity", help="catalog entry name, e.g. U12")
        p.add_argument("--poly", help="inline polynomial, e.g. 'x^3+y^7'")
        p.add_argument("--vars", help="comma-separated variable order for --poly")
        if weights:
            p.add_argument("--weights", help="comma-separated weights, e.g. '1/3,1/7'")
        p.add_argument("--catalog", help="catalog file path (or set PRIMFORM_CATALOG)")
        p.add_argument("--format", choices=("json", "human"), default=format_default)
        p.add_argument("--output", help="write the canonical JSON record to this path")

    p_info = sub.add_parser("info", help="weights, central charge, basis, pairing")
    add_target_flags(p_info)
    p_info.set_defaults(func=cmd_info)

    p_compute = sub.add_parser("compute", help="run the full prepotential pipeline")
    add_target_flags(p_compute, format_default="json")
    p_compute.add_argument(
        "--order",
        type=int,
        default=4,
        help="s-order (default 4; term counts grow like C(mu+N-1, N))",
    )
    p_compute.add_argument(
        "--basis", help="comma-separated monomial basis, e.g. '1,z,x,y,z^2,...'"
    )
    p_compute.add_argument(
        "--check-defect",
        action="store_true",
        help="also re-verify exp((F-f)/z) zeta = J at z^-2 and above by full reduction",
    )
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="re-run checks on a stored record")
    p_verify.add_argument("record", help="path to a prepotential record")
    p_verify.set_defaults(func=cmd_verify)

    p_mirror = sub.add_parser("mirror", help="transpose, weights, diagonal symmetries")
    # The weights of an invertible polynomial follow from its exponent matrix.
    add_target_flags(p_mirror, weights=False)
    p_mirror.set_defaults(func=cmd_mirror)

    p_selftest = sub.add_parser(
        "catalog-selftest", help="check every catalog entry against its expectations"
    )
    p_selftest.add_argument("--catalog", help="catalog file path")
    p_selftest.set_defaults(func=cmd_catalog_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
