"""Command-line front end.

Every command reads an instance file and prints deterministic text: same
invocation, same bytes. Exit codes: 0 on success, 1 on domain errors (one
`error: ...` line on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .choice import (
    ContractSet,
    choice_table,
    decompose_into_orders,
    format_set,
    is_plott,
    parse_set,
)
from .errors import CapExceeded, NotCertified, ParseError, PlottmatchError
from .hyperorders import DerivedLehmann, audit_lehmann_axioms, reconstruct_choice
from .market import MarketInstance, aggregate_sides, parse_instance
from .oracle import enumerate_stable_sets, format_catalog, verify_lattice
from .stability import (
    SemiStablePair,
    format_trace,
    comparative_statics,
    blair_compare_stable,
    is_stable_set,
    run_to_fixpoint,
    side_pair,
)


def _load(path: str) -> MarketInstance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_instance(text)


def _targets(m: MarketInstance, args, *, default_both: bool):
    """Resolve --agent/--side into (prefix, cf, labels) triples."""
    agent, side = args.agent, args.side
    if agent is not None:
        spec = m.spec_of(agent)
        labels = tuple(m.labels[g] for g in spec.block)
        return [(None, spec.cf, labels)]
    sides = aggregate_sides(m, certify=False)
    if side is not None:
        cf = sides.F if side == "F" else sides.G
        return [(None, cf, m.labels)]
    if default_both:
        return [("F", sides.F, m.labels), ("G", sides.G, m.labels)]
    return [(None, sides.G, m.labels)]


SKIPPED = "lehmann: skipped (universe exceeds audit cap)"


def _audit_lines(report, labels) -> list[str]:
    verdicts = " ".join(
        f"{c.name}={'pass' if c.passed else 'fail'}" for c in report.checks)
    lines = [f"lehmann: {verdicts}"]
    for c in report.checks:
        if not c.passed:
            sets = ", ".join(format_set(w, labels) for w in c.witness)
            lines.append(f"lehmann witness {c.name}: {sets}")
    return lines


def cmd_check(args) -> int:
    m = _load(args.instance)
    for prefix, cf, labels in _targets(m, args, default_both=True):
        report = is_plott(cf)
        lines = []
        if report.is_plott:
            lines.append("PLOTT (exhaustive)")
            try:
                audit = audit_lehmann_axioms(DerivedLehmann(cf))
            except CapExceeded:
                lines.append(SKIPPED)
            else:
                lines.extend(_audit_lines(audit, labels))
        elif report.heredity_witness is not None:
            b, a, element = report.heredity_witness
            lines.append(
                f"NOT PLOTT: heredity violated at B={format_set(b, labels)}, "
                f"A={format_set(a, labels)}, element {labels[element]}")
        else:
            x, y = report.outcast_witness
            lines.append(
                f"NOT PLOTT: outcast violated at X={format_set(x, labels)}, "
                f"Y={format_set(y, labels)}")
        for line in lines:
            print(f"{prefix}: {line}" if prefix else line)
    return 0


def cmd_solve(args) -> int:
    m = _load(args.instance)
    sides = aggregate_sides(m)
    sides.require_certified()
    frame = sides if args.favor == "F" else sides.swap()
    n = m.universe_size
    trace = run_to_fixpoint(frame, SemiStablePair(ContractSet.empty(n), ContractSet.full(n)))
    if args.trace:
        print(format_trace(frame, trace, m.labels), end="")
    print(format_set(trace.result.S, m.labels))
    return 0


def cmd_enumerate(args) -> int:
    m = _load(args.instance)
    sides = aggregate_sides(m)
    catalog = enumerate_stable_sets(sides)
    if args.catalog:
        print(format_catalog(catalog, m.labels), end="")
        return 0
    if not catalog.stable_sets:
        print("no stable sets")
        return 0
    for s in catalog.stable_sets:
        print(format_set(s, m.labels))
    return 0


def cmd_lattice(args) -> int:
    m = _load(args.instance)
    sides = aggregate_sides(m)
    sides.require_certified()
    catalog = enumerate_stable_sets(sides)
    report = verify_lattice(catalog, sides, m.labels)
    print(f"stable sets: {report.sets}")
    print(f"bottom: {format_set(catalog.bottom(), m.labels)}")
    print(f"top: {format_set(catalog.top(), m.labels)}")
    for failure in report.failures:
        print(f"mismatch: {failure}")
    if report.passed:
        print(f"lattice OK ({report.sets} sets, {report.pairs_checked} pairs checked)")
    else:
        print(f"lattice FAILED ({len(report.failures)} mismatches)")
    return 0


def cmd_compare(args) -> int:
    m = _load(args.instance)
    sides = aggregate_sides(m)
    sides.require_certified()
    S = parse_set(args.set_a, m.labels, m.universe_size)
    T = parse_set(args.set_b, m.labels, m.universe_size)
    print(blair_compare_stable(sides, S, T))
    return 0


def cmd_statics(args) -> int:
    m = _load(args.instance)
    m2 = _load(args.weakened)
    if m2.labels != m.labels:
        raise ParseError("weakened instance must declare the same contracts")
    sides = aggregate_sides(m)
    sides.require_certified()
    f_prime = aggregate_sides(m2, certify=False).F
    S = parse_set(args.stable_set, m.labels, m.universe_size)
    s_prime = comparative_statics(sides, f_prime, S)
    print(format_set(s_prime, m.labels))
    weakened_sides = side_pair(f_prime, sides.G, certify=False)
    preserved = bool(is_stable_set(weakened_sides, S))
    print(f"preserved: {'yes' if preserved else 'no'}")
    return 0


def cmd_lehmann(args) -> int:
    m = _load(args.instance)
    [(prefix, cf, labels)] = _targets(m, args, default_both=False)
    if not is_plott(cf).is_plott:
        target = f"agent {args.agent}" if args.agent else f"side {args.side or 'G'}"
        raise NotCertified(f"{target} is not path-independent")
    rel = DerivedLehmann(cf)
    try:
        audit = audit_lehmann_axioms(rel)
    except CapExceeded:
        print(SKIPPED)
        if args.roundtrip:
            raise
        return 0
    for line in _audit_lines(audit, labels):
        print(line)
    if args.roundtrip:
        rebuilt = reconstruct_choice(rel)
        total = 1 << cf.universe_size
        bad = int((choice_table(cf) != rebuilt.table).sum())
        if bad == 0:
            print(f"round-trip OK ({total}/{total} subsets)")
        else:
            print(f"round-trip FAILED ({total - bad}/{total} subsets)")
    return 0


def cmd_decompose(args) -> int:
    m = _load(args.instance)
    [(prefix, cf, labels)] = _targets(m, args, default_both=False)
    orders = decompose_into_orders(cf)
    n = cf.universe_size
    full = (1 << n) - 1
    for o in orders:
        line = "order: " + " ".join(labels[i] for i in o.order)
        if o.acceptable_mask != full:
            line += " acceptable=" + format_set(ContractSet(n, o.acceptable_mask), labels)
        print(line)
    total = 1 << n
    print(f"union verified on {total}/{total} subsets")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plottmatch",
        description="Two-sided matching with contracts under "
                    "path-independent choice functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance file")
        p.set_defaults(func=func)
        if name in ("check", "lehmann", "decompose"):
            target = p.add_mutually_exclusive_group()
            target.add_argument("--agent", help="use one agent's own choice function")
            target.add_argument("--side", choices=("F", "G"), help="use one aggregate side")
        return p

    add("check", cmd_check, "verify path independence and Lehmann axioms")

    p = add("solve", cmd_solve, "run the dynamics to a stable set")
    p.add_argument("--favor", choices=("F", "G"), default="F",
                   help="which side the solution is best for")
    p.add_argument("--trace", action="store_true", help="print every step")

    p = add("enumerate", cmd_enumerate, "list every stable set by brute force")
    p.add_argument("--catalog", action="store_true",
                   help="print the full catalog with fingerprint and Blair matrix")

    add("lattice", cmd_lattice, "verify the lattice of stable sets")

    p = add("compare", cmd_compare, "compare two stable sets in the Blair order")
    p.add_argument("set_a", help="first stable set, e.g. '{a}'")
    p.add_argument("set_b", help="second stable set")

    p = add("statics", cmd_statics, "re-solve after weakening the worker side")
    p.add_argument("weakened", help="instance file with the weakened worker side")
    p.add_argument("stable_set", help="stable set of the original instance")

    p = add("lehmann", cmd_lehmann, "audit the Lehmann axioms of one side")
    p.add_argument("--roundtrip", action="store_true",
                   help="rebuild the choice function from the relation and compare")

    add("decompose", cmd_decompose, "write one side as a union of orders")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except PlottmatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
