"""Command-line front end.

Every command reads an instance file, which `main` loads and hands to it,
and prints deterministic text: same invocation, same bytes. Exit codes: 0
on success, 1 on domain errors (one `error: ...` line on stderr, printed
by `main`), 2 on usage errors.
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
    """Resolve --agent/--side into (name, cf, labels) triples."""
    if args.agent is not None:
        spec = m.spec_of(args.agent)
        return [(f"agent {args.agent}", spec.cf, tuple(m.labels[g] for g in spec.block))]
    sides = aggregate_sides(m, certify=False)
    names = (args.side,) if args.side else ("F", "G") if default_both else ("G",)
    return [(f"side {s}", sides.F if s == "F" else sides.G, m.labels) for s in names]


def _audit_lines(cf, labels) -> list[str]:
    """The Lehmann audit of cf: its verdicts and witnesses, or the skip line over the limit."""
    try:
        report = audit_lehmann_axioms(DerivedLehmann(cf))
    except CapExceeded:
        return ["lehmann: skipped (universe exceeds audit cap)"]
    verdicts = " ".join(
        f"{c.name}={'pass' if c.passed else 'fail'}" for c in report.checks)
    lines = [f"lehmann: {verdicts}"]
    for c in report.checks:
        if not c.passed:
            sets = ", ".join(format_set(w, labels) for w in c.witness)
            lines.append(f"lehmann witness {c.name}: {sets}")
    return lines


def cmd_check(m: MarketInstance, args) -> int:
    targets = _targets(m, args, default_both=True)
    for name, cf, labels in targets:
        prefix = f"{name[-1]}: " if len(targets) > 1 else ""  # the side letter, both sides only
        report = is_plott(cf)
        if report.is_plott:
            lines = ["PLOTT (exhaustive)", *_audit_lines(cf, labels)]
        elif report.heredity_witness is not None:
            b, a, element = report.heredity_witness
            lines = [f"NOT PLOTT: heredity violated at B={format_set(b, labels)}, "
                     f"A={format_set(a, labels)}, element {labels[element]}"]
        else:
            x, y = report.outcast_witness
            lines = [f"NOT PLOTT: outcast violated at X={format_set(x, labels)}, "
                     f"Y={format_set(y, labels)}"]
        for line in lines:
            print(prefix + line)
    return 0


def cmd_solve(m: MarketInstance, args) -> int:
    sides = aggregate_sides(m)
    sides.require_certified()  # before swap(), so that a refusal names the side that fails
    frame = sides if args.favor == "F" else sides.swap()
    n = m.universe_size
    trace = run_to_fixpoint(frame, SemiStablePair(ContractSet.empty(n), ContractSet.full(n)))
    if args.trace:
        print(format_trace(frame, trace, m.labels), end="")
    print(format_set(trace.result.S, m.labels))
    return 0


def cmd_enumerate(m: MarketInstance, args) -> int:
    catalog = enumerate_stable_sets(aggregate_sides(m))
    if args.catalog:
        print(format_catalog(catalog, m.labels), end="")
        return 0
    if not catalog.stable_sets:
        print("no stable sets")
        return 0
    for s in catalog.stable_sets:
        print(format_set(s, m.labels))
    return 0


def cmd_lattice(m: MarketInstance, args) -> int:
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


def cmd_compare(m: MarketInstance, args) -> int:
    sides = aggregate_sides(m)
    sides.require_certified()
    S = parse_set(args.set_a, m.labels, m.universe_size)
    T = parse_set(args.set_b, m.labels, m.universe_size)
    print(blair_compare_stable(sides, S, T))
    return 0


def cmd_statics(m: MarketInstance, args) -> int:
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


def cmd_lehmann(m: MarketInstance, args) -> int:
    [(name, cf, labels)] = _targets(m, args, default_both=False)
    if not is_plott(cf).is_plott:
        raise NotCertified(f"{name} is not path-independent")
    print(*_audit_lines(cf, labels), sep="\n")
    if args.roundtrip:  # over the audit limit this raises after the skip line
        rebuilt = reconstruct_choice(DerivedLehmann(cf))
        total = 1 << cf.universe_size
        bad = int((choice_table(cf) != rebuilt.table).sum())
        if bad == 0:
            print(f"round-trip OK ({total}/{total} subsets)")
        else:
            print(f"round-trip FAILED ({total - bad}/{total} subsets)")
    return 0


def cmd_decompose(m: MarketInstance, args) -> int:
    [(_, cf, labels)] = _targets(m, args, default_both=False)
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
        return args.func(_load(args.instance), args)
    except (PlottmatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

if __name__ == "__main__":
    raise SystemExit(main())
