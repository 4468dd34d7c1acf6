from __future__ import annotations

from pathlib import Path

import numpy as np

from plottmatch import OrderChoice, choice_table, hyperorders
from plottmatch.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

EX1 = str(FIXTURES / "ex1.mkt")
EX2 = str(FIXTURES / "ex2.mkt")
ORD3 = str(FIXTURES / "ord3.mkt")
POLAR2 = str(FIXTURES / "polar2.mkt")
POLAR2_WEAK = str(FIXTURES / "polar2_weak.mkt")
QUOTA = str(FIXTURES / "quota.mkt")

AUDIT_OK = "lehmann: L0=pass L1=pass L2=pass L3=pass L4=pass L5=pass transitivity=pass"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_both_sides_of_ex2(capsys):
    code, out, err = run(capsys, "check", EX2)
    assert code == 0 and err == ""
    assert out == (
        "F: NOT PLOTT: heredity violated at B={a,b}, A={b}, element b\n"
        "G: PLOTT (exhaustive)\n"
        f"G: {AUDIT_OK}\n")


def test_check_one_side(capsys):
    code, out, _ = run(capsys, "check", EX2, "--side", "F")
    assert code == 0
    assert out == "NOT PLOTT: heredity violated at B={a,b}, A={b}, element b\n"


def test_check_one_agent(capsys):
    code, out, _ = run(capsys, "check", EX2, "--agent", "worker1")
    assert code == 0
    assert out == "NOT PLOTT: heredity violated at B={a,b}, A={b}, element b\n"
    code, out, _ = run(capsys, "check", QUOTA, "--agent", "firm1")
    assert out == f"PLOTT (exhaustive)\n{AUDIT_OK}\n"


def test_check_outcast_witness_wording(capsys, tmp_path):
    doc = ("[firms] f1\n[workers] w1\n[contracts]\na f1 w1\nb f1 w1\n"
           "[choice f1] kind=explicit\n"
           "{} -> {}\n{a} -> {a}\n{b} -> {}\n{a,b} -> {}\n"
           "[choice w1] kind=order\na b\n")
    path = tmp_path / "outcast.mkt"
    path.write_text(doc)
    code, out, _ = run(capsys, "check", str(path), "--side", "G")
    assert code == 0
    assert out == "NOT PLOTT: outcast violated at X={a,b}, Y={a}\n"


def test_check_cap_overflow_is_a_domain_error(capsys, tmp_path):
    # ord3's firm as an explicit table: only explicit tables are scanned
    rows = ("{} -> {}", "{x} -> {x}", "{y} -> {y}", "{x,y} -> {y}", "{z} -> {z}",
            "{x,z} -> {z}", "{y,z} -> {z}", "{x,y,z} -> {z}")
    doc = ("[firms] firm1\n[workers] worker1\n[contracts]\n"
           "x firm1 worker1\ny firm1 worker1\nz firm1 worker1\n"
           "[choice worker1] kind=order\nx y z\n"
           "[choice firm1] kind=explicit\n" + "\n".join(rows) + "\n")
    path = tmp_path / "ord3_explicit.mkt"
    path.write_text(doc)
    code, out, err = run(capsys, "check", str(path), "--side", "G", "--cap", "2")
    assert code == 1 and out == ""
    assert err == "error: exhaustive check needs universe_size <= 2, got 3\n"
    # the order-kind original scans nothing, so the cap does not bind
    code, out, _ = run(capsys, "check", ORD3, "--side", "G", "--cap", "2")
    assert code == 0 and out.startswith("PLOTT (exhaustive)\n")


def test_cap_zero_is_honoured(capsys):
    code, out, err = run(capsys, "check", EX2, "--side", "F", "--cap", "0")
    assert code == 1 and out == ""
    assert err == "error: exhaustive check needs universe_size <= 0, got 2\n"
    # an order scans nothing, but the audit's cap of 0 does bind
    code, out, _ = run(capsys, "check", ORD3, "--side", "G", "--cap", "0")
    assert code == 0
    assert out == "PLOTT (exhaustive)\nlehmann: skipped (universe exceeds audit cap)\n"
    code, _, err = run(capsys, "enumerate", EX1, "--cap", "0")
    assert code == 1 and err == "error: enumeration needs universe_size <= 0, got 6\n"
    code, _, err = run(capsys, "lattice", EX1, "--cap", "0")
    assert code == 1 and err == "error: enumeration needs universe_size <= 0, got 6\n"
    code, _, err = run(capsys, "lehmann", EX1, "--roundtrip", "--cap", "0")
    assert code == 1 and err == "error: axiom audit needs universe_size <= 0, got 6\n"
    code, _, err = run(capsys, "decompose", EX1, "--cap", "0")
    assert code == 1 and err == "error: decomposition needs universe_size <= 0, got 6\n"


def test_cap_is_a_usage_error_where_nothing_reads_it(capsys):
    for args in (("solve", EX1), ("compare", EX1, "{a}", "{b}"),
                 ("statics", POLAR2, POLAR2_WEAK, "{a}")):
        code, out, err = run(capsys, *args, "--cap", "0")
        assert code == 2 and out == ""
        assert err.endswith("error: unrecognized arguments: --cap 0\n")
        assert run(capsys, *args)[0] == 0


def test_negative_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "check", EX2, "--side", "F", "--cap", "-1")
    assert code == 2 and out == ""
    assert err.endswith("error: argument --cap: must be non-negative, got -1\n")
    assert run(capsys, "enumerate", EX1, "--cap", "x")[0] == 2


def test_check_skips_the_audit_above_its_cap(capsys, tmp_path):
    ids = [f"c{i}" for i in range(9)]
    doc = ("[firms] f1\n[workers] w1\n[contracts]\n"
           + "".join(f"{c} f1 w1\n" for c in ids)
           + "[choice f1] kind=order\n" + " ".join(ids) + "\n"
           + "[choice w1] kind=order\n" + " ".join(ids) + "\n")
    path = tmp_path / "nine.mkt"
    path.write_text(doc)
    code, out, _ = run(capsys, "check", str(path), "--side", "G")
    assert code == 0
    assert out == ("PLOTT (exhaustive)\n"
                   "lehmann: skipped (universe exceeds audit cap)\n")


def test_a_cap_lowers_the_audit_limit_but_never_raises_it(capsys, tmp_path, market_text):
    path = tmp_path / "nine.mkt"
    path.write_text(market_text(3, 3, 3, seed=1))
    code, out, err = run(capsys, "check", str(path), "--side", "F", "--cap", "9")
    assert (code, err) == (0, "")
    assert out == "PLOTT (exhaustive)\nlehmann: skipped (universe exceeds audit cap)\n"
    code, out, err = run(capsys, "lehmann", str(path), "--side", "F", "--cap", "99")
    assert (code, out, err) == (0, "lehmann: skipped (universe exceeds audit cap)\n", "")
    code, _, err = run(capsys, "lehmann", str(path), "--side", "F", "--roundtrip", "--cap", "9")
    assert (code, err) == (1, "error: axiom audit needs universe_size <= 8, got 9\n")
    assert hyperorders._audited.cache_info().misses == 0  # no 4^9 matrix was built


def test_check_is_exact_above_the_table_cap(capsys, tmp_path, market_text):
    path = tmp_path / "mixed24.mkt"
    path.write_text(market_text(8, 6, 3, seed=3, worker_kinds=("order", "explicit", "quota"),
                                firm_kinds=("quota", "utility", "explicit")))
    code, out, err = run(capsys, "check", str(path))
    assert code == 0 and err == ""
    skipped = "lehmann: skipped (universe exceeds audit cap)"
    assert out == (f"F: PLOTT (exhaustive)\nF: {skipped}\n"
                   f"G: PLOTT (exhaustive)\nG: {skipped}\n")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_polar2_both_ways(capsys):
    assert run(capsys, "solve", POLAR2) == (0, "{a}\n", "")
    assert run(capsys, "solve", POLAR2, "--favor", "G") == (0, "{b}\n", "")


def test_solve_polar2_trace(capsys):
    code, out, _ = run(capsys, "solve", POLAR2, "--trace")
    assert code == 0
    assert out == ("step 0: Y={} Z={a,b} F(Z)={a} G(F(Z))={a}\n"
                   "step 1: Y={a} Z={a,b} F(Z)={a} G(F(Z))={a}\n"
                   "{a}\n")


def test_solve_ex1_trace(capsys):
    code, out, _ = run(capsys, "solve", EX1, "--trace")
    assert code == 0
    assert out == ("step 0: Y={} Z={a,b,c,d,e,f} F(Z)={e} G(F(Z))={}\n"
                   "step 1: Y={e} Z={a,b,c,d,f} F(Z)={c} G(F(Z))={c}\n"
                   "step 2: Y={c,e} Z={a,b,c,d,f} F(Z)={c} G(F(Z))={c}\n"
                   "{c}\n")


def test_solve_quota_favoring_the_firm(capsys):
    code, out, _ = run(capsys, "solve", QUOTA, "--favor", "G", "--trace")
    assert code == 0
    assert out == ("step 0: Y={} Z={p,q,r} F(Z)={p,q} G(F(Z))={p}\n"
                   "step 1: Y={p,q} Z={p,r} F(Z)={p,r} G(F(Z))={p}\n"
                   "step 2: Y={p,q,r} Z={p} F(Z)={p} G(F(Z))={p}\n"
                   "{p}\n")


def test_solve_refuses_uncertified_sides(capsys):
    code, out, err = run(capsys, "solve", EX2)
    assert code == 1 and out == ""
    assert err == "error: side F is not path-independent\n"


# ---------------------------------------------------------------------------
# enumerate and lattice
# ---------------------------------------------------------------------------


def test_enumerate_ex1(capsys):
    assert run(capsys, "enumerate", EX1) == (0, "{a}\n{b}\n{c}\n", "")


def test_enumerate_without_stable_sets(capsys):
    assert run(capsys, "enumerate", EX2) == (0, "no stable sets\n", "")


def test_enumerate_catalog(capsys):
    code, out, _ = run(capsys, "enumerate", POLAR2, "--catalog")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("catalog ") and len(lines[0]) == len("catalog ") + 16
    assert lines[1:] == ["universe 2", "stable {a}", "stable {b}",
                         "blair 11", "blair 01"]


def test_lattice_ex1(capsys):
    code, out, _ = run(capsys, "lattice", EX1)
    assert code == 0
    assert out == ("stable sets: 3\n"
                   "bottom: {c}\n"
                   "top: {a}\n"
                   "lattice OK (3 sets, 9 pairs checked)\n")


def test_lattice_polar2(capsys):
    code, out, _ = run(capsys, "lattice", POLAR2)
    assert code == 0
    assert out == ("stable sets: 2\n"
                   "bottom: {a}\n"
                   "top: {b}\n"
                   "lattice OK (2 sets, 4 pairs checked)\n")


# ---------------------------------------------------------------------------
# compare and statics
# ---------------------------------------------------------------------------


def test_compare_verdicts(capsys):
    assert run(capsys, "compare", POLAR2, "{a}", "{b}") == (0, "less\n", "")
    assert run(capsys, "compare", POLAR2, "{b}", "{a}") == (0, "greater\n", "")
    assert run(capsys, "compare", POLAR2, "{a}", "{a}") == (0, "equal\n", "")


def test_compare_rejects_unstable_sets(capsys):
    code, out, err = run(capsys, "compare", POLAR2, "{a,b}", "{a}")
    assert code == 1 and err == "error: set fails S1\n"


def test_compare_rejects_unknown_labels(capsys):
    code, out, err = run(capsys, "compare", POLAR2, "{z}", "{a}")
    assert code == 1 and err == "error: unknown contract label 'z'\n"


def test_statics_weakened(capsys):
    code, out, _ = run(capsys, "statics", POLAR2, POLAR2_WEAK, "{a}")
    assert code == 0
    assert out == "{b}\npreserved: no\n"


def test_statics_identity(capsys):
    code, out, _ = run(capsys, "statics", POLAR2, POLAR2, "{a}")
    assert code == 0
    assert out == "{a}\npreserved: yes\n"


def test_statics_rejects_mismatched_contracts(capsys):
    code, out, err = run(capsys, "statics", POLAR2, ORD3, "{a}")
    assert code == 1
    assert err == "error: weakened instance must declare the same contracts\n"


# ---------------------------------------------------------------------------
# lehmann and decompose
# ---------------------------------------------------------------------------


def test_lehmann_round_trip(capsys):
    code, out, _ = run(capsys, "lehmann", ORD3, "--side", "G", "--roundtrip")
    assert code == 0
    assert out == f"{AUDIT_OK}\nround-trip OK (8/8 subsets)\n"


def test_lehmann_round_trip_audits_once(capsys, monkeypatch):
    built = []

    def counted(rel, n):
        built.append(n)
        return relation_matrix(rel, n)

    relation_matrix = hyperorders._relation_matrix
    monkeypatch.setattr(hyperorders, "_relation_matrix", counted)
    assert main(["lehmann", ORD3, "--side", "G", "--roundtrip"]) == 0
    assert capsys.readouterr().out == f"{AUDIT_OK}\nround-trip OK (8/8 subsets)\n"
    assert built == [3]
    # above the audit cap the skip line comes first, then the round trip's error
    code, out, err = run(capsys, "lehmann", EX1, "--roundtrip", "--cap", "0")
    assert code == 1 and out == "lehmann: skipped (universe exceeds audit cap)\n"
    assert err == "error: axiom audit needs universe_size <= 0, got 6\n"
    assert run(capsys, "lehmann", EX1, "--cap", "0")[:2] == (
        0, "lehmann: skipped (universe exceeds audit cap)\n")


def test_lehmann_defaults_to_the_firm_side(capsys):
    code, out, _ = run(capsys, "lehmann", EX2)
    assert code == 0
    assert out == f"{AUDIT_OK}\n"


def test_lehmann_refuses_non_plott_targets(capsys):
    code, _, err = run(capsys, "lehmann", EX2, "--side", "F")
    assert code == 1 and err == "error: side F is not path-independent\n"
    code, _, err = run(capsys, "lehmann", EX2, "--agent", "worker1")
    assert code == 1 and err == "error: agent worker1 is not path-independent\n"


def test_decompose_quota(capsys):
    code, out, _ = run(capsys, "decompose", QUOTA, "--agent", "firm1")
    assert code == 0
    assert out == ("order: q r p\n"
                   "order: p r q\n"
                   "union verified on 8/8 subsets\n")


def test_decompose_marks_restricted_acceptance(capsys):
    code, out, _ = run(capsys, "decompose", EX1, "--side", "F")
    assert code == 0
    assert out == ("order: e c b f a d acceptable={a,b,c,e,f}\n"
                   "union verified on 64/64 subsets\n")


def test_decompose_a_twelve_contract_quota_agent(capsys, tmp_path):
    ids = [f"c{i}" for i in range(12)]
    doc = ("[firms] f1\n[workers] w1\n[contracts]\n"
           + "".join(f"{c} f1 w1\n" for c in ids)
           + "[choice f1] kind=quota q=3\n" + " ".join(ids) + "\n"
           + "[choice w1] kind=order\n" + " ".join(ids) + "\n")
    path = tmp_path / "quota12.mkt"
    path.write_text(doc)
    code, out, err = run(capsys, "decompose", str(path), "--agent", "f1")
    assert code == 0 and err == ""
    *lines, last = out.splitlines()
    assert last == "union verified on 4096/4096 subsets"
    orders = [line.removeprefix("order: ").split() for line in lines]
    assert orders and all(sorted(o) == sorted(ids) for o in orders)
    # every order picks one of the three best of X, and together they pick all three
    union = np.zeros(1 << 12, dtype=np.int64)
    for o in orders:
        union |= choice_table(OrderChoice(12, tuple(ids.index(c) for c in o)))
    assert np.array_equal(union, choice_table(OrderChoice(12, tuple(range(12)), 3)))


def test_decompose_defaults_to_the_firm_side(capsys):
    code, out, _ = run(capsys, "decompose", ORD3)
    assert code == 0
    assert out == "order: z y x\nunion verified on 8/8 subsets\n"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "solve")[0] == 2
    assert run(capsys, "bogus", POLAR2)[0] == 2
    assert run(capsys, "check", POLAR2, "--agent", "firm1", "--side", "F")[0] == 2
    assert run(capsys, "solve", POLAR2, "--favor", "X")[0] == 2


def test_agent_and_side_only_where_a_target_is_read(capsys):
    for command in ("check", "lehmann", "decompose"):
        assert run(capsys, command, POLAR2, "--side", "F")[0] == 0
        assert run(capsys, command, POLAR2, "--agent", "firm1")[0] == 0
        code, _, err = run(capsys, command, POLAR2, "--agent", "firm1", "--side", "F")
        assert code == 2 and "not allowed with argument" in err
    for args in (("solve", POLAR2), ("enumerate", POLAR2), ("lattice", POLAR2),
                 ("compare", POLAR2, "{a}", "{b}"), ("statics", POLAR2, POLAR2_WEAK, "{a}")):
        for flag in (("--agent", "firm1"), ("--side", "F")):
            code, out, err = run(capsys, *args, *flag)
            assert code == 2 and out == ""
            assert err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")


def test_missing_file_is_a_domain_error(capsys):
    code, out, err = run(capsys, "solve", "/nonexistent/market.mkt")
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_non_utf8_input_is_a_domain_error_naming_the_file(capsys, tmp_path):
    path = tmp_path / "bad.mkt"
    path.write_bytes(b"\xff\xfe[firms] f\n")
    for args in (("solve", str(path)), ("statics", POLAR2, str(path), "{a}")):
        code, out, err = run(capsys, *args)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path} is not UTF-8 text: ")
        assert err.count("\n") == 1 and err.endswith("\n")


def test_parse_errors_carry_line_numbers(capsys, tmp_path):
    path = tmp_path / "bad.mkt"
    path.write_text("[firms] f1\n[workers] w1\n[contracts]\nx f1 nobody\n")
    code, out, err = run(capsys, "enumerate", str(path))
    assert code == 1
    assert err == "error: line 4: no worker named 'nobody'\n"
