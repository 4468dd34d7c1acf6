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


def test_commands_refuse_a_market_over_their_limits(capsys, tmp_path, market_text):
    path = tmp_path / "ninety.mkt"
    path.write_text(market_text(30, 10, 3, seed=1))
    for args, what in ((("enumerate",), "enumeration"), (("lattice",), "enumeration"),
                       (("decompose", "--side", "F"), "decomposition")):
        code, out, err = run(capsys, args[0], str(path), *args[1:])
        assert (code, out) == (1, "")
        assert err == f"error: {what} needs universe_size <= 16, got 90\n"


def test_cap_is_a_usage_error_where_nothing_reads_it(capsys):
    # the limits are fixed: no command takes --cap, whatever its value
    for args in (("check", EX2, "--side", "F"), ("solve", EX1), ("enumerate", EX1),
                 ("lattice", EX1), ("compare", EX1, "{a}", "{b}"),
                 ("statics", POLAR2, POLAR2_WEAK, "{a}"), ("lehmann", EX1), ("decompose", EX1)):
        for value in ("0", "99"):
            code, out, err = run(capsys, *args, "--cap", value)
            assert code == 2 and out == ""
            assert err.endswith(f"error: unrecognized arguments: --cap {value}\n")
        assert run(capsys, *args)[0] == 0


def test_negative_cap_is_a_usage_error(capsys):
    # values argparse could not even read as a limit are refused the same way
    for args in (("check", EX2, "--side", "F"), ("enumerate", EX1)):
        for value in ("-1", "x"):
            code, out, err = run(capsys, *args, "--cap", value)
            assert code == 2 and out == ""
            assert err.endswith(f"error: unrecognized arguments: --cap {value}\n")


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


def test_the_audit_limit_is_fixed_at_eight_contracts(capsys, tmp_path, market_text):
    # no flag moves the audit limit of 8 contracts; a 9-contract side is skipped
    path = tmp_path / "nine.mkt"
    path.write_text(market_text(3, 3, 3, seed=1))
    assert run(capsys, "check", str(path), "--side", "F", "--cap", "9")[0] == 2
    code, out, err = run(capsys, "check", str(path), "--side", "F")
    assert (code, err) == (0, "")
    assert out == "PLOTT (exhaustive)\nlehmann: skipped (universe exceeds audit cap)\n"
    code, out, err = run(capsys, "lehmann", str(path), "--side", "F")
    assert (code, out, err) == (0, "lehmann: skipped (universe exceeds audit cap)\n", "")
    code, out, err = run(capsys, "lehmann", str(path), "--side", "F", "--roundtrip")
    assert (code, out) == (1, "lehmann: skipped (universe exceeds audit cap)\n")
    assert err == "error: axiom audit needs universe_size <= 8, got 9\n"
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
    # favoring G swaps the sides only after both are certified, so F is still named
    assert run(capsys, "solve", EX2, "--favor", "G") == (
        1, "", "error: side F is not path-independent\n")


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


def test_lehmann_round_trip_audits_once(capsys, monkeypatch, tmp_path, market_text):
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
    path = tmp_path / "nine.mkt"
    path.write_text(market_text(3, 3, 3, seed=1))
    code, out, err = run(capsys, "lehmann", str(path), "--side", "F", "--roundtrip")
    assert code == 1 and out == "lehmann: skipped (universe exceeds audit cap)\n"
    assert err == "error: axiom audit needs universe_size <= 8, got 9\n"
    assert built == [3]


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


# every command with the extra arguments it needs after its instance file
EXTRA_ARGS = (("check", ()), ("solve", ()), ("enumerate", ()), ("lattice", ()),
              ("compare", ("{a}", "{b}")), ("statics", (POLAR2_WEAK, "{a}")),
              ("lehmann", ()), ("decompose", ()))


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_missing_file_is_a_domain_error(capsys):
    missing = "/nonexistent/market.mkt"
    for command, extra in EXTRA_ARGS:
        code, out, err = run(capsys, command, missing, *extra)
        assert code == 1 and out == ""
        assert _one_error_line(err) and missing in err
    # statics' weakened file is read by the same path, and named alone
    weak = "/nonexistent/weak.mkt"
    code, out, err = run(capsys, "statics", POLAR2, weak, "{a}")
    assert code == 1 and out == ""
    assert _one_error_line(err) and weak in err


def test_non_utf8_input_is_a_domain_error_naming_the_file(capsys, tmp_path):
    path = tmp_path / "bad.mkt"
    path.write_bytes(b"\xff\xfe[firms] f\n")
    runs = [(command, str(path), *extra) for command, extra in EXTRA_ARGS]
    for args in (*runs, ("statics", POLAR2, str(path), "{a}")):
        code, out, err = run(capsys, *args)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path} is not UTF-8 text: ")
        assert _one_error_line(err)


def test_parse_errors_carry_line_numbers(capsys, tmp_path):
    path = tmp_path / "bad.mkt"
    path.write_text("[firms] f1\n[workers] w1\n[contracts]\nx f1 nobody\n")
    code, out, err = run(capsys, "enumerate", str(path))
    assert code == 1
    assert err == "error: line 4: no worker named 'nobody'\n"


def test_explicit_table_over_the_cap_is_refused_at_its_header(capsys, tmp_path):
    ids = [f"c{i}" for i in range(17)]
    path = tmp_path / "wide.mkt"
    path.write_text("[firms] f1\n[workers] w1\n[contracts]\n"
                    + "".join(f"{c} f1 w1\n" for c in ids)
                    + "[choice f1] kind=explicit\n{} -> {}\n"
                    + "[choice w1] kind=order\n" + " ".join(ids) + "\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1 and out == ""
    assert err == "error: agent 'f1': explicit table needs universe_size <= 16, got 17\n"
