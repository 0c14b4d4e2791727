import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import syzygy
from syzygy.cli import main


def _child_env():
    """The environment of a CLI child process, with this package first on its path."""
    src = str(Path(syzygy.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_json_schema(capsys):
    code, out, _ = run(capsys, "betti", "--g", "5", "--char", "0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"g", "char", "betti", "methods", "duality_ok",
                            "version"}
    assert payload["g"] == 5
    assert payload["betti"][1][1] == 3
    assert payload["betti"][2][2] == 3
    assert payload["duality_ok"] is True


def test_betti_table_format(capsys):
    code, out, _ = run(capsys, "betti", "--g", "3", "--char", "0")
    assert code == 0
    assert "duality_ok: True" in out


def test_betti_char2(capsys):
    code, out, _ = run(capsys, "betti", "--g", "7", "--char", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    row1 = [payload["betti"][i][1] for i in range(1, 6)]
    assert row1 == [15, 40, 45, 24, 5]
    assert payload["duality_ok"] is None


def test_determinism_byte_identical(capsys):
    a = run(capsys, "chow", "--n", "4", "--char", "3", "--samples", "25",
            "--seed", "7", "--format", "json")
    b = run(capsys, "chow", "--n", "4", "--char", "3", "--samples", "25",
            "--seed", "7", "--format", "json")
    assert a == b
    assert a[0] == 0


def test_csv_layout(capsys):
    code, out, _ = run(capsys, "betti", "--g", "4", "--char", "0",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,j,value,method"
    assert "1,1,1,delta2" in lines


def test_weyman_report(capsys):
    code, out, _ = run(capsys, "weyman", "--a", "5", "--char", "0",
                       "--q", "0..3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    dims = {row["q"]: row["dim"] for row in payload["dims"]}
    assert dims == {0: 6, 1: 16, 2: 21, 3: 0}
    assert all(row["equal"] for row in payload["dims"])


def test_weyman_a7_meets_the_hilbert_bound(capsys):
    code, out, _ = run(capsys, "weyman", "--a", "7", "--char", "0",
                       "--q", "0..4", "--format", "json")
    assert code == 0
    rows = json.loads(out)["dims"]
    assert [row["dim"] for row in rows] == [15, 64, 162, 288, 330]
    assert all(row["dim"] == row["bound"] and row["equal"] for row in rows)


def test_weyman_char2_exit_code(capsys):
    code, _, err = run(capsys, "weyman", "--a", "4", "--char", "2")
    assert code == 2
    assert "characteristic 2" in err


def test_weyman_a2_all_zero(capsys):
    code, out, _ = run(capsys, "weyman", "--a", "2", "--char", "7",
                       "--q", "0..2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(row["dim"] == 0 for row in payload["dims"])


def test_weyman_reversed_range_rejected(capsys):
    code, out, err = run(capsys, "weyman", "--a", "5", "--char", "3",
                         "--q", "3..1", "--format", "json")
    assert code == 2
    assert out == "" and "3..1" in err


def test_vacuous_sample_and_suite_counts_rejected(capsys):
    for argv in (("koszul-resonance", "--n", "4", "--char", "5", "--samples", "-1"),
                 ("koszul-resonance", "--n", "4", "--char", "5", "--samples", "0"),
                 ("chow", "--n", "4", "--char", "3", "--samples", "-1"),
                 ("selfcheck", "--g-max", "2"),
                 ("selfcheck", "--g-max", "-5")):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 2, argv
        assert out == "" and err.startswith("error: need --"), argv


def test_negative_budget_rejected(capsys):
    argv = ("koszul-resonance", "--n", "7", "--char", "2", "--samples", "2")
    code, out, err = run(capsys, *argv, "--budget", "-1", "--format", "json")
    assert code == 2
    assert out == "" and err.startswith("error: need --budget")
    # budget 0 skips the point search and stays valid
    code, out, _ = run(capsys, "koszul-resonance", "--n", "4", "--char", "5",
                       "--samples", "3", "--budget", "0", "--format", "json")
    assert code == 0 and sum(json.loads(out)["counts"].values()) == 3


def test_koszul_resonance_n3(capsys):
    code, out, _ = run(capsys, "koszul-resonance", "--n", "3", "--m", "3",
                       "--char", "5", "--samples", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["trivial"] == 10


def test_koszul_resonance_full_k(capsys):
    # m = dim Wedge^2 V: the module vanishes identically
    code, out, _ = run(capsys, "koszul-resonance", "--n", "4", "--m", "6",
                       "--char", "5", "--samples", "8", "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"]["trivial"] == 8


def test_chow_reports_agreement(capsys):
    code, out, _ = run(capsys, "chow", "--n", "4", "--char", "2",
                       "--samples", "30", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["disagreements"] == 0


def test_hermite_pass_and_print(capsys):
    code, out, _ = run(capsys, "hermite", "--d", "4", "--i", "3", "--char", "2")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "hermite", "--d", "0", "--i", "5", "--char", "0")
    assert code == 0
    assert "x^4 ^ x^3 ^ x^2 ^ x ^ 1" in out


def test_hermite_verdict_does_not_depend_on_the_field(capsys):
    # the squares are integer identities, decided once over Z: --char is
    # validated and reported, and changes nothing else
    for d, i in ((4, 3), (3, 3), (6, 2), (0, 5)):
        payloads = []
        for p in (0, 2, 3, 5, 101):
            code, out, _ = run(capsys, "hermite", "--d", str(d), "--i", str(i),
                               "--char", str(p), "--format", "json")
            payload = json.loads(out)
            assert code == 0 and payload.pop("char") == p, (d, i, p)
            payloads.append(list(payload.items()))      # in printed order
        assert all(p == payloads[0] for p in payloads), (d, i, payloads)
        assert dict(payloads[0])["pass"] is True, (d, i)


def test_guard_exit_code(capsys):
    code, _, err = run(capsys, "betti", "--g", "13", "--char", "0")
    assert code == 3
    assert "guard" in err.lower()
    code, _, _ = run(capsys, "betti-oracle", "--g", "9", "--char", "2")
    assert code == 3


def test_guard_hint_names_the_flag(capsys):
    code, _, err = run(capsys, "betti-oracle", "--g", "8", "--char", "0")
    assert code == 3
    assert err.startswith("resource guard: g=8") and "--override-guard" in err, err


def test_flags_a_subcommand_does_not_read_are_rejected(capsys):
    for argv in (("hermite", "--d", "2", "--i", "2", "--seed", "1"),
                 ("weyman", "--a", "5", "--override-guard"),
                 ("selfcheck", "--char", "3")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "unrecognized arguments" in err, argv


def test_invalid_characteristic(capsys):
    code, _, err = run(capsys, "betti", "--g", "4", "--char", "6")
    assert code == 2


def test_invalid_subcommand(capsys):
    assert main(["nonsense"]) == 2


def test_selfcheck_small(capsys):
    code, out, _ = run(capsys, "selfcheck", "--g-max", "4")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_selfcheck_guard_exits_before_any_suite(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "selfcheck", "--g-max", "13")
    assert time.perf_counter() - start < 2
    assert code == 3
    assert out == "" and err.startswith("resource guard: g=13"), err


def test_betti_oracle_report(capsys):
    code, out, _ = run(capsys, "betti-oracle", "--g", "4", "--char", "0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kij"]["1,1"] == 1
    assert payload["kij"]["1,2"] == 1
    assert payload["ring_dims"]["2"] == 14


def test_golden_outputs(capsys):
    # every printed number of a few fast jobs, recorded with `version`
    # removed; a refactor that changes any of them fails here
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    for job in golden:
        code, out, _ = run(capsys, *job["argv"], "--format", "json")
        payload = json.loads(out)
        payload.pop("version")
        assert (code, payload) == (job["exit"], job["payload"]), job["argv"]


def test_negative_m_rejected(capsys):
    for m in ("-1", "11"):
        code, out, err = run(capsys, "koszul-resonance", "--n", "5", "--m", m,
                             "--char", "3", "--format", "json")
        assert code == 2
        assert out == "" and err.startswith("error: need 0 <= --m <= "), err


def test_integer_flag_past_ssize_t_rejected(capsys):
    # each value gives a space past int64 positions (or overflows a C
    # ssize_t) before anything is allocated; a value that still fits would
    # allocate instead, so none is tried here
    for argv in (("weyman", "--a", "3", "--q", "99999999999999999999"),
                 ("hermite", "--d", "99999999999999999999", "--i", "1"),
                 ("betti", "--g", "99999999999999999999", "--override-guard")):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_betti_past_int64_exits_before_allocating():
    # the first delta2 source of g = 10^9 still fits int64 (dim ~1.5e18),
    # the second does not; the table's g - 1 rows would need ~100 GB, so
    # under a 1 GB address-space cap, set in the child alone, an
    # allocation before the check of every delta2 is a MemoryError
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    done = subprocess.run([sys.executable, "-m", "syzygy.cli", "betti", "--g", "1000000000",
                           "--override-guard", "--format", "json"],
                          env=_child_env(), preexec_fn=cap, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and done.stderr.startswith("error: "), done.stderr
    assert done.stderr.count("\n") == 1, done.stderr


def test_hermite_at_large_degree_builds_psi_without_deep_recursion():
    # psi(d, i) reads psi(d - 1, i); built one call per degree, d = 2000
    # passed the interpreter's recursion limit
    done = subprocess.run([sys.executable, "-m", "syzygy.cli", "hermite", "--d", "2000",
                           "--i", "0", "--format", "json"],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
    assert json.loads(done.stdout)["pass"] is True


def test_out_of_memory_exits_with_the_guard_code():
    # over GF(2) only delta2(g, 1) is checked before the table's g - 1
    # rows are allocated; under a 1 GB address-space cap, set in the
    # child alone, that list is a MemoryError, which ends in one error
    # line and exit 3, with no traceback
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    done = subprocess.run([sys.executable, "-m", "syzygy.cli", "betti", "--g", "1000000000",
                           "--char", "2", "--override-guard"],
                          env=_child_env(), preexec_fn=cap, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr and done.stdout == "", done.stderr
    assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1
