import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from outersix import cli, involutions, k6, verify
from outersix.cli import main
from outersix.errors import IntegrityError
from outersix.perms import enumerate_sym


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--json"])
    return code, json.loads(out), err


def test_report_envelope(capsys):
    code, report, _ = run_json(capsys, ["classes", "--n", "4"])
    assert code == 0
    assert report["schema"] == "outersix/1"
    assert report["command"] == "classes"
    assert report["parameters"] == {"n": 4}
    assert report["pass"] is True
    assert set(report) == {"schema", "command", "parameters", "findings", "pass"}


def test_wall_time_goes_to_stderr_not_stdout(capsys):
    code, out, err = run_cli(capsys, ["classes", "--n", "3", "--json"])
    assert code == 0
    assert "wall time" in err
    assert "wall time" not in out


def test_classes_degree_six(capsys):
    _, report, _ = run_json(capsys, ["classes", "--n", "6"])
    rows = report["findings"]["rows"]
    assert [(r["j"], r["fixed_points"], r["size"]) for r in rows] == [
        (1, 4, 15),
        (2, 2, 45),
        (3, 0, 15),
    ]
    assert all(r["size"] == r["enumerated"] for r in rows)


def test_classes_degree_two(capsys):
    _, report, _ = run_json(capsys, ["classes", "--n", "2"])
    assert report["findings"]["rows"] == [
        {"j": 1, "fixed_points": 0, "size": 1, "enumerated": 1}
    ]


@pytest.mark.parametrize("n", range(2, 8))
def test_classes_enumerated_matches_a_cycle_type_count(n, capsys):
    types = Counter(p.cycle_type() for p in enumerate_sym(n))
    _, report, _ = run_json(capsys, ["classes", "--n", str(n)])
    assert [r["enumerated"] for r in report["findings"]["rows"]] == [
        types[(2,) * j + (1,) * (n - 2 * j)] for j in range(1, n // 2 + 1)
    ]


def test_lemma1_reports_stars(capsys):
    code, report, _ = run_json(capsys, ["lemma1", "--n", "4"])
    assert code == 0
    findings = report["findings"]
    assert findings["count"] == 4
    assert findings["all_point_stars"] is True
    assert sorted(findings["maximal_sets"][0]) == findings["maximal_sets"][0]


def test_lemma2_below_six_has_no_survivors(capsys):
    code, report, _ = run_json(capsys, ["lemma2", "--n-max", "5"])
    assert code == 0
    assert report["findings"]["survivors"] == []
    assert report["pass"] is True


def test_lemma2_through_seven(capsys):
    code, report, _ = run_json(capsys, ["lemma2", "--n-max", "7"])
    assert code == 0
    assert report["findings"]["survivors"] == [[6, 3]]
    statuses = {row["status"] for row in report["findings"]["rows"]}
    assert statuses == {"surviving", "eliminated"}


def test_aut_degree_six(capsys):
    code, report, _ = run_json(capsys, ["aut", "--n", "6"])
    assert code == 0
    findings = report["findings"]
    assert findings["aut_order"] == 1440
    assert findings["inner_order"] == 720
    assert findings["out_order"] == 2
    assert findings["involutive_outer"] == 36
    image = findings["sample_outer"]["image_of_(1,2)"]
    assert len(image["images"]) == 6


def test_aut_degree_two_is_reported_by_convention(capsys):
    code, report, _ = run_json(capsys, ["aut", "--n", "2"])
    assert code == 0
    assert report["findings"]["out_order"] == 1
    assert "note" in report["findings"]


def test_icosa_phi_table(capsys):
    _, report, _ = run_json(capsys, ["icosa", "--emit", "phi"])
    findings = report["findings"]
    assert len(findings["table"]) == 720
    assert len(findings["transposition_images"]) == 15
    first = findings["transposition_images"][0]
    assert first["transposition"] == "(1,2)"
    assert first["image"]["cycles"].count("(") == 3


def test_icosa_labelings_shape(capsys):
    _, report, _ = run_json(capsys, ["icosa", "--emit", "labelings"])
    findings = report["findings"]
    assert findings["labelings"] == 720
    assert findings["rotations"] == 60
    assert len(findings["classes"]) == 12
    assert all(len(c["face_triples"]) == 10 for c in findings["classes"])


def test_icosa_pairs_letters(capsys):
    _, report, _ = run_json(capsys, ["icosa", "--emit", "pairs"])
    pairs = report["findings"]["dual_pairs"]
    assert [p["letter"] for p in pairs] == list("abcdef")
    covered = sorted(c for p in pairs for c in p["classes"])
    assert covered == list(range(12))


def test_k6_doily_json(capsys):
    _, report, _ = run_json(capsys, ["k6", "--emit", "doily"])
    findings = report["findings"]
    assert len(findings["points"]) == 15
    assert len(findings["lines"]) == 15
    assert len(findings["incidence"]) == 45


def test_k6_tutte_json(capsys):
    _, report, _ = run_json(capsys, ["k6", "--emit", "tutte"])
    findings = report["findings"]
    assert findings == {
        "vertices": 30,
        "edges": 45,
        "regular": 3,
        "girth": 8,
        "bipartite": True,
    }


def test_k6_dot_output(capsys):
    code, out, _ = run_cli(capsys, ["k6", "--emit", "tutte", "--format", "dot"])
    assert code == 0
    assert out.startswith("graph tutte_eight_cage {")
    assert out.rstrip().endswith("}")
    assert out.count(" -- ") == 45
    code, doily, _ = run_cli(capsys, ["k6", "--emit", "doily", "--format", "dot"])
    assert code == 0
    assert doily.startswith("graph doily {")


def test_dot_rejected_for_list_emits(capsys):
    code, _, err = run_cli(capsys, ["k6", "--emit", "factors", "--format", "dot"])
    assert code == 2
    assert "dot" in err


@pytest.mark.parametrize("n", [1, 7])
def test_aut_names_its_degree_range(n, capsys):
    code, out, err = run_cli(capsys, ["aut", "--n", str(n)])
    assert (code, out) == (2, "")
    assert err == f"error: aut supported for 2 <= n <= 6, got {n}\n"


def test_out_of_range_degree_is_a_usage_error(capsys):
    assert run_cli(capsys, ["classes", "--n", "9"])[0] == 2
    assert run_cli(capsys, ["lemma1", "--n", "2"])[0] == 2
    assert run_cli(capsys, ["aut", "--n", "7"])[0] == 2


def test_bad_choice_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["icosa", "--emit", "nonsense"])
    assert info.value.code == 2
    capsys.readouterr()


def test_json_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, ["lemma2", "--n-max", "6", "--json"])
    _, second, _ = run_cli(capsys, ["lemma2", "--n-max", "6", "--json"])
    assert first == second


# Exit code and SHA-256 of stdout for every subcommand, emit target and
# format.  The report bytes are the CLI's contract: a refactor must leave
# them unchanged, and only a deliberate change to a report may re-record a
# digest here.
PINNED_REPORTS = [
    ("classes --n 6 --json", 0,
     "e976f983dbc5de5f5beb9ae0f704c658ecdfdae4dd33b2c8529e526db8c085f0"),
    ("lemma1 --n 5 --json", 0,
     "318e7578427a96bb73fe257e5b1090b8551f6d20399b7d9cff72570dc6ebfc27"),
    ("lemma2 --n-max 7 --json", 0,
     "83674a5be4b9931fb815c3f8662f40d6eea3bb87478bda8b37b007ac91251403"),
    ("aut --n 2 --json", 0,
     "a4ce2bb3168e05e266f195a2dab1f572c4a624354715115cec174ce078822c5e"),
    ("aut --n 5 --json", 0,
     "bda5aef768cb90a30450813ae92b600c07e6bcb78ea2fac0c7a2bdcff119a2bf"),
    ("aut --n 6 --json", 0,
     "35265a435d45f7cdc28dd7c644072a3146062ef0d59ef19de13c1366752effff"),
    ("icosa --emit labelings --json", 0,
     "adf0c2879e3a1736c9519b16868671d626f879a32a94114c60e422728d3e66d7"),
    ("icosa --emit pairs --json", 0,
     "4a817343953c5cb5b632e874519daad9242507fcb605d7d4f14b1cd3858292d7"),
    ("icosa --emit phi --json", 0,
     "537120ea500700030afff82f2279cbb079209dfbcc0a0fba0c5937b76e1386d6"),
    ("k6 --emit doily --json", 0,
     "201ea4a22ac33615819d129ac2bd91a1eb6dbed63c8de8ca1f72baadec0cd73b"),
    ("k6 --emit factors --json", 0,
     "155b44d7182ccd29543b3025eaba0b5a4ef9312c05c430c506702b4782e59f4f"),
    ("k6 --emit factorizations --json", 0,
     "54174bba65a72f0feb4dc00def73cae3adb1888a8fc6ff25c693cf0beb7d7ea5"),
    ("k6 --emit tutte --json", 0,
     "2c437fc371825c5c5ebac46f2dcb6e14cf2cd53f57e363c1e62de7638b601328"),
    ("verify-all --json", 0,
     "e0240c2f18fe6a19b749bf12faefcd1e17c09bc5ac377e7d4e0f7d22cf358ece"),
    ("classes --n 6", 0,
     "f356b326ff779783e08b19df416572656c95daa4c424758194141cd7542bbecc"),
    ("lemma1 --n 5", 0,
     "373ac801d045964e91ba9a9b30ef359a609e5f1cfc4a253206c5285a223b8725"),
    ("lemma2 --n-max 7", 0,
     "ac5cdceb8d6fd8ec0a7778136d1c34fb82835530a10189880bd937ccc8dd645b"),
    ("aut --n 2", 0,
     "5a2cd003f706f878af8d042c1bee63c11b027f00dcc7b6e8c21b9b6248c175f7"),
    ("aut --n 5", 0,
     "1fdb0806f2813a2ab4af09dc0034b6d6c52f36b3b0ae7f52fac8b134bd8c4064"),
    ("aut --n 6", 0,
     "a922ae8a0451e57bf2f624df21e662c5c049e6badc08dc13422736878b441551"),
    ("icosa --emit labelings", 0,
     "457bedeccdf8a1f02eb8d1786729da0008ae2a86561f2cd1398fca3c4630ed60"),
    ("icosa --emit pairs", 0,
     "101122c043fc9b367de135ae33a391dd3c34984e3f208d99c1a7a5c653391e87"),
    ("icosa --emit phi", 0,
     "f6355ae78b6cd2c89cd65480ee2c34d01621538000377284e1ae7b3fb233b1f8"),
    ("k6 --emit doily", 0,
     "5e6acec7bfc0653e04fb4c875a403d18dd25323fb3c9c5b1c6f0bff041fcc22b"),
    ("k6 --emit factors", 0,
     "70413ff56630099bfcfe2ee9b85911b2926796e12c2a3111b5fd37dfbe64010f"),
    ("k6 --emit factorizations", 0,
     "d4064384af765c68dd31167992f48519a6c09f296098b302e5f94edeb8d66603"),
    ("k6 --emit tutte", 0,
     "02a922517a749380c4f36601896d653bcb72a09c6e7bba9c3b255f476594ac16"),
    ("verify-all", 0,
     "5ebf5f1595c730ab799b3ff6a8a78dcffb9d177380523e523ade5fe6d95ef1bf"),
    ("k6 --emit doily --format dot", 0,
     "753f06485497876e8f024300d83a64ad89e062c05aca5eedf6ad002e1162053e"),
    ("k6 --emit tutte --format dot", 0,
     "c1d706b022f7edf5fc9bcb7d428e4f3cd86ecb064d39d673850830b11d7be350"),
    ("k6 --emit factors --format json", 0,
     "155b44d7182ccd29543b3025eaba0b5a4ef9312c05c430c506702b4782e59f4f"),
]


@pytest.mark.parametrize(
    "command, code, digest", PINNED_REPORTS, ids=[row[0] for row in PINNED_REPORTS]
)
def test_report_bytes_are_pinned(capsys, command, code, digest):
    got_code, out, _ = run_cli(capsys, command.split())
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_out_writes_the_payload_to_a_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, ["classes", "--n", "5", "--json", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "classes"


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, ["classes", "--n", "4", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_usage_errors_are_caught_before_the_builder(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the builder ran despite a usage error")

    lemma2 = cli.COMMANDS["lemma2"]
    monkeypatch.setitem(cli.COMMANDS, "lemma2", lemma2._replace(build=never))
    missing = tmp_path / "missing" / "x.json"
    argv = ["lemma2", "--n-max", "11", "--out", str(missing)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write --out file")
    assert len(err.splitlines()) == 1
    code, _, err = run_cli(capsys, ["lemma2", "--n-max", "11", "--out", str(tmp_path)])
    assert code == 2 and err.startswith("error: cannot write --out file")

    factors = cli.K6_EMITS["factors"]
    monkeypatch.setitem(cli.K6_EMITS, "factors", (never, *factors[1:]))
    target = tmp_path / "factors.dot"
    argv = ["k6", "--emit", "factors", "--format", "dot", "--out", str(target)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "dot output is available for k6 doily and tutte" in err
    assert not target.exists()


def test_integrity_error_is_a_failed_report(capsys, monkeypatch):
    def broken(n_max):
        raise IntegrityError("planted survey fault")

    monkeypatch.setattr(involutions, "lemma2_survey", broken)
    code, report, _ = run_json(capsys, ["lemma2", "--n-max", "5"])
    assert code == 1
    assert report == {
        "schema": "outersix/1",
        "command": "lemma2",
        "parameters": {"n_max": 5},
        "findings": {"error": "planted survey fault"},
        "pass": False,
    }
    code, out, _ = run_cli(capsys, ["lemma2", "--n-max", "5"])
    assert code == 1
    assert out == "error: planted survey fault\nFAIL\n"


def test_integrity_error_replaces_dot_output(capsys, monkeypatch):
    def broken():
        raise IntegrityError("planted doily fault")

    monkeypatch.setattr(k6, "doily", broken)
    code, out, _ = run_cli(capsys, ["k6", "--emit", "doily", "--format", "dot"])
    assert code == 1
    assert out == "error: planted doily fault\nFAIL\n"


def test_verify_all_passes(capsys):
    code, report, _ = run_json(capsys, ["verify-all"])
    assert code == 0
    assert report["pass"] is True
    checks = report["findings"]["checks"]
    assert len(checks) == 11
    assert all(c["passed"] for c in checks)
    names = [c["check"] for c in checks]
    assert "cage-correspondence" in names and "engine-oracle" in names


def test_verify_all_text_lines(capsys, monkeypatch):
    def one_failure():  # the registry's outcomes with one claim broken
        return [
            {"check": name, "passed": False, "details": {"error": "cage count 35"}}
            if name == "involutive-counts"
            else {"check": name, "passed": True, "details": {}}
            for name, _ in verify.CHECKS
        ]

    monkeypatch.setattr(verify, "run_checks", one_failure)
    code, out, _ = run_cli(capsys, ["verify-all"])
    assert code == 1
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS ")) == 10
    assert "FAIL involutive-counts  (cage count 35)" in lines
    assert lines[-2:] == ["10/11 checks passed", "FAIL"]


def test_run_checks_subset(capsys):
    results = verify.run_checks(["outer-orders"])
    assert [r["check"] for r in results] == ["outer-orders"]
    assert results[0]["passed"]
    with pytest.raises(ValueError):
        verify.run_checks(["no-such-check"])


# verify-all with the child lane killed by its last check: os._exit(3) ends
# the child before it sends any result.  It runs in its own interpreter, so
# a wrong fork cannot take the test run down with it.
DEAD_CHILD = """
import os, sys
from outersix import cli, verify
verify.CHECKS = tuple(
    (name, (lambda: os._exit(3)) if name == "permutation-algebra" else check)
    for name, check in verify.CHECKS
)
code = cli.main(["verify-all", "--json"])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the second lane needs fork")
def test_a_dead_check_process_fails_its_lane_by_name(package_env):
    completed = subprocess.run(
        [sys.executable, "-c", DEAD_CHILD],
        capture_output=True,
        text=True,
        timeout=120,
        env=package_env,
    )
    assert completed.returncode == 1
    assert "Traceback" not in completed.stdout + completed.stderr
    assert "no child left" in completed.stderr
    checks = json.loads(completed.stdout)["findings"]["checks"]
    assert [c["check"] for c in checks] == [name for name, _ in verify.CHECKS]
    lost = {"passed": False, "details": {"error": "check process ended with status 3"}}
    for check in checks:
        if check["check"] in verify.SECOND_PROCESS:
            assert check == {"check": check["check"], **lost}
        else:
            assert check["passed"], check


def test_module_entry_point_smoke(package_env):
    completed = subprocess.run(
        [sys.executable, "-m", "outersix.cli", "classes", "--n", "3", "--json"],
        capture_output=True,
        text=True,
        timeout=60,
        env=package_env,
    )
    assert completed.returncode == 0
    report = json.loads(completed.stdout)
    assert report["schema"] == "outersix/1"
    assert "wall time" in completed.stderr
