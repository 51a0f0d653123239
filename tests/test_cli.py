import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import permpat as pp
from permpat import verify as verify_mod
from permpat.cli import PRINT_CAP, _build_parser, _set_payload, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a usage error argparse refuses itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv, **env):
    """Run the interpreter in a child process that imports this checkout's
    ``src`` first, installed or not, with ``env`` added to its environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, **env, "PYTHONPATH": path},
    )


def test_pat_group(capsys):
    # patterns of the whole cyclic group, not of its generator alone
    code, out, _ = run_cli(capsys, "--format", "json", "pat", "--group", "C:6", "--level", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["pat"]["elements"] == ["123", "231", "312"]
    assert payload["generated"]["size"] == 3


def test_pat_single_cycle(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "pat", "--perm", "234561", "--level", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["pat"]["elements"] == ["123", "231"]


def test_pat_single_perm(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "pat", "--perm", "1543276", "--level", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["pat"]["size"] == 3
    assert payload["pat"]["elements"] == ["143265", "154326", "432165"]


def test_pat_level_too_high(capsys):
    code, _, err = run_cli(capsys, "pat", "--group", "S:5", "--level", "9")
    assert code == 2
    assert "error" in err


def test_comp_table_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format", "json",
        "comp", "--group", "gens:6:(1 2 3 4);(3 4 5 6)", "--to", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["comp"]["elements"] == ["1234567", "2154376", "6734512", "7654321"]
    assert payload["is_group"] is True


def test_comp_alternating(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "comp", "--group", "A:5", "--to", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["comp"]["size"] == 14  # the natural dihedral group one up


def test_comp_cap_error(capsys):
    code, _, err = run_cli(capsys, "comp", "--group", "S:5", "--to", "20")
    assert code == 3
    assert "cap" in err


def test_comp_level_size_cap(capsys):
    # the degree-7 level of S6 has 5040 words, so the step to degree 7 stops
    code, out, err = run_cli(
        capsys, "--element-cap", "1000", "comp", "--group", "S:6", "--to", "8"
    )
    assert code == 3
    assert out == ""
    # the full level size, counted before it is built
    assert err == "error: level of degree 7: 5040 words exceed the element cap 1000\n"


@pytest.mark.parametrize(
    "cap_args, target, size",
    [((), "10", 89), (("--element-cap", "1000"), "7", 21)],
)
def test_comp_of_a_set_whose_closure_passes_the_cap_is_no_group(capsys, cap_args, target, size):
    # the closure of these levels' words is far larger than the level and
    # than the element cap; a closure past the level's size cannot equal it
    code, out, err = run_cli(
        capsys, *cap_args, "--format", "json", "comp", "--set", "123;132;213", "--to", target
    )
    assert code == 0, err
    assert '"is_group":false' in out
    assert json.loads(out)["comp"]["size"] == size


def test_verify_level_size_cap(capsys):
    # the S7 level above S6 has 5040 words: the prediction check is skipped, not passed
    code, out, err = run_cli(
        capsys, "--element-cap", "1000", "--format", "json",
        "verify", "--group", "S:6", "--depth", "1",
    )
    assert code == 0
    reports = {r["check_id"]: r for r in map(json.loads, out.splitlines())}
    prediction = reports["prediction"]
    assert prediction["status"] == "skipped"
    reason = prediction["counterexample"]["reason"]
    assert reason == "level of degree 7: 5040 words exceed the element cap 1000"
    assert "skipped" in err


def test_verify_catalog_refuses_a_catalog_over_the_cap(capsys):
    code, out, err = run_cli(capsys, "--element-cap", "100", "verify", "--catalog", "5")
    assert code == 3 and out == ""
    assert err == "error: S_5: 120 words exceed the element cap 100\n"


@pytest.mark.parametrize("n", ["0", "10"])
def test_verify_catalog_past_the_catalogs_is_a_usage_error(capsys, n):
    # checked before |S_n| against the cap, so the exit code does not hang on the cap
    code, out, err = run_cli(capsys, "verify", "--catalog", n)
    assert code == 2 and out == ""
    assert "subgroup enumeration is capped at degree 6" in err


def test_threads_is_a_usage_error():
    # the catalog verifier runs serially; there is no worker-count option
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "verify", "--laws"])
    assert exc.value.code == 2


def test_global_options_are_format_and_element_cap():
    parser = _build_parser()
    options = {
        opt
        for action in parser._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }
    assert options == {"--format", "--element-cap"}


def test_classify_honours_the_element_cap(capsys):
    # the level above S8 is S9 with 362880 words: refused, not built
    code, out, err = run_cli(
        capsys, "--element-cap", "1000", "classify", "--group", "S:6", "--depth", "3"
    )
    assert code == 3 and out == ""
    assert "1000" in err
    # S6 has 720 words, under the cap
    code, out, _ = run_cli(
        capsys, "--element-cap", "1000", "--format", "json",
        "classify", "--group", "S:5", "--depth", "1",
    )
    assert code == 0
    assert json.loads(out)["levels"][0]["exact"]["size"] == 720


@pytest.mark.parametrize("command", ["levels", "classify"])
def test_levels_reads_the_family_under_the_element_cap(capsys, command):
    # the level-1 prediction that names the eventual family builds a
    # 720-word Young upper bound, refused under the cap as classify refuses it
    code, out, err = run_cli(
        capsys, "--element-cap", "200", command,
        "--group", "gens:7:(1 2 3 4 5 6)", "--depth", "1",
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: Young subgroup of 1,2,3,4,5,6|7|8: 720 words exceed the element cap 200\n"
    )


def test_cli_import_loads_no_process_pool():
    # every CLI call pays this import, so it stays free of process pools,
    # of numpy and, with the value types as NamedTuples, of dataclasses and
    # inspect
    code = (
        "import sys, permpat.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent', 'dataclasses', 'inspect', 'numpy')))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_dash_m_runs_the_cli():
    proc = run_python(
        "-m", "permpat", "--format", "json", "levels", "--group", "S:3", "--depth", "1"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["levels"] == [{"degree": 4, "size": 24, "family_match": True}]


def test_classify_dihedral(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "--group", "D:8")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "contains-natural-cycle"
    assert payload["levels"][0]["exact"]["size"] == 18
    assert payload["eventual"] == {
        "family": "cyclic",
        "with_descending": True,
        "a": None,
        "b": None,
    }
    assert payload["onset_bound"] == 0


def test_classify_block_fixing_group(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "classify", "--group", "SPi:1,2,5|3,4,7|6"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "intransitive"
    level = payload["levels"][0]["exact"]
    assert level["degree"] == 8
    assert level["size"] == 2  # factorials of the derivative's blocks


def test_classify_worked_partition_exceeds_cap(capsys):
    # the 14-point worked example: its block-fixing group has 7!*6! elements,
    # past the default element cap, so the CLI reports a cap error
    code, _, err = run_cli(
        capsys, "classify", "--group", "SPi:1,2,3,7,8,9,10|4,5,6,12,13,14|11"
    )
    assert code == 3
    assert "cap" in err


def test_classify_trivial(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "--group", "T:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"][0]["exact"]["elements"] == ["123"]


def test_classify_byte_deterministic(capsys):
    args = ("--format", "json", "classify", "--group", "A:5", "--depth", "2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("--format", "json", "classify", "--group", "S:3", "--depth", "2"),
            "f6e9d5bfa5fb3c66658694dd3c5cd2582fb465bcf850e91ddc778ff2b1970d48",
        ),
        (
            ("--format", "json", "classify", "--group", "S:5", "--depth", "2"),
            "a7a9f4fca27c9293a1bd5e7b26f58f84a2c3c1adac123585ecfe2f7f3e1a432e",
        ),
        (
            ("classify", "--group", "S:4", "--depth", "2"),
            "b5f18d17e6af8b5cb817481a0ee6aa0da3c7530e11fa2b2cb40003d35857f6c6",
        ),
    ],
)
def test_classify_symmetric_output_is_pinned(capsys, argv, digest):
    # the levels above S_n are named, not built, and print as S_m did when
    # built: its elements up to PRINT_CAP words (S_4, S_5), past it the size
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_classify_citations_present(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "--group", "C:6")
    payload = json.loads(out)
    assert payload["citations"] == ["comp-natural-cycle-cyclic"]


def test_verify_catalog(capsys):
    code, out, err = run_cli(
        capsys, "--format", "json", "verify", "--catalog", "4", "--depth", "2"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 60
    assert all(line["status"] == "pass" for line in lines)
    assert "failed: 0" in err


@pytest.mark.parametrize("n, checks", [("1", 2), ("2", 4)])
def test_verify_catalog_of_degree_1_and_2(capsys, n, checks):
    # S_1 is the symmetric class, so its levels are named S_m as above any S_n
    code, out, err = run_cli(
        capsys, "--format", "json", "verify", "--catalog", n, "--depth", "3"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == checks
    assert all(line["status"] == "pass" for line in lines)
    assert "failed: 0" in err


def test_levels_and_classify_of_a_degree_1_group(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "levels", "--group", "T:1", "--depth", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["eventual"]["family"] == "symmetric"
    assert payload["levels"] == [
        {"degree": m, "size": size, "family_match": True} for m, size in ((2, 2), (3, 6), (4, 24))
    ]
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "--group", "C:1")
    assert code == 0
    assert json.loads(out)["kind"] == "symmetric"


def test_verify_laws(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "--laws", "--seed", "0")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert all(line["status"] == "pass" for line in lines)


def test_verify_group(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "verify", "--group", "A:6", "--depth", "2"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert {line["check_id"] for line in lines} == {"prediction", "onset"}
    assert all(line["status"] == "pass" for line in lines)


def test_verify_failure_exit_code(capsys, monkeypatch):
    from permpat import verify as verify_mod

    def always_fail(seed=0):
        return [verify_mod.Report("law-x", "scope", "fail", {"why": "forced"}, 0)]

    monkeypatch.setattr("permpat.cli.verify_laws", always_fail)
    code, out, err = run_cli(capsys, "--format", "json", "verify", "--laws")
    assert code == 1
    assert "failed: 1" in err


def _verify_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format", "json", "verify", *argv)
    return code, {r["check_id"]: r for r in map(json.loads, out.splitlines())}, err


def _predict_bounds(monkeypatch, **fields):
    """Make every level prediction carry the given exact/lower/upper groups."""
    real = verify_mod.predict_level

    def wrong(g, i, **kwargs):
        return real(g, i, **kwargs)._replace(**fields)

    monkeypatch.setattr(verify_mod, "predict_level", wrong)


def _same_payload(actual, expected):
    # key order is part of the output contract, so compare the JSON text
    return json.dumps(actual) == json.dumps(expected)


S5_FIRST_24 = ["".join(map(str, w)) for w in itertools.permutations(range(1, 6))][:24]


@pytest.mark.parametrize(
    "group, fields, counterexample",
    [
        # the level above T:3 is {1234}
        (
            "T:3",
            {"exact": None, "lower": pp.descending_group(4), "upper": pp.symmetric_group(4)},
            {"level": 1, "mode": "lower-bound",
             "expected": {"size": 2, "members": ["1234", "4321"]},
             "actual": {"size": 1, "members": ["1234"]}},
        ),
        # the level above Desc:3 is {1234, 4321}
        (
            "Desc:3",
            {"exact": None, "lower": pp.trivial_group(4), "upper": pp.trivial_group(4)},
            {"level": 1, "mode": "upper-bound",
             "expected": {"size": 1, "members": ["1234"]},
             "actual": {"size": 2, "members": ["1234", "4321"]}},
        ),
        # both bounds wrong: the lower bound is reported
        (
            "Desc:3",
            {"exact": None, "lower": pp.natural_cyclic_group(4), "upper": pp.trivial_group(4)},
            {"level": 1, "mode": "lower-bound",
             "expected": {"size": 4, "members": ["1234", "2341", "3412", "4123"]},
             "actual": {"size": 2, "members": ["1234", "4321"]}},
        ),
        # the level above S:4 is S_5, listed up to 24 words
        (
            "S:4",
            {"exact": pp.trivial_group(5)},
            {"level": 1, "mode": "exact",
             "expected": {"size": 1, "members": ["12345"]},
             "actual": {"size": 120, "members": S5_FIRST_24, "truncated": True}},
        ),
    ],
)
def test_verify_reports_a_wrong_level(capsys, monkeypatch, group, fields, counterexample):
    _predict_bounds(monkeypatch, **fields)
    code, reports, err = _verify_json(capsys, "--group", group, "--depth", "1")
    assert code == 1 and "failed: 1" in err
    assert reports["prediction"]["status"] == "fail"
    assert _same_payload(reports["prediction"]["counterexample"], counterexample)
    assert reports["onset"]["status"] == "pass"


CYCLIC = {"family": "cyclic", "with_descending": False, "a": None, "b": None}


@pytest.mark.parametrize(
    "group, eventual, counterexample",
    [
        # A_5 reaches the dihedral family at level 2, not within a bound of 0
        (
            "A:5",
            (pp.EventualFamily("cyclic", True), 0),
            {"predicted_family": {**CYCLIC, "with_descending": True}, "onset_bound": 0,
             "observed": None, "reason": "no family detected within the bound"},
        ),
        (
            "C:5",
            (pp.EventualFamily("symmetric"), 0),
            {"predicted_family": {**CYCLIC, "family": "symmetric"},
             "observed_families": [CYCLIC], "observed": 0, "reason": "family mismatch"},
        ),
    ],
)
def test_verify_reports_a_wrong_onset(capsys, monkeypatch, group, eventual, counterexample):
    monkeypatch.setattr(verify_mod, "predict_eventual", lambda g: eventual)
    code, reports, err = _verify_json(capsys, "--group", group, "--depth", "1")
    assert code == 1 and "failed: 1" in err
    assert reports["onset"]["status"] == "fail"
    assert _same_payload(reports["onset"]["counterexample"], counterexample)
    assert reports["prediction"]["status"] == "pass"


def test_verify_skips_levels_past_the_degree_limit(capsys):
    # level 1 of T:15 has degree 16 and is compared; level 2 would have degree 17
    code, reports, err = _verify_json(capsys, "--group", "T:15", "--depth", "2")
    assert code == 0 and "skipped: 1" in err
    assert reports["prediction"]["status"] == "skipped"
    assert reports["prediction"]["counterexample"] == {
        "reason": "level degree 17 exceeds the cap 16"
    }
    assert reports["onset"]["status"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ("levels", "--group", "C:16", "--depth", "1"),
        ("classify", "--group", "T:10", "--depth", "7"),
        ("comp", "--group", "C:15", "--to", "17"),
        ("levels", "--group", "C:15", "--depth", "2"),
        ("levels", "--group", "C:10", "--depth", "10"),
        ("comp", "--group", "C:10", "--to", "20"),
    ],
)
def test_levels_past_the_degree_limit_are_a_cap(capsys, argv):
    # the classifier and the brute-force walk refuse a level of degree 17,
    # the first past the cap however far the walk would go, with the wording
    # verify skips it with
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "level degree 17 exceeds the cap 16" in err


@pytest.mark.parametrize("size", [PRINT_CAP, PRINT_CAP + 1])
def test_set_payload_lists_elements_up_to_the_print_cap(size):
    words = frozenset(map(bytes, itertools.islice(itertools.permutations(range(1, 7)), size)))
    payload = _set_payload(6, words)
    assert payload["size"] == size
    if size <= PRINT_CAP:
        assert payload["elements"] == ["".join(map(str, w)) for w in sorted(words)]
    else:
        assert "elements" not in payload


def test_set_payload_does_not_sort_a_set_it_only_counts():
    # S_8 is past the print cap: its payload is a size, and no list of its
    # 40320 words (one pointer each) is built to find it
    words = pp.symmetric_group(8).word_set
    tracemalloc.start()
    try:
        payload = _set_payload(8, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload == {"degree": 8, "size": 40320}
    assert peak < 40320 * 8, peak


def test_verify_text_prints_the_counterexample(capsys, monkeypatch):
    _predict_bounds(
        monkeypatch, exact=None, lower=pp.descending_group(4), upper=pp.symmetric_group(4)
    )
    code, out, _ = run_cli(capsys, "verify", "--group", "T:3", "--depth", "1")
    assert code == 1
    assert out.splitlines() == [
        "FAIL    prediction [gens:3: depth=1]",
        '        {"level":1,"mode":"lower-bound","expected":{"size":2,"members":["1234","4321"]},'
        '"actual":{"size":1,"members":["1234"]}}',
        "PASS    onset [gens:3:]",
    ]


def test_levels(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "levels", "--group", "C:5", "--depth", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert [lv["size"] for lv in payload["levels"]] == [6, 7, 8]
    assert all(lv["family_match"] for lv in payload["levels"])


def test_levels_alternating(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "levels", "--group", "A:5", "--depth", "2"
    )
    payload = json.loads(out)
    assert [lv["size"] for lv in payload["levels"]] == [36, 14]
    assert [lv["family_match"] for lv in payload["levels"]] == [False, True]


def test_levels_descending(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "levels", "--group", "Desc:4", "--depth", "2"
    )
    payload = json.loads(out)
    assert [lv["size"] for lv in payload["levels"]] == [2, 2]


def test_pat_and_comp_from_a_set(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "pat", "--set", "123;231", "--level", "2"
    )
    assert code == 0
    assert json.loads(out) == {
        "command": "pat",
        "level": 2,
        "source": {"degree": 3, "size": 2, "elements": ["123", "231"]},
        "pat": {"degree": 2, "size": 2, "elements": ["12", "21"]},
        "generated": {"degree": 2, "size": 2, "elements": ["12", "21"]},
    }
    # the level {1234, 2341} is not closed: 2341 squared is 3412
    code, out, _ = run_cli(capsys, "--format", "json", "comp", "--set", "123;231", "--to", "4")
    assert code == 0
    assert '"is_group":false' in out
    assert json.loads(out)["comp"]["elements"] == ["1234", "2341"]


@pytest.mark.parametrize(
    "argv",
    [
        ["pat", "--set", ";", "--level", "2"],
        ["comp", "--set", ";", "--to", "4"],
        ["comp", "--set", "123;1234", "--to", "5"],
        ["comp", "--group", "S:3", "--perm", "123", "--to", "4"],
        ["pat", "--level", "2"],
        ["verify", "--depth", "1"],
    ],
)
def test_source_and_mode_errors_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    # the library's refusal is one "error:" line; argparse's follows its usage
    assert err.startswith(("error: ", "usage: permpat ")) and "error: " in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pat", "--level", "2"], "pat: error: one of the arguments --group --perm --set is required"),
        (["comp", "--to", "4"], "comp: error: one of the arguments --group --perm --set is required"),
        (
            ["pat", "--perm", "12", "--set", "12", "--level", "1"],
            "pat: error: argument --set: not allowed with argument --perm",
        ),
        (
            ["comp", "--group", "S:3", "--perm", "123", "--to", "4"],
            "comp: error: argument --perm: not allowed with argument --group",
        ),
        (["verify"], "verify: error: one of the arguments --catalog --group --laws is required"),
        (
            ["verify", "--laws", "--catalog", "3"],
            "verify: error: argument --catalog: not allowed with argument --laws",
        ),
        (
            ["verify", "--catalog", "3", "--group", "S:3"],
            "verify: error: argument --group: not allowed with argument --catalog",
        ),
    ],
)
def test_exactly_one_source_and_one_mode(capsys, argv, message):
    # argparse refuses none and two of --group/--perm/--set, and of
    # --catalog/--group/--laws, before any command runs
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: permpat ") and err.endswith(f"\npermpat {message}\n")


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize(
    "command",
    [
        ["pat", "--group", "T:3", "--level", "2"],
        ["comp", "--group", "T:3", "--to", "4"],
        ["classify", "--group", "T:3"],
        ["levels", "--group", "T:3", "--depth", "1"],
        ["verify", "--group", "S:1"],
        ["verify", "--catalog", "1"],
        ["verify", "--laws"],
    ],
)
def test_element_cap_below_one_is_a_usage_error(capsys, command, cap):
    # no group has fewer than one element, so such a cap would refuse every
    # group: refused before the command runs, whatever it would build
    code, out, err = run_cli(capsys, "--element-cap", cap, *command)
    assert code == 2 and out == ""
    assert err.endswith(f"\npermpat: error: --element-cap must be >= 1, got {cap}\n")


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "classify", "--group", "Q:5")
    assert code == 2
    assert "error" in err


def test_repeated_element_in_a_partition_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "classify", "--group", "SPi:1,1,2|3")
    assert code == 2 and out == ""
    assert "exactly once" in err


def test_degree_zero_descriptors_are_parse_errors(capsys):
    for argv in (
        ("comp", "--group", "A:0", "--to", "2"),
        ("levels", "--group", "A:0", "--depth", "1"),
        ("classify", "--group", "T:0"),
        ("levels", "--group", "T:0", "--depth", "1"),
        ("classify", "--group", "gens:0:"),
        ("comp", "--group", "gens:-1:", "--to", "3"),
        ("verify", "--group", "gens:-1:", "--depth", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "degree must be in 1..16" in err, argv


def _points(lo, hi):
    return ",".join(str(x) for x in range(lo, hi + 1))


@pytest.mark.parametrize(
    "descriptor",
    [
        "S:17",
        "gens:17:",
        "Dint:17:1:4",
        "Dint:256:1:2",
        "Dint:10000000000000000000:1:2",
        "Sab:17:1:1",
        "Sab:10000000000000000000:1:1",
        "SPi:" + _points(1, 17),
        "SPi:1,2|" + "|".join(str(x) for x in range(3, 18)),
        "SPiDesc:1,2|" + "|".join(str(x) for x in range(3, 18)),
        "AutPi:" + "|".join(_points(x, x + 1) for x in range(1, 14, 2)) + "|15,16,17",
    ],
)
def test_degree_past_the_limit_is_a_parse_error(capsys, descriptor):
    code, out, err = run_cli(capsys, "classify", "--group", descriptor)
    assert code == 2 and out == ""
    assert "bad group descriptor" in err and "degree must be in 1..16" in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (
            ("--element-cap", "1000", "levels", "--group", "A:9", "--depth", "1"),
            3,
            "A_9: 181440 words exceed the element cap 1000",
        ),
        (
            ("classify", "--group", "Dint:5:4:2"),
            2,
            "bad group descriptor 'Dint:5:4:2': need 1 <= a < b <= n, got a=4, b=2, n=5",
        ),
        (
            ("--element-cap", "100", "classify", "--group", "AutPi:1,2|3,4|5,6|7,8"),
            3,
            "automorphism group of 1,2|3,4|5,6|7,8: 384 words exceed the element cap 100",
        ),
    ],
    ids=["alternating-cap", "dint-interval", "automorphism-cap"],
)
def test_named_group_refusals_exit_with_their_code(capsys, argv, code, message):
    assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")


def test_module_entry_point():
    proc = run_python(
        "-m", "permpat.cli", "--format", "json", "pat", "--group", "D:5", "--level", "4"
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["generated"]["size"] == 8  # patterns generate one level down


@pytest.mark.parametrize("depth", ["0", "-1"])
@pytest.mark.parametrize(
    "target",
    [
        ["verify", "--group", "S:4"],
        ["verify", "--catalog", "3"],
        ["classify", "--group", "S:4"],
        ["levels", "--group", "S:4"],
    ],
)
def test_verify_depth_below_one_is_a_usage_error(capsys, target, depth):
    # no level would be compared or predicted, so nothing may pass
    code, out, err = run_cli(capsys, *target, "--depth", depth)
    assert code == 2 and out == ""
    assert "depth must be >= 1" in err


def test_classify_intransitive_under_a_small_cap(capsys):
    # the orbit test compares orders instead of building Young(1|2..6|7), 120 words
    group = "gens:7:(2 3 4 5 6)"
    code, out, _ = run_cli(
        capsys, "--element-cap", "100", "--format", "json",
        "classify", "--group", group, "--depth", "1",
    )
    assert code == 0
    level = json.loads(out)["levels"][0]
    assert (level["lower"]["size"], level["upper"]["size"]) == (1, 24)
    code, out, _ = run_cli(capsys, "--element-cap", "100", "comp", "--group", group, "--to", "8")
    assert code == 0 and "size 1" in out
    # here the sandwich's own upper bound, Young(1..6|7|8) of order 720, exceeds the cap
    code, out, err = run_cli(
        capsys, "--element-cap", "200", "classify", "--group", "gens:7:(1 2 3 4 5 6)"
    )
    assert code == 3 and out == ""
    assert err == (
        "error: Young subgroup of 1,2,3,4,5,6|7|8: 720 words exceed the element cap 200\n"
    )


def test_verify_honours_the_element_cap_for_predicted_levels(capsys):
    # the predicted upper bound Young(1..6|7|8) has 720 words: the prediction
    # is skipped under a cap of 200, as classify refuses it, not built and passed
    code, out, err = run_cli(
        capsys, "--element-cap", "200", "--format", "json",
        "verify", "--group", "gens:7:(1 2 3 4 5 6)", "--depth", "1",
    )
    assert code == 0
    reports = {r["check_id"]: r for r in map(json.loads, out.splitlines())}
    assert reports["prediction"]["status"] == "skipped"
    assert reports["prediction"]["counterexample"]["reason"] == (
        "Young subgroup of 1,2,3,4,5,6|7|8: 720 words exceed the element cap 200"
    )
    assert "skipped" in err


PGL27 = "gens:8:(1 2 3 4 5 6 7);(2 7)(3 6)(4 5);(1 8)(3 5)(4 6);(2 4 3 7 5 6)"


def test_interval_dihedral_rule_on_pgl27(capsys):
    # PGL(2,7) on 8 points contains the dihedral group on 1..7, which pins level 9
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "--group", PGL27, "--depth", "2")
    assert code == 0
    assert all(json.loads(line)["status"] == "pass" for line in out.splitlines())
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "--group", PGL27, "--depth", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["citations"] == [
        "comp-primitive-interval-dihedral", "comp-primitive-reversal-cap"
    ]
    assert payload["levels"][0]["exact"]["elements"] == ["123456789", "765432189"]


@pytest.mark.parametrize(
    "group, kind, citations",
    [
        ("S:4", "symmetric", ["comp-symmetric-step"]),
        ("T:5", "trivial", ["comp-trivial-step"]),
        ("Desc:5", "descending-only", ["comp-reversal-step"]),
        ("C:6", "contains-natural-cycle", ["comp-natural-cycle-cyclic"]),
        ("D:6", "contains-natural-cycle", ["comp-natural-cycle-dihedral"]),
        ("A:5", "alternating", ["comp-alternating-parity-sieve", "comp-alternating-collapse"]),
        ("SPi:1,2|3,4", "intransitive", ["comp-young-derivative"]),
        ("AutPi:1,2|3,4", "imprimitive",
         ["comp-block-automorphism-step", "comp-block-automorphism-tail"]),
        ("gens:5:(1 2 3 5 4)", "primitive", ["comp-primitive-reversal-cap"]),
        ("gens:6:(1 2 3 4);(3 4 5 6)", "primitive",
         ["comp-primitive-degree6-table", "comp-primitive-reversal-cap"]),
    ],
)
def test_classify_citations_per_class(capsys, group, kind, citations):
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "--group", group, "--depth", "3")
    assert code == 0
    payload = json.loads(out)
    assert (payload["kind"], payload["citations"]) == (kind, citations)


def _without_elapsed(stdout):
    lines = [json.loads(line) for line in stdout.splitlines()]
    for obj in lines:
        obj.pop("elapsed_ms", None)
    return lines


def test_output_does_not_follow_hash_order():
    # bytes hashes are salted per process, unlike tuples of ints: output
    # that followed set order would differ between these two processes
    commands = [
        ["verify", "--catalog", "4", "--depth", "2"],
        ["comp", "--group", "A:5", "--to", "7"],
        ["pat", "--group", "D:6", "--level", "4"],
        ["classify", "--group", "gens:6:(1 2)(3 4);(1 3 5)(2 4 6)", "--depth", "2"],
        ["levels", "--group", "C:5", "--depth", "2"],
    ]
    runs = {
        seed: [
            run_python("-m", "permpat", "--format", "json", *argv, PYTHONHASHSEED=seed)
            for argv in commands
        ]
        for seed in ("0", "1")
    }
    for argv, first, second in zip(commands, runs["0"], runs["1"]):
        assert first.returncode == second.returncode == 0, (argv, first.stderr)
        assert _without_elapsed(first.stdout) == _without_elapsed(second.stdout), argv
