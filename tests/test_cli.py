import json
import os
import re
import subprocess
import sys

import pytest

from hanoikernel import analysis, cli, words

SRC = os.path.dirname(os.path.dirname(cli.__file__))
COMMAND = [sys.executable, "-m", "hanoikernel.cli"]


GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "golden")
# bench/run.py's commands whose stdout and exit code bench/golden holds
GOLDEN_COMMANDS = {
    "kernel-d5": ["kernel-report", "--n-max", "3", "--depth", "5", "--slow"],
    "verify-d4": ["verify", "all", "--depth", "4"],
    "relators-d8": ["relators", "--max-tau", "8", "--depth", "8"],
    "verify-list": ["verify", "--list"],
}


# depth-6 commands whose stdout and exit code, as the package printed them
# when G_6 and G'_6 were read off Schreier-Sims chains, tests/golden_depth6
# holds
DEPTH6 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_depth6")
DEPTH6_COMMANDS = {
    "verify-all-d6": ["verify", "all", "--depth", "6", "--slow"],
    "qtable-d6": ["qtable", "--n-max", "4", "--depth", "6", "--slow"],
    "kernel-d6": ["kernel-report", "--n-max", "4", "--depth", "6", "--slow"],
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**env):
    """This process's environment for a child, with the package on its path
    and LOGLEVEL only as given here."""
    inherited = {k: v for k, v in os.environ.items() if k != "LOGLEVEL"}
    return dict(inherited, PYTHONPATH=SRC, **env)


def run_child(*argv, env):
    """The CLI in a process of its own, for what happens around main: the
    logging set-up, which holds for the whole process, and the last flush."""
    result = subprocess.run(
        COMMAND + list(argv),
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(**env),
    )
    return result.returncode, result.stdout, result.stderr


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# a name with this suffix runs its recorded command without --slow
NO_SLOW = "-no-slow"


def assert_output_matches_recorded(capsys, directory, name, commands):
    """stdout bytes and exit code against directory/name.stdout and the
    name's entry in directory/exit_codes.json. Without --slow, which changes
    nothing that runs, only the "slow" param reads false."""
    recorded = name.removesuffix(NO_SLOW)
    argv = commands[recorded]
    with open(os.path.join(directory, "exit_codes.json")) as handle:
        expected_code = json.load(handle)[recorded]
    with open(os.path.join(directory, f"{recorded}.stdout"), "rb") as handle:
        expected = handle.read()
    if name != recorded:
        argv = [arg for arg in argv if arg != "--slow"]
        expected = expected.replace(b'"slow": true', b'"slow": false')
    code, out, _ = run(capsys, *argv)
    assert code == expected_code
    assert out.encode() == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS) + ["kernel-d5" + NO_SLOW])
def test_output_matches_benchmark_golden(capsys, name):
    """The benchmark refuses a checkout whose output differs from these
    files by a byte."""
    assert_output_matches_recorded(capsys, GOLDEN, name, GOLDEN_COMMANDS)


@pytest.mark.parametrize(
    "name", sorted(DEPTH6_COMMANDS) + [name + NO_SLOW for name in sorted(DEPTH6_COMMANDS)]
)
def test_depth6_output_matches_chain_era_output(capsys, name):
    """The branch recursion and the depth-2 pattern test leave every byte of
    the depth-6 reports as the chains of G_6 and G'_6 gave them."""
    assert_output_matches_recorded(capsys, DEPTH6, name, DEPTH6_COMMANDS)


def test_verify_single_lemma(capsys):
    code, report, err = run_json(capsys, "verify", "stab12", "--depth", "2")
    assert code == 0
    assert report["pass"] is True
    assert report["command"] == "verify"
    (result,) = report["results"]
    assert result["id"] == "stab12"
    assert result["computed"]["stab1_mod_stab2_order"] == 108
    assert "pass  stab12" in err


def test_verify_orders_output_by_id(capsys):
    code, report, _ = run_json(
        capsys, "verify", "transitive", "selfsim", "branching", "--depth", "2"
    )
    assert code == 0
    ids = [r["id"] for r in report["results"]]
    assert ids == sorted(ids)


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    for lemma in ("stab12", "transrec", "ristquot"):
        assert lemma in out


def test_verify_unknown_id_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "bogus")
    assert code == 2
    assert "unknown" in err


@pytest.mark.parametrize("extra", [["selfsim"], ["all"]])
def test_verify_all_among_other_ids_is_every_id(capsys, extra):
    _, expected, _ = run(capsys, "verify", "all", "--depth", "2")
    code, out, _ = run(capsys, "verify", "all", *extra, "--depth", "2")
    assert code == 0
    assert out == expected


def test_verify_all_keeps_unknown_ids_an_error(capsys):
    code, _, err = run(capsys, "verify", "all", "bogus")
    assert code == 2
    assert "unknown lemma ids: bogus" in err


def test_verify_without_ids_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify")
    assert code == 2


def test_bad_flag_is_usage_error(capsys):
    assert cli.main(["verify", "stab12", "--nonsense"]) == 2


def test_game_act_known_example(capsys):
    code, report, _ = run_json(
        capsys, "game", "act", "--state", "2,1,3,2,2,1", "--move", "b"
    )
    assert code == 0
    assert report["results"][0]["computed"]["result"] == "2,3,3,2,2,1"


def test_game_act_invalid_state(capsys):
    code, _, err = run(capsys, "game", "act", "--state", "2,9", "--move", "b")
    assert code == 2


def test_game_solve(capsys):
    code, report, _ = run_json(capsys, "game", "solve", "--disks", "3")
    assert code == 0
    result = report["results"][0]
    assert result["computed"]["length"] == 7
    assert result["computed"]["moves"] == list(result["computed"]["word"])


def test_game_solve_resource_cap(capsys):
    code, _, err = run(capsys, "game", "solve", "--disks", "15")
    assert code == 3
    assert "resource" in err.lower()


def test_qtable(capsys):
    code, report, _ = run_json(capsys, "qtable", "--n-max", "1", "--depth", "3")
    assert code == 0
    rows = {r["id"]: r["computed"] for r in report["results"]}
    assert rows == {"q(1,2)": 4, "q(1,3)": 4}


def test_kernel_report(capsys):
    code, report, _ = run_json(capsys, "kernel-report", "--n-max", "1", "--depth", "3")
    assert code == 0
    final = report["results"][-1]
    assert final["id"] == "kernel"
    assert final["computed"] == {"order": 4, "type": "Klein four-group"}
    assert report["table"]["rows"][0]["h(n,n+1)"] == 4


def test_relators(capsys):
    code, report, _ = run_json(capsys, "relators", "--max-tau", "1", "--depth", "5")
    assert code == 0
    ids = {r["id"] for r in report["results"]}
    assert {"a^2", "w1", "tau^1(w4)"} <= ids


def test_relators_split_only_short_words(capsys, monkeypatch):
    """The tau-iterates are checked from (w, n): no word longer than the
    relators w1..w4, at most 30 letters, is split, though the iterates are
    spelled out to report their lengths."""
    split = []
    word_states = words.word_states
    monkeypatch.setattr(words, "word_states", lambda w: split.append(w) or word_states(w))
    words._evaluate_reduced.cache_clear()
    code, report, _ = run_json(capsys, "relators", "--max-tau", "8", "--depth", "8")
    assert code == 0
    assert split and max(map(len, split)) <= 30
    assert max(r["computed"]["length"] for r in report["results"]) > 100_000


def test_export_json(capsys):
    code, out, _ = run(capsys, "export", "portrait", "acab", "--depth", "2")
    assert code == 0
    data = json.loads(out)
    assert data["depth"] == 2 and data["labels"] == {
        "1": [1, 3, 2], "2": [2, 3, 1], "3": [1, 3, 2],
    }


def test_depth_cap_is_reachable(capsys):
    # abcab never reduces to the identity along its deepest path, so its
    # evaluation recurses through every level
    cap = str(words.MAX_DEPTH)
    code, report, _ = run_json(capsys, "relators", "--max-tau", "1", "--depth", cap)
    assert code == 0 and report["pass"] is True
    code, data, _ = run_json(capsys, "export", "portrait", "abcab", "--depth", cap)
    assert code == 0 and data["depth"] == words.MAX_DEPTH
    above = str(words.MAX_DEPTH + 1)
    code, out, err = run(capsys, "export", "portrait", "abcab", "--depth", above)
    assert code == 3 and out == "" and f"depth {above}" in err


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "portrait", "a", "--depth", "1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"root" [label="(2 3)"];' in out


def test_export_bad_word(capsys):
    code, _, _ = run(capsys, "export", "portrait", "axe", "--depth", "1")
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "--out", str(target), "game", "solve", "--disks", "2")
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["results"][0]["computed"]["length"] == 3


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "index", "--depth", "2")
    _, second, _ = run(capsys, "verify", "index", "--depth", "2")
    assert first == second


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["verify", "all", "--depth", "0"], 2, "depth must be >= 1"),
        (["verify", "stab12", "--depth", "1"], 2, "depth >= 2"),
        (["kernel-report", "--n-max", "3", "--depth", "4"], 2, "n_max + 2"),
        (["kernel-report", "--n-max", "0"], 2, "n_max must be >= 1"),
        (["export", "portrait", "ab", "--depth", "-1"], 2, "depth must be >= 0"),
        (["relators", "--depth", "-2"], 2, "depth must be >= 0"),
        (["qtable", "--depth", "9"], 3, "depth 9"),
        (["qtable", "--n-max", "5", "--depth", "4"], 2, "n_max 5"),
        (["qtable", "--n-max", "0"], 2, "n_max must be >= 1"),
        (["export", "portrait", "ab", "--depth", "7", "--format", "dot"], 3, "depth 7"),
        (["relators", "--max-tau", "-1"], 2, "max_tau must be >= 0"),
        (["relators", "--max-tau", "13"], 3, "max_tau 13"),
        (["relators", "--max-tau", "1", "--depth", "2000"], 3, "depth 2000"),
        (["export", "portrait", "ab", "--depth", "2000"], 3, "depth 2000"),
        (["--out", "/nonexistent/x.json", "verify", "selfsim", "--depth", "2"], 2,
         "cannot write /nonexistent/x.json"),
        (["--out", "/nonexistent/x.dot", "export", "portrait", "a", "--format", "dot"], 2,
         "cannot write /nonexistent/x.dot"),
        (["LOGLEVEL=basic_format", "verify", "all", "--depth", "0"], 2, "depth must be >= 1"),
        (["game", "solve", "--disks", "0"], 2, "disk count 0"),
        (["game", "solve", "--disks", "-3"], 2, "disk count -3"),
        (["game", "solve", "--disks", "13"], 3, "disk count 13"),
        (["relators", "--depth", "0"], 2, "depth must be >= 1"),
        *(
            (argv + slow, 3, "resource limit: depth 7 exceeds the degree cap 3^6")
            for argv in (
                ["verify", "all", "--depth", "7"],
                ["kernel-report", "--n-max", "1", "--depth", "7"],
            )
            for slow in ([], ["--slow"])
        ),
        *(
            (["game", "act", "--state", state, "--move", "a"], 2,
             f"error: --state {state!r}: expected comma-separated pegs 1-3")
            for state in (",", "1,x", "2,9")
        ),
    ],
)
def test_bad_arguments_exit_without_traceback(capsys, argv, code, message):
    # leading NAME=value items set the environment, as in a shell
    env = {}
    while argv and re.fullmatch(r"[A-Z]+=.*", argv[0]):
        name, value = argv[0].split("=", 1)
        env[name] = value
        argv = argv[1:]
    if env:
        got, out, err = run_child(*argv, env=env)
    else:
        got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("name", ["missing/x.json", "."])
def test_bad_out_path_fails_before_the_run(tmp_path, capsys, monkeypatch, name):
    def no_run(*args, **kwargs):
        raise AssertionError("the check ran")

    monkeypatch.setattr(analysis, "verify_lemma", no_run)
    target = tmp_path / name
    code, out, err = run(capsys, "--out", str(target), "verify", "selfsim", "--depth", "2")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert f"cannot write {target}" in err
    assert sorted(tmp_path.iterdir()) == []


def test_closed_stdout_keeps_the_exit_code():
    # the reader closes the pipe before the report is written
    child = subprocess.Popen(
        COMMAND + ["verify", "selfsim", "--depth", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 0
    assert err == "pass  selfsim\n"


FOOTPRINT = """
import json, sys
preloaded = "dataclasses" in sys.modules
loaded = lambda: sorted(m for m in sys.modules if m.startswith("hanoikernel."))
import hanoikernel
seen = {"root": loaded()}
import hanoikernel.branch
seen["branch"] = loaded()
from hanoikernel import cli
cli.main(["relators", "--max-tau", "1", "--depth", "2"])
seen["relators"] = loaded()
cli.main(["verify", "stab12", "--depth", "2"])
seen["verify"] = loaded()
seen["dataclasses"] = preloaded or "dataclasses" not in sys.modules
print(json.dumps(seen))
"""


def test_import_footprint():
    """A CLI pass compiles every package module it imports, so the root
    imports none, branch imports no permgroup, and no command but game
    imports the game module."""
    result = subprocess.run(
        [sys.executable, "-c", FOOTPRINT],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.splitlines()[-1])
    assert seen["root"] == []
    assert "hanoikernel.permgroup" not in seen["branch"]
    assert "hanoikernel.game" not in seen["relators"]
    assert "hanoikernel.game" not in seen["verify"]
    assert seen["dataclasses"], "the package imported dataclasses"


LOGGING_FOOTPRINT = """
import contextlib, io, json, sys
from hanoikernel import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["relators", "--max-tau", "1", "--depth", "2"])
    cli.main(["verify", "all", "--depth", "3"])
    cli.main(["kernel-report", "--n-max", "1", "--depth", "3"])
print(json.dumps(sorted({"logging", "traceback"} & set(sys.modules))))
"""


def test_logging_is_imported_only_for_a_set_loglevel():
    """Every package log line is INFO, so a run at the default level
    imports neither logging nor the traceback module it brings."""
    loaded = {}
    for level in (None, "info"):
        result = subprocess.run(
            [sys.executable, "-c", LOGGING_FOOTPRINT],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(**({"LOGLEVEL": level} if level else {})),
        )
        assert result.returncode == 0, result.stderr
        loaded[level] = json.loads(result.stdout.splitlines()[-1])
    assert loaded[None] == []
    assert "logging" in loaded["info"]


@pytest.fixture(scope="module")
def default_rist_run():
    return run_child("verify", "rist", "--depth", "3", env={})


@pytest.mark.parametrize(
    "level", ["error", "warning", "info", "debug", "basic_format", "nonsense"]
)
def test_loglevel_changes_only_the_log_lines(default_rist_run, level):
    """LOGLEVEL is parsed as a level name; anything else is the default
    ERROR. At INFO and below stderr gains each stage's line."""
    code, out, err = run_child("verify", "rist", "--depth", "3", env={"LOGLEVEL": level})
    assert (code, out) == default_rist_run[:2]
    assert default_rist_run[2] == "pass  rist\n"
    if level not in ("info", "debug"):
        assert err == "pass  rist\n"
        return
    *logged, summary = err.splitlines()
    assert summary == "pass  rist"
    assert all(re.match(r"INFO:hanoikernel\.(analysis|branch|permgroup):", line) for line in logged)
    assert "INFO:hanoikernel.branch:branch certificate checked: " in err
    assert "INFO:hanoikernel.permgroup:built chain: " in err
    assert re.search(r"^INFO:hanoikernel\.analysis:Rist\(1\) <= Stab\(1\) in G_3: pass", err, re.M)
    assert "INFO:hanoikernel.analysis:lemma rist at depth 3: pass" in err
