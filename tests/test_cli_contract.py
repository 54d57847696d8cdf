"""The CLI's exit-code contract on seeded argument vectors: 0 or 1 only when
a check ran, with a JSON report whose "pass" says which; 2 for a bad
argument; 3 for a resource cap, with one "resource limit:" line; never a
traceback. Every vector runs cli.main in this process."""

import json
import random
import traceback

import pytest

from hanoikernel import analysis, cli

# at and around the caps: the depth cap 6, game solve's 12 disks, relators'
# max_tau 12, the word depth 250
INTEGERS = ["0", "1", "6", "7", "12", "13", "250", "251", "-1", str(10**9)]
NON_INTEGERS = ["x", "1.5", "", "1e3", "--"]
LEMMAS = list(analysis.LEMMA_IDS) + ["all", "bogus", "Rist", ""]
STATES = ["1,2,3", "2,1,3,2,2,1", "3", ",", "1,x", "2,9", "", "1,,2", "0", "-1", "1;2"]
EXPORT_WORDS = ["acab", "abcab", "cbacabacac", "aa", "", "abd", "ABC", "a b", "-a"]
# the commands whose exit 0 or 1 carries a JSON report with "pass"
REPORTING = ("verify", "qtable", "kernel-report", "relators")


def number(rng):
    return rng.choice(INTEGERS) if rng.random() < 0.85 else rng.choice(NON_INTEGERS)


def maybe(rng, flag, value):
    return [flag, value] if rng.random() < 0.7 else []


def vector(rng, tmp_path, index):
    """One argument vector from the grammar: an optional --out path, then
    a subcommand with its arguments, some of them out of range or
    malformed."""
    argv = []
    if rng.random() < 0.2:
        out = rng.choice([tmp_path / f"{index}.json", tmp_path, tmp_path / "missing" / "x"])
        argv += ["--out", str(out)]
    command = rng.choice(
        ["verify", "qtable", "kernel-report", "relators", "game", "export", "frobnicate"]
    )
    argv.append(command)
    if command == "verify":
        argv += rng.sample(LEMMAS, rng.randint(0, 3))
        argv += maybe(rng, "--depth", number(rng))
        argv += ["--list"] if rng.random() < 0.1 else []
    elif command in ("qtable", "kernel-report"):
        argv += maybe(rng, "--n-max", number(rng))
        argv += maybe(rng, "--depth", number(rng))
    elif command == "relators":
        argv += maybe(rng, "--max-tau", number(rng))
        argv += maybe(rng, "--depth", number(rng))
    elif command == "game":
        if rng.random() < 0.5:
            argv += ["act"] + maybe(rng, "--state", rng.choice(STATES))
            argv += maybe(rng, "--move", rng.choice("abcd"))
        else:
            disks = number(rng)
            # solving 12 disks, which the cap allows, takes about 5 s and
            # 1.5 GB, since game.solve keeps a move string per state
            if disks == "12":
                disks = "7"
            argv += ["solve"] + maybe(rng, "--disks", disks)
    elif command == "export":
        argv += [rng.choice(["portrait", "tree"]), rng.choice(EXPORT_WORDS)]
        argv += maybe(rng, "--depth", number(rng))
        argv += maybe(rng, "--format", rng.choice(["json", "dot", "svg"]))
    if command in ("verify", "qtable", "kernel-report") and rng.random() < 0.3:
        argv.append("--slow")
    return argv


def report_of(argv, out):
    """The JSON report: the --out file when one was given, else stdout."""
    if argv[0] == "--out":
        with open(argv[1]) as handle:
            return json.load(handle)
    return json.loads(out)


@pytest.mark.parametrize(
    "count", [200, pytest.param(2000, marks=pytest.mark.slow)]
)
def test_cli_contract_holds_on_seeded_vectors(tmp_path, capsys, monkeypatch, count):
    monkeypatch.delenv("LOGLEVEL", raising=False)
    rng = random.Random(count)
    codes = set()
    for index in range(count):
        argv = vector(rng, tmp_path, index)
        try:
            code = cli.main(list(argv))
        except Exception:
            pytest.fail(f"{argv}: {traceback.format_exc()}")
        out, err = capsys.readouterr()
        codes.add(code)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        command = argv[2] if argv[0] == "--out" else argv[0]
        if code in (0, 1) and command in REPORTING and "--list" not in argv:
            assert report_of(argv, out)["pass"] is (code == 0), argv
        if code == 3:
            limits = [line for line in err.splitlines() if line.startswith("resource limit:")]
            assert len(limits) == 1, (argv, err)
    # the grammar reaches every exit code the contract allows but 1, which
    # only a failed verification gives
    assert codes == {0, 2, 3}
