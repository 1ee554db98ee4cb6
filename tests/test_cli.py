"""Command-line interface: commands, exit codes, JSON output."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cpi.cli import main
from cpi.corpus import load_corpus

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run_cli(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "cpi.cli", *args],
        input=stdin, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_roundtrip():
    code, out, _ = run_cli(["parse", "-"], "a!<b>.0 | 0\n")
    assert code == 0 and out.strip() == "a!<b>.0 | 0"


def test_parse_syntax_error_exit_1():
    code, _, err = run_cli(["parse", "-"], "a!<\n")
    assert code == 1 and "syntax error" in err


def test_parse_violation_exit_2():
    code, _, err = run_cli(["parse", "-"], "a?(x).b!<x>.0\n")
    assert code == 2 and "violation" in err
    code, _, _ = run_cli(["parse", "-", "--mode", "pi"], "a?(x).b!<x>.0\n")
    assert code == 0


def test_parse_json(tmp_path):
    f = tmp_path / "p.cpi"
    f.write_text("new k in k!<a>.0")
    code, out, _ = run_cli(["parse", str(f), "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["validation"]["ok"]


def test_step():
    code, out, _ = run_cli(["step", "-"], "a!<b>.0 | a?(x).0\n")
    assert code == 0 and "tau" in out
    code, out, _ = run_cli(["step", "-", "--json", "--no-inputs"],
                           "a?(x).0\n")
    assert json.loads(out)["transitions"] == []


def test_bisim_files(tmp_path):
    p = tmp_path / "p.cpi"
    q = tmp_path / "q.cpi"
    p.write_text("a!<b>.0 | c!<d>.0")
    q.write_text("c!<d>.0 | a!<b>.0")
    code, out, _ = run_cli(["bisim", str(p), str(q), "--depth", "3"])
    assert code == 0 and "bisimilar up to depth 3" in out
    q.write_text("a!<b>.0")
    code, out, _ = run_cli(["bisim", str(p), str(q), "--json"])
    assert json.loads(out)["result"] == "not-bisimilar"


def test_bisim_laws():
    code, out, _ = run_cli(["bisim", "--laws", "--seed", "3",
                            "--instances", "2", "--depth", "2", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["ok"]


def test_nonforward_default_depth_and_modes():
    violating = "k?(x).new l in (k!<l>.l!<x>.0 | l?(y).0)\n"
    code, out, _ = run_cli(["nonforward", "-"], violating)
    assert code == 0 and "violation" in out
    code, out, _ = run_cli(["nonforward", "-", "--json"], violating)
    assert json.loads(out)["result"] == "violated"
    code, out, _ = run_cli(["nonforward", "-", "--static"], "a?(x).x!<b>.0\n")
    assert "guaranteed" in out


def test_nonforward_witness(tmp_path):
    w = tmp_path / "w.cpi"
    w.write_text("k?(x).new l in (l!<a>.0 | l?(y).0)")
    code, out, _ = run_cli(
        ["nonforward", "-", "--witness", str(w), "--depth", "4"],
        "k?(x).new l in (l!<x>.0 | l?(y).0)\n")
    assert code == 0 and "positive" in out


def test_encode():
    code, out, _ = run_cli(["encode", "-"], "a!<b>.0\n")
    assert code == 0 and "#n_a" in out and "#m_b" in out
    code, out, _ = run_cli(["encode", "-", "--json", "--with-handlers"],
                           "a!<b>.0\n")
    payload = json.loads(out)
    assert payload["validation"]["ok"]


def test_encode_verify():
    code, out, _ = run_cli(
        ["encode", "-", "--verify", "--tau", "12", "--depth", "4"],
        "new a,b in (a!<b>.0 | a?(x).0)\n")
    assert code == 0 and "matched after 6 tau steps" in out and "ok" in out


def test_fresh_start_env(tmp_path):
    import os
    env = dict(os.environ, CPI_FRESH_START="50")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from cpi.cli import main; import sys; sys.exit(main(['parse','-']))"],
        input="a?(x).0\n", capture_output=True, text=True, env=env)
    assert proc.returncode == 0


@pytest.mark.parametrize("args", [
    ["bisim", "{p}", "{p}", "--depth", "0"],
    ["bisim", "--laws", "--depth", "0"],
    ["nonforward", "{p}", "--depth", "-1"],
    ["parse", "{dir}"],
    ["parse", "{latin1}"],
    ["step", "{p}", "--env", "e,x y"],
    ["step", "{p}", "--env", "x?"],
    ["step", "{p}", "--env", "'"],
    ["encode", "{closed}", "--verify", "--tau", "-1"],
    ["bisim", "--laws", "--instances", "0"],
    ["bisim", "--laws", "--instances", "-1"],
    ["encode", "-", "--verify", "--depth", "0"],
    ["bisim", "-", "-"],
    ["nonforward", "-", "--witness", "-"],
    ["bisim", "{p}"],
    ["nonforward", "{p}", "--static", "--witness", "{p}"],
    ["bisim", "--laws", "{p}", "{p}"],
    ["encode", "{p}", "--tau", "5"],
    ["encode", "{p}", "--depth", "0"],
    ["bisim", "{p}", "{p}", "--seed", "7"],
    ["bisim", "{p}", "{p}", "--instances", "3"],
    ["nonforward", "{p}", "--static", "--depth", "-1"],
], ids=["bisim-depth-0", "laws-depth-0", "nonforward-depth-minus-1",
        "directory", "not-utf-8", "env-space", "env-question-mark",
        "env-quote", "verify-tau-minus-1", "laws-instances-0",
        "laws-instances-minus-1", "verify-depth-0-no-reduction",
        "bisim-stdin-twice", "witness-stdin-twice", "bisim-one-file",
        "static-with-witness", "laws-with-files", "tau-without-verify",
        "depth-without-verify", "seed-without-laws",
        "instances-without-laws", "static-with-depth"])
def test_bad_input_exits_1_with_one_error_line(args, tmp_path):
    p = tmp_path / "p.cpi"
    p.write_text("a!<b>.0")
    closed = tmp_path / "closed.cpi"
    closed.write_text("new a,b in (a!<b>.0 | a?(x).0)")
    latin1 = tmp_path / "latin1.cpi"
    latin1.write_bytes("a!<b>.0 | c!<é>.0".encode("latin-1"))
    # standard input holds a closed source with no reduction
    code, out, err = run_cli(
        [a.format(p=p, closed=closed, dir=tmp_path, latin1=latin1)
         for a in args], "new a in a!<a>.0\n")
    assert code == 1 and out == "" and "Traceback" not in err, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if args[-1] == "{latin1}":
        assert "latin1.cpi" in err, err


def test_main_callable_directly(capsys):
    code = main(["bisim", "--laws", "--instances", "1", "--depth", "1"])
    assert code == 0
    assert "mutant-par-absorb" in capsys.readouterr().out


@pytest.mark.parametrize("command, text", [
    ("encode", "a!<b>." * 1000 + "0\n"),
    ("parse", "a!<b>." * 1000 + "0\n"),
    ("parse", " | ".join(["a!<b>.0"] * 1000) + "\n"),
], ids=["encode-1000-prefixes", "parse-1000-prefixes", "parse-1000-way-par"])
def test_deep_term_exits_0(command, text):
    # these exited 3 while the walks recursed along the term
    code, out, err = run_cli([command, "-"], text)
    assert code == 0 and err == ""
    assert out.count("!<") >= 1000


def test_game_1200_rounds_deep_exits_0(tmp_path):
    # the game keeps its open rounds on a list, so its depth is no limit
    p, q = tmp_path / "p.cpi", tmp_path / "q.cpi"
    p.write_text("a!<b>." * 1200 + "0")
    q.write_text("a!<b>." * 1200 + "0 | 0")
    code, out, err = run_cli(["bisim", str(p), str(q), "--depth", "1200"])
    assert code == 0 and err == ""
    assert out == "bisimilar up to depth 1200\n"


@pytest.mark.parametrize("args, texts", [
    (["parse"], ["a!<b>." * 20000 + "0"]),
    (["bisim", "--depth", "1200", "--json"],
     ["a!<b>." * 1200 + "0", "a!<b>." * 1199 + "a!<c>.0"]),
], ids=["parse-20000-sends", "bisim-json-1200-steps"])
def test_closed_pipe_exits_1_without_traceback(args, texts, tmp_path):
    # the reader stops after 20 bytes of an output larger than a pipe
    # holds, so the writer is sure to find the pipe closed
    files = []
    for i, text in enumerate(texts):
        files.append(tmp_path / f"{i}.cpi")
        files[-1].write_text(text)
    proc = subprocess.Popen(
        [sys.executable, "-m", "cpi.cli", *args, *map(str, files)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert len(head) == 20
    assert proc.wait(timeout=60) == 1 and "Traceback" not in err, err


def test_encode_170_prefixes():
    # the translation, five times deeper than the source, is validated
    # without a canonical copy and printed
    code, out, _ = run_cli(["encode", "-", "--json"], "a!<b>." * 170 + "0\n")
    payload = json.loads(out)
    assert code == 0 and payload["validation"]["ok"]
    assert payload["encoded"].count("#m_b!<") == 170


def test_encode_250_prefixes():
    # the translation nests over a thousand terms deep, and it is printed
    # by a walk that does not recurse
    code, out, _ = run_cli(["encode", "-", "--json"], "a!<b>." * 250 + "0\n")
    payload = json.loads(out)
    assert code == 0 and payload["validation"]["ok"]
    assert payload["encoded"].count("#m_b!<") == 250


# The sha256 of the exit codes and JSON outputs of ``cpi step`` on every
# corpus script, with and without --no-inputs, and with an extra
# environment that holds a channel named like a canonical binder.  A
# change that alters this output on purpose changes the answer, and says
# so where it replaces the digest.  Nameless engine states restored the
# input of the extra channel #0 that corpus/groups/group_guard.cpi and
# corpus/intro/alice_bob_carol.cpi lost under --env e,#0 (one
# transition each; the others are unchanged and in the same order).
# Since one move order defines every answer, each action's targets are
# listed in derivation order, not by text: the runs on
# corpus/encoding/two_pairs.cpi and corpus/intro/alice_bob_carol.cpi
# list the same lines per action, in the same action order, with tied
# targets in another order.
STEP_SHA256 = (
    "b562f872b56c1971ab8ec4e895f7f2011c27ea6ea322cd3bb2b9edf34ca3b64e")


def test_step_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for case in load_corpus(CORPUS):
        for extra in ([], ["--no-inputs"], ["--env", "e,#0"],
                      ["--env", "e,#0", "--no-inputs"]):
            code = main(["step", str(case.path), "--mode", case.mode,
                         "--json", *extra])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == STEP_SHA256


# The sha256 of the exit codes, JSON outputs and error messages of
# ``cpi parse`` in both modes and of ``cpi encode`` with and without
# --with-handlers on every corpus script: the validation reports, with
# their paths and canonical names, and the violation messages.
PARSE_ENCODE_SHA256 = (
    "25fca62f7201a5fc78798240f7fc478779a91ae590acd822b5054086dc231b9c")


def test_parse_and_encode_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for case in load_corpus(CORPUS):
        for args in (["parse", "--mode", "pi"], ["parse", "--mode", "cpi"],
                     ["encode", "--mode", case.mode],
                     ["encode", "--mode", case.mode, "--with-handlers"]):
            code = main([*args, str(case.path), "--json"])
            out = capsys.readouterr()
            digest.update(f"{code}\n{out.out}\n{out.err}".encode())
    assert digest.hexdigest() == PARSE_ENCODE_SHA256
