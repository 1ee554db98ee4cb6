"""Deep terms: a chain, a '|' spine and nests a thousand levels deep and
more parse, render, validate, encode and step, from Python and from the
CLI, and give the answers that the recursive walks gave under a raised
recursion limit (pinned by sha256).  No function of ``cpi`` calls itself,
so a bisimulation game 1200 rounds deep and a random term of 5000 nodes
need no more of the Python stack than a shallow one."""

import ast
import hashlib
import json
import random
from pathlib import Path

import pytest

import cpi
from cpi import parser
from cpi.bisim import check
from cpi.cli import main
from cpi.encoding import encode, encode_with_handlers
from cpi.gen import random_cpi_process
from cpi.lts import successors
from cpi.parser import PI, parse, render
from cpi.syntax import (
    bound_names, canonicalize, chan, fnn, free_names, free_output_objects,
    substitute, validate_cpi,
)

SHAPES = {
    "send-chain-10000": "a!<b>." * 10000 + "0",
    "par-1000": " | ".join(["a!<b>.0", "a?(x).0"] + ["0"] * 998),
    "new-1000": "new k in " * 1000 + "a!<k>.0",
    "repl-1000": "!" * 1000 + "a!<b>.0",
    "parens-1000": "(" * 1000 + "a!<b>.0" + ")" * 1000,
    "guards-1000": "[a=a]" * 1000 + "a!<b>.0",
    # One tau under the nest: it passes all 1000 restrictions at once.
    "new-tau-1000": "new k in " * 1000 + "(k!<k>.0 | k?(x).x!<k>.0)",
}


def _transitions(trans):
    return json.dumps([t.to_json() for t in trans])


def _outputs(text):
    """The answers of the library calls on ``text``, as labelled texts."""
    yield "parse-pi", render(parse(text, mode=PI))
    p = parse(text)
    yield "parse-cpi", render(p)
    yield "validate", json.dumps(validate_cpi(p).to_json())
    yield "encode", render(encode(p))
    yield "encode-with-handlers", render(encode_with_handlers(p))
    yield "successors", _transitions(successors(p))
    yield "successors-no-inputs", _transitions(
        successors(p, include_inputs=False))


def _cli_outputs(path, capsys):
    """The exit codes and outputs of ``cpi parse``, ``step`` and
    ``encode`` with ``--json`` on the file at ``path``."""
    for command in ("parse", "step", "encode"):
        code = main([command, str(path), "--json"])
        out = capsys.readouterr()
        yield f"cpi {command}", f"{code}\n{out.out}\n{out.err}"


# The sha256 of each shape's labelled outputs, library calls first, then
# the CLI, computed with the recursive walks under a raised limit
# (new-tau-1000 with the engine that took a nest one restriction at a
# time).
DEEP_SHA256 = {
    "send-chain-10000": (
        "0e92279407624fb8dc8ce4aa933d3e11a9933e942bf76a2a507bd5e954aa8ed2"),
    "par-1000": (
        "463ab63526cd5d7053c4d0ba9c5fe4128c6bd60af9f7bc42841db0b659b4d03c"),
    "new-1000": (
        "95204bf5ecc5e8423461bab25849775ce8cf59d5093ae51f9805d1bcecd38ad6"),
    "repl-1000": (
        "8e260a29b175495aa991b3c4490e1f74be0f4e1d0f4ba3592627fd42e6c88aeb"),
    "parens-1000": (
        "e6d742396b3273c0702d73e4be929bdd110b006776af8b2e0742be04ee7253b7"),
    "guards-1000": (
        "6060aa753b9d4eb34e1541591957ac65d033a7792ea3270103bd1c3afa3cff25"),
    "new-tau-1000": (
        "52900087913f0b3ef7250e3048e02086cb774f24fd6216d593ffa57166817cf6"),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_deep_terms_give_the_pinned_answers(shape, tmp_path, capsys):
    path = tmp_path / "deep.cpi"
    path.write_text(SHAPES[shape] + "\n")
    digest = hashlib.sha256()
    for label, text in (*_outputs(SHAPES[shape]), *_cli_outputs(path, capsys)):
        if label.startswith("cpi "):
            assert text.startswith("0\n"), (label, text[-200:])
        digest.update(f"{label}\n{text}\n".encode())
    assert digest.hexdigest() == DEEP_SHA256[shape]


# Shapes 200 levels deep, with binders, guards and shadowing, whose names
# occur nowhere else in the tests, so no walk finds its answer kept.
SHALLOW_SHAPES = {
    "chain": "".join(f"g?(x{i % 7}).[x{i % 7}=g]x{i % 7}!<h>." for i in range(70))
             + "h!<g>.0",
    "par": " | ".join(["g!<h>.0", "g?(y).y!<h>.0"] + ["h?(y).0"] * 198),
    "right-par": "(g!<h>.0 | " * 200 + "g?(y).0" + ")" * 200,
    "new": "new k, j in " * 100 + "(k!<g>.0 | k?(z).z!<j>.0)",
    "repl": "!" * 200 + "g!<h>.0",
    "parens": "(" * 200 + "g?(y).y!<h>.0" + ")" * 200,
}


@pytest.mark.parametrize("shape", SHALLOW_SHAPES)
def test_walks_do_not_recurse(shape, shallow):
    # Every walk along a term runs under a limit only 60 frames above the
    # caller: one that recursed per level would raise RecursionError.
    text = SHALLOW_SHAPES[shape]
    tree = shallow(parser._Parser(text, *parser._tokenize(text, False))
                   .parse_process)
    for walk in (free_names, fnn, free_output_objects, bound_names,
                 validate_cpi, render):
        shallow(walk, tree)
    p = shallow(canonicalize, tree)
    assert shallow(parse, text, mode=PI) is p
    assert shallow(parse, text) is p
    shallow(substitute, p, {chan("g"): chan("h")})
    shallow(encode, p)
    shallow(encode_with_handlers, p)
    shallow(successors, p)
    shallow(successors, p, include_inputs=False)


CHAIN = "a!<b>." * 1200 + "0"


def test_game_and_generator_do_not_recurse(shallow):
    # a game 1200 rounds deep, won by either side, and a random term of
    # 5000 nodes, under a limit only 60 frames above the caller
    chain = parse(CHAIN)
    verdict = shallow(check, chain, parse(CHAIN + " | 0"), 1200)
    assert verdict.describe() == "bisimilar up to depth 1200"
    other = parse("a!<b>." * 1199 + "a!<c>.0")
    verdict = shallow(check, chain, other, 1200)
    assert not verdict.bisimilar and len(verdict.counterexample) == 1200
    assert {side for _, side in verdict.counterexample} == {"right"}
    p = shallow(random_cpi_process, random.Random(16), 5000)
    assert validate_cpi(p).ok


# ---------------------------------------------------------------------------
# No function calls itself


def _call_graph():
    """Each function and method of ``cpi``, by ``module.qualname``, and
    the functions it calls that a name resolves to: a bare name to a
    function of an enclosing scope, of the module or imported from
    another module of the package; ``self.m`` or ``cls.m`` to a method
    of the enclosing class; a class to its ``__new__`` and ``__init__``.
    Calls through any other object are not followed."""
    defs: dict = {}
    for path in sorted(Path(cpi.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = path.stem
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        todo = [(tree, module, None)]
        while todo:
            scope, prefix, cls = todo.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    todo.append((node, f"{prefix}.{node.name}", f"{prefix}.{node.name}"))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{node.name}"
                    defs[name] = (node, prefix, cls, imported)
                    todo.append((node, name, None))
                else:
                    todo.append((node, prefix, cls))
    calls: dict = {}
    for name, (node, outer, cls, imported) in defs.items():
        found = set()
        todo = list(ast.iter_child_nodes(node))
        while todo:
            n = todo.pop()
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            todo.extend(ast.iter_child_nodes(n))
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            if isinstance(f, ast.Name):
                scopes = [name]
                while "." in scopes[-1]:
                    scopes.append(scopes[-1].rsplit(".", 1)[0])
                targets = [f"{s}.{f.id}" for s in scopes]
                if f.id in imported:
                    targets.append(imported[f.id])
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id in ("self", "cls") and cls is not None):
                targets = [f"{cls}.{f.attr}"]
            else:
                continue
            for t in targets:
                hits = [t] if t in defs else [
                    f"{t}.{m}" for m in ("__new__", "__init__") if f"{t}.{m}" in defs]
                if hits:
                    found.update(hits)
                    break
        calls[name] = found
    return calls


def test_no_function_recurses():
    # every walk along a term runs on an explicit stack, and the
    # bisimulation game and the random generator run on syntax.drive:
    # no function reaches itself, directly or through others
    calls = _call_graph()
    assert len(calls) > 150 and "syntax._walk" in calls

    def reaches_itself(f):
        seen, todo = set(), list(calls[f])
        while todo:
            g = todo.pop()
            if g == f:
                return True
            if g not in seen:
                seen.add(g)
                todo.extend(calls.get(g, ()))
        return False

    recursive = sorted(f for f in calls if reaches_itself(f))
    assert recursive == []
