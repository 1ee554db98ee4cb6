"""Surface syntax: parsing, precedence, errors, printing."""

import random
import sys
from pathlib import Path

import pytest

from rough_terms import rough_process
from cpi import parser
from cpi.encoding import SourceModeError, encode, encode_with_handlers
from cpi.gen import random_pi_process
from cpi.parser import CpiSyntaxError, PI, parse, render
from cpi.syntax import (
    NIL, CpiViolation, Match, Nil, Par, Prefixed, Receive, Repl, Restrict,
    Send, SortError, alpha_equivalent, canonicalize, chan, par, prefix_chain,
    var,
)

CORPUS_SCRIPTS = sorted(
    (Path(__file__).resolve().parent.parent / "corpus").glob("*/*.cpi"))


def test_parse_nil():
    assert parse("0") == Nil()


def test_parse_send_receive():
    p = parse("a!<b>.c?(x).0")
    assert isinstance(p, Prefixed)
    assert render(p) == "a!<b>.c?(#0).0"


def test_par_left_assoc_and_loosest():
    p = parse("a!<b>.0 | b!<a>.0 | 0")
    assert isinstance(p, Par) and isinstance(p.left, Par)


def test_prefix_binds_tighter_than_par():
    p = parse("a!<b>.0 | c!<d>.0")
    assert isinstance(p, Par)
    assert isinstance(p.left, Prefixed) and isinstance(p.right, Prefixed)


def test_new_extends_right():
    p = parse("new k in k!<a>.0 | a!<b>.0")
    assert isinstance(p, Restrict)
    assert isinstance(p.body, Par)


def test_repl_extends_right():
    p = parse("!a?(x).0 | b!<a>.0")
    assert isinstance(p, Repl)


def test_parens_cut_scope():
    p = parse("(new k in k!<a>.0) | a!<b>.0")
    assert isinstance(p, Par) and isinstance(p.left, Restrict)


def test_multi_restrict():
    p = parse("new k,l in k!<l>.0")
    # flattened to nested singles by canonicalization
    assert isinstance(p, Restrict) and isinstance(p.body, Restrict)


def test_match_prefix():
    p = parse("[a=b]c!<d>.0")
    assert render(p) == "[a=b]c!<d>.0"
    for text in ("[a=b][c=a]c!<d>.0", "[a=b][c=a]c?(#0).0"):
        assert render(parse(text, allow_reserved=True)) == text


def test_comments_and_whitespace():
    p = parse("-- a comment\na!<b>.0  -- trailing\n")
    assert render(p) == "a!<b>.0"


def test_receive_binder_shadowing():
    p = parse("a?(x).x!<b>.a?(x).x!<c>.0", mode=PI)
    assert render(canonicalize(p)) == "a?(#0).#0!<b>.a?(#1).#1!<c>.0"


def _scope_cases():
    a, b, k = chan("a"), chan("b"), chan("k")
    x, y, xc, yc = var("x"), var("y"), chan("x"), chan("y")

    def send(s, o, cont=NIL):
        return Prefixed(Send(s, (o,)), cont)

    def recv(s, v, cont=NIL):
        return Prefixed(Receive(s, (v,)), cont)

    return [
        # a receive's scope ends with the '(' around it, not at its '|'
        ("a?(x).(x!<a>.0 | x!<a>.0) | x!<a>.0",
         Par(recv(a, x, Par(send(x, a), send(x, a))), send(xc, a))),
        ("(a?(x).0) | x!<a>.0", Par(recv(a, x), send(xc, a))),
        # an inner binder shadows only in its own component
        ("a?(x).(a?(x).0 | x!<b>.0)",
         recv(a, x, Par(recv(a, x), send(x, b)))),
        ("a?(x).a?(y).(y!<x>.0 | b?(x).x!<y>.0) | y!<x>.0",
         Par(recv(a, x, recv(a, y, Par(send(y, x), recv(b, x, send(x, y))))),
             send(yc, xc))),
        # 'new' and '!' extend to the right, over every '|'
        ("new x in a?(x).x!<b>.0 | x!<b>.0",
         Restrict((xc,), Par(recv(a, x, send(x, b)), send(xc, b)))),
        ("!a?(x).x!<a>.0 | x!<a>.0",
         Repl(Par(recv(a, x, send(x, a)), send(xc, a)))),
        ("(new k in k!<a>.0 | a?(k).0) | k!<a>.0",
         Par(Restrict((k,), Par(send(k, a), recv(a, var("k")))), send(k, a))),
        ("a?(x).(new x in x!<a>.0) | (x!<a>.0 | b?(y).0) | y!<x>.0",
         Par(Par(recv(a, x, Restrict((xc,), send(xc, a))),
                 Par(send(xc, a), recv(b, y))),
             send(yc, xc))),
    ]


@pytest.mark.parametrize("text, tree", _scope_cases())
def test_scopes_end_where_their_process_ends(text, tree):
    assert parse(text, mode=PI) is canonicalize(tree)


def _receive_chain(n):
    return "".join(f"a?(x{i})." for i in range(n)) + "0"


class _CountingScope(dict):
    """A dict that counts the entries stored in it, those it is made
    with included."""

    stored = 0

    def __init__(self, *args):
        super().__init__(*args)
        _CountingScope.stored += len(self)

    def __setitem__(self, key, value):
        _CountingScope.stored += 1
        super().__setitem__(key, value)


def _parse_work(monkeypatch, text):
    """The work of parsing ``text``, in two deterministic counts: the
    lines of ``cpi`` code executed, and the entries stored in the dicts
    that ``cpi.parser`` makes (its scope), a copy's entries included."""
    monkeypatch.setattr(parser, "dict", _CountingScope, raising=False)
    _CountingScope.stored = 0
    package = str(Path(parser.__file__).parent)
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(trace)
    try:
        parse(text, mode=PI)
    finally:
        sys.settrace(None)
        monkeypatch.undo()
    return lines, _CountingScope.stored


def test_receive_chain_parses_in_linear_time(monkeypatch):
    # one scope dict and a trail: a receive does not copy the scope
    p = parse(_receive_chain(20000), mode=PI)
    text = render(p)
    assert text == "".join(f"a?(#{i})." for i in range(20000)) + "0"
    assert parse(text, mode=PI, allow_reserved=True) is p
    # quadratic work grows 16 times at 4 times the size
    small = _parse_work(monkeypatch, _receive_chain(4000))
    large = _parse_work(monkeypatch, _receive_chain(16000))
    assert small[1] >= 4000
    for work in zip(("lines", "scope entries"), small, large):
        assert work[2] < 5 * work[1], work


@pytest.mark.parametrize("text", ["a!<>", "a!<b>", "new in 0", "a?(x", "(0", "0 0"])
def test_syntax_errors(text):
    with pytest.raises(CpiSyntaxError) as ei:
        parse(text)
    assert ei.value.line >= 1 and ei.value.col >= 1


def test_syntax_error_positions():
    with pytest.raises(CpiSyntaxError) as ei:
        parse("a!<b>.0 |\n| 0")
    assert ei.value.line == 2


# (text, error without reserved names, error with them): the line,
# column and expectation of each CpiSyntaxError, or None where the text
# parses.  Computed with the character-by-character tokenizer and the
# recursive prefix parser that the one-scan tokenizer and the prefix loop
# replaced.
SYNTAX_ERRORS = [
    ("in", (1, 1, "an identifier"), (1, 1, "an identifier")),
    ("a!<b>.in", (1, 7, "an identifier"), (1, 7, "an identifier")),
    ("new in 0", (1, 5, "an identifier"), (1, 5, "an identifier")),
    ("new a in in", (1, 10, "an identifier"), (1, 10, "an identifier")),
    ("a!<b>.new", (1, 10, "an identifier"), (1, 10, "an identifier")),
    ("in.0", (1, 1, "an identifier"), (1, 1, "an identifier")),
    ("a!<>.0", (1, 4, "an identifier"), (1, 4, "an identifier")),
    ("a!<b,>.0", (1, 6, "an identifier"), (1, 6, "an identifier")),
    ("a!<b>", (1, 6, "."), (1, 6, ".")),
    ("a?(x", (1, 5, ")"), (1, 5, ")")),
    ("(0", (1, 3, ")"), (1, 3, ")")),
    ("0 0", (1, 3, "end of input"), (1, 3, "end of input")),
    ("", (1, 1, "a process"), (1, 1, "a process")),
    ("a!<b>.0 |\n| 0", (2, 1, "a process"), (2, 1, "a process")),
    ("a!<b>.0\r\n| $", (2, 3, "a token"), (2, 3, "a token")),
    ("\ta!<b>.0 |\t\t$x", (1, 13, "a token"), (1, 13, "a token")),
    ("-- comment\na!<b>.0 -- c\n| a?(x,x).0",
     (3, 10, "pairwise distinct receive binders"),
     (3, 10, "pairwise distinct receive binders")),
    ("#x!<a>.0 |",
     (1, 1, "a surface identifier (reserved '#' names rejected)"),
     (1, 11, "a process")),
    ("a?(#0).0 | a!<b>.0 0",
     (1, 4, "a surface identifier (reserved '#' names rejected)"),
     (1, 20, "end of input")),
    ("#", (1, 1, "a token"), (1, 1, "a token")),
    ("x1!<y>.01", (1, 9, "a token"), (1, 9, "a token")),
    ("[a=b]0", (1, 6, "an identifier"), (1, 6, "an identifier")),
    ("[a=b", (1, 5, "]"), (1, 5, "]")),
    ("a.0", (1, 2, "'!' or '?'"), (1, 2, "'!' or '?'")),
    ("!", (1, 2, "a process"), (1, 2, "a process")),
    ("a!<b>.0 | ", (1, 11, "a process"), (1, 11, "a process")),
    ("a-b", (1, 2, "a token"), (1, 2, "a token")),
    ("a!<b>.0\n\n  )", (3, 3, "end of input"), (3, 3, "end of input")),
    ("a!<b>.0 -- trailing comment\n|", (2, 2, "a process"), (2, 2, "a process")),
    ("new a in\r\n  new in 0", (2, 7, "an identifier"), (2, 7, "an identifier")),
    ("new a,b in a?(x,y,x).0",
     (1, 21, "pairwise distinct receive binders"),
     (1, 21, "pairwise distinct receive binders")),
    ("a!<b>.0 \u00e9", (1, 9, "a token"), (1, 9, "a token")),
]


@pytest.mark.parametrize("text, plain, reserved", SYNTAX_ERRORS)
def test_syntax_error_table(text, plain, reserved):
    for allow_reserved, expected in ((False, plain), (True, reserved)):
        with pytest.raises(CpiSyntaxError) as ei:
            parse(text, mode=PI, allow_reserved=allow_reserved)
        e = ei.value
        assert (e.line, e.col, e.expected) == expected, allow_reserved
        assert str(e) == f"{e.line}:{e.col}: expected {e.expected}"


def test_reserved_names_rejected_by_default():
    with pytest.raises(CpiSyntaxError):
        parse("#0!<a>.0")
    p = parse("#0!<a>.0", allow_reserved=True)
    assert render(p) == "#0!<a>.0"


def test_cpi_mode_rejects_forwarding():
    with pytest.raises(CpiViolation):
        parse("a?(x).b!<x>.0")
    parse("a?(x).b!<x>.0", mode=PI)  # fine in the full calculus


def test_both_modes_reject_arity_clash():
    with pytest.raises(SortError):
        parse("a!<b>.0 | a!<b,c>.0", mode=PI)


def test_render_parses_back():
    texts = [
        "a!<b>.0 | (new k in k!<a>.0) | 0",
        "!(a?(x).0 | b!<c>.0)",
        "new k,l in ([k=l]k!<l>.0 | k?(x).0)",
        "a?(x).(x?(y).0 | b!<c>.0)",
    ]
    for text in texts:
        p = parse(text, mode=PI)
        q = parse(render(p), mode=PI, allow_reserved=True)
        assert alpha_equivalent(p, q), text


def test_render_minimal_parens():
    # left association needs no parentheses; right nesting does
    assert render(parse("(a!<b>.0 | 0) | 0")) == "a!<b>.0 | 0 | 0"
    assert render(parse("a!<b>.0 | (0 | 0)")) == "a!<b>.0 | (0 | 0)"
    assert render(parse("(new k in k!<a>.0) | 0")) == "(new #0 in #0!<a>.0) | 0"


def _reference_render(p):
    """The recursive printer that the one-walk ``render`` replaced, without
    its memo: the text ``render`` must give, byte for byte."""
    def prefix(pre):
        guards, core = prefix_chain(pre)
        out = "".join(f"[{a.ident}={b.ident}]" for a, b in guards)
        if isinstance(core, Send):
            return out + f"{core.subject.ident}!<{','.join(o.ident for o in core.objects)}>"
        return out + f"{core.subject.ident}?({','.join(b.ident for b in core.binders)})"

    def extends_right(p):
        match p:
            case Restrict() | Repl():
                return True
            case Prefixed(continuation=cont):
                return extends_right(cont)
            case Par(right=r):
                return extends_right(r)
        return False

    match p:
        case Nil():
            return "0"
        case Prefixed(prefix=pre, continuation=cont):
            body = _reference_render(cont)
            if isinstance(cont, Par):
                body = f"({body})"
            return f"{prefix(pre)}.{body}"
        case Par(left=l, right=r):
            ls = _reference_render(l)
            if extends_right(l):
                ls = f"({ls})"
            rs = _reference_render(r)
            if isinstance(r, Par):
                rs = f"({rs})"
            return f"{ls} | {rs}"
        case Restrict(channels=ks, body=body):
            names = [k.ident for k in ks]
            while isinstance(body, Restrict):
                names.extend(k.ident for k in body.channels)
                body = body.body
            return f"new {','.join(names)} in {_reference_render(body)}"
        case Repl(body=body):
            return f"!{_reference_render(body)}"
    raise TypeError(p)


def _render_cases():
    for f in CORPUS_SCRIPTS:
        p = parse(f.read_text(), mode=PI)
        yield p
        try:
            yield encode_with_handlers(p)
        except SourceModeError:
            pass
    rng = random.Random(1207)
    for i in range(2000):
        p = random_pi_process(rng, rng.randint(1, 24), repl_weight=0.1)
        yield p
        yield canonicalize(p)
        yield encode_with_handlers(p) if i % 2 else encode(canonicalize(p))
    # several objects and binders, nested guards, 'new a,b', shadowing
    for _ in range(500):
        p = rough_process(rng, rng.randint(1, 16))
        yield p
        yield canonicalize(p)


def test_render_text_is_exact():
    # Terms share their nodes, so most of these reuse texts kept by an
    # earlier render: whole components, prefixes or the term itself.
    count = 0
    for p in _render_cases():
        assert render(p) == _reference_render(p)
        count += 1
    assert count > 7000


def test_render_deep_and_wide():
    # both overflowed the recursive printer
    chain = NIL
    for i in reversed(range(5000)):
        chain = Prefixed(Send(chan(f"d{i % 7}"), (chan("e"),)), chain)
    assert render(chain) == "".join(f"d{i % 7}!<e>." for i in range(5000)) + "0"
    guarded = Prefixed(Match(chan("g"), chan("h"), Send(chan("g"), (chan("h"),))), NIL)
    wide = par(*([guarded] * 2000))
    assert render(wide) == " | ".join(["[g=h]g!<h>.0"] * 2000)
    right = NIL
    for _ in range(2000):
        right = Par(guarded, right)
    assert render(right) == "[g=h]g!<h>.0 | (" * 1999 + "[g=h]g!<h>.0 | 0" + ")" * 1999


def _kept_text(p):
    """The characters kept by ``render`` on the distinct nodes of ``p``."""
    seen, todo, total = set(), [p], 0
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        total += len(getattr(t, "_text", ""))
        match t:
            case Prefixed(prefix=pre, continuation=cont):
                total += len(getattr(pre, "_text", ""))
                todo.append(cont)
            case Par(left=l, right=r):
                todo += (l, r)
            case Restrict(body=body) | Repl(body=body):
                todo.append(body)
    return total


def test_render_memo_is_linear():
    # the translation of a chain of 100 sends is a chain of about 500
    # nodes; keeping the text of every node would keep 7,569 characters
    # about 250 times over
    p = encode(parse("memo_a!<memo_b>." * 100 + "0"))
    text = render(p)
    assert len(text) > 7000
    assert _kept_text(p) <= 2 * len(text)
