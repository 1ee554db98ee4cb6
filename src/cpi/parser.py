"""Surface syntax: parsing and pretty-printing.

Grammar (``--`` starts a line comment)::

    P      ::= "0" | prefix "." P | P "|" P
             | "new" ident ("," ident)* "in" P | "!" P | "(" P ")"
    prefix ::= ident "!" "<" ident ("," ident)* ">"
             | ident "?" "(" ident ("," ident)* ")"
             | "[" ident "=" ident "]" prefix

``|`` binds loosest and associates to the left; ``!`` and ``new ... in``
extend as far right as possible; a prefix dot binds tighter than ``|``.

Name sorts are resolved from binding positions: receive binders are
variables, restricted names are channels, and free identifiers default to
channels.  The parser names each binder as it reads it, by the next of
the canonical numbers ``#0, #1, ...``, so what it builds is the
canonical form and no walk renames it.

The text layer is linear and does not recurse along chains.  The
tokenizer scans the text once with one pattern and keeps each token's
offset; an offset becomes a line and column only when a
:class:`CpiSyntaxError` is raised.  The parser reads a run of prefixes in
a loop and ``|`` chains in a loop, and keeps the processes that ``(``,
``!`` and ``new`` open on an explicit stack.  :func:`render` walks with an
explicit stack and keeps a text on the node asked for, on each prefix and
on each ``|`` component, never on the links of a chain, so what it keeps
is linear in the size of a chain.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional

from .syntax import (
    CHAN, VAR, CpiError, CpiViolation, Name, NIL, Nil, Par, Prefix, Prefixed,
    Process, Receive, Repl, Restrict, Send, SortError, _idents, _remember,
    _rollback, canonicalize, prefix_chain, validate_cpi, wrap_matches,
)

CPI = "cpi"
PI = "pi"


class CpiSyntaxError(CpiError):
    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"{line}:{col}: expected {expected}")


# One pattern for the whole text: whitespace and comments match as
# nothing, a token matches as group 1, and any other character matches as
# group 2, which is an error.
_IDENT = r"\#?[a-zA-Z][a-zA-Z0-9_]*|\#[0-9]+"
_IDENT_RE = re.compile(_IDENT)
_TOKEN_RE = re.compile(rf"""
    [ \t\r\n]+ | --[^\n]*
  | ({_IDENT}|[0!<>?()\[\]=,.|])
  | (.)
""", re.VERBOSE | re.DOTALL)


def is_identifier(text: str) -> bool:
    """Whether ``text`` is one identifier token, a reserved ``#`` name
    included."""
    return _IDENT_RE.fullmatch(text) is not None


def _syntax_error(text: str, pos: int, expected: str) -> CpiSyntaxError:
    """The error at offset ``pos`` of ``text``, with its line and column."""
    line = text.count("\n", 0, pos) + 1
    return CpiSyntaxError(line, pos - text.rfind("\n", 0, pos), expected)


def _tokenize(text: str, allow_reserved: bool) -> tuple[list, list[int]]:
    """The tokens of ``text`` and their offsets, in one scan.

    Both lists end in a sentinel: the token ``None`` at the offset
    ``len(text)``.  An offset becomes a line and column only when an
    error is raised."""
    toks: list = []
    offsets: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        if kind is None:
            continue
        if kind == 2:
            raise _syntax_error(text, m.start(), "a token")
        tok = m.group(1)
        if tok[0] == "#" and not allow_reserved:
            raise _syntax_error(
                text, m.start(),
                "a surface identifier (reserved '#' names rejected)")
        toks.append(tok)
        offsets.append(m.start())
    toks.append(None)
    offsets.append(len(text))
    return toks, offsets


class _Parser:
    """One reading of the tokens.  Binders are numbered in reading order,
    which is the traversal order of :func:`~cpi.syntax.canonicalize`: a
    prefix before its continuation, the left of '|' before the right.
    The numbers skip the identifiers in ``avoid``.  ``free`` collects the
    names of the free identifiers, each once."""

    def __init__(self, text: str, toks: list, offsets: list[int],
                 avoid: set[str] = frozenset()):
        self.text = text
        self.toks = toks
        self.offsets = offsets
        self.i = 0
        self.counter = itertools.count()
        self.numbers = _idents("#", avoid, self.counter)
        self.free: list[Name] = []

    def peek(self) -> str | None:
        return self.toks[self.i]

    def fail(self, expected: str):
        raise _syntax_error(self.text, self.offsets[self.i], expected)

    def take(self, expected: str | None = None) -> str:
        tok = self.toks[self.i]
        if tok is None:
            self.fail(expected or "more input")
        if expected is not None and tok != expected:
            self.fail(f"'{expected}'")
        self.i += 1
        return tok

    def take_ident(self) -> str:
        t = self.toks[self.i]
        if t is None or t in ("new", "in") or not (t[0].isalpha() or t[0] == "#"):
            self.fail("an identifier")
        self.i += 1
        return t

    def take_idents(self) -> list[str]:
        """One or more identifiers separated by commas."""
        idents = [self.take_ident()]
        while self.peek() == ",":
            self.take(",")
            idents.append(self.take_ident())
        return idents

    # -- grammar -----------------------------------------------------------

    def parse_process(self) -> Process:
        """A process, parsed in a loop.

        One scope dict maps each identifier in scope to its name, and a
        free identifier, once met, to its free channel.  A receive or
        ``new`` saves the outer entries it shadows on a trail, and each
        '|' chain keeps the trail's length at its start: the scope is
        rolled back to that mark before each term of the chain.
        ``opened`` keeps, for each '(', '!' or 'new' whose process is
        being read, the '|' chain around it, that chain's mark, the
        prefixes that guard it and its token."""
        scope = dict()
        trail: list = []
        mark = 0
        opened: list = []
        left = None
        while True:
            # A term: a run of prefixes, then '0' or an opening.
            if len(trail) > mark:
                _rollback(scope, trail, mark)
            prefixes = []
            while True:
                t = self.peek()
                if t is None:
                    self.fail("a process")
                # 'in' is taken for a subject, to fail as an identifier
                if not (t == "[" or t != "new" and (t[0].isalpha() or t[0] == "#")):
                    break
                prefixes.append(self.parse_prefix(scope, trail))
                self.take(".")
            if t not in ("0", "(", "!", "new"):
                self.fail("a process")
            self.i += 1
            if t != "0":
                channels = None
                if t == "new":
                    idents = self.take_idents()
                    self.take("in")
                    channels = self.bind(scope, trail, idents, CHAN)
                opened.append((left, mark, prefixes, t, channels))
                left, mark = None, len(trail)
                continue
            p = NIL
            while True:
                for prefix in reversed(prefixes):
                    p = Prefixed(prefix, p)
                left = p if left is None else Par(left, p)
                if self.peek() == "|":
                    self.take("|")
                    break
                if not opened:
                    return left
                # The innermost opened process ends here.
                p = left
                left, mark, prefixes, t, channels = opened.pop()
                if t == "(":
                    self.take(")")
                elif t == "!":
                    p = Repl(p)
                else:
                    for k in reversed(channels):
                        p = Restrict((k,), p)

    def parse_prefix(self, scope: dict[str, Name], trail: list) -> Prefix:
        """A prefix; a receive binds its binders in ``scope``, saving the
        outer entries on ``trail``."""
        guards = []
        while self.peek() == "[":
            self.take()
            a = self._resolve(self.take_ident(), scope)
            self.take("=")
            b = self._resolve(self.take_ident(), scope)
            self.take("]")
            guards.append((a, b))
        subject = self._resolve(self.take_ident(), scope)
        t = self.peek()
        if t == "!":
            self.take()
            self.take("<")
            objs = [self._resolve(i, scope) for i in self.take_idents()]
            self.take(">")
            return wrap_matches(guards, Send(subject, tuple(objs)))
        if t == "?":
            self.take()
            self.take("(")
            idents = self.take_idents()
            self.take(")")
            if len(set(idents)) != len(idents):
                self.fail("pairwise distinct receive binders")
            binders = self.bind(scope, trail, idents, VAR)
            return wrap_matches(guards, Receive(subject, binders))
        self.fail("'!' or '?'")

    def bind(self, scope: dict[str, Name], trail: list, idents: list[str],
             kind: str) -> tuple[Name, ...]:
        """Bring ``idents`` into ``scope`` as the next binder numbers, of
        sort ``kind``, saving the entries they shadow on ``trail``."""
        names = []
        for i in idents:
            n = Name(kind, next(self.numbers))
            trail.append((i, scope.get(i)))
            scope[i] = n
            names.append(n)
        return tuple(names)

    def _resolve(self, ident: str, scope: dict[str, Name]) -> Name:
        n = scope.get(ident)
        if n is None:
            # free: it stays in scope, where a binder may shadow it
            n = scope[ident] = Name(CHAN, ident)
            self.free.append(n)
        return n


def parse(text: str, mode: str = CPI, allow_reserved: bool = False) -> Process:
    """Parse surface text into a canonical process.

    Binders are numbered as they are read, so the tree built is the
    canonical form, with no renaming walk; it keeps its free names and
    is marked canonical.  With ``allow_reserved`` a free ``#k`` may be a
    number that was given out (``k`` below their count), and then the
    tokens are read once more, the numbers skipping the free identifiers.

    In ``cpi`` mode the confidential-fragment validator runs after
    parsing: object/binder sort violations raise :class:`CpiViolation`
    and arity clashes raise :class:`SortError`.  In ``pi`` mode only the
    arity check runs.
    """
    if mode not in (CPI, PI):
        raise ValueError(f"unknown parse mode {mode!r}")
    toks, offsets = _tokenize(text, allow_reserved)
    parser = _Parser(text, toks, offsets)
    p = parser.parse_process()
    if parser.peek() is not None:
        parser.fail("end of input")
    if allow_reserved:
        used = next(parser.counter)
        if any(n.ident[0] == "#" and n.ident[1:].isdecimal()
               and int(n.ident[1:]) < used for n in parser.free):
            parser = _Parser(text, toks, offsets,
                             {n.ident for n in parser.free})
            p = parser.parse_process()
    _remember(p, "_free", frozenset(parser.free))
    _remember(p, "_canonical", None)
    report = validate_cpi(p)
    if report.sort_violations:
        v = report.sort_violations[0]
        raise SortError(f"{v.message} (at {v.path or 'top'})")
    if mode == CPI and report.kind_violations:
        v = report.kind_violations[0]
        raise CpiViolation(f"{v.message} (at {v.path or 'top'})")
    return p


# ---------------------------------------------------------------------------
# Pretty-printing


def _extends_right(p: Process) -> bool:
    """True if the printed form of ``p`` would swallow a following '| Q'."""
    while True:
        kind = type(p)
        if kind is Prefixed:
            p = p.continuation
        elif kind is Par:
            p = p.right
        else:
            return kind is Restrict or kind is Repl


def _render_prefix(pre: Prefix) -> str:
    """The text of ``pre`` with each name printed as its identifier, kept
    on the prefix node unless an index (which prints with a ``^``) is
    among them; :func:`render` prints no such text."""
    text = getattr(pre, "_text", None)
    if text is not None:
        return text
    guards, core = prefix_chain(pre)
    text = "".join(f"[{a.ident}={b.ident}]" for a, b in guards)
    if type(core) is Send:
        text += f"{core.subject.ident}!<{','.join(o.ident for o in core.objects)}>"
    else:
        text += f"{core.subject.ident}?({','.join(b.ident for b in core.binders)})"
    if "^" not in text:
        _remember(pre, "_text", text)
    return text


def render(p: Process) -> str:
    """Minimal-parentheses text for ``p``.  Reparsing it (in ``pi`` mode,
    with reserved names allowed) yields ``canonicalize(p)`` when no two
    names of ``p`` of different sorts share an identifier, since the text
    does not show a name's sort.

    One walk with an explicit stack appends the parts of the text and
    joins them once, so the depth of ``p`` is no limit.  Terms are
    immutable, so a text is kept on its node: on ``p``, on each prefix,
    and on each ``|`` component that is not itself a ``|``.  Nothing is
    kept on the links of a prefix chain or on the body of ``new`` or
    ``!``.  So each character of the text is kept once for ``p`` and once
    more for each ``|`` component it lies in, however long the chains.
    Only those nodes are asked for a kept text: on a fresh term every such
    probe misses.

    The walk prints named terms only.  A nameless term (see
    :class:`~cpi.syntax.Idx`) is printed as its canonical form, which
    :func:`~cpi.syntax.canonicalize` names: the walk stops at its first
    index and prints that form instead."""
    text = _render(p)
    return _render(canonicalize(p)) if text is None else text


def _render(p: Process) -> Optional[str]:
    """The text of the named ``p`` for :func:`render`, or None when an
    index of a nameless term is met."""
    text = getattr(p, "_text", None)
    if text is not None:
        return text
    parts: list[str] = []
    # What is left to print, last first: a string, the right component
    # of a '|', or the (node, start) of a process to keep, whose text
    # starts at parts[start].
    todo: list = [(p, 0)]
    t, keep = p, False
    while True:
        text = getattr(t, "_text", None) if keep else None
        if text is not None:
            parts.append(text)
        else:
            if keep:
                todo.append((t, len(parts)))
            kind = type(t)
            if kind is Prefixed:
                text = _render_prefix(t.prefix)
                if "^" in text:
                    return None
                parts.append(text)
                t, keep = t.continuation, False
                if type(t) is Par:
                    parts.append(".(")
                    todo.append(")")
                else:
                    parts.append(".")
                continue
            if kind is Par:
                l, r = t.left, t.right
                if type(r) is Par:
                    todo += (")", r, " | (")
                else:
                    todo += (r, " | ")
                if _extends_right(l):
                    parts.append("(")
                    todo.append(")")
                t, keep = l, type(l) is not Par
                continue
            if kind is Restrict:
                names = []
                while type(t) is Restrict:
                    if type(t.channels[0]) is not Name:
                        return None
                    names += (k.ident for k in t.channels)
                    t = t.body
                parts.append(f"new {','.join(names)} in ")
                keep = False
                continue
            if kind is Repl:
                parts.append("!")
                t, keep = t.body, False
                continue
            if kind is not Nil:
                raise TypeError(t)
            parts.append("0")
        # ``t`` is printed: go on with what is left.
        while todo:
            item = todo.pop()
            kind = type(item)
            if kind is str:
                parts.append(item)
            elif kind is tuple:
                node, start = item
                text = "".join(parts[start:])
                parts[start:] = (text,)
                _remember(node, "_text", text)
            else:
                # a right component of '|', kept unless itself a '|'
                t, keep = item, kind is not Par
                break
        else:
            return "".join(parts)
