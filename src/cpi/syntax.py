"""Core term representation for the confidential pi-calculus workbench.

Names are split into two disjoint sorts: channels and variables.  A name's
sort is fixed at construction.  Processes are immutable trees built from
Nil, prefixing, parallel composition, channel restriction and replication;
prefixes are polyadic sends, polyadic receives and match guards.

Identifiers starting with ``#`` are reserved: they are produced by the
canonicalizer, the substitution engine, the transition engine and the
encoder, and are rejected by the surface parser.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

CHAN = "chan"
VAR = "var"


class CpiError(Exception):
    """Base class for all workbench errors."""


class SortError(CpiError):
    """A name is used at more than one communication arity."""


class CpiViolation(CpiError):
    """A term falls outside the confidential fragment."""


class SubstitutionDomainError(CpiError):
    """A substitution tried to remap a binder occurrence."""


class ReservedNameError(CpiError):
    """A reserved (``#``-prefixed) identifier appeared where a surface
    name was required."""


# ---------------------------------------------------------------------------
# Hash-consed nodes
#
# Names, prefixes and processes are interned: constructing a node whose
# fields are the very objects of a live node's fields returns that node.
# Structurally equal terms are therefore the same object, so equality and
# hashing are by identity and cost O(1) however large the term, and a
# function of a term computed once (its free names, its canonical form,
# its rendering) can be kept on the node.  :func:`canonicalize` notes the
# free names as it renumbers, so one walk gives both; it walks a second
# time only when a free ``#k`` identifier may collide with a binder
# number.  The table holds nodes weakly: it never keeps a term alive, a
# node's memoised values are freed with it, and what the table holds
# never changes an answer.  (Filliâtre & Conchon, *Type-safe modular
# hash-consing*, ML Workshop 2006.)
#
# A node class declares only its fields, as ``__match_args__`` (and in
# ``__slots__``), and, when it checks them or derives a slot from them,
# an ``_init(self)``.  ``_Node.__init_subclass__`` gives each class its
# constructor, one closure per field count over the field names and
# ``_init``.  The key of a node is ``(cls, *fields)``.  A hit is one
# table lookup and one call of the weak reference; a miss sets the
# fields, runs ``_init`` and only then registers a ``_Ref`` whose
# callback drops the entry when the node dies, so a node that fails a
# check is never interned.  The actions of the transition system
# (``lts.OutAct`` and the rest) are interned through the same table in
# the same way.

_nodes: dict = {}
_remember = object.__setattr__


class _Ref(weakref.ref):
    """The table's weak reference to a node, carrying the node's key."""

    __slots__ = ("key",)


def _forget(ref: _Ref, nodes: dict = _nodes) -> None:
    # A node rebuilt after its death has a new entry under the same key;
    # the dead node's late callback must not remove it.
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _keep(node, key: tuple) -> None:
    ref = _Ref(node, _forget)
    ref.key = key
    _nodes[key] = ref


class _Gone:
    pass


# What a table miss reads: a reference that is dead from the start, so
# ``_nodes.get(key, _MISSING)()`` is the live node for ``key`` or None.
_MISSING = weakref.ref(_Gone())


def _constructor(fields: tuple[str, ...], init):
    """The ``__new__`` of a node class with these fields and ``_init``
    (or None).  Each field count has its own closure, so neither a hit
    nor a miss loops over the fields or looks up the class."""
    get, new = _nodes.get, object.__new__
    if not fields:
        def construct(cls):
            key = (cls,)
            node = get(key, _MISSING)()
            if node is None:
                node = new(cls)
                if init is not None:
                    init(node)
                _keep(node, key)
            return node
    elif len(fields) == 1:
        (f1,) = fields

        def construct(cls, v1):
            key = (cls, v1)
            node = get(key, _MISSING)()
            if node is None:
                node = new(cls)
                _remember(node, f1, v1)
                if init is not None:
                    init(node)
                _keep(node, key)
            return node
    elif len(fields) == 2:
        f1, f2 = fields

        def construct(cls, v1, v2):
            key = (cls, v1, v2)
            node = get(key, _MISSING)()
            if node is None:
                node = new(cls)
                _remember(node, f1, v1)
                _remember(node, f2, v2)
                if init is not None:
                    init(node)
                _keep(node, key)
            return node
    else:
        f1, f2, f3 = fields

        def construct(cls, v1, v2, v3):
            key = (cls, v1, v2, v3)
            node = get(key, _MISSING)()
            if node is None:
                node = new(cls)
                _remember(node, f1, v1)
                _remember(node, f2, v2)
                _remember(node, f3, v3)
                if init is not None:
                    init(node)
                _keep(node, key)
            return node
    return staticmethod(construct)


class _Node:
    """Base of the interned term classes: immutable, compared by identity."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__new__ = _constructor(cls.__match_args__,
                                   getattr(cls, "_init", None))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Name(_Node):
    __slots__ = __match_args__ = ("kind", "ident")

    def _init(self) -> None:
        if self.kind not in (CHAN, VAR):
            raise ValueError(f"bad name kind: {self.kind!r}")
        if not self.ident:
            raise ValueError("empty identifier")

    @property
    def is_channel(self) -> bool:
        return self.kind == CHAN

    @property
    def is_variable(self) -> bool:
        return self.kind == VAR

    @property
    def is_reserved(self) -> bool:
        return self.ident.startswith("#")

    def __repr__(self) -> str:
        tag = "c" if self.kind == CHAN else "v"
        return f"{tag}:{self.ident}"


def chan(ident: str) -> Name:
    return Name(CHAN, ident)


def var(ident: str) -> Name:
    return Name(VAR, ident)


# ---------------------------------------------------------------------------
# Prefixes and processes


# A prefix keeps its text in ``_text``, memoised by parser.render.


class Send(_Node):
    __slots__ = ("subject", "objects", "_text")
    __match_args__ = ("subject", "objects")

    def _init(self) -> None:
        if not self.objects:
            raise ValueError("send prefix needs at least one object")


class Receive(_Node):
    __slots__ = ("subject", "binders", "_text")
    __match_args__ = ("subject", "binders")

    def _init(self) -> None:
        binders = self.binders
        if not binders:
            raise ValueError("receive prefix needs at least one binder")
        for b in binders:
            if b.kind != VAR:
                raise ValueError("receive binders must be variables")
        if len(set(binders)) != len(binders):
            raise ValueError("receive binders must be pairwise distinct")


class Match(_Node):
    __slots__ = ("lhs", "rhs", "inner", "_text")
    __match_args__ = ("lhs", "rhs", "inner")


Prefix = Union[Send, Receive, Match]


class _Process(_Node):
    # Memoised per node: _free by free_names and canonicalize, _canonical
    # by canonicalize, _text by parser.render.
    __slots__ = ("_free", "_canonical", "_text")


class Nil(_Process):
    __slots__ = ()


class Prefixed(_Process):
    __slots__ = __match_args__ = ("prefix", "continuation")


class Par(_Process):
    __slots__ = __match_args__ = ("left", "right")


class Restrict(_Process):
    __slots__ = __match_args__ = ("channels", "body")

    def _init(self) -> None:
        if not self.channels:
            raise ValueError("restriction needs at least one channel")
        for k in self.channels:
            if k.kind != CHAN:
                raise ValueError("restriction binds channels only")


class Repl(_Process):
    __slots__ = __match_args__ = ("body",)


Process = Union[Nil, Prefixed, Par, Restrict, Repl]

NIL = Nil()


def par(*ps: Process) -> Process:
    """Left-associated parallel composition of one or more processes."""
    if not ps:
        return NIL
    out = ps[0]
    for p in ps[1:]:
        out = Par(out, p)
    return out


def restrict(channels: Iterable[Name], body: Process) -> Process:
    return Restrict(tuple(channels), body)


def prefix_chain(core: Prefix) -> tuple[list[tuple[Name, Name]], Prefix]:
    """Split a prefix into its match guards and the send/receive core."""
    guards: list[tuple[Name, Name]] = []
    while isinstance(core, Match):
        guards.append((core.lhs, core.rhs))
        core = core.inner
    return guards, core


def wrap_matches(guards: Iterable[tuple[Name, Name]], core: Prefix) -> Prefix:
    out = core
    for lhs, rhs in reversed(list(guards)):
        out = Match(lhs, rhs, out)
    return out


# ---------------------------------------------------------------------------
# The traversal discipline
#
# Every walk along a term is a loop on an explicit stack, so the depth of
# a term is no limit.  It visits in pre-order, the left of '|' before the
# right, and threads one mutable binder environment: when a scope opens
# the binder's outer entry is saved on a trail, which is rolled back to
# its length at a '|' before the right is walked.  A walk that builds a
# term pushes one-hole contexts on the way down and fills them on the way
# up (_fill): a prefix, for ``prefix.hole``, or one of these tuples.
# canonicalize's walk (_renumber) fills its own contexts in the same
# loop, each keeping the node it came from, so that a node whose parts
# come back unchanged is reused.  A function that would call itself on
# anything else, a round of the bisimulation game or a subterm of the
# random generator, is a generator run by ``drive``.
_RIGHT = 0      # (_RIGHT, right, mark): the right of a '|', still to walk
_PAR_L = 1      # (_PAR_L, left): Par(left, hole)
_PAR_R = 2      # (_PAR_R, right): Par(hole, right)
_NEW = 3        # (_NEW, channels): Restrict(channels, hole)
_REPL = (4,)    # Repl(hole)


def drive(step, *args):
    """The return value of the generator ``step(*args)``, where ``step``
    yields wherever it would call itself: each value it yields is the
    argument tuple of that call, and is answered with the call's return
    value.  The calls still open wait on a list, not on the Python
    stack, so their depth is no limit."""
    top = step(*args)
    stack = []
    value = None
    while True:
        try:
            args = top.send(value)
        except StopIteration as done:
            if not stack:
                return done.value
            top = stack.pop()
            value = done.value
        else:
            stack.append(top)
            top = step(*args)
            value = None


def _rollback(env: dict, trail: list, mark: int) -> None:
    """Restore the entries of ``env`` saved on ``trail`` beyond ``mark``."""
    while len(trail) > mark:
        b, outer = trail.pop()
        if outer is None:
            env.pop(b, None)
        else:
            env[b] = outer


def _fill(todo: list, out: Process, env: dict,
          trail: list) -> tuple[Optional[Process], Process]:
    """Fill the contexts on ``todo`` with ``out``, last first.  At a '|'
    whose right is still to walk, roll ``env`` back to that '|' and
    return ``(right, None)``; when ``todo`` is empty, ``(None, out)``."""
    while todo:
        item = todo.pop()
        if type(item) is not tuple:
            out = Prefixed(item, out)
            continue
        tag = item[0]
        if tag == _RIGHT:
            if len(trail) > item[2]:
                _rollback(env, trail, item[2])
            todo.append((_PAR_L, out))
            return item[1], None
        if tag == _PAR_L:
            out = Par(item[1], out)
        elif tag == _PAR_R:
            out = Par(out, item[1])
        elif tag == _NEW:
            out = Restrict(item[1], out)
        else:
            out = Repl(out)
    return None, out


# ---------------------------------------------------------------------------
# Name analysis


# What a walk of _names collects.
_FREE, _FNN, _OUTPUTS, _BOUND = "free", "fnn", "outputs", "bound"


def _names(p: Process, what: str) -> frozenset[Name]:
    """The names of ``p`` that ``what`` asks for: those with a free
    occurrence (``_FREE``), those but for the names of reflexive guards
    (``_FNN``), the free channels that sends output (``_OUTPUTS``), or
    the binders (``_BOUND``).  ``env`` holds the binders in scope."""
    free = what is _FREE or what is _FNN
    out: set[Name] = set()
    env: dict[Name, bool] = {}
    trail: list = []
    todo = [(p, 0)]
    while todo:
        t, mark = todo.pop()
        _rollback(env, trail, mark)
        while True:
            kind = type(t)
            if kind is Prefixed:
                pre = t.prefix
                names = []
                while type(pre) is Match:
                    if free and (what is _FREE or pre.lhs is not pre.rhs):
                        names += (pre.lhs, pre.rhs)
                    pre = pre.inner
                if type(pre) is Send:
                    binders = ()
                    if what is _OUTPUTS:
                        names += [o for o in pre.objects if o.kind == CHAN]
                    elif free:
                        names += (pre.subject, *pre.objects)
                else:
                    binders = pre.binders
                    if free:
                        names.append(pre.subject)
                for n in names:
                    if n not in env:
                        out.add(n)
                t = t.continuation
            elif kind is Par:
                todo.append((t.right, len(trail)))
                t = t.left
                continue
            elif kind is Restrict:
                binders = t.channels
                t = t.body
            elif kind is Repl:
                t = t.body
                continue
            elif kind is Nil:
                break
            else:
                raise TypeError(t)
            for b in binders:
                trail.append((b, env.get(b)))
                env[b] = True
            if what is _BOUND:
                out.update(binders)
    return frozenset(out)


def free_names(p: Process) -> frozenset[Name]:
    """Names with a free occurrence in ``p`` (channels and variables)."""
    free = getattr(p, "_free", None)
    if free is None:
        free = _names(p, _FREE)
        _remember(p, "_free", free)
    return free


def bound_names(p: Process) -> frozenset[Name]:
    """Names bound somewhere in ``p``: receive binders and restricted
    channels."""
    return _names(p, _BOUND)


def free_output_objects(p: Process) -> frozenset[Name]:
    """Free channels appearing as objects of output prefixes in ``p``."""
    return _names(p, _OUTPUTS)


def fnn(p: Process) -> frozenset[Name]:
    """Free names modulo reflexive match guards.

    A guard ``[a=a]`` contributes nothing; an unequal guard contributes
    both of its names.  Elsewhere this coincides with :func:`free_names`.
    """
    return _names(p, _FNN)


# ---------------------------------------------------------------------------
# Fresh names and substitution

def _idents(prefix: str, avoid: set[str], counter: Iterator[int]) -> Iterator[str]:
    """The identifiers ``<prefix><k>``, ``k`` drawn from ``counter``, that
    are not in ``avoid``."""
    idents = map(f"{prefix}{{}}".format, counter)
    return (i for i in idents if i not in avoid) if avoid else idents


def fresh_names(kind: str, tag: str, avoid: set[str], count: int) -> list[Name]:
    """The first ``count`` reserved names ``#<tag>0, #<tag>1, ...`` of
    sort ``kind`` whose identifiers are not in ``avoid``."""
    idents = _idents("#" + tag, avoid, itertools.count())
    return [Name(kind, next(idents)) for _ in range(count)]


def substitute(p: Process, sigma: Mapping[Name, Name]) -> Process:
    """Simultaneous capture-avoiding substitution.

    ``sigma`` may only send names to channels (the semantics substitutes
    received channels for input binders).  Binders that collide with the
    range are renamed to reserved names that are fresh for their scope,
    chosen from the term and ``sigma`` alone, so the result does not
    depend on what ran earlier in the process.  Raises
    :class:`SubstitutionDomainError` if a binder occurrence is in the
    domain.
    """
    for v in sigma.values():
        if not v.is_channel:
            raise SubstitutionDomainError(f"substitution value {v!r} is not a channel")
    domain = frozenset(sigma)
    m = dict(sigma)
    trail: list = []
    todo: list = []
    t = p
    while True:
        kind = type(t)
        if kind is Prefixed:
            guards, core = prefix_chain(t.prefix)
            if guards:
                guards = [(m.get(a, a), m.get(b, b)) for a, b in guards]
            s = m.get(core.subject, core.subject)
            if type(core) is Send:
                core = Send(s, tuple(map(m.get, core.objects, core.objects)))
            else:
                core = Receive(s, _rebind(core.binders, m, domain,
                                          t.continuation, trail))
            if guards:
                core = wrap_matches(guards, core)
            todo.append(core)
            t = t.continuation
        elif kind is Par:
            todo.append((_RIGHT, t.right, len(trail)))
            t = t.left
        elif kind is Restrict:
            todo.append((_NEW, _rebind(t.channels, m, domain, t.body, trail)))
            t = t.body
        elif kind is Repl:
            todo.append(_REPL)
            t = t.body
        elif kind is Nil:
            t, out = _fill(todo, t, m, trail)
            if t is None:
                return out
        else:
            raise TypeError(t)


def substitute_free(p: Process, sigma: Mapping[Name, Name]) -> Process:
    """Like :func:`substitute`, but the domain is first cut down to the
    names actually free in ``p``, so incidental binder shadowing in the
    wider term cannot trip the domain check."""
    fn = free_names(p)
    cut = {k: v for k, v in sigma.items() if k in fn}
    return substitute(p, cut) if cut else p


def _rebind(binders: tuple[Name, ...], m: dict[Name, Name],
            domain: frozenset[Name], scope: Process,
            trail: list) -> tuple[Name, ...]:
    """Open the scope of ``binders`` over ``scope`` in the map ``m``,
    saving each outer entry on ``trail``.  A binder that would capture a
    name of ``m``'s range is renamed apart from the names free in
    ``scope``, the range and the other binders; any other binder shadows
    its outer entry."""
    out = []
    taken = set(m.values())
    avoid = None
    for b in binders:
        if b in domain:
            raise SubstitutionDomainError(f"substitution remaps binder {b!r}")
        trail.append((b, m.get(b)))
        if b in taken:
            if avoid is None:
                avoid = {n.ident for n in free_names(scope) | taken}
                avoid.update(n.ident for n in binders)
            b2, = fresh_names(b.kind, "s", avoid, 1)
            avoid.add(b2.ident)
            m[b] = b2
            out.append(b2)
        else:
            m.pop(b, None)
            out.append(b)
    return tuple(out)


# ---------------------------------------------------------------------------
# Canonical forms and alpha-equivalence

# What a memo probe reads when the slot is not set.
_UNSET = object()


def canonicalize(p: Process) -> Process:
    """Alpha-canonical form of ``p``.

    Binders are renamed, in traversal order, to the reserved sequence
    ``#0, #1, ...`` (skipping identifiers that occur free in ``p``), and
    multi-channel restrictions are flattened into nested single ones.
    Two processes are alpha-equivalent iff their canonical forms are
    structurally equal; the result obeys the Barendregt convention.

    One walk numbers the binders skipping nothing and notes every name
    it meets free; both ``p`` and its canonical form keep that set as
    their :func:`free_names`.  Only when a free identifier is ``#k``
    with ``k`` below the count of numbers used can the numbering have
    captured it, and only then does a second walk skip the free
    identifiers.
    """
    c = getattr(p, "_canonical", _UNSET)
    if c is _UNSET:
        c, free, used = _renumber(p, set())
        free = frozenset(free)
        if _may_collide((n.ident for n in free), used):
            c = _renumber(p, {n.ident for n in free})[0]
        _remember(p, "_free", free)
        if c is not p:
            _remember(p, "_canonical", c)
            _remember(c, "_free", free)
        # The renaming is idempotent, so a canonical form is its own
        # (recorded as None: a node must not refer to itself).
        _remember(c, "_canonical", None)
        return c
    return p if c is None else c


def _may_collide(idents: Iterable[str], used: int) -> bool:
    """Whether one of the free ``idents`` may be a binder number
    ``#0 .. #<used - 1>`` that a numbering skipping nothing gave out."""
    return any(i[0] == "#" and i[1:].isdecimal() and int(i[1:]) < used
               for i in idents)


def _renumber(t: Process, avoid: set[str]) -> tuple[Process, set[Name], int]:
    """One renaming pass of :func:`canonicalize`: the copy of ``t`` whose
    binders are numbered in traversal order, skipping ``avoid``, the free
    names met, and the count of numbers used.  ``env`` maps each binder
    in scope to its number and each free name met to itself, so a name
    costs one ``env.get``, which renames it, and only the first
    occurrence of a free name is noted.  (A binder's scope saves and
    restores a free name's entry like any other.)

    Each context on ``todo`` keeps the node it came from: a prefixed
    node or a '!' itself, or ``(node, part)`` with the copy of the part
    beside the hole (the left of a '|', the one channel of a
    restriction) or, for a '|' whose right is still to walk, the trail
    mark to roll back to.  A renamed prefix is pushed alone.  A node
    whose parts come back as the very objects it holds is its own copy,
    with no table lookup, so an already canonical term is rebuilt
    nowhere.  Every node is still visited."""
    counter = itertools.count()
    numbers = _idents("#", avoid, counter)
    free: set[Name] = set()
    env: dict[Name, Name] = {}
    trail: list = []
    todo: list = []
    while True:
        kind = type(t)
        if kind is Prefixed:
            pre = core = t.prefix
            guards = None
            while type(core) is Match:
                a, b = core.lhs, core.rhs
                a2 = env.get(a)
                if a2 is None:
                    free.add(a)
                    env[a] = a2 = a
                b2 = env.get(b)
                if b2 is None:
                    free.add(b)
                    env[b] = b2 = b
                if guards is None:
                    guards, renamed = [], False
                guards.append((a2, b2))
                if a2 is not a or b2 is not b:
                    renamed = True
                core = core.inner
            inner = core
            s = core.subject
            s2 = env.get(s)
            if s2 is None:
                free.add(s)
                env[s] = s2 = s
            kind = type(core)
            if kind is Send:
                objs = []
                for o in core.objects:
                    o2 = env.get(o)
                    if o2 is None:
                        free.add(o)
                        env[o] = o2 = o
                    objs.append(o2)
                objs = tuple(objs)
                if s2 is not s or objs != core.objects:
                    core = Send(s2, objs)
            elif kind is Receive:
                bs = []
                for b in core.binders:
                    trail.append((b, env.get(b)))
                    env[b] = nb = Name(VAR, next(numbers))
                    bs.append(nb)
                bs = tuple(bs)
                if s2 is not s or bs != core.binders:
                    core = Receive(s2, bs)
            else:
                raise TypeError(core)
            if guards is not None:
                core = (wrap_matches(guards, core)
                        if renamed or core is not inner else pre)
            todo.append(t if core is pre else core)
            t = t.continuation
            continue
        if kind is Par:
            todo.append((t, len(trail)))
            t = t.left
            continue
        if kind is Restrict:
            # one restriction per channel
            for k in t.channels:
                trail.append((k, env.get(k)))
                env[k] = nk = Name(CHAN, next(numbers))
                todo.append((t, (nk,)))
            t = t.body
            continue
        if kind is Repl:
            todo.append(t)
            t = t.body
            continue
        if kind is not Nil:
            raise TypeError(t)
        # Fill the contexts with ``out``, last first, up to a '|' whose
        # right is still to walk.
        out = t
        while todo:
            node = todo.pop()
            kind = type(node)
            if kind is Prefixed:
                if out is not node.continuation:
                    node = Prefixed(node.prefix, out)
            elif kind is tuple:
                node, part = node
                if type(part) is int:
                    if len(trail) > part:
                        _rollback(env, trail, part)
                    todo.append((node, out))
                    t = node.right
                    break
                if type(node) is Par:
                    if part is not node.left or out is not node.right:
                        node = Par(part, out)
                elif out is not node.body or part != node.channels:
                    node = Restrict(part, out)
            elif kind is Repl:
                if out is not node.body:
                    node = Repl(out)
            else:
                node = Prefixed(node, out)
            out = node
        else:
            return out, free, next(counter)


def alpha_equivalent(p: Process, q: Process) -> bool:
    return canonicalize(p) == canonicalize(q)


# ---------------------------------------------------------------------------
# Confidential-fragment validation


@dataclass(frozen=True)
class Violation:
    path: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    kind_violations: tuple[Violation, ...]
    sort_violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.kind_violations and not self.sort_violations

    @property
    def violations(self) -> tuple[Violation, ...]:
        return self.kind_violations + self.sort_violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "kind_violations": [{"path": v.path, "message": v.message}
                                for v in self.kind_violations],
            "sort_violations": [{"path": v.path, "message": v.message}
                                for v in self.sort_violations],
        }


def validate_cpi(p: Process) -> ValidationReport:
    """Check membership in the confidential fragment plus well-sortedness.

    Accepted iff every send object is a channel, every receive binder is a
    variable (guaranteed by construction) and every name is used as a
    communication subject at a single arity.

    The report reads as if it were made on ``canonicalize(p)``: its paths
    and names are those of the canonical form, so shadowed binders cannot
    produce spurious sort clashes.  One walk numbers the binders in the
    order :func:`canonicalize` does instead of building that copy; a
    number becomes a name only when a violation is reported.
    """
    # A binder in scope maps in ``env`` to its ``(kind, number)``; a free
    # name stands for itself.  The walk keeps, per subject, the first path
    # at which each arity is used, the kind violations as path and object,
    # and the free names whose identifier starts with '#', which the
    # canonical numbering skips.
    kind_viols: list[tuple[tuple, Union[Name, tuple]]] = []
    arities: dict[Union[Name, tuple], dict[int, tuple]] = {}
    reserved: set[Name] = set()
    used = 0
    env: dict[Name, tuple[str, int]] = {}
    trail: list = []
    todo: list = [(p, None, 0)]
    while todo:
        t, path, mark = todo.pop()
        _rollback(env, trail, mark)
        while True:
            kind = type(t)
            if kind is Prefixed:
                pre, at = t.prefix, (path, "/prefix")
                while type(pre) is Match:
                    for n in (pre.lhs, pre.rhs):
                        if n.ident[0] == "#" and n not in env:
                            reserved.add(n)
                    pre, at = pre.inner, (at, "/match")
                s = pre.subject
                subject = env.get(s, s)
                if subject is s and s.ident[0] == "#":
                    reserved.add(s)
                if type(pre) is Send:
                    objs = pre.objects
                    arities.setdefault(subject, {}).setdefault(len(objs), at)
                    for o in objs:
                        if o.ident[0] == "#" and o not in env:
                            reserved.add(o)
                        if not o.is_channel:
                            kind_viols.append((at, env.get(o, o)))
                else:
                    bs = pre.binders
                    arities.setdefault(subject, {}).setdefault(len(bs), at)
                    for b in bs:
                        trail.append((b, env.get(b)))
                        env[b] = (VAR, used)
                        used += 1
                t, path = t.continuation, (path, "/cont")
            elif kind is Par:
                todo.append((t.right, (path, "/par.right"), len(trail)))
                t, path = t.left, (path, "/par.left")
            elif kind is Restrict:
                # The canonical form nests one restriction per channel.
                for k in t.channels:
                    trail.append((k, env.get(k)))
                    env[k] = (CHAN, used)
                    used += 1
                    path = (path, "/new")
                t = t.body
            elif kind is Repl:
                t, path = t.body, (path, "/repl")
            else:
                break
    clashes = [(n, paths) for n, paths in arities.items() if len(paths) > 1]
    if not kind_viols and not clashes:
        return ValidationReport((), ())
    # Binder k is named by the k-th name canonicalize's numbering gives
    # out, which skips the free identifiers that start with '#'.
    numbers = _idents("#", {n.ident for n in reserved}, itertools.count())
    idents = [next(numbers) for _ in range(used)]

    def name(n: Union[Name, tuple]) -> Name:
        return n if type(n) is Name else Name(n[0], idents[n[1]])

    kind_viols = tuple(
        Violation(_path_text(at), f"send object {name(o).ident!r} is a variable")
        for at, o in kind_viols)
    named = {name(n): paths for n, paths in clashes}
    sort_viols = tuple(
        Violation(min(map(_path_text, named[n].values())),
                  f"name {n.ident!r} used at arities {sorted(named[n])}")
        for n in sorted(named, key=lambda n: (n.kind, n.ident)))
    return ValidationReport(kind_viols, sort_viols)


def _path_text(path: Optional[tuple]) -> str:
    """The text of a path kept as ``(parent path, step)`` links."""
    steps = []
    while path is not None:
        path, step = path
        steps.append(step)
    return "".join(reversed(steps))
