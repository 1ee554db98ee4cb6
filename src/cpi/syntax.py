"""Core term representation for the confidential pi-calculus workbench.

Names are split into two disjoint sorts: channels and variables.  A name's
sort is fixed at construction.  Processes are immutable trees built from
Nil, prefixing, parallel composition, channel restriction and replication;
prefixes are polyadic sends, polyadic receives and match guards.

Identifiers starting with ``#`` are reserved: they are produced by the
canonicalizer (and by the parser, which numbers binders as it does), the
substitution engine, the transition engine and the encoder, and the
surface parser rejects them in its input unless asked to accept them.
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
# its rendering) can be kept on the node.  The walk that makes a term's
# nameless form (:func:`nameless`) notes its free names, so one walk gives
# both, and the parser notes the free names of what it reads.  The table
# holds nodes weakly: it never keeps a term alive, a
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


class Idx(_Node):
    """A bound name without a name (de Bruijn, *Lambda calculus notation
    with nameless dummies*, 1972): ``up`` counts the binder groups (a
    receive's binders, the channels of a nest of restrictions) that lie
    between the occurrence and its binder, 0 for the nearest, and ``pos``
    is its place in that group.  A binder group is written with the indices its scope
    reads just inside it (:func:`_group`).  ``up`` is -1 for a hole: the
    name that is object ``pos`` of a bound output, as the output's target
    calls it until a client names it.

    Terms whose binders are indices are *nameless*: alpha-equivalent
    nameless terms are the same node, and only free names stay
    :class:`Name` s.  A nameless nest of restrictions is one node, whose
    body is not a restriction.  :func:`nameless` makes one, :func:`canonicalize` and
    ``parser.render`` name one as the canonical form is named."""

    __slots__ = __match_args__ = ("kind", "up", "pos")

    @property
    def is_channel(self) -> bool:
        return self.kind == CHAN

    @property
    def ident(self) -> str:
        # Read by an action's sort key inside the rule engine (a
        # transition handed to a client names its actions first), and by
        # parser.render, which names a prefix printed with a '^'.
        return f"^{self.up}.{self.pos}"


# The binder groups of nameless terms by kind and size, kept alive here.
_GROUPS: dict[tuple[str, int], tuple] = {}


def _group(kind: str, size: int) -> tuple:
    """The binder group of a nameless receive (``VAR``) or nest of
    restrictions (``CHAN``) of ``size`` names."""
    group = _GROUPS.get((kind, size))
    if group is None:
        group = _GROUPS[kind, size] = tuple(Idx(kind, 0, i) for i in range(size))
    return group


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
    # Memoised per node: _free by free_names, nameless, canonicalize and
    # parser.parse; _canonical by canonicalize and parser.parse; _nameless
    # by nameless and canonicalize; _text by parser.render.
    __slots__ = ("_free", "_canonical", "_nameless", "_text")


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
# The walk of nameless terms (_walk) fills its own contexts in the same
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
_FNN, _OUTPUTS, _BOUND = "fnn", "outputs", "bound"


def _names(p: Process, what: str) -> frozenset[Name]:
    """The names of ``p`` that ``what`` asks for: those with a free
    occurrence but for the names of reflexive guards (``_FNN``), the
    free channels that sends output (``_OUTPUTS``), or the binders
    (``_BOUND``).  ``env`` holds the binders in scope."""
    free = what is _FNN
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
                    if free and pre.lhs is not pre.rhs:
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
    """Names with a free occurrence in ``p`` (channels and variables).

    Each node keeps its set, made from its parts' sets, so a term built
    from parts already asked costs one step per new node: a target that
    the rule engine built around its source's subterms costs the nodes
    of its derivation path.  An index is never free.  The nodes below
    ``p`` that keep no set yet are done first, on an explicit stack."""
    free = getattr(p, "_free", None)
    if free is not None:
        return free
    todo = [p]
    while todo:
        t = todo[-1]
        if getattr(t, "_free", None) is not None:
            todo.pop()
            continue
        kind = type(t)
        if kind is Prefixed:
            rest = t.continuation
        elif kind is Par:
            rest = t.left
            right = t.right
            rf = getattr(right, "_free", None)
            if rf is None:
                todo.append(right)
                continue
        elif kind is Restrict or kind is Repl:
            rest = t.body
        elif kind is Nil:
            _remember(t, "_free", frozenset())
            todo.pop()
            continue
        else:
            raise TypeError(t)
        free = getattr(rest, "_free", None)
        if free is None:
            todo.append(rest)
            continue
        if kind is Prefixed:
            pre = t.prefix
            names = []
            while type(pre) is Match:
                names += (pre.lhs, pre.rhs)
                pre = pre.inner
            names.append(pre.subject)
            if type(pre) is Send:
                names += pre.objects
            elif free and type(pre.binders[0]) is Name:
                free = free.difference(pre.binders)
            names = [n for n in names if type(n) is Name and n not in free]
            if names:
                free = free.union(names)
        elif kind is Par:
            if not rf <= free:
                free = rf if free <= rf else free | rf
        elif kind is Restrict and free and type(t.channels[0]) is Name:
            free = free.difference(t.channels)
        _remember(t, "_free", free)
        todo.pop()
    return p._free


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

    The form is the naming of ``nameless(p)`` (:func:`_name`), so a
    named ``p`` costs two walks the first time it is asked; the parser
    builds canonical forms without a walk and marks them so.  A form is
    its own (recorded as None), keeps its free names and its nameless
    form.  A named ``p`` keeps its form; a nameless ``p`` (see
    :class:`Idx`) does not, since its form keeps it, and nodes must not
    make a reference cycle.
    """
    c = getattr(p, "_canonical", _UNSET)
    if c is not _UNSET:
        return p if c is None else c
    n = nameless(p)
    c = _name(n)
    _remember(c, "_free", free_names(n))
    _remember(c, "_canonical", None)
    if c is not n:
        _remember(c, "_nameless", n)
        if n is not p and c is not p:
            _remember(p, "_canonical", c)
    return c


# ---------------------------------------------------------------------------
# Nameless terms
#
# A nameless term (see Idx) is rebuilt by one walk, _walk, under one of
# three scopes: _convert makes it from a named term, _reindex moves one
# across binders or fills its holes, and _name names it as canonicalize
# names.  A scope is four functions over the walk's state: ``enter``
# opens a binder group over its scope and gives the group the copy
# binds, ``name`` maps a name in scope, and ``mark``/``restore`` save
# and return to the scope at a '|'.


def _walk(t: Process, enter, name, mark, restore) -> Process:
    """The copy of ``t`` under a scope, in the traversal discipline.  A
    named nest of restrictions is entered as one group; a group that
    comes out named is restricted one channel each, as canonical forms
    are.  Each context on ``todo`` keeps the node it came from, and a
    node whose parts come back as the very objects it holds is its own
    copy, with no table lookup: a term the scope leaves unchanged is
    rebuilt nowhere."""
    todo: list = []
    while True:
        kind = type(t)
        if kind is Prefixed:
            pre = core = t.prefix
            guards = None
            while type(core) is Match:
                if guards is None:
                    guards = []
                guards.append((name(core.lhs), name(core.rhs)))
                core = core.inner
            inner = core
            s = name(core.subject)
            if type(core) is Send:
                objs = tuple(map(name, core.objects))
                if s is not core.subject or objs != core.objects:
                    core = Send(s, objs)
            else:
                bs = enter(core.binders)
                if s is not core.subject or bs != core.binders:
                    core = Receive(s, bs)
            if guards is not None:
                g = pre
                same = core is inner
                for a, b in guards:
                    if a is not g.lhs or b is not g.rhs:
                        same = False
                        break
                    g = g.inner
                core = pre if same else wrap_matches(guards, core)
            todo.append(t if core is pre else core)
            t = t.continuation
        elif kind is Par:
            todo.append([t, mark()])
            t = t.left
        elif kind is Restrict:
            ks, body = t.channels, t.body
            if type(body) is Restrict and type(ks[0]) is Name:
                ks = list(ks)
                while type(body) is Restrict:
                    ks += body.channels
                    body = body.body
            todo.append((t, enter(tuple(ks))))
            t = body
        elif kind is Repl:
            todo.append(t)
            t = t.body
        elif kind is Nil:
            out = t
            while todo:
                node = todo.pop()
                kind = type(node)
                if kind is Prefixed:
                    if out is not node.continuation:
                        node = Prefixed(node.prefix, out)
                elif kind is tuple:
                    node, part = node
                    if type(node) is Par:
                        if part is not node.left or out is not node.right:
                            node = Par(part, out)
                    elif type(part[0]) is Idx or len(part) == 1:
                        if out is not node.body or part != node.channels:
                            node = Restrict(part, out)
                    else:
                        for k in reversed(part):
                            out = Restrict((k,), out)
                        node = out
                elif kind is list:
                    node, m = node
                    restore(m)
                    todo.append((node, out))
                    t = node.right
                    break
                elif kind is Repl:
                    if out is not node.body:
                        node = Repl(out)
                else:
                    node = Prefixed(node, out)
                out = node
            else:
                return out
        else:
            raise TypeError(t)


def nameless(p: Process) -> Process:
    """The nameless form of ``p``: each bound occurrence an :class:`Idx`,
    each nest of restrictions one node.  Alpha-equivalent terms have the
    same nameless form, and a nameless term is its own."""
    n = getattr(p, "_nameless", _UNSET)
    if n is _UNSET:
        n, free = _convert(p)
        free = frozenset(free)
        _remember(p, "_free", free)
        if n is not p:
            _remember(p, "_nameless", n)
            _remember(n, "_free", free)
        _remember(n, "_nameless", None)
        return n
    return p if n is None else n


def _convert(p: Process) -> tuple[Process, set[Name]]:
    """The walk of :func:`nameless`, and the free names it met.  ``env``
    maps each named binder in scope to its group's depth and its place
    in the group; ``depth`` counts the groups in scope.  An index of an
    already nameless part is kept."""
    env: dict[Name, tuple[int, int]] = {}
    trail: list = []
    free: set[Name] = set()
    depth = 0

    def enter(group):
        nonlocal depth
        if type(group[0]) is Name:
            for i, b in enumerate(group):
                trail.append((b, env.get(b)))
                env[b] = (depth, i)
            group = _group(group[0].kind, len(group))
        depth += 1
        return group

    def name(n):
        if type(n) is Name:
            at = env.get(n)
            if at is None:
                free.add(n)
            else:
                n = Idx(n.kind, depth - at[0] - 1, at[1])
        return n

    def mark():
        return len(trail), depth

    def restore(m):
        nonlocal depth
        _rollback(env, trail, m[0])
        depth = m[1]

    return _walk(p, enter, name, mark, restore), free


def _reindex(t: Process, levels: tuple = (), shift: int = 0,
             holes=None) -> Process:
    """``t`` with its dangling indices and holes replaced.  An index that
    leaves ``t`` by ``j`` groups takes ``levels[j][pos]`` while ``j <
    len(levels)``, and crosses ``shift`` more groups beyond; hole ``pos``
    takes ``holes[pos]`` (a tuple or a dict), or stays without
    ``holes``.  A replacement is read at the top of ``t``: an index in
    it is raised by the depth at which it lands."""
    depth = 0
    reach = len(levels)

    def enter(group):
        nonlocal depth
        depth += 1
        return group

    def name(n):
        if type(n) is Name:
            return n
        up = n.up
        if up < 0:
            if holes is None:
                return n
            r = holes[n.pos]
        else:
            j = up - depth
            if j < 0:
                return n
            if j >= reach:
                return Idx(n.kind, up + shift, n.pos) if shift else n
            r = levels[j][n.pos]
        if type(r) is Name or r.up < 0 or not depth:
            return r
        return Idx(r.kind, r.up + depth, r.pos)

    def mark():
        return depth

    def restore(m):
        nonlocal depth
        depth = m

    return _walk(t, enter, name, mark, restore)


def _holes(t: Process) -> set[int]:
    """The places of the holes that occur in ``t``."""
    out = set()
    todo = [t]
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is Prefixed:
            pre = t.prefix
            names = []
            while type(pre) is Match:
                names += (pre.lhs, pre.rhs)
                pre = pre.inner
            names.append(pre.subject)
            if type(pre) is Send:
                names += pre.objects
            out.update(n.pos for n in names if type(n) is Idx and n.up < 0)
            todo.append(t.continuation)
        elif kind is Par:
            todo += (t.right, t.left)
        elif kind is Restrict or kind is Repl:
            todo.append(t.body)
    return out


def _numbers(t: Process, holes: tuple = ()) -> Iterator[str]:
    """The identifiers that name the binders of the nameless ``t`` in
    traversal order, as :func:`canonicalize` numbers them: ``#0, #1,
    ...``, skipping the identifiers free in ``t``, where a hole ``i``
    that occurs is the free name ``holes[i]``."""
    avoid = {n.ident for n in free_names(t)}
    if holes:
        avoid.update(holes[i].ident for i in _holes(t))
    return _idents("#", avoid, itertools.count())


def _name(t: Process, holes: tuple = ()) -> Process:
    """The canonical form of the nameless ``t``: binders named by
    :func:`_numbers`, where hole ``i`` is the free name ``holes[i]``."""
    numbers = _numbers(t, holes)
    groups: list[tuple[Name, ...]] = []

    def enter(group):
        group = tuple(Name(b.kind, next(numbers)) for b in group)
        groups.append(group)
        return group

    def name(n):
        if type(n) is Name:
            return n
        if n.up < 0:
            return holes[n.pos]
        return groups[-1 - n.up][n.pos]

    def mark():
        return len(groups)

    def restore(m):
        del groups[m:]

    return _walk(t, enter, name, mark, restore)


def _scope(t: Process, at: Optional[Process] = None,
           sides: Iterable[str] = ()) -> tuple[Process, list[tuple[Name, ...]]]:
    """A node of the nameless ``t`` and the binder groups in scope there,
    outermost first, named as :func:`_name` names them.  The node is the
    first ``at`` in traversal order or, without ``at``, the first prefix
    reached by taking ``sides`` (each ``"par-l"`` or ``"par-r"``) at the
    '|'s on the way down.  The walk counts the binders it passes in
    traversal order, and names only the groups in scope at the node."""
    sides = iter(sides)
    used = 0
    # the groups in scope as (kind, first number, size); ``on`` is false
    # in the left of a '|' that the way down passes on the right
    groups: list[tuple[str, int, int]] = []
    todo = [(t, 0, True)]
    while todo:
        u, mark, on = todo.pop()
        del groups[mark:]
        while True:
            if on and (u is at if at is not None else type(u) is Prefixed):
                idents = list(itertools.islice(_numbers(t), used))
                return u, [tuple(Name(kind, i)
                                 for i in idents[first:first + size])
                           for kind, first, size in groups]
            kind = type(u)
            if kind is Prefixed:
                core = prefix_chain(u.prefix)[1]
                if type(core) is Receive:
                    groups.append((VAR, used, len(core.binders)))
                    used += len(core.binders)
                u = u.continuation
            elif kind is Par:
                if on and at is None:
                    if next(sides) == "par-l":
                        u = u.left
                        continue
                    todo.append((u.right, len(groups), True))
                    on = False
                else:
                    todo.append((u.right, len(groups), on))
                u = u.left
            elif kind is Restrict:
                groups.append((CHAN, used, len(u.channels)))
                used += len(u.channels)
                u = u.body
            elif kind is Repl:
                u = u.body
            else:
                break
    raise ValueError("the node is not in the term")


def alpha_equivalent(p: Process, q: Process) -> bool:
    return nameless(p) is nameless(q)


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
