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
from typing import Iterable, Mapping, Optional, Union

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
# Every term is built through these constructors, so each one is written
# out in full: a hit is one table lookup and one call of the weak
# reference; a miss checks the fields, sets the slots and registers a
# ``_Ref`` whose callback drops the entry when the node dies.

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


class _Node:
    """Base of the interned term classes: immutable, compared by identity."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

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

    def __new__(cls, kind: str, ident: str) -> "Name":
        key = (cls, kind, ident)
        node = _nodes.get(key, _MISSING)()
        if node is None:
            if kind not in (CHAN, VAR):
                raise ValueError(f"bad name kind: {kind!r}")
            if not ident:
                raise ValueError("empty identifier")
            node = object.__new__(cls)
            _remember(node, "kind", kind)
            _remember(node, "ident", ident)
            _keep(node, key)
        return node

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

    def __new__(cls, subject: Name, objects: tuple[Name, ...]) -> "Send":
        key = (cls, subject, objects)
        node = _nodes.get(key, _MISSING)()
        if node is None:
            if not objects:
                raise ValueError("send prefix needs at least one object")
            node = object.__new__(cls)
            _remember(node, "subject", subject)
            _remember(node, "objects", objects)
            _keep(node, key)
        return node


class Receive(_Node):
    __slots__ = ("subject", "binders", "_text")
    __match_args__ = ("subject", "binders")

    def __new__(cls, subject: Name, binders: tuple[Name, ...]) -> "Receive":
        key = (cls, subject, binders)
        node = _nodes.get(key, _MISSING)()
        if node is None:
            if not binders:
                raise ValueError("receive prefix needs at least one binder")
            for b in binders:
                if b.kind != VAR:
                    raise ValueError("receive binders must be variables")
            if len(set(binders)) != len(binders):
                raise ValueError("receive binders must be pairwise distinct")
            node = object.__new__(cls)
            _remember(node, "subject", subject)
            _remember(node, "binders", binders)
            _keep(node, key)
        return node


class Match(_Node):
    __slots__ = ("lhs", "rhs", "inner", "_text")
    __match_args__ = ("lhs", "rhs", "inner")

    def __new__(cls, lhs: Name, rhs: Name, inner: "Prefix") -> "Match":
        key = (cls, lhs, rhs, inner)
        node = _nodes.get(key, _MISSING)()
        if node is None:
            node = object.__new__(cls)
            _remember(node, "lhs", lhs)
            _remember(node, "rhs", rhs)
            _remember(node, "inner", inner)
            _keep(node, key)
        return node


Prefix = Union[Send, Receive, Match]


class _Process(_Node):
    # Memoised per node: _free by free_names and canonicalize, _canonical
    # by canonicalize, _text by parser.render.
    __slots__ = ("_free", "_canonical", "_text")


class Nil(_Process):
    __slots__ = ()

    def __new__(cls) -> "Nil":
        key = (cls,)
        node = _nodes.get(key, _MISSING)()
        if node is None:
            node = object.__new__(cls)
            _keep(node, key)
        return node


class Prefixed(_Process):
    __slots__ = __match_args__ = ("prefix", "continuation")

    def __new__(cls, prefix: Prefix, continuation: "Process") -> "Prefixed":
        key = (cls, prefix, continuation)
        node = _nodes.get(key, _MISSING)()
        if node is None:
            node = object.__new__(cls)
            _remember(node, "prefix", prefix)
            _remember(node, "continuation", continuation)
            _keep(node, key)
        return node


class Par(_Process):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: "Process", right: "Process") -> "Par":
        key = (cls, left, right)
        node = _nodes.get(key, _MISSING)()
        if node is None:
            node = object.__new__(cls)
            _remember(node, "left", left)
            _remember(node, "right", right)
            _keep(node, key)
        return node


class Restrict(_Process):
    __slots__ = __match_args__ = ("channels", "body")

    def __new__(cls, channels: tuple[Name, ...], body: "Process") -> "Restrict":
        key = (cls, channels, body)
        node = _nodes.get(key, _MISSING)()
        if node is None:
            if not channels:
                raise ValueError("restriction needs at least one channel")
            for k in channels:
                if k.kind != CHAN:
                    raise ValueError("restriction binds channels only")
            node = object.__new__(cls)
            _remember(node, "channels", channels)
            _remember(node, "body", body)
            _keep(node, key)
        return node


class Repl(_Process):
    __slots__ = __match_args__ = ("body",)

    def __new__(cls, body: "Process") -> "Repl":
        key = (cls, body)
        node = _nodes.get(key, _MISSING)()
        if node is None:
            node = object.__new__(cls)
            _remember(node, "body", body)
            _keep(node, key)
        return node


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
# Name analysis


def _prefix_free(pre: Prefix, cont_free: frozenset[Name]) -> frozenset[Name]:
    match pre:
        case Send(subject=s, objects=objs):
            return cont_free | {s} | set(objs)
        case Receive(subject=s, binders=bs):
            return (cont_free - set(bs)) | {s}
        case Match(lhs=a, rhs=b, inner=inner):
            return _prefix_free(inner, cont_free) | {a, b}
    raise TypeError(pre)


def free_names(p: Process) -> frozenset[Name]:
    """Names with a free occurrence in ``p`` (channels and variables)."""
    try:
        return p._free
    except AttributeError:
        pass
    match p:
        case Nil():
            out = frozenset()
        case Prefixed(prefix=pre, continuation=cont):
            out = _prefix_free(pre, free_names(cont))
        case Par(left=l, right=r):
            out = free_names(l) | free_names(r)
        case Restrict(channels=ks, body=body):
            out = free_names(body) - set(ks)
        case Repl(body=body):
            out = free_names(body)
        case _:
            raise TypeError(p)
    _remember(p, "_free", out)
    return out


def bound_names(p: Process) -> frozenset[Name]:
    """Names bound somewhere in ``p``: receive binders and restricted
    channels.  One walk collects them into one set, following
    continuations and bodies in a loop."""
    out: set[Name] = set()
    todo = [p]
    while todo:
        t = todo.pop()
        while True:
            kind = type(t)
            if kind is Prefixed:
                core = t.prefix
                while type(core) is Match:
                    core = core.inner
                if type(core) is Receive:
                    out.update(core.binders)
                t = t.continuation
            elif kind is Par:
                todo.append(t.left)
                t = t.right
            elif kind is Restrict:
                out.update(t.channels)
                t = t.body
            elif kind is Repl:
                t = t.body
            elif kind is Nil:
                break
            else:
                raise TypeError(t)
    return frozenset(out)


def _prefix_fo(pre: Prefix) -> frozenset[Name]:
    match pre:
        case Send(objects=objs):
            return frozenset(o for o in objs if o.is_channel)
        case Receive():
            return frozenset()
        case Match(inner=inner):
            return _prefix_fo(inner)
    raise TypeError(pre)


def free_output_objects(p: Process) -> frozenset[Name]:
    """Free channels appearing as objects of output prefixes in ``p``."""
    match p:
        case Nil():
            return frozenset()
        case Prefixed(prefix=pre, continuation=cont):
            return _prefix_fo(pre) | free_output_objects(cont)
        case Par(left=l, right=r):
            return free_output_objects(l) | free_output_objects(r)
        case Restrict(channels=ks, body=body):
            return free_output_objects(body) - set(ks)
        case Repl(body=body):
            return free_output_objects(body)
    raise TypeError(p)


def _prefix_fnn(pre: Prefix, cont: frozenset[Name]) -> frozenset[Name]:
    match pre:
        case Send(subject=s, objects=objs):
            return cont | {s} | set(objs)
        case Receive(subject=s, binders=bs):
            return (cont - set(bs)) | {s}
        case Match(lhs=a, rhs=b, inner=inner):
            if a == b:
                return _prefix_fnn(inner, cont)
            return _prefix_fnn(inner, cont) | {a, b}
    raise TypeError(pre)


def fnn(p: Process) -> frozenset[Name]:
    """Free names modulo reflexive match guards.

    A guard ``[a=a]`` contributes nothing; an unequal guard contributes
    both of its names.  Elsewhere this coincides with :func:`free_names`.
    """
    match p:
        case Nil():
            return frozenset()
        case Prefixed(prefix=pre, continuation=cont):
            return _prefix_fnn(pre, fnn(cont))
        case Par(left=l, right=r):
            return fnn(l) | fnn(r)
        case Restrict(channels=ks, body=body):
            return fnn(body) - set(ks)
        case Repl(body=body):
            return fnn(body)
    raise TypeError(p)


# ---------------------------------------------------------------------------
# Fresh names and substitution

def fresh_like(n: Name, avoid: set[str]) -> Name:
    """The first reserved name ``#s0, #s1, ...`` of ``n``'s sort whose
    identifier is not in ``avoid``."""
    j = 0
    while f"#s{j}" in avoid:
        j += 1
    return Name(n.kind, f"#s{j}")


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
    return _subst(p, dict(sigma), domain)


def substitute_free(p: Process, sigma: Mapping[Name, Name]) -> Process:
    """Like :func:`substitute`, but the domain is first cut down to the
    names actually free in ``p``, so incidental binder shadowing in the
    wider term cannot trip the domain check."""
    fn = free_names(p)
    cut = {k: v for k, v in sigma.items() if k in fn}
    return substitute(p, cut) if cut else p


def _rebind(binders: tuple[Name, ...], m: dict[Name, Name],
            domain: frozenset[Name],
            scope: Process) -> tuple[tuple[Name, ...], dict[Name, Name]]:
    """Substitute under ``binders``, which bind in ``scope``: a binder
    that would capture a name of ``m``'s range is renamed apart from the
    names free in ``scope``, the range and the other binders."""
    m2 = dict(m)
    out = []
    taken = set(m2.values())
    avoid = None
    for b in binders:
        if b in domain:
            raise SubstitutionDomainError(f"substitution remaps binder {b!r}")
        if b in taken:
            if avoid is None:
                avoid = {n.ident for n in free_names(scope) | taken}
                avoid.update(n.ident for n in binders)
            b2 = fresh_like(b, avoid)
            avoid.add(b2.ident)
            m2[b] = b2
            out.append(b2)
        else:
            m2.pop(b, None)
            out.append(b)
    return tuple(out), m2


def _subst_name(n: Name, m: Mapping[Name, Name]) -> Name:
    return m.get(n, n)


def _subst_prefix(pre: Prefix, m: dict[Name, Name], domain: frozenset[Name],
                  cont: Process) -> tuple[Prefix, dict[Name, Name]]:
    match pre:
        case Send(subject=s, objects=objs):
            return Send(_subst_name(s, m), tuple(_subst_name(o, m) for o in objs)), m
        case Receive(subject=s, binders=bs):
            s2 = _subst_name(s, m)
            bs2, m2 = _rebind(bs, m, domain, cont)
            return Receive(s2, bs2), m2
        case Match(lhs=a, rhs=b, inner=inner):
            inner2, m2 = _subst_prefix(inner, m, domain, cont)
            return Match(_subst_name(a, m), _subst_name(b, m), inner2), m2
    raise TypeError(pre)


def _subst(p: Process, m: dict[Name, Name], domain: frozenset[Name]) -> Process:
    match p:
        case Nil():
            return p
        case Prefixed(prefix=pre, continuation=cont):
            pre2, m2 = _subst_prefix(pre, m, domain, cont)
            return Prefixed(pre2, _subst(cont, m2, domain))
        case Par(left=l, right=r):
            return Par(_subst(l, m, domain), _subst(r, m, domain))
        case Restrict(channels=ks, body=body):
            ks2, m2 = _rebind(ks, m, domain, body)
            return Restrict(ks2, _subst(body, m2, domain))
        case Repl(body=body):
            return Repl(_subst(body, m, domain))
    raise TypeError(p)


# ---------------------------------------------------------------------------
# Canonical forms and alpha-equivalence


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
    try:
        c = p._canonical
    except AttributeError:
        walker = _Canonicalizer(frozenset())
        c = walker.walk(p, {})
        free = frozenset(walker.free)
        if _may_collide((n.ident for n in free), next(walker.counter)):
            c = _Canonicalizer(free).walk(p, {})
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


class _Canonicalizer:
    """One renaming pass of :func:`canonicalize`: the free identifiers to
    skip, the next binder number and the free names met so far."""

    __slots__ = ("avoid", "counter", "free")

    def __init__(self, free: frozenset[Name]):
        self.avoid = {n.ident for n in free}
        self.counter = itertools.count()
        self.free: set[Name] = set()

    def fresh(self, kind: str) -> Name:
        while True:
            ident = f"#{next(self.counter)}"
            if ident not in self.avoid:
                return Name(kind, ident)

    # The term classes have no subclasses, so the walks dispatch on
    # ``type(t) is ...``; each name costs one ``env.get``, which both
    # renames it and tells whether it is free.

    def prefix(self, pre: Prefix, env: dict[Name, Name]) -> tuple[Prefix, dict[Name, Name]]:
        free = self.free
        kind = type(pre)
        if kind is Match:
            inner, env2 = self.prefix(pre.inner, env)
            a, b = pre.lhs, pre.rhs
            a2 = env.get(a)
            if a2 is None:
                free.add(a)
                a2 = a
            b2 = env.get(b)
            if b2 is None:
                free.add(b)
                b2 = b
            return Match(a2, b2, inner), env2
        s = pre.subject
        s2 = env.get(s)
        if s2 is None:
            free.add(s)
            s2 = s
        if kind is Send:
            objs = []
            for o in pre.objects:
                o2 = env.get(o)
                if o2 is None:
                    free.add(o)
                    o2 = o
                objs.append(o2)
            return Send(s2, tuple(objs)), env
        if kind is Receive:
            env2 = dict(env)
            fresh = []
            for b in pre.binders:
                env2[b] = nb = self.fresh(VAR)
                fresh.append(nb)
            return Receive(s2, tuple(fresh)), env2
        raise TypeError(pre)

    def walk(self, t: Process, env: dict[Name, Name]) -> Process:
        kind = type(t)
        if kind is Prefixed:
            pre, env2 = self.prefix(t.prefix, env)
            return Prefixed(pre, self.walk(t.continuation, env2))
        if kind is Par:
            return Par(self.walk(t.left, env), self.walk(t.right, env))
        if kind is Restrict:
            env2 = dict(env)
            fresh = []
            for k in t.channels:
                env2[k] = nk = self.fresh(CHAN)
                fresh.append(nk)
            out = self.walk(t.body, env2)
            for nk in reversed(fresh):
                out = Restrict((nk,), out)
            return out
        if kind is Repl:
            return Repl(self.walk(t.body, env))
        if kind is Nil:
            return t
        raise TypeError(t)


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
    v = _Validator()
    v.walk(p, None)
    clashes = [(n, paths) for n, paths in v.arities.items() if len(paths) > 1]
    if not v.kind_viols and not clashes:
        return ValidationReport((), ())
    # Binder k is named by the k-th name canonicalize's numbering gives
    # out, which skips the free identifiers that start with '#'.
    fresh = _Canonicalizer(v.reserved).fresh
    idents = [fresh(VAR).ident for _ in range(v.used)]

    def name(n: Union[Name, tuple]) -> Name:
        return n if type(n) is Name else Name(n[0], idents[n[1]])

    kind_viols = tuple(
        Violation(_path_text(at), f"send object {name(o).ident!r} is a variable")
        for at, o in v.kind_viols)
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


class _Validator:
    """One walk of :func:`validate_cpi`.  A binder in scope maps in
    ``env`` to its ``(kind, number)``, numbered from 0 in the order
    :func:`canonicalize` renames binders; a free name stands for itself.
    The walk keeps, per subject, the first path at which each arity is
    used, the kind violations found so far as path and object, and the
    free names whose identifier starts with ``#``, which the canonical
    numbering skips."""

    __slots__ = ("kind_viols", "arities", "env", "used", "reserved")

    def __init__(self) -> None:
        self.kind_viols: list[tuple[tuple, Union[Name, tuple]]] = []
        self.arities: dict[Union[Name, tuple], dict[int, tuple]] = {}
        self.env: dict[Name, tuple[str, int]] = {}
        self.used = 0
        self.reserved: set[Name] = set()

    def walk(self, t: Process, path: Optional[tuple]) -> None:
        """Check ``t``, found at ``path``.  The walk follows continuations
        and bodies in a loop; a binder it meets stays numbered in ``env``
        for the rest of the loop, which is its scope, and is restored
        when the walk returns."""
        env, arities, reserved = self.env, self.arities, self.reserved
        shadowed = []
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
                            self.kind_viols.append((at, env.get(o, o)))
                else:
                    bs = pre.binders
                    arities.setdefault(subject, {}).setdefault(len(bs), at)
                    for b in bs:
                        shadowed.append((b, env.get(b)))
                        env[b] = (VAR, self.used)
                        self.used += 1
                t, path = t.continuation, (path, "/cont")
            elif kind is Par:
                self.walk(t.left, (path, "/par.left"))
                t, path = t.right, (path, "/par.right")
            elif kind is Restrict:
                # The canonical form nests one restriction per channel.
                for k in t.channels:
                    shadowed.append((k, env.get(k)))
                    env[k] = (CHAN, self.used)
                    self.used += 1
                    path = (path, "/new")
                t = t.body
            elif kind is Repl:
                t, path = t.body, (path, "/repl")
            else:
                break
        for b, outer in reversed(shadowed):
            if outer is None:
                del env[b]
            else:
                env[b] = outer
