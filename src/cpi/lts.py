"""Labeled transition system for the polyadic calculus.

Early semantics with a finite input cut: input actions are instantiated
over a caller-supplied environment of channels plus one canonical fresh
channel per tuple position.  Replication is unfolded one copy per
derivation, never structurally, so successor sets are always finite.

An input is instantiated only on a subject in the environment, which
holds the state's free channels: a receive on a restricted channel can
never be seen from outside, so it is never instantiated.  The empty
environment is therefore the no-inputs mode: a state explored without
inputs is explored in it, and a closed state has one transition set
whether inputs are asked for or not.

Actions are interned like terms, through the same table: equal actions
are the same object, compared and hashed by identity, and each keeps its
sort key.

The rules are the early rules of Sangiorgi & Walker (*The pi-calculus*,
2001), applied to nameless states only (de Bruijn indices for bound
names, see :class:`~cpi.syntax.Idx`), so alpha-equivalent states are one
node and no target is renumbered.  Three shortcuts skip work that can
yield no transition, each exact (see :class:`Engine`):

- a nest of restrictions is one rule step: its body is derived once and
  each move passes the nest by open, res or drop level by level;
- an output asks its partner for inputs only when the partner has a
  receive on its subject ready, since no other partner derives one;
- no bound name is renamed apart, since an index cannot meet a free
  name.

A state's transitions have one order, :meth:`Engine.moves`: actions by
sort key, and each action's targets in the order the rules derive them.
It depends only on the nameless state and the environment, and every
answer that picks one of several moves is defined by it, as is the order
of each level of the tau closure (:func:`tau_levels`).  No state is
rendered to order anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Optional, Union

from .parser import render
from .syntax import (
    CHAN, CpiError, Idx, Name, Par, Prefixed, Process, Receive, Repl,
    Restrict, Send, SortError, _group, _Node, _reindex, _remember,
    _scope, canonicalize, free_names, fresh_names, nameless, prefix_chain,
)


class NoSuchTransition(CpiError):
    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(f"no matching transition at step {step}" + (f": {message}" if message else ""))


# Actions are nodes like terms (see the hash-consing note in syntax.py).
# Each one's ``_init`` sets its sort key, so it is computed once, on a
# table miss: tau, outputs, bound outputs and inputs in that order, then
# the identifiers.


class _Action(_Node):
    __slots__ = ("_sort_key",)


class _Message(_Action):
    """An output or an input: ``subject`` with ``objects``."""

    __slots__ = __match_args__ = ("subject", "objects")

    def _init(self) -> None:
        _remember(self, "_sort_key", (self._rank, self.subject.ident,
                                      tuple(o.ident for o in self.objects), ()))


class OutAct(_Message):
    __slots__ = ()
    _rank = 1


class InAct(_Message):
    __slots__ = ()
    _rank = 3


class BoundOutAct(_Action):
    __slots__ = __match_args__ = ("subject", "objects", "bound")

    def _init(self) -> None:
        subject, objects, bound = self.subject, self.objects, self.bound
        if not bound:
            raise ValueError("bound output needs a bound object")
        if not set(bound) <= set(objects):
            raise ValueError("bound names must be among the objects")
        if subject in bound:
            raise ValueError("bound output subject cannot be bound")
        _remember(self, "_sort_key", (2, subject.ident,
                                      tuple(o.ident for o in objects),
                                      tuple(b.ident for b in bound)))


class TauAct(_Action):
    __slots__ = ()

    def _init(self) -> None:
        _remember(self, "_sort_key", (0, "", (), ()))


Action = Union[OutAct, InAct, BoundOutAct, TauAct]
TAU = TauAct()


def action_names(a: Action) -> frozenset[Name]:
    if a is TAU:
        return frozenset()
    return frozenset((a.subject,) + a.objects)


def action_free(a: Action) -> frozenset[Name]:
    names = action_names(a)
    return names - frozenset(a.bound) if type(a) is BoundOutAct else names


def action_to_json(a: Action) -> dict:
    match a:
        case TauAct():
            return {"kind": "tau"}
        case OutAct(subject=s, objects=objs):
            return {"kind": "out", "subject": s.ident, "objects": [o.ident for o in objs]}
        case InAct(subject=s, objects=objs):
            return {"kind": "in", "subject": s.ident, "objects": [o.ident for o in objs]}
        case BoundOutAct(subject=s, objects=objs, bound=bound):
            return {"kind": "bound-out", "subject": s.ident,
                    "objects": [o.ident for o in objs],
                    "bound": [b.ident for b in bound]}
    raise TypeError(a)


def render_action(a: Action) -> str:
    match a:
        case TauAct():
            return "tau"
        case OutAct(subject=s, objects=objs):
            return f"{s.ident}!<{','.join(o.ident for o in objs)}>"
        case InAct(subject=s, objects=objs):
            return f"{s.ident}?<{','.join(o.ident for o in objs)}>"
        case BoundOutAct(subject=s, objects=objs, bound=bound):
            return (f"(new {','.join(b.ident for b in bound)}) "
                    f"{s.ident}!<{','.join(o.ident for o in objs)}>")
    raise TypeError(a)


@dataclass(frozen=True)
class Transition:
    action: Action
    target: Process
    rules: tuple[str, ...]

    def to_json(self) -> dict:
        return {"action": action_to_json(self.action),
                "target": render(self.target),
                "rules": list(self.rules)}


# The order of actions in a transition set: reads the key kept on the action.
_action_sort_key = attrgetter("_sort_key")


# ---------------------------------------------------------------------------
# Input instantiation


def _input_candidates(env: frozenset[Name], arity: int) -> list[list[Name]]:
    base = sorted(env, key=lambda n: n.ident)
    fresh = fresh_names(CHAN, "i", {n.ident for n in env}, arity)
    return [base + [fresh[i]] for i in range(arity)]


# ---------------------------------------------------------------------------
# The transition relation


def _guards_pass(guards: list[tuple[Name, Name]]) -> bool:
    return all(a == b for a, b in guards)


def _nest_over(n: int, t: Process, level: Optional[tuple] = None,
               holes: Optional[dict] = None) -> Process:
    """``t`` under a new nest of ``n`` channels, read from outside it:
    ``t`` calls channel ``j`` of the nest as ``level[j]`` (by its own
    index when ``level`` is None) and hole ``i`` as ``holes[i]``.  A nest
    that ``t`` starts with joins the new one, innermost, in the same
    walk."""
    if type(t) is Restrict:
        m = len(t.channels)
        inner = tuple(Idx(CHAN, 0, n + j) for j in range(m))
        return Restrict(_group(CHAN, n + m),
                        _reindex(t.body, (inner, level or _group(CHAN, n)),
                                 -1, holes))
    if level is not None or holes is not None:
        t = _reindex(t, () if level is None else (level,), 0, holes)
    return Restrict(_group(CHAN, n), t)


def _shift(n, by: int):
    """The name ``n`` read ``by`` binder groups further in (out, if
    ``by`` is negative): a free name or a hole is read the same."""
    if type(n) is Idx and n.up >= 0:
        return Idx(n.kind, n.up + by, n.pos)
    return n


def _close(bound: tuple, t: Process) -> Process:
    """``new bound in t``, where ``t`` calls each name of ``bound`` by its
    hole: the first name of ``bound`` is restricted outermost."""
    holes = {h.pos: Idx(CHAN, 0, i) for i, h in enumerate(bound)}
    return Restrict(_group(CHAN, len(bound)), _reindex(t, (), 1, holes))


def _settled(t):
    """A target of ``_succ``: a close is kept as ``(bound, t)`` until its
    use is known, since a nest right above it takes it into its own
    group in one walk (see ``_succ``)."""
    return _close(*t) if type(t) is tuple else t


def _through_nest(a: Action, t: Process, n: int):
    """The move ``(a, t)`` of a nest's body taken through the nest's
    ``n`` channels, innermost (the last) first, by open, res or drop at
    each: the action, the target and the rules it gains, or None once a
    level drops it.  A channel of the nest that the action outputs
    becomes a hole, numbered by its first place among the objects; the
    target is wrapped once, in the channels res kept."""
    s = a.subject
    if type(s) is Idx and s.up == 0:
        return None
    kind = type(a)
    objs = a.objects
    opened: dict[int, Idx] = {}
    moved = []
    for i, o in enumerate(objs):
        if type(o) is Idx and o.up >= 0:
            if o.up == 0:
                h = opened.get(o.pos)
                if h is None:
                    h = opened[o.pos] = Idx(CHAN, -1, i)
                o = h
            else:
                o = Idx(o.kind, o.up - 1, o.pos)
        moved.append(o)
    moved = tuple(moved)
    s = _shift(s, -1)
    if not opened:
        if s is not a.subject or moved != objs:
            a = (BoundOutAct(s, moved, a.bound) if kind is BoundOutAct
                 else kind(s, moved))
        return a, _nest_over(n, t), ("res",) * n
    # An input's objects are free names: only outputs open.
    level = []
    kept = 0
    for j in range(n):
        h = opened.get(j)
        if h is None:
            h = Idx(CHAN, 0, kept)
            kept += 1
        level.append(h)
    steps = tuple("open" if j in opened else "res" for j in reversed(range(n)))
    bound = tuple(dict.fromkeys(
        o for o in moved if type(o) is Idx and o.up < 0))
    if kept:
        t = _nest_over(kept, t, tuple(level))
    else:
        t = _reindex(t, (tuple(level),), -1)
    return BoundOutAct(s, moved, bound), t, steps


class _Clash(Exception):
    """A receive met at an arity its partner does not offer.  ``subject``
    is read at the node ``at`` of the state whose derivation met it, and
    named only when the error leaves the engine."""

    def __init__(self, subject, arity: int, offered: int):
        super().__init__()
        self.subject, self.arity, self.offered = subject, arity, offered
        self.at = None


def _named_output(state: Process, a: BoundOutAct, rules: tuple) -> BoundOutAct:
    """The bound output ``a``, derived at the top of the nameless
    ``state`` by ``rules``, named as the canonical form of ``state``
    names its binders.  The rules, read from the last, are the path from
    ``state`` down to the sending prefix."""
    t, name = _scope(state, sides=[r for r in reversed(rules)
                                   if r == "par-l" or r == "par-r"])
    core = prefix_chain(t.prefix)[1]
    objs = tuple(map(name, core.objects))
    return BoundOutAct(name(core.subject), objs,
                       tuple(objs[h.pos] for h in a.bound))


def _opened(target: Process, names: tuple) -> Process:
    """The state that a bound output's ``target`` is once hole ``i`` is
    the name ``names[i]``."""
    s = _reindex(target, holes=names)
    _remember(s, "_nameless", None)
    return s


class Engine:
    """The transition relation, with caches for one exploration.

    Create one engine per top-level query (a bisimulation game, a trace
    search, a tau closure) and drop it afterwards: the caches then hold
    that query's states only, and no answer depends on what ran earlier
    in the process.  A completeness check is one query: its tau closure
    and all of its games share one engine.  Sharing changes no answer,
    since every cache is keyed by the nameless state and the input
    environment.

    States inside the engine are nameless (:func:`~cpi.syntax.nameless`):
    a bound name is an index, so alpha-equivalent states are one node and
    a rule builds its target in final form; no target is renamed or
    renumbered.  The clients (the bisimulation game, the non-forwarding
    search, :func:`tau_levels`) hold nameless states and ask
    :meth:`moves` and :meth:`actions`.  :meth:`successors` and
    :meth:`labels` are their edge: they take any process and answer as
    before, targets named by :func:`~cpi.syntax.canonicalize`.  In both,
    a bound output is named as the canonical form of its source names
    the binders it opens, and the actions are in the same order.  The
    target of a bound output calls each bound name by its hole (``Idx``
    with ``up`` -1, numbered by its first place among the objects) until
    the client, or :meth:`successors` before it names the target, fills
    the holes with names (:func:`_opened`); only a target without holes
    is named.

    There is one view of a state's transitions, :meth:`moves`, and one
    order of them: the distinct actions in sort-key order, each with its
    distinct targets in the order the rule engine derives them, nothing
    rendered.  That order is read by every client and by
    :meth:`successors` and :func:`run_trace`, so it defines every answer
    that picks one of several moves: a counterexample, a violation, a
    replayed state, and, through the order of each tau level, the
    witness a completeness check reports.  The rule engine derives a
    state by its structure alone, so the order depends only on the
    nameless state and the environment: it is the same for
    alpha-equivalent inputs, and the same whatever the engine derived
    before.

    A client that needs only the labels of a state (the last round of a
    bounded game, the last level of a bounded search) asks
    :meth:`actions`, which reads the same rule-engine cache as
    :meth:`moves` but builds no targets.  The transition relation is the
    same either way, so a bounded answer built on labels means what it
    would mean on full transitions.

    The rule engine (``_succ`` and ``_input_on``) sees nameless states
    and their subterms only: a subterm's indices may reach past it, to
    binders above it, and its moves are read where it stands.  It skips
    three kinds of work:

    - *A nest of restrictions is one rule step.*  ``new k1 in ... new kn
      in B`` derives ``B`` once; each move of ``B`` then meets ``kn``
      first and ``k1`` last, and at each level is opened, kept by res or
      dropped, exactly as nested single restrictions would do it, with
      the rules in the same order.  A kept move's target is wrapped
      once, in the channels res kept.  A move whose names miss every
      channel of the nest (tau always does) passes every level by res,
      its target unchanged below the nest.
    - *Inputs are asked only of ready receivers.*  Each cache entry of
      ``_succ`` keeps the node's ready subjects, which do not depend on
      the environment: the subjects of its receives whose guards pass
      and that no restriction below the node binds.  ``|`` joins its
      children's, ``new`` removes its channels and ``!`` keeps its
      body's; they are a tuple, which may repeat a subject, since a
      singleton tuple is a quarter of the size of a singleton set.
      comm, close, rep-comm and rep-close call ``_input_on`` only when
      the output's subject is among the partner's, and ``_input_on``
      enters a component of a ``|`` only when it is among the
      component's.  Any other subject reaches no receive through the
      rules ``_input_on`` applies, so the result would be empty; a sort
      error is raised only on reaching such a receive, so none is lost.
    - *No name is renamed apart.*  A bound name is an index or a hole,
      and a free name is a :class:`~cpi.syntax.Name`, so no bound name
      can meet a free one, by construction: comm, close and the lifting
      rules never rename a bound output apart from its sibling, a
      restriction never captures what passes it, and an extra channel
      of the environment is never taken for a binder.
    """

    __slots__ = ("_succ_cache", "_input_cache", "_moves_cache",
                 "_named_cache", "_candidates")

    def __init__(self) -> None:
        self._succ_cache: dict = {}
        self._input_cache: dict = {}
        self._moves_cache: dict = {}
        self._named_cache: dict = {}
        self._candidates: dict = {}

    def successors(self, p: Process, environment: Iterable[Name] = (),
                   include_inputs: bool = True) -> tuple[Transition, ...]:
        """As the module-level :func:`successors`, cached per engine.

        ``include_inputs=False`` is the empty environment, whatever
        ``environment`` holds, so a state asked for without inputs has
        one cache entry and one tuple; a closed state with no extra
        environment shares it with ``include_inputs=True``.
        """
        s = nameless(p)
        env = frozenset()
        if include_inputs:
            env = (frozenset(n for n in free_names(s) if n.is_channel)
                   | frozenset(environment))
        key = (s, env)
        hit = self._named_cache.get(key)
        if hit is None:
            hit = self._named_cache[key] = tuple(
                Transition(a, canonicalize(_opened(t, a.objects)
                                          if type(a) is BoundOutAct else t),
                           rules)
                for a, targets in self.moves(s, env)
                for t, rules in targets.items())
        return hit

    def labels(self, p: Process,
               environment: Iterable[Name] = ()) -> tuple[Action, ...]:
        """The distinct actions of :meth:`successors` ``(p, environment)``,
        in the order of their first transition there."""
        s = nameless(p)
        env = (frozenset(n for n in free_names(s) if n.is_channel)
               | frozenset(environment))
        return self.actions(s, env)

    def actions(self, state: Process,
                env: frozenset[Name]) -> tuple[Action, ...]:
        """The distinct actions of :meth:`moves`, in their order."""
        state = nameless(state)
        # The key is one-to-one here: every name in an action is a
        # channel.
        acts = dict.fromkeys(
            _named_output(state, a, rl) if type(a) is BoundOutAct else a
            for a, _, rl in self._derive(state, env))
        return tuple(sorted(acts, key=_action_sort_key))

    def _derive(self, state: Process, env: frozenset[Name]) -> list:
        """The derivations of ``state`` from ``_succ``; a sort error
        names its subject as the canonical form of ``state`` does."""
        try:
            return self._succ(state, env)
        except _Clash as clash:
            n = clash.subject
            if type(n) is not Name:
                n = _scope(state, clash.at)[1](n)
            raise SortError(
                f"receive on {n.ident!r} has arity {clash.arity}, "
                f"synchronization offers {clash.offered}") from None

    def moves(self, state: Process,
              env: frozenset[Name]) -> tuple[tuple[Action, dict], ...]:
        """The transitions of the nameless ``state`` with inputs on the
        channels of ``env``, grouped by action: the distinct actions in
        sort-key order, each with a dict from its distinct targets, in
        the order the rule engine derives them, to the rules of each
        one's first derivation.  A bound output's targets call its bound
        names by their holes.  No target is rendered."""
        state = nameless(state)
        key = (state, env)
        hit = self._moves_cache.get(key)
        if hit is None:
            hit = self._moves_cache[key] = self._groups(state, env)
        return hit

    def _groups(self, state: Process, env: frozenset[Name]) -> tuple:
        """The derivations of ``state`` by action, as :meth:`moves` hands
        them out.  The sort key is one-to-one on actions (every name in
        an action is a channel), so the actions' order is a total one."""
        groups: dict = {}
        for a, t, rl in self._derive(state, env):
            if type(a) is BoundOutAct:
                a = _named_output(state, a, rl)
            elif type(t) is tuple:
                t = _close(*t)
            group = groups.get(a)
            if group is None:
                group = groups[a] = {}
            if t not in group:
                group[t] = rl
                if type(a) is not BoundOutAct:
                    _remember(t, "_nameless", None)
        if len(groups) < 2:
            return tuple(groups.items())
        return tuple([(a, groups[a]) for a in sorted(groups, key=_action_sort_key)])

    def _inputs(self, env: frozenset[Name], arity: int) -> list[list[Name]]:
        key = (env, arity)
        hit = self._candidates.get(key)
        if hit is None:
            hit = self._candidates[key] = _input_candidates(env, arity)
        return hit

    # _succ and _input_on derive premises first.  On a cache miss they
    # apply the rule in a loop on an explicit stack: a rule that finds a
    # premise it reads missing from the cache pushes it, and the loop
    # derives it first, leftmost first, each after its own premises.
    # The premise of a nest of restrictions is the body below the last.

    def _input_on(self, p: Process, subject, objects: tuple,
                  env: frozenset[Name]) -> list:
        """Derivations of the input action ``subject?<objects>`` from
        ``p``, read where ``p`` stands; ``p`` and the nodes below it that
        the rules reach were derived by ``_succ`` under ``env``."""
        cache = self._input_cache
        key = (p, subject, objects)
        hit = cache.get(key)
        if hit is not None:
            return hit
        succ = self._succ_cache
        todo = [key]
        while todo:
            key = todo[-1]
            t, s, objs = key
            out: list[tuple[Process, tuple[str, ...]]] = []
            kind = type(t)
            if kind is Prefixed:
                guards, core = prefix_chain(t.prefix)
                if type(core) is Receive and core.subject is s and _guards_pass(guards):
                    if len(core.binders) != len(objs):
                        raise _Clash(subject, len(core.binders), len(objs))
                    out.append((_reindex(t.continuation, (objs,), -1),
                                ("match",) * len(guards) + ("in",)))
            elif kind is Par:
                l, r = t.left, t.right
                lkey = rkey = None
                ls = rs = ()
                if s in succ[(l, env)][1]:
                    lkey = (l, s, objs)
                    ls = cache.get(lkey)
                if s in succ[(r, env)][1]:
                    rkey = (r, s, objs)
                    rs = cache.get(rkey)
                if ls is None or rs is None:
                    todo += [k for k, d in ((rkey, rs), (lkey, ls)) if d is None]
                    continue
                for t2, rl in ls:
                    out.append((Par(t2, r), rl + ("par-l",)))
                for t2, rl in rs:
                    out.append((Par(l, t2), rl + ("par-r",)))
            elif kind is Restrict:
                inner_key = (t.body, _shift(s, 1),
                             tuple(_shift(o, 1) for o in objs))
                inner = cache.get(inner_key)
                if inner is None:
                    todo.append(inner_key)
                    continue
                n = len(t.channels)
                res = ("res",) * n
                for t2, rl in inner:
                    out.append((_nest_over(n, t2), rl + res))
            elif kind is Repl:
                inner_key = (t.body, s, objs)
                inner = cache.get(inner_key)
                if inner is None:
                    todo.append(inner_key)
                    continue
                for t2, rl in inner:
                    out.append((Par(t2, t), rl + ("rep-act",)))
            cache[todo.pop()] = out
            while todo and todo[-1] in cache:
                todo.pop()  # a premise pushed twice
        return out

    def _succ(self, p: Process, env: frozenset[Name]) -> list:
        # A cache entry is (derivations, ready subjects); see the class
        # docstring for the ready subjects.  A derivation's action and
        # target are read where its node stands.
        cache = self._succ_cache
        hit = cache.get((p, env))
        if hit is not None:
            return hit[0]
        todo = [p]
        try:
            while todo:
                p = todo[-1]
                out: list[tuple[Action, Process, tuple[str, ...]]] = []
                ready: tuple = ()
                kind = type(p)
                if kind is Prefixed:
                    cont = p.continuation
                    guards, core = prefix_chain(p.prefix)
                    if _guards_pass(guards):
                        rules = ("match",) * len(guards)
                        if type(core) is Send:
                            if core.subject.is_channel and all(o.is_channel for o in core.objects):
                                out.append((OutAct(core.subject, core.objects), cont,
                                            rules + ("out",)))
                        else:
                            ready = (core.subject,)
                            if core.subject in env and core.subject.is_channel:
                                # Exact, not a heuristic.  A free-input move only
                                # travels upward: par-l/par-r, rep-act and res lift
                                # it with its subject unchanged, and no rule
                                # consumes one (comm and close derive their inputs
                                # with _input_on).  env holds the top state's free
                                # channels, and a subject outside env is bound by
                                # a restriction on the way up, so res drops the move.
                                cands = self._inputs(env, len(core.binders))
                                for tup in itertools.product(*cands):
                                    out.append((InAct(core.subject, tup),
                                                _reindex(cont, (tup,), -1),
                                                rules + ("in",)))
                elif kind is Par:
                    l, r = p.left, p.right
                    lhit = cache.get((l, env))
                    rhit = cache.get((r, env))
                    if lhit is None or rhit is None:
                        todo += [q for q, d in ((r, rhit), (l, lhit)) if d is None]
                        continue
                    ls, lready = lhit
                    rs, rready = rhit
                    for a, t, rl in ls:
                        out.append((a, Par(_settled(t), r), rl + ("par-l",)))
                    for a, t, rl in rs:
                        out.append((a, Par(l, _settled(t)), rl + ("par-r",)))
                    if rready:
                        for a, t, rl in ls:
                            akind = type(a)
                            if (akind is OutAct or akind is BoundOutAct) and a.subject in rready:
                                for t2, rl2 in self._input_on(r, a.subject, a.objects, env):
                                    if akind is OutAct:
                                        out.append((TAU, Par(t, t2), rl + rl2 + ("comm-l",)))
                                    else:
                                        out.append((TAU, (a.bound, Par(t, t2)),
                                                    rl + rl2 + ("close-l",)))
                    if lready:
                        for a, t, rl in rs:
                            akind = type(a)
                            if (akind is OutAct or akind is BoundOutAct) and a.subject in lready:
                                for t2, rl2 in self._input_on(l, a.subject, a.objects, env):
                                    if akind is OutAct:
                                        out.append((TAU, Par(t2, t), rl + rl2 + ("comm-r",)))
                                    else:
                                        out.append((TAU, (a.bound, Par(t2, t)),
                                                    rl + rl2 + ("close-r",)))
                    ready = lready + rready
                elif kind is Restrict:
                    body = p.body
                    hit = cache.get((body, env))
                    if hit is None:
                        todo.append(body)
                        continue
                    inner, ready = hit
                    if ready:
                        ready = tuple(_shift(s, -1) for s in ready
                                      if type(s) is not Idx or s.up)
                    n = len(p.channels)
                    res = ("res",) * n
                    for a, t, rl in inner:
                        if a is TAU:
                            if type(t) is tuple:
                                # a close right below: its channels join
                                # the nest, innermost
                                bound, t = t
                                t = _nest_over(n + len(bound), t, None, {
                                    h.pos: Idx(CHAN, 0, n + i)
                                    for i, h in enumerate(bound)})
                            else:
                                t = _nest_over(n, t)
                            out.append((a, t, rl + res))
                            continue
                        moved = _through_nest(a, t, n)
                        if moved is not None:
                            a, t, steps = moved
                            out.append((a, t, rl + steps))
                elif kind is Repl:
                    body = p.body
                    hit = cache.get((body, env))
                    if hit is None:
                        todo.append(body)
                        continue
                    inner, ready = hit
                    for a, t, rl in inner:
                        out.append((a, Par(_settled(t), p), rl + ("rep-act",)))
                    if ready:
                        for a, t, rl in inner:
                            akind = type(a)
                            if (akind is OutAct or akind is BoundOutAct) and a.subject in ready:
                                for t2, rl2 in self._input_on(body, a.subject, a.objects, env):
                                    if akind is OutAct:
                                        out.append((TAU, Par(Par(t, t2), p),
                                                    rl + rl2 + ("rep-comm",)))
                                    else:
                                        out.append((TAU, Par(_close(a.bound, Par(t, t2)), p),
                                                    rl + rl2 + ("rep-close",)))
                cache[(todo.pop(), env)] = (out, ready)
                while todo and (todo[-1], env) in cache:
                    todo.pop()  # a premise pushed twice
        except _Clash as clash:
            if clash.at is None:
                clash.at = p
            raise
        return out


def successors(p: Process, environment: Iterable[Name] = (),
               include_inputs: bool = True) -> tuple[Transition, ...]:
    """All transitions of ``p``, deduplicated up to alpha-equivalence,
    in the order of :meth:`Engine.moves`.

    ``environment`` extends the input-instantiation set beyond the free
    channels of ``p``.  Inputs are instantiated only on channels of that
    set: a receive on a restricted channel has no visible move.  With
    ``include_inputs=False`` free input actions are omitted (internal
    synchronizations are still found), which is exact for tau-only
    exploration of closed processes; for a closed ``p`` and an empty
    ``environment`` both settings give the same transitions.
    """
    return Engine().successors(p, environment, include_inputs)


# ---------------------------------------------------------------------------
# Traces and tau reachability


def normal_label(a: Action, avoid: set[str]) -> tuple[Action, Optional[dict]]:
    """``a`` with its bound names renamed, in the order they first occur
    among its objects, to the first reserved names ``#b0, #b1, ...``
    whose identifiers are not in ``avoid``, and that renaming (None when
    ``a`` binds nothing).

    Under one ``avoid`` that holds every free name of two bound outputs,
    they are the same label up to the names they bind exactly when their
    normal forms are the same action.
    """
    if type(a) is not BoundOutAct:
        return a, None
    bound = tuple(dict.fromkeys(o for o in a.objects if o in a.bound))
    m = dict(zip(bound, fresh_names(CHAN, "b", avoid, len(bound))))
    return BoundOutAct(a.subject, tuple(m.get(o, o) for o in a.objects),
                       tuple(m.values())), m


def _matching_targets(engine: Engine, state: Process, a: Action):
    """The targets of the nameless ``state``'s transitions that match
    ``a``, in :func:`successors` order.  A bound output matches up to the
    names it binds (:func:`normal_label`) if none is free in the state,
    and the target calls them as ``a`` does."""
    free = free_names(state)
    avoid = {n.ident for n in free | action_names(a)}
    want, named = normal_label(a, avoid)
    # A bound name already free in the state is not fresh there.
    if named is not None and not free.isdisjoint(named):
        return
    env = (frozenset(n for n in free if n.is_channel)
           | frozenset(n for n in action_free(a) if n.is_channel))
    for act, targets in engine.moves(state, env):
        got, m = normal_label(act, avoid)
        if got is not want:
            continue
        if m is None:
            yield from targets
        else:
            requested = {b: n for n, b in named.items()}
            names = tuple(requested.get(m.get(o)) for o in act.objects)
            for t in targets:
                yield _opened(t, names)


def run_trace(p: Process, actions: Iterable[Action]) -> Process:
    """The first state, depth first in :func:`successors` order, that a
    path of transitions matching ``actions`` reaches from ``p``.  With no
    such path, :class:`NoSuchTransition` names the deepest step that any
    path reached."""
    actions = tuple(actions)
    engine = Engine()
    # paths[i] yields the candidate states after i actions; a state is
    # tried once per step.
    paths = [iter((nameless(p),))]
    tried: set = set()
    deepest = 0
    while paths:
        i = len(paths) - 1
        state = next(paths[-1], None)
        if state is None:
            paths.pop()
        elif i == len(actions):
            return canonicalize(state)
        elif (i, state) not in tried:
            tried.add((i, state))
            deepest = max(deepest, i)
            paths.append(_matching_targets(engine, state, actions[i]))
    raise NoSuchTransition(deepest, render_action(actions[deepest]))


@dataclass(frozen=True)
class TauReachable:
    states: frozenset[Process]
    budget: int
    exceeded: bool

    def to_json(self) -> dict:
        return {"states": sorted(render(s) for s in self.states),
                "budget": self.budget,
                "budget_exceeded": self.exceeded}


def _tau_targets(engine: Engine, state: Process):
    """The targets of the nameless ``state``'s tau moves, in the order
    of :meth:`Engine.moves`."""
    groups = engine.moves(state, frozenset())
    # tau sorts first
    return groups[0][1] if groups and groups[0][0] is TAU else ()


def tau_levels(p: Process, budget: int, engine: Optional[Engine] = None):
    """Yield the new nameless states found at each tau depth 0..budget.
    A level is in the order it is found: its frontier's states in order,
    each one's tau targets in the order of :meth:`Engine.moves`.  That
    order depends only on the nameless state, so it is the same for
    alpha-equivalent inputs and whatever the engine derived before, and
    no state is rendered.  A negative ``budget`` raises
    :class:`ValueError`.

    ``engine`` lets the caller share one engine with later work on the
    same query; by default the closure gets its own.
    """
    if budget < 0:
        raise ValueError("tau budget must be nonnegative")
    if engine is None:
        engine = Engine()
    state = nameless(p)
    seen = {state}
    frontier = [state]
    yield [state]
    for _ in range(budget):
        nxt = []
        for s in frontier:
            for t in _tau_targets(engine, s):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        if not nxt:
            return
        yield nxt
        frontier = nxt


def tau_reachable(p: Process, budget: int) -> TauReachable:
    """All processes reachable by at most ``budget`` tau steps."""
    engine = Engine()
    levels = list(tau_levels(p, budget, engine))
    states = frozenset(s for level in levels for s in level)
    exceeded = len(levels) == budget + 1 and any(
        t not in states for s in levels[-1] for t in _tau_targets(engine, s))
    return TauReachable(frozenset(map(canonicalize, states)), budget, exceeded)
