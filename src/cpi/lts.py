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
2001), applied to canonical states only.  Three shortcuts skip work that
can yield no transition, each exact (see :class:`Engine`):

- a nest of restrictions is one rule step: its body is derived once and
  each move passes the nest by open, res or drop level by level;
- an output asks its partner for inputs only when the partner has a
  receive on its subject ready, since no other partner derives one;
- a bound output is never renamed apart from its sibling, since in a
  canonical state no binder is free anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Optional, Union

from .parser import render
from .syntax import (
    CHAN, CpiError, Name, Par, Prefixed, Process, Receive, Repl, Restrict,
    Send, SortError, _Node, _remember, canonicalize, free_names, fresh_names,
    prefix_chain, substitute, substitute_free,
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


def action_bound(a: Action) -> frozenset[Name]:
    return frozenset(a.bound) if type(a) is BoundOutAct else frozenset()


def action_names(a: Action) -> frozenset[Name]:
    if a is TAU:
        return frozenset()
    return frozenset((a.subject,) + a.objects)


def action_free(a: Action) -> frozenset[Name]:
    return action_names(a) - action_bound(a)


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


def _nest(p: Restrict) -> tuple[tuple[Name, ...], Process]:
    """The channels of the chain of restrictions that starts at ``p``,
    outermost first, and the body below the last of them."""
    ks, body = p.channels, p.body
    if type(body) is not Restrict:
        return ks, body
    ks = list(ks)
    while type(body) is Restrict:
        ks += body.channels
        body = body.body
    return tuple(ks), body


def _through_nest(a: Action, t: Process, ks: tuple[Name, ...]):
    """The move ``(a, t)`` of a nest's body taken through the nest's
    channels ``ks``, innermost first, by open, res or drop at each: the
    action, the target and the rules it gains, or None once a level
    drops it.  The target is wrapped once, in the channels res kept."""
    s, objs = a.subject, a.objects
    kind = type(a)
    bound = a.bound if kind is BoundOutAct else ()
    opened: list[Name] = []
    kept: list[Name] = []
    steps: list[str] = []
    for k in reversed(ks):
        if k is s:
            return None
        if k in objs:
            if kind is InAct or k in bound or k in opened:
                return None
            opened.append(k)
            steps.append("open")
        else:
            kept.append(k)
            steps.append("res")
    if opened:
        bset = set(bound).union(opened)
        a = BoundOutAct(s, objs, tuple(dict.fromkeys(o for o in objs if o in bset)))
    if kept:
        kept.reverse()
        t = Restrict(tuple(kept), t)
    return a, t, tuple(steps)


class Engine:
    """The transition relation, with caches for one exploration.

    Create one engine per top-level query (a bisimulation game, a trace
    search, a tau closure) and drop it afterwards: the caches then hold
    that query's states only, and no answer depends on what ran earlier
    in the process.  A completeness check is one query: its tau closure
    and all of its games share one engine.  Sharing changes no answer,
    since every cache is keyed by the canonical state and the input
    environment.

    A client that needs only the labels of a state (the last round of a
    bounded game, the last level of a bounded search) asks
    :meth:`labels`, which reads the same rule-engine cache as
    :meth:`successors` but builds no canonical targets.  The transition
    relation is the same either way, so a bounded answer built on labels
    means what it would mean on full successors.

    The rule engine (``_succ`` and ``_input_on``) sees canonical states
    and their subterms only, and skips three kinds of work:

    - *A nest of restrictions is one rule step.*  ``new k1 in ... new kn
      in B`` derives ``B`` once; each move of ``B`` then meets ``kn``
      first and ``k1`` last, and at each level is opened, kept by res or
      dropped, exactly as nested single restrictions would do it, with
      the rules in the same order.  A kept move's target is wrapped
      once, in the channels res kept, outermost first, and
      :func:`~cpi.syntax.canonicalize` flattens that into the nested
      singles the level-by-level rules would have built.  A move whose
      names miss every channel of the nest (tau always does) passes
      every level by res.
    - *Inputs are asked only of ready receivers.*  Each cache entry of
      ``_succ`` keeps the node's ready subjects, which do not depend on
      the environment: the subjects of its receives whose guards pass
      and that no restriction below the node binds.  ``|`` joins its
      children's, ``new`` removes its channels and ``!`` keeps its
      body's; they are a tuple, which may repeat a subject, since a
      singleton tuple is a quarter of the size of a singleton set.
      comm, close, rep-comm and rep-close call ``_input_on`` only when
      the output's subject is among the partner's.  Any other subject
      reaches no receive through the rules ``_input_on`` applies, so
      the result would be empty; a sort error is raised only on
      reaching such a receive, so none is lost.
    - *Bound outputs are not renamed.*  A canonical state obeys the
      Barendregt convention: its binders are pairwise distinct and none
      is also free.  So does each of its subterms, on which alone a
      cache entry depends.  A bound output of one component of a ``|``
      (or of the body of a ``!``) binds names that ``open`` took from
      restrictions inside that component, so they are binders of the
      ``|`` (or ``!``) node, while the names free in the sibling (or
      the body) are free in that node.  The two never meet, so comm,
      close and the lifting rules never rename a bound name apart.
    """

    __slots__ = ("_succ_cache", "_input_cache", "_trans_cache")

    def __init__(self) -> None:
        self._succ_cache: dict = {}
        self._input_cache: dict = {}
        self._trans_cache: dict = {}

    def successors(self, p: Process, environment: Iterable[Name] = (),
                   include_inputs: bool = True) -> tuple[Transition, ...]:
        """As the module-level :func:`successors`, cached per engine.

        ``include_inputs=False`` is the empty environment, whatever
        ``environment`` holds, so a state asked for without inputs has
        one cache entry and one tuple; a closed state with no extra
        environment shares it with ``include_inputs=True``.
        """
        p = canonicalize(p)
        env = frozenset()
        if include_inputs:
            env = (frozenset(n for n in free_names(p) if n.is_channel)
                   | frozenset(environment))
        key = (p, env)
        hit = self._trans_cache.get(key)
        if hit is None:
            hit = self._trans_cache[key] = self._transitions(p, env)
        return hit

    def labels(self, p: Process,
               environment: Iterable[Name] = ()) -> tuple[Action, ...]:
        """The distinct actions of :meth:`successors` ``(p, environment)``,
        in the order of their first transition there."""
        p = canonicalize(p)
        env = (frozenset(n for n in free_names(p) if n.is_channel)
               | frozenset(environment))
        # successors sorts by the action's key first, and the key is
        # one-to-one here: every name in an action is a channel.
        return tuple(sorted({a for a, _, _ in self._succ(p, env)},
                            key=_action_sort_key))

    def _transitions(self, p: Process, env: frozenset[Name]) -> tuple[Transition, ...]:
        # Sorted by (_action_sort_key(action), render(target)), computed
        # group by group.  The key is one-to-one on actions (every name
        # in an action is a channel), so a group of one action is a run
        # of that order, and a stable sort of a group keeps the first
        # occurrence order that the stable sort of the whole kept.  A
        # target is rendered only to break a tie within its group.
        groups: dict = {}
        for a, t, rl in self._succ(p, env):
            group = groups.get(a)
            if group is None:
                group = groups[a] = {}
            t = canonicalize(t)
            if t not in group:
                group[t] = rl
        trans = []
        for a in sorted(groups, key=_action_sort_key):
            group = groups[a]
            targets = sorted(group, key=render) if len(group) > 1 else group
            trans.extend(Transition(a, t, group[t]) for t in targets)
        return tuple(trans)

    # _succ and _input_on derive premises first.  On a cache miss they
    # apply the rule in a loop on an explicit stack: a rule that finds a
    # premise it reads missing from the cache pushes it, and the loop
    # derives it first, leftmost first, each after its own premises.
    # The premise of a nest of restrictions is the body below the last.

    def _input_on(self, p: Process, subject: Name, objects: tuple[Name, ...]) -> list:
        """Derivations of the input action ``subject?<objects>`` from ``p``."""
        cache = self._input_cache
        hit = cache.get((p, subject, objects))
        if hit is not None:
            return hit
        todo = [p]
        while todo:
            t = todo[-1]
            out: list[tuple[Process, tuple[str, ...]]] = []
            kind = type(t)
            if kind is Prefixed:
                guards, core = prefix_chain(t.prefix)
                if _guards_pass(guards) and type(core) is Receive and core.subject == subject:
                    if len(core.binders) != len(objects):
                        raise SortError(
                            f"receive on {subject.ident!r} has arity {len(core.binders)}, "
                            f"synchronization offers {len(objects)}")
                    target = substitute(t.continuation, dict(zip(core.binders, objects)))
                    out.append((target, ("match",) * len(guards) + ("in",)))
            elif kind is Par:
                l, r = t.left, t.right
                ls = cache.get((l, subject, objects))
                rs = cache.get((r, subject, objects))
                if ls is None or rs is None:
                    todo += [q for q, d in ((r, rs), (l, ls)) if d is None]
                    continue
                for t2, rl in ls:
                    out.append((Par(t2, r), rl + ("par-l",)))
                for t2, rl in rs:
                    out.append((Par(l, t2), rl + ("par-r",)))
            elif kind is Restrict:
                ks, body = _nest(t)
                if subject not in ks and not any(o in ks for o in objects):
                    inner = cache.get((body, subject, objects))
                    if inner is None:
                        todo.append(body)
                        continue
                    res = ("res",) * len(ks)
                    for t2, rl in inner:
                        out.append((Restrict(ks, t2), rl + res))
            elif kind is Repl:
                inner = cache.get((t.body, subject, objects))
                if inner is None:
                    todo.append(t.body)
                    continue
                for t2, rl in inner:
                    out.append((Par(t2, t), rl + ("rep-act",)))
            cache[(todo.pop(), subject, objects)] = out
            while todo and (todo[-1], subject, objects) in cache:
                todo.pop()  # a premise pushed twice
        return out

    def _succ(self, p: Process, env: frozenset[Name]) -> list:
        # A cache entry is (derivations, ready subjects); see the class
        # docstring for the ready subjects.
        cache = self._succ_cache
        hit = cache.get((p, env))
        if hit is not None:
            return hit[0]
        todo = [p]
        while todo:
            p = todo[-1]
            out: list[tuple[Action, Process, tuple[str, ...]]] = []
            ready: tuple[Name, ...] = ()
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
                            # channels, so a subject outside env is bound by a
                            # restriction on the way up, and res drops the move.
                            cands = _input_candidates(env, len(core.binders))
                            for tup in itertools.product(*cands):
                                target = substitute(cont, dict(zip(core.binders, tup)))
                                out.append((InAct(core.subject, tup), target,
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
                    out.append((a, Par(t, r), rl + ("par-l",)))
                for a, t, rl in rs:
                    out.append((a, Par(l, t), rl + ("par-r",)))
                if rready:
                    for a, t, rl in ls:
                        akind = type(a)
                        if (akind is OutAct or akind is BoundOutAct) and a.subject in rready:
                            for t2, rl2 in self._input_on(r, a.subject, a.objects):
                                if akind is OutAct:
                                    out.append((TAU, Par(t, t2), rl + rl2 + ("comm-l",)))
                                else:
                                    out.append((TAU, Restrict(a.bound, Par(t, t2)),
                                                rl + rl2 + ("close-l",)))
                if lready:
                    for a, t, rl in rs:
                        akind = type(a)
                        if (akind is OutAct or akind is BoundOutAct) and a.subject in lready:
                            for t2, rl2 in self._input_on(l, a.subject, a.objects):
                                if akind is OutAct:
                                    out.append((TAU, Par(t2, t), rl + rl2 + ("comm-r",)))
                                else:
                                    out.append((TAU, Restrict(a.bound, Par(t2, t)),
                                                rl + rl2 + ("close-r",)))
                ready = lready + rready
            elif kind is Restrict:
                ks, body = _nest(p)
                hit = cache.get((body, env))
                if hit is None:
                    todo.append(body)
                    continue
                inner, ready = hit
                kset = frozenset(ks)
                if ready and not kset.isdisjoint(ready):
                    ready = tuple(s for s in ready if s not in kset)
                res = ("res",) * len(ks)
                for a, t, rl in inner:
                    if a is TAU or (a.subject not in kset and kset.isdisjoint(a.objects)):
                        out.append((a, Restrict(ks, t), rl + res))
                        continue
                    moved = _through_nest(a, t, ks)
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
                    out.append((a, Par(t, p), rl + ("rep-act",)))
                if ready:
                    for a, t, rl in inner:
                        akind = type(a)
                        if (akind is OutAct or akind is BoundOutAct) and a.subject in ready:
                            for t2, rl2 in self._input_on(body, a.subject, a.objects):
                                if akind is OutAct:
                                    out.append((TAU, Par(Par(t, t2), p),
                                                rl + rl2 + ("rep-comm",)))
                                else:
                                    out.append((TAU, Par(Restrict(a.bound, Par(t, t2)), p),
                                                rl + rl2 + ("rep-close",)))
            cache[(todo.pop(), env)] = (out, ready)
            while todo and (todo[-1], env) in cache:
                todo.pop()  # a premise pushed twice
        return out


def successors(p: Process, environment: Iterable[Name] = (),
               include_inputs: bool = True) -> tuple[Transition, ...]:
    """All transitions of ``p``, deduplicated up to alpha-equivalence.

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
    """The targets of ``state``'s transitions that match ``a``, in
    :func:`successors` order.  A bound output matches up to the names it
    binds (:func:`normal_label`) if none is free in the state, and the
    target calls them as ``a`` does."""
    free = free_names(state)
    avoid = {n.ident for n in free | action_names(a)}
    want, named = normal_label(a, avoid)
    # A bound name already free in the state is not fresh there.
    if named is not None and not free.isdisjoint(named):
        return
    extra = [n for n in action_free(a) if n.is_channel]
    for tr in engine.successors(state, extra):
        got, m = normal_label(tr.action, avoid)
        if got is not want:
            continue
        if m is None:
            yield tr.target
        else:
            requested = {b: n for n, b in named.items()}
            yield canonicalize(substitute_free(
                tr.target, {o: requested[b] for o, b in m.items()}))


def run_trace(p: Process, actions: Iterable[Action]) -> Process:
    """The first state, depth first in :func:`successors` order, that a
    path of transitions matching ``actions`` reaches from ``p``.  With no
    such path, :class:`NoSuchTransition` names the deepest step that any
    path reached."""
    actions = tuple(actions)
    engine = Engine()
    # paths[i] yields the candidate states after i actions; a state is
    # tried once per step.
    paths = [iter((canonicalize(p),))]
    tried: set = set()
    deepest = 0
    while paths:
        i = len(paths) - 1
        state = next(paths[-1], None)
        if state is None:
            paths.pop()
        elif i == len(actions):
            return state
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


def tau_levels(p: Process, budget: int, engine: Optional[Engine] = None):
    """Yield the new canonical states found at each tau depth 0..budget.

    ``engine`` lets the caller share one engine with later work on the
    same query; by default the closure gets its own.
    """
    if engine is None:
        engine = Engine()
    state = canonicalize(p)
    seen = {state}
    frontier = [state]
    yield [state]
    for _ in range(budget):
        nxt = []
        for s in frontier:
            for tr in engine.successors(s, include_inputs=False):
                if tr.action is TAU and tr.target not in seen:
                    seen.add(tr.target)
                    nxt.append(tr.target)
        if not nxt:
            return
        if len(nxt) > 1:
            nxt.sort(key=render)
        yield nxt
        frontier = nxt


def tau_reachable(p: Process, budget: int) -> TauReachable:
    """All processes reachable by at most ``budget`` tau steps."""
    engine = Engine()
    levels = list(tau_levels(p, budget, engine))
    states = frozenset(s for level in levels for s in level)
    exceeded = False
    if len(levels) == budget + 1:
        for s in levels[-1]:
            if any(tr.action is TAU and tr.target not in states
                   for tr in engine.successors(s, include_inputs=False)):
                exceeded = True
                break
    return TauReachable(states, budget, exceeded)
