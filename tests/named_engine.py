"""The transition engine as it was when its states were canonical named
terms, kept here as the reference of the differential test: every target
is canonicalized, names are compared as they stand, and a bound output
is never renamed.  It differs from the nameless engine in two places,
both mended there: it drops an input whose object is an extra
environment channel named like a canonical binder (``#0``), and a
rep-close whose bound name the receiving copy restricts under the same
name.  It shares no code with ``cpi.lts`` beyond the action classes,
and must not be used by ``cpi``.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from cpi.lts import (
    TAU, Action, BoundOutAct, InAct, OutAct, Transition, _action_sort_key,
    _input_candidates,
)
from cpi.syntax import (
    Name, Par, Prefixed, Process, Receive, Repl, Restrict, Send, SortError,
    canonicalize, free_names, prefix_chain, substitute,
)


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


class NamedEngine:
    """The rule engine as it was before states became nameless: canonical
    named states, ``canonicalize`` on every target."""

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
        # Sorted by _action_sort_key(action), which is one-to-one on
        # actions (every name in an action is a channel); each action's
        # targets in the order of their first derivation.
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
            trans.extend(Transition(a, t, group[t]) for t in group)
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
