"""Checks made apart from the program: a script printer, a fragment walk,
and replays through the independent naive LTS in ``tests/naive_lts.py``.

Nothing here calls into ``cpi`` beyond its term classes and action
records, so a wrong answer from the program cannot vouch for itself.
"""

from __future__ import annotations

import itertools

from cpi.lts import InAct, OutAct, TauAct
from cpi.syntax import Match, Nil, Par, Prefixed, Repl, Restrict, Send, chan
from naive_lts import (
    naive_canon, naive_free, naive_subst, naive_transitions, normalize,
)

__all__ = ["deterministic", "fragment_breaches", "naive_canon",
           "naive_tau_reducts", "replay_violation", "script",
           "single_restrictions"]


# ---------------------------------------------------------------------------
# Script printer


def _prefix_text(pre) -> str:
    if isinstance(pre, Match):
        return f"[{pre.lhs.ident}={pre.rhs.ident}]{_prefix_text(pre.inner)}"
    if isinstance(pre, Send):
        return f"{pre.subject.ident}!<{','.join(o.ident for o in pre.objects)}>"
    return f"{pre.subject.ident}?({','.join(b.ident for b in pre.binders)})"


def script(p) -> str:
    """Surface text for ``p`` with every compound term parenthesised; the
    parser's own renderer is not used, so the parse check stays apart."""
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Prefixed):
        cont = p.continuation
        body = script(cont)
        if not isinstance(cont, (Nil, Prefixed)):
            body = f"({body})"
        return f"{_prefix_text(p.prefix)}.{body}"
    if isinstance(p, Par):
        return f"({script(p.left)} | {script(p.right)})"
    if isinstance(p, Restrict):
        names = ",".join(k.ident for k in p.channels)
        return f"(new {names} in {script(p.body)})"
    if isinstance(p, Repl):
        return f"(!{script(p.body)})"
    raise TypeError(p)


def single_restrictions(p):
    """``p`` with each ``new a,b in P`` written ``new a in new b in P``,
    which it is by definition; ``naive_canon`` tells the two apart."""
    if isinstance(p, Prefixed):
        return Prefixed(p.prefix, single_restrictions(p.continuation))
    if isinstance(p, Par):
        return Par(single_restrictions(p.left), single_restrictions(p.right))
    if isinstance(p, Restrict):
        out = single_restrictions(p.body)
        for k in reversed(p.channels):
            out = Restrict((k,), out)
        return out
    if isinstance(p, Repl):
        return Repl(single_restrictions(p.body))
    return p


# ---------------------------------------------------------------------------
# Fragment walk


def fragment_breaches(p) -> str | None:
    """None if ``p`` is in the confidential fragment: every send object is
    a channel (bound by a restriction or free as a channel, never by a
    receive) and every name is used as a subject at one arity.  Otherwise
    the first breach found.  Names are told apart by their binding
    occurrence, so shadowing cannot hide or fake a clash."""
    ids = itertools.count()
    arity: dict = {}
    # (term, scope) with scope: ident -> (binding id, is_variable)
    stack = [(p, {})]

    def resolve(name, scope):
        if name.ident in scope:
            return scope[name.ident]
        return (("free", name.kind, name.ident), not name.is_channel)

    def use(name, n, scope):
        key = resolve(name, scope)[0]
        seen = arity.setdefault(key, n)
        return None if seen == n else f"{name.ident!r} used at arities {seen} and {n}"

    while stack:
        t, scope = stack.pop()
        if isinstance(t, Nil):
            continue
        if isinstance(t, Prefixed):
            pre = t.prefix
            while isinstance(pre, Match):
                pre = pre.inner
            if isinstance(pre, Send):
                for o in pre.objects:
                    if resolve(o, scope)[1]:
                        return f"send object {o.ident!r} is a variable"
                err = use(pre.subject, len(pre.objects), scope)
                inner = scope
            else:
                err = use(pre.subject, len(pre.binders), scope)
                inner = dict(scope)
                for b in pre.binders:
                    inner[b.ident] = (next(ids), True)
            if err:
                return err
            stack.append((t.continuation, inner))
        elif isinstance(t, Par):
            stack.append((t.right, scope))
            stack.append((t.left, scope))
        elif isinstance(t, Restrict):
            inner = dict(scope)
            for k in t.channels:
                inner[k.ident] = (next(ids), False)
            stack.append((t.body, inner))
        elif isinstance(t, Repl):
            stack.append((t.body, scope))
        else:
            raise TypeError(t)
    return None


# ---------------------------------------------------------------------------
# Naive replays


def deterministic(p, extra: set, moves: int) -> bool:
    """True if no state reached from ``p`` in fewer than ``moves`` moves
    has two different targets under one label (bound names erased), with
    inputs drawn from its free channels and ``extra``."""
    frontier, seen = [p], {naive_canon(p)}
    for _ in range(moves):
        nxt = []
        for s in frontier:
            env = {chan(n) for n in naive_free(s)} | extra
            by_label: dict = {}
            for lab, t in naive_transitions(s, env):
                label, shape = normalize(lab, t)
                by_label.setdefault(label, {})[shape] = t
            for targets in by_label.values():
                if len(targets) > 1:
                    return False
                for shape, t in targets.items():
                    if shape not in seen:
                        seen.add(shape)
                        nxt.append(t)
        frontier = nxt
    return True


def naive_tau_reducts(p) -> int:
    """The number of distinct one-step tau reducts of the closed ``p``."""
    return len({naive_canon(t) for lab, t in naive_transitions(p, set())
                if lab == ("tau",)})


def _label(a) -> tuple:
    if isinstance(a, TauAct):
        return ("tau",)
    objs = tuple(o.ident for o in a.objects)
    if isinstance(a, OutAct):
        return ("out", a.subject.ident, objs)
    if isinstance(a, InAct):
        return ("in", a.subject.ident, objs)
    return ("bout", a.subject.ident, objs, tuple(b.ident for b in a.bound))


def _match(want: tuple, got: tuple) -> dict | None:
    """The renaming of ``got``'s bound names onto ``want``'s, or None if
    the labels differ by more than that."""
    if want[0] != got[0] or want[0] == "tau":
        return {} if want == got else None
    if want[1] != got[1] or len(want[2]) != len(got[2]):
        return None
    if want[0] != "bout":
        return {} if want == got else None
    ren: dict = {}
    for w, g in zip(want[2], got[2]):
        if (w in want[3]) != (g in got[3]):
            return None
        if w in want[3]:
            if ren.setdefault(g, w) != w:
                return None
        elif w != g:
            return None
    return ren


def replay_violation(p, violation) -> str | None:
    """None if the violation holds on the naive LTS: its trace is a trace
    of ``p``; the channel is received at ``receive_index`` while not free
    and sent as a free object at ``send_index``, the last step."""
    trace = [_label(a) for a in violation.trace]
    ch = violation.channel.ident
    ri, si = violation.receive_index, violation.send_index
    if not (0 <= ri < si == len(trace) - 1):
        return f"indices {ri}, {si} do not fit a trace of {len(trace)}"
    if trace[ri][0] != "in" or ch not in trace[ri][2]:
        return f"step {ri} does not receive {ch!r}"
    last = trace[si]
    if last[0] not in ("out", "bout") or ch not in last[2] or (
            last[0] == "bout" and ch in last[3]):
        return f"step {si} does not send {ch!r} as a free object"

    def walk(state, i) -> bool:
        if i == len(trace):
            return True
        free = naive_free(state)
        if i == ri and ch in free:
            return False
        env = {chan(n) for n in free}
        for lab, t in naive_transitions(state, env):
            ren = _match(trace[i], lab)
            if ren is None:
                continue
            if ren:
                fn = naive_free(t)
                t = naive_subst(t, {chan(g): chan(w) for g, w in ren.items()
                                    if g in fn})
            if walk(t, i + 1):
                return True
        return False

    if not walk(p, 0):
        return "the naive LTS cannot replay the violation"
    return None
