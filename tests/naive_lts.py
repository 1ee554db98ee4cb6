"""Independent transition-rule oracle for conformance testing.

This module re-derives the labeled transition relation directly from the
rule schemas, with its own substitution, its own bound-name handling and
its own alpha-normal form.  It shares only the AST classes with the
package; none of the engine code.  It is deliberately simple and slow.

Transitions are compared through :func:`normalize`, which erases the
choice of bound-output names (both in the label and in the target) and
reduces targets to this module's own alpha-normal form.
"""

from __future__ import annotations

import itertools

from cpi.syntax import (
    CHAN, Match, Name, Nil, Par, Prefixed, Process, Receive, Repl,
    Restrict, Send, chan,
)

# Labels are plain tuples:
#   ("tau",)
#   ("out", subject_ident, (obj_ident, ...))
#   ("in",  subject_ident, (obj_ident, ...))
#   ("bout", subject_ident, (obj_ident, ...), (bound_ident, ...))


# ---------------------------------------------------------------------------
# Naive renaming-based substitution (channels for names)

_rename_counter = itertools.count()


def _naive_fresh(kind: str) -> Name:
    return Name(kind, f"@r{next(_rename_counter)}")


def naive_free(p: Process) -> set[str]:
    def pre_free(pre, cont: set[str]) -> set[str]:
        if isinstance(pre, Send):
            return cont | {pre.subject.ident} | {o.ident for o in pre.objects}
        if isinstance(pre, Receive):
            return (cont - {b.ident for b in pre.binders}) | {pre.subject.ident}
        return pre_free(pre.inner, cont) | {pre.lhs.ident, pre.rhs.ident}

    if isinstance(p, Nil):
        return set()
    if isinstance(p, Prefixed):
        return pre_free(p.prefix, naive_free(p.continuation))
    if isinstance(p, Par):
        return naive_free(p.left) | naive_free(p.right)
    if isinstance(p, Restrict):
        return naive_free(p.body) - {k.ident for k in p.channels}
    if isinstance(p, Repl):
        return naive_free(p.body)
    raise TypeError(p)


def naive_subst(p: Process, sigma: dict[Name, Name]) -> Process:
    """Capture-avoiding substitution by always renaming binders apart."""

    def sub_name(n: Name, m: dict[Name, Name]) -> Name:
        return m.get(n, n)

    def sub_pre(pre, m):
        if isinstance(pre, Send):
            return (Send(sub_name(pre.subject, m),
                         tuple(sub_name(o, m) for o in pre.objects)), m)
        if isinstance(pre, Receive):
            m2 = dict(m)
            out = []
            for b in pre.binders:
                nb = _naive_fresh(b.kind)
                m2[b] = nb
                out.append(nb)
            return Receive(sub_name(pre.subject, m), tuple(out)), m2
        inner, m2 = sub_pre(pre.inner, m)
        return Match(sub_name(pre.lhs, m), sub_name(pre.rhs, m), inner), m2

    def walk(t: Process, m: dict[Name, Name]) -> Process:
        if isinstance(t, Nil):
            return t
        if isinstance(t, Prefixed):
            pre, m2 = sub_pre(t.prefix, m)
            return Prefixed(pre, walk(t.continuation, m2))
        if isinstance(t, Par):
            return Par(walk(t.left, m), walk(t.right, m))
        if isinstance(t, Restrict):
            m2 = dict(m)
            ks = []
            for k in t.channels:
                nk = _naive_fresh(CHAN)
                m2[k] = nk
                ks.append(nk)
            return Restrict(tuple(ks), walk(t.body, m2))
        if isinstance(t, Repl):
            return Repl(walk(t.body, m))
        raise TypeError(t)

    return walk(p, dict(sigma))


# ---------------------------------------------------------------------------
# Alpha-normal form (independent of the package canonicalizer: distinct
# name scheme, and the counter is threaded rather than global-skipping)


def naive_canon(p: Process) -> tuple:
    """A hashable alpha-invariant shape for ``p``."""

    def pre_shape(pre, env, ctr):
        if isinstance(pre, Send):
            return (("snd", env.get(pre.subject.ident, pre.subject.ident),
                     tuple(env.get(o.ident, o.ident) for o in pre.objects)),
                    env, ctr)
        if isinstance(pre, Receive):
            env2 = dict(env)
            bs = []
            for b in pre.binders:
                env2[b.ident] = f"@{ctr}"
                bs.append(f"@{ctr}")
                ctr += 1
            return (("rcv", env.get(pre.subject.ident, pre.subject.ident),
                     tuple(bs)), env2, ctr)
        inner, env2, ctr = pre_shape(pre.inner, env, ctr)
        return (("eq", env.get(pre.lhs.ident, pre.lhs.ident),
                 env.get(pre.rhs.ident, pre.rhs.ident), inner), env2, ctr)

    def walk(t: Process, env: dict[str, str], ctr: int) -> tuple[tuple, int]:
        if isinstance(t, Nil):
            return ("nil",), ctr
        if isinstance(t, Prefixed):
            pre, env2, ctr = pre_shape(t.prefix, env, ctr)
            body, ctr = walk(t.continuation, env2, ctr)
            return ("pre", pre, body), ctr
        if isinstance(t, Par):
            l, ctr = walk(t.left, env, ctr)
            r, ctr = walk(t.right, env, ctr)
            return ("par", l, r), ctr
        if isinstance(t, Restrict):
            env2 = dict(env)
            ks = []
            for k in t.channels:
                env2[k.ident] = f"@{ctr}"
                ks.append(f"@{ctr}")
                ctr += 1
            body, ctr = walk(t.body, env2, ctr)
            return ("new", tuple(ks), body), ctr
        if isinstance(t, Repl):
            body, ctr = walk(t.body, env, ctr)
            return ("rep", body), ctr
        raise TypeError(t)

    shape, _ = walk(p, {}, 0)
    return shape


# ---------------------------------------------------------------------------
# The transition relation, rule schema by rule schema


def _guards_ok(pre) -> bool:
    while isinstance(pre, Match):
        if pre.lhs != pre.rhs:
            return False
        pre = pre.inner
    return True


def _core(pre):
    while isinstance(pre, Match):
        pre = pre.inner
    return pre


def _input_tuples(env: set[Name], arity: int) -> list[tuple[Name, ...]]:
    """The finite input cut: environment channels plus one designated
    fresh channel per tuple position (same interface convention as the
    engine, recomputed here from scratch)."""
    idents = {n.ident for n in env}
    fresh = []
    j = 0
    for _ in range(arity):
        while f"#i{j}" in idents:
            j += 1
        fresh.append(chan(f"#i{j}"))
        j += 1
    pools = [sorted(env, key=lambda n: n.ident) + [fresh[i]]
             for i in range(arity)]
    return list(itertools.product(*pools))


def naive_transitions(p: Process, env: set[Name]) -> set[tuple]:
    """All (label, target) pairs derivable for ``p`` under ``env``."""
    out: set[tuple] = set()

    if isinstance(p, Nil):
        return out

    if isinstance(p, Prefixed):
        if not _guards_ok(p.prefix):
            return out
        core = _core(p.prefix)
        if isinstance(core, Send):
            if core.subject.is_channel and all(o.is_channel for o in core.objects):
                out.add((("out", core.subject.ident,
                          tuple(o.ident for o in core.objects)),
                         p.continuation))
        else:
            if core.subject.is_channel:
                for tup in _input_tuples(env, len(core.binders)):
                    tgt = naive_subst(p.continuation,
                                      dict(zip(core.binders, tup)))
                    out.add((("in", core.subject.ident,
                              tuple(o.ident for o in tup)), tgt))
        return out

    if isinstance(p, Par):
        for here, there, mk in ((p.left, p.right, lambda t: Par(t, p.right)),
                                (p.right, p.left, lambda t: Par(p.left, t))):
            swap = here is p.right
            for lab, t in naive_transitions(here, env):
                if lab[0] == "bout":
                    lab, t = _avoid(lab, t, naive_free(there))
                out.add((lab, mk(t)))
                # synchronization schemas
                if lab[0] in ("out", "bout"):
                    subj = chan(lab[1])
                    objs = tuple(chan(i) for i in lab[2])
                    ins = naive_transitions(there, env | set(objs))
                    for lab2, t2 in ins:
                        if lab2 == ("in", lab[1], lab[2]):
                            pair = Par(t2, t) if swap else Par(t, t2)
                            if lab[0] == "out":
                                out.add(((("tau",)), pair))
                            else:
                                bound = tuple(chan(i) for i in lab[3])
                                out.add(((("tau",)), Restrict(bound, pair)))
        return out

    if isinstance(p, Restrict):
        if len(p.channels) > 1:
            inner: Process = Restrict(p.channels[1:], p.body)
        else:
            inner = p.body
        k = p.channels[0]
        if k.ident in {n.ident for n in env}:
            # alpha-convert the binder away from the names an input may
            # bring in: the environment and, at a synchronization, the
            # partner's objects
            fresh = _naive_fresh(CHAN)
            inner = naive_subst(inner, {k: fresh})
            k = fresh
        for lab, t in naive_transitions(inner, env):
            mentioned = set()
            if lab[0] != "tau":
                mentioned = {lab[1]} | set(lab[2])
            if lab[0] == "out" and k.ident in lab[2] and lab[1] != k.ident:
                out.add((("bout", lab[1], lab[2], (k.ident,)), t))
            elif (lab[0] == "bout" and k.ident in lab[2]
                  and k.ident not in lab[3] and lab[1] != k.ident):
                bset = set(lab[3]) | {k.ident}
                bound = tuple(i for pos, i in enumerate(lab[2])
                              if i in bset and i not in lab[2][:pos])
                out.add((("bout", lab[1], lab[2], bound), t))
            elif k.ident not in mentioned:
                out.add((lab, Restrict((k,), t)))
        return out

    if isinstance(p, Repl):
        body = p.body
        acts = naive_transitions(body, env)
        for lab, t in acts:
            if lab[0] == "bout":
                lab, t = _avoid(lab, t, naive_free(body))
            out.add((lab, Par(t, p)))
            if lab[0] in ("out", "bout"):
                objs = tuple(chan(i) for i in lab[2])
                for lab2, t2 in naive_transitions(body, env | set(objs)):
                    if lab2 == ("in", lab[1], lab[2]):
                        if lab[0] == "out":
                            out.add((("tau",), Par(Par(t, t2), p)))
                        else:
                            bound = tuple(chan(i) for i in lab[3])
                            out.add((("tau",),
                                     Par(Restrict(bound, Par(t, t2)), p)))
        return out

    raise TypeError(p)


def _avoid(lab: tuple, t: Process, partner_free: set[str]) -> tuple:
    """Alpha-convert bound-output names away from a partner's free names."""
    clash = [b for b in lab[3] if b in partner_free]
    if not clash:
        return lab, t
    m = {chan(b): _naive_fresh(CHAN) for b in clash}
    ren = {k.ident: v.ident for k, v in m.items()}
    objs = tuple(ren.get(i, i) for i in lab[2])
    bound = tuple(ren.get(i, i) for i in lab[3])
    fn = naive_free(t)
    t2 = naive_subst(t, {k: v for k, v in m.items() if k.ident in fn})
    return ("bout", lab[1], objs, bound), t2


# ---------------------------------------------------------------------------
# Comparable normal form


def normalize(label: tuple, target: Process) -> tuple:
    """Erase the choice of bound-output names and alpha-normalize."""
    if label[0] == "bout":
        placeholders = {b: f"@b{i}" for i, b in enumerate(label[3])}
        objs = tuple(placeholders.get(i, i) for i in label[2])
        label = ("bout", label[1], objs, tuple(placeholders[b] for b in label[3]))
        m = {chan(b): chan(ph) for b, ph in placeholders.items()}
        fn = naive_free(target)
        target = naive_subst(target,
                             {k: v for k, v in m.items() if k.ident in fn})
    return (label, naive_canon(target))


def naive_step_set(p: Process, env: set[Name]) -> set[tuple]:
    return {normalize(lab, t) for lab, t in naive_transitions(p, env)}
