"""Compositional translation of monadic sum-free pi terms into the
confidential fragment.

Forwarding a received name ``b`` is replaced by forwarding access to a
pair of service channels attached to ``b``: a channel that reveals ``b``
on request and a channel that brokers a communication on ``b``.  Every
name ``a`` therefore travels as a quadruple ``(a, n_a, m_a, cont)`` and a
replicated handler process serves ``n_a`` and ``m_a``.  The translation
is homomorphic on parallel composition, replication and inaction, and
restriction installs the handler for the restricted name locally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .bisim import Verdict, check
from .lts import TAU, Engine, successors, tau_levels
from .parser import render
from .syntax import (
    _NEW, _PAR_R, _REPL, _RIGHT, CpiError, Name, NIL, Nil, Par, Prefixed,
    Process, Receive, Repl, ReservedNameError, Restrict, Send, _fill, _idents,
    bound_names, canonicalize, chan, fnn, free_names, par, prefix_chain, var,
    wrap_matches,
)


class SourceModeError(CpiError):
    """The source term is outside the translatable fragment (polyadic
    prefixes, or reserved names in free position)."""


@dataclass(frozen=True)
class NameTriple:
    base: Name
    n_name: Name
    m_name: Name


def renaming_policy(n: Name) -> NameTriple:
    """The reveal/broker channel pair attached to ``n``.

    Derived names follow the sort of the base name, so the pair attached
    to an input binder is bound by the same input.
    """
    if n.is_reserved:
        raise ReservedNameError(
            f"no renaming policy for reserved name {n.ident!r}")
    return NameTriple(n, Name(n.kind, f"#n_{n.ident}"),
                      Name(n.kind, f"#m_{n.ident}"))


def handler(k: Name) -> Process:
    """The replicated service process for channel ``k``.

    One branch answers reveal requests on ``n_k`` by sending ``k`` back;
    the other answers broker requests on ``m_k`` by collecting the
    sender's identity, emitting the travelling quadruple on it, and
    handing the sender its continuation channel.
    """
    t = renaming_policy(k)
    x, x1, x2, y = var("#hx"), var("#hx1"), var("#hx2"), var("#hy")
    fresh = chan("#ht")
    reveal = Repl(Prefixed(Receive(t.n_name, (x,)),
                           Prefixed(Send(x, (k,)), NIL)))
    broker = Repl(Prefixed(
        Receive(t.m_name, (x1, x2)),
        Prefixed(Receive(x1, (y,)),
                 Restrict((fresh,), Prefixed(
                     Send(y, (k, t.n_name, t.m_name, fresh)),
                     Prefixed(Send(x2, (fresh,)), NIL))))))
    return Par(reveal, broker)


def encode(p: Process) -> Process:
    """Translate the monadic sum-free term ``p``.

    Raises :class:`SourceModeError` if a prefix is polyadic or a free
    name is reserved.  Reserved bound names (as produced by the
    canonicalizer) become the surface names ``src0, src1, ...`` (skipping
    identifiers that occur in ``p``) in the order the translation meets
    their binders, so canonical forms can be fed back through it; the
    translation renames as it goes and builds no renamed copy.
    """
    for n in free_names(p):
        if n.is_reserved:
            raise SourceModeError(
                f"free reserved name {n.ident!r} in translation source")
    taken = {n.ident for n in free_names(p) | bound_names(p)}
    surface = _idents("src", taken, itertools.count())
    fr = itertools.count()
    # The surface name of each reserved binder in scope, with the outer
    # entries saved on the trail (see the traversal discipline in syntax).
    env: dict[Name, Name] = {}
    trail: list = []

    def bind(b: Name) -> Name:
        if b.is_reserved:
            trail.append((b, env.get(b)))
            env[b] = b = Name(b.kind, next(surface))
        return b

    todo: list = []
    t = p
    while True:
        kind = type(t)
        if kind is Prefixed:
            guards, core = prefix_chain(t.prefix)
            guards = [(env.get(a, a), env.get(b, b)) for a, b in guards]
            subject = env.get(core.subject, core.subject)
            if type(core) is Send:
                if len(core.objects) != 1:
                    raise SourceModeError(
                        f"polyadic send on {subject.ident!r}")
                obj = core.objects[0]
                ta = renaming_policy(subject)
                tb = renaming_policy(env.get(obj, obj))
                e1 = chan(f"#e{next(fr)}")
                e2 = chan(f"#e{next(fr)}")
                y = var(f"#y{next(fr)}")
                todo += ((_NEW, (e1, e2)),
                         wrap_matches(guards, Send(ta.n_name, (e1,))),
                         Send(tb.m_name, (e1, e2)), Receive(e2, (y,)),
                         Send(y, (e1,)))
            else:
                if len(core.binders) != 1:
                    raise SourceModeError(
                        f"polyadic receive on {subject.ident!r}")
                x = bind(core.binders[0])
                tx = renaming_policy(x)
                xc = var(f"#w{next(fr)}")
                dummy = var(f"#y{next(fr)}")
                todo += (wrap_matches(guards, Receive(
                             subject, (x, tx.n_name, tx.m_name, xc))),
                         Receive(xc, (dummy,)))
            t = t.continuation
        elif kind is Par:
            todo.append((_RIGHT, t.right, len(trail)))
            t = t.left
        elif kind is Restrict:
            for k in t.channels:
                k = bind(k)
                tr = renaming_policy(k)
                todo += ((_NEW, (k, tr.n_name, tr.m_name)), (_PAR_R, handler(k)))
            t = t.body
        elif kind is Repl:
            todo.append(_REPL)
            t = t.body
        elif kind is Nil:
            t, out = _fill(todo, t, env, trail)
            if t is None:
                return out
        else:
            raise TypeError(t)


def encode_with_handlers(p: Process) -> Process:
    """The translation of ``p`` composed with handlers for its free
    channels (modulo reflexive match guards)."""
    base = encode(p)
    frees = sorted((n for n in fnn(p) if n.is_channel),
                   key=lambda n: n.ident)
    if not frees:
        return base
    return Par(base, par(*(handler(k) for k in frees)))


def source_reductions(p: Process) -> tuple[Process, ...]:
    """The one-step internal reducts of the closed source term ``p``."""
    if free_names(p):
        raise SourceModeError("reduction analysis needs a closed source term")
    return tuple(tr.target for tr in successors(p, include_inputs=False)
                 if tr.action is TAU)


@dataclass(frozen=True)
class EncodingReport:
    source: Process
    target: Process
    found: bool
    tau_steps: Optional[int]
    witness: Optional[Process]
    verdict: Optional[Verdict]

    def to_json(self) -> dict:
        return {"source": render(self.source),
                "target": render(self.target),
                "found": self.found,
                "tau_steps": self.tau_steps,
                "witness": render(self.witness) if self.witness else None,
                "verdict": self.verdict.to_json() if self.verdict else None}


@dataclass(frozen=True)
class CompletenessReport:
    source: Process
    tau_budget: int
    depth: int
    results: tuple[EncodingReport, ...]

    @property
    def ok(self) -> bool:
        return all(r.found for r in self.results)

    def to_json(self) -> dict:
        return {"source": render(self.source), "tau_budget": self.tau_budget,
                "depth": self.depth, "ok": self.ok,
                "reducts": [r.to_json() for r in self.results]}


def check_completeness(p: Process, tau_budget: int = 12,
                       depth: int = 4) -> CompletenessReport:
    """For every internal reduct ``q`` of the closed term ``p``, search
    the tau-reachable states of the translated ``p`` (within the budget)
    for one bisimilar, up to ``depth``, to the translation of ``q``.

    The report records the tau distance and the witness state per reduct.
    The check is one query: its tau closure and all of its games share
    one engine, so no state's transitions are computed twice.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    p = canonicalize(p)
    enc_p = encode_with_handlers(p)
    pending = {q: encode_with_handlers(q) for q in source_reductions(p)}
    results: dict[Process, EncodingReport] = {}
    engine = Engine()
    for steps, level in enumerate(tau_levels(enc_p, tau_budget, engine)):
        if not pending:
            break
        for state in level:
            for q, enc_q in list(pending.items()):
                v = check(state, enc_q, depth, engine)
                if v.bisimilar:
                    results[q] = EncodingReport(p, q, True, steps,
                                                canonicalize(state), v)
                    del pending[q]
    for q in pending:
        results[q] = EncodingReport(p, q, False, None, None, None)
    by_text = tuple(results[q] for q in sorted(results, key=render))
    return CompletenessReport(p, tau_budget, depth, by_text)
