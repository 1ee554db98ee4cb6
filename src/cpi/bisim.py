"""Bounded strong-bisimilarity checking with counterexample extraction.

The checker plays the d-round symmetric bisimulation game over nameless
state pairs (:func:`syntax.nameless`), with memoization.  Bound-output
labels are normalized on both sides (:func:`lts.normal_label`) before
comparison, which realizes the freshness side condition on bound names.
The last round compares label sets only: any reply to it survives, so
its targets are never built.  A positive answer is a bounded
certificate, never a proof of full bisimilarity, and means the same as
if the last round had been expanded in full.

The game's answer is defined by the engine's one order of moves
(:meth:`lts.Engine.moves`, the order of :meth:`lts.Engine.successors`):
a counterexample is the attacker's first winning move in that order,
followed by the counterexample of the defender's first reply in that
order.  The game visits moves in that same order, so the first winner
and the first reply it meets decide, and no target is rendered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .lts import (
    Action, Engine, _opened, action_to_json, normal_label, render_action,
)
from .parser import render
from .syntax import (
    CpiError, Match, Name, NIL, Par, Prefix, Prefixed, Process, Receive,
    Repl, Restrict, Send, bound_names, chan, drive, free_names, nameless,
    var,
)


class ConstructionError(CpiError):
    """A built-in construction clashed with names of the supplied term."""


@dataclass(frozen=True)
class Verdict:
    bisimilar: bool
    depth: int
    counterexample: Optional[tuple[tuple[Action, str], ...]] = None

    @property
    def result(self) -> str:
        return "bisimilar-up-to-depth" if self.bisimilar else "not-bisimilar"

    def to_json(self) -> dict:
        out = {"result": self.result, "depth": self.depth, "counterexample": None}
        if self.counterexample is not None:
            out["counterexample"] = [
                {"action": action_to_json(a), "side": side}
                for a, side in self.counterexample
            ]
        return out

    def describe(self) -> str:
        if self.bisimilar:
            return f"bisimilar up to depth {self.depth}"
        steps = ", ".join(f"{render_action(a)} (unmatched by {side})"
                          for a, side in self.counterexample or ())
        return f"not bisimilar: {steps}"


def _moves_by_label(engine: Engine, p: Process, extra_env: frozenset[Name],
                    avoid_idents: set[str]) -> dict:
    """The targets of the nameless ``p``'s moves by normalized label, in
    the order of :meth:`lts.Engine.moves`: the engine's dict, or for bound
    outputs a new list of the opened targets of all with that label."""
    by_label: dict = {}
    for a, targets in engine.moves(p, extra_env):
        a, m = normal_label(a, avoid_idents)
        if m is not None:
            targets = by_label.get(a, []) + [_opened(t, a.objects)
                                             for t in targets]
        by_label[a] = targets
    return by_label


def _normalized_labels(engine: Engine, p: Process, extra_env: frozenset[Name],
                       avoid_idents: set[str]) -> dict:
    """The distinct normalized labels of ``p``'s moves, in move order."""
    return dict.fromkeys(normal_label(a, avoid_idents)[0]
                         for a in engine.actions(p, extra_env))


def _unmatched_label(labels_a: dict, labels_b: dict):
    """The attack that wins a last round on labels alone: the first label
    of ``a`` that ``b`` lacks, else the first of ``b`` that ``a`` lacks,
    as a one-move link (see :meth:`_Game.play`)."""
    for act in labels_a:
        if act not in labels_b:
            return (act, "right"), None
    for act in labels_b:
        if act not in labels_a:
            return (act, "left"), None
    return None


def check(p: Process, q: Process, depth: int,
          engine: Optional[Engine] = None) -> Verdict:
    """Play the ``depth``-round strong bisimulation game between ``p``
    and ``q`` over their shared environment of free channels.

    The last round reads labels only (:meth:`lts.Engine.labels`); the
    verdict and counterexample are those of the game that expands it.

    ``engine`` lets several checks of one query share their transitions;
    by default the game gets its own.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    p, q = nameless(p), nameless(q)
    return _verdict(_Game(p, q, engine or Engine()).play(p, q, depth), depth)


def _verdict(link, depth: int) -> Verdict:
    """The verdict of a game of ``depth`` rounds that :meth:`_Game.play`
    answered with ``link``."""
    if link is None:
        return Verdict(True, depth)
    moves = []
    while link is not None:
        move, link = link
        moves.append(move)
    return Verdict(False, depth, tuple(moves))


# What _Game._settle answers for a pair that the game must expand.
_OPEN = object()


class _Game:
    """One memoised bisimulation game; its memo and scopes die with it.

    Both stay per game: their entries hold only under the game's
    ``base_env``.

    A pair's answer is the attacker's first winning move in the order
    of :meth:`lts.Engine.moves`, and behind it the link of the
    defender's first reply in that order.  It is a function of the pair
    alone, since that order is.
    """

    __slots__ = ("base_env", "engine", "memo", "scopes")

    def __init__(self, p: Process, q: Process, engine: Engine):
        self.base_env = frozenset(
            n for n in free_names(p) | free_names(q) if n.is_channel)
        self.engine = engine
        self.memo: dict = {}
        self.scopes: dict = {}

    def play(self, a: Process, b: Process, d: int):
        """None if the defender survives ``d`` rounds from ``(a, b)``,
        else the attacker's winning moves as a link ``((act, side),
        rest)``, ``rest`` None after the last; a memo entry's ``rest``
        is the entry of the pair its move leads to."""
        result = self._settle(a, b, d)
        if result is _OPEN:
            result = drive(self._expand, a, b, d)
        return result

    def _scope(self, a: Process, b: Process):
        """The environment of the round from ``(a, b)`` and the idents
        its bound-output labels avoid, made once per pair of free-name
        sets; the caller must not change them."""
        key = (free_names(a), free_names(b))
        scope = self.scopes.get(key)
        if scope is None:
            free = key[0] | key[1]
            env = self.base_env | frozenset(n for n in free if n.is_channel)
            scope = self.scopes[key] = env, {n.ident for n in env | free}
        return scope

    def _settle(self, a: Process, b: Process, d: int):
        """What :meth:`play` answers without expanding ``(a, b)``: for an
        identical pair, a memo hit or a last round; else ``_OPEN``."""
        if a == b:
            return None
        key = (a, b, d)
        result = self.memo.get(key, _OPEN)
        if result is not _OPEN or d > 1:
            return result
        # No round is left after this one, so every reply survives and
        # only a label the other side lacks can win it.
        env, avoid = self._scope(a, b)
        result = _unmatched_label(
            _normalized_labels(self.engine, a, env, avoid),
            _normalized_labels(self.engine, b, env, avoid))
        self.memo[key] = result
        return result

    def _expand(self, a: Process, b: Process, d: int):
        """:meth:`play` on a pair that :meth:`_settle` leaves open, as a
        generator for :func:`syntax.drive`: it yields each sub-round that
        :meth:`_settle` leaves open."""
        env, avoid = self._scope(a, b)
        by_label_a = _moves_by_label(self.engine, a, env, avoid)
        by_label_b = _moves_by_label(self.engine, b, env, avoid)
        settle = self._settle
        result = None
        for attacker, defender, side in ((by_label_a, by_label_b, "right"),
                                         (by_label_b, by_label_a, "left")):
            for act, targets in attacker.items():
                cands = defender.get(act)
                if not cands:
                    result = (act, side), None
                    break
                for t in targets:
                    links = []
                    for c in cands:
                        x, y = (t, c) if side == "right" else (c, t)
                        sub = settle(x, y, d - 1)
                        if sub is _OPEN:
                            sub = yield x, y, d - 1
                        if sub is None:
                            break
                        links.append(sub)
                    else:
                        # t wins; the first reply's link follows it
                        result = (act, side), links[0]
                        break
                if result is not None:
                    break
            if result is not None:
                break
        self.memo[(a, b, d)] = result
        return result


# ---------------------------------------------------------------------------
# Closed-domain instances


def check_proposition1_instance(body: Process, m: Name, pi: Prefix,
                                depth: int) -> Verdict:
    """Build the closed-domain pair and run the bounded game on it.

    Left side:  (new k)((new l) k!<l>.m?(y).[y=l]pi.0 | k?(x).body)
    Right side: the same with the guarded continuation replaced by 0.
    ``body`` may use the designated variable ``x``.
    """
    k, l, y = chan("k"), chan("l"), var("y")
    guarded = Prefixed(pi, NIL)
    used = free_names(body) | {m} | free_names(guarded) | bound_names(guarded)
    for reserved in (k, l, y, chan("y")):
        if reserved in used:
            raise ConstructionError(
                f"instance parts may not mention the reserved name {reserved.ident!r}")
    x = var("x")

    def side(with_match: bool) -> Process:
        cont: Process = Prefixed(Match(y, l, pi), NIL) if with_match else NIL
        left_thread = Restrict((l,), Prefixed(
            Send(k, (l,)), Prefixed(Receive(m, (y,)), cont)))
        right_thread = Prefixed(Receive(k, (x,)), body)
        return Restrict((k,), Par(left_thread, right_thread))

    return check(side(True), side(False), depth)


# ---------------------------------------------------------------------------
# The algebraic law suite


@dataclass(frozen=True)
class LawFailure:
    lhs: Process
    rhs: Process
    verdict: Verdict

    def to_json(self) -> dict:
        return {"lhs": render(self.lhs), "rhs": render(self.rhs),
                "verdict": self.verdict.to_json()}


@dataclass(frozen=True)
class LawResult:
    name: str
    instances: int
    failures: tuple[LawFailure, ...]
    should_fail: bool = False

    @property
    def ok(self) -> bool:
        return bool(self.failures) if self.should_fail else not self.failures

    def to_json(self) -> dict:
        return {"name": self.name, "instances": self.instances,
                "ok": self.ok, "should_fail": self.should_fail,
                "failures": [f.to_json() for f in self.failures]}


@dataclass(frozen=True)
class LawReport:
    seed: int
    depth: int
    results: tuple[LawResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> dict:
        return {"seed": self.seed, "depth": self.depth, "ok": self.ok,
                "laws": [r.to_json() for r in self.results]}


def law_suite(seed: int, instances: int, depth: int) -> LawReport:
    """Check the standard bisimilarity laws on random confidential terms.

    The last law, the mutant ``P | Q ~ P``, is expected to fail; its
    failure confirms the suite can detect false laws.
    """
    import random

    from .encoding import handler, renaming_policy
    from .gen import random_cpi_process, random_prefix

    if instances < 1:
        raise ValueError("instances must be positive")
    rng = random.Random(seed)

    def gen(size: int, extra=()):  # small helper, scope names threaded
        return random_cpi_process(rng, size, extra_channels=extra)

    def law_match_elim():
        scope = (chan("a"), chan("b"))
        pre = random_prefix(rng, scope)
        cont = gen(4)
        a = rng.choice(scope)
        return (Prefixed(Match(a, a, pre), cont), Prefixed(pre, cont))

    def law_par_assoc():
        p1, p2, p3 = gen(4), gen(4), gen(4)
        return (Par(p1, Par(p2, p3)), Par(Par(p1, p2), p3))

    def law_par_comm():
        p1, p2 = gen(5), gen(5)
        return (Par(p1, p2), Par(p2, p1))

    def law_par_unit():
        p = gen(6)
        return (Par(p, NIL), p)

    def law_restrict_swap():
        k, l = chan("rs1"), chan("rs2")
        body = gen(5, extra=(k, l))
        return (Restrict((k,), Restrict((l,), body)),
                Restrict((l,), Restrict((k,), body)))

    def law_restrict_nil():
        return (Restrict((chan("rn"),), NIL), NIL)

    def law_scope_extrusion():
        k = chan("sx")
        p = gen(4)
        q = gen(4, extra=(k,))
        return (Par(p, Restrict((k,), q)), Restrict((k,), Par(p, q)))

    def law_repl_unfold():
        p = gen(3)
        return (Repl(p), Par(p, Repl(p)))

    def law_repl_input_restricted():
        k = chan("ri")
        x = var("xri")
        body = gen(3)
        return (Restrict((k,), Repl(Prefixed(Receive(k, (x,)), body))), NIL)

    def law_handler_collapse():
        k = chan(rng.choice("abcd"))
        triple = renaming_policy(k)
        return (Restrict((k, triple.n_name, triple.m_name), handler(k)), NIL)

    def mutant_par_absorb():
        p, q = gen(4), gen(4)
        return (Par(p, q), p)

    laws = [
        ("match-elimination", law_match_elim, False),
        ("par-associativity", law_par_assoc, False),
        ("par-commutativity", law_par_comm, False),
        ("par-unit", law_par_unit, False),
        ("restriction-swap", law_restrict_swap, False),
        ("restrict-nil", law_restrict_nil, False),
        ("scope-extrusion", law_scope_extrusion, False),
        ("repl-unfold", law_repl_unfold, False),
        ("restricted-repl-input", law_repl_input_restricted, False),
        ("handler-collapse", law_handler_collapse, False),
        ("mutant-par-absorb", mutant_par_absorb, True),
    ]

    results = []
    for name, build, should_fail in laws:
        failures = []
        for _ in range(instances):
            lhs, rhs = build()
            verdict = check(lhs, rhs, depth)
            if not verdict.bisimilar:
                failures.append(LawFailure(lhs, rhs, verdict))
        results.append(LawResult(name, instances, tuple(failures), should_fail))
    return LawReport(seed, depth, tuple(results))
