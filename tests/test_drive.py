"""The stack driver ``syntax.drive`` and its two clients, the bisimulation
game and the random generator, against test-local copies of the
recursive functions they replace, run under a raised recursion limit."""

import random
import sys

import pytest

from cpi import bisim
from cpi.bisim import (
    _Game, _normalized_labels, _unmatched_label, check_proposition1_instance,
    law_suite,
)
from cpi.gen import (
    _POOL, _Scope, random_cpi_process, random_pi_process, random_prefix,
)
from cpi.lts import Engine, _opened, normal_label
from cpi.parser import render
from cpi.syntax import (
    NIL, Par, Prefixed, Repl, Restrict, canonicalize, chan, drive,
    free_names, var,
)


@pytest.fixture
def deep():
    """Run a call under a recursion limit of 10,000, restored afterwards."""
    def call(f, *args):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            return f(*args)
        finally:
            sys.setrecursionlimit(limit)
    return call


def _countdown(n):
    if n == 0:
        return 0
    return 1 + (yield (n - 1,))


def test_drive_answers_each_yield_with_the_return_value():
    assert drive(_countdown, 100_000) == 100_000


# ---------------------------------------------------------------------------
# The game


def _normalized_moves(engine, p, extra_env, avoid_idents):
    """``bisim._normalized_moves`` as it was: the moves of ``p`` as one
    flat list of (normalized label, target), in the order of
    ``Engine.moves``, a bound output's targets opened."""
    moves = []
    for a, targets in engine.moves(p, extra_env):
        a, m = normal_label(a, avoid_idents)
        if m is None:
            moves += [(a, t) for t in targets]
        else:
            moves += [(a, _opened(t, a.objects)) for t in targets]
    return moves


class RecursiveGame:
    """``bisim._Game`` as it was when it called itself once per round
    and kept each counterexample as a list of its own."""

    def __init__(self, p, q, engine):
        self.base_env = frozenset(
            n for n in free_names(p) | free_names(q) if n.is_channel)
        self.engine = engine
        self.memo = {}

    def play(self, a, b, d):
        if a == b:
            return None
        key = (a, b, d)
        memo = self.memo
        if key in memo:
            return memo[key]
        env = self.base_env | frozenset(
            n for n in free_names(a) | free_names(b) if n.is_channel)
        avoid = {n.ident for n in env | free_names(a) | free_names(b)}
        if d == 1:
            result = _listed(_unmatched_label(
                _normalized_labels(self.engine, a, env, avoid),
                _normalized_labels(self.engine, b, env, avoid)))
            memo[key] = result
            return result
        moves_a = _normalized_moves(self.engine, a, env, avoid)
        moves_b = _normalized_moves(self.engine, b, env, avoid)
        by_label_a = {}
        by_label_b = {}
        for act, t in moves_a:
            by_label_a.setdefault(act, []).append(t)
        for act, t in moves_b:
            by_label_b.setdefault(act, []).append(t)

        result = None
        for attacker, defender, side in ((by_label_a, by_label_b, "right"),
                                         (by_label_b, by_label_a, "left")):
            for act, targets in attacker.items():
                cands = defender.get(act)
                for t in targets:
                    if not cands:
                        result = [(act, side)]
                        break
                    sub_fails = []
                    for c in cands:
                        sub = (self.play(t, c, d - 1) if side == "right"
                               else self.play(c, t, d - 1))
                        if sub is None:
                            break
                        sub_fails.append(sub)
                    else:
                        result = [(act, side)] + sub_fails[0]
                        break
                if result is not None:
                    break
            if result is not None:
                break
        memo[key] = result
        return result


def _listed(link):
    """The moves of a linked counterexample as a list, None as None."""
    if link is None:
        return None
    moves = []
    while link is not None:
        move, link = link
        moves.append(move)
    return moves


def _game_pairs(monkeypatch):
    """The pairs that the law suite (mutant law included) and 40 random
    Proposition-1 instances hand to ``bisim.check``, canonical."""
    pairs = []

    def record(p, q, depth, engine=None):
        pairs.append((canonicalize(p), canonicalize(q)))
        return bisim.Verdict(True, depth)

    monkeypatch.setattr(bisim, "check", record)
    law_suite(seed=16, instances=25, depth=1)
    rng = random.Random(16)
    m, n = chan("m"), chan("n")
    for _ in range(40):
        body = random_cpi_process(rng, rng.randint(1, 5), extra_channels=(m,))
        check_proposition1_instance(body, m, random_prefix(rng, (m, n)), 1)
    monkeypatch.undo()
    return pairs


def test_game_plays_as_the_recursive_game(monkeypatch, deep):
    pairs = _game_pairs(monkeypatch)
    assert len(pairs) >= 300
    outcomes = set()
    for p, q in pairs:
        engine = Engine()
        for d in range(1, 6):
            old = RecursiveGame(p, q, engine)
            new = _Game(p, q, engine)
            want = deep(old.play, p, q, d)
            got = new.play(p, q, d)
            assert _listed(got) == want, (render(p), render(q), d)
            assert [(k, _listed(v)) for k, v in new.memo.items()] == list(
                old.memo.items())
            outcomes.add((want is None, d))
    # both verdicts at every depth
    assert len(outcomes) == 10


# ---------------------------------------------------------------------------
# The generator


def _recursive_process(rng, size, sc, pi_mode, repl_weight):
    """``gen._random_process`` as it was when it called itself."""
    if size <= 1:
        if rng.random() < 0.4:
            return NIL
        saved = list(sc.variables)
        pre = random_prefix(rng, (), pi_mode=pi_mode, scope=sc)
        p = Prefixed(pre, NIL)
        sc.variables = saved
        return p
    roll = rng.random()
    if roll < 0.10:
        return NIL
    if roll < 0.50:
        saved = list(sc.variables)
        pre = random_prefix(rng, (), pi_mode=pi_mode, scope=sc)
        cont = _recursive_process(rng, size - 1, sc, pi_mode, repl_weight)
        sc.variables = saved
        return Prefixed(pre, cont)
    if roll < 0.75:
        left_size = rng.randint(1, size - 1)
        return Par(_recursive_process(rng, left_size, sc, pi_mode, repl_weight),
                   _recursive_process(rng, size - left_size, sc, pi_mode,
                                      repl_weight))
    if roll < 0.75 + repl_weight:
        return Repl(_recursive_process(rng, min(size - 1, 3), sc, pi_mode, 0.0))
    k = sc.fresh_chan()
    sc.channels.append(k)
    body = _recursive_process(rng, size - 1, sc, pi_mode, repl_weight)
    sc.channels.pop()
    return Restrict((k,), body)


def test_generator_draws_as_the_recursive_generator(deep):
    x = var("x")
    for seed in range(1000):
        size = 1 + seed % 40 if seed % 100 else 2000
        extra = (chan("e"),) if seed % 3 == 0 else ()
        for pi_mode in (False, True):
            free = (x,) if pi_mode and seed % 2 else ()
            for weight in (0.0, 0.08):
                rng = random.Random(seed)
                if pi_mode:
                    got = random_pi_process(rng, size, extra, free, weight)
                else:
                    got = random_cpi_process(rng, size, extra, weight)
                old_rng = random.Random(seed)
                sc = _Scope([chan(c) for c in _POOL] + list(extra), list(free))
                want = deep(_recursive_process, old_rng, size, sc, pi_mode,
                            weight)
                assert render(got) == render(want), (seed, pi_mode, weight)
                assert rng.random() == old_rng.random(), (seed, pi_mode, weight)
