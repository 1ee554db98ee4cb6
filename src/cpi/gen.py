"""Random term generators for the property suites.

All generators are driven by a caller-supplied ``random.Random`` so runs
are reproducible from a seed.  Generated confidential terms are always
valid (send objects are channels in scope, receives bind fresh
variables, every communication is monadic, so sorts cannot clash).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Sequence

from .syntax import (
    Match, Name, NIL, Par, Prefix, Prefixed, Process, Receive, Repl,
    Restrict, Send, chan, drive, var,
)

_POOL = ("a", "b", "c", "d")


class _Scope:
    def __init__(self, channels: Sequence[Name], variables: Sequence[Name]):
        self.channels = list(channels)
        self.variables = list(variables)
        self.counter = 0

    def fresh_var(self) -> Name:
        self.counter += 1
        return var(f"x{self.counter}")

    def fresh_chan(self) -> Name:
        self.counter += 1
        return chan(f"r{self.counter}")


def random_prefix(rng: random.Random, channels: Sequence[Name],
                  variables: Sequence[Name] = (), pi_mode: bool = False,
                  scope: _Scope | None = None) -> Prefix:
    """A random monadic send or receive, occasionally match-guarded."""
    sc = scope or _Scope(channels, variables)
    names = sc.channels + sc.variables

    def core() -> Prefix:
        if rng.random() < 0.5:
            obj = rng.choice(names if pi_mode else sc.channels)
            return Send(rng.choice(names), (obj,))
        binder = sc.fresh_var()
        pre = Receive(rng.choice(names), (binder,))
        sc.variables.append(binder)
        return pre

    pre = core()
    if rng.random() < 0.15:
        a = rng.choice(names)
        b = a if rng.random() < 0.5 else rng.choice(names)
        pre = Match(a, b, pre)
    return pre


def _random_process(rng: random.Random, sc: _Scope, pi_mode: bool,
                    size: int, repl_weight: float):
    """A random process, as a generator for :func:`syntax.drive`: it
    yields the ``(size, repl_weight)`` of each subterm to draw, the left
    of '|' before the right."""
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
        cont = yield size - 1, repl_weight
        sc.variables = saved
        return Prefixed(pre, cont)
    if roll < 0.75:
        left_size = rng.randint(1, size - 1)
        left = yield left_size, repl_weight
        right = yield size - left_size, repl_weight
        return Par(left, right)
    if roll < 0.75 + repl_weight:
        body = yield min(size - 1, 3), 0.0
        return Repl(body)
    k = sc.fresh_chan()
    sc.channels.append(k)
    body = yield size - 1, repl_weight
    sc.channels.pop()
    return Restrict((k,), body)


def random_cpi_process(rng: random.Random, size: int,
                       extra_channels: Sequence[Name] = (),
                       repl_weight: float = 0.08) -> Process:
    """A random confidential process of at most ``size`` AST nodes."""
    sc = _Scope([chan(c) for c in _POOL] + list(extra_channels), [])
    return drive(partial(_random_process, rng, sc, False), size, repl_weight)


def random_pi_process(rng: random.Random, size: int,
                      extra_channels: Sequence[Name] = (),
                      free_variables: Sequence[Name] = (),
                      repl_weight: float = 0.08) -> Process:
    """A random sum-free monadic pi process; received names may be
    forwarded (objects range over every name in scope)."""
    sc = _Scope([chan(c) for c in _POOL] + list(extra_channels),
                list(free_variables))
    return drive(partial(_random_process, rng, sc, True), size, repl_weight)
