"""Random terms of the shapes ``cpi.gen`` never makes, for differential
tests of the walks that rename binders.

``cpi.gen`` keeps every binder fresh, every restriction single and, in
the confidential generator, every send object a channel.  These terms
reuse a small pool of identifiers, so binders shadow each other and
free names share identifiers with binders; restrictions bind up to three
channels; variables are sent and used as subjects; with ``polyadic`` a
prefix carries up to three names, so one subject meets several arities.
"""

from __future__ import annotations

import random

from cpi.syntax import (
    NIL, Match, Par, Prefixed, Receive, Repl, Restrict, Send, chan, var,
)

RESTRICTED = tuple(chan(i) for i in ("a", "b", "k", "src0"))
RECEIVED = tuple(var(i) for i in ("x", "y", "src1"))
# Reserved binders, as canonical forms have them, but shadowing.
RESERVED_RESTRICTED = tuple(chan(i) for i in ("#0", "#1", "a", "src0"))
RESERVED_RECEIVED = tuple(var(i) for i in ("#0", "#2", "src1"))


def rough_process(rng: random.Random, size: int, polyadic: bool = True,
                  channels=RESTRICTED[:2], variables=(),
                  restricted=RESTRICTED, received=RECEIVED):
    """A random term of at most ``size`` prefix, ``|``, ``new`` and
    ``!`` nodes over the names in scope (free channels by default) whose
    binders come from ``restricted`` and ``received``."""
    names = tuple(channels) + tuple(variables)
    if size <= 1:
        return NIL
    roll = rng.random()
    arity = rng.choice((1, 1, 2, 3)) if polyadic else 1
    if roll < 0.45:
        subject = rng.choice(names)
        if rng.random() < 0.5:
            pre = Send(subject, tuple(rng.choice(names) for _ in range(arity)))
            bound = ()
        else:
            bound = tuple(rng.sample(received, arity))
            pre = Receive(subject, bound)
        if rng.random() < 0.2:
            pre = Match(rng.choice(names), rng.choice(names), pre)
        return Prefixed(pre, rough_process(rng, size - 1, polyadic, channels,
                                           tuple(variables) + bound,
                                           restricted, received))
    if roll < 0.75:
        left = rng.randint(1, size - 1)
        return Par(rough_process(rng, left, polyadic, channels, variables,
                                 restricted, received),
                   rough_process(rng, size - left, polyadic, channels,
                                 variables, restricted, received))
    if roll < 0.85:
        return Repl(rough_process(rng, size - 1, polyadic, channels,
                                  variables, restricted, received))
    ks = tuple(rng.sample(restricted, rng.choice((1, 2, 3))))
    return Restrict(ks, rough_process(rng, size - 1, polyadic,
                                      tuple(channels) + ks, variables,
                                      restricted, received))
