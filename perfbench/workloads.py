"""The four workloads: seeded inputs, the query each input makes, and the
correctness check of each answer.

A workload hands out its inputs in rounds.  A round is a short list of
queries drawn from the workload's seeded generator; every run attempts
whole rounds, so the share of failed queries does not depend on how far
a run got.  Queries are ``(label, payload)`` pairs; ``run`` sends one to
the program and ``check`` judges the answer against a computation made
apart from the program, or against a property the method must have.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _p in (ROOT / "tests", ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from cpi import bisim, encoding, gen, lts, nonforward, parser, syntax  # noqa: E402
import oracle  # noqa: E402
from cpi.syntax import (  # noqa: E402
    NIL, Match, Par, Prefixed, Receive, Repl, Restrict, Send, chan, var,
)

LAW_DEPTH = 4
NF_DEPTH = 5
TAU_BUDGET = 12
ENC_DEPTH = 4


class Workload:
    """Seeded rounds of queries for one workload."""

    name = ""
    # Rounds built in set-up.  A timed run builds more between its timed
    # rounds when it needs them; a fixed run (the traced run and its
    # untraced twin) runs exactly these, so its counts repeat exactly.
    rounds = 1
    # The percentile reported as query_tail_ms: the highest of 90, 99 and
    # 99.9 with at least ten queries beyond it in a 20 s run, with room
    # for a slower commit, and steady over ten seeds.
    tail_percentile = 99.0

    def __init__(self, seed: str):
        self.rng = random.Random(f"{self.name}:{seed}")

    def round(self) -> list[tuple]:
        raise NotImplementedError

    def run(self, query: tuple):
        raise NotImplementedError

    def check(self, query: tuple, answer) -> str | None:
        """None if ``answer`` is right, else why it is wrong."""
        raise NotImplementedError

    def check_run(self) -> list[str]:
        """Properties of all the answers checked so far, taken together;
        each string is a breach."""
        return []


# ---------------------------------------------------------------------------
# laws: bisim.check on the law suite's laws


class Laws(Workload):
    """One instance of each of ``bisim.law_suite``'s ten laws and its
    mutant per round, plus a pair with a known counterexample.

    The instances are built as ``law_suite`` builds them, but smaller and
    with no replication in their random parts: single checks with
    replication run for seconds (36.9 s for ``!!(c!<b>.0 | c?(x1).0)``
    at depth 4), and a run's throughput would follow the draw.  In
    ``repl-unfold`` the replicated ``P`` is one thread of 2 nodes; two
    threads in parallel under ``!`` were most of the spread left.
    """

    name = "laws"
    rounds = 175

    def __init__(self, seed: str):
        super().__init__(seed)
        self.mutants = 0
        self.mutants_caught = 0

    def _gen(self, size, extra=()):
        return gen.random_cpi_process(self.rng, size, extra_channels=extra,
                                      repl_weight=0.0)

    def round(self) -> list[tuple]:
        rng, g = self.rng, self._gen
        out = []

        scope = (chan("a"), chan("b"))
        pre = gen.random_prefix(rng, scope)
        cont = g(4)
        a = rng.choice(scope)
        out.append(("match-elimination",
                    (Prefixed(Match(a, a, pre), cont), Prefixed(pre, cont))))

        p1, p2, p3 = g(3), g(3), g(3)
        out.append(("par-associativity",
                    (Par(p1, Par(p2, p3)), Par(Par(p1, p2), p3))))

        p1, p2 = g(4), g(4)
        out.append(("par-commutativity", (Par(p1, p2), Par(p2, p1))))

        p = g(6)
        out.append(("par-unit", (Par(p, NIL), p)))

        k, l = chan("rs1"), chan("rs2")
        body = g(5, extra=(k, l))
        out.append(("restriction-swap",
                    (Restrict((k,), Restrict((l,), body)),
                     Restrict((l,), Restrict((k,), body)))))

        out.append(("restrict-nil", (Restrict((chan("rn"),), NIL), NIL)))

        k = chan("sx")
        p, q = g(4), g(4, extra=(k,))
        out.append(("scope-extrusion",
                    (Par(p, Restrict((k,), q)), Restrict((k,), Par(p, q)))))

        p = g(2)
        while isinstance(p, Par):
            p = g(2)
        out.append(("repl-unfold", (Repl(p), Par(p, Repl(p)))))

        k, x = chan("ri"), var("xri")
        body = g(3)
        out.append(("restricted-repl-input",
                    (Restrict((k,), Repl(Prefixed(Receive(k, (x,)), body))),
                     NIL)))

        k = chan(rng.choice("abcd"))
        t = encoding.renaming_policy(k)
        out.append(("handler-collapse",
                    (Restrict((k, t.n_name, t.m_name), encoding.handler(k)),
                     NIL)))

        p, q = g(4), g(4)
        out.append(("mutant-par-absorb", (Par(p, q), p)))

        # z is fresh to P, so only the left side can output on it.
        p = g(5)
        z = chan("zfresh")
        out.append(("fresh-output",
                    (Par(p, Prefixed(Send(z, (z,)), NIL)), p)))
        return out

    def run(self, query):
        lhs, rhs = query[1]
        return bisim.check(lhs, rhs, LAW_DEPTH)

    def check(self, query, verdict) -> str | None:
        label = query[0]
        if label == "mutant-par-absorb":
            self.mutants += 1
            self.mutants_caught += not verdict.bisimilar
            return None
        if label == "fresh-output":
            return check_fresh_output(verdict, query[1][1], chan("zfresh"))
        if not verdict.bisimilar:
            return f"law {label} reported not bisimilar"
        return None

    def check_run(self):
        if self.mutants and not self.mutants_caught:
            return [f"the mutant law held on all {self.mutants} instances"]
        return []


def check_fresh_output(verdict, p, z) -> str | None:
    """``P | z!<z>.0`` against ``P`` with ``z`` fresh: only the left side
    can output on ``z``, so the pair is not bisimilar at any depth.

    A counterexample follows the defender's first answer at each step.
    When ``P`` is deterministic within the game's depth (by the naive
    LTS), that answer is the same move of ``P`` on the other side, so the
    two sides differ only by ``z!<z>.0`` all along: the counterexample
    must end with the output on ``z``, unmatched by the right side.
    """
    if verdict.bisimilar:
        return "fresh output pair reported bisimilar"
    ce = verdict.counterexample or ()
    if not 1 <= len(ce) <= LAW_DEPTH:
        return f"counterexample of length {len(ce)} at depth {LAW_DEPTH}"
    fresh = (lts.OutAct(z, (z,)), "right")
    free = {chan(n) for n in oracle.naive_free(p)} | {z}
    if ce[-1] != fresh and oracle.deterministic(p, free, LAW_DEPTH):
        return ("counterexample of a deterministic P does not end with the "
                "output on the fresh channel: "
                + ", ".join(f"{lts.render_action(a)} ({side})" for a, side in ce))
    return None


# ---------------------------------------------------------------------------
# nonforward: trace search on pi terms that may forward


class NonForward(Workload):
    """Three random pi terms (which may forward) and one random
    confidential term per round, each of 2 to 10 nodes and without
    replication."""

    name = "nonforward"
    rounds = 800
    # p99.9 has only about 22 queries beyond it in a 20 s run, and over
    # ten seeds it spread as far as the bound allows; p99 has about 220.

    def round(self) -> list[tuple]:
        rng = self.rng
        out = [("pi", gen.random_pi_process(rng, rng.randint(2, 10),
                                            repl_weight=0.0))
               for _ in range(3)]
        out.append(("cpi", gen.random_cpi_process(rng, rng.randint(2, 10),
                                                  repl_weight=0.0)))
        return out

    def run(self, query):
        return nonforward.check_nonforwarding(query[1], NF_DEPTH)

    def check(self, query, verdict) -> str | None:
        label, p = query
        if verdict.satisfied:
            return None
        if label == "cpi":
            # The paper's claim: the fragment never forwards.
            return "confidential term reported as forwarding"
        return oracle.replay_violation(p, verdict.violation)


# ---------------------------------------------------------------------------
# encode-verify: reduction completeness of the translation


_CORPUS_ENCODING = ("forward", "match_guard", "plain_comm", "replicated",
                    "scope_close", "two_pairs")


class EncodeVerify(Workload):
    """Four generated closed sources ``new a,b,c,d in (a!<b>.C1 | a?(x).C2)``
    with random continuations of 1 to 3 nodes without replication, per
    round; the six ``corpus/encoding`` sources open the first round."""

    name = "encode-verify"
    rounds = 14
    tail_percentile = 90.0

    def __init__(self, seed: str):
        super().__init__(seed)
        self.corpus = [
            (f"corpus:{n}", parser.parse(
                (ROOT / "corpus" / "encoding" / f"{n}.cpi").read_text(),
                mode=parser.PI))
            for n in _CORPUS_ENCODING]

    def round(self) -> list[tuple]:
        rng = self.rng
        pool = tuple(chan(c) for c in "abcd")
        a, b, x = pool[0], pool[1], var("x")
        out = []
        if self.corpus:
            out, self.corpus = self.corpus, []
        for _ in range(4):
            c1 = gen.random_pi_process(rng, rng.randint(1, 3),
                                       repl_weight=0.0)
            c2 = gen.random_pi_process(rng, rng.randint(1, 3),
                                       free_variables=(x,), repl_weight=0.0)
            src = Restrict(pool, Par(Prefixed(Send(a, (b,)), c1),
                                     Prefixed(Receive(a, (x,)), c2)))
            out.append(("generated", src))
        return out

    def run(self, query):
        return encoding.check_completeness(query[1], TAU_BUDGET, ENC_DEPTH)

    def check(self, query, report) -> str | None:
        if not report.ok:
            return "a reduct was not matched"
        want = oracle.naive_tau_reducts(query[1])
        if len(report.results) != want:
            return (f"{len(report.results)} reducts reported, "
                    f"the naive oracle derives {want}")
        for term in [report.source] + [r.target for r in report.results]:
            breach = oracle.fragment_breaches(encoding.encode_with_handlers(term))
            if breach:
                return f"translation leaves the fragment: {breach}"
        return None


# ---------------------------------------------------------------------------
# frontend: parse -> encode -> validate -> render, as `cpi encode` runs it


class Frontend(Workload):
    """Per round, two random pi terms of 10 to 60 nodes and one chain of
    10 to 100 prefixes ending in a random term, printed as scripts by the
    benchmark's own printer."""

    name = "frontend"
    rounds = 200

    def round(self) -> list[tuple]:
        rng = self.rng
        terms = [gen.random_pi_process(rng, rng.randint(10, 60))
                 for _ in range(2)]
        tail = gen.random_pi_process(rng, rng.randint(1, 8))
        chain = tail
        for _ in range(rng.randint(10, 100)):
            chain = Prefixed(gen.random_prefix(rng, (chan("a"), chan("b")),
                                               pi_mode=True), chain)
        terms.append(chain)
        return [("script", (oracle.script(t), t)) for t in terms]

    def run(self, query):
        text = query[1][0]
        p = parser.parse(text, mode=parser.PI)
        enc = encoding.encode(p)
        report = syntax.validate_cpi(enc)
        return p, enc, report, parser.render(enc)

    def check(self, query, answer) -> str | None:
        naive_canon = oracle.naive_canon
        _, term = query[1]
        p, enc, report, text = answer
        if naive_canon(p) != naive_canon(term):
            return "parsed script differs from the generated term"
        breach = oracle.fragment_breaches(enc)
        if breach:
            return f"translation leaves the fragment: {breach}"
        if not report.ok:
            return "validate_cpi rejects the translation"
        back = parser.parse(text, mode=parser.PI, allow_reserved=True)
        if naive_canon(back) != naive_canon(oracle.single_restrictions(enc)):
            return "rendered translation does not reparse to itself"
        return None


WORKLOADS = {w.name: w for w in (Laws, NonForward, EncodeVerify, Frontend)}
