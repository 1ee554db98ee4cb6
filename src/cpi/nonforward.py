"""Non-forwarding analysis.

A process forwards when some trace receives a channel that was not free
beforehand and later emits that channel as an output object.  The
analyzer explores all traces up to a depth bound, breadth-first, with
nameless-state deduplication; its last level reads only the labels of
its states, since their targets would start a level that is never
searched, and a satisfied verdict covers the same traces as a full
expansion would.  Confidential-fragment membership gives the same
guarantee statically.

The search's answer is defined by the engine's one order of moves
(:meth:`lts.Engine.moves`, the order of :meth:`lts.Engine.successors`):
the violation it reports is the first found when each level is visited
in that order.  A level is sorted by the traces of its nodes, stably, and
a node is kept by the first parent that reaches it in visiting order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .bisim import Verdict, check
from .lts import (
    Action, BoundOutAct, Engine, InAct, OutAct, _opened, action_to_json,
)
from .syntax import (
    CpiError, Name, Par, Prefixed, Process, Repl, Restrict, Send,
    ValidationReport, free_names, nameless, prefix_chain, validate_cpi,
)


class WitnessNotCpi(CpiError):
    """The supplied witness is not a confidential process."""


@dataclass(frozen=True)
class NFViolation:
    trace: tuple[Action, ...]
    receive_index: int
    send_index: int
    channel: Name

    def to_json(self) -> dict:
        return {"trace": [action_to_json(a) for a in self.trace],
                "receive_index": self.receive_index,
                "send_index": self.send_index,
                "channel": self.channel.ident}


@dataclass(frozen=True)
class NFVerdict:
    satisfied: bool
    depth: int
    violation: Optional[NFViolation] = None

    @property
    def result(self) -> str:
        return "satisfied-up-to-depth" if self.satisfied else "violated"

    def to_json(self) -> dict:
        return {"result": self.result, "depth": self.depth,
                "violation": self.violation.to_json() if self.violation else None}


def _forwarded(action: Action, watch_map: dict,
               trace: tuple[Action, ...]) -> Optional[NFViolation]:
    """The violation the output ``action`` completes after ``trace``, if any."""
    emitted = watch_map.keys() & action.objects
    if type(action) is BoundOutAct:
        emitted.difference_update(action.bound)
    if not emitted:
        return None
    l = min(emitted, key=lambda n: n.ident)
    return NFViolation(trace + (action,), watch_map[l], len(trace), l)


class _Channels(dict):
    """The channels among each free-name set asked for, made once."""

    def __missing__(self, free: frozenset[Name]) -> frozenset[Name]:
        env = self[free] = frozenset(n for n in free if n.is_channel)
        return env


# A node of the search is a tuple (state, watched, trace, order):
# ``watched`` pairs each watched channel with the step that received it,
# and ``order`` is the _action_sort_key of each action of ``trace``.
_STATE, _WATCHED, _TRACE, _ORDER = range(4)


def _monadic(root: Process) -> bool:
    """Whether every send of ``root`` has one object and every receive
    one binder.  Every state reachable from it is so too, so no
    synchronization of theirs can clash on arity."""
    todo = [root]
    seen = set()
    while todo:
        t = todo.pop()
        if t in seen:
            continue
        seen.add(t)
        kind = type(t)
        if kind is Prefixed:
            core = prefix_chain(t.prefix)[1]
            if len(core.objects if type(core) is Send else core.binders) != 1:
                return False
            todo.append(t.continuation)
        elif kind is Par:
            todo += (t.left, t.right)
        elif kind is Restrict or kind is Repl:
            todo.append(t.body)
    return True


def check_nonforwarding(p: Process, depth: int) -> NFVerdict:
    """Search all traces of length at most ``depth`` for a forwarding
    pattern: a channel received while absent from the free names, later
    sent as a free output object."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    engine = Engine()
    root = nameless(p)
    frontier = [(root, (), (), ())]
    seen = {(root, ())}
    envs = _Channels()
    for _level in range(depth - 1):
        nxt = []
        for state, watched, trace, order in frontier:
            free = free_names(state)
            watch_map = dict(watched) if watched else {}
            for act, targets in engine.moves(state, envs[free]):
                kind = type(act)
                # nothing is forwarded but by an output of a watched node
                if watched and (kind is OutAct or kind is BoundOutAct):
                    violation = _forwarded(act, watch_map, trace)
                    if violation is not None:
                        return NFVerdict(False, depth, violation)
                new_watch = watched
                if kind is InAct:
                    extra = tuple(
                        (o, len(trace)) for o in act.objects
                        if o.is_channel and o not in free and o not in watch_map)
                    if extra:
                        new_watch = tuple(sorted(
                            set(watched) | set(extra),
                            key=lambda kv: (kv[0].ident, kv[1])))
                for t in targets:
                    target = _opened(t, act.objects) if kind is BoundOutAct else t
                    key = (target, new_watch)
                    if key not in seen:
                        seen.add(key)
                        nxt.append((target, new_watch, trace + (act,),
                                    order + (act._sort_key,)))
        nxt.sort(key=itemgetter(_ORDER))
        frontier = nxt
        if not frontier:
            break
    if depth:
        # The last step can only complete a violation, so it reads labels:
        # its targets would start a level that is never searched.  The
        # labels of an unwatched node are derived too, so that a sort
        # error in the last step is raised as on full successors; a
        # monadic root meets none, so its unwatched nodes are skipped.
        monadic = _monadic(root)
        for node in frontier:
            if monadic and not node[_WATCHED]:
                continue
            violation = _violation(engine, node, envs)
            if violation is not None:
                return NFVerdict(False, depth, violation)
    return NFVerdict(True, depth)


def _violation(engine: Engine, node, envs: _Channels) -> Optional[NFViolation]:
    """The first violation, in action order, that a step from ``node``
    completes, if any."""
    state, watched = node[_STATE], node[_WATCHED]
    acts = engine.actions(state, envs[free_names(state)])
    if watched:
        watch_map = dict(watched)
        for act in acts:
            if type(act) is OutAct or type(act) is BoundOutAct:
                violation = _forwarded(act, watch_map, node[_TRACE])
                if violation is not None:
                    return violation
    return None


@dataclass(frozen=True)
class StaticGuarantee:
    guaranteed: bool
    report: ValidationReport

    def to_json(self) -> dict:
        return {"result": "guaranteed" if self.guaranteed else "not-applicable",
                "report": self.report.to_json()}


def static_guarantee(p: Process) -> StaticGuarantee:
    """Confidential-fragment membership implies non-forwarding at every
    depth; otherwise the validation report says why the guarantee does
    not apply."""
    report = validate_cpi(p)
    return StaticGuarantee(report.ok, report)


@dataclass(frozen=True)
class Evidence:
    positive: bool
    depth: int
    witness_valid: ValidationReport
    verdict: Verdict

    def to_json(self) -> dict:
        return {"result": "positive" if self.positive else "negative",
                "depth": self.depth,
                "witness_valid": self.witness_valid.to_json(),
                "verdict": self.verdict.to_json()}


def witness_check(p: Process, q: Process, depth: int) -> Evidence:
    """Bounded evidence that ``p`` does not forward: a confidential
    witness ``q`` that is bisimilar to ``p`` up to ``depth``.  This
    instantiates an existential criterion at finite depth; it is
    reported as evidence, never as proof."""
    report = validate_cpi(q)
    if not report.ok:
        raise WitnessNotCpi(
            "; ".join(v.message for v in report.violations) or "witness rejected")
    verdict = check(p, q, depth)
    return Evidence(verdict.bisimilar, depth, report, verdict)
