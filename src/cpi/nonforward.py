"""Non-forwarding analysis.

A process forwards when some trace receives a channel that was not free
beforehand and later emits that channel as an output object.  The
analyzer explores all traces up to a depth bound, breadth-first, with
nameless-state deduplication; its last level reads only the labels of
its states, since their targets would start a level that is never
searched, and a satisfied verdict covers the same traces as a full
expansion would.  Confidential-fragment membership gives the same
guarantee statically.

The search's answer is defined by the canonical order of moves, that of
:meth:`lts.Engine.successors`: the violation it reports is the first
found when each level is visited in that order.  A level is sorted by
the traces of its nodes, and a node is kept by the first parent that
reaches it, so the order of one action's targets decides only the order
among nodes that share a trace.  That order is read in two places: where
nodes that share a trace yield different violations, and where two
parents that share a trace reach one node by different actions, which
gives the node the first parent's trace.  A search from a monadic root
(:func:`bisim._monadic`), which cannot meet an arity clash, therefore
reads each action's targets in derivation order
(:meth:`lts.Engine.moves`), and ranks nodes in canonical order only in
those two places, rendering only targets that share their action.  A
search from a polyadic root visits every level in canonical order
(:meth:`lts.Engine.ordered`), so that it meets a clash where the
canonical search does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .bisim import Verdict, _monadic, check
from .lts import (
    Action, BoundOutAct, Engine, InAct, OutAct, _opened, _tie_text,
    action_bound, action_to_json,
)
from .syntax import (
    CpiError, Name, Process, ValidationReport, free_names, nameless,
    validate_cpi,
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


def _free_output_objects_of(action: Action) -> frozenset[Name]:
    kind = type(action)
    if kind is OutAct:
        return frozenset(action.objects)
    if kind is BoundOutAct:
        return frozenset(action.objects) - action_bound(action)
    return frozenset()


def _forwarded(action: Action, watch_map: dict,
               trace: tuple[Action, ...]) -> Optional[NFViolation]:
    """The violation that ``action`` completes after ``trace``, if any."""
    emitted = _free_output_objects_of(action) & watch_map.keys()
    if not emitted:
        return None
    l = min(emitted, key=lambda n: n.ident)
    return NFViolation(trace + (action,), watch_map[l], len(trace), l)


# A node of the search is a list [state, watched, trace, order, parent,
# action, target, targets, path, claims]: ``watched`` pairs each watched
# channel with the step that received it, and ``order`` is the
# _action_sort_key of each action of ``trace``.  The node was first
# reached from ``parent`` by ``action``, as ``target`` among the parent's
# ``targets`` of that action; ``path`` is its canonical rank, None until
# asked (_path); ``claims`` is None, or the (parent, action, target,
# targets) by which other parents with the parent's trace reach it, one
# per parent.
_STATE, _WATCHED, _TRACE, _ORDER, _PARENT, _ACT, _TARGET, _TARGETS, \
    _PATH, _CLAIMS = range(10)


def check_nonforwarding(p: Process, depth: int) -> NFVerdict:
    """Search all traces of length at most ``depth`` for a forwarding
    pattern: a channel received while absent from the free names, later
    sent as a free output object."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    engine = Engine()
    root = nameless(p)
    derived = _monadic(root)
    view = engine.moves if derived else engine.ordered
    # Each level is sorted by order, so the nodes that share a trace are
    # adjacent, in canonical order unless ``derived``.
    frontier = [[root, (), (), (), None, None, None, None, (), None]]
    seen = {(root, ())}
    # If ``derived``: the nodes of the next level by key, and those that
    # two parents with one trace reach by different actions.
    born: dict = {}
    ambiguous: list = []
    for _level in range(depth - 1):
        nxt = []
        for i, node in enumerate(frontier):
            state, watched, trace = node[:3]
            free = free_names(state)
            watch_map = dict(watched)
            env = frozenset(n for n in free if n.is_channel)
            for act, targets in view(state, env):
                if watched:  # nothing to forward otherwise
                    violation = _forwarded(act, watch_map, trace)
                    if violation is not None:
                        if derived:
                            violation = _first_violation(engine, frontier, i, violation)
                        return NFVerdict(False, depth, violation)
                new_watch = watched
                kind = type(act)
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
                        child = [target, new_watch, trace + (act,),
                                 node[_ORDER] + (act._sort_key,), node, act, t,
                                 targets, None, None]
                        nxt.append(child)
                        if derived:
                            born[key] = child
                    elif derived:
                        # Another parent with this trace reaches the node
                        # too; one with another trace comes first.
                        child = born.get(key)
                        if (child is None or child[_PARENT] is node
                                or child[_PARENT][_TRACE] != trace):
                            continue
                        claims = child[_CLAIMS]
                        if claims is None:
                            claims = child[_CLAIMS] = []
                        elif claims[-1][0] is node:
                            continue
                        claims.append((node, act, t, targets))
                        if act is not child[_ACT]:
                            ambiguous.append(child)
        for child in ambiguous:
            # Of the parents that reach it by different actions, the
            # canonically first keeps the node.
            parent, act = min(_claims(child), key=_claim_rank)[:2]
            child[_TRACE] = parent[_TRACE] + (act,)
            child[_ORDER] = parent[_ORDER] + (act._sort_key,)
        ambiguous.clear()
        born.clear()
        nxt.sort(key=itemgetter(_ORDER))
        frontier = nxt
        if not frontier:
            break
    if depth:
        # The last step can only complete a violation, so it reads labels:
        # its targets would start a level that is never searched.  Every
        # state's labels are derived, watched or not, so a sort error in
        # the last step is raised as on full successors; a monadic root
        # meets none.
        for i, node in enumerate(frontier):
            if derived and not node[_WATCHED]:
                continue
            violation = _violation(engine, node)
            if violation is not None:
                if derived:
                    violation = _first_violation(engine, frontier, i, violation)
                return NFVerdict(False, depth, violation)
    return NFVerdict(True, depth)


def _violation(engine: Engine, node) -> Optional[NFViolation]:
    """The first violation, in action order, that a step from ``node``
    completes, if any."""
    state, watched = node[_STATE], node[_WATCHED]
    acts = engine.actions(state, frozenset(
        n for n in free_names(state) if n.is_channel))
    if watched:
        watch_map = dict(watched)
        for act in acts:
            violation = _forwarded(act, watch_map, node[_TRACE])
            if violation is not None:
                return violation
    return None


def _first_violation(engine: Engine, frontier: list, i: int,
                     violation: NFViolation) -> NFViolation:
    """The violation of the canonically first of the nodes that share the
    trace of ``frontier[i]``, the first of them with a violation, which
    is ``violation``.  The nodes are ranked only if their violations
    differ."""
    node = frontier[i]
    found = [(node, violation)]
    for other in itertools.islice(frontier, i + 1, None):
        if other[_TRACE] != node[_TRACE]:
            break
        v = _violation(engine, other)
        if v is not None:
            found.append((other, v))
    if any(v != violation for _, v in found):
        violation = min(found, key=lambda nv: _path(nv[0]))[1]
    return violation


def _claims(node) -> list:
    """The (parent, action, target, targets) by which each parent of
    ``node``'s group reaches it, the first parent's first."""
    return [tuple(node[_PARENT:_PATH])] + (node[_CLAIMS] or [])


def _claim_rank(claim) -> tuple:
    """The canonical rank of a ``claim`` of a node against the other
    claims of the node: its parent's rank, then its action's key."""
    return _path(claim[0]), claim[1]._sort_key


def _path(node) -> tuple:
    """The canonical rank of ``node`` among the nodes of its level that
    share its trace: the rank of the parent that keeps it, then the text
    of its target among that parent's targets of the same action, empty
    when there is no other.  Ranks are kept on the nodes, and a text is
    rendered only for a target that shares its action."""
    todo = [node]
    while todo:
        n = todo[-1]
        if n[_PATH] is not None:
            todo.pop()
            continue
        claims = _claims(n)
        missing = [c[0] for c in claims if c[0][_PATH] is None]
        if missing:
            todo += missing
            continue
        parent, act, t, targets = min(claims, key=_claim_rank)
        n[_PATH] = parent[_PATH] + (
            _tie_text(act, t) if len(targets) > 1 else "",)
        todo.pop()
    return node[_PATH]


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
