"""Non-forwarding analysis.

A process forwards when some trace receives a channel that was not free
beforehand and later emits that channel as an output object.  The
analyzer explores all traces up to a depth bound, breadth-first, with
nameless-state deduplication; its last level reads only the labels of
its states, since their targets would start a level that is never
searched, and a satisfied verdict covers the same traces as a full
expansion would.  Confidential-fragment membership gives the same
guarantee statically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bisim import Verdict, check
from .lts import (
    Action, BoundOutAct, Engine, InAct, OutAct, _action_sort_key, _opened,
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


def check_nonforwarding(p: Process, depth: int) -> NFVerdict:
    """Search all traces of length at most ``depth`` for a forwarding
    pattern: a channel received while absent from the free names, later
    sent as a free output object."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    engine = Engine()
    root = nameless(p)
    # node: (state, watched: tuple[(channel, receive_index)], trace,
    #        the _action_sort_key of each action of trace)
    frontier = [(root, (), (), ())]
    seen = {(root, ())}
    for _level in range(depth - 1):
        nxt = []
        for state, watched, trace, order in frontier:
            free = free_names(state)
            watch_map = dict(watched)
            env = frozenset(n for n in free if n.is_channel)
            for tr in engine.transitions(state, env):
                act, target = tr.action, tr.target
                if watched:  # nothing to forward otherwise
                    violation = _forwarded(act, watch_map, trace)
                    if violation is not None:
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
                elif kind is BoundOutAct:
                    target = _opened(target, act.objects)
                key = (target, new_watch)
                if key not in seen:
                    seen.add(key)
                    nxt.append((target, new_watch, trace + (act,),
                                order + (_action_sort_key(act),)))
        nxt.sort(key=lambda node: node[3])
        frontier = nxt
        if not frontier:
            break
    if depth:
        # The last step can only complete a violation, so it reads labels:
        # its targets would start a level that is never searched.  Every
        # state's labels are derived, watched or not, so a sort error in
        # the last step is raised as on full successors.
        for state, watched, trace, _ in frontier:
            acts = engine.actions(state, frozenset(
                n for n in free_names(state) if n.is_channel))
            if not watched:
                continue
            watch_map = dict(watched)
            for act in acts:
                violation = _forwarded(act, watch_map, trace)
                if violation is not None:
                    return NFVerdict(False, depth, violation)
    return NFVerdict(True, depth)


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
