"""Worked-example corpus: loading and replay.

Each case is a ``<name>.cpi`` source next to a ``<name>.expect.json``
manifest.  The manifest fixes the parse mode and a list of checks::

    {"mode": "cpi" | "pi",
     "checks": [
       {"kind": "cpi_valid", "ok": bool},
       {"kind": "nonforward", "depth": int, "result": str},
       {"kind": "bisim", "other": "relative/path.cpi", "depth": int,
        "result": str},
       {"kind": "tau_states", "budget": int, "count": int},
       {"kind": "tau_contains", "budget": int, "state": str},
       {"kind": "encode_verify", "tau": int, "depth": int, "ok": bool}
     ]}

Replaying a check returns ``(ok, detail)`` so callers can report every
mismatch rather than stopping at the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .bisim import check
from .encoding import check_completeness
from .lts import tau_reachable
from .nonforward import check_nonforwarding
from .parser import CPI, PI, parse
from .syntax import CpiViolation, Process, alpha_equivalent, validate_cpi


@dataclass(frozen=True)
class CorpusCase:
    section: str
    name: str
    path: Path
    mode: str
    checks: tuple[dict, ...]

    @property
    def label(self) -> str:
        return f"{self.section}/{self.name}"


def load_corpus(root: Path) -> list[CorpusCase]:
    cases = []
    for source in sorted(root.glob("*/*.cpi")):
        manifest = source.parent / (source.stem + ".expect.json")
        expected = json.loads(manifest.read_text())
        cases.append(CorpusCase(
            section=source.parent.name,
            name=source.stem,
            path=source,
            mode=expected.get("mode", CPI),
            checks=tuple(expected["checks"]),
        ))
    return cases


def _load_process(path: Path, mode: str) -> Process:
    return parse(path.read_text(), mode=mode)


def run_check(case: CorpusCase, chk: dict) -> tuple[bool, str]:
    """Replay one manifest check; returns pass/fail and a description."""
    kind = chk["kind"]
    if kind == "cpi_valid":
        try:
            p = _load_process(case.path, CPI)
            ok = validate_cpi(p).ok
        except CpiViolation:
            ok = False
        return ok == chk["ok"], f"cpi_valid={ok} expected {chk['ok']}"

    p = _load_process(case.path, case.mode)
    if kind == "nonforward":
        v = check_nonforwarding(p, chk["depth"])
        return v.result == chk["result"], f"nonforward={v.result} expected {chk['result']}"
    if kind == "bisim":
        other = _load_process(case.path.parent / chk["other"], case.mode)
        v = check(p, other, chk["depth"])
        return v.result == chk["result"], f"bisim={v.result} expected {chk['result']}"
    if kind == "tau_states":
        r = tau_reachable(p, chk["budget"])
        return len(r.states) == chk["count"], (
            f"tau states={len(r.states)} expected {chk['count']}")
    if kind == "tau_contains":
        want = parse(chk["state"], mode=PI, allow_reserved=True)
        r = tau_reachable(p, chk["budget"])
        ok = any(alpha_equivalent(s, want) for s in r.states)
        return ok, f"tau_contains({chk['state']!r})={ok}"
    if kind == "encode_verify":
        rep = check_completeness(p, tau_budget=chk["tau"], depth=chk["depth"])
        return rep.ok == chk["ok"], f"encode_verify={rep.ok} expected {chk['ok']}"
    return False, f"unknown check kind {kind!r}"


def run_case(case: CorpusCase) -> list[tuple[bool, str]]:
    return [run_check(case, chk) for chk in case.checks]
