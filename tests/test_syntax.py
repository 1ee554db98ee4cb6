"""Core term representation: names, substitution, canonical forms."""

import copy
import gc
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from naive_lts import naive_canon, naive_subst
from rough_terms import (
    RESERVED_RECEIVED, RESERVED_RESTRICTED, RECEIVED, RESTRICTED,
    rough_process,
)
from cpi import parser, syntax
from cpi.encoding import SourceModeError, encode
from cpi.gen import random_cpi_process, random_pi_process
from cpi.parser import PI, parse, render
from cpi.syntax import (
    Match, NIL, Name, Par, Prefixed, Receive, Repl, Restrict, Send,
    SubstitutionDomainError, ValidationReport, Violation, _Canonicalizer,
    alpha_equivalent, bound_names, canonicalize, chan, fnn, free_names,
    free_output_objects, par, prefix_chain, substitute, validate_cpi, var,
)

CORPUS_SCRIPTS = sorted(
    (Path(__file__).resolve().parent.parent / "corpus").glob("*/*.cpi"))


a, b, c = chan("a"), chan("b"), chan("c")
x, y = var("x"), var("y")


def test_name_kinds():
    assert a.is_channel and not a.is_variable
    assert x.is_variable and not x.is_channel
    assert not a.is_reserved and chan("#0").is_reserved


def test_terms_are_hash_consed():
    p = Par(Prefixed(Send(a, (b,)), NIL), Restrict((c,), Repl(NIL)))
    q = Par(Prefixed(Send(chan("a"), (chan("b"),)), NIL),
            Restrict((chan("c"),), Repl(NIL)))
    assert p is q
    assert Prefixed(Send(a, (b,)), NIL) is not Prefixed(Send(a, (c,)), NIL)
    assert chan("a") is not var("a") and chan("a") != var("a")
    assert copy.deepcopy(p) is p and pickle.loads(pickle.dumps(p)) is p
    with pytest.raises(AttributeError):
        p.left = NIL


def test_receive_binders_must_be_variables():
    with pytest.raises(ValueError):
        Receive(a, (b,))
    with pytest.raises(ValueError):
        Receive(a, (x, x))


def test_restrict_binds_channels_only():
    with pytest.raises(ValueError):
        Restrict((x,), NIL)


def test_free_names():
    p = Restrict((a,), Prefixed(Send(a, (b,)), Prefixed(Receive(c, (x,)),
                                                        Prefixed(Send(x, (b,)), NIL))))
    assert free_names(p) == {b, c}


def test_free_names_match_guard():
    p = Prefixed(Match(a, b, Send(c, (c,))), NIL)
    assert free_names(p) == {a, b, c}


def test_bound_names():
    p = Prefixed(Receive(a, (x,)), Restrict((b,), NIL))
    assert bound_names(p) == {x, b}


def _reference_bound_names(p):
    match p:
        case Prefixed(prefix=pre, continuation=cont):
            _, core = prefix_chain(pre)
            out = _reference_bound_names(cont)
            return out | set(core.binders) if isinstance(core, Receive) else out
        case Par(left=l, right=r):
            return _reference_bound_names(l) | _reference_bound_names(r)
        case Restrict(channels=ks, body=body):
            return _reference_bound_names(body) | set(ks)
        case Repl(body=body):
            return _reference_bound_names(body)
    return frozenset()


def test_bound_names_agrees_with_recursive_walk():
    for p in _canonicalize_cases():
        assert bound_names(p) == _reference_bound_names(p), render(p)
    # a chain and a '|' too deep for the recursive walk
    chain = NIL
    for i in range(5000):
        chain = Prefixed(Match(a, b, Receive(c, (var(f"x{i}"),))), chain)
    assert bound_names(Restrict((a,), chain)) == {a} | {var(f"x{i}") for i in range(5000)}
    assert bound_names(par(*[Restrict((b,), NIL)] * 5000)) == {b}


def test_free_output_objects():
    p = Par(Prefixed(Send(a, (b,)), NIL),
            Prefixed(Receive(a, (x,)), Prefixed(Send(c, (a,)), NIL)))
    assert free_output_objects(p) == {b, a}
    q = Restrict((b,), Prefixed(Send(a, (b,)), NIL))
    assert free_output_objects(q) == frozenset()


def test_fnn_drops_reflexive_guards():
    p = Prefixed(Match(a, a, Send(b, (b,))), NIL)
    assert fnn(p) == {b}
    assert free_names(p) == {a, b}
    q = Prefixed(Match(a, c, Send(b, (b,))), NIL)
    assert fnn(q) == {a, b, c}


def test_substitute_basic():
    p = Prefixed(Send(x, (b,)), NIL)
    assert substitute(p, {x: a}) == Prefixed(Send(a, (b,)), NIL)


def test_substitute_capture_avoiding():
    # [a/x] in a?(y-as-a-clash) ... here the clash is with a restricted b
    p = Restrict((b,), Prefixed(Send(x, (b,)), NIL))
    q = substitute(p, {x: b})
    # the bound b must have been renamed: the substituted subject b is free
    assert b in free_names(q)
    (fresh,) = [k for k in bound_names(q)]
    assert fresh != b


CAPTURE_CASE = (
    "from cpi.syntax import *\n"
    "a, b, c, x, z = chan('a'), chan('b'), chan('c'), var('x'), var('z')\n"
    "p = Restrict((b,), Par(Prefixed(Send(x, (b, chan('#s0'))), NIL),\n"
    "    Prefixed(Receive(a, (z,)), Restrict((c,), Prefixed(\n"
    "        Send(z, (x, b, c)), NIL)))))\n"
    "q = substitute(p, {x: b})\n"
)


def test_substitute_independent_of_history():
    # a capturing substitution gives the same term in a fresh process as
    # after other substitutions, and the same node on every call
    fresh = subprocess.run(
        [sys.executable, "-c",
         CAPTURE_CASE + "from cpi.parser import render; print(render(q))"],
        check=True, capture_output=True, text=True).stdout.strip()
    rng = random.Random(8)
    for _ in range(20):
        t = random_pi_process(rng, 6)
        substitute(t, {n: a for n in free_names(t) - bound_names(t)})
    scope: dict = {}
    exec(CAPTURE_CASE, scope)
    assert render(scope["q"]) == fresh
    assert substitute(scope["p"], {x: b}) is scope["q"]
    # the renamed binder avoids the free reserved name #s0
    assert free_names(scope["q"]) == {a, b, chan("#s0")}


def test_substitute_agrees_with_oracle():
    # capture-avoiding substitution, checked up to alpha against the
    # oracle's rename-every-binder substitution; the range includes the
    # channels the term restricts, so binders get renamed (the oracle's
    # alpha-shape compares identifiers, so the range leaves out those of
    # the term's variables)
    rng = random.Random(99)
    renamed = 0
    for _ in range(300):
        p = random_pi_process(rng, rng.randint(1, 9),
                              extra_channels=(chan("#s0"), chan("#s1")))
        names = bound_names(p) | free_names(p)
        taken = {n.ident for n in names if n.is_variable}
        pool = [chan(i) for i in sorted(
            {n.ident for n in bound_names(p) if n.is_channel} | {"a", "#s0", "#s2"})
            if i not in taken]
        domain = sorted(free_names(p) - bound_names(p), key=repr)
        sigma = {n: rng.choice(pool) for n in domain if rng.random() < 0.7}
        q = substitute(p, sigma)
        renamed += any(n.ident.startswith("#s") for n in bound_names(q))
        assert naive_canon(q) == naive_canon(naive_subst(p, sigma)), render(p)
    assert renamed >= 20


def test_substitute_rejects_binder_remap():
    p = Prefixed(Receive(a, (x,)), NIL)
    with pytest.raises(SubstitutionDomainError):
        substitute(p, {x: a})


def test_substitute_rejects_variable_values():
    with pytest.raises(SubstitutionDomainError):
        substitute(NIL, {x: y})


def test_canonicalize_alpha():
    p = Restrict((a,), Prefixed(Send(a, (a,)), NIL))
    q = Restrict((b,), Prefixed(Send(b, (b,)), NIL))
    assert canonicalize(p) == canonicalize(q)
    assert alpha_equivalent(p, q)
    assert not alpha_equivalent(p, Restrict((b,), Prefixed(Send(b, (c,)), NIL)))


def test_canonicalize_flattens_multi_restrict():
    p = Restrict((a, b), NIL)
    q = Restrict((a,), Restrict((b,), NIL))
    assert canonicalize(p) == canonicalize(q)


def test_canonical_form_is_its_own_canonical_form():
    # canonicalize records its result as canonical without recomputing;
    # a fresh renaming pass must agree
    rng = random.Random(7)
    for _ in range(200):
        p = random_pi_process(rng, rng.randint(1, 12), repl_weight=0.1)
        cp = canonicalize(p)
        assert _Canonicalizer(free_names(cp)).walk(cp, {}) is cp


def test_canonicalize_skips_free_reserved_idents():
    free_hash = chan("#0")
    p = Restrict((a,), Prefixed(Send(a, (free_hash,)), NIL))
    cp = canonicalize(p)
    assert free_hash in free_names(cp)
    assert free_hash not in bound_names(cp)


def test_validate_accepts_confidential_terms():
    p = Prefixed(Receive(a, (x,)), Prefixed(Send(x, (b,)), NIL))
    assert validate_cpi(p).ok


def test_validate_rejects_forwarded_variable():
    p = Prefixed(Receive(a, (x,)), Prefixed(Send(b, (x,)), NIL))
    rep = validate_cpi(p)
    assert not rep.ok and rep.kind_violations and not rep.sort_violations


def test_validate_rejects_arity_clash():
    p = Par(Prefixed(Send(a, (b,)), NIL), Prefixed(Send(a, (b, c)), NIL))
    rep = validate_cpi(p)
    assert not rep.ok and rep.sort_violations


def test_validate_shadowed_binders_do_not_clash():
    # the same surface binder at two arities in disjoint scopes is fine
    p = Par(Prefixed(Receive(a, (x,)), NIL),
            Prefixed(Receive(b, (var("x"), y)), NIL))
    # subjects a and b differ, binder x is bound twice at different arities
    assert validate_cpi(p).ok


def test_validate_cpi_leaves_no_garbage():
    # one validation makes no reference cycle for the cyclic GC to free
    p = Par(Prefixed(Receive(a, (x,)), Prefixed(Send(b, (x,)), NIL)),
            Restrict((c,), Prefixed(Match(a, b, Send(a, (b, c))), NIL)))
    gc.collect()
    gc.disable()
    try:
        report = validate_cpi(p)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert report.kind_violations and report.sort_violations


# ---------------------------------------------------------------------------
# validate_cpi against a walk over the canonical copy


def _reference_validate(p):
    """validate_cpi as it is defined: canonicalize ``p``, then walk the
    copy with string paths."""
    kinds, arities = [], {}

    def walk(t, path):
        if isinstance(t, Prefixed):
            pre, at = t.prefix, path + "/prefix"
            while isinstance(pre, Match):
                pre, at = pre.inner, at + "/match"
            names = pre.objects if isinstance(pre, Send) else pre.binders
            arities.setdefault(pre.subject, {}).setdefault(len(names), at)
            if isinstance(pre, Send):
                kinds.extend(Violation(at, f"send object {o.ident!r} is a variable")
                             for o in names if o.is_variable)
            walk(t.continuation, path + "/cont")
        elif isinstance(t, Par):
            walk(t.left, path + "/par.left")
            walk(t.right, path + "/par.right")
        elif isinstance(t, Restrict):
            walk(t.body, path + "/new")
        elif isinstance(t, Repl):
            walk(t.body, path + "/repl")

    walk(canonicalize(p), "")
    sorts = [Violation(min(paths.values()),
                       f"name {n.ident!r} used at arities {sorted(paths)}")
             for n, paths in sorted(arities.items(),
                                    key=lambda kv: (kv[0].kind, kv[0].ident))
             if len(paths) > 1]
    return ValidationReport(tuple(kinds), tuple(sorts))


def _validation_cases():
    for f in CORPUS_SCRIPTS:
        p = parse(f.read_text(), mode=PI)
        yield p
        try:
            yield encode(p)
        except SourceModeError:
            pass
    rng = random.Random(606)
    for i in range(600):
        size = rng.randint(1, 30)
        p = (random_pi_process(rng, size), random_cpi_process(rng, size),
             rough_process(rng, size, variables=(var("v"),)))[i % 3]
        yield p
        if i % 3 == 2:
            yield canonicalize(p)
        try:
            yield encode(p)
        except SourceModeError:
            pass
    # free names that look like canonical binders: '#0', '#3' and '#30'
    # are numbers canonicalize skips when it gets that far, '#n_a' never
    # is; a '#' binder may shadow them
    free = (chan("#0"), chan("#3"), chan("#30"), chan("#n_a"), a)
    for i in range(300):
        yield rough_process(
            rng, rng.randint(2, 20), channels=rng.sample(free, 2),
            variables=(var("#1"),) if i % 2 else (),
            restricted=(RESERVED_RESTRICTED, RESTRICTED)[i % 4 // 2])
    # a free '#0' seen in a match guard only
    k = chan("k")
    yield Restrict((k,), Par(
        Prefixed(Match(chan("#0"), a, Send(k, (a,))), NIL),
        Prefixed(Send(k, (a, a)), NIL)))


def _skips_a_number(p):
    """Whether canonicalize skipped a binder number for a free name."""
    numbers = sorted(int(n.ident[1:]) for n in bound_names(canonicalize(p)))
    return numbers != list(range(len(numbers)))


def _shadows(t, bound=frozenset()):
    """Whether a binder of ``t`` rebinds a name already bound around it."""
    if isinstance(t, Prefixed):
        _, core = prefix_chain(t.prefix)
        new = frozenset(core.binders) if isinstance(core, Receive) else frozenset()
        return bool(new & bound) or _shadows(t.continuation, bound | new)
    if isinstance(t, Restrict):
        new = frozenset(t.channels)
        return bool(new & bound) or _shadows(t.body, bound | new)
    if isinstance(t, Par):
        return _shadows(t.left, bound) or _shadows(t.right, bound)
    if isinstance(t, Repl):
        return _shadows(t.body, bound)
    return False


def test_validate_cpi_agrees_with_canonical_walk():
    # same reports, paths and canonical names included, as a walk over
    # the canonical copy; the cases hold shadowed binders, multi-channel
    # restrictions, variables sent as objects and arity clashes
    seen = {"kind": 0, "sort": 0, "shadowing": 0, "encoded": 0,
            "skipped": 0, "hash_free_kept": 0}
    for p in _validation_cases():
        report = validate_cpi(p)
        assert report == _reference_validate(p), render(p)
        seen["kind"] += bool(report.kind_violations)
        seen["sort"] += bool(report.sort_violations)
        seen["shadowing"] += _shadows(p)
        seen["encoded"] += "#n_" in render(p)
        skipped = _skips_a_number(p)
        seen["skipped"] += skipped
        seen["hash_free_kept"] += not skipped and any(
            n.ident[1:].isdecimal() for n in free_names(p))
    assert len(CORPUS_SCRIPTS) >= 15
    assert min(seen.values()) >= 40 and seen["encoded"] >= 300, seen


# ---------------------------------------------------------------------------
# canonicalize against its definition: free names first, then a renaming
# that skips them


def _reference_free(t, bound=frozenset()):
    """The names free in ``t``, by a walk of its own."""
    if isinstance(t, Prefixed):
        pre, out = t.prefix, set()
        while isinstance(pre, Match):
            out |= {pre.lhs, pre.rhs}
            pre = pre.inner
        out.add(pre.subject)
        if isinstance(pre, Send):
            out.update(pre.objects)
            inner = bound
        else:
            inner = bound | set(pre.binders)
        return (out - bound) | _reference_free(t.continuation, inner)
    if isinstance(t, Par):
        return _reference_free(t.left, bound) | _reference_free(t.right, bound)
    if isinstance(t, Restrict):
        return _reference_free(t.body, bound | set(t.channels))
    if isinstance(t, Repl):
        return _reference_free(t.body, bound)
    return set()


def _binder_count(t):
    """How many binder numbers a renaming of ``t`` gives out."""
    if isinstance(t, Prefixed):
        _, core = prefix_chain(t.prefix)
        own = len(core.binders) if isinstance(core, Receive) else 0
        return own + _binder_count(t.continuation)
    if isinstance(t, Par):
        return _binder_count(t.left) + _binder_count(t.right)
    if isinstance(t, Restrict):
        return len(t.channels) + _binder_count(t.body)
    if isinstance(t, Repl):
        return _binder_count(t.body)
    return 0


def _surface_tree(text):
    """The parser's tree for ``text``, before parse canonicalizes it."""
    return parser._Parser(text, *parser._tokenize(text, False)).parse_process({})


def _canonicalize_cases():
    for f in CORPUS_SCRIPTS:
        p = _surface_tree(f.read_text())
        yield p
        try:
            yield encode(canonicalize(p))
        except SourceModeError:
            pass
    # a free '#0' met only as a guard name, a send object or a receive's
    # subject, under binders that the numbering would call #0
    k, h0 = chan("k"), chan("#0")
    yield Restrict((k,), Prefixed(Match(h0, a, Send(k, (a,))), NIL))
    yield Restrict((k,), Prefixed(Send(k, (h0,)), NIL))
    yield Restrict((k,), Prefixed(Receive(h0, (x,)), Prefixed(Send(k, (k,)), NIL)))
    # free names that look like canonical binders ('#0', '#3', '#30' and
    # the variable '#1'), shadowed by '#' binders or not
    rng = random.Random(1212)
    free = (chan("#0"), chan("#3"), chan("#30"), a, b)
    for i in range(1200):
        reserved = i % 4 // 2
        yield rough_process(
            rng, rng.randint(2, 16), channels=rng.sample(free, 2),
            variables=(var("#1"),) if i % 2 else (),
            restricted=(RESTRICTED, RESERVED_RESTRICTED)[reserved],
            received=(RECEIVED, RESERVED_RECEIVED)[reserved])
    for _ in range(200):
        p = random_pi_process(rng, rng.randint(1, 20), repl_weight=0.1)
        yield p
        yield encode(p)


def test_canonicalize_agrees_with_two_walks():
    # one walk that notes the free names, and a second only on a '#k'
    # collision, gives what the free-name walk and a renaming skipping
    # the free identifiers give, and the same free names
    seen = {"walked": 0, "second_walk": 0, "hash_free_one_walk": 0,
            "shadowing": 0, "encoded": 0}
    for p in _canonicalize_cases():
        walked = not hasattr(p, "_canonical")
        free = _reference_free(p)
        want = _Canonicalizer(frozenset(free)).walk(p, {})
        got = canonicalize(p)
        assert got is want, render(p)
        assert free_names(p) == free, render(p)
        assert free_names(got) == free, render(p)
        if not walked:
            continue
        numbers = [int(n.ident[1:]) for n in free
                   if n.ident[0] == "#" and n.ident[1:].isdecimal()]
        second = any(k < _binder_count(p) for k in numbers)
        seen["walked"] += 1
        seen["second_walk"] += second
        seen["hash_free_one_walk"] += bool(numbers) and not second
        seen["shadowing"] += _shadows(p)
        seen["encoded"] += "#n_" in render(p)
    assert seen["walked"] >= 1000 and min(seen.values()) >= 40, seen


# ---------------------------------------------------------------------------
# The intern table


def _unique_term():
    k, x = chan("zq_k"), var("zq_x")
    return Restrict((k,), Prefixed(Receive(chan("zq_a"), (x,)),
                                   Par(Prefixed(Send(x, (k,)), NIL),
                                       Repl(Prefixed(Match(k, x, Send(k, (k,))),
                                                     NIL)))))


def _zq_names():
    return [key for key in list(syntax._nodes)
            if key[0] is Name and key[2].startswith("zq_")]


def test_dropped_terms_leave_the_intern_table():
    gc.collect()
    before = len(syntax._nodes)
    p = _unique_term()
    render(p), canonicalize(p), free_names(p)
    assert len(syntax._nodes) > before + 10 and len(_zq_names()) == 3
    del p
    gc.collect()
    assert _zq_names() == [] and len(syntax._nodes) == before


def test_rebuilt_node_outlives_the_stale_callback():
    key = (Name, "chan", "zq_r")
    n = chan("zq_r")
    stale = syntax._nodes[key]
    del n
    assert key not in syntax._nodes and stale() is None
    # as if the dead node's callback had not run yet: its entry remains
    syntax._nodes[key] = stale
    n = chan("zq_r")
    live = syntax._nodes[key]
    assert live is not stale and live() is n
    syntax._forget(stale)
    assert syntax._nodes[key] is live and chan("zq_r") is n


@pytest.mark.parametrize("build", [
    lambda: Name("port", "a"),
    lambda: Name("chan", ""),
    lambda: Send(a, ()),
    lambda: Receive(a, ()),
    lambda: Receive(a, (b,)),
    lambda: Receive(a, (x, x)),
    lambda: Restrict((), NIL),
    lambda: Restrict((x,), NIL),
], ids=["name-kind", "name-empty", "send-empty", "receive-empty",
        "receive-channel", "receive-repeat", "restrict-empty",
        "restrict-variable"])
def test_bad_nodes_raise_and_are_not_interned(build):
    gc.collect()
    before = len(syntax._nodes)
    for _ in range(2):
        with pytest.raises(ValueError):
            build()
    assert len(syntax._nodes) == before
