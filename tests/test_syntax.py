"""Core term representation: names, substitution, canonical forms."""

import copy
import gc
import itertools
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
from cpi.lts import BoundOutAct
from cpi.parser import PI, parse, render
from cpi.syntax import (
    Match, NIL, Name, Nil, Par, Prefixed, Receive, Repl, Restrict, Send,
    SortError, SubstitutionDomainError, ValidationReport, Violation, _reindex,
    alpha_equivalent, bound_names, canonicalize, chan, fnn, free_names,
    free_output_objects, nameless, par, prefix_chain, substitute,
    validate_cpi, var, wrap_matches,
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
    # the reference renaming must agree
    rng = random.Random(7)
    for _ in range(200):
        p = random_pi_process(rng, rng.randint(1, 12), repl_weight=0.1)
        cp = canonicalize(p)
        assert canonicalize(cp) is cp and _reference_canonical(cp) is cp


# The nodes a walk may rebuild (names and indices aside), and their
# constructors' code, which classes with the same number of fields share.
_BUILT = (Match, Send, Receive, Prefixed, Par, Restrict, Repl)
_BUILDERS = {cls.__new__.__code__ for cls in _BUILT}


def test_canonical_walk_rebuilds_no_canonical_term():
    # every node of a nameless form comes back as itself from a walk that
    # replaces nothing: it calls no constructor and the intern table does
    # not grow
    built = []

    def note(frame, event, arg):
        if (event == "call" and frame.f_code in _BUILDERS
                and frame.f_locals["cls"] in _BUILT):
            built.append(frame.f_locals["cls"].__name__)

    walked = 0
    for p in itertools.islice(_canonicalize_cases(), 1500):
        n = nameless(p)
        # no collection may free a node meanwhile
        gc.disable()
        before = len(syntax._nodes)
        sys.setprofile(note)
        try:
            same = _reindex(n) is n
        finally:
            sys.setprofile(None)
            gc.enable()
        assert same and not built, (render(n), built)
        assert len(syntax._nodes) == before, render(n)
        walked += type(n) is not Nil
    assert walked >= 1000


def _nodes(t):
    """The nodes of ``t``, prefixes among them."""
    out = [t]
    if type(t) is Prefixed:
        pre = t.prefix
        while type(pre) is Match:
            out.append(pre)
            pre = pre.inner
        out += [pre, *_nodes(t.continuation)]
    elif type(t) is Par:
        out += _nodes(t.left) + _nodes(t.right)
    elif type(t) in (Restrict, Repl):
        out += _nodes(t.body)
    return out


def _built_by(walk, t):
    """What ``walk(t)`` returns, and the nodes its constructors returned."""
    built = []

    def note(frame, event, arg):
        if (event == "return" and frame.f_code in _BUILDERS
                and frame.f_locals["cls"] in _BUILT):
            built.append(arg)

    sys.setprofile(note)
    try:
        out = walk(t)
    finally:
        sys.setprofile(None)
    return out, built


def test_canonical_walk_rebuilds_what_it_renames():
    # a node is its own copy only when every part comes back unchanged:
    # each walk of canonicalize, the conversion to the nameless form and
    # its naming, builds just the nodes of its result that its input does
    # not hold; in each case one part is renamed and the others are not
    h0, h1, k0, k1 = var("#0"), var("#1"), chan("#0"), chan("#1")
    send = Send(a, (b,))

    def recv(v, cont=NIL):
        return Prefixed(Receive(c, (v,)), cont)

    cases = [
        # an unchanged prefix over a renamed continuation
        (Prefixed(send, recv(x)), Prefixed(send, recv(h0))),
        (Prefixed(Match(a, b, send), recv(x)),
         Prefixed(Match(a, b, send), recv(h0))),
        (Restrict((k0,), recv(x)), Restrict((k0,), recv(h1))),
        (Repl(recv(x)), Repl(recv(h0))),
        (Par(recv(x), NIL), Par(recv(h0), NIL)),
        (Par(NIL, recv(x)), Par(NIL, recv(h0))),
        (Par(recv(h0), recv(x)), Par(recv(h0), recv(h1))),
        # a renumbered binder over an unchanged continuation
        (recv(x), recv(h0)),
        (recv(h1), recv(h0)),
        (Restrict((a,), NIL), Restrict((k0,), NIL)),
        (Restrict((k1,), NIL), Restrict((k0,), NIL)),
        (Restrict((k1, k0), NIL), Restrict((k0,), Restrict((k1,), NIL))),
        (Restrict((k0, k1), NIL), Restrict((k0,), Restrict((k1,), NIL))),
        (Prefixed(Match(a, a, Receive(c, (x,))), NIL),
         Prefixed(Match(a, a, Receive(c, (h0,))), NIL)),
        # a renamed guard or object under an unchanged core or subject
        (recv(x, Prefixed(Match(x, a, send), NIL)),
         recv(h0, Prefixed(Match(h0, a, send), NIL))),
        (recv(x, Prefixed(Send(a, (x,)), NIL)),
         recv(h0, Prefixed(Send(a, (h0,)), NIL))),
        (recv(x, Prefixed(Send(x, (a,)), NIL)),
         recv(h0, Prefixed(Send(h0, (a,)), NIL))),
    ]
    for p, want in cases:
        n = nameless(want)
        for walk, t, out in ((lambda t: syntax._convert(t)[0], p, n),
                             (syntax._name, n, want)):
            got, built = _built_by(walk, t)
            assert got is out, render(p)
            new = {id(s) for s in _nodes(got)} - {id(s) for s in _nodes(t)}
            assert {id(s) for s in built} == new, (render(p), built)


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


def _reference_canonical(p):
    """The canonical form of ``p`` by its definition: number the binders
    in traversal order skipping the free identifiers, copying the
    environment at every binder, and nest one restriction per channel."""
    avoid = {n.ident for n in _reference_free(p)}
    numbers = (f"#{k}" for k in itertools.count() if f"#{k}" not in avoid)

    def rename(n, env):
        return env.get(n, n)

    def prefix(pre, env):
        if isinstance(pre, Match):
            inner, env2 = prefix(pre.inner, env)
            return Match(rename(pre.lhs, env), rename(pre.rhs, env), inner), env2
        s = rename(pre.subject, env)
        if isinstance(pre, Send):
            return Send(s, tuple(rename(o, env) for o in pre.objects)), env
        env2 = dict(env)
        for bn in pre.binders:
            env2[bn] = var(next(numbers))
        return Receive(s, tuple(env2[bn] for bn in pre.binders)), env2

    def walk(t, env):
        if isinstance(t, Prefixed):
            pre, env2 = prefix(t.prefix, env)
            return Prefixed(pre, walk(t.continuation, env2))
        if isinstance(t, Par):
            return Par(walk(t.left, env), walk(t.right, env))
        if isinstance(t, Restrict):
            env2 = dict(env)
            for k in t.channels:
                env2[k] = chan(next(numbers))
            out = walk(t.body, env2)
            for k in reversed(t.channels):
                out = Restrict((env2[k],), out)
            return out
        if isinstance(t, Repl):
            return Repl(walk(t.body, env))
        return t

    return walk(p, {})


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


def _source_named(c, env=None, depth=0, avoid=None):
    """The canonical ``c`` with its binders named as a script names them:
    binder ``d`` of those in scope is ``x_d`` if received and ``k_d`` if
    restricted, and a nest of restrictions is one restriction.  So
    binders in sibling components share identifiers, and no binder
    captures a name."""
    if env is None:
        env, avoid = {}, {n.ident for n in _reference_free(c)}

    def fresh(kind, d):
        ident = ("x_" if kind == "var" else "k_") + str(d)
        while ident in avoid:
            ident += "_"
        return Name(kind, ident)

    def rename(n):
        return env.get(n, n)

    if isinstance(c, Prefixed):
        guards, core = prefix_chain(c.prefix)
        guards = [(rename(a), rename(b)) for a, b in guards]
        if isinstance(core, Send):
            core = Send(rename(core.subject), tuple(map(rename, core.objects)))
            inner = env
        else:
            inner = dict(env)
            bs = tuple(fresh("var", depth + i) for i in range(len(core.binders)))
            inner.update(zip(core.binders, bs))
            core = Receive(rename(core.subject), bs)
            depth += len(bs)
        cont = _source_named(c.continuation, inner, depth, avoid)
        return Prefixed(wrap_matches(guards, core), cont)
    if isinstance(c, Par):
        return Par(_source_named(c.left, env, depth, avoid),
                   _source_named(c.right, env, depth, avoid))
    if isinstance(c, Restrict):
        ks, body = list(c.channels), c.body
        while isinstance(body, Restrict):
            ks += body.channels
            body = body.body
        inner = dict(env)
        named = tuple(fresh("chan", depth + i) for i in range(len(ks)))
        inner.update(zip(ks, named))
        return Restrict(named, _source_named(body, inner, depth + len(ks), avoid))
    if isinstance(c, Repl):
        return Repl(_source_named(c.body, env, depth, avoid))
    return c


def _canonicalize_cases():
    for f in CORPUS_SCRIPTS:
        c = parse(f.read_text(), mode=PI)
        yield _source_named(c)
        try:
            yield encode(c)
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
    # the naming of the nameless form gives what the free-name walk and a
    # renaming skipping the free identifiers give, and the same free
    # names; the cases hold free '#k' names that a numbering skipping
    # nothing would give out (collisions) and others it would not
    seen = {"walked": 0, "collides": 0, "hash_free_no_collision": 0,
            "shadowing": 0, "encoded": 0}
    for p in _canonicalize_cases():
        walked = not hasattr(p, "_canonical")
        free = _reference_free(p)
        want = _reference_canonical(p)
        got = canonicalize(p)
        assert got is want, render(p)
        assert free_names(p) == free, render(p)
        assert free_names(got) == free, render(p)
        if not walked:
            continue
        numbers = [int(n.ident[1:]) for n in free
                   if n.ident[0] == "#" and n.ident[1:].isdecimal()]
        collides = any(k < _binder_count(p) for k in numbers)
        seen["walked"] += 1
        seen["collides"] += collides
        seen["hash_free_no_collision"] += bool(numbers) and not collides
        seen["shadowing"] += _shadows(p)
        seen["encoded"] += "#n_" in render(p)
    assert seen["walked"] >= 1000 and min(seen.values()) >= 40, seen


def _parse_cases():
    """Named terms whose text the parser reads: criterion 8's random
    terms, the corpus scripts as scripts name their binders, and terms
    whose free names look like binder numbers ('#0', '#3', '#30'),
    shadowed by '#' binders or not.  A text names a variable and a
    channel alike, so no variable binder shares an identifier with a
    channel."""
    rng = random.Random(1008)
    for _ in range(1000):
        yield random_pi_process(rng, rng.randint(1, 12), repl_weight=0.1)
    for f in CORPUS_SCRIPTS:
        yield _source_named(parse(f.read_text(), mode=PI))
    rng = random.Random(1313)
    free = (chan("#0"), chan("#3"), chan("#30"), a, b)
    received = (var("#2"), var("#4"), var("src1"))
    for i in range(600):
        reserved = i % 4 // 2
        yield rough_process(
            rng, rng.randint(2, 16), channels=rng.sample(free, 2),
            restricted=(RESTRICTED, RESERVED_RESTRICTED)[reserved],
            received=(RECEIVED, received)[reserved])


def test_parse_builds_the_canonical_form(monkeypatch):
    # the parser numbers binders as it reads them: what it returns is the
    # canonical form, its free names kept, with no canonicalizing walk;
    # a free '#k' that the numbering gave out makes it read once more
    calls = {"canonicalize": 0, "_convert": 0, "_name": 0}
    for f in calls:
        def counted(*args, f=f, call=getattr(syntax, f)):
            calls[f] += 1
            return call(*args)
        monkeypatch.setattr(syntax, f, counted)
    readings = []

    class Counted(parser._Parser):
        def __init__(self, *args):
            readings[-1] += 1
            super().__init__(*args)

    monkeypatch.setattr(parser, "_Parser", Counted)
    seen = {"parsed": 0, "reserved": 0, "read_twice": 0, "sort_error": 0}
    for t in _parse_cases():
        text = render(t)
        reserved = "#" in text
        readings.append(0)
        try:
            p = parse(text, mode=PI, allow_reserved=reserved)
        except SortError:
            seen["sort_error"] += 1
            continue
        assert calls == dict.fromkeys(calls, 0), (text, calls)
        assert getattr(p, "_free", None) == _reference_free(t), text
        assert p is _reference_canonical(t), text
        seen["parsed"] += 1
        seen["reserved"] += reserved
        seen["read_twice"] += readings[-1] == 2
        assert readings[-1] == 1 or reserved, text
    assert seen["parsed"] >= 1300 and seen["reserved"] >= 200, seen
    assert seen["read_twice"] >= 40, seen


def test_nameless_form_names_back_to_the_canonical_form():
    # alpha-equivalent terms have one nameless form, and naming it gives
    # the canonical form and its text, numbered past the free '#k' names,
    # each time it is printed; the forms keep no reference cycle for the
    # cyclic GC to free
    cases = list(itertools.islice(_canonicalize_cases(), 1500))
    gc.collect()
    gc.disable()
    try:
        for p in cases:
            c = canonicalize(p)
            n = nameless(p)
            assert nameless(c) is n and nameless(n) is n, render(p)
            assert free_names(n) == free_names(c), render(p)
            text = render(c)
            assert render(n) == text and render(n) == text, render(p)
            assert canonicalize(n) is c, render(p)
        del p, c, n, cases
        assert gc.collect() == 0
    finally:
        gc.enable()


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


@pytest.mark.parametrize("build, error", [
    (lambda: Name("port", "a"), ValueError),
    (lambda: Name("chan", ""), ValueError),
    (lambda: Send(a, ()), ValueError),
    (lambda: Receive(a, ()), ValueError),
    (lambda: Receive(a, (b,)), ValueError),
    (lambda: Receive(a, (x, x)), ValueError),
    (lambda: Restrict((), NIL), ValueError),
    (lambda: Restrict((x,), NIL), ValueError),
    (lambda: BoundOutAct(a, (b,), ()), ValueError),
    (lambda: BoundOutAct(a, (b,), (c,)), ValueError),
    (lambda: BoundOutAct(a, (a, b), (a,)), ValueError),
    (lambda: Par(NIL), TypeError),
    (lambda: Match(a, b), TypeError),
    (lambda: Nil(NIL), TypeError),
], ids=["name-kind", "name-empty", "send-empty", "receive-empty",
        "receive-channel", "receive-repeat", "restrict-empty",
        "restrict-variable", "bound-out-empty", "bound-out-not-object",
        "bound-out-subject", "par-one-field", "match-two-fields",
        "nil-one-field"])
def test_bad_nodes_raise_and_are_not_interned(build, error):
    gc.collect()
    before = len(syntax._nodes)
    for _ in range(2):
        with pytest.raises(error):
            build()
    assert len(syntax._nodes) == before


# ---------------------------------------------------------------------------
# The walks against the recursive walks they replaced, kept here as the
# reference: one recursion per term shape, no memo.


def _rec_prefix_names(pre, cont, what):
    if isinstance(pre, Match):
        inner = _rec_prefix_names(pre.inner, cont, what)
        if what == "outputs" or what == "fnn" and pre.lhs == pre.rhs:
            return inner
        return inner | {pre.lhs, pre.rhs}
    if isinstance(pre, Send):
        if what == "outputs":
            return cont | {o for o in pre.objects if o.is_channel}
        return cont | {pre.subject} | set(pre.objects)
    if what == "outputs":
        return cont
    return (cont - set(pre.binders)) | {pre.subject}


def _rec_names(p, what):
    """free_names, fnn or free_output_objects as the recursive walks
    computed them."""
    if isinstance(p, Prefixed):
        return _rec_prefix_names(p.prefix, _rec_names(p.continuation, what), what)
    if isinstance(p, Par):
        return _rec_names(p.left, what) | _rec_names(p.right, what)
    if isinstance(p, Restrict):
        return _rec_names(p.body, what) - set(p.channels)
    if isinstance(p, Repl):
        return _rec_names(p.body, what)
    return frozenset()


def _rec_rebind(binders, m, domain, scope):
    m2, out, taken, avoid = dict(m), [], set(m.values()), None
    for bn in binders:
        if bn in domain:
            raise SubstitutionDomainError(f"substitution remaps binder {bn!r}")
        if bn in taken:
            if avoid is None:
                avoid = {n.ident for n in _rec_names(scope, "free") | taken}
                avoid.update(n.ident for n in binders)
            j = 0
            while f"#s{j}" in avoid:
                j += 1
            avoid.add(f"#s{j}")
            m2[bn] = Name(bn.kind, f"#s{j}")
            out.append(m2[bn])
        else:
            m2.pop(bn, None)
            out.append(bn)
    return tuple(out), m2


def _rec_subst_prefix(pre, m, domain, cont):
    if isinstance(pre, Send):
        return Send(m.get(pre.subject, pre.subject),
                    tuple(m.get(o, o) for o in pre.objects)), m
    if isinstance(pre, Receive):
        bs, m2 = _rec_rebind(pre.binders, m, domain, cont)
        return Receive(m.get(pre.subject, pre.subject), bs), m2
    inner, m2 = _rec_subst_prefix(pre.inner, m, domain, cont)
    return Match(m.get(pre.lhs, pre.lhs), m.get(pre.rhs, pre.rhs), inner), m2


def _rec_subst(p, m, domain):
    if isinstance(p, Prefixed):
        pre, m2 = _rec_subst_prefix(p.prefix, m, domain, p.continuation)
        return Prefixed(pre, _rec_subst(p.continuation, m2, domain))
    if isinstance(p, Par):
        return Par(_rec_subst(p.left, m, domain), _rec_subst(p.right, m, domain))
    if isinstance(p, Restrict):
        ks, m2 = _rec_rebind(p.channels, m, domain, p.body)
        return Restrict(ks, _rec_subst(p.body, m2, domain))
    if isinstance(p, Repl):
        return Repl(_rec_subst(p.body, m, domain))
    return p


def _walk_cases():
    """_canonicalize_cases, then 2,000 seeded pi terms with their
    canonical forms and translations."""
    yield from _canonicalize_cases()
    rng = random.Random(2020)
    for _ in range(2000):
        p = random_pi_process(rng, rng.randint(1, 24), repl_weight=0.1)
        yield p
        yield _reference_canonical(p)
        yield encode(p)


def _outcome(call, *args):
    try:
        return call(*args)
    except SubstitutionDomainError as e:
        return str(e)


def test_walks_agree_with_recursive_walks():
    rng = random.Random(77)
    checked = {"terms": 0, "renamed": 0, "domain_error": 0}
    for p in _walk_cases():
        want = {w: _rec_names(p, w) for w in ("free", "fnn", "outputs")}
        assert free_output_objects(p) == want["outputs"], render(p)
        assert fnn(p) == want["fnn"], render(p)
        assert canonicalize(p) is _reference_canonical(p), render(p)
        assert free_names(p) == want["free"], render(p)
        # a substitution into the term, whose range often meets a binder
        idents = sorted({n.ident for n in bound_names(p)} | {"a", "#s0"})
        domain = sorted(want["free"] | bound_names(p), key=repr)
        if domain:
            sigma = {n: chan(rng.choice(idents))
                     for n in rng.sample(domain, min(2, len(domain)))}
            got = _outcome(substitute, p, sigma)
            assert got == _outcome(_rec_subst, p, sigma, frozenset(sigma)), render(p)
            checked["domain_error"] += type(got) is str
            checked["renamed"] += type(got) is not str and any(
                n.ident.startswith("#s") for n in bound_names(got))
        checked["terms"] += 1
    assert checked["terms"] >= 7000 and min(checked.values()) >= 100, checked
