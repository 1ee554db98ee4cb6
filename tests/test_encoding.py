"""Forwarding-free translation: structure, validity, homomorphism,
name invariance, reduction completeness."""

import gc
import hashlib
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rough_terms import RESERVED_RECEIVED, RESERVED_RESTRICTED, rough_process
from cpi.bisim import check
from cpi.encoding import (
    CompletenessReport, EncodingReport, SourceModeError, check_completeness,
    encode, encode_with_handlers, handler, renaming_policy, source_reductions,
)
from cpi.gen import random_pi_process
from cpi.lts import Engine, tau_levels
from cpi.parser import PI, parse, render
from cpi.syntax import (
    Match, Name, Par, Prefixed, Receive, Repl, ReservedNameError, Restrict,
    Send, alpha_equivalent, bound_names, canonicalize, chan, free_names,
    prefix_chain, substitute, validate_cpi, var, wrap_matches,
)

ENCODING_CORPUS = sorted(
    (Path(__file__).resolve().parent.parent / "corpus" / "encoding")
    .glob("*.cpi"))
REPLICATED_CONTINUATION = "new a,b in (a!<b>.0 | a?(x).!x!<a>.0)"


def test_renaming_policy():
    t = renaming_policy(chan("a"))
    assert t.n_name.ident == "#n_a" and t.m_name.ident == "#m_a"
    assert t.n_name.is_channel
    tv = renaming_policy(var("x"))
    assert tv.n_name.is_variable
    with pytest.raises(ReservedNameError):
        renaming_policy(chan("#0"))


def test_handler_is_confidential():
    h = handler(chan("k"))
    assert validate_cpi(h).ok


def test_encode_output_shape():
    e = encode(parse("a!<b>.0", mode=PI))
    assert isinstance(e, Restrict) and len(e.channels) == 2
    assert render(e) == ("new #e0,#e1 in "
                        "#n_a!<#e0>.#m_b!<#e0,#e1>.#e1?(#y2).#y2!<#e0>.0")


def test_encode_input_shape():
    e = encode(parse("a?(x).0", mode=PI))
    assert isinstance(e, Prefixed)
    recv = e.prefix
    # binders: x, its attached reveal/broker pair, the continuation channel
    assert len(recv.binders) == 4
    x = recv.binders[0]
    assert recv.binders[1].ident == f"#n_{x.ident}"
    assert recv.binders[2].ident == f"#m_{x.ident}"


def test_encode_is_homomorphic():
    rng = random.Random(31)
    for _ in range(30):
        p = random_pi_process(rng, 6, repl_weight=0.1)
        q = random_pi_process(rng, 6, repl_weight=0.1)
        lhs = canonicalize(encode(Par(p, q)))
        rhs = canonicalize(Par(encode(p), encode(q)))
        assert lhs == rhs


def test_encoded_terms_are_confidential():
    rng = random.Random(32)
    for _ in range(50):
        p = random_pi_process(rng, 8, repl_weight=0.1)
        rep = validate_cpi(encode(p))
        assert rep.ok, (render(p), rep.to_json())


def test_encode_forwarding_source():
    src = parse("a?(x).b!<x>.0", mode=PI)
    assert not validate_cpi(src).ok
    assert validate_cpi(encode(src)).ok


def test_name_invariance():
    # translating a substituted source equals substituting the
    # translation along the attached-name policy
    src = parse("a?(x).0 | c!<b>.0", mode=PI)
    k, c = chan("k"), chan("c")
    tk, tc = renaming_policy(k), renaming_policy(c)
    lhs = encode(substitute(src, {c: k}))
    rhs = substitute(encode(src), {c: k, tc.n_name: tk.n_name,
                                   tc.m_name: tk.m_name})
    assert alpha_equivalent(lhs, rhs)


def test_encode_restriction_installs_handler():
    e = encode(parse("new k in k!<k>.0", mode=PI))
    assert isinstance(e, Restrict) and len(e.channels) == 3
    assert isinstance(e.body, Par)


def test_encode_with_handlers_free_names():
    p = parse("a!<b>.0", mode=PI)
    e = encode_with_handlers(p)
    assert isinstance(e, Par)
    # one handler per free channel, none for a closed term
    closed = parse("new a,b in (a!<b>.0 | a?(x).0)", mode=PI)
    assert not isinstance(encode_with_handlers(closed), Par)


def test_encode_rejects_polyadic():
    with pytest.raises(SourceModeError):
        encode(parse("a!<b,c>.0", mode=PI))
    with pytest.raises(SourceModeError):
        encode(parse("a?(x,y).0", mode=PI))


def test_encode_rejects_free_reserved():
    with pytest.raises(SourceModeError):
        encode(parse("#q!<a>.0", mode=PI, allow_reserved=True))


def test_source_reductions_need_closed_terms():
    with pytest.raises(SourceModeError):
        source_reductions(parse("a!<b>.0 | a?(x).0", mode=PI))
    reds = source_reductions(parse("new a,b in (a!<b>.0 | a?(x).0)", mode=PI))
    assert len(reds) == 1


def test_completeness_plain_comm_six_steps():
    rep = check_completeness(parse("new a,b in (a!<b>.0 | a?(x).0)", mode=PI),
                             tau_budget=12, depth=4)
    assert rep.ok
    (r,) = rep.results
    assert r.tau_steps == 6  # the synchronization protocol takes 6 steps
    assert r.witness is not None and r.verdict.bisimilar


def test_completeness_budget_too_small():
    rep = check_completeness(parse("new a,b in (a!<b>.0 | a?(x).0)", mode=PI),
                             tau_budget=3, depth=4)
    assert not rep.ok
    (r,) = rep.results
    assert r.found is False and r.tau_steps is None


def test_completeness_report_json():
    rep = check_completeness(parse("new k in (k!<k>.0 | k?(x).0)", mode=PI),
                             tau_budget=8, depth=3)
    j = rep.to_json()
    assert j["ok"] and j["reducts"][0]["tau_steps"] == 6


def _reference_completeness(p, tau_budget, depth):
    """check_completeness rebuilt from the public closure and game, with
    a fresh engine for the closure and for every game."""
    p = canonicalize(p)
    pending = {q: encode_with_handlers(q) for q in source_reductions(p)}
    results = {}
    levels = tau_levels(encode_with_handlers(p), tau_budget)
    for steps, level in enumerate(levels):
        if not pending:
            break
        for state in level:
            for q, enc_q in list(pending.items()):
                v = check(state, enc_q, depth)
                if v.bisimilar:
                    results[q] = EncodingReport(p, q, True, steps, state, v)
                    del pending[q]
    for q in pending:
        results[q] = EncodingReport(p, q, False, None, None, None)
    ordered = tuple(results[q] for q in sorted(results, key=render))
    return CompletenessReport(p, tau_budget, depth, ordered)


def _completeness_sources():
    """The encoding corpus, one source with a replicated continuation,
    and seeded closed sources ``new a,b,c,d in (a!<b>.C1 | a?(x).C2)``."""
    sources = [parse(f.read_text(), mode=PI) for f in ENCODING_CORPUS]
    sources.append(parse(REPLICATED_CONTINUATION, mode=PI))
    rng = random.Random(4242)
    pool = tuple(chan(c) for c in "abcd")
    a, b, x = pool[0], pool[1], var("x")
    for _ in range(20):
        c1 = random_pi_process(rng, rng.randint(1, 3), repl_weight=0.0)
        c2 = random_pi_process(rng, rng.randint(1, 3), free_variables=(x,),
                               repl_weight=0.0)
        sources.append(Restrict(pool, Par(Prefixed(Send(a, (b,)), c1),
                                          Prefixed(Receive(a, (x,)), c2))))
    return sources


@pytest.mark.parametrize("depth", [4, 7])
def test_completeness_shared_engine_matches_fresh_engines(depth):
    sources = _completeness_sources()
    assert len(ENCODING_CORPUS) == 6
    for p in sources:
        want = _reference_completeness(p, 12, depth).to_json()
        assert check_completeness(p, 12, depth).to_json() == want, render(p)


def test_completeness_independent_of_history():
    # the reports are the same in a fresh process as after other checks
    texts = [f.read_text() for f in ENCODING_CORPUS]
    script = ("import json, sys; from cpi.encoding import check_completeness;"
              " from cpi.parser import PI, parse; print(json.dumps("
              "[check_completeness(parse(t, mode=PI), 12, 4).to_json()"
              " for t in json.load(sys.stdin)]))")
    fresh = subprocess.run([sys.executable, "-c", script], check=True,
                           input=json.dumps(texts), capture_output=True,
                           text=True).stdout
    check_completeness(parse(REPLICATED_CONTINUATION, mode=PI), 12, 4)
    here = [check_completeness(parse(t, mode=PI), 12, 4).to_json()
            for t in texts]
    assert here == json.loads(fresh)


def test_tau_levels_render_no_state(renders):
    # a level is in the order it is found, so the closure prints nothing
    for f in ENCODING_CORPUS:
        enc = encode_with_handlers(parse(f.read_text(), mode=PI))
        assert renders(lambda: list(tau_levels(enc, 12))) == 0, f.name


def test_tau_level_order_is_a_function_of_the_alpha_class():
    # each level is in the same order for a translation, for an
    # alpha-variant of it (its binders renamed, each 'new k,n,m' split
    # into single restrictions), and on an engine that derived other
    # states first
    warm = Engine()
    list(tau_levels(encode_with_handlers(parse(REPLICATED_CONTINUATION,
                                               mode=PI)), 12, warm))
    wide = 0
    for f in ENCODING_CORPUS:
        enc = encode_with_handlers(parse(f.read_text(), mode=PI))
        variant = _rename_reserved_binders(canonicalize(enc))
        assert render(variant) != render(enc), f.name
        levels = list(tau_levels(enc, 12))
        assert list(tau_levels(variant, 12)) == levels, f.name
        assert list(tau_levels(enc, 12, warm)) == levels, f.name
        wide += sum(len(level) > 1 for level in levels)
    assert wide >= 10, wide


# ---------------------------------------------------------------------------
# Renaming reserved binders during the translation


def _rename_reserved_binders(p):
    """``p`` with its reserved binders renamed, in preorder, to the first
    ``srcN`` identifiers that occur nowhere in ``p``."""
    taken = {n.ident for n in free_names(p) | bound_names(p)}
    supply = (f"src{i}" for i in itertools.count() if f"src{i}" not in taken)

    def rebind(binders, env):
        env = dict(env)
        for b in binders:
            if b.is_reserved:
                env[b] = Name(b.kind, next(supply))
        return tuple(env.get(b, b) for b in binders), env

    def prefix(pre, env):
        if isinstance(pre, Match):
            inner, inner_env = prefix(pre.inner, env)
            return Match(env.get(pre.lhs, pre.lhs), env.get(pre.rhs, pre.rhs),
                         inner), inner_env
        subject = env.get(pre.subject, pre.subject)
        if isinstance(pre, Send):
            return Send(subject, tuple(env.get(o, o) for o in pre.objects)), env
        binders, env = rebind(pre.binders, env)
        return Receive(subject, binders), env

    def walk(t, env):
        if isinstance(t, Prefixed):
            pre, inner_env = prefix(t.prefix, env)
            return Prefixed(pre, walk(t.continuation, inner_env))
        if isinstance(t, Par):
            return Par(walk(t.left, env), walk(t.right, env))
        if isinstance(t, Restrict):
            channels, inner_env = rebind(t.channels, env)
            return Restrict(channels, walk(t.body, inner_env))
        if isinstance(t, Repl):
            return Repl(walk(t.body, env))
        return t

    return walk(p, {})


def _canonical_sources():
    """Sources with reserved binders: the encoding corpus, canonical
    forms, and rough terms whose reserved binders shadow each other."""
    for f in ENCODING_CORPUS:
        yield parse(f.read_text(), mode=PI)
    rng = random.Random(707)
    for i in range(600):
        size = rng.randint(1, 30)
        if i % 3 == 0:
            yield canonicalize(random_pi_process(rng, size))
        elif i % 3 == 1:
            yield canonicalize(rough_process(rng, size, polyadic=False))
        else:
            yield rough_process(rng, size, polyadic=False,
                                restricted=RESERVED_RESTRICTED,
                                received=RESERVED_RECEIVED)


def test_encode_renames_reserved_binders_as_a_renamed_copy_would():
    # the source names src0 and src1 must be skipped
    renamed = 0
    for p in _canonical_sources():
        want = render(encode(_rename_reserved_binders(p)))
        assert render(encode(p)) == want, render(p)
        renamed += "src" in want
    assert renamed >= 250


def test_encode_leaves_no_garbage():
    # one translation makes no reference cycle for the cyclic GC to free
    p = parse("new a,b in (a!<b>.[a=b]a?(x).x!<b>.0 | !a?(y).y!<a>.0)",
              mode=PI)
    gc.collect()
    gc.disable()
    try:
        e = encode(p)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert "src0" in render(e)


# The sha256 of the JSON reports of check_completeness(x, 12, d) for
# every corpus/encoding source x and d = 4, 7, each dumped with sorted
# keys and the dumps joined.  A change that alters a report on purpose
# changes the answer, and says so where it replaces the digest.
COMPLETENESS_SHA256 = (
    "e49dd1054db12ea373d809f0c18fa3b4da29b12fb147a00e26fc61bd08ec9683")


def test_completeness_reports_are_pinned():
    sources = [parse(f.read_text(), mode=PI) for f in ENCODING_CORPUS]
    dump = "".join(
        json.dumps(check_completeness(x, 12, d).to_json(), sort_keys=True)
        for d in (4, 7) for x in sources)
    assert hashlib.sha256(dump.encode()).hexdigest() == COMPLETENESS_SHA256


def _rec_encode(p):
    """encode as the recursive translation computed it, reserved binders
    renamed as they are met."""
    taken = {n.ident for n in free_names(p) | bound_names(p)}
    surface = (f"src{i}" for i in itertools.count() if f"src{i}" not in taken)
    fr = itertools.count()

    def bind(bn, env):
        if bn.is_reserved:
            env[bn] = Name(bn.kind, next(surface))
        return env.get(bn, bn)

    def enc(t, env):
        if isinstance(t, Par):
            return Par(enc(t.left, env), enc(t.right, env))
        if isinstance(t, Repl):
            return Repl(enc(t.body, env))
        if isinstance(t, Restrict):
            env = dict(env)
            ks = [bind(k, env) for k in t.channels]
            out = enc(t.body, env)
            for k in reversed(ks):
                tr = renaming_policy(k)
                out = Restrict((k, tr.n_name, tr.m_name), Par(out, handler(k)))
            return out
        if not isinstance(t, Prefixed):
            return t
        guards, core = prefix_chain(t.prefix)
        guards = [(env.get(g, g), env.get(h, h)) for g, h in guards]
        subject = env.get(core.subject, core.subject)
        if isinstance(core, Send):
            obj = core.objects[0]
            ta, tb = renaming_policy(subject), renaming_policy(env.get(obj, obj))
            e1, e2, y = chan(f"#e{next(fr)}"), chan(f"#e{next(fr)}"), var(f"#y{next(fr)}")
            return Restrict((e1, e2), Prefixed(
                wrap_matches(guards, Send(ta.n_name, (e1,))),
                Prefixed(Send(tb.m_name, (e1, e2)), Prefixed(
                    Receive(e2, (y,)), Prefixed(Send(y, (e1,)), enc(t.continuation, env))))))
        env = dict(env)
        x = bind(core.binders[0], env)
        tx = renaming_policy(x)
        xc, dummy = var(f"#w{next(fr)}"), var(f"#y{next(fr)}")
        return Prefixed(
            wrap_matches(guards, Receive(subject, (x, tx.n_name, tx.m_name, xc))),
            Prefixed(Receive(xc, (dummy,)), enc(t.continuation, env)))

    return enc(p, {})


def test_encode_agrees_with_recursive_translation():
    rng = random.Random(2121)
    sources = list(_canonical_sources())
    for _ in range(2000):
        p = random_pi_process(rng, rng.randint(1, 24), repl_weight=0.1)
        sources += (p, canonicalize(p))
    for p in sources:
        assert encode(p) is _rec_encode(p), render(p)
    assert len(sources) >= 4600
