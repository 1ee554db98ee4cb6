"""Workbench for the confidential pi-calculus.

A term language with channel/variable name sorts, a polyadic early
labeled transition system, bounded strong bisimilarity with
counterexamples, trace-based and static non-forwarding analysis, and a
compositional translation of monadic pi terms into the confidential
fragment.
"""

from .syntax import (
    CHAN, VAR, CpiError, CpiViolation, Match, NIL, Name, Nil, Par, Prefix,
    Prefixed, Process, Receive, Repl, ReservedNameError, Restrict, Send,
    SortError, SubstitutionDomainError, ValidationReport, alpha_equivalent,
    bound_names, canonicalize, chan, fnn, free_names, free_output_objects,
    par, restrict, substitute, validate_cpi, var,
)
from .parser import CPI, PI, CpiSyntaxError, parse, render
from .lts import (
    Action, BoundOutAct, InAct, NoSuchTransition, OutAct, TAU, TauAct,
    Transition, render_action, run_trace, successors, tau_reachable,
)
from .bisim import (
    ConstructionError, LawReport, Verdict, check,
    check_proposition1_instance, law_suite,
)
from .nonforward import (
    Evidence, NFVerdict, StaticGuarantee, WitnessNotCpi,
    check_nonforwarding, static_guarantee, witness_check,
)
from .encoding import (
    CompletenessReport, EncodingReport, NameTriple, SourceModeError,
    check_completeness, encode, encode_with_handlers, handler,
    renaming_policy, source_reductions,
)
from .gen import random_cpi_process, random_pi_process

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
