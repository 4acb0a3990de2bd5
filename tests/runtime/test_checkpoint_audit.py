"""The checkpoint coverage audit: every engine hot loop is budget-aware.

This closes the ROADMAP item "audit all engines for checkpoint
coverage".  The audit walks the registered engine modules' ASTs; a
failure here means a looping engine function neither calls
``runtime.checkpoint`` (directly or via a helper) nor carries a
documented exemption in ``repro.runtime.audit.EXEMPTIONS``.
"""

import ast

from repro.runtime import audit
from repro.runtime.audit import (
    ENGINE_MODULES,
    _collect,
    audit_checkpoints,
    stale_exemptions,
)


def test_engine_modules_have_no_unchecked_hot_loops():
    assert audit_checkpoints() == []


def test_exemption_list_is_not_stale():
    # Every exemption must still name a real function, so renames force
    # the documented reason to move with the code.
    assert stale_exemptions() == []


def test_engine_module_list_covers_sampling_engines():
    for module in (
        "repro.reliability.montecarlo",
        "repro.propositional.karp_luby",
        "repro.kernels.sampling",
        "repro.kernels.gray",
    ):
        assert module in ENGINE_MODULES


def test_engine_module_list_covers_the_lifted_evaluator():
    # The safe-plan walk loops over the domain at every project node.
    assert "repro.reliability.lifted" in ENGINE_MODULES


def _violations_of(source: str) -> list:
    functions = _collect("synthetic", ast.parse(source))
    compliant = {
        info.qualname.rsplit(".", 1)[-1]
        for info in functions
        if info.checkpoints
    }
    return [
        info.qualname
        for info in functions
        if info.loops and not (info.checkpoints or info.calls & compliant)
    ]


def test_audit_flags_a_loop_without_checkpoint():
    source = """
def runaway(samples):
    hits = 0
    for _ in range(samples):
        hits += 1
    return hits
"""
    assert _violations_of(source) == ["runaway"]


def test_audit_accepts_direct_and_delegated_checkpoints():
    source = """
def direct(samples):
    for _ in range(samples):
        checkpoint(samples=1)

def helper():
    checkpoint(samples=1)

def delegated(samples):
    for _ in range(samples):
        helper()
"""
    assert _violations_of(source) == []


def test_audit_separates_nested_functions():
    # A nested def's loop must not inherit the outer function's
    # checkpoint call, and vice versa.
    source = """
def outer(samples):
    checkpoint(samples=samples)

    def inner():
        for _ in range(samples):
            pass
    return inner
"""
    assert _violations_of(source) == ["outer.inner"]


def test_exemptions_carry_reasons():
    for key, reason in audit.EXEMPTIONS.items():
        assert isinstance(reason, str) and reason, key
