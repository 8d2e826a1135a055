"""Taint determinism analysis (repro.verify.flow.taint).

Three claims under test: the dataflow pass catches laundering the
per-statement linter cannot see (helper returns, aliases, branch
joins), it kills the linter's false positives on provably-sorted
values, and the repository tree is clean with every existing
suppression load-bearing.
"""

from __future__ import annotations

import textwrap

from repro.verify.flow.taint import (run_taint, stale_suppressions,
                                     taint_source)


def _codes(source: str):
    ft = taint_source(textwrap.dedent(source), "fixture.py")
    return [f.code for f in ft.findings]


# ----------------------------------------------------------------------
# Laundering the linter cannot see
# ----------------------------------------------------------------------

def test_set_laundered_through_helper_return_is_caught():
    assert _codes("""
        def helper():
            return {1, 2, 3}

        def consume(out):
            for x in helper():
                out.append(x)
    """) == ["RND10"]


def test_set_laundered_through_method_return_is_caught():
    assert _codes("""
        class Box:
            def _members(self):
                return set(self.raw)

            def drain(self, out):
                for x in self._members():
                    out.append(x)
    """) == ["RND10"]


def test_summary_fixpoint_crosses_call_chains():
    """a() returns b()'s set; b is defined *after* a, so only the
    summary fixpoint (not a single in-order pass) can see it."""
    assert _codes("""
        def a():
            return b()

        def b():
            return frozenset((1, 2))

        def consume(out):
            for x in a():
                out.append(x)
    """) == ["RND10"]


def test_alias_through_local_is_caught():
    assert _codes("""
        def consume(out):
            s = {1, 2}
            t = s
            for x in t:
                out.append(x)
    """) == ["RND10"]


def test_taint_survives_a_branch_join():
    assert _codes("""
        def consume(flag, out):
            vals = [1, 2]
            if flag:
                vals = {1, 2}
            for x in vals:
                out.append(x)
    """) == ["RND10"]


def test_set_algebra_keeps_the_taint():
    assert _codes("""
        def consume(out):
            a = {1}
            b = {2}
            for x in a | b:
                out.append(x)
    """) == ["RND10"]


def test_comprehension_and_yield_from_are_sinks():
    assert _codes("""
        def helper():
            return {1, 2}

        def squares():
            return [x * x for x in helper()]

        def stream():
            yield from helper()
    """) == ["RND10", "RND10"]


# ----------------------------------------------------------------------
# Sanitizers and deliberate non-taints
# ----------------------------------------------------------------------

def test_sorted_sanitizes_a_laundered_set():
    assert _codes("""
        def helper():
            return {1, 2, 3}

        def consume(out):
            for x in sorted(helper()):
                out.append(x)
    """) == []


def test_conversion_to_tuple_drops_the_taint():
    # Matches the linter's scoping: a converted set has a fixed (if
    # arbitrary) order per build; forcing sorted() on such sites would
    # change simulated op streams and break byte-identical baselines.
    assert _codes("""
        def consume(out):
            pair = tuple({1, 2})
            for x in pair:
                out.append(x)
    """) == []


def test_unsorted_directory_listing_is_flagged_at_the_iteration():
    ft = taint_source(textwrap.dedent("""
        import os

        def scan(d, out):
            names = os.listdir(d)
            for n in names:
                out.append(n)
    """), "fixture.py")
    (finding,) = ft.findings
    assert finding.code == "RND11"
    assert finding.location.endswith(":6")  # the for, not the listdir


def test_in_place_sort_kills_the_listing_false_positive():
    """The shape the per-statement linter flags spuriously: listdir
    followed by .sort() is provably ordered by the time it's used."""
    assert _codes("""
        import os

        def scan(d, out):
            names = os.listdir(d)
            names.sort()
            for n in names:
                out.append(n)
    """) == []


def test_sorted_wrapping_kills_the_listing_taint():
    assert _codes("""
        import os

        def scan(d, out):
            for n in sorted(os.listdir(d)):
                out.append(n)
    """) == []


# ----------------------------------------------------------------------
# At-site sources and suppressions
# ----------------------------------------------------------------------

def test_wall_clock_and_rng_flag_at_the_call_site():
    assert _codes("""
        import random
        import time

        def stamp():
            return time.time() + random.random()
    """) == ["RND12", "RND12"]


def test_exec_flags_at_the_call_site():
    assert _codes("""
        def build(src):
            exec(src)
    """) == ["RND13"]


def test_suppression_silences_and_is_recorded_as_used():
    ft = taint_source(textwrap.dedent("""
        import time

        def stamp():
            return time.time()  # repro: allow-nondet(wall clock for logs only)
    """), "fixture.py")
    assert ft.findings == []
    assert ft.used_suppressions == {5}


def test_sink_line_suppression_covers_a_laundered_iteration():
    ft = taint_source(textwrap.dedent("""
        def helper():
            return {1, 2}

        def consume(out):
            for x in helper():  # repro: allow-nondet(order-insensitive fill)
                out.append(x)
    """), "fixture.py")
    assert ft.findings == []
    assert 6 in ft.used_suppressions


# ----------------------------------------------------------------------
# Stale-suppression sweep across both passes
# ----------------------------------------------------------------------

def test_stale_sweep_spares_taint_only_suppressions(tmp_path):
    """A suppression the linter calls stale but the taint pass relies
    on is load-bearing; a suppression neither pass uses is dead."""
    (tmp_path / "launder.py").write_text(textwrap.dedent("""
        def helper():
            return {1, 2}

        def consume(out):
            for x in helper():  # repro: allow-nondet(order-insensitive)
                out.append(x)
    """))
    (tmp_path / "dead.py").write_text(textwrap.dedent("""
        def add(a, b):
            return a + b  # repro: allow-nondet(nothing here is nondet)
    """))
    stale = stale_suppressions(str(tmp_path))
    assert len(stale) == 1
    assert stale[0].endswith("dead.py:3")


# ----------------------------------------------------------------------
# The repository tree itself
# ----------------------------------------------------------------------

def test_repository_tree_is_clean():
    report = run_taint()
    assert report.clean
    assert report.passes == ["taint"]
    assert report.stats["taint.findings"] == 0
    assert report.stats["taint.files"] > 50


def test_repository_has_no_stale_suppressions():
    assert stale_suppressions() == []
