"""Determinism linter: one test per hazard class, plus suppression
semantics and a clean pass over the real source tree."""

import textwrap

from repro.verify.lint import lint_source, run_lint


def codes(source):
    return sorted({f.code for f in lint_source(textwrap.dedent(source))})


# ----------------------------------------------------------------------
# RND01 — set iteration
# ----------------------------------------------------------------------


def test_set_literal_iteration_flagged():
    assert codes("""
        for x in {1, 2, 3}:
            print(x)
    """) == ["RND01"]


def test_set_constructor_iteration_flagged():
    assert codes("""
        for x in set(items):
            print(x)
    """) == ["RND01"]


def test_set_variable_iteration_flagged():
    assert codes("""
        def f(items):
            pending = set(items)
            return [x for x in pending]
    """) == ["RND01"]


def test_set_union_iteration_flagged():
    assert codes("""
        def f(a):
            readers = {1} | set(a)
            for node in readers - {0}:
                print(node)
    """) == ["RND01"]


def test_sorted_set_iteration_clean():
    assert codes("""
        def f(items):
            pending = set(items)
            for x in sorted(pending):
                print(x)
            return [y for y in sorted({1, 2})]
    """) == []


def test_rebound_variable_not_flagged():
    assert codes("""
        def f(items):
            pending = set(items)
            pending = sorted(pending)
            for x in pending:
                print(x)
    """) == []


# ----------------------------------------------------------------------
# RND02 — wall clock / RNG
# ----------------------------------------------------------------------


def test_time_time_flagged():
    assert codes("""
        import time
        stamp = time.time()
    """) == ["RND02"]


def test_datetime_now_flagged():
    assert codes("""
        import datetime
        when = datetime.datetime.now()
    """) == ["RND02"]


def test_random_module_flagged():
    assert codes("""
        import random
        pick = random.choice(options)
    """) == ["RND02"]


def test_perf_counter_flagged():
    assert codes("""
        import time
        t0 = time.perf_counter()
    """) == ["RND02"]


def test_monotonic_flagged():
    assert codes("""
        import time
        now = time.monotonic()
        later = time.monotonic_ns()
    """) == ["RND02"]


# ----------------------------------------------------------------------
# RND03 — filesystem ordering
# ----------------------------------------------------------------------


def test_listdir_unsorted_flagged():
    assert codes("""
        import os
        names = os.listdir(path)
    """) == ["RND03"]


def test_listdir_sorted_clean():
    assert codes("""
        import os
        names = sorted(os.listdir(path))
    """) == []


def test_os_walk_unsorted_flagged():
    assert codes("""
        import os
        for root, dirs, files in os.walk(top):
            for name in files:
                print(root, name)
    """) == ["RND03"]


def test_os_walk_sorted_clean():
    assert codes("""
        import os
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                print(root, name)
    """) == []


# ----------------------------------------------------------------------
# RND04 — popitem
# ----------------------------------------------------------------------


def test_bare_popitem_flagged():
    assert codes("""
        key, value = mapping.popitem()
    """) == ["RND04"]


def test_ordereddict_fifo_popitem_clean():
    assert codes("""
        key, value = mapping.popitem(last=False)
    """) == []


# ----------------------------------------------------------------------
# RND05 — id()
# ----------------------------------------------------------------------


def test_id_keyed_ordering_flagged():
    assert codes("""
        order = sorted(objs, key=lambda o: id(o))
    """) == ["RND05"]


# ----------------------------------------------------------------------
# Suppression semantics
# ----------------------------------------------------------------------


def test_suppression_with_reason_silences_finding():
    assert codes("""
        import time
        stamp = time.time()  # repro: allow-nondet(cache aging is wall-clock)
    """) == []


def test_suppression_without_reason_is_a_finding():
    assert codes("""
        import time
        stamp = time.time()  # repro: allow-nondet()
    """) == ["RND00"]


def test_stale_suppression_is_a_finding():
    assert codes("""
        total = 1 + 1  # repro: allow-nondet(nothing nondeterministic here)
    """) == ["RND00"]


def test_suppression_only_covers_its_own_line():
    findings = lint_source(textwrap.dedent("""
        import time
        a = time.time()  # repro: allow-nondet(legit)
        b = time.time()
    """))
    assert [f.code for f in findings] == ["RND02"]
    assert findings[0].location.endswith(":4")


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------


def test_installed_package_is_lint_clean():
    report = run_lint()
    assert report.clean, report.render_text()
    assert report.stats["lint.files"] > 50


def test_fleet_suppressions_are_load_bearing():
    """Mutation check against the shipped fleet-telemetry module.

    Every ``allow-nondet`` in ``repro.obs.fleet`` must sit on a line
    the linter would otherwise flag.  Replace one real wall-clock call
    with a constant — leaving its suppression comment in place — and
    the linter must surface the now-stale suppression as RND00 rather
    than let it silently mask a future regression.
    """
    import repro.obs.fleet as fleet

    path = fleet.__file__
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()

    # the module as shipped: suppressed wall clocks, zero findings
    assert [f.code for f in lint_source(source, path)] == []
    assert "time.perf_counter()" in source

    mutated = source.replace("time.perf_counter()", "0.0", 1)
    findings = lint_source(mutated, path)
    assert "RND00" in {f.code for f in findings}
    assert any("matches no finding" in f.message for f in findings)


# ----------------------------------------------------------------------
# RND06: dynamic code
# ----------------------------------------------------------------------

def test_bare_exec_flagged():
    findings = lint_source("exec(compile(src, '<x>', 'exec'))\n")
    assert [f.code for f in findings] == ["RND06"]


def test_bare_eval_flagged():
    findings = lint_source("value = eval(text)\n")
    assert [f.code for f in findings] == ["RND06"]
