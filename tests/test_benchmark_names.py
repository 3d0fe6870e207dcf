"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` looks up the package's public functions by name when
it is imported, and every benchmark run imports it, so renaming or moving one
of them breaks the benchmark before it measures anything.  This test runs the
same lookup.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_resolve_at_their_call_sites(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    entries = tracer.traced_functions()
    assert entries
    for name, function, sites, _ in entries:
        for namespace, attribute in sites:
            # the tracer rebinds this attribute; it must be the traced function
            assert getattr(namespace, attribute) is function, (name, attribute)
