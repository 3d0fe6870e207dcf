"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` looks up the package's public functions by name when
it is imported, and every benchmark run imports it, so renaming or moving one
of them breaks the benchmark before it measures anything.  This test runs the
same lookup.  The benchmark's own tests also pin how often the parser calls
some of them; the last test checks those counts on one report.
"""

from collections import Counter
from pathlib import Path

from glsmooth.reports import default_lexicon, extract_findings
from glsmooth.taxonomy import default_taxonomy

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


def test_parser_calls_per_mention_and_per_report(monkeypatch):
    # perfbench derives reports.matches_per_sentence from one Lexicon.matches
    # call per mention, and expects one compile_vocabulary call per report.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    counted = ("reports.Lexicon.matches", "reports.score_mention", "reports.compile_vocabulary")
    calls = Counter()
    for name, function, sites, _ in tracer.traced_functions():
        if name in counted:

            def wrapper(*args, _name=name, _function=function, **kwargs):
                calls[_name] += 1
                return _function(*args, **kwargs)

            for namespace, attribute in sites:
                monkeypatch.setattr(namespace, attribute, wrapper)

    report = "No pneumothorax or pleural effusion. Heart size is normal. Likely pneumonia."
    lexicon, vocabulary = default_lexicon(), default_taxonomy().vocabulary()
    for _ in range(2):
        findings = extract_findings(report, lexicon, vocabulary)
    assert [(f.sentence_index, f.cue) for f in findings] == [(0, "no"), (0, "no"), (2, "likely")]
    assert calls == {
        "reports.Lexicon.matches": 6,
        "reports.score_mention": 6,
        "reports.compile_vocabulary": 2,
    }
