"""Span tracing around calls into the package's public functions.

A traced function is rebound, in every namespace that calls it, to a wrapper
that records one span: name, start, end, parent span and operation id (one
operation is one CLI call).  Spans live in flat in-memory arrays while the
run goes and are written out once at the end.  Some wrappers also count work
from the wrapped call's arguments or result, so that ratios are measured
where the work happens.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

import glsmooth.cli
import glsmooth.dataset
import glsmooth.reports
import glsmooth.taxonomy
import glsmooth.training


def _count_sentences(counts, args, result):
    counts["reports.sentences"] += len(result)


def _count_findings(counts, args, result):
    counts["reports.mentions"] += len(result)
    counts["reports.cue_hits"] += sum(1 for f in result if f.cue is not None)
    counts["reports.mention_sentences"] += len({f.sentence_index for f in result})


def _count_written(counts, args, result):
    labeled, stats = args[0], args[1]
    counts["dataset.records_out"] += len(labeled)
    counts["dataset.malformed"] += len(stats.malformed_records)


def traced_functions():
    """(span name, original function, [(namespace, attribute) call sites], counter).

    Each call site is where a caller looks the name up, so rebinding it there
    routes every call of interest through the wrapper.
    """
    cli, ds, rp, tx, tr = (
        glsmooth.cli,
        glsmooth.dataset,
        glsmooth.reports,
        glsmooth.taxonomy.TaxonomyMap,
        glsmooth.training,
    )
    return [
        ("reports.split_sentences", rp.split_sentences, [(rp, "split_sentences")], _count_sentences),
        ("reports.compile_vocabulary", rp.compile_vocabulary, [(rp, "compile_vocabulary")], None),
        ("reports.Lexicon.matches", rp.Lexicon.matches, [(rp.Lexicon, "matches")], None),
        ("reports.score_mention", rp.score_mention, [(rp, "score_mention")], None),
        ("reports.extract_findings", rp.extract_findings, [(ds, "extract_findings")], _count_findings),
        ("taxonomy.map_diagnosis", tx.map_diagnosis, [(tx, "map_diagnosis")], None),
        ("taxonomy.vocabulary", tx.vocabulary, [(tx, "vocabulary")], None),
        ("smoothing.smoothing_rate", ds.smoothing_rate, [(ds, "smoothing_rate"), (tr, "smoothing_rate")], None),
        ("smoothing.gls_target", ds.gls_target, [(ds, "gls_target")], None),
        ("smoothing.effective_label", ds.effective_label, [(ds, "effective_label")], None),
        ("dataset.read_report_file", ds.read_report_file, [(ds, "read_report_file")], None),
        ("dataset.build_dataset", ds.build_dataset, [(ds, "build_dataset")], None),
        ("dataset.write_dataset", ds.write_dataset, [(ds, "write_dataset")], _count_written),
        ("dataset.validate_dataset", ds.validate_dataset, [(cli, "validate_dataset")], None),
        ("training.read_examples", tr.read_examples, [(cli, "read_examples")], None),
        ("training.write_examples", tr.write_examples, [(cli, "write_examples")], None),
        (
            "training.synthetic_noisy_generator",
            tr.synthetic_noisy_generator,
            [(cli, "synthetic_noisy_generator")],
            None,
        ),
        ("training.train", tr.train, [(cli, "train"), (tr, "train")], None),
        ("training.batch_loss", tr.batch_loss, [(tr, "batch_loss")], None),
        ("training.batch_targets", tr.batch_targets, [(tr, "batch_targets")], None),
        ("training.predict_proba", tr.predict_proba, [(tr, "predict_proba")], None),
        ("training.auc", tr.auc, [(tr, "auc")], None),
        ("training.evaluate", tr.evaluate, [(cli, "evaluate"), (tr, "evaluate")], None),
        ("training.sweep", tr.sweep, [(cli, "sweep")], None),
        ("training.save_model", tr.save_model, [(cli, "save_model")], None),
        ("training.load_model", tr.load_model, [(cli, "load_model")], None),
    ]


SPAN_NAMES = [name for name, _, _, _ in traced_functions()]
CLI_SUBCOMMANDS = ("build", "validate", "gen-synthetic", "train", "eval", "sweep")
COUNTERS = (
    "reports.sentences",
    "reports.mentions",
    "reports.cue_hits",
    "dataset.records_out",
    "dataset.malformed",
)


class Tracer:
    """Records spans for every traced function while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name_id = array("i")
        self.op = array("i")
        self.op_pass: list[int] = []  # operation id -> pass index
        self.counts: dict[int, defaultdict] = {}  # pass index -> counter totals
        self._stack: list[int] = []
        self._current_op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(name_id)
        self.op.append(self._current_op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, original, counter):
        name_id = self._name(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                counter(self.counts[self.op_pass[self._current_op]], args, result)
            return result

        return wrapper

    def install(self) -> None:
        for name, original, sites, counter in traced_functions():
            wrapper = self._wrap(name, original, counter)
            for owner, attr in sites:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def call(self, pass_index: int, subcommand: str, fn, *args):
        """Run one CLI call as a new operation, under a ``cli.main.<sub>`` span."""
        self._current_op = len(self.op_pass)
        self.op_pass.append(pass_index)
        self.counts.setdefault(pass_index, defaultdict(int))
        index = self._open(self._name(f"cli.main.{subcommand}"))
        try:
            return fn(*args)
        finally:
            self._close(index)

    def per_pass(self) -> dict[int, dict[str, float]]:
        """calls, self_s and total_s of every span name, per traced pass.

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        n = len(self.start)
        duration = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        passes: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            row = passes[self.op_pass[self.op[i]]]
            name = self.names[self.name_id[i]]
            row[f"{name}.calls"] += 1
            row[f"{name}.self_s"] += duration[i] - child[i]
            row[f"{name}.total_s"] += duration[i]
            parent = self.parent[i]
            if name in ("training.predict_proba", "training.auc") and parent >= 0:
                if self.names[self.name_id[parent]] == "training.train":
                    row["training.auc_pass_s"] += duration[i]
        for pass_index, counts in self.counts.items():
            passes[pass_index].update(counts)
        return passes

    def write(self, path, header: str) -> None:
        """All spans as gzip TSV: name, start, end, parent index, operation id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(header + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )


DERIVED = (
    "reports.matches_per_sentence",
    "training.steps",
    "training.steps_per_s",
    "training.auc_pass_share",
)


def measured_names() -> list[str]:
    """Per-layer metrics read straight off the spans and counters."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s", f"{span}.total_s"]
    for sub in CLI_SUBCOMMANDS:
        names += [f"cli.main.{sub}.calls", f"cli.main.{sub}.self_s"]
    return names + list(COUNTERS)


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    return measured_names() + list(DERIVED)


def layer_metrics(passes: dict[int, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one pass: counts from the first traced pass (they
    repeat exactly), times as the median over traced passes."""
    rows = [passes[k] for k in sorted(passes)]
    first = rows[0]
    out = {}
    for name in measured_names():
        if name.endswith("_s"):
            out[name] = statistics.median(row.get(name, 0.0) for row in rows)
        else:
            out[name] = int(first.get(name, 0))
    mention_sentences = first.get("reports.mention_sentences", 0)
    out["reports.matches_per_sentence"] = (
        out["reports.Lexicon.matches.calls"] / mention_sentences if mention_sentences else 0.0
    )
    out["training.steps"] = out["training.batch_loss.calls"]
    train_s = out["training.train.total_s"]
    out["training.steps_per_s"] = out["training.steps"] / train_s if train_s else 0.0
    auc_pass_s = statistics.median(row.get("training.auc_pass_s", 0.0) for row in rows)
    out["training.auc_pass_share"] = auc_pass_s / train_s if train_s else 0.0
    return out


def counts_repeat(passes: dict[int, dict[str, float]]) -> bool:
    """True when every traced pass made exactly the same calls and counts."""
    def counted(row):
        return {k: v for k, v in row.items() if k.endswith(".calls") or k in COUNTERS}

    rows = [counted(passes[k]) for k in sorted(passes)]
    return all(row == rows[0] for row in rows)
