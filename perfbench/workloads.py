"""The benchmark workloads: seeded inputs, the CLI calls of one pass, and checks.

Every workload has a ``main`` and a ``side`` CLI call per pass; the runner
reports their throughput as ``main_items_per_s`` and ``side_items_per_s``.

  ingest  main: build (reports/s)     side: validate (records/s)
  train   main: train (samples/s)     side: eval (examples/s)
  sweep   main: sweep (grid cells/s)  side: gen-synthetic (examples/s)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs


@dataclass
class Call:
    """One CLI call: its argv, its role in the pass, and how to read its output.

    ``after(stdout)`` runs once the call has returned 0 and gives the number
    of items the call processed and the problems its output check found.
    """

    role: str  # "main" or "side"
    metric: str  # the subcommand's own throughput name, printed for readers
    unit: str
    argv: list[str]
    after: Callable[[str], tuple[int, list[str]]]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


# Input sizes per workload.  "full" is what a benchmark run measures; "smoke"
# runs every path in well under a second, for the benchmark's own tests.
SIZES = {
    "full": {
        "ingest": {"reports": 1000},
        "train": {"n": 20000, "heldout": 20000, "d": 10, "epochs": 5},
        "sweep": {"n": 2000, "gen_n": 10000, "d": 10, "epochs": 4},
    },
    "smoke": {
        "ingest": {"reports": 60},
        "train": {"n": 300, "heldout": 200, "d": 4, "epochs": 3},
        "sweep": {"n": 200, "gen_n": 100, "d": 4, "epochs": 3},
    },
}

BATCH_SIZE = 64
MLP = ["--arch", "mlp_1hidden", "--hidden-width", "32", "--batch-size", str(BATCH_SIZE)]


class Ingest:
    """A report corpus with planted malformed lines; ``build``, then ``validate``."""

    name = "ingest"

    def __init__(self, work: Path, seed: int, size: dict):
        self.corpus = inputs.make_corpus(size["reports"], seed)
        self.reports = work / "reports.jsonl"
        self.dataset = work / "dataset.jsonl"
        inputs.write_lines(self.reports, self.corpus.lines)

    def calls(self) -> list[Call]:
        records = len(self.corpus.truth)
        return [
            Call(
                "main",
                "build_reports_per_s",
                "reports/s",
                ["build", "--input", str(self.reports), "--out", str(self.dataset)],
                lambda out: (len(self.corpus.lines), checks.check_dataset(self.dataset, self.corpus)),
            ),
            Call(
                "side",
                "validate_records_per_s",
                "records/s",
                ["validate", "--input", str(self.dataset)],
                lambda out: (records, checks.check_validate(out, records)),
            ),
        ]

    def expected_counts(self) -> dict[str, int]:
        c = self.corpus
        return {
            "reports.compile_vocabulary.calls": c.well_formed,
            "reports.extract_findings.calls": c.well_formed,
            "reports.sentences": c.sentences,
            "reports.mentions": c.mentions,
            "reports.cue_hits": c.cue_hits,
            "dataset.records_out": len(c.truth),
            "dataset.malformed": c.malformed,
            "training.train.calls": 0,
        }


class Train:
    """One long MLP run on a large example file; ``train``, then ``eval``."""

    name = "train"

    def __init__(self, work: Path, seed: int, size: dict):
        self.size = size
        self.seed = seed
        self.data = work / "train.jsonl"
        self.heldout_path = work / "heldout.jsonl"
        self.model = work / "model.json"
        self.metrics = work / "metrics.jsonl"
        inputs.write_lines(self.data, inputs.make_examples(size["n"], size["d"], seed).lines())
        self.heldout = inputs.make_examples(size["heldout"], size["d"], seed + 1_000_003)
        inputs.write_lines(self.heldout_path, self.heldout.lines())

    def _after_train(self, out: str) -> tuple[int, list[str]]:
        problems = checks.check_train(self.model, self.metrics, self.size["epochs"])
        return sum(row["samples_used"] for row in checks.read_epochs(self.metrics)), problems

    def calls(self) -> list[Call]:
        epochs = str(self.size["epochs"])
        return [
            Call(
                "main",
                "train_samples_per_s",
                "samples/s",
                ["train", "--data", str(self.data), "--model-out", str(self.model),
                 "--metrics-out", str(self.metrics), "--epochs", epochs, "--warmup-epochs", "1",
                 "--lr-warmup-epochs", "1", "--seed", str(self.seed), *MLP],
                self._after_train,
            ),
            Call(
                "side",
                "eval_examples_per_s",
                "examples/s",
                ["eval", "--data", str(self.heldout_path), "--model", str(self.model)],
                lambda out: (
                    self.size["heldout"],
                    checks.check_eval(out, self.model, self.heldout),
                ),
            ),
        ]

    def expected_counts(self) -> dict[str, int]:
        samples = [row["samples_used"] for row in checks.read_epochs(self.metrics)]
        return {
            "training.train.calls": 1,
            "training.steps": sum(math.ceil(s / BATCH_SIZE) for s in samples),
            "reports.extract_findings.calls": 0,
            "reports.split_sentences.calls": 0,
        }


class Sweep:
    """Many small cells on a small file; ``sweep``, then ``gen-synthetic``."""

    name = "sweep"
    K = ["1/3", "5/12", "1/2", "7/12"]
    WARMUPS = [0, 1, 2, 3]

    def __init__(self, work: Path, seed: int, size: dict):
        self.size = size
        self.seed = seed
        self.data = work / "sweep.jsonl"
        self.tsv = work / "sweep.tsv"
        self.generated = work / "generated.jsonl"
        self.truth = work / "generated.truth.jsonl"
        inputs.write_lines(self.data, inputs.make_examples(size["n"], size["d"], seed).lines())

    def calls(self) -> list[Call]:
        cells = len(self.K) * len(self.WARMUPS)
        gen_n, d = self.size["gen_n"], self.size["d"]
        return [
            Call(
                "main",
                "sweep_cells_per_s",
                "cells/s",
                ["sweep", "--data", str(self.data), "--k", ",".join(self.K),
                 "--warmup", ",".join(map(str, self.WARMUPS)), "--out", str(self.tsv),
                 "--epochs", str(self.size["epochs"]), "--lr-warmup-epochs", "1",
                 "--seed", str(self.seed), *MLP],
                lambda out: (cells, checks.check_sweep(self.tsv, self.K, self.WARMUPS)),
            ),
            Call(
                "side",
                "gen_examples_per_s",
                "examples/s",
                ["gen-synthetic", "--n", str(gen_n), "--d", str(d),
                 "--profile", "3:0.02,2:0.1,1:0.25,0:0.45", "--out", str(self.generated),
                 "--truth-out", str(self.truth), "--seed", str(self.seed)],
                lambda out: (gen_n, checks.check_examples_file(self.generated, gen_n, d)),
            ),
        ]

    def expected_counts(self) -> dict[str, int]:
        return {
            "training.sweep.calls": 1,
            "training.train.calls": len(self.K) * len(self.WARMUPS),
            "reports.extract_findings.calls": 0,
            "reports.split_sentences.calls": 0,
        }


WORKLOADS = {w.name: w for w in (Ingest, Train, Sweep)}
