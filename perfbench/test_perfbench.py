"""Tests of the benchmark itself: smoke runs, checker sensitivity, metric names.

    python3 -m pytest -q perfbench
"""

import json
import math
from pathlib import Path

import pytest

import checks
import inputs
import run
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_package()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["ingest", "train", "sweep"])
def test_smoke_run_is_correct_and_emits_the_declared_metrics(name, trace):
    result, lines = run.run_workload(name, seed=7, seconds=0.0, trace=trace, size="smoke")
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 2 * (1 + run.MIN_MEASURED_PASSES)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in declared]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def traced_metrics(name, seed=3):
    result, lines = run.run_workload(name, seed=seed, seconds=0.0, trace=True, size="smoke")
    assert result["correct"], lines
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced_counts_match_the_inputs_and_repeat():
    ingest = traced_metrics("ingest")
    corpus = inputs.make_corpus(workloads.SIZES["smoke"]["ingest"]["reports"], 3)
    assert ingest["reports.compile_vocabulary.calls"] == corpus.well_formed
    assert ingest["reports.mentions"] == corpus.mentions == ingest["dataset.records_out"]
    assert ingest["dataset.malformed"] == corpus.malformed
    assert ingest["reports.matches_per_sentence"] == corpus.mentions / corpus.mention_sentences
    assert ingest["training.train.calls"] == 0
    again = traced_metrics("ingest")
    assert {k: v for k, v in again.items() if k.endswith(".calls")} == {
        k: v for k, v in ingest.items() if k.endswith(".calls")
    }

    for name in ("train", "sweep"):
        metrics = traced_metrics(name)
        assert all(
            v == 0 for k, v in metrics.items() if k.startswith("reports.") and k.endswith(".calls")
        )
        assert metrics["training.train.calls"] >= 1


def test_training_steps_equal_batches_per_epoch(tmp_path, cli):
    workload = workloads.Train(tmp_path, 5, workloads.SIZES["smoke"]["train"])
    run.Client(cli, workload).run_pass(0, traced=False, measured=False)
    samples = [row["samples_used"] for row in checks.read_epochs(workload.metrics)]
    # epoch 1 is the |u| = 3 warm-up, so it trains on fewer samples
    assert samples[0] < samples[1]
    metrics = traced_metrics("train", seed=5)
    assert metrics["training.steps"] == sum(math.ceil(s / workloads.BATCH_SIZE) for s in samples)


def rewrite(path, edit):
    lines = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join(edit(lines)) + "\n")


def test_ingest_checker_rejects_a_flipped_sign_and_a_dropped_record(tmp_path, cli):
    workload = workloads.Ingest(tmp_path, 11, workloads.SIZES["smoke"]["ingest"])
    build = workload.calls()[0]
    assert cli.main(build.argv) == 0
    assert checks.check_dataset(workload.dataset, workload.corpus) == []
    good = workload.dataset.read_text()

    def flip_first_u(lines):
        rec = json.loads(lines[0])
        assert rec["u"] != 0
        rec["u"] = -rec["u"]
        return [json.dumps(rec)] + lines[1:]

    rewrite(workload.dataset, flip_first_u)
    problems = checks.check_dataset(workload.dataset, workload.corpus)
    assert len(problems) == 1 and "planted" in problems[0]

    workload.dataset.write_text(good)
    rewrite(workload.dataset, lambda lines: lines[:-1])
    problems = checks.check_dataset(workload.dataset, workload.corpus)
    assert len(problems) == 1 and "missing record" in problems[0]


def test_eval_and_sweep_checkers_reject_wrong_outputs(tmp_path, cli):
    train = workloads.Train(tmp_path, 2, workloads.SIZES["smoke"]["train"])
    run.Client(cli, train).run_pass(0, traced=False, measured=False)
    auc = checks.model_auc(train.model, train.heldout)
    assert checks.check_eval(f"auc {auc:.6f}\n", train.model, train.heldout) == []
    assert checks.check_eval(f"auc {auc + 2e-6:.6f}\n", train.model, train.heldout) != []

    sweep = workloads.Sweep(tmp_path, 2, workloads.SIZES["smoke"]["sweep"])
    run.Client(cli, sweep).run_pass(0, traced=False, measured=False)
    assert checks.check_sweep(sweep.tsv, sweep.K, sweep.WARMUPS) == []
    rewrite(sweep.tsv, lambda lines: lines[:-1])
    assert checks.check_sweep(sweep.tsv, sweep.K, sweep.WARMUPS) != []


def test_generators_are_deterministic_per_seed():
    assert inputs.make_corpus(50, 4).lines == inputs.make_corpus(50, 4).lines
    assert inputs.make_corpus(50, 4).lines != inputs.make_corpus(50, 5).lines
    assert inputs.make_examples(30, 3, 4).lines() == inputs.make_examples(30, 3, 4).lines()


def test_benchmark_json_declares_every_metric_once():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in BENCHMARK[section]]
    assert len(names) == len(set(names))
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
