"""Run the same CLI calls under two glsmooth source trees and report any output that differs.

    python tests/same_outputs.py SRC_A SRC_B [--rows N]

SRC_A and SRC_B are ``src`` directories (each holding ``glsmooth/``).  The
script writes one set of seeded input files, made here without glsmooth, so
both trees read the same bytes.  Then it runs each call of ``CALLS`` as
``python -m glsmooth.cli`` in a fresh subprocess, once per tree, each tree in
its own working directory.  Paths are relative, so messages name the same
files under both trees.  A call's exit code, its standard output and every
file it writes are compared, and every call must exit 0.  Exit code 0 means
nothing differed, 1 means something did (each difference is printed), 2
means bad arguments.

The calls cover training both architectures under both losses with a
warm-up, writing models and metrics, and once with weight decay; ``eval``;
``train`` and ``eval`` on a file of edge numbers, and on a file with a
non-ASCII line in some blocks; ``sweep`` on its own split and with
``--eval-data``; ``gen-synthetic``, once with ``--rows`` rows and once with
513, which leaves a last write block of one row; ``build`` then
``validate``; ``build`` then ``validate`` on a report file of three 256-line
blocks with malformed lines either side of the first block edge; and
``build`` with ``--lexicon`` and ``--taxonomy`` given copies of the shipped
tables.  ``--rows`` sets the rows of each example file (default 4000).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPORTS = Path(__file__).resolve().parent / "data" / "build_golden.reports.jsonl"
TABLES = Path(__file__).resolve().parent.parent / "src" / "glsmooth" / "data"
IN = "../in"

TRAIN_FLAGS = ["--epochs", "3", "--warmup-epochs", "1", "--lr-warmup-epochs", "1",
               "--batch-size", "32", "--seed", "11"]
MLP = ["--arch", "mlp_1hidden", "--hidden-width", "8"]
SWEEP_FLAGS = ["--k", "1/3,1/2", "--warmup", "0,1", "--epochs", "2", "--lr-warmup-epochs", "1",
               "--seed", "5", *MLP]


def _train(arch: list[str], loss: str, name: str) -> list[str]:
    return ["train", "--data", f"{IN}/train.jsonl", "--model-out", f"{name}.json",
            "--metrics-out", f"{name}.metrics.jsonl", "--loss", loss, *TRAIN_FLAGS, *arch]


# Each call runs in the tree's working directory, after the calls before it.
CALLS = [
    _train(["--arch", "linear"], "gls", "linear_gls"),
    _train(["--arch", "linear"], "ce", "linear_ce"),
    _train(MLP, "gls", "mlp_gls"),
    _train(MLP, "ce", "mlp_ce"),
    # The one call with weight decay, so the update's decay term is compared too.
    [*_train(MLP, "gls", "mlp_decay"), "--weight-decay", "0.01"],
    ["eval", "--data", f"{IN}/heldout.jsonl", "--model", "mlp_gls.json"],
    ["eval", "--data", f"{IN}/heldout.jsonl", "--model", "linear_ce.json"],
    ["train", "--data", f"{IN}/edge.jsonl", "--model-out", "edge.json", *TRAIN_FLAGS, *MLP],
    ["eval", "--data", f"{IN}/edge.jsonl", "--model", "edge.json"],
    ["train", "--data", f"{IN}/noted.jsonl", "--model-out", "noted.json", *TRAIN_FLAGS, *MLP],
    ["eval", "--data", f"{IN}/noted.jsonl", "--model", "noted.json"],
    ["sweep", "--data", f"{IN}/train.jsonl", "--out", "sweep_split.tsv", *SWEEP_FLAGS],
    ["sweep", "--data", f"{IN}/train.jsonl", "--eval-data", f"{IN}/heldout.jsonl",
     "--out", "sweep_eval.tsv", *SWEEP_FLAGS],
    ["gen-synthetic", "--n", "{rows}", "--d", "6", "--profile", "3:0.02,2:0.1,1:0.25,0:0.45",
     "--seed", "3", "--out", "generated.jsonl", "--truth-out", "generated.truth.jsonl"],
    # 513 rows: two full 256-row write blocks, then a block of one row.
    ["gen-synthetic", "--n", "513", "--d", "3", "--profile", "3:0.0,1:0.25,0:0.5",
     "--seed", "4", "--out", "one_row_block.jsonl", "--truth-out", "one_row_block.truth.jsonl"],
    ["build", "--input", f"{IN}/reports.jsonl", "--out", "dataset.jsonl"],
    ["validate", "--input", "dataset.jsonl"],
    ["build", "--input", f"{IN}/block_reports.jsonl", "--out", "block_dataset.jsonl"],
    ["validate", "--input", "block_dataset.jsonl"],
    ["build", "--input", f"{IN}/reports.jsonl", "--out", "dataset_tables.jsonl",
     "--lexicon", f"{IN}/lexicon.tsv", "--taxonomy", f"{IN}/taxonomy.tsv"],
]


# Feature texts that the float reprs json.dumps writes never hold: a negative
# integer zero, subnormals, a decimal that rounds to zero, decimals of more
# digits than a double keeps, integers past 2**64 and the double just below
# the float maximum.
EDGE_NUMBERS = [
    "-0", "5e-324", "-4.9406564584124654e-324", "2.2250738585072011e-308", "1e-400",
    "0.1000000000000000055511151231257827021181583404541015625",
    "-1234567890123456789012345678901234567890e-42", "9.999999999999999999999999999999999999e22",
    "18446744073709551616", "-123456789012345678901234567890", "1" + "0" * 300,
    "1.7976931348623156e308",
]
# Values that json.loads reads as the float maximum, which the block reader
# leaves to the line-by-line reader.
AT_FLOAT_MAX = ["1.7976931348623157e308", "1.7976931348623158e308", str(int(1.7976931348623157e308))]


def write_edge_examples(path: Path, rng: random.Random) -> None:
    """An example file of 600 lines in the json.dumps layout, one edge number in each.

    Every number is finite to json.loads, so every call on the file exits 0.
    Only line 590 holds a value at the float maximum, so the other blocks
    are decoded a block at a time.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(600):
            y = rng.randrange(2)
            features = [repr(rng.gauss(0.6 if y else -0.6, 1.0)) for _ in range(6)]
            features[rng.randrange(6)] = rng.choice(AT_FLOAT_MAX if i == 589 else EDGE_NUMBERS)
            u = rng.choice([-3, -2, -1, 0, 1, 2, 3, 3, 3])
            fh.write(f'{{"features": [{", ".join(features)}], "y": {y}, "u": {u}}}\n')


def write_noted_examples(path: Path, rng: random.Random) -> None:
    """An example file of 900 lines in the json.dumps layout; every 300th has a ``note`` key.

    The note, ``"é"``, is not ASCII and is not in the layout, so the blocks
    that hold lines 151, 451 and 751 are checked for UTF-8 and decoded line
    by line, and the others a block at a time.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(900):
            y = rng.randrange(2)
            features = ", ".join(repr(rng.gauss(0.6 if y else -0.6, 1.0)) for _ in range(6))
            u = rng.choice([-3, -2, -1, 0, 1, 2, 3, 3, 3])
            note = ', "note": "é"' if i % 300 == 150 else ""
            fh.write(f'{{"features": [{features}], "y": {y}, "u": {u}{note}}}\n')


def write_block_reports(path: Path) -> None:
    """A report file of 600 lines: the golden reports over and over, with renumbered study ids.

    Only the golden lines that are reports are used, so the malformed lines
    are the two planted at lines 256 and 257, a line that is not JSON and
    one missing its study id, either side of the first 256-line block edge.
    """
    reports = []
    for line in REPORTS.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and all(
            isinstance(record.get(key), str) for key in ("patient_id", "study_id", "text")
        ):
            reports.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(600):
            if i == 255:
                fh.write('{"patient_id": "p1", "study_id": \n')
            elif i == 256:
                fh.write('{"patient_id": "p1", "text": "Pneumonia."}\n')
            else:
                fh.write(json.dumps({**reports[i % len(reports)], "study_id": f"b{i}"}) + "\n")


def write_inputs(folder: Path, rows: int) -> None:
    """Four seeded example files, the golden report corpus and the shipped tables, under ``folder``.

    Lines are written as ``json.dumps`` writes them, the layout the readers
    decode a block at a time, but for one compact line in every 100, so the
    line-by-line reader runs too.  The third file holds edge numbers
    (``write_edge_examples``), the fourth a few non-ASCII lines
    (``write_noted_examples``).  A second report file spans three blocks
    (``write_block_reports``).
    """
    folder.mkdir()
    rng = random.Random(20240611)
    for name, n in (("train.jsonl", rows), ("heldout.jsonl", rows // 2)):
        with open(folder / name, "w", encoding="utf-8") as fh:
            for i in range(n):
                y = rng.randrange(2)
                sign = 1.0 if y else -1.0
                record = {
                    "features": [rng.gauss(0.6 * sign, 1.0) for _ in range(6)],
                    "y": y,
                    "u": rng.choice([-3, -2, -1, 0, 1, 2, 3, 3, 3]),
                }
                separators = (",", ":") if i % 100 == 7 else None
                fh.write(json.dumps(record, separators=separators) + "\n")
    write_edge_examples(folder / "edge.jsonl", rng)
    write_noted_examples(folder / "noted.jsonl", rng)
    shutil.copyfile(REPORTS, folder / "reports.jsonl")
    write_block_reports(folder / "block_reports.jsonl")
    for name in ("lexicon.tsv", "taxonomy.tsv"):
        shutil.copyfile(TABLES / name, folder / name)


def run_calls(src: Path, workdir: Path, rows: int) -> list[tuple[int, bytes]]:
    """(exit code, standard output) of each call, run under ``src`` in ``workdir``."""
    workdir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    results = []
    for argv in CALLS:
        argv = [arg.format(rows=rows) for arg in argv]
        done = subprocess.run([sys.executable, "-m", "glsmooth.cli", *argv],
                              cwd=workdir, env=env, capture_output=True, timeout=300)
        results.append((done.returncode, done.stdout))
    return results


def differences(a: Path, b: Path, results_a, results_b) -> list[str]:
    """Each call whose exit code or output differs, then each written file that differs.

    Every call is a valid one, so a call that fails under both trees is
    reported too: it compared an error, not outputs.
    """
    found = []
    for argv, (code_a, out_a), (code_b, out_b) in zip(CALLS, results_a, results_b):
        call = " ".join(argv)
        if code_a == code_b != 0:
            found.append(f"exit code {code_a} under both trees: {call}")
        elif code_a != code_b:
            found.append(f"exit code {code_a} != {code_b}: {call}")
        if out_a != out_b:
            found.append(f"stdout differs: {call}")
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    for name in names:
        file_a, file_b = a / name, b / name
        if not (file_a.exists() and file_b.exists()):
            found.append(f"{name}: written under one tree only")
        elif file_a.read_bytes() != file_b.read_bytes():
            found.append(f"{name}: bytes differ")
    return found


def compare(src_a: Path, src_b: Path, rows: int) -> list[str]:
    """The differences between the two trees' outputs, run side by side in a scratch folder."""
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as scratch:
        root = Path(scratch)
        write_inputs(root / "in", rows)
        dirs = (root / "a", root / "b")
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(run_calls, src, d, rows) for src, d in zip((src_a, src_b), dirs)]
            results = [run.result() for run in runs]
        return differences(*dirs, *results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--rows", type=int, default=4000)
    args = parser.parse_args(argv)
    for src in (args.src_a, args.src_b):
        if not (src / "glsmooth" / "cli.py").is_file():
            parser.error(f"no glsmooth sources under {src}")
    found = compare(args.src_a, args.src_b, args.rows)
    for line in found:
        print(line)
    print(f"{len(CALLS)} calls, {len(found)} difference(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
