"""End-to-end dataset construction from raw reports.

Reports go in, per-(study, category) labeled records come out, each carrying
the ordinal score, the pre-computed smoothing rate, and the ready-to-train
soft target.  Output order and formatting are deterministic, so rebuilt
files diff clean.
"""

import json
import tempfile
from pathlib import Path

from glsmooth import default_lexicon, default_taxonomy
from glsmooth.dataset import (
    build_dataset,
    read_report_file,
    record_to_line,
    validate_dataset,
    write_dataset,
)

reports = [
    {"patient_id": "p001", "study_id": "s0001",
     "text": "Likely pneumonia. No pneumothorax."},
    {"patient_id": "p001", "study_id": "s0002",
     "text": "Pleural effusion cannot be excluded. Possible edema."},
    {"patient_id": "p002", "study_id": "s0003",
     "text": "Enlargement of the cardiac silhouette. No definite fracture."},
    # two mentions of the same category merge: the most confident wins
    {"patient_id": "p002", "study_id": "s0004",
     "text": "Possible pneumonia in the left base. Pneumonia."},
    # a malformed report is collected with its line number, not fatal
    {"study_id": "s0005", "text": "Edema."},
]

with tempfile.TemporaryDirectory() as tmp:
    # Reports arrive as JSON Lines; read_report_file checks each line once.
    src = Path(tmp) / "reports.jsonl"
    src.write_text("".join(json.dumps(report) + "\n" for report in reports))
    labeled, stats = build_dataset(read_report_file(src), default_lexicon(), default_taxonomy())

    print("labeled records (y is always 1; the signed score carries polarity):")
    for rec in labeled:
        print(f"  {record_to_line(rec)}")

    print(f"\nstats: {stats.record_count} records, "
          f"{len(stats.malformed_records)} malformed input(s)")
    print(f"  per score: { {u: c for u, c in sorted(stats.per_score_counts.items())} }")
    print(f"  malformed: {stats.malformed_records}")

    # Round-trip through disk: write, then re-check every invariant.
    out = Path(tmp) / "dataset.jsonl"
    write_dataset(labeled, stats, out)
    revalidated = validate_dataset(out)
    print(f"\nvalidate_dataset: ok, {revalidated.record_count} records re-checked")
    print(f"files written: {out.name}, {out.name}.stats.json")
