"""Does confidence-weighted smoothing actually help under label noise?

Head-to-head on synthetic noisy data: identical model, schedule, and seeds;
the only difference is the loss.  The cross-entropy arm treats every observed
label as gospel and memorizes the flipped ones; the smoothed arm softens
low-confidence targets (u=0 trains toward uniform) and sharpens confident
ones.  Held-out scoring uses the generator's hidden clean labels.

This is the 5-seed sketch; the acceptance suite runs the full 20-seed
protocol with a sign test (tests/test_acceptance.py, criterion 09).
"""

import numpy as np

from glsmooth import TrainConfig, auc, predict_proba, synthetic_noisy_generator, train

PROFILE = {3: 0.0, 2: 0.1, 1: 0.25, 0: 0.5}  # confidence level -> flip rate
N_SEEDS = 5

print(f"{'seed':>4}  {'GLS auc':>8}  {'CE auc':>8}  {'delta':>8}")
deltas = []
for seed in range(N_SEEDS):
    data = synthetic_noisy_generator(4000, 10, PROFILE, seed=1000 + seed)
    train_split, eval_split = data.examples[:3000], data.examples[3000:]
    clean_eval = data.true_labels[3000:]
    X_eval = eval_split.X

    common = dict(
        epochs=40,
        warmup_epochs=5,
        learning_rate=0.05,
        batch_size=64,
        seed=seed,
        architecture="mlp_1hidden",
        hidden_width=32,
    )
    gls_model, _ = train(train_split, TrainConfig(loss="gls", **common), epoch_metrics=False)
    ce_model, _ = train(train_split, TrainConfig(loss="ce", **common), epoch_metrics=False)

    gls_auc = auc(predict_proba(gls_model, X_eval)[:, 1], clean_eval)
    ce_auc = auc(predict_proba(ce_model, X_eval)[:, 1], clean_eval)
    deltas.append(gls_auc - ce_auc)
    print(f"{seed:>4}  {gls_auc:>8.4f}  {ce_auc:>8.4f}  {gls_auc - ce_auc:>+8.4f}")

print(f"\nmean improvement over {N_SEEDS} seeds: {np.mean(deltas):+.4f}")
print("the gap comes from the noisiest stratum: u=0 samples are 50% flipped,")
print("and their uniform targets stop the model from memorizing that noise.")
