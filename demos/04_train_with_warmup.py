"""Training with the confidence warm-up schedule.

The first warm-up epochs see only extreme-confidence samples (|u| = 3),
stabilizing early updates before noisier annotations re-enter the loss.
Watch samples_used jump when the warm-up ends.
"""

import numpy as np

from glsmooth import TrainConfig, predict_proba, synthetic_noisy_generator, train

# Noisy two-cluster data: confidence level controls the label flip rate.
data = synthetic_noisy_generator(
    n=2000, d=8, noise_profile={3: 0.0, 2: 0.1, 1: 0.25, 0: 0.5}, seed=42
)
extreme = int(np.sum(np.abs(data.examples.u) == 3))
print(f"{len(data.examples)} examples, {extreme} with extreme confidence\n")

config = TrainConfig(
    epochs=12,
    warmup_epochs=4,
    learning_rate=0.05,
    batch_size=64,
    seed=7,
)
model, history = train(data.examples, config)

print(f"{'epoch':>5}  {'samples':>7}  {'mean loss':>9}  {'auc':>6}")
for m in history:
    marker = "  <- warm-up" if m.epoch <= config.warmup_epochs else ""
    print(f"{m.epoch:>5}  {m.samples_used:>7}  {m.mean_loss:>9.4f}  {m.auc:>6.4f}{marker}")

# Determinism: the same config reproduces the same trajectory bit for bit.
model_again, history_again = train(data.examples, config)
identical = all(
    np.array_equal(model.weights[k], model_again.weights[k]) for k in model.weights
)
print(f"\nre-run with the same seed is bitwise identical: {identical}")

# The trained model is an ordinary probability machine.
x = data.examples.X[0]
print(f"predict_proba(example 0) = {np.round(predict_proba(model, x[None])[0], 4).tolist()}")
