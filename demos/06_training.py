"""Coded distributed gradient descent on synthetic 3-class data: the
random-diagonal scheme against the stacked baseline and exact descent."""
import gradcoding as gc

A = gc.bibd_transpose_from_difference_set([0, 1, 3], 7)
dataset = gc.DatasetSpec(samples=600, dim=10, classes=3, seed=0)

cfg = gc.TrainConfig(
    schemes=(
        gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=0.0),
        gc.SchemeSpec(scheme=gc.BASELINE),
        gc.SchemeSpec(scheme=gc.EXACT),
    ),
    m=2, q=0.25, iterations=80, repetitions=5, learning_rate=0.5,
    dataset=dataset, seed=0,
)
for result in gc.simulate_training(A, cfg):
    final = result.mean_final_loss()
    line = " ".join(f"{v:.3f}" for v in result.losses.mean(axis=0)[::20])
    print(f"{result.scheme_label:>16}: final={final:.4f}  loss@0,20,40,60,80: {line}")

print("\nfull comparison via the CLI: "
      "gradcoding train --config recipes/fig6b.json --out out/fig6b")
