"""Monte Carlo decode-error sweep with bound annotations, CSV and SVG
output. A desk-scale version of the error-versus-stragglers figures."""
from pathlib import Path

import gradcoding as gc
from gradcoding.experiments import SWEEP_CSV_HEADER
from gradcoding.svgplot import Series, line_chart

out = Path("out/sweep_demo")
out.mkdir(parents=True, exist_ok=True)

A = gc.bibd_transpose_from_difference_set([0, 1, 3], 7)
grid = (0, 1, 2, 3, 4)

# one config for both schemes: they share the straggler sets, and each
# scheme draws its encoding matrix_draws times
labels = ("proposed", "baseline")
cfg = gc.SweepConfig(
    schemes=(
        gc.SweepScheme(scheme=gc.RANDOM_DIAGONAL, epsilon=0.0, matrix_draws=50),
        gc.SweepScheme(scheme=gc.BASELINE),
    ),
    m=2, grid_kind="s", grid=grid, set_draws=200, seed=0,
)
rows = []
series = []
for label, res in zip(labels, gc.sweep_error(A, cfg)):
    rows.extend(res.rows)
    series.append(Series(label, grid, tuple(res.column("mean_err"))))
    ups = res.column("upper_bound")
    if all(u is not None for u in ups):
        series.append(Series(f"{label} bound", grid, tuple(ups)))
    for r in res.rows:
        print(f"{label} s={int(r['x'])}: mean={r['mean_err']:.3f} "
              f"upper={r['upper_bound']:.3f}")

result = gc.ExperimentResult(header=list(SWEEP_CSV_HEADER), rows=rows)
result.write_csv(out / "sweep.csv")
(out / "sweep.svg").write_text(
    line_chart(series, title="fano, m=2", x_label="stragglers s", y_label="decode error")
)
print(f"\nwrote {out / 'sweep.csv'} and {out / 'sweep.svg'}")
print("same run via the CLI: gradcoding sweep --config recipes/fig3-fast.json --out out/fig3")
