import numpy as np
import pytest

import gradcoding as gc
from gradcoding.errors import ParameterError
from gradcoding.experiments import SWEEP_CSV_HEADER, TRAIN_CSV_HEADER


# ---------------------------------------------------------------------------
# straggler models


def test_degenerate_straggler_models(fano):
    rng = np.random.default_rng(0)
    full = gc.sample_straggler_set(gc.Bernoulli(0.0), 7, rng)
    assert full.members == tuple(range(7))
    empty = gc.sample_straggler_set(gc.FixedCount(7), 7, rng)
    assert empty.members == ()


def test_fixed_count_draws_exact_size():
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = gc.sample_straggler_set(gc.FixedCount(3), 10, rng)
        assert w.s == 3


def test_bernoulli_keeps_expected_fraction():
    rng = np.random.default_rng(2)
    sizes = [
        len(gc.sample_straggler_set(gc.Bernoulli(0.25), 54, rng).members)
        for _ in range(10_000)
    ]
    assert np.mean(sizes) == pytest.approx(40.5, abs=0.5)


def test_straggler_model_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ParameterError):
        gc.Bernoulli(1.0)
    with pytest.raises(ParameterError):
        gc.sample_straggler_set(gc.FixedCount(11), 10, rng)
    with pytest.raises(ParameterError):
        gc.sample_straggler_set("uniform", 10, rng)


# ---------------------------------------------------------------------------
# scheme specification


def test_scheme_labels():
    assert gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL).label == "random_diagonal"
    assert gc.SchemeSpec(scheme=gc.BASELINE).label == "baseline"
    assert gc.SchemeSpec(scheme=gc.NULLSPACE_HADAMARD).label == "nullspace_hadamard_ones"
    assert (
        gc.SchemeSpec(
            scheme=gc.NULLSPACE_HADAMARD, v1_policy=gc.V1_GAUSSIAN
        ).label
        == "nullspace_hadamard_gaussian"
    )
    assert (
        gc.SchemeSpec(scheme=gc.NULLSPACE_HADAMARD, constrain_pm1=True).label
        == "nullspace_hadamard_ones_pm1"
    )


def test_scheme_spec_validation():
    with pytest.raises(ParameterError):
        gc.SchemeSpec(scheme="fountain")
    assert gc.SchemeSpec(scheme=gc.EXACT).build(None, 2, 0) is None
    assert gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL).randomized
    assert not gc.SchemeSpec(scheme=gc.BASELINE).randomized


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_config_validation(fano):
    diag = gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL)
    with pytest.raises(ParameterError):
        gc.SweepConfig(fano, gc.SchemeSpec(scheme=gc.EXACT), 2, "s", (0,))
    with pytest.raises(ParameterError):
        gc.SweepConfig(fano, diag, 2, "sets", (0,))
    with pytest.raises(ParameterError):
        gc.SweepConfig(fano, diag, 2, "s", ())
    with pytest.raises(ParameterError):
        gc.SweepConfig(fano, diag, 2, "s", (8,))
    with pytest.raises(ParameterError):
        gc.SweepConfig(fano, diag, 2, "q", (1.0,))
    with pytest.raises(ParameterError):
        gc.SweepConfig(fano, diag, 2, "s", (0,), set_draws=0)


def test_sweep_repetition_rows_match_closed_form(fano):
    # the stacked-copies error is set-size-deterministic on this design, so
    # every sampled statistic collapses onto the exact formula
    cfg = gc.SweepConfig(
        assignment=fano,
        scheme=gc.SchemeSpec(scheme=gc.BASELINE),
        m=2,
        grid_kind="s",
        grid=tuple(range(8)),
        set_draws=12,
        seed=0,
    )
    result = gc.sweep_error(cfg)
    assert result.header == SWEEP_CSV_HEADER
    for row, s in zip(result.rows, range(8)):
        want = gc.baseline_bibd_error(fano.params, 2, s).value
        assert row["mean_err"] == pytest.approx(want, abs=1e-8)
        assert row["min_err"] == pytest.approx(want, abs=1e-8)
        assert row["max_err"] == pytest.approx(want, abs=1e-8)
        assert row["upper_bound"] == pytest.approx(want, abs=1e-12)
        assert row["epsilon"] is None


def test_sweep_exhaustive_matches_single_block_formula(fano):
    # m = 1 with sign diagonals: every size-5 set has one deterministic error
    cfg = gc.SweepConfig(
        assignment=fano,
        scheme=gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL),
        m=1,
        grid_kind="s",
        grid=(2,),
        set_draws="all",
        seed=0,
    )
    row = gc.sweep_error(cfg).rows[0]
    want = 7.0 - 45.0 / 7.0
    assert row["mean_err"] == pytest.approx(want, abs=1e-9)
    assert row["std_err"] == pytest.approx(0.0, abs=1e-9)
    assert row["upper_bound"] == pytest.approx(want, abs=1e-9)


def test_sweep_exhaustive_refuses_enumeration_over_the_cap():
    # v = 91 at s = 5 would enumerate comb(91, 5), about 4.9e7 sets
    A = gc.bibd_transpose_from_difference_set(gc.builtin_difference_sets()[91], 91)
    with pytest.raises(ParameterError, match="enumerate"):
        gc.SweepConfig(
            assignment=A,
            scheme=gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL),
            m=2,
            grid_kind="s",
            grid=(5,),
            set_draws="all",
        )


def test_sweep_exhaustive_requires_count_grid(fano):
    cfg = gc.SweepConfig(
        assignment=fano,
        scheme=gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL),
        m=1,
        grid_kind="q",
        grid=(0.1,),
        set_draws="all",
        seed=0,
    )
    with pytest.raises(ParameterError):
        gc.sweep_error(cfg)


def test_sweep_reproducible_and_seed_sensitive(fano):
    def run(seed):
        cfg = gc.SweepConfig(
            assignment=fano,
            scheme=gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL),
            m=2,
            grid_kind="s",
            grid=(1, 3),
            matrix_draws=2,
            set_draws=5,
            seed=seed,
        )
        return gc.sweep_error(cfg)

    a, b, c = run(0), run(0), run(1)
    assert a.column("mean_err") == b.column("mean_err")
    assert a.column("mean_err") != c.column("mean_err")


def test_sweep_attaches_per_set_bound_without_closed_form(bireg40):
    cfg = gc.SweepConfig(
        assignment=bireg40,
        scheme=gc.SchemeSpec(scheme=gc.NULLSPACE_HADAMARD),
        m=2,
        grid_kind="s",
        grid=(2,),
        set_draws=8,
        seed=0,
    )
    row = gc.sweep_error(cfg).rows[0]
    assert row["upper_bound"] is not None
    assert row["max_err"] <= row["upper_bound"] + 1e-8
    assert row["lower_bound"] == gc.lower_bound(40, 20, 3, 2, 2).value


def test_sweep_probability_grid_rows(fano):
    cfg = gc.SweepConfig(
        assignment=fano,
        scheme=gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=0.1),
        m=2,
        grid_kind="q",
        grid=(0.0, 0.3),
        set_draws=6,
        seed=0,
    )
    rows = gc.sweep_error(cfg).rows
    assert [r["x"] for r in rows] == [0.0, 0.3]
    assert all(r["upper_bound"] is None and r["lower_bound"] is None for r in rows)
    assert rows[0]["epsilon"] == 0.1


def test_experiment_result_csv_roundtrip(tmp_path, fano):
    cfg = gc.SweepConfig(
        assignment=fano,
        scheme=gc.SchemeSpec(scheme=gc.BASELINE),
        m=2,
        grid_kind="s",
        grid=(0, 1),
        set_draws=3,
        seed=0,
    )
    result = gc.sweep_error(cfg)
    path = tmp_path / "sweep.csv"
    result.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(SWEEP_CSV_HEADER)
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# unbiasedness


def test_unbiasedness_exact_recovery_regime(coset_small):
    # q = 0 with an invertible base block and a continuous law: the decode
    # is exact every trial, so the proportionality constant is exactly 1
    res = gc.estimate_unbiasedness(
        coset_small,
        gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=0.1),
        m=2,
        q=0.0,
        trials=100,
        seed=1,
    )
    assert res.beta_hat == pytest.approx(1.0, abs=1e-10)
    assert res.rel_residual <= 1e-10
    assert not res.suspicious_zero


def test_unbiasedness_family_gates(bireg40, coset_small):
    diag = gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL)
    with pytest.raises(ParameterError):
        gc.estimate_unbiasedness(bireg40, diag, 2, 0.25, 10)
    bad_coset = gc.coset_bipartite(
        gc.CosetParams(k=4, m=2, delta=2, generating_set=(0, 1))
    )
    with pytest.raises(ParameterError):
        gc.estimate_unbiasedness(bad_coset, diag, 2, 0.25, 10)
    with pytest.raises(ParameterError):
        gc.estimate_unbiasedness(
            coset_small, gc.SchemeSpec(scheme=gc.BASELINE), 2, 0.25, 10
        )
    with pytest.raises(ParameterError):
        gc.estimate_unbiasedness(coset_small, diag, 2, 0.25, 1)


def test_coset_symmetry_gate_cases(coset27, coset_small):
    assert gc.coset_supports_unbiasedness(coset27.params)
    assert gc.coset_supports_unbiasedness(coset_small.params)  # k=3 prime, 3 ∤ 2
    assert not gc.coset_supports_unbiasedness(
        gc.CosetParams(k=4, m=2, delta=2, generating_set=(0, 1))
    )
    assert not gc.coset_supports_unbiasedness(
        gc.CosetParams(k=6, m=2, delta=1, generating_set=(0,))
    )


def test_unbiasedness_reproducible(fano):
    diag = gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL)
    a = gc.estimate_unbiasedness(fano, diag, 2, 0.25, 50, seed=0)
    b = gc.estimate_unbiasedness(fano, diag, 2, 0.25, 50, seed=0)
    assert a.beta_hat == b.beta_hat
    assert a.rel_residual == b.rel_residual


# ---------------------------------------------------------------------------
# datasets and training


def test_synthetic_dataset_shape_and_balance():
    X, y = gc.make_dataset(gc.DatasetSpec(samples=600, dim=10, classes=3, seed=0))
    assert X.shape == (600, 10)
    assert set(np.unique(y)) == {0, 1, 2}
    assert np.all(np.bincount(y) == 200)
    X2, _ = gc.make_dataset(gc.DatasetSpec(samples=600, dim=10, classes=3, seed=0))
    assert np.array_equal(X, X2)


def test_dataset_from_csv(tmp_path):
    path = tmp_path / "data.csv"
    rows = np.hstack([np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 0, 1.0])[:, None]])
    np.savetxt(path, rows, delimiter=",")
    X, y = gc.make_dataset(gc.DatasetSpec(path=str(path)))
    assert X.shape == (6, 2)
    assert np.array_equal(y, [0, 1, 0, 1, 0, 1])
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.zeros((4, 1)), delimiter=",")
    with pytest.raises(ParameterError):
        gc.make_dataset(gc.DatasetSpec(path=str(bad)))


def test_uniform_predictor_loss():
    X, y = gc.make_dataset(gc.DatasetSpec(samples=90, dim=4, classes=3, seed=1))
    assert gc.logistic_loss(X, y, np.zeros((4, 3))) == pytest.approx(np.log(3.0))


def test_training_zero_learning_rate_is_flat(fano):
    cfg = gc.TrainConfig(
        assignment=fano,
        scheme=gc.SchemeSpec(scheme=gc.BASELINE),
        m=2,
        q=0.25,
        iterations=3,
        repetitions=2,
        learning_rate=0.0,
        dataset=gc.DatasetSpec(samples=70, dim=3, classes=2, seed=0),
        seed=0,
    )
    result = gc.simulate_training(cfg)
    assert result.losses.shape == (2, 4)
    for row in result.losses:
        assert np.ptp(row) == 0.0


def test_training_reproducible(fano):
    def run():
        cfg = gc.TrainConfig(
            assignment=fano,
            scheme=gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL),
            m=2,
            q=0.25,
            iterations=4,
            repetitions=2,
            dataset=gc.DatasetSpec(samples=70, dim=3, classes=2, seed=0),
            seed=3,
        )
        return gc.simulate_training(cfg)

    assert np.array_equal(run().losses, run().losses)


def test_training_exact_scheme_matches_invertible_coding(coset27):
    # q = 0 and an invertible encoding reproduce plain gradient descent
    common = dict(
        m=2,
        q=0.0,
        iterations=10,
        repetitions=1,
        dataset=gc.DatasetSpec(samples=270, dim=4, classes=3, seed=0),
        seed=0,
    )
    coded = gc.simulate_training(
        gc.TrainConfig(
            assignment=coset27,
            scheme=gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=0.1),
            **common,
        )
    )
    plain = gc.simulate_training(
        gc.TrainConfig(
            assignment=coset27, scheme=gc.SchemeSpec(scheme=gc.EXACT), **common
        )
    )
    assert np.max(np.abs(coded.losses - plain.losses)) <= 1e-6


def test_training_divergence_recorded(fano):
    # three overlapping classes: a giant step cannot separate them, so the
    # loss blows past the divergence limit instead of saturating
    cfg = gc.TrainConfig(
        assignment=fano,
        scheme=gc.SchemeSpec(scheme=gc.BASELINE),
        m=2,
        q=0.0,
        iterations=40,
        repetitions=1,
        learning_rate=1e9,
        dataset=gc.DatasetSpec(samples=90, dim=2, classes=3, seed=0),
        seed=0,
    )
    result = gc.simulate_training(cfg)
    assert result.diverged == [True]
    row = result.losses[0]
    assert np.isnan(row[-1])
    finals = result.final_losses()
    assert np.isfinite(finals[0])


def test_train_result_rows_and_csv(tmp_path, fano):
    cfg = gc.TrainConfig(
        assignment=fano,
        scheme=gc.SchemeSpec(scheme=gc.BASELINE),
        m=2,
        q=0.0,
        iterations=2,
        repetitions=2,
        dataset=gc.DatasetSpec(samples=70, dim=3, classes=2, seed=0),
        seed=0,
    )
    result = gc.simulate_training(cfg)
    rows = result.rows()
    assert len(rows) == 6  # 2 repetitions x (initial + 2 updates)
    assert rows[0]["iteration"] == 0
    path = tmp_path / "train.csv"
    result.write_csv(path)
    assert path.read_text().splitlines()[0] == ",".join(TRAIN_CSV_HEADER)


def test_train_config_validation(fano):
    with pytest.raises(ParameterError):
        gc.TrainConfig(fano, gc.SchemeSpec(scheme=gc.BASELINE), 2, 0.25, 0)
    with pytest.raises(ParameterError):
        gc.TrainConfig(fano, gc.SchemeSpec(scheme=gc.BASELINE), 2, 1.0, 5)
    small = gc.TrainConfig(
        fano,
        gc.SchemeSpec(scheme=gc.BASELINE),
        2,
        0.0,
        1,
        dataset=gc.DatasetSpec(samples=5, dim=2, classes=2, seed=0),
    )
    with pytest.raises(ParameterError):
        gc.simulate_training(small)  # fewer samples than subsets
