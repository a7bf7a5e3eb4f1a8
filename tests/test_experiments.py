import numpy as np
import pytest

import gradcoding as gc
from gradcoding import experiments
from gradcoding.errors import ParameterError
from gradcoding.experiments import SWEEP_CSV_HEADER, TRAIN_CSV_HEADER, _log_softmax


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


def test_scheme_spec_keys_belong_to_one_scheme():
    # a scheme's own keys take their defaults; the others stay unset
    keys = ("epsilon", "v1_policy", "constrain_pm1")
    got = {
        name: tuple(getattr(gc.SchemeSpec(scheme=name), key) for key in keys)
        for name in (gc.RANDOM_DIAGONAL, gc.NULLSPACE_HADAMARD, gc.BASELINE, gc.EXACT)
    }
    assert got == {
        gc.RANDOM_DIAGONAL: (0.0, None, None),
        gc.NULLSPACE_HADAMARD: (None, gc.V1_ALL_ONES, False),
        gc.BASELINE: (None, None, None),
        gc.EXACT: (None, None, None),
    }
    for name, key, value in [
        (gc.BASELINE, "epsilon", 0.5),
        (gc.EXACT, "epsilon", 0.0),
        (gc.RANDOM_DIAGONAL, "constrain_pm1", False),
        (gc.NULLSPACE_HADAMARD, "epsilon", 0.1),
        (gc.BASELINE, "v1_policy", gc.V1_GAUSSIAN),
    ]:
        with pytest.raises(gc.FieldError, match=f"^{key} belongs to "):
            gc.SchemeSpec(scheme=name, **{key: value})
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(gc.FieldError, match=r"^epsilon must lie in \[0, 1\)"):
            gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=bad)
    with pytest.raises(gc.FieldError, match="^v1_policy must be"):
        gc.SchemeSpec(scheme=gc.NULLSPACE_HADAMARD, v1_policy="sparse")


# ---------------------------------------------------------------------------
# sweeps


def _sweep_config(grid_kind="s", grid=(0,), scheme=None, **kw):
    scheme = scheme or gc.SweepScheme(scheme=gc.RANDOM_DIAGONAL)
    return gc.SweepConfig(**{"schemes": (scheme,), "m": 2, "grid_kind": grid_kind, "grid": grid, **kw})


def test_sweep_config_validation(fano):
    with pytest.raises(ParameterError):
        _sweep_config(scheme=gc.SweepScheme(scheme=gc.EXACT))
    with pytest.raises(ParameterError):
        _sweep_config(grid_kind="sets")
    with pytest.raises(ParameterError):
        _sweep_config(grid=())
    with pytest.raises(ParameterError, match="outside"):
        gc.sweep_error(fano, _sweep_config(grid=(8,)))
    with pytest.raises(ParameterError):
        _sweep_config("q", (1.0,))
    with pytest.raises(ParameterError):
        _sweep_config(set_draws=0)
    with pytest.raises(ParameterError, match="not an integer"):
        _sweep_config(grid=(2.5,))
    with pytest.raises(ParameterError, match="set_draws"):
        _sweep_config(set_draws=True)
    with pytest.raises(ParameterError, match="matrix_draws"):
        gc.SweepScheme(scheme=gc.RANDOM_DIAGONAL, matrix_draws=True)
    with pytest.raises(ParameterError, match="straggler-count grid"):
        _sweep_config("q", (0.1,), m=1, set_draws="all")
    with pytest.raises(ParameterError, match="^schemes"):
        gc.SweepConfig(schemes=(), m=2, grid_kind="s", grid=(0,))
    with pytest.raises(ParameterError, match="^m "):
        _sweep_config(m=0)
    # an integral float stays valid, and an "s" grid is stored as ints
    assert _sweep_config(grid=(2.0, 3)).grid == (2, 3)


def test_sweep_repetition_rows_match_closed_form(fano):
    # the stacked-copies error is set-size-deterministic on this design, so
    # every sampled statistic collapses onto the exact formula
    cfg = gc.SweepConfig(
        schemes=(gc.SweepScheme(scheme=gc.BASELINE),),
        m=2,
        grid_kind="s",
        grid=tuple(range(8)),
        set_draws=12,
        seed=0,
    )
    result = gc.sweep_error(fano, cfg)[0]
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
        schemes=(gc.SweepScheme(scheme=gc.RANDOM_DIAGONAL),),
        m=1,
        grid_kind="s",
        grid=(2,),
        set_draws="all",
        seed=0,
    )
    row = gc.sweep_error(fano, cfg)[0].rows[0]
    want = 7.0 - 45.0 / 7.0
    assert row["mean_err"] == pytest.approx(want, abs=1e-9)
    assert row["std_err"] == pytest.approx(0.0, abs=1e-9)
    assert row["upper_bound"] == pytest.approx(want, abs=1e-9)


def test_sweep_exhaustive_refuses_enumeration_over_the_cap():
    # v = 91 at s = 5 would enumerate comb(91, 5), about 4.9e7 sets
    A = gc.bibd_transpose_from_difference_set(gc.builtin_difference_sets()[91], 91)
    with pytest.raises(ParameterError, match="enumerate"):
        gc.sweep_error(A, _sweep_config(grid=(5,), set_draws="all"))


def test_sweep_reproducible_and_seed_sensitive(fano):
    def run(seed):
        cfg = gc.SweepConfig(
            schemes=(gc.SweepScheme(scheme=gc.RANDOM_DIAGONAL, matrix_draws=2),),
            m=2,
            grid_kind="s",
            grid=(1, 3),
            set_draws=5,
            seed=seed,
        )
        return gc.sweep_error(fano, cfg)[0]

    a, b, c = run(0), run(0), run(1)
    assert a.column("mean_err") == b.column("mean_err")
    assert a.column("mean_err") != c.column("mean_err")


def test_sweep_attaches_per_set_bound_without_closed_form(bireg40):
    cfg = gc.SweepConfig(
        schemes=(gc.SweepScheme(scheme=gc.NULLSPACE_HADAMARD),),
        m=2,
        grid_kind="s",
        grid=(2,),
        set_draws=8,
        seed=0,
    )
    row = gc.sweep_error(bireg40, cfg)[0].rows[0]
    assert row["upper_bound"] is not None
    assert row["max_err"] <= row["upper_bound"] + 1e-8
    assert row["lower_bound"] == gc.lower_bound(40, 20, 3, 2, 2).value


def test_sweep_probability_grid_rows(fano):
    cfg = gc.SweepConfig(
        schemes=(gc.SweepScheme(scheme=gc.RANDOM_DIAGONAL, epsilon=0.1),),
        m=2,
        grid_kind="q",
        grid=(0.0, 0.3),
        set_draws=6,
        seed=0,
    )
    rows = gc.sweep_error(fano, cfg)[0].rows
    assert [r["x"] for r in rows] == [0.0, 0.3]
    assert all(r["upper_bound"] is None and r["lower_bound"] is None for r in rows)
    assert rows[0]["epsilon"] == 0.1


def test_sweep_decodes_each_grid_point_in_chunks(bireg40, monkeypatch):
    # each (encoding draw, grid point) hands its sets to decode_each as
    # lists of at most DECODE_CHUNK sets of its one encoding; the chunking
    # does not change rows
    def run():
        cfg = gc.SweepConfig(
            schemes=(gc.SweepScheme(scheme=gc.NULLSPACE_HADAMARD, matrix_draws=2),),
            m=2,
            grid_kind="s",
            grid=(2, 6),
            set_draws=8,
            seed=0,
        )
        return gc.sweep_error(bireg40, cfg)[0].rows

    calls = []
    original = experiments.decode_each

    def spy(encodings, sets):
        calls.append((type(sets), len(sets)))
        assert len(encodings) == len(sets) and all(B is encodings[0] for B in encodings)
        return original(encodings, sets)

    whole = run()
    monkeypatch.setattr(experiments, "decode_each", spy)
    monkeypatch.setattr(experiments, "DECODE_CHUNK", 3)
    chunked = run()
    assert calls == [(list, 3), (list, 3), (list, 2)] * 4
    for a, b in zip(whole, chunked):
        assert a["upper_bound"] == b["upper_bound"]
        for key in ("mean_err", "min_err", "max_err"):
            assert b[key] == pytest.approx(a[key], rel=1e-12, abs=1e-14)


def test_sweep_exhaustive_sets_arrive_in_chunks(fano, monkeypatch):
    calls = []
    original = experiments.decode_each
    monkeypatch.setattr(experiments, "DECODE_CHUNK", 4)
    monkeypatch.setattr(
        experiments, "decode_each", lambda encs, sets: calls.append(len(sets)) or original(encs, sets)
    )
    cfg = gc.SweepConfig(
        schemes=(gc.SweepScheme(scheme=gc.RANDOM_DIAGONAL),),
        m=1,
        grid_kind="s",
        grid=(2,),
        set_draws="all",
        seed=0,
    )
    row = gc.sweep_error(fano, cfg)[0].rows[0]
    assert calls == [4, 4, 4, 4, 4, 1]  # comb(7, 2) = 21 sets
    assert row["mean_err"] == pytest.approx(7.0 - 45.0 / 7.0, abs=1e-9)


@pytest.mark.parametrize("shape", [(8, 594, 3), (594, 3), (4, 160, 5), (2, 10, 2), (3, 1)])
def test_log_softmax_matches_the_axis_reduction(shape):
    z = np.random.default_rng(len(shape)).standard_normal(shape) * 30.0
    shifted = z - z.max(axis=-1, keepdims=True)
    want = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    assert np.array_equal(_log_softmax(z), want)


def test_experiment_result_csv_roundtrip(tmp_path, fano):
    cfg = gc.SweepConfig(
        schemes=(gc.SweepScheme(scheme=gc.BASELINE),),
        m=2,
        grid_kind="s",
        grid=(0, 1),
        set_draws=3,
        seed=0,
    )
    result = gc.sweep_error(fano, cfg)[0]
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


def _reference_unbiasedness(A, scheme, m, q, trials, seed):
    """The trial-by-trial loop the chunked estimator replaced: (beta_hat,
    beta_se, rel_residual)."""
    target = gc.build_target(A.k, m)
    acc = np.zeros_like(target)
    betas = []
    for t in range(trials):
        state = experiments._stream(seed, t).generate_state(2, dtype=np.uint64)
        B = gc.encode_random_diagonal(A, m, gc.DiagonalLaw(scheme.epsilon), int(state[0]))
        workers = gc.sample_straggler_set(gc.Bernoulli(q), A.n, np.random.default_rng(int(state[1])))
        combo = B.mat @ gc.decode(B, workers).coeffs
        acc += combo
        betas.append(float(np.sum(combo * target)) / (m * A.k))
    beta = float(np.mean(betas))
    rel = float(np.linalg.norm(acc / trials - beta * target)) / (abs(beta) * np.sqrt(m * A.k))
    return beta, float(np.std(betas, ddof=1) / np.sqrt(trials)), rel


@pytest.mark.parametrize("chunk_trials", [None, 3])
def test_unbiasedness_matches_the_trial_loop_in_any_chunking(fano, coset27, monkeypatch, chunk_trials):
    # chunks of DECODE_CHUNK trials, or of 3 trials when CHUNK_ELEMENTS
    # holds just three encodings; each trial keeps its own streams
    calls = []
    original = experiments.decode_each
    monkeypatch.setattr(experiments, "decode_each", lambda encs, sets: calls.append(len(sets)) or original(encs, sets))
    for A, trials in ((fano, 300), (coset27, 40)):
        if chunk_trials:
            monkeypatch.setattr(experiments, "CHUNK_ELEMENTS", chunk_trials * (2 * A.k + A.n) * A.n)
        calls.clear()
        diag = gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=0.1)
        got = gc.estimate_unbiasedness(A, diag, 2, 0.25, trials, seed=4)
        step = chunk_trials or experiments.DECODE_CHUNK
        assert calls == [min(step, trials - i) for i in range(0, trials, step)]
        beta, se, rel = _reference_unbiasedness(A, diag, 2, 0.25, trials, 4)
        assert got.beta_hat == pytest.approx(beta, rel=1e-12)
        assert got.beta_se == pytest.approx(se, rel=1e-12)
        assert got.rel_residual == pytest.approx(rel, rel=1e-12)


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


@pytest.mark.parametrize("label", ["0.9", "1.5", "nan", "inf", "-1"])
def test_dataset_refuses_labels_that_are_not_class_indices(tmp_path, label):
    # a fractional label used to be truncated: 0.9, 1.7, 0.2 trained as 0, 1, 0
    path = tmp_path / "data.csv"
    path.write_text(f"1.0,2.0,0\n3.0,4.0,{label}\n5.0,6.0,1\n")
    with pytest.raises(ParameterError, match="labels"):
        gc.make_dataset(gc.DatasetSpec(path=str(path)))


def test_uniform_predictor_loss():
    X, y = gc.make_dataset(gc.DatasetSpec(samples=90, dim=4, classes=3, seed=1))
    assert gc.logistic_loss(X, y, np.zeros((4, 3))) == pytest.approx(np.log(3.0))


def test_training_zero_learning_rate_is_flat(fano):
    cfg = gc.TrainConfig(
        schemes=(gc.SchemeSpec(scheme=gc.BASELINE),),
        m=2,
        q=0.25,
        iterations=3,
        repetitions=2,
        learning_rate=0.0,
        dataset=gc.DatasetSpec(samples=70, dim=3, classes=2, seed=0),
        seed=0,
    )
    result = gc.simulate_training(fano, cfg)[0]
    assert result.losses.shape == (2, 4)
    for row in result.losses:
        assert np.ptp(row) == 0.0


def test_training_reproducible(fano):
    def run():
        cfg = gc.TrainConfig(
            schemes=(gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL),),
            m=2,
            q=0.25,
            iterations=4,
            repetitions=2,
            dataset=gc.DatasetSpec(samples=70, dim=3, classes=2, seed=0),
            seed=3,
        )
        return gc.simulate_training(fano, cfg)[0]

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
    schemes = (gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=0.1), gc.SchemeSpec(scheme=gc.EXACT))
    coded, plain = gc.simulate_training(coset27, gc.TrainConfig(schemes=schemes, **common))
    assert np.max(np.abs(coded.losses - plain.losses)) <= 1e-6


def test_exact_training_matches_the_per_subset_loop(fano):
    # the reference computes each subset's gradient by its own product, as
    # the loop that the batched product replaced did; d = 9 pads to 10
    dataset = gc.DatasetSpec(samples=70, dim=3, classes=3, seed=0)
    cfg = gc.TrainConfig(
        schemes=(gc.SchemeSpec(scheme=gc.EXACT),),
        m=2,
        q=0.0,
        iterations=3,
        dataset=dataset,
    )
    X, y = gc.make_dataset(dataset)
    onehot = np.eye(3)[y]
    F = gc.build_target(7, 2)
    W = np.zeros((3, 3))
    losses = [gc.logistic_loss(X, y, W)]
    for _ in range(3):
        resid = np.exp(_log_softmax(X @ W)) - onehot
        partials = [
            (X[i * 10 : (i + 1) * 10].T @ resid[i * 10 : (i + 1) * 10] / 70).ravel(order="F")
            for i in range(7)
        ]
        grad = np.ravel(gc.split_gradients(partials, 2) @ F, order="F")[:9]
        W = W - 0.5 * grad.reshape((3, 3), order="F")
        losses.append(gc.logistic_loss(X, y, W))
    assert np.array_equal(gc.simulate_training(fano, cfg)[0].losses[0], losses)


def test_training_divergence_recorded(fano):
    # three overlapping classes: a giant step cannot separate them, so the
    # loss blows past the divergence limit instead of saturating
    cfg = gc.TrainConfig(
        schemes=(gc.SchemeSpec(scheme=gc.BASELINE),),
        m=2,
        q=0.0,
        iterations=40,
        repetitions=1,
        learning_rate=1e9,
        dataset=gc.DatasetSpec(samples=90, dim=2, classes=3, seed=0),
        seed=0,
    )
    result = gc.simulate_training(fano, cfg)[0]
    assert result.diverged == [True]
    row = result.losses[0]
    assert np.isnan(row[-1])
    finals = result.final_losses()
    assert np.isfinite(finals[0])


def test_train_result_rows_and_csv(tmp_path, fano):
    cfg = gc.TrainConfig(
        schemes=(gc.SchemeSpec(scheme=gc.BASELINE),),
        m=2,
        q=0.0,
        iterations=2,
        repetitions=2,
        dataset=gc.DatasetSpec(samples=70, dim=3, classes=2, seed=0),
        seed=0,
    )
    result = gc.simulate_training(fano, cfg)[0]
    rows = result.rows()
    assert len(rows) == 6  # 2 repetitions x (initial + 2 updates)
    assert rows[0]["iteration"] == 0
    path = tmp_path / "train.csv"
    result.write_csv(path)
    assert path.read_text().splitlines()[0] == ",".join(TRAIN_CSV_HEADER)


def _train_config(scheme=gc.BASELINE, q=0.25, iterations=5, **kw):
    schemes = (gc.SchemeSpec(scheme=scheme),)
    return gc.TrainConfig(**{"schemes": schemes, "m": 2, "q": q, "iterations": iterations, **kw})


def test_train_config_validation(fano):
    with pytest.raises(ParameterError, match="^iterations"):
        _train_config(iterations=0)
    with pytest.raises(ParameterError, match="^q "):
        _train_config(q=1.0)
    with pytest.raises(ParameterError, match="learning_rate"):
        _train_config(learning_rate=-0.5)
    with pytest.raises(ParameterError, match="^repetitions"):
        _train_config(repetitions=0)
    with pytest.raises(ParameterError, match="^m "):
        _train_config(m=0)
    with pytest.raises(ParameterError, match="^schemes"):
        gc.TrainConfig(schemes=(), m=2, q=0.25, iterations=5)
    small = _train_config(q=0.0, iterations=1, dataset=gc.DatasetSpec(samples=5, dim=2, classes=2, seed=0))
    with pytest.raises(ParameterError):
        gc.simulate_training(fano, small)  # fewer samples than subsets


def test_rescale_lr_refuses_a_warm_up_estimate_indistinguishable_from_zero(fano):
    # at q = 0.9999 nearly every worker straggles, and the warm-up estimate
    # of beta is within three standard errors of zero: dividing by it would
    # blow the learning rate up by three orders of magnitude
    def run(q):
        return gc.simulate_training(fano, _train_config(gc.RANDOM_DIAGONAL, q, 2, rescale_lr=True))[0]

    with pytest.raises(ParameterError, match=r"rescale_lr.* q = 0\.9999 "):
        run(0.9999)
    assert np.all(np.isfinite(run(0.25).losses))


# ---------------------------------------------------------------------------
# lockstep repetitions against one repetition at a time


def _reference_training(A, cfg):
    """The training loop that ran the repetitions one after another, each
    with its own X @ W products; kept to check the lockstep stack."""
    (sc,) = cfg.schemes
    X, y = gc.make_dataset(cfg.dataset)
    k = A.k
    per = len(X) // k
    used = per * k
    X, y = X[:used], y[:used]
    classes = int(y.max()) + 1
    dim = X.shape[1]
    onehot = np.eye(classes)[y]
    d = dim * classes
    target = gc.build_target(k, cfg.m)
    subsets = X.reshape(k, per, dim).transpose(0, 2, 1)
    losses = np.full((cfg.repetitions, cfg.iterations + 1), np.nan)
    diverged = [False] * cfg.repetitions
    for rep in range(cfg.repetitions):
        state = experiments._stream(cfg.seed, rep).generate_state(3, dtype=np.uint64)
        set_rng = np.random.default_rng(int(state[0]))
        enc_rng = np.random.default_rng(int(state[1]))
        B = None
        if sc.scheme in (gc.BASELINE, gc.NULLSPACE_HADAMARD):
            B = sc.build(A, cfg.m, int(state[2]))
        W = np.zeros((dim, classes))
        losses[rep, 0] = gc.logistic_loss(X, y, W)
        for it in range(1, cfg.iterations + 1):
            resid = np.exp(_log_softmax(X @ W)) - onehot
            per_subset = np.matmul(subsets, resid.reshape(k, per, classes)) / used
            partials = per_subset.transpose(0, 2, 1).reshape(k, d)
            if sc.scheme == gc.EXACT:
                grad = np.ravel(gc.split_gradients(partials, cfg.m) @ target, order="F")[:d]
            else:
                workers = gc.sample_straggler_set(gc.Bernoulli(cfg.q), A.n, set_rng)
                if sc.randomized:
                    law = gc.DiagonalLaw(sc.epsilon)
                    B = gc.encode_random_diagonal(A, cfg.m, law, int(enc_rng.integers(2**63)))
                grad, _ = gc.reconstruct(partials, B, workers)
            W = W - cfg.learning_rate * grad.reshape((dim, classes), order="F")
            loss = gc.logistic_loss(X, y, W)
            losses[rep, it] = loss
            if not np.isfinite(loss) or loss > experiments.DIVERGENCE_LIMIT:
                diverged[rep] = True
                break
    return losses, diverged


def _lockstep_config(scheme, **kw):
    base = dict(
        schemes=(scheme,),
        m=2,
        q=0.25,
        iterations=12,
        repetitions=4,
        dataset=gc.DatasetSpec(samples=160, dim=3, classes=3, seed=1),
        seed=5,
    )
    return gc.TrainConfig(**{**base, **kw})


def _assert_same_runs(result, losses, diverged):
    assert result.diverged == diverged
    assert np.array_equal(np.isnan(result.losses), np.isnan(losses))
    finite = ~np.isnan(losses)
    assert np.allclose(result.losses[finite], losses[finite], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "scheme",
    [
        gc.SchemeSpec(scheme=gc.EXACT),
        gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=0.1),
        gc.SchemeSpec(scheme=gc.BASELINE),
        gc.SchemeSpec(scheme=gc.NULLSPACE_HADAMARD),
    ],
    ids=lambda sc: sc.label,
)
def test_lockstep_training_matches_one_repetition_at_a_time(bireg40, scheme):
    cfg = _lockstep_config(scheme)
    losses, diverged = _reference_training(bireg40, cfg)
    _assert_same_runs(gc.simulate_training(bireg40, cfg)[0], losses, diverged)


def test_lockstep_repetitions_leave_the_stack_when_they_diverge(bireg40, monkeypatch):
    # a limit between the repetitions' peak losses stops some of them early
    # while the others run to the end
    cfg = _lockstep_config(gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=0.1), learning_rate=4.0, repetitions=5)
    free, _ = _reference_training(bireg40, cfg)
    peaks = np.sort(np.nanmax(free[:, 1:], axis=1))
    limit = 0.5 * (peaks[1] + peaks[2])
    monkeypatch.setattr(experiments, "DIVERGENCE_LIMIT", limit)
    losses, diverged = _reference_training(bireg40, cfg)
    assert 0 < sum(diverged) < cfg.repetitions
    assert np.isnan(losses[diverged]).any()
    _assert_same_runs(gc.simulate_training(bireg40, cfg)[0], losses, diverged)


@pytest.mark.parametrize(
    "dataset, key",
    [
        (gc.DatasetSpec(samples=10**12, dim=10, classes=3), "dataset.samples x dataset.dim"),
        (gc.DatasetSpec(samples=20_000, dim=1, classes=20_000), "dataset.classes"),
    ],
)
def test_training_refuses_arrays_over_the_cap(fano, dataset, key):
    with pytest.raises(ParameterError, match=key):
        gc.simulate_training(fano, _train_config(dataset=dataset))


def test_training_cap_reads_an_external_dataset(tmp_path, fano):
    # a label of 1e9 means 1e9 + 1 classes of logits for 14 rows
    rows = [[float(i), float(i % 2)] for i in range(14)]
    rows[0][1] = 1e9
    path = tmp_path / "data.csv"
    path.write_text("\n".join(",".join(repr(v) for v in row) for row in rows) + "\n")
    with pytest.raises(ParameterError, match="dataset.path classes"):
        gc.simulate_training(fano, _train_config(dataset=gc.DatasetSpec(path=str(path))))
