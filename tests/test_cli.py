import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import gradcoding as gc
from gradcoding.cli import _diagonal_law_failure, main
from gradcoding.serialize import read_matrix_csv


def run_cli(tmp_path, command, config, out="out", seed=None, svg=False):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / out
    argv = [command, "--config", str(cfg_path), "--out", str(out_dir)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if svg:
        argv.append("--svg")
    return main(argv), out_dir


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# construct


def test_construct_writes_design_and_report(tmp_path, fano):
    rc, out = run_cli(tmp_path, "construct", {"design": {"family": "bibd_transpose", "v": 7}})
    assert rc == 0
    assert np.array_equal(read_matrix_csv(out / "design.csv"), fano.mat)
    report = json.loads((out / "validation.json").read_text())
    assert report["valid"] is True
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["design"]["difference_set"] == [0, 1, 3]


FANO = {"family": "bibd_transpose", "v": 7}
BIREG8 = {"family": "bi_regular", "n": 8, "k": 4, "delta": 2, "gamma": 4, "seed": 1}
FIXED_POINT_CONFIGS = {
    "construct": {"design": FANO, "m": 2, "scheme": {"scheme": "random_diagonal", "epsilon": 0.1}},
    "sweep": {
        "design": FANO,
        "m": 2,
        "grid_kind": "s",
        "grid": [0, 2],
        "schemes": [{"scheme": "random_diagonal", "matrix_draws": 2}, {"scheme": "baseline"}],
        "set_draws": 4,
        "emit_svg": True,
    },
    "bounds": {"design": FANO, "m": 2, "s_grid": [0, 1, 2], "emit_svg": True},
    "train": {
        "design": FANO,
        "m": 2,
        "q": 0.25,
        "iterations": 2,
        "schemes": [{"scheme": "random_diagonal"}, {"scheme": "exact"}],
        "dataset": {"samples": 70, "dim": 3, "classes": 3},
    },
    "validate": {"design": BIREG8, "m": 2, "scheme": {"scheme": "nullspace_hadamard"}, "seed": 3},
}


@pytest.mark.parametrize("command", sorted(FIXED_POINT_CONFIGS))
def test_resolved_config_is_a_fixed_point(tmp_path, command):
    config = FIXED_POINT_CONFIGS[command]
    if command == "validate":
        made = _construct_with_encoding(tmp_path)
        config = dict(
            config,
            design_csv=str(made / "design.csv"),
            encoding_csv=str(made / "encoding.csv"),
            encoding_meta=str(made / "encoding.json"),
        )
    rc, out = run_cli(tmp_path, command, config, out="first")
    assert rc == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    rc2, out2 = run_cli(tmp_path, command, resolved, out="second")
    assert rc2 == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_construct_emits_encoding_artifacts(tmp_path):
    config = {
        "design": {"family": "bibd_transpose", "v": 7},
        "m": 2,
        "scheme": {"scheme": "random_diagonal", "epsilon": 0.1},
        "seed": 4,
    }
    rc, out = run_cli(tmp_path, "construct", config)
    assert rc == 0
    enc = read_matrix_csv(out / "encoding.csv")
    assert enc.shape == (14, 7)
    meta = json.loads((out / "encoding.json").read_text())
    assert meta == {"scheme": "random_diagonal", "m": 2, "seed": 4, "epsilon": 0.1}


def test_construct_coset_uses_top_level_m(tmp_path):
    config = {
        "design": {"family": "coset_bipartite", "k": 3, "delta": 1, "generating_set": [0]},
        "m": 2,
    }
    rc, out = run_cli(tmp_path, "construct", config)
    assert rc == 0
    assert read_matrix_csv(out / "design.csv").shape == (3, 6)


def test_construct_singular_coset_base_fails(tmp_path):
    config = {
        "design": {"family": "coset_bipartite", "k": 4, "delta": 2, "generating_set": [0, 1]},
        "m": 2,
    }
    rc, out = run_cli(tmp_path, "construct", config)
    assert rc == 1
    report = json.loads((out / "validation.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["base_block_invertible"]


# ---------------------------------------------------------------------------
# input errors


def test_malformed_json_exits_2(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["construct", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["construct", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2


def test_unknown_key_exits_2(tmp_path):
    rc, _ = run_cli(tmp_path, "construct", {"design": {"family": "bibd_transpose", "v": 7}, "foo": 1})
    assert rc == 2


def test_command_mismatch_exits_2(tmp_path):
    config = {"command": "construct", "design": {"family": "bibd_transpose", "v": 7}}
    rc, _ = run_cli(tmp_path, "bounds", config)
    assert rc == 2


def test_non_integer_parameter_exits_2(tmp_path):
    rc, _ = run_cli(tmp_path, "construct", {"design": {"family": "bibd_transpose", "v": 7.5}})
    assert rc == 2


_FANO_JSON = '"design": {"family": "bibd_transpose", "v": 7}'
_TRAIN_JSON = _FANO_JSON + ', "m": 2, "iterations": 1, "scheme": {"scheme": "baseline"}'


@pytest.mark.parametrize(
    "command, text",
    [
        pytest.param("construct", '{"design": {"family": "bibd_transpose", "v": 1e999}}', id="int-overflow"),
        pytest.param(
            "construct",
            '{"design": {"family": "bibd_transpose", "v": 7, "difference_set": ["0", "1", "3"]}}',
            id="int-string",
        ),
        pytest.param("construct", "{" + _FANO_JSON + ', "emit_svg": "false"}', id="bool-string"),
        pytest.param(
            "construct",
            '{"design": {"family": "bi_regular", "n": 8, "k": 4, "delta": 2, "gamma": 4}, "m": 2,'
            ' "scheme": {"scheme": "nullspace_hadamard", "constrain_pm1": "false"}}',
            id="nested-bool-string",
        ),
        pytest.param("bounds", "{" + _FANO_JSON + ', "m": 2, "s_grid": [0], "epsilon": "0.2"}', id="float-string"),
        pytest.param("bounds", "{" + _FANO_JSON + ', "m": 2, "s_grid": [0], "epsilon": NaN}', id="float-nan"),
        pytest.param("train", "{" + _TRAIN_JSON + ', "q": "0.25"}', id="q-string"),
        pytest.param("train", "{" + _TRAIN_JSON + ', "q": 0.25, "rescale_lr": "no"}', id="rescale-string"),
        pytest.param("train", "{" + _TRAIN_JSON + ', "q": 0.25, "learning_rate": Infinity}', id="float-inf"),
        pytest.param("train", "{" + _TRAIN_JSON + ', "q": 0.25, "repetitions": 1e300}', id="int-beyond-64-bit"),
    ],
)
def test_json_scalars_are_strict(tmp_path, command, text):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def _bad_input(tmp_path, case):
    """(command, config) for one kind of bad input that numpy or the JSON
    reader used to refuse with a bare ValueError."""
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("1,0\n0,x\n")
    bireg = {"family": "bi_regular", "n": 8, "k": 4, "delta": 2, "gamma": 4}
    train = {"design": FANO, "m": 2, "q": 0.25, "iterations": 1, "scheme": {"scheme": "baseline"}}
    if case.startswith("difference_set_file"):
        doc = {"v": 7, "set": ["0", 1, 3]} if case.endswith("strings") else {"v": 7.0, "set": [0, 1, 3]}
        (tmp_path / "set.json").write_text(json.dumps(doc))
        return "construct", {"design": {"family": "bibd_transpose", "path": str(tmp_path / "set.json")}}
    if case == "encoding_meta_negative_seed":
        made = _construct_with_encoding(tmp_path)
        meta = json.loads((made / "encoding.json").read_text())
        (made / "encoding.json").write_text(json.dumps(dict(meta, seed=-1)))
        config = {"design": dict(bireg, seed=1), "m": 2}
        return "validate", dict(config, encoding_csv=str(made / "encoding.csv"), encoding_meta=str(made / "encoding.json"))
    return {
        "negative_seed": ("construct", {"design": FANO, "seed": -1}),
        "negative_design_seed": ("construct", {"design": dict(bireg, seed=-1)}),
        "negative_dataset_seed": ("train", dict(train, dataset={"seed": -1})),
        "negative_dataset_dim": ("train", dict(train, dataset={"dim": -1})),
        "planar_v_zero": ("construct", {"design": {"family": "bibd_transpose", "v": 0}}),
        "planar_v_negative": ("construct", {"design": {"family": "bibd_transpose", "v": -3}}),
        "planar_v_one": ("construct", {"design": {"family": "bibd_transpose", "v": 1}}),
        "design_csv_cell": ("validate", {"design": FANO, "design_csv": str(bad_csv)}),
        "dataset_csv_cell": ("train", dict(train, dataset={"path": str(bad_csv)})),
        "family_not_a_string": ("construct", {"design": {"family": ["bibd_transpose"], "v": 7}}),
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "negative_seed",
        "negative_design_seed",
        "negative_dataset_seed",
        "negative_dataset_dim",
        "encoding_meta_negative_seed",
        "planar_v_zero",
        "planar_v_negative",
        "planar_v_one",
        "design_csv_cell",
        "dataset_csv_cell",
        "difference_set_file_strings",
        "difference_set_file_floats",
        "family_not_a_string",
    ],
)
def test_bad_input_exits_2(tmp_path, case):
    command, config = _bad_input(tmp_path, case)
    rc, _ = run_cli(tmp_path, command, config, out="check")
    assert rc == 2


def test_seed_flag_refuses_negative_seed(tmp_path):
    rc, _ = run_cli(tmp_path, "construct", {"design": FANO}, seed=-1)
    assert rc == 2


def test_program_errors_are_not_reported_as_bad_input(tmp_path, monkeypatch):
    def broken(cfg):
        raise TypeError("a bug in the program")

    monkeypatch.setattr("gradcoding.cli.sweep_error", broken)
    config = {"design": FANO, "m": 2, "grid_kind": "s", "grid": [0], "scheme": {"scheme": "baseline"}}
    with pytest.raises(TypeError, match="a bug in the program"):
        run_cli(tmp_path, "sweep", config)


# ---------------------------------------------------------------------------
# bounds


def test_bounds_table_frozen_values(tmp_path):
    config = {"design": {"family": "bibd_transpose", "v": 7}, "m": 2, "s_grid": [0, 1]}
    rc, out = run_cli(tmp_path, "bounds", config)
    assert rc == 0
    rows = read_csv_rows(out / "bounds.csv")
    values = {
        (r["scheme"], r["x"]): (r["upper_bound"], r["lower_bound"]) for r in rows
    }
    assert float(values[("bibd_upper", "0.0")][0]) == pytest.approx(3.5)
    assert float(values[("bibd_upper", "1.0")][0]) == pytest.approx(46.0 / 11.0)
    assert float(values[("baseline_bibd", "0.0")][0]) == pytest.approx(7.0)
    assert float(values[("lower", "0.0")][1]) == 0.0


def test_bounds_floor_grid_on_uniform_design(tmp_path):
    config = {
        "design": {"family": "bi_regular", "n": 8, "k": 8, "delta": 4, "gamma": 4, "seed": 0},
        "m": 2,
        "s_grid": [3, 5],
        "kinds": ["lower"],
    }
    rc, out = run_cli(tmp_path, "bounds", config)
    assert rc == 0
    rows = read_csv_rows(out / "bounds.csv")
    got = {r["x"]: float(r["lower_bound"]) for r in rows}
    assert got == {"3.0": 1.0, "5.0": 2.0}


def test_bounds_out_of_range_s_exits_2(tmp_path):
    config = {"design": {"family": "bibd_transpose", "v": 7}, "m": 2, "s_grid": [8]}
    rc, _ = run_cli(tmp_path, "bounds", config)
    assert rc == 2


def test_bounds_epsilon_guard_exits_2(tmp_path):
    config = {
        "design": {"family": "bibd_transpose", "v": 7},
        "m": 2,
        "s_grid": [0],
        "epsilon": 0.1,
        "kinds": ["bibd_upper"],
    }
    rc, _ = run_cli(tmp_path, "bounds", config)
    assert rc == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_multi_scheme_shares_configuration(tmp_path):
    config = {
        "design": {"family": "bibd_transpose", "v": 7},
        "m": 2,
        "grid_kind": "s",
        "grid": [0, 1],
        "schemes": [
            {"scheme": "random_diagonal", "epsilon": 0.0, "matrix_draws": 2},
            {"scheme": "baseline", "matrix_draws": 1},
        ],
        "set_draws": 5,
        "seed": 0,
    }
    rc, out = run_cli(tmp_path, "sweep", config)
    assert rc == 0
    rows = read_csv_rows(out / "sweep.csv")
    assert len(rows) == 4
    base = [r for r in rows if r["scheme"] == "baseline"]
    assert float(base[0]["mean_err"]) == pytest.approx(7.0, abs=1e-8)
    assert not (out / "sweep.svg").exists()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["schemes"][0]["matrix_draws"] == 2
    rc2, out2 = run_cli(tmp_path, "sweep", resolved, out="again")
    assert rc2 == 0
    assert (out / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()


def test_sweep_exhaustive_over_cap_exits_2(tmp_path):
    config = {
        "design": {"family": "bibd_transpose", "v": 91},
        "m": 2,
        "grid_kind": "s",
        "grid": [5],
        "scheme": {"scheme": "random_diagonal"},
        "set_draws": "all",
    }
    rc, out = run_cli(tmp_path, "sweep", config)
    assert rc == 2
    assert not (out / "sweep.csv").exists()


def test_sweep_svg_flag_writes_chart(tmp_path):
    config = {
        "design": {"family": "bibd_transpose", "v": 7},
        "m": 2,
        "grid_kind": "s",
        "grid": [0, 2],
        "scheme": {"scheme": "baseline"},
        "set_draws": 3,
    }
    rc, out = run_cli(tmp_path, "sweep", config, svg=True)
    assert rc == 0
    text = (out / "sweep.svg").read_text()
    assert text.startswith("<svg")
    assert "</svg>" in text


def test_sweep_requires_exactly_one_scheme_key(tmp_path):
    base = {
        "design": {"family": "bibd_transpose", "v": 7},
        "m": 2,
        "grid_kind": "s",
        "grid": [0],
    }
    both = dict(base, scheme={"scheme": "baseline"}, schemes=[{"scheme": "baseline"}])
    rc, _ = run_cli(tmp_path, "sweep", both, out="a")
    assert rc == 2
    rc, _ = run_cli(tmp_path, "sweep", base, out="b")
    assert rc == 2


# ---------------------------------------------------------------------------
# train


def test_train_writes_losses_summary_and_chart(tmp_path):
    config = {
        "design": {"family": "bibd_transpose", "v": 7},
        "m": 2,
        "q": 0.25,
        "iterations": 2,
        "repetitions": 2,
        "schemes": [{"scheme": "baseline"}, {"scheme": "exact"}],
        "dataset": {"samples": 70, "dim": 3, "classes": 3, "seed": 0},
        "emit_svg": True,
    }
    rc, out = run_cli(tmp_path, "train", config)
    assert rc == 0
    rows = read_csv_rows(out / "train.csv")
    assert len(rows) == 12  # 2 schemes x 2 repetitions x 3 recorded losses
    summary = json.loads((out / "summary.json").read_text())
    assert {s["scheme"] for s in summary["schemes"]} == {"baseline", "exact"}
    assert all(s["diverged_runs"] == 0 for s in summary["schemes"])
    assert (out / "train.svg").exists()


# ---------------------------------------------------------------------------
# validate


def _construct_with_encoding(tmp_path, out="made"):
    config = {
        "design": {"family": "bi_regular", "n": 8, "k": 4, "delta": 2, "gamma": 4, "seed": 1},
        "m": 2,
        "scheme": {"scheme": "nullspace_hadamard"},
        "seed": 3,
    }
    rc, out_dir = run_cli(tmp_path, "construct", config, out=out)
    assert rc == 0
    return out_dir


def test_validate_passes_on_intact_artifacts(tmp_path):
    made = _construct_with_encoding(tmp_path)
    config = {
        "design": {"family": "bi_regular", "n": 8, "k": 4, "delta": 2, "gamma": 4, "seed": 1},
        "m": 2,
        "design_csv": str(made / "design.csv"),
        "encoding_csv": str(made / "encoding.csv"),
        "encoding_meta": str(made / "encoding.json"),
        "seed": 3,
    }
    rc, out = run_cli(tmp_path, "validate", config, out="check")
    assert rc == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "encoding:rebuild_match" in names
    assert "design_csv:matches_construction" in names


def test_validate_catches_corrupted_encoding(tmp_path):
    made = _construct_with_encoding(tmp_path)
    mat = read_matrix_csv(made / "encoding.csv")
    i, j = np.argwhere(mat != 0.0)[0]
    mat[i, j] *= 1.5
    from gradcoding.serialize import write_matrix_csv

    write_matrix_csv(made / "encoding.csv", mat)
    config = {
        "design": {"family": "bi_regular", "n": 8, "k": 4, "delta": 2, "gamma": 4, "seed": 1},
        "m": 2,
        "encoding_csv": str(made / "encoding.csv"),
        "encoding_meta": str(made / "encoding.json"),
        "seed": 3,
    }
    rc, out = run_cli(tmp_path, "validate", config, out="check")
    assert rc == 1
    report = json.loads((out / "validation_report.json").read_text())
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "encoding:rebuild_match" in failed


def _diagonal_law_reference(B, epsilon, eps=1e-12):
    # The column-by-column loop that _diagonal_law_failure replaces.
    for i in range(B.m):
        block = B.block(i)
        for col in range(B.n):
            vals = block[np.nonzero(B.parent.mat[:, col])[0], col]
            if vals.size and np.ptp(vals) > eps:
                return f"block {i} column {col} entries differ"
            if vals.size and not (1.0 - epsilon - eps <= abs(vals[0]) <= 1.0 + epsilon + eps):
                return f"block {i} column {col} magnitude {abs(vals[0])!r}"
    return ""


@pytest.mark.parametrize("seed", range(8))
def test_diagonal_law_check_matches_column_loop(bireg40, seed):
    B = gc.encode_random_diagonal(bireg40, 3, gc.DiagonalLaw(0.2), seed)
    rng = np.random.default_rng(seed)
    mat = B.mat.copy()
    for _ in range(seed % 4):  # seeds 0 and 4 stay intact
        i, j = np.argwhere(mat != 0)[rng.integers(np.count_nonzero(mat))]
        if rng.random() < 0.5:
            mat[i, j] *= rng.choice([-1.0, 1.1])  # one entry leaves its column
        else:
            block = i // bireg40.k * bireg40.k
            mat[block : block + bireg40.k, j] *= 1.5  # the column's magnitude leaves the law
    stored = gc.EncodingMatrix(mat=mat, m=3, scheme=B.scheme, parent=bireg40, seed=None, randomness=None)
    got = _diagonal_law_failure(stored, 0.2)
    assert got == _diagonal_law_reference(stored, 0.2)
    assert (got == "") == (seed % 4 == 0)


def test_validate_fresh_encoding_checks(tmp_path):
    config = {
        "design": {"family": "bibd_transpose", "v": 7},
        "m": 2,
        "scheme": {"scheme": "baseline"},
    }
    rc, out = run_cli(tmp_path, "validate", config)
    assert rc == 0
    report = json.loads((out / "validation_report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert "encoding:baseline_closed_form" in names


def test_validate_requires_paired_encoding_inputs(tmp_path):
    made = _construct_with_encoding(tmp_path)
    config = {
        "design": {"family": "bi_regular", "n": 8, "k": 4, "delta": 2, "gamma": 4, "seed": 1},
        "m": 2,
        "encoding_csv": str(made / "encoding.csv"),
    }
    rc, _ = run_cli(tmp_path, "validate", config, out="check")
    assert rc == 2


# ---------------------------------------------------------------------------
# seed handling and entry point


def test_seed_flag_overrides_config(tmp_path):
    config = {"design": {"family": "bi_regular", "n": 8, "k": 4, "delta": 2, "gamma": 4}}
    _, out5 = run_cli(tmp_path, "construct", config, out="s5", seed=5)
    _, out5b = run_cli(tmp_path, "construct", config, out="s5b", seed=5)
    _, out6 = run_cli(tmp_path, "construct", config, out="s6", seed=6)
    assert (out5 / "design.csv").read_text() == (out5b / "design.csv").read_text()
    assert (out5 / "design.csv").read_text() != (out6 / "design.csv").read_text()


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"design": {"family": "bibd_transpose", "v": 7}}))
    proc = subprocess.run(
        [sys.executable, "-m", "gradcoding", "construct", "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "design: bibd_transpose" in proc.stdout
