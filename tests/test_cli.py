import csv
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradcoding as gc
from gradcoding.cli import _diagonal_law_failure, main, parse_config
from gradcoding.serialize import read_matrix_csv, write_matrix_csv

ROOT = Path(__file__).resolve().parents[1]


def run_cli(tmp_path, command, config, out="out", seed=None, extra=()):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / out
    argv = [command, "--config", str(cfg_path), "--out", str(out_dir), *extra]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), out_dir


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for
    running the package in a subprocess."""
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


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
    },
    "bounds": {"design": FANO, "m": 2, "s_grid": [0, 1, 2]},
    "train": {
        "design": FANO,
        "m": 2,
        "q": 0.25,
        "iterations": 2,
        "schemes": [{"scheme": "random_diagonal"}, {"scheme": "exact"}],
        "dataset": {"samples": 70, "dim": 3, "classes": 3},
    },
    "validate": {"design": BIREG8, "m": 2, "seed": 3},
}


# the optional keys each scheme owns; a resolved scheme entry carries these
# and no other scheme's
OWN_KEYS = {
    "random_diagonal": {"epsilon"},
    "nullspace_hadamard": {"v1_policy", "constrain_pm1"},
    "baseline": set(),
    "exact": set(),
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
    entries = resolved.get("schemes", [resolved["scheme"]] if "scheme" in resolved else [])
    for entry in entries:
        assert set(entry) - {"scheme", "matrix_draws"} == OWN_KEYS[entry["scheme"]], entry
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
_TRAIN_JSON = _FANO_JSON + ', "m": 2, "iterations": 1, "schemes": [{"scheme": "baseline"}]'


@pytest.mark.parametrize(
    "command, text, key",
    [
        pytest.param(
            "construct", '{"design": {"family": "bibd_transpose", "v": 1e999}}', "config.design.v", id="int-overflow"
        ),
        pytest.param(
            "construct",
            '{"design": {"family": "bibd_transpose", "v": 7, "difference_set": ["0", "1", "3"]}}',
            "config.design.difference_set[0]",
            id="int-string",
        ),
        pytest.param(
            "train", "{" + _TRAIN_JSON + ', "q": 0.25, "rescale_lr": "false"}', "config.rescale_lr", id="bool-string"
        ),
        pytest.param(
            "construct",
            '{"design": {"family": "bi_regular", "n": 8, "k": 4, "delta": 2, "gamma": 4}, "m": 2,'
            ' "scheme": {"scheme": "nullspace_hadamard", "constrain_pm1": "false"}}',
            "config.scheme.constrain_pm1",
            id="nested-bool-string",
        ),
        pytest.param(
            "bounds", "{" + _FANO_JSON + ', "m": 2, "s_grid": [0], "epsilon": "0.2"}', "config.epsilon", id="float-string"
        ),
        pytest.param(
            "bounds", "{" + _FANO_JSON + ', "m": 2, "s_grid": [0], "epsilon": NaN}', "config.epsilon", id="float-nan"
        ),
        pytest.param("train", "{" + _TRAIN_JSON + ', "q": "0.25"}', "config.q", id="q-string"),
        pytest.param(
            "train", "{" + _TRAIN_JSON + ', "q": 0.25, "rescale_lr": "no"}', "config.rescale_lr", id="rescale-string"
        ),
        pytest.param(
            "train", "{" + _TRAIN_JSON + ', "q": 0.25, "learning_rate": Infinity}', "config.learning_rate", id="float-inf"
        ),
        pytest.param(
            "train", "{" + _TRAIN_JSON + ', "q": 0.25, "repetitions": 1e300}', "config.repetitions", id="int-beyond-64-bit"
        ),
    ],
)
def test_json_scalars_are_strict(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert f"error: {key} must be " in capsys.readouterr().err


def _bad_input(tmp_path, case):
    """(command, config, what stderr must name) for one kind of bad input
    that numpy or the JSON reader used to refuse with a bare ValueError, or
    that used to run."""
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("1,0\n0,x\n")
    fractional_csv = tmp_path / "fractional.csv"
    fractional_csv.write_text("".join(f"{i},{label}\n" for i in range(7) for label in (0.9, 1.7, 0.2)))
    one_class_csv = tmp_path / "one_class.csv"
    one_class_csv.write_text("".join(f"{i},{i % 3},0\n" for i in range(21)))
    bireg = {"family": "bi_regular", "n": 8, "k": 4, "delta": 2, "gamma": 4}
    train = {"design": FANO, "m": 2, "q": 0.25, "iterations": 1, "schemes": [{"scheme": "baseline"}]}
    bounds = {"design": FANO, "m": 2, "s_grid": [0, 1]}
    sweep = FIXED_POINT_CONFIGS["sweep"]
    if case.startswith("difference_set_file"):
        doc = {"v": 7, "set": ["0", 1, 3]} if case.endswith("strings") else {"v": 7.0, "set": [0, 1, 3]}
        (tmp_path / "set.json").write_text(json.dumps(doc))
        path = str(tmp_path / "set.json")
        return "construct", {"design": {"family": "bibd_transpose", "path": path}}, path
    meta_edits = {
        "encoding_meta_negative_seed": ({"seed": -1}, "encoding_meta.seed must be nonnegative", RANDOM_DIAGONAL),
        "encoding_meta_unknown_scheme": ({"scheme": "bogus"}, "encoding_meta.scheme", RANDOM_DIAGONAL),
        "encoding_meta_null_seed": ({"seed": None}, "encoding_meta.seed", RANDOM_DIAGONAL),
        "encoding_meta_bad_v1_policy": ({"v1_policy": "bogus"}, "encoding_meta.v1_policy", NULLSPACE),
        "encoding_meta_other_scheme_key": ({"epsilon": 0.3}, "encoding_meta.epsilon", NULLSPACE),
        "encoding_meta_exact": ({"scheme": "exact"}, "encoding_meta.scheme", {"scheme": "baseline"}),
        "encoding_meta_other_scheme_pm1_found": ({"pm1_found": True}, "encoding_meta.pm1_found", RANDOM_DIAGONAL),
    }
    if case in meta_edits:
        edit, named, scheme = meta_edits[case]
        made = _construct_with_encoding(tmp_path, scheme=scheme)
        meta = json.loads((made / "encoding.json").read_text())
        (made / "encoding.json").write_text(json.dumps(dict(meta, **edit)))
        config = {"design": BIREG8, "m": 2, "encoding_csv": str(made / "encoding.csv")}
        return "validate", dict(config, encoding_meta=str(made / "encoding.json")), named
    return {
        "negative_seed": ("construct", {"design": FANO, "seed": -1}, "seed must be nonnegative"),
        "negative_design_seed": ("construct", {"design": dict(bireg, seed=-1)}, "seed must be an integer >= 0"),
        "negative_dataset_seed": ("train", dict(train, dataset={"seed": -1}), "error: config.dataset.seed must be"),
        "negative_dataset_dim": ("train", dict(train, dataset={"dim": -1}), "error: config.dataset.dim must be"),
        "dataset_one_class": ("train", dict(train, dataset={"classes": 1}), "error: config.dataset.classes must be"),
        "dataset_fewer_samples_than_classes": (
            "train",
            dict(train, dataset={"samples": 2}),
            "error: config.dataset.samples must be",
        ),
        "negative_learning_rate": ("train", dict(train, learning_rate=-0.5), "learning_rate"),
        "train_m_zero": ("train", dict(train, m=0), "error: config.m must be"),
        "train_q_one": ("train", dict(train, q=1.0), "error: config.q must lie in [0, 1)"),
        "train_iterations_zero": ("train", dict(train, iterations=0), "error: config.iterations must be"),
        "train_repetitions_zero": ("train", dict(train, repetitions=0), "error: config.repetitions must be"),
        "train_no_schemes": ("train", dict(train, schemes=[]), "error: config.schemes must be a nonempty list"),
        "sweep_unknown_grid_kind": ("sweep", dict(sweep, grid_kind="sets"), "error: config.grid_kind must be"),
        "sweep_set_draws_zero": ("sweep", dict(sweep, set_draws=0), "error: config.set_draws must be"),
        "sweep_matrix_draws_zero": (
            "sweep",
            dict(sweep, schemes=[{"scheme": "baseline"}, {"scheme": "baseline", "matrix_draws": 0}]),
            "error: config.schemes[1].matrix_draws must be",
        ),
        "sweep_exact_scheme": ("sweep", dict(sweep, schemes=[{"scheme": "exact"}]), "error: config.schemes[0].scheme"),
        "sweep_empty_grid": ("sweep", dict(sweep, grid=[]), "error: config.grid must be nonempty"),
        "sweep_m_zero": ("sweep", dict(sweep, m=0), "error: config.m must be"),
        "sweep_no_schemes": ("sweep", dict(sweep, schemes=[]), "error: config.schemes must be a nonempty list"),
        "bounds_m_zero": ("bounds", dict(bounds, m=0), "error: config.m must be"),
        "bounds_empty_s_grid": ("bounds", dict(bounds, s_grid=[]), "error: config.s_grid must be nonempty"),
        "construct_m_zero": (
            "construct",
            {"design": FANO, "m": 0, "scheme": {"scheme": "baseline"}},
            "error: config.m must be",
        ),
        # the encoding is built before the design's files are written
        "construct_scheme_refused_by_the_design": (
            "construct",
            {"design": FANO, "m": 2, "scheme": {"scheme": "nullspace_hadamard"}},
            "construction needs n = m*k",
        ),
        "validate_m_zero": ("validate", {"design": FANO, "m": 0}, "error: config.m must be"),
        "coset_design_without_m": (
            "construct",
            {"design": {"family": "coset_bipartite", "k": 3, "delta": 1}},
            "error: config.m must be given with a coset design",
        ),
        "bibd_design_without_v": (
            "construct",
            {"design": {"family": "bibd_transpose"}},
            "error: config.design needs v, difference_set, or path",
        ),
        "inline_difference_set_without_v": (
            "construct",
            {"design": {"family": "bibd_transpose", "difference_set": [0, 1, 3]}},
            "error: config.design.difference_set needs v",
        ),

        "bounds_negative_epsilon": ("bounds", dict(bounds, epsilon=-0.5), "config.epsilon must lie in [0, 1)"),
        "bounds_epsilon_one": ("bounds", dict(bounds, epsilon=1.0), "config.epsilon must lie in [0, 1)"),
        "bounds_repeated_kind": ("bounds", dict(bounds, kinds=["lower", "lower"]), "config.kinds"),
        "bounds_unknown_kind": ("bounds", dict(bounds, kinds=["bogus"]), "config.kinds names an unknown kind 'bogus'"),
        "bounds_s_outside_the_design": (
            "bounds",
            dict(bounds, s_grid=[0, 99]),
            "error: config.s_grid[1]: s=99 outside [0, 7]",
        ),
        "sweep_s_outside_the_design": (
            "sweep",
            dict(FIXED_POINT_CONFIGS["sweep"], grid=[99]),
            "error: config.grid[0]: s=99 outside [0, 7]",
        ),
        "planar_v_zero": ("construct", {"design": {"family": "bibd_transpose", "v": 0}}, "v=0"),
        "planar_v_negative": ("construct", {"design": {"family": "bibd_transpose", "v": -3}}, "v=-3"),
        "planar_v_one": ("construct", {"design": {"family": "bibd_transpose", "v": 1}}, "v=1"),
        "design_csv_cell": ("validate", {"design": FANO, "design_csv": str(bad_csv)}, str(bad_csv)),
        "dataset_csv_cell": ("train", dict(train, dataset={"path": str(bad_csv)}), str(bad_csv)),
        "dataset_csv_fractional_label": (
            "train",
            dict(train, dataset={"path": str(fractional_csv)}),
            f"{fractional_csv}: labels",
        ),
        "dataset_csv_one_class": (
            "train",
            dict(train, dataset={"path": str(one_class_csv)}),
            f"{one_class_csv}: labels",
        ),
        "family_not_a_string": ("construct", {"design": {"family": ["bibd_transpose"], "v": 7}}, "'family'"),
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "negative_seed",
        "negative_design_seed",
        "negative_dataset_seed",
        "negative_dataset_dim",
        "dataset_one_class",
        "dataset_fewer_samples_than_classes",
        "negative_learning_rate",
        "train_m_zero",
        "train_q_one",
        "train_iterations_zero",
        "train_repetitions_zero",
        "train_no_schemes",
        "sweep_unknown_grid_kind",
        "sweep_set_draws_zero",
        "sweep_matrix_draws_zero",
        "sweep_exact_scheme",
        "sweep_empty_grid",
        "sweep_m_zero",
        "sweep_no_schemes",
        "bounds_m_zero",
        "bounds_empty_s_grid",
        "construct_m_zero",
        "construct_scheme_refused_by_the_design",
        "validate_m_zero",
        "coset_design_without_m",
        "bibd_design_without_v",
        "inline_difference_set_without_v",
        "bounds_negative_epsilon",
        "bounds_epsilon_one",
        "bounds_repeated_kind",
        "bounds_unknown_kind",
        "bounds_s_outside_the_design",
        "sweep_s_outside_the_design",
        "encoding_meta_negative_seed",
        "encoding_meta_unknown_scheme",
        "encoding_meta_null_seed",
        "encoding_meta_bad_v1_policy",
        "encoding_meta_other_scheme_key",
        "encoding_meta_exact",
        "encoding_meta_other_scheme_pm1_found",
        "planar_v_zero",
        "planar_v_negative",
        "planar_v_one",
        "design_csv_cell",
        "dataset_csv_cell",
        "dataset_csv_fractional_label",
        "dataset_csv_one_class",
        "difference_set_file_strings",
        "difference_set_file_floats",
        "family_not_a_string",
    ],
)
def test_bad_input_exits_2(tmp_path, capsys, case):
    command, config, named = _bad_input(tmp_path, case)
    capsys.readouterr()
    rc, out = run_cli(tmp_path, command, config, out="check")
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()  # refused before the first output


def _scheme_entry_config(tmp_path, place, entry):
    """A config whose scheme entry at one place is entry, and the path of
    that entry; "encoding.json" stores it in the meta validate reads."""
    if place == "construct.scheme":
        return "construct", {"design": BIREG8, "m": 2, "scheme": entry}, "config.scheme"
    if place == "sweep.schemes[]":
        config = dict(FIXED_POINT_CONFIGS["sweep"], schemes=[{"scheme": "baseline"}, entry])
        return "sweep", config, "config.schemes[1]"
    if place == "train.schemes[]":
        return "train", dict(FIXED_POINT_CONFIGS["train"], schemes=[entry]), "config.schemes[0]"
    made = _construct_with_encoding(tmp_path, scheme={"scheme": entry["scheme"]})
    meta = json.loads((made / "encoding.json").read_text())
    (made / "encoding.json").write_text(json.dumps(dict(meta, **entry)))
    config = {"design": BIREG8, "m": 2, "seed": 3, "encoding_csv": str(made / "encoding.csv")}
    return "validate", dict(config, encoding_meta=str(made / "encoding.json")), "encoding_meta"


@pytest.mark.parametrize("place", ["construct.scheme", "sweep.schemes[]", "train.schemes[]", "encoding.json"])
@pytest.mark.parametrize(
    "entry, key",
    [
        pytest.param({"scheme": "baseline", "epsilon": 0.5}, "epsilon", id="baseline-epsilon"),
        pytest.param({"scheme": "random_diagonal", "v1_policy": "gaussian"}, "v1_policy", id="diagonal-v1_policy"),
        pytest.param({"scheme": "nullspace_hadamard", "epsilon": 0.0}, "epsilon", id="nullspace-epsilon"),
    ],
)
def test_another_schemes_key_is_refused_by_path(tmp_path, capsys, place, entry, key):
    command, config, where = _scheme_entry_config(tmp_path, place, entry)
    capsys.readouterr()
    rc, out = run_cli(tmp_path, command, config, out="check")
    assert rc == 2
    assert f"error: {where}.{key} belongs to " in capsys.readouterr().err
    assert not out.exists()


def test_construct_refuses_epsilon_outside_the_diagonal_law_before_writing(tmp_path, capsys):
    config = {"design": FANO, "m": 2, "scheme": {"scheme": "random_diagonal", "epsilon": 1.5}}
    rc, out = run_cli(tmp_path, "construct", config)
    assert rc == 2
    assert "error: config.scheme.epsilon must lie in [0, 1), got 1.5" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_refuses_negative_seed(tmp_path):
    rc, _ = run_cli(tmp_path, "construct", {"design": FANO}, seed=-1)
    assert rc == 2


def test_seed_flag_gets_the_config_seed_check(tmp_path, capsys):
    # --seed goes through the same 64-bit check as the config's "seed", so no
    # resolved_config.json is written that the same command would refuse
    rc, out = run_cli(tmp_path, "construct", {"design": FANO}, seed=99999999999999999999)
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


def test_program_errors_are_not_reported_as_bad_input(tmp_path, monkeypatch):
    def broken(A, cfg):
        raise TypeError("a bug in the program")

    monkeypatch.setattr("gradcoding.cli.sweep_error", broken)
    config = {"design": FANO, "m": 2, "grid_kind": "s", "grid": [0], "schemes": [{"scheme": "baseline"}]}
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


def test_bounds_runs_at_a_huge_m(tmp_path):
    # the lower bound takes O(n delta) steps, not one per u = 1..m
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"design": FANO, "m": 10**12, "s_grid": [0, 3, 7]}))
    command = ["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")]
    proc = subprocess.run(
        [sys.executable, "-m", "gradcoding", *command], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_csv_rows(tmp_path / "o" / "bounds.csv")
    assert [r["scheme"] for r in rows if r["x"] == "3.0"] == ["bibd_upper", "baseline_bibd", "lower"]


def test_bounds_out_of_range_s_exits_2(tmp_path):
    config = {"design": {"family": "bibd_transpose", "v": 7}, "m": 2, "s_grid": [8]}
    rc, _ = run_cli(tmp_path, "bounds", config)
    assert rc == 2


def test_bounds_default_kinds_reach_s_equal_n(tmp_path):
    config = {"design": {"family": "bibd_transpose", "v": 13}, "m": 2, "s_grid": [0, 1, 3, 6, 12, 13]}
    rc, out = run_cli(tmp_path, "bounds", config)
    assert rc == 0
    rows = read_csv_rows(out / "bounds.csv")
    at_n = [float(r["upper_bound"]) for r in rows if r["scheme"] == "bibd_upper" and r["x"] == "13.0"]
    assert at_n == [26.0]  # mk: the error when no worker survives


def test_bounds_epsilon_guard_exits_2(tmp_path, capsys):
    config = {
        "design": {"family": "bibd_transpose", "v": 7},
        "m": 2,
        "s_grid": [0],
        "epsilon": 0.1,
        "kinds": ["bibd_upper"],
    }
    rc, out = run_cli(tmp_path, "bounds", config)
    assert rc == 2
    assert "error: config.kinds[0]: bibd_upper does not apply" in capsys.readouterr().err
    assert not out.exists()


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
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["schemes"][0]["matrix_draws"] == 2
    rc2, out2 = run_cli(tmp_path, "sweep", resolved, out="again")
    assert rc2 == 0
    assert (out / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()


def test_sweep_exhaustive_over_cap_exits_2(tmp_path, capsys):
    config = {
        "design": {"family": "bibd_transpose", "v": 91},
        "m": 2,
        "grid_kind": "s",
        "grid": [5],
        "schemes": [{"scheme": "random_diagonal"}],
        "set_draws": "all",
    }
    rc, out = run_cli(tmp_path, "sweep", config)
    assert rc == 2
    assert "error: config.set_draws='all' would enumerate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(FIXED_POINT_CONFIGS))
def test_charts_need_no_switch(tmp_path, capsys, command):
    config = FIXED_POINT_CONFIGS[command]
    rc, _ = run_cli(tmp_path, command, dict(config, emit_svg=True), out="key")
    assert rc == 2
    assert "unknown config keys: emit_svg" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, command, config, out="flag", extra=["--svg"])
    assert exc.value.code == 2
    assert "--svg" in capsys.readouterr().err
    rc, out = run_cli(tmp_path, command, config, out="chart")
    assert rc == 0
    charts = sorted(p.name for p in out.glob("*.svg"))
    assert charts == ([f"{command}.svg"] if command in ("sweep", "bounds", "train") else [])
    for name in charts:
        text = (out / name).read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text


@pytest.mark.parametrize(
    "command, key, value",
    [
        pytest.param("sweep", "scheme", {"scheme": "baseline"}, id="sweep-scheme"),
        pytest.param("sweep", "matrix_draws", 2, id="sweep-matrix_draws"),
        pytest.param("train", "scheme", {"scheme": "exact"}, id="train-scheme"),
        pytest.param("validate", "scheme", {"scheme": "baseline"}, id="validate-scheme"),
    ],
)
def test_removed_keys_are_refused_by_name(tmp_path, capsys, command, key, value):
    rc, _ = run_cli(tmp_path, command, dict(FIXED_POINT_CONFIGS[command], **{key: value}))
    assert rc == 2
    assert f"unknown config keys: {key}" in capsys.readouterr().err


def test_sweep_requires_exactly_one_scheme_key(tmp_path, capsys):
    base = {
        "design": {"family": "bibd_transpose", "v": 7},
        "m": 2,
        "grid_kind": "s",
        "grid": [0],
    }
    rc, _ = run_cli(tmp_path, "sweep", base, out="a")
    assert rc == 2
    assert "missing config keys: schemes" in capsys.readouterr().err
    rc, _ = run_cli(tmp_path, "sweep", dict(base, schemes=[]), out="b")
    assert rc == 2
    assert "schemes must be a nonempty list" in capsys.readouterr().err


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
    }
    rc, out = run_cli(tmp_path, "train", config)
    assert rc == 0
    rows = read_csv_rows(out / "train.csv")
    assert len(rows) == 12  # 2 schemes x 2 repetitions x 3 recorded losses
    summary = json.loads((out / "summary.json").read_text())
    assert {s["scheme"] for s in summary["schemes"]} == {"baseline", "exact"}
    assert all(s["diverged_runs"] == 0 for s in summary["schemes"])
    assert (out / "train.svg").exists()


@pytest.mark.parametrize(
    "override, key",
    [
        ({"dataset": {"samples": 1e12, "dim": 3, "classes": 3}}, "dataset.samples"),
        ({"iterations": 1e12}, "iterations"),
    ],
)
def test_train_refuses_sizes_over_the_cap(tmp_path, capsys, override, key):
    # both sizes pass the 64-bit check; the first would allocate a
    # 1e12 x 3 feature matrix and the second a 1 x (1e12 + 1) loss table
    config = {
        "design": {"family": "bibd_transpose", "v": 7},
        "m": 2,
        "q": 0.25,
        "iterations": 2,
        "schemes": [{"scheme": "baseline"}],
        **override,
    }
    rc, out = run_cli(tmp_path, "train", config)
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (out / "train.csv").exists()


# ---------------------------------------------------------------------------
# validate


NULLSPACE = {"scheme": "nullspace_hadamard"}
RANDOM_DIAGONAL = {"scheme": "random_diagonal", "epsilon": 0.1}


def _construct_with_encoding(tmp_path, out="made", design=BIREG8, scheme=NULLSPACE):
    """construct's artifacts; a null scheme writes the design only."""
    config = {"design": design, "m": 2, "scheme": scheme, "seed": 3}
    rc, out_dir = run_cli(tmp_path, "construct", config, out=out)
    assert rc == 0
    return out_dir


def test_validate_passes_on_intact_artifacts(tmp_path):
    made = _construct_with_encoding(tmp_path)
    config = {
        "design": BIREG8,
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


def _flip_first_cell(mat):
    mat[0, 0] = 1.0 - mat[0, 0]
    return mat


def _break_symmetry(mat):
    mat[0, 1] = 1.0 - mat[0, 1]
    return mat


def _fill_off_support(mat):
    mat[tuple(np.argwhere(mat == 0.0)[0])] = 1.0
    return mat


def _scale_block0_column(mat):
    mat[: BIREG8["k"], 0] *= 1.5  # every support entry alike, so only the magnitude breaks
    return mat


def _copy_block0_into_block1(mat):
    mat[BIREG8["k"] :] = mat[: BIREG8["k"]]
    return mat


def _scale_one_entry(mat):
    mat[tuple(np.argwhere(mat != 0.0)[0])] *= 1.5
    return mat


def _flip_pm1_found(meta):
    return dict(meta, pm1_found=not meta["pm1_found"])


# case: (design, scheme, the file corrupted, how, the checks that must fail)
CORRUPTIONS = {
    "bibd-flipped-cell": (FANO, None, "design.csv", _flip_first_cell, {"row_sums", "gram_identity"}),
    "srg-asymmetric": ({"family": "srg_adjacency", "p": 13}, None, "design.csv", _break_symmetry, {"symmetry"}),
    "biregular-flipped-cell": (BIREG8, None, "design.csv", _flip_first_cell, {"matches_construction"}),
    "coset-flipped-cell": (
        {"family": "coset_bipartite", "k": 3, "delta": 2},
        None,
        "design.csv",
        _flip_first_cell,
        {"matches_construction"},
    ),
    "encoding-shape": (BIREG8, NULLSPACE, "encoding.csv", lambda mat: mat[:-1], {"shape"}),
    "encoding-support": (BIREG8, NULLSPACE, "encoding.csv", _fill_off_support, {"support"}),
    "encoding-diagonal_law": (BIREG8, RANDOM_DIAGONAL, "encoding.csv", _scale_block0_column, {"diagonal_law"}),
    "encoding-full_set_exact": (BIREG8, NULLSPACE, "encoding.csv", _copy_block0_into_block1, {"full_set_exact"}),
    "encoding-rebuild_match": (BIREG8, NULLSPACE, "encoding.csv", _scale_one_entry, {"rebuild_match"}),
    "encoding-pm1_found": (BIREG8, NULLSPACE, "encoding.json", _flip_pm1_found, {"pm1_found"}),
}


def _corrupted_artifacts(tmp_path, case):
    """A validate config for artifacts with one corrupted file, and the
    names of the checks that must fail on it."""
    design, scheme, name, corrupt, failing = CORRUPTIONS[case]
    made = _construct_with_encoding(tmp_path, design=design, scheme=scheme)
    if name == "encoding.json":
        (made / name).write_text(json.dumps(corrupt(json.loads((made / name).read_text()))))
    else:
        write_matrix_csv(made / name, corrupt(read_matrix_csv(made / name)))
    config = {"design": design, "m": 2, "seed": 3}
    if name == "design.csv":
        return dict(config, design_csv=str(made / name)), {f"design_csv:{c}" for c in failing}
    config = dict(config, encoding_csv=str(made / "encoding.csv"), encoding_meta=str(made / "encoding.json"))
    return config, {f"encoding:{c}" for c in failing}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_validate_check_fails_on_corrupted_file(tmp_path, case):
    config, failing = _corrupted_artifacts(tmp_path, case)
    rc, out = run_cli(tmp_path, "validate", config, out="check")
    assert rc == 1
    report = json.loads((out / "validation_report.json").read_text())
    assert report["passed"] is False
    assert failing <= {c["name"] for c in report["checks"] if not c["passed"]}


def test_validate_checks_survive_python_O(tmp_path):
    # the checks are runtime checks, not asserts, so -O does not strip them
    config, failing = _corrupted_artifacts(tmp_path, "encoding-full_set_exact")
    (tmp_path / "validate.json").write_text(json.dumps(config))
    command = ["validate", "--config", str(tmp_path / "validate.json"), "--out", str(tmp_path / "check")]
    proc = subprocess.run([sys.executable, "-O", "-m", "gradcoding", *command], env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    report = json.loads((tmp_path / "check" / "validation_report.json").read_text())
    assert failing <= {c["name"] for c in report["checks"] if not c["passed"]}


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


def test_validate_requires_paired_encoding_inputs(tmp_path, capsys):
    made = _construct_with_encoding(tmp_path)
    config = {"design": BIREG8, "m": 2, "encoding_csv": str(made / "encoding.csv")}
    rc, out = run_cli(tmp_path, "validate", config, out="check")
    assert rc == 2
    assert "error: config.encoding_csv and encoding_meta go together" in capsys.readouterr().err
    assert not out.exists()


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


# ---------------------------------------------------------------------------
# the configs shipped with the repository


# the benchmark runs these configs, so a schema change that breaks one fails here first
BENCH_WORKLOADS = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WORKLOADS"]
SHIPPED_CONFIGS = {
    **{f"recipes/{p.name}": json.loads(p.read_text()) for p in sorted((ROOT / "recipes").glob("*.json"))},
    **{f"bench/{name}": w.config(0) for name, w in BENCH_WORKLOADS.items()},
}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_configs_parse_under_their_schema(name):
    doc = SHIPPED_CONFIGS[name]
    design, _ = parse_config(doc["command"], doc)  # what main parses a config with
    assert design.family == doc["design"]["family"]
