import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import supermodeling
from supermodeling import engine, experiments, groundtruth
from supermodeling.cli import main
from supermodeling.engine import CouplingMatrix, SubModelEnsemble, simulate, supermodel_output
from supermodeling.groundtruth import generate_gt, gt_at, step_error


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRegression:
    """An 8^3 run pinned to the values of the np.pad / np.gradient kernel."""

    def test_training_and_before_after_pinned(self, tmp_path):
        config = experiments.ExperimentConfig(
            nx=8, ny=8, nz=8, steps=6, epochs=2, tol=1e-12, keep_every=3,
            variant="V2", out_dir=str(tmp_path),
        )
        experiments.run_experiment(config)

        training = read_rows(tmp_path / "training.csv")
        assert [float(r["l2_error"]) for r in training] == pytest.approx(
            TRAINING_L2_ERROR, rel=1e-12)
        final = [r for r in training if r["step"] == "6"]
        assert len(final) == len(TRAINING_FINAL_ROWS)
        for row, expected in zip(final, TRAINING_FINAL_ROWS):
            values = [float(v) for k, v in row.items() if k not in ("epoch", "step")]
            assert values == pytest.approx(expected, rel=1e-12)

        before_after = read_rows(tmp_path / "before_after.csv")
        columns = ("l2_before", "l2_after", "volume_diff_before", "volume_diff_after")
        assert len(before_after) == len(BEFORE_AFTER)
        for row, expected in zip(before_after, BEFORE_AFTER):
            assert [float(row[c]) for c in columns] == pytest.approx(expected, rel=1e-12)

        volume_diff = read_rows(tmp_path / "volume_diff.csv")
        assert [float(r["volume_diff"]) for r in volume_diff] == pytest.approx(
            VOLUME_DIFF, rel=1e-12)

        curves = read_rows(tmp_path / "curves.csv")
        columns = [f"{who}_{kind}" for who in ("gt", "sm")
                   for kind in ("total", "proliferating", "quiescent")]
        assert len(curves) == len(CURVES_GT_SM)
        for row, expected in zip(curves, CURVES_GT_SM):
            assert [float(row[c]) for c in columns] == pytest.approx(expected, rel=1e-12)


GRID = ["--set", "nx=8", "--set", "ny=8", "--set", "nz=8", "--set", "steps=2"]
# the key of the exclude-self nudge, which manifests and trained_coupling.json
# files from before its removal carry
RETIRED_KEY = "exclude_self_in_nudge"


class TestBadConfig:
    @pytest.mark.parametrize("bad", [
        {"c_min": 0.9, "c_max": 0.1}, {"a_rate": 1.5}, {"tol": 0.0},
        {"n_submodels": 0}, {"epochs": 0}, {"dt": 0.0}, {"dt": -0.1},
        {"steps": 0}, {"keep_every": 0}, {"k_nudge": -1.0}, {"bump_width": 0.0},
        {"oxygen_ramp_radius": 0.0}, {"vessel_core_radius": -0.3},
    ])
    def test_rejected_before_any_work(self, tmp_path, bad):
        with pytest.raises(ValueError):
            experiments.run_experiment(experiments.ExperimentConfig(
                **{"nx": 8, "ny": 8, "nz": 8, "steps": 2, **bad},
                out_dir=str(tmp_path / "run")))
        sets = [arg for key, value in bad.items() for arg in ("--set", f"{key}={value}")]
        assert main(["train", *GRID, *sets, "--out", str(tmp_path / "cli")]) != 0
        for run in ("run", "cli"):
            assert not (tmp_path / run).exists()

    def test_unknown_override_key_exits_with_message(self, tmp_path, capsys):
        assert main(["train", *GRID, "--set", "nxx=8", "--out", str(tmp_path / "cli")]) == 2
        assert "unknown config key 'nxx'" in capsys.readouterr().err
        assert not (tmp_path / "cli").exists()

    @pytest.mark.parametrize("setting, shown", [
        ("nx=abc", "option nx must be an integer, got 'abc'"),
        ("dt=0.1x", "option dt must be a number, got '0.1x'"),
    ])
    def test_unparsable_number_exits_naming_the_option(self, tmp_path, capsys, setting, shown):
        assert main(["train", *GRID, "--set", setting, "--out", str(tmp_path / "cli")]) == 2
        assert shown in capsys.readouterr().err
        assert not (tmp_path / "cli").exists()

    @pytest.mark.parametrize("text, shown", [
        ("[ensemble]\nn_submodel = 8\n", "unknown config key 'n_submodel' in section [ensemble]"),
        ("[grid]\nsteps = 8\n", "unknown config key 'steps' in section [grid]"),
        ("[ensembles]\nn_submodels = 8\n", "unknown config section [ensembles]"),
        ("[grid]\nnx = abc\n", "option nx must be an integer, got 'abc'"),
        (f"[training]\n{RETIRED_KEY} = false\n",
         f"unknown config key '{RETIRED_KEY}' in section [training]"),
    ])
    def test_unknown_config_file_key_exits_with_message(self, tmp_path, capsys, text, shown):
        path = tmp_path / "config.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(shown)):
            experiments.load_config(path)
        assert main(["train", "--config", str(path), *GRID, "--out", str(tmp_path / "cli")]) == 2
        assert shown in capsys.readouterr().err
        assert not (tmp_path / "cli").exists()


def test_manifest_reloads_as_the_runs_config(tmp_path):
    config = experiments.ExperimentConfig(nx=8, ny=8, nz=8, steps=2, epochs=1, seed=3,
                                          k_nudge=0.7, out_dir=str(tmp_path / "run"))
    manifest = experiments.run_experiment(config) / "manifest.ini"
    text = manifest.read_text()
    assert text.endswith("\n[run]\nstatus = completed\n")
    assert experiments.load_config(manifest) == config
    # a manifest written when [run] also named the tendency kernel
    old = tmp_path / "old.ini"
    old.write_text(text.replace("[run]\n", "[run]\nkernel = numpy (cc failed: no compiler)\n"))
    assert experiments.load_config(old) == config
    # a rerun from the manifest writes the same CSVs
    rerun = tmp_path / "rerun"
    assert main(["experiment", "--config", str(manifest), "--out", str(rerun)]) == 0
    names = sorted(path.name for path in (tmp_path / "run").glob("*.csv"))
    assert "training.csv" in names and "before_after.csv" in names
    for name in names:
        assert (rerun / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


class TestCouplingFile:
    def saved(self, tmp_path):
        rng = np.random.default_rng(5)
        c = rng.uniform(0.1, 0.9, size=(4, 4))
        np.fill_diagonal(c, 0.0)
        cm = CouplingMatrix(c=c, k_nudge=0.7, a_rate=0.95, c_min=0.05, c_max=0.85)
        path = tmp_path / "trained_coupling.json"
        experiments.save_coupling(cm, path)
        return cm, path

    def test_round_trip_keeps_every_field_and_the_bits_of_c(self, tmp_path):
        cm, path = self.saved(tmp_path)
        loaded = experiments.load_coupling(path)
        assert loaded.c.tobytes() == cm.c.tobytes()
        for field in dataclasses.fields(CouplingMatrix):
            if field.name != "c":
                assert getattr(loaded, field.name) == getattr(cm, field.name), field.name

    @pytest.mark.parametrize("edit, shown", [
        (lambda payload: {**payload, RETIRED_KEY: False}, f"unknown key '{RETIRED_KEY}'"),
        (lambda payload: {**payload, RETIRED_KEY: True}, f"unknown key '{RETIRED_KEY}'"),
        (lambda payload: {k: v for k, v in payload.items() if k != "c_min"},
         "missing key 'c_min'"),
        (lambda payload: [], "missing key 'a_rate', missing key 'c'"),
    ], ids=["retired-false", "retired-true", "no-c_min", "list"])
    def test_keys_other_than_the_fields_rejected(self, tmp_path, edit, shown):
        _cm, path = self.saved(tmp_path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=re.escape(shown)) as err:
            experiments.load_coupling(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("edit, shown", [
        (lambda payload: {**payload, "c": [row[:2] if i == 1 else row
                                           for i, row in enumerate(payload["c"])]},
         "with a sequence"),
        (lambda payload: {**payload, "k_nudge": "0.7"}, "k_nudge must be a number"),
        (lambda payload: {**payload, "c": [[1.0] + row[1:] if i == 0 else row
                                           for i, row in enumerate(payload["c"])]},
         "diagonal"),
        (lambda payload: {**payload, "c_min": 0.9, "c_max": 0.1}, "inverted"),
    ], ids=["ragged-c", "string-k_nudge", "nonzero-diagonal", "inverted-clamps"])
    def test_bad_values_rejected_naming_the_file(self, tmp_path, edit, shown):
        _cm, path = self.saved(tmp_path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=re.escape(shown)) as err:
            experiments.load_coupling(path)
        assert str(err.value).startswith(f"trained coupling {path}")


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    assert main(["generate-gt", *GRID, "--out", str(out)]) == 0
    return out / "gt"


class TestCli:
    @pytest.mark.parametrize("command", ["train", "simulate"])
    @pytest.mark.parametrize("override, shown", [
        ("nx=9", "nx=9"), ("h=0.5", "h=0.5"), ("dt=0.05", "dt 0.05"),
    ])
    def test_reference_must_match_config(self, tmp_path, capsys, archive, command,
                                         override, shown):
        argv = [command, *GRID, "--set", override, "--out", str(tmp_path), "--gt", str(archive)]
        assert main(argv) != 0
        err = capsys.readouterr().err
        assert "reference archive" in err and shown in err
        assert not (tmp_path / "training.csv").exists()

    @pytest.mark.parametrize("command", ["train", "simulate"])
    def test_reference_must_start_from_config_initial_state(self, tmp_path, capsys, archive,
                                                           command):
        argv = [command, *GRID, "--set", "bump_width=0.3", "--set", "core_oxygen=0",
                "--out", str(tmp_path), "--gt", str(archive)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "reference archive" in err and "another initial state" in err
        assert not (tmp_path / "training.csv").exists()
        assert not (tmp_path / "curves.csv").exists()

    @pytest.mark.parametrize("command, given", [
        ("train", True), ("simulate", True), ("simulate", False),
    ])
    def test_missing_reference_archive_exits_with_its_path(self, tmp_path, capsys, command,
                                                          given):
        out = tmp_path / "cli"
        missing = tmp_path / "no_such_archive" if given else out / "gt"
        argv = [command, *GRID, "--out", str(out)] + (["--gt", str(missing)] if given else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "does not exist" in err
        # nothing was generated in its place
        assert not out.exists()

    def test_truncated_snapshot_exits_with_its_path(self, tmp_path, capsys, archive):
        copy = tmp_path / "gt"
        shutil.copytree(archive, copy)
        snapshot = copy / "gt_000002.f64"
        snapshot.write_bytes(snapshot.read_bytes()[:-8])
        assert main(["train", *GRID, "--out", str(tmp_path / "cli"), "--gt", str(copy)]) == 2
        err = capsys.readouterr().err
        assert str(snapshot) in err and "4096" in err and "4088" in err
        assert not (tmp_path / "cli" / "training.csv").exists()

    def test_missing_coupling_exits_with_its_path(self, tmp_path, capsys, archive):
        out = tmp_path / "cli"
        assert main(["simulate", *GRID, "--out", str(out), "--gt", str(archive)]) == 2
        err = capsys.readouterr().err
        assert str(out / "trained_coupling.json") in err and "does not exist" in err
        assert not (out / "curves.csv").exists()

    def test_coupling_with_a_retired_key_exits_with_its_message(self, tmp_path, capsys,
                                                                 archive):
        path = tmp_path / "trained_coupling.json"
        experiments.save_coupling(CouplingMatrix.uniform(3, 0.5, k_nudge=0.9), path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, RETIRED_KEY: False}))
        out = tmp_path / "cli"
        assert main(["simulate", *GRID, "--out", str(out), "--gt", str(archive),
                     "--coupling", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"unknown key '{RETIRED_KEY}'" in err
        assert not (out / "curves.csv").exists()

    def test_simulate_rejects_a_ragged_coupling_file(self, tmp_path, capsys, archive):
        path = tmp_path / "trained_coupling.json"
        experiments.save_coupling(CouplingMatrix.uniform(3, 0.5, k_nudge=0.9), path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, "c": [[0.0, 0.5], [0.5, 0.0, 0.5], [0.5]]}))
        out = tmp_path / "cli"
        assert main(["simulate", *GRID, "--out", str(out), "--gt", str(archive),
                     "--coupling", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"trained coupling {path}" in err
        assert not (out / "curves.csv").exists()

    def test_simulate_reproduces_experiment_prediction(self, tmp_path):
        run, sim = tmp_path / "run", tmp_path / "sim"
        assert main(["experiment", *GRID, "--out", str(run)]) == 0
        assert main(["simulate", *GRID, "--out", str(sim), "--gt", str(run / "gt"),
                     "--coupling", str(run / "trained_coupling.json")]) == 0
        for name in ("curves.csv", "volume_diff.csv"):
            assert (sim / name).read_bytes() == (run / name).read_bytes(), name


@pytest.mark.parametrize("nudge", [True, False])
def test_prediction_streams_the_errors_of_its_b_trajectory(nudge):
    # keep_every=3: the reference is interpolated at steps 1, 2, 4 and 5
    config = experiments.ExperimentConfig(nx=8, ny=8, nz=8, steps=6, keep_every=3,
                                          variant="V2", nudge_in_prediction=nudge)
    _spec, reference, system, initial = experiments.build_setup(config)
    ensemble = SubModelEnsemble.identical_start(
        system, experiments.instantiate_submodels(reference, config), initial)
    gt = generate_gt(system, reference, initial, config.dt, config.steps, config.keep_every)
    cm = experiments.initial_coupling(config)
    run = experiments.predict(ensemble, cm, gt, config)

    def averaged_b(_step, ens, _ref):
        return supermodel_output(ens, system.volume_variables)[0]

    trajectory = simulate(ensemble.reset(), cm, gt, config.dt, config.steps,
                          nudge_in_prediction=nudge, each_step=averaged_b)
    l2_error, volume_diff = np.array(
        [step_error(gt_at(gt, k), b, gt.cell_volume) for k, b in enumerate(trajectory)]).T
    assert len(run.volumes) == len(trajectory) == config.steps + 1
    assert np.array_equal(run.l2_error, l2_error)
    assert np.array_equal(run.volume_diff, volume_diff)
    assert np.count_nonzero(l2_error) == config.steps  # only step 0 is exact


def test_nudged_prediction_fetches_each_reference_step_once(monkeypatch):
    config = experiments.ExperimentConfig(nx=8, ny=8, nz=8, steps=6, keep_every=3,
                                          variant="V2")
    _spec, reference, system, initial = experiments.build_setup(config)
    ensemble = SubModelEnsemble.identical_start(
        system, experiments.instantiate_submodels(reference, config), initial)
    gt = generate_gt(system, reference, initial, config.dt, config.steps, config.keep_every)
    fetched, gt_at = [], groundtruth.gt_at

    def counted(gt, n):
        fetched.append(n)
        return gt_at(gt, n)

    # every module that looks the reference up
    for module in (engine, groundtruth, experiments):
        if hasattr(module, "gt_at"):
            monkeypatch.setattr(module, "gt_at", counted)
    experiments.predict(ensemble, experiments.initial_coupling(config), gt, config)
    assert sorted(fetched) == list(range(config.steps + 1))


# training.csv of the run above: every step's l2_error, and the full row
# (coefficients c_1_2..c_3_2, l2_error, total, proliferating, quiescent) that
# ends each epoch; before_after.csv: l2 and volume differences per step;
# volume_diff.csv of the trained prediction; curves.csv: the reference's and
# the trained supermodel's volume triples (total, proliferating, quiescent).
TRAINING_L2_ERROR = [
    0.0047395505875283345, 0.005260643470556468, 0.005341786312534245,
    0.0053330170725231565, 0.00535193932071059, 0.005373911754810491,
    0.0047395505875283345, 0.00526852375556286, 0.005354499115136241,
    0.005348406521389362, 0.005368670751049792, 0.005391327089542931,
]
TRAINING_FINAL_ROWS = [
    [0.49974738145892883, 0.49940180545189855, 0.49986311192612004,
     0.49951697827234715, 0.49690043251400245, 0.49689987486725984,
     0.005373911754810491, 22.624926937309553, 8.64727407094672, 13.977652866362833],
    [0.49949450715516375, 0.4988000718287656, 0.49972614623508843,
     0.49903090530498356, 0.49378225583837587, 0.49378145023466924,
     0.005391327089542931, 22.62500763348212, 8.647267714615454, 13.977739918866666],
]
BEFORE_AFTER = [
    [0.0, 0.0, 0.0, 0.0],
    [0.0047395505875283345, 0.0047395505875283345, -0.029172405155989622, -0.029172405155989622],
    [0.005260050293022211, 0.0052758578446657975, -0.033129237556831725, -0.03320242428623388],
    [0.005339176710838123, 0.005364693763097705, -0.03440094639690727, -0.034519362215377214],
    [0.005327295556725478, 0.005358162475225349, -0.03318219810155654, -0.03332462054976304],
    [0.005342588880528085, 0.005376083674937334, -0.03386962599501331, -0.034024423432228446],
    [0.005360735928335781, 0.005395503849348834, -0.034758475046196224, -0.03491958941638984],
]
VOLUME_DIFF = [
    0.0, -0.029172405155989622, -0.03320242428623388, -0.034519362215377214,
    -0.03332462054976304, -0.034024423432228446, -0.03491958941638984,
]
CURVES_GT_SM = [
    [22.1120268198679, 8.159451198054041, 13.952575621813859,
     22.1120268198679, 8.159451198054041, 13.952575621813859],
    [22.19061927527893, 8.238096904614057, 13.952522370664873,
     22.219791680434923, 8.244201181895964, 13.97559049853896],
    [22.269211730689957, 8.316742611174071, 13.952469119515888,
     22.30241415497619, 8.324387315778292, 13.978026839197899],
    [22.347804186100987, 8.395388317734085, 13.952415868366902,
     22.382323548316364, 8.404055311764203, 13.97826823655216],
    [22.428571940051548, 8.476368536967481, 13.952203403084066,
     22.46189656060131, 8.483657454177198, 13.978239106424112],
    [22.509339694002104, 8.557348756200875, 13.951990937801227,
     22.54336411743433, 8.565348487560442, 13.978015629873887],
    [22.59010744795266, 8.638328975434272, 13.95177847251839,
     22.62502703736905, 8.64726624604149, 13.977760791327562],
]


def test_import_loads_no_process_pool_module():
    # importing multiprocessing alone adds 20-30 ms to every run's set-up
    src = Path(supermodeling.__file__).resolve().parent.parent
    code = ("import sys, supermodeling; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_csvs_do_not_depend_on_the_blas_settings(tmp_path):
    # with one BLAS thread per CPU, the norms and coupling products may sum in
    # another order than with one BLAS thread
    src = Path(supermodeling.__file__).resolve().parent.parent
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    envs = {"unset": unset, "one": {**unset, **dict.fromkeys(BLAS_THREADS, "1")}}
    for name, env in envs.items():
        subprocess.run([sys.executable, "-m", "supermodeling.cli", "experiment",
                        "--set", "epochs=1", "--set", "steps=5", "--out", str(tmp_path / name)],
                       env={**env, "PYTHONPATH": str(src)}, capture_output=True, timeout=120,
                       check=True)
    names = sorted(path.name for path in (tmp_path / "one").glob("*.csv"))
    assert "training.csv" in names
    assert names == sorted(path.name for path in (tmp_path / "unset").glob("*.csv"))
    for name in names:
        assert (tmp_path / "unset" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_import_sets_one_blas_thread_unless_the_environment_sets_it():
    src = Path(supermodeling.__file__).resolve().parent.parent
    code = "import os, supermodeling; print([os.environ[k] for k in %r])" % (BLAS_THREADS,)
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    for preset, expected in (({}, ["1", "1", "1"]), ({"OMP_NUM_THREADS": "2"}, ["1", "2", "1"])):
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**unset, **preset, "PYTHONPATH": str(src)}, timeout=60,
                                check=True)
        assert result.stdout.strip() == str(expected)
