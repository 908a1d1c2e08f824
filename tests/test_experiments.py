import csv

import pytest

from supermodeling import experiments
from supermodeling.cli import main


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


class TestCli:
    def test_simulate_reproduces_experiment_prediction(self, tmp_path):
        grid = ["--set", "nx=8", "--set", "ny=8", "--set", "nz=8", "--set", "steps=2"]
        run, sim = tmp_path / "run", tmp_path / "sim"
        assert main(["experiment", *grid, "--out", str(run)]) == 0
        assert main(["simulate", *grid, "--out", str(sim), "--gt", str(run / "gt"),
                     "--coupling", str(run / "trained_coupling.json")]) == 0
        for name in ("curves.csv", "volume_diff.csv"):
            assert (sim / name).read_bytes() == (run / name).read_bytes(), name


# training.csv of the run above: every step's l2_error, and the full row
# (coefficients c_11..c_33, l2_error, total, proliferating, quiescent) that
# ends each epoch; before_after.csv: l2 and volume differences per step.
TRAINING_L2_ERROR = [
    0.0047395505875283345, 0.005260643470556468, 0.005341786312534245,
    0.0053330170725231565, 0.00535193932071059, 0.005373911754810491,
    0.0047395505875283345, 0.00526852375556286, 0.005354499115136241,
    0.005348406521389362, 0.005368670751049792, 0.005391327089542931,
]
TRAINING_FINAL_ROWS = [
    [0.0, 0.49974738145892883, 0.49940180545189855, 0.49986311192612004, 0.0,
     0.49951697827234715, 0.49690043251400245, 0.49689987486725984, 0.0,
     0.005373911754810491, 22.624926937309553, 8.64727407094672, 13.977652866362833],
    [0.0, 0.49949450715516375, 0.4988000718287656, 0.49972614623508843, 0.0,
     0.49903090530498356, 0.49378225583837587, 0.49378145023466924, 0.0,
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
