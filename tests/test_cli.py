import os

import numpy as np
import pytest

from conftest import rand_bundle
from spdreg import CovarianceBundle, GenerativeConfig, SymMat, regress, sample_bundle, simgen
from spdreg.bundle import read_covb, write_covb
from spdreg.cli import main, read_model, write_model


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_default_config_shape(self, tmp_path, capsys):
        out = tmp_path / "b.covb"
        assert run("simulate", "--out", out) == 0
        bundle = read_covb(out)
        assert bundle.n == 100 and bundle.dim == 5
        assert "n=100 p=5" in capsys.readouterr().out

    def test_seed_repeat_byte_identical(self, tmp_path):
        o1, o2 = tmp_path / "a.covb", tmp_path / "b.covb"
        assert run("simulate", "--seed", 1, "--out", o1) == 0
        assert run("simulate", "--seed", 1, "--out", o2) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_invalid_source_count_exits_2(self, tmp_path, capsys):
        assert run("simulate", "--q", 7, "--p", 5, "--out", tmp_path / "x") == 2
        assert "q" in capsys.readouterr().err

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 30  # small run\nseed = 5\n")
        out = tmp_path / "b.covb"
        assert run("simulate", "--config", cfg, "--n", "40", "--out", out) == 0
        assert read_covb(out).n == 40

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("banana = 1\n")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "b") == 2
        assert "banana" in capsys.readouterr().err


@pytest.fixture
def bundle_file(tmp_path):
    path = tmp_path / "bundle.covb"
    assert run("simulate", "--seed", 3, "--out", path) == 0
    return path


@pytest.fixture
def rank_deficient_file(tmp_path):
    rng = np.random.default_rng(0)
    mats = []
    for _ in range(12):
        y = rng.standard_normal((4, 2))
        mats.append(SymMat(y @ y.T))
    bundle = CovarianceBundle(
        matrices=mats, labels=rng.standard_normal(12), nominal_rank=2
    )
    path = tmp_path / "lowrank.covb"
    write_covb(path, bundle)
    return path


class TestEval:
    def test_writes_results_csv(self, tmp_path, bundle_file):
        out = tmp_path / "r.csv"
        assert run("eval", "--bundle", bundle_file, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,filter,embedding,rank,fold,lambda,mae,seed"
        assert len(lines) == 11

    def test_deterministic(self, tmp_path, bundle_file):
        o1, o2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run("eval", "--bundle", bundle_file, "--seed", 2, "--out", o1) == 0
        assert run("eval", "--bundle", bundle_file, "--seed", 2, "--out", o2) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_too_many_folds_exits_2(self, tmp_path, bundle_file):
        code = run(
            "eval", "--bundle", bundle_file, "--folds", 150, "--out", tmp_path / "r"
        )
        assert code == 2

    def test_geometric_on_rank_deficient_exits_3(
        self, tmp_path, rank_deficient_file, capsys
    ):
        code = run(
            "eval",
            "--bundle",
            rank_deficient_file,
            "--embedding",
            "geometric",
            "--folds",
            3,
            "--out",
            tmp_path / "r.csv",
        )
        assert code == 3
        assert "SingularMatrix" in capsys.readouterr().err

    def test_wasserstein_rank_error_names_the_bundle_sample(self, tmp_path, capsys):
        # Sample 5 falls in fold 0's training split at this seed, where it
        # was sample 3; the error must name it by its place in the file.
        rng = np.random.default_rng(0)
        mats = [SymMat(y @ y.T) for y in rng.standard_normal((12, 4, 4))]
        mats[5] = SymMat(np.diag([3.0, 2.0, 1.0, 0.0]))
        bundle = CovarianceBundle(mats, rng.standard_normal(12), nominal_rank=4)
        path = tmp_path / "one_low.covb"
        write_covb(path, bundle)
        code = run("eval", "--bundle", path, "--embedding", "wasserstein",
                   "--folds", 3, "--out", tmp_path / "r.csv")
        assert code == 3
        err = capsys.readouterr().err
        assert "RankMismatch" in err and "sample 5:" in err

    def test_wasserstein_handles_rank_deficient(self, tmp_path, rank_deficient_file):
        code = run(
            "eval",
            "--bundle",
            rank_deficient_file,
            "--embedding",
            "wasserstein",
            "--folds",
            3,
            "--out",
            tmp_path / "r.csv",
        )
        assert code == 0

    def test_projection_then_geometric_on_rank_deficient(
        self, tmp_path, rank_deficient_file
    ):
        code = run(
            "eval",
            "--bundle",
            rank_deficient_file,
            "--filter",
            "unsupervised",
            "--rank",
            2,
            "--embedding",
            "geometric",
            "--folds",
            3,
            "--out",
            tmp_path / "r.csv",
        )
        assert code == 0

    def test_supervised_filter_on_rank_deficient_average(self, tmp_path):
        # Every covariance lies in one 3-dimensional subspace of R^5, so
        # the average has rank 3; the filter is fit on its range.
        rng = np.random.default_rng(2)
        u, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        small = rand_bundle(rng, 12, 3)
        path = tmp_path / "lifted.covb"
        write_covb(path, CovarianceBundle(u @ small.matrices @ u.T, small.labels, 3))
        code = run("eval", "--bundle", path, "--filter", "supervised", "--rank", 2,
                   "--folds", 3, "--out", tmp_path / "r.csv")
        assert code == 0

    def test_mne_filter_from_leadfield_file(self, tmp_path, bundle_file):
        from spdreg import Leadfield, write_leadfield

        rng = np.random.default_rng(1)
        lead_path = tmp_path / "lead.txt"
        write_leadfield(lead_path, Leadfield(rng.standard_normal((5, 3))))
        out = tmp_path / "r.csv"
        code = run(
            "eval", "--bundle", bundle_file, "--filter", "mne",
            "--leadfield", lead_path, "--embedding", "geometric",
            "--out", out,
        )
        assert code == 0
        # rank column reports the leadfield's source count
        assert out.read_text().splitlines()[1].split(",")[3] == "3"

    def test_mne_without_leadfield_exits_2(self, tmp_path, bundle_file):
        code = run(
            "eval", "--bundle", bundle_file, "--filter", "mne",
            "--out", tmp_path / "r.csv",
        )
        assert code == 2


class TestFitPredict:
    def test_fit_then_predict_round_trip(self, tmp_path, bundle_file):
        model = tmp_path / "m.txt"
        pred = tmp_path / "p.txt"
        assert run("fit", "--bundle", bundle_file, "--out", model) == 0
        assert run("predict", "--model", model, "--bundle", bundle_file, "--out", pred) == 0
        lines = pred.read_text().splitlines()
        assert lines[0] == "PRED v1 100"
        bundle = read_covb(bundle_file)
        yhat = np.array([float(x) for x in lines[1:]])
        # noise-free log-link data: near-perfect in-sample fit
        assert np.mean(np.abs(yhat - bundle.labels)) < 1e-6 * bundle.labels.std()

    def test_model_file_round_trip(self, tmp_path, bundle_file):
        model_path = tmp_path / "m.txt"
        assert run(
            "fit", "--bundle", bundle_file, "--embedding", "wasserstein",
            "--out", model_path,
        ) == 0
        state = read_model(model_path)
        clone = tmp_path / "m2.txt"
        write_model(clone, state)
        assert model_path.read_bytes() == clone.read_bytes()

    def test_fit_projects_once_and_reuses_training_rows(
        self, tmp_path, bundle_file, monkeypatch, capsys
    ):
        # The train MAE comes from the rows fit_embedding returns, so the
        # training bundle is projected once and never embedded again.
        calls = {"apply": 0, "embed": 0}
        for name in calls:
            inner = getattr(regress, name)

            def counted(*args, _name=name, _inner=inner):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(regress, name, counted)
        model = tmp_path / "m.txt"
        assert run("fit", "--bundle", bundle_file, "--out", model) == 0
        assert calls == {"apply": 1, "embed": 0}
        monkeypatch.undo()
        bundle = read_covb(bundle_file)
        yhat = regress.predict_fold(read_model(model), bundle)
        mae = float(np.mean(np.abs(bundle.labels - yhat)))
        assert f"train_mae={mae:.6g} " in capsys.readouterr().out

    def test_fit_deterministic(self, tmp_path, bundle_file):
        m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        assert run("fit", "--bundle", bundle_file, "--out", m1) == 0
        assert run("fit", "--bundle", bundle_file, "--out", m2) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_missing_bundle_exits_2(self, tmp_path):
        assert run("fit", "--bundle", tmp_path / "nope.covb", "--out", tmp_path / "m") == 2


class TestSweepCommand:
    def test_small_custom_sweep(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run(
            "sweep", "--n", 20, "--axis", "sigma", "--values", "0,0.1",
            "--specs", "identity+euclidean", "--folds", 4, "--repeats", 1,
            "--jobs", 1, "--out", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "axis,value,repeat,method,filter,embedding,rank,fold,lambda,mae,seed,error"
        )
        assert len(lines) == 1 + 2 * 4

    def test_empty_values_exits_2(self, tmp_path):
        code = run(
            "sweep", "--axis", "sigma", "--values", "", "--out", tmp_path / "s.csv"
        )
        assert code == 2

    def test_unknown_preset_exits_2(self, tmp_path):
        assert run("sweep", "--preset", "fig9", "--out", tmp_path / "s.csv") == 2

    @pytest.mark.parametrize(
        "flags",
        [["--axis", "p", "--values", "0"], ["--axis", "sigma", "--values", "0", "--repeats", 0],
         ["--axis", "sigma"]],
        ids=["axis", "repeats", "no-values"],
    )
    def test_bad_sweep_grid_exits_2(self, tmp_path, capsys, flags):
        # simgen.sweep checks the grid; the command adds no second check.
        out = tmp_path / "s.csv"
        assert run("sweep", *flags, "--out", out) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_rank_column_matches_eval(self, tmp_path, bundle_file):
        swept, evaluated = tmp_path / "s.csv", tmp_path / "e.csv"
        spec = ["--specs", "identity+logdiag:3"]
        assert run("sweep", "--n", 20, "--axis", "sigma", "--values", "0", *spec,
                   "--folds", 2, "--repeats", 1, "--jobs", 1, "--out", swept) == 0
        assert run("eval", "--bundle", bundle_file, "--embedding", "logdiag",
                   "--rank", 3, "--folds", 2, "--out", evaluated) == 0
        sweep_ranks = {line.split(",")[6] for line in swept.read_text().splitlines()[1:]}
        eval_ranks = {line.split(",")[3] for line in evaluated.read_text().splitlines()[1:]}
        assert sweep_ranks == eval_ranks == {"5"}

    def test_jobs_zero_uses_usable_cores(self, tmp_path, monkeypatch):
        # "All cores" means the CPUs the affinity mask allows, not the
        # machine's count.
        seen = {}

        def fake_sweep(*args, jobs, **kwargs):
            seen["jobs"] = jobs
            return []

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(simgen, "sweep", fake_sweep)
        assert run("sweep", "--axis", "sigma", "--values", "0", "--jobs", 0,
                   "--out", tmp_path / "s.csv") == 0
        assert seen["jobs"] == 1

    def test_preset_deterministic(self, tmp_path):
        o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["sweep", "--preset", "fig3-middle", "--n", 30, "--repeats", 1,
                "--folds", 4]
        assert run(*args, "--out", o1) == 0
        assert run(*args, "--out", o2, "--jobs", 2) == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestMeanEmbed:
    def test_mean_metrics(self, tmp_path, bundle_file):
        for metric in ("euclidean", "geometric", "wasserstein"):
            out = tmp_path / f"{metric}.txt"
            assert run("mean", "--bundle", bundle_file, "--metric", metric,
                       "--out", out) == 0
            lines = out.read_text().splitlines()
            assert lines[0] == "SYMMAT v1 5"
            assert len(lines) == 6

    def test_embed_feature_shapes(self, tmp_path, bundle_file):
        for kind, k in (("euclidean", 15), ("geometric", 15),
                        ("wasserstein", 25), ("logdiag", 5)):
            out = tmp_path / f"{kind}.txt"
            assert run("embed", "--bundle", bundle_file, "--embedding", kind,
                       "--out", out) == 0
            assert out.read_text().splitlines()[0] == f"FEAT v1 100 {k}"

    def test_unknown_embedding_exits_2(self, tmp_path, capsys, bundle_file):
        out = tmp_path / "f.txt"
        assert run("embed", "--bundle", bundle_file, "--embedding", "spd", "--out", out) == 2
        assert "unknown embedding kind 'spd'" in capsys.readouterr().err
        assert not out.exists()

    def test_mean_deterministic(self, tmp_path, bundle_file):
        o1, o2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        assert run("mean", "--bundle", bundle_file, "--out", o1) == 0
        assert run("mean", "--bundle", bundle_file, "--out", o2) == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestWitness:
    def test_table_on_stdout(self, capsys):
        assert run("witness") == 0
        out = capsys.readouterr().out
        assert "strictly decreasing: yes" in out
        lines = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
        dists = [float(ln.split()[1]) for ln in lines]
        assert dists[0] > 0
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-2

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        assert run("witness", "--out", out) == 0
        assert out.read_text() == capsys.readouterr().out


class TestArgparseBehavior:
    def test_unknown_command_exits_2(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert run("simulate", "--frobnicate", 1) == 2
        capsys.readouterr()


# Option values use the number grammar of the data files: no digit-group
# underscores and no non-ASCII digits, which int() and float() accept.
BAD_NUMBERS = [("mu", "1_0"), ("n", "1_0"), ("mu", "\u0661.5"), ("n", "\uff13"),
               ("sigma", "0.0_1"), ("seed", "\u0663")]


class TestNumberGrammar:
    @pytest.mark.parametrize("key,value", BAD_NUMBERS)
    def test_flag_value_exits_2_naming_it(self, tmp_path, capsys, key, value):
        out = tmp_path / "b.covb"
        assert run("simulate", f"--{key}", value, "--out", out) == 2
        assert capsys.readouterr().err == f"error: expected {_kind(key)}, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key,value", BAD_NUMBERS)
    def test_config_value_exits_2_naming_it(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "b.covb"
        assert run("simulate", "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err == f"error: expected {_kind(key)}, got {value!r}\n"
        assert not out.exists()

    def test_malformed_flag_exits_2_not_a_traceback(self, tmp_path, capsys):
        assert run("simulate", "--mu", "abc", "--out", tmp_path / "b.covb") == 2
        assert capsys.readouterr().err == "error: expected a number, got 'abc'\n"

    def test_plain_numbers_still_parse(self, tmp_path):
        out = tmp_path / "b.covb"
        assert run("simulate", "--n", " 12", "--mu", "+2.5e-1", "--seed", "-0", "--out", out) == 0
        assert read_covb(out).n == 12


def _kind(key):
    return "an integer" if key in ("n", "seed") else "a number"
