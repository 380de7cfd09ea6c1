import os
import warnings

import numpy as np
import pytest

from conftest import rand_bundle, rand_orthogonal, rand_spd
from spdreg import CovarianceBundle, GenerativeConfig, cli, regress, sample_bundle, simgen
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

    def test_full_size_bundle_reads_back_bit_for_bit(self, tmp_path):
        out = tmp_path / "b.covb"
        assert run("simulate", "--p", 64, "--n", 1000, "--seed", 3, "--out", out) == 0
        want, _ = sample_bundle(GenerativeConfig(p=64, n=1000, seed=3))
        back = read_covb(out)
        assert np.array_equal(back.matrices.view(np.int64), want.matrices.view(np.int64))
        assert np.array_equal(back.labels.view(np.int64), want.labels.view(np.int64))

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
        mats.append(y @ y.T)
    bundle = CovarianceBundle(
        matrices=mats, labels=rng.standard_normal(12), nominal_rank=2
    )
    path = tmp_path / "lowrank.covb"
    write_covb(path, bundle)
    return path


@pytest.fixture
def rank6_file(tmp_path):
    # Rank 6 in 8 dimensions, all in one subspace: projecting onto it
    # makes every matrix full-rank.
    rng = np.random.default_rng(1)
    u = rand_orthogonal(rng, 8)[:, :6]
    mats = [u @ rand_spd(rng, 6) @ u.T for _ in range(30)]
    path = tmp_path / "rank6.covb"
    write_covb(path, CovarianceBundle(mats, rng.standard_normal(30), nominal_rank=6))
    return path


@pytest.fixture(scope="module")
def mixed_rank_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("mixed") / "mixed.covb"
    assert run("simulate", "--p", 20, "--mu", 1, "--sigma-mix", 0.01, "--n", 200,
               "--seed", 0, "--out", path) == 0
    return path


@pytest.fixture
def upper_bound_file(tmp_path):
    # Rank 6 in 10 dimensions under the sqrt link with orthogonal mixing,
    # declared with the upper bound nominal_rank = 10: the Wasserstein route
    # measures the rank and recovers the labels exactly.
    base, _ = sample_bundle(GenerativeConfig(p=6, q=2, n=60, f_kind="sqrt",
                                             orthogonal_a=True, seed=0))
    u = rand_orthogonal(np.random.default_rng(5), 10)[:, :6]
    path = tmp_path / "upper.covb"
    write_covb(path, CovarianceBundle(u @ base.matrices @ u.T, base.labels, nominal_rank=10))
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

    @pytest.mark.parametrize("key,value", [("ridge_min", "nan"), ("ridge_max", "nan"),
                                           ("ridge_max", "inf"), ("ridge_min", "-inf")])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_non_finite_ridge_grid_exits_2_naming_it(
        self, tmp_path, bundle_file, capsys, key, value, via
    ):
        out = tmp_path / "r.csv"
        if via == "flag":
            args = [f"--{key.replace('_', '-')}={value}"]
        else:
            cfg = tmp_path / "eval.cfg"
            cfg.write_text(f"{key} = {value}\n")
            args = ["--config", cfg]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("eval", "--bundle", bundle_file, *args, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {key} must be a finite number, got {value}\n"
        assert not out.exists()

    def test_ill_conditioned_exact_case_recovers_the_labels(self, tmp_path):
        # p=20, n=100: the data are exactly jointly diagonalizable, but the
        # inputs' condition (median 2e8) keeps the Karcher descent's gradient
        # above its tolerance, so a Frechet reference exited 3. The
        # closed-form reference is the exact mean and takes no step.
        covb, out = tmp_path / "b.covb", tmp_path / "r.csv"
        assert run("simulate", "--p", 20, "--n", 100, "--seed", 0, "--out", covb) == 0
        assert run("eval", "--bundle", covb, "--embedding", "geometric", "--out", out) == 0
        mae = np.loadtxt(out, delimiter=",", skiprows=1, usecols=6)
        assert len(mae) == 10
        assert mae.mean() / np.std(read_covb(covb).labels) < 1e-6

    def test_near_singular_subject_runs(self, tmp_path):
        # One training subject at condition 1.6e11 stalled the Karcher
        # descent above its tolerance (a sweep error row at fig3-right's
        # sigma_mix 0.02, repeat 9).
        covb, out = tmp_path / "b.covb", tmp_path / "r.csv"
        assert run("simulate", "--sigma-mix", 0.02, "--seed", 9, "--out", covb) == 0
        assert run("eval", "--bundle", covb, "--embedding", "geometric", "--seed", 9,
                   "--out", out) == 0
        assert len(out.read_text().splitlines()) == 11

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
        err = capsys.readouterr().err
        assert "SingularMatrix" in err and "numerical rank 2 of 4" in err

    @pytest.mark.parametrize("command", ["eval", "fit"])
    def test_geometric_on_rank_deficient_names_the_projection(
        self, tmp_path, capsys, rank6_file, command
    ):
        args = [command, "--bundle", rank6_file, "--embedding", "geometric",
                "--out", tmp_path / "o"]
        assert run(*args) == 3
        err = capsys.readouterr().err
        assert "numerical rank 6 of 8" in err
        hint = "project onto the common full-rank subspace with --filter unsupervised --rank 6"
        assert err.endswith(hint + "\n")
        assert run(*args, *hint.split(" with ")[1].split()) == 0

    def test_geometric_hint_names_the_lowest_rank(self, tmp_path, capsys):
        # Sample 0 has rank 5, the rest rank 4, each tilted a little out of
        # one 4-d subspace: a projection to rank 5 leaves the rest singular.
        rng = np.random.default_rng(0)
        u = rand_orthogonal(rng, 6)
        mats = []
        for r in [5] + [4] * 39:
            y = u[:, :r] @ rng.standard_normal((r, r))
            y += 0.05 * u[:, r:] @ rng.standard_normal((6 - r, r))
            mats.append(y @ y.T)
        path = tmp_path / "mixed.covb"
        write_covb(path, CovarianceBundle(mats, rng.standard_normal(40), nominal_rank=6))
        args = ["eval", "--bundle", path, "--embedding", "geometric", "--out", tmp_path / "r.csv"]
        assert run(*args) == 3
        err = capsys.readouterr().err
        assert "numerical rank 4 of 6" in err
        hint = "--filter unsupervised --rank 4"
        assert err.endswith(hint + "\n")
        assert run(*args, *hint.split()) == 0

    def test_geometric_hint_when_the_mean_is_singular(self, tmp_path, capsys):
        # Sample 0 has rank 5, the rest rank 4, all in one 5-d subspace: the
        # arithmetic mean, where the geometric mean starts, has rank 5, but a
        # projection to rank 5 leaves the rest singular.
        rng = np.random.default_rng(0)
        u = rand_orthogonal(rng, 6)
        mats = [y @ y.T for y in (u[:, :r] @ rng.standard_normal((r, r)) for r in [5] + [4] * 39)]
        path = tmp_path / "nested.covb"
        write_covb(path, CovarianceBundle(mats, rng.standard_normal(40), nominal_rank=6))
        args = ["eval", "--bundle", path, "--embedding", "geometric", "--out", tmp_path / "r.csv"]
        assert run(*args) == 3
        err = capsys.readouterr().err
        assert "numerical rank 4 of 6" in err
        hint = "--filter unsupervised --rank 4"
        assert err.endswith(hint + "\n")
        assert run(*args, *hint.split()) == 0

    def test_geometric_hint_names_a_held_out_lowest_rank(self, tmp_path, capsys):
        # 39 samples of rank 5 in one 5-d subspace; sample 11, the first
        # held-out sample of fold 0 at this seed, has rank 4 inside it. Every
        # training split has rank 5, so only the whole bundle gives a rank
        # whose projection leaves no sample singular.
        rng = np.random.default_rng(0)
        u = rand_orthogonal(rng, 6)
        ranks = [5] * 11 + [4] + [5] * 28
        mats = [y @ y.T for y in (u[:, :r] @ rng.standard_normal((r, r)) for r in ranks)]
        path = tmp_path / "held_out.covb"
        write_covb(path, CovarianceBundle(mats, rng.standard_normal(40), nominal_rank=6))
        assert regress.fold_blocks(40, 10, 0)[0][0] == 11
        args = ["eval", "--bundle", path, "--embedding", "geometric", "--out", tmp_path / "r.csv"]
        assert run(*args) == 3
        err = capsys.readouterr().err
        assert "lowest numerical rank 4 of 6" in err
        hint = "--filter unsupervised --rank 4"
        assert err.endswith(hint + "\n")
        assert run(*args, *hint.split()) == 0

    def test_geometric_not_psd_error_names_the_bundle_sample(self, tmp_path, capsys):
        # Sample 5 falls in fold 0's training split at this seed, where it
        # is sample 3; the error must name it by its place in the file.
        rng = np.random.default_rng(0)
        mats = [y @ y.T for y in rng.standard_normal((12, 4, 4))]
        mats[5] = np.diag([3.0, 2.0, 1.0, -0.5])
        path = tmp_path / "not_psd.covb"
        write_covb(path, CovarianceBundle(mats, rng.standard_normal(12), nominal_rank=4))
        assert run("eval", "--bundle", path, "--embedding", "geometric", "--folds", 3,
                   "--out", tmp_path / "r.csv") == 3
        err = capsys.readouterr().err
        assert "NotPSD" in err and "sample 5: matrix is not PSD" in err
        assert "sample 3" not in err

    @pytest.mark.parametrize("command", ["eval", "fit", "mean", "embed"])
    def test_wasserstein_measures_the_rank(self, tmp_path, upper_bound_file, command):
        flag = "--metric" if command == "mean" else "--embedding"
        out = tmp_path / "o"
        assert run(command, "--bundle", upper_bound_file, flag, "wasserstein", "--out", out) == 0
        if command == "eval":
            maes = [float(line.split(",")[6]) for line in out.read_text().splitlines()[1:]]
            assert np.mean(maes) < 1e-6 * read_covb(upper_bound_file).labels.std()

    def test_wasserstein_rank_error_names_the_bundle_sample(self, tmp_path, capsys):
        # Samples of rank 3 in 4 dimensions, each in its own subspace, and
        # sample 5 of rank 4. Fold 0 trains with it and runs; fold 1 holds it
        # out (as its sample 0) at a rank-3 reference, which refuses it. The
        # error must name it by its place in the file.
        rng = np.random.default_rng(0)
        mats = [y @ y.T for y in rng.standard_normal((12, 4, 3))]
        mats[5] = np.diag([3.0, 2.0, 1.0, 0.5])
        bundle = CovarianceBundle(mats, rng.standard_normal(12), nominal_rank=4)
        path = tmp_path / "one_high.covb"
        write_covb(path, bundle)
        args = ["eval", "--bundle", path, "--embedding", "wasserstein",
                "--folds", 3, "--out", tmp_path / "r.csv"]
        assert run(*args) == 3
        err = capsys.readouterr().err
        assert "RankMismatch" in err
        assert "fold 1: sample 5: numerical rank 4 exceeds the reference's 3" in err
        # The hint names the bundle's lowest rank, and its command runs.
        hint = "--filter unsupervised --rank 3"
        assert err.endswith(hint + "\n")
        assert run(*args, *hint.split()) == 0

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

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_mne_lambda_exits_2(self, tmp_path, bundle_file, capsys, lam):
        from spdreg import Leadfield, write_leadfield

        lead_path, out = tmp_path / "lead.txt", tmp_path / "r.csv"
        write_leadfield(lead_path, Leadfield(np.random.default_rng(1).standard_normal((5, 3))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("eval", "--bundle", bundle_file, "--filter", "mne",
                       "--leadfield", lead_path, "--mne-lambda", lam, "--out", out)
        assert code == 2
        assert "error: mne_lambda must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_mne_leadfield_of_another_dimension_exits_2(self, tmp_path, bundle_file, capsys):
        from spdreg import Leadfield, write_leadfield

        lead_path, out = tmp_path / "lead.txt", tmp_path / "r.csv"
        write_leadfield(lead_path, Leadfield(np.random.default_rng(1).standard_normal((4, 3))))
        code = run("eval", "--bundle", bundle_file, "--filter", "mne", "--leadfield", lead_path,
                   "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert "error: leadfield has 4 sensors, the covariances have dimension 5" in err
        assert not out.exists()


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
        state = read_model(model)
        test = regress.project(state.filt, bundle.matrices, state.embedding.kind)
        yhat = regress.predict_fold(state, test)
        mae = float(np.mean(np.abs(bundle.labels - yhat)))
        assert f"train_mae={mae:.6g} " in capsys.readouterr().out

    def test_reference_dimension_must_match_filter_width(self, tmp_path, bundle_file, capsys):
        model, pred = tmp_path / "m.txt", tmp_path / "p.txt"
        assert run(
            "fit", "--bundle", bundle_file, "--filter", "unsupervised", "--rank", 3,
            "--embedding", "geometric", "--out", model,
        ) == 0
        lines = model.read_text().splitlines()
        at = lines.index("reference 3")
        eye = [" ".join("1" if j == i else "0" for j in range(4)) for i in range(4)]
        lines[at : at + 4] = ["reference 4", *eye]
        model.write_text("\n".join(lines) + "\n")
        assert run("predict", "--model", model, "--bundle", bundle_file, "--out", pred) == 2
        err = capsys.readouterr().err
        assert f"error: {model}:{at + 1}: reference dimension 4 differs from filter width 3" in err
        assert not pred.exists()

    @pytest.mark.parametrize(
        "embedding, old, new, message",
        [
            ("geometric", "reference 5", "reference none",
             "geometric embedding requires a reference matrix"),
            ("geometric", "embedding geometric", "embedding bogus",
             "unknown embedding kind 'bogus'"),
            ("geometric", "filter identity 5 5", "filter bogus 5 5",
             "unknown filter kind 'bogus'"),
            ("geometric", "embedding geometric", "embedding euclidean",
             "euclidean embedding takes no reference"),
        ],
    )
    def test_model_refused_by_filter_or_embedding_names_its_line(
        self, tmp_path, bundle_file, capsys, embedding, old, new, message
    ):
        # A value the filter or embedding refuses is a file error at the line
        # opening its record: the reference completes the embedding's record.
        model, pred = tmp_path / "m.txt", tmp_path / "p.txt"
        assert run("fit", "--bundle", bundle_file, "--embedding", embedding, "--out", model) == 0
        lines = model.read_text().splitlines()
        at = lines.index(old)
        if new == "reference none":
            lines[at : at + 6], at = [new], lines.index("embedding geometric")
        else:
            lines[at] = new
        model.write_text("\n".join(lines) + "\n")
        assert run("predict", "--model", model, "--bundle", bundle_file, "--out", pred) == 2
        assert f"error: {model}:{at + 1}: {message}" in capsys.readouterr().err
        assert not pred.exists()

    def test_predict_rank_mismatch_names_both_ranks(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        files = {}
        for r in (5, 6):
            mats = [y @ y.T for y in rng.standard_normal((20, 8, r))]
            files[r] = tmp_path / f"rank{r}.covb"
            write_covb(files[r], CovarianceBundle(mats, rng.standard_normal(20), nominal_rank=r))
        model, pred = tmp_path / "m.txt", tmp_path / "p.txt"
        assert run("fit", "--bundle", files[5], "--embedding", "wasserstein", "--out", model) == 0
        assert run("predict", "--model", model, "--bundle", files[6], "--out", pred) == 3
        err = capsys.readouterr().err
        assert "RankMismatch" in err
        assert "sample 0: numerical rank 6 exceeds the reference's 5" in err
        assert not pred.exists()

    def test_predict_on_a_bundle_of_another_dimension_exits_2(self, tmp_path, bundle_file,
                                                                capsys):
        small, model, pred = tmp_path / "p4.covb", tmp_path / "m.txt", tmp_path / "p.txt"
        assert run("simulate", "--p", 4, "--seed", 3, "--out", small) == 0
        assert run("fit", "--bundle", bundle_file, "--out", model) == 0
        assert run("predict", "--model", model, "--bundle", small, "--out", pred) == 2
        err = capsys.readouterr().err
        assert f"error: {small}: bundle has dimension 4, model {model} expects 5" in err
        assert not pred.exists()

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

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "option, value, shown",
        [("sigma", "0.3", "sigma = 0.3"), ("axis", "sigma", "axis = sigma"),
         ("values", "0,1", "values = [0.0, 1.0]")],
        ids=["sigma", "axis", "values"],
    )
    def test_option_conflicting_with_preset_exits_2(
        self, tmp_path, capsys, monkeypatch, option, value, shown, source
    ):
        # A value that differs from both its default and the preset's used to
        # be overridden by the preset without a word.
        monkeypatch.setattr(simgen, "sweep", lambda *a, **k: pytest.fail("the sweep ran"))
        args = ["--" + option, value]
        if source == "config":
            args = ["--config", tmp_path / "c.cfg"]
            args[1].write_text(f"{option} = {value}\n")
        out = tmp_path / "s.csv"
        assert run("sweep", "--preset", "fig3-middle", *args, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {shown} conflicts with preset 'fig3-middle', ")
        assert not out.exists()

    def test_option_equal_to_preset_or_default_runs_the_preset(self, tmp_path, monkeypatch):
        seen = {}

        def fake_sweep(cfg, axis, values, specs, **kwargs):
            seen.update(sigma=cfg.sigma, axis=axis, values=values)
            return []

        monkeypatch.setattr(simgen, "sweep", fake_sweep)
        assert run("sweep", "--preset", "fig3-middle", "--axis", "mu", "--sigma", 0,
                   "--values", "", "--out", tmp_path / "s.csv") == 0
        assert seen == {"sigma": 0.0, "axis": "mu", "values": [0.0, 0.25, 0.5, 0.75, 1.0]}

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

    @pytest.mark.parametrize("folds", [1, 21])
    def test_folds_out_of_range_exits_2_before_any_cell(
        self, tmp_path, capsys, monkeypatch, folds
    ):
        cells = []
        monkeypatch.setattr(simgen, "_run_cell", cells.append)
        out = tmp_path / "s.csv"
        assert run("sweep", "--n", 20, "--axis", "sigma", "--values", "0",
                   "--folds", folds, "--jobs", 1, "--out", out) == 2
        assert capsys.readouterr().err == f"error: folds must be in [2, 20], got {folds}\n"
        assert cells == [] and not out.exists()

    def test_negative_jobs_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sweep", "--axis", "sigma", "--values", "0", "--jobs", -4,
                   "--out", out) == 2
        assert "jobs must be 0 (all usable cores) or more, got -4" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("command,flag", [("mean", "--metric"), ("embed", "--embedding")])
    def test_geometric_on_rank_deficient_names_the_wasserstein_command(
        self, tmp_path, capsys, rank6_file, command, flag
    ):
        args = [command, "--bundle", rank6_file, "--out", tmp_path / "o"]
        assert run(*args, flag, "geometric") == 3
        err = capsys.readouterr().err
        assert "numerical rank 6 of 8" in err
        hint = f"use {flag} wasserstein"
        assert err.endswith(hint + "\n")
        assert run(*args, *hint.split()[1:]) == 0

    @pytest.mark.parametrize("kind", ["geometric", "wasserstein"])
    @pytest.mark.parametrize("command,flag", [("mean", "--metric"), ("embed", "--embedding")])
    def test_mixed_ranks_name_a_command_that_runs(self, tmp_path, capsys, command, flag, kind):
        # Sample 0 has rank 5, the rest rank 4, all in one 5-d subspace. The
        # Wasserstein kind runs on them; the geometric kind names it.
        rng = np.random.default_rng(0)
        u = rand_orthogonal(rng, 6)
        mats = [y @ y.T for y in (u[:, :r] @ rng.standard_normal((r, r)) for r in [5] + [4] * 39)]
        path = tmp_path / "nested.covb"
        write_covb(path, CovarianceBundle(mats, rng.standard_normal(40), nominal_rank=6))
        args = [command, "--bundle", path, "--out", tmp_path / "o"]
        if kind == "wasserstein":
            assert run(*args, flag, kind) == 0
            return
        assert run(*args, flag, kind) == 3
        hint = f"lowest numerical rank 4 of 6: use {flag} wasserstein"
        assert capsys.readouterr().err.endswith(hint + "\n")
        assert run(*args, *hint.split()[-2:]) == 0

    @pytest.mark.parametrize("command", ["eval", "fit", "mean", "embed"])
    def test_wasserstein_runs_on_a_mixed_rank_generator_bundle(
        self, tmp_path, mixed_rank_file, command
    ):
        # 4 of its 200 subjects have rank 19 of 20, the rest rank 20.
        flag = "--metric" if command == "mean" else "--embedding"
        assert run(command, "--bundle", mixed_rank_file, flag, "wasserstein",
                   "--out", tmp_path / "o") == 0

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


class TestOutsideInput:
    """Option values and config files the CLI reads: accepted spellings give
    what their canonical spelling gives; the rest exit 2 naming the fault."""

    @pytest.mark.parametrize(
        "case, same_as, err",
        [(["--orthogonal-a", "yes"], ["--orthogonal-a", "true"], None),
         (["--orthogonal-a", "off"], ["--orthogonal-a", "false"], None),
         (["--orthogonal-a", "maybe"], None, "error: expected a boolean, got 'maybe'\n"),
         (["--config", "missing.cfg"], None, "error: config file not found: missing.cfg\n"),
         (["--config", "sim.cfg"], None, "error: sim.cfg:2: expected 'key = value', "
                                         "got 'seed 5'\n")],
        ids=["bool-yes", "bool-off", "bool-maybe", "config-missing", "config-no-equals"],
    )
    def test_simulate_options(self, tmp_path, monkeypatch, capsys, case, same_as, err):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sim.cfg").write_text("n = 30\nseed 5\n")
        code = run("simulate", "--n", 20, *case, "--out", "a.covb")
        if err is None:
            assert code == 0
            assert run("simulate", "--n", 20, *same_as, "--out", "b.covb") == 0
            assert (tmp_path / "a.covb").read_bytes() == (tmp_path / "b.covb").read_bytes()
        else:
            assert code == 2
            assert capsys.readouterr().err == err
            assert not (tmp_path / "a.covb").exists()

    GRID = "error: ridge grid needs 0 < ridge_min < ridge_max and ridge_count >= 1\n"

    @pytest.mark.parametrize(
        "args, cfg, err",
        [(["eval"], "\n# a one-value grid\n\n  # of ridge_min\nridge_count = 1\nridge_min = 0.5\n",
          None),
         (["eval", "--ridge-count", 1, "--ridge-min", 0.5], None, None),
         (["eval", "--ridge-min", 1, "--ridge-max", 0.5], None, GRID),
         (["eval", "--ridge-min", 1, "--ridge-max", 1], None, GRID),
         (["eval", "--ridge-count", 0], None, GRID),
         (["sweep", "--specs", "identity"], None,
          "error: bad pipeline spec 'identity'; expected filter+embedding\n"),
         (["sweep", "--specs", "identity+spd"], None,
          "error: bad pipeline spec 'identity+spd': unknown embedding kind 'spd'; "
          "expected one of ('euclidean', 'geometric', 'wasserstein', 'logdiag')\n"),
         (["mean", "--metric", "spd"], None, "error: unknown metric 'spd'\n"),
         (["mean", "--rank", 3], None, "error: unrecognized arguments: --rank 3\n"),
         (["mean"], "rank = 3\n", "error: unknown config key 'rank' for command 'mean'\n"),
         (["embed"], "rank = 3\n", "error: unknown config key 'rank' for command 'embed'\n")],
        ids=["config-comments-one-value-grid", "one-value-grid", "ridge-max-below-min",
             "ridge-max-at-min", "ridge-count-0", "spec-no-plus", "spec-unknown-embedding",
             "mean-metric-spd", "mean-rank-flag", "mean-rank-key", "embed-rank-key"],
    )
    def test_pipeline_options(self, tmp_path, bundle_file, capsys, args, cfg, err):
        # A one-value grid is ridge_min alone; blank and comment lines of a
        # config file are skipped. The Wasserstein rank is measured, never set.
        command, out = args[0], tmp_path / "o"
        if command != "sweep":
            args = [*args, "--bundle", bundle_file]
        if cfg is not None:
            (tmp_path / "o.cfg").write_text(cfg)
            args = [*args, "--config", tmp_path / "o.cfg"]
        if command == "eval":
            args = [*args, "--folds", 3]
        code = run(*args, "--out", out)
        if err is None:
            assert code == 0
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            assert len(rows) == 3 and {row[5] for row in rows} == {"0.5"}
        else:
            assert code == 2
            assert capsys.readouterr().err.endswith(err)
            assert not out.exists()

    def test_sweep_spec_rank_defaults_to_q(self):
        specs = cli._sweep_specs({"specs": "unsupervised+geometric, supervised+logdiag:3"}, 2)
        got = [(s.filter_kind, s.filter_rank, s.embedding_kind) for s in specs]
        assert got == [("unsupervised", 2, "geometric"), ("supervised", 3, "logdiag")]


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
