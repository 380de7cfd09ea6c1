"""Plain-text file formats: malformed inputs, golden bytes and round trips."""

import warnings

import numpy as np
import pytest

from spdreg import CovarianceBundle, GenerativeConfig, SymMat, manifold, regress, sample_bundle
from spdreg.bundle import read_covb, write_covb
from spdreg.cli import main, read_model, write_model
from spdreg.errors import ConfigError
from spdreg.filters import Leadfield, read_leadfield, write_leadfield

# Small valid files with blank lines, so physical and non-blank line numbers
# differ. Each malformed case edits one of them and names the physical line
# its error must report.
COVB = """COVB v1 3 2 2

y 0.5
2 0.5
0.5 1
y 1.5
1 0
0 1

y -0.25
3 1
1 2
"""

MODEL = """MODEL v1
embedding geometric 0
filter identity 2 2
1 0
0 1
filter_eigs
reference 2
2 0.5
0.5 1
ridge 3 1.0000000000000001e-05 0.5
mean 0.10000000000000001 0.20000000000000001 0.29999999999999999
scale 1 1 1
beta 0.5 -0.5 0.25
"""

LEADFIELD = """LEADFIELD v1 2 3

1 0 0.5
0 1 -0.5
"""

BASES = {"covb": COVB, "model": MODEL, "leadfield": LEADFIELD}


def edit(base, line, text):
    """``base`` with physical line ``line`` replaced (``None`` deletes it)."""
    lines = base.splitlines()
    if line > len(lines):
        lines.append(text)
    elif text is None:
        del lines[line - 1]
    else:
        lines[line - 1] = text
    return "\n".join(lines) + "\n"


# (id, format, physical line edited, its new text, line the error names)
CASES = [
    ("covb-bad-header", "covb", 1, "COVB v2 3 2 2", 1),
    ("covb-bad-counts", "covb", 1, "COVB v1 3 two 2", 1),
    ("covb-too-few-lines", "covb", 12, None, 11),
    ("covb-too-many-lines", "covb", 13, "0 0", 13),
    ("covb-non-y-tag", "covb", 6, "x 1.5", 6),
    ("covb-bad-label", "covb", 6, "y abc", 6),
    ("covb-bad-matrix-token", "covb", 8, "0 one", 8),
    ("covb-ragged-row", "covb", 7, "1", 7),
    ("covb-hash-token", "covb", 11, "3 #", 11),
    ("covb-n-zero", "covb", 1, "COVB v1 0 2 2", 1),
    ("covb-infinite-label", "covb", 6, "y inf", 6),
    ("model-bad-header", "model", 1, "MODEL v2", 1),
    ("model-bad-counts", "model", 3, "filter identity 2 x", 3),
    ("model-too-few-lines", "model", 13, None, 12),
    ("model-bad-section-tag", "model", 6, "filter_eig", 6),
    ("model-bad-label", "model", 10, "ridge 3 abc 0.5", 10),
    ("model-bad-matrix-token", "model", 9, "0.5 one", 9),
    ("model-ragged-row", "model", 5, "0", 5),
    ("model-hash-token", "model", 11, "mean 0.1 # 0.3", 11),
    ("model-k-zero", "model", 10, "ridge 0 1e-05 0.5", 10),
    ("leadfield-bad-header", "leadfield", 1, "LEADFIELD v2 2 3", 1),
    ("leadfield-bad-counts", "leadfield", 1, "LEADFIELD v1 2 q", 1),
    ("leadfield-too-few-lines", "leadfield", 4, None, 3),
    ("leadfield-too-many-lines", "leadfield", 5, "1 1 1", 5),
    ("leadfield-bad-matrix-token", "leadfield", 4, "0 one -0.5", 4),
    ("leadfield-ragged-row", "leadfield", 3, "1 0", 3),
    ("leadfield-hash-token", "leadfield", 4, "0 1 #", 4),
    ("leadfield-p-zero", "leadfield", 1, "LEADFIELD v1 0 3", 1),
    ("covb-nan-entry", "covb", 8, "0 nan", 8),
    ("model-too-many-lines", "model", 14, "beta 1 2 3", 14),
    ("model-nan-beta", "model", 13, "beta 0.5 nan 0.25", 13),
    ("leadfield-nan-entry", "leadfield", 3, "1 nan 0.5", 3),
]

READERS = {"covb": read_covb, "model": read_model, "leadfield": read_leadfield}


def run(*argv):
    return main([str(a) for a in argv])


def cli_read(kind, path, tmp_path):
    """Exit code of a CLI command whose first read is ``path``."""
    good = tmp_path / "good.covb"
    good.write_text(COVB)
    if kind == "covb":
        return run("mean", "--bundle", path, "--out", tmp_path / "m.txt")
    if kind == "model":
        return run("predict", "--model", path, "--bundle", good, "--out", tmp_path / "p.txt")
    return run("fit", "--bundle", good, "--filter", "mne", "--leadfield", path,
               "--embedding", "logdiag", "--out", tmp_path / "m.txt")


@pytest.mark.parametrize("kind", sorted(BASES))
def test_bases_are_valid(kind, tmp_path):
    path = tmp_path / f"base.{kind}"
    path.write_text(BASES[kind])
    READERS[kind](path)
    assert cli_read(kind, path, tmp_path) == 0


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_malformed_exits_2_naming_the_file(case, tmp_path, capsys):
    _, kind, line, text, _ = case
    path = tmp_path / f"bad.{kind}"
    path.write_text(edit(BASES[kind], line, text))
    with pytest.raises(ConfigError, match=str(path)):
        READERS[kind](path)
    assert cli_read(kind, path, tmp_path) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_malformed_names_the_physical_line(case, tmp_path, capsys):
    _, kind, line, text, err_line = case
    path = tmp_path / f"bad.{kind}"
    path.write_text(edit(BASES[kind], line, text))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as info:
            READERS[kind](path)
        assert cli_read(kind, path, tmp_path) == 2
    message = str(info.value)
    assert message.startswith(f"{path}:{err_line}: ")
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    # The parser's own wording (row/column counted within a block) stays out.
    for numpy_text in ("column", "at row", "could not convert", "loadtxt"):
        assert numpy_text not in message


@pytest.mark.parametrize(
    "line, text, sample",
    [(6, "x 1.5", 1), (6, "y abc", 1), (8, "0 one", 1), (7, "1", 1), (11, "3 #", 2),
     (8, "0 nan", 1), (4, "inf 0.5", 0)],
)
def test_covb_errors_name_the_sample(line, text, sample, tmp_path):
    path = tmp_path / "bad.covb"
    path.write_text(edit(COVB, line, text))
    with pytest.raises(ConfigError, match=f"^{path}:{line}: sample {sample}: "):
        read_covb(path)


def test_model_ignores_blank_lines(tmp_path):
    plain, spaced = tmp_path / "a.txt", tmp_path / "b.txt"
    plain.write_text(MODEL)
    spaced.write_text("\n" + MODEL.replace("\nridge", "\n\n  \nridge") + "\n")
    a, b = read_model(plain), read_model(spaced)
    assert np.array_equal(a.filt.w, b.filt.w)
    assert np.array_equal(a.model.beta, b.model.beta)


def test_underscore_digits_rejected(tmp_path):
    path = tmp_path / "bad.covb"
    path.write_text(edit(COVB, 4, "2 0.5_0"))
    with pytest.raises(ConfigError, match=f"^{path}:4: sample 0: "):
        read_covb(path)


# ---------------------------------------------------------------------------
# Golden bytes and round trips
# ---------------------------------------------------------------------------


def golden_bundle():
    a = np.array([[1e300, -0.0], [-0.0, 5e-324]])
    b = np.array([[2.5, 1.0 / 3.0], [1.0 / 3.0, 0.7]]) * 1e-24
    return CovarianceBundle(
        matrices=[SymMat(a), SymMat(b)], labels=[0.1, -0.0], nominal_rank=2
    )


GOLDEN_COVB = (
    "COVB v1 2 2 2\n"
    "y 0.10000000000000001\n"
    "1.0000000000000001e+300 -0\n"
    "-0 4.9406564584124654e-324\n"
    "y -0\n"
    "2.4999999999999999e-24 3.3333333333333331e-25\n"
    "3.3333333333333331e-25 6.9999999999999995e-25\n"
)


def test_covb_golden_bytes(tmp_path):
    path = tmp_path / "g.covb"
    write_covb(path, golden_bundle())
    assert path.read_text() == GOLDEN_COVB
    back = read_covb(path)
    assert np.array_equal(back.labels, [0.1, -0.0])
    assert np.signbit(back.labels[1]) and np.signbit(back.matrices[0, 0, 1])
    assert np.array_equal(back.matrices, golden_bundle().matrices)


@pytest.mark.parametrize("p", [1, 32])
def test_covb_round_trip_bit_exact(p, tmp_path):
    if p == 1:
        rng = np.random.default_rng(1)
        mats = [SymMat([[v]]) for v in rng.lognormal(sigma=20.0, size=7)]
        bund = CovarianceBundle(mats, rng.standard_normal(7), nominal_rank=1)
    else:
        bund, _ = sample_bundle(GenerativeConfig(p=32, n=20, mu=0.1, seed=4))
    first, second = tmp_path / "a.covb", tmp_path / "b.covb"
    write_covb(first, bund)
    back = read_covb(first)
    write_covb(second, back)
    assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(back.labels, bund.labels)
    assert back.nominal_rank == bund.nominal_rank
    assert np.array_equal(back.matrices, bund.matrices)


def joined(header, rows):
    """The per-float ``" ".join`` text the file writers are held to."""
    lines = [header] + [" ".join("%.17g" % x for x in np.atleast_1d(r)) for r in rows]
    return "\n".join(lines) + "\n"


def test_leadfield_bytes_and_round_trip(tmp_path):
    g = np.random.default_rng(2).standard_normal((5, 3)) * 1e-9
    g[0, 0] = -0.0
    path = tmp_path / "lead.txt"
    write_leadfield(path, Leadfield(g=g))
    assert path.read_text() == joined("LEADFIELD v1 5 3", g)
    assert np.array_equal(read_leadfield(path).g, g)


@pytest.fixture
def fitted(tmp_path):
    """A bundle file and a model fitted on it through the CLI."""
    bund, _ = sample_bundle(GenerativeConfig(p=4, n=30, mu=0.3, sigma=0.1, seed=8))
    covb, model = tmp_path / "b.covb", tmp_path / "m.txt"
    write_covb(covb, bund)
    assert run("fit", "--bundle", covb, "--embedding", "wasserstein", "--filter",
               "unsupervised", "--rank", 3, "--out", model) == 0
    return bund, covb, model


def test_model_bytes_match_joined_floats(fitted):
    bund, _, model = fitted
    spec = regress.PipelineSpec(filter_kind="unsupervised", filter_rank=3,
                                embedding_kind="wasserstein")
    state = regress.fit_fold(bund, spec)
    filt, emb, ridge = state.filt, state.embedding, state.model

    def f(values):
        return " ".join("%.17g" % x for x in values)

    lines = [
        "MODEL v1",
        f"embedding {emb.kind} {emb.rank or 0}",
        f"filter {filt.kind} {filt.w.shape[0]} {filt.w.shape[1]}",
        *[f(row) for row in filt.w],
        ("filter_eigs " + f(filt.eigenvalues)).rstrip(),
        f"reference {emb.reference.dim}",
        *[f(row) for row in emb.reference.data],
        f"ridge {ridge.beta.size} {f([ridge.lambda_star, ridge.intercept])}",
        "mean " + f(ridge.feature_mean),
        "scale " + f(ridge.feature_scale),
        "beta " + f(ridge.beta),
    ]
    assert model.read_text() == "\n".join(lines) + "\n"
    back = read_model(model)
    assert np.array_equal(back.filt.w, filt.w)
    assert np.array_equal(back.filt.eigenvalues, filt.eigenvalues)
    assert np.array_equal(back.embedding.reference.data, emb.reference.data)
    for name in ("beta", "feature_mean", "feature_scale"):
        assert np.array_equal(getattr(back.model, name), getattr(ridge, name))
    assert back.model.lambda_star == ridge.lambda_star
    assert back.model.intercept == ridge.intercept


def test_identity_model_has_bare_eigs_line(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(MODEL)
    clone = tmp_path / "m2.txt"
    write_model(clone, read_model(path))
    assert clone.read_text() == MODEL


def test_pred_feat_symmat_bytes_match_joined_floats(fitted, tmp_path):
    bund, covb, model = fitted
    pred, feat, mean = tmp_path / "p.txt", tmp_path / "f.txt", tmp_path / "s.txt"
    assert run("predict", "--model", model, "--bundle", covb, "--out", pred) == 0
    assert run("embed", "--bundle", covb, "--embedding", "geometric", "--out", feat) == 0
    assert run("mean", "--bundle", covb, "--metric", "geometric", "--out", mean) == 0
    yhat = regress.predict_fold(read_model(model), bund)
    rows = manifold.fit_embedding(bund.matrices, "geometric", rank=bund.nominal_rank)[1]
    point = manifold.mean_geometric(bund.matrices).point.data
    assert pred.read_text() == joined(f"PRED v1 {len(yhat)}", yhat)
    assert feat.read_text() == joined(f"FEAT v1 {rows.shape[0]} {rows.shape[1]}", rows)
    assert mean.read_text() == joined(f"SYMMAT v1 {point.shape[0]}", point)
