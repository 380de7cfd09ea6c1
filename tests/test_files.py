"""Plain-text file formats: malformed inputs, golden bytes and round trips."""

import base64
import re
import warnings

import numpy as np
import pytest

from spdreg import CovarianceBundle, GenerativeConfig, manifold, regress, sample_bundle
from spdreg.bundle import read_covb, write_covb
from spdreg.cli import main, read_model, write_model
from spdreg.errors import ConfigError
from spdreg.filters import Leadfield, read_leadfield, write_leadfield

# Small valid files with blank lines, so physical and non-blank line numbers
# differ. Each malformed case edits one of them and names the physical line
# its error must report. COVB triangles are written here as decimals and
# stored as base64 by ``covb_text``.
COVB = """COVB v3 3 2 2

y 0.5
2 0.5 1

y 1.5

1 0 1

y -0.25
3 1 2
"""

MODEL = """MODEL v3
embedding geometric
filter identity 2 2
1 0
0 1
filter_eigs
reference 2
2 0.5
0.5 1
ridge 3 1.0000000000000001e-05 0.5
mean 0.10000000000000001 0.20000000000000001 0.29999999999999999
scale 1
beta 0.5 -0.5 0.25
"""

LEADFIELD = """LEADFIELD v1 2 3

1 0 0.5
0 1 -0.5
"""

BASES = {"covb": COVB, "model": MODEL, "leadfield": LEADFIELD}


def b64(values):
    """The COVB v3 triangle line of ``values``: base64 of little-endian float64."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def covb_text(text):
    """COVB fixture ``text`` with each line of decimals (``nan`` and ``inf``
    too) replaced by its base64 triangle line; other lines are kept."""
    def line(row):
        try:
            return b64([float(w) for w in row.split()]) if row.strip() else row
        except ValueError:
            return row
    return "\n".join(line(row) for row in text.split("\n"))


def write(path, kind, text):
    """``text`` as one byte per character, so ``\xff`` is the byte 0xff."""
    path.write_bytes((covb_text(text) if kind == "covb" else text).encode("latin-1"))


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


# Line 8's triangle [1, 0, 1] as stored: 24 bytes, 32 base64 characters.
TRI = b64([1, 0, 1])

# (id, format, physical line edited, its new text, line the error names)
CASES = [
    ("covb-bad-header", "covb", 1, "COVB v4 3 2 2", 1),
    ("covb-v1-header", "covb", 1, "COVB v1 3 2 2", 1),
    ("covb-v2-header", "covb", 1, "COVB v2 3 2 2", 1),
    ("covb-bad-counts", "covb", 1, "COVB v3 3 two 2", 1),
    ("covb-too-few-lines", "covb", 11, None, 10),
    ("covb-too-many-lines", "covb", 12, "0 0 0", 12),
    ("covb-non-y-tag", "covb", 6, "x 1.5", 6),
    ("covb-bad-label", "covb", 6, "y abc", 6),
    ("covb-bad-matrix-token", "covb", 8, "1 one 1", 8),
    ("covb-ragged-row", "covb", 8, "1 0", 8),
    ("covb-long-triangle", "covb", 8, "1 0 1 0", 8),
    ("covb-hash-token", "covb", 11, "3 1 #", 11),
    ("covb-n-zero", "covb", 1, "COVB v3 0 2 2", 1),
    ("covb-rank-above-p", "covb", 1, "COVB v3 3 2 3", 1),
    ("covb-infinite-label", "covb", 6, "y inf", 6),
    # Header counts whose arrays would not fit in memory: nothing is
    # allocated from them, so the error names the first line that
    # contradicts them, a short triangle or the end of the file.
    ("covb-huge-p", "covb", 1, "COVB v3 1 100000000 1", 4),
    ("covb-huge-n", "covb", 1, "COVB v3 1000000000000 2 2", 11),
    # More digits than int() converts is a count error at its line.
    ("covb-overlong-count", "covb", 1, "COVB v3 " + "9" * 5000 + " 2 2", 1),
    ("covb-non-alphabet", "covb", 8, "*" + TRI[1:], 8),
    ("covb-bad-padding", "covb", 8, TRI[:-1], 8),
    ("covb-wrapped-triangle", "covb", 8, TRI[:16] + "\n" + TRI[16:], 8),
    ("model-bad-header", "model", 1, "MODEL v1", 1),
    ("model-v2-header", "model", 1, "MODEL v2", 1),
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
    ("covb-nan-entry", "covb", 8, "1 nan 1", 8),
    ("covb-inf-entry", "covb", 11, "3 1 -inf", 11),
    ("model-too-many-lines", "model", 14, "beta 1 2 3", 14),
    ("model-nan-beta", "model", 13, "beta 0.5 nan 0.25", 13),
    ("model-scale-per-column", "model", 12, "scale 1 1 1", 12),
    ("model-zero-scale", "model", 12, "scale 0", 12),
    ("leadfield-nan-entry", "leadfield", 3, "1 nan 0.5", 3),
    # Finite entries whose symmetrization (a + a^T) / 2 overflows: a COVB
    # triangle is refused at its line, a MODEL reference at its embedding's.
    ("covb-overflowing-entry", "covb", 8, "1 1e308 1", 8),
    ("model-overflowing-reference", "model", 8, "1e308 0.5", 2),
    # Every file is ASCII: any other byte is refused at its physical line.
    ("covb-non-ascii-label", "covb", 6, "y 1.5\xff", 6),
    ("covb-non-ascii-triangle", "covb", 8, "\xff" + TRI, 8),
    ("model-non-ascii-row", "model", 8, "2 0.5\xff", 8),
    ("leadfield-non-ascii-row", "leadfield", 4, "0 1\xff -0.5", 4),
]

READERS = {"covb": read_covb, "model": read_model, "leadfield": read_leadfield}


def run(*argv):
    return main([str(a) for a in argv])


def cli_read(kind, path, tmp_path):
    """Exit code of a CLI command whose first read is ``path``."""
    good = tmp_path / "good.covb"
    write(good, "covb", COVB)
    if kind == "covb":
        return run("mean", "--bundle", path, "--out", tmp_path / "m.txt")
    if kind == "model":
        return run("predict", "--model", path, "--bundle", good, "--out", tmp_path / "p.txt")
    return run("fit", "--bundle", good, "--filter", "mne", "--leadfield", path,
               "--embedding", "logdiag", "--out", tmp_path / "m.txt")


@pytest.mark.parametrize("kind", sorted(BASES))
def test_bases_are_valid(kind, tmp_path):
    path = tmp_path / f"base.{kind}"
    write(path, kind, BASES[kind])
    READERS[kind](path)
    assert cli_read(kind, path, tmp_path) == 0


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_malformed_exits_2_naming_the_file(case, tmp_path, capsys):
    _, kind, line, text, _ = case
    path = tmp_path / f"bad.{kind}"
    write(path, kind, edit(BASES[kind], line, text))
    with pytest.raises(ConfigError, match=str(path)):
        READERS[kind](path)
    assert cli_read(kind, path, tmp_path) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_malformed_names_the_physical_line(case, tmp_path, capsys):
    _, kind, line, text, err_line = case
    path = tmp_path / f"bad.{kind}"
    write(path, kind, edit(BASES[kind], line, text))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as info:
            READERS[kind](path)
        assert cli_read(kind, path, tmp_path) == 2
    message = str(info.value)
    assert message.startswith(f"{path}:{err_line}: ")
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    # The parsers' and decoders' own wording (row/column counted within a
    # block, the codec) stays out.
    for numpy_text in ("column", "at row", "could not convert", "loadtxt", "codec"):
        assert numpy_text not in message


@pytest.mark.parametrize(
    "line, text, sample",
    [(6, "x 1.5", 1), (6, "y abc", 1), (8, "0 one", 1), (7, "1", 1), (8, "1 0 1 0", 1),
     (11, "3 #", 2), (8, "0 nan", 1), (4, "inf 0.5", 0), (3, "y nan", 0),
     (8, "*" + TRI[1:], 1), (11, TRI[:-1], 2), (8, TRI[:16] + "\n" + TRI[16:], 1)],
)
def test_covb_errors_name_the_sample(line, text, sample, tmp_path):
    path = tmp_path / "bad.covb"
    write(path, "covb", edit(COVB, line, text))
    with pytest.raises(ConfigError, match=f"^{path}:{line}: sample {sample}: "):
        read_covb(path)


@pytest.mark.parametrize(
    "text, message",
    [("1 0", "expected 3 numbers, got 2"), ("1 0 1 0", "expected 3 numbers, got 4"),
     (TRI[:16], "expected 3 numbers, got 12 bytes"), ("1 nan 1", "non-finite number nan"),
     ("1 0 inf", "non-finite number inf"), ("*" + TRI[1:], "bad base64 triangle line: "),
     (TRI[:-1], "bad base64 triangle line: "),
     ("1 1e308 1", r"entry 1e\+308 overflows the symmetrization \(a \+ a\^T\) / 2$"),
     ("\xff" + TRI, "non-ASCII byte in its triangle line$")],
)
def test_covb_triangle_errors_say_what_is_wrong(text, message, tmp_path):
    path = tmp_path / "bad.covb"
    write(path, "covb", edit(COVB, 8, text))
    with pytest.raises(ConfigError, match=f"^{path}:8: sample 1: {message}"):
        read_covb(path)


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_covb_older_versions_are_refused_with_advice(version, tmp_path):
    path = tmp_path / "old.covb"
    path.write_text(COVB.replace("COVB v3", f"COVB {version}"))
    with pytest.raises(ConfigError, match=f"^{path}:1: COVB {version} is not read, only COVB "
                                          "v3; regenerate the bundle with 'spdreg simulate', "
                                          "which gives the same matrices from the same seed$"):
        read_covb(path)


@pytest.mark.parametrize(
    "kind, line, err_line, what",
    [("covb", 11, 10, "sample 2: file ends before its triangle line"),
     ("leadfield", 4, 3, "file ends before row 2 of 2")],
    ids=["covb", "leadfield"],
)
def test_missing_line_is_named(kind, line, err_line, what, tmp_path):
    path = tmp_path / f"short.{kind}"
    write(path, kind, edit(BASES[kind], line, None))
    with pytest.raises(ConfigError, match=f"^{path}:{err_line}: {what}$"):
        READERS[kind](path)


def model_text(kind, reference, k):
    """The base MODEL with embedding ``kind``, 2 x 2 ``reference`` rows (or
    none) and ``k`` features."""
    ref = ["reference none"] if reference is None else ["reference 2", *reference]
    lines = ["MODEL v3", f"embedding {kind}", *MODEL.splitlines()[2:6], *ref,
             f"ridge {k} 1e-05 0.5", "mean" + " 0.1" * k, "scale 1", "beta" + " 0.5" * k]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "kind, reference, width",
    [("logdiag", None, 2), ("wasserstein", ["1 0", "0 0"], 2),
     ("wasserstein", ["2 0.5", "0.5 1"], 4), ("euclidean", None, 3)],
    ids=["logdiag", "wasserstein-rank-1", "wasserstein-rank-2", "euclidean"],
)
def test_model_feature_count_is_the_embedding_width(kind, reference, width, tmp_path, capsys):
    # After a filter of width r = 2: r for logdiag, r times the reference's
    # numerical rank for wasserstein, r(r+1)/2 for euclidean and geometric.
    # Any other count is a file error at the ridge line, not a failure of
    # the prediction (exit 3).
    path = tmp_path / "m.txt"
    path.write_text(model_text(kind, reference, width))
    assert read_model(path).model.beta.size == width
    path.write_text(model_text(kind, reference, width + 1))
    ridge = 8 if reference is None else 10
    with pytest.raises(ConfigError, match=f"^{path}:{ridge}: expected {width} features for a "
                                          f"{kind} embedding of filter width 2, got {width + 1}$"):
        read_model(path)
    assert cli_read("model", path, tmp_path) == 2
    assert str(path) in capsys.readouterr().err


def test_model_zero_wasserstein_reference_names_the_embedding_line(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(model_text("wasserstein", ["0 0", "0 0"], 2))
    with pytest.raises(ConfigError, match=f"^{path}:2: wasserstein embedding requires a "
                                          "reference of nonzero rank$"):
        read_model(path)
    assert cli_read("model", path, tmp_path) == 2
    assert str(path) in capsys.readouterr().err


def test_model_singular_geometric_reference_names_its_rank(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(model_text("geometric", ["1 0", "0 0"], 3))
    with pytest.raises(ConfigError, match=f"^{path}:2: geometric embedding requires a "
                                          "full-rank reference, numerical rank 1 of 2$"):
        read_model(path)
    assert cli_read("model", path, tmp_path) == 2
    assert "numerical rank 1 of 2" in capsys.readouterr().err


def test_model_overflowing_reference_names_the_embedding_line(tmp_path, capsys):
    # Finite entries whose (a + a^T) / 2 overflows: the reference is refused
    # through its embedding, at that line.
    path = tmp_path / "m.txt"
    path.write_text(model_text("geometric", ["1e308 1e308", "1e308 1e308"], 3))
    with pytest.raises(ConfigError, match=rf"^{path}:2: matrix entries must be finite: "
                                          r"\(a \+ a\^T\) / 2 overflows$"):
        read_model(path)
    assert cli_read("model", path, tmp_path) == 2
    assert "overflows" in capsys.readouterr().err


def test_non_ascii_triangle_exits_2_naming_its_line(tmp_path, capsys):
    path = tmp_path / "bad.covb"
    path.write_bytes(b"COVB v3 1 1 1\ny 0.5\n\xff\xfe\n")
    assert run("mean", "--bundle", path, "--out", tmp_path / "m.txt") == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}:3: sample 0: non-ASCII byte in its triangle line\n"


def test_model_ignores_blank_lines(tmp_path):
    plain, spaced = tmp_path / "a.txt", tmp_path / "b.txt"
    plain.write_text(MODEL)
    spaced.write_text("\n" + MODEL.replace("\nridge", "\n\n  \nridge") + "\n")
    a, b = read_model(plain), read_model(spaced)
    assert np.array_equal(a.filt.w, b.filt.w)
    assert np.array_equal(a.model.beta, b.model.beta)


def test_underscore_digits_rejected(tmp_path):
    # Labels go through the one number rule, which refuses Python's 1_0.
    path = tmp_path / "bad.covb"
    write(path, "covb", edit(COVB, 3, "y 1_0"))
    with pytest.raises(ConfigError, match=f"^{path}:3: sample 0: bad number '1_0'$"):
        read_covb(path)


def base_bytes(kind):
    """The bytes of base file ``kind`` as ``write`` stores them."""
    return (covb_text(BASES[kind]) if kind == "covb" else BASES[kind]).encode("ascii")


def arrays(kind, got):
    """Every array (and float) a reader of ``kind`` returned in ``got``."""
    if kind == "covb":
        return [got.matrices, got.labels]
    if kind == "model":
        ridge, ref = got.model, got.embedding.reference
        return [got.filt.w, got.filt.eigenvalues, ridge.beta, ridge.feature_mean,
                ridge.feature_scale, ridge.lambda_star, ridge.intercept,
                *([] if ref is None else [ref])]
    return [got.g]


@pytest.mark.parametrize("kind", sorted(BASES))
def test_crlf_file_reads_as_its_lf_copy(kind, tmp_path):
    lf, crlf = tmp_path / f"lf.{kind}", tmp_path / f"crlf.{kind}"
    lf.write_bytes(base_bytes(kind))
    crlf.write_bytes(base_bytes(kind).replace(b"\n", b"\r\n"))
    a, b = arrays(kind, READERS[kind](lf)), arrays(kind, READERS[kind](crlf))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        x, y = np.asarray(x, np.float64), np.asarray(y, np.float64)
        assert x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


# Count words of each base file's header lines, as (physical line, word).
COUNT_WORDS = {"covb": [(1, 2), (1, 3), (1, 4)],
               "model": [(3, 2), (3, 3), (7, 1), (10, 1)],
               "leadfield": [(1, 2), (1, 3)]}


def mutants(kind, rng, number):
    """``number`` mutants of base file ``kind``, cycling through five kinds:
    one byte set to a random value, truncation at a random byte, a line
    duplicated, a line dropped, and a header count set to 10^12."""
    data = base_bytes(kind)
    lines = data.splitlines(keepends=True)
    for j in range(number):
        step = j % 5
        if step == 0:
            flipped = bytearray(data)
            flipped[rng.integers(len(data))] = rng.integers(256)
            yield bytes(flipped)
        elif step == 1:
            yield data[:rng.integers(len(data))]
        elif step == 2:
            i = rng.integers(len(lines))
            yield b"".join(lines[:i + 1] + lines[i:])
        elif step == 3:
            i = rng.integers(len(lines))
            yield b"".join(lines[:i] + lines[i + 1:])
        else:
            line, word = COUNT_WORDS[kind][rng.integers(len(COUNT_WORDS[kind]))]
            words = lines[line - 1].split()
            words[word] = b"1000000000000"
            yield b"".join(lines[:line - 1] + [b" ".join(words) + b"\n"] + lines[line:])


@pytest.mark.parametrize("kind", sorted(BASES))
def test_mutants_read_or_name_their_line(kind, tmp_path):
    # A reader either returns finite arrays or raises ConfigError naming
    # the file and a line; any other exception, or a warning, fails.
    path = tmp_path / f"mutant.{kind}"
    prefix = re.compile(rf"{re.escape(str(path))}:\d+: ")
    for data in mutants(kind, np.random.default_rng(31), 200):
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = READERS[kind](path)
            except ConfigError as exc:
                assert prefix.match(str(exc)), (data, str(exc))
            else:
                assert all(np.all(np.isfinite(a)) for a in arrays(kind, got)), data


# ---------------------------------------------------------------------------
# Golden bytes and round trips
# ---------------------------------------------------------------------------


def golden_bundle():
    a = np.array([[1e300, -0.0], [-0.0, 5e-324]])
    b = np.array([[2.5, 1.0 / 3.0], [1.0 / 3.0, 0.7]]) * 1e-24
    return CovarianceBundle(
        matrices=[a, b], labels=[0.1, -0.0], nominal_rank=2
    )


# Labels are decimal; each triangle is the base64 of its little-endian
# float64 entries: 1e300, -0.0 and 5e-324, then 2.5e-24, 1/3 * 1e-24, 0.7e-24.
GOLDEN_COVB = (
    "COVB v3 2 2 2\n"
    "y 0.10000000000000001\n"
    "nHUAiDzkN34AAAAAAAAAgAEAAAAAAAAA\n"
    "y -0\n"
    "UbISQLMtCDs0vuDMWMrZOh0uH9d2FOs6\n"
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
        mats = rng.lognormal(sigma=20.0, size=(7, 1, 1))
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


def test_covb_round_trip_keeps_extreme_values(tmp_path):
    # -0.0, the smallest subnormal and the largest magnitudes, bit for bit.
    # Labels reach +-1e308; entries stop at half the float64 maximum, the
    # largest a bundle holds, since its constructor forms a + a^T.
    big = np.finfo(np.float64).max / 2
    mats = [[[big, -0.0], [-0.0, 5e-324]], [[-big, 5e-324], [5e-324, -0.0]],
            [[1e-300, -big], [-big, big]]]
    bund = CovarianceBundle(mats, [1e308, -1e308, -0.0], nominal_rank=2)
    path = tmp_path / "x.covb"
    write_covb(path, bund)
    back = read_covb(path)
    assert np.array_equal(back.matrices.view(np.int64), bund.matrices.view(np.int64))
    assert np.array_equal(back.labels.view(np.int64), bund.labels.view(np.int64))
    assert np.signbit(back.matrices[0, 0, 1]) and np.signbit(back.labels[2])


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
    filt = regress.fit_filter(bund.matrices, bund.labels, spec)
    train = regress.project(filt, bund.matrices, "wasserstein")
    state = regress.fit_fold(filt, train, bund.labels, spec)
    filt, emb, ridge = state.filt, state.embedding, state.model

    def f(values):
        return " ".join("%.17g" % x for x in values)

    lines = [
        "MODEL v3",
        f"embedding {emb.kind}",
        f"filter {filt.kind} {filt.w.shape[0]} {filt.w.shape[1]}",
        *[f(row) for row in filt.w],
        ("filter_eigs " + f(filt.eigenvalues)).rstrip(),
        f"reference {len(emb.reference)}",
        *[f(row) for row in emb.reference],
        f"ridge {ridge.beta.size} {f([ridge.lambda_star, ridge.intercept])}",
        "mean " + f(ridge.feature_mean),
        "scale " + f([ridge.feature_scale]),
        "beta " + f(ridge.beta),
    ]
    assert model.read_text() == "\n".join(lines) + "\n"
    back = read_model(model)
    assert np.array_equal(back.filt.w, filt.w)
    assert np.array_equal(back.filt.eigenvalues, filt.eigenvalues)
    assert np.array_equal(back.embedding.reference, emb.reference)
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
    state = read_model(model)
    test = regress.project(state.filt, bund.matrices, state.embedding.kind)
    yhat = regress.predict_fold(state, test)
    rows = manifold.fit_embedding(bund.matrices, "geometric")[1]
    point = manifold.mean_geometric(bund.matrices)
    assert pred.read_text() == joined(f"PRED v1 {len(yhat)}", yhat)
    assert feat.read_text() == joined(f"FEAT v1 {rows.shape[0]} {rows.shape[1]}", rows)
    assert mean.read_text() == joined(f"SYMMAT v1 {point.shape[0]}", point)
