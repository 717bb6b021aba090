"""File-format round trips and validation errors."""

import os
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from blindgi import FormatError
from blindgi import arrayio
from blindgi.config import RunConfig, config_from_entries, config_to_entries

import reference


class TestArrayFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(24, 16))
        path = str(tmp_path / "a.f64")
        arrayio.write_array(path, values, pitch=1.25e-5, centered=True,
                           kind=arrayio.KIND_SPECTRUM)
        back, meta = arrayio.read_array(path)
        npt.assert_array_equal(back, values)
        assert meta == {"nx": 16, "ny": 24, "pitch": 1.25e-5, "centered": True,
                        "kind": arrayio.KIND_SPECTRUM}

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.f64"
        path.write_bytes(b"\x00" * 128)
        with pytest.raises(FormatError, match="byte offset 0"):
            arrayio.read_array(str(path))

    def test_truncated_payload_reports_offset(self, tmp_path):
        values = np.ones((8, 8))
        path = str(tmp_path / "t.f64")
        arrayio.write_array(path, values, pitch=1e-5)
        with open(path, "rb") as f:
            raw = f.read()
        with open(path, "wb") as f:
            f.write(raw[:-16])
        with pytest.raises(FormatError, match="offset"):
            arrayio.read_array(path)

    @pytest.mark.parametrize("dim", [np.nan, np.inf, 0.0, 1.5])
    def test_bad_dimensions(self, tmp_path, dim):
        path = tmp_path / "d.f64"
        header = [arrayio.MAGIC, arrayio.FORMAT_VERSION, dim, 1.0, 1.0, 0.0, 0.0, 0.0]
        path.write_bytes(np.array(header + [0.0], dtype="<f8").tobytes())
        with pytest.raises(FormatError, match="bad dimensions"):
            arrayio.read_array(str(path))

    def test_header_is_recognizable(self, tmp_path):
        path = str(tmp_path / "h.f64")
        arrayio.write_array(path, np.zeros((4, 4)), pitch=1e-5)
        with open(path, "rb") as f:
            assert f.read(8) == arrayio.MAGIC_BYTES


class TestPGM:
    @staticmethod
    def samples(path, shape):
        """The big-endian 16-bit samples after the P5 header."""
        with open(path, "rb") as f:
            raw = f.read()
        header = b"P5\n%d %d\n65535\n" % (shape[1], shape[0])
        assert raw.startswith(header)
        return np.frombuffer(raw[len(header):], dtype=">u2").reshape(shape)

    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(12, 20)) * 3.0 + 5.0
        path = str(tmp_path / "img.pgm")
        arrayio.write_pgm16(path, values)
        span = values.max() - values.min()
        expected = np.round((values - values.min()) / span * 65535)
        npt.assert_array_equal(self.samples(path, values.shape), expected)
        assert not os.path.exists(path + ".scale")

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "img.pgm")
        arrayio.write_pgm16(path, np.zeros((3, 5)))
        with open(path, "rb") as f:
            raw = f.read()
        assert raw.startswith(b"P5\n5 3\n65535\n")
        assert len(raw) == len(b"P5\n5 3\n65535\n") + 3 * 5 * 2

    def test_big_endian_samples(self, tmp_path):
        values = np.array([[0.0, 1.0]])
        path = str(tmp_path / "be.pgm")
        arrayio.write_pgm16(path, values)
        with open(path, "rb") as f:
            raw = f.read()
        assert raw.endswith(b"\x00\x00\xff\xff")

    def test_constant_image(self, tmp_path):
        path = str(tmp_path / "c.pgm")
        arrayio.write_pgm16(path, np.full((4, 4), 2.5))
        npt.assert_array_equal(self.samples(path, (4, 4)), 0)


class TestBucketsCSV:
    def test_table_bytes(self, tmp_path):
        # one writer for every CSV: UTF-8, "\n" line ends whatever the platform
        path = str(tmp_path / "t.csv")
        arrayio.write_csv(path, ("a", "b"), [("1", "0.5"), ("2", "true")])
        with open(path, "rb") as f:
            assert f.read() == b"a,b\n1,0.5\n2,true\n"
        arrayio.write_buckets_csv(path, np.array([0.1, -2.0]))
        with open(path, "rb") as f:
            assert f.read() == b"j,value\n0,0.1\n1,-2.0\n"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        buckets = rng.normal(size=100) * 1e-9
        path = str(tmp_path / "b.csv")
        arrayio.write_buckets_csv(path, buckets)
        npt.assert_array_equal(arrayio.read_buckets_csv(path), buckets)
        with open(path) as f:
            assert f.readline() == "j,value\n"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("x,y\n0,1\n")
        with pytest.raises(FormatError, match="line 1"):
            arrayio.read_buckets_csv(str(path))

    def test_non_sequential_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("j,value\n0,1.0\n2,2.0\n")
        with pytest.raises(FormatError, match="line 3"):
            arrayio.read_buckets_csv(str(path))

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"j,value\n0,1.0\n\xff")
        with pytest.raises(FormatError, match=r"b\.csv: not utf-8 text \(byte offset 14\)"):
            arrayio.read_buckets_csv(str(path))

    def test_streams_across_read_blocks(self, tmp_path):
        # CR LF pairs throughout, and a bad row or a bad byte deep in a large
        # file, are handled as in a small one
        body = b"".join(f"{j},{j / 7!r}\r\n".encode() for j in range(20000))
        path = tmp_path / "b.csv"
        path.write_bytes(b"j,value\r\n" + body)
        npt.assert_array_equal(arrayio.read_buckets_csv(str(path)), np.arange(20000) / 7)
        lines = body.splitlines(keepends=True)
        path.write_bytes(b"j,value\n" + b"".join(lines[:17000]) + b"x\n" + b"".join(lines[17000:]))
        with pytest.raises(FormatError, match="bad row at line 17002: 'x'"):
            arrayio.read_buckets_csv(str(path))
        # the whole file is checked for UTF-8 before any row is parsed
        bad = b"j,value\n0,1.0\n2,2.0\n" + body[:100000] + b"\xc3\n"
        path.write_bytes(bad)
        with pytest.raises(FormatError, match=f"not utf-8 text \\(byte offset {len(bad) - 2}\\)"):
            arrayio.read_buckets_csv(str(path))

    def test_memory_below_three_file_sizes(self, tmp_path):
        path = str(tmp_path / "b.csv")
        arrayio.write_buckets_csv(path, np.random.default_rng(4).normal(size=65536))
        arrayio.read_buckets_csv(path)
        tracemalloc.start()
        try:
            arrayio.read_buckets_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * os.path.getsize(path)

    def test_grammar_memory_below_six_file_sizes(self, tmp_path):
        # one U+3000 after the last row sends the file to the line grammar,
        # which holds the file's lines and values but not its bytes or text
        path = tmp_path / "b.csv"
        arrayio.write_buckets_csv(str(path), np.random.default_rng(4).normal(size=65536))
        path.write_bytes(path.read_bytes()[:-1] + "\u3000\n".encode())
        arrayio.read_buckets_csv(str(path))
        tracemalloc.start()
        try:
            values = arrayio.read_buckets_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(values) == 65536
        assert peak < 6 * os.path.getsize(path)


    def test_writer_blocks(self, tmp_path, monkeypatch):
        # 20,000 rows end mid-block; every row is f"{j},{v!r}", and numpy's C
        # parser takes the writer's rows without the line-grammar fallback
        values = np.random.default_rng(5).normal(size=20000) * 1e-3
        values[[0, 1023, 1024, 2047, 19999]] = [-0.0, np.inf, np.nan, 5e-324, 1e300]
        path = str(tmp_path / "b.csv")
        arrayio.write_buckets_csv(path, values)
        with open(path, "rb") as f:
            text = f.read()
        want = "j,value\n" + "".join(f"{j},{v!r}\n" for j, v in enumerate(values.tolist()))
        assert text == want.encode()

        def no_fallback(*args):
            raise AssertionError("the reader fell back to the line grammar")

        monkeypatch.setattr(arrayio, "_decode", no_fallback)
        assert arrayio.read_buckets_csv(path).tobytes() == values.tobytes()

    def test_writer_holds_one_block(self, tmp_path):
        path = str(tmp_path / "b.csv")
        values = np.random.default_rng(4).normal(size=65536)
        arrayio.write_buckets_csv(path, values)
        tracemalloc.start()
        try:
            arrayio.write_buckets_csv(path, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block's text, strings and floats, not the file's 1.7 MB of text
        assert peak < os.path.getsize(path) / 8


# Bucket row forms: (index, value) -> line.  The GOOD forms are rows the
# line-by-line grammar accepts as row j with value v, most of which numpy's C
# parser rejects; blank lines are skipped; the rest are bad rows.
_ARABIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
ROW_FORMS = {
    "canonical": lambda j, v: f"{j},{v!r}",
    "plus": lambda j, v: f"+{j},+{v!r}",
    "spaced": lambda j, v: f" {j}\t, {v!r}\u3000",
    "underscore": lambda j, v: f"{'_'.join(str(j))},{v!r}",
    "arabic": lambda j, v: f"{str(j).translate(_ARABIC)},{repr(v).translate(_ARABIC)}",
    "empty": lambda j, v: "",
    "whitespace": lambda j, v: " \t ",
    "extra comma": lambda j, v: f"{j},{v!r},",
    "bad float": lambda j, v: f"{j},{v!r}x",
    "comment": lambda j, v: "#",
    "out of order": lambda j, v: f"{j + 1},{v!r}",
    "float index": lambda j, v: f"{j}.0,{v!r}",
}
GOOD_FORMS = {"canonical", "plus", "spaced", "underscore", "arabic"}


def bucket_text(prefix, rows, newline):
    """A bucket table: ``prefix`` canonical rows, so that the drawn rows can
    sit deep in the file, then one line per drawn (form, value)."""
    lines = ["j,value"] + [f"{j},{j / 7!r}" for j in range(prefix)]
    j = prefix
    for form, v in rows:
        lines.append(ROW_FORMS[form](j, v))
        j += form in GOOD_FORMS
    return newline.join(lines) + newline


def values_or_message(read, path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(path).tobytes()
        except FormatError as exc:
            result = str(exc)
    assert not caught, "the reader printed a warning"
    return result


class TestBlockReader:
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        prefix=st.sampled_from([0, 3, 1020, 1024, 2040]),
        rows=st.lists(
            st.tuples(
                # good rows weighted up, so that more files are read through
                st.one_of(st.sampled_from(sorted(GOOD_FORMS)), st.sampled_from(sorted(ROW_FORMS))),
                st.one_of(st.floats(), st.sampled_from([0.5, -0.0, 1e-300, 12345.0])),
            ),
            max_size=12,
        ),
        # a text-mode file ends lines at CR and LF, str.splitlines at more
        newline=st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"]),
    )
    @example(prefix=0, rows=[("empty", 0.0)], newline="\n")  # a file with no rows at all
    @example(prefix=3, rows=[("canonical", 0.5)], newline="\r")
    @example(prefix=3, rows=[("canonical", 0.5)], newline="\x0c")
    @example(prefix=3, rows=[("canonical", 0.5)], newline="\x85")
    @example(prefix=3, rows=[("canonical", 0.5)], newline="\u2028")
    def test_agrees_with_line_reader(self, tmp_path, prefix, rows, newline):
        # the same array, bit for bit, or the same FormatError message
        path = tmp_path / "b.csv"
        path.write_bytes(bucket_text(prefix, rows, newline).encode())
        assert values_or_message(arrayio.read_buckets_csv, str(path)) == values_or_message(
            reference.read_buckets_csv, str(path))

    @pytest.mark.parametrize("blank", list("\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029"))
    def test_blank_inside_a_row(self, tmp_path, blank):
        # numpy's C parser takes each of these for a blank inside a field,
        # where the grammar breaks the line or int() and float() refuse it
        path = tmp_path / "b.csv"
        for row in (f"0,{blank}0.5", f"0{blank},0.5", f"0,0.5{blank}"):
            path.write_bytes(f"j,value\n{row}\n1,2.0\n".encode())
            assert values_or_message(arrayio.read_buckets_csv, str(path)) == values_or_message(
                reference.read_buckets_csv, str(path))


class TestFlatConfig:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(ensemble_count=2**10, psf_seed=3)
        path = str(tmp_path / "cfg.txt")
        arrayio.write_flat_config(path, config_to_entries(cfg))
        back = config_from_entries(arrayio.read_flat_config(path))
        assert back == cfg

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\n\nensemble.count = 128\n")
        entries = arrayio.read_flat_config(str(path))
        assert entries == {"ensemble.count": "128"}

    def test_unknown_key_rejected(self):
        from blindgi import ConfigError

        with pytest.raises(ConfigError):
            config_from_entries({"nonsense.key": "1"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("this is not a pair\n")
        with pytest.raises(FormatError, match="line 1"):
            arrayio.read_flat_config(str(path))

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("ensemble.count = 128\n# comment\nensemble.count = 256\n")
        with pytest.raises(FormatError, match=r"'ensemble.count' repeated at lines 1 and 3"):
            arrayio.read_flat_config(str(path))

    def test_empty_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("ensemble.count = 128\n= 3\n")
        with pytest.raises(FormatError, match="line 2"):
            arrayio.read_flat_config(str(path))

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"ensemble.count = 128\n\xff\n")
        with pytest.raises(FormatError, match=r"cfg\.txt: not utf-8 text"):
            arrayio.read_flat_config(str(path))

    def test_directory_is_format_error(self, tmp_path):
        # every reader names the path it cannot open, a directory or a missing file
        missing = str(tmp_path / "missing.f64")
        for read in (arrayio.read_flat_config, arrayio.read_buckets_csv, arrayio.read_array):
            for path in (str(tmp_path), missing):
                with pytest.raises(FormatError, match=re.escape(f"{path}: cannot read")):
                    read(path)

    def test_utf8_round_trip(self, tmp_path):
        # the encoding is fixed, not taken from the locale
        path = str(tmp_path / "cfg.txt")
        arrayio.write_flat_config(path, {"note": "5 \u00b5m"})
        with open(path, "rb") as f:
            assert f.read() == b"note = 5 \xc2\xb5m\n"
        assert arrayio.read_flat_config(path) == {"note": "5 \u00b5m"}

    def test_write_is_sorted(self, tmp_path):
        path = str(tmp_path / "cfg.txt")
        arrayio.write_flat_config(path, {"b.two": "2", "a.one": "1"})
        with open(path) as f:
            lines = f.read().splitlines()
        assert lines == ["a.one = 1", "b.two = 2"]


# Reader inputs: arbitrary bytes, plus near-valid files whose fields reach
# each check (magic, version, dimensions, sizes, sidecar keys).
_f64 = st.one_of(st.floats(), st.sampled_from([0.0, 1.0, 2.0, 1.5]))
ARRAY_BYTES = st.one_of(
    st.binary(max_size=96),
    st.builds(
        lambda head, rest, payload: np.array(head + rest, dtype="<f8").tobytes() + payload,
        st.tuples(
            st.sampled_from([arrayio.MAGIC, 0.0]),
            st.sampled_from([arrayio.FORMAT_VERSION, 2.0]),
            _f64,
            _f64,
        ).map(list),
        st.lists(st.floats(), min_size=4, max_size=4),
        st.binary(max_size=40),
    ),
)


def _text_bytes(lines):
    return st.one_of(
        st.binary(max_size=64),
        st.lists(st.one_of(st.sampled_from(lines), st.binary(max_size=6)), max_size=5).map(
            b"\n".join
        ),
    )


CONFIG_BYTES = _text_bytes(
    [b"vmin = 0.5", b"vmax = 2", b"vmin = nan", b"vmax = x", b"= 3", b"vmin", b"# c", b"",
     b"\xff", b"a = 1 = 2"]
)
BUCKET_BYTES = _text_bytes([b"j,value", b"0,1.5", b"1,2", b"0,x", b"2,1", b",", b"1,nan", b""])

FUZZ = settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def returns_or_format_error(read, *args):
    try:
        read(*args)
    except FormatError:
        pass


class TestReadersOnAnyBytes:
    """Each reader either returns or raises FormatError, whatever the bytes."""

    @FUZZ
    @given(raw=ARRAY_BYTES)
    def test_read_array(self, tmp_path, raw):
        path = tmp_path / "a.f64"
        path.write_bytes(raw)
        returns_or_format_error(arrayio.read_array, str(path))

    @FUZZ
    @given(raw=CONFIG_BYTES)
    def test_read_flat_config(self, tmp_path, raw):
        path = tmp_path / "cfg.txt"
        path.write_bytes(raw)
        returns_or_format_error(arrayio.read_flat_config, str(path))

    @FUZZ
    @given(raw=BUCKET_BYTES)
    def test_read_buckets_csv(self, tmp_path, raw):
        path = tmp_path / "b.csv"
        path.write_bytes(raw)
        returns_or_format_error(arrayio.read_buckets_csv, str(path))
