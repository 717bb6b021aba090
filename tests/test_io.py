"""File-format round trips and validation errors."""

import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from blindgi import FormatError
from blindgi import arrayio
from blindgi.config import RunConfig, config_from_entries, config_to_entries


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
    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(12, 20)) * 3.0 + 5.0
        path = str(tmp_path / "img.pgm")
        arrayio.write_pgm16(path, values)
        back = arrayio.read_pgm16(path)
        span = values.max() - values.min()
        assert np.max(np.abs(back - values)) <= span / 65535

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

    @pytest.mark.parametrize("raw", [b"P5\n64", b"P5\n64 64\n", b"P5\nab 64\n65535\n", b"P5\n0 5\n65535\n"])
    def test_bad_header_is_format_error(self, tmp_path, raw):
        path = str(tmp_path / "bad.pgm")
        with open(path, "wb") as f:
            f.write(raw)
        with pytest.raises(FormatError):
            arrayio.read_pgm16(path)

    @pytest.mark.parametrize(
        "sidecar", [None, "vmin = abc\nvmax = 1.0\n", "vmin = 0.0\n", "vmin = abc\n"]
    )
    def test_bad_sidecar_is_format_error(self, tmp_path, sidecar):
        path = str(tmp_path / "s.pgm")
        arrayio.write_pgm16(path, np.ones((2, 3)))
        if sidecar is None:
            os.remove(path + ".scale")
        else:
            with open(path + ".scale", "w") as f:
                f.write(sidecar)
        with pytest.raises(FormatError, match="s.pgm.scale"):
            arrayio.read_pgm16(path)

    def test_constant_image(self, tmp_path):
        path = str(tmp_path / "c.pgm")
        arrayio.write_pgm16(path, np.full((4, 4), 2.5))
        back = arrayio.read_pgm16(path)
        npt.assert_array_equal(back, 2.5)


class TestBucketsCSV:
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
        with pytest.raises(FormatError, match="cannot read"):
            arrayio.read_flat_config(str(tmp_path))

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
_pgm_token = st.one_of(
    st.sampled_from([b"1", b"2", b"0", b"-1", b"65535", b"255", b"ab", b"#c\n", b"\xff"]),
    st.binary(max_size=3),
)


def _tiny_pgm(shape):
    """A valid P5 header for ``(nx, ny)`` followed by exactly its sample bytes."""
    size = 2 * shape[0] * shape[1]
    return st.binary(min_size=size, max_size=size).map(lambda s: b"P5\n%d %d\n65535\n" % shape + s)


PGM_BYTES = st.one_of(
    st.binary(max_size=48),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(_tiny_pgm),
    st.builds(
        lambda tokens, payload: b"P5\n" + b" ".join(tokens) + b"\n" + payload,
        st.lists(_pgm_token, max_size=4),
        st.binary(max_size=12),
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
    @given(raw=PGM_BYTES, sidecar=st.none() | CONFIG_BYTES)
    def test_read_pgm16(self, tmp_path, raw, sidecar):
        path = tmp_path / "p.pgm"
        path.write_bytes(raw)
        scale = tmp_path / "p.pgm.scale"
        if sidecar is None:
            scale.unlink(missing_ok=True)
        else:
            scale.write_bytes(sidecar)
        returns_or_format_error(arrayio.read_pgm16, str(path))

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
