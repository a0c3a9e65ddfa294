"""Spectral curve container, interpolation, unit conversion, CSV ingest."""

import math
import os
import re

import pytest
from hypothesis import given, strategies as st

from indoorqkd.spectra import (
    OutOfBandError,
    SpectralCurve,
    SpectrumFormatError,
    SpectrumKindError,
    bundled_spectrum_path,
    density_at,
    irradiance_to_psd,
    load_spectrum_csv,
)


def simple_curve(kind="source-psd"):
    return SpectralCurve((400.0, 500.0, 600.0), (1.0, 3.0, 2.0), kind)


class TestSpectralCurve:
    def test_band(self):
        assert simple_curve().band() == (400.0, 600.0)

    def test_wavelengths_must_increase(self):
        with pytest.raises(ValueError):
            SpectralCurve((500.0, 400.0), (1.0, 1.0), "source-psd")

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            SpectralCurve((500.0,), (1.0,), "source-psd")

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_values_non_negative(self, bad):
        with pytest.raises(ValueError, match="non-negative and finite"):
            SpectralCurve((400.0, 500.0), (1.0, bad), "source-psd")

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="wavelength and value arrays differ in length"):
            SpectralCurve((400.0, 500.0, 600.0), (1.0, 1.0), "source-psd")

    def test_unknown_kind(self):
        with pytest.raises(SpectrumKindError):
            SpectralCurve((400.0, 500.0), (1.0, 1.0), "radiance")


class TestDensityAt:
    def test_exact_nodes(self):
        curve = simple_curve()
        assert density_at(curve, 400.0) == 1.0
        assert density_at(curve, 500.0) == 3.0
        assert density_at(curve, 600.0) == 2.0

    def test_every_sample_read_back_bit_for_bit(self):
        # at a sample the interpolation weight is 0 and y0 + 0 * (y1 - y0) is y0
        curve = load_spectrum_csv(bundled_spectrum_path("warm_white_led.csv"), "source-psd")
        read = [density_at(curve, w) for w in curve.wavelengths_nm]
        assert [v.hex() for v in read] == [v.hex() for v in curve.values]

    @pytest.mark.parametrize("values", [(1.0, -0.0, -0.0), (-0.0, -0.0, -0.0), (-0.0, 1.0, -0.0)])
    def test_a_stored_minus_zero_reads_as_plus_zero(self, values):
        # at the band's last point too, which is read without interpolating
        value = density_at(SpectralCurve((850.0, 880.0, 900.0), values, "source-psd"), 900.0)
        assert math.copysign(1.0, value) == 1.0

    def test_midpoint_interpolates_linearly(self):
        assert density_at(simple_curve(), 450.0) == pytest.approx(2.0)
        assert density_at(simple_curve(), 550.0) == pytest.approx(2.5)

    def test_no_extrapolation(self):
        with pytest.raises(OutOfBandError):
            density_at(simple_curve(), 399.9)
        with pytest.raises(OutOfBandError):
            density_at(simple_curve(), 600.1)

    @given(st.floats(400.0, 600.0))
    def test_interpolation_stays_within_neighbor_range(self, wl):
        value = density_at(simple_curve(), wl)
        assert 1.0 <= value <= 3.0


class TestIrradianceToPsd:
    def test_full_sphere_scaling(self):
        curve = simple_curve(kind="irradiance")
        psd = irradiance_to_psd(curve, 0.5)
        factor = 4.0 * math.pi * 0.25
        assert psd.kind == "source-psd"
        assert psd.values == tuple(v * factor for v in curve.values)

    def test_rejects_wrong_kind(self):
        with pytest.raises(SpectrumKindError):
            irradiance_to_psd(simple_curve(kind="source-psd"), 1.0)

    @pytest.mark.parametrize("distance", [0.0, math.nan, math.inf])
    def test_rejects_nonpositive_distance(self, distance):
        with pytest.raises(ValueError, match="distance_m must be positive and finite"):
            irradiance_to_psd(simple_curve(kind="irradiance"), distance)

    @pytest.mark.parametrize("values, distance", [
        ((1.0, 3.0, 2.0), 1e200),  # 4 pi d^2 overflows
        ((1.0, 3.0, 2.0), 1e154),  # d^2 does not, 4 pi d^2 does
        ((0.0, 1e10, 2.0), 1e150),  # 4 pi d^2 does not, one 4 pi d^2 E does
        ((0.0, 0.0, 0.0), 1e200),  # inf * 0 is nan
    ])
    def test_rejects_a_distance_whose_psd_overflows(self, values, distance):
        curve = SpectralCurve((400.0, 500.0, 600.0), values, "irradiance")
        with pytest.raises(ValueError, match=re.escape(f"4 pi d^2 E overflows at distance_m = {distance!r}")):
            irradiance_to_psd(curve, distance)

    def test_huge_finite_and_underflowing_distances_convert(self):
        # 4 pi d^2 E near 4e307 is still finite; one that underflows to 0 would turn the lamp off
        assert irradiance_to_psd(simple_curve(kind="irradiance"), 1e153).values[1] < math.inf
        with pytest.raises(ValueError, match=re.escape("4 pi d^2 E underflows at distance_m = 1e-300")):
            irradiance_to_psd(simple_curve(kind="irradiance"), 1e-300)
        # a subnormal 4 pi d^2 still gives nonzero densities
        assert 0.0 < irradiance_to_psd(simple_curve(kind="irradiance"), 1e-160).values[0] < 1e-318


class TestCsvLoading:
    def test_bundled_cool_white_loads(self):
        curve = load_spectrum_csv(bundled_spectrum_path("cool_white_led.csv"), "source-psd")
        assert curve.band() == (380.0, 1000.0)
        # near-infrared leakage at the operating wavelength used in demos
        assert density_at(curve, 880.0) == pytest.approx(1.0567e-5, rel=1e-3)

    def test_warm_white_leaks_more_infrared(self):
        cool = load_spectrum_csv(bundled_spectrum_path("cool_white_led.csv"), "source-psd")
        warm = load_spectrum_csv(bundled_spectrum_path("warm_white_led.csv"), "source-psd")
        assert density_at(warm, 880.0) > density_at(cool, 880.0)

    def test_irradiance_file_round_trips(self):
        irr = load_spectrum_csv(
            bundled_spectrum_path("cool_white_led_irradiance_50cm.csv"), "irradiance"
        )
        cool = load_spectrum_csv(bundled_spectrum_path("cool_white_led.csv"), "source-psd")
        back = irradiance_to_psd(irr, 0.5)
        assert density_at(back, 880.0) == pytest.approx(density_at(cool, 880.0), rel=1e-5)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_spectrum_csv(tmp_path / "nope.csv", "source-psd")

    @pytest.mark.parametrize("path", [0, None, 1.5, [b"s.csv"]], ids=["descriptor-0", "none", "float", "list"])
    def test_a_path_that_is_not_text_or_path_like_is_refused_before_any_read(self, path):
        # open() takes an int as a file descriptor: 0 would read standard input and then close it
        os.fstat(0)
        with pytest.raises(ValueError, match=f"^path must be a file path, as text or os.PathLike, got {re.escape(repr(path))}$"):
            load_spectrum_csv(path, "source-psd")
        os.fstat(0)

    def test_header_required(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("400.0,1.0\n500.0,2.0\n")
        with pytest.raises(SpectrumFormatError, match="missing header row: row 1 is data"):
            load_spectrum_csv(path, "source-psd")

    def test_a_headerless_file_keeps_no_sample_silently(self, tmp_path):
        # three samples and no header: not the band 880-900 nm with 850 nm dropped
        path = tmp_path / "s.csv"
        path.write_text("850.0,1.0\n880.0,2.0\n900.0,3.0\n")
        with pytest.raises(SpectrumFormatError, match=re.escape(f"{path}: missing header row: row 1 is data, starting with the number '850.0'")):
            load_spectrum_csv(path, "source-psd")

    def test_a_headerless_file_with_a_byte_order_mark_is_refused_as_without(self, tmp_path):
        # the mark is not part of the first number: 850 nm is not taken for a header and dropped
        path = tmp_path / "s.csv"
        path.write_bytes(b"\xef\xbb\xbf850.0,1.0\n880.0,2.0\n900.0,3.0\n")
        with pytest.raises(SpectrumFormatError, match=re.escape(f"{path}: missing header row: row 1 is data, starting with the number '850.0'")):
            load_spectrum_csv(path, "source-psd")

    def test_a_file_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        text = b"wavelength_nm,v\n400.0,1.0\n500.0,2.0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_spectrum_csv(marked, "source-psd") == load_spectrum_csv(plain, "source-psd")

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "marked"])
    def test_a_byte_that_is_not_utf8_named_by_its_offset_in_the_file(self, tmp_path, mark):
        path = tmp_path / "s.csv"
        data = mark + b"wavelength_nm,v\n400.0,1.0\n500.0,2.0\xff\n"
        path.write_bytes(data)
        offset = data.index(b"\xff")
        message = f"{path}: not UTF-8 text: invalid start byte at byte {offset}"
        with pytest.raises(SpectrumFormatError, match=f"^{re.escape(message)}$"):
            load_spectrum_csv(path, "source-psd")

    @pytest.mark.parametrize("text, message", [
        ("", "missing two-column header row"),
        ("wavelength_nm,v\n400.0,1.0\n", "fewer than two data rows"),
    ], ids=["empty", "one-data-row"])
    def test_too_short_file_named(self, tmp_path, text, message):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(SpectrumFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_spectrum_csv(path, "source-psd")

    def test_bad_float_reports_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,v\n400.0,1.0\n500.0,oops\n")
        with pytest.raises(SpectrumFormatError, match="row 3"):
            load_spectrum_csv(path, "source-psd")

    def test_wrong_column_count_reports_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,v\n400.0,1.0,9\n")
        with pytest.raises(SpectrumFormatError, match="row 2"):
            load_spectrum_csv(path, "source-psd")

    def test_kind_is_validated(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,v\n400.0,1.0\n500.0,2.0\n")
        with pytest.raises(SpectrumKindError):
            load_spectrum_csv(path, "luminance")

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,v\n400.0,1.0\n\n500.0,2.0\n\n")
        curve = load_spectrum_csv(path, "source-psd")
        assert curve.band() == (400.0, 500.0)
