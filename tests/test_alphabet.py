import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rispattern import (
    Alphabet,
    ComplexCoefficient,
    DesignCriterion,
    builtin,
    builtin_names,
    constellation_stats,
    dump_alphabet,
    load_alphabet,
    uadp_set,
)
from rispattern.alphabet import AlphabetError


def amplitudes(a):
    return np.array([e.amplitude for e in a.entries])


class TestBuiltins:
    def test_mmwave33(self):
        a = builtin("mmwave33")
        assert a.cardinality == 2
        assert amplitudes(a) == pytest.approx([0.8, 0.8])
        assert np.degrees(a.phases) == pytest.approx([150.0, 0.0])
        assert a.nominal_frequency == 33e9

    def test_mmwave27(self):
        a = builtin("mmwave27")
        assert amplitudes(a) == pytest.approx([0.9, 0.7])
        assert np.degrees(a.phases) == pytest.approx([165.0, 0.0])

    def test_omni3p6_wraps_215(self):
        a = builtin("omni3p6")
        assert amplitudes(a) == pytest.approx([0.46, 0.55])
        assert np.degrees(a.phases) == pytest.approx([20.0, -145.0])

    def test_testbed2p3_db_and_wrap(self):
        a = builtin("testbed2p3")
        # field convention: 10^(dB/20); phases wrapped into (-180, 180]
        assert amplitudes(a) == pytest.approx(
            [10 ** (-1.2 / 20)] * 2 + [10 ** (-0.8 / 20), 10 ** (-0.7 / 20)]
        )
        assert np.degrees(a.phases) == pytest.approx([154.5, -23.2, 69.8, -110.3])

    def test_varactor5g_row_1p25v(self):
        a = builtin("varactor5g")
        assert a.cardinality == 14
        i = a.control_values.index(1.25)
        assert a.entries[i].amplitude == pytest.approx(10 ** (-20.563 / 20))
        assert a.entries[i].amplitude == pytest.approx(0.09372, abs=5e-6)
        assert a.entries[i].phase_deg == pytest.approx(-167.158)

    def test_unknown_name_lists_valid(self):
        with pytest.raises(KeyError) as err:
            builtin("nope")
        for name in builtin_names():
            assert name in str(err.value)

    def test_all_builtins_canonical(self):
        for name in builtin_names():
            a = builtin(name)
            assert np.all(amplitudes(a) > 0)
            assert np.all(amplitudes(a) <= 1)
            assert np.all(a.phases > -math.pi)
            assert np.all(a.phases <= math.pi)


class TestUadpSet:
    def test_l2(self):
        a = uadp_set(2)
        assert np.degrees(a.phases) == pytest.approx([0.0, 180.0])
        assert amplitudes(a) == pytest.approx([1.0, 1.0])

    def test_l4_canonicalized(self):
        a = uadp_set(4)
        assert np.degrees(a.phases) == pytest.approx([0.0, 90.0, 180.0, -90.0])

    def test_l16_spacing(self):
        a = uadp_set(16)
        assert a.cardinality == 16
        diffs = np.diff(np.sort(np.degrees(a.phases)))
        assert diffs == pytest.approx([22.5] * 15)

    def test_l1_rejected(self):
        with pytest.raises(ValueError):
            uadp_set(1)

    @given(st.integers(2, 40))
    def test_centroid_is_zero(self, levels):
        centroid, _ = constellation_stats(uadp_set(levels))
        assert abs(centroid) < 1e-12


class TestConstellationStats:
    def test_mmwave33_centroid(self):
        centroid, _ = constellation_stats(builtin("mmwave33"))
        expected = (0.8 * np.exp(1j * np.radians(150)) + 0.8) / 2
        assert centroid == pytest.approx(expected)

    def test_varactor_centroid_offset(self):
        centroid, _ = constellation_stats(builtin("varactor5g"))
        assert centroid.real > 0
        assert abs(centroid) > 0.1

    def test_coverage_uadp4(self):
        _, coverage = constellation_stats(uadp_set(4))
        assert math.degrees(coverage) == pytest.approx(270.0)

    def test_coverage_single_entry(self):
        a = Alphabet((ComplexCoefficient(1.0, 0.3),))
        _, coverage = constellation_stats(a)
        assert coverage == 0.0


class TestLoadAlphabet:
    def test_ideal_binary(self):
        text = "amplitude,phase\n1.0,0\n1.0,180\n"
        a = load_alphabet(text)
        assert amplitudes(a) == pytest.approx([1.0, 1.0])
        assert np.degrees(a.phases) == pytest.approx([0.0, 180.0])

    def test_db_and_wrap(self):
        text = "# amplitude_unit: db\n# phase_unit: deg\namplitude,phase\n-1.2,-383.2\n"
        a = load_alphabet(text)
        assert a.entries[0].amplitude == pytest.approx(0.8710, abs=5e-5)
        assert a.entries[0].phase_deg == pytest.approx(-23.2)

    def test_amplitude_above_one_names_row(self):
        text = "amplitude,phase\n0.5,0\n1.5,10\n"
        with pytest.raises(AlphabetError, match="line 3"):
            load_alphabet(text)

    def test_missing_column(self):
        with pytest.raises(AlphabetError, match="header"):
            load_alphabet("amplitude,angle\n1.0,0\n")

    def test_empty_table(self):
        with pytest.raises(AlphabetError, match="empty"):
            load_alphabet("amplitude,phase\n")

    def test_radian_unit(self):
        a = load_alphabet("# phase_unit: rad\namplitude,phase\n1.0,3.14159\n")
        assert a.entries[0].phase == pytest.approx(3.14159)

    def test_control_column_preserved(self):
        a = load_alphabet("amplitude,phase,control\n1.0,0,0.25\n0.9,90,0.5\n")
        assert a.control_values == (0.25, 0.5)

    def test_duplicate_rows_warn_not_dropped(self):
        text = "amplitude,phase\n1.0,0\n1.0,0\n"
        with pytest.warns(UserWarning, match="duplicates"):
            a = load_alphabet(text)
        assert a.cardinality == 2

    def test_row_order_preserved(self):
        a = load_alphabet("amplitude,phase\n0.3,10\n0.9,-20\n0.5,30\n")
        assert amplitudes(a) == pytest.approx([0.3, 0.9, 0.5])


class TestCanonicalExport:
    @pytest.mark.parametrize("name", builtin_names())
    def test_roundtrip_stable_in_canonical_encoding(self, name):
        a = builtin(name)
        text = dump_alphabet(a)
        b = load_alphabet(text, source_label=a.source_label)
        assert dump_alphabet(b) == text

    def test_header_units_declared(self):
        text = dump_alphabet(uadp_set(2))
        assert "# amplitude_unit: linear" in text
        assert "# phase_unit: deg" in text


class TestComplexCoefficient:
    def test_amplitude_bounds(self):
        with pytest.raises(AlphabetError):
            ComplexCoefficient(1.0001, 0.0)
        with pytest.raises(AlphabetError):
            ComplexCoefficient(-0.1, 0.0)

    def test_value(self):
        c = ComplexCoefficient.from_linear_deg(0.5, 90.0)
        assert c.value == pytest.approx(0.5j)


class TestDesignCriterion:
    def test_uadp_needs_two_levels(self):
        with pytest.raises(ValueError):
            DesignCriterion.uadp(1)

    def test_uaep_needs_alphabet(self):
        with pytest.raises(ValueError):
            DesignCriterion("uaep")

    def test_negative_diffuser_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            DesignCriterion.diffuser(-1)
        assert DesignCriterion.diffuser(0).seed == 0

    def test_labels(self):
        assert DesignCriterion.uadp(16).label() == "UADP(L=16)"
        assert DesignCriterion.uacp().label() == "UACP"

    def test_control_length_mismatch(self):
        with pytest.raises(AlphabetError):
            Alphabet((ComplexCoefficient(1.0, 0.0),), control_values=(1.0, 2.0))
