"""Sweep space enumeration: axes, grids, OFAT, dedup, invalid points."""

import pytest

from repro.common.config import small_config
from repro.common.errors import ConfigError
from repro.explore.space import (
    Axis,
    Grid,
    OneFactorAtATime,
    build_space,
    format_value,
    parse_value,
)


class TestParseValue:
    def test_size_suffixes(self):
        assert parse_value("8k") == 8192
        assert parse_value("16K") == 16384
        assert parse_value("2m") == 2 * 1024 * 1024
        assert parse_value("1g") == 1024 ** 3
        assert parse_value("0.5k") == 512

    def test_plain_numbers(self):
        assert parse_value("64") == 64
        assert isinstance(parse_value("64"), int)
        assert parse_value("1.5") == 1.5

    def test_booleans(self):
        assert parse_value("true") is True
        assert parse_value("False") is False

    def test_whitespace_stripped(self):
        assert parse_value(" 8k ") == 8192

    def test_garbage_rejected(self):
        for bad in ("", "abc", "8q", "qk"):
            with pytest.raises(ConfigError):
                parse_value(bad)

    def test_format_round_trip(self):
        for text in ("8k", "64", "1.5", "true", "false"):
            value = parse_value(text)
            assert parse_value(format_value(value)) == value


class TestAxis:
    def test_parse_cli_spelling(self):
        axis = Axis.parse("l1i.size_bytes=8k,16k,32k")
        assert axis.path == "l1i.size_bytes"
        assert axis.values == (8192, 16384, 32768)

    def test_describe_round_trips(self):
        axis = Axis.parse("cu.vrf_banks=2,4,8")
        assert Axis.parse(axis.describe()) == axis

    def test_bad_specs_rejected(self):
        for bad in ("no_equals", "=1,2", "path=", "path=1,1"):
            with pytest.raises(ConfigError):
                Axis.parse(bad)

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            Axis("cu.vrf_banks", ())


class TestGrid:
    def test_cartesian_product(self):
        grid = Grid([Axis("cu.vrf_banks", (2, 4)),
                     Axis("l1i.size_bytes", (8192, 16384))])
        points = grid.points(small_config(2))
        assert len(points) == 4
        ids = [p.point_id for p in points]
        assert "cu.vrf_banks=2+l1i.size_bytes=8192" in ids
        assert "cu.vrf_banks=4+l1i.size_bytes=16384" in ids

    def test_points_are_validated_configs(self):
        grid = Grid([Axis("cu.vrf_banks", (8,))])
        (point,) = grid.points(small_config(2))
        assert point.valid
        assert point.config.cu.vrf_banks == 8
        assert point.fingerprint() is not None

    def test_invalid_geometry_marked_not_raised(self):
        # 100 B is not a multiple of the 64 B line; __post_init__ rejects it.
        grid = Grid([Axis("l1i.size_bytes", (8192, 100))])
        points = grid.points(small_config(2))
        assert len(points) == 2
        bad = [p for p in points if not p.valid]
        assert len(bad) == 1
        assert bad[0].config is None
        assert "l1i.size_bytes" in bad[0].error

    def test_unknown_path_marked_invalid(self):
        (point,) = Grid([Axis("cu.nope", (1,))]).points(small_config(2))
        assert not point.valid
        assert "cu.nope" in point.error

    def test_duplicate_paths_rejected(self):
        with pytest.raises(ConfigError):
            Grid([Axis("cu.vrf_banks", (2,)), Axis("cu.vrf_banks", (4,))])

    def test_no_axes_rejected(self):
        """A grid over zero axes is the one base point (a suite); a sweep
        request still needs at least one axis."""
        from repro.core.requests import RequestError, SweepRequest

        base = small_config(2)
        (point,) = Grid([]).points(base)
        assert point.point_id == "base" and point.overrides == ()
        assert point.fingerprint() == base.fingerprint()
        with pytest.raises(RequestError, match="at least one axis"):
            SweepRequest(axes=())


class TestOneFactorAtATime:
    def test_base_plus_singles(self):
        space = OneFactorAtATime([Axis("cu.vrf_banks", (2, 8)),
                                  Axis("l1i.size_bytes", (8192,))])
        points = space.points(small_config(2))
        ids = [p.point_id for p in points]
        assert ids[0] == "base"
        assert set(ids) == {"base", "cu.vrf_banks=2", "cu.vrf_banks=8",
                            "l1i.size_bytes=8192"}

    def test_base_equal_value_collapses(self):
        base = small_config(2)
        space = OneFactorAtATime(
            [Axis("cu.vrf_banks", (base.cu.vrf_banks, 8))])
        points = space.points(base)
        # The value equal to the base dedupes into the base point.
        assert [p.point_id for p in points] == ["base", "cu.vrf_banks=8"]


class TestBuildSpace:
    def test_modes(self):
        axes = [Axis("cu.vrf_banks", (2, 4))]
        assert isinstance(build_space(axes, "grid"), Grid)
        assert isinstance(build_space(axes, "ofat"), OneFactorAtATime)
        with pytest.raises(ConfigError):
            build_space(axes, "diagonal")
