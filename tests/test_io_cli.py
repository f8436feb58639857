"""Serialisation round trips and CLI exit-code behaviour."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import half_ratio_potential, potential_from_w_coeffs, flat_sine_coeffs
from frozenhill import (
    ConfigError,
    DegenerateCaseError,
    FileFormatError,
    FrozenConfig,
    FrozenHillError,
    OperatorError,
    OperatorSpec,
    PoleInTailError,
    Potential,
    RootIsolationError,
    Spectrum,
    compute_alpha,
    compute_spectrum,
)
from frozenhill import cli
from frozenhill.cli import main
from frozenhill.core import reference_lambda
from frozenhill.io import (
    fmt_complex,
    read_operator,
    read_potential,
    read_spectrum,
    write_operator,
    write_potential,
    write_spectrum,
)


#: compute_alpha(2.0) as write_spectrum prints it, for hand-written gamma = 2 headers
ALPHA_2 = "0,0.2206356001526516"


@pytest.fixture
def runner():
    return CliRunner()


class TestSerialization:
    def test_potential_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(50)
        q = Potential(rng.normal(size=33) + 1j * rng.normal(size=33))
        cfg = FrozenConfig(a=0.25, gamma=2.0 - 0.5j)
        path = tmp_path / "q.pot"
        write_potential(path, q, cfg)
        q2, cfg2 = read_potential(path)
        assert np.array_equal(q.samples, q2.samples)
        assert cfg2.a == cfg.a and cfg2.gamma == cfg.gamma
        # a second write is byte-identical
        path2 = tmp_path / "q2.pot"
        write_potential(path2, q2, cfg2)
        assert path.read_bytes() == path2.read_bytes()

    def test_spectrum_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(51)
        q = Potential(rng.normal(size=65) * 0.1 + 0j)
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        spec = compute_spectrum(q, cfg, 10)
        path = tmp_path / "s.spec"
        write_spectrum(path, spec)
        spec2 = read_spectrum(path, a=0.0)
        assert np.array_equal(spec.values, spec2.values)
        assert spec2.config.gamma == spec.config.gamma
        assert spec2.alpha.alpha == spec.alpha.alpha

    def test_operator_round_trips(self, tmp_path):
        ops = [
            OperatorSpec.scalar(0.5 - 0.25j, 0.5),
            OperatorSpec.constant(np.arange(5) * (1 + 1j), 0.25),
            OperatorSpec.matrix(np.eye(3) * (2 - 1j), 0.5),
        ]
        for i, op in enumerate(ops):
            path = tmp_path / f"op{i}.op"
            write_operator(path, op)
            op2 = read_operator(path)
            assert op2.kind == op.kind
            assert op2.domain_length == op.domain_length
            if op.kind == "scalar":
                assert op2.scalar_value == op.scalar_value
            elif op.kind == "constant":
                assert np.array_equal(op2.profile, op.profile)
            else:
                assert np.array_equal(op2.matrix_values, op.matrix_values)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.pot"
        path.write_text("# wrong n=2 a=0 gamma=1,0\n")
        with pytest.raises(FileFormatError):
            read_potential(path)

    def test_bad_line_names_position(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text(f"# spectrum gamma=2,0 alpha={ALPHA_2} m=2\n0 1.0 0.0\n1 oops 0.0\n")
        with pytest.raises(FileFormatError) as err:
            read_spectrum(path)
        assert "line 3" in str(err.value)


#: floats whose text form is easy to get wrong: signed zero, the smallest
#: subnormal, the largest double, integral values and inexact decimals
AWKWARD = [-0.0, 5e-324, 1.7976931348623157e308, 3.0, -2.0, 1e22, 0.1, 1.0 / 3.0, -5e-324]


def _complex_array(re, im):
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im  # keeps signed zeros that re + 1j * im would lose
    return out


def _same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.int64), np.asarray(y).view(np.int64))


class TestWriterBytes:
    """The writers format whole bodies at once; the bytes match one f-string per field."""

    def test_potential_bytes(self, tmp_path):
        re = np.resize(AWKWARD, 17)
        samples = _complex_array(re, -re[::-1])
        q = Potential(samples)
        path = tmp_path / "q.pot"
        write_potential(path, q, FrozenConfig(a=0.25, gamma=-1.0))
        lines = ["# potential n=16 a=0.25 gamma=-1,0"]
        lines += [f"{j / 16:.17g} {v.real:.17g} {v.imag:.17g}" for j, v in enumerate(samples)]
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_potential_x_column_follows_the_grid(self, tmp_path):
        # the x strings are formatted once per n; writes at another n in
        # between must not leak into each other
        for n in (30, 2048, 30):
            q = Potential(np.arange(n + 1) * (1 - 1j))
            path = tmp_path / f"q{n}.pot"
            write_potential(path, q, FrozenConfig(a=0.0, gamma=2.0))
            xs = [line.split()[0] for line in path.read_text().splitlines()[1:]]
            assert xs == [f"{x:.17g}" for x in np.linspace(0.0, 1.0, n + 1)]

    def test_spectrum_bytes(self, tmp_path):
        values = _complex_array(np.array(AWKWARD), np.array(AWKWARD[::-1]))
        spec = Spectrum(values=values, config=FrozenConfig(a=0.75, gamma=2.0),
                        alpha=compute_alpha(2.0))
        path = tmp_path / "s.spec"
        write_spectrum(path, spec)
        alpha = spec.alpha.alpha
        lines = [f"# spectrum gamma=2,0 alpha={alpha.real:.17g},{alpha.imag:.17g} "
                 f"m={len(values)} a=0.75"]
        lines += [f"{n} {v.real:.17g} {v.imag:.17g}" for n, v in enumerate(values)]
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_constant_operator_bytes(self, tmp_path):
        profile = _complex_array(np.array(AWKWARD), np.array(AWKWARD[::-1]))
        path = tmp_path / "p.op"
        write_operator(path, OperatorSpec.constant(profile, 0.5))
        lines = ["kind=constant", "domain=0.5", f"count={len(profile)}"]
        lines += [f"{v.real:.17g} {v.imag:.17g}" for v in profile]
        assert path.read_text() == "\n".join(lines) + "\n"
        empty = tmp_path / "e.op"
        write_operator(empty, OperatorSpec.constant(np.zeros(0, complex), 0.5))
        assert empty.read_text() == "kind=constant\ndomain=0.5\ncount=0\n"


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(min_value=8, max_value=40),
    re=st.lists(_finite, min_size=81, max_size=81),
    im=st.lists(_finite, min_size=81, max_size=81),
    a_index=st.integers(min_value=0, max_value=4),
)
def test_write_read_round_trip_bit_exact(half, re, im, a_index):
    n = 2 * half
    samples = _complex_array(np.array(re[: n + 1]), np.array(im[: n + 1]))
    cfg = FrozenConfig(a=a_index / 4, gamma=1.0)
    spec = Spectrum(values=samples, config=cfg, alpha=compute_alpha(1.0))
    with tempfile.TemporaryDirectory() as tmp:
        write_potential(Path(tmp) / "q.pot", Potential(samples), cfg)
        write_spectrum(Path(tmp) / "s.spec", spec)
        q2, cfg2 = read_potential(Path(tmp) / "q.pot")
        spec2 = read_spectrum(Path(tmp) / "s.spec")
    assert _same_bits(q2.samples, samples) and cfg2 == cfg
    assert _same_bits(spec2.values, samples) and spec2.config == cfg


class TestReaders:
    """Body parsing keeps Python's float values and names the first bad line."""

    TOKENS = ["-0", "-0.0", "+1.5", "1e-3", "0.1", "5e-324", "-1.7976931348623157e308", "7"]

    def _potential_text(self, rows):
        n = len(rows) - 1
        return f"# potential n={n} a=0 gamma=2,0\n" + "".join(f"{r}\n" for r in rows)

    def test_potential_values_equal_float_parse(self, tmp_path):
        toks = self.TOKENS * 3
        rows = [f"{j / 16}\t{toks[j]}  {toks[-1 - j]}" for j in range(17)]
        path = tmp_path / "q.pot"
        path.write_text(self._potential_text(rows))
        q, _ = read_potential(path)
        expected = [complex(float(r.split()[1]), float(r.split()[2])) for r in rows]
        assert _same_bits(q.samples, np.array(expected))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({3: "0.1 oops 0.0", 6: "0.2 0.0"}, "line 5: could not convert string to float: 'oops'"),
            ({3: "0.1 0.0", 6: "0.2 oops 0.0"}, "line 5: expected 'x re im'"),
            ({16: "1.0 0.0 1e400x"}, "line 18: could not convert string to float: '1e400x'"),
        ],
    )
    def test_potential_error_names_first_bad_line(self, tmp_path, bad, message):
        rows = [f"{j / 16} 0.5 0.25" for j in range(17)]
        for j, row in bad.items():
            rows[j] = row
        path = tmp_path / "q.pot"
        path.write_text(self._potential_text(rows))
        with pytest.raises(FileFormatError) as err:
            read_potential(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1.0", "line 5: expected 're im'"),
            ("1.0 zz", "could not convert string to float: 'zz'"),
        ],
    )
    def test_constant_operator_errors(self, tmp_path, row, message):
        path = tmp_path / "p.op"
        path.write_text(f"kind=constant\ndomain=0.5\ncount=3\n1 -0.0\n{row}\n2 3\n")
        with pytest.raises(FileFormatError) as err:
            read_operator(path)
        assert str(err.value) == f"{path}: {message}"

    def test_constant_operator_values_equal_float_parse(self, tmp_path):
        path = tmp_path / "p.op"
        path.write_text("kind=constant\ndomain=0.5\ncount=3\n1 -0.0\n-0 0.1\n2e-3 -7\n")
        op = read_operator(path)
        expected = [complex(1.0, -0.0), complex(-0.0, 0.1), complex(2e-3, -7.0)]
        assert _same_bits(op.profile, np.array(expected))

    def _spectrum_text(self, rows):
        return f"# spectrum gamma=2,0 alpha={ALPHA_2} m={len(rows)}\n" + "".join(
            f"{r}\n" for r in rows
        )

    def test_spectrum_values_equal_float_parse(self, tmp_path):
        toks = self.TOKENS * 3
        rows = [f"{j}  {toks[j]}\t{toks[-1 - j]}" for j in range(20)]
        path = tmp_path / "s.spec"
        path.write_text(self._spectrum_text(rows))
        spec = read_spectrum(path)
        expected = [complex(float(r.split()[1]), float(r.split()[2])) for r in rows]
        assert _same_bits(spec.values, np.array(expected))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({2: "5 0.5 0.25", 5: "5 oops 0.0"}, "line 4: index 5 out of order"),
            ({2: "2 0.5", 5: "7 0.5 0.25"}, "line 4: expected 'n re im'"),
            ({1: "1.0 0.5 0.25"}, "line 3: invalid literal for int() with base 10: '1.0'"),
            ({3: "9" * 23 + " 0 0"}, f"line 5: index {'9' * 23} out of order"),
            ({4: "4 0.5 1e400x"}, "line 6: could not convert string to float: '1e400x'"),
            ({3: "3 inf 0.0", 4: "7 0.5 0.25"}, "line 6: index 7 out of order"),
            ({3: "3 inf 0.0"}, "line 5: eigenvalue is not finite"),
            ({6: "6 0.5 nan", 7: "7 -inf 0.0"}, "line 8: eigenvalue is not finite"),
        ],
    )
    def test_spectrum_error_names_first_bad_line(self, tmp_path, bad, message):
        rows = [f"{j} 0.5 0.25" for j in range(10)]
        for j, row in bad.items():
            rows[j] = row
        path = tmp_path / "s.spec"
        path.write_text(self._spectrum_text(rows))
        with pytest.raises(FileFormatError) as err:
            read_spectrum(path)
        assert str(err.value) == f"{path}: {message}"

    def test_non_finite_spectrum_exit_2(self, runner, tmp_path):
        path = tmp_path / "s.spec"
        rows = [f"{j} {10.0 * (j + 1) ** 2} 0" for j in range(8)]
        rows[3] = "3 inf 0"
        path.write_text(self._spectrum_text(rows))
        args = ["inverse1", "--in", str(path), "--kterms", "8", "--ntrunc", "8"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "line 5: eigenvalue is not finite" in result.output


class TestSpectrumProvenance:
    """Spectrum files record the frozen point a; readers and the CLI hold callers to it."""

    @staticmethod
    def _spectra(tmp_path, a=0.25):
        q = Potential.zeros(64)
        paths = []
        for name, gamma in (("s0.spec", 1.0), ("s1.spec", -1.0)):
            paths.append(tmp_path / name)
            write_spectrum(paths[-1], compute_spectrum(q, FrozenConfig(a=a, gamma=gamma), 10))
        return paths

    def test_header_records_a_and_reader_uses_it(self, tmp_path):
        p0, _ = self._spectra(tmp_path)
        assert p0.read_text().splitlines()[0].endswith(" a=0.25")
        assert read_spectrum(p0).config.a == 0.25
        assert read_spectrum(p0, a=0.25).config.a == 0.25
        # the mirrored problem (reflected potential, 1 - a) has the same spectrum
        assert read_spectrum(p0, a=0.75).config.a == 0.75
        with pytest.raises(ConfigError, match="computed at a=0.25"):
            read_spectrum(p0, a=0.5)

    def test_files_without_a_take_the_callers(self, tmp_path):
        p0, _ = self._spectra(tmp_path)
        lines = p0.read_text().splitlines()
        lines[0] = lines[0].replace(" a=0.25", "")
        p0.write_text("\n".join(lines) + "\n")
        assert read_spectrum(p0).config.a == 0.0
        assert read_spectrum(p0, a=0.5).config.a == 0.5

    def test_bad_a_field_is_a_format_error(self, tmp_path):
        p0, _ = self._spectra(tmp_path)
        p0.write_text(p0.read_text().replace(" a=0.25", " a=quarter"))
        with pytest.raises(FileFormatError):
            read_spectrum(p0)

    @pytest.mark.parametrize("gamma", [2.0, 0.5 + 0.5j, -1.05, 1.02, 1.0, -1.0])
    def test_alpha_is_derived_from_gamma(self, tmp_path, gamma):
        path = tmp_path / "s.spec"
        spec = compute_spectrum(Potential.zeros(64), FrozenConfig(a=0.25, gamma=gamma), 6)
        write_spectrum(path, spec)
        assert read_spectrum(path).alpha == compute_alpha(gamma) == spec.alpha
        # a header alpha within 1e-12 relative of gamma's loads, and gamma's alpha is kept
        alpha = compute_alpha(gamma).alpha
        near = complex(alpha.real + 1e-14, alpha.imag)
        text = path.read_text()
        path.write_text(text.replace(f"alpha={fmt_complex(alpha)}", f"alpha={fmt_complex(near)}"))
        assert path.read_text() != text
        assert read_spectrum(path).alpha == compute_alpha(gamma)

    def test_alpha_contradicting_gamma_exit_2(self, runner, tmp_path):
        rng = np.random.default_rng(61)
        cfg = FrozenConfig(a=0.25, gamma=2.0)
        q = potential_from_w_coeffs(flat_sine_coeffs(rng, degree=8), cfg, 256)
        path = tmp_path / "s.spec"
        write_spectrum(path, compute_spectrum(q, cfg, 20))
        path.write_text(path.read_text().replace(f"alpha={ALPHA_2} ", "alpha=0.3,0 "))
        with pytest.raises(FileFormatError, match="alpha=0.3,0 contradicts gamma"):
            read_spectrum(path)
        args = ["inverse1", "--in", str(path), "--kterms", "20", "--ntrunc", "20", "--grid", "256"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert f"whose alpha is {ALPHA_2}" in result.output

    @pytest.mark.parametrize("command", ["inverse1", "inverse2", "growthcheck",
                                         "isospectral", "isobispectral"])
    def test_conflicting_a_exit_3(self, runner, tmp_path, command):
        p0, p1 = self._spectra(tmp_path)
        op = tmp_path / "p.op"
        write_operator(op, OperatorSpec.constant(np.zeros(33, complex), 0.5))
        pair = ["--in", str(p0), "--in2", str(p1)]
        args = {
            "inverse1": ["--in", str(p0), "--op", str(op)],
            "inverse2": [*pair, "--op", str(op)],
            "growthcheck": pair,
            "isospectral": ["--in", str(p0), "--op", str(op)],
            "isobispectral": [*pair, "--op", str(op)],
        }[command]
        result = runner.invoke(main, [command, *args, "--a", "0.5", "--grid", "64"])
        assert result.exit_code == 3
        assert "computed at a=0.25" in result.output

    def test_inverse2_pair_with_different_a_exit_3(self, runner, tmp_path):
        p0, _ = self._spectra(tmp_path, a=0.25)
        (tmp_path / "other").mkdir()
        _, p1 = self._spectra(tmp_path / "other", a=0.5)
        result = runner.invoke(main, ["inverse2", "--in", str(p0), "--in2", str(p1),
                                      "--grid", "64"])
        assert result.exit_code == 3
        assert "computed at a=0.5" in result.output

    def test_inverse1_without_a_uses_the_header(self, runner, tmp_path):
        rng = np.random.default_rng(60)
        cfg = FrozenConfig(a=0.25, gamma=2.0)
        q = potential_from_w_coeffs(flat_sine_coeffs(rng, degree=8), cfg, 256)
        spath = tmp_path / "s.spec"
        write_spectrum(spath, compute_spectrum(q, cfg, 40))
        outs = []
        for extra in ([], ["--a", "0.25"]):
            outs.append(tmp_path / f"q{len(outs)}.pot")
            result = runner.invoke(main, ["inverse1", "--in", str(spath), "--grid", "256",
                                          "--kterms", "40", "--ntrunc", "40",
                                          "--out", str(outs[-1]), *extra])
            assert result.exit_code == 0, result.output
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert read_potential(outs[0])[1].a == 0.25


def _write_sample_potential(tmp_path, n=64, a=0.0, gamma=2.0):
    q = Potential.zeros(n)
    cfg = FrozenConfig(a=a, gamma=gamma)
    path = tmp_path / "zero.pot"
    write_potential(path, q, cfg)
    return path


class TestCli:
    def test_forward_zero_potential(self, runner, tmp_path):
        pot = _write_sample_potential(tmp_path)
        out = tmp_path / "spec.out"
        result = runner.invoke(
            main, ["forward", "--in", str(pot), "--m", "6", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        spec = read_spectrum(out)
        for n in range(6):
            ref = reference_lambda(n, spec.alpha)
            assert abs(spec.values[n] - ref) < 1e-8 * (1 + abs(ref))

    def test_roundtrip_passes_tolerance(self, runner, tmp_path):
        rng = np.random.default_rng(52)
        cfg = FrozenConfig(a=0.25, gamma=2.0)
        q = potential_from_w_coeffs(flat_sine_coeffs(rng, degree=8), cfg, 512)
        pot = tmp_path / "q.pot"
        write_potential(pot, q, cfg)
        result = runner.invoke(
            main,
            ["roundtrip", "--in", str(pot), "--m", "60", "--kterms", "60", "--ntrunc", "60"],
        )
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output

    def test_roundtrip_tolerance_failure_exit_5(self, runner, tmp_path):
        rng = np.random.default_rng(53)
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        q = potential_from_w_coeffs(flat_sine_coeffs(rng, degree=8), cfg, 512)
        pot = tmp_path / "q.pot"
        write_potential(pot, q, cfg)
        result = runner.invoke(
            main,
            ["roundtrip", "--in", str(pot), "--m", "40", "--kterms", "40",
             "--ntrunc", "40", "--tol", "1e-12"],
        )
        assert result.exit_code == 5
        assert "FAIL" in result.output

    def test_inverse1_degenerate_without_operator_exit_3(self, runner, tmp_path):
        q = Potential.zeros(64)
        cfg = FrozenConfig(a=0.0, gamma=1.0)
        spec = compute_spectrum(q, cfg, 12)
        spath = tmp_path / "s.spec"
        write_spectrum(spath, spec)
        result = runner.invoke(main, ["inverse1", "--in", str(spath), "--grid", "64"])
        assert result.exit_code == 3
        assert "degenerate" in result.output.lower() or "operator" in result.output.lower()

    def test_inverse1_reconstructs(self, runner, tmp_path):
        rng = np.random.default_rng(54)
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        q = potential_from_w_coeffs(flat_sine_coeffs(rng, degree=8), cfg, 512)
        spec = compute_spectrum(q, cfg, 60)
        spath = tmp_path / "s.spec"
        write_spectrum(spath, spec)
        opath = tmp_path / "q_rec.pot"
        result = runner.invoke(
            main,
            ["inverse1", "--in", str(spath), "--grid", "512", "--kterms", "60",
             "--ntrunc", "60", "--out", str(opath)],
        )
        assert result.exit_code == 0, result.output
        q_rec, _ = read_potential(opath)
        err = np.sqrt(np.mean(np.abs(q_rec.samples - q.samples) ** 2))
        assert err < 1e-3

    def test_inverse1_degenerate_with_scalar_operator(self, runner, tmp_path):
        rng = np.random.default_rng(55)
        q, _ = half_ratio_potential(rng, 0.5, 512)
        cfg = FrozenConfig(a=0.0, gamma=1.0)
        spec = compute_spectrum(q, cfg, 120)
        spath = tmp_path / "s.spec"
        write_spectrum(spath, spec)
        oppath = tmp_path / "k.op"
        write_operator(oppath, OperatorSpec.scalar(0.5, 0.5))
        opath = tmp_path / "q_rec.pot"
        result = runner.invoke(
            main,
            ["inverse1", "--in", str(spath), "--grid", "512", "--kterms", "60",
             "--ntrunc", "120", "--op", str(oppath), "--out", str(opath)],
        )
        assert result.exit_code == 0, result.output
        q_rec, _ = read_potential(opath)
        err = np.sqrt(np.mean(np.abs(q_rec.samples - q.samples) ** 2))
        assert err < 1e-3

    def test_inverse2_endpoint(self, runner, tmp_path):
        rng = np.random.default_rng(56)
        xs = np.linspace(0, 1, 513)
        q = Potential(0.5 * np.sin(np.pi * xs) + 0.2 * np.sin(2 * np.pi * xs) + 0j)
        s0 = compute_spectrum(q, FrozenConfig(a=0.0, gamma=1.0), 120)
        s1 = compute_spectrum(q, FrozenConfig(a=0.0, gamma=-1.0), 120)
        p0, p1 = tmp_path / "s0.spec", tmp_path / "s1.spec"
        write_spectrum(p0, s0)
        write_spectrum(p1, s1)
        opath = tmp_path / "rec.pot"
        result = runner.invoke(
            main,
            ["inverse2", "--in", str(p0), "--in2", str(p1), "--a", "0",
             "--grid", "512", "--kterms", "60", "--ntrunc", "120", "--out", str(opath)],
        )
        assert result.exit_code == 0, result.output
        q_rec, _ = read_potential(opath)
        err = np.sqrt(np.mean(np.abs(q_rec.samples - q.samples) ** 2))
        assert err < 1e-3

    def test_inverse2_interior_needs_operator(self, runner, tmp_path):
        q = Potential.zeros(64)
        s0 = compute_spectrum(q, FrozenConfig(a=0.25, gamma=1.0), 10)
        s1 = compute_spectrum(q, FrozenConfig(a=0.25, gamma=-1.0), 10)
        p0, p1 = tmp_path / "s0.spec", tmp_path / "s1.spec"
        write_spectrum(p0, s0)
        write_spectrum(p1, s1)
        result = runner.invoke(
            main,
            ["inverse2", "--in", str(p0), "--in2", str(p1), "--a", "0.25", "--grid", "64"],
        )
        assert result.exit_code == 3

    def test_missing_file_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["forward", "--in", str(tmp_path / "nope.pot")])
        assert result.exit_code == 2

    def test_malformed_file_exit_2(self, runner, tmp_path):
        path = tmp_path / "garbage.pot"
        path.write_text("not a header\n")
        result = runner.invoke(main, ["forward", "--in", str(path)])
        assert result.exit_code == 2

    def test_misaligned_a_exit_3(self, runner, tmp_path):
        pot = _write_sample_potential(tmp_path, n=64, a=0.0)
        result = runner.invoke(main, ["forward", "--in", str(pot), "--a", "0.21"])
        assert result.exit_code == 3

    def test_basischeck_table(self, runner, tmp_path):
        out = tmp_path / "riesz.csv"
        result = runner.invoke(
            main, ["basischeck", "--gamma", "1,1", "--m", "16", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,lower,upper,condition"
        assert len(lines) == 4  # N = 4, 8, 16

    def test_growthcheck_pass_and_fail(self, runner, tmp_path):
        xs = np.linspace(0, 1, 513)
        q = Potential(
            np.sin(np.pi * xs) ** 6 * (np.cos(np.pi * xs) - np.cos(np.pi * 0.25)) ** 3 * 3.0
            + 0j
        )
        s0 = compute_spectrum(q, FrozenConfig(a=0.25, gamma=1.0), 120)
        s1 = compute_spectrum(q, FrozenConfig(a=0.25, gamma=-1.0), 120)
        ref1 = compute_spectrum(Potential.zeros(64), FrozenConfig(a=0.25, gamma=-1.0), 120)
        p0, p1, pr = tmp_path / "s0.spec", tmp_path / "s1.spec", tmp_path / "ref.spec"
        write_spectrum(p0, s0)
        write_spectrum(p1, s1)
        write_spectrum(pr, ref1)
        ok = runner.invoke(
            main,
            ["growthcheck", "--in", str(p0), "--in2", str(p1), "--a", "0.25",
             "--ntrunc", "120", "--grid", "512"],
        )
        assert ok.exit_code == 0, ok.output
        assert "PASS" in ok.output
        bad = runner.invoke(
            main,
            ["growthcheck", "--in", str(p0), "--in2", str(pr), "--a", "0.25",
             "--ntrunc", "120", "--grid", "512"],
        )
        assert bad.exit_code == 5
        assert "FAIL" in bad.output

    def test_invalid_count_exit_3(self, runner, tmp_path):
        pot = _write_sample_potential(tmp_path)
        result = runner.invoke(main, ["forward", "--in", str(pot), "--m", "0"])
        assert result.exit_code == 3

    def test_inverse2_mirrored_large_a(self, runner, tmp_path):
        # spectra of the mirrored problem (Q, 0.75) equal those of (q, 0.25);
        # the CLI mirrors internally and returns the a = 0.75 potential Q
        rng = np.random.default_rng(58)
        xs = np.linspace(0, 1, 513)
        q = Potential(
            np.sin(np.pi * xs) ** 6 * (np.cos(np.pi * xs) - np.cos(np.pi * 0.25)) ** 3 * 3.0
            + 0j
        )
        s0 = compute_spectrum(q, FrozenConfig(a=0.25, gamma=1.0), 120)
        s1 = compute_spectrum(q, FrozenConfig(a=0.25, gamma=-1.0), 120)
        p0, p1 = tmp_path / "s0.spec", tmp_path / "s1.spec"
        write_spectrum(p0, s0)
        write_spectrum(p1, s1)
        j_a = 128
        oppath = tmp_path / "p.op"
        write_operator(oppath, OperatorSpec.constant(q.samples[j_a::-1], 0.25))
        opath = tmp_path / "rec.pot"
        result = runner.invoke(
            main,
            ["inverse2", "--in", str(p0), "--in2", str(p1), "--a", "0.75",
             "--grid", "512", "--kterms", "60", "--ntrunc", "120",
             "--op", str(oppath), "--out", str(opath)],
        )
        assert result.exit_code == 0, result.output
        q_rec, _ = read_potential(opath)
        q_mirror = q.samples[::-1]
        err = np.sqrt(np.mean(np.abs(q_rec.samples - q_mirror) ** 2))
        assert err < 1e-3

    def test_isobispectral_members_written(self, runner, tmp_path):
        rng = np.random.default_rng(59)
        xs = np.linspace(0, 1, 513)
        q = Potential(
            np.sin(np.pi * xs) ** 6 * (np.cos(np.pi * xs) - np.cos(np.pi * 0.25)) ** 3 * 3.0
            + 0j
        )
        s0 = compute_spectrum(q, FrozenConfig(a=0.25, gamma=1.0), 120)
        s1 = compute_spectrum(q, FrozenConfig(a=0.25, gamma=-1.0), 120)
        p0, p1 = tmp_path / "s0.spec", tmp_path / "s1.spec"
        write_spectrum(p0, s0)
        write_spectrum(p1, s1)
        xs_a = np.linspace(0, 0.25, 129)
        op1, op2 = tmp_path / "p1.op", tmp_path / "p2.op"
        write_operator(op1, OperatorSpec.constant(np.zeros(129, complex), 0.25))
        write_operator(op2, OperatorSpec.constant(0.4 * np.sin(np.pi * xs_a / 0.25), 0.25))
        prefix = tmp_path / "bifam"
        result = runner.invoke(
            main,
            ["isobispectral", "--in", str(p0), "--in2", str(p1), "--a", "0.25",
             "--op", str(op1), "--op", str(op2), "--grid", "512",
             "--kterms", "60", "--ntrunc", "120", "--out", str(prefix)],
        )
        assert result.exit_code == 0, result.output
        m0, _ = read_potential(f"{prefix}.0.pot")
        m1, _ = read_potential(f"{prefix}.1.pot")
        # profile-independent tail
        assert np.array_equal(m0.samples[257:], m1.samples[257:])

    def test_isospectral_writes_members(self, runner, tmp_path):
        rng = np.random.default_rng(57)
        base, _ = half_ratio_potential(rng, 1.0, 512)
        cfg = FrozenConfig(a=0.0, gamma=1.0)
        spec = compute_spectrum(base, cfg, 120)
        spath = tmp_path / "s.spec"
        write_spectrum(spath, spec)
        xs_half = np.linspace(0, 0.5, 257)
        op1, op2 = tmp_path / "p1.op", tmp_path / "p2.op"
        write_operator(op1, OperatorSpec.constant(np.zeros(257, complex), 0.5))
        write_operator(op2, OperatorSpec.constant(0.5 * np.sin(2 * np.pi * xs_half), 0.5))
        prefix = tmp_path / "fam"
        result = runner.invoke(
            main,
            ["isospectral", "--in", str(spath), "--op", str(op1), "--op", str(op2),
             "--grid", "512", "--kterms", "60", "--ntrunc", "120", "--out", str(prefix)],
        )
        assert result.exit_code == 0, result.output
        m0, _ = read_potential(f"{prefix}.0.pot")
        m1, _ = read_potential(f"{prefix}.1.pot")
        assert np.max(np.abs(m0.samples - m1.samples)) > 0.01


_SIZE_OPTIONS = {
    "inverse1": ("kterms", "ntrunc", "grid"),
    "inverse2": ("kterms", "ntrunc", "grid"),
    "roundtrip": ("kterms", "ntrunc"),
    "isospectral": ("kterms", "ntrunc", "grid"),
    "isobispectral": ("kterms", "ntrunc", "grid"),
    "growthcheck": ("ntrunc", "grid"),
}

# a = 0.25 does not align with n = 66; roundtrip takes its grid from the
# potential file (n = 64), which a = 0.3 does not align with
_BAD_SIZES = [
    (command, bad)
    for command, names in _SIZE_OPTIONS.items()
    for bad in ("kterms=0", "ntrunc=0", "grid=0", "grid=66")
    if bad.split("=")[0] in names
] + [("roundtrip", "a=0.3")]


class TestExitCodes:
    """Library exceptions map onto exit codes; bad sizes are rejected by the library."""

    @pytest.mark.parametrize(
        "exc, code",
        [
            (FileFormatError("bad file"), 2),
            (FileNotFoundError("no such file"), 2),
            (ConfigError("bad config"), 3),
            (DegenerateCaseError("degenerate"), 3),
            (OperatorError("singular"), 3),
            (RootIsolationError(3), 4),
            (PoleInTailError(5), 4),
            (FrozenHillError("numerical"), 4),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
    )
    def test_library_error_maps_to_exit_code(self, runner, tmp_path, monkeypatch, exc, code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "compute_spectrum", fail)
        pot = _write_sample_potential(tmp_path)
        result = runner.invoke(main, ["forward", "--in", str(pot)])
        assert result.exit_code == code
        assert f"error: {exc}" in result.output

    @staticmethod
    def _inputs(tmp_path, grid):
        """Files for each command at a = 0.25; operators sized for the given grid."""
        pot = tmp_path / "q.pot"
        write_potential(pot, Potential.zeros(64), FrozenConfig(a=0.25, gamma=2.0))
        specs = {}
        for name, gamma in (("s0", 1.0), ("s1", -1.0)):
            specs[name] = tmp_path / f"{name}.spec"
            write_spectrum(specs[name], compute_spectrum(
                Potential.zeros(64), FrozenConfig(a=0.25, gamma=gamma), 10))
        k_op, p_op, h_op = tmp_path / "k.op", tmp_path / "p.op", tmp_path / "h.op"
        write_operator(k_op, OperatorSpec.scalar(0.5, 0.5))
        write_operator(p_op, OperatorSpec.constant(np.zeros(grid // 4 + 1), 0.25))
        write_operator(h_op, OperatorSpec.constant(np.zeros(grid // 2 + 1), 0.5))
        pair = ["--in", str(specs["s0"]), "--in2", str(specs["s1"])]
        return {
            "inverse1": ["--in", str(specs["s0"]), "--op", str(k_op)],
            "inverse2": [*pair, "--op", str(p_op)],
            "roundtrip": ["--in", str(pot), "--m", "10"],
            "isospectral": ["--in", str(specs["s0"]), "--op", str(h_op)],
            "isobispectral": [*pair, "--a", "0.25", "--op", str(p_op)],
            "growthcheck": [*pair, "--a", "0.25"],
        }

    @pytest.mark.parametrize("command, bad", _BAD_SIZES)
    def test_bad_size_exit_3(self, runner, tmp_path, command, bad):
        name, value = bad.split("=")
        grid = int(value) if name == "grid" else 64
        sizes = {key: "64" if key == "grid" else "10" for key in _SIZE_OPTIONS[command]}
        sizes[name] = value
        opts = [tok for key, val in sizes.items() for tok in (f"--{key}", val)]
        result = runner.invoke(main, [command, *self._inputs(tmp_path, grid)[command], *opts])
        assert result.exit_code == 3, result.output

    @pytest.mark.parametrize(
        "opts", [["--kterms", "0"], ["--ntrunc", "11"], ["--gamma", "1"], ["--gamma", "-1"]]
    )
    def test_roundtrip_rejects_before_solving(self, runner, tmp_path, monkeypatch, opts):
        def solve(*args):
            raise AssertionError("the spectrum was solved")

        monkeypatch.setattr(cli, "compute_spectrum", solve)
        args = ["roundtrip", *self._inputs(tmp_path, 64)["roundtrip"], *opts]
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output

    def test_growthcheck_names_the_given_frozen_point(self, runner, tmp_path):
        args = ["growthcheck", *self._inputs(tmp_path, 64)["growthcheck"]]
        result = runner.invoke(main, [*args, "--ntrunc", "10", "--grid", "7"])
        assert result.exit_code == 3
        assert "frozen point a=0.25 does not align" in result.output

    def test_unused_unreadable_operator_exit_2(self, runner, tmp_path):
        # --op is read whenever it is given, even where gamma != +-1 needs none
        rng = np.random.default_rng(61)
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        q = potential_from_w_coeffs(flat_sine_coeffs(rng, degree=8), cfg, 256)
        spath = tmp_path / "s.spec"
        write_spectrum(spath, compute_spectrum(q, cfg, 20))
        args = ["inverse1", "--in", str(spath), "--grid", "256", "--kterms", "20",
                "--ntrunc", "20"]
        assert runner.invoke(main, args).exit_code == 0
        result = runner.invoke(main, [*args, "--op", str(tmp_path / "missing.op")])
        assert result.exit_code == 2
