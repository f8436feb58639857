"""Command-line front end for the frozen-argument spectral toolbox.

Exit codes: 0 success, 2 file/parse error, 3 precondition or configuration
error, 4 numerical/convergence failure, 5 tolerance failure in a check.
"""

from __future__ import annotations

import functools
import sys

import click

from .basis import riesz_report
from .core import FrozenConfig, compute_alpha, rel_l2_error
from .errors import ConfigError, FileFormatError, FrozenHillError
from .forward import compute_spectrum, verify_asymptotics
from .inverse import (
    TwoSpectra,
    check_growth,
    check_reconstruct,
    isobispectral_family,
    isospectral_family,
    reconstruct,
)
from . import io as fio

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4
EXIT_TOLERANCE = 5

_A_HELP = "frozen point; defaults to the spectrum file's a= field, else 0"


def _fail(code: int, exc: Exception):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Decorate a command so library exceptions become its exit codes."""
    @functools.wraps(fn)
    def command(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except (FileFormatError, OSError) as exc:
            _fail(EXIT_PARSE, exc)
        except ConfigError as exc:
            _fail(EXIT_PRECONDITION, exc)
        except FrozenHillError as exc:
            _fail(EXIT_NUMERIC, exc)

    return command


def _gamma_option(text: str | None) -> complex | None:
    if text is None:
        return None
    return fio.parse_complex(text, "gamma")


def _resolve_config(file_config: FrozenConfig, a: float | None, gamma: str | None):
    new_a = file_config.a if a is None else a
    new_gamma = file_config.gamma if gamma is None else _gamma_option(gamma)
    return FrozenConfig(a=new_a, gamma=new_gamma)


def _read_pair(in_path: str, in2_path: str, a: float | None) -> TwoSpectra:
    """The periodic/antiperiodic pair, both at the first file's frozen point."""
    spec0 = fio.read_spectrum(in_path, a=a)
    a = spec0.config.a
    return TwoSpectra(spec0=spec0, spec1=fio.read_spectrum(in2_path, a=a), a=a)


def _read_operator(op_path: str | None):
    return None if op_path is None else fio.read_operator(op_path)


def _echo_reconstruction(q, config: FrozenConfig, out_path: str | None):
    click.echo(f"reconstructed potential on n={q.n} grid, L2 norm {q.l2_norm():.6g}")
    if out_path:
        fio.write_potential(out_path, q, config)
        click.echo(f"wrote {out_path}")


def _constant_profiles(op_paths) -> list:
    """Profiles of the constant-operator files that generate family members."""
    profiles = []
    for p in op_paths:
        op = fio.read_operator(p)
        if op.kind != "constant":
            raise ConfigError(f"{p}: family generation uses constant operators")
        profiles.append(op.profile)
    return profiles


def _echo_members(members, config: FrozenConfig, out_path: str | None):
    for i, member in enumerate(members):
        click.echo(f"member {i}: L2 norm {member.l2_norm():.6g}")
        if out_path:
            fio.write_potential(f"{out_path}.{i}.pot", member, config)
    if out_path:
        click.echo(f"wrote {len(members)} member file(s) under {out_path}.*.pot")


def _print_spectrum_summary(spec, limit: int = 8):
    res = verify_asymptotics(spec)
    click.echo(f"{'n':>4} {'Re lambda':>22} {'Im lambda':>22} {'|kappa_n|':>12}")
    for n in range(min(limit, len(spec))):
        lam = spec.values[n]
        click.echo(f"{n:>4} {lam.real:>22.12g} {lam.imag:>22.12g} {abs(res.kappa[n]):>12.3e}")
    if len(spec) > limit:
        click.echo(f"  ... {len(spec) - limit} more")
    click.echo(
        f"residual tail: first-quarter energy {res.first_quarter_energy:.3e}, "
        f"last-quarter {res.last_quarter_energy:.3e}, decaying: {res.tail_ok}"
    )


@click.group()
def main():
    """Spectra of Hill-type operators with frozen argument, forwards and backwards."""


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(), help="potential file")
@click.option("--a", type=float, default=None, help="frozen point override")
@click.option("--gamma", type=str, default=None, help="coupling override, re,im")
@click.option("--m", "m_eigs", type=int, default=40, show_default=True, help="eigenvalue count")
@click.option("--out", "out_path", type=click.Path(), default=None, help="spectrum file")
@_guarded
def forward(in_path, a, gamma, m_eigs, out_path):
    """Compute the first M eigenvalues of a sampled potential."""
    q, file_cfg = fio.read_potential(in_path)
    cfg = _resolve_config(file_cfg, a, gamma)
    spec = compute_spectrum(q, cfg, m_eigs)
    _print_spectrum_summary(spec)
    if out_path:
        fio.write_spectrum(out_path, spec)
        click.echo(f"wrote {out_path}")


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(), help="spectrum file")
@click.option("--a", type=float, default=None, help=_A_HELP)
@click.option("--kterms", type=int, default=60, show_default=True)
@click.option("--ntrunc", type=int, default=60, show_default=True)
@click.option("--grid", "grid_n", type=int, default=1024, show_default=True)
@click.option("--op", "op_path", type=click.Path(), default=None,
              help="operator file (required for gamma = +-1)")
@click.option("--out", "out_path", type=click.Path(), default=None, help="potential file")
@_guarded
def inverse1(in_path, a, kterms, ntrunc, grid_n, op_path, out_path):
    """Reconstruct the potential from one spectrum."""
    spec = fio.read_spectrum(in_path, a=a)
    q = reconstruct(spec, kterms, ntrunc, grid_n, _read_operator(op_path))
    _echo_reconstruction(q, spec.config, out_path)


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(), help="periodic spectrum")
@click.option("--in2", "in2_path", required=True, type=click.Path(), help="antiperiodic spectrum")
@click.option("--a", "a_opt", type=float, default=None, help=_A_HELP)
@click.option("--kterms", type=int, default=60, show_default=True)
@click.option("--ntrunc", type=int, default=60, show_default=True)
@click.option("--grid", "grid_n", type=int, default=1024, show_default=True)
@click.option("--op", "op_path", type=click.Path(), default=None,
              help="operator file (required for interior a)")
@click.option("--out", "out_path", type=click.Path(), default=None, help="potential file")
@_guarded
def inverse2(in_path, in2_path, a_opt, kterms, ntrunc, grid_n, op_path, out_path):
    """Reconstruct the potential from the periodic/antiperiodic spectra pair."""
    two = _read_pair(in_path, in2_path, a_opt)
    q = reconstruct(two, kterms, ntrunc, grid_n, _read_operator(op_path))
    _echo_reconstruction(q, FrozenConfig(a=two.a, gamma=1.0), out_path)


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(), help="potential file")
@click.option("--a", type=float, default=None, help="frozen point override")
@click.option("--gamma", type=str, default=None, help="coupling override, re,im")
@click.option("--m", "m_eigs", type=int, default=60, show_default=True)
@click.option("--kterms", type=int, default=60, show_default=True)
@click.option("--ntrunc", type=int, default=60, show_default=True)
@click.option("--tol", type=float, default=1e-3, show_default=True)
@click.option("--op", "op_path", type=click.Path(), default=None,
              help="operator file for the degenerate couplings")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="reconstructed potential file")
@_guarded
def roundtrip(in_path, a, gamma, m_eigs, kterms, ntrunc, tol, op_path, out_path):
    """Forward-solve a potential, reconstruct it, and report the relative L2 error."""
    q, file_cfg = fio.read_potential(in_path)
    cfg = _resolve_config(file_cfg, a, gamma)
    op = _read_operator(op_path)
    if m_eigs >= 1:  # else compute_spectrum names the bad --m
        check_reconstruct(m_eigs, kterms, ntrunc, cfg.gamma, op)
    spec = compute_spectrum(q, cfg, m_eigs)
    q_rec = reconstruct(spec, kterms, ntrunc, q.n, op)
    err = rel_l2_error(q_rec, q)
    status = "PASS" if err <= tol else "FAIL"
    click.echo(f"relative L2 reconstruction error: {err:.6e}  [{status}, tol {tol:g}]")
    if out_path:
        fio.write_potential(out_path, q_rec, cfg)
        click.echo(f"wrote {out_path}")
    if err > tol:
        sys.exit(EXIT_TOLERANCE)


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(), help="spectrum file")
@click.option("--a", type=float, default=None, help=_A_HELP)
@click.option("--op", "op_paths", type=click.Path(), multiple=True, required=True,
              help="constant-operator profile file(s), one family member each")
@click.option("--kterms", type=int, default=60, show_default=True)
@click.option("--ntrunc", type=int, default=60, show_default=True)
@click.option("--grid", "grid_n", type=int, default=1024, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="output prefix; members go to PREFIX.<i>.pot")
@_guarded
def isospectral(in_path, a, op_paths, kterms, ntrunc, grid_n, out_path):
    """Generate iso-spectral potentials for a degenerate-coupling spectrum."""
    spec = fio.read_spectrum(in_path, a=a)
    profiles = _constant_profiles(op_paths)
    members = isospectral_family(spec, spec.config, profiles, kterms, ntrunc, grid_n)
    _echo_members(members, spec.config, out_path)


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(), help="periodic spectrum")
@click.option("--in2", "in2_path", required=True, type=click.Path(), help="antiperiodic spectrum")
@click.option("--a", type=float, required=True)
@click.option("--op", "op_paths", type=click.Path(), multiple=True, required=True)
@click.option("--kterms", type=int, default=60, show_default=True)
@click.option("--ntrunc", type=int, default=60, show_default=True)
@click.option("--grid", "grid_n", type=int, default=1024, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_guarded
def isobispectral(in_path, in2_path, a, op_paths, kterms, ntrunc, grid_n, out_path):
    """Generate iso-bispectral potentials sharing a periodic/antiperiodic pair."""
    two = _read_pair(in_path, in2_path, a)
    members = isobispectral_family(two, _constant_profiles(op_paths), kterms, ntrunc, grid_n)
    _echo_members(members, FrozenConfig(a=a, gamma=1.0), out_path)


@main.command()
@click.option("--gamma", type=str, required=True, help="coupling, re,im; alpha is derived")
@click.option("--m", "n_max", type=int, default=64, show_default=True,
              help="largest Gram half-width; doubling sizes from 4 are tabulated")
@click.option("--out", "out_path", type=click.Path(), default=None, help="CSV report")
@_guarded
def basischeck(gamma, n_max, out_path):
    """Frame bounds of the two-sided sine system across growing truncations."""
    g = _gamma_option(gamma)
    alpha = compute_alpha(g).alpha
    if n_max < 4:
        raise ConfigError("--m must be at least 4")
    sizes = []
    n = 4
    while n <= n_max:
        sizes.append(n)
        n *= 2
    report = riesz_report(alpha, sizes)
    click.echo(f"alpha = {alpha:.12g}")
    click.echo(f"{'N':>6} {'A1':>16} {'A2':>16} {'cond':>16}")
    for row in report.rows:
        click.echo(
            f"{row.n_half:>6} {row.lower:>16.9e} {row.upper:>16.9e} {row.condition:>16.6e}"
        )
    click.echo(
        f"lower bounds non-increasing: {report.lower_nonincreasing}; "
        f"upper bounds non-decreasing: {report.upper_nondecreasing}"
    )
    if out_path:
        lines = ["n,lower,upper,condition"]
        for row in report.rows:
            lines.append(
                f"{row.n_half},{fio.fmt_float(row.lower)},"
                f"{fio.fmt_float(row.upper)},{fio.fmt_float(row.condition)}"
            )
        with open(out_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        click.echo(f"wrote {out_path}")


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(), help="periodic spectrum")
@click.option("--in2", "in2_path", required=True, type=click.Path(), help="antiperiodic spectrum")
@click.option("--a", type=float, required=True)
@click.option("--ntrunc", type=int, default=60, show_default=True)
@click.option("--grid", "grid_n", type=int, default=512, show_default=True)
@_guarded
def growthcheck(in_path, in2_path, a, ntrunc, grid_n):
    """Test whether a spectra pair can share a potential (support of w0 + w1)."""
    report = check_growth(_read_pair(in_path, in2_path, a), ntrunc, grid_n)
    status = "PASS" if report.passed else "FAIL"
    click.echo(
        f"max |w0 + w1| on (1-a, 1): {report.max_violation:.6e} "
        f"(overall scale {report.scale:.6e})  [{status}]"
    )
    if not report.passed:
        sys.exit(EXIT_TOLERANCE)


if __name__ == "__main__":
    main()
