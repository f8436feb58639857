"""Flat-file serialisation of potentials, spectra and operators.

All numbers are written with 17 significant digits so a write/read cycle is
lossless for IEEE doubles; complex values in headers are `re,im` pairs and
data lines hold space-separated fields.  No timestamps or environment data
go into the files, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import FrozenConfig, Potential, Spectrum, compute_alpha
from .errors import ConfigError, FileFormatError
from .inverse import OperatorSpec

#: largest gap between a caller's frozen point and a spectrum file's that still matches
_A_MATCH_TOL = 1e-12

#: largest relative gap between a spectrum header's alpha and the one its gamma gives
_ALPHA_MATCH_RTOL = 1e-12


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{fmt_float(z.real)},{fmt_float(z.imag)}"


def _rows(fmt: str, *columns) -> str:
    """One `fmt` line per row of equal-length columns, from a single format call."""
    cells = [x for row in zip(*columns) for x in row]
    return fmt * len(columns[0]) % tuple(cells)


def parse_complex(text: str, where: str = "value") -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise FileFormatError(f"cannot parse complex {where} from {text!r}")


def _complex_rows(path, body, first_line: int, usage: str, number_bad_values=True, indexed=False):
    """The last two fields of every body line as one complex value each.

    Each line must hold the fields named in usage; if indexed, the first
    field of body[i] must be the integer i.  The values come from Python's
    float and are stored as real and imaginary parts, so they equal
    complex(float(re), float(im)) bit for bit.  The first bad line raises
    FileFormatError; body[i] is line first_line + i, and a value that float()
    rejects is reported with that number unless number_bad_values is false.
    """
    width = len(usage.split())
    rows = [ln.split() for ln in body]
    out = np.empty(len(rows), dtype=complex)
    try:
        if all(len(parts) == width for parts in rows):
            out.real = np.fromiter(map(float, map(itemgetter(-2), rows)), float, len(rows))
            out.imag = np.fromiter(map(float, map(itemgetter(-1), rows)), float, len(rows))
            if not indexed or np.array_equal(
                np.fromiter(map(int, map(itemgetter(0), rows)), np.int64, len(rows)),
                np.arange(len(rows)),
            ):
                return out
    except (ValueError, OverflowError):
        pass
    # line by line, so the first bad line is the one reported
    for i, parts in enumerate(rows):
        where = f"{path}: line {i + first_line}: "
        if len(parts) != width:
            raise FileFormatError(f"{where}expected {usage!r}")
        try:
            idx = int(parts[0]) if indexed else i
            out[i] = complex(float(parts[-2]), float(parts[-1]))
        except ValueError as exc:
            raise FileFormatError(f"{where if number_bad_values else f'{path}: '}{exc}") from exc
        if idx != i:
            raise FileFormatError(f"{where}index {idx} out of order")
    return out


def _header_fields(line: str, kind: str, path) -> dict:
    if not line.startswith(f"# {kind}"):
        raise FileFormatError(f"{path}: expected '# {kind}' header, got {line!r}")
    fields = {}
    for token in line[2 + len(kind) :].split():
        if "=" not in token:
            raise FileFormatError(f"{path}: malformed header token {token!r}")
        key, value = token.split("=", 1)
        fields[key] = value
    return fields


@lru_cache(maxsize=8)
def _grid_column(n: int) -> tuple[str, ...]:
    return tuple(["%.17g" % x for x in np.linspace(0.0, 1.0, n + 1).tolist()])


def write_potential(path, q: Potential, config: FrozenConfig) -> None:
    header = f"# potential n={q.n} a={fmt_float(config.a)} gamma={fmt_complex(config.gamma)}\n"
    body = _rows(
        "%s %.17g %.17g\n", _grid_column(q.n), q.samples.real.tolist(), q.samples.imag.tolist()
    )
    Path(path).write_text(header + body)


def read_potential(path) -> tuple[Potential, FrozenConfig]:
    text = Path(path).read_text().splitlines()
    if not text:
        raise FileFormatError(f"{path}: empty potential file")
    fields = _header_fields(text[0], "potential", path)
    for key in ("n", "a", "gamma"):
        if key not in fields:
            raise FileFormatError(f"{path}: potential header misses field {key!r}")
    try:
        n = int(fields["n"])
        a = float(fields["a"])
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad header number: {exc}") from exc
    gamma = parse_complex(fields["gamma"], "gamma")
    body = [ln for ln in text[1:] if ln.strip()]
    if len(body) != n + 1:
        raise FileFormatError(f"{path}: expected {n + 1} sample lines, found {len(body)}")
    samples = _complex_rows(path, body, 2, "x re im")
    try:
        return Potential(samples), FrozenConfig(a=a, gamma=gamma)
    except Exception as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_spectrum(path, spec: Spectrum) -> None:
    header = (
        "# spectrum "
        f"gamma={fmt_complex(spec.config.gamma)} "
        f"alpha={fmt_complex(spec.alpha.alpha)} m={len(spec)} a={fmt_float(spec.config.a)}\n"
    )
    body = _rows(
        "%d %.17g %.17g\n", range(len(spec)), spec.values.real.tolist(), spec.values.imag.tolist()
    )
    Path(path).write_text(header + body)


def _check_frozen_point(path, a: float | None, file_a: float | None) -> float:
    """The frozen point of a spectrum file: its header's, else the caller's, else 0.

    A caller's a must match the header's a or its mirror 1 - a, whose reflected
    problem has the same spectrum (see build_w).
    """
    if file_a is None:
        return 0.0 if a is None else a
    if a is None:
        return file_a
    if min(abs(a - file_a), abs(a - (1.0 - file_a))) > _A_MATCH_TOL:
        raise ConfigError(f"{path}: spectrum was computed at a={fmt_float(file_a)}, not a={a}")
    return a


def read_spectrum(path, a: float | None = None) -> Spectrum:
    """Load a spectrum file; the frozen point comes from its `a=` header field.

    Files written without that field take the caller's a, or 0.0.  A caller's
    a that conflicts with the header raises ConfigError.  alpha is derived from
    gamma; a header alpha that contradicts it raises FileFormatError.
    """
    text = Path(path).read_text().splitlines()
    if not text:
        raise FileFormatError(f"{path}: empty spectrum file")
    fields = _header_fields(text[0], "spectrum", path)
    for key in ("gamma", "alpha", "m"):
        if key not in fields:
            raise FileFormatError(f"{path}: spectrum header misses field {key!r}")
    gamma = parse_complex(fields["gamma"], "gamma")
    alpha = parse_complex(fields["alpha"], "alpha")
    try:
        m = int(fields["m"])
        file_a = float(fields["a"]) if "a" in fields else None
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad header number: {exc}") from exc
    a = _check_frozen_point(path, a, file_a)
    body = [ln for ln in text[1:] if ln.strip()]
    if len(body) != m:
        raise FileFormatError(f"{path}: expected {m} eigenvalue lines, found {len(body)}")
    values = _complex_rows(path, body, 2, "n re im", indexed=True)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise FileFormatError(f"{path}: line {bad[0] + 2}: eigenvalue is not finite")
    try:
        config, derived = FrozenConfig(a=a, gamma=gamma), compute_alpha(gamma)
    except Exception as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if abs(alpha - derived.alpha) > _ALPHA_MATCH_RTOL * (1.0 + abs(derived.alpha)):
        raise FileFormatError(
            f"{path}: header alpha={fields['alpha']} contradicts gamma, "
            f"whose alpha is {fmt_complex(derived.alpha)}"
        )
    return Spectrum(values=values, config=config, alpha=derived)


def write_operator(path, op: OperatorSpec) -> None:
    lines = [f"kind={op.kind}", f"domain={fmt_float(op.domain_length)}"]
    body = ""
    if op.kind == "scalar":
        lines.append(f"c={fmt_complex(op.scalar_value)}")
    elif op.kind == "constant":
        lines.append(f"count={len(op.profile)}")
        body = _rows("%.17g %.17g\n", op.profile.real.tolist(), op.profile.imag.tolist())
    else:
        rows = op.matrix_values.shape[0]
        lines.append(f"rows={rows}")
        for row in op.matrix_values:
            lines.append(" ".join(fmt_complex(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n" + body)


def read_operator(path) -> OperatorSpec:
    text = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not text or not text[0].startswith("kind="):
        raise FileFormatError(f"{path}: operator file must start with 'kind='")
    kind = text[0][5:].strip()
    if kind not in ("constant", "scalar", "matrix"):
        raise FileFormatError(f"{path}: unknown operator kind {kind!r}")
    if len(text) < 2 or not text[1].startswith("domain="):
        raise FileFormatError(f"{path}: operator file misses 'domain=' line")
    try:
        domain = float(text[1][7:])
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad domain: {exc}") from exc
    try:
        if kind == "scalar":
            if len(text) < 3 or not text[2].startswith("c="):
                raise FileFormatError(f"{path}: scalar operator misses 'c=' line")
            return OperatorSpec.scalar(parse_complex(text[2][2:], "c"), domain)
        if kind == "constant":
            if len(text) < 3 or not text[2].startswith("count="):
                raise FileFormatError(f"{path}: constant operator misses 'count=' line")
            count = int(text[2][6:])
            body = text[3:]
            if len(body) != count:
                raise FileFormatError(
                    f"{path}: expected {count} profile lines, found {len(body)}"
                )
            profile = _complex_rows(path, body, 4, "re im", number_bad_values=False)
            return OperatorSpec.constant(profile, domain)
        if len(text) < 3 or not text[2].startswith("rows="):
            raise FileFormatError(f"{path}: matrix operator misses 'rows=' line")
        rows = int(text[2][5:])
        body = text[3:]
        if len(body) != rows:
            raise FileFormatError(f"{path}: expected {rows} matrix rows, found {len(body)}")
        mat = np.empty((rows, rows), dtype=complex)
        for i, line in enumerate(body):
            entries = line.split()
            if len(entries) != rows:
                raise FileFormatError(f"{path}: row {i} has {len(entries)} entries, not {rows}")
            for j, tok in enumerate(entries):
                mat[i, j] = parse_complex(tok, f"matrix[{i},{j}]")
        return OperatorSpec.matrix(mat, domain)
    except FileFormatError:
        raise
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
