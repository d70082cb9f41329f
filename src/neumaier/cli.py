"""Command-line surface: analyze graph6 streams, generate family members,
run verification sweeps, and evaluate the four-eigenvalue refuter.

Numeric eigenvalues are split into clusters at their d - 1 widest gaps,
with d the exact distinct-eigenvalue count; there is no tolerance to set.

Exit codes: 0 clean, 2 parse/parameter error or a file that cannot be
read or written (one stderr line, and the output file is left as it
was when the input fails), 3 internal consistency
error (two computations disagree, numeric against exact spectra
included: no gap threshold in [1e-13, 1.0] separates those clusters, or
their sizes miss the exact multiplicities), 4 sweep assertion failure.
Every option also reads an environment variable named
NEUMAIER_<COMMAND>_<OPTION> (e.g. NEUMAIER_SWEEP_WORKERS); flags win
over the environment, which wins over defaults.
"""

from __future__ import annotations

import errno
import json
import os
import sys
from typing import NoReturn

import click

from .errors import ConsistencyError, Graph6Error, SpectralResolutionError
from .graphs import FAMILIES, decode_graph6, encode_graph6
from .graphs import generate as generate_family

EXIT_PARSE = 2
EXIT_CONSISTENCY = 3
EXIT_SWEEP_FAILED = 4
#: failed cross-checks between two computations: one line, exit 3
INTERNAL_ERRORS = (ConsistencyError, SpectralResolutionError)


@click.group(context_settings={"auto_envvar_prefix": "NEUMAIER"})
def main() -> None:
    """Neumaier-graph taxonomy toolkit."""


def _fail(message: str) -> NoReturn:
    click.echo(message, err=True)
    sys.exit(EXIT_PARSE)


def _open_out(path: str):
    if path == "-":
        return sys.stdout
    try:
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}")


def _check_out(path: str) -> None:
    """Exit 2 as ``_open_out`` would, before a long run, when ``path``
    cannot be written.  Nothing is created or truncated: an existing file
    or directory is opened for writing without truncation, an empty path
    fails that open as it fails ``open``, and a new file's directory must
    exist and be writable.  Pipes and devices are
    left to ``_open_out``, since opening one can block or consume it."""
    if path == "-":
        return
    try:
        if not path or os.path.isfile(path) or os.path.isdir(path):
            os.close(os.open(path, os.O_WRONLY))
        elif not os.path.lexists(path):
            parent = os.path.dirname(path) or "."
            os.stat(os.path.join(parent, ""))  # a missing directory, or a file
            if not os.access(parent, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}")


def _read_graphs(path: str):
    """Yield (line_number, Graph) from newline-delimited graph6; exits 2
    when the file cannot be opened, or naming the line on the first parse
    error.  Lines are read as bytes and decoded one character per byte,
    so a non-ASCII byte is a graph6 error at its byte offset, from a file
    as from stdin."""
    try:
        fh = sys.stdin.buffer if path == "-" else open(path, "rb")
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror or exc}")
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, decode_graph6(line.decode("latin-1"))
            except Graph6Error as exc:
                _fail(f"line {lineno}: {exc}")
    finally:
        if path != "-":
            fh.close()


def _classify_record(g):
    from .classify import classify
    from .report import class_report_json

    return class_report_json(classify(g))


@main.command()
@click.option("--input", "input", default="-", show_default=True,
              help="graph6 file, one record per line ('-' = stdin)")
@click.option("--output", "output", default="-", show_default=True)
@click.option("--format", "format", default="json",
              type=click.Choice(["json", "csv", "human"]), show_default=True)
@click.option("--workers", default=1, show_default=True)
def analyze(input, output, format, workers) -> None:
    """Classify each input graph and emit one report per line."""
    from . import report as rpt
    from .classify import ordered_map

    if workers < 1:
        _fail("workers must be >= 1")
    graphs = [g for _, g in _read_graphs(input)]
    out = _open_out(output)
    try:
        records = list(ordered_map(_classify_record, graphs, workers, 8))
        if format == "csv":
            out.write(rpt.CSV_HEADER + "\n")
        for rec in records:
            if format == "json":
                out.write(json.dumps(rec, sort_keys=True) + "\n")
            elif format == "csv":
                out.write(rpt.record_csv(rec) + "\n")
            else:
                out.write(rpt.record_human(rec) + "\n\n")
    except INTERNAL_ERRORS as exc:
        click.echo(f"internal consistency error: {exc}", err=True)
        sys.exit(EXIT_CONSISTENCY)
    finally:
        if out is not sys.stdout:
            out.close()


@main.command("generate")
@click.argument("family", type=click.Choice(sorted(FAMILIES)))
@click.argument("params", nargs=-1, type=int)
@click.option("--output", "output", default="-", show_default=True)
def generate(family, params, output) -> None:
    """Emit the graph6 record of a family member, e.g. `generate rook 3`."""
    try:
        g = generate_family(family, *params)
        line = encode_graph6(g)
    except (ValueError, Graph6Error) as exc:
        _fail(str(exc))
    out = _open_out(output)
    try:
        out.write(line + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


@main.command()
@click.option("--n", "n", type=int, default=None,
              help="exhaustive sweep over all labeled graphs on n vertices (n <= 8)")
@click.option("--input", "input", default=None,
              help="graph6 corpus to sweep instead of exhaustive enumeration")
@click.option("--output", "output", default="-", show_default=True)
@click.option("--format", "format", default="human",
              type=click.Choice(["json", "csv", "human"]), show_default=True)
@click.option("--workers", default=8, show_default=True,
              help="worker processes for exhaustive sweeps, at most one per CPU")
def sweep(n, input, output, format, workers) -> None:
    """Verify every theorem over a corpus or an exhaustive enumeration;
    exits 4 when any assertion fails."""
    from . import report as rpt
    from .classify import sweep_labeled, sweep_verify

    if (n is None) == (input is None):
        _fail("provide exactly one of --n or --input")
    if workers < 1:
        _fail("workers must be >= 1")
    exhaustive = n is not None
    _check_out(output)
    try:
        if exhaustive:
            if not 1 <= n <= 8:
                _fail("sweep needs 1 <= n <= 8")
            result = sweep_labeled(n, workers)
            agg, passed = result.aggregate, result.ok()
        else:
            agg = sweep_verify(g for _, g in _read_graphs(input))
            passed = agg.ok()
    except INTERNAL_ERRORS as exc:
        click.echo(f"internal consistency error: {exc}", err=True)
        sys.exit(EXIT_CONSISTENCY)
    out = _open_out(output)
    try:
        if format == "json":
            doc = rpt.aggregate_json(agg, passed)
            if exhaustive:
                doc["elapsed_s"] = round(result.elapsed, 6)
                doc["graphs_per_s"] = round(result.graphs_per_s, 1)
            out.write(json.dumps(doc, sort_keys=True) + "\n")
        elif format == "csv":
            out.write(rpt.aggregate_csv(agg) + "\n")
        else:
            out.write(rpt.aggregate_human(agg, passed) + "\n")
            if exhaustive:
                out.write(f"sweep time: {result.elapsed:.3f} s, "
                          f"{result.graphs_per_s:.0f} graphs/s\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if not passed:
        sys.exit(EXIT_SWEEP_FAILED)


@main.command()
@click.option("--k", type=float, required=True)
@click.option("--theta", type=float, required=True)
@click.option("--theta2", type=float, required=True)
@click.option("--e", "e", type=float, required=True)
@click.option("--format", "format", default="human",
              type=click.Choice(["json", "human"]), show_default=True)
def refute(k, theta, theta2, e, format) -> None:
    """Evaluate the four-distinct-eigenvalue refutation at one parameter
    point and print the derivation trail."""
    from . import report as rpt
    from .classify import refute_four_eigenvalues

    try:
        r = refute_four_eigenvalues(k, theta, theta2, e)
    except ValueError as exc:
        _fail(str(exc))
    if format == "json":
        click.echo(json.dumps(rpt.refutation_json(r), sort_keys=True))
    else:
        click.echo(rpt.refutation_human(r))


if __name__ == "__main__":
    main()
