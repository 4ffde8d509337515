"""Command-line verifier.

Exit codes: 0 all selected checks pass, 1 at least one check fails,
2 invalid input (bad manifest, expression, point or parameter).
"""

from __future__ import annotations

import math
import sys
import time

import click
import numpy as np

from . import __version__
from .analysis import pc_bochner, phsc, xi_sectional
from .connection import get_frame
from .errors import ParacurvError
from .manifest import (
    assemble_report,
    build_structure,
    dumps_report,
    load_manifest,
    run_checks,
    transform_manifest,
    write_report,
)
from .geometry import BUILTINS
from .sampling import Sampler


def _fail(message):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _write(document, path):
    """Write a report or manifest; an unwritable path is bad input."""
    try:
        write_report(document, path)
    except OSError as e:
        _fail(f"cannot write {path}: {e.strerror or e}")


@click.group()
@click.version_option(version=__version__, prog_name="paracurv")
def main():
    """Verify paracontact metric structures against their defining identities."""


@main.command()
@click.argument("manifest_path", type=click.Path())
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the report here instead of stdout.")
@click.option("--tol", "tol", type=float, default=None,
              help="Override the manifest tolerance.")
@click.option("--seed", "seed", type=int, default=None,
              help="Override the manifest sampling seed.")
def check(manifest_path, out_path, tol, seed):
    """Run the manifest's checks and write a report."""
    start = time.monotonic()
    try:
        if tol is not None and not 0 < tol < math.inf:
            _fail("--tol must be a finite number > 0")
        if seed is not None and not 0 <= seed < 2 ** 64:
            _fail("--seed must be an unsigned 64-bit integer")
        manifest, digest = load_manifest(manifest_path)
        structure = build_structure(manifest)
        report, meta = run_checks(structure, manifest, seed=seed, tolerance=tol)
        document = assemble_report(structure, digest, report, meta,
                                   wall_time_s=time.monotonic() - start)
        if out_path is not None:
            _write(document, out_path)
        else:
            click.echo(dumps_report(document), nl=False)
    except ParacurvError as e:
        _fail(e)
    for result in report.rows.values():
        status = "PASS" if result.passed else "FAIL"
        click.echo(
            f"{status} {result.name}: residual {result.residual:.3e} "
            f"(threshold {result.threshold:.1e})",
            err=True,
        )
    sys.exit(0 if report.passed else 1)


@main.command()
@click.argument("manifest_path", type=click.Path())
@click.option("--point", "point_text", required=True,
              help='Chart point as "c1,...,cd".')
def curvature(manifest_path, point_text):
    """Print a pointwise curvature summary."""
    try:
        manifest, _ = load_manifest(manifest_path)
        structure = build_structure(manifest)
        try:
            point = np.array(
                [float(c) for c in point_text.split(",")], dtype=float
            )
        except ValueError:
            _fail(f"--point must be {structure.dim} comma-separated numbers")
        if point.shape != (structure.dim,):
            _fail(
                f"--point must have {structure.dim} components, "
                f"got {point.shape[0]}"
            )
        if not structure.domain.contains(point):
            _fail(f"point outside the chart domain of {structure.name}")
        with np.errstate(all="ignore"):
            f = get_frame(structure, point, order=2).view(0)
            sampler = Sampler(structure, seed=0)
            u = sampler.horizontal_unit(f.g, f.xi, f.eta)
            v = sampler.section_vector(f.g, f.phi)
            bochner, kappa_b = pc_bochner(f)
            numbers = [
                ("|g|_inf", np.max(np.abs(f.g))),
                ("|Gamma|_inf", np.max(np.abs(f.gamma))),
                ("|R|_inf", np.max(np.abs(f.riem_down))),
                ("|r|_inf", np.max(np.abs(f.ricci))),
                ("scalar_s", float(f.scalar)),
                ("xi_sectional", xi_sectional(f, u)),
                ("phsc", phsc(f, v)),
                ("|B|_inf", np.max(np.abs(bochner))),
                ("kappa_B", kappa_b),
            ]
        bad = [name for name, x in numbers if not np.isfinite(x)]
        if bad:
            _fail(f"curvature is not finite at this point: {', '.join(bad)}")
        lines = [
            f"structure: {structure.name}",
            f"point: {', '.join(format(c, 'g') for c in point)}",
        ] + [f"{name}: {x:.12g}" for name, x in numbers]
    except ParacurvError as e:
        _fail(e)
    click.echo("\n".join(lines))


@main.command()
@click.argument("manifest_path", type=click.Path())
@click.option("--alpha", type=float, required=True,
              help="D-homothety parameter (> 0).")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Where to write the transformed manifest.")
def transform(manifest_path, out_path, alpha):
    """Emit a manifest for the D-homothety of the input structure."""
    try:
        manifest, _ = load_manifest(manifest_path)
        _write(transform_manifest(manifest, alpha), out_path)
    except ParacurvError as e:
        _fail(e)
    click.echo(f"wrote {out_path}")


@main.command()
def builtins():
    """List the builtin manifolds."""
    for name in sorted(BUILTINS):
        click.echo(name)


if __name__ == "__main__":
    main()
