"""Command-line surface: pack, verify, bounds, gen, batch."""

from __future__ import annotations

import json
import math
import sys
from typing import Optional

import click

from . import bounds as bounds_mod
from .audit import validate
from .classification import build_class_table, table_csv
from .containers import _OnlineRun
from .layout import STATUS_ALL_PACKED, PackResult
from .genseq import KINDS, GenSpec, generate
from .svg import render_svg

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_REJECTED = 2


def _read_radii(stream) -> list:
    """Radii from text lines or a JSON array; JSON values are passed on
    unconverted, so the run refuses non-numbers as input errors."""
    text = stream.read()
    if text.lstrip().startswith("["):
        try:
            radii = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON input: {exc}") from None
        if not isinstance(radii, list):
            raise ValueError("JSON input must be an array of radii")
        return radii
    radii = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            radii.append(float(line))
        except ValueError:
            raise ValueError(
                f"malformed radius on line {lineno}: {line!r}") from None
    return radii


def _new_run(container: str, aspect: Optional[float],
             mode: Optional[str]) -> _OnlineRun:
    """An empty run of the chosen container.  The square packs in mode
    general unless --mode names another; a --mode or --b that the
    container's layout refuses is a ValueError."""
    if mode is not None:
        mode = mode.replace("-", "_")
    elif container == "square":
        mode = "general"
    return _OnlineRun(container, mode, aspect)


class _Main(click.Group):
    """Usage errors and bad input exit 1: click's exit 2 would read as a
    rejected circle.  make_context parses the group's arguments; invoke
    parses a subcommand's and runs it."""

    def make_context(self, *args, **kwargs):
        return _input_errors_exit_1(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _input_errors_exit_1(super().invoke, ctx)


def _input_errors_exit_1(call, *args, **kwargs):
    """The one place where a ValueError from the library, such as a radius
    or an aspect the run refuses, becomes an error message and exit 1."""
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_INPUT_ERROR  # this error, not the class
        raise
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc


def _options(*options):
    """One decorator for a group of options that commands share."""
    def apply(f):
        for option in reversed(options):
            f = option(f)
        return f
    return apply


_container_options = _options(
    click.option("--container", type=click.Choice(["square", "rect"]),
                 required=True),
    click.option("--b", "aspect", type=float, default=None,
                 help="Rectangle aspect (rect container only, "
                      "1 <= b <= 2**20)."),
    click.option("--mode", type=click.Choice(["general", "no-tiny"]),
                 default=None,
                 help="Square packing mode (default general); the "
                      "rectangle takes none."))
_radius_range_options = _options(
    click.option("--rmin", type=float, default=0.001, show_default=True),
    click.option("--rmax", type=float, default=0.5, show_default=True))


@click.group(cls=_Main)
def main():
    """Online circle packing into squares and rectangles."""


@main.command("pack")
@_container_options
@click.option("--input", "radii_in", type=click.File("r"), default="-",
              help="Radii, one per line or a JSON array; default stdin.")
@click.option("--json", "json_out", type=click.File("w"), default="-",
              help="Write the packing result JSON here; default stdout.")
@click.option("--svg", "svg_out", type=click.File("w"), default=None,
              help="Write an SVG rendering here.")
def pack_cmd(container, aspect, mode, radii_in, json_out, svg_out):
    """Pack a radius sequence online; exit 0 if all packed, 2 on rejection."""
    run = _new_run(container, aspect, mode)
    result = run.pack(_read_radii(radii_in))
    # One line: an indent would make json.dumps use its Python encoder.
    click.echo(json.dumps(result.to_json_dict()), file=json_out)
    if svg_out is not None:
        svg_out.write(render_svg(result))
    sys.exit(EXIT_OK if result.status == STATUS_ALL_PACKED else EXIT_REJECTED)


@main.command("verify")
@click.argument("result_file", type=click.File("r"), metavar="RESULT_PATH")
def verify_cmd(result_file):
    """Audit a packing result JSON; exit 0 if valid, 1 otherwise."""
    try:
        # A wrong JSON type fails in either call, as a TypeError or a
        # ValueError (json.JSONDecodeError is one).
        report = validate(PackResult.from_json_dict(json.load(result_file)))
    except (KeyError, TypeError, ValueError) as exc:
        raise click.ClickException(f"unreadable result file: {exc}")
    click.echo(json.dumps(report.to_json_dict()))
    sys.exit(EXIT_OK if report.valid else EXIT_INPUT_ERROR)


@main.command("bounds")
@click.option("--delta", "delta_q", type=float, default=None,
              help="Evaluate the dense-block density floor at q.")
@click.option("--rect", "rect_b", type=float, default=None,
              help="Guaranteed packable area for the 1 x b rectangle.")
@click.option("--square-mode", type=click.Choice(["general", "no-tiny"]),
              default=None, help="Guaranteed packable area for the square.")
@click.option("--table", "show_table", is_flag=True,
              help="Dump the class table as CSV (base width 1).")
@click.option("--width", type=float,
              help="Base lane width for --table, 1 if not given.")
def bounds_cmd(delta_q, rect_b, square_mode, show_table, width):
    """Evaluate density bounds and guarantees."""
    if (delta_q, rect_b, square_mode, show_table) == (None, None, None, False):
        raise click.ClickException(
            "nothing to do: pass --delta, --rect, --square-mode, or --table")
    if width is not None and not show_table:
        raise click.ClickException("--width applies only to --table")
    if delta_q is not None:
        click.echo(repr(bounds_mod.delta(delta_q)))
    if rect_b is not None:
        click.echo(repr(bounds_mod.guarantee_rect(rect_b)))
    if square_mode is not None:
        click.echo(repr(bounds_mod.guarantee_square(
            square_mode.replace("-", "_"))))
    if show_table:
        click.echo(table_csv(build_class_table(
            1.0 if width is None else width)), nl=False)


@main.command("gen")
@click.option("--kind", type=click.Choice(KINDS), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threshold", type=float,
              help=f"Area budget, {bounds_mod.SQUARE_GENERAL} if not given "
                   f"(greedy_adversary kind only).")
@_radius_range_options
@click.option("--count", type=int,
              help="Number of draws, 100 if not given (uniform kind only).")
def gen_cmd(kind, seed, threshold, rmin, rmax, count):
    """Emit a radius sequence, one radius per line."""
    for r in generate(GenSpec(kind=kind, seed=seed, threshold=threshold,
                              r_min=rmin, r_max=rmax, count=count)):
        click.echo(repr(r))


@main.command("batch")
@_container_options
@click.option("--kind", type=click.Choice(KINDS),
              default="greedy_adversary", show_default=True)
@click.option("--seeds", default="0:10", show_default=True,
              help="Seed range start:stop (stop exclusive).")
@click.option("--threshold", type=float, default=None,
              help="Area budget, the container guarantee if not given "
                   "(greedy_adversary kind only).")
@_radius_range_options
def batch_cmd(container, aspect, mode, kind, seeds, threshold, rmin, rmax):
    """Run many seeded generator sequences; one summary JSON line per run."""
    try:
        start, stop = (int(s) for s in seeds.split(":"))
    except ValueError:
        raise click.ClickException(f"bad --seeds range {seeds!r}")
    if stop <= start:
        raise click.ClickException(
            f"empty --seeds range {seeds!r}: stop must be above start")
    run = _new_run(container, aspect, mode)  # a bad --b or --mode exits 1
    if threshold is None and kind == "greedy_adversary":
        threshold = run.guarantee
    failures = 0
    for seed in range(start, stop):
        radii = generate(GenSpec(kind=kind, seed=seed, threshold=threshold,
                                 r_min=rmin, r_max=rmax))
        result = _new_run(container, aspect, mode).pack(radii)
        summary = {"seed": seed, "n": len(radii), "status": result.status,
                   "packed_area": result.total_packed_area}
        # Slack: the area the run was asked to hold over the guarantee.
        area = result.total_packed_area
        if result.status != STATUS_ALL_PACKED:
            summary["rejected_index"] = result.rejected_index
            area += math.pi * result.rejected_radius ** 2
            failures += 1
        click.echo(json.dumps({**summary, "slack": area / result.guarantee}))
    sys.exit(EXIT_OK if failures == 0 else EXIT_REJECTED)


if __name__ == "__main__":
    main()
