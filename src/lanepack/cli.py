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
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            radii = json.loads(text)
        except json.JSONDecodeError as exc:
            raise click.ClickException(f"malformed JSON input: {exc}")
        if not isinstance(radii, list):
            raise click.ClickException("JSON input must be an array of radii")
        return radii
    radii = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            radii.append(float(line))
        except ValueError:
            raise click.ClickException(
                f"malformed radius on line {lineno}: {line!r}")
    return radii


def _new_run(container: str, aspect: Optional[float],
             mode: Optional[str]) -> _OnlineRun:
    """An empty run of the chosen container.  The square packs in mode
    general unless --mode names another; a --mode or --b that the
    container's layout refuses exits 1."""
    if mode is not None:
        mode = mode.replace("-", "_")
    elif container == "square":
        mode = "general"
    try:
        return _OnlineRun(container, mode, aspect)
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _pack(run: _OnlineRun, radii) -> PackResult:
    """Pack radii into the run; bad input exits 1."""
    try:
        return run.pack(radii)
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _dump_json(data: dict) -> str:
    """One line: an indent would make json.dumps use its Python encoder."""
    return json.dumps(data) + "\n"


class _Main(click.Group):
    """Usage errors exit 1, like other bad input: click's exit 2 would read
    as a rejected circle.  make_context parses the group's arguments and
    invoke a subcommand's."""

    def make_context(self, *args, **kwargs):
        return _usage_error_exits_1(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_error_exits_1(super().invoke, ctx)


def _usage_error_exits_1(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_INPUT_ERROR  # this error, not the class
        raise


@click.group(cls=_Main)
def main():
    """Online circle packing into squares and rectangles."""


@main.command("pack")
@click.option("--container", type=click.Choice(["square", "rect"]),
              required=True)
@click.option("--b", "aspect", type=float, default=None,
              help="Rectangle aspect (rect container only, b >= 1).")
@click.option("--mode", type=click.Choice(["general", "no-tiny"]),
              default=None,
              help="Square packing mode (default general); the rectangle "
                   "takes none.")
@click.option("--input", "input_path", type=click.Path(exists=True,
              dir_okay=False), default=None,
              help="Radii, one per line or a JSON array; default stdin.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False),
              default=None, help="Write the packing result JSON here.")
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False),
              default=None, help="Write an SVG rendering here.")
def pack_cmd(container, aspect, mode, input_path, json_path, svg_path):
    """Pack a radius sequence online; exit 0 if all packed, 2 on rejection."""
    run = _new_run(container, aspect, mode)
    if input_path is not None:
        with open(input_path) as f:
            radii = _read_radii(f)
    else:
        radii = _read_radii(sys.stdin)
    result = _pack(run, radii)
    payload = _dump_json(result.to_json_dict())
    if json_path:
        with open(json_path, "w") as f:
            f.write(payload)
    else:
        click.echo(payload, nl=False)
    if svg_path:
        with open(svg_path, "w") as f:
            f.write(render_svg(result))
    sys.exit(EXIT_OK if result.status == STATUS_ALL_PACKED else EXIT_REJECTED)


@main.command("verify")
@click.argument("result_path", type=click.Path(exists=True, dir_okay=False))
def verify_cmd(result_path):
    """Audit a packing result JSON; exit 0 if valid, 1 otherwise."""
    with open(result_path) as f:
        try:
            # A wrong JSON type fails in either call, as a TypeError or a
            # ValueError (json.JSONDecodeError is one).
            report = validate(PackResult.from_json_dict(json.load(f)))
        except (KeyError, TypeError, ValueError) as exc:
            raise click.ClickException(f"unreadable result file: {exc}")
    click.echo(_dump_json(report.to_json_dict()), nl=False)
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
@click.option("--width", type=float, default=1.0, show_default=True,
              help="Base lane width for --table.")
def bounds_cmd(delta_q, rect_b, square_mode, show_table, width):
    """Evaluate density bounds and guarantees."""
    did = False
    try:
        if delta_q is not None:
            click.echo(repr(bounds_mod.delta(delta_q)))
            did = True
        if rect_b is not None:
            click.echo(repr(bounds_mod.guarantee_rect(rect_b)))
            did = True
        if square_mode is not None:
            click.echo(repr(bounds_mod.guarantee_square(
                square_mode.replace("-", "_"))))
            did = True
        if show_table:
            click.echo(table_csv(build_class_table(width)), nl=False)
            did = True
    except ValueError as exc:
        raise click.ClickException(str(exc))
    if not did:
        raise click.ClickException(
            "nothing to do: pass --delta, --rect, --square-mode, or --table")


@main.command("gen")
@click.option("--kind", type=click.Choice(KINDS), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threshold", type=float, default=bounds_mod.SQUARE_GENERAL,
              show_default=True)
@click.option("--rmin", type=float, default=0.001, show_default=True)
@click.option("--rmax", type=float, default=0.5, show_default=True)
@click.option("--count", type=int, default=100, show_default=True,
              help="Number of draws (uniform kind).")
def gen_cmd(kind, seed, threshold, rmin, rmax, count):
    """Emit a radius sequence, one radius per line."""
    try:
        spec = GenSpec(kind=kind, seed=seed, threshold=threshold,
                       r_min=rmin, r_max=rmax, count=count)
        radii = generate(spec)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    for r in radii:
        click.echo(repr(r))


@main.command("batch")
@click.option("--container", type=click.Choice(["square", "rect"]),
              required=True)
@click.option("--b", "aspect", type=float, default=None)
@click.option("--mode", type=click.Choice(["general", "no-tiny"]),
              default=None,
              help="Square packing mode (default general); the rectangle "
                   "takes none.")
@click.option("--kind", type=click.Choice(KINDS),
              default="greedy_adversary", show_default=True)
@click.option("--seeds", default="0:10", show_default=True,
              help="Seed range start:stop (stop exclusive).")
@click.option("--threshold", type=float, default=None,
              help="Area budget; defaults to the container guarantee.")
@click.option("--rmin", type=float, default=0.001, show_default=True)
@click.option("--rmax", type=float, default=0.5, show_default=True)
def batch_cmd(container, aspect, mode, kind, seeds, threshold, rmin, rmax):
    """Run many seeded generator sequences; one summary JSON line per run."""
    try:
        start, stop = (int(s) for s in seeds.split(":"))
    except ValueError:
        raise click.ClickException(f"bad --seeds range {seeds!r}")
    run = _new_run(container, aspect, mode)  # a bad --b or --mode exits 1
    if threshold is None:
        threshold = run.guarantee
    failures = 0
    for seed in range(start, stop):
        try:
            radii = generate(GenSpec(kind=kind, seed=seed,
                                     threshold=threshold, r_min=rmin,
                                     r_max=rmax))
        except ValueError as exc:
            raise click.ClickException(str(exc))
        result = _pack(_new_run(container, aspect, mode), radii)
        summary = {
            "seed": seed,
            "n": len(radii),
            "status": result.status,
            "packed_area": result.total_packed_area,
        }
        # Slack: the area the run was asked to hold over the guarantee.
        area = summary["packed_area"]
        if result.status != STATUS_ALL_PACKED:
            summary["rejected_index"] = result.rejected_index
            area += math.pi * result.rejected_radius ** 2
            failures += 1
        summary["slack"] = area / result.guarantee
        click.echo(json.dumps(summary))
    sys.exit(EXIT_OK if failures == 0 else EXIT_REJECTED)


if __name__ == "__main__":
    main()
