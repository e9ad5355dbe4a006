"""Command line front end.

Commands communicate through the algebra JSON document on files or standard
streams ("-" means stdin), so builds and checks compose into pipelines:

    axial build ns:2A | axial verify - --law M:1/4,1/32

Exit codes: 0 pass, 1 verification failure, 2 invalid input, 3 unsupported
computation.  Diagnostics go to stderr, reports to stdout.  Each reporting
command builds one payload and prints it as JSON indented by 2 under --json
(`hw member` included), else as text read off that payload; verify and
hw check-tuple exit 1 after a failed verdict.  Output is deterministic for
fixed input.
"""

import functools
import json
import sys

import click

from .axes import (
    DEFAULT_AXIS_CAP, _designated_reports, axis_line, classify_2gen_axet, close_axes, miyamoto_group,
)
from .catalog import (
    ThreeTranspositionGroup, flip_subalgebra, matsuo, norton_sakuma, spin_factor, split_spin_factor,
)
from .errors import (
    AxialError, ClosureCapExceeded, ConsistencyFailure, MalformedInput, Unsupported, brief,
)
from .fields import QQ, parse_int
from .frobenius import radical as compute_radical
from .frobenius import solve_frobenius
from .fusion import LAW_KINDS, law_from_obj, law_to_obj
from .highwater import (
    HighwaterElement, hw_ideal_window_contains, hw_periodic_quotient, ideal_type_info,
)
from .perms import format_cycles, parse_cycles
from .serialize import dump_algebra, load_algebra, load_gram, load_json, vec_to_obj
from .structure import is_slender, non_annihilating_graph, spine, sum_decomposition

_INPUT_ERRORS = 2
_UNSUPPORTED = 3


def _diag(msg: str):
    click.echo(msg, err=True)


def _exit_code(exc) -> int:
    if isinstance(exc, (Unsupported, ClosureCapExceeded)):
        return _UNSUPPORTED
    if isinstance(exc, ConsistencyFailure):
        return 1
    return _INPUT_ERRORS  # any other AxialError, and OSError


class _Guarded(click.Group):
    """Runs every command, the hw subcommands included, with tool errors
    translated into diagnostics + exit codes; see module doc."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (AxialError, OSError) as exc:
            _diag(f"error: {exc}")
            sys.exit(_exit_code(exc))


class _Integer(click.ParamType):
    """An integer argument, read by fields.parse_int: only as str(k) writes it."""

    name = "integer"

    def convert(self, value, param, ctx):
        if isinstance(value, int):  # a default
            return value
        try:
            return parse_int(value)
        except MalformedInput as exc:
            self.fail(str(exc), param, ctx)


_INT = _Integer()


class _Signed(click.Command):
    """A command whose arguments may start with a minus sign (PERIOD -5, CSV
    -1,2,-1).  A first parse, with each token "-<digit>..." masked, lets click
    refuse any other unknown option with its "No such option" error; the
    real parse then reads those tokens as arguments."""

    def parse_args(self, ctx, args):
        self.make_parser(ctx).parse_args(["0" if a[:1] == "-" and a[1:2].isdigit() else a for a in args])
        ctx.ignore_unknown_options = True
        return super().parse_args(ctx, args)


def _parse_law(field, text):
    head, _, rest = text.partition(":")
    kind = head.strip().upper()
    params = rest.split(",") if rest else []
    keys = LAW_KINDS.get(kind)
    if keys is not None and len(keys) == len(params):
        try:
            return law_from_obj(field, {"kind": kind, **dict(zip(keys, params))})
        except AxialError as exc:
            raise MalformedInput(f"bad law {brief(text)}: {exc}") from exc
    raise MalformedInput(f"bad law {brief(text)} (want A, J:<eta> or M:<alpha>,<beta>)")


def _read_algebra(handle, law=False, law_text=None, axes=False):
    """The algebra document on handle, checked for what a command needs: with
    law=True a fusion law (law_text, the --law option, replaces the
    document's), then with axes=True designated axes."""
    alg = load_algebra(handle.read())
    if law_text:
        alg = alg.with_law(_parse_law(alg.field, law_text))
    if law and alg.law is None:
        raise MalformedInput("the document carries no fusion law; pass --law")
    if axes and not alg.axes:
        raise MalformedInput("the document designates no axes")
    return alg


def _matsuo_spec(parts):
    """(group, eta literal) of a matsuo:Sn:<n>:<eta> spec split at ":", or
    None when the parts have another shape."""
    if len(parts) != 4 or parts[0] != "matsuo" or parts[1] != "Sn":
        return None
    degree = parse_int(parts[2], "symmetric-group degree")
    return ThreeTranspositionGroup.symmetric(degree), parts[3]


def _read_gram(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_gram(fh.read(), QQ)


def _build_catalog(spec: str):
    parts = spec.split(":")
    kind = parts[0]
    if kind == "ns" and len(parts) == 2:
        return norton_sakuma(parts[1])
    matsuo_spec = _matsuo_spec(parts)
    if matsuo_spec is not None:
        group, eta = matsuo_spec
        return matsuo(group, QQ.parse(eta))
    if kind == "spin" and len(parts) == 2:
        return spin_factor(_read_gram(parts[1])).algebra
    if kind == "splitspin" and len(parts) == 3:
        return split_spin_factor(_read_gram(parts[1]), QQ.parse(parts[2])).algebra
    if kind == "flip" and len(parts) >= 3:
        inner = parts[1:-1]
        matsuo_spec = _matsuo_spec(inner)
        if matsuo_spec is None:
            raise MalformedInput(f"flip needs a matsuo:Sn spec, got {brief(':'.join(inner))}")
        group, eta = matsuo_spec
        sigma = parse_cycles(parts[-1], group.degree)
        return flip_subalgebra(group, QQ.parse(eta), sigma).algebra
    raise MalformedInput(
        f"unknown catalog spec {brief(spec)} (want ns:<name>, matsuo:Sn:<n>:<eta>, "
        f"spin:<gram-file>, splitspin:<gram-file>:<alpha>, "
        f"flip:matsuo:Sn:<n>:<eta>:<cycles>)"
    )


@click.group(cls=_Guarded)
def main():
    """Exact tools for axial algebras: build, verify, close, decompose."""


@main.command()
@click.argument("spec")
@click.option("-o", "--out", type=click.File("w"), default="-",
              help="Destination file (default stdout).")
def build(spec, out):
    """Construct a catalog algebra and write its JSON document."""
    alg = _build_catalog(spec)
    out.write(dump_algebra(alg))
    out.write("\n")


def _reports(text):
    """Make a command body a report.  The body returns (payload, status), or
    (payload, status, extra) when its text needs more than the payload.  The
    command prints the payload as indented JSON under --json, else the lines
    of text(payload, *extra), and then exits with status."""

    def wrap(body):
        @functools.wraps(body)
        def command(as_json, **kwargs):
            payload, status, *extra = body(**kwargs)
            click.echo(json.dumps(payload, indent=2) if as_json else "\n".join(text(payload, *extra)))
            sys.exit(status)

        return click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")(command)

    return wrap


def _verify_text(report, law):
    for ax in report["axes"]:
        yield f"{ax['name']}: {axis_line(law, ax['passed'], ax['eigen_dims'], ax['primitive'])}"
        yield from (f"  violation at ({v['lam']}, {v['mu']})" for v in ax["violations"])
    yield f"verdict: {'pass' if report['all_passed'] else 'FAIL'} under {law.name}"


@main.command()
@click.argument("file", type=click.File("r"), default="-")
@click.option("--law", "law_text", default=None,
              help="Fusion law A, J:<eta> or M:<alpha>,<beta> (default: the document's).")
@_reports(_verify_text)
def verify(file, law_text):
    """Run the axis checks on every designated axis; exit 1 on any failure."""
    alg = _read_algebra(file, law=True, law_text=law_text, axes=True)
    named = _designated_reports(alg, alg.law)
    field = alg.field
    all_passed = all(r.passed for _, r in named)
    report = {
        "law": law_to_obj(alg.law),
        "axes": [
            {
                "name": name,
                "passed": r.passed,
                "idempotent": r.is_idempotent,
                "semisimple": r.is_semisimple,
                "primitive": r.is_primitive,
                "eigen_dims": list(r.eigen_dims),
                "violations": [
                    {"lam": field.fmt(lam), "mu": field.fmt(mu),
                     "u": vec_to_obj(field, u), "v": vec_to_obj(field, v)}
                    for lam, mu, u, v in r.fusion_violations
                ],
            }
            for name, r in named
        ],
        "all_passed": all_passed,
    }
    return report, 0 if all_passed else 1, alg.law


def _miyamoto_text(report):
    yield f"closed axes: {len(report['axes'])}"
    yield from (f"  [{k}] {ax['name']}" for k, ax in enumerate(report["axes"]))
    yield f"orbits: {report['orbits']}"
    yield from (f"tau[{k}] = {t}" for k, t in enumerate(report["tau"]))
    yield f"group order: {report['group_order']}"


@main.command()
@click.argument("file", type=click.File("r"), default="-")
@click.option("--cap", type=_INT, default=DEFAULT_AXIS_CAP, show_default=True,
              help="Abort if the closed axis set, seeds included, grows past this; "
                   "it is also the degree of the group.")
@_reports(_miyamoto_text)
def miyamoto(file, cap):
    """Close the designated axes under their tau maps and report the group."""
    alg = _read_algebra(file, axes=True)
    axet = close_axes(alg, alg.axis_vectors(), cap=cap)
    group = miyamoto_group(axet)
    return {
        "axes": [
            {"name": axet.names[k], "v": vec_to_obj(alg.field, axet.axes[k])}
            for k in range(axet.size)
        ],
        "orbits": [sorted(o) for o in axet.orbits],
        "tau": [format_cycles(p) for p in axet.tau_perms],
        "group_order": group.order,
    }, 0


def _radical_text(report):
    yield f"radical dimension: {report['dim']}"
    yield from (f"  {json.dumps(v)}" for v in report["basis"])


def _frobenius_text(report):
    yield f"solution space dimension: {report['solution_dim']}"
    if not report["has_form"]:
        yield "NO Frobenius form (zero solution space) - noteworthy"
    if report["ambiguous"]:
        yield "normalization ambiguous: reporting one representative"
    if report["canonical"] is not None:
        yield "canonical Gram:"
        yield from ("  [" + ", ".join(row) + "]" for row in report["canonical"])
    yield from (f"  ({n['name']}, {n['name']}) = {n['norm']}" for n in report["axis_norms"])
    basis = report["radical"]
    if basis is not None:
        yield from _radical_text({"dim": len(basis), "basis": basis})
    elif report["radical_note"]:
        yield f"radical: {report['radical_note']}"


@main.command()
@click.argument("file", type=click.File("r"), default="-")
@_reports(_frobenius_text)
def frobenius(file):
    """Solve for the Frobenius form: canonical Gram, space dimension, radical."""
    alg = _read_algebra(file)
    fmt = alg.field.fmt
    sol = solve_frobenius(alg)
    radical_basis = None
    radical_note = None
    if sol.canonical is not None:
        try:
            rad = compute_radical(alg, sol)
            radical_basis = [vec_to_obj(alg.field, v) for v in rad.basis]
        except Unsupported as exc:
            radical_note = str(exc)
    else:
        radical_note = "no canonical form"
    return {
        "solution_dim": sol.space.dim,
        "has_form": sol.has_form,
        "ambiguous": sol.ambiguous,
        "canonical": None if sol.canonical is None
        else [[fmt(x) for x in row] for row in sol.canonical.data],
        "axis_norms": [
            {"name": name, "norm": None if sol.axis_norms is None else fmt(sol.axis_norms[k])}
            for k, (name, _) in enumerate(alg.axes)
        ],
        "radical": radical_basis,
        "radical_note": radical_note,
    }, 0


@main.command("radical")
@click.argument("file", type=click.File("r"), default="-")
@_reports(_radical_text)
def radical_cmd(file):
    """Compute the radical of the canonical Frobenius form (exit 3 if unsupported)."""
    alg = _read_algebra(file)
    rad = compute_radical(alg)
    return {"dim": rad.dim, "basis": [vec_to_obj(alg.field, v) for v in rad.basis]}, 0


def _decompose_text(report):
    parts = zip(report["components"], report["subalgebra_dims"], report["slender"])
    for k, (club, dim, slender) in enumerate(parts):
        yield f"component {k}: {{{', '.join(club)}}} spans dim {dim}{' (slender)' if slender else ''}"
    yield f"pairwise products zero: {report['pairwise_zero']}"
    yield f"direct sum: {report['direct']}"
    yield f"whole algebra slender: {report['slender_whole']}"


@main.command()
@click.argument("file", type=click.File("r"), default="-")
@_reports(_decompose_text)
def decompose(file):
    """Axis components of the non-annihilating graph and the sum decomposition."""
    alg = _read_algebra(file, axes=True)
    vecs = alg.axis_vectors()
    graph = non_annihilating_graph(alg, vecs)
    dec = sum_decomposition(alg, vecs)
    names = [name for name, _ in alg.axes]
    comps = [sorted(c) for c in dec.components]
    return {
        "components": [[names[i] for i in c] for c in comps],
        "subalgebra_dims": [s.dim for s in dec.subalgebras],
        "pairwise_zero": dec.pairwise_zero,
        "direct": dec.direct,
        # a component is slender when its axes' spine fills its subalgebra
        "slender": [
            spine(alg, [vecs[i] for i in comp]).dim == sub.dim
            for comp, sub in zip(comps, dec.subalgebras)
        ],
        "slender_whole": is_slender(alg, vecs),
        "edges": sorted([names[a], names[b]] for a, b in graph.edges),
    }, 0


def _axet_text(report):
    yield f"shape: {report['label']} (axes {report['total']}, skew {report['skew']})"


@main.command()
@click.argument("file", type=click.File("r"), default="-")
@click.option("--gens", default="0,1", show_default=True,
              help="Indices of the two generating axes.")
@_reports(_axet_text)
def axet(file, gens):
    """Classify the closed axis set generated by two axes: X(n) or X'(k+2k)."""
    alg = _read_algebra(file)
    try:
        i, j = (parse_int(x) for x in gens.split(","))
    except (ValueError, MalformedInput) as exc:
        raise MalformedInput(f"bad --gens {brief(gens)}: want two comma-separated indices") from exc
    if not (0 <= i < len(alg.axes) and 0 <= j < len(alg.axes)):
        raise MalformedInput(f"--gens {brief(gens)} out of range for {len(alg.axes)} axes")
    if alg.axes[i][1] == alg.axes[j][1]:
        raise MalformedInput(f"--gens {brief(gens)} names one axis twice; want two distinct axes")
    shape = classify_2gen_axet(close_axes(alg, [alg.axes[i][1], alg.axes[j][1]]))
    return {
        "label": shape.label,
        "total": shape.total,
        "skew": shape.skew,
        "orbit_sizes": list(shape.orbit_sizes),
    }, 0


@main.group()
def hw():
    """Infinite-basis arithmetic: periodic quotients, tuples, membership."""


@hw.command(cls=_Signed)
@click.argument("period", type=_INT)
@click.option("-o", "--out", type=click.File("w"), default="-",
              help="Destination file (default stdout).")
def quotient(period, out):
    """Build the finite quotient with PERIOD axes as an algebra document."""
    alg = hw_periodic_quotient(period)
    out.write(dump_algebra(alg))
    out.write("\n")


def _parse_tuple(csv):
    try:
        return [QQ.parse(x) for x in csv.split(",")]
    except AxialError as exc:
        raise MalformedInput(f"bad tuple {brief(csv)}: {exc}") from exc


def _check_tuple_text(report):
    yield "ideal type" if report["ok"] else "NOT ideal type"
    if report["ok"]:
        yield f"epsilon: {report['epsilons']}"
        if report["divergent_readings"]:
            yield "note: passes only with epsilon = -1 (not a palindrome)"


@hw.command("check-tuple", cls=_Signed)
@click.argument("csv")
@_reports(_check_tuple_text)
def check_tuple(csv):
    """Decide whether a comma-separated coefficient tuple is of ideal type."""
    info = ideal_type_info(_parse_tuple(csv))
    return {
        "ok": info.ok,
        "epsilons": list(info.epsilons),
        "divergent_readings": info.divergent_readings,
    }, 0 if info.ok else 1


@hw.command(cls=_Signed)
@click.argument("csv")
@click.argument("element", type=click.File("r"), default="-")
@click.option("--window", type=_INT, default=None,
              help="Index bound for the generated span (default 3x tuple degree).")
@_reports(lambda report: [report["answer"]])
def member(csv, element, window):
    """Window-bounded ideal membership: answers yes or unknown, never no."""
    items = _parse_tuple(csv)
    obj = load_json(element.read(), "element is not valid JSON")
    try:
        elem = HighwaterElement.from_json(QQ, obj)
    except AxialError as exc:
        raise MalformedInput(f"bad element document: {exc}") from exc
    return {"answer": hw_ideal_window_contains(items, elem, window=window)}, 0


if __name__ == "__main__":
    main()
