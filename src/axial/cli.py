"""Command line front end.

Commands communicate through the algebra JSON document on files or standard
streams ("-" means stdin), so builds and checks compose into pipelines:

    axial build ns:2A | axial verify - --law M:1/4,1/32

Exit codes: 0 pass, 1 verification failure, 2 invalid input, 3 unsupported
computation.  Diagnostics go to stderr, reports to stdout, and --json swaps
the human report for a machine one.  Output is deterministic for fixed input.
"""

import json
import sys

import click

from .axes import (
    DEFAULT_AXIS_CAP,
    _designated_reports,
    classify_2gen_axet,
    close_axes,
    miyamoto_group,
)
from .catalog import (
    ThreeTranspositionGroup,
    flip_subalgebra,
    matsuo,
    norton_sakuma,
    spin_factor,
    split_spin_factor,
)
from .errors import (
    AxialError,
    ClosureCapExceeded,
    ConsistencyFailure,
    GroupCapExceeded,
    MalformedInput,
    Unsupported,
    brief,
)
from .fields import QQ, parse_int
from .frobenius import radical as compute_radical
from .frobenius import solve_frobenius
from .fusion import LAW_KINDS, law_from_obj, law_to_obj
from .highwater import (
    HighwaterElement,
    hw_ideal_window_contains,
    hw_periodic_quotient,
    ideal_type_info,
)
from .perms import format_cycles, parse_cycles
from .serialize import (
    vec_to_obj,
    dump_algebra,
    load_algebra,
    load_gram,
    load_json,
)
from .structure import (
    is_slender,
    non_annihilating_graph,
    spine,
    sum_decomposition,
)

_INPUT_ERRORS = 2
_UNSUPPORTED = 3


def _diag(msg: str):
    click.echo(msg, err=True)


def _exit_code(exc) -> int:
    if isinstance(exc, (Unsupported, ClosureCapExceeded, GroupCapExceeded)):
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


def _violation_obj(field, viol):
    lam, mu, u, v = viol
    return {
        "lam": field.fmt(lam),
        "mu": field.fmt(mu),
        "u": vec_to_obj(field, u),
        "v": vec_to_obj(field, v),
    }


@main.command()
@click.argument("file", type=click.File("r"), default="-")
@click.option("--law", "law_text", default=None,
              help="Fusion law A, J:<eta> or M:<alpha>,<beta> (default: the document's).")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
def verify(file, law_text, as_json):
    """Run the axis checks on every designated axis; exit 1 on any failure."""
    alg = _read_algebra(file, law=True, law_text=law_text, axes=True)
    named = _designated_reports(alg, alg.law)
    all_passed = all(r.passed for _, r in named)
    if as_json:
        payload = {
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
                        _violation_obj(alg.field, w) for w in r.fusion_violations
                    ],
                }
                for name, r in named
            ],
            "all_passed": all_passed,
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        for name, r in named:
            click.echo(f"{name}: {r.describe()}")
            for lam, mu, _, _ in r.fusion_violations:
                click.echo(
                    f"  violation at ({alg.field.fmt(lam)}, {alg.field.fmt(mu)})"
                )
        click.echo(f"verdict: {'pass' if all_passed else 'FAIL'} under {alg.law.name}")
    if not all_passed:
        sys.exit(1)


@main.command()
@click.argument("file", type=click.File("r"), default="-")
@click.option("--cap", type=_INT, default=DEFAULT_AXIS_CAP,
              help="Abort if the closed axis set, seeds included, grows past this.")
@click.option("--group-cap", type=_INT, default=None,
              help="Abort if the group order is larger than this.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
def miyamoto(file, cap, group_cap, as_json):
    """Close the designated axes under their tau maps and report the group."""
    alg = _read_algebra(file, axes=True)
    axet = close_axes(alg, alg.axis_vectors(), cap=cap)
    group = miyamoto_group(axet, cap=group_cap)
    if as_json:
        payload = {
            "axes": [
                {"name": axet.names[k], "v": vec_to_obj(alg.field, axet.axes[k])}
                for k in range(axet.size)
            ],
            "orbits": [sorted(o) for o in axet.orbits],
            "tau": [format_cycles(p) for p in axet.tau_perms],
            "group_order": group.order,
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        click.echo(f"closed axes: {axet.size}")
        for k in range(axet.size):
            click.echo(f"  [{k}] {axet.names[k]}")
        click.echo(f"orbits: {[sorted(o) for o in axet.orbits]}")
        for k, p in enumerate(axet.tau_perms):
            click.echo(f"tau[{k}] = {format_cycles(p)}")
        click.echo(f"group order: {group.order}")


def _gram_rows(alg, gram):
    return [[alg.field.fmt(x) for x in row] for row in gram.data]


@main.command()
@click.argument("file", type=click.File("r"), default="-")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
def frobenius(file, as_json):
    """Solve for the Frobenius form: canonical Gram, space dimension, radical."""
    alg = _read_algebra(file)
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
    norms = [(name, None if sol.axis_norms is None else alg.field.fmt(sol.axis_norms[k]))
             for k, (name, _) in enumerate(alg.axes)]
    if as_json:
        payload = {
            "solution_dim": sol.space.dim,
            "has_form": sol.has_form,
            "ambiguous": sol.ambiguous,
            "canonical": None if sol.canonical is None
            else _gram_rows(alg, sol.canonical),
            "axis_norms": [{"name": n, "norm": x} for n, x in norms],
            "radical": radical_basis,
            "radical_note": radical_note,
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        click.echo(f"solution space dimension: {sol.space.dim}")
        if not sol.has_form:
            click.echo("NO Frobenius form (zero solution space) - noteworthy")
        if sol.ambiguous:
            click.echo("normalization ambiguous: reporting one representative")
        if sol.canonical is not None:
            click.echo("canonical Gram:")
            for row in _gram_rows(alg, sol.canonical):
                click.echo("  [" + ", ".join(row) + "]")
        for n, x in norms:
            click.echo(f"  ({n}, {n}) = {x}")
        if radical_basis is not None:
            click.echo(f"radical dimension: {len(radical_basis)}")
            for v in radical_basis:
                click.echo(f"  {v}")
        elif radical_note:
            click.echo(f"radical: {radical_note}")


@main.command("radical")
@click.argument("file", type=click.File("r"), default="-")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
def radical_cmd(file, as_json):
    """Compute the radical of the canonical Frobenius form (exit 3 if unsupported)."""
    alg = _read_algebra(file)
    rad = compute_radical(alg)
    basis = [vec_to_obj(alg.field, v) for v in rad.basis]
    if as_json:
        click.echo(json.dumps({"dim": rad.dim, "basis": basis}, indent=2))
    else:
        click.echo(f"radical dimension: {rad.dim}")
        for v in basis:
            click.echo(f"  {v}")


@main.command()
@click.argument("file", type=click.File("r"), default="-")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
def decompose(file, as_json):
    """Axis components of the non-annihilating graph and the sum decomposition."""
    alg = _read_algebra(file, axes=True)
    vecs = alg.axis_vectors()
    graph = non_annihilating_graph(alg, vecs)
    dec = sum_decomposition(alg, vecs)
    names = [name for name, _ in alg.axes]
    comps = [sorted(c) for c in dec.components]
    # a component is slender when its axes' spine fills its subalgebra
    slender = [
        spine(alg, [vecs[i] for i in comp]).dim == sub.dim
        for comp, sub in zip(comps, dec.subalgebras)
    ]
    whole = is_slender(alg, vecs)
    if as_json:
        payload = {
            "components": [[names[i] for i in c] for c in comps],
            "subalgebra_dims": [s.dim for s in dec.subalgebras],
            "pairwise_zero": dec.pairwise_zero,
            "direct": dec.direct,
            "slender": slender,
            "slender_whole": whole,
            "edges": sorted([names[a], names[b]] for a, b in graph.edges),
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        for k, c in enumerate(comps):
            club = ", ".join(names[i] for i in c)
            click.echo(
                f"component {k}: {{{club}}} spans dim {dec.subalgebras[k].dim}"
                f"{' (slender)' if slender[k] else ''}"
            )
        click.echo(f"pairwise products zero: {dec.pairwise_zero}")
        click.echo(f"direct sum: {dec.direct}")
        click.echo(f"whole algebra slender: {whole}")


@main.command()
@click.argument("file", type=click.File("r"), default="-")
@click.option("--gens", default="0,1", show_default=True,
              help="Indices of the two generating axes.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
def axet(file, gens, as_json):
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
    closed = close_axes(alg, [alg.axes[i][1], alg.axes[j][1]])
    shape = classify_2gen_axet(closed)
    if as_json:
        payload = {
            "label": shape.label,
            "total": shape.total,
            "skew": shape.skew,
            "orbit_sizes": list(shape.orbit_sizes),
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        click.echo(f"shape: {shape.label} (axes {shape.total}, skew {shape.skew})")


@main.group()
def hw():
    """Infinite-basis arithmetic: periodic quotients, tuples, membership."""


@hw.command()
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


@hw.command("check-tuple")
@click.argument("csv")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
def check_tuple(csv, as_json):
    """Decide whether a comma-separated coefficient tuple is of ideal type."""
    info = ideal_type_info(_parse_tuple(csv))
    if as_json:
        click.echo(json.dumps({
            "ok": info.ok,
            "epsilons": list(info.epsilons),
            "divergent_readings": info.divergent_readings,
        }, indent=2))
    else:
        click.echo("ideal type" if info.ok else "NOT ideal type")
        if info.ok:
            click.echo(f"epsilon: {list(info.epsilons)}")
            if info.divergent_readings:
                click.echo("note: passes only with epsilon = -1 (not a palindrome)")
    if not info.ok:
        sys.exit(1)


@hw.command()
@click.argument("csv")
@click.argument("element", type=click.File("r"), default="-")
@click.option("--window", type=_INT, default=None,
              help="Index bound for the generated span (default 3x tuple degree).")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
def member(csv, element, window, as_json):
    """Window-bounded ideal membership: answers yes or unknown, never no."""
    items = _parse_tuple(csv)
    obj = load_json(element.read(), "element is not valid JSON")
    try:
        elem = HighwaterElement.from_json(QQ, obj)
    except AxialError as exc:
        raise MalformedInput(f"bad element document: {exc}") from exc
    answer = hw_ideal_window_contains(items, elem, window=window)
    if as_json:
        click.echo(json.dumps({"answer": answer}))
    else:
        click.echo(answer)


if __name__ == "__main__":
    main()
