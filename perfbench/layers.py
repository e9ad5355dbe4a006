"""Layer probes for the traced run, and the aggregation of spans into the
per-layer metrics.

Every traced run ends with the same probe block on fixed inputs, so each
per-layer metric exists on every workload.  A metric aggregates every span of
its name in the traced run: the workload's own calls plus the probe block.
Timings are mean self time per call (per operation for batches); counts are
per traced pass of the workload plus one probe block.
"""

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from click.testing import CliRunner

from axial import (
    GF,
    QQ,
    HighwaterElement,
    Matrix,
    ThreeTranspositionGroup,
    check_axis,
    close_axes,
    dump_algebra,
    hw_a,
    hw_ideal_window_contains,
    hw_mul,
    hw_periodic_quotient,
    load_algebra,
    matsuo,
    miyamoto,
    miyamoto_group,
    norton_sakuma,
    projection_graph,
    radical,
    seress_lemma_check,
    solve_frobenius,
    spine,
    sum_decomposition,
)
from axial.cli import main as cli_main
from axial.linalg import invert, kernel

from workloads import P31, expect

PROBE_ETA = Fraction(3217, 7919)
FIELD_BATCH = 20_000
CHILD_REPEATS = 5

# (metric, unit, span names, kind); kind says how the spans are aggregated.
LAYER_METRICS = (
    ("fields.muladd_ns.qq", "ns", ("fields.muladd.qq",), "per_op"),
    ("fields.muladd_ns.gfp", "ns", ("fields.muladd.gfp",), "per_op"),
    ("algebra.mul_us", "us", ("algebra.mul",), "per_op"),
    ("algebra.adjoint_ms", "ms", ("algebra.adjoint",), "per_call"),
    ("linalg.kernel_ms", "ms", ("linalg.kernel",), "per_call"),
    ("linalg.invert_ms", "ms", ("linalg.invert",), "per_call"),
    ("axes.check_axis_ms", "ms", ("axes.check_axis",), "per_call"),
    ("axes.miyamoto_ms", "ms", ("axes.miyamoto",), "per_call"),
    ("axes.close_axes_s", "s", ("axes.close_axes",), "per_call"),
    ("algebra.subalgebra_gen_s", "s", ("algebra.subalgebra_gen",), "per_call"),
    ("structure.probe_s", "s",
     ("structure.spine", "structure.sum_decomposition", "structure.seress_lemma_check"),
     "per_call"),
    ("frobenius.projection_graph_s", "s", ("frobenius.projection_graph",), "per_call"),
    ("perms.dimino_s", "s", ("axes.miyamoto_group",), "per_call"),
    ("frobenius.solve_s", "s", ("frobenius.solve_frobenius",), "per_call"),
    ("frobenius.radical_s", "s", ("frobenius.radical",), "per_call"),
    ("highwater.quotient_s", "s", ("highwater.hw_periodic_quotient",), "per_call"),
    ("highwater.mul_us", "us", ("highwater.hw_mul",), "per_op"),
    ("highwater.member_s", "s", ("highwater.hw_ideal_window_contains",), "per_call"),
    ("catalog.build_s", "s", ("catalog.norton_sakuma", "catalog.matsuo"), "per_call"),
    ("serialize.load_ms", "ms", ("serialize.load_algebra",), "per_call"),
    ("serialize.dump_ms", "ms", ("serialize.dump_algebra",), "per_call"),
    ("cli.command_ms", "ms", ("cli.command",), "per_call"),
)
SCALE = {"ns": 1e6, "us": 1e3, "ms": 1.0, "s": 1e-3}


def _probe_algebras():
    s5p = matsuo(ThreeTranspositionGroup.symmetric(5),
                 GF(P31).parse(f"{PROBE_ETA.numerator}/{PROBE_ETA.denominator}"), GF(P31))
    return [("ns:6A", norton_sakuma("6A")), ("matsuo:S5:gfp", s5p)]


def _field_batches(rec):
    rng = random.Random(1)
    fracs = [(QQ.parse(f"{rng.randint(100, 99999)}/{rng.randint(100, 99999)}"),
              QQ.parse(f"{rng.randint(100, 99999)}/{rng.randint(100, 99999)}"),
              QQ.parse(f"{rng.randint(100, 99999)}/{rng.randint(100, 99999)}"))
             for _ in range(100)]
    fp = GF(P31)
    elems = [(fp.from_int(rng.randrange(P31)), fp.from_int(rng.randrange(P31)),
              fp.from_int(rng.randrange(P31))) for _ in range(100)]
    for kind, triples in (("qq", fracs), ("gfp", elems)):
        batch = triples * (FIELD_BATCH // len(triples))

        def muladd(batch=batch):
            for x, y, z in batch:
                x * y + z
            return len(batch)
        rec.call("probe:fields", f"fields.muladd.{kind}", muladd,
                 check=lambda n: expect(n, FIELD_BATCH, "ops"),
                 counters=lambda n: {"ops": n})


def _eigen_layers(rec, key, alg):
    """The calls eigen_decomposition and miyamoto make: ad_a, ad_a - lam I
    kernels per law eigenvalue, and the inverse of the eigenbasis."""
    for _, a in alg.axes:
        ad = rec.call(key, "algebra.adjoint", alg.adjoint, a)
        if ad is None:
            continue
        cols = []
        for lam in alg.law.elements:
            sub = rec.call(key, "linalg.kernel", kernel, ad.minus_scalar_diag(lam))
            if sub is not None:
                cols.extend(list(b) for b in sub.basis)
        rec.call(key, "linalg.invert", invert, Matrix.from_columns(alg.field, cols),
                 check=lambda m: expect(m.nrows, alg.dim, "inverse size"))


def _algebra_layers(rec, key, alg):
    pairs = [(alg.basis_vector(i), alg.basis_vector(j))
             for i in range(alg.dim) for j in range(i, alg.dim)] * 3

    def mul_batch():
        for u, v in pairs:
            alg.mul(u, v)
        return len(pairs)
    rec.call(key, "algebra.mul", mul_batch, counters=lambda n: {"ops": n})
    _eigen_layers(rec, key, alg)
    for _, a in alg.axes:
        rec.call(key, "axes.check_axis", check_axis, alg, a, alg.law,
                 check=lambda r: expect(r.passed, True, "axis check"))
        rec.call(key, "axes.miyamoto", miyamoto, alg, a, counters=lambda m: {"alg": key})
    gens = alg.axis_vectors()
    rec.call(key, "algebra.subalgebra_gen", alg.subalgebra_gen, gens,
             check=lambda s: expect(s.dim, alg.dim, "generated dim"))
    axet = rec.call(key, "axes.close_axes", close_axes, alg, gens,
                    counters=lambda ax: {"closed": ax.size, "dim": alg.dim, "alg": key})
    if axet is not None:
        rec.call(key, "axes.miyamoto_group", miyamoto_group, axet,
                 counters=lambda g: {"order": g.order})


def _small_jobs(rec):
    key = "probe:ns:4A"
    alg = norton_sakuma("4A")
    sol = rec.call(key, "frobenius.solve_frobenius", solve_frobenius, alg,
                   check=lambda s: expect(s.canonical.data, alg.form.data, "Gram"),
                   counters=lambda s: {"dim": alg.dim, "equations": alg.dim**3,
                                       "unknowns": alg.dim**2,
                                       "rank": alg.dim**2 - s.space.dim})
    if sol is not None:
        rec.call(key, "frobenius.radical", radical, alg, sol,
                 check=lambda r: expect(r.dim, 0, "radical dim"))
    axet = rec.call(key, "axes.close_axes", close_axes, alg,
                    [alg.axes[0][1], alg.axes[1][1]],
                    counters=lambda ax: {"closed": ax.size, "dim": alg.dim, "alg": key})
    if axet is not None:
        rec.call(key, "frobenius.projection_graph", projection_graph, alg, axet)
        rec.call(key, "structure.spine", spine, alg, axet)
        rec.call(key, "structure.sum_decomposition", sum_decomposition, alg, axet)
        rec.call(key, "structure.seress_lemma_check", seress_lemma_check, alg, axet.axes[0],
                 check=lambda s: expect(s.ok, True, "Seress identity"))

    rec.call("probe:hw", "highwater.hw_periodic_quotient", hw_periodic_quotient, 6,
             check=lambda q: expect(q.dim, 9, "dim"))
    rng = random.Random(2)
    elems = [HighwaterElement(QQ, {rng.randint(-6, 6): rng.randint(1, 9) for _ in range(3)},
                              {rng.randint(1, 6): rng.randint(1, 9) for _ in range(2)})
             for _ in range(20)]
    pairs = [(x, y) for x in elems for y in elems]

    def hw_batch():
        for x, y in pairs:
            hw_mul(x, y)
        return len(pairs)
    rec.call("probe:hw", "highwater.hw_mul", hw_batch, counters=lambda n: {"ops": n})
    rec.call("probe:hw", "highwater.hw_ideal_window_contains", hw_ideal_window_contains,
             [1, 0, -1], hw_a(0), window=6,
             check=lambda ans: expect(ans, "unknown", "membership"))


def _catalog_and_serialize(rec):
    docs = []
    for name in ("2A", "3A", "4B", "6A"):
        alg = rec.call("probe:catalog", "catalog.norton_sakuma", norton_sakuma, name)
        if alg is not None:
            docs.append(rec.call("probe:serialize", "serialize.dump_algebra", dump_algebra, alg))
    s5 = rec.call("probe:catalog", "catalog.matsuo", matsuo,
                  ThreeTranspositionGroup.symmetric(5), PROBE_ETA)
    if s5 is not None:
        docs.append(rec.call("probe:serialize", "serialize.dump_algebra", dump_algebra, s5))
    for text in docs:
        if text is not None:
            rec.call("probe:serialize", "serialize.load_algebra", load_algebra, text)


def _click_commands(rec):
    """The cli cycle run in-process: the command's own cost, without start-up."""
    runner = CliRunner()

    def invoke(args, text=None):
        res = runner.invoke(cli_main, args, input=text)
        if res.exit_code != 0:
            raise RuntimeError(f"exit code {res.exit_code}")
        return res.output

    key = "probe:cli"
    eta = f"{PROBE_ETA.numerator}/{PROBE_ETA.denominator}"
    ns2a = rec.call(key, "cli.command", invoke, ["build", "ns:2A"])
    ns3a = rec.call(key, "cli.command", invoke, ["build", "ns:3A"])
    s4 = rec.call(key, "cli.command", invoke, ["build", f"matsuo:Sn:4:{eta}"])
    hw6 = rec.call(key, "cli.command", invoke, ["hw", "quotient", "6"])
    ns6a = rec.call(key, "cli.command", invoke, ["build", "ns:6A"])
    for args, text in ((["verify", "-"], ns2a), (["frobenius", "-"], ns3a),
                       (["miyamoto", "-", "--json"], s4), (["verify", "-"], hw6),
                       (["radical", "-", "--json"], s4), (["decompose", "-", "--json"], s4),
                       (["axet", "-", "--json"], ns6a)):
        if text is not None:
            rec.call(key, "cli.command", invoke, args, text)
    rec.call(key, "cli.command", invoke, ["hw", "check-tuple", "1,-1,-1,1", "--json"])


def _child_ms(args, env, cwd):
    times = []
    for _ in range(CHILD_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, cwd=cwd, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def interpreter_floor(env, cwd):
    """(bare interpreter ms, import axial.cli ms above that floor), medians."""
    interp = _child_ms(["-c", "pass"], env, cwd)
    imp = _child_ms(["-c", "import axial.cli"], env, cwd)
    return interp, imp - interp


def run_probes(rec):
    _field_batches(rec)
    for key, alg in _probe_algebras():
        _algebra_layers(rec, f"probe:{key}", alg)
    _small_jobs(rec)
    _catalog_and_serialize(rec)
    _click_commands(rec)


def aggregate(records, traced_passes):
    """Per-layer metrics from the span records of a traced run."""
    out = {}
    for metric, unit, names, kind in LAYER_METRICS:
        spans = [r for r in records if r["span"] in names]
        ms = sum(r["self_ms"] for r in spans)
        if kind == "per_op":
            n = sum(r["counters"].get("ops", 0) for r in spans)
        else:
            n = len(spans)
        out[metric] = (ms * SCALE[unit] / n if n else None, unit)

    def per_pass(name, counter):
        total = 0.0
        for r in records:
            if r["span"] == name and counter in r["counters"]:
                probe = str(r["job"]).startswith("probe:")
                total += r["counters"][counter] / (1 if probe else traced_passes)
        return total

    eqs = per_pass("frobenius.solve_frobenius", "equations")
    rank = per_pass("frobenius.solve_frobenius", "rank")
    out["frobenius.equations"] = (eqs, "count")
    out["frobenius.unknowns"] = (per_pass("frobenius.solve_frobenius", "unknowns"), "count")
    out["frobenius.rank"] = (rank, "count")
    out["frobenius.useful_row_frac"] = (rank / eqs if eqs else None, "fraction")
    solve_ms = sum(r["self_ms"] for r in records if r["span"] == "frobenius.solve_frobenius")
    all_eqs = sum(r["counters"].get("equations", 0) for r in records
                  if r["span"] == "frobenius.solve_frobenius")
    out["frobenius.solve_us_per_equation"] = (
        solve_ms * 1e3 / all_eqs if all_eqs else None, "us")
    out["perms.group_order"] = (per_pass("axes.miyamoto_group", "order"), "count")
    out["axes.closure_work_ratio"] = (_closure_work_ratio(records), "ratio")
    return out


def _closure_work_ratio(records):
    """close_axes time / (closed axes x mean miyamoto time), over the algebras
    that have both spans.  Above 1 while closure repeats work."""
    miy = {}
    for r in records:
        if r["span"] == "axes.miyamoto":
            miy.setdefault(r["counters"].get("alg"), []).append(r["self_ms"])
    close_ms = expected_ms = 0.0
    for r in records:
        alg = r["counters"].get("alg")
        if r["span"] == "axes.close_axes" and alg in miy:
            close_ms += r["self_ms"]
            expected_ms += r["counters"]["closed"] * statistics.mean(miy[alg])
    return close_ms / expected_ms if expected_ms else None
