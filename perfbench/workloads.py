"""The four benchmark workloads: seeded inputs, job lists and golden checks.

Every job is one public call into the package (or one CLI pipeline) whose
answer is checked against an expected value.  Expected values come from
independent facts wherever one exists (published Gram matrices, |S_n| = n!,
the Matsuo Gram spectrum, the baric weight of a membership target, an
independent ideal-type predicate); the few values frozen from the seed run are
marked FROZEN below.

The seed only picks inputs whose answers stay known: the Matsuo eta is a
generic rational in (0, 1), and the highwater probe tuples come from one
family of ideal-type tuples of equal cost, so the amount of work per pass does
not depend on the seed.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from axial import (
    GF,
    NORTON_SAKUMA_NAMES,
    QQ,
    HighwaterElement,
    ThreeTranspositionGroup,
    classify_2gen_axet,
    close_axes,
    dump_algebra,
    hw_a,
    hw_ideal_window_contains,
    hw_mul,
    hw_periodic_quotient,
    ideal_type_info,
    is_axial,
    matsuo,
    miyamoto_group,
    norton_sakuma,
    projection_graph,
    radical,
    seress_lemma_check,
    solve_frobenius,
    spine,
    sum_decomposition,
)

P31 = 2**31 - 1
WORKLOADS = ("forms", "closure", "highwater", "cli")
WINDOWS = (6, 7, 8, 9, 10)
# Degree-3 ideal-type tuples with entries in [-2, 2], none zero, first entry
# positive: their window searches grow spans of similar size, so the seed
# changes which tuple is probed but not how much work a pass does.
PROBE_TUPLES = (
    (1, -2, 2, -1), (1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1),
    (1, 2, -2, -1), (2, -2, -2, 2), (2, -2, 2, -2),
)

# FROZEN from the seed run: Miyamoto group orders on the Norton-Sakuma axets,
# the dimension of the associativity solution space (2B keeps a second,
# non-normalised form), spine dimensions and component counts.
NS_GROUP_ORDER = {"2A": 1, "2B": 1, "3A": 6, "3C": 6, "4A": 4, "4B": 4, "5A": 10, "6A": 6}
NS_SOLUTION_DIM = {"2B": 2}
NS_SPINE_DIM = {"2A": 3, "2B": 2, "3A": 4, "3C": 3, "4A": 5, "4B": 5, "5A": 6, "6A": 8}
NS_COMPONENTS = {"2B": 2}

# Largest job of each workload: largest_job_s is its median time per pass.
LARGEST_JOB = {
    "forms": "hw:6",
    "closure": "matsuo:S7:gfp",
    "highwater": "member:w10:a0",
    "cli": "ns6a-axet",
}
# Extra runs of the largest job after the passes, alone.  Single calls vary by
# about 15% from second to second, so short largest jobs get more samples.
LARGEST_REPEATS = {"forms": 5, "closure": 0, "highwater": 4, "cli": 2}


def seeded_eta(rng):
    """A reduced fraction in (0, 1) whose numerator and denominator have 3-5 digits."""
    while True:
        den = rng.randint(100, 99_999)
        num = rng.randint(100, den - 1)
        eta = Fraction(num, den)
        if 100 <= eta.numerator and 100 <= eta.denominator:
            return eta


def matsuo_gram_eigenvalues(n, eta):
    """Spectrum of the Matsuo Gram matrix I + (eta/2) A on the transposition graph."""
    return (1 + eta * (n - 2), 1 + eta * (n - 4) / 2, 1 - eta)


def gfp_eta(eta, n, p=P31):
    """eta mod p, or None when a Gram eigenvalue of S_n vanishes mod p."""
    field = GF(p)
    for lam in matsuo_gram_eigenvalues(n, eta):
        if lam.numerator % p == 0:
            return None
    return field.parse(f"{eta.numerator}/{eta.denominator}")


def ideal_type_oracle(t):
    """Ideal-type predicate written out from its definition, on plain ints."""
    d = len(t) - 1
    if t[0] == 0 or t[d] == 0 or sum(t) != 0:
        return False
    return any(all(t[i] == e * t[d - i] for i in range(d + 1)) for e in (1, -1))


def scan_tuples(degree=5, bound=2):
    """Ideal-type tuples of the given degree, entries in [-bound, bound], first > 0."""
    rng = range(-bound, bound + 1)
    return [t for t in itertools.product(rng, repeat=degree + 1)
            if t[0] > 0 and ideal_type_info(list(t)).ok]


class Recorder:
    """Times each call, checks its answer and counts attempts and failures."""

    def __init__(self, tracer, speed=None):
        self.tracer = tracer
        self.speed = speed  # a speed.SpeedTracker, sampled after each call
        self.samples = []  # (pass index, job, span name, seconds, start)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.pass_index = 0

    def call(self, job, span, fn, *args, check=None, counters=None, **kwargs):
        """Run fn(*args, **kwargs); return its result, or None if it raised or
        the check returned a complaint."""
        self.attempted += 1
        with self.tracer.span(span, job=job) as ctr:
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:  # a job failing is a measured outcome
                dt = time.perf_counter() - t0
                self._fail(job, f"{type(exc).__name__}: {exc}")
                self._sample(job, span, t0, dt)
                return None
            dt = time.perf_counter() - t0
            if counters is not None and self.tracer.enabled:
                ctr.update(counters(out))
        self._sample(job, span, t0, dt)
        complaint = check(out) if check is not None else None
        if complaint:
            self._fail(job, complaint)
            return None
        return out

    def _sample(self, job, span, t0, dt):
        self.samples.append((self.pass_index, job, span, dt, t0))
        if self.speed is not None:
            self.speed.maybe_sample()

    def _fail(self, job, msg):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{job}: {msg}")


def build(tracer, span, fn, *args):
    """One input construction of the set-up, as a span of job "setup"."""
    with tracer.span(span, job="setup"):
        return fn(*args)


def expect(value, want, what):
    return None if value == want else f"{what} = {value!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# forms: the Frobenius solve and the radical


def forms_inputs(rng, tracer):
    eta = seeded_eta(rng)
    eta5p = gfp_eta(eta, 5)
    while eta5p is None:
        eta = seeded_eta(rng)
        eta5p = gfp_eta(eta, 5)
    algs = [(f"ns:{name}", build(tracer, "catalog.norton_sakuma", norton_sakuma, name))
            for name in NORTON_SAKUMA_NAMES]
    for key, n, e, field in (("matsuo:S4", 4, eta, QQ), ("matsuo:S5", 5, eta, QQ),
                             ("matsuo:S5:gfp", 5, eta5p, GF(P31))):
        algs.append((key, build(tracer, "catalog.matsuo", matsuo,
                                ThreeTranspositionGroup.symmetric(n), e, field)))
    for d in (4, 5, 6):
        algs.append((f"hw:{d}", build(tracer, "highwater.hw_periodic_quotient",
                                      hw_periodic_quotient, d)))
    return {"eta": eta, "algebras": algs}


def _expected_form(key, alg):
    """(solution dim, canonical Gram, radical dim) from published structure.

    Every catalog algebra carries its published Gram matrix: the Norton-Sakuma
    table, the Matsuo form (1, 0, eta/2) and the baric form w(x) w(y) of a
    highwater quotient.  Matsuo Grams for eta in (0, 1) are nonsingular (see
    matsuo_gram_eigenvalues); the baric form has rank 1, so its radical is the
    kernel of the weight, of dimension dim - 1.
    """
    sol_dim = NS_SOLUTION_DIM.get(key[3:], 1) if key.startswith("ns:") else 1
    rad_dim = alg.dim - 1 if key.startswith("hw:") else 0
    return sol_dim, alg.form.data, rad_dim


def _check_solution(key, alg):
    sol_dim, gram, _ = _expected_form(key, alg)

    def check(sol):
        if sol.space.dim != sol_dim:
            return f"solution dim {sol.space.dim}, expected {sol_dim}"
        if sol.canonical is None or sol.canonical.data != gram:
            return "canonical Gram differs from the published form"
        return None
    return check


def _solve_counters(alg):
    n = alg.dim

    def counters(sol):
        return {"dim": n, "equations": n**3, "unknowns": n * n,
                "rank": n * n - sol.space.dim, "field": alg.field.kind}
    return counters


def _forms_job(key, alg, rec):
    sol = rec.call(key, "frobenius.solve_frobenius", solve_frobenius, alg,
                   check=_check_solution(key, alg), counters=_solve_counters(alg))
    if sol is not None:
        want = _expected_form(key, alg)[2]
        rec.call(key, "frobenius.radical", radical, alg, sol,
                 check=lambda r: expect(r.dim, want, "radical dim"),
                 counters=lambda r: {"dim": r.dim})


def forms_pass(inp, rec):
    for key, alg in inp["algebras"]:
        _forms_job(key, alg, rec)


def forms_largest(inp, rec):
    for key, alg in inp["algebras"]:
        if key == LARGEST_JOB["forms"]:
            _forms_job(key, alg, rec)


def forms_smoke(inp, rec):
    key, alg = inp["algebras"][1]  # ns:2B, dim 2
    rec.call(key, "frobenius.solve_frobenius", solve_frobenius, alg,
             check=_check_solution(key, alg), counters=_solve_counters(alg))


# ---------------------------------------------------------------------------
# closure: axis closure, Miyamoto groups and structure probes


def closure_inputs(rng, tracer):
    eta = seeded_eta(rng)
    eta7p = gfp_eta(eta, 7)
    while eta7p is None:
        eta = seeded_eta(rng)
        eta7p = gfp_eta(eta, 7)
    ns = [(name, build(tracer, "catalog.norton_sakuma", norton_sakuma, name))
          for name in NORTON_SAKUMA_NAMES]
    s6 = build(tracer, "catalog.matsuo", matsuo, ThreeTranspositionGroup.symmetric(6), eta)
    s7 = build(tracer, "catalog.matsuo", matsuo, ThreeTranspositionGroup.symmetric(7),
               eta7p, GF(P31))
    return {"eta": eta, "ns": ns,
            "matsuo": [("matsuo:S6", 6, s6), ("matsuo:S7:gfp", 7, s7)]}


def _ns_pass(name, alg, rec):
    key = f"ns:{name}"
    n = int(name[0])
    gens = [alg.axes[0][1], alg.axes[1][1]]
    axet = rec.call(key, "axes.close_axes", close_axes, alg, gens,
                    check=lambda ax: expect(ax.size, n, "closed axes"),
                    counters=lambda ax: {"closed": ax.size, "dim": alg.dim, "alg": key})
    if axet is None:
        return
    rec.call(key, "axes.miyamoto_group", miyamoto_group, axet,
             check=lambda g: expect(g.order, NS_GROUP_ORDER[name], "group order"),
             counters=lambda g: {"order": g.order})
    rec.call(key, "axes.classify_2gen_axet", classify_2gen_axet, axet,
             check=lambda s: expect(s.label, f"X({n})", "shape"))
    gram = alg.form
    edges = sorted(
        (ia, ib)
        for ia, a in enumerate(axet.axes) for ib, b in enumerate(axet.axes)
        if ia != ib and _form(gram, a, b)
    )
    rec.call(key, "frobenius.projection_graph", projection_graph, alg, axet,
             check=lambda g: expect(sorted(g.edges), edges, "projection edges"))
    rec.call(key, "structure.spine", spine, alg, axet,
             check=lambda s: expect(s.dim, NS_SPINE_DIM[name], "spine dim"))
    rec.call(key, "structure.sum_decomposition", sum_decomposition, alg, axet,
             check=lambda d: expect(d.count, NS_COMPONENTS.get(name, 1), "components"))
    for a in gens:
        # The Seress lemma holds for every axis of a Seress fusion law.
        rec.call(key, "structure.seress_lemma_check", seress_lemma_check, alg, a,
                 check=lambda s: expect(s.ok, True, "Seress identity"))


def _form(gram, u, v):
    """(u, v) under the Gram matrix, written out here rather than taken from
    the package, so the expected edges do not share its code."""
    total = 0
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    total += ui * gram.data[i][j] * vj
    return total


def _matsuo_pass(key, n, alg, rec):
    size, order = n * (n - 1) // 2, 1
    for k in range(2, n + 1):
        order *= k
    rec.call(key, "axes.is_axial", is_axial, alg,
             check=lambda v: expect(v.passed, True, "axial verdict"))
    axet = rec.call(key, "axes.close_axes", close_axes, alg, alg.axis_vectors(),
                    check=lambda ax: expect(ax.size, size, "closed axes"),
                    counters=lambda ax: {"closed": ax.size, "dim": alg.dim, "alg": key})
    if axet is not None:
        rec.call(key, "axes.miyamoto_group", miyamoto_group, axet,
                 check=lambda g: expect(g.order, order, "group order"),
                 counters=lambda g: {"order": g.order})


def closure_pass(inp, rec):
    for name, alg in inp["ns"]:
        _ns_pass(name, alg, rec)
    for key, n, alg in inp["matsuo"]:
        _matsuo_pass(key, n, alg, rec)


def closure_smoke(inp, rec):
    name, alg = inp["ns"][1]  # 2B, dim 2
    rec.call(f"ns:{name}", "axes.close_axes", close_axes, alg,
             [alg.axes[0][1], alg.axes[1][1]],
             check=lambda ax: expect(ax.size, 2, "closed axes"),
             counters=lambda ax: {"closed": ax.size, "dim": alg.dim, "alg": f"ns:{name}"})


# ---------------------------------------------------------------------------
# highwater: sparse products, quotients and window membership


def highwater_inputs(rng, tracer):
    probes = []
    for w in WINDOWS:
        t = rng.choice(PROBE_TUPLES)
        d = len(t) - 1
        gen = HighwaterElement(QQ, {i: c for i, c in enumerate(t)})
        shift = rng.randint(-w, w - d)
        k = rng.randint(-w, w)
        probes.append({
            "window": w,
            "tuple": t,
            "translate": HighwaterElement(QQ, {i + shift: c for i, c in enumerate(t)}),
            "product": hw_mul(gen, hw_a(k)),
        })
    scan = [t for t in itertools.product(range(-2, 3), repeat=6)
            if t[0] > 0 and ideal_type_oracle(t)]
    return {"probes": probes, "scan_expected": scan}


def _member(rec, p, which, want):
    job = f"member:w{p['window']}:{which}"
    target = hw_a(0) if which == "a0" else p[which]
    rec.call(job, "highwater.hw_ideal_window_contains", hw_ideal_window_contains,
             list(p["tuple"]), target, window=p["window"],
             check=lambda ans: expect(ans, want, "membership"),
             counters=lambda ans: {"window": p["window"]})


def highwater_pass(inp, rec):
    for d in (12, 20, 30):
        rec.call(f"quotient:{d}", "highwater.hw_periodic_quotient", hw_periodic_quotient, d,
                 check=lambda q, d=d: expect((q.dim, len(q.axes)), (d + d // 2, d),
                                             "(dim, axes)"),
                 counters=lambda q: {"dim": q.dim})
    rec.call("scan:5", "highwater.ideal_type_info", scan_tuples,
             check=lambda found: expect(found, inp["scan_expected"], "ideal-type tuples"),
             counters=lambda found: {"tuples": 5**6, "found": len(found)})
    for p in inp["probes"]:
        _member(rec, p, "translate", "yes")
        _member(rec, p, "product", "yes")
        # a_0 has baric weight 1 and the ideal lies in the weight-0 kernel.
        _member(rec, p, "a0", "unknown")


def highwater_largest(inp, rec):
    _member(rec, inp["probes"][-1], "a0", "unknown")


def highwater_smoke(inp, rec):
    rec.call("quotient:4", "highwater.hw_periodic_quotient", hw_periodic_quotient, 4,
             check=lambda q: expect((q.dim, len(q.axes)), (6, 4), "(dim, axes)"),
             counters=lambda q: {"dim": q.dim})


# ---------------------------------------------------------------------------
# cli: short pipelines, each stage a fresh interpreter


CLI_ENTRY = "import sys; from axial.cli import main; sys.exit(main())"


def cli_inputs(rng, tracer, workdir):
    eta = seeded_eta(rng)
    eta_text = f"{eta.numerator}/{eta.denominator}"
    t = rng.choice(PROBE_TUPLES)
    s4 = build(tracer, "catalog.matsuo", matsuo, ThreeTranspositionGroup.symmetric(4), eta)
    ns6 = build(tracer, "catalog.norton_sakuma", norton_sakuma, "6A")
    docs = {name: build(tracer, "serialize.dump_algebra", dump_algebra, alg) + "\n"
            for name, alg in (("matsuo_s4.json", s4), ("ns_6a.json", ns6))}
    paths = {}
    if workdir is not None:
        os.makedirs(workdir, exist_ok=True)
        for name, text in docs.items():
            paths[name] = os.path.join(workdir, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
    return {"eta": eta, "eta_text": eta_text, "tuple": t, "paths": paths, "docs": docs}


def cli_commands(inp):
    """(job, stages, check) for one cycle; check sees the last stage's stdout."""
    s4, ns6 = inp["paths"].get("matsuo_s4.json"), inp["paths"].get("ns_6a.json")
    tup = ",".join(str(c) for c in inp["tuple"])
    return [
        ("ns2a-verify", [["build", "ns:2A"], ["verify", "-"]],
         lambda out: _has(out, "verdict: pass")),
        ("ns3a-frobenius", [["build", "ns:3A"], ["frobenius", "-"]],
         lambda out: _has(out, "radical dimension: 0")),
        ("matsuo-miyamoto",
         [["build", f"matsuo:Sn:4:{inp['eta_text']}"], ["miyamoto", "-", "--json"]],
         lambda out: _json_fields(out, {"group_order": 24}, axes=6)),
        ("hw6-verify", [["hw", "quotient", "6"], ["verify", "-"]],
         lambda out: _has(out, "verdict: pass")),
        ("matsuo-radical", [["radical", s4, "--json"]],
         lambda out: _json_fields(out, {"dim": 0})),
        ("matsuo-decompose", [["decompose", s4, "--json"]],
         lambda out: _json_fields(out, {"subalgebra_dims": [6], "direct": True})),
        ("ns6a-axet", [["axet", ns6, "--json"]],
         lambda out: _json_fields(out, {"label": "X(6)", "total": 6})),
        ("check-tuple", [["hw", "check-tuple", tup, "--json"]],
         lambda out: _json_fields(out, {"ok": True})),
    ]


def _has(out, text):
    return None if text in out else f"output lacks {text!r}"


def _json_fields(out, want, axes=None):
    try:
        obj = json.loads(out)
    except ValueError:
        return "output is not JSON"
    for k, v in want.items():
        if obj.get(k) != v:
            return f"{k} = {obj.get(k)!r}, expected {v!r}"
    if axes is not None and len(obj.get("axes", ())) != axes:
        return f"{len(obj.get('axes', ()))} axes, expected {axes}"
    return None


def run_pipeline(stages, env, cwd, timeout=120):
    """Run the stages connected by pipes; return (exit codes, last stdout)."""
    procs = []
    prev = None
    try:
        for k, args in enumerate(stages):
            last = k == len(stages) - 1
            p = subprocess.Popen(
                [sys.executable, "-c", CLI_ENTRY, *args],
                stdin=prev.stdout if prev is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env, cwd=cwd, text=last,
            )
            if prev is not None:
                prev.stdout.close()
            procs.append(p)
            prev = p
        out, _ = procs[-1].communicate(timeout=timeout)
        codes = tuple(p.wait(timeout=timeout) for p in procs)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    return codes, out


class PipelineFailed(Exception):
    pass


def _pipeline_job(stages, env, cwd):
    codes, out = run_pipeline(stages, env, cwd)
    if any(codes):
        raise PipelineFailed(f"exit codes {codes}")
    return out


def cli_pass(inp, rec, env, cwd, only=None):
    for job, stages, check in cli_commands(inp):
        if only is None or job == only:
            rec.call(job, "cli.pipeline", _pipeline_job, stages, env, cwd, check=check,
                     counters=lambda out, n=len(stages): {"stages": n})


def cli_largest(inp, rec, env, cwd):
    cli_pass(inp, rec, env, cwd, only=LARGEST_JOB["cli"])


def cli_smoke(inp, rec, env, cwd):
    job, stages, check = cli_commands(inp)[-1]
    rec.call(job, "cli.pipeline", _pipeline_job, stages, env, cwd, check=check)


def make_inputs(workload, seed, tracer, workdir=None):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "forms":
        return forms_inputs(rng, tracer)
    if workload == "closure":
        return closure_inputs(rng, tracer)
    if workload == "highwater":
        return highwater_inputs(rng, tracer)
    return cli_inputs(rng, tracer, workdir)
