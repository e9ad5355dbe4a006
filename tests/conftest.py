"""Shared fixtures plus the acceptance summary hook.

Catalog instances are built once per session; everything here is exact
arithmetic, so caching is about convenience, not numerics.
"""

import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import settings

from axial import (
    GF,
    NORTON_SAKUMA_NAMES,
    QQ,
    Algebra,
    flip_subalgebra,
    hw_periodic_quotient,
    matsuo,
    norton_sakuma,
    spin_factor,
    split_spin_factor,
)
from axial.catalog import ThreeTranspositionGroup
from axial.errors import InvalidField
from axial.perms import parse_cycles

settings.register_profile("pkg", deadline=None, max_examples=60)
settings.load_profile("pkg")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(n, title): acceptance criterion, reported in the summary"
    )


_CRITERIA: Dict[int, Tuple[str, str]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("criterion")
    if mark is None:
        return
    n, title = mark.args
    if report.when == "call":
        _CRITERIA[n] = ("PASS" if report.passed else "FAIL", title)
    elif report.when == "setup" and report.failed:
        _CRITERIA[n] = ("FAIL", title)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in sorted(_CRITERIA):
        verdict, title = _CRITERIA[n]
        terminalreporter.write_line(f"[criterion {n:2d}] {verdict}  {title}")


# -- catalog fixtures -------------------------------------------------------

_NS_CACHE: Dict[str, Algebra] = {}


@pytest.fixture(scope="session")
def ns():
    def get(name: str) -> Algebra:
        if name not in _NS_CACHE:
            _NS_CACHE[name] = norton_sakuma(name)
        return _NS_CACHE[name]

    return get


@pytest.fixture(scope="session")
def s3_quarter() -> Algebra:
    return matsuo(ThreeTranspositionGroup.symmetric(3), QQ.parse("1/4"))


@pytest.fixture(scope="session")
def s4_quarter() -> Algebra:
    return matsuo(ThreeTranspositionGroup.symmetric(4), QQ.parse("1/4"))


@pytest.fixture(scope="session")
def s4_flip():
    sigma = parse_cycles("(1 2)(3 4)", 4)
    return flip_subalgebra(
        ThreeTranspositionGroup.symmetric(4), QQ.parse("1/4"), sigma
    )


@pytest.fixture(scope="session")
def golden(ns) -> List[Tuple[str, Algebra]]:
    """Every catalog family at small size, used for catalog-wide properties."""
    quarter = QQ.parse("1/4")
    out: List[Tuple[str, Algebra]] = []
    for name in NORTON_SAKUMA_NAMES:
        out.append((f"ns:{name}", ns(name)))
    out.append(("matsuo:S3:1/4", matsuo(ThreeTranspositionGroup.symmetric(3), quarter)))
    out.append(("matsuo:S4:1/4", matsuo(ThreeTranspositionGroup.symmetric(4), quarter)))
    out.append(("matsuo:S3:2", matsuo(ThreeTranspositionGroup.symmetric(3), QQ.parse("2"))))
    out.append(("matsuo:S3:-1", matsuo(ThreeTranspositionGroup.symmetric(3), QQ.parse("-1"))))
    out.append(("spin:[[2]]", spin_factor([[2]]).algebra))
    out.append(("spin:2I2", spin_factor([[2, 0], [0, 2]]).algebra))
    out.append(("splitspin:I2:1/3", split_spin_factor([[1, 0], [0, 1]], QQ.parse("1/3")).algebra))
    out.append(("splitspin:[[1]]:1/3", split_spin_factor([[1]], QQ.parse("1/3")).algebra))
    out.append(("splitspin:I2:-1", split_spin_factor([[1, 0], [0, 1]], QQ.parse("-1")).algebra))
    sigma = parse_cycles("(1 2)(3 4)", 4)
    out.append(
        ("flip:S4", flip_subalgebra(ThreeTranspositionGroup.symmetric(4), quarter, sigma).algebra)
    )
    for period in (2, 3, 4, 5):
        out.append((f"hw:{period}", hw_periodic_quotient(period)))
    return out


# -- inputs for the sparse-kernel differential tests ------------------------

KERNEL_ALGEBRAS = (
    tuple(f"ns:{name}" for name in NORTON_SAKUMA_NAMES)
    + ("matsuo:S4:QQ", "matsuo:S4:GF(10007)")
    + tuple(f"hw:{d}" for d in (4, 5, 6))
)


def _kernel_algebra(name: str) -> Algebra:
    family, arg = name.split(":", 1)
    if family == "ns":
        return norton_sakuma(arg)
    if family == "hw":
        return hw_periodic_quotient(int(arg))
    field = QQ if arg.endswith("QQ") else GF(10007)
    return matsuo(ThreeTranspositionGroup.symmetric(4), field.parse("1/4"), field)


def cancelling_pair(alg: Algebra):
    """(e_i, x e_j + y e_l) whose product has an entry k that two non-zero
    contributions cancel to exactly zero, or None when the algebra has none."""
    n, zero = alg.dim, alg.field.zero()
    for i in range(n):
        for j in range(n):
            for l in range(j + 1, n):
                p, q = alg.basis_product(i, j), alg.basis_product(i, l)
                for k in range(n) if p is not None and q is not None else ():
                    if p[k] and q[k]:
                        v = [zero] * n
                        v[j], v[l] = q[k], -p[k]
                        return alg.basis_vector(i), tuple(v)
    return None


@pytest.fixture(scope="session", params=KERNEL_ALGEBRAS)
def kernel_case(request):
    """(name, algebra, probe vectors, cancelling pair or None).  The probes are
    the zero vector, one basis vector, a vector with three non-zeros, a fully
    dense one and the cancelling pair."""
    alg = _kernel_algebra(request.param)
    f, n = alg.field, alg.dim
    few = [f.zero()] * n
    few[0], few[n // 2], few[-1] = f.parse("1"), f.parse("-2"), f.parse("1/3")
    full = tuple(f.parse(f"{(-1) ** k * (k + 2)}/{k + 1}") for k in range(n))
    pair = cancelling_pair(alg)
    probes = [alg.zero_vector(), alg.basis_vector(n - 1), tuple(few), full, *(pair or ())]
    return request.param, alg, probes, pair


# -- inputs for the Frobenius solve differential tests -----------------------

SOLVE_ALGEBRAS = (
    tuple(f"ns:{name}" for name in NORTON_SAKUMA_NAMES)
    + tuple(f"matsuo:S{n}:{field}" for n in (4, 5, 6) for field in ("QQ", "GF(10007)"))
    + tuple(f"hw:{d}" for d in range(2, 9))
)


def seeded_eta(seed, field=QQ):
    """A scalar of `field` from a fraction in (0, 1) whose numerator and
    denominator have 3 to 5 digits, drawn from a fixed seed."""
    rng = random.Random(seed)
    while True:
        den = rng.randint(100, 99_999)
        num = rng.randint(100, den - 1)
        try:
            return field.parse(f"{num}/{den}")
        except InvalidField:  # the denominator is not invertible in the field
            continue


def solve_algebra(name: str) -> Algebra:
    family, arg = name.split(":", 1)
    if family == "ns":
        return norton_sakuma(arg)
    if family == "hw":
        return hw_periodic_quotient(int(arg))
    degree, field = arg.split(":")
    field = QQ if field == "QQ" else GF(10007)
    n = int(degree[1:])
    return matsuo(ThreeTranspositionGroup.symmetric(n), seeded_eta(f"eta:S{n}", field), field)


@pytest.fixture(scope="session", params=SOLVE_ALGEBRAS)
def solve_case(request):
    """(name, algebra) for the Frobenius solve differential tests: the
    Norton-Sakuma algebras, Matsuo S4-S6 at a seeded eta over QQ and
    GF(10007), and highwater quotients of period 2 to 8."""
    return request.param, solve_algebra(request.param)
