"""Result records are immutable named tuples, and `import axial` builds them
without loading `dataclasses` or `inspect`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import axial
from axial import (
    GF,
    QQ,
    ThreeTranspositionGroup,
    check_axis,
    classify_2gen_axet,
    close_axes,
    flip_subalgebra,
    ideal_type_info,
    is_axial,
    law_J,
    matsuo,
    miyamoto,
    miyamoto_group,
    non_annihilating_graph,
    projection_graph,
    seress_lemma_check,
    solve_frobenius,
    spin_factor,
    split_spin_factor,
    sum_decomposition,
)
from axial import axes, catalog, fields, frobenius, fusion, highwater, structure
from axial.fusion import find_c2_gradings
from axial.perms import parse_cycles


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(axial.__file__).resolve().parents[1])
    code = "import sys, axial; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _records():
    """One instance of every record the package defines."""
    s3 = ThreeTranspositionGroup.symmetric(3)
    alg = matsuo(s3, QQ.parse("1/4"))
    a = alg.axes[0][1]
    axet = close_axes(alg, [v for _, v in alg.axes])
    law = alg.law
    return [
        GF(7), law, find_c2_gradings(law)[0], s3,
        check_axis(alg, a), is_axial(alg), miyamoto(alg, a), axet, miyamoto_group(axet),
        classify_2gen_axet(axet), solve_frobenius(alg), projection_graph(alg, axet),
        seress_lemma_check(alg, a), non_annihilating_graph(alg, axet), sum_decomposition(alg, axet),
        ideal_type_info((1, -2, 1)), spin_factor([[2]]), split_spin_factor([[1]], QQ.parse("1/3")),
        flip_subalgebra(ThreeTranspositionGroup.symmetric(4), QQ.parse("1/4"), parse_cycles("(1 2)(3 4)", 4)),
    ]


def test_every_record_is_immutable():
    records = _records()
    defined = {
        cls for mod in (axes, catalog, fields, frobenius, fusion, highwater, structure)
        for name, cls in vars(mod).items()
        if isinstance(cls, type) and hasattr(cls, "_fields") and cls.__module__ == mod.__name__
        and not name.startswith("_")
    }
    assert {type(r) for r in records} == defined and len(defined) == 19
    for r in records:
        with pytest.raises(AttributeError):
            setattr(r, r._fields[0], None)
        with pytest.raises(AttributeError):
            r.extra = None  # no instance __dict__


def test_records_compare_as_tuples():
    assert GF(7) == ("prime", 7) and hash(GF(7)) == hash(("prime", 7))
    assert repr(law_J(GF(7), 3)._replace(name="J")).startswith("FusionLaw(field=FieldSpec(kind='prime', p=7), ")
