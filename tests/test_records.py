"""Every frozen record of the package is slotted: no per-instance dict.

A chain of N elements holds N `Scatterer`/`Segment` records (plus one
`Polarisability` per scatterer), so the per-record overhead is the chain's
memory.  With slots a scatterer takes 80 B instead of 160 B and a segment
40 B instead of 80 B (CPython 3.11, the value objects themselves not
counted).
"""

import dataclasses

import pytest

from tmmcavity import dynamics, elements, mim, noise, statics
from tmmcavity.dynamics import force_with_velocity, solve_dynamic
from tmmcavity.elements import Chain, PumpSpec, Scatterer, Segment
from tmmcavity.mim import MimConfig, ScanGrid, build_mim, compare_models, pump_for, scan
from tmmcavity.noise import equilibrium_temperature, operator_fields
from tmmcavity.statics import couplings, solve_static

CONFIG = MimConfig(cavity_length=5e-3, mirror_zeta=-3.0)
GRID = ScanGrid(-2e-7, 2e-7, 2, -1e-7, 1e-7, 2)


@pytest.fixture(scope="module")
def records() -> dict:
    """One instance of each record class, each from a real call."""
    chain = build_mim(CONFIG, 1e-8, 0.0)
    pump = pump_for(CONFIG)
    dyn = solve_dynamic(chain, pump)
    ops = operator_fields(chain)
    scanned = scan(CONFIG, GRID)
    compared = compare_models(CONFIG, GRID)
    found = [
        chain, chain.mobile, chain.mobile.pol, chain.elements[1], pump,
        solve_static(chain, pump), couplings(-1.0, 1e-8, CONFIG.cavity_length, CONFIG.k0),
        dyn, force_with_velocity(dyn, chain.mobile.pol, chain.k0),
        ops, ops.basis, equilibrium_temperature(1.0, -1.0),
        CONFIG, GRID, scanned, scanned.point(0, 0),
        compared, compared.calibration, compared.calibration.params,
    ]
    return {type(r): r for r in found}


def _record_classes() -> set:
    return {
        obj for mod in (elements, statics, dynamics, noise, mim)
        for obj in vars(mod).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == mod.__name__
    }


def test_every_record_class_is_covered(records):
    classes = _record_classes()
    assert len(classes) == 19
    assert set(records) == classes


@pytest.mark.parametrize("cls", sorted(_record_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_record_is_slotted(cls, records):
    record = records[cls]
    assert "__slots__" in vars(cls)
    assert not hasattr(record, "__dict__")
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, getattr(record, name))
    # no dict to put a new attribute in; Python 3.11 raises TypeError here,
    # since the frozen __setattr__ of a slotted dataclass calls super() on
    # the class that slots=True replaced
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1
    with pytest.raises(TypeError):
        vars(record)


def test_slotted_records_keep_dataclass_behaviour():
    seg = Segment(1e-3)
    assert dataclasses.replace(seg, length=2e-3) == Segment(2e-3)
    assert dataclasses.asdict(PumpSpec.one_sided(1.0, 1.064e-6))["power_watts"] == 1.0
    assert CONFIG.replace(membrane_zeta=-2.0).membrane_zeta == -2.0
    a = Chain((Scatterer.of(-1.0), seg), 0, 1.0)
    b = Chain([Scatterer.of(-1 + 0j), Segment(1e-3)], 0, 1.0)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, dataclasses.replace(a, k0=2.0)}) == 2
    # records holding arrays compare by identity
    scanned = scan(CONFIG, GRID)
    assert scanned == scanned and scanned != scan(CONFIG, GRID)
