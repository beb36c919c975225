"""Byte-identity pins for Scalene ``full`` mode on the Table-1 programs.

Each of the ten pyperf programs is profiled in ``full`` mode at a small
scale, and the run must reproduce, exactly:

* the sha256 of ``ProfileData.to_json()``;
* the VM's ``instruction_count``, the memory profiler's ``event_count``
  and ``sample_count``, the shim's ``suppressed_events`` and the signal
  manager's ``delivered_count``.

The report goldens round floats to four places, so they cannot see a
reordered float sum in the hook chain (the per-event overhead charges,
the clock advance, timer expiry); these pins can. The simulation runs on
virtual time, so the values do not depend on the host, nor on the Python
version: the pins are also checked with ``sum()`` replaced by the
compensated float sum of Python 3.12+, on every version. A change that
moves a pin on purpose must say why and re-record it with
``python -m tests.test_profile_pins``.
"""

from __future__ import annotations

import builtins
import hashlib
import math

import pytest

from repro.core import Scalene
from repro.workloads import pyperf_suite

SCALE = 0.05

#: program -> (profile sha256, instructions, alloc events, memory samples,
#: suppressed shim events, delivered signals)
PINS = {
    "async_tree_io_none": (
        "572bcaf68e3953a60e2ab69f38ac965fa69e13ad9392b5c3d4618f81aef3af0d",
        11044, 4461, 10, 200, 76,
    ),
    "async_tree_io_io": (
        "351c9986eb8f1d85adb38b82b2626fa4c4f179b7c8d66b09984b46dd490398f6",
        6679, 2609, 8, 160, 60,
    ),
    "async_tree_io_cpu_io_mixed": (
        "90ea05ca3336859ea43dc76a74d0bc6b304a503148ffbbcdff2d6a0fa33270e5",
        10999, 4529, 8, 160, 79,
    ),
    "async_tree_io_memoization": (
        "2c045dbf66570ddec59da717ad4cbb135750369934aa7ff2ee879d3f2849bae9",
        3223, 1098, 8, 161, 57,
    ),
    "docutils": (
        "9a4f69028f2f5c68cbef7bd1d453758a946729eb1f1f016ed9044966077e0839",
        18597, 10475, 0, 6, 134,
    ),
    "fannkuch": (
        "cc502d4e558b8aea2c1a2a940bcc82f0d2651b0fe2f13b49ba0fc251a1fd4417",
        14704, 3480, 4, 66, 88,
    ),
    "mdp": (
        "9e2cacb28e9b1537016a90960c6aba567ca54311f6f4bb0e98d6ef4cb9615ac6",
        13794, 3797, 6, 73, 84,
    ),
    "pprint": (
        "b8af7efa009ca0d446e49734e02e0c3efccf15780399143e399b239bd158816e",
        14284, 7305, 2, 838, 102,
    ),
    "raytrace": (
        "ee24bd98beba05150e5c87f214ca2981b0bd04dd4eaabb6df12a421992fc1ef4",
        9328, 5213, 9, 61, 67,
    ),
    "sympy": (
        "b4c98f368b2e59b63c7c91116f5b894c7f48b86d8aa7959d27edbae40f4de54a",
        13241, 5894, 10, 682, 92,
    ),
}


def profile_pins(name: str) -> tuple:
    process = pyperf_suite()[name].make_process(SCALE)
    scalene = Scalene(process, mode="full")
    scalene.start()
    process.run()
    text = scalene.stop().to_json()
    memory = scalene.memory_profiler
    return (
        hashlib.sha256(text.encode("utf-8")).hexdigest(),
        process.vm.instruction_count,
        memory.event_count,
        memory.sample_count,
        process.mem.shim.suppressed_events,
        process.signals.delivered_count,
    )


def test_pins_cover_the_suite():
    assert sorted(PINS) == sorted(pyperf_suite())


@pytest.mark.parametrize("name", sorted(PINS))
def test_full_mode_profile_is_byte_identical(name):
    assert profile_pins(name) == PINS[name]


def compensated_sum(values, /, start=0):
    """``sum()`` as Python 3.12+ adds floats: Neumaier-compensated."""
    total, compensation = start, 0.0
    for value in values:
        if type(total) is float and type(value) in (float, int):
            step = total + value
            if abs(total) >= abs(value):
                compensation += (total - step) + value
            else:
                compensation += (value - step) + total
            total = step
        else:
            total = total + value
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_differs_from_left_to_right_addition():
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert 1e16 + 1.0 - 1e16 == 0.0
    assert compensated_sum([2, 3]) == 5 and compensated_sum([]) == 0


@pytest.mark.parametrize("name", sorted(PINS))
def test_pins_hold_under_compensated_float_sum(name, monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert profile_pins(name) == PINS[name]


if __name__ == "__main__":  # pragma: no cover - re-recording aid
    for program in pyperf_suite():
        print(f"{program!r}: {profile_pins(program)!r},")
