"""An opcode-count pin on the VM's per-op loop.

``VM.run_slice`` runs every VM instruction, so the CPython opcodes it
executes per VM instruction measure the loop's cost without timing
noise. They are counted with ``sys.settrace`` opcode events over a fixed
bare input (the ten Table-1 programs at scale 0.02, each compiled afresh
so every inline cache starts cold) and pinned per Python version as an
upper bound: a change that adds work to the per-op path fails here, and
one that removes work lowers the pin.

Python 3.10 calls a trace function far more slowly, so this input takes
under a minute there against about 2 s on 3.11. Interpreters that report
no opcode events for a traced run (3.12.1 reports none for its first
``sys.settrace`` session) skip, as do versions with no pin recorded.
Re-measure with ``python -m tests.test_vm_opcode_pin``.
"""

from __future__ import annotations

import os
import sys
from unittest import mock

import pytest

from repro.workloads import pyperf_suite

SCALE = 0.02

#: (major, minor) -> upper bound on ``run_slice`` opcodes per VM instruction.
PINS = {
    (3, 10): 121.94,
    (3, 11): 125.03,
}


def run_slice_opcodes() -> tuple:
    """``(run_slice opcode events, VM instructions, runs with no events)``
    over one bare round of the Table-1 programs at :data:`SCALE`."""
    events = 0

    def count(frame, event, arg):
        nonlocal events
        if event == "opcode":
            events += 1
        return count

    def on_call(frame, event, arg):
        if frame.f_code.co_name != "run_slice":
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return count

    instructions = silent_runs = 0
    with mock.patch.dict(os.environ, REPRO_CODE_CACHE="0"):
        processes = [w.make_process(SCALE) for _, w in sorted(pyperf_suite().items())]
    for process in processes:
        before = events
        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            process.run()
        finally:
            sys.settrace(previous)
        instructions += process.vm.instruction_count
        silent_runs += events == before
    return events, instructions, silent_runs


def test_run_slice_opcodes_per_instruction_within_pin():
    pin = PINS.get(sys.version_info[:2])
    if pin is None:
        pytest.skip(f"no opcode pin recorded for Python {sys.version.split()[0]}")
    events, instructions, silent_runs = run_slice_opcodes()
    if silent_runs:
        pytest.skip(f"{silent_runs} traced runs reported no opcode events")
    per_instruction = events / instructions
    assert per_instruction <= pin, (
        f"run_slice ran {per_instruction:.4f} CPython opcodes per VM instruction "
        f"({events} over {instructions}), above the pin of {pin}"
    )


if __name__ == "__main__":
    events, instructions, silent_runs = run_slice_opcodes()
    print(
        f"Python {sys.version.split()[0]}: {events} run_slice opcodes over "
        f"{instructions} VM instructions = {events / instructions:.4f} "
        f"({silent_runs} runs reported no events)"
    )
