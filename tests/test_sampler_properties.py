"""Property-based tests of the threshold sampler's core invariants (§3.2)."""

from hypothesis import given, settings, strategies as st

from repro import SimProcess
from repro.core.config import ScaleneConfig
from repro.core.leak_detector import LeakDetector
from repro.core.memory_profiler import MemoryProfiler
from repro.core.stats import ScaleneStats

THRESHOLD = 1_000_000


def run_events(events):
    """Feed signed byte deltas through a fresh sampler.

    Returns (profiler, baseline_footprint) — the process has a small
    pre-existing footprint (the module frame) at install time.
    """
    process = SimProcess("x = 1\n", filename="p.py")
    config = ScaleneConfig(memory_threshold=THRESHOLD)
    profiler = MemoryProfiler(process, config, ScaleneStats())
    profiler.install()
    baseline = profiler.footprint
    thread = process.main_thread
    for i, delta in enumerate(events):
        profiler.observe(delta, "python", i, thread)
    profiler.uninstall()
    return profiler, baseline


deltas = st.lists(
    st.integers(min_value=-400_000, max_value=400_000), max_size=200
)


@settings(max_examples=80, deadline=None)
@given(deltas)
def test_footprint_tracking_is_exact(events):
    """The sampler's footprint equals the sum of all observed deltas."""
    profiler, baseline = run_events(events)
    assert profiler.footprint == baseline + sum(events)


@settings(max_examples=80, deadline=None)
@given(deltas)
def test_sample_count_bounded_by_path_length(events):
    """Samples fire at most once per T bytes of |footprint| movement."""
    profiler, _ = run_events(events)
    path_length = sum(abs(d) for d in events)
    assert profiler.sample_count <= path_length // THRESHOLD + 1


@settings(max_examples=80, deadline=None)
@given(deltas)
def test_residual_always_below_threshold(events):
    """Between samples, the un-sampled drift stays strictly below T."""
    profiler, _ = run_events(events)
    residual = abs(profiler.footprint - profiler._footprint_at_last_sample)
    # A single event can overshoot by at most one event's size; with our
    # event bound of 400 KB < T the residual is always < T.
    assert residual < THRESHOLD


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=30))
def test_monotone_growth_samples_once_per_threshold(steps):
    """Pure growth of N*T bytes produces exactly N samples."""
    events = [THRESHOLD] * steps
    profiler, _ = run_events(events)
    assert profiler.sample_count == steps


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=THRESHOLD - 1), max_size=100))
def test_balanced_transients_never_sample(sizes):
    """alloc+free pairs below T never move the footprint far enough."""
    events = []
    for size in sizes:
        events.extend((size, -size))
    profiler, _ = run_events(events)
    assert profiler.sample_count == 0


def drive(events, split):
    """Feed one Python-domain stream of signed deltas through a sampler
    with a leak detector, either through the signed ``observe`` or through
    the PyMem wrapper's split callbacks (``observe_alloc`` for >= 0, as
    ``observe`` routes it, ``observe_free`` for < 0). Each free names the
    address of the latest allocation still live, so frees can hit the leak
    detector's tracked object."""
    process = SimProcess("x = 1\n", filename="p.py")
    config = ScaleneConfig(memory_threshold=THRESHOLD)
    leaks = LeakDetector(config)
    profiler = MemoryProfiler(process, config, ScaleneStats(), leaks)
    profiler.install()
    start = profiler.footprint
    thread = process.main_thread
    live = []
    for i, delta in enumerate(events):
        if delta >= 0:
            address = i
            live.append(address)
        else:
            address = live.pop() if live else i
        if not split:
            profiler.observe(delta, "python", address, thread)
        elif delta >= 0:
            profiler.observe_alloc(delta, address, thread)
        else:
            profiler.observe_free(-delta, address, thread)
    profiler.uninstall()
    return process, profiler, leaks, start


def reference_sample_count(start, events):
    """The threshold rule as written in §3.2: sample when |footprint -
    footprint at the last sample| >= T."""
    footprint = last = start
    samples = 0
    for delta in events:
        footprint += delta
        if abs(footprint - last) >= THRESHOLD:
            samples += 1
            last = footprint
    return samples


@settings(max_examples=80, deadline=None)
@given(deltas)
def test_split_callbacks_match_the_signed_observer(events):
    """observe_alloc/observe_free are the signed observer, event for
    event: same footprint, samples, sample-file lines, leak checks and
    clocks, and the precomputed bounds sample where |delta| >= T would."""
    runs = [drive(events, split) for split in (False, True)]
    (signed_process, signed, signed_leaks, start), (split_process, split, split_leaks, _) = runs
    assert split.footprint == signed.footprint
    assert split.event_count == signed.event_count == len(events)
    assert split.sample_count == signed.sample_count == reference_sample_count(start, events)
    assert split.samplefile.all_records() == signed.samplefile.all_records()
    assert split_leaks.free_checks == signed_leaks.free_checks
    assert split_leaks._sites == signed_leaks._sites
    for attr in ("cpu", "wall"):
        assert getattr(split_process.clock, attr) == getattr(signed_process.clock, attr)
    assert split_process.main_thread.cpu_time == signed_process.main_thread.cpu_time
