"""The speed sampler: interruptions are accounted for and scale factors are finite."""

from time import perf_counter

from perfbench import speed


def test_sampler_interrupts_on_its_timer_and_accounts_for_it():
    with speed.SpeedSampler() as sampler:
        start = perf_counter()
        while perf_counter() - start < 0.3:
            pass
        end = perf_counter()
    # one sample on entry, one on exit, and one per timer period in between
    assert len(sampler.kernel) >= 0.3 / speed.SAMPLE_EVERY_S
    inside = sampler.interrupted(start, end)
    assert 0.0 < inside < end - start
    # the samples taken on entry and exit lie outside the op
    assert inside <= sum(sampler.spent) - sampler.spent[0] - sampler.spent[-1]
    assert 0.0 < sampler.factor(start, end) < 100.0


def test_short_op_uses_samples_around_it():
    with speed.SpeedSampler() as sampler:
        start = perf_counter()
        while perf_counter() - start < 0.2:
            pass
    mid = start + 0.1
    assert sampler.interrupted(mid, mid + 1e-6) < speed.SAMPLE_EVERY_S
    assert sampler.factor(mid, mid + 1e-6) > 0.0
