"""Benchmark harness regenerating Fig. 7 (resilience versus fault rate)."""

from repro.experiments import fig7_resilience


def test_fig7_resilience_degrades_gracefully(run_once, bench_fidelity, bench_runner):
    """Regenerate the Fig. 7 degradation table and check its claims."""
    result = run_once(fig7_resilience.run, bench_fidelity, runner=bench_runner)
    print()
    print(fig7_resilience.format_report(result))
    for label, curve in result.curves.items():
        # More faults never deliver a larger share of the offered packets.
        ratios = [point.delivery_ratio for _, point in curve]
        assert ratios == sorted(ratios, reverse=True), (label, ratios)
        # The fault-free column is pristine and every faulted one lost hardware.
        for rate, point in curve:
            failed = point.links_failed + point.transceivers_failed
            assert (failed > 0) == (rate > 0), (label, rate, failed)
