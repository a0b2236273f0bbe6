"""``parallel_map``: the experiment sweeps' process-pool fan-out."""

from repro.experiments.parallel import parallel_map


def _square(x):
    """Module-level so the process pool can pickle it."""
    return x * x


class TestParallelMap:
    def test_serial_path_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_pool_results_equal_serial(self):
        items = list(range(40))
        serial = parallel_map(_square, items, workers=1)
        pooled = parallel_map(_square, items, workers=2)
        assert pooled == serial

    def test_single_item_runs_inline(self):
        assert parallel_map(_square, [7], workers=8) == [49]

    def test_empty_input(self):
        assert parallel_map(_square, [], workers=4) == []
