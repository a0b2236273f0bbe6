"""Section 4.4: loss homogenization under proactive-FEC transport."""

from repro.experiments.fec_gain import fec_gain_series

from bench_utils import emit


def test_fec_gain_sweep(benchmark):
    series = benchmark.pedantic(
        fec_gain_series,
        kwargs={"alpha_values": [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0]},
        rounds=1,
        iterations=1,
    )
    emit("fec_gain", series.format_table(precision=2))

    gains = dict(zip(series.x_values, series.column("gain-%")))
    # Endpoints fall back to one keytree; the alpha = 0.1 gain lands in
    # the paper's band (25.7% reported; protocol constants unreported).
    assert gains[0.0] == 0.0
    assert gains[1.0] == 0.0
    assert 15.0 < gains[0.1] < 45.0
    # FEC is *more* sensitive to the high-loss minority than WKA-BKR
    # (Section 4.4's observation).
    from repro.analysis import WKA_BKR, loss_homogenized_trees, one_tree, scheme_cost

    mixture = ((0.20, 0.1), (0.02, 0.9))
    wka_gain = 100 * (
        1
        - scheme_cost(loss_homogenized_trees(65_536, 256, mixture), WKA_BKR, 4)
        / scheme_cost(one_tree(65_536, 256, mixture), WKA_BKR, 4)
    )
    assert gains[0.1] > wka_gain
