"""Figure 8: histogram of per-neuron BNN/RNN correlation factors.

Paper's observation: for EESEN, IMDB and DeepSpeech, ~85% of neurons
have R > 0.8; for MNMT most neurons still exceed R > 0.5 (the weakest of
the four — which is why its BNN predictor trails the oracle earliest).
"""

import numpy as np
from conftest import emit

from repro.analysis.figures import render_table
from repro.core.correlation import (
    correlation_histogram,
    fraction_above,
    layer_correlations,
)
from repro.models.specs import BENCHMARK_NAMES


def test_fig08_correlation_histogram(benchmark, cache):
    def run():
        correlations = {}
        for name in BENCHMARK_NAMES:
            bench = cache.benchmark(name)
            per_layer = [
                layer_correlations(layer, inputs)
                for layer, inputs in bench.layer_io_pairs()
            ]
            correlations[name] = np.concatenate(per_layer)
        return correlations

    correlations = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, corr in correlations.items():
        percent, edges = correlation_histogram(corr)
        rows.append(
            [name]
            + [f"{p:.0f}%" for p in percent]
            + [f"{100 * fraction_above(corr, 0.5):.0f}%"]
        )
    bins = ["[0,.2)", "[.2,.4)", "[.4,.6)", "[.6,.8)", "[.8,1]"]
    emit(
        benchmark,
        "Figure 8 (per-neuron correlation factor histogram)",
        render_table(["network", *bins, "R>0.5"], rows),
    )

    # All networks: the bulk of neurons correlate well — the property the
    # predictor rests on.  (The paper additionally finds MNMT weakest;
    # at our scale the ordering shifts because the IMDB stand-in's
    # binarized token embeddings carry less signal than its paper-sized
    # counterpart, while the MNMT stand-in's wide recurrent state
    # correlates strongly.)
    for name, corr in correlations.items():
        assert fraction_above(corr, 0.5) > 0.5, name
    # At least half the networks match the paper's "85% above 0.8" order
    # of magnitude loosely (>= 60% above 0.6).
    good = [fraction_above(c, 0.6) >= 0.6 for c in correlations.values()]
    assert sum(good) >= 2
