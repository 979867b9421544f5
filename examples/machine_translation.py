"""Machine translation under fuzzy memoization (MNMT-style seq2seq).

Trains the encoder-decoder benchmark, shows concrete translations with
and without memoization, and demonstrates the paper's finding that the
translation network is the least tolerant of the four: reuse helps until
the decoder's greedy feedback loop starts compounding errors.

Run:  python examples/machine_translation.py
"""

from repro.core import MemoizationScheme, ReuseStats, memoized
from repro.models import load_benchmark


def main():
    print("Training the MNMT stand-in (encoder-decoder LSTM)...")
    bench = load_benchmark("mnmt", scale="tiny")
    print(f"  base BLEU: {bench.base_quality:.2f}")

    sample = bench.test_idx[:5]
    sources = bench.rows(sample)
    references = bench.dataset.references(sample)

    print("\nSample translations (theta=0.2, BNN predictor):")
    baseline = bench.outputs(sources)
    stats = ReuseStats()
    with memoized(bench.model, MemoizationScheme(theta=0.2), stats):
        memoized_out = bench.outputs(sources)
    for src, ref, base, memo in zip(sources, references, baseline, memoized_out):
        marker = "" if base == memo else "   <- changed"
        print(f"  src={src.tolist()}")
        print(f"    ref={list(ref)}  base={base}  memo={memo}{marker}")
    print(f"  reuse during decode: {stats.reuse_percent():.1f}%")

    print("\nBLEU loss vs threshold (note the steep degradation):")
    print("  theta  BLEU loss  reuse")
    for theta in (0.05, 0.15, 0.3, 0.5):
        result = bench.evaluate_memoized(MemoizationScheme(theta=theta))
        print(
            f"  {theta:<6} {result.quality_loss:8.2f}  "
            f"{result.reuse_percent:5.1f}%"
        )


if __name__ == "__main__":
    main()
