"""The paper's benchmark networks (Table 1) and the benchmark harness."""

from repro.models.benchmark import Benchmark, MemoizedResult
from repro.models.sentiment_model import SentimentModel
from repro.models.specs import BENCHMARK_NAMES, PAPER_NETWORKS, NetworkSpec
from repro.models.speech_model import SpeechModel
from repro.models.translation_model import TranslationModel
from repro.models.zoo import (
    DeepSpeechBenchmark,
    EESENBenchmark,
    SentimentBenchmark,
    TranslationBenchmark,
    build_benchmark,
    load_benchmark,
)

__all__ = [
    "BENCHMARK_NAMES",
    "Benchmark",
    "DeepSpeechBenchmark",
    "EESENBenchmark",
    "MemoizedResult",
    "NetworkSpec",
    "PAPER_NETWORKS",
    "SentimentBenchmark",
    "SentimentModel",
    "SpeechModel",
    "TranslationBenchmark",
    "TranslationModel",
    "build_benchmark",
    "load_benchmark",
]
