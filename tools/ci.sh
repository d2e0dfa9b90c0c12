#!/usr/bin/env bash
# CI entry point: tier-1 build + full test suite, an explicit pass over
# the observability-labelled tests (latency histograms, runtime stats
# snapshots, JSON round-trip), the continual-labelled tests (online
# retrain update-shift scenario, per-epoch swap determinism, swap-storm
# races, adapt unfreeze safety), then a ThreadSanitizer pass over the
# concurrency-, observability- and continual-labelled tests (thread pool, lock-free
# queues, the shared token arena's lock-free reader/registrar stress,
# parallel-vs-serial pipeline determinism, shared-detector streaming,
# the async-ingest determinism/backpressure/control-plane suite, and the
# batched-inference batch-size/thread-count invariance suite). The
# async-ingest smoke also gates the instrumentation overhead at <=2%
# lines/sec; the fleet-soak smoke gates the sharing-tier memory ladder
# (arena+forest bytes/vPE < shared-arena < private) and warning parity
# vs serial replay at two worker counts. The forest-labelled tests cover
# the shared signature forest (sequence-interner publication machinery,
# cross-vPE template dedup, copy-on-write divergence) and run in both
# the regular and TSan legs. The quantized-scoring leg runs the quant-labelled
# tests, the bench_scoring_throughput --smoke rank-agreement /
# tier-bit-identity gates, and an ASan build of the int8 kernels. The
# baseline-kernel leg re-runs the scoring contracts (batch-size/thread
# invariance, fused vs serial reference, step vs training forward, and
# the pipeline's per-stream schedule against its serial run) with
# NFVPRED_NO_AVX2=1, the mode a CPU without AVX2+FMA runs. The ASan leg
# also covers scoring across decades-long gaps between log lines and the
# fused AVX-512F LSTM kernel's partial row tiles.
#
# Usage: tools/ci.sh [jobs]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${1:-$(nproc)}"

echo "=== tier-1: build + full ctest ==="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$JOBS"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"

echo "=== training fast path: bench smoke ==="
cmake --build "$ROOT/build" -j "$JOBS" --target bench_training_throughput
"$ROOT/build/bench/bench_training_throughput" --smoke

echo "=== observability: runtime stats + json round-trip ==="
ctest --test-dir "$ROOT/build" -L observability --output-on-failure -j "$JOBS"

echo "=== async ingest: serial-equivalence + instrumentation-overhead smoke ==="
cmake --build "$ROOT/build" -j "$JOBS" --target bench_ingest_throughput
"$ROOT/build/bench/bench_ingest_throughput" --smoke

echo "=== template mining: fast-path equivalence smoke ==="
cmake --build "$ROOT/build" -j "$JOBS" --target bench_parsing_throughput
"$ROOT/build/bench/bench_parsing_throughput" --smoke

echo "=== shared signature forest: dedup + divergence tests ==="
ctest --test-dir "$ROOT/build" -L forest --output-on-failure -j "$JOBS"

echo "=== fleet soak: sharing-tier memory ladder + warning-parity smoke ==="
cmake --build "$ROOT/build" -j "$JOBS" --target bench_fleet_soak
"$ROOT/build/bench/bench_fleet_soak" --smoke

echo "=== quantized scoring: kernel/lifecycle tests + rank-agreement smoke ==="
ctest --test-dir "$ROOT/build" -L quant --output-on-failure -j "$JOBS"
cmake --build "$ROOT/build" -j "$JOBS" --target bench_scoring_throughput
"$ROOT/build/bench/bench_scoring_throughput" --smoke

echo "=== baseline kernels: scoring contracts with NFVPRED_NO_AVX2=1 ==="
NFVPRED_NO_AVX2=1 ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS" \
  -R 'BatchInvariance|BatchPlanner|SequenceModel|LstmStep|LogSoftmaxTarget|MatmulTransBPacked|PipelineDeterminism'

echo "=== ASan: logproc fast path (interner, AVX2 tokenizer, alloc hook) + int8 kernels + scoring gaps + fused LSTM tiles ==="
cmake -B "$ROOT/build-asan" -S "$ROOT" -DNFVPRED_SANITIZE=address
cmake --build "$ROOT/build-asan" -j "$JOBS" --target test_logproc --target test_logproc_alloc --target test_quant --target test_score_gap --target test_fused_lstm
"$ROOT/build-asan/tests/test_logproc"
"$ROOT/build-asan/tests/test_logproc_alloc"
"$ROOT/build-asan/tests/test_quant"
"$ROOT/build-asan/tests/test_score_gap"
"$ROOT/build-asan/tests/test_fused_lstm"

echo "=== continual learning: online retrain + hot swap + adapt safety ==="
ctest --test-dir "$ROOT/build" -L continual --output-on-failure -j "$JOBS"

echo "=== TSan: concurrency + observability + continual + forest labels ==="
cmake -B "$ROOT/build-tsan" -S "$ROOT" -DNFVPRED_SANITIZE=thread
cmake --build "$ROOT/build-tsan" -j "$JOBS" --target test_concurrency --target test_observability --target test_continual --target test_forest
ctest --test-dir "$ROOT/build-tsan" -L 'concurrency|observability|continual|forest' --output-on-failure

echo "ci.sh: all passes clean"
