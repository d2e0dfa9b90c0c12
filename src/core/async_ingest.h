// Asynchronous streaming ingest runtime.
//
// The paper's deployment vision is "a runtime predictive analysis system
// running in parallel with existing reactive monitoring systems" (§1).
// AsyncIngest is that runtime at production line rates: producer threads
// hand raw syslog lines (or pre-parsed events) to per-vPE monitor shards
// over bounded queues; shard workers stage lines into per-worker
// StreamMonitorGroup micro-batches and flush them through the fused
// batched scorer on a size-or-deadline trigger; warnings come back over a
// lock-free MPSC queue the caller drains.
//
// Topology and determinism
// ------------------------
//   producers --MPSC/SPSC--> worker[shard % workers] --> StreamMonitorGroup
//                                                          |  flush()
//   caller  <--- lock-free MPSC warning queue <------------+
//
// Every vPE shard is pinned to exactly one worker, and each worker drains
// its queue FIFO, so a vPE's lines are mined, staged, scored and
// cluster-tracked in submission order no matter how many workers run.
// Scores do not depend on micro-batch composition (StreamMonitorGroup
// captures each shard's vocabulary at stage time and the batched scorer
// is bit-identical to per-window scoring), so the per-vPE warning stream
// is byte-for-byte the one a serial StreamMonitor replay produces — for
// any worker count, flush_batch, or deadline. Only the interleaving of
// DIFFERENT vPEs' warnings in the drain is scheduling-dependent;
// merge_warnings_by_vpe() restores a canonical order.
//
// Backpressure: submit() blocks when the target worker's queue is full
// (end-to-end memory is bounded by workers × queue_capacity items);
// try_submit() instead returns false so the producer can shed load.
//
// Detector swap (monthly update / post-update adaptation) uses an epoch
// barrier: swap_detector() parks every worker between micro-batches
// (queues drained, groups flushed), installs the new model, and resumes —
// honoring the read-only-detector contract of src/core/streaming.h.
//
// Observability + control plane
// -----------------------------
// The runtime is not a black box (the NFVMonitor idiom): every worker
// keeps per-shard counters and an ingest-to-scored latency histogram in
// worker-local memory (zero allocation, no atomics on the hot path) and
// publishes them into seqlock-guarded slots at micro-batch boundaries —
// so snapshot() returns, at any moment and from any thread, a stats cut
// in which each worker's counters are mutually consistent at its latest
// completed micro-batch ("epoch-consistent"). Histogram buckets are the
// bulky part of a publish, so they ride along on an amortized cadence
// (every 16th flush) and may lag the counters by a few micro-batches
// mid-burst; every quiescent point (epoch barrier, command application,
// idle, stop()) forces them current, so flush()-then-snapshot() reads
// exact buckets and a live cut never over-counts (latency total <=
// lines). Queue-depth gauges and
// backpressure-stall counters come from the rings themselves. Latency is
// measured submit -> micro-batch scored; warnings are published inside
// that interval, so the histogram upper-bounds ingest-to-warning latency
// for every warning in the batch. Instrumentation never feeds back into
// scoring: warning streams stay byte-for-byte the serial replay.
//
// Runtime commands ride a thread-safe per-worker command queue and are
// applied by the owning worker at its next micro-batch boundary:
//   - pause_shard(): the shard's lines are parked, in order, in a hold
//     buffer (mined/scored only on resume — memory grows with the pause,
//     bounded only by producer backpressure);
//   - resume_shard(): the hold buffer replays in order, so the per-vPE
//     warning stream is unchanged by any pause/resume schedule;
//   - swap_detector() (epoch barrier, below) and snapshot()/stats_json()
//     ("dump stats") complete the command set.
// stop() implicitly resumes paused shards and replays their holds: no
// submitted line is ever lost.
//
// Threading rules: any number of threads may submit (see single_producer
// for the SPSC fast path), and any thread may call snapshot(),
// stats_json(), shard_paused(), stats() — including concurrently with
// stop(). One designated caller thread owns the rest of the control
// plane — start/flush/swap_detector/pause/resume/wait_commands/stop/
// drain_warnings — and must not submit concurrently with flush/swap/stop
// (workers quiesce by draining their queues, which never happens under a
// firehose).
//
// Online continual learning (config.online_retrain)
// -------------------------------------------------
// The paper's answer to temporal dynamics — monthly incremental training
// plus transfer learning after software updates (§1.3, Fig. 11) — runs
// INSIDE the runtime: each worker's StreamMonitorGroup taps the staged
// (shard, time, template-id) stream at micro-batch flush into a bounded
// MPSC ring (lossy by design: overflow increments a drop counter, never
// stalls a worker), and a background trainer thread keeps the most recent
// `retrain_samples` events per shard as its fine-tuning corpus. Every
// `retrain_interval_lines` scored lines (or on request_retrain()) it
// fine-tunes a private shadow copy of the installed LstmDetector —
// update() on the warm path, adapt() (freeze lower layers, fine-tune the
// top) when at least `adapt_novel_fraction` of the sampled events carry
// template ids the installed model has never seen, the update-shift
// signature — re-quantizes it when config().quantize is set, and installs
// a copy through the same epoch barrier as swap_detector(): detection
// never stops during retrain. Installed generations are owned by the
// runtime; a replaced generation moves to a retired list and is freed
// only at the NEXT epoch barrier, after every worker has provably stopped
// referencing it (snapshot() never dereferences the detector at all — it
// reads a cached ModelMemoryStats refreshed at swap time).
//
// Determinism contract with retrain: disabled, warning streams stay
// byte-for-byte the serial replay. Enabled, swap epochs partition each
// per-vPE stream, and every epoch is byte-identical to a serial replay
// that scores it with that epoch's model (pinned by the continual suite);
// WHERE the swaps land in the stream is scheduling-dependent, exactly
// like a caller-driven swap_detector(). Mixing caller-driven swap_detector
// calls with online_retrain is unsupported: the trainer's lineage would
// silently fork from whatever the caller installed.
//
// The trainer's install quiesces on the same barrier as flush(): under a
// saturating firehose that never lets a worker's queue drain, an install
// waits for the first natural gap. Producers pacing below queue capacity
// (the deployment regime) yield such gaps continuously.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/runtime_stats.h"
#include "core/streaming.h"
#include "logproc/signature_tree.h"
#include "util/interner.h"
#include "util/mpsc_queue.h"
#include "util/spsc_queue.h"
#include "util/thread_pool.h"

namespace nfv::core {

class LstmDetector;

struct AsyncIngestConfig {
  /// Shard workers; 0 resolves like the thread pool (NFVPRED_THREADS or
  /// hardware concurrency), then clamps to the shard count.
  std::size_t workers = 0;
  /// Bounded capacity of each worker's input queue (rounded up to a power
  /// of two). Full queue = backpressure.
  std::size_t queue_capacity = 4096;
  /// Flush a worker's staged micro-batch once it holds this many lines...
  std::size_t flush_batch = 64;
  /// ...or once this much wall-clock time passed since the batch's first
  /// line while the queue is idle (0 = flush whenever the queue is empty).
  /// Neither trigger affects scores or warnings, only latency/GEMM size.
  std::chrono::microseconds flush_deadline{2000};
  /// Bounded capacity of the warning queue. Overflowing warnings spill
  /// losslessly (and still in per-vPE order) into per-worker buffers, so
  /// an undrained caller never blocks or crashes the workers.
  std::size_t warning_capacity = 4096;
  /// Promise that exactly one thread submits: per-worker routing then
  /// uses the cheaper wait-free SPSC ring instead of the MPSC ring.
  bool single_producer = false;
  /// Per-shard ingest-to-scored latency histograms (submit timestamps +
  /// one clock read per flushed batch). Counters, gauges and the command
  /// plane stay on regardless; bench_ingest_throughput gates the
  /// instrumented/uninstrumented gap at <= 2% lines/sec.
  bool instrument = true;
  /// All shards of this runtime share one read-mostly token arena
  /// (util::SharedInterner): the heavily overlapping fleet token set is
  /// stored once instead of per vPE, and shared-range token ids are
  /// identical across every shard's tree. Warning streams are unaffected
  /// (template mining depends on token text, never numeric ids — pinned
  /// by the miner-equivalence and async determinism tests). Disable for
  /// the fully-private pre-arena layout (the bytes/vPE baseline in
  /// bench_fleet_soak).
  bool share_token_arena = true;
  /// All shards additionally share one read-mostly template forest
  /// (logproc::SharedSignatureForest): templates whose token ids are all
  /// shared-arena ids are stored once fleet-wide as immutable nodes with
  /// fleet-stable node ids, and each shard tree keeps only a 16-byte
  /// entry (match count + node id) plus a copy-on-write private range
  /// for diverging templates. Warning streams are unaffected (pinned by
  /// miner_equivalence_test and the async determinism tests). Effective
  /// only when share_token_arena is also set — the forest's node
  /// sequences are only meaningful over a fleet-wide token id space.
  bool share_template_forest = true;
  /// Online continual learning: run the background trainer thread (see
  /// the file comment). Requires the detector passed to the constructor
  /// to be an LstmDetector (checked at start()).
  bool online_retrain = false;
  /// Fire a retrain round each time this many additional lines have been
  /// scored runtime-wide (0 disables the interval trigger; rounds then
  /// run only on request_retrain()).
  std::uint64_t retrain_interval_lines = 50000;
  /// Per-shard recency window: the trainer fine-tunes on at most this
  /// many of the most recently sampled events per shard, so the corpus
  /// tracks the live distribution and memory stays bounded.
  std::size_t retrain_samples = 2048;
  /// Capacity of the bounded flush-tap ring between workers and the
  /// trainer. Overflow is dropped and counted (RetrainStats), never
  /// blocking the scoring path.
  std::size_t retrain_tap_capacity = 16384;
  /// Take the transfer-learning adapt() path when at least this fraction
  /// of the sampled corpus carries template ids outside the installed
  /// model's vocabulary (a fleet software update); otherwise the warm
  /// incremental update() path runs.
  double adapt_novel_fraction = 0.05;
};

struct AsyncIngestStats {
  std::uint64_t lines_submitted = 0;
  std::uint64_t lines_scored = 0;  // lines that went through a flush
  std::uint64_t flushes = 0;
  std::uint64_t warnings_published = 0;
  std::uint64_t rejected_submits = 0;  // failed try_submit calls
};

class AsyncIngest {
 public:
  explicit AsyncIngest(const AnomalyDetector* detector,
                       AsyncIngestConfig config = {});
  ~AsyncIngest();

  AsyncIngest(const AsyncIngest&) = delete;
  AsyncIngest& operator=(const AsyncIngest&) = delete;

  /// Register a per-vPE shard (its own signature tree + StreamMonitor)
  /// before start(); returns the shard id used by submit().
  std::size_t add_shard(std::int32_t vpe, StreamMonitorConfig config);

  /// Launch the shard workers. add_shard() is frozen from here on.
  void start();
  bool started() const { return started_; }

  /// Route one raw syslog line to `shard` (template mined online by that
  /// shard's worker). Blocks while the worker's queue is full; the line
  /// is never dropped. Producer threads only.
  void submit(std::size_t shard, nfv::util::SimTime time, std::string line);
  /// Non-blocking variant: false (and counted in stats) when the worker's
  /// queue is full — the caller decides whether to retry, buffer or shed.
  bool try_submit(std::size_t shard, nfv::util::SimTime time,
                  std::string line);

  /// Pre-parsed variants of the above.
  void submit_parsed(std::size_t shard, const logproc::ParsedLog& log);
  bool try_submit_parsed(std::size_t shard, const logproc::ParsedLog& log);

  /// Move every published warning into `out` (appended); returns how many.
  /// Warnings from one vPE arrive in emission order; across vPEs the
  /// interleaving follows scheduling. Caller thread only.
  std::size_t drain_warnings(std::vector<StreamWarning>& out);

  /// Barrier: returns once every line submitted so far has been scored
  /// and every staged micro-batch flushed. Requires producers to be
  /// quiet for the duration of the call. Caller thread only.
  void flush();

  /// Epoch barrier + model swap: quiesces all workers between
  /// micro-batches (implies flush()), swaps the detector on every shard
  /// monitor and worker group, and resumes. The detector stays
  /// caller-owned and must outlive its installation by one further epoch
  /// barrier. Caller thread only; unsupported with online_retrain.
  void swap_detector(const AnomalyDetector* detector);

  /// Ownership-transfer variant of swap_detector(): the runtime keeps the
  /// model alive after replacement on a retired-generation list freed at
  /// the NEXT epoch barrier, so no straggler can ever read a destroyed
  /// model. This is the trainer's install path; it may also be called by
  /// the control-plane thread. Serialized against flush()/stop() and the
  /// trainer's own installs.
  void swap_detector_owned(std::unique_ptr<const AnomalyDetector> detector);

  /// The detector generation currently scoring every shard. With
  /// swap_detector_owned / online_retrain the pointer stays valid from
  /// the moment it is observed until one epoch barrier after a later
  /// swap replaces it (and at least until the runtime is destroyed when
  /// no further swap happens). Any thread.
  const AnomalyDetector* installed_detector() const {
    return detector_.load(std::memory_order_acquire);
  }

  /// Ask the trainer for an immediate retrain round, in addition to the
  /// interval trigger. online_retrain only; any thread.
  void request_retrain();
  /// Block until the trainer has completed at least `rounds` retrain
  /// rounds since start() (a round counts even when the sampled corpus
  /// was empty and nothing was installed — check RetrainStats::swaps).
  /// online_retrain only; control-plane thread only.
  void wait_retrain_rounds(std::uint64_t rounds);

  /// Final flush, worker shutdown, join. Idempotent; also run by the
  /// destructor. Pending warnings stay drainable afterwards.
  void stop();

  // --- Runtime control plane ---------------------------------------

  /// Ask the owning worker to pause `shard` at its next micro-batch
  /// boundary: subsequent lines for the shard are parked (in submission
  /// order) in a hold buffer instead of being mined/scored, and replay
  /// in order on resume — the per-vPE warning stream is identical to a
  /// never-paused run as long as the detector is unchanged; with a
  /// swap_detector() in between, held lines are scored by the NEW model
  /// (exactly a serial swap at the pause position). Any thread may
  /// enqueue; use wait_commands() to observe application. Caller must
  /// not race stop().
  void pause_shard(std::size_t shard);
  void resume_shard(std::size_t shard);
  /// Returns once every pause/resume command issued so far has been
  /// applied by its worker and published (shard_paused() and snapshot()
  /// already show it). Control-plane thread only (a worker parked
  /// inside a concurrent flush()/swap_detector() cannot apply commands).
  void wait_commands();
  /// Applied (not merely requested) pause state; any thread.
  bool shard_paused(std::size_t shard) const;

  /// Epoch-consistent stats snapshot, readable while workers run (and
  /// after stop()): per-worker/per-shard counters + latency histograms
  /// as of each worker's latest published micro-batch boundary, plus
  /// sampled queue gauges. Any thread; lock-free on the workers.
  RuntimeStatsSnapshot snapshot() const;
  /// The snapshot rendered as JSON ("dump stats" runtime command; schema
  /// in README "Runtime observability").
  std::string stats_json() const { return to_json(snapshot()); }

  std::size_t shards() const { return shards_.size(); }
  std::size_t workers() const { return worker_count_; }
  /// The shard's online-mined template dictionary. Do not call while
  /// workers may be ingesting raw lines for this shard (quiesce first).
  const logproc::SignatureTree& tree(std::size_t shard) const;
  /// Mutable access for pre-seeding templates (canonical id priming)
  /// before start() — or while quiesced, under the same rule as above.
  logproc::SignatureTree& mutable_tree(std::size_t shard);
  /// The fleet-wide token arena every shard tree resolves against, or
  /// nullptr when share_token_arena is off. Safe to read from any thread
  /// (lock-free reader contract in util/interner.h).
  const nfv::util::SharedInterner* token_arena() const {
    return token_arena_.get();
  }
  /// The fleet-wide template forest every shard tree delegates template
  /// storage to, or nullptr when share_template_forest (or the arena it
  /// requires) is off. Safe to read from any thread (lock-free reader
  /// contract in logproc/shared_forest.h).
  const logproc::SharedSignatureForest* template_forest() const {
    return template_forest_.get();
  }
  AsyncIngestStats stats() const;

 private:
  struct Item {
    std::uint32_t shard = 0;
    bool raw = false;
    logproc::ParsedLog log;  // time doubles as the raw line's timestamp
    std::string line;
    std::uint64_t enqueue_ns = 0;  // steady-clock submit stamp (instrument)
  };

  struct ShardCommand {
    enum class Kind : std::uint8_t { kPause, kResume };
    Kind kind = Kind::kPause;
    std::uint32_t shard = 0;
  };

  // Uniform facade over the two ring-buffer flavours so the worker loop
  // is written once (virtual dispatch is noise next to scoring work).
  struct IngestQueue {
    virtual ~IngestQueue() = default;
    virtual bool try_push(Item&& item) = 0;
    virtual bool push(Item&& item) = 0;
    virtual bool try_pop(Item& out) = 0;
    virtual void close() = 0;
    virtual std::size_t depth() const = 0;
    virtual std::size_t capacity() const = 0;
    virtual std::uint64_t stall_count() const = 0;
  };
  template <typename Queue>
  struct IngestQueueImpl;

  struct Shard {
    std::int32_t vpe = -1;
    std::size_t index = 0;
    std::size_t worker = 0;
    std::unique_ptr<logproc::SignatureTree> tree;
    std::unique_ptr<StreamMonitor> monitor;
    // Published stats slot: written (relaxed) by the owning worker under
    // its seqlock at micro-batch boundaries, read by snapshot().
    std::atomic<bool> pub_paused{false};
    std::atomic<std::uint64_t> pub_lines{0};
    std::atomic<std::uint64_t> pub_warnings{0};
    std::atomic<std::uint64_t> pub_held{0};
    std::atomic<std::uint64_t> pub_tree_bytes{0};
    std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets>
        pub_latency{};
  };

  struct Worker {
    std::unique_ptr<IngestQueue> queue;
    std::vector<std::size_t> shard_ids;
    // Lossless spillover for warnings that found the warning queue full;
    // a worker keeps spilling until the caller drains the buffer, so
    // per-vPE warning order survives overflow.
    std::mutex overflow_mu;
    std::vector<StreamWarning> overflow;
    bool overflowing = false;  // guarded by overflow_mu
    // Control-plane mailbox (any thread pushes, the worker applies at
    // micro-batch boundaries) + outstanding-command gauge.
    nfv::util::MpscQueue<ShardCommand> commands{64};
    std::atomic<std::uint64_t> commands_pending{0};
    // Seqlock over this worker's published stats (its own slot AND its
    // shards' slots): odd while a publish is in progress.
    alignas(64) std::atomic<std::uint64_t> stat_seq{0};
    std::atomic<std::uint64_t> stat_epoch{0};
    std::atomic<std::uint64_t> stat_lines{0};
    std::atomic<std::uint64_t> stat_flushes{0};
  };

  // One tapped template-id event, as queued from a worker's flush to the
  // trainer thread.
  struct TapSample {
    std::uint32_t shard = 0;
    std::int32_t template_id = -1;
    std::int64_t time_seconds = 0;
  };

  void worker_loop(std::size_t index);
  void trainer_loop();
  /// Epoch-barrier install shared by swap_detector{,_owned} and the
  /// trainer. Caller must hold control_mu_. Frees generations retired at
  /// an earlier barrier, installs `detector` (taking ownership when
  /// `owned` is non-null), refreshes the cached ModelMemoryStats, and
  /// returns the exact lines_scored count at the barrier (the swap
  /// epoch). `drain_pending` must be false off the control-plane thread.
  std::uint64_t install_detector(const AnomalyDetector* detector,
                                 std::unique_ptr<const AnomalyDetector> owned,
                                 bool drain_pending);
  void enqueue_command(std::size_t shard, ShardCommand::Kind kind);
  void publish_warning(std::size_t worker, const StreamWarning& warning);
  void push_item(std::size_t shard, Item item);
  bool try_push_item(std::size_t shard, Item&& item);
  void quiesce(bool drain_pending = true);
  void release();
  void drain_queue_into_pending();

  std::atomic<const AnomalyDetector*> detector_;
  AsyncIngestConfig config_;
  // Fleet-wide token arena (share_token_arena) and template forest
  // (share_template_forest); created before any shard tree and destroyed
  // after them (member order), satisfying the arena/forest-outlive-trees
  // contract. The forest is declared after the arena it references, so
  // it is destroyed first.
  std::unique_ptr<nfv::util::SharedInterner> token_arena_;
  std::unique_ptr<logproc::SharedSignatureForest> template_forest_;
  std::size_t worker_count_ = 0;
  bool started_ = false;
  bool stopped_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
  nfv::util::ServiceThreads threads_;

  nfv::util::MpscQueue<StreamWarning> warning_queue_;
  std::vector<StreamWarning> pending_warnings_;  // caller thread only

  // Epoch barrier (quiesce/release) + shutdown flag.
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> epoch_requested_{0};
  std::mutex barrier_mu_;
  std::condition_variable parked_cv_;    // worker -> caller
  std::condition_variable released_cv_;  // caller -> worker
  std::uint64_t epoch_released_ = 0;     // guarded by barrier_mu_
  std::size_t parked_ = 0;               // guarded by barrier_mu_

  // Stats.
  std::atomic<std::uint64_t> lines_submitted_{0};
  std::atomic<std::uint64_t> lines_scored_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> warnings_published_{0};
  std::atomic<std::uint64_t> rejected_submits_{0};

  // Control-plane serialization: flush / swap_detector{,_owned} / stop on
  // the caller thread vs the trainer's installs all contend for the one
  // epoch barrier; this mutex makes them take it one at a time.
  std::mutex control_mu_;
  // Detector generations the runtime owns (trainer installs and
  // swap_detector_owned). owned_current_ is the installed generation;
  // replaced generations park in retired_ until the next epoch barrier
  // proves no worker can still reference them. Guarded by control_mu_.
  std::unique_ptr<const AnomalyDetector> owned_current_;
  std::vector<std::unique_ptr<const AnomalyDetector>> retired_;
  // Cached footprint of the installed detector, refreshed at construction
  // and at every install — snapshot() reads this instead of dereferencing
  // detector_, so a concurrent swap can never expose it to a dying model.
  mutable std::mutex model_mem_mu_;
  ModelMemoryStats model_mem_;  // guarded by model_mem_mu_

  // Online-retrain trainer (online_retrain only; null/empty otherwise).
  std::unique_ptr<nfv::util::MpscQueue<TapSample>> tap_queue_;
  std::unique_ptr<LstmDetector> lineage_;  // trainer thread only
  std::thread trainer_;
  std::mutex trainer_mu_;
  std::condition_variable trainer_cv_;  // request/stop -> trainer
  std::condition_variable rounds_cv_;   // trainer -> wait_retrain_rounds
  bool trainer_stop_ = false;           // guarded by trainer_mu_
  std::uint64_t retrain_requests_ = 0;  // guarded by trainer_mu_
  std::atomic<std::uint64_t> samples_seen_{0};
  std::atomic<std::uint64_t> samples_dropped_{0};
  std::atomic<std::uint64_t> retrain_buffered_{0};
  std::atomic<std::uint64_t> retrain_rounds_{0};
  std::atomic<std::uint64_t> adapt_rounds_{0};
  std::atomic<std::uint64_t> retrain_swaps_{0};
  std::atomic<std::uint64_t> last_swap_lines_{0};
  std::atomic<std::uint64_t> train_ns_{0};
};

/// Canonical deterministic order for a drained warning batch: stable
/// partition by vPE (per-vPE emission order untouched). Concatenating the
/// per-vPE serial warning streams in ascending vPE order yields exactly
/// this — the "per-vPE merge" the determinism tests compare against.
std::vector<StreamWarning> merge_warnings_by_vpe(
    std::vector<StreamWarning> warnings);

}  // namespace nfv::core
