// Deep performance profiling (observability layer, DESIGN.md §15).
//
// A ProfileSink attributes checker cost at (phase, node, rule/event-kind)
// granularity: a typed counter registry (bytes hashed/serialized, states
// canonicalized, ExecCache hits/misses per shard, POR prunes, orbit
// collapses, ...), per handler rule a run/byte ledger plus a log-bucketed
// wall-time histogram, and the run's layer ledger (per-phase wall seconds
// and the run wall). Every call comes from the checker's deterministic
// merge/apply thread, so the sink needs no locks. Because every identity
// quantity (counts and byte totals) is a pure function of the exploration,
// the identity aggregates — identity_text() — are byte-identical at 1 vs N
// threads. Wall seconds and histograms are ATTRIBUTION: they depend on the
// machine and scheduling and are excluded from identity (exactly the trace
// layer's identity/attribution split). The sink is runtime-only state — it
// is never serialized into checkpoints, so normalized checkpoint bytes are
// identical with profiling on or off (tests/test_obs.cpp pins both
// obligations).
//
// Cost contract: profiling is compiled in but off by default. Hot-path call
// sites are guarded by the LMC_PROF macro below — a null-pointer test is
// the whole disabled-path cost, and no allocation happens when off.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"  // Phase (shared axis with the trace layer)

namespace lmc::obs {

/// The typed counter registry. Every counter is an identity quantity: its
/// final value is a pure function of the exploration (bumped only on the
/// deterministic apply/merge path), so it participates in the 1-vs-N
/// byte-identity contract.
enum class Counter : std::uint8_t {
  kBytesHashed = 0,       ///< state-blob bytes run through hash_blob
  kBytesSerialized,       ///< result-state + sent-message bytes produced
  kStatesCanonicalized,   ///< local-state canonicalizations (symmetry)
  kOrbitCollapses,        ///< combination orbits collapsed into a seen key
  kPorPrunes,             ///< deliveries pruned by partial-order reduction
  kPorDeferrals,          ///< POR prunes deferred to the phase-2 drain
  kExecCacheHits,         ///< authoritative ExecCache lookup hits
  kExecCacheMisses,       ///< authoritative ExecCache lookup misses
  kHandlerRuns,           ///< uncached handler executions applied
  kCachedReplays,         ///< cached ExecCache replays applied
  kSoundnessJobs,         ///< soundness verification jobs completed
  kCount
};
const char* to_string(Counter c);

/// ExecCache shard fan-out mirrored by the per-shard hit/miss counters.
inline constexpr std::size_t kProfShards = 16;

/// Log-bucketed wall-time histogram. Bucket 0 counts samples below 1ns;
/// bucket i >= 1 counts samples in [2^(i-1), 2^i) nanoseconds. 48 buckets
/// reach ~78 hours — far beyond any single handler execution.
struct TimeHist {
  static constexpr std::size_t kBuckets = 48;
  std::uint64_t count[kBuckets] = {};
  double total_s = 0.0;

  void add(double secs);
  void merge(const TimeHist& o);
  std::uint64_t samples() const;
};

/// Identity of one handler rule: which node ran which kind of handler.
/// Message rules key on the protocol message type, internal rules on the
/// internal event kind (the same axes the independence analysis uses).
struct RuleKey {
  std::uint32_t node = 0;
  std::uint8_t is_message = 0;
  std::uint32_t kind = 0;

  bool operator==(const RuleKey&) const = default;
  bool operator<(const RuleKey& o) const;
};

/// Cost ledger of one handler rule. runs/cached/ser_bytes/hash_bytes are
/// identity; `time` is attribution.
struct RuleProf {
  std::uint64_t runs = 0;        ///< uncached handler executions
  std::uint64_t cached = 0;      ///< cached replays applied
  std::uint64_t ser_bytes = 0;   ///< result-state + sent-payload bytes
  std::uint64_t hash_bytes = 0;  ///< result-state bytes hashed
  TimeHist time;                 ///< handler wall time (attribution)
};

class ProfileSink {
 public:
  void count(Counter c, std::uint64_t delta = 1);
  /// Per-shard ExecCache attribution for one authoritative lookup.
  void count_shard(std::size_t shard, bool hit);
  /// One applied handler execution of `key`.
  void rule(const RuleKey& key, bool cached, std::uint64_t ser_bytes,
            std::uint64_t hash_bytes, double exec_s);
  /// Charge wall seconds to a measured layer (sweep, soundness, drain,
  /// checkpoint). Explore is never charged: it is the remainder.
  void phase_wall(Phase p, double secs);
  /// Add one run segment's wall seconds. Segments add up, so a sink shared
  /// by several runs (online periods, bench sweeps, resumes) stays a ledger.
  void run_wall(double segment_s);
  /// Note the configured thread count (reports want it; not identity).
  void note_threads(unsigned n) { threads_ = n; }

  std::uint64_t counter(Counter c) const;

  /// Canonical rendering of the identity aggregates — every counter (in
  /// enum order), every shard's hits/misses, every rule's identity fields
  /// (sorted by key). Byte-identical at any thread count; excludes all
  /// wall-clock attribution. tests/test_obs.cpp compares these bytes.
  std::string identity_text() const;

  /// Serialize as "lmc-prof/1" JSON lines (meta, counter, shard, rule and
  /// phase records — see DESIGN.md §15). The explore phase row is derived
  /// with explore_wall, so the phase rows sum to the run wall.
  std::string to_jsonl() const;
  void write_jsonl(const std::string& path) const;

 private:
  unsigned threads_ = 0;
  double run_wall_s_ = 0.0;
  std::uint64_t counters_[static_cast<std::size_t>(Counter::kCount)] = {};
  std::uint64_t shard_hits_[kProfShards] = {};
  std::uint64_t shard_misses_[kProfShards] = {};
  double phase_s_[7] = {};  ///< indexed by Phase
  std::map<RuleKey, RuleProf> rules_;
};

/// Parsed/merged form of one or more lmc-prof/1 streams (lmc_report and the
/// Chrome exporter consume this). Merging sums identity fields, phase
/// seconds and run walls; threads take the maximum seen.
struct ProfileData {
  unsigned threads = 0;
  double run_wall_s = 0.0;
  std::uint64_t counters[static_cast<std::size_t>(Counter::kCount)] = {};
  std::uint64_t shard_hits[kProfShards] = {};
  std::uint64_t shard_misses[kProfShards] = {};
  double phase_s[7] = {};

  struct Rule {
    RuleKey key;
    std::uint64_t runs = 0, cached = 0, ser_bytes = 0, hash_bytes = 0;
    double exec_s = 0.0;
    std::uint64_t samples = 0;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> hist;  ///< (bucket, count)
  };
  std::map<RuleKey, Rule> rules;

  std::size_t lines = 0;  ///< lmc-prof/1 lines merged in
};

/// Merge one JSONL line into `data`. Returns false for anything that is not
/// an lmc-prof/1 line (mixed files are tolerated, like the trace parser).
bool merge_prof_line(const std::string& line, ProfileData& data);

/// Structural validation of one parsed lmc-prof/1 object (lmc_report
/// --validate); a phase row must not be negative. `err` gets a
/// human-readable reason on failure.
bool validate_prof_value(const struct JsonValue& v, std::string* err);

}  // namespace lmc::obs

/// Hot-path guard: evaluates `call` (a member call on the sink) only when a
/// sink is attached. `sink` must be a ProfileSink*.
#define LMC_PROF(sink, call)             \
  do {                                   \
    if ((sink) != nullptr) (sink)->call; \
  } while (0)
