// Instrumentation counters for both checkers — these numbers regenerate
// Figures 10-13 and the transition-count comparison of §5.1.
#pragma once

#include <cstdint>

namespace lmc {

struct GlobalMcStats {
  std::uint64_t transitions = 0;        ///< handler executions
  std::uint64_t unique_states = 0;      ///< deduplicated global states visited
  std::uint64_t revisits = 0;           ///< hits in the visited set
  std::uint64_t invariant_checks = 0;
  std::uint64_t violations = 0;
  std::uint64_t dup_msgs_suppressed = 0;
  std::uint64_t local_assert_failures = 0;
  std::size_t peak_bytes = 0;           ///< visited set + deepest stack (Fig. 12)
  double elapsed_s = 0.0;
  bool completed = false;               ///< search exhausted within the bounds
  std::uint32_t max_depth_reached = 0;
};

struct LocalMcStats {
  std::uint64_t transitions = 0;          ///< handler executions (cf. §5.1: 1,186 vs 157,332)
  std::uint64_t node_states = 0;          ///< "LMC-local" in Fig. 11
  std::uint64_t system_states = 0;        ///< combinations materialized (Fig. 11)
  std::uint64_t invariant_checks = 0;
  std::uint64_t prelim_violations = 0;    ///< invariant failed on a combination
  std::uint64_t confirmed_violations = 0; ///< survived soundness verification
  std::uint64_t unsound_violations = 0;   ///< rejected by soundness verification
  std::uint64_t soundness_calls = 0;      ///< isStateSound invocations (§5.4: 773)
  std::uint64_t feasibility_skips = 0;    ///< combos rejected by the cached member pre-check
  std::uint64_t soundness_deferred = 0;   ///< quick-pass truncations queued for phase 2
  std::uint64_t deferred_processed = 0;   ///< phase-2 verifications completed
  std::uint64_t deferred_dropped = 0;     ///< deferrals lost to queue overflow (possible misses)
  std::uint64_t sequences_checked = 0;    ///< joint-search expansions summed over verify()
                                          ///< calls (cf. §5.4: 427,731 isSequenceValid calls)
  std::uint64_t seq_enum_truncated = 0;   ///< phase-2 refutations whose joint search hit
                                          ///< the expansion cap (verdict may be incomplete)
  std::uint64_t combo_truncated = 0;      ///< combination enumeration hit a cap
  std::uint64_t dup_msgs_suppressed = 0;
  std::uint64_t history_skips = 0;        ///< deliveries skipped via state history
  std::uint64_t local_assert_discards = 0;///< node states discarded on local assert
  std::uint64_t messages_in_iplus = 0;
  std::uint64_t warm_pairs_skipped = 0;   ///< handler executions replayed from the ExecCache
  std::uint64_t checkpoints_written = 0;  ///< auto-checkpoints saved during the run
  std::uint64_t checkpoint_failures = 0;  ///< auto-checkpoint writes that failed (run continued)
  std::size_t stored_bytes = 0;           ///< LS + I+ footprint (Fig. 12)
  double elapsed_s = 0.0;
  // The layer ledger (DESIGN.md §10): each wall second of the run is charged
  // to at most one of these four, and explore is the remainder of elapsed_s
  // (obs::explore_wall). Each layer holds only its own time.
  double checkpoint_s = 0.0;              ///< wall time saving auto-checkpoints
  double system_state_s = 0.0;            ///< wall time enumerating combinations (the sweep,
                                          ///< without the verification of what it found)
  double deferred_s = 0.0;                ///< wall time in the phase-2 deferred drain
  double soundness_wall_s = 0.0;          ///< wall time of phase-1 soundness verification
  /// The search reached its fixpoint and drained every deferral. When false
  /// (a budget, cancel or stop_on_confirmed stop), confirmed_violations is a
  /// lower bound: soundness_deferred - deferred_processed deferrals were
  /// never verified. A stop during exploration keeps them queued, and
  /// run_resumed finishes the search and then the drain.
  bool completed = false;
  std::uint32_t max_chain_depth_reached = 0;
  std::uint32_t max_total_depth_reached = 0;
};

}  // namespace lmc
