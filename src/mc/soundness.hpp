// A-posteriori soundness verification (§4.1 isStateSound/isSequenceValid,
// with the hash-only event accounting of §4.2).
//
// A preliminary invariant violation names one state per node; the system
// state is valid iff some interleaving of per-node event chains leading to
// those states could occur in a real run. The paper enumerates per-node
// event sequences from the predecessor pointers and greedily schedules each
// combination; it also notes that "the number of paths could exponentially
// increase with sequence size, which is the major cost in soundness
// verification" (§4.1). Near a bug the pred graph fans out so hard that
// materialized sequence sets overflow any cap before the one valid path is
// found, so verify() instead runs a *joint demand-driven search* over the
// same predecessor structure:
//  1. per node, mark the backward closure of the target state — the states
//     on some root->target path — and its edges;
//  2. prune message edges whose message no other live edge (or the
//     snapshot's in-flight set, or a recorded self-loop) can generate, and
//     drop states from which the target becomes unreachable;
//  3. DFS over joint positions (one per node) plus the multiset of
//     generated-but-unconsumed messages, memoizing visited joint states;
//     internal edges are always enabled, message edges need their message
//     in the multiset; recorded self-loops fire when they contribute a new
//     message.
// A run that parks every node on its target state is a feasible schedule;
// it is returned as the witness (and can be re-executed by the replay
// validator). Everything is integer comparisons — no handler runs.
//
// All three steps run on a SoundnessIndex: a flat per-node edge index
// (forward and backward CSR, every message hash interned to a dense id)
// built once from the LocalStore and caught up incrementally as the store
// grows, so a verification touches only small per-call arrays (closure
// marks, alive flags, an availability bitset, a message count vector) —
// the "build each component once, reuse it in every composition" of
// partial model checking.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mc/local_store.hpp"

namespace lmc {

struct SoundnessOptions {
  std::uint64_t max_schedules = 1u << 20;  ///< joint-search expansion cap per verify()
  /// Two-phase verification (checker-side): a preliminary violation is
  /// first verified with this expansion cap. Sound combinations confirm
  /// almost immediately (tens of expansions); refuting an unsound one can
  /// cost thousands, so cap-hit combinations are deferred and re-verified
  /// with the full cap only after exploration finishes, within the time
  /// budget. 0 disables the quick pass.
  std::uint64_t quick_expansions = 512;
  /// Upper bound on the deferred queue; overflow sets a stats flag.
  std::uint64_t max_deferred = 1u << 20;
};

struct SoundnessResult {
  bool sound = false;
  Schedule schedule;                  ///< a feasible total order, if sound
  /// Final state index per node. Fixed nodes sit on their targets; free
  /// nodes wherever the feasible run left them (a co-reachable completion).
  std::vector<std::uint32_t> final_combo;
  std::uint64_t sequences_enumerated = 0;  ///< relevant subgraph states visited
  std::uint64_t schedules_checked = 0;     ///< joint-search expansions
  bool truncated = false;               ///< some cap was hit (result may be incomplete)
};

/// The transition graphs of a LocalStore, flattened for soundness
/// verification. Per node it holds every pred and self-loop edge once, a
/// forward CSR (edges grouped by source; within a source by target state,
/// then by position in the target's pred list — a self-loop sits at its own
/// state), a backward CSR (edges grouped by target: the pred->edge map of
/// the closure BFS), a consumer CSR (message edges by consumed message),
/// per-message generation counts, and a bitset of the messages the node is
/// known to send. Message hashes are interned to dense u32 ids shared by all nodes.
/// The index also carries the snapshot's in-flight messages, the seed every
/// schedule starts from; every node starts on its snapshot state, LS_n[0].
///
/// The index is append-only, like the store: refresh() ingests only the
/// states and edges added since the last call. It is not thread-safe to
/// refresh; between refreshes it is immutable and any number of verifiers
/// may read it concurrently.
class SoundnessIndex {
 public:
  static constexpr std::uint32_t kNoMsg = UINT32_MAX;

  struct Edge {
    std::uint32_t from = 0;
    std::uint32_t to = 0;                ///< == from for a self-loop
    std::uint32_t msg = kNoMsg;          ///< dense id of the consumed message; kNoMsg: internal
    std::uint32_t gen_begin = 0;         ///< generated messages: gen_ids[gen_begin, gen_end)
    std::uint32_t gen_end = 0;
    bool self_loop = false;
    Hash64 ev_hash = 0;                  ///< event hash (schedule steps)
  };

  struct NodeGraph {
    std::vector<Edge> edges;             ///< ingestion order
    std::vector<std::uint32_t> gen_ids;  ///< generated-message spans of `edges`
    std::vector<std::uint32_t> out_off;  ///< forward CSR offsets (states + 1)
    std::vector<std::uint32_t> out;      ///< edge ids grouped by source
    std::vector<std::uint32_t> in_off;   ///< backward CSR offsets (states + 1)
    std::vector<std::uint32_t> in;       ///< edge ids grouped by target (self-loops included)
    std::vector<std::uint32_t> msg_off;  ///< consumer CSR offsets (max consumed id + 2)
    std::vector<std::uint32_t> by_msg;   ///< message edge ids grouped by consumed message
    /// Per message id: occurrences in the gen lists of all edges.
    std::vector<std::uint32_t> gen_count;
    std::vector<std::uint64_t> sends;    ///< bitset over message ids
    std::uint32_t num_states() const {
      return out_off.empty() ? 0 : static_cast<std::uint32_t>(out_off.size() - 1);
    }
  };

  /// An empty index over `num_nodes` nodes whose snapshot has the in-flight
  /// messages `in_flight` (with multiplicity).
  SoundnessIndex(std::uint32_t num_nodes, const std::vector<Hash64>& in_flight);

  /// Catch up with `store`. With `edge_counts` (node n's pred + self-loop
  /// edge total), a node whose count and state count are unchanged is
  /// skipped without touching its records, and the records of older states
  /// are rescanned only when some new edge landed on one of them. Without
  /// it every state is checked for new edges. `sent` (optional) lists per
  /// node, in arrival order, every distinct message hash the node ever
  /// sent — including sends of executions whose successor was discarded —
  /// and is ingested from where the last call stopped.
  void refresh(const LocalStore& store, const std::vector<std::uint64_t>* edge_counts = nullptr,
               const std::vector<std::vector<Hash64>>* sent = nullptr);

  std::uint32_t num_nodes() const { return static_cast<std::uint32_t>(nodes_.size()); }
  std::uint32_t num_msgs() const { return static_cast<std::uint32_t>(msg_hash_.size()); }
  const NodeGraph& node(NodeId n) const { return nodes_[n]; }
  Hash64 msg_hash(std::uint32_t id) const { return msg_hash_[id]; }
  /// The snapshot's in-flight message ids (with multiplicity).
  const std::vector<std::uint32_t>& in_flight() const { return in_flight_; }
  /// Bitset over message ids: the snapshot's in-flight set (the seed of pruning).
  const std::vector<std::uint64_t>& in_flight_set() const { return in_flight_set_; }

 private:
  /// How far refresh() has read a node's records and send log.
  struct Cursor {
    std::vector<std::uint32_t> seen_preds;  ///< per state: pred edges ingested
    std::vector<std::uint32_t> seen_loops;  ///< per state: self-loops ingested
    std::uint64_t edge_count = 0;           ///< caller's edge count at the last refresh
    std::size_t sent_seen = 0;              ///< entries of the caller's send log ingested
  };

  std::uint32_t intern(Hash64 h);
  void ingest(NodeGraph& g, std::uint32_t s, const Pred& p, bool self_loop);
  static void rebuild_csr(NodeGraph& g, std::uint32_t n_states);

  std::vector<NodeGraph> nodes_;
  std::vector<Cursor> cursors_;
  std::unordered_map<Hash64, std::uint32_t> msg_id_;
  std::vector<Hash64> msg_hash_;
  std::vector<std::uint32_t> in_flight_;
  std::vector<std::uint64_t> in_flight_set_;
};

/// Thread-safety: a verifier is immutable after construction — verify()
/// and target_feasible() are const, read only the SoundnessIndex (frozen
/// during a verification phase) plus per-call locals, and may run
/// concurrently on one instance or on independent instances. The checker keeps ONE index, refreshes it on
/// its merging thread before each verification fan-out, and builds one
/// borrowing verifier per job (construction copies only the options).
class SoundnessVerifier {
 public:
  /// Verifier over its own index: every node starts at state 0, the
  /// snapshot's in-flight messages are available without generation, and a
  /// node is known to send exactly what its edges generate.
  SoundnessVerifier(const LocalStore& store, const std::vector<Hash64>& initial_in_flight,
                    SoundnessOptions opt);

  /// Verifier over a caller-maintained index, which must be refreshed
  /// against the store and outlive the verifier.
  SoundnessVerifier(const SoundnessIndex& index, SoundnessOptions opt);

  /// Verify the system state formed by `combo` (one state index per node).
  /// When `fixed` is non-null, only nodes with fixed[n] == true must reach
  /// combo[n]; the others are free — the search may drive them through any
  /// recorded transitions (their whole traversed graph) and parks them
  /// wherever the feasible run ends. Free nodes make pair-conflict
  /// violations (LMC-OPT) verifiable in ONE search instead of one per
  /// combination of bystander states.
  SoundnessResult verify(const std::vector<std::uint32_t>& combo,
                         const std::vector<bool>* fixed = nullptr) const;

  /// Cheap necessary condition for any combination containing (n, target):
  /// can the target still be reached when every message any OTHER node is
  /// known to send (plus the snapshot's in-flight set) is assumed
  /// available? If not, every combination with this member is unsound and
  /// the full search can be skipped. The caller caches results — they only
  /// change when the index grows.
  bool target_feasible(NodeId n, std::uint32_t target) const;

 private:
  std::unique_ptr<SoundnessIndex> owned_;  ///< standalone verifiers only
  const SoundnessIndex* index_;
  SoundnessOptions opt_;
};

}  // namespace lmc
