#include "mc/soundness.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace lmc {

namespace {

void set_bit(std::vector<std::uint64_t>& bits, std::uint32_t i) {
  if ((i >> 6) >= bits.size()) bits.resize((i >> 6) + 1, 0);
  bits[i >> 6] |= std::uint64_t{1} << (i & 63);
}

bool test_bit(const std::vector<std::uint64_t>& bits, std::uint32_t i) {
  return (i >> 6) < bits.size() && ((bits[i >> 6] >> (i & 63)) & 1) != 0;
}

}  // namespace

std::uint32_t SoundnessIndex::intern(Hash64 h) {
  auto [it, fresh] = msg_id_.try_emplace(h, static_cast<std::uint32_t>(msg_hash_.size()));
  if (fresh) msg_hash_.push_back(h);
  return it->second;
}

SoundnessIndex::SoundnessIndex(std::uint32_t num_nodes, const std::vector<Hash64>& in_flight)
    : nodes_(num_nodes), cursors_(num_nodes) {
  for (Hash64 h : in_flight) {
    const std::uint32_t id = intern(h);
    in_flight_.push_back(id);
    set_bit(in_flight_set_, id);
  }
}

void SoundnessIndex::ingest(NodeGraph& g, std::uint32_t s, const Pred& p, bool self_loop) {
  Edge e;
  e.from = self_loop ? s : p.pred_idx;
  e.to = s;
  e.msg = p.is_message ? intern(p.ev_hash) : kNoMsg;
  e.gen_begin = static_cast<std::uint32_t>(g.gen_ids.size());
  for (Hash64 h : p.gen) {
    const std::uint32_t id = intern(h);
    g.gen_ids.push_back(id);
    set_bit(g.sends, id);
    if (id >= g.gen_count.size()) g.gen_count.resize(id + 1, 0);
    ++g.gen_count[id];
  }
  e.gen_end = static_cast<std::uint32_t>(g.gen_ids.size());
  e.self_loop = self_loop;
  e.ev_hash = p.ev_hash;
  g.edges.push_back(e);
}

void SoundnessIndex::rebuild_csr(NodeGraph& g, std::uint32_t n_states) {
  // Stable counting sorts of edge ids into groups by a key (edges whose key
  // is kNoMsg are left out), visiting the ids in `order`. Grouping by target
  // in ingestion order (pred-list order within a target), then that
  // sequence by source, orders each source's edges by target, then
  // pred-list position — whatever order the refreshes ingested them in.
  auto group = [&](std::vector<std::uint32_t>& off, std::vector<std::uint32_t>& ids,
                   std::uint32_t n_keys, auto key, const std::vector<std::uint32_t>& order) {
    off.assign(n_keys + 1, 0);
    for (const Edge& e : g.edges)
      if (key(e) != kNoMsg) ++off[key(e) + 1];
    for (std::uint32_t k = 0; k < n_keys; ++k) off[k + 1] += off[k];
    std::vector<std::uint32_t> cur(off.begin(), off.end() - 1);
    ids.resize(off[n_keys]);
    for (std::uint32_t i : order)
      if (key(g.edges[i]) != kNoMsg) ids[cur[key(g.edges[i])]++] = i;
  };
  std::vector<std::uint32_t> ingestion(g.edges.size());
  std::iota(ingestion.begin(), ingestion.end(), 0u);
  std::uint32_t n_msgs = 0;
  for (const Edge& e : g.edges)
    if (e.msg != kNoMsg) n_msgs = std::max(n_msgs, e.msg + 1);
  group(g.in_off, g.in, n_states, [](const Edge& e) { return e.to; }, ingestion);
  group(g.out_off, g.out, n_states, [](const Edge& e) { return e.from; }, g.in);
  group(g.msg_off, g.by_msg, n_msgs, [](const Edge& e) { return e.msg; }, ingestion);
}

void SoundnessIndex::refresh(const LocalStore& store, const std::vector<std::uint64_t>* edge_counts,
                             const std::vector<std::vector<Hash64>>* sent) {
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    NodeGraph& g = nodes_[n];
    Cursor& c = cursors_[n];
    if (sent != nullptr)
      for (const std::vector<Hash64>& log = (*sent)[n]; c.sent_seen < log.size(); ++c.sent_seen)
        set_bit(g.sends, intern(log[c.sent_seen]));
    const auto old_states = static_cast<std::uint32_t>(c.seen_preds.size());
    const std::uint32_t states = store.size(n);
    if (edge_counts != nullptr && (*edge_counts)[n] == c.edge_count && states == old_states)
      continue;
    const std::size_t old_edges = g.edges.size();
    c.seen_preds.resize(states, 0);
    c.seen_loops.resize(states, 0);
    auto catch_up = [&](std::uint32_t s) {
      const NodeStateRec& rec = store.rec(n, s);
      for (; c.seen_preds[s] < rec.preds.size(); ++c.seen_preds[s])
        ingest(g, s, rec.preds[c.seen_preds[s]], false);
      for (; c.seen_loops[s] < rec.self_loops.size(); ++c.seen_loops[s])
        ingest(g, s, rec.self_loops[c.seen_loops[s]], true);
    };
    for (std::uint32_t s = old_states; s < states; ++s) catch_up(s);
    // New edges beyond those of the new states landed on older states
    // (a known state reached by a new path, or a new self-loop).
    if (edge_counts == nullptr || g.edges.size() != (*edge_counts)[n])
      for (std::uint32_t s = 0; s < old_states; ++s) catch_up(s);
    if (edge_counts != nullptr) c.edge_count = (*edge_counts)[n];
    if (g.edges.size() != old_edges || states != old_states) rebuild_csr(g, states);
  }
}

SoundnessVerifier::SoundnessVerifier(const LocalStore& store,
                                     const std::vector<Hash64>& initial_in_flight,
                                     SoundnessOptions opt)
    : owned_(std::make_unique<SoundnessIndex>(store.num_nodes(), initial_in_flight)),
      index_(owned_.get()),
      opt_(opt) {
  owned_->refresh(store);
}

SoundnessVerifier::SoundnessVerifier(const SoundnessIndex& index, SoundnessOptions opt)
    : index_(&index), opt_(opt) {}

namespace {

using Edge = SoundnessIndex::Edge;
using NodeGraph = SoundnessIndex::NodeGraph;

/// One node's part in a verification: which edges of its index graph take
/// part (alive) and, for a fixed node, which states still reach the target.
/// The arrays live in a Workspace.
struct NodeWork {
  const NodeGraph* g = nullptr;
  bool fixed = true;                ///< must end exactly on `target`
  std::uint32_t target = 0;
  std::uint8_t* alive = nullptr;    ///< per edge id
  std::uint8_t* mark = nullptr;     ///< fixed, per state: 1 in closure, 2 reaches the target
  std::uint32_t* states = nullptr;  ///< fixed: the target's backward closure
  std::uint32_t* edges = nullptr;   ///< fixed: the closure's edges
  std::uint32_t* stack = nullptr;   ///< fixed: BFS work stack
  /// Free, per message id: occurrences in the gen lists of alive edges.
  std::uint32_t* gen_count = nullptr;
  std::uint32_t n_states = 0;
  std::uint32_t n_edges = 0;
  std::uint64_t reaching = 0;       ///< fixed: states marked 2 by the last prune round
};

/// The arrays of a call's NodeWorks, carved out of two allocations: zeroed
/// flag bytes (alive flags, marks) and uninitialized id slots (closure
/// states, closure edges, BFS stack). A free node may use its entire
/// traversed graph: all its alive flags start set, and its generated-message
/// counts start at the index's whole-graph counts.
class Workspace {
 public:
  explicit Workspace(std::vector<NodeWork>& work) {
    std::size_t n_flags = 0, n_ids = 0;
    for (const NodeWork& w : work) {
      const std::size_t s = w.g->num_states(), e = w.g->edges.size();
      n_flags += w.fixed ? s + e : e;
      n_ids += w.fixed ? 2 * s + e : w.g->gen_count.size();
    }
    flags_.reset(new std::uint8_t[n_flags]());
    ids_.reset(new std::uint32_t[n_ids]);
    std::uint8_t* f = flags_.get();
    std::uint32_t* id = ids_.get();
    for (NodeWork& w : work) {
      const std::size_t s = w.g->num_states(), e = w.g->edges.size();
      w.alive = f;
      f += e;
      if (!w.fixed) {
        std::fill(w.alive, w.alive + e, std::uint8_t{1});
        w.gen_count = id;
        id = std::copy(w.g->gen_count.begin(), w.g->gen_count.end(), id);
        continue;
      }
      w.mark = f;
      f += s;
      w.states = id;
      w.stack = id + s;
      w.edges = id + 2 * s;
      id += 2 * s + e;
    }
  }

 private:
  std::unique_ptr<std::uint8_t[]> flags_;
  std::unique_ptr<std::uint32_t[]> ids_;
};

/// A target beyond the index means the caller skipped a refresh after the
/// store grew — fail loudly rather than verify against a stale graph.
void require_indexed(const NodeGraph& g, std::uint32_t target) {
  if (target >= g.num_states())
    throw std::logic_error("SoundnessVerifier: state " + std::to_string(target) +
                           " is not in the index (refresh after the store grows)");
}

/// Backward closure of the fixed node's target over pred edges: the
/// closure states, and every edge into them (self-loops included) marked
/// alive.
void close_over(NodeWork& w) {
  const NodeGraph& g = *w.g;
  w.states[w.n_states++] = w.target;
  w.mark[w.target] = 1;
  for (std::uint32_t i = 0; i < w.n_states; ++i) {
    const std::uint32_t s = w.states[i];
    for (std::uint32_t k = g.in_off[s]; k < g.in_off[s + 1]; ++k) {
      const std::uint32_t e = g.in[k];
      w.edges[w.n_edges++] = e;
      w.alive[e] = 1;
      const Edge& ed = g.edges[e];
      if (!ed.self_loop && w.mark[ed.from] == 0) {
        w.mark[ed.from] = 1;
        w.states[w.n_states++] = ed.from;
      }
    }
  }
}

/// Reset `bits` to `base` over `n_bits` bits.
void reset_bits(std::vector<std::uint64_t>& bits, const std::vector<std::uint64_t>& base,
                std::uint32_t n_bits) {
  bits.assign((std::size_t{n_bits} + 63) / 64, 0);
  std::copy(base.begin(), base.end(), bits.begin());
}

/// Add the messages generated by every alive edge of `w` to `avail`.
void add_generated(const NodeWork& w, std::vector<std::uint64_t>& avail) {
  const NodeGraph& g = *w.g;
  if (!w.fixed) {
    for (std::uint32_t m = 0; m < g.gen_count.size(); ++m)
      if (w.gen_count[m] != 0) set_bit(avail, m);
    return;
  }
  for (std::uint32_t i = 0; i < w.n_edges; ++i) {
    const Edge& ed = g.edges[w.edges[i]];
    if (!w.alive[w.edges[i]]) continue;
    for (std::uint32_t k = ed.gen_begin; k < ed.gen_end; ++k) set_bit(avail, g.gen_ids[k]);
  }
}

/// Kill alive message edges whose message is not in `avail`. A free node
/// visits only the consumers of unavailable messages (by_msg), keeping its
/// generated-message counts in step.
bool drop_unavailable(NodeWork& w, const std::vector<std::uint64_t>& avail) {
  const NodeGraph& g = *w.g;
  bool changed = false;
  if (!w.fixed) {
    for (std::uint32_t m = 0; m + 1 < g.msg_off.size(); ++m) {
      if (test_bit(avail, m)) continue;
      for (std::uint32_t k = g.msg_off[m]; k < g.msg_off[m + 1]; ++k) {
        const std::uint32_t e = g.by_msg[k];
        if (!w.alive[e]) continue;
        w.alive[e] = 0;
        changed = true;
        for (std::uint32_t i = g.edges[e].gen_begin; i < g.edges[e].gen_end; ++i)
          --w.gen_count[g.gen_ids[i]];
      }
    }
    return changed;
  }
  for (std::uint32_t i = 0; i < w.n_edges; ++i) {
    const std::uint32_t e = w.edges[i];
    const std::uint32_t m = g.edges[e].msg;
    if (w.alive[e] && m != SoundnessIndex::kNoMsg && !test_bit(avail, m)) {
      w.alive[e] = 0;
      changed = true;
    }
  }
  return changed;
}

/// Fixed node: mark the closure states that still reach the target over
/// alive pred edges (backward BFS), and kill every edge leaving a state
/// that does not, or entering one that does not.
bool drop_unreaching(NodeWork& w) {
  const NodeGraph& g = *w.g;
  for (std::uint32_t i = 0; i < w.n_states; ++i) w.mark[w.states[i]] = 1;
  std::uint32_t top = 0;
  w.stack[top++] = w.target;
  w.mark[w.target] = 2;
  w.reaching = 1;
  while (top > 0) {
    const std::uint32_t s = w.stack[--top];
    for (std::uint32_t k = g.in_off[s]; k < g.in_off[s + 1]; ++k) {
      const std::uint32_t e = g.in[k];
      const Edge& ed = g.edges[e];
      if (w.alive[e] && !ed.self_loop && w.mark[ed.from] == 1) {
        w.mark[ed.from] = 2;
        ++w.reaching;
        w.stack[top++] = ed.from;
      }
    }
  }
  bool changed = false;
  for (std::uint32_t i = 0; i < w.n_edges; ++i) {
    const std::uint32_t e = w.edges[i];
    const Edge& ed = g.edges[e];
    if (w.alive[e] && (w.mark[ed.from] != 2 || (!ed.self_loop && w.mark[ed.to] != 2))) {
      w.alive[e] = 0;
      changed = true;
    }
  }
  return changed;
}

/// Set of joint-state hashes: open addressing with linear probing. The
/// hashes are already mixed, so their low bits index the table; slot value
/// 0 marks an empty slot and a zero hash is tracked on the side.
class HashSet {
 public:
  /// True iff h was not in the set.
  bool insert(Hash64 h) {
    if (h == 0) return !std::exchange(has_zero_, true);
    if (2 * (size_ + 1) > slots_.size()) grow();
    if (!place(slots_, h)) return false;
    ++size_;
    return true;
  }

 private:
  static bool place(std::vector<Hash64>& slots, Hash64 h) {
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      if (slots[i] == h) return false;
      if (slots[i] == 0) {
        slots[i] = h;
        return true;
      }
    }
  }
  void grow() {
    std::vector<Hash64> next(slots_.empty() ? 64 : 2 * slots_.size(), 0);
    for (Hash64 h : slots_)
      if (h != 0) place(next, h);
    slots_.swap(next);
  }

  std::vector<Hash64> slots_;
  std::size_t size_ = 0;
  bool has_zero_ = false;
};

/// Joint DFS over (positions, net multiset). Returns true and fills
/// `schedule` when every fixed node parks on its target. The multiset is a
/// count vector over message ids; its order-independent hash is kept
/// incrementally (hash_combine_unordered is addition), so joint_hash()
/// costs O(nodes) instead of a walk over the multiset.
class ScheduleSearch {
 public:
  ScheduleSearch(const std::vector<NodeWork>& work, const SoundnessIndex& index,
                 std::uint64_t max_expansions)
      : work_(work), index_(index), max_expansions_(max_expansions), net_(index.num_msgs(), 0) {
    for (std::uint32_t m : index.in_flight()) add(m);
  }

  /// Depth-first, in the order of a recursion over (node, forward edge);
  /// iterative so that long runs cannot exhaust the call stack.
  bool run(std::vector<std::uint32_t> start, Schedule* schedule) {
    pos_ = std::move(start);
    Visit v = enter();
    if (v != Visit::kExpand) return v == Visit::kGoal;
    std::vector<Frame> stack{Frame{}};
    while (!stack.empty()) {
      const std::size_t top = stack.size() - 1;
      bool descended = false;
      while (!descended && stack[top].node < work_.size()) {
        Frame& f = stack[top];
        const NodeWork& w = work_[f.node];
        const NodeGraph& g = *w.g;
        const std::uint32_t at = pos_[f.node];
        if (f.next == Frame::kUnset) f.next = g.out_off[at];
        while (f.next < g.out_off[at + 1]) {
          const std::uint32_t e = g.out[f.next++];
          if (!w.alive[e] || !enabled(g.edges[e], g)) continue;
          apply(f.node, g, e, schedule);
          v = enter();
          if (v == Visit::kGoal) return true;
          if (v == Visit::kExpand) {
            stack.push_back(Frame{0, Frame::kUnset, f.node, e});
            descended = true;
            break;
          }
          undo(f.node, g, e, schedule);
        }
        if (!descended) {
          ++f.node;
          f.next = Frame::kUnset;
        }
      }
      if (descended) continue;
      const Frame done = stack.back();
      stack.pop_back();
      if (done.via_edge != Frame::kUnset)
        undo(done.via_node, *work_[done.via_node].g, done.via_edge, schedule);
    }
    return false;
  }

  std::uint64_t expansions() const { return expansions_; }
  bool truncated() const { return truncated_; }
  const std::vector<std::uint32_t>& positions() const { return pos_; }

 private:
  Hash64 term(std::uint32_t m) const { return mix64(hash_combine(index_.msg_hash(m), net_[m])); }
  void add(std::uint32_t m) {
    if (net_[m] != 0) net_hash_ -= term(m);
    ++net_[m];
    net_hash_ += term(m);
  }
  void remove(std::uint32_t m) {
    net_hash_ -= term(m);
    if (--net_[m] != 0) net_hash_ += term(m);
  }

  Hash64 joint_hash() const {
    Hash64 h = 0x51ed270b9a3bULL;
    for (std::uint32_t p : pos_) h = hash_combine(h, p);
    return hash_combine(h, net_hash_);
  }

  bool at_goal() const {
    for (std::size_t n = 0; n < work_.size(); ++n)
      if (work_[n].fixed && pos_[n] != work_[n].target) return false;
    return true;
  }

  enum class Visit { kGoal, kPruned, kExpand };
  /// One joint state of the search, mid-iteration: the node whose forward
  /// edges are being tried, the next one to try, and the edge (of via_node)
  /// that led here — undone when the state is left.
  struct Frame {
    static constexpr std::uint32_t kUnset = UINT32_MAX;
    std::uint32_t node = 0;
    std::uint32_t next = kUnset;
    std::uint32_t via_node = 0;
    std::uint32_t via_edge = kUnset;
  };

  /// Arrive at the current joint state: the goal, a dead end (expansion cap
  /// or already visited), or a state to expand.
  Visit enter() {
    if (at_goal()) return Visit::kGoal;
    if (expansions_ >= max_expansions_) {
      truncated_ = true;
      return Visit::kPruned;
    }
    if (!visited_.insert(joint_hash())) return Visit::kPruned;
    ++expansions_;
    return Visit::kExpand;
  }

  bool enabled(const Edge& ed, const NodeGraph& g) const {
    if (ed.msg != SoundnessIndex::kNoMsg && net_[ed.msg] == 0) return false;
    if (!ed.self_loop) return true;
    // A self-loop fires only when it contributes a message we do not have
    // yet; bounds re-firing without tracking per-path state.
    for (std::uint32_t i = ed.gen_begin; i < ed.gen_end; ++i)
      if (net_[g.gen_ids[i]] == 0) return true;
    return false;
  }

  void apply(std::uint32_t n, const NodeGraph& g, std::uint32_t e, Schedule* schedule) {
    const Edge& ed = g.edges[e];
    const bool is_message = ed.msg != SoundnessIndex::kNoMsg;
    if (is_message) remove(ed.msg);
    for (std::uint32_t i = ed.gen_begin; i < ed.gen_end; ++i) add(g.gen_ids[i]);
    pos_[n] = ed.to;
    if (schedule != nullptr) schedule->push_back({static_cast<NodeId>(n), is_message, ed.ev_hash});
  }

  void undo(std::uint32_t n, const NodeGraph& g, std::uint32_t e, Schedule* schedule) {
    const Edge& ed = g.edges[e];
    if (schedule != nullptr) schedule->pop_back();
    pos_[n] = ed.from;
    for (std::uint32_t i = ed.gen_begin; i < ed.gen_end; ++i) remove(g.gen_ids[i]);
    if (ed.msg != SoundnessIndex::kNoMsg) add(ed.msg);
  }

  const std::vector<NodeWork>& work_;
  const SoundnessIndex& index_;
  std::uint64_t max_expansions_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> net_;  ///< per message id: generated, not yet consumed
  Hash64 net_hash_ = 0;             ///< hash of the nonzero entries of net_
  HashSet visited_;
  std::uint64_t expansions_ = 0;
  bool truncated_ = false;
};

}  // namespace

bool SoundnessVerifier::target_feasible(NodeId n, std::uint32_t target) const {
  if (target == 0) return true;  // target IS the snapshot state
  const NodeGraph& g = index_->node(n);
  require_indexed(g, target);
  std::vector<NodeWork> one(1);
  one[0].g = &g;
  one[0].target = target;
  Workspace ws(one);
  NodeWork& w = one[0];
  close_over(w);
  // Prune under maximal help: everything other nodes are known to send is
  // assumed available, plus what this closure's own surviving edges make.
  std::vector<std::uint64_t> other;
  reset_bits(other, index_->in_flight_set(), index_->num_msgs());
  for (NodeId m = 0; m < index_->num_nodes(); ++m) {
    if (m == n) continue;
    const std::vector<std::uint64_t>& sends = index_->node(m).sends;
    for (std::size_t i = 0; i < sends.size(); ++i) other[i] |= sends[i];
  }
  std::vector<std::uint64_t> avail;
  do {
    avail = other;
    add_generated(w, avail);
  } while (drop_unavailable(w, avail));
  // Target still reachable from the snapshot state over surviving edges?
  std::vector<std::uint8_t> reached(g.num_states(), 0);
  std::vector<std::uint32_t> work{0};
  reached[0] = 1;
  while (!work.empty()) {
    const std::uint32_t s = work.back();
    work.pop_back();
    if (s == target) return true;
    for (std::uint32_t k = g.out_off[s]; k < g.out_off[s + 1]; ++k) {
      const std::uint32_t e = g.out[k];
      const Edge& ed = g.edges[e];
      if (w.alive[e] && !ed.self_loop && !reached[ed.to]) {
        reached[ed.to] = 1;
        work.push_back(ed.to);
      }
    }
  }
  return reached[target] != 0;
}

SoundnessResult SoundnessVerifier::verify(const std::vector<std::uint32_t>& combo,
                                          const std::vector<bool>* fixed) const {
  // Reentrant: all search state (closure marks, alive flags, the schedule
  // under construction) lives in locals; the index is frozen while
  // verifications run. Concurrent verify() calls — the parallel
  // verification phase — therefore need no locking.
  SoundnessResult res;
  const std::uint32_t n_nodes = index_->num_nodes();

  std::vector<NodeWork> work(n_nodes);
  for (NodeId n = 0; n < n_nodes; ++n) {
    NodeWork& w = work[n];
    w.g = &index_->node(n);
    w.fixed = fixed == nullptr || (*fixed)[n];
    w.target = combo[n];
    if (w.fixed) require_indexed(*w.g, w.target);
  }
  Workspace ws(work);
  for (NodeWork& w : work)
    if (w.fixed) close_over(w);

  // Prune to a fixpoint against the in-flight set plus everything alive
  // edges generate — a superset of what any run has available, so no
  // feasible edge is dropped; the joint search below enforces availability
  // exactly.
  std::vector<std::uint64_t> avail;
  bool changed = true;
  while (changed) {
    changed = false;
    reset_bits(avail, index_->in_flight_set(), index_->num_msgs());
    for (const NodeWork& w : work) add_generated(w, avail);
    for (NodeWork& w : work) {
      if (drop_unavailable(w, avail)) changed = true;
      if (w.fixed && drop_unreaching(w)) changed = true;
    }
  }
  for (const NodeWork& w : work)
    res.sequences_enumerated += w.fixed ? w.reaching : w.g->num_states();

  // Every node starts on its snapshot state, LS_n[0]. A fixed node's
  // marked states are exactly those that still reach the target; a root
  // outside them provably cannot.
  for (NodeId n = 0; n < n_nodes; ++n)
    if (work[n].fixed && work[n].mark[0] != 2) return res;
  if (opt_.max_schedules == 0) {
    res.truncated = true;
    return res;
  }
  ScheduleSearch search(work, *index_, opt_.max_schedules);
  Schedule sched;
  res.sound = search.run(std::vector<std::uint32_t>(n_nodes, 0), &sched);
  res.schedules_checked = search.expansions();
  res.truncated = search.truncated();
  if (res.sound) {
    res.schedule = std::move(sched);
    res.final_combo = search.positions();
  }
  return res;
}

}  // namespace lmc
