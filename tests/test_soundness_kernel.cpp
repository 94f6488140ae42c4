// The soundness kernel (SoundnessIndex + SoundnessVerifier) against
// test-only references, and the index's incremental refresh.
//
//  * Differential: on seeded random small stores — message and internal
//    edges, self-loops, duplicate in-flight copies, cycles, free nodes —
//    verify() must agree with a brute-force BFS over (positions,
//    net multiset) on the raw store with no pruning, every sound verdict's
//    witness must replay edge by edge, and target_feasible() must equal a
//    direct set-based transcription of its definition (and hold for every
//    member of a combination the BFS proves sound).
//  * Refresh: an index caught up incrementally — new states, new pred edges
//    on known states, new self-loops, new send-log entries — must answer
//    like a fresh one, with the same CSR order, and flip verdicts when the
//    edge that makes a combination sound arrives.
//  * Concurrency: many threads verifying on one shared index get the
//    single-threaded answers (the race check of the checker's fan-out).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <thread>

#include "dfuzz/rng.hpp"
#include "mc/local_mc.hpp"
#include "mc/local_store.hpp"
#include "mc/replay.hpp"
#include "mc/soundness.hpp"
#include "live_states.hpp"

namespace lmc {
namespace {

NodeStateRec state(Hash64 h) {
  NodeStateRec r;
  r.blob = {static_cast<std::uint8_t>(h)};
  r.hash = h;
  return r;
}

/// One soundness problem: a store whose state 0 per node is the snapshot
/// every schedule starts from, plus the snapshot's in-flight messages.
struct Case {
  LocalStore store{1};
  std::vector<Hash64> in_flight;
  /// Per node: extra messages the node is known to send without an edge
  /// generating them (the checker's sends of discarded executions).
  std::vector<std::vector<Hash64>> extra_sent;
};

/// A random store of 1-3 nodes with 1-6 states each. State 0 is the root;
/// every other state has a pred from a lower index (so it is reachable),
/// some get a second pred from any other state (cycles), some states get a
/// self-loop that sends. (state, event) pairs are unique per node, as in a
/// real store where one execution has one outcome.
Case random_case(std::uint64_t seed) {
  dfuzz::Rng rng(seed);
  const std::uint32_t n_nodes = rng.range(1, 3);
  const std::uint32_t n_msgs = rng.range(1, 5);
  auto msg = [&] { return Hash64{0x100} + rng.below(n_msgs); };
  Case c;
  c.store = LocalStore(n_nodes);
  c.extra_sent.resize(n_nodes);
  Hash64 next_ev = 0xE000;
  for (NodeId n = 0; n < n_nodes; ++n) {
    const std::uint32_t n_states = rng.range(1, 6);
    std::vector<NodeStateRec> recs;
    for (std::uint32_t s = 0; s < n_states; ++s) recs.push_back(state(1000 * (n + 1) + s));
    std::set<std::pair<std::uint32_t, Hash64>> used;
    auto edge = [&](std::uint32_t from, std::uint32_t min_gen, std::vector<Pred>& into) {
      Pred p;
      p.pred_idx = from;
      p.is_message = rng.chance(60);
      p.ev_hash = p.is_message ? msg() : next_ev++;
      if (!used.insert({from, p.ev_hash}).second) return;
      for (std::uint32_t k = rng.range(min_gen, 2); k > 0; --k) p.gen.push_back(msg());
      into.push_back(std::move(p));
    };
    for (std::uint32_t s = 1; s < n_states; ++s) {
      edge(static_cast<std::uint32_t>(rng.below(s)), 0, recs[s].preds);
      if (rng.chance(40)) {
        const auto from = static_cast<std::uint32_t>(rng.below(n_states));
        if (from != s) edge(from, 0, recs[s].preds);
      }
    }
    for (std::uint32_t s = 0; s < n_states; ++s)
      if (rng.chance(25)) edge(s, 1, recs[s].self_loops);
    for (NodeStateRec& r : recs) c.store.add(n, std::move(r));
    if (rng.chance(20)) c.extra_sent[n].push_back(msg());
  }
  for (std::uint32_t k = rng.range(0, 3); k > 0; --k) c.in_flight.push_back(msg());
  return c;
}

std::unique_ptr<SoundnessIndex> build_index(const Case& c) {
  auto idx = std::make_unique<SoundnessIndex>(c.store.num_nodes(), c.in_flight);
  idx->refresh(c.store, nullptr, &c.extra_sent);
  return idx;
}

// --- references -------------------------------------------------------------

using Net = std::map<Hash64, std::uint32_t>;  // nonzero counts only

void consume(Net& net, Hash64 h) {
  if (--net[h] == 0) net.erase(h);
}

/// Every transition out of `at` on node n, with the verifier's firing rules
/// applied to the current multiset.
template <class F>
void for_each_enabled(const LocalStore& store, NodeId n, std::uint32_t at, const Net& net, F&& f) {
  auto has = [&](Hash64 h) { return net.count(h) != 0; };
  for (std::uint32_t s = 0; s < store.size(n); ++s)
    for (const Pred& p : store.rec(n, s).preds)
      if (p.pred_idx == at && (!p.is_message || has(p.ev_hash))) f(p, s);
  for (const Pred& p : store.rec(n, at).self_loops) {
    if (p.is_message && !has(p.ev_hash)) continue;
    bool contributes = false;
    for (Hash64 g : p.gen)
      if (!has(g)) contributes = true;
    if (contributes) f(p, at);
  }
}

struct Brute {
  bool conclusive = true;
  bool sound = false;
};

/// Exhaustive BFS over (positions, net multiset) from the snapshot, no
/// pruning. Inconclusive when the reachable space exceeds `limit` joint
/// states (cycles that send can make it infinite).
Brute brute_force(const Case& c, const std::vector<std::uint32_t>& combo,
                  const std::vector<bool>& fixed, std::size_t limit = 4000) {
  const NodeId n_nodes = c.store.num_nodes();
  auto goal = [&](const std::vector<std::uint32_t>& pos) {
    for (NodeId n = 0; n < n_nodes; ++n)
      if (fixed[n] && pos[n] != combo[n]) return false;
    return true;
  };
  Brute out;
  using Joint = std::pair<std::vector<std::uint32_t>, Net>;
  std::set<Joint> seen;
  std::deque<Joint> work;
  Net net0;
  for (Hash64 h : c.in_flight) ++net0[h];
  work.emplace_back(std::vector<std::uint32_t>(n_nodes, 0), net0);
  seen.insert(work.back());
  while (!work.empty()) {
    Joint j = std::move(work.front());
    work.pop_front();
    if (goal(j.first)) {
      out.sound = true;
      out.conclusive = true;
      return out;
    }
    for (NodeId n = 0; n < n_nodes; ++n)
      for_each_enabled(c.store, n, j.first[n], j.second, [&](const Pred& p, std::uint32_t to) {
        Joint k = j;
        if (p.is_message) consume(k.second, p.ev_hash);
        for (Hash64 g : p.gen) ++k.second[g];
        k.first[n] = to;
        if (seen.size() < limit && seen.insert(k).second)
          work.push_back(std::move(k));
        else if (seen.size() >= limit)
          out.conclusive = false;
      });
  }
  return out;
}

/// target_feasible's definition, transcribed over std::set on the raw
/// store: the target's backward closure, message edges pruned to a
/// fixpoint against (other nodes' sends + every in-flight message + what
/// the closure's surviving edges send), then forward reachability from
/// state 0 over surviving non-self-loop edges.
bool reference_feasible(const Case& c, NodeId n, std::uint32_t target) {
  if (target == 0) return true;
  std::set<Hash64> other(c.in_flight.begin(), c.in_flight.end());
  for (NodeId m = 0; m < c.store.num_nodes(); ++m) {
    if (m == n) continue;
    other.insert(c.extra_sent[m].begin(), c.extra_sent[m].end());
    for (std::uint32_t s = 0; s < c.store.size(m); ++s) {
      for (const Pred& p : c.store.rec(m, s).preds) other.insert(p.gen.begin(), p.gen.end());
      for (const Pred& p : c.store.rec(m, s).self_loops) other.insert(p.gen.begin(), p.gen.end());
    }
  }
  std::set<std::uint32_t> closure{target};
  std::vector<std::uint32_t> work{target};
  while (!work.empty()) {
    const std::uint32_t s = work.back();
    work.pop_back();
    for (const Pred& p : c.store.rec(n, s).preds)
      if (closure.insert(p.pred_idx).second) work.push_back(p.pred_idx);
  }
  struct E {
    const Pred* p;
    std::uint32_t to;
    bool self_loop;
  };
  std::vector<E> edges;
  for (std::uint32_t s : closure) {
    for (const Pred& p : c.store.rec(n, s).preds) edges.push_back({&p, s, false});
    for (const Pred& p : c.store.rec(n, s).self_loops) edges.push_back({&p, s, true});
  }
  for (bool changed = true; changed;) {
    changed = false;
    std::set<Hash64> avail = other;
    for (const E& e : edges) avail.insert(e.p->gen.begin(), e.p->gen.end());
    for (std::size_t i = 0; i < edges.size();)
      if (edges[i].p->is_message && !avail.count(edges[i].p->ev_hash)) {
        edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(i));
        changed = true;
      } else {
        ++i;
      }
  }
  std::set<std::uint32_t> reached{0};
  work.push_back(0);
  while (!work.empty()) {
    const std::uint32_t s = work.back();
    work.pop_back();
    for (const E& e : edges)
      if (!e.self_loop && e.p->pred_idx == s && reached.insert(e.to).second) work.push_back(e.to);
  }
  return reached.count(target) != 0;
}

/// Re-run a sound verdict's schedule on the raw store from the snapshot:
/// every step must name exactly one enabled transition, and the run must
/// end on final_combo with every fixed node on its target.
void expect_witness_replays(const Case& c, const std::vector<std::uint32_t>& combo,
                            const std::vector<bool>& fixed, const SoundnessResult& res) {
  std::vector<std::uint32_t> pos(c.store.num_nodes(), 0);
  Net net;
  for (Hash64 h : c.in_flight) ++net[h];
  for (const ScheduleStep& st : res.schedule) {
    const Pred* hit = nullptr;
    std::uint32_t to = 0;
    int matches = 0;
    for_each_enabled(c.store, st.node, pos[st.node], net, [&](const Pred& p, std::uint32_t s) {
      if (p.is_message == st.is_message && p.ev_hash == st.ev_hash) {
        hit = &p;
        to = s;
        ++matches;
      }
    });
    ASSERT_EQ(matches, 1) << "witness step is not one enabled transition";
    if (hit->is_message) consume(net, hit->ev_hash);
    for (Hash64 g : hit->gen) ++net[g];
    pos[st.node] = to;
  }
  EXPECT_EQ(pos, res.final_combo);
  for (NodeId n = 0; n < c.store.num_nodes(); ++n)
    if (fixed[n]) {
      EXPECT_EQ(pos[n], combo[n]);
    }
}

// --- differential -----------------------------------------------------------

/// Expansion cap for the random stores: cycles that send make some joint
/// spaces infinite, and those verdicts are truncated, not compared.
SoundnessOptions capped() {
  SoundnessOptions so;
  so.max_schedules = 20000;
  return so;
}

TEST(SoundnessKernel, AgreesWithBruteForceOnRandomStores) {
  std::uint64_t compared = 0, sound = 0, unsound = 0, feasibility_checks = 0, skipped = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = random_case(seed);
    const auto idx = build_index(c);
    const SoundnessVerifier v(*idx, capped());
    dfuzz::Rng rng(seed * 7919);
    const NodeId n_nodes = c.store.num_nodes();
    for (int k = 0; k < 6; ++k) {
      std::vector<std::uint32_t> combo(n_nodes);
      std::vector<bool> fixed(n_nodes, true);
      for (NodeId n = 0; n < n_nodes; ++n) {
        combo[n] = static_cast<std::uint32_t>(rng.below(c.store.size(n)));
        if (n_nodes > 1 && rng.chance(25)) fixed[n] = false;
      }
      const SoundnessResult res = v.verify(combo, &fixed);
      if (res.sound) expect_witness_replays(c, combo, fixed, res);
      const Brute b = brute_force(c, combo, fixed);
      if (res.truncated || !b.conclusive) {
        ++skipped;
        continue;
      }
      ++compared;
      EXPECT_EQ(res.sound, b.sound) << "combo #" << k;
      ++(b.sound ? sound : unsound);
      for (NodeId n = 0; n < n_nodes; ++n) {
        if (!fixed[n]) continue;
        ++feasibility_checks;
        const bool feasible = v.target_feasible(n, combo[n]);
        EXPECT_EQ(feasible, reference_feasible(c, n, combo[n])) << "node " << n;
        if (b.sound) {
          EXPECT_TRUE(feasible) << "pre-check rejected a sound member";
        }
      }
    }
  }
  // The generator must exercise both verdicts and stay mostly conclusive.
  EXPECT_GT(sound, 3000u);
  EXPECT_GT(unsound, 1000u);
  EXPECT_GT(compared, 20 * skipped);
  EXPECT_GT(feasibility_checks, 5000u);
}

TEST(SoundnessKernel, AllFixedVerifyMatchesStandaloneVerifier) {
  // The standalone constructor (own index) and a caller-maintained index
  // answer identically, expansion counts included.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Case c = random_case(seed);
    for (auto& extra : c.extra_sent) extra.clear();
    const auto idx = build_index(c);
    const SoundnessVerifier shared(*idx, capped());
    const SoundnessVerifier own(c.store, c.in_flight, capped());
    std::vector<std::uint32_t> combo(c.store.num_nodes(), 0);
    for (NodeId n = 0; n < c.store.num_nodes(); ++n) combo[n] = c.store.size(n) - 1;
    const SoundnessResult a = shared.verify(combo), b = own.verify(combo);
    EXPECT_EQ(a.sound, b.sound);
    EXPECT_EQ(a.schedules_checked, b.schedules_checked);
    EXPECT_EQ(a.sequences_enumerated, b.sequences_enumerated);
    EXPECT_EQ(a.final_combo, b.final_combo);
    ASSERT_EQ(a.schedule.size(), b.schedule.size());
    for (std::size_t i = 0; i < a.schedule.size(); ++i)
      EXPECT_EQ(a.schedule[i].ev_hash, b.schedule[i].ev_hash);
  }
}

TEST(SoundnessKernel, ConcurrentVerifiersOnOneIndexMatchSequential) {
  // The checker's fan-out: one refreshed index, read by many threads.
  std::vector<Case> cases;
  std::vector<std::unique_ptr<SoundnessIndex>> idxs;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    cases.push_back(random_case(seed));
    idxs.push_back(build_index(cases.back()));
  }
  auto run_case = [&](std::size_t i) {
    const SoundnessVerifier v(*idxs[i], capped());
    std::vector<std::uint64_t> out;
    for (NodeId n = 0; n < cases[i].store.num_nodes(); ++n)
      for (std::uint32_t s = 0; s < cases[i].store.size(n); ++s) {
        std::vector<std::uint32_t> combo(cases[i].store.num_nodes(), 0);
        combo[n] = s;
        const SoundnessResult r = v.verify(combo);
        out.push_back((r.sound ? 2u : 0u) + (v.target_feasible(n, s) ? 1u : 0u));
        out.push_back(r.schedules_checked);
      }
    return out;
  };
  std::vector<std::vector<std::uint64_t>> want(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) want[i] = run_case(i);
  // Every thread walks every case, starting at a different one, so each
  // index is read by all eight threads at once.
  std::vector<std::vector<std::vector<std::uint64_t>>> got(8, want);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < 8; ++t)
    pool.emplace_back([&, t] {
      for (std::size_t k = 0; k < cases.size(); ++k) {
        const std::size_t i = (t + k) % cases.size();
        got[t][i] = run_case(i);
      }
    });
  for (std::thread& th : pool) th.join();
  for (std::size_t t = 0; t < 8; ++t) EXPECT_EQ(want, got[t]) << "thread " << t;
}

// --- refresh ----------------------------------------------------------------

/// A two-node store: node 0 reaches state 1 by an internal event that sends
/// nothing; node 1 reaches state 1 by delivering M. {1, 1} is unsound
/// until some node-0 edge generates M.
constexpr Hash64 kM = 0xAB;
LocalStore unsound_pair() {
  LocalStore store(2);
  store.add(0, state(10));
  NodeStateRec a = state(11);
  a.preds.push_back(Pred{0, false, 0xE1, {}});
  store.add(0, std::move(a));
  store.add(1, state(20));
  NodeStateRec b = state(21);
  b.preds.push_back(Pred{0, true, kM, {}});
  store.add(1, std::move(b));
  return store;
}

std::vector<std::uint64_t> edge_counts(const LocalStore& store) {
  std::vector<std::uint64_t> out(store.num_nodes(), 0);
  for (NodeId n = 0; n < store.num_nodes(); ++n)
    for (std::uint32_t s = 0; s < store.size(n); ++s)
      out[n] += store.rec(n, s).preds.size() + store.rec(n, s).self_loops.size();
  return out;
}

TEST(SoundnessRefresh, NewPredEdgeOnKnownStateMakesComboSound) {
  LocalStore store = unsound_pair();
  SoundnessIndex idx(2, {});
  std::vector<std::uint64_t> counts = edge_counts(store);
  idx.refresh(store, &counts);
  EXPECT_FALSE(SoundnessVerifier(idx, {}).verify({1, 1}).sound);
  EXPECT_FALSE(SoundnessVerifier(idx, {}).target_feasible(1, 1));

  // A second path into the KNOWN state 1 of node 0, this one sending M —
  // the checker's "known state reached by a new path" (no new state).
  store.rec(0, 1).preds.push_back(Pred{0, false, 0xE2, {kM}});
  counts = edge_counts(store);
  idx.refresh(store, &counts);
  const SoundnessResult res = SoundnessVerifier(idx, {}).verify({1, 1});
  ASSERT_TRUE(res.sound);
  ASSERT_EQ(res.schedule.size(), 2u);
  EXPECT_EQ(res.schedule[0].ev_hash, 0xE2u);
  EXPECT_EQ(res.schedule[1].ev_hash, kM);
  EXPECT_TRUE(SoundnessVerifier(idx, {}).target_feasible(1, 1));
}

TEST(SoundnessRefresh, NewSelfLoopAndNewStatesAreIngested) {
  LocalStore store = unsound_pair();
  SoundnessIndex idx(2, {});
  std::vector<std::uint64_t> counts = edge_counts(store);
  idx.refresh(store, &counts);
  EXPECT_FALSE(SoundnessVerifier(idx, {}).verify({0, 1}).sound);

  // A relay on node 0's root that sends M, plus a new node-1 state behind
  // state 1: both must be visible after one refresh.
  store.rec(0, 0).self_loops.push_back(Pred{0, false, 0xE3, {kM}});
  NodeStateRec c = state(22);
  c.preds.push_back(Pred{1, false, 0xE4, {}});
  store.add(1, std::move(c));
  counts = edge_counts(store);
  idx.refresh(store, &counts);
  EXPECT_TRUE(SoundnessVerifier(idx, {}).verify({0, 1}).sound);
  EXPECT_TRUE(SoundnessVerifier(idx, {}).verify({0, 2}).sound);
}

TEST(SoundnessRefresh, SendLogTailIsIngested) {
  // target_feasible assumes every message another node is known to send —
  // including sends with no generating edge, fed through the send log.
  LocalStore store = unsound_pair();
  SoundnessIndex idx(2, {});
  std::vector<std::vector<Hash64>> sent(2);
  idx.refresh(store, nullptr, &sent);
  EXPECT_FALSE(SoundnessVerifier(idx, {}).target_feasible(1, 1));
  sent[0].push_back(kM);
  idx.refresh(store, nullptr, &sent);
  EXPECT_TRUE(SoundnessVerifier(idx, {}).target_feasible(1, 1));
  EXPECT_FALSE(SoundnessVerifier(idx, {}).verify({1, 1}).sound)
      << "no edge generates M: the joint search still refutes";
}

TEST(SoundnessRefresh, IncrementalIndexEqualsFreshBuild) {
  // Grow random stores one state / edge at a time with a refresh after each
  // step; the CSR order must come out as a fresh build's — it depends on
  // the store only, so resumed runs search in the same order.
  auto csr = [](const SoundnessIndex& idx, NodeId n) {
    const SoundnessIndex::NodeGraph& g = idx.node(n);
    std::vector<std::tuple<std::uint32_t, std::uint32_t, Hash64, bool>> out;
    for (std::uint32_t s = 0; s < g.num_states(); ++s)
      for (std::uint32_t k = g.out_off[s]; k < g.out_off[s + 1]; ++k) {
        const SoundnessIndex::Edge& e = g.edges[g.out[k]];
        out.emplace_back(e.from, e.to, e.ev_hash, e.self_loop);
      }
    return out;
  };
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Case full = random_case(seed);
    LocalStore grown(full.store.num_nodes());
    SoundnessIndex idx(full.store.num_nodes(), full.in_flight);
    // Replay the store in a different order: all states first (bare), then
    // every edge, newest state first.
    for (NodeId n = 0; n < full.store.num_nodes(); ++n)
      for (std::uint32_t s = 0; s < full.store.size(n); ++s) {
        grown.add(n, state(full.store.rec(n, s).hash));
        std::vector<std::uint64_t> counts = edge_counts(grown);
        idx.refresh(grown, &counts);
      }
    for (NodeId n = 0; n < full.store.num_nodes(); ++n)
      for (std::uint32_t s = full.store.size(n); s-- > 0;) {
        for (const Pred& p : full.store.rec(n, s).preds) {
          grown.rec(n, s).preds.push_back(p);
          std::vector<std::uint64_t> counts = edge_counts(grown);
          idx.refresh(grown, &counts);
        }
        for (const Pred& p : full.store.rec(n, s).self_loops) {
          grown.rec(n, s).self_loops.push_back(p);
          std::vector<std::uint64_t> counts = edge_counts(grown);
          idx.refresh(grown, &counts);
        }
      }
    SoundnessIndex fresh(full.store.num_nodes(), full.in_flight);
    fresh.refresh(full.store);
    for (NodeId n = 0; n < full.store.num_nodes(); ++n)
      EXPECT_EQ(csr(idx, n), csr(fresh, n)) << "seed " << seed << " node " << n;
  }
}

TEST(SoundnessRefresh, CheckerConfirmsViolationsFoundAfterTheFirstVerification) {
  // End to end: the checker builds its index at the first verification and
  // must catch it up before every later one — phase 1 keeps adding states
  // and edges, and the phase-2 drain verifies against the final store.
  SystemConfig cfg = live_states::duel_cfg(3, /*bug=*/true);
  auto inv = paxos::make_agreement_invariant();
  live_states::Live live = live_states::build_stale_promise_state(cfg, 3);
  LocalMcOptions opt;
  opt.max_total_depth = 18;
  opt.use_projection = true;
  opt.stop_on_confirmed = false;
  opt.time_budget_s = 300;
  LocalModelChecker mc(cfg, inv.get(), opt);
  mc.run(live.nodes, live.flight);
  ASSERT_TRUE(mc.stats().completed);
  ASSERT_GT(mc.stats().soundness_calls, 1u);
  ASSERT_GE(mc.stats().confirmed_violations, 1u);
  for (const LocalViolation& v : mc.violations()) {
    if (!v.confirmed) continue;
    ReplayResult rep = replay_schedule(cfg, mc.initial_nodes(), mc.initial_in_flight(), v.witness,
                                       mc.events(), v.state_hashes);
    EXPECT_TRUE(rep.ok) << rep.error;
  }
}

}  // namespace
}  // namespace lmc
