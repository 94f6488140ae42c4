// LMC-OPT's indexed partner lookup (Invariant::key_value_conflicts).
//
// The index must find exactly the conflicting pairs the projection-pair
// scan finds, in the same order, so every counter, confirmed violation,
// witness and checkpoint byte is unchanged. The differential runs each
// input twice — through the real invariant (indexed) and through a wrapper
// that forwards every call but declines the key/value property (scan) — at
// 1 and 8 threads. The contract test checks, on projections taken from real
// OPT runs, that every invariant opting in really follows the key/value
// rule the index implements.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "dfuzz/oracle.hpp"
#include "live_states.hpp"
#include "mc/local_mc.hpp"
#include "mc/replay.hpp"
#include "protocols/onepaxos.hpp"
#include "protocols/paxos.hpp"
#include "protocols/twophase.hpp"

namespace lmc {
namespace {

using namespace live_states;

// Forwards every call to `inner` except key_value_conflicts(), which keeps
// the base default (false): the checker scans instead of using the index.
class ScanOnly : public Invariant {
 public:
  explicit ScanOnly(const Invariant& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  bool holds(const SystemConfig& cfg, const SystemStateView& sys) const override {
    return inner_.holds(cfg, sys);
  }
  bool has_projection() const override { return inner_.has_projection(); }
  Projection project(const SystemConfig& cfg, NodeId n, const Blob& state) const override {
    return inner_.project(cfg, n, state);
  }
  bool projection_self_violates(const Projection& p) const override {
    return inner_.projection_self_violates(p);
  }
  bool symmetric_under(const std::vector<std::vector<NodeId>>& classes) const override {
    return inner_.symmetric_under(classes);
  }
  bool projections_conflict(const Projection& a, const Projection& b) const override {
    return inner_.projections_conflict(a, b);
  }

 protected:
  const Invariant& inner_;
};

// Forwards every call to `inner`, key_value_conflicts() included, and
// records each distinct non-empty projection the checker computes.
class Recording final : public ScanOnly {
 public:
  using ScanOnly::ScanOnly;
  bool key_value_conflicts() const override { return inner_.key_value_conflicts(); }
  Projection project(const SystemConfig& cfg, NodeId n, const Blob& state) const override {
    Projection p = inner_.project(cfg, n, state);
    if (!p.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      seen_.insert(p);
    }
    return p;
  }
  std::vector<Projection> seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {seen_.begin(), seen_.end()};
  }

 private:
  mutable std::mutex mu_;
  mutable std::set<Projection> seen_;
};

struct Input {
  SystemConfig cfg;
  std::vector<Blob> nodes;
  std::vector<Message> flight;
  LocalMcOptions opt;
};

std::unique_ptr<LocalModelChecker> run_one(const Input& in, const Invariant* inv,
                                           unsigned threads) {
  LocalMcOptions opt = in.opt;
  opt.num_threads = threads;
  auto mc = std::make_unique<LocalModelChecker>(in.cfg, inv, opt);
  mc->run(in.nodes, in.flight);
  return mc;
}

// Every LocalMcStats field that is not a wall time or a memory footprint.
std::vector<std::uint64_t> counters(const LocalMcStats& s) {
  return {s.transitions,         s.node_states,          s.system_states,
          s.invariant_checks,    s.prelim_violations,    s.confirmed_violations,
          s.unsound_violations,  s.soundness_calls,      s.feasibility_skips,
          s.soundness_deferred,  s.deferred_processed,   s.deferred_dropped,
          s.sequences_checked,   s.seq_enum_truncated,   s.combo_truncated,
          s.dup_msgs_suppressed, s.history_skips,        s.local_assert_discards,
          s.messages_in_iplus,   s.warm_pairs_skipped,   s.checkpoints_written,
          s.checkpoint_failures, s.completed ? 1u : 0u,
          s.max_chain_depth_reached, s.max_total_depth_reached};
}

void expect_same_run(const LocalModelChecker& indexed, const LocalModelChecker& scan) {
  EXPECT_EQ(counters(indexed.stats()), counters(scan.stats()));
  ASSERT_EQ(indexed.violations().size(), scan.violations().size());
  for (std::size_t v = 0; v < indexed.violations().size(); ++v) {
    const LocalViolation& a = indexed.violations()[v];
    const LocalViolation& b = scan.violations()[v];
    EXPECT_EQ(a.confirmed, b.confirmed);
    EXPECT_EQ(a.combo, b.combo);
    EXPECT_EQ(a.state_hashes, b.state_hashes);
    ASSERT_EQ(a.witness.size(), b.witness.size());
    for (std::size_t s = 0; s < a.witness.size(); ++s) {
      EXPECT_EQ(a.witness[s].node, b.witness[s].node);
      EXPECT_EQ(a.witness[s].is_message, b.witness[s].is_message);
      EXPECT_EQ(a.witness[s].ev_hash, b.witness[s].ev_hash);
    }
  }
  EXPECT_EQ(dfuzz::normalized_checkpoint_bytes(indexed.checkpoint_bytes()),
            dfuzz::normalized_checkpoint_bytes(scan.checkpoint_bytes()))
      << "checkpoint bytes diverged";
}

void replay_all_confirmed(const SystemConfig& cfg, const LocalModelChecker& mc) {
  for (const LocalViolation& v : mc.violations()) {
    if (!v.confirmed) continue;
    ReplayResult r = replay_schedule(cfg, mc.initial_nodes(), mc.initial_in_flight(),
                                     v.witness, mc.events(), v.state_hashes);
    EXPECT_TRUE(r.ok) << r.error;
  }
}

// Runs `in` indexed and scanned at 1 and 8 threads; all four runs must agree.
// Returns the confirmed count.
std::uint64_t expect_index_matches_scan(const Input& in, const Invariant& inv) {
  EXPECT_TRUE(inv.key_value_conflicts()) << inv.name() << " should take the indexed path";
  const ScanOnly scan_inv(inv);
  std::unique_ptr<LocalModelChecker> first;
  for (unsigned threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto indexed = run_one(in, &inv, threads);
    auto scan = run_one(in, &scan_inv, threads);
    expect_same_run(*indexed, *scan);
    replay_all_confirmed(in.cfg, *indexed);
    if (first == nullptr)
      first = std::move(indexed);
    else
      expect_same_run(*first, *indexed);
  }
  return first->stats().confirmed_violations;
}

LocalMcOptions opt_options() {
  LocalMcOptions opt;
  opt.use_projection = true;
  opt.stop_on_confirmed = false;
  opt.time_budget_s = 600;
  return opt;
}

Input paxos_5_5_input() {
  Input in{duel_cfg(3, /*bug=*/true), {}, {}, opt_options()};
  in.nodes = build_stale_promise_state(in.cfg, 3).nodes;  // the §5.5 live state
  in.opt.max_total_depth = 18;
  return in;
}

Input scenario_input(std::uint32_t n, bool accept_race, std::uint32_t chain_depth) {
  Input in{duel_cfg(n, /*bug=*/true), {}, {}, opt_options()};
  Live live = accept_race ? build_accept_race_state(in.cfg, n)
                          : build_stale_promise_state(in.cfg, n);
  in.nodes = std::move(live.nodes);
  in.flight = std::move(live.flight);
  in.opt.max_chain_depth = chain_depth;
  return in;
}

Input onepaxos_input() {
  Input in{onepaxos::make_config(3, onepaxos::Options{.bug_postincrement_init = true}), {}, {},
           opt_options()};
  in.nodes = build_5_6_live_state(in.cfg);
  in.opt.max_total_depth = 10;
  // A full sweep of this space is minutes of unsound prelims (§4.3); the
  // first confirmed violation is the differential's subject.
  in.opt.stop_on_confirmed = true;
  return in;
}

Input twophase_input() {
  Input in{twophase::make_config(3, twophase::Options{{2}, /*bug=*/true}), {}, {},
           opt_options()};
  in.nodes = initial_states(in.cfg);
  return in;
}

// --- indexed vs scan differential ------------------------------------------

TEST(OptIndex, MatchesScanOnPaxos55LiveState) {
  auto inv = paxos::make_agreement_invariant();
  EXPECT_EQ(expect_index_matches_scan(paxos_5_5_input(), *inv), 132u);
}

TEST(OptIndex, MatchesScanOnBuggyPaxosScenarios) {
  auto inv = paxos::make_agreement_invariant();
  struct Case {
    std::uint32_t n;
    bool accept_race;
    std::uint32_t chain_depth;
  };
  for (const Case c : {Case{3, false, 3}, Case{3, false, 4}, Case{3, true, 3}, Case{5, true, 1}}) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " accept_race=" + std::to_string(c.accept_race) +
                 " chain_depth=" + std::to_string(c.chain_depth));
    expect_index_matches_scan(scenario_input(c.n, c.accept_race, c.chain_depth), *inv);
  }
}

TEST(OptIndex, MatchesScanOnOnePaxosPlusPlusBug) {
  auto inv = onepaxos::make_agreement_invariant();
  EXPECT_GE(expect_index_matches_scan(onepaxos_input(), *inv), 1u);
}

TEST(OptIndex, MatchesScanOnBuggyTwoPhase) {
  twophase::AtomicityInvariant inv;
  EXPECT_GE(expect_index_matches_scan(twophase_input(), inv), 1u);
}

// Each node chooses value self+1 for key 0, then for key 1, without
// messages. Node states holding both keys conflict with each other on BOTH
// keys, so the lookup meets such a partner twice and must de-duplicate it.
class TwoKeyNode final : public StateMachine {
 public:
  explicit TwoKeyNode(NodeId self) : self_(self) {}
  void handle_message(const Message&, Context&) override {}
  std::vector<InternalEvent> enabled_internal_events() const override {
    if (chosen_ < 2) return {InternalEvent{1, {}}};
    return {};
  }
  void handle_internal(const InternalEvent&, Context&) override { ++chosen_; }
  void serialize(Writer& w) const override {
    w.u32(self_);
    w.u32(chosen_);
  }
  void deserialize(Reader& r) override {
    self_ = r.u32();
    chosen_ = r.u32();
  }

 private:
  NodeId self_;
  std::uint32_t chosen_ = 0;
};

TEST(OptIndex, MatchesScanWhenPartnersConflictOnSeveralKeys) {
  Input in{{}, {}, {}, opt_options()};
  in.cfg.num_nodes = 3;
  in.cfg.factory = [](NodeId self, std::uint32_t) { return std::make_unique<TwoKeyNode>(self); };
  in.nodes = initial_states(in.cfg);
  paxos::AgreementInvariant inv([](const SystemConfig&, NodeId, const Blob& state) {
    Reader r(state);
    const paxos::Value value = r.u32() + 1;
    std::map<paxos::Index, paxos::Value> chosen;
    for (paxos::Index k = r.u32(); k > 0; --k) chosen[k - 1] = value;
    return chosen;
  });
  EXPECT_GE(expect_index_matches_scan(in, inv), 1u);
}

TEST(OptIndex, RebuiltOnCheckpointLoad) {
  // The index is derived state: a run interrupted mid-way and resumed from
  // its checkpoint bytes must finish exactly like the straight run.
  const Input in = paxos_5_5_input();
  auto inv = paxos::make_agreement_invariant();
  auto straight = run_one(in, inv.get(), 1);

  Input cut = in;
  cut.opt.max_transitions = 300;
  auto first = run_one(cut, inv.get(), 1);
  ASSERT_FALSE(first->stats().completed);
  const std::string path = testing::TempDir() + "lmc_opt_index.ckpt";
  first->save_checkpoint(path);
  LocalModelChecker resumed(in.cfg, inv.get(), in.opt);
  resumed.run_resumed(path);
  std::remove(path.c_str());
  expect_same_run(resumed, *straight);
}

// --- opt-in contract ---------------------------------------------------------

// The key/value rule the index implements: some key present in both with
// different values.
bool key_value_rule(const Projection& a, const Projection& b) {
  const std::map<std::uint64_t, std::uint64_t> am(a.begin(), a.end());
  for (const auto& [key, value] : b) {
    const auto it = am.find(key);
    if (it != am.end() && it->second != value) return true;
  }
  return false;
}

// Collect the mapped projections of a real OPT run of `in`, then check the
// contract on every one and every pair.
void expect_contract_holds(const Input& in, const Invariant& inv) {
  ASSERT_TRUE(inv.key_value_conflicts()) << inv.name();
  const Recording rec(inv);
  run_one(in, &rec, 1);
  const std::vector<Projection> seen = rec.seen();
  ASSERT_GE(seen.size(), 2u) << inv.name() << ": the run mapped too few states to test";
  for (const Projection& p : seen) {
    EXPECT_FALSE(inv.projection_self_violates(p)) << inv.name();
    for (std::size_t k = 1; k < p.size(); ++k)
      EXPECT_LT(p[k - 1].first, p[k].first) << inv.name() << ": keys not strictly ascending";
  }
  std::size_t conflicts = 0;
  for (const Projection& a : seen) {
    for (const Projection& b : seen) {
      const bool expected = key_value_rule(a, b);
      EXPECT_EQ(inv.projections_conflict(a, b), expected) << inv.name();
      conflicts += expected ? 1 : 0;
    }
  }
  EXPECT_GT(conflicts, 0u) << inv.name() << ": no conflicting pair exercised";
}

TEST(OptIndexContract, PaxosAgreement) {
  auto inv = paxos::make_agreement_invariant();
  expect_contract_holds(paxos_5_5_input(), *inv);
  expect_contract_holds(scenario_input(5, /*accept_race=*/true, 1), *inv);
}

TEST(OptIndexContract, OnePaxosAgreement) {
  auto inv = onepaxos::make_agreement_invariant();
  expect_contract_holds(onepaxos_input(), *inv);
}

TEST(OptIndexContract, TwoPhaseAtomicity) {
  twophase::AtomicityInvariant inv;
  expect_contract_holds(twophase_input(), inv);
}

}  // namespace
}  // namespace lmc
