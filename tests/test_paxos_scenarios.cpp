// Columbia-assignment-style Paxos scenarios driven through the checker, at
// the paper's 3-node size and at 5 nodes where the acceptor class {2,3,4} is
// big enough for the symmetry reduction (DESIGN.md §13) to pay off.
//
// Scenario depths are calibrated against the combinatorial reality of the
// full (projection-free) combination sweep the reduction requires: a
// from-initial dueling-proposer run at 3 nodes already materializes 54M
// combinations by chain depth 4, so each scenario stages its interesting
// prefix concretely through the real handlers (exec_message/exec_internal)
// and lets the checker explore the short suffix where the §5.5 bug bites.
// Every 5-node scenario runs reduced AND unreduced; confirmed sets must
// agree up to acceptor permutation and reduced witnesses must replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "live_states.hpp"
#include "mc/local_mc.hpp"
#include "mc/replay.hpp"
#include "mc/symmetry/role_group.hpp"
#include "protocols/paxos.hpp"

namespace lmc {
namespace {

using namespace live_states;

// Pinned counts for the seeded-buggy (§5.5 bug_last_response) variants. A
// checker or protocol change that moves one of these must do so on purpose.
constexpr std::uint64_t kStale3Depth3Confirmed = 4;
constexpr std::uint64_t kStale3Depth4Confirmed = 60;
constexpr std::uint64_t kAccept3Confirmed = 224;        // depth 3
constexpr std::uint64_t kAccept5PlainConfirmed = 3888;  // depth 1, ordered
constexpr std::uint64_t kAccept5ReducedConfirmed = 1008;
// Pinned combination-sweep sizes for the 5-node reduced-vs-unreduced pairs:
// the reduction factor is the scenario's whole point, so its two sides are
// regression-pinned alongside the violation counts.
constexpr std::uint64_t kAccept5Combos = 5184, kAccept5Orbits = 1344;  // depth 1
constexpr std::uint64_t kDuel5Combos = 21168, kDuel5Orbits = 7840;     // depth 2
constexpr std::uint64_t kPart5Combos = 384, kPart5Orbits = 192;        // depth 3

// Checker options for the scenario runs. Symmetry requires the full-depth
// sweep (max_total_depth stays unbounded, see resolve_symmetry), so the
// space is bounded per chain instead.
LocalMcOptions scenario_opt(std::uint32_t chain_depth, bool reduce) {
  LocalMcOptions opt;
  opt.stop_on_confirmed = false;
  opt.max_chain_depth = chain_depth;
  opt.time_budget_s = 300;
  if (reduce) opt.symmetry.mode = symmetry::SymmetryMode::kAuto;
  return opt;
}

// Confirmed violations as a set of acceptor-permutation-invariant keys: the
// reduced run reports one representative per orbit, so raw counts are only
// comparable after canonicalization.
std::vector<Hash64> confirmed_canon_set(const LocalModelChecker& mc,
                                        const std::vector<std::vector<NodeId>>& classes) {
  std::vector<Hash64> keys;
  for (const LocalViolation& v : mc.violations())
    if (v.confirmed) keys.push_back(symmetry::canonical_key(v.state_hashes, classes));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// Replay every confirmed witness of `mc` through the real handlers.
void replay_all_confirmed(const SystemConfig& cfg, const LocalModelChecker& mc) {
  std::size_t replayed = 0;
  for (const LocalViolation& v : mc.violations()) {
    if (!v.confirmed) continue;
    ReplayResult r = replay_schedule(cfg, mc.initial_nodes(), mc.initial_in_flight(),
                                     v.witness, mc.events(), v.state_hashes);
    EXPECT_TRUE(r.ok) << r.error;
    ++replayed;
  }
  EXPECT_EQ(replayed, mc.stats().confirmed_violations);
}

// --- 3-node scenarios (below the class-size threshold; plain checker) ------

TEST(PaxosScenarios, DuelingProposersAtThreeNodes) {
  // Two racing proposers, every interleaving of the prepare phase. Two
  // chain steps materialize 2.2M combinations and neither variant can
  // disagree that early — the scenario pins the no-false-positive side.
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(3, bug);
    EXPECT_TRUE(cfg.symmetric_roles.empty());  // one non-proposer: no class
    Live live = build_duel_state(cfg, 3);
    LocalModelChecker mc(cfg, inv.get(), scenario_opt(2, /*reduce=*/false));
    mc.run(live.nodes, live.flight);
    ASSERT_TRUE(mc.stats().completed);
    EXPECT_EQ(mc.stats().system_states, 2202112u) << "bug=" << bug;
    EXPECT_EQ(mc.stats().confirmed_violations, 0u) << "bug=" << bug;
  }
}

TEST(PaxosScenarios, StalePromiseAtThreeNodes) {
  // The exact §5.5 experiment: proposer 1 wakes up against node0's
  // half-learned choice and the checker must FIND the bad interleaving.
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(3, bug);
    Live live = build_stale_promise_state(cfg, 3);
    LocalModelChecker mc(cfg, inv.get(), scenario_opt(3, /*reduce=*/false));
    mc.run(live.nodes, live.flight);
    ASSERT_TRUE(mc.stats().completed);
    if (!bug) {
      EXPECT_EQ(mc.stats().confirmed_violations, 0u);
    } else {
      EXPECT_EQ(mc.stats().confirmed_violations, kStale3Depth3Confirmed);
      replay_all_confirmed(cfg, mc);
    }
  }
  // One chain step deeper the buggy variant's violation count grows 4 -> 60;
  // pinned so depth handling regressions show up as a count shift.
  SystemConfig buggy = duel_cfg(3, /*bug=*/true);
  Live live = build_stale_promise_state(buggy, 3);
  LocalModelChecker mc(buggy, inv.get(), scenario_opt(4, /*reduce=*/false));
  mc.run(live.nodes, live.flight);
  ASSERT_TRUE(mc.stats().completed);
  EXPECT_EQ(mc.stats().confirmed_violations, kStale3Depth4Confirmed);
}

TEST(PaxosScenarios, AcceptRaceAtThreeNodes) {
  // The fully staged second round: v2's Accepts landed, one Learn short of
  // disagreement. The buggy variant confirms violations immediately; the
  // correct one never does (it re-proposed v1, so both rounds agree).
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(3, bug);
    Live live = build_accept_race_state(cfg, 3);
    LocalModelChecker mc(cfg, inv.get(), scenario_opt(3, /*reduce=*/false));
    mc.run(live.nodes, live.flight);
    ASSERT_TRUE(mc.stats().completed);
    if (!bug) {
      EXPECT_EQ(mc.stats().confirmed_violations, 0u);
    } else {
      EXPECT_EQ(mc.stats().confirmed_violations, kAccept3Confirmed);
      replay_all_confirmed(cfg, mc);
    }
  }
}

// --- 5-node scenarios: reduced vs unreduced differential -------------------

struct ScenarioRuns {
  LocalMcStats plain;
  LocalMcStats reduced;
  symmetry::SymmetryStats sym;
  std::vector<Hash64> plain_keys;
  std::vector<Hash64> reduced_keys;
};

// Run one 5-node scenario with the reduction off and on; the confirmed sets
// must agree up to acceptor permutation, the represented counter must cover
// the plain sweep, and the reduced run's witnesses must replay.
ScenarioRuns run_both(const SystemConfig& cfg, const Invariant* inv, const Live& live,
                      std::uint32_t chain_depth) {
  ScenarioRuns out;
  const std::vector<std::vector<NodeId>>& classes = cfg.symmetric_roles;

  LocalModelChecker plain(cfg, inv, scenario_opt(chain_depth, false));
  plain.run(live.nodes, live.flight);
  EXPECT_TRUE(plain.stats().completed);
  EXPECT_EQ(plain.symmetry_stats().active, 0u);
  out.plain = plain.stats();
  out.plain_keys = confirmed_canon_set(plain, classes);

  LocalModelChecker reduced(cfg, inv, scenario_opt(chain_depth, true));
  reduced.run(live.nodes, live.flight);
  EXPECT_TRUE(reduced.stats().completed);
  EXPECT_EQ(reduced.symmetry_stats().active, 1u) << "acceptor class should activate";
  out.reduced = reduced.stats();
  out.sym = reduced.symmetry_stats();
  out.reduced_keys = confirmed_canon_set(reduced, classes);

  EXPECT_EQ(out.plain_keys, out.reduced_keys)
      << "reduced and unreduced confirmed sets differ mod acceptor permutation";
  // The reduced sweep materializes exactly its orbits, and the represented
  // counter must account for at least every ordered combination the plain
  // sweep saw (it may exceed it: orbits count unordered members even when
  // per-member masks make some arrangements unreachable).
  EXPECT_EQ(out.reduced.system_states, out.sym.orbits);
  EXPECT_GE(out.sym.represented, out.plain.system_states);
  replay_all_confirmed(cfg, reduced);
  return out;
}

TEST(PaxosScenarios, DuelingProposersAtFiveNodesReduced) {
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(5, bug);
    ASSERT_EQ(cfg.symmetric_roles.size(), 1u);
    ASSERT_EQ(cfg.symmetric_roles[0], (std::vector<NodeId>{2, 3, 4}));
    Live live = build_duel_state(cfg, 5);
    ScenarioRuns r = run_both(cfg, inv.get(), live, /*chain_depth=*/2);
    EXPECT_EQ(r.plain.system_states, kDuel5Combos) << "bug=" << bug;
    EXPECT_EQ(r.reduced.system_states, kDuel5Orbits) << "bug=" << bug;
    EXPECT_EQ(r.plain.confirmed_violations, 0u) << "bug=" << bug;
    EXPECT_EQ(r.reduced.confirmed_violations, 0u) << "bug=" << bug;
  }
}

TEST(PaxosScenarios, StalePromiseAtFiveNodesReduced) {
  // The acceptor class {2,3,4} starts ASYMMETRIC here: acceptor 2 accepted
  // node0's value, 3 and 4 only promised. The canonicalizer's per-member
  // realizability masks must carry that distinction — a reduction treating
  // the class as fully interchangeable would invent or lose violations and
  // this differential would catch it.
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(5, bug);
    Live live = build_stale_promise_state(cfg, 5);
    ScenarioRuns r = run_both(cfg, inv.get(), live, /*chain_depth=*/3);
    EXPECT_EQ(r.plain.confirmed_violations, 0u) << "bug=" << bug;
    EXPECT_EQ(r.reduced.confirmed_violations, 0u) << "bug=" << bug;
    EXPECT_LT(r.reduced.system_states, r.plain.system_states);
  }
}

TEST(PaxosScenarios, AcceptRaceAtFiveNodesReduced) {
  // The seeded-buggy 5-node headline: one chain step from the staged second
  // round, the ordered sweep confirms 3888 violating combinations and the
  // reduced sweep 1008 orbit representatives — same violation set modulo
  // acceptor permutation, every reduced witness replayed.
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(5, bug);
    Live live = build_accept_race_state(cfg, 5);
    ScenarioRuns r = run_both(cfg, inv.get(), live, /*chain_depth=*/1);
    EXPECT_EQ(r.plain.system_states, kAccept5Combos) << "bug=" << bug;
    EXPECT_EQ(r.reduced.system_states, kAccept5Orbits) << "bug=" << bug;
    if (!bug) {
      EXPECT_EQ(r.plain.confirmed_violations, 0u);
      EXPECT_EQ(r.reduced.confirmed_violations, 0u);
    } else {
      EXPECT_EQ(r.plain.confirmed_violations, kAccept5PlainConfirmed);
      EXPECT_EQ(r.reduced.confirmed_violations, kAccept5ReducedConfirmed);
      EXPECT_FALSE(r.plain_keys.empty());
    }
  }
}

TEST(PaxosScenarios, MinorityPartitionCannotDisagree) {
  // A partition alone must never produce disagreement: nothing was accepted,
  // so the healed network just lets proposer 1 choose cleanly — in the buggy
  // variant too (no stale accepted value exists to mis-prefer).
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(5, bug);
    Live live = build_partition_state(cfg, 5);
    ScenarioRuns r = run_both(cfg, inv.get(), live, /*chain_depth=*/3);
    EXPECT_EQ(r.plain.system_states, kPart5Combos) << "bug=" << bug;
    EXPECT_EQ(r.reduced.system_states, kPart5Orbits) << "bug=" << bug;
    EXPECT_EQ(r.plain.confirmed_violations, 0u) << "bug=" << bug;
    EXPECT_EQ(r.reduced.confirmed_violations, 0u) << "bug=" << bug;
    EXPECT_TRUE(r.reduced_keys.empty());
  }
}

}  // namespace
}  // namespace lmc
