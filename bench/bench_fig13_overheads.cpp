// Figure 13: the overheads of LMC while model checking a Paxos
// implementation with the injected §5.5 bug, starting from the paper's live
// state.
//
// Three configurations isolate the cost components:
//   LMC-explore          — system-state creation disabled: pure exploration;
//   LMC-OPT-system-state — system states created/checked, soundness off;
//   LMC-OPT              — the full checker (stops when it confirms the bug).
// Paper result: system-state overhead is zero until the first conflicting
// values appear, then grows; soundness verification dominates near the bug
// (773 calls, 45 ms average, 427,731 sequences in their run).
#include "bench_util.hpp"

using namespace lmc;
using namespace lmc::bench;

namespace {

// The §5.5 live state: node0 proposed v1 for index 0, nodes 0+1 accepted,
// only node0 learned it.
std::vector<Blob> build_live_state(const SystemConfig& cfg) {
  std::vector<Blob> nodes = initial_states(cfg);
  std::vector<Message> flight;
  auto deliver = [&](NodeId dst, std::uint32_t type) {
    for (std::size_t i = 0; i < flight.size(); ++i) {
      if (flight[i].dst == dst && flight[i].type == type) {
        Message m = flight[i];
        flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
        ExecResult r = exec_message(cfg, dst, nodes[dst], m);
        nodes[dst] = std::move(r.state);
        for (Message& o : r.sent) flight.push_back(std::move(o));
        return;
      }
    }
  };
  for (NodeId n = 0; n < 3; ++n) {
    ExecResult r = exec_internal(cfg, n, nodes[n], {paxos::kEvInit, {}});
    nodes[n] = std::move(r.state);
  }
  auto evs = internal_events_of(cfg, 0, nodes[0]);
  ExecResult r = exec_internal(cfg, 0, nodes[0], evs[0]);
  nodes[0] = std::move(r.state);
  for (Message& m : r.sent) flight.push_back(std::move(m));
  for (NodeId n = 0; n < 3; ++n) deliver(n, paxos::kPrepare);
  for (int i = 0; i < 3; ++i) deliver(0, paxos::kPrepareResponse);
  deliver(0, paxos::kAccept);
  deliver(1, paxos::kAccept);
  deliver(0, paxos::kLearn);
  deliver(0, paxos::kLearn);
  return nodes;
}

}  // namespace

int main(int argc, char** argv) {
  BenchProfile prof(argc, argv, "bench_fig13_overheads");
  paxos::DriverConfig d;
  d.proposers = {0, 1};
  d.max_proposals = 1;
  SystemConfig cfg = paxos::make_config(3, paxos::CoreOptions{0, /*bug=*/true}, d);
  auto inv = paxos::make_agreement_invariant();
  std::vector<Blob> live = build_live_state(cfg);

  const double budget = env_f("LMC_BENCH_BUDGET_S", 30.0);
  const std::uint32_t max_depth = env_u("LMC_BENCH_MAX_DEPTH", 16);

  std::printf("# Figure 13: buggy Paxos from the live state, elapsed seconds vs depth\n");
  std::printf("%8s %14s %20s %14s %10s\n", "depth", "LMC-explore", "LMC-OPT-system-state",
              "LMC-OPT", "bug");
  LocalMcStats last_full{};
  for (std::uint32_t depth = 2; depth <= max_depth; depth += 2) {
    auto run = [&](bool system_states, bool soundness) {
      LocalMcOptions opt;
      opt.max_total_depth = depth;
      opt.time_budget_s = budget;
      opt.use_projection = true;
      opt.enable_system_states = system_states;
      opt.enable_soundness = soundness;
      opt.profile = prof.sink();
      LocalModelChecker mc(cfg, inv.get(), opt);
      mc.run(live, {});
      return mc.stats();
    };
    LocalMcStats explore = run(false, false);
    LocalMcStats system = run(true, false);
    LocalMcStats full = run(true, true);
    std::printf("%8u %14.4f %20.4f %14.4f %10s\n", depth, explore.elapsed_s, system.elapsed_s,
                full.elapsed_s, full.confirmed_violations > 0 ? "FOUND" : "-");
    last_full = full;
  }
  std::printf(
      "\n# last full run: %llu soundness calls, %llu joint-search expansions,\n"
      "# %llu prelim violations (%llu skipped by the feasibility cache), %.3fs in soundness\n",
      static_cast<unsigned long long>(last_full.soundness_calls),
      static_cast<unsigned long long>(last_full.sequences_checked),
      static_cast<unsigned long long>(last_full.prelim_violations),
      static_cast<unsigned long long>(last_full.feasibility_skips),
      last_full.soundness_wall_s + last_full.deferred_s);
  std::printf("# paper: 773 soundness calls, 45ms each, 427,731 sequences; soundness\n");
  std::printf("# dominates as the bug nears; system-state overhead zero until conflicts.\n");

  obs::BenchRecord rec("bench_fig13_overheads", "last_full_run");
  rec.param("depth", static_cast<std::uint64_t>(max_depth));
  add_lmc_metrics(rec, last_full);
  rec.metric("sequences_checked", last_full.sequences_checked);
  rec.metric("feasibility_skips", last_full.feasibility_skips);
  rec.emit();
  return 0;
}
