// Phase-2 parallel scaling: the combination sweep + soundness verification
// ("system state creation" in Fig. 13) sharded over the persistent worker
// pool, on the §5.5 buggy-Paxos live-state workload that actually confirms
// the WiDS violation.
//
// Prints, per thread count: total wall time, the phase-2 share
// (system_state_s + soundness_wall_s + deferred_s), the speedup of that
// share over the 1-thread run, and the confirmed-violation fingerprint —
// which must be identical across all thread counts (the determinism
// contract). Exits non-zero if any run's results diverge from the
// single-threaded run.
//
// Knobs: LMC_BENCH_BUDGET_S (default 300), LMC_BENCH_THREADS (max, def. 8),
// LMC_BENCH_MAX_DEPTH (default 18).
#include <memory>

#include "bench_util.hpp"
#include "mc/replay.hpp"

using namespace lmc;
using namespace lmc::bench;

namespace {

// §5.5 live state (mirror of the unit-test builder): node0 proposed and
// learned v1; node1 accepted it; the other Learn messages were dropped.
std::vector<Blob> build_5_5_live_state(const SystemConfig& cfg, bool* ok) {
  std::vector<Blob> nodes = initial_states(cfg);
  std::vector<Message> flight;
  *ok = true;
  auto fire = [&](NodeId n) {
    auto evs = internal_events_of(cfg, n, nodes[n]);
    if (evs.empty()) {
      *ok = false;
      return;
    }
    ExecResult r = exec_internal(cfg, n, nodes[n], evs[0]);
    nodes[n] = std::move(r.state);
    for (Message& out : r.sent) flight.push_back(std::move(out));
  };
  auto deliver = [&](NodeId dst, std::uint32_t type) {
    for (std::size_t i = 0; i < flight.size(); ++i) {
      if (flight[i].dst != dst || flight[i].type != type) continue;
      Message m = flight[i];
      flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
      ExecResult r = exec_message(cfg, dst, nodes[dst], m);
      nodes[dst] = std::move(r.state);
      for (Message& out : r.sent) flight.push_back(std::move(out));
      return;
    }
    *ok = false;
  };
  for (NodeId n = 0; n < 3; ++n) fire(n);
  fire(0);
  for (NodeId n = 0; n < 3; ++n) deliver(n, paxos::kPrepare);
  for (int i = 0; i < 3; ++i) deliver(0, paxos::kPrepareResponse);
  deliver(0, paxos::kAccept);
  deliver(1, paxos::kAccept);
  deliver(0, paxos::kLearn);
  deliver(0, paxos::kLearn);
  return nodes;
}

struct Fingerprint {
  std::uint64_t confirmed = 0;
  std::uint64_t prelims = 0;
  std::uint64_t system_states = 0;
  std::uint64_t soundness_calls = 0;
  std::vector<std::vector<Hash64>> violation_hashes;
  std::vector<std::size_t> witness_sizes;

  bool operator==(const Fingerprint& o) const {
    return confirmed == o.confirmed && prelims == o.prelims &&
           system_states == o.system_states && soundness_calls == o.soundness_calls &&
           violation_hashes == o.violation_hashes && witness_sizes == o.witness_sizes;
  }
};

Fingerprint fingerprint(const LocalModelChecker& mc) {
  Fingerprint f;
  f.confirmed = mc.stats().confirmed_violations;
  f.prelims = mc.stats().prelim_violations;
  f.system_states = mc.stats().system_states;
  f.soundness_calls = mc.stats().soundness_calls;
  for (const LocalViolation& v : mc.violations()) {
    f.violation_hashes.push_back(v.state_hashes);
    f.witness_sizes.push_back(v.witness.size());
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  BenchProfile prof(argc, argv, "bench_parallel_combos");
  SystemConfig cfg = paxos::make_config(3, paxos::CoreOptions{0, /*bug=*/true},
                                        paxos::DriverConfig{{0, 1}, 1});
  auto inv = paxos::make_agreement_invariant();
  const double budget = env_f("LMC_BENCH_BUDGET_S", 300.0);
  const std::uint32_t max_threads = env_u("LMC_BENCH_THREADS", 8);
  const std::uint32_t depth = env_u("LMC_BENCH_MAX_DEPTH", 18);

  std::printf("# phase-2 parallel scaling — §5.5 buggy-Paxos live state (WiDS bug)\n");
  std::printf("# phase2_s = system_state_s + soundness_wall_s + deferred_s"
              " (sweep + soundness + drain wall time)\n");
  std::printf("%8s %10s %10s %10s %10s %10s %9s\n", "threads", "total_s", "phase2_s",
              "speedup", "combos", "confirmed", "match");

  bool ok = true;
  bool all_match = true;
  double phase2_base = -1.0;
  Fingerprint base;
  for (std::uint32_t threads = 1; threads <= max_threads; threads *= 2) {
    bool live_ok = true;
    std::vector<Blob> live = build_5_5_live_state(cfg, &live_ok);
    if (!live_ok) {
      std::printf("live-state construction failed\n");
      return 1;
    }
    LocalMcOptions opt;
    opt.max_total_depth = depth;
    opt.use_projection = true;
    opt.stop_on_confirmed = false;  // full sweep: the parallel phase dominates
    opt.time_budget_s = budget;
    opt.num_threads = threads;
    opt.profile = prof.sink();
    LocalModelChecker mc(cfg, inv.get(), opt);
    mc.run(live, {});

    const double phase2 =
        mc.stats().system_state_s + mc.stats().soundness_wall_s + mc.stats().deferred_s;
    const Fingerprint f = fingerprint(mc);
    bool match = true;
    if (threads == 1) {
      base = f;
      phase2_base = phase2;
      ok = mc.stats().confirmed_violations >= 1 && mc.stats().completed;
    } else {
      match = f == base;
      all_match = all_match && match;
    }
    std::printf("%8u %10.2f %10.2f %9.2fx %10llu %10llu %9s\n", threads,
                mc.stats().elapsed_s, phase2,
                phase2 > 0 ? phase2_base / phase2 : 0.0,
                static_cast<unsigned long long>(mc.stats().system_states),
                static_cast<unsigned long long>(mc.stats().confirmed_violations),
                match ? "yes" : "NO");
    obs::BenchRecord rec("bench_parallel_combos", "threads");
    rec.param("threads", static_cast<std::uint64_t>(threads));
    rec.param("depth", static_cast<std::uint64_t>(depth));
    add_lmc_metrics(rec, mc.stats());
    rec.metric("phase2_s", phase2);
    rec.metric("phase2_speedup", phase2 > 0 ? phase2_base / phase2 : 0.0);
    rec.metric("fingerprint_match", static_cast<std::uint64_t>(match ? 1 : 0));
    rec.emit();
  }
  std::printf("# determinism: confirmed violations & witnesses %s across thread counts\n",
              all_match ? "identical" : "DIVERGED");
  if (!ok) std::printf("# UNEXPECTED: 1-thread run found no confirmed violation\n");
  return (ok && all_match) ? 0 : 1;
}
