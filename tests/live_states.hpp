// Live states staged through the real handlers (exec_message/exec_internal)
// for the checker tests: the Columbia-style Paxos scenarios (dueling
// proposers, the §5.5 stale promise generalized to n nodes, the staged
// accept-phase race, a minority partition) and the §5.6 1Paxos state with
// the "++" bug. Each builder reports staging failures through gtest.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "protocols/onepaxos.hpp"
#include "protocols/paxos.hpp"
#include "runtime/state_machine.hpp"

namespace lmc::live_states {

// Two proposers (nodes 0 and 1), one proposal each.
inline SystemConfig duel_cfg(std::uint32_t n, bool bug) {
  return paxos::make_config(n, paxos::CoreOptions{0, bug}, paxos::DriverConfig{{0, 1}, 1});
}

inline bool deliver_one(const SystemConfig& cfg, std::vector<Blob>& nodes,
                        std::vector<Message>& flight, NodeId dst, std::uint32_t type) {
  for (std::size_t i = 0; i < flight.size(); ++i) {
    if (flight[i].dst == dst && flight[i].type == type) {
      Message m = flight[i];
      flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
      ExecResult r = exec_message(cfg, dst, nodes[dst], m);
      EXPECT_FALSE(r.assert_failed);
      nodes[dst] = std::move(r.state);
      for (Message& out : r.sent) flight.push_back(std::move(out));
      return true;
    }
  }
  return false;
}

inline void fire_internal(const SystemConfig& cfg, std::vector<Blob>& nodes,
                          std::vector<Message>& flight, NodeId n) {
  auto evs = internal_events_of(cfg, n, nodes[n]);
  ASSERT_FALSE(evs.empty());
  ExecResult r = exec_internal(cfg, n, nodes[n], evs[0]);
  ASSERT_FALSE(r.assert_failed);
  nodes[n] = std::move(r.state);
  for (Message& out : r.sent) flight.push_back(std::move(out));
}

struct Live {
  std::vector<Blob> nodes;
  std::vector<Message> flight;
};

// Both proposers have fired their proposal; every Prepare is in flight.
inline Live build_duel_state(const SystemConfig& cfg, std::uint32_t n) {
  Live l;
  l.nodes = initial_states(cfg);
  for (NodeId i = 0; i < n; ++i) fire_internal(cfg, l.nodes, l.flight, i);  // init
  fire_internal(cfg, l.nodes, l.flight, 0);
  fire_internal(cfg, l.nodes, l.flight, 1);
  return l;
}

// §5.5 generalized to n nodes: node0's proposal is chosen at the majority
// {0..maj-1}, but only node0 learned it — every other Learn was dropped
// (the "acceptor crashed after promising" shape). Proposer 1 has not moved
// yet; the checker must FIND the interleaving where its second round
// collects a stale promise set the bug_last_response variant mishandles.
inline Live build_stale_promise_state(const SystemConfig& cfg, std::uint32_t n) {
  Live l;
  l.nodes = initial_states(cfg);
  for (NodeId i = 0; i < n; ++i) fire_internal(cfg, l.nodes, l.flight, i);
  fire_internal(cfg, l.nodes, l.flight, 0);
  for (NodeId i = 0; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kPrepare));
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 0, paxos::kPrepareResponse));
  const std::uint32_t maj = n / 2 + 1;
  for (NodeId i = 0; i < maj; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kAccept));
  for (std::uint32_t i = 0; i < maj; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 0, paxos::kLearn));
  l.flight.clear();

  auto chosen0 = paxos::chosen_map_of(cfg, 0, l.nodes[0]);
  EXPECT_EQ(chosen0.size(), 1u);
  EXPECT_EQ(chosen0[0], 1u);  // node0's proposed value is self+1
  for (NodeId i = 1; i < n; ++i)
    EXPECT_TRUE(paxos::chosen_map_of(cfg, i, l.nodes[i]).empty());
  return l;
}

// The stale-promise scenario staged all the way into proposer 1's second
// round (at 5 nodes the checker cannot reach this interleaving within a
// feasible chain depth, so the prefix is concrete): proposer 1's Prepares
// are delivered so that a PROMISE-ONLY response is the last one inside its
// first quorum — exactly the ordering where bug_last_response discards the
// accepted value and proposes its own — then its Accepts land everywhere
// and all but maj-1 of the round-2 Learns stay in flight.
inline Live build_accept_race_state(const SystemConfig& cfg, std::uint32_t n) {
  Live l;
  l.nodes = initial_states(cfg);
  const std::uint32_t maj = n / 2 + 1;
  for (NodeId i = 0; i < n; ++i) fire_internal(cfg, l.nodes, l.flight, i);
  // Round 1 = the stale-promise prefix: v1 chosen at {0..maj-1}, node0 knows.
  fire_internal(cfg, l.nodes, l.flight, 0);
  for (NodeId i = 0; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kPrepare));
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 0, paxos::kPrepareResponse));
  for (NodeId i = 0; i < maj; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kAccept));
  for (std::uint32_t i = 0; i < maj; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 0, paxos::kLearn));
  l.flight.clear();
  // Round 2: proposer 1 prepares; an empty promise is last in its quorum.
  fire_internal(cfg, l.nodes, l.flight, 1);
  EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 0, paxos::kPrepare));
  for (NodeId i = maj; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kPrepare));
  for (NodeId i = 1; i < maj; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kPrepare));
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 1, paxos::kPrepareResponse));
  for (NodeId i = 0; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kAccept));
  for (std::uint32_t i = 0; i + 1 < maj; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 1, paxos::kLearn));
  return l;
}

// Minority partition: node0's Prepare reached only {0,1} — no quorum at
// n>=3 — before the partition ate the rest. Nothing was ever accepted.
inline Live build_partition_state(const SystemConfig& cfg, std::uint32_t n) {
  Live l;
  l.nodes = initial_states(cfg);
  for (NodeId i = 0; i < n; ++i) fire_internal(cfg, l.nodes, l.flight, i);
  fire_internal(cfg, l.nodes, l.flight, 0);
  for (NodeId i = 0; i < 2; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kPrepare));
  for (std::uint32_t i = 0; i < 2; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 0, paxos::kPrepareResponse));
  l.flight.clear();
  for (NodeId i = 0; i < n; ++i)
    EXPECT_TRUE(paxos::chosen_map_of(cfg, i, l.nodes[i]).empty());
  return l;
}

/// FIFO-deliver every in-flight message, discarding those matching `drop`.
inline void pump(const SystemConfig& cfg, std::vector<Blob>& nodes, std::vector<Message>& flight,
                 const std::function<bool(const Message&)>& drop) {
  while (!flight.empty()) {
    Message m = flight.front();
    flight.erase(flight.begin());
    if (drop(m)) continue;
    ExecResult r = exec_message(cfg, m.dst, nodes[m.dst], m);
    ASSERT_FALSE(r.assert_failed) << r.assert_msg;
    nodes[m.dst] = std::move(r.state);
    for (Message& out : r.sent) flight.push_back(std::move(out));
  }
}

// Build the §5.6 live state with the ++ bug: N3 (node 2) campaigns and wins
// leadership while every message to N1 (node 0) is dropped; the new leader
// proposes its value, chosen by nodes 1 and 2. Node 0 still believes it is
// the leader and its cached acceptor is itself (the bug).
inline std::vector<Blob> build_5_6_live_state(const SystemConfig& cfg) {
  std::vector<Blob> nodes = initial_states(cfg);
  std::vector<Message> flight;
  for (NodeId n = 0; n < 3; ++n) {
    ExecResult r = exec_internal(cfg, n, nodes[n], {onepaxos::kEvInit, {}});
    EXPECT_FALSE(r.assert_failed);
    nodes[n] = std::move(r.state);
  }
  auto drop_to_0 = [](const Message& m) { return m.dst == 0; };

  ExecResult r = exec_internal(cfg, 2, nodes[2], {onepaxos::kEvSuspectLeader, {}});
  EXPECT_FALSE(r.assert_failed);
  nodes[2] = std::move(r.state);
  for (Message& m : r.sent) flight.push_back(std::move(m));
  pump(cfg, nodes, flight, drop_to_0);

  // Node 2 is now leader with acceptor node 1; it proposes.
  auto evs = internal_events_of(cfg, 2, nodes[2]);
  bool proposed = false;
  for (const InternalEvent& ev : evs) {
    if (ev.kind == onepaxos::kEvPropose) {
      ExecResult rr = exec_internal(cfg, 2, nodes[2], ev);
      EXPECT_FALSE(rr.assert_failed);
      nodes[2] = std::move(rr.state);
      for (Message& m : rr.sent) flight.push_back(std::move(m));
      proposed = true;
    }
  }
  EXPECT_TRUE(proposed);
  pump(cfg, nodes, flight, drop_to_0);
  return nodes;
}

}  // namespace lmc::live_states
