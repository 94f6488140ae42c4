// Two-phase commit (2PC): a further checkable protocol beyond the paper's
// evaluation set, exercising the framework on a coordinator/participant
// topology (the paper's techniques are protocol-agnostic; 2PC is the
// canonical "atomicity invariant" workload).
//
// Node 0 coordinates; everyone (coordinator included) is a participant.
//   BEGIN (internal, coordinator)  -> VoteRequest broadcast
//   participant votes Yes/No       -> VoteYes / VoteNo to coordinator
//   all yes                        -> GlobalCommit broadcast
//   any no                         -> GlobalAbort broadcast
//   participant applies the decision.
//
// Invariant (atomicity): no node is COMMITTED while another is ABORTED.
// Projection: the local decision — undecided nodes are unmapped, so
// LMC-OPT materializes combinations only for decided, disagreeing pairs.
//
// Injectable bug (`bug_commit_on_majority`): the coordinator decides commit
// once a MAJORITY of yes-votes arrives instead of waiting for all — with a
// lagging no-voter, some participants commit while the no-voter (which
// aborts locally on voting no... as 2PC presumes-abort participants do
// after voting no under the buggy coordinator's premature commit) has
// already aborted. The checker exposes the disagreement window.
#pragma once

#include <memory>
#include <set>

#include "mc/invariant.hpp"
#include "runtime/state_machine.hpp"

namespace lmc::twophase {

constexpr std::uint32_t kMsgVoteRequest = 1;
constexpr std::uint32_t kMsgVoteYes = 2;
constexpr std::uint32_t kMsgVoteNo = 3;
constexpr std::uint32_t kMsgGlobalCommit = 4;
constexpr std::uint32_t kMsgGlobalAbort = 5;
constexpr std::uint32_t kEvInit = 1;
constexpr std::uint32_t kEvBegin = 2;

enum class Decision : std::uint8_t { None = 0, Committed = 1, Aborted = 2 };

struct Options {
  /// Nodes that vote No (everyone else votes Yes).
  std::set<std::uint32_t> no_voters;
  /// BUG: commit at majority-yes instead of all-yes.
  bool bug_commit_on_majority = false;
  bool operator==(const Options&) const = default;
};

class TwoPhaseNode final : public StateMachine {
 public:
  TwoPhaseNode(NodeId self, std::uint32_t n, Options opt) : self_(self), n_(n), opt_(opt) {}

  void handle_message(const Message& m, Context& ctx) override;
  std::vector<InternalEvent> enabled_internal_events() const override;
  void handle_internal(const InternalEvent& ev, Context& ctx) override;
  void serialize(Writer& w) const override;
  void deserialize(Reader& r) override;

  Decision decision() const { return decision_; }

 private:
  bool coordinator() const { return self_ == 0; }
  void decide(Decision d, Context& ctx);

  NodeId self_;
  std::uint32_t n_;
  Options opt_;

  bool initialized_ = false;
  bool begun_ = false;              // coordinator: vote requests sent
  bool voted_ = false;              // participant: vote cast
  std::set<std::uint32_t> yes_;     // coordinator: yes votes received
  std::set<std::uint32_t> no_;      // coordinator: no votes received
  bool decision_sent_ = false;      // coordinator: global decision broadcast
  Decision decision_ = Decision::None;
};

SystemConfig make_config(std::uint32_t n, Options opt);

/// Decode the local decision from a serialized TwoPhaseNode.
Decision decision_of(const Blob& state);

/// Atomicity: no committed node may coexist with an aborted node.
class AtomicityInvariant final : public Invariant {
 public:
  std::string name() const override { return "twophase.atomicity"; }
  bool holds(const SystemConfig& cfg, const SystemStateView& sys) const override;
  bool has_projection() const override { return true; }
  Projection project(const SystemConfig& cfg, NodeId n, const Blob& state) const override;
  // Default conflict rule: key 0, value = decision; differing decisions of
  // decided nodes conflict.
  bool key_value_conflicts() const override { return true; }
};

}  // namespace lmc::twophase
