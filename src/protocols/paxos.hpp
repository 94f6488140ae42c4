// Paxos as a checkable StateMachine, plus the test driver of §4.2 and the
// Paxos safety invariant of §5 ("no two nodes will choose different values
// for the same index").
//
// The driver mirrors the paper: a configurable set of nodes may propose, up
// to a per-node budget; a proposal targets the first locally-known index the
// node has not seen chosen (helping contended/unfinished instances along),
// otherwise a fresh index; the proposed value is the node's id (§5.5).
// Initialization is an explicit internal event, so the three init events of
// the paper's 22-event one-proposal space are part of the explored space.
#pragma once

#include <functional>
#include <memory>
#include <set>

#include "mc/invariant.hpp"
#include "protocols/paxos_core.hpp"
#include "runtime/state_machine.hpp"

namespace lmc::paxos {

constexpr std::uint32_t kEvInit = 1;
constexpr std::uint32_t kEvPropose = 2;

struct DriverConfig {
  std::set<NodeId> proposers;         ///< nodes allowed to propose
  std::uint32_t max_proposals = 1;    ///< per-node proposal budget (per chain)
  /// Live-deployment driver only: propose for a brand-new index when all
  /// known indexes are chosen (§5.5's "each node proposes its Id for a new
  /// index"). MUST stay false inside a checker: with the monotonic shared
  /// network, chains can relay each other's frontier messages at tiny
  /// depth, so a fresh-index driver would mint unboundedly many indexes and
  /// the exploration would never reach a fixpoint. The bounded checker
  /// driver re-proposes the lowest chosen index instead (the paper's
  /// "insisting proposer" case, §4.2).
  bool allow_fresh_index = false;
  bool operator==(const DriverConfig&) const = default;
};

class PaxosNode final : public StateMachine {
 public:
  PaxosNode(NodeId self, std::uint32_t n, CoreOptions core_opt, DriverConfig driver)
      : self_(self), driver_(std::move(driver)), core_(self, n, core_opt) {}

  void handle_message(const Message& m, Context& ctx) override;
  std::vector<InternalEvent> enabled_internal_events() const override;
  void handle_internal(const InternalEvent& ev, Context& ctx) override;
  void serialize(Writer& w) const override;
  void deserialize(Reader& r) override;

  bool initialized() const { return initialized_; }
  std::uint32_t proposals_made() const { return proposals_made_; }
  const PaxosCore& core() const { return core_; }

 private:
  Index pick_index() const;

  NodeId self_;
  DriverConfig driver_;
  bool initialized_ = false;
  std::uint32_t proposals_made_ = 0;
  PaxosCore core_;
};

/// System of `n` Paxos nodes. `core_opt.bug_last_response` injects the §5.5
/// bug; `driver` shapes the explored state space.
SystemConfig make_config(std::uint32_t n, CoreOptions core_opt, DriverConfig driver);

/// Decode a PaxosNode blob and return its learner's chosen map.
std::map<Index, Value> chosen_map_of(const SystemConfig& cfg, NodeId n, const Blob& state);

/// Extracts (index -> chosen value) from a node state; lets the agreement
/// invariant work for any protocol with Paxos-style chosen outputs (plain
/// Paxos here, 1Paxos in onepaxos.hpp).
using ChosenExtractor =
    std::function<std::map<Index, Value>(const SystemConfig&, NodeId, const Blob&)>;

/// The Paxos safety property. Violated iff two nodes chose different values
/// for the same index. Projection: the chosen (index, value) pairs — node
/// states with nothing chosen are unmapped, which is exactly the LMC-OPT
/// optimization of §4.2.
class AgreementInvariant final : public Invariant {
 public:
  explicit AgreementInvariant(ChosenExtractor extractor) : extract_(std::move(extractor)) {}

  std::string name() const override { return "paxos.agreement"; }
  bool holds(const SystemConfig& cfg, const SystemStateView& sys) const override;
  /// Agreement only aggregates chosen maps over all nodes — invariant under
  /// any node permutation, so any class decomposition is fine.
  bool symmetric_under(const std::vector<std::vector<NodeId>>&) const override { return true; }
  bool has_projection() const override { return true; }
  Projection project(const SystemConfig& cfg, NodeId n, const Blob& state) const override;
  /// Chosen maps are keyed by index, one value each: the default rule.
  bool key_value_conflicts() const override { return true; }

 private:
  ChosenExtractor extract_;
};

/// Agreement invariant wired to PaxosNode states.
std::unique_ptr<AgreementInvariant> make_agreement_invariant();

}  // namespace lmc::paxos
