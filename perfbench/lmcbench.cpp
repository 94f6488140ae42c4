// lmcbench: the repo benchmark harness (see perfbench/README.md).
//
//   lmcbench --workload paxos55_sweep|paxos_online|zoo_specs --seed N
//            --seconds S --trace 0|1 [--short] [--heldout] [--items LIST]
//
// Runs one workload through the checker's public API in passes until S
// seconds have been measured (at least one pass). A pass sets the workload
// up from scratch, runs every check, and checks each verdict against a known
// answer. Every check runs under deterministic work bounds (depth and
// transition budgets, never a wall-clock budget), so a pass does identical
// work on any machine and only its speed varies.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates traced and
// untraced passes: traced passes record a span around every public call the
// harness makes and attach an obs::ProfileSink; the per-layer metrics come
// from them, and the tracing overhead is traced minus untraced verdict_s.
// One more traced pass runs the checker with 2 worker threads; its work
// counters must equal the 1-thread passes'.
//
// --seed permutes the order in which a pass runs its checks (and replays
// paxos55_sweep's witnesses); the inputs themselves are the item list, so
// runs at different seeds do the same work. --items replaces the item list;
// --heldout selects the held-out list recorded in the README.
//
// The last stdout line is one JSON object; perfbench/run.py turns it into
// the benchmark result.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "dsl/interp.hpp"
#include "dsl/loader.hpp"
#include "mc/global_mc.hpp"
#include "mc/local_mc.hpp"
#include "mc/replay.hpp"
#include "obs/prof.hpp"
#include "online/crystalball.hpp"
#include "online/live_runner.hpp"
#include "protocols/paxos.hpp"
#include "runtime/hash.hpp"

namespace {

using namespace lmc;

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and check id, kept in memory. Only the
// harness records them, around its own calls into the checker.

struct Span {
  const char* name;
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;
  std::uint64_t check = 0;
};

class Tracer {
 public:
  bool on = false;
  std::uint64_t check = 0;  ///< id of the check in progress (0 = none)

  int open(const char* name) {
    if (!on) return -1;
    spans_.push_back({name, now_s(), 0.0, parent(), check});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = now_s();
    stack_.pop_back();
  }
  /// A finished child of the innermost open span, timed by the caller.
  void add(const char* name, double t0, double t1) {
    if (on) spans_.push_back({name, t0, t1, parent(), check});
  }
  /// Self time per span name: each span's duration minus its children's.
  std::map<std::string, double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].t1 - spans_[i].t0;
    for (const Span& s : spans_)
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
  }
  /// The spans as JSON lines, times relative to the first span's start.
  std::string jsonl(std::size_t pass) const {
    std::string out;
    const double base = spans_.empty() ? 0.0 : spans_.front().t0;
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "{\"pass\": %zu, \"check\": %" PRIu64 ", \"id\": %zu, \"parent\": %d, "
                    "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                    pass, s.check, i, s.parent, s.name, s.t0 - base, s.t1 - base);
      out += buf;
    }
    return out;
  }
  void clear() {
    spans_.clear();
    stack_.clear();
    check = 0;
  }

 private:
  int parent() const { return stack_.empty() ? -1 : stack_.back(); }
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Every span name the harness records; the traced run reports each one's
/// self time (0 where a workload never opens it).
const char* const kSpanNames[] = {
    "setup",      "dsl.load",        "dsl.compile", "online.prelude", "verdict",
    "lmc.construct", "lmc.run",      "replay",      "persist.save",   "persist.load",
    "crystalball.run", "online.period"};

// ---------------------------------------------------------------------------
// Per-pass measurements.

/// Work counters that must repeat exactly across passes, runs and (for
/// paxos_online) thread counts.
struct Identity {
  std::uint64_t transitions = 0, node_states = 0, system_states = 0, prelims = 0,
                soundness_calls = 0, feasibility_skips = 0, drain_jobs = 0, confirmed = 0;
  bool operator==(const Identity&) const = default;
  std::string text() const {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "lmc.transitions=%" PRIu64 " lmc.node_states=%" PRIu64
                  " sweep.system_states=%" PRIu64 " sweep.prelim_violations=%" PRIu64
                  " soundness.calls=%" PRIu64 " soundness.feasibility_skips=%" PRIu64
                  " drain.jobs=%" PRIu64 " soundness.confirmed=%" PRIu64,
                  transitions, node_states, system_states, prelims, soundness_calls,
                  feasibility_skips, drain_jobs, confirmed);
    return buf;
  }
};

struct Layers {
  Identity id;
  std::uint64_t iplus_msgs = 0, dup_msgs_suppressed = 0, history_skips = 0, stored_bytes = 0,
                deferred = 0, bytes_hashed = 0, bytes_serialized = 0, witnesses = 0,
                persist_bytes = 0, periods = 0;
  double construct_s = 0, run_s = 0, sweep_s = 0, soundness_s = 0, drain_s = 0, replay_s = 0,
         save_s = 0, load_s = 0, live_s = 0, prelude_s = 0, dsl_load_s = 0;

  void add_stats(const LocalMcStats& s) {
    id.transitions += s.transitions;
    id.node_states += s.node_states;
    id.system_states += s.system_states;
    id.prelims += s.prelim_violations;
    id.soundness_calls += s.soundness_calls;
    id.feasibility_skips += s.feasibility_skips;
    id.drain_jobs += s.deferred_processed;
    id.confirmed += s.confirmed_violations;
    iplus_msgs += s.messages_in_iplus;
    dup_msgs_suppressed += s.dup_msgs_suppressed;
    history_skips += s.history_skips;
    stored_bytes = std::max<std::uint64_t>(stored_bytes, s.stored_bytes);
    deferred += s.soundness_deferred;
    sweep_s += s.system_state_s;
    soundness_s += s.soundness_wall_s;
    drain_s += s.deferred_s;
  }
};

struct Pass {
  double setup_s = 0.0;    ///< median over the pass's set-up repetitions
  double verdict_s = 0.0;
  std::vector<double> check_s;
  std::uint64_t failed = 0;
  Layers L;
  std::map<std::string, double> self;  ///< span self times (traced passes)
  std::string prof_identity;           ///< ProfileSink::identity_text() (traced passes)
  double rss_mb = 0.0;                 ///< peak RSS of the pass's process
};

// A pass runs in a child process and comes back to the parent as bytes.
static_assert(std::is_trivially_copyable_v<Layers>);

class Bytes {
 public:
  template <class T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    s_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void put_str(const std::string& v) {
    put<std::uint64_t>(v.size());
    s_ += v;
  }
  template <class T>
  T get() {
    T v;
    need(sizeof v);
    std::memcpy(&v, s_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }
  std::string get_str() {
    const auto n = static_cast<std::size_t>(get<std::uint64_t>());
    need(n);
    std::string v = s_.substr(pos_, n);
    pos_ += n;
    return v;
  }
  std::string& str() { return s_; }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > s_.size()) throw std::runtime_error("truncated pass record");
  }
  std::string s_;
  std::size_t pos_ = 0;
};

std::string encode(const Pass& p) {
  Bytes b;
  b.put(p.setup_s);
  b.put(p.verdict_s);
  b.put(p.failed);
  b.put(p.L);
  b.put<std::uint64_t>(p.check_s.size());
  for (double c : p.check_s) b.put(c);
  b.put<std::uint64_t>(p.self.size());
  for (const auto& [name, secs] : p.self) {
    b.put_str(name);
    b.put(secs);
  }
  b.put_str(p.prof_identity);
  return std::move(b.str());
}

Pass decode(std::string bytes) {
  Bytes b;
  b.str() = std::move(bytes);
  Pass p;
  p.setup_s = b.get<double>();
  p.verdict_s = b.get<double>();
  p.failed = b.get<std::uint64_t>();
  p.L = b.get<Layers>();
  for (auto n = b.get<std::uint64_t>(); n > 0; --n) p.check_s.push_back(b.get<double>());
  for (auto n = b.get<std::uint64_t>(); n > 0; --n) {
    std::string name = b.get_str();
    p.self[name] = b.get<double>();
  }
  p.prof_identity = b.get_str();
  return p;
}

/// One check's failure bookkeeping: a check counts as failed at most once.
class CheckGuard {
 public:
  CheckGuard(Pass& p, std::string label) : p_(p), label_(std::move(label)) {}
  void fail(const std::string& why) {
    if (!bad_) ++p_.failed;
    bad_ = true;
    std::fprintf(stderr, "lmcbench: FAILED check %s: %s\n", label_.c_str(), why.c_str());
  }

 private:
  Pass& p_;
  std::string label_;
  bool bad_ = false;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Time `make` several times and keep the last result; the pass's setup_s
/// is the median. Only the last repetition is traced and feeds the layer
/// walls, so span and layer totals describe one set-up.
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 200;
constexpr double kMinSetupSpend = 0.05;

template <class Model>
std::unique_ptr<Model> timed_setup(Pass& p, Tracer& tr,
                                   const std::function<std::unique_ptr<Model>(Layers&)>& make) {
  std::vector<double> reps;
  double spent = 0.0;
  const bool tracing = tr.on;
  tr.on = false;
  while (reps.size() + 1 < kMinSetupReps ||
         (spent < kMinSetupSpend && reps.size() + 1 < kMaxSetupReps)) {
    Layers scratch;
    const double t0 = now_s();
    std::unique_ptr<Model> m = make(scratch);
    const double dt = now_s() - t0;
    reps.push_back(dt);
    spent += dt;
  }
  tr.on = tracing;
  std::unique_ptr<Model> m;
  {
    Scope s(tr, "setup");
    const double t0 = now_s();
    m = make(p.L);
    reps.push_back(now_s() - t0);
  }
  p.setup_s = median(reps);
  return m;
}

/// What a forked child wrote to its pipe, and the child's peak RSS.
struct ChildResult {
  std::string out;
  double rss_mb = 0.0;
};

/// Run `body` in a forked child process and wait for it. Each pass runs in
/// its own process, so its peak RSS is its own and no heap state carries
/// over between passes. The parent never starts threads (the checker's
/// worker pools only exist inside children), so forking is safe.
ChildResult run_in_child(const std::function<std::string()>& body) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    std::string out;
    int rc = 0;
    try {
      out = body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lmcbench: %s\n", e.what());
      rc = 1;
    }
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t w = write(fds[1], out.data() + off, out.size() - off);
      if (w <= 0) _exit(1);
      off += static_cast<std::size_t>(w);
    }
    close(fds[1]);
    std::fflush(stderr);
    _exit(rc);
  }
  close(fds[1]);
  ChildResult r;
  char buf[65536];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;)
    r.out.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("child process failed");
  r.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return r;
}

Hash64 tuple_hash(const std::vector<Hash64>& tuple) {
  Hash64 h = 0x9e3779b97f4a7c15ULL;
  for (Hash64 nh : tuple) h = hash_combine(h, nh);
  return h;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

struct Opts {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  bool heldout = false;
  std::string items;  ///< empty = the workload's default list
  std::string spans;  ///< traced runs: append every traced pass's spans here
};

/// Timed body of a workload: run one pass at the given checker thread count.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed one-off work before the first pass (reference verdicts).
  virtual void prepare() {}
  virtual Pass run_pass(Tracer& tr, obs::ProfileSink* prof, unsigned threads) = 0;
  virtual std::string describe() const = 0;
};

template <class T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::shuffle(v.begin(), v.end(), rng);
}

/// One LocalModelChecker check from outside: ctor and run() timed and
/// spanned separately; returns the check's wall (ctor + run).
double timed_check(Tracer& tr, Layers& L, std::unique_ptr<LocalModelChecker>& mc,
                   const SystemConfig& cfg, const Invariant* inv, const LocalMcOptions& opt,
                   const std::vector<Blob>& nodes, const std::vector<Message>& in_flight) {
  const double t0 = now_s();
  {
    Scope s(tr, "lmc.construct");
    mc = std::make_unique<LocalModelChecker>(cfg, inv, opt);
  }
  const double t1 = now_s();
  {
    Scope s(tr, "lmc.run");
    mc->run(nodes, in_flight);
  }
  const double t2 = now_s();
  L.construct_s += t1 - t0;
  L.run_s += t2 - t1;
  L.add_stats(mc->stats());
  return t2 - t0;
}

/// Replay every confirmed witness of `mc` in `order`; returns false on the
/// first that does not reproduce its violating states.
bool replay_witnesses(Tracer& tr, Layers& L, const SystemConfig& cfg,
                      const LocalModelChecker& mc, std::vector<std::size_t> order,
                      std::string* err) {
  Scope s(tr, "replay");
  const double t0 = now_s();
  bool ok = true;
  for (std::size_t i : order) {
    const LocalViolation& v = mc.violations()[i];
    if (!v.confirmed) continue;
    ReplayResult r = replay_schedule(cfg, mc.initial_nodes(), mc.initial_in_flight(), v.witness,
                                     mc.events(), v.state_hashes);
    ++L.witnesses;
    if (!r.ok && ok) {
      ok = false;
      *err = "witness " + std::to_string(i) + " fails replay: " + r.error;
    }
  }
  L.replay_s += now_s() - t0;
  return ok;
}

// ---------------------------------------------------------------------------
// paxos55_sweep: the §5.5 buggy-Paxos live state, LMC-OPT at depth 18 with a
// full sweep, then witness replay and a checkpoint round trip.

/// §5.5 live state: node0 proposed and learned v1, node1 accepted it, the
/// other Learn messages were dropped (bench_parallel_combos' builder).
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

class Paxos55Sweep final : public Workload {
 public:
  static constexpr std::uint32_t kDepth = 18;
  static constexpr std::uint64_t kConfirmed = 132;

  explicit Paxos55Sweep(std::uint64_t seed) : seed_(seed) {}

  std::string describe() const override {
    return "paxos55_sweep: §5.5 buggy-Paxos live state, LMC-OPT depth 18, full sweep; "
           "known answer 132 confirmed";
  }

  Pass run_pass(Tracer& tr, obs::ProfileSink* prof, unsigned threads) override {
    struct Model {
      SystemConfig cfg;
      std::unique_ptr<Invariant> inv;
      std::vector<Blob> live;
      bool ok = false;
    };
    Pass p;
    std::unique_ptr<Model> m = timed_setup<Model>(p, tr, [](Layers&) {
      auto mm = std::make_unique<Model>();
      mm->cfg = paxos::make_config(3, paxos::CoreOptions{0, /*bug=*/true},
                                   paxos::DriverConfig{{0, 1}, 1});
      mm->inv = paxos::make_agreement_invariant();
      mm->live = build_5_5_live_state(mm->cfg, &mm->ok);
      return mm;
    });

    const double t0 = now_s();
    Scope verdict(tr, "verdict");
    tr.check = 1;
    CheckGuard g(p, "paxos55_sweep");
    try {
      if (!m->ok) throw std::runtime_error("live-state construction failed");
      LocalMcOptions opt;
      opt.max_total_depth = kDepth;
      opt.use_projection = true;
      opt.stop_on_confirmed = false;
      opt.num_threads = threads;
      opt.profile = prof;
      std::unique_ptr<LocalModelChecker> mc;
      p.check_s.push_back(timed_check(tr, p.L, mc, m->cfg, m->inv.get(), opt, m->live, {}));
      const LocalMcStats& st = mc->stats();
      if (!st.completed) g.fail("search did not complete within its depth bound");
      if (st.confirmed_violations != kConfirmed)
        g.fail("confirmed " + std::to_string(st.confirmed_violations) + ", expected " +
               std::to_string(kConfirmed));

      std::vector<std::size_t> order(mc->violations().size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      seeded_shuffle(order, seed_);
      std::string err;
      if (!replay_witnesses(tr, p.L, m->cfg, *mc, order, &err)) g.fail(err);

      Blob bytes;
      double ts = now_s();
      {
        Scope s(tr, "persist.save");
        bytes = mc->checkpoint_bytes();
      }
      p.L.save_s += now_s() - ts;
      p.L.persist_bytes += bytes.size();
      LocalModelChecker back(m->cfg, m->inv.get(), opt);
      ts = now_s();
      {
        Scope s(tr, "persist.load");
        back.load_checkpoint_bytes(bytes);
      }
      p.L.load_s += now_s() - ts;
      if (back.stats().confirmed_violations != st.confirmed_violations ||
          back.violations().size() != mc->violations().size() ||
          back.checkpoint_bytes() != bytes)
        g.fail("checkpoint reload mismatch");
    } catch (const std::exception& e) {
      g.fail(std::string("exception: ") + e.what());
    }
    p.verdict_s = now_s() - t0;
    return p;
  }

 private:
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// paxos_online: correct 3-node Paxos under the §5.5 live setup, checked by
// CrystalBall every 60 live seconds with a per-period transition budget.

class PaxosOnline final : public Workload {
 public:
  static constexpr std::uint32_t kDepth = 14;
  static constexpr std::uint64_t kBudget = 60'000;

  PaxosOnline(std::vector<std::uint64_t> live_seeds, int periods, std::uint64_t seed)
      : live_seeds_(std::move(live_seeds)), periods_(periods), seed_(seed) {}

  std::string describe() const override {
    std::string s = "paxos_online: correct Paxos, 30% drops, CrystalBall 60 s periods x " +
                    std::to_string(periods_) + ", LMC-OPT depth 14, " +
                    std::to_string(kBudget) + " transitions/period, live seeds";
    for (std::uint64_t ls : live_seeds_) s += " " + std::to_string(ls);
    return s + "; known answer 0 confirmed per period";
  }

  Pass run_pass(Tracer& tr, obs::ProfileSink* prof, unsigned threads) override {
    struct Live {
      std::uint64_t seed = 0;
      std::unique_ptr<LiveRunner> runner;
    };
    struct Model {
      SystemConfig live_cfg, mc_cfg;
      std::unique_ptr<Invariant> inv;
      std::vector<Live> lives;
    };
    Pass p;
    std::vector<std::uint64_t> order = live_seeds_;
    seeded_shuffle(order, seed_);
    std::unique_ptr<Model> m = timed_setup<Model>(p, tr, [&](Layers&) {
      auto mm = std::make_unique<Model>();
      paxos::DriverConfig live_d;
      live_d.proposers = {0, 1, 2};
      live_d.max_proposals = 3;
      live_d.allow_fresh_index = true;
      mm->live_cfg = paxos::make_config(3, paxos::CoreOptions{0, false}, live_d);
      paxos::DriverConfig mc_d;
      mc_d.proposers = {0, 1, 2};
      mc_d.max_proposals = 4;
      mc_d.allow_fresh_index = false;
      mm->mc_cfg = paxos::make_config(3, paxos::CoreOptions{0, false}, mc_d);
      mm->inv = paxos::make_agreement_invariant();
      for (std::uint64_t ls : order) {
        LiveOptions lo;
        lo.seed = ls;
        lo.transport.drop_prob = 0.3;
        lo.app_min = 0.0;
        lo.app_max = 60.0;
        mm->lives.push_back(
            {ls, std::make_unique<LiveRunner>(mm->live_cfg, lo, first_enabled_driver())});
      }
      return mm;
    });

    const double t0 = now_s();
    Scope verdict(tr, "verdict");
    std::uint64_t check_id = 0;
    for (Live& lv : m->lives) {
      const std::string label = "live seed " + std::to_string(lv.seed);
      CheckGuard run_guard(p, label + " run");
      double checker_total = 0.0;
      CrystalBallOptions opt;
      opt.period = 60.0;
      opt.max_live_time = 60.0 * periods_;
      opt.mc.max_total_depth = kDepth;
      opt.mc.use_projection = true;
      opt.mc.max_transitions = kBudget;
      opt.mc.num_threads = threads;
      opt.mc.profile = prof;
      tr.check = ++check_id;
      opt.on_period = [&](const CrystalBallPeriod& per) {
        const double t = now_s();
        tr.add("online.period", t - per.checker_s, t);
        tr.check = ++check_id;
        p.check_s.push_back(per.checker_s);
        p.L.add_stats(per.stats);
        p.L.run_s += per.checker_s;
        ++p.L.periods;
        checker_total += per.checker_s;
        CheckGuard g(p, label + " period " + std::to_string(per.index));
        if (per.found || per.stats.confirmed_violations != 0)
          g.fail("confirmed a violation on correct Paxos");
      };
      try {
        const double tc = now_s();
        CrystalBallResult res;
        {
          Scope s(tr, "crystalball.run");
          CrystalBall cb(m->mc_cfg, m->inv.get(), *lv.runner, opt);
          res = cb.run();
        }
        p.L.live_s += (now_s() - tc) - checker_total;
        // Hand freed heap back to the OS so the next live seed starts from
        // the same footprint: without this, peak RSS depended on the seeded
        // run order (two modes, 160 and 174 MB).
        malloc_trim(0);
        if (res.found) run_guard.fail("CrystalBall reported a violation");
        if (res.runs != periods_)
          run_guard.fail("ran " + std::to_string(res.runs) + " periods, expected " +
                         std::to_string(periods_));
      } catch (const std::exception& e) {
        run_guard.fail(std::string("exception: ") + e.what());
      }
    }
    p.verdict_s = now_s() - t0;
    return p;
  }

 private:
  std::vector<std::uint64_t> live_seeds_;
  int periods_;
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// zoo_specs: every examples/zoo spec from its initial state plus each of its
// scenario snapshots, LMC-GEN, verdicts against GlobalMc.

/// Base counts pinned by tests/test_zoo.cpp.
const std::map<std::string, std::uint64_t> kZooBaseConfirmed = {
    {"raft_election_doublevote", 24},
    {"twophase_early_commit", 4},
    {"chain_repl_ack_early", 2},
    {"gossip_split_brain", 3},
};

class ZooSpecs final : public Workload {
 public:
  ZooSpecs(std::string dir, std::vector<std::string> specs, std::uint64_t scenario_seed_offset,
           std::uint64_t seed)
      : dir_(std::move(dir)), specs_(std::move(specs)), offset_(scenario_seed_offset),
        seed_(seed) {}

  std::string describe() const override {
    return "zoo_specs: " + std::to_string(specs_.size()) + " specs, " +
           std::to_string(num_checks_) + " checks (base + scenarios, scenario seed offset " +
           std::to_string(offset_) + "), LMC-GEN; known answer = GlobalMc violation sets";
  }

  /// One check's start: a compiled protocol plus the state to check from.
  struct Item {
    std::string spec;
    std::string scenario;  ///< empty = base check from the initial states
    bool expect_violation = false;
    dsl::CompiledProtocol proto;
    std::vector<Blob> nodes;
    std::vector<Message> in_flight;
  };
  struct Model {
    std::vector<Item> items;
  };

  /// Build every check's starting point: load + compile each spec, and for
  /// each scenario re-elaborate at its node count and run its live prelude.
  std::unique_ptr<Model> build(Tracer& tr, Layers& L) const {
    auto m = std::make_unique<Model>();
    for (const std::string& name : specs_) {
      const std::string path = dir_ + "/" + name + ".lmc";
      dsl::LoadResult loaded;
      double t = now_s();
      {
        Scope s(tr, "dsl.load");
        loaded = dsl::load_file(path);
      }
      if (!loaded.ok()) throw std::runtime_error("cannot load " + path + "\n" +
                                                 loaded.diags.to_string());
      Item base;
      base.spec = name;
      base.expect_violation = loaded.spec->expect_violation;
      base.proto = dsl::instantiate(*loaded.spec);
      base.nodes = initial_states(base.proto.cfg);
      L.dsl_load_s += now_s() - t;
      m->items.push_back(std::move(base));
      for (const dsl::Scenario& sc : loaded.spec->scenarios) {
        Item it;
        it.spec = name;
        it.scenario = sc.name;
        t = now_s();
        std::optional<dsl::DslSpec> sspec;
        {
          Scope s(tr, "dsl.compile");
          dsl::CompileOptions copts;
          copts.override_nodes = sc.num_nodes;
          dsl::DiagList diags(path);
          sspec = dsl::compile(*loaded.protocol, diags, copts);
          if (!sspec) throw std::runtime_error(diags.to_string());
        }
        it.proto = dsl::instantiate(*sspec);
        L.dsl_load_s += now_s() - t;
        t = now_s();
        {
          Scope s(tr, "online.prelude");
          LiveOptions lo;
          lo.seed = sc.seed + offset_;
          lo.transport.seed = sc.seed + offset_;
          lo.transport.drop_prob = sc.drop_pct / 100.0;
          lo.app_min = 0.0;
          lo.app_max = sc.app_max;
          lo.fifo_per_pair = sc.fifo;
          LiveRunner live(it.proto.cfg, lo, first_enabled_driver());
          live.run_until(sc.sim_time);
          if (live.assert_failures() > 0)
            throw std::runtime_error(name + "/" + sc.name + ": local assertion in prelude");
          Snapshot snap = live.snapshot();
          it.nodes = std::move(snap.nodes);
          it.in_flight = std::move(snap.in_flight);
        }
        L.prelude_s += now_s() - t;
        m->items.push_back(std::move(it));
      }
    }
    return m;
  }

  /// Reference verdicts from GlobalModelChecker, computed in a child
  /// process so neither its time nor its memory lands in the metrics.
  void prepare() override {
    Tracer off;
    Layers scratch;
    std::unique_ptr<Model> m = build(off, scratch);
    num_checks_ = m->items.size();
    const std::string in = run_in_child([&] {
      std::string out;
      for (std::size_t i = 0; i < m->items.size(); ++i) {
        const Item& it = m->items[i];
        GlobalMcOptions gopt;
        gopt.assert_is_violation = false;  // LMC's AssertPolicy::DiscardState
        gopt.max_transitions = 2'000'000;
        GlobalModelChecker g(it.proto.cfg, it.proto.invariant.get(), gopt);
        g.run(it.nodes, Network(it.in_flight));
        std::set<Hash64> viol;
        for (const GlobalViolation& v : g.violations()) {
          std::vector<Hash64> tuple;
          for (const Blob& b : v.system_state) tuple.push_back(hash_blob(b));
          viol.insert(tuple_hash(tuple));
        }
        std::ostringstream line;
        line << i << ' ' << (g.stats().completed ? 1 : 0) << ' ' << viol.size();
        for (Hash64 h : viol) line << ' ' << h;
        out += line.str() + "\n";
      }
      return out;
    }).out;
    refs_.assign(m->items.size(), {});
    ref_ok_.assign(m->items.size(), false);
    std::istringstream is(in);
    std::size_t idx = 0, n = 0;
    int done = 0;
    while (is >> idx >> done >> n) {
      if (idx >= refs_.size()) throw std::runtime_error("bad reference record");
      ref_ok_[idx] = done == 1;
      for (std::size_t k = 0; k < n; ++k) {
        Hash64 h = 0;
        is >> h;
        refs_[idx].insert(h);
      }
    }
  }

  Pass run_pass(Tracer& tr, obs::ProfileSink* prof, unsigned threads) override {
    Pass p;
    std::unique_ptr<Model> m =
        timed_setup<Model>(p, tr, [&](Layers& L) { return build(tr, L); });
    std::vector<std::size_t> order(m->items.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    seeded_shuffle(order, seed_);

    const double t0 = now_s();
    Scope verdict(tr, "verdict");
    std::uint64_t check_id = 0;
    for (std::size_t i : order) {
      const Item& it = m->items[i];
      tr.check = ++check_id;
      CheckGuard g(p, it.spec + "/" + (it.scenario.empty() ? "base" : it.scenario));
      try {
        if (i >= ref_ok_.size() || !ref_ok_[i]) g.fail("no conclusive reference verdict");
        LocalMcOptions opt;
        opt.stop_on_confirmed = false;
        opt.num_threads = threads;
        opt.profile = prof;
        std::unique_ptr<LocalModelChecker> mc;
        p.check_s.push_back(timed_check(tr, p.L, mc, it.proto.cfg, it.proto.invariant.get(),
                                        opt, it.nodes, it.in_flight));
        const LocalMcStats& st = mc->stats();
        if (!st.completed) g.fail("local search did not complete");
        std::set<Hash64> confirmed;
        for (const LocalViolation& v : mc->violations())
          if (v.confirmed) confirmed.insert(tuple_hash(v.state_hashes));
        if (i < refs_.size() && confirmed != refs_[i])
          g.fail("confirmed set (" + std::to_string(confirmed.size()) +
                 ") differs from the global set (" + std::to_string(refs_[i].size()) + ")");
        if (it.scenario.empty()) {
          auto pin = kZooBaseConfirmed.find(it.spec);
          if (pin != kZooBaseConfirmed.end() ? st.confirmed_violations != pin->second
                                             : (st.confirmed_violations > 0) !=
                                                   it.expect_violation)
            g.fail("base check confirmed " + std::to_string(st.confirmed_violations));
        }
        std::vector<std::size_t> vorder(mc->violations().size());
        for (std::size_t k = 0; k < vorder.size(); ++k) vorder[k] = k;
        std::string err;
        if (!replay_witnesses(tr, p.L, it.proto.cfg, *mc, vorder, &err)) g.fail(err);
      } catch (const std::exception& e) {
        g.fail(std::string("exception: ") + e.what());
      }
    }
    p.verdict_s = now_s() - t0;
    return p;
  }

 private:
  std::string dir_;
  std::vector<std::string> specs_;
  std::uint64_t offset_;
  std::uint64_t seed_;
  std::size_t num_checks_ = 0;
  std::vector<std::set<Hash64>> refs_;
  std::vector<bool> ref_ok_;
};

/// Timed passes run the checker single-threaded. With a worker pool the
/// threads busy-wait, and on a shared 4-core host the 2-thread paxos_online
/// pass slowed 2.7-4x under contention against 2x for 1 thread; the
/// fanned-out pass therefore runs once per traced run and is not gated.
constexpr unsigned kTimedThreads = 1;
constexpr unsigned kFanoutThreads = 2;

// ---------------------------------------------------------------------------
// Item lists. The defaults are the tuning set; --heldout selects a second
// set kept for confirming claims on inputs not used while writing a change.

const std::vector<std::string> kZooAll = {
    "chain_repl",    "chain_repl_ack_early",  "gossip",          "gossip_split_brain",
    "raft_election", "raft_election_doublevote", "twophase",    "twophase_early_commit",
    "twophase_novote"};
const std::vector<std::uint64_t> kOnlineSeeds = {1, 2, 3};
const std::vector<std::uint64_t> kOnlineHeldout = {9, 10, 13};
constexpr int kOnlinePeriods = 3;
constexpr std::uint64_t kZooHeldoutOffset = 1000;

std::unique_ptr<Workload> make_workload(const Opts& o) {
  if (o.workload == "paxos55_sweep") return std::make_unique<Paxos55Sweep>(o.seed);
  if (o.workload == "paxos_online") {
    std::vector<std::uint64_t> seeds = o.heldout ? kOnlineHeldout : kOnlineSeeds;
    int periods = kOnlinePeriods;
    if (o.short_mode) {
      seeds = {seeds.back()};
      periods = 1;
    }
    if (!o.items.empty()) {
      seeds.clear();
      for (const std::string& s : split(o.items, ',')) seeds.push_back(std::stoull(s));
    }
    return std::make_unique<PaxosOnline>(seeds, periods, o.seed);
  }
  if (o.workload == "zoo_specs") {
    std::vector<std::string> specs = kZooAll;
    if (o.short_mode) specs = {"chain_repl_ack_early", "twophase_early_commit"};
    if (!o.items.empty()) specs = split(o.items, ',');
    return std::make_unique<ZooSpecs>("examples/zoo", specs, o.heldout ? kZooHeldoutOffset : 0,
                                      o.seed);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Reporting.

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i > 0 ? ", " : "") + num(v[i]);
  return s + "]";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}";
}

/// Per-layer metrics of one traced pass.
std::vector<Metric> layer_metrics(const Pass& p) {
  const Layers& L = p.L;
  const double overlap = std::max(0.0, L.sweep_s + L.drain_s - L.run_s);
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::vector<Metric> ms = {
      {"online.live_s", L.live_s, "s"},
      {"online.periods", static_cast<double>(L.periods), "count"},
      {"online.prelude_s", L.prelude_s, "s"},
      {"dsl.load_s", L.dsl_load_s, "s"},
      {"lmc.construct_s", L.construct_s, "s"},
      {"lmc.run_s", L.run_s, "s"},
      {"lmc.transitions", static_cast<double>(L.id.transitions), "count"},
      {"lmc.node_states", static_cast<double>(L.id.node_states), "count"},
      {"lmc.iplus_msgs", static_cast<double>(L.iplus_msgs), "count"},
      {"lmc.dup_msgs_suppressed", static_cast<double>(L.dup_msgs_suppressed), "count"},
      {"lmc.history_skips", static_cast<double>(L.history_skips), "count"},
      {"lmc.stored_bytes", static_cast<double>(L.stored_bytes), "B"},
      {"runtime.bytes_hashed", static_cast<double>(L.bytes_hashed), "B"},
      {"runtime.bytes_serialized", static_cast<double>(L.bytes_serialized), "B"},
      {"sweep.wall_s", L.sweep_s, "s"},
      {"sweep.system_states", static_cast<double>(L.id.system_states), "count"},
      {"sweep.prelim_violations", static_cast<double>(L.id.prelims), "count"},
      {"sweep.prelim_rate",
       ratio(static_cast<double>(L.id.prelims), static_cast<double>(L.id.system_states)),
       "ratio"},
      {"soundness.wall_s", L.soundness_s, "s"},
      {"soundness.calls", static_cast<double>(L.id.soundness_calls), "count"},
      {"soundness.feasibility_skips", static_cast<double>(L.id.feasibility_skips), "count"},
      {"soundness.deferred", static_cast<double>(L.deferred), "count"},
      {"soundness.confirmed", static_cast<double>(L.id.confirmed), "count"},
      {"soundness.yield",
       ratio(static_cast<double>(L.id.confirmed), static_cast<double>(L.id.soundness_calls)),
       "ratio"},
      {"drain.wall_s", L.drain_s, "s"},
      {"drain.jobs", static_cast<double>(L.id.drain_jobs), "count"},
      {"replay.wall_s", L.replay_s, "s"},
      {"replay.witnesses", static_cast<double>(L.witnesses), "count"},
      {"persist.save_s", L.save_s, "s"},
      {"persist.load_s", L.load_s, "s"},
      {"persist.bytes", static_cast<double>(L.persist_bytes), "B"},
      {"ledger.overlap_s", overlap, "s"},
  };
  for (const char* name : kSpanNames) {
    auto it = p.self.find(name);
    ms.push_back({std::string("span.") + name + ".self_s", it != p.self.end() ? it->second : 0.0,
                  "s"});
  }
  return ms;
}

bool parse(int argc, char** argv, Opts& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--seed") o.seed = std::stoull(val());
    else if (a == "--seconds") o.seconds = std::stod(val());
    else if (a == "--trace") o.trace = val() != "0";
    else if (a == "--items") o.items = val();
    else if (a == "--short") o.short_mode = true;
    else if (a == "--heldout") o.heldout = true;
    else if (a == "--spans") o.spans = val();
    else return false;
  }
  return !o.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Opts o;
  try {
    if (!parse(argc, argv, o)) {
      std::fprintf(stderr,
                   "usage: lmcbench --workload W --seed N --seconds S --trace 0|1 [--short] "
                   "[--heldout] [--items LIST] [--spans FILE]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lmcbench: %s\n", e.what());
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(o);
  if (!w) {
    std::fprintf(stderr, "lmcbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  try {
    w->prepare();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lmcbench: set-up failed: %s\n", e.what());
    return 1;
  }
  std::printf("# %s\n", w->describe().c_str());

  std::vector<Pass> plain, traced;
  if (o.trace && !o.spans.empty()) std::ofstream(o.spans, std::ios::trunc);
  std::size_t traced_count = 0;
  auto run_one = [&](bool trace_it, unsigned n_threads) -> Pass {
    const std::size_t pass_index = trace_it ? traced_count++ : 0;
    ChildResult r = run_in_child([&] {
      Tracer tr;
      tr.on = trace_it;
      obs::ProfileSink sink;
      Pass p = w->run_pass(tr, trace_it ? &sink : nullptr, n_threads);
      if (trace_it) {
        p.self = tr.self_times();
        p.L.bytes_hashed = sink.counter(obs::Counter::kBytesHashed);
        p.L.bytes_serialized = sink.counter(obs::Counter::kBytesSerialized);
        p.prof_identity = sink.identity_text();
        if (!o.spans.empty()) std::ofstream(o.spans, std::ios::app) << tr.jsonl(pass_index);
      }
      return encode(p);
    });
    Pass p = decode(std::move(r.out));
    p.rss_mb = r.rss_mb;
    return p;
  };
  const double start = now_s();
  try {
    do {
      if (o.trace) traced.push_back(run_one(true, kTimedThreads));
      plain.push_back(run_one(false, kTimedThreads));
    } while (now_s() - start < o.seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lmcbench: pass failed: %s\n", e.what());
    return 1;
  }

  // Exact-count gate: the work counters of every pass must agree.
  std::vector<std::string> drift;
  const Identity& ref = plain.front().L.id;
  for (const Pass& p : plain)
    if (!(p.L.id == ref)) drift.push_back("untraced pass counters differ: " + p.L.id.text());
  for (const Pass& p : traced) {
    if (!(p.L.id == ref)) drift.push_back("traced pass counters differ: " + p.L.id.text());
    if (p.prof_identity != traced.front().prof_identity)
      drift.push_back("profile identity counters differ between traced passes");
  }
  // Thread-count identity, checked from outside: one extra traced pass with
  // the checker's worker pool fanned out.
  Pass fanout;
  if (o.trace) {
    fanout = run_one(true, kFanoutThreads);
    if (!(fanout.L.id == ref))
      drift.push_back(std::to_string(kFanoutThreads) + "-thread counters differ: " +
                      fanout.L.id.text());
    if (fanout.prof_identity != traced.front().prof_identity)
      drift.push_back(std::to_string(kFanoutThreads) + "-thread profile identity differs");
    if (fanout.failed > 0) drift.push_back("the fanned-out pass failed checks");
  }

  std::uint64_t checks = 0, failed = 0;
  std::vector<double> check_s, setup, verdict, rss;
  for (const Pass& p : plain) {
    rss.push_back(p.rss_mb);
    checks += p.check_s.size();
    failed += p.failed;
    check_s.insert(check_s.end(), p.check_s.begin(), p.check_s.end());
    setup.push_back(p.setup_s);
    verdict.push_back(p.verdict_s);
  }
  for (const Pass& p : traced) {
    checks += p.check_s.size();
    failed += p.failed;
  }
  for (const std::string& d : drift) std::fprintf(stderr, "lmcbench: DRIFT: %s\n", d.c_str());

  std::vector<Metric> e2e = {
      {"setup_s", median(setup), "s"},
      {"verdict_s", median(verdict), "s"},
      {"check_s.p50", median(check_s), "s"},
      {"peak_rss_mb", median(rss), "MB"},
  };
  std::sort(check_s.begin(), check_s.end());
  std::string tail = "null";
  if (check_s.size() >= 11) {
    // Highest percentile with at least 10 samples above it.
    const std::size_t k = check_s.size() - 10;
    char buf[160];
    std::snprintf(buf, sizeof buf, "{\"pct\": %.4g, \"value\": %s, \"samples\": %zu}",
                  100.0 * static_cast<double>(k) / static_cast<double>(check_s.size()),
                  num(check_s[k - 1]).c_str(), check_s.size());
    tail = buf;
  }

  std::string layers = "null", explore = "null";
  if (o.trace) {
    // Per-layer values: median over traced passes (counters agree exactly).
    std::vector<std::vector<Metric>> per;
    for (const Pass& p : traced) per.push_back(layer_metrics(p));
    std::vector<Metric> med = per.front();
    for (std::size_t j = 0; j < med.size(); ++j) {
      std::vector<double> vals;
      for (const auto& row : per) vals.push_back(row[j].value);
      med[j].value = median(vals);
    }
    std::vector<double> tv;
    for (const Pass& p : traced) tv.push_back(p.verdict_s);
    med.push_back({"trace.overhead_s", median(tv) - median(verdict), "s"});
    med.push_back({"fanout.verdict_s", fanout.verdict_s, "s"});
    med.push_back({"fanout.speedup", median(tv) / fanout.verdict_s, "ratio"});
    layers = metrics_json(med);
    double run = 0, sweep = 0, drain = 0, overlap = 0;
    for (const Metric& m : med) {
      if (m.name == "lmc.run_s") run = m.value;
      if (m.name == "sweep.wall_s") sweep = m.value;
      if (m.name == "drain.wall_s") drain = m.value;
      if (m.name == "ledger.overlap_s") overlap = m.value;
    }
    if (overlap == 0.0) explore = num(run - sweep - drain);
  }

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"passes\": %zu, \"traced_passes\": %zu, "
      "\"checks\": %" PRIu64 ", \"failed_checks\": %" PRIu64 ", \"drift\": %zu, "
      "\"identity\": \"%s\", \"end_to_end\": %s, \"check_s.tail\": %s, \"per_layer\": %s, "
      "\"explore.wall_s\": %s, \"pass_verdict_s\": %s, \"pass_rss_mb\": %s, \"env\": {\"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}}\n",
      o.workload.c_str(), o.seed, plain.size(), traced.size(), checks, failed, drift.size(),
      ref.text().c_str(), metrics_json(e2e).c_str(), tail.c_str(), layers.c_str(),
      explore.c_str(), json_list(verdict).c_str(), json_list(rss).c_str(),
      std::thread::hardware_concurrency(), LMCBENCH_COMPILER,
      LMCBENCH_BUILD_TYPE);
  return 0;
}
