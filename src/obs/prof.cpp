#include "obs/prof.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <tuple>

#include "obs/json.hpp"

namespace lmc::obs {

namespace {

constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);
constexpr std::size_t kPhaseCount = 7;

const char* phase_name(std::size_t p) {
  return to_string(static_cast<Phase>(p));
}

}  // namespace

const char* to_string(Counter c) {
  switch (c) {
    case Counter::kBytesHashed: return "bytes_hashed";
    case Counter::kBytesSerialized: return "bytes_serialized";
    case Counter::kStatesCanonicalized: return "states_canonicalized";
    case Counter::kOrbitCollapses: return "orbit_collapses";
    case Counter::kPorPrunes: return "por_prunes";
    case Counter::kPorDeferrals: return "por_deferrals";
    case Counter::kExecCacheHits: return "exec_cache_hits";
    case Counter::kExecCacheMisses: return "exec_cache_misses";
    case Counter::kHandlerRuns: return "handler_runs";
    case Counter::kCachedReplays: return "cached_replays";
    case Counter::kSoundnessJobs: return "soundness_jobs";
    case Counter::kCount: break;
  }
  return "unknown";
}

void TimeHist::add(double secs) {
  const double ns = secs * 1e9;
  std::size_t bucket = 0;
  if (ns >= 1.0) {
    // floor(log2) + 1: [2^(i-1), 2^i) ns lands in bucket i, [1,2) in 1.
    bucket = static_cast<std::size_t>(std::floor(std::log2(ns))) + 1;
    if (bucket >= kBuckets) bucket = kBuckets - 1;
  }
  ++count[bucket];
  total_s += secs;
}

void TimeHist::merge(const TimeHist& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) count[i] += o.count[i];
  total_s += o.total_s;
}

std::uint64_t TimeHist::samples() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) n += count[i];
  return n;
}

bool RuleKey::operator<(const RuleKey& o) const {
  return std::tie(node, is_message, kind) < std::tie(o.node, o.is_message, o.kind);
}

void ProfileSink::count(Counter c, std::uint64_t delta) {
  counters_[static_cast<std::size_t>(c)] += delta;
}

void ProfileSink::count_shard(std::size_t shard, bool hit) {
  if (shard >= kProfShards) return;
  if (hit) {
    ++shard_hits_[shard];
  } else {
    ++shard_misses_[shard];
  }
}

void ProfileSink::rule(const RuleKey& key, bool cached, std::uint64_t ser_bytes,
                       std::uint64_t hash_bytes, double exec_s) {
  RuleProf& r = rules_[key];
  if (cached) {
    ++r.cached;
  } else {
    ++r.runs;
    // Only real executions feed the histogram: a cached replay has no
    // handler wall time, and a zero-duration sample would distort bucket 0.
    r.time.add(exec_s);
  }
  r.ser_bytes += ser_bytes;
  r.hash_bytes += hash_bytes;
}

void ProfileSink::phase_wall(Phase p, double secs) {
  phase_s_[static_cast<std::size_t>(p)] += secs;
}

void ProfileSink::run_wall(double segment_s) { run_wall_s_ += segment_s; }

std::uint64_t ProfileSink::counter(Counter c) const {
  return counters_[static_cast<std::size_t>(c)];
}

std::string ProfileSink::identity_text() const {
  // Canonical identity rendering: fixed field order, decimal integers only.
  // Deliberately excludes threads_, run_wall_s_, phase_s and histograms —
  // those are attribution and differ between machines/thread counts.
  std::string out = "lmc-prof-identity/1\n";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out += "counter ";
    out += to_string(static_cast<Counter>(i));
    out += ' ';
    out += std::to_string(counters_[i]);
    out += '\n';
  }
  for (std::size_t i = 0; i < kProfShards; ++i) {
    out += "shard " + std::to_string(i) + ' ' + std::to_string(shard_hits_[i]) + ' ' +
           std::to_string(shard_misses_[i]) + '\n';
  }
  for (const auto& [key, r] : rules_) {
    out += "rule " + std::to_string(key.node) + ' ' +
           (key.is_message != 0 ? std::string("msg") : std::string("int")) + ' ' +
           std::to_string(key.kind) + " runs=" + std::to_string(r.runs) +
           " cached=" + std::to_string(r.cached) +
           " ser=" + std::to_string(r.ser_bytes) +
           " hash=" + std::to_string(r.hash_bytes) + '\n';
  }
  return out;
}

std::string ProfileSink::to_jsonl() const {
  std::string out = "{\"schema\":\"lmc-prof/1\",\"kind\":\"meta\",\"version\":1";
  out += ",\"threads\":" + std::to_string(threads_);
  out += ",\"run_wall_s\":" + json_double(run_wall_s_);
  out += "}\n";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out += "{\"schema\":\"lmc-prof/1\",\"kind\":\"counter\",\"name\":";
    out += json_quote(to_string(static_cast<Counter>(i)));
    out += ",\"value\":" + std::to_string(counters_[i]);
    out += "}\n";
  }
  for (std::size_t i = 0; i < kProfShards; ++i) {
    out += "{\"schema\":\"lmc-prof/1\",\"kind\":\"shard\",\"shard\":" +
           std::to_string(i);
    out += ",\"hits\":" + std::to_string(shard_hits_[i]);
    out += ",\"misses\":" + std::to_string(shard_misses_[i]);
    out += "}\n";
  }
  for (const auto& [key, r] : rules_) {
    out += "{\"schema\":\"lmc-prof/1\",\"kind\":\"rule\",\"node\":" +
           std::to_string(key.node);
    out += ",\"rule\":";
    out += key.is_message != 0 ? "\"message\"" : "\"internal\"";
    out += ",\"event\":" + std::to_string(key.kind);
    out += ",\"runs\":" + std::to_string(r.runs);
    out += ",\"cached\":" + std::to_string(r.cached);
    out += ",\"ser_bytes\":" + std::to_string(r.ser_bytes);
    out += ",\"hash_bytes\":" + std::to_string(r.hash_bytes);
    out += ",\"exec_s\":" + json_double(r.time.total_s);
    out += ",\"hist\":[";
    bool first = true;
    for (std::size_t b = 0; b < TimeHist::kBuckets; ++b) {
      if (r.time.count[b] == 0) continue;
      if (!first) out += ',';
      first = false;
      out += '[' + std::to_string(b) + ',' + std::to_string(r.time.count[b]) + ']';
    }
    out += "]}\n";
  }
  // The explore row is the remainder, so the phase rows sum to the run wall.
  double phase_s[kPhaseCount];
  std::copy(std::begin(phase_s_), std::end(phase_s_), phase_s);
  auto at = [&](Phase p) -> double& { return phase_s[static_cast<std::size_t>(p)]; };
  at(Phase::kExplore) = explore_wall(run_wall_s_, at(Phase::kSweep), at(Phase::kSoundness),
                                     at(Phase::kDrain), at(Phase::kCheckpoint));
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    if (phase_s[p] == 0.0) continue;
    out += "{\"schema\":\"lmc-prof/1\",\"kind\":\"phase\",\"phase\":";
    out += json_quote(phase_name(p));
    out += ",\"wall_s\":" + json_double(phase_s[p]);
    out += "}\n";
  }
  return out;
}

void ProfileSink::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write profile file " + path);
  const std::string text = to_jsonl();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

namespace {

bool prof_object(const std::string& line, JsonValue& v, std::string& kind) {
  if (!json_parse(line, v) || !v.is_object()) return false;
  const JsonValue* schema = v.get("schema");
  if (schema == nullptr || !schema->is_string() || schema->str != "lmc-prof/1") {
    return false;
  }
  const JsonValue* k = v.get("kind");
  if (k == nullptr || !k->is_string()) return false;
  kind = k->str;
  return true;
}

std::uint64_t get_u64(const JsonValue& v, const char* key) {
  const JsonValue* f = v.get(key);
  return f != nullptr && f->is_number() ? f->as_u64() : 0;
}

double get_dbl(const JsonValue& v, const char* key) {
  const JsonValue* f = v.get(key);
  return f != nullptr && f->is_number() ? f->as_double() : 0.0;
}

}  // namespace

bool merge_prof_line(const std::string& line, ProfileData& data) {
  JsonValue v;
  std::string kind;
  if (!prof_object(line, v, kind)) return false;

  if (kind == "meta") {
    const unsigned threads = static_cast<unsigned>(get_u64(v, "threads"));
    if (threads > data.threads) data.threads = threads;
    data.run_wall_s += get_dbl(v, "run_wall_s");
  } else if (kind == "counter") {
    const JsonValue* name = v.get("name");
    if (name == nullptr || !name->is_string()) return false;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      if (name->str == to_string(static_cast<Counter>(i))) {
        data.counters[i] += get_u64(v, "value");
        break;
      }
    }
  } else if (kind == "shard") {
    const std::uint64_t shard = get_u64(v, "shard");
    if (shard >= kProfShards) return false;
    data.shard_hits[shard] += get_u64(v, "hits");
    data.shard_misses[shard] += get_u64(v, "misses");
  } else if (kind == "rule") {
    RuleKey key;
    key.node = static_cast<std::uint32_t>(get_u64(v, "node"));
    const JsonValue* rk = v.get("rule");
    key.is_message = (rk != nullptr && rk->is_string() && rk->str == "message") ? 1 : 0;
    key.kind = static_cast<std::uint32_t>(get_u64(v, "event"));
    ProfileData::Rule& r = data.rules[key];
    r.key = key;
    r.runs += get_u64(v, "runs");
    r.cached += get_u64(v, "cached");
    r.ser_bytes += get_u64(v, "ser_bytes");
    r.hash_bytes += get_u64(v, "hash_bytes");
    r.exec_s += get_dbl(v, "exec_s");
    if (const JsonValue* hist = v.get("hist");
        hist != nullptr && hist->kind == JsonValue::Kind::kArray) {
      for (const JsonValue& pair : hist->items) {
        if (pair.kind != JsonValue::Kind::kArray || pair.items.size() != 2) continue;
        const auto bucket = static_cast<std::uint32_t>(pair.items[0].as_u64());
        const std::uint64_t n = pair.items[1].as_u64();
        r.samples += n;
        bool merged = false;
        for (auto& [b, c] : r.hist) {
          if (b == bucket) {
            c += n;
            merged = true;
            break;
          }
        }
        if (!merged) r.hist.emplace_back(bucket, n);
      }
      std::sort(r.hist.begin(), r.hist.end());
    }
  } else if (kind == "phase") {
    const JsonValue* p = v.get("phase");
    if (p == nullptr || !p->is_string()) return false;
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      if (p->str == phase_name(i)) {
        data.phase_s[i] += get_dbl(v, "wall_s");
        break;
      }
    }
  } else {
    return false;
  }
  ++data.lines;
  return true;
}

bool validate_prof_value(const JsonValue& v, std::string* err) {
  auto fail = [&](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  const JsonValue* k = v.get("kind");
  if (k == nullptr || !k->is_string()) return fail("lmc-prof/1 line missing \"kind\"");
  auto need_num = [&](const char* key) {
    const JsonValue* f = v.get(key);
    return f != nullptr && f->is_number();
  };
  if (k->str == "meta") {
    if (!need_num("version")) return fail("prof meta line missing \"version\"");
    if (!need_num("threads")) return fail("prof meta line missing \"threads\"");
    return true;
  }
  if (k->str == "counter") {
    const JsonValue* name = v.get("name");
    if (name == nullptr || !name->is_string()) {
      return fail("prof counter line missing \"name\"");
    }
    bool known = false;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      if (name->str == to_string(static_cast<Counter>(i))) known = true;
    }
    if (!known) return fail("prof counter line has unknown name " + name->str);
    if (!need_num("value")) return fail("prof counter line missing \"value\"");
    return true;
  }
  if (k->str == "shard") {
    if (!need_num("shard") || !need_num("hits") || !need_num("misses")) {
      return fail("prof shard line missing shard/hits/misses");
    }
    if (v.get("shard")->as_u64() >= kProfShards) {
      return fail("prof shard index out of range");
    }
    return true;
  }
  if (k->str == "rule") {
    const JsonValue* rk = v.get("rule");
    if (rk == nullptr || !rk->is_string() ||
        (rk->str != "message" && rk->str != "internal")) {
      return fail("prof rule line needs \"rule\":\"message\"|\"internal\"");
    }
    for (const char* key : {"node", "event", "runs", "cached", "ser_bytes",
                            "hash_bytes", "exec_s"}) {
      if (!need_num(key)) {
        return fail(std::string("prof rule line missing \"") + key + "\"");
      }
    }
    const JsonValue* hist = v.get("hist");
    if (hist == nullptr || hist->kind != JsonValue::Kind::kArray) {
      return fail("prof rule line missing \"hist\" array");
    }
    for (const JsonValue& pair : hist->items) {
      if (pair.kind != JsonValue::Kind::kArray || pair.items.size() != 2 ||
          !pair.items[0].is_number() || !pair.items[1].is_number()) {
        return fail("prof rule hist entries must be [bucket,count] pairs");
      }
      if (pair.items[0].as_u64() >= TimeHist::kBuckets) {
        return fail("prof rule hist bucket out of range");
      }
    }
    return true;
  }
  if (k->str == "phase") {
    const JsonValue* p = v.get("phase");
    if (p == nullptr || !p->is_string()) return fail("prof phase line missing \"phase\"");
    bool known = false;
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      if (p->str == phase_name(i)) known = true;
    }
    if (!known) return fail("prof phase line has unknown phase " + p->str);
    if (!need_num("wall_s")) return fail("prof phase line missing \"wall_s\"");
    if (v.get("wall_s")->as_double() < 0.0) return fail("prof phase " + p->str + " is negative");
    return true;
  }
  return fail("lmc-prof/1 line has unknown kind " + k->str);
}

}  // namespace lmc::obs
