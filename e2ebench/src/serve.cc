// `serve`: one client repeating a rotation of four point requests (σ on a
// random key of item, then three times that σ joined to cat; ≤10 rows out)
// and one range request returning ~2k distinct rows.  The σ⋈cat class
// holds the mix's median and the range class its p90.  Every estimated input
// stays under the default parallel_threshold and nothing commits, so per
// request fixed cost (socket, framing, parse, bind, optimize, lower) sets
// the point class and result encode/decode sets the range class; a
// parallel-execution or commit-path change must leave this workload alone.

#include <algorithm>
#include <random>
#include <sched.h>

#include "harness.h"

namespace e2e {
namespace {

using mra::Tuple;
using mra::Value;

enum Class { kPoint = 0, kPointJoin = 1, kRange = 2 };

/// item(k, v): kKeys keys with kPerKey distinct v each (multiplicity 1..3);
/// cat(c, name): one row per v.
constexpr int64_t kPerKey = 3;
constexpr int64_t kCats = 100;
/// Closed-loop clients.  With four (or two), range replies encoded side
/// by side on a shared 4-thread host made every latency quantile and the
/// peak RSS depend on how many ranges happened to overlap.
constexpr int kClients = 1;

struct ItemData {
  int64_t keys = 0;
  int64_t range_keys = 0;
  /// Per key: (v, multiplicity) of its kPerKey distinct tuples.
  std::vector<std::vector<std::pair<int64_t, uint64_t>>> by_key;
};

/// Pins this thread, and so every thread it starts afterwards (the
/// server's accept and session threads), to the last CPU it may run on.
/// A point round trip is two thread wake-ups; across vCPUs each wake-up
/// goes through the hypervisor, and on a busy shared host that made the
/// point latency swing by 2x from run to run.  Returns the CPU, or -1.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

std::string CatName(int64_t c) { return "cat" + std::to_string(c); }

uint64_t ExpectedMult(const ItemData& d, int64_t k, int64_t v) {
  if (k < 0 || k >= d.keys) return 0;
  for (const auto& [ev, m] : d.by_key[k]) {
    if (ev == v) return m;
  }
  return 0;
}

/// Point σ: every row is (K, v) with its generated multiplicity, and all
/// of K's tuples are there.  Point σ⋈cat: rows (K, v, v, "cat<v>").
/// Range: rows (k, v) with lo <= k < hi, each with its multiplicity.
bool CheckItems(const ItemData& d, const Relation& rel, int64_t lo,
                int64_t hi, bool joined) {
  size_t rows = 0;
  for (const auto& [t, count] : rel) {
    if (t.arity() != (joined ? 4u : 2u)) return false;
    int64_t k = t.at(0).int_value();
    int64_t v = t.at(1).int_value();
    if (k < lo || k >= hi || count != ExpectedMult(d, k, v)) return false;
    if (joined && (t.at(2).int_value() != v ||
                   t.at(3).string_value() != CatName(v))) {
      return false;
    }
    ++rows;
  }
  return rows == static_cast<size_t>((hi - lo) * kPerKey);
}

}  // namespace

Status RunServe(const RunOptions& options, WorkloadResult* result) {
  const int clients = kClients;
  const int cpu = PinToOneCpu();
  ItemData data;
  Fixture fx;
  MRA_RETURN_IF_ERROR(MeasureSetup(
      options,
      [&](int, Fixture* f) -> Status {
        std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ull + 23);
        data = ItemData{};
        data.keys = std::max<int64_t>(20, static_cast<int64_t>(1000 * options.scale));
        data.range_keys = std::max<int64_t>(1, data.keys * 2 / 3);
        Relation item(mra::RelationSchema(
            {{"k", mra::Type::Int()}, {"v", mra::Type::Int()}}));
        data.by_key.resize(data.keys);
        for (int64_t k = 0; k < data.keys; ++k) {
          while (static_cast<int64_t>(data.by_key[k].size()) < kPerKey) {
            int64_t v = static_cast<int64_t>(rng() % kCats);
            if (ExpectedMult(data, k, v) != 0) continue;
            uint64_t m = 1 + rng() % 3;
            data.by_key[k].push_back({v, m});
            item.InsertUnchecked(Tuple({Value::Int(k), Value::Int(v)}), m);
          }
        }
        Relation cat(mra::RelationSchema(
            {{"c", mra::Type::Int()}, {"name", mra::Type::String()}}));
        for (int64_t c = 0; c < kCats; ++c) {
          cat.InsertUnchecked(Tuple({Value::Int(c), Value::Str(CatName(c))}));
        }
        MRA_ASSIGN_OR_RETURN(f->db, mra::Database::Open());
        MRA_RETURN_IF_ERROR(LoadRelation(f->db.get(), "item", std::move(item)));
        MRA_RETURN_IF_ERROR(LoadRelation(f->db.get(), "cat", std::move(cat)));
        return f->Serve({"item", "cat"}, clients);
      },
      &fx, &result->report));
  result->stamp.push_back(
      "relations: item distinct=" + std::to_string(data.keys * kPerKey) +
      " (" + std::to_string(data.keys) + " keys), cat=" +
      std::to_string(kCats) + "; range=" + std::to_string(data.range_keys) +
      " keys");
  result->stamp.push_back(FingerprintLine(*fx.db, {"item", "cat"}));
  result->stamp.push_back("clients=" + std::to_string(clients) +
                          " closed loop, client and server pinned to cpu " +
                          std::to_string(cpu) +
                          "; flush policy: in-memory database, no WAL");

  // Each client's rotation: σ, three σ⋈cat, then one range request;
  // keys are drawn from a per-client stream of the seed.  tag holds the
  // key bounds so the checker needs no shared state.
  const int64_t keys = data.keys, span = data.range_keys;
  std::vector<std::mt19937_64> streams;
  for (int c = 0; c < clients; ++c) {
    streams.emplace_back(options.seed * 1000003 + static_cast<uint64_t>(c));
  }
  const RequestSource source = [&](int c, uint64_t i) -> std::optional<Request> {
    std::mt19937_64& rng = streams[c];
    if (i % 5 == 4) {
      int64_t lo = static_cast<int64_t>(rng() % (keys - span + 1));
      return Request{kRange, false,
                     "select(%1 >= " + std::to_string(lo) + " and %1 < " +
                         std::to_string(lo + span) + ", item)",
                     static_cast<uint64_t>(lo)};
    }
    int64_t k = static_cast<int64_t>(rng() % keys);
    std::string sel = "select(%1 = " + std::to_string(k) + ", item)";
    if (i % 5 == 0) {
      return Request{kPoint, false, sel, static_cast<uint64_t>(k)};
    }
    return Request{kPointJoin, false, "join(%2 = %3, " + sel + ", cat)",
                   static_cast<uint64_t>(k)};
  };
  const Checker check = [&](const Request& req,
                            const Result<std::vector<Relation>>& reply) {
    if (!reply.ok() || reply->size() != 1) return Verdict::kWrong;
    int64_t lo = static_cast<int64_t>(req.tag);
    int64_t hi = req.cls == kRange ? lo + span : lo + 1;
    return CheckItems(data, reply->front(), lo, hi, req.cls == kPointJoin)
               ? Verdict::kOk
               : Verdict::kWrong;
  };

  // Warm-up, not measured: in a fresh process the first seconds of this
  // traffic run measurably slower than the rest.
  RunClosedLoop(fx.clients, source, check, 3.0, nullptr);

  Measured m;
  MRA_RETURN_IF_ERROR(MeasureWindows(
      options,
      [&](double seconds, SpanRecorder* spans) -> Result<LoopResult> {
        return RunClosedLoop(fx.clients, source, check, seconds, spans);
      },
      result, &m));
  if (options.trace) {
    const LoopResult& u = m.untraced;
    std::vector<double> points;
    for (const Outcome& o : u.outcomes) {
      if (o.cls != kRange) points.push_back(o.rtt_us() / 1e3);
    }
    result->report.Add("lat_p99_ms", m.untraced_summary.p99_ms, "ms");
    result->report.Add("serve.point_p50_ms", Median(points), "ms");
    result->report.Add("serve.range_p50_ms", ClassQuantileMs(u, kRange, 0.5),
                       "ms");
    if (points.empty() || ClassQuantileMs(u, kRange, 0.5) <= 0) {
      result->Fail("serve did not exercise both the point and range class");
    }
  }
  fx.StopServing();
  return Status::OK();
}

}  // namespace e2e
