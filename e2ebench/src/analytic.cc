// `analytic`: one client sends a fixed rotation of five decision-support
// requests over fact(k, v) ⋈ dim(k, g) — the E20 join + group-by shape
// twice, a weighted Top-10 over the join, cnt of δ(π_v fact), and a sort
// forced to spill under a script-level `set sort_spill_bytes`.  Every
// reply is at most ~100 rows, so exec, parallel, hash and sort do nearly
// all the work and lang, opt and net nearly none.

#include <algorithm>
#include <iterator>
#include <random>
#include <unordered_set>

#include "harness.h"
#include "mra/algebra/evaluator.h"
#include "mra/lang/binder.h"
#include "mra/lang/interpreter.h"
#include "mra/lang/parser.h"
#include "mra/obs/op_metrics.h"

namespace e2e {
namespace {

using mra::Tuple;
using mra::Value;

/// Canonical form of a bag for comparison: tuple text → multiplicity.
using Canon = std::map<std::string, uint64_t>;

Canon CanonOf(const Relation& rel) {
  Canon out;
  for (const auto& [tuple, count] : rel) out[tuple.ToString()] += count;
  return out;
}

Tuple Ints(std::initializer_list<int64_t> values) {
  std::vector<Value> v;
  for (int64_t x : values) v.push_back(Value::Int(x));
  return Tuple(std::move(v));
}

mra::RelationSchema IntSchema(const char* a, const char* b) {
  return mra::RelationSchema(
      {{a, mra::Type::Int()}, {b, mra::Type::Int()}});
}

constexpr int kGroups = 100;

struct Generated {
  Relation fact{IntSchema("k", "v")};
  Relation dim{IntSchema("k", "g")};
};

/// fact: ~1M distinct (k, v) with multiplicities uniform in 1..4; dim: one
/// row per key k with g uniform over kGroups values.
Generated Generate(uint64_t seed, double scale) {
  Generated g;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 11);
  int64_t dim_rows =
      std::max<int64_t>(50, static_cast<int64_t>(250'000 * scale));
  int64_t fact_rows =
      std::max<int64_t>(200, static_cast<int64_t>(1'000'000 * scale));
  for (int64_t k = 0; k < dim_rows; ++k) {
    g.dim.InsertUnchecked(Ints({k, static_cast<int64_t>(rng() % kGroups)}), 1);
  }
  for (int64_t i = 0; i < fact_rows; ++i) {
    int64_t k = static_cast<int64_t>(rng() % dim_rows);
    int64_t v = static_cast<int64_t>(rng() % fact_rows);
    g.fact.InsertUnchecked(Ints({k, v}), 1 + rng() % 4);
  }
  return g;
}

/// One request template with the bag the server must answer.
struct Template {
  std::string name;
  bool script = false;
  std::string text;  // What the client sends.
  std::string expr;  // The relation expression, for the definitional check.
  bool joins = false;
  Canon expected;
};

// The five-slot rotation over the four templates: the group-by is sent
// twice, so the median and p90 each fall inside one template's latency
// class rather than on the boundary between two.
constexpr size_t kRotation[] = {0, 1, 2, 0, 3};

/// The four templates, each with its expected bag computed directly from
/// the loaded relations.
std::vector<Template> MakeTemplates(const Relation& fact, const Relation& dim,
                                    double scale) {
  const std::string join = "join(%1 = %3, fact, dim)";
  std::vector<int64_t> dim_g(dim.distinct_size());
  for (const auto& [tuple, m] : dim) {
    dim_g[tuple.at(0).int_value()] = tuple.at(1).int_value();
  }

  // Γ_g sum(v), cnt over fact ⋈ dim.
  const std::string gb_expr = "groupby([%4], sum(%2), cnt(%1), " + join + ")";
  Template gb{"groupby_join", false, gb_expr, gb_expr, true, {}};
  std::vector<std::pair<int64_t, int64_t>> per_group(kGroups, {0, 0});
  for (const auto& [tuple, m] : fact) {
    int64_t grp = dim_g[tuple.at(0).int_value()];
    per_group[grp].first += tuple.at(1).int_value() * static_cast<int64_t>(m);
    per_group[grp].second += static_cast<int64_t>(m);
  }
  for (int grp = 0; grp < kGroups; ++grp) {
    if (per_group[grp].second == 0) continue;
    gb.expected[Ints({grp, per_group[grp].first, per_group[grp].second})
                    .ToString()] = 1;
  }

  // Weighted Top-10 by v descending over the join; ties break on the
  // whole tuple ascending, so (-v, k) orders the joined rows.
  const std::string top_expr = "sort([-%2], " + join + ", 10)";
  Template top{"top10_join", false, top_expr, top_expr, true, {}};
  std::vector<std::pair<Tuple, uint64_t>> rows(fact.begin(), fact.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    int64_t va = a.first.at(1).int_value(), vb = b.first.at(1).int_value();
    if (va != vb) return va > vb;
    return a.first.at(0).int_value() < b.first.at(0).int_value();
  });
  uint64_t left = 10;
  for (const auto& [tuple, m] : rows) {
    if (left == 0) break;
    int64_t k = tuple.at(0).int_value();
    uint64_t take = std::min(left, m);
    top.expected[Ints({k, tuple.at(1).int_value(), k, dim_g[k]})
                     .ToString()] += take;
    left -= take;
  }

  // cnt of δ(π_v fact).
  const std::string dd_expr =
      "groupby([], cnt(%1), unique(project([%2], fact)))";
  Template dd{"count_distinct", false, dd_expr, dd_expr, false, {}};
  std::unordered_set<int64_t> distinct_v;
  for (const auto& [tuple, m] : fact) distinct_v.insert(tuple.at(1).int_value());
  dd.expected[Ints({static_cast<int64_t>(distinct_v.size())}).ToString()] = 1;

  // A sort that must spill: the run cap is set for this script only.
  int64_t cut = static_cast<int64_t>(fact.distinct_size()) / 4;
  uint64_t spill_bytes =
      std::max<uint64_t>(4096, static_cast<uint64_t>((4u << 20) * scale));
  Template sp{"sort_spill", true, "", "", false, {}};
  sp.expr = "groupby([], cnt(%1), max(%2), sort([%2], select(%2 < " +
            std::to_string(cut) + ", fact)))";
  sp.text = "set sort_spill_bytes = " + std::to_string(spill_bytes) +
            "; ? " + sp.expr + "; set sort_spill_bytes = 0;";
  int64_t cnt = 0, max_v = -1;
  for (const auto& [tuple, m] : fact) {
    int64_t v = tuple.at(1).int_value();
    if (v < cut) {
      cnt += static_cast<int64_t>(m);
      max_v = std::max(max_v, v);
    }
  }
  sp.expected[Ints({cnt, max_v}).ToString()] = 1;

  return {gb, top, dd, sp};
}

bool Matches(const Template& t, const Result<std::vector<Relation>>& reply) {
  if (!reply.ok() || reply->size() != 1) return false;
  return CanonOf(reply->front()) == t.expected;
}

/// Σ lane busy time over Σ elapsed self time of the parallel operators,
/// and the widest lane count, from an embedded re-run with exec timing.
struct ParallelProfile {
  double cpu_ns = 0;
  double elapsed_ns = 0;
  uint32_t lanes = 0;
};

void AddParallelProfile(const mra::lang::QueryStats& stats,
                        ParallelProfile* p) {
  const auto& ops = stats.operators;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].metrics.workers == 0) continue;
    double children = 0;
    for (size_t j = i + 1; j < ops.size() && ops[j].depth > ops[i].depth; ++j) {
      if (ops[j].depth == ops[i].depth + 1) {
        children += static_cast<double>(ops[j].metrics.total_ns());
      }
    }
    p->cpu_ns += static_cast<double>(ops[i].metrics.cpu_ns);
    p->elapsed_ns += std::max(
        1.0, static_cast<double>(ops[i].metrics.total_ns()) - children);
    p->lanes = std::max(p->lanes, ops[i].metrics.workers);
  }
}

}  // namespace

Status RunAnalytic(const RunOptions& options, WorkloadResult* result) {
  Fixture fx;
  MRA_RETURN_IF_ERROR(MeasureSetup(
      options,
      [&](int, Fixture* f) -> Status {
        Generated g = Generate(options.seed, options.scale);
        MRA_ASSIGN_OR_RETURN(f->db, mra::Database::Open());
        MRA_RETURN_IF_ERROR(LoadRelation(f->db.get(), "fact", std::move(g.fact)));
        MRA_RETURN_IF_ERROR(LoadRelation(f->db.get(), "dim", std::move(g.dim)));
        return f->Serve({"fact", "dim"}, 1);
      },
      &fx, &result->report));
  std::vector<Template> templates;
  size_t fact_distinct = 0, dim_rows = 0;
  {
    auto lock = fx.db->ReadLock();
    MRA_ASSIGN_OR_RETURN(const Relation* fact, fx.db->catalog().GetRelation("fact"));
    MRA_ASSIGN_OR_RETURN(const Relation* dim, fx.db->catalog().GetRelation("dim"));
    templates = MakeTemplates(*fact, *dim, options.scale);
    fact_distinct = fact->distinct_size();
    dim_rows = dim->distinct_size();
    result->stamp.push_back(
        "relations: fact distinct=" + std::to_string(fact_distinct) +
        " weighted=" + std::to_string(fact->size()) +
        ", dim=" + std::to_string(dim_rows) + " (" +
        std::to_string(kGroups) + " groups)");
  }
  result->stamp.push_back(FingerprintLine(*fx.db, {"fact", "dim"}));
  result->stamp.push_back("clients=1 closed loop; flush policy: in-memory "
                          "database, no WAL");

  // Oracles, before timing: each template once through the server against
  // the generation-side bag, and against the definitional EvaluatePlan
  // where that is affordable.  The definitional ⋈ is a nested loop
  // (|fact|·|dim| pairs), so the join templates meet it only up to
  // kMaxDefinitionalPairs — the self-test's 1% scale has 2.5e7 pairs; at
  // full scale they are checked against the generation-side bag alone.
  constexpr double kMaxDefinitionalPairs = 3e7;
  const double pairs = static_cast<double>(fact_distinct) *
                       static_cast<double>(dim_rows);
  size_t definitional_checks = 0;
  for (const Template& t : templates) {
    Result<std::vector<Relation>> reply =
        Send(fx.clients[0], Request{0, t.script, t.text, 0});
    ++result->attempted;
    if (!Matches(t, reply)) {
      ++result->failed;
      result->Fail(t.name + ": server answer differs from the generated "
                            "expectation" +
                   (reply.ok() ? "" : " (" + reply.status().ToString() + ")"));
      continue;
    }
    if (t.joins && pairs > kMaxDefinitionalPairs) continue;
    auto lock = fx.db->ReadLock();
    MRA_ASSIGN_OR_RETURN(mra::lang::RelExprPtr expr,
                         mra::lang::ParseRelExpr(t.expr));
    MRA_ASSIGN_OR_RETURN(mra::PlanPtr plan,
                         mra::lang::BindRelExpr(*expr, fx.db->catalog()));
    MRA_ASSIGN_OR_RETURN(Relation definitional,
                         mra::EvaluatePlan(*plan, fx.db->catalog()));
    ++definitional_checks;
    if (!definitional.Equals(reply->front())) {
      ++result->failed;
      result->Fail(t.name + ": server answer differs from EvaluatePlan");
    }
  }
  result->stamp.push_back("definitional EvaluatePlan check: " +
                          std::to_string(definitional_checks) + " of " +
                          std::to_string(templates.size()) + " templates");

  const RequestSource source = [&](int, uint64_t i) -> std::optional<Request> {
    size_t slot = kRotation[i % std::size(kRotation)];
    const Template& t = templates[slot];
    return Request{static_cast<int>(slot), t.script, t.text, i};
  };
  const Checker check = [&](const Request& req,
                            const Result<std::vector<Relation>>& reply) {
    return Matches(templates[req.cls], reply) ? Verdict::kOk : Verdict::kWrong;
  };
  Measured m;
  MRA_RETURN_IF_ERROR(MeasureWindows(
      options,
      [&](double seconds, SpanRecorder* spans) -> Result<LoopResult> {
        return RunClosedLoop(fx.clients, source, check, seconds, spans);
      },
      result, &m));

  if (options.trace) {
    // Side call: re-run each template on an embedded interpreter with the
    // server's configuration to read lane counts and lane busy time,
    // which the wire trailer does not carry.
    mra::lang::InterpreterOptions config;
    config.exec.workers = static_cast<size_t>(Nproc());
    mra::lang::Interpreter interp(fx.db.get(), config);
    ParallelProfile profile;
    mra::obs::ScopedExecTiming timing(true);
    for (const Template& t : templates) {
      Status s = Traced(m.spans.get(), "side.embedded_query", 0, [&] {
        return t.script ? interp.ExecuteScriptCollect(t.text).status()
                        : interp.Query(t.text).status();
      });
      MRA_RETURN_IF_ERROR(s);
      AddParallelProfile(interp.last_query_stats(), &profile);
    }
    result->report.Add("parallel.speedup",
                       profile.elapsed_ns > 0
                           ? profile.cpu_ns / profile.elapsed_ns
                           : 0,
                       "ratio");
    result->report.Add("parallel.lanes", profile.lanes, "count");

    double ratio = result->report.Get("trace.op_self_over_exec");
    if (ratio < 0.9 || ratio > 1.1) {
      result->Fail("operator self times sum to " + std::to_string(ratio) +
                   " of trailer exec_us (want within 10%)");
    }
    if (result->report.Get("sort.spill_runs") <= 0) {
      result->Fail("the sort template did not spill");
    }
    if (profile.lanes <= 1 && Nproc() > 1) {
      result->Fail("no parallel operator ran with more than one lane");
    }
  }
  fx.StopServing();
  return Status::OK();
}

}  // namespace e2e
