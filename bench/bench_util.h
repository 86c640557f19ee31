// Shared helpers for the experiment benchmarks (E1–E9 in DESIGN.md).
//
// Each bench binary prints, before the google-benchmark timing table, a
// paper-style summary block (the "rows" the experiment reproduces:
// equivalence checks, result cardinalities, speedup factors), so running
// `for b in build/bench/*; do $b; done` regenerates every reported series.

#ifndef MRA_BENCH_BENCH_UTIL_H_
#define MRA_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "mra/catalog/catalog.h"
#include "mra/common/check.h"
#include "mra/obs/metrics.h"
#include "mra/util/generator.h"

namespace mra {
namespace bench {

/// Aborts the benchmark on error results — benches only run on valid
/// plans, so failures are programming errors.
template <typename T>
T Unwrap(Result<T> result) {
  MRA_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

inline void Unwrap(const Status& status) {
  MRA_CHECK(status.ok()) << status.ToString();
}

/// Builds a catalog holding a generated beer database of the given scale.
inline Catalog MakeBeerCatalog(size_t num_beers, double duplicate_factor,
                               size_t num_breweries = 100) {
  util::BeerDbOptions options;
  options.num_beers = num_beers;
  options.num_breweries = num_breweries;
  options.num_beer_names = std::max<size_t>(num_beers / 4, 1);
  options.duplicate_factor = duplicate_factor;
  util::BeerDb db = Unwrap(util::MakeBeerDb(options));
  Catalog catalog;
  Unwrap(catalog.CreateRelation(db.beer.schema()));
  Unwrap(catalog.SetRelation("beer", std::move(db.beer)));
  Unwrap(catalog.CreateRelation(db.brewery.schema()));
  Unwrap(catalog.SetRelation("brewery", std::move(db.brewery)));
  return catalog;
}

/// Adds an integer relation to a catalog.
inline void AddIntRelation(Catalog* catalog, const std::string& name,
                           size_t distinct, int64_t value_range,
                           util::DupDistribution dup, uint64_t max_mult,
                           uint64_t seed) {
  util::IntRelationOptions options;
  options.name = name;
  options.distinct_tuples = distinct;
  options.value_range = value_range;
  options.duplicates = dup;
  options.max_multiplicity = max_mult;
  options.seed = seed;
  Relation rel = Unwrap(util::MakeIntRelation(options));
  Unwrap(catalog->CreateRelation(rel.schema()));
  Unwrap(catalog->SetRelation(name, std::move(rel)));
}

/// Prints a one-line summary row (the paper-style report).
template <typename... Args>
void Row(const char* format, Args... args) {
  std::printf(format, args...);
  std::printf("\n");
}

inline void Header(const char* experiment, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", experiment, claim);
}

/// The "model name" of the first CPU in /proc/cpuinfo, or "unknown" —
/// the host line of a committed BENCH_<exp>.json.
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

/// `text` as a JSON string literal (quotes and backslashes escaped, control
/// characters dropped; the CPU model string is the only free text the
/// BENCH files hold).
inline std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Dumps the process-wide metrics registry as JSON, tagged with the
/// experiment name — run after the summary block so each bench reports
/// what the engine actually did (rule firings, WAL traffic, queries).
inline void DumpMetricsJson(const char* experiment) {
  std::printf("\n--- metrics after %s ---\n%s\n", experiment,
              obs::MetricsRegistry::Global().RenderJson().c_str());
}

}  // namespace bench
}  // namespace mra

#endif  // MRA_BENCH_BENCH_UTIL_H_
