// E20 — morsel-driven intra-query parallel scaling (supersedes E11, which
// measured the old free-standing parallel helpers; docs/PARALLELISM.md).
//
// The claim: at the 1M-row scale the hash kernels scale with worker lanes
// — the 4-worker join+group-by pipeline runs >= 2x faster than 1 worker.
// One lane is the serial configuration: there is no other kernel to
// compare it with.
//
// The gate prints a "REGRESSION" line when violated so the CI smoke run
// can grep for it; on machines with fewer than 4 hardware threads, where
// a 2x expectation is physically meaningless, it reports itself as
// not-armed.  Result multisets are asserted identical across all lane
// counts before anything is timed.  A per-layer split (scans, build,
// probe, Γ) from the operators' own timing follows the table, with the
// plan's teardown after the drain as a last column.  The run is also
// written as JSON (host, scale, seconds per lane count, the layer split
// at 1 and 4 lanes, the gate's verdict) to BENCH_e20.json in the working
// directory.
//
//   $ ./build/bench/e20_parallel_scaling               # full 1M-row run
//   $ ./build/bench/e20_parallel_scaling --rows 200000 # CI smoke scale

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "mra/algebra/ops.h"
#include "mra/exec/operator.h"
#include "mra/expr/scalar_expr.h"
#include "mra/obs/op_metrics.h"
#include "mra/parallel/parallel_ops.h"

namespace mra {
namespace bench {
namespace {

Relation MakeInput(size_t distinct, int64_t value_range, uint64_t seed,
                   const char* name) {
  util::IntRelationOptions options;
  options.name = name;
  options.distinct_tuples = distinct;
  options.arity = 2;
  options.value_range = value_range;
  options.duplicates = util::DupDistribution::kUniform;
  options.max_multiplicity = 4;
  options.seed = seed;
  return Unwrap(util::MakeIntRelation(options));
}

constexpr size_t kMorsel = 1024;

/// The measured pipeline: Γ_{k, sum, cnt}(jl ⋈_{k=k} jr) — a partitioned
/// build+probe feeding a partitioned two-phase aggregation, on `workers`
/// lanes.
exec::PhysOpPtr BuildPipeline(const Relation* left, const Relation* right,
                              size_t workers) {
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "sum_v"},
                               {AggKind::kCnt, 0, "cnt"}};
  exec::PhysOpPtr join = std::make_unique<parallel::HashJoinOp>(
      std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
      std::make_unique<exec::ScanOp>(left),
      std::make_unique<exec::ScanOp>(right), workers, kMorsel);
  RelationSchema schema =
      Unwrap(ops::GroupBySchema({0}, aggs, join->schema()));
  return std::make_unique<parallel::HashGroupByOp>(
      std::vector<size_t>{0}, aggs, schema, std::move(join), workers,
      kMorsel);
}

uint64_t Drain(exec::PhysicalOperator& root) {
  MRA_CHECK(root.Open().ok());
  exec::RowBatch batch;
  uint64_t weighted = 0;
  while (true) {
    MRA_CHECK(root.NextBatch(batch).ok());
    if (batch.empty()) break;
    for (const exec::Row& row : batch) weighted += row.count;
  }
  root.Close();
  return weighted;
}

double SecondsToDrain(const std::function<exec::PhysOpPtr()>& make,
                      uint64_t* weighted_out) {
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    exec::PhysOpPtr root = make();
    auto start = std::chrono::steady_clock::now();
    *weighted_out = Drain(*root);
    auto end = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(end - start).count());
  }
  return best;
}

/// Wall milliseconds per layer of one timed drain.
struct LayerSplit {
  double scans_ms, build_ms, probe_ms, group_by_ms, teardown_ms;
};

/// One timed drain, split by layer from the operators' own metrics (wall
/// time, each layer exclusive of the ones below it): both scans, the
/// join's build and probe, and the group-by on top — then the teardown,
/// timed here: destroying the drained plan with its hash arenas.
LayerSplit MeasureLayers(const Relation* left, const Relation* right,
                         size_t workers) {
  exec::PhysOpPtr root = BuildPipeline(left, right, workers);
  {
    obs::ScopedExecTiming timing(true);
    Drain(*root);
  }
  const exec::PhysicalOperator& join = *root->children()[0];
  const obs::OperatorMetrics& probe_scan = join.children()[0]->metrics();
  const obs::OperatorMetrics& build_scan = join.children()[1]->metrics();
  const obs::OperatorMetrics& j = join.metrics();
  auto ms = [](double ns) { return ns / 1e6; };
  LayerSplit split;
  split.scans_ms = ms(probe_scan.total_ns() + build_scan.total_ns());
  split.build_ms = ms(static_cast<double>(j.open_ns) - build_scan.total_ns());
  split.probe_ms = ms(static_cast<double>(j.next_ns) - probe_scan.total_ns());
  split.group_by_ms =
      ms(static_cast<double>(root->metrics().total_ns()) - j.total_ns());
  auto start = std::chrono::steady_clock::now();
  root.reset();
  split.teardown_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return split;
}

void VerifyScaling(size_t rows) {
  Header("E20: morsel-driven parallel scaling",
         "Claim: the hash join + group-by pipeline at 1M rows reaches "
         ">= 2x at 4 workers over 1.");

  size_t side = std::max<size_t>(10'000, rows / 2);
  int64_t range = static_cast<int64_t>(side) / 2;
  Relation jl = MakeInput(side, range, 20, "jl");
  Relation jr = MakeInput(side, range, 21, "jr");

  // The one-lane bag is the reference, asserted identical at every other
  // lane count (the definitional ⋈ is quadratic at this scale; the
  // differential suites check the kernels against it).
  Relation reference =
      Unwrap(exec::ExecuteToRelation(*BuildPipeline(&jl, &jr, 1)));
  const size_t lane_counts[] = {1, 2, 4, 8};
  for (size_t workers : lane_counts) {
    Relation result =
        Unwrap(exec::ExecuteToRelation(*BuildPipeline(&jl, &jr, workers)));
    MRA_CHECK(result.Equals(reference))
        << "the pipeline changed the result multiset at workers="
        << workers;
  }

  Row("%-10s %-12s %-12s", "workers", "seconds", "speedup");
  uint64_t weighted = 0;
  std::map<size_t, double> seconds;
  for (size_t workers : lane_counts) {
    seconds[workers] = SecondsToDrain(
        [&] { return BuildPipeline(&jl, &jr, workers); }, &weighted);
    Row("%-10zu %-12.4f %.2fx", workers, seconds[workers],
        seconds[1] / seconds[workers]);
  }

  Row("");
  Row("layer split, ms:");
  Row("%-10s %-10s %-10s %-10s %-10s %-10s", "workers", "scans", "build",
      "probe", "group-by", "teardown");
  std::map<size_t, LayerSplit> layers;
  for (size_t workers : {size_t{1}, size_t{4}}) {
    const LayerSplit& l = layers[workers] = MeasureLayers(&jl, &jr, workers);
    Row("%-10zu %-10.1f %-10.1f %-10.1f %-10.1f %-10.1f", workers,
        l.scans_ms, l.build_ms, l.probe_ms, l.group_by_ms, l.teardown_ms);
  }

  // The gate compares a fresh 4-worker timing, taken after the table, with
  // the 1-worker one.
  Row("");
  const unsigned hw = std::thread::hardware_concurrency();
  double speedup = 0.0;
  const char* verdict = "not-armed";
  if (hw < 4) {
    Row("4-worker speedup gate: not-armed (%u hardware threads < 4)", hw);
  } else {
    double four_worker_s = SecondsToDrain(
        [&] { return BuildPipeline(&jl, &jr, 4); }, &weighted);
    speedup = seconds[1] / four_worker_s;
    verdict = speedup >= 2.0 ? "pass" : "fail";
    Row("4-worker speedup over 1 worker: %.2fx (gate >= 2x: %s)", speedup,
        verdict);
    if (speedup < 2.0) {
      Row("REGRESSION: 4-worker speedup %.2fx below the 2x bar", speedup);
    }
  }

  std::ostringstream json;
  json << "{\n  \"experiment\": \"E20\",\n"
       << "  \"host\": {\"nproc\": " << hw
       << ", \"cpu_model\": " << JsonString(CpuModel()) << "},\n"
       << "  \"scale\": {\"rows\": " << rows << ", \"side\": " << side
       << ", \"morsel\": " << kMorsel << "},\n"
       << "  \"seconds_best_of_3\": {";
  const char* sep = "";
  for (const auto& [workers, s] : seconds) {
    json << sep << "\"" << workers << "\": " << s;
    sep = ", ";
  }
  json << "},\n  \"layers_ms\": {";
  sep = "";
  for (const auto& [workers, l] : layers) {
    json << sep << "\n    \"" << workers << "\": {\"scans\": " << l.scans_ms
         << ", \"build\": " << l.build_ms << ", \"probe\": " << l.probe_ms
         << ", \"group_by\": " << l.group_by_ms
         << ", \"teardown\": " << l.teardown_ms << "}";
    sep = ",";
  }
  json << "\n  },\n  \"gates\": [{\"name\": \"4-worker speedup over 1 "
          "worker >= 2x\", \"value\": "
       << speedup << ", \"verdict\": \"" << verdict << "\"}]\n}\n";
  std::ofstream("BENCH_e20.json") << json.str();
  Row("wrote BENCH_e20.json");
}

// --- Microbenchmarks across lane counts. ---

void BM_ParallelPipeline(benchmark::State& state) {
  size_t workers = static_cast<size_t>(state.range(0));
  size_t side = 500'000;
  Relation l = MakeInput(side, static_cast<int64_t>(side) / 2, 20, "l");
  Relation r = MakeInput(side, static_cast<int64_t>(side) / 2, 21, "r");
  for (auto _ : state) {
    exec::PhysOpPtr root = BuildPipeline(&l, &r, workers);
    benchmark::DoNotOptimize(Drain(*root));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(side));
}
BENCHMARK(BM_ParallelPipeline)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace bench
}  // namespace mra

int main(int argc, char** argv) {
  size_t rows = 1'000'000;
  // Strip --rows N before benchmark::Initialize sees (and rejects) it.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  mra::bench::VerifyScaling(rows);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mra::bench::DumpMetricsJson("E20");
  return 0;
}
