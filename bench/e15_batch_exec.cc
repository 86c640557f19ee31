// E15 — batch-at-a-time execution: NextBatch() at the default capacity
// (1024 rows) vs capacity 1 on the canonical scan → filter → project
// pipeline.
//
// At capacity 1 every row pays the per-pull costs — a virtual call, the
// governance check and the metrics update per operator — that a full
// batch amortizes across RowBatch::capacity rows.  The summary block times
// the pipeline both ways (best of 3) and reports the speedup; both drains
// must produce the multiset the definitional σ/π compute (asserted).
// Prints "REGRESSION" when the default capacity is *slower* than
// capacity 1, so the CI smoke run can grep for it, and writes the host,
// scale, timings and verdict to BENCH_e15.json in the working directory.
//
//   $ ./build/bench/e15_batch_exec                  # full 1M-row summary
//   $ ./build/bench/e15_batch_exec --rows 50000     # CI smoke scale

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_util.h"
#include "mra/algebra/ops.h"
#include "mra/exec/operator.h"
#include "mra/expr/scalar_expr.h"

namespace mra {
namespace bench {
namespace {

constexpr int64_t kValueRange = 1'000'000;

Relation MakePipelineInput(size_t rows) {
  util::IntRelationOptions options;
  options.name = "r";
  options.distinct_tuples = rows;
  options.arity = 2;
  options.value_range = kValueRange;
  options.duplicates = util::DupDistribution::kUniform;
  options.max_multiplicity = 4;
  options.seed = 15;
  return Unwrap(util::MakeIntRelation(options));
}

ExprPtr PipelineCondition() { return Lt(Attr(0), Lit(kValueRange / 2)); }

// σ_{%1 < kValueRange/2} then π_{%1}: ~50% selectivity, both stages on the
// operators' batch fast paths (compiled predicate, attribute-only
// projection).
exec::PhysOpPtr BuildPipeline(const Relation* input) {
  auto filter = std::make_unique<exec::FilterOp>(
      PipelineCondition(), std::make_unique<exec::ScanOp>(input));
  RelationSchema out_schema("p", {Attribute{"c1", Type::Int()}});
  std::vector<ExprPtr> exprs;
  exprs.push_back(Attr(0));
  return std::make_unique<exec::ComputeOp>(
      std::move(exprs), std::move(out_schema), std::move(filter));
}

// Pulls every row through the operator tree without materialising a
// result relation: this times the pipeline itself — scan, filter,
// project, and the inter-operator hand-off — which is what the batch
// capacity changes.  (Materialising into a hash Relation costs the same
// per row at every capacity and only dilutes the comparison; result
// identity is asserted separately below via ExecuteToRelation.)  Returns
// the multiplicity-weighted row count so the work cannot be optimised
// away.
uint64_t DrainPipeline(exec::PhysicalOperator& root, size_t capacity) {
  MRA_CHECK(root.Open().ok());
  uint64_t weighted = 0;
  exec::RowBatch batch(capacity);
  while (true) {
    MRA_CHECK(root.NextBatch(batch).ok());
    if (batch.empty()) break;
    for (const exec::Row& row : batch) weighted += row.count;
  }
  root.Close();
  return weighted;
}

double SecondsToDrain(const Relation* input, size_t capacity,
                      uint64_t* weighted_out) {
  exec::PhysOpPtr root = BuildPipeline(input);
  auto start = std::chrono::steady_clock::now();
  *weighted_out = DrainPipeline(*root, capacity);
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

void BM_ScanFilterProject(benchmark::State& state) {
  // Arg is the batch capacity.
  Relation input = MakePipelineInput(100'000);
  size_t capacity = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    exec::PhysOpPtr root = BuildPipeline(&input);
    benchmark::DoNotOptimize(DrainPipeline(*root, capacity));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.distinct_size()));
}
BENCHMARK(BM_ScanFilterProject)->Arg(1)->Arg(64)->Arg(1024)->Arg(4096);

void VerifySpeedup(size_t rows) {
  Header("E15: batch-at-a-time execution",
         "Claim: pulling full RowBatches (capacity 1024) through "
         "scan->filter->project is no slower than pulling one row per "
         "NextBatch call, with the definitional result multiset.");
  Relation input = MakePipelineInput(rows);

  // Result identity first: the speedup is worthless if either capacity
  // changes the answer.
  Relation selected = Unwrap(ops::Select(PipelineCondition(), input));
  Relation expected = Unwrap(ops::ProjectIndexes({0}, selected));
  for (size_t capacity : {size_t{1}, exec::kDefaultBatchSize}) {
    exec::PhysOpPtr root = BuildPipeline(&input);
    MRA_CHECK(Unwrap(exec::ExecuteToRelation(*root, capacity)).Equals(expected))
        << "capacity " << capacity << " changed the result multiset";
  }

  // Best-of-3 per capacity: these are wall-clock seconds, so guard against
  // a scheduler hiccup polluting the ratio.
  double single_s = 1e30;
  double batch_s = 1e30;
  uint64_t single_weighted = 0;
  uint64_t batch_weighted = 0;
  for (int rep = 0; rep < 3; ++rep) {
    single_s = std::min(single_s, SecondsToDrain(&input, 1, &single_weighted));
    batch_s = std::min(batch_s, SecondsToDrain(&input, exec::kDefaultBatchSize,
                                               &batch_weighted));
  }
  MRA_CHECK(single_weighted == expected.size() &&
            batch_weighted == expected.size())
      << "capacities drained different bag cardinalities";

  const double single_rps = static_cast<double>(rows) / single_s;
  const double batch_rps = static_cast<double>(rows) / batch_s;
  const double speedup = single_s / batch_s;
  const char* verdict = speedup >= 1.0 ? "pass" : "fail";
  Row("%-12s %-16s %-16s %-16s %-16s %-10s", "rows", "capacity 1 s",
      "capacity 1024 s", "rows/s @1", "rows/s @1024", "speedup");
  Row("%-12zu %-16.3f %-16.3f %-16.3g %-16.3g %.2fx", rows, single_s,
      batch_s, single_rps, batch_rps, speedup);
  if (speedup < 1.0) {
    Row("REGRESSION: capacity 1024 slower than capacity 1 (%.2fx)", speedup);
  }
  Row("");
  Row("result: %llu rows (%llu distinct), identical at both capacities",
      static_cast<unsigned long long>(expected.size()),
      static_cast<unsigned long long>(expected.distinct_size()));

  std::ostringstream json;
  json << "{\n  \"experiment\": \"E15\",\n"
       << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu_model\": " << JsonString(CpuModel()) << "},\n"
       << "  \"scale\": {\"rows\": " << rows << "},\n"
       << "  \"seconds_best_of_3\": {\"1\": " << single_s
       << ", \"1024\": " << batch_s << "},\n"
       << "  \"rows_per_s\": {\"1\": " << single_rps
       << ", \"1024\": " << batch_rps << "},\n"
       << "  \"gates\": [{\"name\": \"capacity 1024 no slower than "
          "capacity 1\", \"value\": "
       << speedup << ", \"verdict\": \"" << verdict << "\"}]\n}\n";
  std::ofstream("BENCH_e15.json") << json.str();
  Row("wrote BENCH_e15.json");
}

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
  mra::bench::VerifySpeedup(rows);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mra::bench::DumpMetricsJson("E15");
  return 0;
}
