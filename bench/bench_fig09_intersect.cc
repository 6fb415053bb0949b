// Figure 9: MVIntersect vs CC-MVIntersect on the worst-case query — a
// 20-tuple lineage spread across the entire MV-index, forcing a complete
// traversal (all block-skipping shortcuts useless).
//
// Paper shape: both linear in the index size, the cache-conscious variant
// ~2x faster.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"

namespace mvdb {
namespace bench {
namespace {

/// A query lineage of ~20 Advisor tuples spaced evenly across the index's
/// variable range — the paper's "worst case scenario: it forced the system
/// to traverse entire MV-index".
Lineage WorstCaseLineage(const Mvdb& mvdb) {
  const Table* advisor = mvdb.db().Find("Advisor");
  Lineage q;
  const size_t n = advisor->size();
  const size_t stride = std::max<size_t>(1, n / 20);
  Clause clause;
  for (size_t r = 0; r < n; r += stride) {
    // One disjunct per tuple: DNF over spread-out variables.
    q.AddClause({advisor->var(static_cast<RowId>(r))});
  }
  (void)clause;
  return q;
}

/// Prints the figure series; returns false if any row's sweeps disagree.
bool PrintSeries() {
  bool all_agree = true;
  std::printf("%-12s %14s %16s %20s %18s %12s\n", "aid domain", "index nodes",
              "mvintersect(s)", "cc-mvintersect(s)", "cc-batch8/q(s)",
              "agree");
  for (int n : AidDomainSweep()) {
    Workload w = MakeWorkload(SweepConfig(n));
    const Lineage q = WorstCaseLineage(*w.mvdb);
    BddManager qmgr(w.engine->index().manager().order());
    const CcQuery qb{&qmgr, qmgr.FromLineageSynthesis(q)};

    // Compare final Eq. 5 probabilities: the raw numerators leave double
    // range by design (extended-range arithmetic; the ratio is ordinary).
    const ScaledDouble denom = w.engine->index().ProbNotWScaled();
    constexpr int kReps = 200;
    Timer td_timer;
    ScaledDouble td_num;
    for (int i = 0; i < kReps; ++i) {
      td_num = w.engine->index().MVIntersectScaled(qb);
    }
    const double td_s = td_timer.Seconds() / kReps;
    const double td = (td_num / denom).ToDouble();

    CcSweepScratch scratch;
    Timer cc_timer;
    ScaledDouble cc_num;
    for (int i = 0; i < kReps; ++i) {
      cc_num = w.engine->index().CCMVIntersectScaled(qb, &scratch);
    }
    const double cc_s = cc_timer.Seconds() / kReps;
    const double cc = (cc_num / denom).ToDouble();

    // The serving layer's batch call: 8 in-flight copies of the worst-case
    // query through one CCMVIntersectBatchScaled over one scratch.
    const std::vector<CcQuery> batch(8, qb);
    std::vector<ScaledDouble> out;
    Timer batch_timer;
    for (int i = 0; i < kReps / 8; ++i) {
      w.engine->index().CCMVIntersectBatchScaled(batch, &scratch, &out);
    }
    const double batch_s = batch_timer.Seconds() / (kReps / 8) / 8;
    const double bt = (out.back() / denom).ToDouble();

    const bool agree =
        std::abs(td - cc) <= 1e-9 * std::max(1.0, std::abs(td)) && bt == cc;
    std::printf("%-12d %14zu %16.6f %20.6f %18.6f %12s\n", n,
                w.engine->index().size(), td_s, cc_s, batch_s,
                agree ? "yes" : "NO");
    all_agree = all_agree && agree;
    JsonLine("fig09_intersect")
        .Field("aid_domain", n)
        .Field("flat_nodes", w.engine->index().size())
        .Field("mvintersect_s", td_s)
        .Field("cc_mvintersect_s", cc_s)
        .Field("cc_batch8_per_query_s", batch_s)
        .Emit();
  }
  return all_agree;
}

void BM_MVIntersect(benchmark::State& state) {
  Workload w = MakeWorkload(SweepConfig(static_cast<int>(state.range(0))));
  const Lineage q = WorstCaseLineage(*w.mvdb);
  BddManager qmgr(w.engine->index().manager().order());
  const CcQuery qb{&qmgr, qmgr.FromLineageSynthesis(q)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.engine->index().MVIntersectScaled(qb));
  }
}
BENCHMARK(BM_MVIntersect)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_CCMVIntersect(benchmark::State& state) {
  Workload w = MakeWorkload(SweepConfig(static_cast<int>(state.range(0))));
  const Lineage q = WorstCaseLineage(*w.mvdb);
  BddManager qmgr(w.engine->index().manager().order());
  const CcQuery qb{&qmgr, qmgr.FromLineageSynthesis(q)};
  CcSweepScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.engine->index().CCMVIntersectScaled(qb, &scratch));
  }
}
BENCHMARK(BM_CCMVIntersect)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// The serving layer's batch call: 8 concurrent worst-case queries, one solo
/// sweep each over one scratch. Compare against 8x BM_CCMVIntersect at the
/// same Arg.
void BM_CCMVIntersectBatch8(benchmark::State& state) {
  Workload w = MakeWorkload(SweepConfig(static_cast<int>(state.range(0))));
  const Lineage q = WorstCaseLineage(*w.mvdb);
  BddManager qmgr(w.engine->index().manager().order());
  const std::vector<CcQuery> batch(
      8, CcQuery{&qmgr, qmgr.FromLineageSynthesis(q)});
  CcSweepScratch scratch;
  std::vector<ScaledDouble> out;
  for (auto _ : state) {
    w.engine->index().CCMVIntersectBatchScaled(batch, &scratch, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CCMVIntersectBatch8)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace mvdb

int main(int argc, char** argv) {
  mvdb::bench::PrintFigureHeader(
      "Figure 9", "MVIntersect vs CC-MVIntersect, worst-case query");
  if (!mvdb::bench::PrintSeries()) {
    std::fprintf(stderr, "fig09: MVIntersect and CC-MVIntersect disagree\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
