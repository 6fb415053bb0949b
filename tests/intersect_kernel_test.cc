// Parity battery for the hot-path kernels of the offline build and the
// online CC sweep. Every kernel behind an MvIndexBuildOptions hatch —
// fused translate, radix ordering, pre-sorted synthesis — must be
// bit-identical to its classic counterpart: same flat layout, same
// extended-range probabilities, same answer bits. The CC sweep has one
// path: the serving golden hash of serve_concurrency_test is pinned here,
// randomized query OBDDs (widening fronts, true sinks past the block
// level, sink-only collapses) are checked against the recursive
// MVIntersect, and batch and scratch reuse are checked bitwise against
// solo sweeps on fresh scratch. Runs under the TSan and ASan/UBSan CI
// jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "mvindex/mv_index.h"
#include "query/eval.h"
#include "test_util.h"

namespace mvdb {
namespace {

/// Same clamp rule as the engine/server (noise at the [0,1] borders).
double ClampProb(double p) {
  if (p < 0.0 && p > -1e-9) return 0.0;
  if (p > 1.0 && p < 1.0 + 1e-9) return 1.0;
  return p;
}

void FnvMix(uint64_t v, uint64_t* h) { *h = (*h ^ v) * 1099511628211ULL; }

uint64_t HashAnswers(const std::vector<std::vector<AnswerProb>>& per_query) {
  uint64_t h = 1469598103934665603ULL;
  FnvMix(per_query.size(), &h);
  for (const auto& answers : per_query) {
    FnvMix(answers.size(), &h);
    for (const AnswerProb& a : answers) {
      for (const Value v : a.head) {
        FnvMix(static_cast<uint64_t>(static_cast<int64_t>(v)), &h);
      }
      uint64_t bits;
      std::memcpy(&bits, &a.prob, sizeof(bits));
      FnvMix(bits, &h);
    }
  }
  return h;
}

/// FNV-1a over the flat topology, node by node (the bench_build_scale
/// parity digest).
uint64_t HashLayout(const FlatObdd& flat) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](int32_t v) {
    h = (h ^ static_cast<uint32_t>(v)) * 1099511628211ULL;
  };
  mix(flat.root());
  for (FlatId u = 0; u < static_cast<FlatId>(flat.size()); ++u) {
    mix(flat.level(u));
    mix(flat.lo(u));
    mix(flat.hi(u));
  }
  return h;
}

bool SameBits(const ScaledDouble& a, const ScaledDouble& b) {
  if (!(a == b)) return false;
  const double da = a.ToDouble();
  const double db = b.ToDouble();
  return std::memcmp(&da, &db, sizeof(double)) == 0;
}

/// The DBLP-400 instance of serve_concurrency_test, compiled once with all
/// kernels on (the defaults).
struct SharedWorkload {
  std::unique_ptr<Mvdb> mvdb;
  std::unique_ptr<QueryEngine> engine;
};

SharedWorkload& Shared() {
  static SharedWorkload* shared = [] {
    auto* s = new SharedWorkload();
    dblp::DblpConfig cfg;
    cfg.num_authors = 400;
    cfg.include_affiliation = true;
    auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
    MVDB_CHECK(mvdb.ok());
    s->mvdb = std::move(mvdb).value();
    s->engine = std::make_unique<QueryEngine>(s->mvdb.get());
    MVDB_CHECK(s->engine->Compile().ok());
    return s;
  }();
  return *shared;
}

/// The serving-layer serial reference of serve_concurrency_test: Eval,
/// fresh-manager synthesis, one solo CC sweep per answer root.
std::vector<std::vector<AnswerProb>> ServingReference(SharedWorkload& s) {
  std::vector<Ucq> queries;
  const Table* advisor = s.mvdb->db().Find("Advisor");
  MVDB_CHECK(advisor != nullptr && advisor->size() >= 6);
  const size_t stride = advisor->size() / 6;
  for (size_t i = 0; i < 6; ++i) {
    const Value senior = advisor->At(static_cast<RowId>(i * stride), 1);
    queries.push_back(dblp::StudentsOfAdvisorQuery(
        s.mvdb.get(), dblp::AuthorName(static_cast<int>(senior))));
  }
  const Table* aff = s.mvdb->db().Find("Affiliation");
  MVDB_CHECK(aff != nullptr && aff->size() >= 3);
  for (size_t i = 0; i < 3; ++i) {
    const Value aid = aff->At(static_cast<RowId>(i), 0);
    queries.push_back(dblp::AffiliationOfAuthorQuery(
        s.mvdb.get(), dblp::AuthorName(static_cast<int>(aid))));
  }
  queries.push_back(
      dblp::StudentsOfAdvisorQuery(s.mvdb.get(), "no-such-author"));

  const MvIndex& index = s.engine->index();
  const ScaledDouble denom = index.ProbNotWScaled();
  CcSweepScratch scratch;
  std::vector<std::vector<AnswerProb>> reference;
  for (const Ucq& q : queries) {
    AnswerMap answers;
    MVDB_CHECK(Eval(s.mvdb->db(), q, EvalOptions{}, &answers).ok());
    BddManager qmgr(index.manager().order());
    std::vector<AnswerProb> out;
    for (const auto& [head, info] : answers) {
      const NodeId root = qmgr.FromLineageSynthesis(info.lineage);
      const ScaledDouble num =
          index.CCMVIntersectScaled(CcQuery{&qmgr, root}, &scratch);
      out.push_back(AnswerProb{head, ClampProb((num / denom).ToDouble())});
    }
    reference.push_back(std::move(out));
  }
  return reference;
}

// Golden hash shared with serve_concurrency_test.
constexpr uint64_t kGoldenAnswers = 9734561884288702949ULL;

TEST(IntersectKernelTest, ServingGoldenHash) {
  EXPECT_EQ(HashAnswers(ServingReference(Shared())), kGoldenAnswers);
}

/// Builds a deterministic pool of randomized query OBDDs over the index's
/// variable order: DNF and CNF mixes over random levels, plus single
/// literals and negations — narrow chains, widening diamonds, and constant
/// collapses.
std::vector<NodeId> RandomQueryPool(const MvIndex& index, BddManager* qmgr,
                                    size_t count, uint32_t seed = 0xA5F00Du) {
  const auto& order = *index.manager().order();
  const uint32_t levels = static_cast<uint32_t>(order.num_levels());
  std::mt19937 rng(seed);
  auto rand_lit = [&]() {
    const VarId v = order.var_at_level(static_cast<int32_t>(rng() % levels));
    const NodeId lit = qmgr->MkVar(v);
    return (rng() % 3 == 0) ? qmgr->Not(lit) : lit;
  };
  std::vector<NodeId> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t terms = 1 + rng() % 3;
    const bool dnf = (rng() % 2) == 0;
    NodeId acc = dnf ? BddManager::kFalse : BddManager::kTrue;
    for (size_t t = 0; t < terms; ++t) {
      const size_t lits = 1 + rng() % 4;
      NodeId term = rand_lit();
      for (size_t l = 1; l < lits; ++l) {
        term = dnf ? qmgr->And(term, rand_lit()) : qmgr->Or(term, rand_lit());
      }
      acc = dnf ? qmgr->Or(acc, term) : qmgr->And(acc, term);
    }
    pool.push_back(acc);
  }
  return pool;
}

TEST(IntersectKernelTest, RandomizedQueriesMatchRecursiveMVIntersect) {
  SharedWorkload& s = Shared();
  const MvIndex& index = s.engine->index();
  // The recursive MVIntersect reads query nodes from the index's own
  // manager, so the pool is built there and both sweeps take its roots.
  BddManager& qmgr = s.engine->manager();
  const std::vector<NodeId> pool = RandomQueryPool(index, &qmgr, 200);

  const ScaledDouble denom = index.ProbNotWScaled();
  CcSweepScratch scratch;
  size_t nontrivial = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    const double cc =
        (index.CCMVIntersectScaled(CcQuery{&qmgr, pool[i]}, &scratch) / denom)
            .ToDouble();
    const double rec =
        (index.MVIntersectScaled(pool[i]) / denom).ToDouble();
    EXPECT_NEAR(cc, rec, 1e-12 * std::max(1.0, std::abs(rec)))
        << "query " << i;
    if (rec != 0.0) ++nontrivial;
  }
  // The pool must actually exercise the sweep, not collapse to constants.
  EXPECT_GT(nontrivial, pool.size() / 2);
}

TEST(IntersectKernelTest, BatchOfNMatchesNSolo) {
  SharedWorkload& s = Shared();
  const MvIndex& index = s.engine->index();
  BddManager qmgr(index.manager().order());
  const std::vector<NodeId> pool = RandomQueryPool(index, &qmgr, 64);
  std::vector<CcQuery> batch;
  for (const NodeId root : pool) batch.push_back(CcQuery{&qmgr, root});

  CcSweepScratch scratch;
  std::vector<ScaledDouble> batched;
  index.CCMVIntersectBatchScaled(batch, &scratch, &batched);
  ASSERT_EQ(batched.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const ScaledDouble solo = index.CCMVIntersectScaled(batch[i], &scratch);
    EXPECT_TRUE(SameBits(batched[i], solo)) << "root " << i;
  }
}

TEST(IntersectKernelTest, ReusedScratchMatchesFreshScratchBitwise) {
  // One scratch carried across 200 queries of mixed width (its heap and
  // memo grow, shrink and rehash in a history no fresh scratch sees) must
  // give the same bits as a fresh scratch per query. Queries alternate
  // between two managers holding different pools, so one NodeId names
  // different query nodes from one query to the next.
  SharedWorkload& s = Shared();
  const MvIndex& index = s.engine->index();
  BddManager qmgr_a(index.manager().order());
  BddManager qmgr_b(index.manager().order());
  const std::vector<NodeId> pool_a = RandomQueryPool(index, &qmgr_a, 100);
  std::vector<NodeId> pool_b =
      RandomQueryPool(index, &qmgr_b, 100, /*seed=*/0x5EED2u);
  // Widen half of the second pool: ORs of pool entries give multi-entry
  // frontiers.
  for (size_t i = 0; i + 1 < pool_b.size(); i += 2) {
    pool_b[i] = qmgr_b.Or(pool_b[i], pool_b[i + 1]);
  }

  CcSweepScratch reused;
  for (size_t i = 0; i < 200; ++i) {
    const CcQuery q = (i % 2 == 0) ? CcQuery{&qmgr_a, pool_a[i / 2]}
                                   : CcQuery{&qmgr_b, pool_b[i / 2]};
    CcSweepScratch fresh;
    const ScaledDouble want = index.CCMVIntersectScaled(q, &fresh);
    EXPECT_TRUE(SameBits(index.CCMVIntersectScaled(q, &reused), want))
        << "query " << i;
  }
}

/// One full offline build with a given thread count and hatch setting.
struct BuiltCell {
  std::unique_ptr<Mvdb> mvdb;
  std::unique_ptr<QueryEngine> engine;
  uint64_t layout_hash = 0;
  size_t blocks = 0;
  ScaledDouble prob_not_w;
  uint64_t answers_hash = 0;
};

BuiltCell BuildCell(int threads, bool kernels_on) {
  BuiltCell cell;
  dblp::DblpConfig cfg;
  cfg.num_authors = 200;
  cfg.include_affiliation = true;
  cfg.num_threads = threads;  // parity also covers the generator streams
  auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
  MVDB_CHECK(mvdb.ok());
  cell.mvdb = std::move(mvdb).value();
  cell.engine = std::make_unique<QueryEngine>(cell.mvdb.get());
  CompileOptions copts;
  copts.num_threads = threads;
  copts.use_fused_translate = kernels_on;
  copts.use_radix_order = kernels_on;
  copts.use_presorted_synthesis = kernels_on;
  MVDB_CHECK(cell.engine->Compile(copts).ok());
  const MvIndex& index = cell.engine->index();
  cell.layout_hash = HashLayout(index.flat());
  cell.blocks = index.blocks().size();
  cell.prob_not_w = index.ProbNotWScaled();

  // One serving-style query through the built index, hashed bitwise.
  const Table* advisor = cell.mvdb->db().Find("Advisor");
  MVDB_CHECK(advisor != nullptr && advisor->size() > 0);
  const Ucq q = dblp::StudentsOfAdvisorQuery(
      cell.mvdb.get(),
      dblp::AuthorName(static_cast<int>(advisor->At(0, 1))));
  AnswerMap answers;
  MVDB_CHECK(Eval(cell.mvdb->db(), q, EvalOptions{}, &answers).ok());
  BddManager qmgr(index.manager().order());
  CcSweepScratch scratch;
  const ScaledDouble denom = index.ProbNotWScaled();
  std::vector<AnswerProb> out;
  for (const auto& [head, info] : answers) {
    const NodeId root = qmgr.FromLineageSynthesis(info.lineage);
    const ScaledDouble num =
        index.CCMVIntersectScaled(CcQuery{&qmgr, root}, &scratch);
    out.push_back(AnswerProb{head, ClampProb((num / denom).ToDouble())});
  }
  MVDB_CHECK(!out.empty());
  cell.answers_hash = HashAnswers({out});
  return cell;
}

TEST(IntersectKernelTest, BuildKernelParityAcrossThreadCounts) {
  // All three build kernels on vs all off, across thread counts
  // {1, 2, 8, 0} (0 = one shard per hardware thread): the flat layout, the
  // block chain, P0(NOT W), and the answer bits of a full query must be
  // identical everywhere.
  const BuiltCell ref = BuildCell(/*threads=*/1, /*kernels_on=*/true);
  EXPECT_GT(ref.blocks, 0u);
  for (const int threads : {1, 2, 8, 0}) {
    for (const bool kernels_on : {true, false}) {
      if (threads == 1 && kernels_on) continue;  // the reference itself
      const BuiltCell cell = BuildCell(threads, kernels_on);
      EXPECT_EQ(cell.layout_hash, ref.layout_hash)
          << "threads=" << threads << " kernels_on=" << kernels_on;
      EXPECT_EQ(cell.blocks, ref.blocks)
          << "threads=" << threads << " kernels_on=" << kernels_on;
      EXPECT_TRUE(SameBits(cell.prob_not_w, ref.prob_not_w))
          << "threads=" << threads << " kernels_on=" << kernels_on;
      EXPECT_EQ(cell.answers_hash, ref.answers_hash)
          << "threads=" << threads << " kernels_on=" << kernels_on;
    }
  }
}

}  // namespace
}  // namespace mvdb
