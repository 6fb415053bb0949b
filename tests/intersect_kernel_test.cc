// Parity battery for the hot-path kernels of the offline build and the
// online CC sweep. Every kernel behind an MvIndexBuildOptions hatch —
// fused translate, radix ordering, pre-sorted synthesis — must be
// bit-identical to its classic counterpart: same flat layout, same
// extended-range probabilities, same answer bits. The CC sweep has one
// path: the serving golden hash of serve_concurrency_test is pinned here,
// randomized query OBDDs (widening fronts, true sinks past the block
// level, sink-only collapses) are checked against the top-down
// MVIntersect, and batch and scratch reuse are checked bitwise against
// solo sweeps on fresh scratch. The top-down MVIntersect runs on an
// explicit stack: it must reproduce the recursive formulation (kept here
// as its oracle) bit for bit, and survive a chain-long query on a small
// thread stack. Runs under the TSan and ASan/UBSan CI jobs.

#include <gtest/gtest.h>

#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <unordered_map>
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

/// First variable level of the chain's last block. Past its entry node the
/// chain exits straight to its true sink on many paths, so a query with
/// variables down here is often still pending there, and the sweeps finish
/// it alone (the ProbQ path and its memo).
uint32_t LastBlockLevel(const MvIndex& index) {
  return static_cast<uint32_t>(index.blocks().back().first_level);
}

/// Builds a deterministic pool of randomized query OBDDs over the index's
/// variable order: DNF and CNF mixes over random levels, plus single
/// literals and negations — narrow chains, widening diamonds, and constant
/// collapses. With `tail`, half of the literals are drawn from the last
/// block's levels.
std::vector<NodeId> RandomQueryPool(const MvIndex& index, BddManager* qmgr,
                                    size_t count, uint32_t seed = 0xA5F00Du,
                                    bool tail = false) {
  const auto& order = *index.manager().order();
  const uint32_t levels = static_cast<uint32_t>(order.num_levels());
  const uint32_t first_tail = LastBlockLevel(index);
  std::mt19937 rng(seed);
  auto rand_lit = [&]() {
    const uint32_t level = tail && rng() % 2 == 0
                               ? first_tail + rng() % (levels - first_tail)
                               : rng() % levels;
    const VarId v = order.var_at_level(static_cast<int32_t>(level));
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

/// The recursive top-down MVIntersect — one native stack frame per
/// (query node, chain node) pair on the path — exactly as the index
/// computed it before it moved to an explicit stack. The block products
/// are rebuilt from the block list in the index's multiply order. Oracle
/// for MvIndex::MVIntersectScaled: the two must agree bit for bit.
ScaledDouble RecursiveMVIntersect(const MvIndex& index, const CcQuery& q) {
  const BddManager& qmgr = *q.mgr;
  const FlatObdd& flat = index.flat();
  const std::vector<MvBlock>& blocks = index.blocks();
  if (q.root == BddManager::kFalse) return ScaledDouble::Zero();
  if (q.root == BddManager::kTrue) return index.ProbNotWScaled();
  std::vector<ScaledDouble> prefix(blocks.size() + 1, ScaledDouble::One());
  for (size_t i = 0; i < blocks.size(); ++i) {
    ScaledDouble p = prefix[i];
    p *= blocks[i].prob;
    prefix[i + 1] = p;
  }
  std::vector<ScaledDouble> suffix(blocks.size() + 1, ScaledDouble::One());
  for (size_t i = blocks.size(); i-- > 0;) {
    suffix[i] = blocks[i].prob * suffix[i + 1];
  }
  auto suffix_after = [&](FlatId u) {
    if (blocks.empty()) return ScaledDouble::One();
    size_t b = 0;
    while (b + 1 < blocks.size() && blocks[b + 1].chain_root <= u) ++b;
    return suffix[b + 1];
  };
  std::unordered_map<NodeId, double> qmemo;
  auto prob_q = [&](auto&& self, NodeId n) -> double {
    if (n == BddManager::kFalse) return 0.0;
    if (n == BddManager::kTrue) return 1.0;
    auto it = qmemo.find(n);
    if (it != qmemo.end()) return it->second;
    const BddNode& node = qmgr.node(n);
    const double p = flat.prob_at_level(node.level);
    const double r =
        (1.0 - p) * self(self, node.lo) + p * self(self, node.hi);
    qmemo.emplace(n, r);
    return r;
  };
  // Fast-forward past the blocks entirely above the query's first level.
  size_t first = 0;
  while (first < blocks.size() &&
         blocks[first].last_level < qmgr.level(q.root)) {
    ++first;
  }
  const FlatId start = blocks.empty() ? flat.root()
                       : first < blocks.size() ? blocks[first].chain_root
                                               : kFlatTrue;
  const ScaledDouble pre = blocks.empty() ? ScaledDouble::One() : prefix[first];
  if (start == kFlatTrue) {
    return pre * ScaledDouble(prob_q(prob_q, q.root));
  }
  if (start == kFlatFalse) return ScaledDouble::Zero();

  std::unordered_map<uint64_t, ScaledDouble> memo;
  auto rec = [&](auto&& self, NodeId qn, FlatId u) -> ScaledDouble {
    if (qn == BddManager::kFalse || u == kFlatFalse) {
      return ScaledDouble::Zero();
    }
    if (qn == BddManager::kTrue) {
      return flat.prob_under_scaled(u) * suffix_after(u);
    }
    if (u == kFlatTrue) return ScaledDouble(prob_q(prob_q, qn));
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(qn)) << 32) |
        static_cast<uint32_t>(u);
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    const int32_t lq = qmgr.level(qn);
    const int32_t lu = flat.level(u);
    const int32_t l = std::min(lq, lu);
    const double p = flat.prob_at_level(l);
    NodeId q0 = qn, q1 = qn;
    if (lq == l) {
      q0 = qmgr.node(qn).lo;
      q1 = qmgr.node(qn).hi;
    }
    FlatId u0 = u, u1 = u;
    if (lu == l) {
      u0 = flat.lo(u);
      u1 = flat.hi(u);
    }
    const ScaledDouble r = ScaledDouble(1.0 - p) * self(self, q0, u0) +
                           ScaledDouble(p) * self(self, q1, u1);
    memo.emplace(key, r);
    return r;
  };
  return pre * rec(rec, q.root, start);
}

TEST(IntersectKernelTest, RandomizedQueriesMatchRecursiveMVIntersect) {
  SharedWorkload& s = Shared();
  const MvIndex& index = s.engine->index();
  BddManager qmgr(index.manager().order());
  const std::vector<NodeId> pool = RandomQueryPool(index, &qmgr, 200);

  const ScaledDouble denom = index.ProbNotWScaled();
  CcSweepScratch scratch;
  size_t nontrivial = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    const CcQuery q{&qmgr, pool[i]};
    const ScaledDouble top_down = index.MVIntersectScaled(q);
    EXPECT_TRUE(SameBits(top_down, RecursiveMVIntersect(index, q)))
        << "query " << i;
    const double cc =
        (index.CCMVIntersectScaled(q, &scratch) / denom).ToDouble();
    const double td = (top_down / denom).ToDouble();
    EXPECT_NEAR(cc, td, 1e-12 * std::max(1.0, std::abs(td))) << "query " << i;
    if (td != 0.0) ++nontrivial;
  }
  // The pool must actually exercise the sweep, not collapse to constants.
  EXPECT_GT(nontrivial, pool.size() / 2);
}

/// Fig. 9's worst-case query: one Advisor tuple every 1/20th of the table,
/// a DNF spread across the whole chain.
Lineage WorstCaseLineage(const Mvdb& mvdb) {
  const Table* advisor = mvdb.db().Find("Advisor");
  const size_t stride = std::max<size_t>(1, advisor->size() / 20);
  Lineage q;
  for (size_t r = 0; r < advisor->size(); r += stride) {
    q.AddClause({advisor->var(static_cast<RowId>(r))});
  }
  return q;
}

struct SmallStackCall {
  const MvIndex* index;
  CcQuery query;
  ScaledDouble result;
};

void* RunTopDownIntersect(void* arg) {
  auto* call = static_cast<SmallStackCall*>(arg);
  call->result = call->index->MVIntersectScaled(call->query);
  return nullptr;
}

TEST(IntersectKernelTest, TopDownIntersectRunsOnASmallStack) {
  // Fig. 9's worst-case query walks the whole chain (6,715 nodes at
  // DBLP-5000). A recursion with one native frame per chain node on the
  // path needs between 512 KB and 1 MB there (Release build) and crashes
  // on this 128 KB stack; the explicit stack needs a few frames of its own.
  dblp::DblpConfig cfg;
  cfg.num_authors = 5000;
  auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
  ASSERT_TRUE(mvdb.ok());
  QueryEngine engine(mvdb->get());
  ASSERT_TRUE(engine.Compile().ok());
  const MvIndex& index = engine.index();
  BddManager qmgr(index.manager().order());
  SmallStackCall call{&index,
                      CcQuery{&qmgr, qmgr.FromLineageSynthesis(
                                         WorstCaseLineage(**mvdb))},
                      ScaledDouble::Zero()};

  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 128 * 1024), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(&thread, &attr, &RunTopDownIntersect, &call), 0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);

  CcSweepScratch scratch;
  const ScaledDouble denom = index.ProbNotWScaled();
  const double td = (call.result / denom).ToDouble();
  const double cc =
      (index.CCMVIntersectScaled(call.query, &scratch) / denom).ToDouble();
  EXPECT_GT(td, 0.0);
  EXPECT_NEAR(td, cc, 1e-12 * std::max(1.0, std::abs(cc)));
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
  // One scratch carried across 400 queries of mixed width (its heap and
  // memo grow, shrink and rehash in a history no fresh scratch sees) must
  // give the same bits as a fresh scratch per query. Queries alternate
  // between two managers holding different pools, so one NodeId names
  // different query nodes from one query to the next. The second half of
  // the run comes from two more fresh managers and draws half its
  // variables from the chain's last block: past it the sweep reads the
  // query-side probability memo, for low NodeIds that both managers use.
  SharedWorkload& s = Shared();
  const MvIndex& index = s.engine->index();
  BddManager qmgr_a(index.manager().order());
  BddManager qmgr_b(index.manager().order());
  BddManager qmgr_c(index.manager().order());
  BddManager qmgr_d(index.manager().order());
  const std::vector<NodeId> pool_a = RandomQueryPool(index, &qmgr_a, 100);
  std::vector<NodeId> pool_b =
      RandomQueryPool(index, &qmgr_b, 100, /*seed=*/0x5EED2u);
  // Widen half of the second pool: ORs of pool entries give multi-entry
  // frontiers.
  for (size_t i = 0; i + 1 < pool_b.size(); i += 2) {
    pool_b[i] = qmgr_b.Or(pool_b[i], pool_b[i + 1]);
  }
  const std::vector<NodeId> pool_c = RandomQueryPool(
      index, &qmgr_c, 100, /*seed=*/0x7A11u, /*tail=*/true);
  const std::vector<NodeId> pool_d = RandomQueryPool(
      index, &qmgr_d, 100, /*seed=*/0x7A12u, /*tail=*/true);
  std::vector<CcQuery> queries;
  for (size_t i = 0; i < 100; ++i) {
    queries.push_back(CcQuery{&qmgr_a, pool_a[i]});
    queries.push_back(CcQuery{&qmgr_b, pool_b[i]});
  }
  for (size_t i = 0; i < 100; ++i) {
    queries.push_back(CcQuery{&qmgr_c, pool_c[i]});
    queries.push_back(CcQuery{&qmgr_d, pool_d[i]});
  }

  CcSweepScratch reused;
  for (size_t i = 0; i < queries.size(); ++i) {
    CcSweepScratch fresh;
    const ScaledDouble want = index.CCMVIntersectScaled(queries[i], &fresh);
    EXPECT_TRUE(SameBits(index.CCMVIntersectScaled(queries[i], &reused), want))
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
