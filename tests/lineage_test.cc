// Unit tests for src/prob/lineage: DNF normalization, evaluation, stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "prob/lineage.h"

namespace mvdb {
namespace {

/// The all-pairs normalization the indexed one replaces, kept as its
/// oracle: sort the (pos, neg) clause pairs, drop duplicates, then keep a
/// clause unless an earlier kept clause is a subset on both sides.
std::pair<std::vector<Clause>, std::vector<Clause>> QuadraticNormalize(
    const std::vector<Clause>& pos_in, const std::vector<Clause>& neg_in) {
  std::vector<size_t> order(pos_in.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (pos_in[a] != pos_in[b]) return pos_in[a] < pos_in[b];
    return neg_in[a] < neg_in[b];
  });
  std::vector<Clause> pos, neg;
  for (size_t i : order) {
    if (!pos.empty() && pos.back() == pos_in[i] && neg.back() == neg_in[i]) {
      continue;
    }
    pos.push_back(pos_in[i]);
    neg.push_back(neg_in[i]);
  }
  std::vector<Clause> kept_pos, kept_neg;
  for (size_t j = 0; j < pos.size(); ++j) {
    bool absorbed = false;
    for (size_t i = 0; i < kept_pos.size() && !absorbed; ++i) {
      absorbed = std::includes(pos[j].begin(), pos[j].end(),
                               kept_pos[i].begin(), kept_pos[i].end()) &&
                 std::includes(neg[j].begin(), neg[j].end(),
                               kept_neg[i].begin(), kept_neg[i].end());
    }
    if (!absorbed) {
      kept_pos.push_back(pos[j]);
      kept_neg.push_back(neg[j]);
    }
  }
  return {kept_pos, kept_neg};
}

/// A random signed clause over vars [0, num_vars): `width` literals, each
/// negated with probability 1/4 (contradictory clauses are dropped by
/// AddSignedClause, as in real lineage).
void AddRandomSignedClause(std::mt19937* rng, int num_vars, size_t width,
                           Lineage* l) {
  Clause pos, neg;
  for (size_t k = 0; k < width; ++k) {
    const VarId v =
        static_cast<VarId>((*rng)() % static_cast<uint32_t>(num_vars));
    ((*rng)() % 4 == 0 ? neg : pos).push_back(v);
  }
  l->AddSignedClause(std::move(pos), std::move(neg));
}

TEST(LineageTest, EmptyIsFalse) {
  Lineage l;
  EXPECT_TRUE(l.IsFalse());
  EXPECT_FALSE(l.IsTrue());
  EXPECT_EQ(l.size(), 0u);
}

TEST(LineageTest, EmptyClauseIsTrue) {
  Lineage l;
  l.AddClause({});
  EXPECT_TRUE(l.IsTrue());
  EXPECT_FALSE(l.IsFalse());
}

TEST(LineageTest, ClauseSortedAndDeduped) {
  Lineage l;
  l.AddClause({3, 1, 3, 2});
  EXPECT_EQ(l.clauses()[0], (Clause{1, 2, 3}));
}

TEST(LineageTest, NormalizeRemovesDuplicateClauses) {
  Lineage l;
  l.AddClause({1, 2});
  l.AddClause({2, 1});
  l.Normalize();
  EXPECT_EQ(l.size(), 1u);
}

TEST(LineageTest, NormalizeAbsorption) {
  Lineage l;
  l.AddClause({1});
  l.AddClause({1, 2});  // absorbed by {1}
  l.AddClause({3, 4});
  l.Normalize();
  EXPECT_EQ(l.size(), 2u);
  EXPECT_EQ(l.clauses()[0], (Clause{1}));
  EXPECT_EQ(l.clauses()[1], (Clause{3, 4}));
}

TEST(LineageTest, UnionIsClauseUnion) {
  Lineage a, b;
  a.AddClause({1});
  b.AddClause({2});
  a.Union(b);
  a.Normalize();
  EXPECT_EQ(a.size(), 2u);
}

TEST(LineageTest, Vars) {
  Lineage l;
  l.AddClause({5, 1});
  l.AddClause({3, 5});
  EXPECT_EQ(l.Vars(), (std::vector<VarId>{1, 3, 5}));
  EXPECT_EQ(l.NumDistinctVars(), 3u);
  EXPECT_EQ(l.NumLiterals(), 4u);
}

TEST(LineageTest, Eval) {
  Lineage l;  // x0 x1 | x2
  l.AddClause({0, 1});
  l.AddClause({2});
  EXPECT_TRUE(l.Eval({true, true, false}));
  EXPECT_TRUE(l.Eval({false, false, true}));
  EXPECT_FALSE(l.Eval({true, false, false}));
  EXPECT_FALSE(l.Eval({false, true, false}));
}

TEST(LineageTest, ToString) {
  Lineage l;
  EXPECT_EQ(l.ToString(), "false");
  l.AddClause({1, 2});
  EXPECT_EQ(l.ToString(), "x1 x2");
  l.AddClause({3});
  EXPECT_EQ(l.ToString(), "x1 x2 | x3");
}

TEST(LineageTest, Fig3Lineage) {
  // Phi_Q = X1Y1 v X1Y2 v X2Y3 v X2Y4 with vars 0..5 =
  // X1,X2,Y1,Y2,Y3,Y4.
  Lineage l;
  l.AddClause({0, 2});
  l.AddClause({0, 3});
  l.AddClause({1, 4});
  l.AddClause({1, 5});
  l.Normalize();
  EXPECT_EQ(l.size(), 4u);
  EXPECT_EQ(l.NumDistinctVars(), 6u);
  EXPECT_TRUE(l.Eval({true, false, false, true, false, false}));
  EXPECT_FALSE(l.Eval({true, true, false, false, false, false}));
}

TEST(LineageTest, NormalizeMatchesQuadraticAbsorptionOnRandomSignedClauses) {
  // Small variable ranges and mixed widths (0..4 literals) make absorption,
  // duplicates, negative-only clauses and the empty clause all common.
  std::mt19937 rng(0x11AE);
  for (int trial = 0; trial < 300; ++trial) {
    const int num_vars = 3 + trial % 10;
    const size_t clauses = 1 + rng() % 40;
    Lineage l;
    for (size_t c = 0; c < clauses; ++c) {
      AddRandomSignedClause(&rng, num_vars, rng() % 5, &l);
    }
    const auto [want_pos, want_neg] =
        QuadraticNormalize(l.clauses(), l.neg_clauses());
    l.Normalize();
    EXPECT_EQ(l.clauses(), want_pos) << "trial " << trial;
    EXPECT_EQ(l.neg_clauses(), want_neg) << "trial " << trial;
  }
}

TEST(LineageTest, NormalizeScalesToWLineageSize) {
  // 150K random 3-literal clauses, about the W-lineage of a 200K-author
  // DBLP instance. The all-pairs scan takes about a minute here; the ctest
  // TIMEOUT on this binary is what fails a regression to it.
  std::mt19937 rng(0x150C);
  Lineage l;
  for (size_t c = 0; c < 150000; ++c) {
    AddRandomSignedClause(&rng, 100000, 3, &l);
  }
  const size_t before = l.size();
  l.Normalize();
  EXPECT_GT(l.size(), before / 2);
  EXPECT_LE(l.size(), before);
  EXPECT_TRUE(std::is_sorted(l.clauses().begin(), l.clauses().end()));
}

}  // namespace
}  // namespace mvdb
