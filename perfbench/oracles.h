// Correctness oracles of the end-to-end benchmark. None of them compares
// against stored output of the program: answer sets come from plain scans
// of the base tables, probabilities from exhaustive enumeration of Eq. 5,
// and the bitwise checks compare two live computations of the same answer
// (concurrent vs serial, replicated vs served, maintained vs rebuilt).
//
// Every check is a pure function over data, so the planted-fault self-test
// (the end of Check in perfbench.cc) can feed it a corrupted copy and
// require it to report a mismatch.

#ifndef PERFBENCH_ORACLES_H_
#define PERFBENCH_ORACLES_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "core/mvdb.h"
#include "query/eval.h"
#include "util/scaled_double.h"

namespace perfbench {

using mvdb::AnswerProb;
using mvdb::Clause;
using mvdb::Value;
using mvdb::VarId;

/// Eq. 5 agreement tolerance of the exhaustive oracle.
inline constexpr double kEq5Tolerance = 1e-9;

/// Largest lineage + W component the exhaustive oracle enumerates
/// (2^22 worlds). DBLP components are far smaller.
inline constexpr size_t kMaxOracleVars = 22;

inline bool SameBits(double a, double b) {
  uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

inline bool SameScaled(const mvdb::ScaledDouble& a, const mvdb::ScaledDouble& b) {
  return a.mantissa_bits() == b.mantissa_bits() &&
         a.exponent_word() == b.exponent_word();
}

/// Answer heads equal `want` (sorted single-column heads, as a table scan
/// produced them). Served answers come in head order.
inline bool SameHeads(const std::vector<AnswerProb>& got,
                      const std::vector<Value>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].head.size() != 1 || got[i].head[0] != want[i]) return false;
  }
  return true;
}

/// Same heads in the same order and the same probability bits.
inline bool SameAnswers(const std::vector<AnswerProb>& a,
                        const std::vector<AnswerProb>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].head != b[i].head || !SameBits(a[i].prob, b[i].prob)) return false;
  }
  return true;
}

inline bool Eq5Agrees(double served, double exact) {
  return std::fabs(served - exact) <= kEq5Tolerance;  // false for NaN
}

/// W (Eq. 4) grounded over the translated database, clause by clause, with
/// a variable -> clause index. Built from the materialized view tuples, so
/// grounding costs one pass over the views instead of evaluating W.
class GroundW {
 public:
  explicit GroundW(const mvdb::Mvdb& db) : var_probs_(db.db().VarProbs()) {
    clause_begin_.push_back(0);
    for (const auto& tuples : db.view_tuples()) {
      for (const mvdb::ViewTuple& t : tuples) {
        if (t.feature.HasNegation()) has_negation_ = true;
        // weight 1 = independence (no NV tuple, no W clause); an all-denial
        // view keeps its body as the clause; every other tuple's clause is
        // its feature conjoined with its NV variable.
        if (t.nv_var == mvdb::kNoVar && t.weight != 0.0) continue;
        for (const Clause& c : t.feature.clauses()) {
          vars_.insert(vars_.end(), c.begin(), c.end());
          if (t.nv_var != mvdb::kNoVar) vars_.push_back(t.nv_var);
          clause_begin_.push_back(vars_.size());
        }
      }
    }
    // CSR: variable -> clauses mentioning it.
    var_begin_.assign(var_probs_.size() + 1, 0);
    for (const VarId v : vars_) ++var_begin_[static_cast<size_t>(v) + 1];
    for (size_t i = 1; i < var_begin_.size(); ++i) var_begin_[i] += var_begin_[i - 1];
    var_clauses_.resize(vars_.size());
    std::vector<size_t> fill(var_begin_.begin(), var_begin_.end() - 1);
    for (size_t c = 0; c + 1 < clause_begin_.size(); ++c) {
      for (size_t i = clause_begin_[c]; i < clause_begin_[c + 1]; ++i) {
        var_clauses_[fill[static_cast<size_t>(vars_[i])]++] = static_cast<uint32_t>(c);
      }
    }
  }

  /// False when some view feature carries negation (the DBLP views do not;
  /// the oracle grounds positive clauses only).
  bool supported() const { return !has_negation_; }

  /// P(Q(a)) = P0(Q ^ NOT W_C) / P0(NOT W_C) by enumerating every world of
  /// the variables of Q(a)'s lineage and of the W clauses connected to them
  /// (W_C; the rest of W is variable-disjoint and cancels in the ratio).
  /// Uses the translated probabilities, negative ones included. Returns
  /// false when the component exceeds kMaxOracleVars.
  bool Eq5(const std::vector<Clause>& q_lineage, double* out,
           size_t* num_vars) const {
    std::unordered_map<VarId, int> bit;
    std::vector<VarId> comp;
    std::vector<uint32_t> w_clauses;
    std::unordered_map<uint32_t, bool> seen;  // W clauses already collected
    auto add_var = [&](VarId v) {
      if (bit.emplace(v, static_cast<int>(comp.size())).second) comp.push_back(v);
    };
    for (const Clause& c : q_lineage) {
      for (const VarId v : c) add_var(v);
    }
    for (size_t i = 0; i < comp.size(); ++i) {
      const size_t v = static_cast<size_t>(comp[i]);
      for (size_t k = var_begin_[v]; k < var_begin_[v + 1]; ++k) {
        const uint32_t c = var_clauses_[k];
        if (!seen.emplace(c, true).second) continue;
        w_clauses.push_back(c);
        for (size_t j = clause_begin_[c]; j < clause_begin_[c + 1]; ++j) add_var(vars_[j]);
      }
      if (comp.size() > kMaxOracleVars) break;
    }
    *num_vars = comp.size();
    if (comp.size() > kMaxOracleVars) return false;

    auto mask_of = [&](auto begin, auto end) {
      uint32_t m = 0;
      for (auto it = begin; it != end; ++it) m |= 1u << bit.at(*it);
      return m;
    };
    std::vector<uint32_t> q_masks, w_masks;
    for (const Clause& c : q_lineage) q_masks.push_back(mask_of(c.begin(), c.end()));
    for (const uint32_t c : w_clauses) {
      const auto first = vars_.begin() + static_cast<std::ptrdiff_t>(clause_begin_[c]);
      const auto last = vars_.begin() + static_cast<std::ptrdiff_t>(clause_begin_[c + 1]);
      w_masks.push_back(mask_of(first, last));
    }
    auto any_true = [](const std::vector<uint32_t>& masks, uint32_t world) {
      for (const uint32_t m : masks) {
        if ((world & m) == m) return true;
      }
      return false;
    };
    long double num = 0.0L, den = 0.0L;
    const uint32_t worlds = 1u << comp.size();
    for (uint32_t world = 0; world < worlds; ++world) {
      if (any_true(w_masks, world)) continue;
      long double weight = 1.0L;
      for (size_t i = 0; i < comp.size(); ++i) {
        const long double p = var_probs_[static_cast<size_t>(comp[i])];
        weight *= ((world >> i) & 1u) ? p : 1.0L - p;
      }
      den += weight;
      if (any_true(q_masks, world)) num += weight;
    }
    *out = static_cast<double>(num / den);
    return true;
  }

 private:
  std::vector<double> var_probs_;
  std::vector<VarId> vars_;            // clause variables, concatenated
  std::vector<size_t> clause_begin_;   // clause c = vars_[begin[c], begin[c+1])
  std::vector<size_t> var_begin_;      // CSR offsets by VarId
  std::vector<uint32_t> var_clauses_;  // CSR payload: clause ids
  bool has_negation_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLES_H_
