#include "prob/lineage.h"

#include <algorithm>

namespace mvdb {

void Lineage::Normalize() {
  // Canonicalize clause internals (AddSignedClause already sorts; Union and
  // the vector constructor may not have).
  if (neg_clauses_.size() < clauses_.size()) neg_clauses_.resize(clauses_.size());
  for (Clause& c : clauses_) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  for (Clause& c : neg_clauses_) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  // Sort clause pairs and dedupe.
  std::vector<size_t> order(clauses_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (clauses_[a] != clauses_[b]) return clauses_[a] < clauses_[b];
    return neg_clauses_[a] < neg_clauses_[b];
  });
  std::vector<Clause> pos, neg;
  pos.reserve(clauses_.size());
  neg.reserve(clauses_.size());
  for (size_t i : order) {
    if (!pos.empty() && pos.back() == clauses_[i] && neg.back() == neg_clauses_[i]) {
      continue;  // duplicate
    }
    pos.push_back(std::move(clauses_[i]));
    neg.push_back(std::move(neg_clauses_[i]));
  }
  // Absorption: clause j is redundant if some kept clause i satisfies
  // pos_i subset pos_j and neg_i subset neg_j. Such an i has all of its
  // literals in j, so j need only be checked against the kept clauses whose
  // leading literal is one of j's: the smallest positive variable, or the
  // smallest negated one for a clause with no positive part. The sort above
  // makes that index free. The kept clauses with no positive part come
  // first, ordered by leading negated literal; the rest follow, ordered by
  // leading positive literal; so each literal's group is a contiguous,
  // binary-searchable run. The kept set is the one an all-pairs scan finds.
  std::vector<Clause> kept_pos, kept_neg;
  if (!pos.empty() && pos[0].empty() && neg[0].empty()) {
    // The constant-true clause sorts first and absorbs every other clause.
    pos.resize(1);
    neg.resize(1);
  }
  size_t first_pos = 0;  // kept clauses [0, first_pos) have no positive part
  auto absorbs = [&](size_t i, size_t j) {
    return std::includes(pos[j].begin(), pos[j].end(), kept_pos[i].begin(),
                         kept_pos[i].end()) &&
           std::includes(neg[j].begin(), neg[j].end(), kept_neg[i].begin(),
                         kept_neg[i].end());
  };
  // Whether a kept clause in [begin, end), a run ordered by lead[i].front(),
  // with leading literal v absorbs clause j.
  auto group_absorbs = [&](const std::vector<Clause>& lead, size_t begin,
                           size_t end, VarId v, size_t j) {
    size_t lo = begin;
    size_t hi = end;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (lead[mid].front() < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    for (size_t i = lo; i < end && lead[i].front() == v; ++i) {
      if (absorbs(i, j)) return true;
    }
    return false;
  };
  for (size_t j = 0; j < pos.size(); ++j) {
    bool absorbed = false;
    for (size_t k = 0; !absorbed && k < pos[j].size(); ++k) {
      absorbed =
          group_absorbs(kept_pos, first_pos, kept_pos.size(), pos[j][k], j);
    }
    for (size_t k = 0; !absorbed && k < neg[j].size(); ++k) {
      absorbed = group_absorbs(kept_neg, 0, first_pos, neg[j][k], j);
    }
    if (absorbed) continue;
    if (pos[j].empty()) ++first_pos;
    kept_pos.push_back(std::move(pos[j]));
    kept_neg.push_back(std::move(neg[j]));
  }
  clauses_ = std::move(kept_pos);
  neg_clauses_ = std::move(kept_neg);
  normalized_ = true;
}

std::vector<VarId> Lineage::Vars() const {
  std::vector<VarId> vars;
  for (const Clause& c : clauses_) {
    vars.insert(vars.end(), c.begin(), c.end());
  }
  for (const Clause& c : neg_clauses_) {
    vars.insert(vars.end(), c.begin(), c.end());
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

size_t Lineage::NumLiterals() const {
  size_t n = 0;
  for (const Clause& c : clauses_) n += c.size();
  for (const Clause& c : neg_clauses_) n += c.size();
  return n;
}

bool Lineage::Eval(const std::vector<bool>& assignment) const {
  for (size_t i = 0; i < clauses_.size(); ++i) {
    bool sat = true;
    for (VarId v : clauses_[i]) {
      if (!assignment[static_cast<size_t>(v)]) {
        sat = false;
        break;
      }
    }
    if (sat && i < neg_clauses_.size()) {
      for (VarId v : neg_clauses_[i]) {
        if (assignment[static_cast<size_t>(v)]) {
          sat = false;
          break;
        }
      }
    }
    if (sat) return true;
  }
  return false;
}

std::string Lineage::ToString() const {
  if (clauses_.empty()) return "false";
  std::string out;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    if (i > 0) out += " | ";
    bool first = true;
    for (VarId v : clauses_[i]) {
      if (!first) out += " ";
      first = false;
      out += "x" + std::to_string(v);
    }
    if (i < neg_clauses_.size()) {
      for (VarId v : neg_clauses_[i]) {
        if (!first) out += " ";
        first = false;
        out += "!x" + std::to_string(v);
      }
    }
    if (first) out += "true";
  }
  return out;
}

}  // namespace mvdb
