// End-to-end benchmark of the MarkoView engine: the offline build as
// set-up, then the paper's Figs. 10/11 reads (students of an advisor,
// affiliations of an author) served through QueryEngine::Serve /
// Server::Submit, and on one workload single-tuple weight upserts through
// QueryEngine::ApplyDelta between reads. See README.md in this directory
// for the workloads, the metrics and the reference figures.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, measured from outside by replicating the server's request path
// through the public layer calls and recording one span per call. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}. Any
// oracle mismatch exits with status 1.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <future>
#include <iterator>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "oracles.h"
#include "query/analysis.h"
#include "query/parser.h"
#include "serve/plan_cache.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace mvdb;  // NOLINT: the benchmark calls into every layer
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void Die(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(StatusOr<T> so, const char* what) {
  Die(so.status(), what);
  return std::move(so).value();
}

// Threads for generation and the offline build: the box's core count.
constexpr int kBuildThreads = 4;
// Student rows the weight upserts cycle through, spread over the chain.
constexpr size_t kWritePool = 128;
// The write phase: one pass over the pool per factor (a multiple of each
// row's generated weight), and the period at which writes are issued.
// Consecutive factors differ, so a write never repeats a row's current
// weight; 1.25 is reached twice through different histories (from 1 and
// from 0.8), and the phase ends on moved weights.
constexpr double kWriteFactors[] = {1.25, 1.0, 0.8, 1.25};
constexpr size_t kWritePasses = std::size(kWriteFactors);
constexpr auto kWritePeriod = std::chrono::milliseconds(12);
// Answers checked per run by exhaustive Eq. 5 enumeration under the
// generated weights.
constexpr size_t kEq5Samples = 48;
// Written rows whose students-of-advisor query is checked under the moved
// weights at the end of the write phase.
constexpr size_t kMovedChecks = 8;

struct Workload {
  const char* name;
  int authors;
  bool paper_form;         // n1 = "..." comparison (paper) vs name bound in the atom
  size_t queries_per_kind; // distinct queries of each kind, one read each per round
  size_t window;           // reads the client keeps in flight per burst
  int setups;              // set-ups per run; setup_s is their median
};

// Queries per kind: their entry points are spread over the chain, so
// position-dependent costs reach p90, and a round holds at least 100 reads
// of each kind. A multiple of the burst size. On probe-200k the eight reads
// of a burst are one batch and finish together, so a latency percentile
// ranges over bursts: 416 queries make 52 bursts per kind.
const Workload kWorkloads[] = {
    {"paper-1m", 1000000, true, 104, 1, 2},
    {"probe-200k", 200000, false, 416, 8, 5},
};

enum Kind : uint8_t { kStudents = 0, kAffiliation = 1, kWrite = 2 };

struct ReadSpec {
  Kind kind;
  Ucq query;
  std::vector<Value> want;                   // answer heads, from a table scan
  std::vector<std::vector<Clause>> lineage;  // Q(a) lineage per head, from the scan
};

struct WriteSpec {
  std::vector<Value> row;  // a Student tuple with nodes in the NOT W chain
  double weight;           // its generated weight
};

struct Instance {
  std::unique_ptr<Mvdb> mvdb;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<Server> server;
};

struct SetupTimes {
  double generate_s = 0, compile_s = 0, serve_s = 0;
  MvIndexBuildStats build;
  double total() const { return generate_s + compile_s + serve_s; }
};

CompileOptions BuildOptions() {
  CompileOptions copts;
  copts.num_threads = kBuildThreads;
  return copts;
}

// One server worker: with the one client thread, the interleaving of reads
// and writes depends only on the seed, and two threads leave the box's
// other cores to the rest of the machine. A burst of up to max_batch
// requests is drained as one batch.
ServeOptions ServingOptions() {
  ServeOptions so;
  so.num_threads = 1;
  so.max_batch = 8;
  return so;
}

Instance SetUp(const Workload& w, uint64_t seed, SetupTimes* t) {
  Instance inst;
  dblp::DblpConfig cfg;
  cfg.num_authors = w.authors;
  cfg.seed = seed;
  cfg.num_threads = kBuildThreads;
  auto t0 = Clock::now();
  inst.mvdb = Unwrap(dblp::BuildDblpMvdb(cfg, nullptr), "generate");
  t->generate_s = MsSince(t0) / 1e3;
  inst.engine = std::make_unique<QueryEngine>(inst.mvdb.get());
  t0 = Clock::now();
  Die(inst.engine->Compile(BuildOptions()), "compile");
  t->compile_s = MsSince(t0) / 1e3;
  t0 = Clock::now();
  inst.server = Unwrap(inst.engine->Serve(ServingOptions()), "serve");
  t->serve_s = MsSince(t0) / 1e3;
  t->build = inst.engine->index().build_stats();
  return inst;
}

// k picks spread evenly over n candidates sorted by chain position: the
// middle of each of k equal strata. The seed moves the picks only through
// the generated data, so a percentile over the picks lands on the same
// chain-position quantile in every run.
std::vector<size_t> SpreadPicks(size_t n, size_t k) {
  std::vector<size_t> picks;
  k = std::min(k, n);
  for (size_t s = 0; s < k; ++s) picks.push_back((2 * s + 1) * n / (2 * k));
  return picks;
}

struct Candidate {
  int32_t position;  // smallest chain level among the lineage variables
  Value aid;
  std::map<Value, std::vector<Clause>> answers;  // head -> lineage
};

std::vector<Candidate> SortedByPosition(std::map<Value, Candidate>* by_aid) {
  std::vector<Candidate> out;
  for (auto& [aid, c] : *by_aid) {
    if (!c.answers.empty()) out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return a.position != b.position ? a.position < b.position : a.aid < b.aid;
  });
  return out;
}

// Chooses the read and write targets and computes every read's expected
// answer heads and lineage from plain scans of the base tables — the
// answer-set oracle, independent of the query evaluator.
void Select(const Workload& w, Instance* inst, std::vector<ReadSpec>* reads,
            std::vector<WriteSpec>* writes, std::vector<ReadSpec>* moved) {
  Database& db = inst->mvdb->db();
  const BddManager& mgr = inst->engine->manager();
  const Table* author = db.Find("Author");
  const Table* student = db.Find("Student");
  const Table* advisor = db.Find("Advisor");
  const Table* affiliation = db.Find("Affiliation");
  auto level = [&mgr](VarId v) { return mgr.level_of_var(v); };

  Value max_aid = 0;
  for (RowId r = 0; r < author->size(); ++r) max_aid = std::max(max_aid, author->At(r, 0));
  std::vector<uint8_t> is_author(static_cast<size_t>(max_aid) + 1, 0);
  for (RowId r = 0; r < author->size(); ++r) is_author[static_cast<size_t>(author->At(r, 0))] = 1;
  auto known = [&](Value aid) {
    return aid >= 0 && aid <= max_aid && is_author[static_cast<size_t>(aid)];
  };

  std::unordered_map<Value, std::vector<VarId>> student_vars;
  for (RowId r = 0; r < student->size(); ++r) {
    student_vars[student->At(r, 0)].push_back(student->var(r));
  }
  // Students of advisor A: Student rows whose Advisor(s, A) row names A.
  std::map<Value, Candidate> advisors;
  std::unordered_map<Value, Value> advisor_of;  // student -> an advisor
  for (RowId r = 0; r < advisor->size(); ++r) {
    const Value s = advisor->At(r, 0), a = advisor->At(r, 1);
    const auto it = student_vars.find(s);
    if (it == student_vars.end() || !known(s) || !known(a)) continue;
    advisor_of.try_emplace(s, a);
    Candidate& c = advisors.try_emplace(a, Candidate{INT32_MAX, a, {}}).first->second;
    for (const VarId sv : it->second) {
      Clause clause{sv, advisor->var(r)};
      std::sort(clause.begin(), clause.end());
      c.position = std::min({c.position, level(sv), level(advisor->var(r))});
      c.answers[s].push_back(std::move(clause));
    }
  }
  // Affiliations of author A: A's Affiliation rows.
  std::map<Value, Candidate> authors;
  for (RowId r = 0; r < affiliation->size(); ++r) {
    const Value a = affiliation->At(r, 0);
    if (!known(a)) continue;
    Candidate& c = authors.try_emplace(a, Candidate{INT32_MAX, a, {}}).first->second;
    c.position = std::min(c.position, level(affiliation->var(r)));
    c.answers[affiliation->At(r, 1)].push_back(Clause{affiliation->var(r)});
  }

  // Write targets: Student rows whose variable has nodes in the chain.
  const FlatObdd& flat = inst->engine->index().flat();
  std::vector<std::pair<int32_t, RowId>> in_chain;
  for (RowId r = 0; r < student->size(); ++r) {
    const int32_t l = level(student->var(r));
    const auto [begin, end] = flat.NodesAtLevel(l);
    if (begin != end) in_chain.emplace_back(l, r);
  }
  std::sort(in_chain.begin(), in_chain.end());
  if (in_chain.size() < kWritePool) {
    std::fprintf(stderr, "perfbench: too few Student rows in the chain\n");
    std::exit(2);
  }
  for (const size_t i : SpreadPicks(in_chain.size(), kWritePool)) {
    const RowId r = in_chain[i].second;
    const auto row = student->Row(r);
    writes->push_back(WriteSpec{std::vector<Value>(row.begin(), row.end()), student->weight(r)});
  }
  // The moved checks: for written rows spread over the pool, the
  // students-of-advisor query whose lineage holds the written variable.
  std::vector<Candidate> moved_candidates;
  for (const size_t i : SpreadPicks(writes->size(), kMovedChecks)) {
    const auto it = advisor_of.find((*writes)[i].row[0]);
    if (it != advisor_of.end()) moved_candidates.push_back(advisors.at(it->second));
  }
  if (moved_candidates.empty()) {
    std::fprintf(stderr, "perfbench: no written Student row has an advisor\n");
    std::exit(2);
  }

  std::vector<Candidate> by_pos[2] = {SortedByPosition(&advisors), SortedByPosition(&authors)};
  std::vector<Candidate> chosen[2];
  std::map<Value, std::string> names;
  for (const Candidate& c : moved_candidates) names[c.aid];
  for (int k = 0; k < 2; ++k) {
    if (by_pos[k].size() < w.queries_per_kind) {
      std::fprintf(stderr, "perfbench: too few query candidates\n");
      std::exit(2);
    }
    for (const size_t i : SpreadPicks(by_pos[k].size(), w.queries_per_kind)) {
      names[by_pos[k][i].aid];
      chosen[k].push_back(std::move(by_pos[k][i]));
    }
  }
  for (RowId r = 0; r < author->size(); ++r) {
    const auto it = names.find(author->At(r, 0));
    if (it != names.end()) it->second = db.dict().Lookup(author->At(r, 1));
  }

  // Parsing interns constants, so every query is built before serving.
  auto make_spec = [&](int k, const Candidate& c) {
    const std::string& name = names.at(c.aid);
    ReadSpec spec;
    spec.kind = static_cast<Kind>(k);
    if (w.paper_form) {
      spec.query = k == kStudents ? dblp::StudentsOfAdvisorQuery(inst->mvdb.get(), name)
                                  : dblp::AffiliationOfAuthorQuery(inst->mvdb.get(), name);
    } else {
      const std::string text =
          k == kStudents ? "Q(aid) :- Student(aid,y), Advisor(aid,a1), Author(aid,n), "
                           "Author(a1,\"" + name + "\")."
                         : "Q(inst) :- Affiliation(aid,inst), Author(aid,\"" + name + "\").";
      spec.query = Unwrap(ParseUcq(text, &db.dict()), "parse");
    }
    for (const auto& [head, clauses] : c.answers) {
      spec.want.push_back(head);
      spec.lineage.push_back(clauses);
    }
    return spec;
  };
  // Round order: `window` reads of one kind, then `window` of the other.
  for (size_t b = 0; b < w.queries_per_kind; b += w.window) {
    for (int k = 0; k < 2; ++k) {
      for (size_t i = b; i < b + w.window; ++i) reads->push_back(make_spec(k, chosen[k][i]));
    }
  }
  for (const Candidate& c : moved_candidates) moved->push_back(make_spec(kStudents, c));

}

// ---------------------------------------------------------------------------
// Run phase
// ---------------------------------------------------------------------------

struct ReadRecord {
  size_t spec;        // index of the read spec (the distinct query)
  Kind kind;
  size_t round;
  double ms;          // client-observed Submit -> answer
  double queue_ms;    // from ServeResult
  double exec_ms;     // from ServeResult
  bool after_write;   // the read that follows a write
  bool traced;        // replicated with spans (trace mode)
};

struct WriteRecord {
  size_t row;  // index of the write target
  double ms;   // ApplyDelta as the client sees it
  MvIndexRepairStats repair;
};

// One span per call into a layer, tagged with the request id.
struct Span {
  uint64_t req;
  const char* name;
  Kind kind;
  double start_ms;  // since the run started
  double dur_ms;
  double count;     // work counted at the boundary, 0 where none
};

// The replicated request path of one read, kept until its batch is swept.
struct Replica {
  uint64_t req;
  Kind kind;
  std::unique_ptr<BddManager> qmgr;
  std::vector<NodeId> roots;
  std::vector<ScaledDouble> nums;
};

// What one phase of the run (the reads, or the write phase) recorded, plus
// the client-side state that recording needs.
struct Phase {
  std::vector<ReadRecord> reads;
  std::vector<WriteRecord> writes;
  std::vector<Span> spans;
  uint64_t attempted = 0, failed = 0, next_req = 0;
  size_t round = 0;  // tags the reads
  uint64_t head_mismatch = 0, concurrent_mismatch = 0, replica_mismatch = 0;
  std::vector<std::vector<AnswerProb>> first;  // first served answer per read spec
  std::vector<uint8_t> captured;
  // Replica state: what a server worker owns.
  PlanCache plan_cache{128};
  EvalScratch eval;
  CcSweepScratch sweep;
  std::vector<Replica> batch;
};

// Server::ExecuteBatch's clamp of Eq. 5 ratios within noise of [0, 1].
double ClampProb(double p) {
  if (p < 0.0 && p > -1e-9) return 0.0;
  if (p > 1.0 && p < 1.0 + 1e-9) return 1.0;
  return p;
}

// One weight upsert of a write target to `factor` times its generated
// weight, with the server paused around the index repair.
Status SetWeight(Instance* inst, const WriteSpec& ws, double factor) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::kUpdateWeight;
  op.table = "Student";
  op.values = ws.row;
  op.weight = ws.weight * factor;
  return inst->engine->ApplyDelta({op}, inst->server.get());
}

// Issues the client's reads and writes against one instance, checks each
// answer as it arrives, and records latencies and spans into a Phase.
class Runner {
 public:
  Runner(Instance* inst, const std::vector<ReadSpec>& reads,
         const std::vector<WriteSpec>& writes,
         const std::vector<std::vector<AnswerProb>>* reference, bool trace)
      : inst_(inst), reads_(reads), writes_(writes), reference_(reference),
        trace_(trace), t0_(Clock::now()) {}

  std::unique_ptr<Phase> NewPhase() const {
    auto p = std::make_unique<Phase>();
    p->first.resize(reads_.size());
    p->captured.assign(reads_.size(), 0);
    return p;
  }

  // One closed-loop burst: Submit reads [first, first + count) back to
  // back, wait for every answer, check them. A burst of more than one read
  // keeps that many requests in flight, so the worker drains them as one
  // batch.
  void Read(Phase* p, size_t first, size_t count, bool after_write, bool traced) {
    std::vector<ServeRequest> reqs(count);
    for (size_t k = 0; k < count; ++k) reqs[k].query = reads_[first + k].query;
    std::vector<Clock::time_point> sent(count);
    std::vector<std::future<ServeResult>> futs;
    for (size_t k = 0; k < count; ++k) {
      sent[k] = Clock::now();
      futs.push_back(inst_->server->Submit(std::move(reqs[k])));
    }
    std::vector<ServeResult> results;
    std::vector<double> ms;
    for (size_t k = 0; k < count; ++k) {
      results.push_back(futs[k].get());
      ms.push_back(MsSince(sent[k]));
    }
    for (size_t k = 0; k < count; ++k) {
      const size_t i = first + k;
      const ReadSpec& spec = reads_[i];
      const ServeResult& res = results[k];
      const uint64_t id = p->next_req++;
      ++p->attempted;
      if (!res.status.ok()) {
        ++p->failed;
        continue;
      }
      p->reads.push_back(ReadRecord{i, spec.kind, p->round, ms[k], res.queue_ms, res.exec_ms,
                                    after_write && k == 0, traced});
      if (!SameHeads(res.answers, spec.want)) ++p->head_mismatch;
      if (reference_ != nullptr && !SameAnswers(res.answers, (*reference_)[i])) {
        ++p->concurrent_mismatch;
      }
      if (!p->captured[i]) {
        p->first[i] = res.answers;
        p->captured[i] = 1;
      }
      if (traced) {
        p->spans.push_back(Span{id, "read", spec.kind, Offset(sent[k]), ms[k], 0});
        if (!SameAnswers(Replicate(p, spec, id), res.answers)) ++p->replica_mismatch;
      }
    }
    if (traced) SweepBatch(p);
  }

  // One weight upsert of write target k % pool to `factor` times its
  // generated weight.
  void Write(Phase* p, size_t k, double factor) {
    ++p->attempted;
    const uint64_t id = p->next_req++;
    const auto t0 = Clock::now();
    const size_t row = k % writes_.size();
    const Status st = SetWeight(inst_, writes_[row], factor);
    const double ms = MsSince(t0);
    if (!st.ok()) {
      ++p->failed;
      return;
    }
    const MvIndexRepairStats& rs = inst_->engine->index().last_repair_stats();
    p->writes.push_back(WriteRecord{row, ms, rs});
    if (trace_) {
      const double start = Offset(t0);
      const double replay = rs.replay_seconds * 1e3, reprobe = rs.reprobe_seconds * 1e3,
                   products = rs.products_seconds * 1e3;
      p->spans.push_back(
          Span{id, "write", kWrite, start, ms, static_cast<double>(rs.dirty_blocks)});
      p->spans.push_back(Span{id, "mvindex.repair_replay", kWrite, start, replay,
                              static_cast<double>(rs.replayed_nodes)});
      p->spans.push_back(Span{id, "mvindex.repair_reprobe", kWrite, start, reprobe, 0});
      p->spans.push_back(Span{id, "mvindex.repair_products", kWrite, start, products, 0});
      p->spans.push_back(
          Span{id, "core.delta_rest", kWrite, start, ms - replay - reprobe - products, 0});
    }
  }

  // Reads from here on run under moved weights: no serial reference holds.
  void DropReference() { reference_ = nullptr; }

  double Offset(Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - t0_).count();
  }

 private:
  // Server::EvalRequest + ExecuteBatch through their public calls, one span
  // per call. The replicas of one burst are also swept as one batch, as the
  // worker does with the requests it drains together.
  std::vector<AnswerProb> Replicate(Phase* p, const ReadSpec& spec, uint64_t id) {
    const Database& db = inst_->mvdb->db();
    const MvIndex& index = inst_->engine->index();
    auto mark = Clock::now();
    auto span = [&](const char* name, double count) {
      const auto now = Clock::now();
      p->spans.push_back(Span{id, name, spec.kind, Offset(mark),
                              std::chrono::duration<double, std::milli>(now - mark).count(),
                              count});
      mark = now;
    };

    const UcqSignature sig = ComputeUcqSignature(spec.query);
    bool hit = false;
    auto tmpl = p->plan_cache.GetOrPlan(db, spec.query, sig, EvalOptions{}, &hit);
    Die(tmpl.status(), "replica plan");
    span("serve.plan", hit ? 1 : 0);

    AnswerMap answers;
    Die((*tmpl)->Execute(sig.slots, &p->eval, &answers), "replica eval");
    size_t clauses = 0;
    for (const auto& [head, info] : answers) clauses += info.lineage.size();
    span("query.eval", static_cast<double>(clauses));

    Replica r{id, spec.kind, nullptr, {}, {}};
    r.qmgr = std::make_unique<BddManager>(index.manager().order());
    std::vector<std::vector<Value>> heads;
    for (const auto& [head, info] : answers) {
      heads.push_back(head);
      r.roots.push_back(r.qmgr->FromLineageSynthesis(info.lineage));
    }
    span("obdd.synth", 0);
    size_t nodes = 0;
    for (const NodeId root : r.roots) nodes += r.qmgr->CountNodes(root);
    p->spans.back().count = static_cast<double>(nodes);

    std::vector<CcQuery> qs;
    for (const NodeId root : r.roots) qs.push_back(CcQuery{r.qmgr.get(), root});
    mark = Clock::now();
    if (!qs.empty()) index.CCMVIntersectBatchScaled(qs, &p->sweep, &r.nums);
    span("mvindex.sweep", static_cast<double>(qs.size()));

    const ScaledDouble denom = index.ProbNotWScaled();
    std::vector<AnswerProb> out;
    for (size_t j = 0; j < heads.size(); ++j) {
      out.push_back(AnswerProb{std::move(heads[j]), ClampProb((r.nums[j] / denom).ToDouble())});
    }
    span("core.ratio", 0);

    p->batch.push_back(std::move(r));
    return out;
  }

  // One batched pass over the held replicas; it must reproduce each solo
  // sweep bit for bit.
  void SweepBatch(Phase* p) {
    if (p->batch.empty()) return;  // every read of the burst failed
    std::vector<CcQuery> qs;
    for (const Replica& r : p->batch) {
      for (const NodeId root : r.roots) qs.push_back(CcQuery{r.qmgr.get(), root});
    }
    std::vector<ScaledDouble> nums;
    const auto t0 = Clock::now();
    if (!qs.empty()) inst_->engine->index().CCMVIntersectBatchScaled(qs, &p->sweep, &nums);
    p->spans.push_back(Span{p->batch.back().req, "mvindex.sweep_batch", p->batch.back().kind,
                            Offset(t0), MsSince(t0),
                            static_cast<double>(p->batch.size())});
    size_t k = 0;
    for (const Replica& r : p->batch) {
      for (const ScaledDouble& n : r.nums) {
        if (!SameScaled(n, nums[k++])) ++p->replica_mismatch;
      }
    }
    p->batch.clear();
  }

  Instance* inst_;
  const std::vector<ReadSpec>& reads_;
  const std::vector<WriteSpec>& writes_;
  const std::vector<std::vector<AnswerProb>>* reference_;
  bool trace_;
  Clock::time_point t0_;
};

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

// Nearest-rank percentile; q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

// The middle value, or the mean of the middle two.
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < m.items.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.items[i].first.c_str(), m.items[i].second.first,
                m.items[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper-1m|probe-200k --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

template <typename F>
double MedianOf(const std::vector<SetupTimes>& setups, F field) {
  std::vector<double> v;
  for (const SetupTimes& t : setups) v.push_back(field(t));
  return Median(std::move(v));
}

// Whole rounds, at least one, until `seconds` elapse. Returns each round's
// duration in seconds.
std::vector<double> RunReads(const Workload& w, size_t num_reads, double seconds,
                             bool traced_run, Runner* runner, Phase* phase) {
  const auto start = Clock::now();
  auto elapsed_s = [&start] { return MsSince(start) / 1e3; };
  std::vector<double> round_s;
  for (size_t round = 0; round == 0 || elapsed_s() < seconds; ++round) {
    const double round_start = elapsed_s();
    phase->round = round;
    for (size_t j = 0; j < num_reads; j += w.window) {
      // In trace mode every other pair of bursts (one of each kind) is
      // traced; the latency difference to the untraced ones, interleaved in
      // time, is the tracing overhead.
      const bool traced = traced_run && (j / (2 * w.window)) % 2 == 1;
      runner->Read(phase, j, w.window, false, traced);
    }
    round_s.push_back(elapsed_s() - round_start);
  }
  return round_s;
}

uint64_t IndexDigest(const MvIndex& index, uint64_t planted = 0);

// The write phase, after the reads: one weight upsert every kWritePeriod,
// so the phase spans seconds of the machine's time, each followed by one
// affiliation read. One pass over the pool per kWriteFactors entry; the
// index digest after each pass goes to `pass_digests` (taken off the clock).
void RunWrites(const std::vector<ReadSpec>& reads, size_t num_writes, bool traced_run,
               Instance* inst, Runner* runner, Phase* phase,
               std::vector<uint64_t>* pass_digests) {
  std::vector<size_t> affiliation;
  for (size_t i = 0; i < reads.size(); ++i) {
    if (reads[i].kind == kAffiliation) affiliation.push_back(i);
  }
  auto due = Clock::now();
  size_t k = 0;
  for (const double factor : kWriteFactors) {
    for (size_t row = 0; row < num_writes; ++row, ++k) {
      std::this_thread::sleep_until(due);
      due += kWritePeriod;
      runner->Write(phase, row, factor);
      runner->Read(phase, affiliation[k % affiliation.size()], 1, true, traced_run);
    }
    pass_digests->push_back(IndexDigest(inst->engine->index()));
    due = Clock::now();
  }
}

// Fingerprint of everything a weight repair rewrites: the flat chain's
// annotations and level probabilities, the block probabilities and
// P0(NOT W). `planted` is XORed into P0's mantissa bits (the self-test's
// one-bit fault).
uint64_t IndexDigest(const MvIndex& index, uint64_t planted) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  auto mix_scaled = [&mix](const ScaledDouble& d) {
    mix(d.mantissa_bits());
    mix(static_cast<uint64_t>(d.exponent_word()));
  };
  const FlatObdd& flat = index.flat();
  for (size_t u = 0; u < flat.size(); ++u) {
    mix(static_cast<uint32_t>(flat.levels_data()[u]));
    mix_scaled(flat.prob_under_data()[u]);
  }
  for (size_t l = 0; l < flat.num_levels(); ++l) {
    uint64_t bits = 0;
    std::memcpy(&bits, &flat.level_probs_data()[l], sizeof(bits));
    mix(bits);
  }
  for (const MvBlock& b : index.blocks()) mix_scaled(b.prob);
  const ScaledDouble p0 = index.ProbNotWScaled();
  mix(p0.mantissa_bits() ^ planted);
  mix(static_cast<uint64_t>(p0.exponent_word()));
  return h;
}

struct CheckReport {
  uint64_t heads = 0, concurrent = 0, replica = 0, maintained = 0, rebuilt = 0;
  uint64_t eq5 = 0, eq5_too_large = 0, eq5_checked = 0;
  size_t eq5_max_vars = 0;
  double eq5_max_err = 0;
  bool planted_faults_tripped = false;

  bool ok() const {
    return heads == 0 && concurrent == 0 && replica == 0 && maintained == 0 && rebuilt == 0 &&
           eq5 == 0 && eq5_too_large == 0 && planted_faults_tripped;
  }
  void Print() const {
    std::fprintf(stderr,
                 "perfbench: checks: answer sets %llu mismatches; Eq. 5 %llu answers, %llu "
                 "mismatches, %llu too large, max error %.3g, max %zu vars; concurrent %llu; "
                 "replica %llu; maintained %llu; rebuilt %llu; planted faults %s\n",
                 static_cast<unsigned long long>(heads),
                 static_cast<unsigned long long>(eq5_checked),
                 static_cast<unsigned long long>(eq5),
                 static_cast<unsigned long long>(eq5_too_large), eq5_max_err, eq5_max_vars,
                 static_cast<unsigned long long>(concurrent),
                 static_cast<unsigned long long>(replica),
                 static_cast<unsigned long long>(maintained),
                 static_cast<unsigned long long>(rebuilt),
                 planted_faults_tripped ? "tripped" : "MISSED");
  }

  // Exhaustive Eq. 5 of one served answer against the database's current
  // weights; false when the oracle could not enumerate it.
  bool Eq5(const GroundW& ground, const std::vector<Clause>& lineage, double served,
           double* exact) {
    size_t nv = 0;
    const bool ok = ground.Eq5(lineage, exact, &nv);
    eq5_max_vars = std::max(eq5_max_vars, nv);
    if (!ok) {
      ++eq5_too_large;
      return false;
    }
    eq5_max_err = std::max(eq5_max_err, std::fabs(served - *exact));
    if (!Eq5Agrees(served, *exact)) ++eq5;
    ++eq5_checked;
    return true;
  }
};

GroundW GroundOf(const Mvdb& mvdb) {
  GroundW ground(mvdb);
  if (!ground.supported()) {
    std::fprintf(stderr, "perfbench: Eq. 5 oracle: view features carry negation\n");
    std::exit(1);
  }
  return ground;
}

std::vector<AnswerProb> ExecuteOrDie(Server* server, const Ucq& query, const char* what) {
  ServeRequest req;
  req.query = query;
  ServeResult res = server->Execute(req);
  Die(res.status, what);
  return std::move(res.answers);
}

// Every oracle of oracles.h, then the planted faults. The write phase left
// the written rows at moved weights, so the checks run in three steps:
//  1. Under the moved weights: the moved checks' answers against a table
//     scan and Eq. 5, and the maintained index against a fresh Compile of
//     the mutated database, bit for bit (index digest and answers).
//  2. The per-pass digests: passes that end on the same factor give the
//     same index whatever the history, and a moved factor another index
//     than the generated weights (`built`), so a repair that does nothing
//     trips.
//  3. The written rows are set back to their generated weights; the index
//     must equal `built`, and a seeded sample of the read phase's answers
//     must agree with Eq. 5.
CheckReport Check(uint64_t seed, Instance* inst, const std::vector<ReadSpec>& reads,
                  const std::vector<ReadSpec>& moved, const std::vector<WriteSpec>& writes,
                  const std::vector<std::unique_ptr<Phase>>& phases, uint64_t built,
                  const std::vector<uint64_t>& pass_digests) {
  CheckReport rep;
  for (const auto& p : phases) {
    rep.heads += p->head_mismatch;
    rep.concurrent += p->concurrent_mismatch;
    rep.replica += p->replica_mismatch;
  }

  // 1. Under the moved weights.
  const uint64_t maintained = IndexDigest(inst->engine->index());
  std::vector<std::vector<AnswerProb>> moved_answers;
  {
    const GroundW ground = GroundOf(*inst->mvdb);
    for (const ReadSpec& spec : moved) {
      moved_answers.push_back(ExecuteOrDie(inst->server.get(), spec.query, "moved check"));
      const std::vector<AnswerProb>& got = moved_answers.back();
      if (!SameHeads(got, spec.want)) {
        ++rep.heads;
        continue;
      }
      double exact = 0;
      for (size_t j = 0; j < got.size(); ++j) rep.Eq5(ground, spec.lineage[j], got[j].prob, &exact);
    }
  }
  {
    QueryEngine fresh(inst->mvdb.get());
    Die(fresh.Compile(BuildOptions()), "fresh compile");
    const std::unique_ptr<Server> server = Unwrap(fresh.Serve(ServingOptions()), "fresh serve");
    if (IndexDigest(fresh.index()) != maintained) ++rep.rebuilt;
    for (size_t i = 0; i < moved.size(); ++i) {
      if (!SameAnswers(ExecuteOrDie(server.get(), moved[i].query, "fresh check"),
                       moved_answers[i])) {
        ++rep.rebuilt;
      }
    }
  }

  // 2. The per-pass digests.
  if (pass_digests.size() != kWritePasses) ++rep.maintained;
  for (size_t a = 0; a < pass_digests.size(); ++a) {
    if ((pass_digests[a] == built) != (kWriteFactors[a] == 1.0)) ++rep.maintained;
    for (size_t b = a + 1; b < pass_digests.size(); ++b) {
      if ((pass_digests[a] == pass_digests[b]) != (kWriteFactors[a] == kWriteFactors[b])) {
        ++rep.maintained;
      }
    }
  }

  // 3. Back to the generated weights.
  for (const WriteSpec& ws : writes) Die(SetWeight(inst, ws, 1.0), "restore");
  const MvIndex& index = inst->engine->index();
  if (IndexDigest(index) != built) ++rep.maintained;

  // The first served answer of every read, under the generated weights.
  const std::vector<std::vector<AnswerProb>>& answers = phases[0]->first;
  const GroundW ground = GroundOf(*inst->mvdb);
  std::vector<std::pair<size_t, size_t>> sample;
  for (size_t i = 0; i < reads.size(); ++i) {
    if (!SameHeads(answers[i], reads[i].want)) continue;  // counted already
    for (size_t j = 0; j < reads[i].want.size(); ++j) sample.emplace_back(i, j);
  }
  Rng rng(seed ^ 0xe5e5e5e5ULL);
  for (size_t i = 0; i + 1 < sample.size(); ++i) {
    std::swap(sample[i], sample[i + static_cast<size_t>(rng.Below(sample.size() - i))]);
  }
  sample.resize(std::min(sample.size(), kEq5Samples));
  double first_exact = 0, first_served = 0;
  bool have_first = false;
  for (const auto& [i, j] : sample) {
    double exact = 0;
    const double served = answers[i][j].prob;
    if (rep.Eq5(ground, reads[i].lineage[j], served, &exact) && !have_first) {
      first_exact = exact;
      first_served = served;
      have_first = true;
    }
  }

  // Planted faults: every check must trip on a corrupted copy of real data.
  size_t i = 0;
  while (i < answers.size() && answers[i].empty()) ++i;
  if (i == answers.size() || !have_first) return rep;
  std::vector<AnswerProb> dropped = answers[i];
  dropped.pop_back();
  std::vector<AnswerProb> flipped = answers[i];
  uint64_t bits = 0;
  std::memcpy(&bits, &flipped[0].prob, sizeof(bits));
  bits ^= 1;
  std::memcpy(&flipped[0].prob, &bits, sizeof(bits));
  rep.planted_faults_tripped = !SameHeads(dropped, reads[i].want) &&
                               !Eq5Agrees(first_served + 1e-6, first_exact) &&
                               !SameAnswers(flipped, answers[i]) &&
                               IndexDigest(index, /*planted=*/1) != built;
  return rep;
}

double IndexMb(const MvIndex& index) {
  double bytes = static_cast<double>(index.flat().MemoryBytes());
  for (const MvBlock& b : index.blocks()) {
    bytes += static_cast<double>(sizeof(MvBlock) + b.key.capacity());
  }
  return bytes / (1024.0 * 1024.0);
}

// The q-th percentile over targets (distinct queries, or written rows) of
// each target's lower median latency in the run (nearest rank: with two
// repeats, the faster). Every target is measured once per round or write
// pass, so a target caught by a slow second of the machine is measured
// again at other times: the percentiles keep the spread over targets
// (chain position) and drop most of the machine's.
double TargetPercentile(const std::map<size_t, std::vector<double>>& by_target, double q) {
  std::vector<double> medians;
  for (const auto& [target, ms] : by_target) medians.push_back(Percentile(ms, 0.5));
  return Percentile(std::move(medians), q);
}

// The end-to-end metrics. qps is the median over the rounds of each
// round's reads per second; the latency percentiles are over targets, as
// TargetPercentile says.
Metrics EndToEnd(const std::vector<SetupTimes>& setups, const MvIndex& index,
                 double peak_rss_mb, const std::vector<double>& round_s,
                 const Phase& reader, const Phase& writer) {
  std::map<size_t, std::vector<double>> by_query[2], by_row;
  std::vector<double> round_reads(round_s.size(), 0.0);
  for (const ReadRecord& r : reader.reads) {
    by_query[r.kind][r.spec].push_back(r.ms);
    ++round_reads[r.round];
  }
  for (const WriteRecord& r : writer.writes) by_row[r.row].push_back(r.ms);
  std::vector<double> round_qps;
  for (size_t i = 0; i < round_s.size(); ++i) round_qps.push_back(round_reads[i] / round_s[i]);

  Metrics m;
  m.Add("setup_s", MedianOf(setups, [](const SetupTimes& t) { return t.total(); }), "s");
  m.Add("compile_s", MedianOf(setups, [](const SetupTimes& t) { return t.compile_s; }), "s");
  m.Add("peak_rss_mb", peak_rss_mb, "MB");
  m.Add("index_mb", IndexMb(index), "MB");
  m.Add("qps", Median(round_qps), "1/s");
  for (const Kind k : {kStudents, kAffiliation}) {
    const std::string name = k == kStudents ? "students" : "affiliation";
    m.Add(name + "_p50_ms", TargetPercentile(by_query[k], 0.5), "ms");
    m.Add(name + "_p90_ms", TargetPercentile(by_query[k], 0.9), "ms");
  }
  m.Add("write_p50_ms", TargetPercentile(by_row, 0.5), "ms");
  m.Add("write_p90_ms", TargetPercentile(by_row, 0.9), "ms");
  return m;
}

// The per-layer metrics, from the spans and from the stats the layers keep.
Metrics PerLayer(const std::vector<SetupTimes>& setups, const Server& server,
                 const std::vector<std::unique_ptr<Phase>>& phases, const Phase& reader,
                 const Phase& writer) {
  std::map<std::string, std::vector<double>> dur[3], count;
  std::vector<double> batch_per_query;
  size_t spans = 0;
  for (const auto& p : phases) {
    spans += p->spans.size();
    for (const Span& s : p->spans) {
      dur[s.kind][s.name].push_back(s.dur_ms);
      count[s.name].push_back(s.count);
      if (std::strcmp(s.name, "mvindex.sweep_batch") == 0) {
        batch_per_query.push_back(s.dur_ms / s.count);
      }
    }
  }
  auto all_kinds = [&dur](const char* name) {
    std::vector<double> v = dur[kStudents][name];
    v.insert(v.end(), dur[kAffiliation][name].begin(), dur[kAffiliation][name].end());
    return v;
  };
  std::vector<double> queue, exec, handoff, after_write, plain[2], traced[2];
  for (const auto& p : phases) {
    for (const ReadRecord& r : p->reads) {
      queue.push_back(r.queue_ms);
      exec.push_back(r.exec_ms);
      handoff.push_back(r.ms - r.queue_ms - r.exec_ms);
      if (r.after_write) after_write.push_back(r.ms);
      if (p.get() == &reader) (r.traced ? traced : plain)[r.kind].push_back(r.ms);
    }
  }
  // Tracing overhead: served-read latency with the replica running beside
  // it vs without, per kind, averaged over the two kinds.
  const double overhead = 50.0 * (Mean(traced[kStudents]) / Mean(plain[kStudents]) - 1.0) +
                          50.0 * (Mean(traced[kAffiliation]) / Mean(plain[kAffiliation]) - 1.0);
  std::vector<double> dirty;
  for (const WriteRecord& r : writer.writes) {
    dirty.push_back(static_cast<double>(r.repair.dirty_blocks));
  }
  const ServerStats ss = server.stats();
  auto build = [&setups](double MvIndexBuildStats::*f) {
    return MedianOf(setups, [f](const SetupTimes& t) { return t.build.*f; });
  };
  auto p50 = [](const std::vector<double>& v) { return Percentile(v, 0.5); };

  Metrics m;
  m.Add("dblp.generate_s", MedianOf(setups, [](const SetupTimes& t) { return t.generate_s; }), "s");
  m.Add("core.translate_s", build(&MvIndexBuildStats::translate_seconds), "s");
  m.Add("obdd.order_s", build(&MvIndexBuildStats::order_seconds), "s");
  m.Add("mvindex.partition_s", build(&MvIndexBuildStats::partition_seconds), "s");
  m.Add("mvindex.block_compile_s", build(&MvIndexBuildStats::compile_seconds), "s");
  m.Add("mvindex.stitch_s", build(&MvIndexBuildStats::stitch_seconds), "s");
  m.Add("mvindex.import_s", build(&MvIndexBuildStats::import_seconds), "s");
  m.Add("serve.start_s", MedianOf(setups, [](const SetupTimes& t) { return t.serve_s; }), "s");
  m.Add("mvindex.flat_nodes", static_cast<double>(setups.back().build.flat_nodes), "count");
  m.Add("mvindex.blocks", static_cast<double>(setups.back().build.blocks), "count");
  m.Add("serve.plan_ms", p50(all_kinds("serve.plan")), "ms");
  m.Add("serve.plan_cache_hit_rate", server.plan_cache_stats().HitRate(), "ratio");
  m.Add("query.eval_students_p50_ms", p50(dur[kStudents]["query.eval"]), "ms");
  m.Add("query.eval_affiliation_p50_ms", p50(dur[kAffiliation]["query.eval"]), "ms");
  m.Add("query.lineage_clauses", Mean(count["query.eval"]), "count");
  m.Add("obdd.synth_p50_ms", p50(all_kinds("obdd.synth")), "ms");
  m.Add("obdd.query_nodes", Mean(count["obdd.synth"]), "count");
  for (const Kind k : {kStudents, kAffiliation}) {
    const std::string name = k == kStudents ? "students" : "affiliation";
    m.Add("mvindex.sweep_" + name + "_p50_ms", Percentile(dur[k]["mvindex.sweep"], 0.5), "ms");
    m.Add("mvindex.sweep_" + name + "_p90_ms", Percentile(dur[k]["mvindex.sweep"], 0.9), "ms");
  }
  m.Add("mvindex.sweep_batch_per_query_ms", p50(batch_per_query), "ms");
  m.Add("core.ratio_p50_ms", p50(all_kinds("core.ratio")), "ms");
  m.Add("serve.queue_p50_ms", p50(queue), "ms");
  m.Add("serve.exec_p50_ms", p50(exec), "ms");
  m.Add("serve.handoff_p50_ms", p50(handoff), "ms");
  m.Add("serve.batch_size",
        static_cast<double>(ss.completed) / static_cast<double>(std::max<uint64_t>(1, ss.batches)),
        "count");
  m.Add("mvindex.repair_replay_p50_ms", p50(dur[kWrite]["mvindex.repair_replay"]), "ms");
  m.Add("mvindex.repair_reprobe_p50_ms", p50(dur[kWrite]["mvindex.repair_reprobe"]), "ms");
  m.Add("mvindex.repair_products_p50_ms", p50(dur[kWrite]["mvindex.repair_products"]), "ms");
  m.Add("core.delta_rest_p50_ms", p50(dur[kWrite]["core.delta_rest"]), "ms");
  m.Add("mvindex.dirty_blocks", Mean(dirty), "count");
  m.Add("serve.read_after_write_p50_ms", p50(after_write), "ms");
  m.Add("trace.overhead_pct", overhead, "%");
  m.Add("trace.spans", static_cast<double>(spans), "count");
  return m;
}

bool WriteSpans(const std::string& path, const std::vector<std::unique_ptr<Phase>>& phases) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "phase\treq\tspan\tkind\tstart_ms\tdur_ms\tcount\n");
  static const char* kKinds[] = {"students", "affiliation", "write"};
  for (size_t p = 0; p < phases.size(); ++p) {
    for (const Span& s : phases[p]->spans) {
      std::fprintf(f, "%zu\t%llu\t%s\t%s\t%.6f\t%.6f\t%.0f\n", p,
                   static_cast<unsigned long long>(s.req), s.name, kKinds[s.kind], s.start_ms,
                   s.dur_ms, s.count);
    }
  }
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  std::string workload, spans_path;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::atoll(value.c_str());
    else if (flag == "--seconds") seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else if (flag == "--spans") spans_path = value;
    else return Usage();
  }
  if (argc % 2 == 0 || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) return Usage();
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) wp = &w;
  }
  if (wp == nullptr) return Usage();
  const Workload& w = *wp;
  const bool traced_run = trace == 1;

  // Set-up, repeated; the last instance serves.
  std::vector<SetupTimes> setups(static_cast<size_t>(w.setups));
  Instance inst;
  for (SetupTimes& t : setups) {
    inst = Instance{};  // release the previous instance first
    inst = SetUp(w, static_cast<uint64_t>(seed), &t);
  }
  std::fprintf(stderr, "perfbench: %s seed %lld: set-up median %.3f s of", w.name, seed,
               MedianOf(setups, [](const SetupTimes& t) { return t.total(); }));
  for (const SetupTimes& t : setups) std::fprintf(stderr, " %.3f", t.total());
  std::fprintf(stderr, "\n");

  std::vector<ReadSpec> reads;
  std::vector<WriteSpec> writes;
  std::vector<ReadSpec> moved;
  Select(w, &inst, &reads, &writes, &moved);

  // Concurrent answers are checked against the serial path, bit for bit.
  std::vector<std::vector<AnswerProb>> reference;
  if (w.window > 1) {
    for (const ReadSpec& spec : reads) {
      ServeRequest req;
      req.query = spec.query;
      ServeResult res = inst.server->Execute(req);
      Die(res.status, "reference execute");
      reference.push_back(std::move(res.answers));
    }
  }
  // Warm-up: plan each query shape once, size the worker's sweep scratch.
  for (size_t i = 0; i < 2; ++i) {
    ServeRequest req;
    req.query = reads[i].query;
    Die(inst.server->Submit(std::move(req)).get().status, "warm-up");
  }

  Runner runner(&inst, reads, writes, reference.empty() ? nullptr : &reference, traced_run);
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(runner.NewPhase());
  phases.push_back(runner.NewPhase());
  const Phase& reader = *phases[0];
  const Phase& writer = *phases[1];
  const std::vector<double> round_s =
      RunReads(w, reads.size(), seconds, traced_run, &runner, phases[0].get());
  const uint64_t built = IndexDigest(inst.engine->index());
  runner.DropReference();  // the write phase reads under moved weights
  std::vector<uint64_t> pass_digests;
  RunWrites(reads, writes.size(), traced_run, &inst, &runner, phases[1].get(), &pass_digests);
  const double peak_rss_mb = PeakRssMb();  // before the checks allocate

  const CheckReport checks = Check(static_cast<uint64_t>(seed), &inst, reads, moved, writes,
                                   phases, built, pass_digests);
  checks.Print();
  uint64_t attempted = 0, failed = 0;
  for (const auto& p : phases) {
    attempted += p->attempted;
    failed += p->failed;
  }
  const Metrics m =
      traced_run ? PerLayer(setups, *inst.server, phases, reader, writer)
                 : EndToEnd(setups, inst.engine->index(), peak_rss_mb, round_s, reader, writer);
  if (traced_run && !spans_path.empty() && !WriteSpans(spans_path, phases)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 2;
  }
  PrintResult(checks.ok(), attempted, failed, m);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
