#include "src/smt/icp_solver.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/fault.h"
#include "src/parallel/thread_pool.h"

namespace bcert::smt {

using clock = std::chrono::steady_clock;
using interval::Box;
using interval::Interval;

const char* sat_result_name(SatResult r) {
  switch (r) {
    case SatResult::kUnsat: return "UNSAT";
    case SatResult::kSat: return "SAT";
    case SatResult::kDeltaSat: return "delta-SAT";
    case SatResult::kUnknown: return "UNKNOWN";
  }
  return "?";
}

linalg::Vector IcpResult::witness_point() const {
  if (!witness) {
    throw std::logic_error("IcpResult::witness_point: no witness");
  }
  return witness->midpoint();
}

namespace {

/// One wall-clock + box budget for a query — for DNF queries shared by
/// every disjunct, so the configured limits bound the *query*, not each
/// of its k disjuncts separately.
struct Budget {
  clock::time_point start;
  double time_limit_s;
  std::uint64_t max_boxes;
  const parallel::CancellationToken* interrupt;
  core::MemoryBudget* mem;
  std::uint64_t boxes_used = 0;

  explicit Budget(const IcpConfig& config)
      : start(clock::now()),
        time_limit_s(config.time_limit_s),
        max_boxes(config.max_boxes),
        interrupt(config.interrupt),
        mem(config.mem_budget) {}

  double elapsed_s() const {
    return std::chrono::duration<double>(clock::now() - start).count();
  }

  /// Claims one box; false when the box or time budget is spent, an
  /// external interrupt fired, or the job's memory budget latched
  /// exhausted (all look like budget exhaustion to the solver: the query
  /// winds down and reports kUnknown; the pipeline distinguishes the
  /// memory case through MemoryBudget::exhausted()).
  bool admit_box() {
    if (interrupt != nullptr && interrupt->cancelled()) return false;
    if (mem != nullptr && mem->exhausted()) return false;
    if (boxes_used++ >= max_boxes) return false;
    return elapsed_s() <= time_limit_s;
  }

  /// Claims \p boxes at once for a resumed search prefix: true, and
  /// counted, exactly when a fresh search would have admitted every one
  /// of them. The wall clock is not charged — a prefix that is not re-run
  /// takes no time.
  bool claim(std::uint64_t boxes) {
    if (interrupt != nullptr && interrupt->cancelled()) return false;
    if (mem != nullptr && mem->exhausted()) return false;
    if (boxes_used + boxes > max_boxes) return false;
    boxes_used += boxes;
    return true;
  }
};

void merge_stats(IcpStats& into, const IcpStats& from) {
  into.boxes_processed += from.boxes_processed;
  into.boxes_pruned += from.boxes_pruned;
  into.splits += from.splits;
  into.warm_starts += from.warm_starts;
  into.max_depth_width = std::min(into.max_depth_width, from.max_depth_width);
}

using Rung = std::atomic<std::uint32_t> core::DegradationCounters::*;

void count_rung(const IcpConfig& config, Rung rung) {
  if (config.degrade != nullptr) {
    (config.degrade->*rung).fetch_add(1, std::memory_order_relaxed);
  }
}

/// The HC4 contractor for one conjunction search. In jit/tape mode the
/// tape comes from the tape cache when the config carries one.
///
/// Three degradation-ladder rungs live here, all bit-identical in
/// results. The tape is fetched (or compiled) once; a failure there
/// falls back to the tree backend (`tape_to_tree`). In jit mode the
/// native code is then emitted from that same tape, and only an
/// emission failure falls back to the tape interpreter (`jit_to_tape`).
/// A tripped cache_lookup fault treats the tape-cache entry as corrupt —
/// the conjunction recompiles cold instead of trusting the cache.
Hc4Contractor make_contractor(const expr::ExprPool& pool,
                              const Conjunction& c, const IcpConfig& config) {
  const Hc4Mode mode = resolve_hc4_mode(config.hc4_mode);
  if (mode != Hc4Mode::kJit && mode != Hc4Mode::kTape) {
    return Hc4Contractor(pool, c, Hc4Mode::kTree);
  }
  bool use_cache = config.tape_cache != nullptr;
  if (use_cache &&
      core::FaultRegistry::trip(core::FaultPoint::kCacheLookup)) {
    use_cache = false;
    count_rung(config, &core::DegradationCounters::cache_cold);
  }
  std::shared_ptr<const Hc4Tape> tape;
  try {
    tape = use_cache ? config.tape_cache->get_or_compile(pool, c)
                     : std::make_shared<const Hc4Tape>(pool, c);
  } catch (const std::exception&) {
    count_rung(config, &core::DegradationCounters::tape_to_tree);
    return Hc4Contractor(pool, c, Hc4Mode::kTree);
  }
  if (mode != Hc4Mode::kJit) return Hc4Contractor(tape);
  std::shared_ptr<const Hc4Jit> jit;
  try {
    jit = use_cache ? config.tape_cache->get_or_compile_jit(tape)
                    : Hc4Jit::compile(tape);
  } catch (const std::exception&) {
    count_rung(config, &core::DegradationCounters::jit_to_tape);
    return Hc4Contractor(tape);
  }
  return Hc4Contractor(jit);
}

/// A frontier box plus its node id in the split-tree recording (unused
/// when recording is off).
struct WorkItem {
  Box box;
  std::uint32_t node = 0;
};

/// Split-tree recorder. Boxes carry their node ids; a split turns the
/// parent's leaf node into an internal node with two fresh leaf
/// children. Nodes live in fixed-size blocks, each charged to the job's
/// memory budget when it is allocated. Recording that would exceed the
/// per-tree node cap, or whose next block the budget refuses, is
/// abandoned (overflow) and the tree is not persisted — recording is an
/// optimization, so quota pressure degrades it first.
class TreeRecorder {
 public:
  explicit TreeRecorder(core::MemoryBudget* mem = nullptr) : mem_(mem) {
    // Root (id 0) starts as a leaf; no root block → no recording at all.
    overflow_ = !reserve(1);
  }

  ~TreeRecorder() {
    if (mem_ != nullptr && charged_ > 0) mem_->release(charged_);
  }

  TreeRecorder(const TreeRecorder&) = delete;
  TreeRecorder& operator=(const TreeRecorder&) = delete;

  bool overflow() const { return overflow_; }

  std::pair<std::uint32_t, std::uint32_t> record_split(std::uint32_t parent,
                                                       std::uint32_t dim,
                                                       double value) {
    const std::uint32_t left = size_;
    if (parent == UnsatTree::kNoNode || overflow_ ||
        left + 1 >= UnsatTreeCache::kMaxNodes || !reserve(left + 2)) {
      overflow_ = true;
      return {UnsatTree::kNoNode, UnsatTree::kNoNode};
    }
    size_ = left + 2;  // the children are fresh leaves
    UnsatTree::Node& p = node(parent);
    p.dim = dim;
    p.value = value;
    p.left = left;
    p.right = left + 1;
    return {left, left + 1};
  }

  /// Copy of the recording.
  std::vector<UnsatTree::Node> take_nodes() {
    std::vector<UnsatTree::Node> out(size_);
    for (std::uint32_t i = 0; i < size_; ++i) out[i] = node(i);
    return out;
  }

 private:
  static constexpr std::size_t kBlockNodes = 4096;

  UnsatTree::Node& node(std::uint32_t id) {
    return blocks_[id / kBlockNodes][id % kBlockNodes];
  }

  /// Allocates and charges blocks (of leaves) until ids [0, n) fit;
  /// false when the memory budget refuses one.
  bool reserve(std::size_t n) {
    constexpr std::size_t kBlockBytes = kBlockNodes * sizeof(UnsatTree::Node);
    while (blocks_.size() * kBlockNodes < n) {
      if (mem_ != nullptr && !mem_->try_charge(kBlockBytes)) return false;
      charged_ += kBlockBytes;
      blocks_.push_back(std::make_unique<UnsatTree::Node[]>(kBlockNodes));
    }
    return true;
  }

  std::vector<std::unique_ptr<UnsatTree::Node[]>> blocks_;
  std::uint32_t size_ = 1;
  bool overflow_ = false;
  core::MemoryBudget* mem_;
  std::size_t charged_ = 0;
};

/// Replays \p seed over \p box while reproducing the seed's split
/// structure inside \p rec, so the new recording extends the seeded
/// partition. Uses the one shared UnsatTree::walk traversal (the
/// partition-coverage invariant lives in a single place). Returns the
/// partition leaves in left-first order — pushed onto the LIFO frontier
/// as-is, they are explored right-most first, matching the cold DFS
/// orientation.
std::vector<WorkItem> replay_seed(const UnsatTree& seed, const Box& box,
                                  TreeRecorder* rec) {
  std::vector<WorkItem> out;
  seed.walk(
      box, std::uint32_t{0},
      [rec](const UnsatTree::Node& n, std::uint32_t rid) {
        return rec != nullptr
                   ? rec->record_split(rid, n.dim, n.value)
                   : std::pair<std::uint32_t, std::uint32_t>{0, 0};
      },
      [&out](Box&& leaf, std::uint32_t rid) {
        out.push_back({std::move(leaf), rid});
      });
  return out;
}

/// Per-conjunction-solve warm-start context: looks up the seed partition
/// (the UNSAT-tree cache lookup happens on construction), owns the
/// split-tree recorder, and publishes the recording when the query
/// completed UNSAT.
class QueryContext {
 public:
  QueryContext(const expr::ExprPool& pool, const Conjunction& c,
               const Box& box, const IcpConfig& config)
      : pool_(&pool), box_(box), config_(&config) {
    if (box.is_empty() || !records()) return;
    // Hash the conjunction once; publish() reuses both signatures. The
    // lossy shape hash keys the live LRU (organic cross-candidate
    // seeding); the content-exact hash keys the persisted warm table,
    // where only a byte-identical query may adopt a restored tree
    // (verdict invariance — see UnsatTreeCache::WarmEntry).
    signature_ = structural_signature(pool, c);
    content_ = content_signature(pool, c);
    // A tripped cache_lookup fault treats any cached seed as stale: the
    // query cold-starts from the full box, exactly the stale-seed
    // recovery path the UNSAT-tree cache already has.
    if (core::FaultRegistry::trip(core::FaultPoint::kCacheLookup)) {
      count_rung(config, &core::DegradationCounters::cache_cold);
    } else {
      seed_ = config.unsat_cache->find(pool, signature_, content_, box);
    }
  }

  /// Whether solves under this config record their split trees.
  bool records() const {
    return config_->warm_start && config_->unsat_cache != nullptr;
  }

  /// What the lookup returned (null: cold start).
  const std::shared_ptr<const UnsatTree>& seed() const { return seed_; }

  /// Starts a fresh search: a new recorder, and the seed's replayed
  /// partition (or the cold single box) as the frontier. An empty box
  /// has no seeds: trivially UNSAT.
  std::vector<WorkItem> start() {
    std::vector<WorkItem> seeds;
    if (box_.is_empty()) return seeds;
    if (records()) {
      rec_ = std::make_unique<TreeRecorder>(config_->mem_budget);
      if (seed_) {
        seeds = replay_seed(*seed_, box_, rec_.get());
        warm_ = seeds.size() > 1;
      }
    }
    if (seeds.empty()) seeds.push_back({box_, 0});
    return seeds;
  }

  /// Continues a suspended search instead: adopts its recorder.
  void adopt(std::unique_ptr<TreeRecorder> rec) { rec_ = std::move(rec); }
  std::unique_ptr<TreeRecorder> take_recorder() { return std::move(rec_); }

  TreeRecorder* recorder() { return rec_.get(); }
  bool warm_started() const { return warm_; }

  /// Persists the recorded tree when the query was refuted cleanly (a
  /// cancelled or exhausted run has an incomplete tree — never stored;
  /// a root-only tree carries no information — also skipped).
  void publish(SatResult verdict) {
    if (rec_ == nullptr || rec_->overflow() ||
        verdict != SatResult::kUnsat) {
      return;
    }
    std::vector<UnsatTree::Node> nodes = rec_->take_nodes();
    if (nodes.size() <= 1) return;
    auto tree = std::make_shared<UnsatTree>();
    tree->root_box = std::move(box_);
    tree->nodes = std::move(nodes);
    config_->unsat_cache->store(*pool_, signature_, content_,
                                std::move(tree));
  }

 private:
  const expr::ExprPool* pool_;
  Box box_;
  const IcpConfig* config_;
  std::uint64_t signature_ = 0;
  Sig128 content_;
  std::shared_ptr<const UnsatTree> seed_;
  std::unique_ptr<TreeRecorder> rec_;
  bool warm_ = false;
};

/// Settles a contracted, nonempty work item: kSat when the constraints
/// certainly hold over the whole box, kDeltaSat when it is too small to
/// split further, and otherwise nothing — the box is split and recorded,
/// leaving its children (left, right) in \p children. A resumed search
/// re-settles its suspended witness here.
std::optional<SatResult> settle_contracted(
    WorkItem& it, Hc4Contractor& hc4, const IcpConfig& config,
    TreeRecorder* rec, IcpStats& stats,
    std::optional<std::pair<WorkItem, WorkItem>>& children) {
  children.reset();
  stats.max_depth_width = std::min(stats.max_depth_width, it.box.max_width());

  if (hc4.certainly_satisfied(it.box)) return SatResult::kSat;
  if (it.box.max_width() <= config.delta) return SatResult::kDeltaSat;

  const std::size_t dim = it.box.widest_dim();
  const double mid = it.box[dim].mid();
  auto [left, right] = it.box.split(dim);
  ++stats.splits;
  const auto ids =
      rec != nullptr
          ? rec->record_split(it.node, static_cast<std::uint32_t>(dim), mid)
          : std::pair<std::uint32_t, std::uint32_t>{0, 0};
  children.emplace(WorkItem{std::move(left), ids.first},
                   WorkItem{std::move(right), ids.second});
  return std::nullopt;
}

/// Contracts one popped work item, then prunes it (no children) or
/// settles it (above).
std::optional<SatResult> settle_item(
    WorkItem& it, Hc4Contractor& hc4, const IcpConfig& config,
    TreeRecorder* rec, IcpStats& stats,
    std::optional<std::pair<WorkItem, WorkItem>>& children) {
  children.reset();
  const ContractResult contracted = hc4.contract_fixpoint(
      it.box, config.hc4_passes, config.hc4_improvement);
  if (contracted == ContractResult::kEmpty || it.box.is_empty()) {
    ++stats.boxes_pruned;
    return std::nullopt;
  }
  return settle_contracted(it, hc4, config, rec, stats, children);
}

/// The search's LIFO stack (back = deepest). Every resident box is
/// charged to the job's memory budget — each WorkItem owns dims
/// intervals, the dominant term of the search's memory; pops and the
/// destructor give the charge back, so a suspended stack holds its
/// charge until the suspension is resumed or dropped.
class DfsStack {
 public:
  DfsStack(core::MemoryBudget* mem, std::size_t dims)
      : mem_(mem), box_bytes_(dims * sizeof(Interval) + sizeof(WorkItem)) {}
  DfsStack(const DfsStack&) = delete;
  DfsStack& operator=(const DfsStack&) = delete;
  ~DfsStack() { release(items_.size()); }

  bool empty() const { return items_.empty(); }

  /// Charges and pushes a fresh search's seeds in order (the last
  /// surfaces first); false, pushing nothing, when the budget refuses.
  bool push_seeds(std::vector<WorkItem> seeds) {
    if (seeds.empty()) return true;
    if (!charge(seeds.size())) return false;
    items_ = std::move(seeds);
    return true;
  }

  /// Charges and pushes a split's children, left then right, so the
  /// right child surfaces first; false, pushing nothing, when the budget
  /// refuses.
  bool push_children(std::pair<WorkItem, WorkItem>& children) {
    if (!charge(2)) return false;
    items_.push_back(std::move(children.first));
    items_.push_back(std::move(children.second));
    return true;
  }

  WorkItem pop() {
    WorkItem item = std::move(items_.back());
    items_.pop_back();
    release(1);
    return item;
  }

 private:
  bool charge(std::size_t boxes) {
    return mem_ == nullptr || mem_->try_charge(boxes * box_bytes_);
  }
  void release(std::size_t boxes) {
    if (mem_ != nullptr && boxes > 0) mem_->release(boxes * box_bytes_);
  }

  std::vector<WorkItem> items_;
  core::MemoryBudget* mem_;
  std::size_t box_bytes_;
};

/// One conjunction's search: the stack, the statistics so far and,
/// after a (δ-)SAT stop, the reported box with its split-tree node.
struct Dfs {
  DfsStack stack;
  IcpStats stats;
  WorkItem witness;

  Dfs(core::MemoryBudget* mem, std::size_t dims, const IcpStats& prefix)
      : stack(mem, dims), stats(prefix) {}
};

/// Depth-first branch-and-prune over one conjunction, one box at a time
/// (see the exploration-order contract in icp_solver.h). Runs until the
/// stack empties (kUnsat), a box settles (δ-)SAT (kSat / kDeltaSat, the
/// box left in `dfs.witness` and the unexplored rest on the stack) or the
/// budget is spent, a refused memory charge included (kUnknown). With
/// \p resumed, `dfs.witness` is a suspended search's witness: contracted
/// and counted at a larger δ, it is settled again at this δ before the
/// stack is resumed.
SatResult search(Hc4Contractor& hc4, const IcpConfig& config,
                 TreeRecorder* rec, Budget& budget, Dfs& dfs,
                 bool resumed = false) {
  std::optional<std::pair<WorkItem, WorkItem>> children;
  if (resumed) {
    if (const auto sat = settle_contracted(dfs.witness, hc4, config, rec,
                                           dfs.stats, children)) {
      return *sat;  // still δ-SAT at this δ
    }
    if (!dfs.stack.push_children(*children)) return SatResult::kUnknown;
  }
  while (!dfs.stack.empty()) {
    WorkItem item = dfs.stack.pop();
    if (!budget.admit_box()) return SatResult::kUnknown;
    ++dfs.stats.boxes_processed;
    if (const auto sat =
            settle_item(item, hc4, config, rec, dfs.stats, children)) {
      dfs.witness = std::move(item);
      return *sat;
    }
    if (children && !dfs.stack.push_children(*children)) {
      return SatResult::kUnknown;
    }
  }
  return SatResult::kUnsat;
}

/// A fresh search over \p seeds (the context's replayed partition or the
/// whole box). A refused memory charge for the seeds answers kUnknown
/// before any box is processed.
SatResult search_fresh(Hc4Contractor& hc4, const IcpConfig& config,
                       TreeRecorder* rec, Budget& budget, Dfs& dfs,
                       std::vector<WorkItem> seeds) {
  if (!dfs.stack.push_seeds(std::move(seeds))) return SatResult::kUnknown;
  return search(hc4, config, rec, budget, dfs);
}

/// Bitwise box equality (== would equate 0.0 and −0.0).
bool same_bits(const Box& a, const Box& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].lo()) !=
            std::bit_cast<std::uint64_t>(b[i].lo()) ||
        std::bit_cast<std::uint64_t>(a[i].hi()) !=
            std::bit_cast<std::uint64_t>(b[i].hi())) {
      return false;
    }
  }
  return true;
}

/// Whether a δ-SAT answer may be suspended and later resumed
/// bit-identically: not with a fault armed (a skipped prefix would not
/// advance the fault counters) nor under a memory quota (a suspension's
/// held charge could refuse a charge that a fresh solve makes).
bool suspendable(const IcpConfig& config) {
  return !core::FaultRegistry::enabled() &&
         (config.mem_budget == nullptr || config.mem_budget->quota() == 0);
}

}  // namespace

/// A δ-SAT disjunct's suspended search (see icp_solver.h): the query it
/// answered, the seed its frontier started from, and the search as the
/// δ-SAT stop left it.
struct IcpSuspension {
  // The query a resume must repeat, at a δ no larger.
  const expr::ExprPool* pool = nullptr;
  Dnf dnf;
  Box box;
  double delta = 0.0;
  int hc4_passes = 0;
  double hc4_improvement = 0.0;
  core::MemoryBudget* mem = nullptr;
  std::size_t disjunct = 0;
  /// What the disjunct's UNSAT-tree lookup returned. Held, so no other
  /// tree can take its address while the suspension lives.
  std::shared_ptr<const UnsatTree> seed;

  // The search; `dfs` is null once a resume consumed it.
  std::unique_ptr<TreeRecorder> rec;
  std::unique_ptr<Dfs> dfs;
  std::uint32_t resumes = 0;

  /// True when continuing this search answers \p q over \p b under
  /// \p config exactly as a fresh solve would, up to the seed lookup and
  /// the box budget, which the sweep checks when it reaches the disjunct.
  bool matches(const expr::ExprPool& p, const Dnf& q, const Box& b,
               const IcpConfig& config) const {
    return dfs != nullptr && pool == &p && config.delta <= delta &&
           config.hc4_passes == hc4_passes &&
           config.hc4_improvement == hc4_improvement &&
           config.mem_budget == mem &&
           (rec != nullptr) ==
               (config.warm_start && config.unsat_cache != nullptr) &&
           same_bits(box, b) && dnf == q;
  }
};

std::uint32_t resumed_steps(const IcpSuspension& s) { return s.resumes; }

IcpResult IcpSolver::solve(const Conjunction& conjunction,
                           const interval::Box& box) const {
  Budget budget(config_);
  IcpResult result;

  if (conjunction.empty()) {
    // Trivially satisfied everywhere (if the box is nonempty).
    result.verdict = box.is_empty() ? SatResult::kUnsat : SatResult::kSat;
    if (!box.is_empty()) result.witness = box;
    result.stats.solve_time_s = budget.elapsed_s();
    return result;
  }

  Hc4Contractor hc4 = make_contractor(*pool_, conjunction, config_);
  QueryContext ctx(*pool_, conjunction, box, config_);
  IcpStats stats;
  stats.max_depth_width = box.max_width();
  std::vector<WorkItem> seeds = ctx.start();
  if (ctx.warm_started()) ++stats.warm_starts;

  Dfs dfs(config_.mem_budget, box.size(), stats);
  result.verdict = search_fresh(hc4, config_, ctx.recorder(), budget, dfs,
                                std::move(seeds));
  result.stats = dfs.stats;
  if (result.is_sat()) result.witness = std::move(dfs.witness.box);
  result.stats.solve_time_s = budget.elapsed_s();
  ctx.publish(result.verdict);
  return result;
}

IcpResult IcpSolver::solve(const Dnf& dnf, const interval::Box& box,
                           std::shared_ptr<IcpSuspension> resume) const {
  Budget budget(config_);  // one for the whole DNF
  IcpResult aggregate;
  aggregate.verdict = SatResult::kUnsat;
  aggregate.stats.max_depth_width = box.max_width();
  if (box.is_empty()) {
    // No point satisfies any disjunct.
    aggregate.stats.solve_time_s = budget.elapsed_s();
    return aggregate;
  }

  // Disjunct sweep: the first (δ-)SAT disjunct answers the query. A δ-SAT
  // answer suspends its disjunct's search, and `resume` continues one
  // (see icp_solver.h).
  const bool suspend = suspendable(config_);
  if (resume != nullptr &&
      !(suspend && resume->matches(*pool_, dnf, box, config_))) {
    resume.reset();
  }
  bool any_unknown = false;
  for (std::size_t d = 0; d < dnf.disjuncts.size(); ++d) {
    const Conjunction& disjunct = dnf.disjuncts[d];
    if (disjunct.empty()) {
      aggregate.verdict = SatResult::kSat;
      aggregate.witness = box;
      aggregate.stats.solve_time_s = budget.elapsed_s();
      return aggregate;
    }
    Hc4Contractor hc4 = make_contractor(*pool_, disjunct, config_);
    QueryContext ctx(*pool_, disjunct, box, config_);
    std::unique_ptr<Dfs> dfs;
    SatResult verdict;
    const bool resumed =
        resume != nullptr && resume->disjunct == d &&
        resume->seed == ctx.seed() &&
        budget.claim(resume->dfs->stats.boxes_processed);
    if (resumed) {
      // The fresh search would repeat the suspended prefix box for box
      // (one budget claim per processed box): continue it instead.
      ctx.adopt(std::move(resume->rec));
      dfs = std::move(resume->dfs);
      verdict = search(hc4, config_, ctx.recorder(), budget, *dfs,
                       /*resumed=*/true);
    } else {
      IcpStats stats;
      stats.max_depth_width = box.max_width();
      std::vector<WorkItem> seeds = ctx.start();
      if (ctx.warm_started()) ++stats.warm_starts;
      dfs = std::make_unique<Dfs>(config_.mem_budget, box.size(), stats);
      verdict = search_fresh(hc4, config_, ctx.recorder(), budget, *dfs,
                             std::move(seeds));
    }
    ctx.publish(verdict);
    merge_stats(aggregate.stats, dfs->stats);
    if (verdict == SatResult::kUnknown) any_unknown = true;
    if (verdict != SatResult::kSat && verdict != SatResult::kDeltaSat) {
      continue;
    }
    aggregate.verdict = verdict;
    aggregate.witness = dfs->witness.box;
    if (verdict == SatResult::kDeltaSat && suspend) {
      auto s = std::make_shared<IcpSuspension>();
      s->pool = pool_;
      s->dnf = dnf;
      s->box = box;
      s->delta = config_.delta;
      s->hc4_passes = config_.hc4_passes;
      s->hc4_improvement = config_.hc4_improvement;
      s->mem = config_.mem_budget;
      s->disjunct = d;
      s->seed = ctx.seed();
      s->rec = ctx.take_recorder();
      s->dfs = std::move(dfs);
      s->resumes = resumed ? resume->resumes + 1 : 0;
      aggregate.suspension = std::move(s);
    }
    aggregate.stats.solve_time_s = budget.elapsed_s();
    return aggregate;
  }
  if (any_unknown) aggregate.verdict = SatResult::kUnknown;
  aggregate.stats.solve_time_s = budget.elapsed_s();
  return aggregate;
}

}  // namespace bcert::smt
