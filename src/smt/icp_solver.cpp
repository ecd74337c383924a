#include "src/smt/icp_solver.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
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

/// One wall-clock + box budget shared by every worker of a query — and,
/// for DNF queries, by every disjunct, so the configured limits bound
/// the *query*, not each of its k disjuncts separately.
struct SharedBudget {
  clock::time_point start;
  double time_limit_s;
  std::uint64_t max_boxes;
  const parallel::CancellationToken* interrupt;
  core::MemoryBudget* mem;
  std::atomic<std::uint64_t> boxes_used{0};

  explicit SharedBudget(const IcpConfig& config)
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
    if (boxes_used.fetch_add(1, std::memory_order_relaxed) >= max_boxes) {
      return false;
    }
    return elapsed_s() <= time_limit_s;
  }

  /// Claims \p boxes at once for a resumed search prefix (sequential
  /// frontier only): true, and counted, exactly when a fresh search
  /// would have admitted every one of them. The wall clock is not
  /// charged — a prefix that is not re-run takes no time.
  bool claim(std::uint64_t boxes) {
    if (interrupt != nullptr && interrupt->cancelled()) return false;
    if (mem != nullptr && mem->exhausted()) return false;
    if (boxes_used.load(std::memory_order_relaxed) + boxes > max_boxes) {
      return false;
    }
    boxes_used.fetch_add(boxes, std::memory_order_relaxed);
    return true;
  }
};

/// The pool a query's workers run on (the Engine's owned pool when the
/// config carries one, else the process-global pool).
parallel::ThreadPool& pool_of(const IcpConfig& config) {
  return config.pool != nullptr ? *config.pool
                                : parallel::ThreadPool::global();
}

/// Outcome flags shared by the workers of one conjunction query (and by
/// concurrently dispatched DNF disjuncts).
struct SharedOutcome {
  std::mutex m;
  bool sat_found = false;
  SatResult sat_verdict = SatResult::kUnknown;
  interval::Box sat_witness;
  std::atomic<bool> exhausted{false};

  /// First (δ-)SAT discovery wins; everyone else gets cancelled.
  void report_sat(SatResult verdict, interval::Box witness,
                  parallel::CancellationToken& cancel) {
    {
      std::lock_guard<std::mutex> lock(m);
      if (!sat_found) {
        sat_found = true;
        sat_verdict = verdict;
        sat_witness = std::move(witness);
      }
    }
    cancel.cancel();
  }
};

/// Stops a query whose budget is spent: it reports kUnknown.
void wind_down(SharedOutcome& outcome, parallel::CancellationToken& cancel) {
  outcome.exhausted.store(true, std::memory_order_release);
  cancel.cancel();
}

void merge_stats(IcpStats& into, const IcpStats& from) {
  into.boxes_processed += from.boxes_processed;
  into.boxes_pruned += from.boxes_pruned;
  into.splits += from.splits;
  into.warm_starts += from.warm_starts;
  into.max_depth_width = std::min(into.max_depth_width, from.max_depth_width);
}

/// Where a query's workers get their contractors from. In jit/tape mode
/// the conjunction is compiled exactly once and every worker shares the
/// immutable compilation (each contractor then owns just a register
/// file); in tree mode each worker compiles its own evaluator, as the
/// seed did.
///
/// Three degradation-ladder rungs live here, all bit-identical in
/// results. The tape is fetched (or compiled) once; a failure there
/// falls back to the tree backend (`tape_to_tree`). In jit mode the
/// native code is then emitted from that same tape, and only an
/// emission failure falls back to the tape interpreter (`jit_to_tape`).
/// A tripped cache_lookup fault treats the tape-cache entry as corrupt —
/// the conjunction recompiles cold instead of trusting the cache.
struct ContractorSpec {
  const expr::ExprPool* pool = nullptr;
  const Conjunction* conjunction = nullptr;
  std::shared_ptr<const Hc4Jit> jit;    // non-null → native backend
  std::shared_ptr<const Hc4Tape> tape;  // else: null → tree backend

  ContractorSpec(const expr::ExprPool& p, const Conjunction& c,
                 const IcpConfig& config) {
    pool = &p;
    conjunction = &c;
    const Hc4Mode mode = resolve_hc4_mode(config.hc4_mode);
    if (mode != Hc4Mode::kJit && mode != Hc4Mode::kTape) return;
    bool use_cache = config.tape_cache != nullptr;
    if (use_cache &&
        core::FaultRegistry::trip(core::FaultPoint::kCacheLookup)) {
      use_cache = false;
      count(config, &core::DegradationCounters::cache_cold);
    }
    try {
      tape = use_cache ? config.tape_cache->get_or_compile(p, c)
                       : std::make_shared<const Hc4Tape>(p, c);
    } catch (const std::exception&) {
      count(config, &core::DegradationCounters::tape_to_tree);
      return;
    }
    if (mode != Hc4Mode::kJit) return;
    try {
      jit = use_cache ? config.tape_cache->get_or_compile_jit(tape)
                      : Hc4Jit::compile(tape);
    } catch (const std::exception&) {
      count(config, &core::DegradationCounters::jit_to_tape);
    }
  }

  using Rung = std::atomic<std::uint32_t> core::DegradationCounters::*;
  static void count(const IcpConfig& config, Rung rung) {
    if (config.degrade != nullptr) {
      (config.degrade->*rung).fetch_add(1, std::memory_order_relaxed);
    }
  }

  Hc4Contractor make() const {
    if (jit) return Hc4Contractor(jit);
    return tape ? Hc4Contractor(tape)
                : Hc4Contractor(*pool, *conjunction, Hc4Mode::kTree);
  }
};

/// A frontier box plus its node id in the split-tree recording (unused
/// when recording is off).
struct WorkItem {
  Box box;
  std::uint32_t node = 0;
};

/// Thread-safe split-tree recorder. Boxes carry their node ids; a split
/// turns the parent's leaf node into an internal node with two fresh
/// leaf children. Recording that would exceed the per-tree node cap is
/// abandoned (overflow) and the tree is not persisted.
///
/// Built for the parallel hot loop: ids come from one atomic counter
/// and nodes live in fixed-size blocks behind stable pointers, so the
/// common split takes no lock at all (the block-grow path locks once
/// per kBlockNodes splits). A parent entry is written only by the
/// worker that popped the parent's box, and the frontier's shard mutex
/// orders that write before any child box is popped elsewhere.
class TreeRecorder {
 public:
  explicit TreeRecorder(core::MemoryBudget* mem = nullptr) : mem_(mem) {
    // Root (id 0) starts as a leaf; no root block → no recording at all.
    if (!ensure_block(0)) overflow_.store(true, std::memory_order_release);
  }

  ~TreeRecorder() {
    if (mem_ != nullptr && charged_ > 0) mem_->release(charged_);
  }

  bool overflow() const { return overflow_.load(std::memory_order_acquire); }

  std::pair<std::uint32_t, std::uint32_t> record_split(std::uint32_t parent,
                                                       std::uint32_t dim,
                                                       double value) {
    constexpr auto kNone =
        std::pair<std::uint32_t, std::uint32_t>{UnsatTree::kNoNode,
                                                UnsatTree::kNoNode};
    if (parent == UnsatTree::kNoNode || overflow()) {
      overflow_.store(true, std::memory_order_release);
      return kNone;
    }
    const std::uint32_t left = next_.fetch_add(2, std::memory_order_relaxed);
    if (left + 1 >= UnsatTreeCache::kMaxNodes) {
      overflow_.store(true, std::memory_order_release);
      return kNone;
    }
    const std::uint32_t right = left + 1;
    // Ensure *both* children's blocks before the ids escape: a sibling
    // pair can straddle a block boundary, and another worker may write
    // node(left) (splitting that child) before this thread runs again.
    // A block the memory budget refuses abandons the recording (the
    // tree is simply not persisted) — recording is an optimization, so
    // quota pressure degrades it first.
    if (!ensure_block(left / kBlockNodes) ||
        !ensure_block(right / kBlockNodes)) {  // children default to leaves
      overflow_.store(true, std::memory_order_release);
      return kNone;
    }
    UnsatTree::Node& p = node(parent);
    p.dim = dim;
    p.value = value;
    p.left = left;
    p.right = right;
    return {left, right};
  }

  /// Snapshot of the recording (call only after the solve completed).
  std::vector<UnsatTree::Node> take_nodes() {
    const std::uint32_t n = std::min<std::uint32_t>(
        next_.load(std::memory_order_acquire),
        static_cast<std::uint32_t>(UnsatTreeCache::kMaxNodes));
    std::vector<UnsatTree::Node> out(n);
    for (std::uint32_t i = 0; i < n; ++i) out[i] = node(i);
    return out;
  }

 private:
  static constexpr std::size_t kBlockNodes = 4096;
  static constexpr std::size_t kNumBlocks =
      (UnsatTreeCache::kMaxNodes + kBlockNodes - 1) / kBlockNodes;

  UnsatTree::Node& node(std::uint32_t id) {
    return blocks_[id / kBlockNodes].load(std::memory_order_acquire)
        [id % kBlockNodes];
  }

  bool ensure_block(std::size_t j) {
    if (blocks_[j].load(std::memory_order_acquire) != nullptr) return true;
    std::lock_guard<std::mutex> lock(grow_m_);
    if (blocks_[j].load(std::memory_order_acquire) != nullptr) return true;
    constexpr std::size_t kBlockBytes = kBlockNodes * sizeof(UnsatTree::Node);
    if (mem_ != nullptr && !mem_->try_charge(kBlockBytes)) return false;
    charged_ += kBlockBytes;  // under grow_m_
    owned_.push_back(
        std::make_unique<UnsatTree::Node[]>(kBlockNodes));  // all leaves
    blocks_[j].store(owned_.back().get(), std::memory_order_release);
    return true;
  }

  std::atomic<std::uint32_t> next_{1};
  std::atomic<bool> overflow_{false};
  std::array<std::atomic<UnsatTree::Node*>, kNumBlocks> blocks_{};
  std::mutex grow_m_;
  std::vector<std::unique_ptr<UnsatTree::Node[]>> owned_;
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
      if (config.degrade != nullptr) {
        config.degrade->cache_cold.fetch_add(1, std::memory_order_relaxed);
      }
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

/// Settles a contracted, nonempty work item — report SAT / report δ-SAT /
/// split-and-record — leaving a split's children (left, right) in
/// \p children. Returns false when a (δ-)SAT was reported and the caller
/// must stop. A resumed search re-settles its suspended witness here.
bool settle_contracted(WorkItem& it, Hc4Contractor& hc4,
                       const IcpConfig& config, TreeRecorder* rec,
                       SharedOutcome& outcome,
                       parallel::CancellationToken& cancel, IcpStats& stats,
                       std::optional<std::pair<WorkItem, WorkItem>>& children) {
  children.reset();
  stats.max_depth_width = std::min(stats.max_depth_width, it.box.max_width());

  // True SAT: constraints certainly hold over the whole surviving box.
  if (hc4.certainly_satisfied(it.box)) {
    outcome.report_sat(SatResult::kSat, std::move(it.box), cancel);
    return false;
  }
  // δ-condition: box too small to split further.
  if (it.box.max_width() <= config.delta) {
    outcome.report_sat(SatResult::kDeltaSat, std::move(it.box), cancel);
    return false;
  }

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
  return true;
}

/// Contracts one popped work item, then prunes or settles it (above).
/// One shared body keeps the sequential and parallel frontiers
/// bit-identical per box.
bool settle_item(WorkItem& it, Hc4Contractor& hc4, const IcpConfig& config,
                 TreeRecorder* rec, SharedOutcome& outcome,
                 parallel::CancellationToken& cancel, IcpStats& stats,
                 std::optional<std::pair<WorkItem, WorkItem>>& children) {
  children.reset();
  const ContractResult contracted = hc4.contract_fixpoint(
      it.box, config.hc4_passes, config.hc4_improvement);
  if (contracted == ContractResult::kEmpty || it.box.is_empty()) {
    ++stats.boxes_pruned;
    return true;
  }
  return settle_contracted(it, hc4, config, rec, outcome, cancel, stats,
                           children);
}

/// The sequential frontier's LIFO stack (back = deepest). Every resident
/// box is charged to the job's memory budget — each WorkItem owns dims
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

/// One conjunction's sequential search: the stack, the statistics so far
/// and, after a (δ-)SAT stop, the reported box's split-tree node.
struct Dfs {
  DfsStack stack;
  IcpStats stats;
  std::uint32_t witness_node = 0;

  Dfs(core::MemoryBudget* mem, std::size_t dims, const IcpStats& prefix)
      : stack(mem, dims), stats(prefix) {}
};

/// A fresh search over \p seeds, starting from the statistics \p stats.
/// A refused memory charge for the seeds winds the query down before any
/// box is processed.
std::unique_ptr<Dfs> start_dfs(std::vector<WorkItem> seeds, const Box& box,
                               const IcpStats& stats, const IcpConfig& config,
                               SharedOutcome& outcome,
                               parallel::CancellationToken& cancel) {
  auto dfs = std::make_unique<Dfs>(config.mem_budget, box.size(), stats);
  if (!dfs->stack.push_seeds(std::move(seeds))) wind_down(outcome, cancel);
  return dfs;
}

/// Depth-first branch-and-prune over one conjunction, one box at a time
/// (see the exploration-order contract in icp_solver.h). With a fresh
/// budget/token this is exactly the sequential seed algorithm — same
/// exploration order, same witness, same statistics. Runs until the
/// stack empties (UNSAT) or a (δ-)SAT answer, a spent budget (a refused
/// memory charge included) or a cancellation stops it; a (δ-)SAT stop
/// leaves the unexplored rest on the stack. \p resumed_witness, when
/// set, is a suspended search's witness: contracted and counted at a
/// larger δ, it is settled again at this δ before the stack is resumed.
void solve_sequential(const ContractorSpec& spec, const IcpConfig& config,
                      TreeRecorder* rec, SharedBudget& budget,
                      SharedOutcome& outcome,
                      parallel::CancellationToken& cancel, Dfs& dfs,
                      WorkItem* resumed_witness = nullptr) {
  if (dfs.stack.empty() && resumed_witness == nullptr) return;
  Hc4Contractor hc4 = spec.make();
  std::optional<std::pair<WorkItem, WorkItem>> children;

  if (resumed_witness != nullptr) {
    if (!settle_contracted(*resumed_witness, hc4, config, rec, outcome,
                           cancel, dfs.stats, children)) {
      dfs.witness_node = resumed_witness->node;
      return;  // still δ-SAT at this δ
    }
    if (!dfs.stack.push_children(*children)) {
      wind_down(outcome, cancel);
      return;
    }
  }
  while (!dfs.stack.empty()) {
    if (cancel.cancelled()) return;
    WorkItem item = dfs.stack.pop();
    if (!budget.admit_box()) {
      wind_down(outcome, cancel);
      return;
    }
    ++dfs.stats.boxes_processed;
    if (!settle_item(item, hc4, config, rec, outcome, cancel, dfs.stats,
                     children)) {
      dfs.witness_node = item.node;
      return;  // (δ-)SAT reported
    }
    if (children && !dfs.stack.push_children(*children)) {
      wind_down(outcome, cancel);
      return;
    }
  }
}

/// Work-sharing frontier: one shard per worker. Owners push and pop at
/// the back of their shard (depth-first, cache-friendly); idle workers
/// steal from the front of a victim shard, which holds the shallowest
/// (largest) subproblems, so one steal transfers a big slice of the
/// search tree.
struct Frontier {
  struct alignas(64) Shard {
    std::mutex m;
    std::deque<WorkItem> stack;
  };
  std::vector<Shard> shards;
  /// Boxes pushed but not yet retired (pruned / leaf / reported). The
  /// frontier is exhausted — query UNSAT — when this reaches zero.
  std::atomic<std::int64_t> in_flight{0};

  explicit Frontier(std::size_t workers) : shards(workers) {}

  void push_local(std::size_t w, WorkItem item) {
    std::lock_guard<std::mutex> lock(shards[w].m);
    shards[w].stack.push_back(std::move(item));
  }

  /// Pushes a split's children under one lock, left then right, so the
  /// right child ends on top — the documented exploration order.
  void push_children(std::size_t w, std::pair<WorkItem, WorkItem>& children) {
    std::lock_guard<std::mutex> lock(shards[w].m);
    shards[w].stack.push_back(std::move(children.first));
    shards[w].stack.push_back(std::move(children.second));
  }

  /// Pops the deepest box of shard \p w into \p out, else steals the
  /// shallowest box of the first nonempty victim shard. False when every
  /// shard is empty.
  bool pop(std::size_t w, WorkItem& out) {
    {
      Shard& own = shards[w];
      std::lock_guard<std::mutex> lock(own.m);
      if (!own.stack.empty()) {
        out = std::move(own.stack.back());
        own.stack.pop_back();
        return true;
      }
    }
    for (std::size_t j = 1; j < shards.size(); ++j) {
      Shard& victim = shards[(w + j) % shards.size()];
      std::lock_guard<std::mutex> lock(victim.m);
      if (victim.stack.empty()) continue;
      out = std::move(victim.stack.front());
      victim.stack.pop_front();
      return true;
    }
    return false;
  }
};

/// Parallel branch-and-prune: the frontier is shared, every worker runs
/// its own HC4 contractor (contraction keeps mutable scratch), and the
/// first (δ-)SAT box cancels everyone.
void solve_parallel(const ContractorSpec& spec, std::vector<WorkItem> seeds,
                    std::size_t dims, const IcpConfig& config, int workers,
                    TreeRecorder* rec, double root_width,
                    SharedBudget& budget, SharedOutcome& outcome,
                    parallel::CancellationToken& cancel,
                    IcpStats& merged_stats) {
  Frontier frontier(static_cast<std::size_t>(workers));
  frontier.in_flight.store(static_cast<std::int64_t>(seeds.size()),
                           std::memory_order_relaxed);

  // Resource governor: every box resident in the shared frontier is
  // charged against the job budget (released on pop, re-charged when
  // children are pushed). A refused charge winds the query down like a
  // spent budget.
  core::MemoryBudget* const mem = config.mem_budget;
  const std::size_t box_bytes = dims * sizeof(Interval) + sizeof(WorkItem);
  if (mem != nullptr && !mem->try_charge(seeds.size() * box_bytes)) {
    outcome.exhausted.store(true, std::memory_order_release);
    return;
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    frontier.push_local(i % static_cast<std::size_t>(workers),
                        std::move(seeds[i]));
  }

  std::vector<IcpStats> worker_stats(static_cast<std::size_t>(workers));
  for (IcpStats& s : worker_stats) s.max_depth_width = root_width;

  pool_of(config).run_on_workers(
      static_cast<std::size_t>(workers), [&](std::size_t w) {
        try {
        Hc4Contractor hc4 = spec.make();
        IcpStats& stats = worker_stats[w];
        WorkItem item;
        std::optional<std::pair<WorkItem, WorkItem>> children;
        int idle_spins = 0;

        while (!cancel.cancelled()) {
          if (!frontier.pop(w, item)) {
            if (frontier.in_flight.load(std::memory_order_acquire) <= 0) {
              return;  // frontier drained: UNSAT
            }
            // Brief spin before yielding: boxes reappear quickly while
            // peers are mid-split.
            if (++idle_spins > 64) std::this_thread::yield();
            continue;
          }
          idle_spins = 0;
          if (mem != nullptr) mem->release(box_bytes);

          bool exhausted = !budget.admit_box();
          bool reported = false;
          children.reset();
          if (!exhausted) {
            ++stats.boxes_processed;
            reported = !settle_item(item, hc4, config, rec, outcome, cancel,
                                    stats, children);
          }

          if (children) {
            if (mem != nullptr && !mem->try_charge(2 * box_bytes)) {
              exhausted = true;
            } else {
              // Children replace their parent: publish the increment
              // before pushing so peers never observe a transient zero,
              // then retire the parent below.
              frontier.in_flight.fetch_add(2, std::memory_order_acq_rel);
              frontier.push_children(w, *children);
            }
          }
          frontier.in_flight.fetch_sub(1, std::memory_order_acq_rel);
          if (reported) return;
          if (exhausted) {
            wind_down(outcome, cancel);
            return;
          }
        }
        } catch (...) {
          // Job isolation: an exception on one worker (e.g. an injected
          // hc4_backward fault) must not strand its peers — they spin on
          // in_flight, which this worker's popped box keeps nonzero.
          // Cancel everyone, then let run_on_workers rethrow after all
          // strands retired.
          cancel.cancel();
          throw;
        }
      });

  if (mem != nullptr) {
    // Return whatever the wind-down left in the frontier (cancelled and
    // exhausted exits leave boxes resident).
    std::size_t remaining = 0;
    for (Frontier::Shard& shard : frontier.shards) {
      remaining += shard.stack.size();
    }
    mem->release(remaining * box_bytes);
  }

  for (const IcpStats& s : worker_stats) merge_stats(merged_stats, s);
}

/// Assembles the final verdict from the shared outcome flags.
IcpResult finalize(SharedOutcome& outcome, SharedBudget& budget,
                   IcpStats stats) {
  IcpResult result;
  result.stats = stats;
  std::lock_guard<std::mutex> lock(outcome.m);
  if (outcome.sat_found) {
    result.verdict = outcome.sat_verdict;
    result.witness = outcome.sat_witness;
  } else if (outcome.exhausted.load(std::memory_order_acquire)) {
    result.verdict = SatResult::kUnknown;
  } else {
    result.verdict = SatResult::kUnsat;
  }
  result.stats.solve_time_s = budget.elapsed_s();
  return result;
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
/// bit-identically: only on the sequential frontier, with no fault armed
/// (a skipped prefix would not advance the fault counters) and no
/// memory quota (a suspension's held charge could refuse a charge that a
/// fresh solve makes).
bool suspendable(const IcpConfig& config, int threads) {
  return threads <= 1 && !core::FaultRegistry::enabled() &&
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
  WorkItem witness;
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
  SharedBudget budget(config_);

  if (conjunction.empty()) {
    // Trivially satisfied everywhere (if the box is nonempty).
    IcpResult result;
    result.verdict = box.is_empty() ? SatResult::kUnsat : SatResult::kSat;
    if (!box.is_empty()) result.witness = box;
    result.stats.solve_time_s = budget.elapsed_s();
    return result;
  }

  SharedOutcome outcome;
  parallel::CancellationToken cancel;
  IcpStats stats;
  stats.max_depth_width = box.max_width();

  const ContractorSpec spec(*pool_, conjunction, config_);
  const int threads = parallel::resolve_thread_count(config_.threads);

  QueryContext ctx(*pool_, conjunction, box, config_);
  std::vector<WorkItem> seeds = ctx.start();
  if (ctx.warm_started()) ++stats.warm_starts;

  if (threads <= 1 || seeds.empty()) {
    const std::unique_ptr<Dfs> dfs =
        start_dfs(std::move(seeds), box, stats, config_, outcome, cancel);
    solve_sequential(spec, config_, ctx.recorder(), budget, outcome, cancel,
                     *dfs);
    stats = dfs->stats;
  } else {
    solve_parallel(spec, std::move(seeds), box.size(), config_, threads,
                   ctx.recorder(), box.max_width(), budget, outcome, cancel,
                   stats);
  }
  IcpResult result = finalize(outcome, budget, stats);
  ctx.publish(result.verdict);
  return result;
}

IcpResult IcpSolver::solve(const Dnf& dnf, const interval::Box& box,
                           std::shared_ptr<IcpSuspension> resume) const {
  // One budget for the whole DNF: a k-disjunct query previously received
  // k fresh budgets and could run k× over the configured limits.
  SharedBudget budget(config_);
  const std::size_t k = dnf.disjuncts.size();

  IcpResult aggregate;
  aggregate.verdict = SatResult::kUnsat;
  aggregate.stats.max_depth_width = box.max_width();

  std::vector<IcpResult> results(k);
  for (IcpResult& r : results) r.stats.max_depth_width = box.max_width();
  const int threads = parallel::resolve_thread_count(config_.threads);

  if (threads > 1 && k >= static_cast<std::size_t>(threads)) {
    // Concurrent disjunct dispatch (enough disjuncts to feed every
    // worker): each disjunct runs the sequential branch-and-prune on a
    // pool strand; the first SAT answer (or an exhausted budget)
    // cancels the rest. With fewer disjuncts than workers the sweep
    // below is used instead, parallelizing *within* each disjunct so no
    // worker idles.
    parallel::CancellationToken cancel;
    SharedOutcome dnf_outcome;  // only `exhausted` is shared DNF-wide
    std::vector<SharedOutcome> outcomes(k);
    std::atomic<std::size_t> next{0};
    const std::size_t strands =
        std::min<std::size_t>(k, static_cast<std::size_t>(threads));

    pool_of(config_).run_on_workers(strands, [&](std::size_t) {
      try {
      while (!cancel.cancelled()) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= k) return;
        IcpStats stats;
        stats.max_depth_width = box.max_width();
        if (box.is_empty()) {
          results[i].verdict = SatResult::kUnsat;
          continue;
        }
        std::optional<QueryContext> ctx;
        if (dnf.disjuncts[i].empty()) {
          outcomes[i].sat_found = true;
          outcomes[i].sat_verdict = SatResult::kSat;
          outcomes[i].sat_witness = box;
          cancel.cancel();
        } else {
          // Compile lazily on the claiming strand: a DNF whose first
          // disjunct SATs immediately cancels the rest before their
          // (O(nodes)) tape compilations ever run.
          const ContractorSpec spec(*pool_, dnf.disjuncts[i], config_);
          ctx.emplace(*pool_, dnf.disjuncts[i], box, config_);
          std::vector<WorkItem> seeds = ctx->start();
          if (ctx->warm_started()) ++stats.warm_starts;
          const std::unique_ptr<Dfs> dfs = start_dfs(
              std::move(seeds), box, stats, config_, outcomes[i], cancel);
          solve_sequential(spec, config_, ctx->recorder(), budget,
                           outcomes[i], cancel, *dfs);
          stats = dfs->stats;
          if (outcomes[i].exhausted.load(std::memory_order_acquire)) {
            dnf_outcome.exhausted.store(true, std::memory_order_release);
          }
        }
        results[i].stats = stats;
        {
          std::lock_guard<std::mutex> lock(outcomes[i].m);
          if (outcomes[i].sat_found) {
            results[i].verdict = outcomes[i].sat_verdict;
            results[i].witness = outcomes[i].sat_witness;
          } else if (cancel.cancelled()) {
            results[i].verdict = SatResult::kUnknown;
          } else {
            results[i].verdict = SatResult::kUnsat;
          }
        }
        if (ctx) ctx->publish(results[i].verdict);
      }
      } catch (...) {
        // Fail the whole DNF fast instead of letting sibling disjuncts
        // run to completion under a doomed query.
        cancel.cancel();
        throw;
      }
    });

    bool any_unknown =
        dnf_outcome.exhausted.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < k; ++i) {
      merge_stats(aggregate.stats, results[i].stats);
      if (results[i].is_sat() && aggregate.verdict != SatResult::kSat &&
          aggregate.verdict != SatResult::kDeltaSat) {
        aggregate.verdict = results[i].verdict;
        aggregate.witness = std::move(results[i].witness);
      } else if (results[i].verdict == SatResult::kUnknown &&
                 !results[i].is_sat()) {
        any_unknown = true;
      }
    }
    if (!aggregate.is_sat() && any_unknown) {
      aggregate.verdict = SatResult::kUnknown;
    }
    aggregate.stats.solve_time_s = budget.elapsed_s();
    return aggregate;
  }

  // Sequential disjunct sweep (seed semantics: first SAT short-circuits)
  // under the shared budget. On one thread a δ-SAT answer suspends its
  // disjunct's search, and `resume` continues one (see icp_solver.h).
  const bool suspend = suspendable(config_, threads);
  if (resume != nullptr &&
      !(suspend && resume->matches(*pool_, dnf, box, config_))) {
    resume.reset();
  }
  bool any_unknown = false;
  for (std::size_t d = 0; d < k; ++d) {
    const Conjunction& disjunct = dnf.disjuncts[d];
    SharedOutcome outcome;
    parallel::CancellationToken cancel;
    IcpStats stats;
    stats.max_depth_width = box.max_width();
    if (disjunct.empty()) {
      if (!box.is_empty()) {
        aggregate.verdict = SatResult::kSat;
        aggregate.witness = box;
        aggregate.stats.solve_time_s = budget.elapsed_s();
        return aggregate;
      }
      continue;
    }
    if (!box.is_empty()) {
      const ContractorSpec spec(*pool_, disjunct, config_);
      QueryContext ctx(*pool_, disjunct, box, config_);
      std::unique_ptr<Dfs> dfs;
      WorkItem* resumed_witness = nullptr;
      if (resume != nullptr && resume->disjunct == d &&
          resume->seed == ctx.seed() &&
          budget.claim(resume->dfs->stats.boxes_processed)) {
        // The fresh search would repeat the suspended prefix box for box
        // (one budget claim per processed box): continue it instead.
        ctx.adopt(std::move(resume->rec));
        dfs = std::move(resume->dfs);
        resumed_witness = &resume->witness;
      } else {
        std::vector<WorkItem> seeds = ctx.start();
        if (ctx.warm_started()) ++stats.warm_starts;
        if (threads > 1) {
          solve_parallel(spec, std::move(seeds), box.size(), config_,
                         threads, ctx.recorder(), box.max_width(), budget,
                         outcome, cancel, stats);
        } else {
          dfs = start_dfs(std::move(seeds), box, stats, config_, outcome,
                          cancel);
        }
      }
      if (dfs != nullptr) {
        solve_sequential(spec, config_, ctx.recorder(), budget, outcome,
                         cancel, *dfs, resumed_witness);
        stats = dfs->stats;
      }
      std::lock_guard<std::mutex> lock(outcome.m);
      const SatResult verdict =
          outcome.sat_found ? outcome.sat_verdict
          : outcome.exhausted.load(std::memory_order_acquire)
              ? SatResult::kUnknown
              : SatResult::kUnsat;
      ctx.publish(verdict);
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
        s->witness = {outcome.sat_witness, dfs->witness_node};
        s->dfs = std::move(dfs);
        s->resumes = resumed_witness != nullptr ? resume->resumes + 1 : 0;
        aggregate.suspension = std::move(s);
      }
    }
    merge_stats(aggregate.stats, stats);
    std::lock_guard<std::mutex> lock(outcome.m);
    if (outcome.sat_found) {
      aggregate.verdict = outcome.sat_verdict;
      aggregate.witness = std::move(outcome.sat_witness);
      aggregate.stats.solve_time_s = budget.elapsed_s();
      return aggregate;
    }
    if (outcome.exhausted.load(std::memory_order_acquire)) any_unknown = true;
  }
  if (any_unknown) aggregate.verdict = SatResult::kUnknown;
  aggregate.stats.solve_time_s = budget.elapsed_s();
  return aggregate;
}

}  // namespace bcert::smt
