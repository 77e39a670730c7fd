// Parallel depth-first reachability: work-stealing DFS and a seeded
// portfolio race.
//
// Work-stealing mode (`opts.threads > 1`, depth-first order): each
// worker owns a stack of *unclaimed* frames (a frame = one generated
// successor plus the expanded node it came from). A frame is
// goal-tested and claimed in the passed store only when a worker pops
// or steals it — exactly when sequential dfsCore takes a successor off
// its frame — so an undisturbed worker explores in exactly the
// sequential depth-first order. Only a frame whose claim succeeds
// becomes a node, is expanded, and has its successors (ordered, and
// shuffled once per expansion with the worker's seeded generator, as in
// dfsCore) pushed as new frames. The owner pushes and pops at the top;
// an idle worker steals the *oldest* frame from the bottom of a
// victim's stack — the frame closest to the root, i.e. the largest
// unexplored subtree, the classic work-first stealing policy.
// Deduplication goes through the same ShardedPassedStore as parallel
// BFS, so zone-inclusion subsumption is unchanged. Nodes are
// arena-allocated per worker and carry parent pointers; publication is
// ordered by the stack mutexes, so a thief always observes fully
// constructed ancestors and trace reconstruction is race-free. A node
// is reference-counted by its frames and live children and hands its
// zone back once its subtree is done, as sequential DFS drops a popped
// frame, so memory follows the open search paths.
//
// Portfolio mode (`opts.portfolio`): workers run *independent*
// sequential DFS searches — worker 0 with the configured order and
// seed, workers 1.. with kRandomDfs and seeds seed+1, seed+2, ... —
// and race. The first worker with a conclusive verdict (a witness that
// passes the trace validator, or an exhausted state space) wins and
// cancels the rest through a shared flag polled in the DFS loop.
//
// Both modes guarantee *verdict equivalence* with sequential DFS —
// same reachable/exhausted answer — but not trace determinism: which
// witness is found depends on scheduling. Every positive verdict is
// concretized and validated before being returned (see DESIGN.md
// "Parallel depth-first search" for the equivalence argument).
#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <deque>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "dbm/pool.hpp"
#include "engine/interner.hpp"
#include "engine/passed_store.hpp"
#include "engine/reachability.hpp"
#include "engine/trace.hpp"

namespace engine {

namespace {

using Clock = std::chrono::steady_clock;

/// One claimed, expanded state: interned discrete id plus zone (the
/// discrete vectors live once in the run's StateInterner). Immutable,
/// but for `refs` and the final zone release, once its successors are
/// published to a worker stack; parent pointers stay valid for the
/// whole search because the per-worker arenas only grow, and the ids
/// they carry are resolvable by any thread because nodes cross threads
/// only through the stack mutexes.
struct DfsNode {
  uint32_t did;
  dbm::Dbm zone;
  Transition via;
  DfsNode* parent;  ///< nullptr for the initial state
  uint32_t depth;   ///< trace depth (initial state = 1)
  /// Unclaimed frames and live children that point here. The last one
  /// to let go hands the zone back to the pool: the node's subtree is
  /// done, as when sequential DFS pops a frame, so the zones held stay
  /// proportional to the open search paths rather than to every state
  /// explored. Every ancestor of a frame or live node keeps its zone,
  /// which is all a witness trace reads.
  std::atomic<uint32_t> refs{0};
};

/// A generated successor not yet goal-tested or claimed, with the node
/// it was generated from.
struct PendingFrame {
  Successor succ;
  DfsNode* parent;  ///< holds one of the parent's refs
};

/// Bytes a pending frame holds, charged like dfsCore's frameBytes
/// charges the successors a sequential frame still holds.
size_t frameBytes(const Successor& s) {
  return s.state.memoryBytes() + sizeof(PendingFrame);
}

/// A worker's stack of unclaimed frames. The owner pushes/pops at the
/// back; thieves take from the front (the oldest frame). One mutex per
/// worker keeps the stealing protocol trivially correct — the lock is
/// uncontended unless someone is actually stealing, and expansion cost
/// (successor DBM operations) dwarfs it.
struct alignas(64) WorkerStack {
  std::mutex m;
  std::deque<PendingFrame> pending;
};

struct WorkerLocal {
  std::deque<DfsNode> arena;  ///< stable addresses; owns this worker's nodes
  std::mt19937_64 rng;        ///< seeded seed + tid; worker 0 = dfsCore's
  size_t explored = 0;
  size_t generated = 0;
  size_t steals = 0;
  size_t peakDepth = 0;
};

SymbolicTrace traceFromChain(const StateInterner& interner,
                             const DfsNode* leaf) {
  std::vector<TraceStep> rev;
  for (const DfsNode* n = leaf; n != nullptr; n = n->parent) {
    rev.push_back(
        TraceStep{n->via, SymbolicState{interner.get(n->did), n->zone}});
  }
  std::reverse(rev.begin(), rev.end());
  SymbolicTrace t;
  t.steps = std::move(rev);
  return t;
}

}  // namespace

Result Reachability::runParallelDfs(const Goal& goal) {
  const size_t nThreads = std::max<size_t>(2, opts_.threads);
  Result res;
  res.stats.perThreadExplored.assign(nThreads, 0);
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  StateInterner& interner = *interner_;
  ShardedPassedStore passed(opts_.shardBits, opts_, interner);
  std::optional<BitTable> bits;
  if (opts_.bitstateHashing) bits.emplace(opts_.hashBits);
  // testAndSet / testAndInsert both query and mark, atomically enough
  // that no state is expanded twice through the same store entry.
  // Returns the interned id of a freshly claimed state, kNoId when it
  // was already seen (bit-state mode interns explicitly — the bit table
  // holds no ids but the search nodes still need one).
  const auto claim = [&](const SymbolicState& s) -> uint32_t {
    if (bits) {
      return bits->testAndSet(s) ? StateInterner::kNoId
                                 : interner.intern(s.d);
    }
    return passed.testAndInsert(s);
  };

  std::vector<WorkerStack> stacks(nThreads);
  std::vector<WorkerLocal> locals(nThreads);
  for (size_t tid = 0; tid < nThreads; ++tid) {
    locals[tid].rng.seed(opts_.seed + tid);
  }

  // Frames pushed or being processed; 0 = search exhausted.
  std::atomic<size_t> pendingCount{0};
  std::atomic<size_t> exploredTotal{0};
  // Bytes of the nodes (arena slots and unreleased zones) plus the
  // unclaimed frames on the stacks. Popping a frame or releasing a node
  // gives bytes back, so the high-water mark of the total (search +
  // interner + store) is kept separately.
  std::atomic<size_t> searchBytes{0};
  std::atomic<size_t> peakBytes{0};
  std::atomic<uint8_t> abort{static_cast<uint8_t>(Cutoff::kNone)};
  const auto raiseCutoff = [&](Cutoff c) {
    uint8_t expect = static_cast<uint8_t>(Cutoff::kNone);
    abort.compare_exchange_strong(expect, static_cast<uint8_t>(c),
                                  std::memory_order_relaxed);
  };
  const auto chargeBytes = [&](size_t delta) {
    const size_t total =
        searchBytes.fetch_add(delta, std::memory_order_relaxed) + delta +
        interner.bytes() + (bits ? bits->bytes() : passed.approxBytes());
    size_t peak = peakBytes.load(std::memory_order_relaxed);
    while (total > peak &&
           !peakBytes.compare_exchange_weak(peak, total,
                                            std::memory_order_relaxed)) {
    }
    if (opts_.maxMemoryBytes != 0 && total > opts_.maxMemoryBytes) {
      raiseCutoff(Cutoff::kMemory);
    }
  };

  // First goal hit wins; which one that is depends on scheduling
  // (verdict equivalence, not trace determinism).
  std::mutex goalMutex;
  std::atomic<bool> goalFound{false};
  SymbolicTrace goalTrace;
  const auto reportGoal = [&](DfsNode* parent, Successor* last) {
    std::lock_guard<std::mutex> lk(goalMutex);
    if (goalFound.load(std::memory_order_relaxed)) return;
    if (last != nullptr) {
      DfsNode leaf{interner.intern(last->state.d), std::move(last->state.zone),
                   std::move(last->via), parent,
                   parent == nullptr ? 1 : parent->depth + 1};
      goalTrace = traceFromChain(interner, &leaf);
    } else {
      goalTrace = traceFromChain(interner, parent);
    }
    goalFound.store(true, std::memory_order_release);
  };

  const auto stopping = [&] {
    return goalFound.load(std::memory_order_relaxed) ||
           abort.load(std::memory_order_relaxed) !=
               static_cast<uint8_t>(Cutoff::kNone);
  };

  const auto finish = [&](Cutoff c, bool exhausted) {
    res.stats.cutoff = c;
    res.exhausted = exhausted && c == Cutoff::kNone && !bits;
    res.stats.seconds = elapsed();
    res.stats.statesStored = bits ? 0 : passed.states();
    res.stats.lockContention = passed.lockContention();
    res.stats.storeLookups = passed.lookups();
    res.stats.storeProbeSteps = passed.probeSteps();
    res.stats.zonesMerged = passed.merges();
    res.stats.storeBytes = passed.bytes();
    res.stats.bytesStored = searchBytes.load(std::memory_order_relaxed) +
                            interner.bytes() +
                            (bits ? bits->bytes() : passed.bytes());
    res.stats.peakBytes = std::max(peakBytes.load(std::memory_order_relaxed),
                                   res.stats.bytesStored);
    for (size_t tid = 0; tid < nThreads; ++tid) {
      const WorkerLocal& l = locals[tid];
      res.stats.perThreadExplored[tid] = l.explored;
      res.stats.statesExplored += l.explored;
      res.stats.statesGenerated += l.generated;
      res.stats.frameSteals += l.steals;
      res.stats.peakStackDepth = std::max(res.stats.peakStackDepth,
                                          l.peakDepth);
    }
    return res;
  };

  // Drop one reference to `node`, releasing every ancestor whose last
  // reference that was.
  const auto release = [&](DfsNode* node) {
    while (node != nullptr &&
           node->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      searchBytes.fetch_sub(node->zone.memoryBytes(),
                            std::memory_order_relaxed);
      dbm::ZonePool::recycle(std::move(node->zone));
      node = node->parent;
    }
  };

  // Expand a freshly claimed node of worker `tid`: the deadlock goal
  // test, then its successors in dfsCore's order, pushed in reverse so
  // the first one in search order is on top of the stack.
  const auto expand = [&](size_t tid, DfsNode* node) {
    WorkerLocal& local = locals[tid];
    ++local.explored;
    local.peakDepth = std::max<size_t>(local.peakDepth, node->depth);
    const size_t total =
        exploredTotal.fetch_add(1, std::memory_order_relaxed) + 1;
    if (opts_.maxStates != 0 && total > opts_.maxStates) {
      raiseCutoff(Cutoff::kStates);
    }
    if (opts_.maxSeconds > 0.0 && (local.explored & 15) == 0 &&
        elapsed() > opts_.maxSeconds) {
      raiseCutoff(Cutoff::kTime);
    }

    const DiscreteState& nodeD = interner.get(node->did);
    std::vector<Successor> succs = gen_.successors(nodeD, node->zone);
    if (goal.deadlock && succs.empty() &&
        goal.matches(sys_, nodeD, node->zone)) {
      reportGoal(node, nullptr);
    }
    if (opts_.order == SearchOrder::kRandomDfs) {
      std::shuffle(succs.begin(), succs.end(), local.rng);
    } else if (opts_.dfsReverse) {
      std::reverse(succs.begin(), succs.end());
    }

    size_t bytes = node->zone.memoryBytes() + sizeof(DfsNode);
    for (const Successor& s : succs) bytes += frameBytes(s);
    chargeBytes(bytes);
    // One reference per frame plus this expansion's own, dropped below
    // once the frames are out.
    node->refs.store(static_cast<uint32_t>(succs.size()) + 1,
                     std::memory_order_relaxed);
    if (!succs.empty()) {
      pendingCount.fetch_add(succs.size(), std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(stacks[tid].m);
      for (size_t k = succs.size(); k-- > 0;) {
        stacks[tid].pending.push_back(PendingFrame{std::move(succs[k]), node});
      }
    }
    release(node);
  };

  SymbolicState init = gen_.initial();
  if (init.zone.isEmpty()) {
    // A lifted initial state (System::setClockInit) violated an
    // invariant: nothing is reachable.
    return finish(Cutoff::kNone, true);
  }
  if (!goal.deadlock && goal.matches(sys_, init)) {
    locals[0].arena.emplace_back(interner.intern(init.d),
                                 std::move(init.zone), Transition{}, nullptr,
                                 1u);
    res.reachable = true;
    res.trace = traceFromChain(interner, &locals[0].arena.back());
    return finish(Cutoff::kNone, false);
  }
  const uint32_t initId = claim(init);
  assert(initId != StateInterner::kNoId);
  locals[0].arena.emplace_back(initId, std::move(init.zone), Transition{},
                               nullptr, 1u);
  // Worker 0 expands the initial state before any worker starts, as
  // dfsCore does before its loop; thread creation publishes the result.
  expand(0, &locals[0].arena.back());

  const auto work = [&](size_t tid) {
    WorkerLocal& local = locals[tid];
    size_t victim = (tid + 1) % nThreads;

    const auto popOwn = [&]() -> std::optional<PendingFrame> {
      std::lock_guard<std::mutex> lk(stacks[tid].m);
      if (stacks[tid].pending.empty()) return std::nullopt;
      PendingFrame f = std::move(stacks[tid].pending.back());
      stacks[tid].pending.pop_back();
      return f;
    };
    // Steal the oldest pending frame of the next victim that has one.
    const auto steal = [&]() -> std::optional<PendingFrame> {
      for (size_t k = 0; k < nThreads - 1; ++k) {
        WorkerStack& vs = stacks[victim];
        victim = (victim + 1) % nThreads;
        if (victim == tid) victim = (victim + 1) % nThreads;
        std::lock_guard<std::mutex> lk(vs.m);
        if (vs.pending.empty()) continue;
        PendingFrame f = std::move(vs.pending.front());
        vs.pending.pop_front();
        ++local.steals;
        return f;
      }
      return std::nullopt;
    };

    while (!stopping()) {
      std::optional<PendingFrame> f = popOwn();
      if (!f) f = steal();
      if (!f) {
        if (pendingCount.load(std::memory_order_acquire) == 0) return;
        std::this_thread::yield();
        continue;
      }

      // The successor leaves its parent's frame here, as in dfsCore:
      // goal test first, then the claim.
      searchBytes.fetch_sub(frameBytes(f->succ), std::memory_order_relaxed);
      ++local.generated;
      SymbolicState& s = f->succ.state;
      if (!goal.deadlock && goal.matches(sys_, s)) {
        reportGoal(f->parent, &f->succ);
        release(f->parent);
      } else if (const uint32_t id = claim(s); id == StateInterner::kNoId) {
        dbm::ZonePool::recycle(std::move(s.zone));
        release(f->parent);
      } else {
        // The new node inherits the frame's reference on its parent.
        local.arena.emplace_back(id, std::move(s.zone), std::move(f->succ.via),
                                 f->parent, f->parent->depth + 1);
        expand(tid, &local.arena.back());
      }
      // Publish this frame's completion only after its children are
      // visible: a worker observing pendingCount == 0 must be able to
      // conclude the whole search space is drained.
      pendingCount.fetch_sub(1, std::memory_order_release);
    }
  };

  {
    std::vector<std::thread> pool;
    pool.reserve(nThreads - 1);
    for (size_t tid = 1; tid < nThreads; ++tid) pool.emplace_back(work, tid);
    work(0);
    for (std::thread& t : pool) t.join();
  }

  if (goalFound.load(std::memory_order_acquire)) {
    res.reachable = true;
    res.trace = std::move(goalTrace);
    // The tentpole guarantee: a positive parallel verdict must survive
    // the independent trace validator before being reported.
    std::string err;
    const auto ct = concretize(sys_, res.trace, &err);
    const bool valid = ct.has_value() && validate(sys_, *ct, &err);
    assert(valid && "parallel DFS produced an invalid witness");
    if (!valid) {
      // Engine bug: refuse to report an unvalidated witness. Surface it
      // as a time-like abort rather than a (wrong) negative verdict.
      res.reachable = false;
      res.trace.steps.clear();
      return finish(Cutoff::kTime, false);
    }
    return finish(Cutoff::kNone, false);
  }
  const Cutoff aborted =
      static_cast<Cutoff>(abort.load(std::memory_order_relaxed));
  if (aborted != Cutoff::kNone) return finish(aborted, false);
  return finish(Cutoff::kNone, true);
}

Result Reachability::runPortfolioDfs(const Goal& goal) {
  const size_t nThreads = std::max<size_t>(2, opts_.threads);
  const Clock::time_point start = Clock::now();

  std::atomic<bool> cancel{false};
  std::atomic<int> winner{-1};
  std::vector<Result> results(nThreads);
  std::vector<uint8_t> conclusive(nThreads, 0);

  const auto work = [&](size_t tid) {
    Options o = opts_;
    o.threads = 1;
    o.portfolio = false;
    o.seed = opts_.seed + tid;
    // Worker 0 runs the configured search unchanged (the portfolio is
    // never worse than the sequential heuristic); the rest diversify
    // with the seeded random order.
    if (tid > 0) {
      o.order = SearchOrder::kRandomDfs;
      o.dfsReverse = false;
    }
    Result r = dfsCore(goal, o, &cancel);
    if (r.stats.cutoff == Cutoff::kNone && (r.reachable || r.exhausted)) {
      bool valid = true;
      if (r.reachable) {
        // Only a witness that survives concretization + validation may
        // win the race.
        std::string err;
        const auto ct = concretize(sys_, r.trace, &err);
        valid = ct.has_value() && validate(sys_, *ct, &err);
        assert(valid && "portfolio worker produced an invalid witness");
      }
      if (valid) {
        conclusive[tid] = 1;
        int expect = -1;
        if (winner.compare_exchange_strong(expect, static_cast<int>(tid))) {
          cancel.store(true, std::memory_order_relaxed);
        }
      }
    }
    results[tid] = std::move(r);
  };

  {
    std::vector<std::thread> pool;
    pool.reserve(nThreads - 1);
    for (size_t tid = 1; tid < nThreads; ++tid) pool.emplace_back(work, tid);
    work(0);
    for (std::thread& t : pool) t.join();
  }

  // The winner's verdict is the portfolio's verdict. With no winner
  // every worker was inconclusive (cut off, or a completed bit-state
  // search); report worker 0's outcome as representative.
  const int win = winner.load(std::memory_order_relaxed);
  Result res = std::move(results[static_cast<size_t>(win < 0 ? 0 : win)]);
  res.stats.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Aggregate the race statistics across workers.
  res.stats.perThreadExplored.assign(nThreads, 0);
  res.stats.statesExplored = 0;
  res.stats.statesGenerated = 0;
  res.stats.statesStored = 0;
  res.stats.bytesStored = 0;
  res.stats.peakBytes = 0;
  res.stats.peakStackDepth = 0;
  res.stats.storeLookups = 0;
  res.stats.storeProbeSteps = 0;
  res.stats.zonesMerged = 0;
  res.stats.storeBytes = 0;
  for (size_t tid = 0; tid < nThreads; ++tid) {
    const Stats& s = results[tid].stats;
    res.stats.perThreadExplored[tid] = s.statesExplored;
    res.stats.statesExplored += s.statesExplored;
    res.stats.statesGenerated += s.statesGenerated;
    res.stats.statesStored += s.statesStored;
    res.stats.bytesStored += s.bytesStored;
    res.stats.storeLookups += s.storeLookups;
    res.stats.storeProbeSteps += s.storeProbeSteps;
    res.stats.zonesMerged += s.zonesMerged;
    res.stats.storeBytes += s.storeBytes;
    // The workers run concurrently, so the portfolio's true high-water
    // mark is close to the sum of the per-worker peaks.
    res.stats.peakBytes += s.peakBytes;
    res.stats.peakStackDepth =
        std::max(res.stats.peakStackDepth, s.peakStackDepth);
    if (static_cast<int>(tid) != win &&
        (s.cutoff == Cutoff::kCancelled ||
         (conclusive[tid] != 0 && win >= 0))) {
      ++res.stats.cancelledWorkers;
    }
  }
  return res;
}

}  // namespace engine
