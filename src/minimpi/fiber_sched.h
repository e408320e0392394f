// Cooperative rank scheduler: every rank runs as a stackful fiber of ONE OS
// thread, dispatched from a min-heap ready queue keyed by (virtual clock,
// rank).
//
// This is the SimGrid/SMPI execution model: instead of one OS thread per
// rank (which caps practical world size at a few hundred ranks on a small
// host -- kernel scheduling, cv ping-pong and per-thread stacks all scale
// with np), the whole world is a set of contexts of one process, switched
// cooperatively at the engine's blocking points. A single core drives
// np=1024-4096 worlds, and the switch order is a deterministic function of
// the virtual clocks, so reruns are bit-identical by construction.
//
// Context switch: on x86-64 a switch saves registers only, like SimGrid's
// "raw" contexts -- the callee-saved integer registers, MXCSR and the x87
// control word are pushed onto the running stack, the stack pointer is
// swapped, and the target's frame is popped. No syscall, no signal mask,
// no full FP-state image. Other targets use ucontext (swapcontext), which
// also saves the signal mask with an rt_sigprocmask syscall per switch.
//
// The scheduler knows nothing about MPI: the engine expresses every
// blocking point (inbox waits, timed receives, NIC-gate waits) through
// block()/block_until() and every wakeup (delivery, crash/revoke
// notification, gate hand-off, abort) through wake()/wake_all(). Because
// everything runs on one thread, a fiber that fails its wait predicate and
// then blocks cannot lose a wakeup -- nothing can deliver between the
// predicate check and the switch.
//
// Determinism: ready fibers are resumed in ascending (clock, rank) order,
// where `clock` is the fiber's virtual clock when it blocked (0 at start).
// A fiber runs without preemption until its next blocking point, exactly
// like a rank thread that never loses the (single) core.
//
// Deadlock: when no fiber is ready, none holds a wall-clock deadline and
// not every fiber is done, the simulated program can never make progress
// again. The engine's on_stall callback turns that into a structured
// deadlock report instantly -- no wall-clock watchdog delay.
//
// Sanitizers: switches carry the ASan fake-stack and TSan fiber
// annotations, so fiber-mode tests run under both sanitizer presets.
#pragma once

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

namespace mpim::mpi {

class FiberSched {
 public:
  /// `on_resume(rank)` runs on the scheduler thread immediately before each
  /// switch into `rank`'s fiber; the engine uses it to repoint the
  /// current-context pointer (the fiber-mode replacement for "one
  /// thread_local per rank thread").
  ///
  /// Takes the calling thread's spare stack slab (see the destructor) when
  /// it holds at least `nranks` stacks of this size: no mmap, no guard
  /// installs, and the stack pages earlier worlds touched are resident.
  /// Otherwise it unmaps the spare and maps a fresh slab.
  FiberSched(int nranks, std::size_t stack_bytes,
             std::function<void(int)> on_resume);
  /// Leaves the slab to the destroying thread as its spare, unless a
  /// run was abandoned mid-way (its stacks still hold frames). A thread
  /// keeps one spare, the larger by mapped bytes, and unmaps it when the
  /// thread exits.
  ~FiberSched();

  FiberSched(const FiberSched&) = delete;
  FiberSched& operator=(const FiberSched&) = delete;

  /// Runs `body(rank)` for every rank as a fiber and returns when all have
  /// finished. `body` must not throw (the engine's rank epilogue catches
  /// everything). `on_stall(reporter)` fires when no fiber can ever run
  /// again (the structural deadlock); after it returns, every blocked
  /// fiber is woken so it can observe the abort and unwind.
  void run(const std::function<void(int)>& body,
           const std::function<void(int)>& on_stall);

  // --- called from inside a running fiber --------------------------------

  /// Rank of the fiber currently executing (-1 on the scheduler itself).
  int current_rank() const { return running_; }

  /// Yields until wake(rank) / wake_all(). `clock_s` is the rank's virtual
  /// clock, the ready-queue key for the eventual wakeup.
  void block(double clock_s);

  /// Yields until woken or until the wall deadline passes, whichever comes
  /// first. The caller re-checks its predicate and its deadline either way.
  void block_until(double clock_s,
                   std::chrono::steady_clock::time_point deadline);

  // --- called from fibers (the scheduler is single-threaded) -------------

  /// Makes a blocked or timed fiber ready; no-op for ready/running/done
  /// fibers (the running fiber re-checks its predicate before blocking, so
  /// dropping the wake is correct, not racy).
  void wake(int rank);

  /// Promotes every blocked and timed fiber (crash/revoke/abort broadcast).
  void wake_all();

 private:
  enum class St : std::uint8_t { ready, running, blocked, timed, done };

#if defined(__x86_64__)
  /// Stack pointer of a suspended context; its switch frame sits there.
  using Context = void*;
#else
  using Context = ucontext_t;
#endif

  struct Fiber {
    Context ctx{};
    char* stack_lo = nullptr;    ///< usable stack bottom (above the guard)
    std::size_t stack_bytes = 0;
    St st = St::ready;
    double key = 0.0;  ///< virtual clock when the fiber last blocked
    std::chrono::steady_clock::time_point deadline{};
    std::uint64_t gen = 0;  ///< bumped per timed block; invalidates stale
                            ///< timed-queue entries
    void* fake_stack = nullptr;  ///< ASan fake-stack save slot
    void* tsan_fiber = nullptr;
  };

  /// Points `f.ctx` at the start of fiber_main() on `f`'s empty stack.
  void make_context(Fiber& f);
  /// Saves the running context into `from` and resumes `to`.
  static void swap_context(Context& from, Context& to);
  void fiber_main();
  void switch_into(int rank);
  void switch_to_main(bool dying);
  void make_ready(Fiber& f, int rank);
  /// Moves every timed fiber whose deadline has passed to the ready queue.
  void promote_expired(std::chrono::steady_clock::time_point now);
  /// Earliest live deadline among timed fibers (timed_count_ > 0 required).
  std::chrono::steady_clock::time_point earliest_deadline();
  int first_blocked() const;

  int n_ = 0;
  std::size_t stack_bytes_ = 0;
  /// One anonymous mapping holds every fiber's [guard page | stack] pair.
  /// Guards are installed with MADV_GUARD_INSTALL where the kernel has it
  /// (6.13+), which faults on access WITHOUT splitting the VMA -- the whole
  /// slab stays one mapping, so world size is not capped by
  /// vm.max_map_count (per-fiber PROT_NONE guards cost 2 VMAs each, which
  /// alone exhausts the default 65530 budget short of np=32768). Older
  /// kernels fall back to mprotect(PROT_NONE) guards transparently.
  /// The slab outlives this scheduler as its thread's spare, so it may hold
  /// more stacks than n_: fiber r always runs on the r-th stack, and
  /// slab_bytes_ is the whole mapping.
  char* slab_base_ = nullptr;
  std::size_t slab_bytes_ = 0;
  std::function<void(int)> on_resume_;
  std::function<void(int)> body_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  Context main_ctx_{};
  void* main_fake_stack_ = nullptr;
  const void* main_stack_lo_ = nullptr;
  std::size_t main_stack_bytes_ = 0;
  void* main_tsan_fiber_ = nullptr;
  int running_ = -1;
  /// Fibers of the current run that finished; n_ outside a run, so
  /// done_ < n_ at destruction means a run was abandoned.
  int done_ = 0;
  /// Min-heap of (virtual clock at block, rank); the dispatch order.
  using ReadyEntry = std::pair<double, int>;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                      std::greater<ReadyEntry>>
      ready_;
  /// Lazy min-heap of (deadline, rank, gen); stale entries (gen mismatch or
  /// fiber no longer timed) are skipped on pop.
  struct TimedEntry {
    std::chrono::steady_clock::time_point deadline;
    int rank;
    std::uint64_t gen;
    bool operator>(const TimedEntry& o) const {
      return deadline > o.deadline;
    }
  };
  std::priority_queue<TimedEntry, std::vector<TimedEntry>,
                      std::greater<TimedEntry>>
      timed_;
  int timed_count_ = 0;
};

}  // namespace mpim::mpi
