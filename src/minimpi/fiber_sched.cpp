#include "minimpi/fiber_sched.h"

#include <sys/mman.h>
#include <unistd.h>

#include <thread>

#include "support/error.h"

// Sanitizer fiber annotations: ASan needs to know about stack switches so
// its fake-stack bookkeeping follows the fibers; TSan models each fiber as
// its own logical thread so the single-OS-thread schedule stays race-free
// in its eyes.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MPIM_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define MPIM_FIBER_TSAN 1
#endif
#endif
#if !defined(MPIM_FIBER_ASAN) && defined(__SANITIZE_ADDRESS__)
#define MPIM_FIBER_ASAN 1
#endif
#if !defined(MPIM_FIBER_TSAN) && defined(__SANITIZE_THREAD__)
#define MPIM_FIBER_TSAN 1
#endif
#if defined(MPIM_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(MPIM_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

// Guard regions without VMA splits (Linux 6.13+). The value is ABI-stable;
// define it locally so pre-6.13 glibc headers still compile (the runtime
// madvise simply fails there and we fall back to mprotect guards).
#ifndef MADV_GUARD_INSTALL
#define MADV_GUARD_INSTALL 102
#endif

namespace mpim::mpi {

namespace {
std::size_t page_size() {
  static const std::size_t p =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return p;
}
}  // namespace

FiberSched::FiberSched(int nranks, std::size_t stack_bytes,
                       std::function<void(int)> on_resume)
    : n_(nranks), on_resume_(std::move(on_resume)) {
  check(nranks > 0, "fiber scheduler needs at least one rank");
  const std::size_t page = page_size();
  // Round the stack up to whole pages and keep a guard page at the low end
  // of every stack (stacks grow down): a rank that overruns its fiber
  // stack faults loudly instead of silently corrupting a neighbor. All
  // stacks live in ONE lazy anonymous mapping -- [guard|stack] x n -- so
  // the address space cost is virtual, not RSS, and (with madvise guards;
  // see slab_base_ in the header) the VMA cost is constant, not O(n).
  // MAP_NORESERVE keeps it lazy under the default heuristic overcommit,
  // which refuses any single mapping larger than RAM + swap (np=65536 x
  // 256 KiB is 16 GiB); pages still commit on first touch.
  stack_bytes_ = ((stack_bytes + page - 1) / page) * page;
  if (stack_bytes_ < 4 * page) stack_bytes_ = 4 * page;
  const std::size_t stride = stack_bytes_ + page;
  slab_bytes_ = stride * static_cast<std::size_t>(n_);
  void* base =
      ::mmap(nullptr, slab_bytes_, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK | MAP_NORESERVE, -1, 0);
  check(base != MAP_FAILED, "fiber stack slab mmap failed");
  slab_base_ = static_cast<char*>(base);

  // Probe MADV_GUARD_INSTALL once on the first guard page; on kernels
  // without it (< 6.13) every guard degrades to a PROT_NONE mapping split.
  bool madvise_guards =
      ::madvise(slab_base_, page, MADV_GUARD_INSTALL) == 0;

  fibers_.reserve(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r) {
    auto f = std::make_unique<Fiber>();
    char* guard = slab_base_ + stride * static_cast<std::size_t>(r);
    if (madvise_guards) {
      if (r > 0)  // page 0's guard was installed by the probe
        check(::madvise(guard, page, MADV_GUARD_INSTALL) == 0,
              "fiber guard madvise failed");
    } else {
      check(::mprotect(guard, page, PROT_NONE) == 0,
            "fiber guard mprotect failed");
    }
    f->stack_lo = guard + page;
    f->stack_bytes = stack_bytes_;
    fibers_.push_back(std::move(f));
  }
#if defined(MPIM_FIBER_TSAN)
  main_tsan_fiber_ = __tsan_get_current_fiber();
  for (auto& f : fibers_) f->tsan_fiber = __tsan_create_fiber(0);
#endif
}

FiberSched::~FiberSched() {
#if defined(MPIM_FIBER_TSAN)
  for (auto& f : fibers_)
    if (f->tsan_fiber != nullptr) __tsan_destroy_fiber(f->tsan_fiber);
#endif
  if (slab_base_ != nullptr) ::munmap(slab_base_, slab_bytes_);
}

void FiberSched::trampoline(unsigned int self_hi, unsigned int self_lo) {
  auto* self = reinterpret_cast<FiberSched*>(
      (static_cast<std::uintptr_t>(self_hi) << 32) |
      static_cast<std::uintptr_t>(self_lo));
  self->fiber_main();
}

void FiberSched::fiber_main() {
  // First entry into this fiber: complete the sanitizer switch the
  // scheduler started, learning the scheduler's own stack bounds for the
  // way back.
#if defined(MPIM_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, &main_stack_lo_,
                                  &main_stack_bytes_);
#endif
  const int rank = running_;
  body_(rank);
  Fiber& f = *fibers_[static_cast<std::size_t>(rank)];
  f.st = St::done;
  ++done_;
  switch_to_main(/*dying=*/true);
  check(false, "dead fiber resumed");  // unreachable
}

void FiberSched::switch_into(int rank) {
  Fiber& f = *fibers_[static_cast<std::size_t>(rank)];
  f.st = St::running;
  running_ = rank;
  if (on_resume_) on_resume_(rank);
#if defined(MPIM_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&main_fake_stack_, f.stack_lo,
                                 f.stack_bytes);
#endif
#if defined(MPIM_FIBER_TSAN)
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
  swapcontext(&main_uc_, &f.uc);
  // A fiber switched back (yield or death); we are the scheduler again.
#if defined(MPIM_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(main_fake_stack_, nullptr, nullptr);
#endif
  running_ = -1;
  if (on_resume_) on_resume_(-1);
}

void FiberSched::switch_to_main([[maybe_unused]] bool dying) {
  Fiber& f = *fibers_[static_cast<std::size_t>(running_)];
#if defined(MPIM_FIBER_ASAN)
  // A dying fiber's fake stack is released instead of saved.
  __sanitizer_start_switch_fiber(dying ? nullptr : &f.fake_stack,
                                 main_stack_lo_, main_stack_bytes_);
#endif
#if defined(MPIM_FIBER_TSAN)
  __tsan_switch_to_fiber(main_tsan_fiber_, 0);
#endif
  swapcontext(&f.uc, &main_uc_);
  // Resumed by the scheduler.
#if defined(MPIM_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(f.fake_stack, nullptr, nullptr);
#endif
}

void FiberSched::make_ready(Fiber& f, int rank) {
  if (f.st == St::timed) --timed_count_;
  f.st = St::ready;
  ready_.emplace(f.key, rank);
}

void FiberSched::wake(int rank) {
  Fiber& f = *fibers_[static_cast<std::size_t>(rank)];
  if (f.st == St::blocked || f.st == St::timed) make_ready(f, rank);
}

void FiberSched::wake_all() {
  for (int r = 0; r < n_; ++r) wake(r);
}

void FiberSched::block(double clock_s) {
  Fiber& f = *fibers_[static_cast<std::size_t>(running_)];
  f.st = St::blocked;
  f.key = clock_s;
  switch_to_main(/*dying=*/false);
}

void FiberSched::block_until(double clock_s,
                             std::chrono::steady_clock::time_point deadline) {
  Fiber& f = *fibers_[static_cast<std::size_t>(running_)];
  f.st = St::timed;
  f.key = clock_s;
  f.deadline = deadline;
  ++f.gen;
  ++timed_count_;
  timed_.push(TimedEntry{deadline, running_, f.gen});
  switch_to_main(/*dying=*/false);
}

void FiberSched::promote_expired(std::chrono::steady_clock::time_point now) {
  while (!timed_.empty()) {
    const TimedEntry& top = timed_.top();
    Fiber& f = *fibers_[static_cast<std::size_t>(top.rank)];
    const bool stale = f.st != St::timed || f.gen != top.gen;
    if (!stale && top.deadline > now) break;
    if (!stale) make_ready(f, top.rank);
    timed_.pop();
  }
}

std::chrono::steady_clock::time_point FiberSched::earliest_deadline() {
  while (!timed_.empty()) {
    const TimedEntry& top = timed_.top();
    const Fiber& f = *fibers_[static_cast<std::size_t>(top.rank)];
    if (f.st == St::timed && f.gen == top.gen) return top.deadline;
    timed_.pop();
  }
  check(false, "fiber scheduler lost a timed waiter");
  return {};
}

int FiberSched::first_blocked() const {
  for (int r = 0; r < n_; ++r)
    if (fibers_[static_cast<std::size_t>(r)]->st == St::blocked) return r;
  return 0;
}

void FiberSched::run(const std::function<void(int)>& body,
                     const std::function<void(int)>& on_stall) {
  body_ = body;
  done_ = 0;
  const auto self_bits = reinterpret_cast<std::uintptr_t>(this);
  const auto self_hi = static_cast<unsigned int>(self_bits >> 32);
  const auto self_lo = static_cast<unsigned int>(self_bits & 0xffffffffu);
  for (int r = 0; r < n_; ++r) {
    Fiber& f = *fibers_[static_cast<std::size_t>(r)];
    check(getcontext(&f.uc) == 0, "getcontext failed");
    f.uc.uc_stack.ss_sp = f.stack_lo;
    f.uc.uc_stack.ss_size = f.stack_bytes;
    f.uc.uc_link = nullptr;  // fibers exit through switch_to_main, never fall off
    makecontext(&f.uc, reinterpret_cast<void (*)()>(&FiberSched::trampoline),
                2, self_hi, self_lo);
    f.st = St::ready;
    f.key = 0.0;
    ready_.emplace(0.0, r);
  }

  while (done_ < n_) {
    if (timed_count_ > 0)
      promote_expired(std::chrono::steady_clock::now());
    if (ready_.empty()) {
      if (timed_count_ > 0) {
        // Only wall time can unblock anyone: sleep to the earliest timed
        // deadline (a fiber's bounded receive), then hand it the core.
        std::this_thread::sleep_until(earliest_deadline());
        promote_expired(std::chrono::steady_clock::now());
        continue;
      }
      // No fiber is ready, none is waiting on wall time, and not all are
      // done: the simulated program is deadlocked (or the run is being
      // torn down). The engine records the failure, then every blocked
      // fiber is woken to observe it and unwind.
      on_stall(first_blocked());
      wake_all();
      check(!ready_.empty(), "fiber scheduler stalled with no blocked fibers");
      continue;
    }
    const int rank = ready_.top().second;
    ready_.pop();
    if (fibers_[static_cast<std::size_t>(rank)]->st != St::ready)
      continue;  // defensive: duplicate/stale entry
    switch_into(rank);
  }
}

}  // namespace mpim::mpi
