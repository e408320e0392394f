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
#include <sanitizer/asan_interface.h>
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

#if defined(__x86_64__)
// Register-only context switch (System V x86-64). mpim_fiber_swap(save,
// load) pushes the callee-saved registers, then MXCSR and the x87 control
// word -- the rest of the FP environment is caller-saved or status, so it
// needs no copy -- stores rsp into *save, loads rsp from `load` and pops
// the same frame from there. Saving the FP control words keeps a fiber's
// rounding mode its own. Frame at the saved sp, low to high: x87 control
// word, MXCSR (8 bytes each), r15, r14, r13, r12, rbx, rbp, return address.
//
// mpim_fiber_start is the return address of a fiber's first frame (built
// by make_context): it is entered with rsp at the 16-byte-aligned stack
// top and calls r13(r12), i.e. entry(self). That call never returns.
__asm__(R"(
  .pushsection .text
  .p2align 4
  .globl mpim_fiber_swap
  .hidden mpim_fiber_swap
  .type mpim_fiber_swap, @function
mpim_fiber_swap:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size mpim_fiber_swap, .-mpim_fiber_swap

  .p2align 4
  .globl mpim_fiber_start
  .hidden mpim_fiber_start
  .type mpim_fiber_start, @function
mpim_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size mpim_fiber_start, .-mpim_fiber_start
  .popsection
)");

extern "C" void mpim_fiber_swap(void** save_sp, void* load_sp) noexcept;
extern "C" void mpim_fiber_start() noexcept;
#endif

namespace mpim::mpi {

namespace {
std::size_t page_size() {
  static const std::size_t p =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return p;
}

/// A stack slab, guards installed: [guard|stack] pairs of `stack_bytes`
/// stacks filling `bytes`.
struct Slab {
  char* base = nullptr;
  std::size_t bytes = 0;
  std::size_t stack_bytes = 0;

  void unmap() {
    if (base != nullptr) ::munmap(base, bytes);
    *this = Slab{};
  }
};

/// The slab the last FiberSched destroyed on this thread left behind, for
/// the next one to run on; unmapped when the thread exits.
struct SpareSlab {
  Slab slab;
  ~SpareSlab() { slab.unmap(); }
};
thread_local SpareSlab t_spare;
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
  const std::size_t need = stride * static_cast<std::size_t>(n_);
  Slab& spare = t_spare.slab;
  if (spare.stack_bytes == stack_bytes_ && spare.bytes >= need) {
    // The thread's spare slab has room: its guards are in place and the
    // stack pages earlier worlds touched are still resident.
    slab_base_ = spare.base;
    slab_bytes_ = spare.bytes;
    spare = Slab{};
  } else {
    spare.unmap();
    slab_bytes_ = need;
    void* base =
        ::mmap(nullptr, slab_bytes_, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK | MAP_NORESERVE, -1, 0);
    check(base != MAP_FAILED, "fiber stack slab mmap failed");
    slab_base_ = static_cast<char*>(base);

    // Probe MADV_GUARD_INSTALL once on the first guard page; on kernels
    // without it (< 6.13) every guard degrades to a PROT_NONE mapping
    // split.
    const bool madvise_guards =
        ::madvise(slab_base_, page, MADV_GUARD_INSTALL) == 0;
    for (int r = 0; r < n_; ++r) {
      char* guard = slab_base_ + stride * static_cast<std::size_t>(r);
      if (madvise_guards) {
        if (r > 0)  // page 0's guard was installed by the probe
          check(::madvise(guard, page, MADV_GUARD_INSTALL) == 0,
                "fiber guard madvise failed");
      } else {
        check(::mprotect(guard, page, PROT_NONE) == 0,
              "fiber guard mprotect failed");
      }
    }
  }

  fibers_.reserve(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r) {
    auto f = std::make_unique<Fiber>();
    f->stack_lo = slab_base_ + stride * static_cast<std::size_t>(r) + page;
    f->stack_bytes = stack_bytes_;
    fibers_.push_back(std::move(f));
  }
  done_ = n_;
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
  // The thread keeps one spare, the larger of the two. A run abandoned by
  // an exception leaves frames on its stacks (under ASan, poisoned
  // redzones too), so its slab is not handed on.
  Slab mine{slab_base_, slab_bytes_, stack_bytes_};
  Slab& spare = t_spare.slab;
  if (done_ == n_ && mine.bytes > spare.bytes) std::swap(spare, mine);
  mine.unmap();
}

#if defined(__x86_64__)
void FiberSched::make_context(Fiber& f) {
  // The frame mpim_fiber_swap would have pushed, so the first switch into
  // `f` pops it like any other: the scheduler thread's FP control words,
  // r13 = entry and r12 = this for mpim_fiber_start, rbp = 0 to end
  // frame-pointer walks, and mpim_fiber_start as the return address in the
  // top slot, which leaves rsp 16-byte aligned at the call.
  void (*entry)(FiberSched*) = [](FiberSched* self) { self->fiber_main(); };
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  __asm__ volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  auto* top = reinterpret_cast<std::uintptr_t*>(f.stack_lo + f.stack_bytes);
  std::uintptr_t* sp = top - 9;
  sp[0] = fcw;
  sp[1] = mxcsr;
  sp[2] = sp[3] = 0;  // r15, r14
  sp[4] = reinterpret_cast<std::uintptr_t>(entry);
  sp[5] = reinterpret_cast<std::uintptr_t>(this);
  sp[6] = sp[7] = 0;  // rbx, rbp
  sp[8] = reinterpret_cast<std::uintptr_t>(&mpim_fiber_start);
  f.ctx = sp;
}

void FiberSched::swap_context(Context& from, Context& to) {
  mpim_fiber_swap(&from, to);
}
#else
void FiberSched::make_context(Fiber& f) {
  check(getcontext(&f.ctx) == 0, "getcontext failed");
  f.ctx.uc_stack.ss_sp = f.stack_lo;
  f.ctx.uc_stack.ss_size = f.stack_bytes;
  f.ctx.uc_link = nullptr;  // fibers exit through switch_to_main, never fall off
  // makecontext passes int arguments only: split `this` into two halves.
  void (*entry)(unsigned, unsigned) = [](unsigned hi, unsigned lo) {
    reinterpret_cast<FiberSched*>((static_cast<std::uintptr_t>(hi) << 32) |
                                  static_cast<std::uintptr_t>(lo))
        ->fiber_main();
  };
  const auto self_bits = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&f.ctx, reinterpret_cast<void (*)()>(entry), 2,
              static_cast<unsigned>(self_bits >> 32),
              static_cast<unsigned>(self_bits & 0xffffffffu));
}

void FiberSched::swap_context(Context& from, Context& to) {
  swapcontext(&from, &to);
}
#endif

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
  swap_context(main_ctx_, f.ctx);
  // A fiber switched back (yield or death); we are the scheduler again.
#if defined(MPIM_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(main_fake_stack_, nullptr, nullptr);
#if defined(__x86_64__)
  // A dead fiber never returns from the frames between its saved sp and
  // its stack top, so their redzones stay poisoned, and a later mapping at
  // these addresses would inherit them. Clear just that span: unpoisoning
  // the whole stack writes shadow for the full reservation. (ucontext
  // needs none of this: ASan's swapcontext interceptor clears the target
  // stack on every switch.)
  if (f.st == St::done) {
    char* sp = static_cast<char*>(f.ctx);
    __asan_unpoison_memory_region(
        sp, static_cast<std::size_t>(f.stack_lo + f.stack_bytes - sp));
  }
#endif
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
  swap_context(f.ctx, main_ctx_);
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
  for (int r = 0; r < n_; ++r) {
    Fiber& f = *fibers_[static_cast<std::size_t>(r)];
    make_context(f);
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
