#include "support/sched.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "support/error.hpp"
#include "support/log.hpp"

// Fiber-switch annotations keep the sanitizers' shadow state consistent
// across stack switches; without them ASan misattributes frames and TSan
// reports phantom races between tasks that share a worker.
#if defined(__SANITIZE_ADDRESS__)
#define CLMPI_FIBER_ASAN 1
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#define CLMPI_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
#endif

extern "C" {
/// Pushes the callee-saved registers and the FP control state, stores the
/// stack pointer in *from and resumes the stack `to` (fiber_switch.S).
void clmpi_fiber_switch(void** from, void* to) noexcept;
/// A new fiber's first return target: passes the Fiber* from the first
/// frame to trampoline.
void clmpi_fiber_entry() noexcept;
}

namespace clmpi::sched {

namespace {

long env_long(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return 0;
  return std::strtol(env, nullptr, 10);
}

int default_workers() {
  const long n = env_long("CLMPI_FIBER_WORKERS");
  if (n > 0) return static_cast<int>(std::min<long>(n, 1024));
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

std::size_t default_stack_bytes() {
  const long kb = env_long("CLMPI_FIBER_STACK_KB");
  if (kb > 0) return static_cast<std::size_t>(kb) * 1024;
#ifdef CLMPI_SANITIZE_BUILD
  // Sanitizer instrumentation fattens frames (ASan redzones especially).
  return std::size_t{1} << 20;
#else
  return std::size_t{256} << 10;
#endif
}

/// Fiber visits (resumes and skips) per strand checkout. A count, never a
/// time slice: where a quantum ends must not depend on the host.
constexpr int kQuantum = 64;

/// The Itanium C++ ABI's per-thread exception state (__cxa_eh_globals:
/// caught-exception stack, uncaught count). Each fiber keeps its own across
/// suspends, so std::uncaught_exceptions() answers for the calling fiber and
/// one suspended mid-unwind leaves nothing behind on its worker.
/// Layout checked on x86-64 and AArch64 only (ARM EABI appends a field).
#if !(defined(__x86_64__) || defined(__aarch64__)) || defined(__ARM_EABI_UNWINDER__)
#error "per-fiber exception state: the __cxa_eh_globals layout is unchecked on this target"
#endif
struct EhState {
  void* caught;
  unsigned int uncaught;
};
/// The running worker's __cxa_eh_globals, looked up once per worker.
thread_local void* t_eh_globals = nullptr;

void swap_eh_state(EhState& saved) noexcept {
  EhState live;
  std::memcpy(&live, t_eh_globals, sizeof live);
  std::memcpy(t_eh_globals, &saved, sizeof live);
  saved = live;
}

struct Strand;

struct Fiber {
  void* sp{nullptr};           ///< saved stack pointer while not running
  void** ret_sp{nullptr};      ///< resuming worker's saved stack pointer, set per resume
  std::byte* stack{nullptr};   ///< lowest byte; the guard page lies below it
  std::function<void()> fn;
  bool finished{false};
  /// The parked sched::wait predicate and its evaluator; null while runnable.
  bool (*holds)(const void*) noexcept {nullptr};
  const void* pred{nullptr};
  ctx::ExecContext ctx;
  EhState eh{};
  Scheduler::Impl* owner{nullptr};
#ifdef CLMPI_FIBER_ASAN
  void* fake_stack{nullptr};
  const void* ret_stack_bottom{nullptr};
  std::size_t ret_stack_size{0};
#endif
#ifdef CLMPI_FIBER_TSAN
  void* tsan_fiber{nullptr};
  void* tsan_ret{nullptr};
#endif
};

/// One serial execution context: the fibers of one cluster run.
struct Strand {
  std::uint64_t tag{0};
  std::function<bool()> idle;
  // Touched only by the worker holding the strand while it is checked out,
  // under Scheduler::Impl::mutex otherwise.
  std::deque<Fiber*> ready;  ///< every unfinished fiber, parked ones included
  std::size_t fruitless{0};  ///< visits skipped since the last resume
  StrandStats stats;
  /// Ownership, in creation order (the deadlock verdict's order).
  std::vector<std::unique_ptr<Fiber>> fibers;
  /// Called by the worker that closes the strand, after the strand is gone.
  std::function<void(const StrandStats&)> on_close;
};

thread_local Fiber* t_current = nullptr;
/// The strand this worker holds (set for a whole quantum, idle task included),
/// and its tag (what current_strand() reports).
thread_local Strand* t_strand = nullptr;
thread_local std::uint64_t t_strand_tag = 0;
thread_local void* t_worker_sp = nullptr;
#ifdef CLMPI_FIBER_ASAN
thread_local void* t_worker_fake = nullptr;
#endif

}  // namespace

struct Scheduler::Impl {
  std::size_t page{0};
  std::size_t stack_size{0};  ///< page multiple, above one guard page

  /// Stacks of retired fibers, guard page included, reused LIFO: a stack is
  /// mapped only when every mapped one is in use, so the list never holds
  /// more than the pool's high-water mark of live fibers.
  std::mutex stacks_mutex;
  std::vector<std::byte*> free_stacks;

  std::mutex mutex;
  std::condition_variable work_cv;  ///< parked workers
  std::unordered_map<std::uint64_t, std::unique_ptr<Strand>> strands;
  std::deque<Strand*> rotation;  ///< runnable strands nobody holds
  int parked{0};
  bool stopping{false};
  std::vector<std::thread> workers;

  ~Impl();
  std::byte* take_stack();
  std::unique_ptr<Fiber> make_fiber(std::function<void()> fn, std::string label);
  void spawn_here(std::function<void()> fn, std::string label);
  bool run_quantum(Strand& s);  // true = closed
  void worker_loop(int index);
  void resume(Fiber* f);
  void retire(Strand& s, Fiber* f);
};

namespace {

[[noreturn]] void trampoline(Fiber* f) {
#ifdef CLMPI_FIBER_ASAN
  // First entry: complete the switch that brought us here and learn the
  // resuming worker's stack (where yields will return to).
  __sanitizer_finish_switch_fiber(nullptr, &f->ret_stack_bottom, &f->ret_stack_size);
#endif
  try {
    f->fn();
  } catch (...) {
    // Fiber bodies own their error handling (rank bodies report through the
    // cluster's first_error path, services poison their events/requests), so
    // an exception escaping to here is a bug, like one escaping a thread.
    CLMPI_WARN("unhandled exception escaped a scheduler fiber; terminating");
    std::terminate();
  }
  f->fn = nullptr;  // release captures before the stack goes away
  f->finished = true;
#ifdef CLMPI_FIBER_TSAN
  __tsan_switch_to_fiber(f->tsan_ret, 0);
#endif
#ifdef CLMPI_FIBER_ASAN
  // nullptr fake-stack save: this fiber never runs again.
  __sanitizer_start_switch_fiber(nullptr, f->ret_stack_bottom, f->ret_stack_size);
#endif
  clmpi_fiber_switch(&f->sp, *f->ret_sp);
  std::abort();  // unreachable: a finished fiber is never resumed
}

/// What clmpi_fiber_switch pops on a fiber's first resume, lowest address
/// first: zeroed callee-saved registers, the creating thread's FP control
/// state, and clmpi_fiber_entry as the return address.
#if defined(__x86_64__)
struct FirstFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t pad{0};
  void* r15_r13[3]{};
  Fiber* r12;                          ///< clmpi_fiber_entry's argument for trampoline
  void* rbx_rbp[2]{};
  void (*entry)() noexcept;            ///< the switch returns here,
  void (*trampoline)(Fiber*);          ///< the entry stub here,
  void* trampoline_ret{nullptr};       ///< and unwinds stop here
};
static_assert(sizeof(FirstFrame) == 80, "the switch's 56-byte frame and three return slots");
FirstFrame first_frame(Fiber* f) {
  FirstFrame frame{.mxcsr = __builtin_ia32_stmxcsr(), .x87_cw = 0, .r12 = f,
                   .entry = &clmpi_fiber_entry, .trampoline = &trampoline};
  asm volatile("fnstcw %0" : "=m"(frame.x87_cw));
  return frame;
}
#elif defined(__aarch64__)
struct FirstFrame {
  Fiber* x19;                          ///< clmpi_fiber_entry's argument for trampoline,
  void (*x20)(Fiber*);                 ///< which it branches to with a null lr
  void* x21_x29[9]{};                  ///< a null x29 ends frame-pointer walks
  void (*x30)() noexcept;              ///< the switch returns here
  double d8_d15[8]{};
  std::uint64_t fpcr;
  std::uint64_t pad{0};
};
static_assert(sizeof(FirstFrame) == 176, "the switch's 176-byte frame");
FirstFrame first_frame(Fiber* f) {
  FirstFrame frame{.x19 = f, .x20 = &trampoline, .x30 = &clmpi_fiber_entry, .fpcr = 0};
  asm volatile("mrs %0, fpcr" : "=r"(frame.fpcr));
  return frame;
}
#endif

}  // namespace

bool on_fiber() noexcept { return t_current != nullptr; }

std::uint64_t current_strand() noexcept { return t_strand_tag; }

namespace {

/// Suspend the running fiber `f`: switch back to the worker that resumed it.
void suspend(Fiber* f) {
#ifdef CLMPI_FIBER_TSAN
  __tsan_switch_to_fiber(f->tsan_ret, 0);
#endif
#ifdef CLMPI_FIBER_ASAN
  __sanitizer_start_switch_fiber(&f->fake_stack, f->ret_stack_bottom, f->ret_stack_size);
#endif
  clmpi_fiber_switch(&f->sp, *f->ret_sp);
  // Resumed — possibly on a different worker thread (strand migration).
#ifdef CLMPI_FIBER_ASAN
  __sanitizer_finish_switch_fiber(f->fake_stack, &f->ret_stack_bottom, &f->ret_stack_size);
#endif
}

/// A strand whose idle task resolved nothing can never move again, and none
/// of its waits may be failed: report every fiber and end the process.
[[noreturn]] void abort_deadlocked(const Strand& s) {
  std::cerr << "clmpi::sched: strand " << s.tag
            << " is deadlocked and none of its waits can be failed; aborting.\n";
  for (const auto& f : s.fibers) {
    std::cerr << "  fiber " << f->ctx.log_label << ": blocked at "
              << (f->ctx.blocked != nullptr ? f->ctx.blocked : "-") << "\n";
  }
  std::cerr.flush();
  std::abort();
}

}  // namespace

void park(bool (*holds)(const void*) noexcept, const void* pred, const char* site) {
  Fiber* f = t_current;
  if (f == nullptr) {
    throw PreconditionError(std::string("blocking wait at ") + site +
                            " off a scheduler strand: nothing else runs here to complete it");
  }
  f->holds = holds;
  f->pred = pred;
  suspend(f);
  if (f->ctx.interrupt) std::rethrow_exception(std::exchange(f->ctx.interrupt, nullptr));
}

ctx::ExecContext* deadlock_target() noexcept {
  if (t_strand == nullptr) return nullptr;
  for (const auto& f : t_strand->fibers) {
    if (f->ctx.blocked != nullptr && f->ctx.interruptible) return &f->ctx;
  }
  return nullptr;
}

void yield() {
  if (t_current == nullptr) {
    std::this_thread::yield();
    return;
  }
  suspend(t_current);
}

Scheduler::Impl::~Impl() {
  for (std::byte* stack : free_stacks) munmap(stack - page, page + stack_size);
}

std::byte* Scheduler::Impl::take_stack() {
  {
    std::lock_guard lock(stacks_mutex);
    if (!free_stacks.empty()) {
      std::byte* stack = free_stacks.back();
      free_stacks.pop_back();
      return stack;
    }
  }
  void* mem = mmap(nullptr, page + stack_size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CLMPI_REQUIRE(mem != MAP_FAILED, "fiber stack allocation failed");
  mprotect(mem, page, PROT_NONE);  // low guard page: stacks grow down
  return static_cast<std::byte*>(mem) + page;
}

std::unique_ptr<Fiber> Scheduler::Impl::make_fiber(std::function<void()> fn,
                                                   std::string label) {
  auto f = std::make_unique<Fiber>();
  f->owner = this;
  f->fn = std::move(fn);
  f->ctx.log_label = std::move(label);
  f->stack = take_stack();
  f->sp = new (f->stack + stack_size - sizeof(FirstFrame)) FirstFrame(first_frame(f.get()));
#ifdef CLMPI_FIBER_TSAN
  f->tsan_fiber = __tsan_create_fiber(0);
  __tsan_set_fiber_name(f->tsan_fiber, f->ctx.log_label.c_str());
#endif
  return f;
}

void Scheduler::Impl::spawn_here(std::function<void()> fn, std::string label) {
  // Called from a fiber, so this worker holds the fiber's strand: the FIFO
  // append needs no lock and lands at a schedule-determined point.
  Strand* s = t_strand;
  auto f = make_fiber(std::move(fn), std::move(label));
  s->ready.push_back(f.get());
  s->fibers.push_back(std::move(f));
}

void Scheduler::Impl::resume(Fiber* f) {
  f->ret_sp = &t_worker_sp;
  t_current = f;
  ctx::set_current(&f->ctx);
  swap_eh_state(f->eh);  // install the fiber's exception state ...
#ifdef CLMPI_FIBER_TSAN
  f->tsan_ret = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f->tsan_fiber, 0);
#endif
#ifdef CLMPI_FIBER_ASAN
  __sanitizer_start_switch_fiber(&t_worker_fake, f->stack, stack_size);
#endif
  clmpi_fiber_switch(&t_worker_sp, f->sp);
#ifdef CLMPI_FIBER_ASAN
  __sanitizer_finish_switch_fiber(t_worker_fake, nullptr, nullptr);
#endif
  swap_eh_state(f->eh);  // ... and keep it with the fiber
  ctx::set_current(nullptr);
  t_current = nullptr;
}

void Scheduler::Impl::retire(Strand& s, Fiber* f) {
#ifdef CLMPI_FIBER_TSAN
  __tsan_destroy_fiber(f->tsan_fiber);
  f->tsan_fiber = nullptr;
#endif
#ifdef CLMPI_FIBER_ASAN
  // The frames that never returned, the trampoline's and its final switch's,
  // are the only ones that can leave redzones behind: they lie between the
  // last saved stack pointer and the top.
  auto* const sp = static_cast<std::byte*>(f->sp);
  __asan_unpoison_memory_region(sp, static_cast<std::size_t>(f->stack + stack_size - sp));
#endif
  {
    std::lock_guard lock(stacks_mutex);
    free_stacks.push_back(std::exchange(f->stack, nullptr));
  }
  // Drop the Fiber record itself: a persistent scheduler hosts thousands of
  // short strands over its life and must not accumulate their corpses.
  std::erase_if(s.fibers, [f](const std::unique_ptr<Fiber>& p) { return p.get() == f; });
}

bool Scheduler::Impl::run_quantum(Strand& s) {
  t_strand = &s;
  t_strand_tag = s.tag;
  for (int i = 0; i < kQuantum && !s.ready.empty(); ++i) {
    Fiber* f = s.ready.front();
    s.ready.pop_front();
    if (f->holds == nullptr || f->ctx.interrupt || f->holds(f->pred)) {
      f->holds = nullptr;
      resume(f);
      ++s.stats.resumes;
      s.fruitless = 0;
      if (f->finished) {
        retire(s, f);
        continue;
      }
    } else {
      ++s.stats.skips;
      ++s.fruitless;
    }
    s.ready.push_back(f);
    if (s.fruitless < s.ready.size()) continue;
    // A full pass of parked fibers whose predicates do not hold: nothing on
    // the strand can move by itself, so run its backstop, which may resolve
    // a request (cancel or deadline rescue) or fail a wait (the deadlock
    // verdict). The pass is counted in the strand's own visits, so where the
    // backstop fires is a function of the strand's schedule alone.
    s.fruitless = 0;
    if (!s.idle()) abort_deadlocked(s);
  }
  t_strand = nullptr;
  t_strand_tag = 0;
  return s.ready.empty();
}

void Scheduler::Impl::worker_loop(int index) {
  log::set_thread_label("sched-worker" + std::to_string(index));
  t_eh_globals = abi::__cxa_get_globals();
  std::unique_lock lock(mutex);
  for (;;) {
    if (rotation.empty()) {
      if (strands.empty() && stopping) return;
      ++parked;
      work_cv.wait(lock);
      --parked;
      continue;
    }
    Strand* s = rotation.front();
    rotation.pop_front();
    if (!rotation.empty() && parked > 0) work_cv.notify_one();
    lock.unlock();
    const bool closed = run_quantum(*s);
    lock.lock();
    if (!closed) {
      rotation.push_back(s);
      continue;
    }
    // The last fiber finished: close the strand (destroying its idle task)
    // and run its close callback without the pool mutex: it may start more.
    std::function<void(const StrandStats&)> on_close = std::move(s->on_close);
    const StrandStats stats = s->stats;
    strands.erase(s->tag);
    if (strands.empty() && stopping) work_cv.notify_all();
    lock.unlock();
    on_close(stats);
    on_close = nullptr;
    lock.lock();
  }
}

Scheduler::Scheduler(Options options) : impl_(std::make_unique<Impl>()) {
  const std::size_t stack_bytes =
      std::max<std::size_t>(options.stack_bytes > 0 ? options.stack_bytes : default_stack_bytes(),
                            std::size_t{64} << 10);
  impl_->page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  impl_->stack_size = (stack_bytes + impl_->page - 1) / impl_->page * impl_->page;
  const int n = std::max(1, options.workers > 0 ? options.workers : default_workers());
  impl_->workers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    impl_->workers.emplace_back([this, i] { impl_->worker_loop(i); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

void Scheduler::start(std::uint64_t strand, std::vector<Task> tasks, std::function<bool()> idle,
                      std::function<void(const StrandStats&)> on_close) {
  CLMPI_REQUIRE(!tasks.empty(), "a strand needs at least one fiber");
  auto s = std::make_unique<Strand>();
  s->tag = strand;
  s->idle = std::move(idle);
  s->on_close = std::move(on_close);
  for (Task& t : tasks) {
    s->fibers.push_back(impl_->make_fiber(std::move(t.fn), std::move(t.label)));
    s->ready.push_back(s->fibers.back().get());
  }
  std::lock_guard lock(impl_->mutex);
  CLMPI_REQUIRE(!impl_->strands.contains(strand), "strand tag already in use");
  impl_->rotation.push_back(s.get());
  impl_->strands.emplace(strand, std::move(s));
  if (impl_->parked > 0) impl_->work_cv.notify_one();
}

StrandStats Scheduler::run(std::uint64_t strand, std::vector<Task> tasks,
                           std::function<bool()> idle) {
  std::promise<StrandStats> closed;
  start(strand, std::move(tasks), std::move(idle),
        [&closed](const StrandStats& stats) { closed.set_value(stats); });
  return closed.get_future().get();
}

ServiceHandle::~ServiceHandle() {
  if (joinable()) join();
}

void ServiceHandle::join() {
  if (done_ == nullptr) return;
  wait([this] { return *done_; }, "sched.service.join", /*interruptible=*/false);
  done_.reset();
}

ServiceHandle spawn_service(std::string label, std::function<void()> fn) {
  Fiber* cur = t_current;
  CLMPI_REQUIRE(cur != nullptr,
                "spawn_service needs a scheduler strand (run inside Cluster::run)");
  // Tenancy propagation: a runtime service works on behalf of the task that
  // started it, so it inherits the spawner's job (strand AND context
  // pointer — quota charges from inside the service bill the right tenant)
  // and rank (the deadlock verdict names it).
  tenant::JobControl* job_ctx = ctx::current().job;
  const int rank = ctx::current().rank;
  ServiceHandle h;
  h.done_ = std::make_shared<bool>(false);
  cur->owner->spawn_here(
      [done = h.done_, job_ctx, rank, fn = std::move(fn)] {
        ctx::current().job = job_ctx;
        ctx::current().rank = rank;
        fn();
        *done = true;
      },
      std::move(label));
  return h;
}

}  // namespace clmpi::sched
