// Coroutine task type for simulated-processor programs.
//
// Every simulated processor runs one root `Task`. Programs express memory
// operations as awaitables supplied by the CPU model (cpu/cpu.hpp); library
// routines (locks, barriers, reductions) are themselves Tasks awaited by the
// caller, composed with symmetric transfer so nesting costs no host stack.
//
// Tasks are lazy: the body does not run until the task is started (root) or
// awaited (child). This lets a routine be constructed, captured, and resumed
// from inside discrete-event callbacks.
#pragma once

#include "sim/event_queue.hpp"

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <utility>

namespace ccsim::sim {

namespace detail {
/// Coroutine frames created on this thread, ever. Thread-local because a
/// Machine runs entirely on one thread: the host-telemetry layer reads a
/// delta across Machine::run and gets a per-run count even when a parallel
/// sweep runs many Machines at once (obs/host_perf.hpp).
extern thread_local std::uint64_t t_frames_allocated;

/// Coroutine frame storage from this thread's pool: free lists in 64-byte
/// size classes up to 1 KiB, ::operator new above that. Each pooled block
/// is its own allocation, so a frame may be freed on another thread; a
/// thread's pool releases its blocks when the thread exits.
[[nodiscard]] void* frame_alloc(std::size_t n);
void frame_free(void* p, std::size_t n) noexcept;
} // namespace detail

/// Coroutine frames created by this thread so far (pooled or not).
[[nodiscard]] inline std::uint64_t frames_allocated() noexcept {
  return detail::t_frames_allocated;
}

class Task {
public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    // Frames come from the thread's frame pool and are counted for the
    // host-telemetry layer.
    static void* operator new(std::size_t n) {
      ++detail::t_frames_allocated;
      return detail::frame_alloc(n);
    }
    static void operator delete(void* p, std::size_t n) noexcept {
      detail::frame_free(p, n);
    }

    std::coroutine_handle<> continuation;   ///< resumed when this task finishes
    std::function<void()> on_done;          ///< completion hook for root tasks
    std::exception_ptr exception;
    bool finished = false;

    Task get_return_object() { return Task{Handle::from_promise(*this)}; }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        auto& p = h.promise();
        p.finished = true;
        if (p.on_done) p.on_done();
        if (p.continuation) return p.continuation;
        return std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(h_); }
  [[nodiscard]] bool done() const noexcept { return h_ && h_.promise().finished; }

  /// Start a root task. `on_done` fires when the task body returns.
  /// If the body completes with an exception, it is rethrown here (root
  /// tasks have nowhere else to report).
  void start(std::function<void()> on_done = {}) {
    assert(h_ && !h_.promise().finished);
    h_.promise().on_done = std::move(on_done);
    h_.resume();
    rethrow_if_failed();
  }

  /// Rethrow an exception captured from the task body, if any.
  void rethrow_if_failed() {
    if (h_ && h_.promise().finished && h_.promise().exception)
      std::rethrow_exception(h_.promise().exception);
  }

  /// Awaiting a task starts it and suspends the awaiter until it finishes.
  auto operator co_await() noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.promise().finished; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;   // symmetric transfer: start the child
      }
      void await_resume() const {
        if (h && h.promise().exception) std::rethrow_exception(h.promise().exception);
      }
    };
    return Awaiter{h_};
  }

private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_;
};

/// Awaitable that resumes the coroutine `delay` cycles later.
/// Usage: `co_await sim::delay(queue, 10);`
struct DelayAwaiter {
  EventQueue& q;
  Cycle delay;
  bool await_ready() const noexcept { return delay == 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    q.schedule(delay, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

inline DelayAwaiter delay(EventQueue& q, Cycle d) { return DelayAwaiter{q, d}; }

} // namespace ccsim::sim
