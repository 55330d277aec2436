/**
 * @file
 * Coroutine task type for simulation processes.
 *
 * Model components are written as C++20 coroutines ("processes" in
 * SimPy-speak) that co_await simulated time and synchronization objects.
 * A Task<T> is eagerly started: its body runs up to the first suspension
 * point as soon as it is called.
 *
 * Ownership rules:
 *  - A live Task object owns the coroutine frame; the frame is destroyed
 *    by the Task destructor once the coroutine has finished.
 *  - Destroying a Task before the coroutine finishes *detaches* it: the
 *    coroutine keeps running inside the simulator and frees its own frame
 *    upon completion. Use this for fire-and-forget processes.
 *  - `co_await task` suspends until the coroutine finishes and yields its
 *    result. At most one awaiter per task.
 */
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace octo::sim {

namespace detail {

/**
 * Size-classed free-list allocator for coroutine frames.
 *
 * Per-packet processes (NIC rxPath/txProcess, PCIe DMA transactions)
 * create and destroy a coroutine frame each; routing those through
 * malloc dominated the profile alongside the old event queue. Frames
 * recycle through 64-byte size classes instead — steady-state frame
 * allocation touches no global allocator. Memory is retained for the
 * process lifetime (freelists keep it reachable, so leak checkers stay
 * quiet). Single-threaded by design, like the simulator itself.
 */
class FramePool
{
  public:
    static constexpr std::size_t kClassShift = 6; // 64-byte classes
    static constexpr std::size_t kClasses = 64;   // pool up to 4 KiB

    static FramePool&
    instance()
    {
        static FramePool pool;
        return pool;
    }

    void*
    alloc(std::size_t n)
    {
        const std::size_t cls =
            (n + (std::size_t{1} << kClassShift) - 1) >> kClassShift;
        if (cls >= kClasses)
            return ::operator new(n);
        if (free_[cls] != nullptr) {
            void* p = free_[cls];
            free_[cls] = *static_cast<void**>(p);
            return p;
        }
        return ::operator new(cls << kClassShift);
    }

    void
    release(void* p, std::size_t n)
    {
        const std::size_t cls =
            (n + (std::size_t{1} << kClassShift) - 1) >> kClassShift;
        if (cls >= kClasses) {
            ::operator delete(p);
            return;
        }
        *static_cast<void**>(p) = free_[cls];
        free_[cls] = p;
    }

  private:
    void* free_[kClasses] = {};
};

/** State shared by all Task promises, independent of the result type. */
struct PromiseBase
{
    std::coroutine_handle<> continuation{};
    /// The awaiting coroutine's promise when it is a Task (else null):
    /// lets teardown walk a parked chain up to its owner.
    PromiseBase* parent = nullptr;
    bool done = false;
    bool detached = false;

    // Coroutine frames come from the pooled allocator. Only the sized
    // form is declared so the compiler must emit it, giving the pool
    // its size class back on free.
    static void*
    operator new(std::size_t n)
    {
        return FramePool::instance().alloc(n);
    }

    static void
    operator delete(void* p, std::size_t n)
    {
        FramePool::instance().release(p, n);
    }
};

/**
 * The promise's `detached` flag address when the suspending coroutine
 * is a Task (stable for the frame's lifetime), else nullptr. Timer and
 * sync-wakeup events record it so ~Simulator can reclaim parked frames
 * nobody owns (see the teardown notes there).
 */
template <typename P>
const bool*
detachedFlag(std::coroutine_handle<P> h)
{
    if constexpr (std::is_base_of_v<PromiseBase, P>)
        return &h.promise().detached;
    else
        return nullptr;
}

/**
 * Final awaiter: transfers control to the awaiting coroutine (if any)
 * and reclaims the frame of a detached task.
 */
template <typename Promise>
struct FinalAwaiter
{
    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<Promise> h) noexcept
    {
        PromiseBase& p = h.promise();
        p.done = true;
        std::coroutine_handle<> cont =
            p.continuation ? p.continuation : std::noop_coroutine();
        if (p.detached)
            h.destroy();
        return cont;
    }

    void await_resume() const noexcept {}
};

} // namespace detail

/**
 * An eagerly-started simulation coroutine returning T (default void).
 */
template <typename T = void>
class [[nodiscard]] Task
{
  public:
    struct promise_type : detail::PromiseBase
    {
        std::optional<T> value;

        Task
        get_return_object()
        {
            return Task{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_never initial_suspend() noexcept { return {}; }

        detail::FinalAwaiter<promise_type>
        final_suspend() noexcept
        {
            return {};
        }

        void
        return_value(T v)
        {
            value.emplace(std::move(v));
        }

        void unhandled_exception() { std::terminate(); }
    };

    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}

    Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}

    Task&
    operator=(Task&& o) noexcept
    {
        if (this != &o) {
            release();
            handle_ = std::exchange(o.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;

    ~Task() { release(); }

    /** True once the coroutine body has run to completion. */
    bool done() const { return !handle_ || handle_.promise().done; }

    /** Abandon ownership; the coroutine cleans up after itself. */
    void
    detach()
    {
        release();
    }

    struct Awaiter
    {
        Handle h;
        bool await_ready() const { return h.promise().done; }
        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> cont)
        {
            assert(!h.promise().continuation);
            h.promise().continuation = cont;
            if constexpr (std::is_base_of_v<detail::PromiseBase, P>)
                h.promise().parent = &cont.promise();
        }
        T
        await_resume()
        {
            return std::move(*h.promise().value);
        }
    };

    /** Awaiter: suspend until the task completes, yielding its value. */
    Awaiter
    operator co_await() &
    {
        return Awaiter{handle_};
    }

    auto
    operator co_await() &&
    {
        return operator co_await();
    }

  private:
    void
    release()
    {
        if (!handle_)
            return;
        if (handle_.promise().done)
            handle_.destroy();
        else
            handle_.promise().detached = true;
        handle_ = nullptr;
    }

    Handle handle_{};
};

/** Specialization for tasks with no result. */
template <>
class [[nodiscard]] Task<void>
{
  public:
    struct promise_type : detail::PromiseBase
    {
        Task
        get_return_object()
        {
            return Task{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_never initial_suspend() noexcept { return {}; }

        detail::FinalAwaiter<promise_type>
        final_suspend() noexcept
        {
            return {};
        }

        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };

    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}

    Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}

    Task&
    operator=(Task&& o) noexcept
    {
        if (this != &o) {
            release();
            handle_ = std::exchange(o.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;

    ~Task() { release(); }

    bool done() const { return !handle_ || handle_.promise().done; }

    void
    detach()
    {
        release();
    }

    struct Awaiter
    {
        Handle h;
        bool await_ready() const { return h.promise().done; }
        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> cont)
        {
            assert(!h.promise().continuation);
            h.promise().continuation = cont;
            if constexpr (std::is_base_of_v<detail::PromiseBase, P>)
                h.promise().parent = &cont.promise();
        }
        void await_resume() const {}
    };

    /** Awaiter: suspend until the task completes. */
    Awaiter
    operator co_await() &
    {
        return Awaiter{handle_};
    }

    auto
    operator co_await() &&
    {
        return operator co_await();
    }

  private:
    void
    release()
    {
        if (!handle_)
            return;
        if (handle_.promise().done)
            handle_.destroy();
        else
            handle_.promise().detached = true;
        handle_ = nullptr;
    }

    Handle handle_{};
};

/**
 * Awaitable that suspends the current coroutine for @p d ticks.
 *
 * A zero (or negative) delay still suspends and requeues, preserving
 * FIFO fairness between same-tick processes.
 */
struct Delay
{
    Simulator& sim;
    Tick d;

    bool await_ready() const noexcept { return false; }

    template <typename P>
    void
    await_suspend(std::coroutine_handle<P> h) const
    {
        sim.scheduleResume(d, h, detail::detachedFlag(h));
    }

    void await_resume() const noexcept {}
};

/** Suspend the calling coroutine for @p d ticks of simulated time. */
inline Delay
delay(Simulator& sim, Tick d)
{
    return Delay{sim, d};
}

/**
 * Safely run a (possibly capturing) lambda coroutine.
 *
 * A capturing lambda must outlive any coroutine produced by invoking it
 * (the closure is the coroutine's implicit object parameter and is NOT
 * copied into the frame — CppCoreGuidelines CP.51). spawn() copies the
 * callable into its own coroutine frame and awaits the inner task, so
 * `spawn([&]() -> Task<> {...})` is safe where a bare immediately-invoked
 * lambda coroutine would dangle.
 */
template <typename F>
Task<>
spawn(F fn)
{
    co_await fn();
}

} // namespace octo::sim
