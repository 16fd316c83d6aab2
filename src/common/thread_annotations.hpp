/**
 * @file
 * Clang thread-safety annotations and the annotated lock types the
 * concurrent core is written against.
 *
 * The determinism contract (DESIGN.md "Static concurrency &
 * determinism enforcement") is enforced three ways: TSan replays
 * catch races dynamically, goldens pin byte-identical output at
 * 1/4 threads, and — this header — Clang's `-Wthread-safety`
 * analysis proves at *compile time* that every access to a guarded
 * member happens with its capability held.  GCC compiles the same
 * code with the macros expanded away, so the annotations cost
 * nothing off Clang.
 *
 * Three building blocks:
 *
 *  - The `AMPED_*` attribute macros, mirroring the standard Clang
 *    capability vocabulary (CAPABILITY, GUARDED_BY, REQUIRES, ...).
 *
 *  - `Mutex` / `MutexLock`: a `std::mutex` wrapper annotated as a
 *    capability, plus its scoped guard.  libstdc++'s `std::mutex`
 *    carries no capability attributes, so `GUARDED_BY` on members
 *    only analyzes when the mutex type itself is annotated — every
 *    mutex-protected class in the repo (`ThreadPool`,
 *    `obs::MetricsRegistry`, `serve::SweepCacheLru`) holds an
 *    `amped::Mutex`.  `MutexLock` exposes
 *    `lock()`/`unlock()` so `std::condition_variable_any` can wait
 *    on it directly; the analysis sees the capability held across
 *    the wait, which matches the cv contract (the lock is
 *    reacquired before `wait` returns).
 *
 *  - `SerialGate` / `SerialSection`: a *phantom* capability for
 *    caller-serialized classes (`WorkQueue`, `serve::Server`) whose
 *    contract is "one service loop drives me" rather than "I take a
 *    lock".  The gate's acquire/release compile to nothing; its
 *    value is that every member touching confined state must be
 *    annotated and every entry point must enter the gate, so a new
 *    helper that reaches confined state without going through a
 *    serialized entry point fails the build under Clang.  It proves
 *    access *discipline*, not mutual exclusion — the latter is the
 *    owning loop's job (and TSan's to check).
 */

#ifndef AMPED_COMMON_THREAD_ANNOTATIONS_HPP
#define AMPED_COMMON_THREAD_ANNOTATIONS_HPP

#include <mutex>

#if defined(__clang__)
#define AMPED_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define AMPED_THREAD_ANNOTATION(x) // no-op off Clang
#endif

/** Marks a type as a capability ("mutex", "role", ...). */
#define AMPED_CAPABILITY(x) AMPED_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires in its ctor / releases in its
 *  dtor. */
#define AMPED_SCOPED_CAPABILITY AMPED_THREAD_ANNOTATION(scoped_lockable)

/** Member data that may only be touched while holding @p x. */
#define AMPED_GUARDED_BY(x) AMPED_THREAD_ANNOTATION(guarded_by(x))

/** Pointer member whose *pointee* is guarded by @p x. */
#define AMPED_PT_GUARDED_BY(x) AMPED_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function that must be called with the capabilities held. */
#define AMPED_REQUIRES(...) \
    AMPED_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function that acquires the capabilities and holds them on exit. */
#define AMPED_ACQUIRE(...) \
    AMPED_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function that releases the capabilities. */
#define AMPED_RELEASE(...) \
    AMPED_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function that must NOT be called with the capabilities held. */
#define AMPED_EXCLUDES(...) \
    AMPED_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Run-time assertion that the capability is held (analysis trusts
 *  it; used at the WorkQueue task boundary, see serve/server.cpp). */
#define AMPED_ASSERT_CAPABILITY(x) \
    AMPED_THREAD_ANNOTATION(assert_capability(x))

/** Function returning a reference to the named capability. */
#define AMPED_RETURN_CAPABILITY(x) \
    AMPED_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch; every use needs a justifying comment. */
#define AMPED_NO_THREAD_SAFETY_ANALYSIS \
    AMPED_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace amped {

/**
 * `std::mutex` annotated as a Clang capability.  Same cost, same
 * semantics; the wrapper exists solely so `AMPED_GUARDED_BY(mutex_)`
 * analyzes on libstdc++ (whose `std::mutex` is unannotated).
 */
class AMPED_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() AMPED_ACQUIRE() { mutex_.lock(); }
    void unlock() AMPED_RELEASE() { mutex_.unlock(); }

  private:
    std::mutex mutex_;
};

/**
 * Scoped guard over `Mutex` — `std::lock_guard` with capability
 * attributes, plus the `lock()`/`unlock()` BasicLockable face that
 * lets `std::condition_variable_any::wait(MutexLock &)` unlock and
 * reacquire it.  Waiters use the manual-predicate form
 *
 *     MutexLock lock(mutex_);
 *     while (!predicateOverGuardedState())
 *         cv_.wait(lock);
 *
 * so the analysis sees every guarded access under the capability
 * (the lambda-predicate `wait` overload hides the reacquisition
 * from it).
 */
class AMPED_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) AMPED_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~MutexLock() AMPED_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    // BasicLockable face for condition_variable_any.  The analysis
    // attributes these to the underlying mutex, so the capability
    // state stays balanced across a wait (release on entry,
    // reacquire before return).
    void lock() AMPED_ACQUIRE() { mutex_.lock(); }
    void unlock() AMPED_RELEASE() { mutex_.unlock(); }

  private:
    Mutex &mutex_;
};

/**
 * Phantom capability for caller-serialized state: classes whose
 * thread-safety contract is "one service loop drives me".  Entering
 * and leaving compile to nothing; the annotations make Clang verify
 * that confined members are only reached through entry points that
 * enter the gate.
 */
class AMPED_CAPABILITY("serial") SerialGate
{
  public:
    SerialGate() = default;
    SerialGate(const SerialGate &) = delete;
    SerialGate &operator=(const SerialGate &) = delete;

    void enter() const AMPED_ACQUIRE() {}
    void exit() const AMPED_RELEASE() {}

    /**
     * Declares (without checking) that the calling context is inside
     * the gate — the escape for work the analysis cannot follow,
     * e.g. a closure submitted to a WorkQueue that the same loop
     * drains synchronously.  Each use documents why it holds.
     */
    void assertEntered() const AMPED_ASSERT_CAPABILITY(this) {}
};

/** RAII section over a SerialGate. */
class AMPED_SCOPED_CAPABILITY SerialSection
{
  public:
    explicit SerialSection(const SerialGate &gate) AMPED_ACQUIRE(gate)
        : gate_(gate)
    {
        gate_.enter();
    }

    ~SerialSection() AMPED_RELEASE() { gate_.exit(); }

    SerialSection(const SerialSection &) = delete;
    SerialSection &operator=(const SerialSection &) = delete;

  private:
    const SerialGate &gate_;
};

} // namespace amped

#endif // AMPED_COMMON_THREAD_ANNOTATIONS_HPP
