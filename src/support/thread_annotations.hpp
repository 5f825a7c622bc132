#pragma once

// Clang Thread Safety Analysis macros (DESIGN.md §8).  Under clang these
// expand to the capability attributes that drive -Wthread-safety; under
// every other compiler they expand to nothing, so gcc builds see plain
// classes with zero overhead and zero new diagnostics.
//
// Conventions used across the runtime:
//   - SyncMutex is the only CAPABILITY type; raw std::mutex is banned in
//     runtime code (libstdc++'s mutex carries no annotations, so locking
//     through it is invisible to the analysis).
//   - Every member written under a mutex carries GUARDED_BY(mu_).  Atomics
//     accessed lock-free on at least one path are NOT annotated — TSA's
//     guarded_by demands the lock on every access, which would outlaw the
//     documented lock-free reads (LcoArena::triggered, stat counters).
//   - *_locked() helpers take REQUIRES(mu) and never lock themselves.
//   - Functions that must not be entered with a lock held (anything that
//     can block on the network or on another capability) take EXCLUDES.
//   - NO_THREAD_SAFETY_ANALYSIS appears only inside the sync primitives
//     themselves (condition-variable wait bodies, the flight-recorder
//     signal path) — never in ordinary runtime code.

#if defined(__clang__)
#define AMTFMM_TSA_ATTR(x) __attribute__((x))
#else
#define AMTFMM_TSA_ATTR(x)  // no-op off clang
#endif

/// Marks a class as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define CAPABILITY(x) AMTFMM_TSA_ATTR(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define SCOPED_CAPABILITY AMTFMM_TSA_ATTR(scoped_lockable)

/// Data member readable/writable only while holding the named capability.
#define GUARDED_BY(x) AMTFMM_TSA_ATTR(guarded_by(x))

/// Pointer member whose pointee is protected by the named capability.
#define PT_GUARDED_BY(x) AMTFMM_TSA_ATTR(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock detection).
#define ACQUIRED_BEFORE(...) AMTFMM_TSA_ATTR(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) AMTFMM_TSA_ATTR(acquired_after(__VA_ARGS__))

/// Caller must already hold the capability (it is not acquired here).
#define REQUIRES(...) AMTFMM_TSA_ATTR(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  AMTFMM_TSA_ATTR(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define ACQUIRE(...) AMTFMM_TSA_ATTR(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  AMTFMM_TSA_ATTR(acquire_shared_capability(__VA_ARGS__))

/// Function releases a held capability.
#define RELEASE(...) AMTFMM_TSA_ATTR(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  AMTFMM_TSA_ATTR(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define TRY_ACQUIRE(...) AMTFMM_TSA_ATTR(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  AMTFMM_TSA_ATTR(try_acquire_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (guards against self-deadlock and
/// against holding a lock across a blocking call).
#define EXCLUDES(...) AMTFMM_TSA_ATTR(locks_excluded(__VA_ARGS__))

/// Runtime-checked assertion that the capability is held (no acquire).
#define ASSERT_CAPABILITY(x) AMTFMM_TSA_ATTR(assert_capability(x))

/// Function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) AMTFMM_TSA_ATTR(lock_returned(x))

/// Escape hatch: function body is not analyzed.  Reserved for the sync
/// primitives (see file comment); every use must say why.
#define NO_THREAD_SAFETY_ANALYSIS AMTFMM_TSA_ATTR(no_thread_safety_analysis)
