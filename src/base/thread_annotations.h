// Clang thread-safety-analysis annotation macros (no-ops on GCC/MSVC).
//
// The macros below let the compiler prove, on every clang build, the
// host-concurrency disciplines that PRs 3/7/8 could only check dynamically
// (TSan on sampled tests, replay-determinism gates):
//
//   - mutex-guarded state   — GUARDED_BY(mu) on members, REQUIRES(mu) on
//     functions, enforced through the annotated Mutex/MutexLock wrappers in
//     src/base/mutex.h (libstdc++'s std::mutex carries no annotations, so
//     raw std::lock_guard use is invisible to the analysis);
//   - capability tokens     — CAPABILITY classes with no runtime state model
//     ownership that is transferred by a barrier instead of a lock. The
//     engine's per-queue window (Engine::Queue::cap, handed to one host
//     thread per parallel phase) is such a token: Acquire()/Release() and
//     AssertHeld() compile to nothing, but any new code that touches
//     GUARDED_BY(cap) state without the token is a compile error under
//     -Wthread-safety (promoted to -Werror=thread-safety on clang builds,
//     see the top-level CMakeLists.txt).
//
// State whose owner is a *dynamic* property the type system cannot name —
// the per-socket banked protocol state ("this bank may only be touched from
// its socket's shard window") — is covered by the companion static analyzer
// scripts/tlblint.py via its banked(socket) member annotations instead.
// See docs/CHECKING.md § Static analysis for the full model.
#ifndef TLBSIM_SRC_BASE_THREAD_ANNOTATIONS_H_
#define TLBSIM_SRC_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SWIG)
#define TLBSIM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TLBSIM_THREAD_ANNOTATION(x)  // no-op: GCC parses but ignores nothing
#endif

// Type annotations -----------------------------------------------------------

// Marks a class as a capability (lockable or a pure ownership token).
#define CAPABILITY(x) TLBSIM_THREAD_ANNOTATION(capability(x))

// Marks an RAII class whose constructor acquires and destructor releases.
#define SCOPED_CAPABILITY TLBSIM_THREAD_ANNOTATION(scoped_lockable)

// Member annotations ---------------------------------------------------------

// Data member readable/writable only while holding the given capability.
#define GUARDED_BY(x) TLBSIM_THREAD_ANNOTATION(guarded_by(x))

// Pointer member whose *pointee* is protected by the given capability.
#define PT_GUARDED_BY(x) TLBSIM_THREAD_ANNOTATION(pt_guarded_by(x))

// Lock-ordering declarations (checked under -Wthread-safety-beta; kept for
// documentation value on stable clang).
#define ACQUIRED_BEFORE(...) TLBSIM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) TLBSIM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Function annotations -------------------------------------------------------

// Caller must hold the capability (exclusively / shared) across the call.
#define REQUIRES(...) TLBSIM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) TLBSIM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// Function acquires the capability and does not release it before returning.
#define ACQUIRE(...) TLBSIM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) TLBSIM_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

// Function releases a capability the caller held on entry.
#define RELEASE(...) TLBSIM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) TLBSIM_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

// Function tries to acquire; first argument is the success return value.
#define TRY_ACQUIRE(...) TLBSIM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Caller must NOT hold the capability (non-reentrancy / deadlock guard).
#define EXCLUDES(...) TLBSIM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Informs the analysis that the capability is held at this point. This is
// the sanctioned escape hatch for barrier-transferred ownership: the runtime
// justification (ThreadPool::Drain's mutex hand-off, the engine's
// single-coordinator phases) is documented at each use site.
#define ASSERT_CAPABILITY(x) TLBSIM_THREAD_ANNOTATION(assert_capability(x))

// Function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) TLBSIM_THREAD_ANNOTATION(lock_returned(x))

// Turns the analysis off for one function. Must not appear in src/exec,
// src/sim or src/core (enforced by scripts/tlblint.py rule `no-ts-optout`).
#define NO_THREAD_SAFETY_ANALYSIS TLBSIM_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // TLBSIM_SRC_BASE_THREAD_ANNOTATIONS_H_
