/**
 * @file
 * A writer-preferring reader/writer lock.
 *
 * std::shared_mutex on glibc prefers readers: a stream of overlapping
 * readers (query threads running back to back) can hold the lock shared
 * forever and starve a writer.  RwLock wraps a pthread rwlock created
 * with PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP, so once a writer
 * waits, new readers queue behind it.  The price is that a thread must
 * never take the shared side twice: with a writer waiting, the second
 * acquisition blocks behind it and deadlocks.
 *
 * Satisfies the SharedMutex named requirement (minus the try_ forms),
 * so std::shared_lock / std::unique_lock / std::lock_guard work.
 */

#ifndef DVP_UTIL_RWLOCK_HH
#define DVP_UTIL_RWLOCK_HH

#include <pthread.h>

#include "util/logging.hh"

namespace dvp
{

class RwLock
{
  public:
    RwLock()
    {
        pthread_rwlockattr_t attr;
        pthread_rwlockattr_init(&attr);
#ifdef __GLIBC__
        pthread_rwlockattr_setkind_np(
            &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
#endif
        check(pthread_rwlock_init(&rw, &attr));
        pthread_rwlockattr_destroy(&attr);
    }

    ~RwLock() { pthread_rwlock_destroy(&rw); }

    RwLock(const RwLock &) = delete;
    RwLock &operator=(const RwLock &) = delete;

    void lock() { check(pthread_rwlock_wrlock(&rw)); }
    void unlock() { check(pthread_rwlock_unlock(&rw)); }
    void lock_shared() { check(pthread_rwlock_rdlock(&rw)); }
    void unlock_shared() { check(pthread_rwlock_unlock(&rw)); }

  private:
    /** A failing lock call (EDEADLK, EAGAIN) would leave data unguarded. */
    static void
    check(int rc)
    {
        invariant(rc == 0, "pthread rwlock call failed");
    }

    pthread_rwlock_t rw;
};

} // namespace dvp

#endif // DVP_UTIL_RWLOCK_HH
