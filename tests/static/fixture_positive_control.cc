// Positive-control fixture: idiomatic use of the annotated primitives
// — fasp::MutexLock over a GUARDED_BY member, a REQUIRES callee under
// the lock, and the RAII PageLatch guards — must compile clean under
// -Wthread-safety -Werror=thread-safety. If this fixture fails, the
// macros are broken, not the callers.
#include "common/thread_annotations.h"
#include "pager/latch_table.h"

namespace {

class Counter
{
  public:
    void increment()
    {
        fasp::MutexLock lk(&mu_);
        bump();
    }

    int snapshot()
    {
        fasp::MutexLock lk(&mu_);
        return value_;
    }

  private:
    void bump() REQUIRES(mu_) { value_++; }

    fasp::Mutex mu_;
    int value_ GUARDED_BY(mu_) = 0;
};

int
readUnderLatches(fasp::LatchTable &table, fasp::PageId pid,
                 Counter &counter)
{
    {
        fasp::SharedPageLatchGuard shared(table.latch(pid), pid);
        counter.increment();
    }
    fasp::ExclusivePageLatchGuard exclusive(table.latch(pid), pid);
    return counter.snapshot();
}

} // namespace

int
main()
{
    fasp::LatchTable table(8);
    Counter counter;
    return readUnderLatches(table, 3, counter);
}
