// fasp-analyze fixture: must lint clean. Exercises the file-scope waiver
// form, which wrapper-internal files (latch table, span ring, stats)
// use instead of a line waiver per member.
// fasp-analyze: allow-file(raw-std-sync) -- fixture: this file plays a
// sync-wrapper internal, where raw primitives are the implementation.
#include <atomic>
#include <mutex>

namespace fixture {

struct WrapperInternals
{
    std::mutex mu;
    std::atomic<unsigned long> acquires{0};
    std::atomic<unsigned long> conflicts{0};
};

} // namespace fixture
