#include "common/sched_hook.h"

namespace fasp::mc {

namespace detail {
std::atomic<SchedulerHook *> g_hook{nullptr};
constinit thread_local bool t_participating = false;
constinit thread_local int t_hookDepth = 0;
} // namespace detail

const char *
hookOpName(HookOp op)
{
    switch (op) {
      case HookOp::ThreadStart:           return "thread-start";
      case HookOp::ThreadFinish:          return "thread-finish";
      case HookOp::MutexLock:             return "mutex-lock";
      case HookOp::MutexUnlock:           return "mutex-unlock";
      case HookOp::LatchAcquireShared:    return "latch-acquire-s";
      case HookOp::LatchAcquireExclusive: return "latch-acquire-x";
      case HookOp::LatchUpgrade:          return "latch-upgrade";
      case HookOp::LatchReleaseShared:    return "latch-release-s";
      case HookOp::LatchReleaseExclusive: return "latch-release-x";
      case HookOp::PmStore:               return "pm-store";
      case HookOp::PmFlush:               return "pm-flush";
      case HookOp::PmFence:               return "pm-fence";
      case HookOp::UserYield:             return "user-yield";
      case HookOp::PmCas:                 return "pm-cas";
    }
    return "?";
}

void
installSchedulerHook(SchedulerHook *hook)
{
    detail::g_hook.store(hook, std::memory_order_release);
}

void
setThreadParticipating(bool on)
{
    detail::t_participating = on;
}

bool
threadParticipating()
{
    return detail::t_participating;
}

} // namespace fasp::mc
