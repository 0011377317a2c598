/**
 * @file
 * Raw operation counters for a PM device.
 */

#ifndef FASP_PM_STATS_H
#define FASP_PM_STATS_H

#include "pm/thread_counters.h"

namespace fasp::pm {

/**
 * Monotonic counters of every operation the device performed. These feed
 * the write-amplification table and Figure 9b (clflush counts).
 *
 * A snapshot, by value: PmDevice counts in a per-thread ThreadCounters
 * block and stats() adds its cells up. A snapshot taken while clients
 * run is per-field consistent only; take it after the worker threads
 * are joined for exact numbers.
 */
struct PmStats
{
    StatCount stores;     //!< store operations to PM
    StatCount storeBytes; //!< bytes stored to PM
    StatCount loads;      //!< load operations from PM
    StatCount loadBytes;  //!< bytes loaded from PM
    StatCount clflushes;  //!< cache-line flushes issued
    StatCount fences;     //!< memory fences issued
    StatCount readMisses; //!< simulated read misses
    StatCount modelNs;    //!< modelled PM latency total, every thread

    /** Element-wise difference (for measuring an interval). */
    PmStats since(const PmStats &base) const
    {
        return {stores - base.stores,         storeBytes - base.storeBytes,
                loads - base.loads,           loadBytes - base.loadBytes,
                clflushes - base.clflushes,   fences - base.fences,
                readMisses - base.readMisses, modelNs - base.modelNs};
    }
};

} // namespace fasp::pm

#endif // FASP_PM_STATS_H
