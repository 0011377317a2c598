/**
 * @file
 * ThreadCounters: the one per-thread counter block behind every stats
 * struct that concurrent clients bump (DESIGN.md §11): the device's
 * PmStats, the latch table's traffic counts, EngineStats and PcasStats.
 *
 * A block keeps one cell per thread slot, each on its own cache line,
 * plus one shared overflow cell. The PM ledger (pm/phase.h) hands each
 * thread a dense slot when the thread registers and takes it back when
 * the thread retires, under its registry mutex, so a cell has one
 * writer at a time and a thread that reuses a slot carries on from the
 * counts its predecessor left. The owner bumps its cell with
 * detail::bump, as the ledger bumps its own cells: a relaxed load and a
 * relaxed store on its own line, never a read-modify-write on a shared
 * one. A thread that found every slot taken adds to the overflow cell
 * with fetch_add: correct, only slower.
 *
 * A snapshot adds the cells up. It is exact once the writers are
 * quiescent (joined) and per-field consistent while they run.
 */

#ifndef FASP_PM_THREAD_COUNTERS_H
#define FASP_PM_THREAD_COUNTERS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace fasp::pm {

/** Thread slots the ledger hands out: fig12's largest client count (64)
 *  plus the main thread. Further threads share the overflow cell. */
inline constexpr std::size_t kThreadSlots = 65;

namespace detail {

/** t_threadSlot before the thread's first counted event. */
inline constexpr std::size_t kNoSlot = ~std::size_t{0};

/** The calling thread's slot: kNoSlot until it registers, kThreadSlots
 *  (every block's overflow cell) when no slot was free or once the
 *  thread has retired. Defined in phase.cc. */
extern constinit thread_local std::size_t t_threadSlot;

/** Register the calling thread with the ledger; returns its slot. */
std::size_t registerThreadSlot();

/** Read a one-writer counter cell from any thread. */
inline std::uint64_t
loadCell(std::uint64_t &field)
{
    return std::atomic_ref<std::uint64_t>(field).load(
        std::memory_order_relaxed);
}

/** The writer's increment of its own cell: a relaxed load and store,
 *  never a read-modify-write. */
inline void
bump(std::uint64_t &field, std::uint64_t n = 1)
{
    std::atomic_ref<std::uint64_t>(field).store(loadCell(field) + n,
                                                std::memory_order_relaxed);
}

} // namespace detail

/** The calling thread's slot, registering the thread on first use. */
inline std::size_t
threadSlot()
{
    std::size_t slot = detail::t_threadSlot;
    if (slot == detail::kNoSlot) [[unlikely]]
        slot = detail::registerThreadSlot();
    return slot;
}

/**
 * @p N counters per thread slot; see file comment. Threads whose slot
 * is @p Slots or above share the overflow cell (tests pick a small
 * @p Slots to run it).
 */
template <std::size_t N, std::size_t Slots = kThreadSlots>
class ThreadCounters
{
  public:
    /** Add @p n to counter @p field of the calling thread's cell. */
    void add(std::size_t field, std::uint64_t n = 1)
    {
        std::size_t slot = threadSlot();
        if (slot < Slots) {
            detail::bump(cells_[slot].v[field], n);
        } else {
            std::atomic_ref<std::uint64_t>(cells_[Slots].v[field])
                .fetch_add(n, std::memory_order_relaxed);
        }
    }

    /** Every cell added up, counter by counter. */
    std::array<std::uint64_t, N> sum() const
    {
        std::array<std::uint64_t, N> out{};
        for (Cell &cell : cells_) {
            for (std::size_t i = 0; i < N; ++i)
                out[i] += detail::loadCell(cell.v[i]);
        }
        return out;
    }

    /** Zero every cell. Quiescent only: no thread may add meanwhile. */
    void reset()
    {
        for (Cell &cell : cells_) {
            for (std::uint64_t &v : cell.v)
                std::atomic_ref<std::uint64_t>(v).store(
                    0, std::memory_order_relaxed);
        }
    }

  private:
    struct alignas(kCacheLineSize) Cell
    {
        std::array<std::uint64_t, N> v{};
    };

    /** One cell per slot, then the overflow cell. Mutable because
     *  atomic_ref needs a non-const referent even to load. */
    mutable std::array<Cell, Slots + 1> cells_{};
};

/**
 * One field of a stats snapshot (PmStats, EngineStats, PcasStats): a
 * plain value. load() is there only because perfbench reads the fields
 * the way it read the shared atomics they replace; with the next
 * benchmark change (ROADMAP item 3) the fields become std::uint64_t.
 */
struct StatCount
{
    std::uint64_t value = 0;

    StatCount(std::uint64_t v = 0) : value(v) {}
    operator std::uint64_t() const { return value; }

    std::uint64_t load(std::memory_order = std::memory_order_relaxed) const
    {
        return value;
    }
};

} // namespace fasp::pm

#endif // FASP_PM_THREAD_COUNTERS_H
